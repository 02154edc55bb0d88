"""Command-line front end.

Subcommands load systems, inputs and rational data from JSON, run one
pipeline each and write a deterministic JSON result (CSV for sweeps).
Exit codes: 0 success, 2 input validation failure, 3 numerical failure.
Diagnostics go to stderr as a machine-readable error object; no partial
result file is left behind on failure.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import io as qio
from .algebra import flat_unitary_residual
from .estimation import (
    destabilized_scaling_check,
    stationary_qfi_rate_freq,
    stationary_qfi_rate_time,
)
from .absorber import dual_system
from .model import (
    check_pr,
    default_grid,
    freq_response,
    is_hurwitz,
    is_minimal,
    spectral_gap,
)
from .realization import (
    IdentificationError,
    noisy_realize,
    physical_from_classical,
    gilbert_realize,
    ps_realize,
    siso_cascade_identify,
)
from .stationary import InputCovariance, is_globally_minimal, power_spectrum, pure_mixed_split, solve_lyapunov


class InputError(ValueError):
    """Malformed or physically invalid input (exit code 2)."""


def _load_system(path):
    try:
        return qio.system_from_json(qio.load_json(path))
    except (OSError, KeyError, ValueError) as exc:
        raise InputError(f"could not load system from {path}: {exc}") from exc


def _load_input(path, m):
    if path is None:
        return InputCovariance.vacuum(m)
    try:
        return qio.input_from_json(qio.load_json(path))
    except (OSError, KeyError, ValueError) as exc:
        raise InputError(f"could not load input covariance from {path}: {exc}") from exc


def _grid(sys, spec):
    if spec is None or spec == "auto":
        return default_grid(sys)
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InputError(f"grid must be 'auto' or a JSON list of [re, im] pairs: {exc}")
    if not isinstance(spec, list):
        raise InputError("grid must be 'auto' or a JSON list of [re, im] pairs")
    return np.array([complex(v[0], v[1]) for v in spec])


def _emit(args, payload):
    text = qio.dump_json(payload, args.output)
    if args.output is None:
        print(text)


def cmd_validate(args):
    sys_ = _load_system(args.system)
    payload = {
        "n": sys_.n,
        "m": sys_.m,
        "pr": bool(check_pr(sys_.A, sys_.C, tol=args.tol)),
        "hurwitz": bool(is_hurwitz(sys_)),
        "minimal": bool(is_minimal(sys_)),
        "passive": bool(sys_.is_passive),
        "spectral_gap": float(spectral_gap(sys_)),
        "fpr_residual": float(
            max(flat_unitary_residual(X) for X in freq_response(sys_, default_grid(sys_, 11)))
        ),
    }
    _emit(args, payload)


def cmd_tf(args):
    sys_ = _load_system(args.system)
    grid = _grid(sys_, args.grid)
    values = [qio.matrix_to_json(X) for X in freq_response(sys_, grid)]
    _emit(args, {"grid": [qio.complex_to_pair(s) for s in grid], "values": values})


def cmd_ps(args):
    sys_ = _load_system(args.system)
    V = _load_input(args.input, sys_.m)
    grid = _grid(sys_, args.grid)
    values = [qio.matrix_to_json(Psi) for Psi in power_spectrum(sys_, V, grid)]
    _emit(args, {"grid": [qio.complex_to_pair(s) for s in grid], "values": values})


def cmd_gm(args):
    sys_ = _load_system(args.system)
    V = _load_input(args.input, sys_.m)
    if not is_hurwitz(sys_):
        raise InputError("global minimality needs a Hurwitz system")
    state = solve_lyapunov(sys_, V)
    verdict = is_globally_minimal(sys_, V, gm_tol=args.gm_tol)
    _emit(args, {
        "globally_minimal": bool(verdict),
        "symplectic_spectrum": [float(v) for v in state.symplectic_spectrum],
        "lyapunov_residual": state.residual,
    })


def cmd_split(args):
    sys_ = _load_system(args.system)
    V = _load_input(args.input, sys_.m)
    out = pure_mixed_split(sys_, V, gm_tol=args.gm_tol)
    payload = {
        "pure": None if out["pure"] is None else qio.system_to_json(out["pure"]),
        "mixed": None if out["mixed"] is None else qio.system_to_json(out["mixed"]),
        "rotated": qio.system_to_json(out["rotated"]),
        "field_transform": qio.matrix_to_json(out["field_transform"]),
    }
    _emit(args, payload)


def cmd_realize_tf(args):
    data = qio.load_json(args.rational)
    tf = qio.rational_from_json(data)
    sys_ = physical_from_classical(gilbert_realize(tf))
    _emit(args, qio.system_to_json(sys_))


def cmd_realize_ps(args):
    data = qio.load_json(args.rational)
    ps = qio.rational_from_json(data)
    sys_, details = ps_realize(ps, return_details=True)
    _emit(args, {
        "system": qio.system_to_json(sys_),
        "T3bT3": qio.matrix_to_json(details["T3bT3"]),
        "spectrum": [qio.complex_to_pair(z) for z in np.sort_complex(sys_.poles)],
    })


def cmd_realize_noisy(args):
    ss = qio.statespace_from_json(qio.load_json(args.statespace))
    rng = np.random.default_rng(args.seed)
    sys_ = noisy_realize(ss, args.n_noise, rng=rng)
    _emit(args, qio.system_to_json(sys_))


def cmd_cascade_id(args):
    data = qio.load_json(args.rational)
    xi_m = qio.rational_from_json(data["xi_minus"])
    xi_p = qio.rational_from_json(data["xi_plus"])
    order = "damping"
    if args.pole_order:
        order = [complex(p[0], p[1]) for p in qio.load_json(args.pole_order)]
    casc = siso_cascade_identify(xi_m, xi_p, pole_order=order)
    stages = [
        {
            "c": st.c,
            "omega_minus": st.omega_minus,
            "omega_plus": qio.complex_to_pair(st.omega_plus),
        }
        for st in casc.stages
    ]
    _emit(args, {"stages": stages})


def cmd_absorber(args):
    sys_ = _load_system(args.system)
    res = dual_system(sys_, gm_tol=args.gm_tol)
    payload = {
        "dual": qio.system_to_json(res.dual),
        "combined": qio.system_to_json(res.combined),
        "purity_residual": res.purity_residual,
        "basis_transform": qio.matrix_to_json(res.basis_transform),
    }
    _emit(args, payload)


def cmd_qfi(args):
    family = qio.family_from_json(qio.load_json(args.family))
    if args.fd_step is not None:
        family = dataclasses.replace(family, fd_step=args.fd_step)
    sys0 = family.evaluate(args.theta)
    V = _load_input(args.input, sys0.m)
    if args.method == "time":
        report = stationary_qfi_rate_time(family, args.theta, V)
    elif args.method == "freq":
        report = stationary_qfi_rate_freq(family, args.theta, V)
    else:
        raise InputError(f"unknown qfi method {args.method!r}")
    _emit(args, {
        "value": report.value,
        "method": report.method,
        "diagnostics": {k: v for k, v in report.diagnostics.items()
                        if isinstance(v, (int, float, str))},
    })


def cmd_sweep(args):
    data = qio.load_json(args.family)
    couplings = [float(c) for c in data["couplings"]]
    target = data.get("coupling_target", "C.minus")
    row = int(data.get("coupling_row", 0))
    col = int(data.get("coupling_col", 0))

    def builder(c):
        spec = dict(data["family"])
        base = dict(spec["base"])
        blocks = {k: dict(base[k]) for k in ("S", "C", "Omega")}
        name, half = target.split(".")
        M = qio.matrix_from_json(blocks[name][half])
        M[row, col] = c
        blocks[name][half] = qio.matrix_to_json(M)
        base.update(blocks)
        spec = dict(spec, base=base)
        return qio.family_from_json(spec)

    sys0 = builder(couplings[0]).evaluate(args.theta)
    V = _load_input(args.input, sys0.m)
    table = destabilized_scaling_check(builder, couplings, V, theta0=args.theta)
    lines = ["coupling,tau,f,slope_fit"]
    for rowd in table["rows"]:
        lines.append(f"{rowd['coupling']:.12g},{rowd['tau']:.12g},{rowd['f']:.12g},{table['slope']:.12g}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def build_parser():
    p = argparse.ArgumentParser(prog="qls", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("-o", "--output", default=None, help="output path (stdout if omitted)")
        return sp

    sp = add("validate", cmd_validate, help="system-theoretic checks of a system file")
    sp.add_argument("system")
    sp.add_argument("--tol", type=float, default=1e-8, help="physical-realizability tolerance")

    sp = add("tf", cmd_tf, help="evaluate the transfer function on a grid")
    sp.add_argument("system")
    sp.add_argument("--grid", default="auto")

    sp = add("ps", cmd_ps, help="evaluate the power spectrum on a grid")
    sp.add_argument("system")
    sp.add_argument("--input", default=None, help="input covariance JSON (vacuum if omitted)")
    sp.add_argument("--grid", default="auto")

    sp = add("gm", cmd_gm, help="global minimality test")
    sp.add_argument("system")
    sp.add_argument("--input", default=None)
    sp.add_argument("--gm-tol", type=float, default=1e-7, help="pure/thermal mode threshold")

    sp = add("split", cmd_split, help="pure/mixed component split")
    sp.add_argument("system")
    sp.add_argument("--input", default=None)
    sp.add_argument("--gm-tol", type=float, default=1e-7, help="pure/thermal mode threshold")

    sp = add("realize-tf", cmd_realize_tf, help="physical realization from transfer data")
    sp.add_argument("rational")

    sp = add("realize-ps", cmd_realize_ps, help="physical realization from power-spectrum data")
    sp.add_argument("rational")

    sp = add("realize-noisy", cmd_realize_noisy, help="passive noise extension of an accessible block")
    sp.add_argument("statespace")
    sp.add_argument("--n-noise", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("cascade-id", cmd_cascade_id, help="direct SISO cascade identification")
    sp.add_argument("rational", help="JSON with xi_minus and xi_plus rational data")
    sp.add_argument("--pole-order", default=None, help="JSON list of pole pairs to peel first")

    sp = add("absorber", cmd_absorber, help="coherent quantum absorber synthesis")
    sp.add_argument("system")
    sp.add_argument("--gm-tol", type=float, default=1e-7, help="pure/thermal mode threshold")

    sp = add("qfi", cmd_qfi, help="stationary QFI rate of a parameter family")
    sp.add_argument("family")
    sp.add_argument("--input", default=None)
    sp.add_argument("--method", default="time", choices=["time", "freq"])
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--fd-step", type=float, default=None, help="finite-difference step override")

    sp = add("sweep", cmd_sweep, help="QFI-versus-stabilisation-time coupling sweep (CSV)")
    sp.add_argument("family", help="JSON with family, couplings and coupling target")
    sp.add_argument("--input", default=None)
    sp.add_argument("--theta", type=float, default=0.0)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except InputError as exc:
        print(qio.dump_json({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except (IdentificationError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(qio.dump_json({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(qio.dump_json({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
