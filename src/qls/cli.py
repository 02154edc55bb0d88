"""Command-line front end.

Subcommands load systems, inputs and rational data from JSON, run one
pipeline each and write a deterministic JSON result (CSV for sweeps).
Exit codes: 0 success, 2 input validation failure, 3 numerical failure.
Diagnostics go to stderr as a machine-readable error object; no partial
result file is left behind on failure.
"""

# Each subcommand imports the pipeline it runs, so a process loads only its own modules.

import argparse
import functools
import json
import sys

import numpy as np

from . import io as qio
from .io import InputError
from .algebra import GM_TOL, TOL_NUM


def _load(path, parse, what):
    """``parse`` applied to the JSON file at ``path``; a missing, unreadable or malformed file raises InputError."""
    try:
        return parse(qio.load_json(path))
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"could not load {what} from {path}: {exc}") from exc


def _load_system(path):
    return _load(path, qio.system_from_json, "system")


def _load_input(path, m):
    """The input covariance at ``path`` (the m-channel vacuum if None); InputError unless it has m channels."""
    from .stationary import InputCovariance

    if path is None:
        return InputCovariance.vacuum(m)
    V = _load(path, qio.input_from_json, "input covariance")
    if V.m != m:
        raise InputError(f"input covariance {path} has {V.m} channels but the system has {m}")
    return V


def _grid(sys, spec):
    from .model import default_grid

    if spec is None or spec == "auto":
        return default_grid(sys)
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InputError(f"grid must be 'auto' or a JSON list of [re, im] pairs: {exc}")
    if not isinstance(spec, list):
        raise InputError("grid must be 'auto' or a JSON list of [re, im] pairs")
    return np.array([qio.pair_to_complex(v) for v in spec])


def _spectrum_order(z):
    """Eigenvalues sorted by real part rounded to 1e-10 max |z|, then imaginary part.

    The two members of a conjugate pair have real parts equal up to rounding,
    so ``np.sort_complex`` would let one ulp decide their order.
    """
    z = np.asarray(z, dtype=complex)
    scale = np.max(np.abs(z), initial=0.0) or 1.0
    return z[np.lexsort((z.imag, np.round(z.real / scale, 10)))]


def _emit(args, payload):
    text = qio.dump_json(payload, args.output)
    if args.output is None:
        print(text)


def cmd_validate(args):
    from .algebra import flat_unitary_residual
    from .model import check_pr, default_grid, freq_response, is_hurwitz, is_minimal, spectral_gap

    sys_ = _load_system(args.system)
    gap = spectral_gap(sys_)
    payload = {
        "n": sys_.n,
        "m": sys_.m,
        "pr": bool(check_pr(sys_.A, sys_.C, tol=args.tol)),
        "hurwitz": bool(is_hurwitz(sys_)),
        "minimal": bool(is_minimal(sys_)),
        "passive": bool(sys_.is_passive),
        "spectral_gap": float(gap) if np.isfinite(gap) else None,  # a 0-mode system has none
        "fpr_residual": float(
            max(flat_unitary_residual(X) for X in freq_response(sys_, default_grid(sys_, 11)))
        ),
    }
    _emit(args, payload)


def cmd_tf(args):
    from .model import freq_response

    sys_ = _load_system(args.system)
    grid = _grid(sys_, args.grid)
    _emit(args, {"grid": grid, "values": freq_response(sys_, grid)})


def cmd_ps(args):
    from .stationary import power_spectrum

    sys_ = _load_system(args.system)
    V = _load_input(args.input, sys_.m)
    grid = _grid(sys_, args.grid)
    _emit(args, {"grid": grid, "values": power_spectrum(sys_, V, grid)})


def cmd_gm(args):
    from .model import is_hurwitz
    from .stationary import _global_minimality

    sys_ = _load_system(args.system)
    V = _load_input(args.input, sys_.m)
    if not is_hurwitz(sys_):
        raise InputError("global minimality needs a Hurwitz system")
    verdict, state = _global_minimality(sys_, V, args.gm_tol)
    _emit(args, {
        "globally_minimal": bool(verdict),
        "symplectic_spectrum": [float(v) for v in state.symplectic_spectrum],
        "lyapunov_residual": state.residual,
    })


def cmd_split(args):
    from .stationary import pure_mixed_split

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
    from .realization import gilbert_realize, physical_from_classical

    tf = _load(args.rational, qio.rational_from_json, "rational data")
    sys_ = physical_from_classical(gilbert_realize(tf))
    _emit(args, qio.system_to_json(sys_))


def cmd_realize_ps(args):
    from .realization import ps_realize

    ps = _load(args.rational, qio.rational_from_json, "rational data")
    sys_, details = ps_realize(ps, return_details=True)
    _emit(args, {
        "system": qio.system_to_json(sys_),
        "T3bT3": qio.matrix_to_json(details["T3bT3"]),
        "spectrum": [qio.complex_to_pair(z) for z in _spectrum_order(sys_.poles)],
    })


def cmd_realize_noisy(args):
    from .realization import noisy_realize

    ss = _load(args.statespace, qio.statespace_from_json, "state space")
    _emit(args, qio.system_to_json(noisy_realize(ss, args.n_noise)))


def cmd_cascade_id(args):
    from .realization import siso_cascade_identify

    xi_m, xi_p = _load(args.rational, lambda d: (qio.rational_from_json(d["xi_minus"]),
                                                 qio.rational_from_json(d["xi_plus"])), "cascade data")
    order = "damping"
    if args.pole_order:
        order = _load(args.pole_order, lambda d: [qio.pair_to_complex(p) for p in d], "pole order")
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
    from .absorber import dual_system

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
    from .estimation import stationary_qfi_rate_freq, stationary_qfi_rate_time

    family = _load(args.family, qio.family_from_json, "family")
    sys0, _ = family.at(args.theta)
    V = _load_input(args.input, sys0.m)
    if args.method == "time":
        report = stationary_qfi_rate_time(family, args.theta, V)
    else:  # "freq": argparse's choices admit no other method
        report = stationary_qfi_rate_freq(family, args.theta, V)
    _emit(args, {
        "value": report.value,
        "method": report.method,
        "diagnostics": {k: v for k, v in report.diagnostics.items()
                        if isinstance(v, (int, float, str))},
    })


def _sweep_spec(data):
    """(builder, couplings) of a sweep file; builder maps a coupling value to its family.

    The coupling is written into the base system's JSON by the rule of a
    family dependency (``io.entry_and_partner``): off the diagonal of Omega
    its partner entry changes too.  The builder is memoised per coupling, so
    each family is loaded once and keeps its evaluated point.  The first
    family is built here, so that a malformed file fails on loading.
    """
    couplings = [qio.finite_float(c, "coupling") for c in data["couplings"]]
    name, half = data.get("coupling_target", "C.minus").split(".")
    row, col = (qio.entry_index(data.get(key, 0), key) for key in ("coupling_row", "coupling_col"))

    @functools.cache
    def builder(c):
        spec = dict(data["family"])
        block = dict(spec["base"][name])
        rows = [list(r) for r in block[half]]
        for i, j, value in qio.entry_and_partner(name, half, row, col, c):
            rows[i][j] = qio.complex_to_pair(value)
        block[half] = rows
        return qio.family_from_json(dict(spec, base=dict(spec["base"], **{name: block})))

    builder(couplings[0])
    return builder, couplings


def cmd_sweep(args):
    from .estimation import destabilized_scaling_check

    builder, couplings = _load(args.family, _sweep_spec, "sweep spec")
    sys0, _ = builder(couplings[0]).at(args.theta)
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


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every `main` call."""
    p = argparse.ArgumentParser(prog="qls", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("-o", "--output", default=None, help="output path (stdout if omitted)")
        return sp

    sp = add("validate", cmd_validate, help="system-theoretic checks of a system file")
    sp.add_argument("system")
    sp.add_argument("--tol", type=float, default=TOL_NUM, help="physical-realizability tolerance")

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
    sp.add_argument("--gm-tol", type=float, default=GM_TOL, help="pure/thermal mode threshold")

    sp = add("split", cmd_split, help="pure/mixed component split")
    sp.add_argument("system")
    sp.add_argument("--input", default=None)
    sp.add_argument("--gm-tol", type=float, default=GM_TOL, help="pure/thermal mode threshold")

    sp = add("realize-tf", cmd_realize_tf, help="physical realization from transfer data")
    sp.add_argument("rational")

    sp = add("realize-ps", cmd_realize_ps, help="physical realization from power-spectrum data")
    sp.add_argument("rational")

    sp = add("realize-noisy", cmd_realize_noisy, help="passive noise extension of an accessible block")
    sp.add_argument("statespace")
    sp.add_argument("--n-noise", type=int, default=1, help="number of unobserved noise channels, 0..n")
    sp.add_argument("--seed", type=int, default=0, help="accepted for older scripts; does not affect the result")

    sp = add("cascade-id", cmd_cascade_id, help="direct SISO cascade identification")
    sp.add_argument("rational", help="JSON with xi_minus and xi_plus rational data")
    sp.add_argument("--pole-order", default=None, help="JSON list of pole pairs to peel first")

    sp = add("absorber", cmd_absorber, help="coherent quantum absorber synthesis")
    sp.add_argument("system")
    sp.add_argument("--gm-tol", type=float, default=GM_TOL, help="pure/thermal mode threshold")

    sp = add("qfi", cmd_qfi, help="stationary QFI rate of a parameter family")
    sp.add_argument("family")
    sp.add_argument("--input", default=None)
    sp.add_argument("--method", default="time", choices=["time", "freq"])
    sp.add_argument("--theta", type=float, default=0.0)

    sp = add("sweep", cmd_sweep, help="QFI-versus-stabilisation-time coupling sweep (CSV)")
    sp.add_argument("family", help="JSON with family, couplings and coupling target")
    sp.add_argument("--input", default=None)
    sp.add_argument("--theta", type=float, default=0.0)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():  # argparse's float() accepts nan and inf
            if isinstance(value, float):
                qio.finite_float(value, "--" + name.replace("_", "-"))
        args.fn(args)
    except InputError as exc:
        print(qio.dump_json({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # realization.IdentificationError included
        print(qio.dump_json({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(qio.dump_json({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
