"""cli: every subcommand as its own `python -m qls.cli` process on small inputs.

Interpreter start, `import qls` and JSON handling make up most of each
call, so lazy imports show here (and in every workload's setup_s) while the
in-process workloads, which import once, do not move.
"""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np

from qls import InputCovariance, ps_as_rational, tf_as_rational
from qls import io as qio
from qls.model import StateSpace

import gen
import oracle
from common import Op

TIMEOUT_S = 120


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(root, args):
    """Run one `python -m qls.cli` process; returns (exit code, stdout bytes, stderr text)."""
    proc = subprocess.run([sys.executable, "-m", "qls.cli", *args], cwd=root, env=child_env(root),
                          capture_output=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def startup(root):
    """A bare interpreter start, the floor under every call."""
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=child_env(root), check=True,
                   timeout=TIMEOUT_S)


def setup(seed, workdir, root):
    rng = np.random.default_rng([seed, 4])
    path = lambda name: os.path.join(workdir, name)

    def write(name, obj):
        qio.dump_json(obj, path(name))
        return path(name)

    sys_ = gen.draw_system(rng, 2, 1)
    V = gen.squeezed_input(rng, 1)
    ps_ready = lambda s: gen.realizable(s) and gen.vacuum_gm(s)
    tf_sys = gen.draw_where(rng, 2, 1, gen.realizable)
    ps_sys = gen.draw_where(rng, 1, 1, ps_ready)
    ps_big = gen.draw_where(rng, 3, 1, ps_ready)
    casc_sys = gen.draw_where(rng, 2, 1, gen.realizable)
    abs_sys = gen.draw_where(rng, 2, 1, gen.vacuum_gm)
    full = gen.draw_system(rng, 2, 2, active=0.0)
    c, N = rng.uniform(0.8, 1.6), rng.uniform(0.3, 1.0)
    couplings = [c * x for x in (1.0, 0.7, 0.5, 0.35)]
    noisy_seed = int(rng.integers(1000))

    vac1 = InputCovariance.vacuum(1)
    r = tf_as_rational(casc_sys)
    pair = {"xi_minus": qio.rational_to_json(type(r)([[1.0]], r.poles, [R[:1, :1] for R in r.residues])),
            "xi_plus": qio.rational_to_json(type(r)([[0.0]], r.poles, [R[:1, 1:2] for R in r.residues]))}
    n_full = full.n
    c1 = full.C[0:1, :n_full]
    A_full = oracle.drift(full.S, full.C, full.Omega)[:n_full, :n_full]
    ss = StateSpace(A=A_full, B=-c1.conj().T, C=c1, D=np.eye(1))

    files = dict(
        sys=write("cli_sys.json", qio.system_to_json(sys_)),
        v=write("cli_input.json", qio.input_to_json(V)),
        gm_sys=write("cli_gm2_0.json", qio.system_to_json(gen.gm2_system(0.0))),
        split_sys=write("cli_gm2_m1.json", qio.system_to_json(gen.gm2_system(-1.0))),
        sq05=write("cli_sq05.json", qio.input_to_json(gen.real_squeezed_input(0.5))),
        rtf=write("cli_rational_tf.json", qio.rational_to_json(tf_as_rational(tf_sys))),
        rps=write("cli_rational_ps.json", qio.rational_to_json(ps_as_rational(ps_sys, vac1))),
        rps_big=write("cli_rational_ps_n3.json", qio.rational_to_json(ps_as_rational(ps_big, vac1))),
        ss=write("cli_statespace.json", qio.statespace_to_json(ss)),
        pair=write("cli_tf_pair.json", pair),
        abs_sys=write("cli_absorber_sys.json", qio.system_to_json(abs_sys)),
        family=write("cli_family.json", gen.cavity_family_spec(c)),
        sqN=write("cli_sqN.json", qio.input_to_json(gen.real_squeezed_input(N))),
        sweep=write("cli_sweep.json", {"family": gen.cavity_family_spec(1.0), "couplings": couplings,
                                        "coupling_target": "C.minus"}),
    )
    with open(path("cli_bad.json"), "w") as fh:
        fh.write('{"n": 1, "m": 1, "S": {"minus": [[[1.0, 0.0]]]}}\n')
    files["bad"] = path("cli_bad.json")

    ctx = dict(root=root, sys=sys_, V=V.matrix(), tf_sys=tf_sys, ps_sys=ps_sys, ps_big=ps_big,
               casc_sys=casc_sys, full=full, ss=ss, c=c, N=N, first={})
    f = files
    calls = [
        ("validate", ["validate", f["sys"]], _validate),
        ("tf", ["tf", f["sys"]], _tf),
        ("ps", ["ps", f["sys"], "--input", f["v"]], _ps),
        ("gm", ["gm", f["gm_sys"], "--input", f["sq05"]], _gm),
        ("split", ["split", f["split_sys"], "--input", f["sq05"]], _split),
        ("realize-tf", ["realize-tf", f["rtf"]], _realize_tf),
        ("realize-ps", ["realize-ps", f["rps"]], lambda c, out: _realize_ps(c, out, c["ps_sys"])),
        ("realize-ps", ["realize-ps", f["rps_big"]], lambda c, out: _realize_ps(c, out, c["ps_big"])),
        ("realize-noisy", ["realize-noisy", f["ss"], "--n-noise", "1", "--seed", str(noisy_seed)], _noisy),
        ("realize-noisy", ["realize-noisy", f["ss"], "--n-noise", "1", "--seed", str(noisy_seed)], _noisy),
        ("cascade-id", ["cascade-id", f["pair"]], _cascade),
        ("absorber", ["absorber", f["abs_sys"]], _absorber),
        ("qfi", ["qfi", f["family"], "--input", f["sqN"], "--method", "time"], _qfi),
        ("sweep", ["sweep", f["sweep"], "--input", f["sqN"]], _sweep),
        ("help", ["--help"], _help),
        ("malformed", ["validate", f["bad"]], _malformed),
    ]
    ops = []
    for k, (name, args, check) in enumerate(calls):
        known = (lambda exc, big=(args[-1] == f["rps_big"]): _ps_known(exc, big))
        ops.append(Op(f"cli.{name}#{k}", lambda tr, name=name, args=args, check=check:
                      _call(tr, ctx, name, args, check), known=known))
    return ops


class ExitCode(Exception):
    def __init__(self, name, code, stderr):
        super().__init__(f"{name} exited {code}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}")
        self.code, self.stderr = code, stderr


def _ps_known(exc, big):
    """Known: ps_realize raises IndexError for n > 2m, so the CLI dies with a traceback (exit 1)."""
    if big and isinstance(exc, ExitCode) and exc.code == 1 and "IndexError" in exc.stderr:
        return "ps_realize_index_error"
    return None


def _call(tr, c, name, args, check):
    with tr.span(f"cli.{name}"):
        code, out, err = run_cli(c["root"], args)
    expected = 2 if name == "malformed" else 0
    if code != expected:
        tr.failed[f"cli.{name}"] += 1
        raise ExitCode(name, code, err)
    previous = c["first"].setdefault(name, {}).setdefault(tuple(args), out)
    tr.check(f"cli.{name}", previous == out, "output differs from an earlier identical call")
    ok, why = check(c, out if name != "malformed" else err)
    tr.check(f"cli.{name}", ok, why)


def _validate(c, out):
    d = json.loads(out)
    s = c["sys"]
    lam = np.linalg.eigvals(oracle.drift(s.S, s.C, s.Omega))
    gap = np.min(np.abs(lam.real))
    ok = (d["pr"] and d["hurwitz"] and d["minimal"] and not d["passive"] and d["n"] == 2
          and d["fpr_residual"] <= 1e-8 and abs(d["spectral_gap"] - gap) <= 1e-10 * gap)
    return ok, f"validate report {d}"


def _values(c, out, points_check):
    d = json.loads(out)
    grid = [qio.pair_to_complex(p) for p in d["grid"]]
    values = [qio.matrix_from_json(v) for v in d["values"]]
    if len(grid) != 41 or len(values) != 41:
        return False, "default grid is not 41 points"
    for i in range(0, 41, 8):
        err = points_check(grid[i], values[i])
        if err > 1e-10:
            return False, f"value off the dense formula by {err:.2e}"
    return True, ""


def _tf(c, out):
    s = c["sys"]
    return _values(c, out, lambda z, X: oracle.rel(X, oracle.tf(s.S, s.C, s.Omega, z)))


def _ps(c, out):
    s = c["sys"]
    return _values(c, out, lambda z, X: oracle.rel(X, oracle.ps(s.S, s.C, s.Omega, c["V"], z)))


def _gm(c, out):
    d = json.loads(out)
    s = gen.gm2_system(0.0)
    V = gen.real_squeezed_input(0.5).matrix()
    own = oracle.occupations(oracle.stationary_cov(s.S, s.C, s.Omega, V))
    ok = (d["globally_minimal"] is True and d["lyapunov_residual"] <= 1e-10
          and np.allclose(d["symplectic_spectrum"], own, rtol=1e-8, atol=1e-12))
    return ok, f"gm report {d}"


def _split(c, out):
    d = json.loads(out)
    ok = d["pure"] is not None and d["pure"]["n"] == 1 and d["mixed"] is not None and d["mixed"]["n"] == 1
    return ok, "gm2(-1) should split into one pure and one mixed mode"


def _same_tf(a, b):
    return max(oracle.rel(oracle.tf(a.S, a.C, a.Omega, z), oracle.tf(b.S, b.C, b.Omega, z))
               for z in gen.probe_points(b, 4))


def _realize_tf(c, out):
    err = _same_tf(qio.system_from_json(json.loads(out)), c["tf_sys"])
    return err <= 1e-6, f"realized Xi off by {err:.2e}"


def _realize_ps(c, out, ref):
    rec = qio.system_from_json(json.loads(out)["system"])
    Vv = oracle.vacuum(1)
    err = max(oracle.rel(oracle.ps(rec.S, rec.C, rec.Omega, Vv, z), oracle.ps(ref.S, ref.C, ref.Omega, Vv, z))
              for z in gen.probe_points(ref, 4))
    return err <= 1e-6, f"realized Psi off by {err:.2e}"


def _noisy(c, out):
    rec = qio.system_from_json(json.loads(out))
    n, ss = rec.n, c["ss"]
    A = oracle.drift(rec.S, rec.C, rec.Omega)[:n, :n]
    C = rec.C[:rec.m, :n]
    worst = 0.0
    for z in gen.probe_points(c["full"], 4):
        want = ss.D[0, 0] + (ss.C @ np.linalg.solve(z * np.eye(ss.A.shape[0]) - ss.A, ss.B))[0, 0]
        got = 1.0 - (C[0:1] @ np.linalg.solve(z * np.eye(n) - A, C[0:1].conj().T))[0, 0]
        worst = max(worst, abs(got - want))
    return worst <= 1e-6, f"accessible block off by {worst:.2e}"


def _cascade(c, out):
    stages = json.loads(out)["stages"]
    ref = c["casc_sys"]
    worst = 0.0
    for z in gen.probe_points(ref, 4):
        X = np.eye(2, dtype=complex)
        for st in stages:
            Cs = np.array([[st["c"], 0.0], [0.0, st["c"]]], dtype=complex)
            op = qio.pair_to_complex(st["omega_plus"])
            Om = np.array([[st["omega_minus"], op], [np.conj(op), st["omega_minus"]]], dtype=complex)
            X = oracle.tf(np.eye(2), Cs, Om, z) @ X
        worst = max(worst, oracle.rel(X, oracle.tf(ref.S, ref.C, ref.Omega, z)))
    return worst <= 1e-6, f"cascade Xi off by {worst:.2e}"


def _absorber(c, out):
    d = json.loads(out)
    comb = qio.system_from_json(d["combined"])
    Vv = oracle.vacuum(1)
    worst = max(oracle.rel(oracle.ps(comb.S, comb.C, comb.Omega, Vv, z), Vv)
                for z in gen.probe_points(comb, 4))
    return d["purity_residual"] <= 1e-6 and worst <= 1e-6, f"purity {d['purity_residual']:.2e}, ps {worst:.2e}"


def _qfi(c, out):
    d = json.loads(out)
    target = gen.cavity_rate(c["N"], c["c"])
    return d["method"] == "stationary_time" and abs(d["value"] - target) <= 1e-8 * target, \
        f"rate {d['value']} vs closed form {target}"


def _sweep(c, out):
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    if len(rows) != 4:
        return False, f"{len(rows)} sweep rows"
    slope = float(rows[0]["slope_fit"])
    rates = [(float(r["f"]), gen.cavity_rate(c["N"], float(r["coupling"]))) for r in rows]
    worst = max(abs(f - target) / target for f, target in rates)
    return abs(slope - 1.0) <= 0.05 and worst <= 1e-8, f"slope {slope}, worst closed-form error {worst:.2e}"


def _help(c, out):
    return out.decode().startswith("usage: qls"), "help text missing"


def _malformed(c, err):
    d = json.loads(err)
    return d.get("error") == "input", f"error object {d}"
