"""synthesis: pipelines of dense decompositions on small systems.

Sylvester, eig, Williamson and flat-Gram steps do the work and grids are
short (at most the 82 points of two default grids), so a faster Williamson
or minimality test shows here while a batched evaluator barely moves it.
Which pipelines a system enters is decided by documented preconditions,
checked with the benchmark's own formulas (NOTES.md, "Filters").
"""

import numpy as np

from qls import (
    InputCovariance,
    dual_system,
    factor_flat_gram,
    gilbert_realize,
    is_globally_minimal,
    noisy_realize,
    physical_from_classical,
    ps_as_rational,
    ps_realize,
    pure_mixed_split,
    siso_cascade_identify,
    solve_lyapunov,
    tf_as_rational,
    tf_equal,
    verify_absorber,
    williamson,
)
from qls.algebra import gramian_flat
from qls.model import StateSpace
from qls.realization import IdentificationError, RationalMatrixFunction

import gen
import oracle
from common import Op
from spans import CheckFailed


def setup(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    entries = []
    for n in range(1, 7):
        for m in (1, 2):
            sys = gen.draw_where(rng, n, m, lambda s: gen.realizable(s) and gen.vacuum_gm(s))
            entries.append((f"n{n}m{m}", sys, gen.squeezed_input(rng, m), {}))
    vac1 = InputCovariance.vacuum(1)
    entries += [
        ("cascade_example", gen.two_mode_cascade_example(), vac1, {"stages": (14.39, 0.2)}),
        ("absorber_example", gen.absorber_two_mode_example(), vac1, {"dual_spectrum": True}),
        ("active_example", gen.active_one_mode_example(), vac1, {"ps_details": True}),
    ]
    for x, verdict, pure_dim in ((-4.0, False, 2), (-1.0, False, 1), (0.0, True, 0), (8.0, True, 0)):
        entries.append((f"gm2_{x:+g}", gen.gm2_system(x), gen.real_squeezed_input(0.5),
                        {"gm": verdict, "pure_dim": pure_dim}))

    ops = []
    for tag, sys, V, expect in entries:
        n, m = sys.n, sys.m
        Vm = V.matrix()
        realizable = gen.realizable(sys)
        vac_gm = gen.vacuum_gm(sys)
        ctx = dict(tag=tag, sys=sys, V=V, Vm=Vm, n=n, m=m, expect=expect,
                   probes=gen.probe_points(sys, 6), gm=gen.gm_verdict(sys, Vm),
                   minimal=oracle.pbh_margin(oracle.drift(sys.S, sys.C, sys.Omega), sys.C) > 1e-8)
        ops.append(Op(f"stationary:{tag}", lambda tr, c=ctx: _stationary(tr, c)))
        if V.is_pure:
            ops.append(Op(f"gm:{tag}", lambda tr, c=ctx: _gm(tr, c),
                          known=lambda exc, c=ctx: _gm_known(exc, c)))
            ops.append(Op(f"split:{tag}", lambda tr, c=ctx: _split(tr, c),
                          known=lambda exc, c=ctx: _gm_known(exc, c)))
        if vac_gm:
            ops.append(Op(f"absorber:{tag}", lambda tr, c=ctx: _absorber(tr, c)))
        if realizable:
            ops.append(Op(f"tf_roundtrip:{tag}", lambda tr, c=ctx: _tf_roundtrip(tr, c)))
            if vac_gm:
                ops.append(Op(f"ps_roundtrip:{tag}", lambda tr, c=ctx: _ps_roundtrip(tr, c),
                              known=lambda exc, c=ctx: _ps_known(exc, c)))
            if m == 1 and not sys.is_passive:
                ops.append(Op(f"cascade:{tag}", lambda tr, c=ctx: _cascade(tr, c),
                              known=lambda exc, c=ctx: _cascade_known(exc, c)))
    for k, n in enumerate((1, 2, 3)):
        full = gen.draw_system(rng, n, 2, active=0.0)
        ctx = dict(full=full, n=n, seed=(seed, 3, k), probes=gen.probe_points(full, 6))
        ops.append(Op(f"noisy:n{n}", lambda tr, c=ctx: _noisy(tr, c)))
    return ops


# ---- known failures of the package (NOTES.md) --------------------------------

def _gm_known(exc, c):
    if isinstance(exc, RuntimeError) and "criteria disagree" in str(exc):
        return "gm_criteria_disagree"
    if isinstance(exc, ValueError) and "minimal" in str(exc) and c["minimal"]:
        return "krylov_rejects_minimal"
    return None


def _ps_known(exc, c):
    if isinstance(exc, IndexError) and c["n"] > 2 * c["m"]:
        return "ps_realize_index_error"
    return None


def _cascade_known(exc, c):
    if c["n"] < 2 or "stages" in c["expect"]:  # one-mode and worked-example cascades must be exact
        return None
    if isinstance(exc, IdentificationError):
        return "cascade_peeling_inconsistent"
    if isinstance(exc, CheckFailed) and exc.name == "realization.siso_cascade_identify":
        return "cascade_peeling_inaccurate"
    return None


# ---- pipelines ---------------------------------------------------------------

def _stationary(tr, c):
    sys, n = c["sys"], c["n"]
    state = tr.call("stationary.solve_lyapunov", solve_lyapunov, sys, c["V"])
    A = oracle.drift(sys.S, sys.C, sys.Omega)
    Cb = oracle.flat(sys.C)
    Q = Cb @ sys.S @ c["Vm"] @ sys.S.conj().T @ Cb.conj().T
    P = state.P
    resid = np.linalg.norm(A @ P + P @ A.conj().T + Q) / max(1.0, np.linalg.norm(A) * np.linalg.norm(P))
    tr.check("stationary.solve_lyapunov", resid <= 1e-10, f"Lyapunov residual {resid:.2e}")
    res = tr.call("algebra.williamson", williamson, P, n)
    T, nus = res.transform, res.symplectic_eigenvalues
    canon = np.diag(np.concatenate([nus + 1.0, nus]))
    err = oracle.rel(T @ P @ T.conj().T, canon)
    tr.check("algebra.williamson", err <= 1e-8, f"T P T^dag off diag(n+1, n) by {err:.2e}")
    sympl = np.linalg.norm(oracle.flat(T) @ T - np.eye(2 * n))
    tr.check("algebra.williamson", sympl <= 1e-8 * max(1.0, np.linalg.norm(T) ** 2),
             f"transform not symplectic ({sympl:.2e})")
    own = oracle.occupations(P)
    tr.check("algebra.williamson", np.allclose(nus, own, rtol=1e-8, atol=1e-10 * max(1.0, np.max(own))),
             "symplectic eigenvalues differ from eig(J P)")


def _gm(tr, c):
    verdict = tr.call("stationary.is_globally_minimal", is_globally_minimal, c["sys"], c["V"])
    expected = c["expect"].get("gm", c["gm"])
    tr.check("stationary.is_globally_minimal", expected is None or verdict == expected,
             f"verdict {verdict}, expected {expected}")


def _split(tr, c):
    out = tr.call("stationary.pure_mixed_split", pure_mixed_split, c["sys"], c["V"])
    name = "stationary.pure_mixed_split"
    pure_dim = 0 if out["pure"] is None else out["pure"].n
    P = oracle.stationary_cov(c["sys"].S, c["sys"].C, c["sys"].Omega, c["Vm"])
    own_dim = int(np.sum(oracle.occupations(P) <= gen.GM_TOL * max(1.0, np.linalg.norm(P))))
    tr.check(name, pure_dim == c["expect"].get("pure_dim", own_dim),
             f"pure part has {pure_dim} modes, expected {c['expect'].get('pure_dim', own_dim)}")
    rot, mixed = out["rotated"], out["mixed"]
    vac = oracle.vacuum(c["m"])
    for s in c["probes"]:
        want = oracle.ps(rot.S, rot.C, rot.Omega, vac, s)
        got = (rot.S @ vac @ rot.S.conj().T if mixed is None
               else oracle.ps(mixed.S, mixed.C, mixed.Omega, vac, s))
        err = oracle.rel(got, want)
        tr.check(name, err <= 1e-6, f"mixed part misses the power spectrum by {err:.2e}")


def _absorber(tr, c):
    sys, m = c["sys"], c["m"]
    res = tr.call("absorber.dual_system", dual_system, sys)
    tr.check("absorber.dual_system", res.purity_residual <= 1e-6, f"purity {res.purity_residual:.2e}")
    canon = gen.gauge_copy(sys, res.basis_transform)
    rep = tr.call("absorber.verify_absorber", verify_absorber, canon, res.dual)
    tr.check("absorber.verify_absorber", rep["purity_residual"] <= 1e-6 and rep["ps_residual"] <= 1e-6,
             f"purity {rep['purity_residual']:.2e}, ps residual {rep['ps_residual']:.2e}")
    d, Vv = res.dual, oracle.vacuum(m)
    for s in c["probes"][:2]:
        X = oracle.tf(d.S, d.C, d.Omega, s) @ oracle.tf(canon.S, canon.C, canon.Omega, s)
        Y = oracle.tf(d.S, d.C, d.Omega, -np.conj(s)) @ oracle.tf(canon.S, canon.C, canon.Omega, -np.conj(s))
        tr.check("absorber.dual_system", oracle.rel(X @ Vv @ Y.conj().T, Vv) <= 1e-6,
                 "cascade output is not vacuum by the dense formula")
    if c["expect"].get("dual_spectrum"):
        a = np.sort_complex(np.linalg.eigvals(oracle.drift(d.S, d.C, d.Omega)))
        b = np.sort_complex(np.linalg.eigvals(oracle.drift(sys.S, sys.C, sys.Omega)))
        tr.check("absorber.dual_system", np.allclose(a, b, atol=1e-8), "dual does not inherit the spectrum")


def _tf_roundtrip(tr, c):
    sys = c["sys"]
    rational = tr.call("realization.tf_as_rational", tf_as_rational, sys)
    ss = tr.call("realization.gilbert_realize", gilbert_realize, rational)
    G = tr.call("algebra.gramian_flat", gramian_flat, ss.A, ss.C)
    T = tr.call("algebra.factor_flat_gram", factor_flat_gram, G)
    err = oracle.rel(oracle.flat(T) @ T, G)
    tr.check("algebra.factor_flat_gram", err <= 1e-8, f"T^b T off G by {err:.2e}")
    rec = tr.call("realization.physical_from_classical", physical_from_classical, ss)
    same = tr.call("model.tf_equal", tf_equal, rec, sys, tol=1e-6)
    tr.check("model.tf_equal", same, "realization does not reproduce the transfer function")
    for s in c["probes"][:3]:
        err = oracle.rel(oracle.tf(rec.S, rec.C, rec.Omega, s), oracle.tf(sys.S, sys.C, sys.Omega, s))
        tr.check("realization.physical_from_classical", err <= 1e-6, f"Xi round trip off by {err:.2e}")


def _ps_roundtrip(tr, c):
    sys, m = c["sys"], c["m"]
    vac = InputCovariance.vacuum(m)
    rational = tr.call("realization.ps_as_rational", ps_as_rational, sys, vac)
    rec, details = tr.call("realization.ps_realize", ps_realize, rational, return_details=True)
    Vv = oracle.vacuum(m)
    for s in c["probes"]:
        err = oracle.rel(oracle.ps(rec.S, rec.C, rec.Omega, Vv, s), oracle.ps(sys.S, sys.C, sys.Omega, Vv, s))
        tr.check("realization.ps_realize", err <= 1e-6, f"Psi round trip off by {err:.2e}")
    if c["expect"].get("ps_details"):
        lam = np.sort_complex(np.linalg.eigvals(oracle.drift(rec.S, rec.C, rec.Omega)))
        want = np.sort_complex(np.array([-24 - 1j * np.sqrt(3.0), -24 + 1j * np.sqrt(3.0)]))
        tr.check("realization.ps_realize", np.allclose(lam, want, atol=5e-4), f"spectrum {lam}")
        tr.check("realization.ps_realize", np.allclose(details["T3bT3"], np.diag([-0.2054, -0.2054]),
                                                       atol=5e-5), "T3^b T3 differs from the worked value")


def _cascade(tr, c):
    sys = c["sys"]
    r = tr.call("realization.tf_as_rational", tf_as_rational, sys)
    xi_m = RationalMatrixFunction([[1.0]], r.poles, [R[:1, :1] for R in r.residues])
    xi_p = RationalMatrixFunction([[0.0]], r.poles, [R[:1, 1:2] for R in r.residues])
    casc = tr.call("realization.siso_cascade_identify", siso_cascade_identify, xi_m, xi_p)
    rec = casc.to_system()
    for s in c["probes"][:3]:
        err = oracle.rel(oracle.tf(rec.S, rec.C, rec.Omega, s), oracle.tf(sys.S, sys.C, sys.Omega, s))
        tr.check("realization.siso_cascade_identify", err <= 1e-6, f"cascade Xi off by {err:.2e}")
    if "stages" in c["expect"]:
        got = tuple(st.c for st in casc.stages)
        tr.check("realization.siso_cascade_identify",
                 np.allclose(got, c["expect"]["stages"], atol=7e-3), f"stage couplings {got}")


def _noisy(tr, c):
    full = c["full"]
    n = c["n"]
    Cm, Am = full.C[:2, :n], oracle.drift(full.S, full.C, full.Omega)[:n, :n]
    c1 = Cm[0:1, :]
    ss = StateSpace(A=Am, B=-c1.conj().T, C=c1, D=np.eye(1))
    rec = tr.call("realization.noisy_realize", noisy_realize, ss, 1, rng=np.random.default_rng(c["seed"]))
    rn = rec.n
    A = oracle.drift(rec.S, rec.C, rec.Omega)[:rn, :rn]
    C = rec.C[:2, :rn]
    pr = np.linalg.norm(A + A.conj().T + C.conj().T @ C) / max(1.0, np.linalg.norm(A))
    tr.check("realization.noisy_realize", pr <= 1e-8, f"passive PR residual {pr:.2e}")
    for s in c["probes"]:
        want = 1.0 - (c1 @ np.linalg.solve(s * np.eye(n) - Am, c1.conj().T))[0, 0]
        got = 1.0 - (C[0:1] @ np.linalg.solve(s * np.eye(rn) - A, C[0:1].conj().T))[0, 0]
        tr.check("realization.noisy_realize", abs(got - want) <= 1e-6 * max(1.0, abs(want)),
                 f"accessible block off by {abs(got - want):.2e}")
