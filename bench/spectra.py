"""spectra: long-grid frequency responses on a few systems of growing size.

Per-point transfer-function and power-spectrum cost does almost all of the
work, so a batched or modal evaluator shows here; the spread of sizes
separates per-call Python overhead from LAPACK solve cost.
"""

import dataclasses
import json
import os

import numpy as np
from scipy.linalg import expm

from qls import QLSystem, coherent_qfi, dual_system, tf_equal, verify_absorber
from qls import cli as qcli
from qls import io as qio

import gen
import oracle
from common import Op

# (modes, channels, input kind, grid points); the n = 32 system is the target size
SYSTEMS = [(1, 1, "squeezed", 301), (4, 2, "thermal", 301),
           (16, 1, "squeezed", 81), (32, 2, "thermal", 25)]
SUBSAMPLE = 6   # grid points per call re-evaluated by the dense reference formula


def _random_symplectic(rng, n):
    """T = exp(-i J R) with R Hermitian doubled-up."""
    R1 = 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    R2 = 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    R1, R2 = 0.5 * (R1 + R1.conj().T), 0.5 * (R2 + R2.T)
    R = np.block([[R1, R2], [R2.conj(), R1.conj()]])
    return expm(-1j * oracle.jmat(n) @ R)


def setup(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k, (n, m, kind, points) in enumerate(SYSTEMS):
        sys = gen.draw_where(rng, n, m, gen.vacuum_gm)  # dual_system needs global minimality
        V = gen.squeezed_input(rng, m) if kind == "squeezed" else gen.thermal_input(rng, m)
        sys_path = os.path.join(workdir, f"spectra{k}_sys.json")
        v_path = os.path.join(workdir, f"spectra{k}_input.json")
        qio.dump_json(qio.system_to_json(sys), sys_path)
        qio.dump_json(qio.input_to_json(V), v_path)
        lam = np.linalg.eigvals(oracle.drift(sys.S, sys.C, sys.Omega))
        width = np.max(np.abs(lam.imag)) + 3.0
        omegas = np.linspace(-width, width, points)
        grid = -1j * omegas
        grid_json = json.dumps([[0.0, float(-w)] for w in omegas])
        gauge = gen.gauge_copy(sys, _random_symplectic(rng, n))
        off = QLSystem(S=sys.S, C=sys.C, Omega=sys.Omega + 0.05 * np.eye(2 * n))
        res = dual_system(sys)
        canon = gen.gauge_copy(sys, res.basis_transform)
        spec = gen.family_spec(rng, qio.system_to_json(sys), n, m)
        family = qio.family_from_json(spec)
        h = family.step(0.0)
        hi, lo = family.evaluate(h), family.evaluate(-h)
        alpha = gen.cplx(rng, m)
        ctx = dict(n=n, m=m, sys=sys, V=V.matrix(), sys_path=sys_path, v_path=v_path,
                   omegas=omegas, grid=grid, grid_json=grid_json, gauge=gauge, off=off,
                   canon=canon, dual=res.dual, family=family, hi=hi, lo=lo, h=h, alpha=alpha,
                   out=os.path.join(workdir, f"spectra{k}_out.json"),
                   sub=np.unique(np.linspace(0, points - 1, SUBSAMPLE).astype(int)))
        tag = f"n{n}m{m}"
        ops += [Op(f"cli.tf:{tag}", lambda tr, c=ctx: _cli_tf(tr, c)),
                Op(f"cli.ps:{tag}", lambda tr, c=ctx: _cli_ps(tr, c)),
                Op(f"tf_equal:{tag}", lambda tr, c=ctx: _tf_equal(tr, c)),
                Op(f"verify_absorber:{tag}", lambda tr, c=ctx: _verify(tr, c)),
                Op(f"coherent_qfi:{tag}", lambda tr, c=ctx: _coherent(tr, c))]
    return ops


def _load_values(tr, name, c):
    with open(c["out"]) as fh:
        data = json.load(fh)
    values = [qio.matrix_from_json(v) for v in data["values"]]
    grid = np.array([qio.pair_to_complex(p) for p in data["grid"]])
    tr.check(name, len(values) == len(c["grid"]) and np.allclose(grid, c["grid"], rtol=0, atol=1e-12),
             "grid echoed wrongly")
    return values


def _cli_tf(tr, c):
    S, C, Om = c["sys"].S, c["sys"].C, c["sys"].Omega
    rc = tr.call("cli.tf", qcli.main, ["tf", c["sys_path"], "--grid", c["grid_json"], "-o", c["out"]],
                 n=c["n"], points=len(c["grid"]))
    tr.check("cli.tf", rc == 0, f"exit code {rc}")
    values = _load_values(tr, "cli.tf", c)
    worst = max(oracle.flat_unitary_residual(X) for X in values)
    tr.check("cli.tf", worst <= 1e-8, f"flat-unitary residual {worst:.2e}")
    for i in c["sub"]:
        err = oracle.rel(values[i], oracle.tf(S, C, Om, c["grid"][i]))
        tr.check("cli.tf", err <= 1e-10, f"Xi off the dense formula by {err:.2e} at s={c['grid'][i]}")


def _cli_ps(tr, c):
    S, C, Om = c["sys"].S, c["sys"].C, c["sys"].Omega
    rc = tr.call("cli.ps", qcli.main, ["ps", c["sys_path"], "--input", c["v_path"], "--grid",
                                       c["grid_json"], "-o", c["out"]],
                 n=c["n"], points=len(c["grid"]))
    tr.check("cli.ps", rc == 0, f"exit code {rc}")
    values = _load_values(tr, "cli.ps", c)
    worst = max(oracle.rel(X, X.conj().T) for X in values)
    tr.check("cli.ps", worst <= 1e-10, f"Psi(-i w) not Hermitian ({worst:.2e})")
    for i in c["sub"]:
        err = oracle.rel(values[i], oracle.ps(S, C, Om, c["V"], c["grid"][i]))
        tr.check("cli.ps", err <= 1e-10, f"Psi off the dense formula by {err:.2e}")


def _tf_equal(tr, c):
    same = tr.call("model.tf_equal", tf_equal, c["sys"], c["gauge"], grid=c["grid"], tol=1e-8,
                   n=c["n"], points=len(c["grid"]))
    tr.check("model.tf_equal", same, "gauge copy reported as a different transfer function")
    differs = not tf_equal(c["sys"], c["off"], grid=c["grid"][c["sub"]], tol=1e-8)
    tr.check("model.tf_equal", differs, "detuned copy reported as the same transfer function")


def _verify(tr, c):
    rep = tr.call("absorber.verify_absorber", verify_absorber, c["canon"], c["dual"], grid=c["grid"],
                  n=c["n"], points=len(c["grid"]))
    tr.check("absorber.verify_absorber", rep["purity_residual"] <= 1e-6 and rep["ps_residual"] <= 1e-6,
             f"purity {rep['purity_residual']:.2e}, ps residual {rep['ps_residual']:.2e}")
    a, d, m = c["canon"], c["dual"], c["m"]
    Vv = oracle.vacuum(m)
    for i in c["sub"][:2]:
        s = c["grid"][i]
        X = oracle.tf(d.S, d.C, d.Omega, s) @ oracle.tf(a.S, a.C, a.Omega, s)
        tr.check("absorber.verify_absorber", oracle.rel(X @ Vv @ X.conj().T, Vv) <= 1e-6,
                 "cascade output is not vacuum by the dense formula")


def _coherent(tr, c):
    family = c["family"]
    if tr.enabled:
        family = dataclasses.replace(family, evaluate=tr.counted(family.evaluate, "model.family_evaluate"))
    rep = tr.call("estimation.coherent_qfi", coherent_qfi, family, 0.0, None, c["alpha"],
                  optimize_omega=True, grid=c["omegas"], n=c["n"], points=len(c["grid"]))
    values = rep.diagnostics["grid_values"]
    k = int(np.argmax(values))
    tr.check("estimation.coherent_qfi", len(values) == len(c["omegas"]) and rep.value == values[k]
             and rep.diagnostics["omega_opt"] == float(c["omegas"][k]), "argmax bookkeeping")
    breve = np.concatenate([c["alpha"], c["alpha"].conj()])
    hi, lo, h, m = c["hi"], c["lo"], c["h"], c["m"]
    top = max(values)
    for i in c["sub"]:
        s = -1j * c["omegas"][i]
        dXi = (oracle.tf(hi.S, hi.C, hi.Omega, s) - oracle.tf(lo.S, lo.C, lo.Omega, s)) / (2 * h)
        ref = 4.0 * np.linalg.norm((dXi @ breve)[:m]) ** 2
        tr.check("estimation.coherent_qfi", abs(values[i] - ref) <= 1e-6 * top,
                 f"F(w) off the dense formula by {abs(values[i] - ref):.2e}")
