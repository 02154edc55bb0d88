"""Coherent quantum absorbers: dual systems that purify the stationary state.

Given a globally minimal system driven by vacuum, the dual is a second
system, cascaded after the first, chosen so that the joint stationary state
is pure; the cascade then has trivial power spectrum and the output equals
the input.  In the basis where the stationary covariance is thermal,
P = diag(N+1, N), the joint pure state is a product of two-mode squeezed
pairs with off-diagonal block Q (built from M_i = sqrt(N_i (N_i+1))), and
the dual couplings follow in closed form:

    C2^b V_vac = P Q^{-1} C1^b V_vac,
    A2 = Q P^{-1} A1 P Q^{-1} + C2^b C1 P Q^{-1}.

The dual inherits the drift spectrum of the original system, so it is
automatically stable.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import Delta, flat_adjoint
from .model import QLSystem, check_pr, default_grid, is_hurwitz, series_product
from .stationary import (
    GM_TOL,
    InputCovariance,
    _canonical,
    power_spectrum,
    solve_lyapunov,
    vacuum_covariance,
)


@dataclass(frozen=True, eq=False)
class AbsorberResult:
    """Dual system, the series cascade, its purity defect and the basis change."""

    dual: QLSystem
    combined: QLSystem
    purity_residual: float
    basis_transform: np.ndarray


def canonicalize_stationary(sys, gm_tol=GM_TOL):
    """Rotate the system basis so its vacuum stationary state is thermal-diagonal.

    Returns {"sys": rotated system, "transform": symplectic, "occupations": N_i}.
    The thermal occupations are sorted ascending and must all be strictly
    positive (global minimality), otherwise ValueError is raised.
    """
    if not is_hurwitz(sys):
        raise ValueError("system must be Hurwitz")
    rotated, state = _canonical(sys, gm_tol)
    return {
        "sys": rotated,
        "transform": state.normal_form.transform,
        "occupations": state.symplectic_spectrum,
    }


def dual_system(sys, gm_tol=GM_TOL):
    """Coherent quantum absorber of a globally minimal, Hurwitz system (vacuum input).

    Works in the canonical thermal basis; the pure joint extension pairs
    canonical mode i of the system with mode i of the dual (ascending
    occupations).  Returns an AbsorberResult; ``combined`` is the cascade of
    the canonical system into the dual.
    """
    canon = canonicalize_stationary(sys, gm_tol=gm_tol)
    sys1 = canon["sys"]
    n, m = sys1.n, sys1.m
    occ = canon["occupations"]
    Nd = np.diag(occ)
    Md = np.diag(np.sqrt(occ * (occ + 1.0)))
    P = np.block(
        [[Nd + np.eye(n), np.zeros((n, n))], [np.zeros((n, n)), Nd]]
    ).astype(complex)
    Q = np.block([[np.zeros((n, n)), Md], [Md, np.zeros((n, n))]]).astype(complex)

    A1, C1 = sys1.A, sys1.C
    PQinv = P @ np.linalg.inv(Q)
    rhs = PQinv @ flat_adjoint(C1) @ vacuum_covariance(m)
    # read C2 off the nonzero (first m) columns: C2^b V_vac = [[C2-^dag, 0], [-C2+^dag, 0]];
    # the other m columns of rhs are exact zeros, as V_vac's are, so C2^b V_vac = rhs exactly
    X1 = rhs[:n, :m]
    X2 = rhs[n:, :m]
    C2m = X1.conj().T
    C2p = -X2.conj().T
    C2 = Delta(C2m, C2p)
    QPinv = Q @ np.linalg.inv(P)
    A2 = QPinv @ A1 @ PQinv + flat_adjoint(C2) @ C1 @ PQinv
    if not check_pr(A2, C2, tol=1e-7):
        raise RuntimeError("dual system violates physical realizability")
    dual = QLSystem.from_drift(A2, C2)
    combined = series_product(sys1, dual)
    state = solve_lyapunov(combined, InputCovariance.vacuum(m))
    return AbsorberResult(
        dual=dual,
        combined=combined,
        purity_residual=float(np.max(state.symplectic_spectrum, initial=0.0)),
        basis_transform=canon["transform"],
    )


def verify_absorber(sys, dual, grid=None):
    """Purity and output-triviality defects of the cascade sys -> dual.

    Returns {"purity_residual": max symplectic eigenvalue of the combined
    stationary state, "ps_residual": max grid deviation of the combined power
    spectrum from V_vac}.
    """
    combined = series_product(sys, dual)
    vac = InputCovariance.vacuum(sys.m)
    state = solve_lyapunov(combined, vac)
    purity = float(np.max(state.symplectic_spectrum, initial=0.0))
    if grid is None:
        grid = default_grid(combined, 21)
    dev = power_spectrum(combined, vac, grid) - vacuum_covariance(sys.m)
    ps_resid = float(np.max(np.linalg.norm(dev, axis=(1, 2))))
    return {"purity_residual": purity, "ps_residual": ps_resid}
