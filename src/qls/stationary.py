"""Stationary states, power spectra and global minimality.

With a stationary Gaussian input of covariance V(N, M) the system settles
into a Gaussian state whose covariance P solves the Lyapunov equation

    A P + P A^dag + C^b S V S^dag (C^b)^dag = 0,

and the output is characterised by the power spectral density

    Psi_V(s) = Xi(s) V Xi(-s*)^dag.

A minimal stable system driven by a pure input is *globally minimal* (no
smaller system has the same power spectrum) iff its stationary state is
fully mixed, i.e. all symplectic eigenvalues of P are strictly positive.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_sylvester

from .algebra import (
    du_blocks,
    flat_adjoint,
    vacuum_basis_transform,
    williamson,
)
from .model import (
    QLSystem,
    StateSpace,
    controllability_matrix,
    gauge_transform,
    is_hurwitz,
    is_minimal,
    transfer_function,
)

GM_TOL = 1e-7  # symplectic-eigenvalue threshold separating pure from thermal modes


def vacuum_covariance(m):
    """V_vac = [[1_m, 0], [0, 0]] in the doubled-up field ordering."""
    V = np.zeros((2 * m, 2 * m), dtype=complex)
    V[:m, :m] = np.eye(m)
    return V


@dataclass(frozen=True)
class InputCovariance:
    """Stationary Gaussian field state V(N, M) = [[N^T+1, M], [M^dag, N]].

    N must be Hermitian and M symmetric; the state must be physical
    (V has nonnegative symplectic spectrum).
    """

    N: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        N = np.atleast_2d(np.asarray(self.N, dtype=complex))
        M = np.atleast_2d(np.asarray(self.M, dtype=complex))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)
        if N.shape != M.shape or N.shape[0] != N.shape[1]:
            raise ValueError("N and M must be square with equal shapes")
        scale = max(1.0, np.linalg.norm(N) + np.linalg.norm(M))
        if np.linalg.norm(N - N.conj().T) > 1e-9 * scale:
            raise ValueError("N must be Hermitian")
        if np.linalg.norm(M - M.T) > 1e-9 * scale:
            raise ValueError("M must be symmetric")
        williamson(self.matrix(), self.m)  # physicality check

    @property
    def m(self):
        return self.N.shape[0]

    def matrix(self):
        """The full 2m x 2m covariance V(N, M)."""
        m = self.m
        return np.block([[self.N.T + np.eye(m), self.M], [self.M.conj().T, self.N]])

    @property
    def is_pure(self):
        nus = williamson(self.matrix(), self.m).symplectic_eigenvalues
        return bool(np.max(nus) <= GM_TOL * max(1.0, np.linalg.norm(self.matrix())))

    @staticmethod
    def vacuum(m):
        return InputCovariance(np.zeros((m, m)), np.zeros((m, m)))


@dataclass(frozen=True)
class StationaryState:
    """Stationary covariance P with its symplectic spectrum and solve residual."""

    P: np.ndarray
    symplectic_spectrum: np.ndarray
    residual: float


def _noise_matrix(sys, V):
    """C^b S V S^dag (C^b)^dag for the Lyapunov equation."""
    Cb = flat_adjoint(sys.C)
    SVS = sys.S @ V.matrix() @ sys.S.conj().T
    return Cb @ SVS @ Cb.conj().T


def solve_lyapunov(sys, V):
    """Stationary covariance of a Hurwitz system for input V.

    Solves A P + P A^dag + C^b S V S^dag (C^b)^dag = 0 by a dense Sylvester
    solve (intended scale: up to a few tens of modes) and reports the
    relative residual and the symplectic spectrum of P.

    Raises ValueError when the system is not Hurwitz (no unique solution).
    """
    if not is_hurwitz(sys):
        raise ValueError("Lyapunov equation has no unique solution: system is not Hurwitz")
    A = sys.A
    Q = _noise_matrix(sys, V)
    P = solve_sylvester(A, A.conj().T, -Q)
    P = 0.5 * (P + P.conj().T)  # A P + P A^dag symmetrises exactly
    scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q))
    resid = np.linalg.norm(A @ P + P @ A.conj().T + Q) / scale
    nus = williamson(P, sys.n).symplectic_eigenvalues
    return StationaryState(P=P, symplectic_spectrum=nus, residual=float(resid))


def power_spectrum(sys, V, s):
    """Power spectral density Psi_V(s) = Xi(s) V Xi(-s*)^dag.

    Mixed inputs are accepted; s and -s* must lie off the spectrum of A.
    """
    X1 = transfer_function(sys, s)
    X2 = transfer_function(sys, -np.conj(s))
    return X1 @ V.matrix() @ X2.conj().T


def _vacuum_rotated(sys, V):
    """Rotate the field so the (pure) input becomes vacuum: C -> S_in^b C etc."""
    if V.is_pure:
        Sin = vacuum_basis_transform(V.N, V.M)
    else:
        raise ValueError("vacuum rotation needs a pure input covariance")
    Sb = flat_adjoint(Sin)
    S2 = Sb @ sys.S @ Sin
    C2 = Sb @ sys.C
    return QLSystem(S=S2, C=C2, Omega=sys.Omega), Sin


def is_globally_minimal(sys, V, gm_tol=GM_TOL):
    """Global minimality for a pure input: fully mixed stationary state.

    Cross-checked against controllability of (A, C^b S_eff V_vac) in the
    vacuum-rotated basis; a disagreement raises RuntimeError.

    Raises ValueError for mixed inputs, where purity of the stationary state
    no longer witnesses global minimality.
    """
    if not V.is_pure:
        raise ValueError("global minimality test supports pure inputs only")
    if not is_minimal(sys):
        raise ValueError("system must be minimal")
    state = solve_lyapunov(sys, V)
    scale = max(1.0, float(np.linalg.norm(state.P)))
    verdict = bool(np.min(state.symplectic_spectrum) > gm_tol * scale)

    rotated, _ = _vacuum_rotated(sys, V)
    B = flat_adjoint(rotated.C) @ rotated.S @ vacuum_covariance(sys.m)
    ctrb = controllability_matrix(rotated.A, B)
    sv = np.linalg.svd(ctrb, compute_uv=False)
    control = bool(sv[0] > 0 and np.sum(sv > gm_tol * sv[0]) == min(ctrb.shape))
    if control != verdict:
        raise RuntimeError(
            "global minimality criteria disagree "
            f"(spectral: {verdict}, controllability: {control}); "
            "the system sits too close to the pure/mixed boundary"
        )
    return verdict


def siso_passive_gm(sys, V, tol=1e-9):
    """Global minimality of a passive SISO system with squeezed input (M != 0).

    The verdict depends only on the spectrum of A: the system is globally
    minimal iff no eigenvalue is real and no two eigenvalues are complex
    conjugates of each other.  Returns the verdict together with the list
    of reducible eigenvalues.
    """
    if not sys.is_passive or sys.m != 1:
        raise ValueError("this criterion applies to passive SISO systems")
    if np.linalg.norm(V.M) == 0:
        raise ValueError("squeezed input (M != 0) required; vacuum/thermal is never informative")
    Amin = du_blocks(sys.A)[0]
    eigs = np.linalg.eigvals(Amin)
    scale = max(1.0, np.max(np.abs(eigs)))
    reducible = []
    for i, lam in enumerate(eigs):
        if abs(lam.imag) <= tol * scale:
            reducible.append(lam)
            continue
        for j, mu in enumerate(eigs):
            if j != i and abs(lam - np.conj(mu)) <= tol * scale:
                reducible.append(lam)
                break
    return {"globally_minimal": len(reducible) == 0, "reducible_eigs": reducible}


def pure_mixed_split(sys, V, gm_tol=GM_TOL):
    """Split a system into its pure (passive, spectrum-invisible) and mixed parts.

    Works in the vacuum-rotated field basis and a Williamson-canonical system
    basis with pure modes ordered first.  Returns a dict with keys

    * ``pure``, ``mixed``: the component systems (either may have 0 modes),
    * ``rotated``: the full system in the canonical basis,
    * ``field_transform``: the symplectic taking vacuum to the input.

    The mixed component reproduces the power spectrum of the original system
    (expressed in the vacuum field basis) and the series product
    mixed <| pure is transfer-function equivalent to ``rotated``.
    """
    if not is_minimal(sys) or not is_hurwitz(sys):
        raise ValueError("pure/mixed split expects a minimal Hurwitz system")
    rotated, Sin = _vacuum_rotated(sys, V)
    state = solve_lyapunov(rotated, InputCovariance.vacuum(sys.m))
    res = williamson(state.P, sys.n)
    canon = gauge_transform(rotated, res.transform)
    nus = res.symplectic_eigenvalues  # ascending; transform delivers this mode order
    scale = max(1.0, float(np.linalg.norm(state.P)))
    pure_modes = [i for i in range(sys.n) if nus[i] <= gm_tol * scale]
    mixed_modes = [i for i in range(sys.n) if i not in pure_modes]

    def submatrix(M, rows, cols):
        return M[np.ix_(rows, cols)] if rows and cols else np.zeros((len(rows), len(cols)))

    Cm, Cp = du_blocks(canon.C)
    Om, Op = du_blocks(canon.Omega)
    all_ch = list(range(sys.m))

    def component(modes, passive, S):
        if not modes:
            return None
        cm = submatrix(Cm, all_ch, modes)
        om = submatrix(Om, modes, modes)
        if passive:
            return QLSystem.from_blocks(cm, np.zeros_like(cm), om, np.zeros_like(om), S=S)
        cp = submatrix(Cp, all_ch, modes)
        op = submatrix(Op, modes, modes)
        return QLSystem.from_blocks(cm, cp, om, op, S=S)

    pure_sys = component(pure_modes, passive=True, S=canon.S)
    # scattering sits on the first cascade stage (the pure one); the second
    # stage must then carry S = 1 so the composite reproduces S.
    mixed_sys = component(mixed_modes, passive=False, S=None if pure_modes else canon.S)
    return {
        "pure": pure_sys,
        "mixed": mixed_sys,
        "rotated": canon,
        "field_transform": Sin,
    }


def ps_cascade_embedding(sys, V):
    """Classical state space whose transfer function equals Psi(s) J.

    The power spectrum of (S, C, Omega) with pure input is realised by the
    cascade of the unstable mirror system into the system itself; the drift
    of the composite is proper lower block triangular.  The input is rotated
    to vacuum internally.
    """
    rotated, _ = _vacuum_rotated(sys, V)
    A, C, S = rotated.A, rotated.C, rotated.S
    Cb = flat_adjoint(C)
    Vv = vacuum_covariance(sys.m)
    SVS = S @ Vv @ flat_adjoint(S)
    A_t = np.block([[-flat_adjoint(A), np.zeros_like(A)], [Cb @ SVS @ C, A]])
    B_t = np.vstack([-Cb, -Cb @ SVS])
    C_t = np.hstack([-SVS @ C, S @ C])
    return StateSpace(A=A_t, B=B_t, C=C_t, D=SVS)
