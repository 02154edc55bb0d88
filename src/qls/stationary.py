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

import copy
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    WilliamsonResult,
    _vacuum_basis,
    du_blocks,
    flat_adjoint,
    lyap,
    lyap_cascade,
    williamson,
)
from .model import (
    QLSystem,
    StateSpace,
    _frozen,
    controllability_matrix,
    freq_response,
    gauge_transform,
    is_hurwitz,
    is_minimal,
)

GM_TOL = 1e-7  # symplectic-eigenvalue threshold separating pure from thermal modes


def vacuum_covariance(m):
    """V_vac = [[1_m, 0], [0, 0]] in the doubled-up field ordering."""
    V = np.zeros((2 * m, 2 * m), dtype=complex)
    V[:m, :m] = np.eye(m)
    return V


@dataclass(frozen=True, eq=False)
class InputCovariance:
    """Stationary Gaussian field state V(N, M) = [[N^T+1, M], [M^dag, N]].

    N must be Hermitian and M symmetric; the state must be physical
    (V has nonnegative symplectic spectrum).  Instances are immutable: N
    and M are read-only private copies, so ``matrix()`` and the Williamson
    decomposition ``normal_form``, both computed once, never go stale.
    Compared by identity.
    """

    N: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        N = _frozen(np.atleast_2d(self.N))
        M = _frozen(np.atleast_2d(self.M))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)
        if N.shape != M.shape or N.shape[0] != N.shape[1]:
            raise ValueError("N and M must be square with equal shapes")
        scale = max(1.0, np.linalg.norm(N) + np.linalg.norm(M))
        if np.linalg.norm(N - N.conj().T) > 1e-9 * scale:
            raise ValueError("N must be Hermitian")
        if np.linalg.norm(M - M.T) > 1e-9 * scale:
            raise ValueError("M must be symmetric")
        V = np.block([[N.T + np.eye(len(N)), M], [M.conj().T, N]])
        V.flags.writeable = False
        object.__setattr__(self, "_matrix", V)
        # the Williamson decomposition doubles as the physicality check
        object.__setattr__(self, "normal_form", williamson(V, len(N)))

    @property
    def m(self):
        return self.N.shape[0]

    def matrix(self):
        """The full 2m x 2m covariance V(N, M) (read-only)."""
        return self._matrix

    @property
    def is_pure(self):
        nus = self.normal_form.symplectic_eigenvalues
        return bool(np.max(nus) <= GM_TOL * max(1.0, np.linalg.norm(self.matrix())))

    @staticmethod
    def vacuum(m):
        """The m-channel vacuum: a copy of one cached instance, sharing its read-only arrays."""
        return copy.copy(_vacuum(m))


@lru_cache(maxsize=None)
def _vacuum(m):
    return InputCovariance(np.zeros((m, m)), np.zeros((m, m)))


@dataclass(frozen=True, eq=False)
class StationaryState:
    """Stationary covariance P with its Williamson normal form and solve residual."""

    P: np.ndarray
    normal_form: WilliamsonResult
    residual: float

    @property
    def symplectic_spectrum(self):
        """Symplectic eigenvalues of P, ascending."""
        return self.normal_form.symplectic_eigenvalues


def _noise_matrix(sys, V):
    """C^b S V S^dag (C^b)^dag for the Lyapunov equation."""
    Cb = flat_adjoint(sys.C)
    SVS = sys.S @ V.matrix() @ sys.S.conj().T
    return Cb @ SVS @ Cb.conj().T


def solve_lyapunov(sys, V):
    """Stationary covariance of a Hurwitz system for input V.

    Solves A P + P A^dag + C^b S V S^dag (C^b)^dag = 0 with ``algebra.lyap``
    (intended scale: up to a few tens of modes) and reports the relative
    residual (against the full drift) and the Williamson normal form of P.
    On a cascade from ``series_product`` the drift is block lower-triangular
    in the order [a1; a1#; a2; a2#], and ``algebra.lyap_cascade`` solves in
    that order from the two parts' Schur forms, never the whole drift's.

    Raises ValueError when the system is not Hurwitz (no unique solution).
    """
    if not is_hurwitz(sys):
        raise ValueError("Lyapunov equation has no unique solution: system is not Hurwitz")
    A = sys.A
    Q = _noise_matrix(sys, V)
    if sys.parts is None:
        P = lyap(A, -Q)
    else:
        n, n1 = sys.n, sys.parts[0].n
        first, second = np.arange(n1), np.arange(n1, n)
        order = np.concatenate([first, n + first, second, n + second])
        block = np.ix_(order, order)
        P = np.empty_like(Q)
        P[block] = lyap_cascade(A[block], -Q[block], 2 * n1)
    P = 0.5 * (P + P.conj().T)  # A P + P A^dag symmetrises exactly
    scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q))
    resid = np.linalg.norm(A @ P + P @ A.conj().T + Q) / scale
    return StationaryState(P=P, normal_form=williamson(P, sys.n), residual=float(resid))


def power_spectrum(sys, V, s):
    """Power spectral density Psi_V(s) = Xi(s) V Xi(-s*)^dag.

    `s` is one point or a 1-d grid; a grid gives a (K, 2m, 2m) stack.  On
    the imaginary axis s = -s*, so Xi is evaluated once there.  On a cascade
    from ``series_product``, Xi is the product Xi_second Xi_first of its
    parts' responses.  Mixed inputs are accepted; s and -s* must lie off the
    spectrum of A.
    """
    s = np.asarray(s, dtype=complex)
    X1 = _response(sys, s)
    mirror = -s.conj()
    X2 = X1 if np.array_equal(mirror, s) else _response(sys, mirror)
    Psi = X1 @ V.matrix() @ X2.conj().transpose(0, 2, 1)
    return Psi[0] if s.ndim == 0 else Psi


def _response(sys, s):
    """``freq_response``; on a cascade, the product of its parts' (solves of their sizes)."""
    if sys.parts is None:
        return freq_response(sys, s)
    first, second = sys.parts
    return freq_response(second, s) @ freq_response(first, s)


def _vacuum_rotated(sys, V):
    """Rotate the field so the (pure) input becomes vacuum: C -> S_in^b C etc."""
    if not V.is_pure:
        raise ValueError("vacuum rotation needs a pure input covariance")
    Sin = _vacuum_basis(V.N, V.M)
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
    res = state.normal_form
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
