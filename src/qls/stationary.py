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
from functools import cached_property, lru_cache

import numpy as np

from .algebra import GM_TOL, _lyap, _vacuum_basis, du_blocks, flat_adjoint, lyap_cascade, williamson
from .model import (
    QLSystem,
    StateSpace,
    _frozen,
    _reducibility_margin,
    freq_response,
    gauge_transform,
    is_hurwitz,
    is_minimal,
)


@dataclass(frozen=True, eq=False)
class InputCovariance:
    """Stationary Gaussian field state V(N, M) = [[N^T+1, M], [M^dag, N]].

    N must be Hermitian and M symmetric; the state must be physical
    (V has nonnegative symplectic spectrum).  Instances are immutable: N
    and M are read-only private copies, so ``matrix()``, the Williamson
    decomposition ``normal_form`` and, for a pure state, ``field_transform``,
    each computed once, never go stale.  Compared by identity.
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

    def check_pure(self):
        """Raise ValueError naming the largest symplectic eigenvalue when ``is_pure`` is False."""
        if not self.is_pure:
            raise ValueError("input covariance is mixed (max symplectic eigenvalue "
                             f"{np.max(self.normal_form.symplectic_eigenvalues):.3e})")

    @cached_property
    def field_transform(self):
        """The symplectic S_in with S_in V_vac S_in^dag = V (read-only), for a pure input.

        Raises ValueError (``check_pure``) when the state is mixed.
        """
        self.check_pure()
        return _frozen(_vacuum_basis(self.N, self.M))

    @staticmethod
    def vacuum(m):
        """The m-channel vacuum: a copy of one cached instance, sharing its read-only arrays."""
        return copy.copy(_vacuum(m))


@lru_cache(maxsize=None)
def _vacuum(m):
    return InputCovariance(np.zeros((m, m)), np.zeros((m, m)))


@dataclass(frozen=True, eq=False)
class StationaryState:
    """Stationary covariance P with its solve residual and route.

    ``route`` names the Lyapunov solver that produced P: "modal" (the
    drift's eigenbasis) or "direct" (for a defective or ill-conditioned
    drift: one LU of the Kronecker form, Bartels-Stewart past
    ``algebra.KRON_MAX``); see ``algebra.lyap``.  The Williamson normal
    form of P is computed on first use and cached, so a caller that needs
    only P pays for no decomposition.
    """

    P: np.ndarray
    residual: float
    route: str

    @cached_property
    def normal_form(self):
        """Williamson decomposition of P (``algebra.williamson``), eigenvalues ascending."""
        return williamson(self.P)

    @property
    def symplectic_spectrum(self):
        """Symplectic eigenvalues of P, ascending."""
        return self.normal_form.symplectic_eigenvalues

    def pure_count(self, gm_tol=GM_TOL):
        """Number k of pure modes: symplectic eigenvalues <= gm_tol max(1, ||P||).

        The spectrum ascends, so the pure modes are the first k of the
        Williamson basis.  k = 0 is a fully mixed state.  Raises ValueError
        unless gm_tol > 0, since a threshold <= 0 would count no mode as pure.
        """
        if not gm_tol > 0:
            raise ValueError(f"gm_tol must be > 0, got {gm_tol}")
        threshold = gm_tol * max(1.0, float(np.linalg.norm(self.P)))
        return int(np.count_nonzero(self.symplectic_spectrum <= threshold))


def _noise_matrix(sys, V):
    """C^b S V S^dag (C^b)^dag for the Lyapunov equation."""
    Cb = flat_adjoint(sys.C)
    SVS = sys.S @ V.matrix() @ sys.S.conj().T
    return Cb @ SVS @ Cb.conj().T


def _channels_match(count, sys, what, owner="system"):
    """ValueError naming both counts unless `what` has the system's m channels."""
    if count != sys.m:
        raise ValueError(f"{what} has {count} channels but the {owner} has {sys.m}")


def _eigenbasis(sys):
    """(lambda, V, V^-1) of the system's drift from its cached modal form, or None."""
    modal = sys._modal
    return None if modal is None else modal[:3]


def solve_lyapunov(sys, V):
    """Stationary covariance of a Hurwitz system for input V.

    Solves A P + P A^dag + C^b S V S^dag (C^b)^dag = 0 with ``algebra.lyap``
    from the drift's cached eigendecomposition (intended scale: up to a few
    tens of modes) and reports the relative residual (against the full
    drift) and the route ("modal" or "direct"); the Williamson normal form
    of P is left to first use (``StationaryState.normal_form``).  On a
    cascade from ``series_product`` the drift is block lower-triangular in
    the order [a1; a1#; a2; a2#], and ``algebra.lyap_cascade`` solves in
    that order from the two parts' eigendecompositions, never touching the
    whole drift unless it falls back to the direct route.  Accuracy
    contract (``algebra.lyap``): P has relative residual at most 64 eps,
    by either route, and every route returns P exactly Hermitian.

    Raises ValueError when V's channel count is not the system's or the
    system is not Hurwitz (no unique solution), and np.linalg.LinAlgError
    when no route meets the residual bound.
    """
    _channels_match(V.m, sys, "input covariance")
    if not is_hurwitz(sys):
        raise ValueError("Lyapunov equation has no unique solution: system is not Hurwitz")
    A = sys.A
    Q = _noise_matrix(sys, V)
    if sys.parts is None:
        P, route = _lyap(A, -Q, _eigenbasis(sys))
    else:
        first, second = sys.parts
        n, n1 = sys.n, first.n
        head, tail = np.arange(n1), np.arange(n1, n)
        order = np.concatenate([head, n + head, tail, n + tail])
        block = np.ix_(order, order)
        P = np.empty_like(Q)
        P[block], route = lyap_cascade(A[block], -Q[block], 2 * n1,
                                       _eigenbasis(first), _eigenbasis(second))
    scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q))
    AP = A @ P  # P is Hermitian, so P A^dag = (A P)^dag
    resid = np.linalg.norm(AP + AP.conj().T + Q) / scale
    return StationaryState(P=P, residual=float(resid), route=route)


def power_spectrum(sys, V, s):
    """Power spectral density Psi_V(s) = Xi(s) V Xi(-s*)^dag.

    `s` is one point or a 1-d grid; a grid gives a (K, 2m, 2m) stack.  Xi
    is ``model.freq_response`` (on a cascade, the product of its parts'
    responses); on the imaginary axis s = -s*, so it is evaluated once
    there.  Mixed inputs are accepted; s and -s* must lie off the spectrum
    of A.
    """
    _channels_match(V.m, sys, "input covariance")
    s = np.asarray(s, dtype=complex)
    X1 = freq_response(sys, s)
    mirror = -s.conj()
    X2 = X1 if np.array_equal(mirror, s) else freq_response(sys, mirror)
    Psi = X1 @ V.matrix() @ X2.conj().transpose(0, 2, 1)
    return Psi[0] if s.ndim == 0 else Psi


def _vacuum_rotated(sys, V):
    """Rotate the field so the (pure) input becomes vacuum: C -> S_in^b C etc."""
    _channels_match(V.m, sys, "input covariance")
    Sin = V.field_transform
    Sb = flat_adjoint(Sin)
    S2 = Sb @ sys.S @ Sin
    C2 = Sb @ sys.C
    return QLSystem(S=S2, C=C2, Omega=sys.Omega), Sin


def _canonical(sys, gm_tol=None):
    """The system in the Williamson basis of its vacuum stationary state, and that state.

    The basis orders the modes by ascending occupation, so the
    ``state.pure_count()`` pure modes come first.  With `gm_tol` set, a
    state with a pure mode raises ValueError before the basis is changed.
    """
    state = solve_lyapunov(sys, InputCovariance.vacuum(sys.m))
    if gm_tol is not None and state.pure_count(gm_tol):
        raise ValueError(
            "system is not globally minimal for vacuum input "
            f"(min occupation {np.min(state.symplectic_spectrum):.3e})"
        )
    return gauge_transform(sys, state.normal_form.transform), state


def is_globally_minimal(sys, V, gm_tol=GM_TOL):
    """Global minimality for a pure input: fully mixed stationary state.

    The verdict is ``StationaryState.pure_count(gm_tol) == 0``.  It is
    cross-checked against controllability of (A, C^b S S_in V_vac), S_in
    the symplectic taking vacuum to the input, by
    ``model._reducibility_margin`` with cutoff gm_tol; the rotation to
    vacuum changes S and C but not the drift, so the check runs on the
    system's own A and eigenbasis.  A disagreement raises RuntimeError.  A
    0-mode system is globally minimal.

    Raises ValueError for mixed inputs, where purity of the stationary state
    no longer witnesses global minimality, for a non-minimal system and
    unless gm_tol > 0.
    """
    return _global_minimality(sys, V, gm_tol)[0]


def _global_minimality(sys, V, gm_tol):
    """``is_globally_minimal``'s verdict together with the StationaryState it was read from."""
    if not V.is_pure:
        raise ValueError("global minimality test supports pure inputs only")
    if not is_minimal(sys):
        raise ValueError("system must be minimal")
    state = solve_lyapunov(sys, V)
    verdict = state.pure_count(gm_tol) == 0

    B = flat_adjoint(sys.C) @ sys.S @ V.field_transform @ InputCovariance.vacuum(sys.m).matrix()
    control = _reducibility_margin(sys, B) > gm_tol
    if control != verdict:
        raise RuntimeError(
            "global minimality criteria disagree "
            f"(spectral: {verdict}, controllability: {control}); "
            "the system sits too close to the pure/mixed boundary"
        )
    return verdict, state


def pure_mixed_split(sys, V, gm_tol=GM_TOL):
    """Split a system into its pure (passive, spectrum-invisible) and mixed parts.

    Works in the vacuum-rotated field basis and a Williamson-canonical system
    basis with the k = ``pure_count(gm_tol)`` pure modes first.  Returns a
    dict with keys

    * ``pure``, ``mixed``: the component systems on the first k and the
      last n - k modes; a part with no modes is None,
    * ``rotated``: the full system in the canonical basis,
    * ``field_transform``: the symplectic taking vacuum to the input.

    The mixed component reproduces the power spectrum of the original system
    (expressed in the vacuum field basis) and the series product
    mixed <| pure is transfer-function equivalent to ``rotated``.
    """
    if not is_minimal(sys) or not is_hurwitz(sys):
        raise ValueError("pure/mixed split expects a minimal Hurwitz system")
    rotated, Sin = _vacuum_rotated(sys, V)
    canon, state = _canonical(rotated)
    k = state.pure_count(gm_tol)
    Cm, Cp = du_blocks(canon.C)
    Om, Op = du_blocks(canon.Omega)
    pure = mixed = None
    if k:
        cm, om = Cm[:, :k], Om[:k, :k]
        pure = QLSystem.from_blocks(cm, np.zeros_like(cm), om, np.zeros_like(om), S=canon.S)
    if k < sys.n:
        # scattering sits on the first cascade stage (the pure one); the second
        # stage must then carry S = 1 so the composite reproduces S.
        mixed = QLSystem.from_blocks(Cm[:, k:], Cp[:, k:], Om[k:, k:], Op[k:, k:],
                                     S=None if k else canon.S)
    return {"pure": pure, "mixed": mixed, "rotated": canon, "field_transform": Sin}


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
    Vv = InputCovariance.vacuum(sys.m).matrix()
    SVS = S @ Vv @ flat_adjoint(S)
    A_t = np.block([[-flat_adjoint(A), np.zeros_like(A)], [Cb @ SVS @ C, A]])
    B_t = np.vstack([-Cb, -Cb @ SVS])
    C_t = np.hstack([-SVS @ C, S @ C])
    return StateSpace(A=A_t, B=B_t, C=C_t, D=SVS)
