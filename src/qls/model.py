"""The quantum linear system model and its system-theoretic checks.

A QLS is the triple (S, C, Omega): field squeezing/scattering S (symplectic,
2m x 2m), coupling C (2m x 2n) and Hamiltonian Omega (2n x 2n), with the
derived drift matrix

    A = -1/2 C^b C - i J_n Omega.

The pair (A, C) is physically realizable iff A + A^b + C^b C = 0, which holds
by construction here.  The transfer function

    Xi(s) = 1 - C (s - A)^{-1} C^b S

is symplectic on the imaginary axis, and two minimal stable systems share a
transfer function iff they are related by a symplectic gauge transformation
C -> C T^b, J Omega -> T J Omega T^b.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import (
    TOL_NUM,
    TOL_STRUCT,
    Delta,
    _fro,
    _mirror,
    du_blocks,
    flat_adjoint,
    is_doubled_up,
    is_symplectic,
    modal_inverse,
)

RANK_TOL = 1e-10     # reducibility-margin cutoff for the minimality decision
STAB_TOL = 1e-12     # Hurwitz margin and pole-check radius, relative to max |lambda|
CLUSTER_TOL = 1e-8   # poles this close, relative to max |lambda|, share one eigenspace (``_cluster_basis``)


@dataclass(frozen=True, eq=False)
class QLSystem:
    """A quantum linear system (S, C, Omega) in the doubled-up representation.

    Validated at construction: S symplectic, C and Omega doubled-up,
    Omega_- Hermitian and Omega_+ symmetric.  Instances are immutable: S, C
    and Omega are read-only private copies, so the cached drift ``A``, its
    eigendecomposition A = V diag(lambda) V^-1 (one ``eig``, which gives
    ``poles`` and the modal forms of ``freq_response`` and ``solve_lyapunov``)
    can never go stale.
    Equality and hashing are by identity.
    """

    S: np.ndarray
    C: np.ndarray
    Omega: np.ndarray

    parts = None  # (first, second) on a cascade built by `series_product`, else None

    def __post_init__(self):
        for name in ("S", "C", "Omega"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        S, C, Om = self.S, self.C, self.Omega
        if C.shape != (S.shape[0], Om.shape[0]):
            raise ValueError(
                f"incompatible shapes: S {S.shape}, C {C.shape}, Omega {Om.shape}"
            )
        if not is_symplectic(S):
            raise ValueError("S is not symplectic")
        if not is_doubled_up(C):
            raise ValueError("C is not doubled-up")
        if not is_doubled_up(Om):
            raise ValueError("Omega is not doubled-up")
        om, op = du_blocks(Om)
        bound = TOL_STRUCT * max(1.0, _fro(Om)) * 10
        if _fro(om - om.conj().T) > bound:
            raise ValueError("Omega_- must be Hermitian")
        if _fro(op - op.T) > bound:
            raise ValueError("Omega_+ must be symmetric")

    @property
    def n(self):
        """System mode count."""
        return self.Omega.shape[0] // 2

    @property
    def m(self):
        """Field channel count."""
        return self.S.shape[0] // 2

    @cached_property
    def A(self):
        """Drift matrix -1/2 C^b C - i J Omega (cached, read-only); J applied as row signs."""
        n, Om = self.n, self.Omega
        A = -0.5 * flat_adjoint(self.C) @ self.C
        A[:n] -= 1j * Om[:n]
        A[n:] += 1j * Om[n:]
        A.flags.writeable = False
        return A

    @cached_property
    def _eig(self):
        """(lambda, V) of A, V with unit columns, from one real ``eig`` (cached, read-only).

        With U = [[1, 1], [-i, i]] / sqrt(2) (to quadratures), U A U^dag is
        the real [[Re(A_- + A_+), -Im(A_- - A_+)], [Im(A_- + A_+), Re(A_- - A_+)]],
        whose ``eig`` runs in real arithmetic (about a quarter of the complex
        flops) and gives the poles in exact conjugate pairs; V = U^dag W.
        """
        n = self.n
        add, sub = self.A[:n, :n] + self.A[:n, n:], self.A[:n, :n] - self.A[:n, n:]
        Q = np.empty((2 * n, 2 * n))
        Q[:n, :n], Q[:n, n:], Q[n:, :n], Q[n:, n:] = add.real, -sub.imag, add.imag, sub.real
        lam, W = np.linalg.eig(Q)
        V = np.empty((2 * n, 2 * n), dtype=complex)
        V[:n], V[n:] = W[:n] + 1j * W[n:], W[:n] - 1j * W[n:]
        V /= np.sqrt(2.0)
        lam = lam.astype(complex)  # real when every eigenvalue is
        lam.flags.writeable = V.flags.writeable = False
        return lam, V

    @cached_property
    def poles(self):
        """Eigenvalues of the drift matrix, in exact conjugate pairs (cached, read-only)."""
        return self._eig[0]

    @cached_property
    def _modal(self):
        """(lambda, V, V^-1, C V, V^-1 C^b) of A, or None when V is singular or
        kappa_F(V) = sqrt(2n) ||V^-1||_F > MODAL_COND_MAX (``algebra.modal_inverse``)."""
        lam, V = self._eig
        Vi = modal_inverse(V)
        if Vi is None:
            return None
        return lam, V, Vi, self.C @ V, Vi @ flat_adjoint(self.C)

    @property
    def is_passive(self):
        """True when C_+, Omega_+ and S_+ all vanish."""
        tol = 1e-12 * max(
            1.0, np.linalg.norm(self.C) + np.linalg.norm(self.Omega) + np.linalg.norm(self.S)
        )
        return all(
            np.linalg.norm(du_blocks(M)[1]) <= tol for M in (self.C, self.Omega, self.S)
        )

    @staticmethod
    def passive(S_minus, C_minus, Omega_minus):
        """Build a passive system from the non-doubled (S_-, C_-, Omega_-) triple."""
        S_minus = np.atleast_2d(np.asarray(S_minus, dtype=complex))
        C_minus = np.atleast_2d(np.asarray(C_minus, dtype=complex))
        Omega_minus = np.atleast_2d(np.asarray(Omega_minus, dtype=complex))
        return QLSystem(S=Delta(S_minus), C=Delta(C_minus), Omega=Delta(Omega_minus))

    @staticmethod
    def from_blocks(C_minus, C_plus, Omega_minus, Omega_plus, S=None):
        """Build a system from the four coupling/Hamiltonian blocks (S defaults to 1)."""
        C = Delta(C_minus, C_plus)
        Om = Delta(Omega_minus, Omega_plus)
        if S is None:
            S = np.eye(C.shape[0])
        return QLSystem(S=S, C=C, Omega=Om)

    @staticmethod
    def from_drift(A, C, S=None):
        """Build the system with drift A and coupling C (S defaults to 1).

        C is projected onto its doubled-up blocks and Omega is recovered from
        the realizability identity Omega = i J (A + 1/2 C^b C), with its
        blocks symmetrised against rounding.
        """
        C = Delta(*du_blocks(C))
        n = C.shape[1] // 2
        Y = 1j * (A + 0.5 * flat_adjoint(C) @ C)[:n]  # the upper rows of i J (...), whose blocks are Omega's
        om, op = Y[:, :n], Y[:, n:]
        if S is None:
            S = np.eye(C.shape[0])
        return QLSystem(S=S, C=C, Omega=Delta(0.5 * (om + om.conj().T), 0.5 * (op + op.T)))


def _frozen(M):
    """Read-only complex copy of M."""
    M = np.array(M, dtype=complex)
    M.flags.writeable = False
    return M


@dataclass(frozen=True, eq=False)
class StateSpace:
    """A plain (A, B, C, D) quadruple; possibly non-physical.  Compared by identity."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=complex)))
        n = self.A.shape[0]
        if self.A.shape[1] != n or self.B.shape[0] != n or self.C.shape[1] != n:
            raise ValueError("incompatible state-space dimensions")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValueError("incompatible feedthrough dimensions")

    def transfer(self, s):
        """Evaluate D + C (s - A)^{-1} B by dense solve."""
        n = self.A.shape[0]
        X = np.linalg.solve(s * np.eye(n) - self.A, self.B)
        return self.D + self.C @ X


def check_pr(A, C, tol=TOL_NUM):
    """Physical realizability: || A + A^b + C^b C || <= tol (relative)."""
    A = np.asarray(A, dtype=complex)
    C = np.asarray(C, dtype=complex)
    resid = A + flat_adjoint(A) + flat_adjoint(C) @ C
    scale = max(1.0, np.linalg.norm(A) + np.linalg.norm(C) ** 2)
    return np.linalg.norm(resid) / scale <= tol


def freq_response(sys, s, tangent=None):
    """Transfer function Xi(s) = (1 - C R C^b) S, R = (s - A)^{-1}, over a grid.

    `s` is a sequence of K Laplace points; the result is a (K, 2m, 2m) stack.
    Given a tangent (dS, dC, dOmega) of the system, the exact derivative

        dXi = -(dC R C^b + C R dA R C^b + C R dC^b) S + (1 - C R C^b) dS,
        dA = -1/2 (dC^b C + C^b dC) - i J dOmega,

    is returned too, as a second stack.  On a cascade from ``series_product``
    a plain call is the series product Xi_second Xi_first of its parts'
    responses (Gough & James 2009), each from solves of its own size.
    Otherwise the call checks the grid and hands it to the evaluator of
    ``_tangent_response``, which holds the one copy of the algebra:
    R comes from the system's cached eigendecomposition
    A = V diag(lambda) V^-1 as V diag(1/(s - lambda)) V^-1, so a grid costs
    O(K n m^2) (O(K n^2 m) with a tangent) after one O(n^3) ``eig``.  Xi is
    one line for both calls: each point's row 1/(s_k - lambda) times the
    outer products of C V with V^-1 C^b S, its own (1, 2n) x (2n, 4m^2)
    product, so each point equals its one-point call bit for bit.  The
    tangent adds a few GEMMs with the grid folded into their rows or
    columns.  By Bauer-Fike the modal error relative to ||Xi|| is of order
    eps kappa_F(V) (1 + ||A|| max 1/|s - lambda|): kappa_F(V) times that of a
    dense solve, which grows alike near a weakly damped pole.  A drift whose
    eigenbasis has kappa_F(V) > MODAL_COND_MAX (a defective or nearly
    defective A) is therefore solved densely: X = R C^b by one stacked LU
    per point, and with a tangent one more stacked solve, R (dA X + dC^b).
    Raises ValueError when a grid point is not finite or is within
    STAB_TOL max |lambda| of the spectrum of A.
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    if not np.isfinite(s).all():
        raise ValueError(f"s = {s[~np.isfinite(s)][0]} is not a finite Laplace point")
    if sys.parts is not None and tangent is None:
        first, second = sys.parts
        return freq_response(second, s) @ freq_response(first, s)
    lam = sys.poles
    if lam.size and s.size:
        near = np.min(np.abs(s[:, None] - lam), axis=1) <= STAB_TOL * np.max(np.abs(lam))
        if near.any():
            raise ValueError(f"s = {s[np.argmax(near)]} is a pole of the transfer function")
    return _tangent_response(sys, tangent)(s)


def _tangent_response(sys, tangent=None):
    """The grid evaluator of ``freq_response``, with its theta-fixed set-up done once.

    Returns a function of a 1-d complex array s of K Laplace points that
    gives the (K, 2m, 2m) stack Xi, or with a tangent (dS, dC, dOmega) the
    pair (Xi, dXi).  The points are not checked: each must be finite and
    off the spectrum of A (``freq_response`` checks both).  Everything that
    does not depend on s is formed here, once: dA, the outer-product tables
    of C V with V^-1 C^b S and with V^-1 C^b dS, V^-1 dA V, dC V and
    V^-1 dC^b S on the modal path, C^b, dC^b and dA on the dense path.  A
    caller that evaluates one tangent on many grids (a frequency-route
    rate) builds the evaluator once.
    """
    C, S = sys.C, sys.S
    m2, n2 = C.shape
    if tangent is not None:
        dS, dC, dOm = tangent
        Cb, dCb = flat_adjoint(C), flat_adjoint(dC)
        dA = -0.5 * (dCb @ C + Cb @ dC)
        dA[: n2 // 2] -= 1j * dOm[: n2 // 2]   # - i J dOmega, J as row signs
        dA[n2 // 2 :] += 1j * dOm[n2 // 2 :]
    modal = sys._modal
    if modal is None:
        Cb = flat_adjoint(C) if tangent is None else Cb

        def dense(s):
            M = s[:, None, None] * np.eye(n2) - sys.A
            X = np.linalg.solve(M, np.broadcast_to(Cb, (len(s), n2, m2)))
            G = np.eye(m2, dtype=complex) - C @ X
            Xi = G @ S
            if tangent is None:
                return Xi
            Y = np.linalg.solve(M, dA @ X + dCb)   # R (dA X + dC^b)
            return Xi, G @ dS - (dC @ X + C @ Y) @ S

        return dense
    lam, V, Vi, CV, W = modal
    WS = W @ S
    table = _outer(CV, WS)

    def xi(r):
        """Xi from the resolvent's eigenvalues r = 1/(s - lambda), one (K, 2n) row per point."""
        return S - np.matmul(r[:, None, :], table).reshape(len(r), m2, m2)

    if tangent is None:
        return lambda s: xi(1.0 / (s[:, None] - lam))
    # dXi = G dS - dG S with G = 1 - CV diag(r) W and
    # dG = dC V diag(r) W + CV diag(r) (V^-1 dA V diag(r) W + V^-1 dC^b): S enters
    # through W S and V^-1 dC^b S, and the grid runs along the columns,
    # RWS[:, k] = V^-1 R_k C^b S, so each product is one GEMM over the whole grid
    VidAV, dCV, VidCbS = Vi @ dA @ V, dC @ V, Vi @ dCb @ S
    table_dS = _outer(CV, W @ dS)

    def modal_tangent(s):
        K = len(s)
        r = 1.0 / (s[:, None] - lam)   # (K, 2n): the resolvent's eigenvalues
        rT = np.ascontiguousarray(r.T)[:, :, None]
        RWS = (rT * WS[:, None, :]).reshape(n2, K * m2)
        inner = (VidAV @ RWS).reshape(n2, K, m2) + VidCbS[:, None, :]
        dGS = dCV @ RWS + CV @ (rT * inner).reshape(n2, K * m2)   # the dG_k S side by side
        dXi = dS - (r @ table_dS).reshape(K, m2, m2) - dGS.reshape(m2, K, m2).transpose(1, 0, 2)
        return xi(r), dXi

    return modal_tangent


def _outer(left, right):
    """The outer products of the columns of left with the rows of right, one flat row each."""
    return (left.T[:, :, None] * right[:, None, :]).reshape(len(right), left.shape[0] * right.shape[1])


def transfer_function(sys, s):
    """Transfer function Xi(s) at one point: the single-point case of `freq_response`.

    Scattering multiplies from the right so that Xi -> S as |s| -> inf.
    Raises ValueError when s is (numerically) on the spectrum of A.
    """
    return freq_response(sys, [s])[0]


def _cluster_basis(lam, X, M):
    """The unit eigenvectors X (X[:, k] for lam[k]) orthonormalised per pole cluster, along M.

    Poles within CLUSTER_TOL max |lambda| of one another, linked
    transitively, form a cluster: rounding splits a repeated pole, and a
    direction of its eigenspace can hide between the computed vectors.  A
    singleton keeps its column, with no QR; a larger cluster's columns
    become Q_c W, Q_c from one QR of them and W the right singular vectors
    of M Q_c, so the column norms of M Q_c W are the singular values of
    M Q_c, with zeros past its rank.
    """
    near = np.abs(lam[:, None] - lam) <= CLUSTER_TOL * np.max(np.abs(lam), initial=0.0)
    if np.count_nonzero(near) == len(lam):   # every pole is its own cluster
        return X
    near, X = near.astype(float), X.copy()
    while True:   # transitive closure by repeated squaring
        closed = (near @ near > 0).astype(float)
        if np.array_equal(closed, near):
            break
        near = closed
    first = np.argmax(near, axis=1) == np.arange(len(lam))   # each cluster's lowest index
    for k in np.flatnonzero(first & (near.sum(axis=1) > 1)):
        idx = np.flatnonzero(near[k])
        Q = np.linalg.qr(X[:, idx])[0]
        X[:, idx] = Q @ np.linalg.svd(M @ Q)[2].conj().T
    return X


def _reducibility_margin(sys, B=None):
    """Scale-invariant margin of observability of (C, A), or given B of controllability of (A, B).

    For a simple pole, (M, A) loses observability exactly when M v = 0 for
    its eigenvector v (Gilbert 1963; Hautus 1969); (A, B) is the dual pair
    (B^dag, A^dag), whose eigenvectors are the rows of V^-1.  The margin is
    min over pole clusters of sigma_min(M Q_c) / ||M||, Q_c from
    ``_cluster_basis`` on the cached eigenbasis.  A unit eigenvector is a
    test vector of the PBH pencil, so this bounds ``_pbh_margin`` from
    above, which runs instead when ``sys._modal`` is None (the
    MODAL_COND_MAX choice of ``freq_response`` and ``lyap``).  inf at 0
    modes, 0 when M = 0.
    """
    modal = sys._modal
    if modal is None:
        if B is None:   # the doubled-up (C, A): a conjugate pole gives the same margin
            return _pbh_margin(sys.A, sys.C, sys.poles[sys.poles.imag >= 0])
        return _pbh_margin(sys.A.conj().T, B.conj().T, sys.poles.conj())
    lam, V, Vi = modal[:3]
    M = sys.C
    if B is not None:
        M, lam, V = B.conj().T, lam.conj(), Vi.conj().T / np.linalg.norm(Vi, axis=1)
    norm = np.linalg.norm(M)
    if norm == 0:   # no coupling, or no modes
        return 0.0 if len(lam) else np.inf
    return float(np.min(np.linalg.norm(M @ _cluster_basis(lam, V, M), axis=0)) / norm)


def _pbh_margin(A, C, poles):
    """Scale-invariant Popov-Belevitch-Hautus margin of the pair (C, A).

    min over the eigenvalues lambda of A of sigma_min([(A - lambda) / ||A||; C / ||C||]):
    (C, A) is observable iff it is positive (Hautus 1969), and it is unchanged
    under A -> t A, C -> sqrt(t) C.  Controllability of (A, B) is the margin of
    (B^dag, A^dag) at the conjugate poles.  inf at 0 modes, 0 when C = 0.
    One SVD of a (2n + 2m) x 2n pencil per pole, so ``_reducibility_margin``
    takes it only for a drift with no usable eigenbasis.
    """
    n = A.shape[0]
    if n == 0:
        return np.inf
    c = np.linalg.norm(C)
    if c == 0:
        return 0.0
    a = np.linalg.norm(A) or 1.0
    pencil = (A - poles[:, None, None] * np.eye(n)) / a
    stack = np.concatenate([pencil, np.broadcast_to(C / c, (len(poles),) + C.shape)], axis=1)
    return float(np.min(np.linalg.svd(stack, compute_uv=False)))


def is_minimal(sys):
    """Minimality: ``_reducibility_margin`` of (C, A) above RANK_TOL.

    Observability and controllability are equivalent for QLSs, so one test
    suffices.  The verdict does not depend on the time scale.  A 0-mode
    system is minimal.
    """
    return _reducibility_margin(sys) > RANK_TOL


def _unstable_poles(lam):
    """Mask of the poles failing Re(lambda) < -STAB_TOL max |lambda|, the one stability test.

    The margin is relative, so no verdict depends on the time scale.  If any pole is flagged, so is the one of largest Re.
    """
    lam = np.asarray(lam, dtype=complex)
    return ~(lam.real < -STAB_TOL * np.max(np.abs(lam), initial=0.0))


def is_hurwitz(sys):
    """True iff ``_unstable_poles`` flags no pole of A.  A 0-mode system is Hurwitz."""
    return not _unstable_poles(sys.poles).any()


def spectral_gap(sys):
    """min |Re(lambda)| over the spectrum of A; 1/gap is the stabilisation time (inf at 0 modes)."""
    return float(np.min(np.abs(sys.poles.real), initial=np.inf))


def series_product(first, second):
    """Series interconnection: output of `first` feeds `second`.

    The composite transfer function is Xi_second(s) Xi_first(s).  Modes are
    concatenated (first system's modes first); channel counts must agree.
    The drift is block lower-triangular in the parts, so the cascade keeps
    them as ``parts = (first, second)``: its cached ``poles`` are theirs,
    concatenated, ``solve_lyapunov`` solves by blocks from their cached
    eigendecompositions and ``freq_response`` multiplies their responses.
    """
    if first.m != second.m:
        raise ValueError(f"channel counts differ: {first.m} vs {second.m}")
    n1, n2, m = first.n, second.n, first.m
    n = n1 + n2
    # upper blocks of C = [S2 C1, C2] and of the drift [[A1, 0], [X, A2]], first's modes
    # first in each half; the lower blocks are their conjugates
    S2C1 = second.S @ first.C
    C = np.empty((2 * m, 2 * n), dtype=complex)
    C[:m, :n1], C[:m, n1:n] = S2C1[:m, :n1], second.C[:m, :n2]
    C[:m, n : n + n1], C[:m, n + n1 :] = S2C1[:m, n1:], second.C[:m, n2:]
    X = -flat_adjoint(second.C) @ second.S @ first.C  # mode-coupling block
    A1, A2 = first.A, second.A
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n1, :n1], A[:n1, n : n + n1] = A1[:n1, :n1], A1[:n1, n1:]
    A[n1:n, :n1], A[n1:n, n : n + n1] = X[:n2, :n1], X[:n2, n1:]
    A[n1:n, n1:n], A[n1:n, n + n1 :] = A2[:n2, :n2], A2[:n2, n2:]
    cascade = QLSystem.from_drift(_mirror(A), _mirror(C), second.S @ first.S)
    # the drift is block lower-triangular in (first, second), so its spectrum is the parts'
    poles = np.concatenate([first.poles, second.poles])
    poles.flags.writeable = False
    cascade.__dict__["poles"] = poles
    object.__setattr__(cascade, "parts", (first, second))
    return cascade


def concatenate(a, b):
    """Concatenation: systems side by side, block-diagonal in modes and channels."""
    def blockdiag(Ma, Mb):
        ra, ca = Ma.shape
        rb, cb = Mb.shape
        out = np.zeros((ra + rb, ca + cb), dtype=complex)
        out[:ra, :ca] = Ma
        out[ra:, ca:] = Mb
        return out

    parts = {}
    for name in ("S", "C", "Omega"):
        Ma, Mb = getattr(a, name), getattr(b, name)
        parts[name] = Delta(
            blockdiag(du_blocks(Ma)[0], du_blocks(Mb)[0]),
            blockdiag(du_blocks(Ma)[1], du_blocks(Mb)[1]),
        )
    return QLSystem(S=parts["S"], C=parts["C"], Omega=parts["Omega"])


def gauge_transform(sys, T):
    """Symplectic change of system basis: C' = C T^b, J Omega' = T J Omega T^b.

    Leaves the transfer function invariant (S unchanged).  T must be
    symplectic to ``is_symplectic``'s tolerance 1e-7.
    """
    T = np.asarray(T, dtype=complex)
    if not is_symplectic(T, tol=1e-7):
        raise ValueError("gauge transformation must be symplectic")
    Tb = flat_adjoint(T)
    return QLSystem.from_drift(T @ (sys.A @ Tb), sys.C @ Tb, sys.S)


def default_grid(sys, points=41):
    """Laplace-axis test grid s = -i w, log-spaced from the spectral structure.

    Frequencies span [1e-2 * gap, 1e2 * ||A||] symmetrically plus w = 0;
    with r = max |lambda|, the gap is floored at 1e-6 r, and a point within
    1e-6 r of a pole is moved 1e-6 r along the axis, so the grid scales with
    the system.  A 0-mode system takes r = gap = 1.
    """
    A = sys.A
    floor = 1e-6 * (np.max(np.abs(sys.poles), initial=0.0) or 1.0)
    gap = max(spectral_gap(sys), floor) if sys.n else 1.0
    top = max(np.linalg.norm(A), 10 * gap)
    w = np.logspace(np.log10(1e-2 * gap), np.log10(1e2 * top), points // 2)
    s = -1j * np.concatenate([-w[::-1], [0.0], w])
    s[np.min(np.abs(s[:, None] - sys.poles), axis=1, initial=np.inf) < floor] -= 1j * floor
    return s


def tf_equal(a, b, grid=None, tol=1e-8):
    """Max transfer-function deviation over a grid, compared against tol.

    The grid defaults to the union of both systems' default grids.
    """
    if a.m != b.m:
        raise ValueError("channel counts differ")
    if grid is None:
        grid = np.concatenate([default_grid(a), default_grid(b)])
    diff = freq_response(a, grid) - freq_response(b, grid)
    return float(np.max(np.linalg.norm(diff, axis=(1, 2)), initial=0.0)) <= tol


@dataclass(frozen=True)
class ParamFamily:
    """One-parameter family of systems theta -> QLSystem.

    ``evaluate`` must be a pure function of theta: ``at`` keeps the system
    and tangent of the last theta asked (one slot, excluded from equality
    and repr), and every QFI route reads them from there, so a second route
    at the same theta builds no system.  ``dataclasses.replace`` gives a
    family with an empty slot.  A family affine in theta may carry its
    exact ``tangent`` (dS, dC, dOmega), kept read-only, excluded from
    equality and repr and kept by ``replace``; ``io.family_from_json``
    supplies one.  Without it the tangent is a central difference of step
    ``fd_step``, which defaults to 1e-6 * max(1, |theta|) at evaluation
    time when zero.  Raises ValueError when ``fd_step`` is negative or not
    finite.
    """

    evaluate: Callable[[float], QLSystem]
    fd_step: float = 0.0
    tangent: tuple = field(default=None, compare=False, repr=False)
    _point: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.fd_step >= 0:
            raise ValueError(f"fd_step must be >= 0 (0 takes the default step), got {self.fd_step}")
        if not np.isfinite(self.fd_step):
            raise ValueError(f"fd_step must be finite, got {self.fd_step}")
        if self.tangent is not None:
            object.__setattr__(self, "tangent", tuple(_frozen(d) for d in self.tangent))

    def step(self, theta):
        if self.fd_step > 0:
            return self.fd_step
        return 1e-6 * max(1.0, abs(theta))

    def derivatives(self, theta):
        """The tangent (dS, dC, dOmega) at theta: the exact one when the family carries it.

        Otherwise central finite differences of step ``step(theta)``, two
        evaluations.
        """
        if self.tangent is not None:
            return self.tangent
        h = self.step(theta)
        hi, lo = self.evaluate(theta + h), self.evaluate(theta - h)
        return tuple((getattr(hi, k) - getattr(lo, k)) / (2 * h) for k in ("S", "C", "Omega"))

    def at(self, theta):
        """(system, tangent) at theta: ``evaluate(theta)`` and ``derivatives(theta)``.

        Computed once and kept until another theta is asked; the tangent's
        arrays are read-only, as the system's are.  On a new point a family
        with an exact tangent makes one evaluation, and otherwise three;
        the kept point makes none.  With an exact tangent whose dS is
        nonzero, S +/- h dS (h = ``step(theta)``) must pass
        ``is_symplectic``, as the systems at theta +/- h of a difference
        must.  Raises ValueError when theta is not finite or S +/- h dS is
        not symplectic.
        """
        if not np.isfinite(theta):
            raise ValueError(f"theta = {theta} is not finite")
        if self._point is None or self._point[0] != theta:
            system, tangent = self.evaluate(theta), self.derivatives(theta)
            if self.tangent is None:
                for d in tangent:
                    d.flags.writeable = False
            elif tangent[0].any():  # the check of S that the builds at theta +/- h would make
                hdS = self.step(theta) * tangent[0]
                if not (is_symplectic(system.S + hdS) and is_symplectic(system.S - hdS)):
                    raise ValueError("S is not symplectic")
            object.__setattr__(self, "_point", (theta, system, tangent))
        return self._point[1:]
