"""Reconstruction of physical systems from transfer-function and power-spectrum data.

Four reconstruction routes are implemented:

* the direct SISO route: the indirect route's realization of (Xi_-, Xi_+),
  deflated one conjugate pole pair at a time into one-mode cascade stages;
* the indirect route: a (non-physical) doubled-up Gilbert realization of the
  rational data followed by the similarity transform T with T^b T fixed by a
  flat Gramian, which restores physical realizability;
* the power-spectrum route for globally minimal systems: a seed read off
  the residues of Psi(s) J with B1 = -C2^b, so that one flat Gramian fixes
  both physicality conditions;
* the noisy route for passive systems observed through a subset of channels,
  which extends a classical realization of the accessible block with noise
  couplings fixed by the physicality conditions.

Rational data is carried as poles + rank-one residues + constant term
(`RationalMatrixFunction`); ``tf_as_rational`` and ``ps_as_rational`` read
it off a system's cached eigendecomposition A = V diag(lambda) V^-1.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Delta,
    _eig_modal,
    _lyap,
    du_blocks,
    factor_flat_gram,
    flat_adjoint,
    gramian_flat,
    is_doubled_up,
    jmat,
    sigma_swap,
)
from .model import (
    RANK_TOL,
    QLSystem,
    StateSpace,
    _cluster_basis,
    _unstable_poles,
    freq_response,
    gauge_transform,
    series_product,
    transfer_function,
)
from .stationary import InputCovariance, _vacuum_rotated

POLE_MATCH_TOL = 1e-6   # pole-location matching, relative to the data's max |p|
PIVOT_RATIO = 0.1       # J-norm ratio below which cascade deflation leaves the damping order
NOISE_RANK_TOL = 1e-12  # relative eigenvalue of C1^dag C1 below which a noise row is zero
NOISE_RESTARTS = 50     # perturbed restarts of a noise-coupling polish stuck above the bound


class IdentificationError(RuntimeError):
    """Raised when rational data is inconsistent with the assumed model class."""


@dataclass(frozen=True, eq=False)
class RationalMatrixFunction:
    """constant + sum_k residues[k] / (s - poles[k]), with matrix residues."""

    constant: np.ndarray
    poles: tuple
    residues: tuple

    def __post_init__(self):
        const = np.atleast_2d(np.asarray(self.constant, dtype=complex))
        object.__setattr__(self, "constant", const)
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        object.__setattr__(
            self,
            "residues",
            tuple(np.atleast_2d(np.asarray(R, dtype=complex)) for R in self.residues),
        )
        if len(self.poles) != len(self.residues):
            raise ValueError("pole and residue counts differ")
        for R in self.residues:
            if R.shape != const.shape:
                raise ValueError("residues must match the constant term's shape")

    @property
    def shape(self):
        return self.constant.shape

    def __call__(self, s):
        out = self.constant.copy()
        for p, R in zip(self.poles, self.residues):
            out = out + R / (s - p)
        return out

    def scalar(self, s):
        if self.shape != (1, 1):
            raise ValueError("not a scalar rational function")
        return complex(self(s)[0, 0])


def _modal_residues(sys):
    """(lambda, V^-1, R) with Xi(s) = S + sum_k R_k / (s - lambda_k), R_k = -(C V)_k (V^-1 C^b S)_k,
    read off the cached A = V diag(lambda) V^-1.

    Raises IdentificationError when V is numerically singular,
    kappa_F(V) = sqrt(2n) ||V^-1||_F >= 1/eps: a defective drift has no pole/residue form.
    """
    lam, V = sys._eig
    try:
        Vi = np.linalg.inv(V)
        if np.sqrt(len(V)) * np.linalg.norm(Vi) * np.finfo(float).eps < 1.0:
            return lam, Vi, -(sys.C @ V).T[:, :, None] * (Vi @ flat_adjoint(sys.C) @ sys.S)[:, None, :]
    except np.linalg.LinAlgError:
        pass
    raise IdentificationError("the drift matrix has a singular eigenbasis (defective); no pole/residue form")


def tf_as_rational(sys):
    """Pole/residue form of the transfer function (``_modal_residues``)."""
    lam, _, residues = _modal_residues(sys)
    return RationalMatrixFunction(constant=sys.S, poles=lam, residues=residues)


def ps_as_rational(sys, V):
    """Pole/residue form of Psi(s) J for a pure input, expressed in the vacuum basis.

    With the rotated system's Xi residues R_k (``_modal_residues``), the residue is
    Q_k = R_k V_vac Xi(-conj lambda_k)^dag J at lambda_k and, as Psi(s) = Psi(-conj s)^dag,
    -J Q_k^dag J at -conj(lambda_k).  The constant term is the scattering floor S V_vac S^b.
    """
    rotated, _ = _vacuum_rotated(sys, V)
    lam, _, R = _modal_residues(rotated)
    J, vac = jmat(sys.m), InputCovariance.vacuum(sys.m).matrix()
    mirror = freq_response(rotated, -lam.conj()).conj().transpose(0, 2, 1)  # Xi(-conj lambda_k)^dag
    Q = R @ vac @ mirror @ J
    residues = np.concatenate([Q, -J @ Q.conj().transpose(0, 2, 1) @ J])
    const = rotated.S @ vac @ flat_adjoint(rotated.S)
    return RationalMatrixFunction(constant=const, poles=np.concatenate([lam, -lam.conj()]), residues=residues)


def _rank_one_factor(R):
    """R = col @ row with col a column and row a row; errors if sigma_2 > 1e-6 sigma_1."""
    U, sv, Vh = np.linalg.svd(R)
    if sv[0] == 0:
        raise IdentificationError("zero residue cannot be rank-one factored")
    if len(sv) > 1 and sv[1] > 1e-6 * sv[0]:
        raise IdentificationError(f"residue has rank > 1 (sigma2/sigma1 = {sv[1]/sv[0]:.2e})")
    col = U[:, :1] * np.sqrt(sv[0])
    row = Vh[:1, :] * np.sqrt(sv[0])
    return col, row


def _pole_index(poles, p, missing):
    """Index of the pole within POLE_MATCH_TOL max |poles| of p; IdentificationError(missing) if none.

    The one rule pairing a pole with another; the pole's residues are then read by that index.
    """
    d = np.abs(poles - p)
    if not np.min(d, initial=np.inf) <= POLE_MATCH_TOL * np.max(np.abs(poles), initial=0.0):
        raise IdentificationError(missing)
    return int(np.argmin(d))


def _canonical_row_phase(row):
    """Phase/scale making the first nonzero entry of the row real positive."""
    idx = np.argmax(np.abs(row))
    lead = row[0, idx]
    if lead == 0:
        raise IdentificationError("zero row in rank-one factor")
    return np.abs(lead) / lead


# ---------------------------------------------------------------------------
# cascades of one-mode systems


@dataclass(frozen=True)
class OneModeParams:
    """A one-mode SISO cascade stage: coupling Delta(c, 0), Hamiltonian Delta(omega_minus, omega_plus).

    c > 0 and omega_minus are real; omega_plus is complex.
    """

    c: float
    omega_minus: float
    omega_plus: complex

    def to_system(self):
        return QLSystem.from_blocks(
            [[self.c]], [[0.0]], [[self.omega_minus]], [[self.omega_plus]]
        )


@dataclass(frozen=True)
class CascadeRealization:
    """Ordered one-mode stages; ``stages[0]`` receives the input first."""

    stages: tuple

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    def to_system(self):
        if not self.stages:
            return QLSystem.passive([[1.0]], np.zeros((1, 0)), np.zeros((0, 0)))
        sys = self.stages[0].to_system()
        for stage in self.stages[1:]:
            sys = series_product(sys, stage.to_system())
        return sys


def passive_siso_cascade(poles):
    """Cascade of optical cavities realising a passive SISO transfer function.

    Each left-half-plane pole z contributes a stage with Omega = -Im(z) and
    |c|^2 / 2 = -Re(z); the composite transfer function is the product of the
    one-pole all-pass factors (s - conj(z)) / (s - z).
    """
    poles = [complex(z) for z in poles]
    unstable = _unstable_poles(poles)
    if unstable.any():
        raise ValueError(f"pole {poles[np.argmax(unstable)]} is not in the open left half-plane")
    return CascadeRealization(tuple(OneModeParams(float(np.sqrt(-2.0 * z.real)), -z.imag, 0j) for z in poles))


def siso_cascade_identify(xi_minus, xi_plus, pole_order="damping"):
    """Cascade realization of a generic SISO transfer function (Xi_-, Xi_+).

    The scalar rational functions must share their 2n poles (complex-conjugate
    pairs off the real axis, Hurwitz); Xi_- is monic and Xi_+ vanishes at
    infinity.  Xi_+'s poles and each pole's conjugate are found by
    ``_pole_index``; Xi_+ residues landing on one pole are partial fractions
    of it and are summed.  The doubled-up data is realised by ``gilbert_realize`` and
    ``physical_from_classical``.  A pure cascade is a symplectic basis in
    which the drift is block lower-triangular in pole order: physical
    realizability then forces every lower block to be -C_i^b C_j, which is
    ``series_product`` of the stages.  The basis rows are left eigenvectors
    of A (rows of V^-1), made J-orthonormal one conjugate pole pair at a
    time: the pairs already taken are projected out, the J-positive member
    of the pair [w, Sigma conj(w)] is kept (their 2 x 2 form is diag(a, -a),
    since J Sigma is antisymmetric), and a Bogoliubov rotation within the
    pair makes the stage couple as Delta(c, 0) with c = sqrt(-2 Re lambda).

    ``pole_order`` is the default ``"damping"`` (descending |Re|) or a
    sequence of pole-pair representatives choosing the first stages, each
    matched by ``_pole_index`` to a pair not yet peeled.  In
    the damping order, a pair whose J-norm ratio |a| / ||w||^2 is below
    PIVOT_RATIO gives way to the pair with the largest ratio (column
    pivoting), since a nearly J-neutral pair makes the basis ill-conditioned.
    Raises IdentificationError when the data is not of this form, a
    requested pole matches no such pair, the pair taken is J-neutral (no
    pure cascade in that order) or the basis is not symplectic.
    """
    poles = np.array(xi_minus.poles, dtype=complex)
    plus = [_pole_index(poles, p, "Xi_+ has a pole that Xi_- does not") for p in xi_plus.poles]
    if abs(complex(xi_minus.constant[0, 0]) - 1.0) > 1e-8:
        raise IdentificationError("Xi_- must be monic (constant term 1)")
    if abs(complex(xi_plus.constant[0, 0])) > 1e-8:
        raise IdentificationError("Xi_+ must vanish at infinity")
    if _unstable_poles(poles).any():
        raise IdentificationError(f"unstable pole {poles[np.argmax(poles.real)]}")

    # doubled-up residues [[r_-(p), r_+(p)], [conj r_+(conj p), conj r_-(conj p)]]
    rm = np.array([R[0, 0] for R in xi_minus.residues], dtype=complex)
    rp = np.zeros(len(poles), dtype=complex)
    np.add.at(rp, plus, [R[0, 0] for R in xi_plus.residues])
    mate = [_pole_index(poles, np.conj(p), f"pole {p} has no conjugate partner in the data") for p in poles]
    residues = np.moveaxis(np.array([[rm, rp], [rp[mate].conj(), rm[mate].conj()]]), -1, 0)
    sys = physical_from_classical(gilbert_realize(RationalMatrixFunction(np.eye(2), poles, residues)))

    n = sys.n
    J, Sig = jmat(n), sigma_swap(n)
    lam, Vi, _ = _modal_residues(sys)  # row k of V^-1 is a left eigenvector: Vi[k] A = lambda_k Vi[k]
    todo = [int(i) for i in np.argsort(lam.real) if lam[i].imag > 0]  # descending |Re|
    wanted = [] if pole_order == "damping" else [complex(z) for z in pole_order]
    for j, z in enumerate(wanted):  # requested pairs go first, in their order
        k = _pole_index(lam[todo[j:]], complex(z.real, abs(z.imag)),
                        f"requested pole {z} is not among the data's pole pairs not yet peeled")
        todo.insert(j, todo.pop(j + k))

    P = np.zeros((2 * n, 0), dtype=complex)  # stage vectors so far: P^dag J P = 1
    cs = []
    while todo:
        W = Vi[todo].conj().T
        N = Sig @ P.conj()  # their partners: N^dag J N = -1
        W = W - P @ (P.conj().T @ (J @ W)) + N @ (N.conj().T @ (J @ W))
        a = np.einsum("ik,ik->k", W.conj(), J @ W).real
        ratio = np.abs(a) / np.linalg.norm(W, axis=0) ** 2
        k = 0 if len(cs) < len(wanted) or ratio[0] >= PIVOT_RATIO else int(np.argmax(ratio))
        if not ratio[k] > 1e-8:
            raise IdentificationError(f"pole pair {lam[todo[k]]:.6g} is J-neutral after deflation "
                                      f"(J-norm ratio {ratio[k]:.2e}); no pure cascade in this order")
        todo.pop(k)
        q = (W[:, k] if a[k] > 0 else Sig @ W[:, k].conj()) / np.sqrt(abs(a[k]))
        x, y = sys.C @ (J @ q)  # the stage couples as Delta(x, conj(y))
        c = np.sqrt(abs(x) ** 2 - abs(y) ** 2)
        P = np.column_stack([P, (np.conj(x) * q + y * (Sig @ q.conj())) / c])
        cs.append(c)

    T = np.vstack([P.conj().T, P.T @ Sig])
    try:
        om, op = du_blocks(gauge_transform(sys, T).Omega)
    except ValueError:  # gauge_transform's symplectic check: the rest holds by construction
        defect = np.linalg.norm(flat_adjoint(T) @ T - np.eye(2 * n))
        raise IdentificationError(f"cascade basis is not symplectic (defect {defect:.2e}, "
                                  f"cond(T) {np.linalg.cond(T):.2e})") from None
    return CascadeRealization(stages=tuple(
        OneModeParams(float(c), float(om[k, k].real), complex(op[k, k])) for k, c in enumerate(cs)
    ))


# ---------------------------------------------------------------------------
# indirect (Gilbert + symplectic factorization) route


def gilbert_realize(tf):
    """Minimal doubled-up state-space realization of a rational transfer function.

    Requires distinct poles with nonzero imaginary parts, each with its
    conjugate among the poles (matched by ``_pole_index``), and rank-one
    residues, mirrored so that conj(p) carries residue
    Sigma conj(R) Sigma (to 1e-6 of the largest residue norm, so the check
    holds at every time scale).
    Returns a StateSpace with A0 diagonal; D is the constant term.
    """
    poles = np.array(tf.poles)
    if len(poles) == 0:
        empty = np.zeros((0, 0))
        return StateSpace(A=empty, B=np.zeros((0, tf.shape[1])),
                          C=np.zeros((tf.shape[0], 0)), D=tf.constant)
    scale = np.max(np.abs(poles))
    if np.any(np.abs(poles.imag) <= 1e-9 * scale):
        raise IdentificationError("poles on the real axis are not supported")
    gap = np.abs(poles[:, None] - poles)[~np.eye(len(poles), dtype=bool)]  # between distinct entries
    if np.any(gap <= POLE_MATCH_TOL * scale):
        raise IdentificationError("repeated poles are not supported")
    partner = [_pole_index(poles, np.conj(p), f"pole {p} has no conjugate partner in the data")
               for p in poles]
    m2 = tf.shape[0]
    if m2 % 2:
        raise ValueError("transfer data must act on doubled field coordinates")
    Sig = sigma_swap(m2 // 2)

    upper = np.flatnonzero(poles.imag > 0)
    lam = poles[upper]
    rscale = max(np.linalg.norm(R) for R in tf.residues)
    B_rows, C_cols = [], []
    for i in upper:
        R, Rbar = tf.residues[i], tf.residues[partner[i]]
        if np.linalg.norm(Rbar - Sig @ R.conj() @ Sig) > 1e-6 * rscale:
            raise IdentificationError(f"residues at {poles[i]} and its conjugate are not mirrored")
        col, row = _rank_one_factor(R)
        ph = _canonical_row_phase(row)
        B_rows.append(row * ph)
        C_cols.append(col / ph)
    A0 = np.diag(np.concatenate([lam, np.conj(lam)]))
    B0 = np.vstack(B_rows + [row.conj() @ Sig for row in B_rows])
    C0 = np.hstack(C_cols + [Sig @ col.conj() for col in C_cols])
    ss = StateSpace(A=A0, B=B0, C=C0, D=tf.constant)
    # round-trip defect against the rational data
    smax = 3.0 * scale
    for s in (1j * smax, 0.37 * scale + 0.91j * smax, -1j * 0.23 * smax + 0.11 * scale):
        ref = tf(s)
        if np.linalg.norm(ss.transfer(s) - ref) > 1e-6 * max(1.0, np.linalg.norm(ref)):
            raise IdentificationError("Gilbert realization does not reproduce the data")
    return ss


def physical_from_classical(ss):
    """Physical system (S, C, Omega) from a minimal doubled-up realization of Xi(s).

    Solves the flat Gramian T^b T = int J (C0 e^{A0 t})^dag J (C0 e^{A0 t}) dt,
    factors it with ``factor_flat_gram`` (one Hermitian eigenproblem, any
    spectrum; the factor is fixed up to a symplectic gauge) and transforms
    (A0, B0, C0) into a PR-valid triple.  The input must describe a genuine
    QLS transfer function (symplectic on the imaginary axis); otherwise the
    consistency check B = -C^b fails and an IdentificationError is raised.
    """
    A0, B0, C0, D = ss.A, ss.B, ss.C, ss.D
    for M, name in ((A0, "A"), (B0, "B"), (C0, "C")):
        if M.size and not is_doubled_up(M, tol=1e-7):
            raise ValueError(f"{name} block of the realization is not doubled-up")
    modal = _eig_modal(A0.conj().T)  # shared by the Hurwitz check and gramian_flat
    poles = np.linalg.eigvals(A0) if modal is None else modal[0]
    if _unstable_poles(poles).any():
        raise ValueError("realization must be Hurwitz")
    m2 = C0.shape[0]
    S = D
    if np.linalg.norm(D - np.eye(m2)) > 1e-8 * max(1.0, np.linalg.norm(D)):
        B0 = B0 @ np.linalg.inv(D)  # pull the scattering out of the strictly proper part
    G = gramian_flat(A0, C0, modal)
    T0 = factor_flat_gram(G)
    T0inv = np.linalg.inv(T0)
    # consistency with the second PR condition: (T^b T) B0 = -C0^b
    defect = np.linalg.norm(G @ B0 + flat_adjoint(C0)) / max(1.0, np.linalg.norm(C0))
    if defect > 1e-5:
        raise IdentificationError(
            f"realization is not a physical transfer function (B defect {defect:.2e})"
        )
    return QLSystem.from_drift(T0 @ A0 @ T0inv, C0 @ T0inv, S)


def _match_scale(target, candidate, what):
    """Complex c with candidate = c * target; errors when not collinear."""
    t = target.ravel()
    v = candidate.ravel()
    k = int(np.argmax(np.abs(t)))
    if abs(t[k]) == 0:
        raise IdentificationError(f"degenerate {what} factor")
    c = v[k] / t[k]
    if np.linalg.norm(v - c * t) > 1e-6 * max(1.0, np.linalg.norm(v)):
        raise IdentificationError(f"{what} factors are not collinear; data is inconsistent")
    return c


def ps_realize(ps, return_details=False):
    """Globally minimal physical system from power-spectrum data Psi(s) J.

    The rational data must have 4n simple poles off the real axis: the 2n
    stable eigenvalues of the drift matrix plus their unstable mirrors.
    A doubled-up Gilbert seed (A0, [B1; B2], [C1, C2]) is canonicalized with
    unit diagonal entries on C2 and B1 = -C2^b.  Then B1^dag J = -J C2, so
    the input-side physicality condition integrates the same flat Gramian
    as the output-side one, and one Gramian is enough: T3 is the flat-Gram
    factor of T3^b T3 from ``factor_flat_gram`` (fixed up to a symplectic
    gauge), and (A, C) = (T3 A0 T3^{-1}, C2 T3^{-1}).  IdentificationError
    is raised when a residue is not rank-one, a mirror pair or a row of B1
    is not collinear with its counterpart, or a mirrored pole is missing.

    Returns the reconstructed QLSystem (vacuum input, S = 1 data); with
    ``return_details`` also a dict holding the seed and the Gramian T3^b T3.
    """
    poles = np.array(ps.poles)
    if len(poles) % 4:
        raise IdentificationError("power-spectrum data needs 4n poles")
    n = len(poles) // 4
    m2 = ps.shape[0]
    if n == 0:  # pure-scattering data: the 0-mode system
        sys = QLSystem.from_drift(np.zeros((0, 0)), np.zeros((m2, 0)))
        empty = np.zeros((0, 0), dtype=complex)
        details = {"A0": empty, "B1": np.zeros((0, m2)), "C2": np.zeros((m2, 0)), "T3": empty, "T3bT3": empty}
        return (sys, details) if return_details else sys
    scale = np.max(np.abs(poles))
    if np.any(np.abs(poles.imag) <= 1e-9 * scale):
        raise IdentificationError("real-axis poles are not supported")
    stable = poles[poles.real < 0]
    if len(stable) != 2 * n:
        raise IdentificationError("stable/unstable pole counts are not balanced")

    # order the stable poles as (lambda_1..lambda_n, conj mirror)
    lam = stable[stable.imag > 0]
    if len(lam) != n:
        raise IdentificationError("stable poles do not form conjugate pairs")

    def residue_at(p):
        return ps.residues[_pole_index(poles, p, f"expected pole {p} missing from data")]

    Sig = sigma_swap(m2 // 2)

    C2_first, B1_first = [], []
    for i, lam_i in enumerate(lam):
        # stable pair (lambda_i, conj): columns of C2; unstable mirror pair
        # (-conj(lambda_i), -lambda_i): rows of B1.  The conjugate residues
        # must point along the Sigma-conjugated directions.
        T_res = residue_at(lam_i)
        W_res = residue_at(np.conj(lam_i))
        col, _ = _rank_one_factor(T_res)
        colW, _ = _rank_one_factor(W_res)
        _match_scale(Sig @ col.conj(), colW, "stable mirror")
        # canonical column scale: unit diagonal entry, falling back to a
        # real-positive leading entry when the diagonal vanishes
        if i < col.shape[0] and abs(col[i, 0]) > 1e-8 * np.linalg.norm(col):
            col = col / col[i, 0]
        else:
            col = col * _canonical_row_phase(col.T) / np.linalg.norm(col)
        C2_first.append(col)
        I_res = residue_at(-np.conj(lam_i))
        K_res = residue_at(-lam_i)
        _, rowI = _rank_one_factor(I_res)
        _, rowK = _rank_one_factor(K_res)
        _match_scale(rowI.conj() @ Sig, rowK, "unstable mirror")
        B1_first.append(rowI)

    # B1 = -C2^b, each unstable-mirror row checked collinear with its row; the
    # rescale moves onto C1, which is discarded
    A0 = np.diag(np.concatenate([lam, np.conj(lam)]))
    C2 = np.hstack([np.hstack(C2_first), np.hstack([Sig @ c.conj() for c in C2_first])])
    B1 = -flat_adjoint(C2)
    for i, rowI in enumerate(B1_first):
        _match_scale(rowI, B1[i : i + 1, :], "B1 = -C2^b")

    # One Gramian is enough: B1 = -C2^b gives B1^dag J_n = -J_m C2, so the
    # input-side Gramian (T1^b T1)^{-1} integrates the same C2^dag J C2 as the
    # output-side T3^b T3, and T1 = -(T3^{-1})^b yields the same (A, -C).
    # A0^dag is diagonal, so its modal form is (conj(lambda), 1, 1).
    eye = np.eye(2 * n, dtype=complex)
    T3bT3 = gramian_flat(A0, C2, (np.diagonal(A0).conj(), eye, eye))
    T3 = factor_flat_gram(T3bT3)
    T3inv = np.linalg.inv(T3)
    A = T3 @ A0 @ T3inv
    C = C2 @ T3inv

    sys = QLSystem.from_drift(A, C)
    if return_details:
        return sys, {"A0": A0, "B1": B1, "C2": C2, "T3": T3, "T3bT3": T3bT3}
    return sys


# ---------------------------------------------------------------------------
# noisy identification (passive systems, inaccessible channels)


def _noise_solver(A0):
    """Q -> the M with A0^dag M + M A0 + Q = 0 (``algebra.lyap``), for one Q or a stack, from one ``eig`` of A0^dag."""
    Ad = A0.conj().T
    modal = _eig_modal(Ad)
    return lambda Q: _lyap(Ad, -Q, modal)[0]


def _noise_rows(H, n_noise):
    """C1 with C1^dag C1 the best rank-``n_noise`` PSD approximation of Hermitian H.

    Rows are sqrt(lambda) v^dag over the ``n_noise`` largest eigenpairs in
    descending order, each with its largest entry made real positive
    (``_canonical_row_phase``).  An eigenvalue at most NOISE_RANK_TOL times
    the largest gives a zero row: the polish reaches a rank-deficient H only
    sublinearly, so it leaves such a row at about the square root of its
    residual floor, in a direction set by rounding.
    """
    vals, vecs = np.linalg.eigh(H)
    vals, vecs = vals[::-1][:n_noise], vecs[:, ::-1][:, :n_noise]
    keep = vals > NOISE_RANK_TOL * np.max(np.abs(vals), initial=0.0)
    rows = np.sqrt(np.where(keep, vals, 0.0))[:, None] * vecs.conj().T
    return np.array([r * _canonical_row_phase(r[None]) if k else r for k, r in zip(keep, rows)])


def _levenberg_marquardt(residual, jacobian, x):
    """Minimise ||residual(x)||^2 from x by Marquardt-damped Gauss-Newton steps; returns (x, residual).

    The damping mu scales D, the running maximum of diag(J^T J) with zeros
    read as 1 (Moré 1978); mu starts at 1e-3, grows 10x on a rejected step
    and shrinks 10x on an accepted one, after which J is re-evaluated.
    Stops when the cost underflows, when a step no longer moves x, or after
    200 trial steps.
    """
    r = residual(x)
    cost, mu, D, J = r @ r, 1e-3, np.zeros(x.size), None
    for _ in range(200):
        if cost <= np.finfo(float).tiny:
            break
        if J is None:
            J = jacobian(x)
            D = np.maximum(D, np.einsum("ij,ij->j", J, J))
            scale = np.diag(np.sqrt(np.where(D > 0, D, 1.0)))
            rhs = np.concatenate([-r, np.zeros(x.size)])
        # (J^T J + mu D) step = -J^T r, as least squares: no squared condition number
        step = np.linalg.lstsq(np.vstack([J, np.sqrt(mu) * scale]), rhs, rcond=None)[0]
        if np.linalg.norm(step) <= 1e-15 * (np.linalg.norm(x) + 1e-15):
            break
        r_new = residual(x + step)
        if r_new @ r_new < cost:
            x, r, cost, mu, J = x + step, r_new, r_new @ r_new, mu / 10.0, None
        else:
            mu *= 10.0
    return x, r


def _noise_coupling(solve, B0, C0, n_noise, bound):
    """The n_noise x n coupling C1 of ``noisy_realize`` (n_noise >= 1); the caller checks it.

    r = r0 + lin h(H) in the real coordinates h of Hermitian H, lin holding
    the images M(E) B0 of a basis E.  The polish runs on x = (Re C1, Im C1),
    where dr = lin h(dC^dag C1 + C1^dag dC) is the exact Jacobian.  A polish
    that stalls above ``bound`` (a local minimum; seen with two or more
    accessible channels) restarts from a perturbation of its best point, up
    to NOISE_RESTARTS times, drawn from a fixed seed.
    """
    n = B0.shape[0]
    # h(H): Re H on and above the diagonal, then Im H above it
    iu, ju = np.triu_indices(n)
    off = iu != ju
    coords = lambda H: np.concatenate([H[..., iu, ju].real, H[..., iu[off], ju[off]].imag], axis=-1)
    basis = np.zeros((n * n, n, n), dtype=complex)
    k = np.arange(len(iu))
    basis[k, iu, ju] = basis[k, ju, iu] = 1.0
    k = len(iu) + np.arange(off.sum())
    basis[k, iu[off], ju[off]], basis[k, ju[off], iu[off]] = 1j, -1j
    images = (solve(basis) @ B0).reshape(n * n, -1).T
    lin = np.vstack([images.real, images.imag])
    base = (solve(C0.conj().T @ C0) @ B0 + C0.conj().T).ravel()
    r0 = np.concatenate([base.real, base.imag])

    size = n_noise * n
    unit = np.eye(size).reshape(size, n_noise, n)
    directions = np.concatenate([unit, 1j * unit]).conj().transpose(0, 2, 1)
    to_c1 = lambda x: (x[:size] + 1j * x[size:]).reshape(n_noise, n)

    def residual(x):
        C = to_c1(x)
        return r0 + lin @ coords(C.conj().T @ C)

    def jacobian(x):
        P = directions @ to_c1(x)
        return lin @ coords(P + P.conj().transpose(0, 2, 1)).T

    # linear stage: least-squares H, then its PSD rank-n_noise projection
    h = np.linalg.lstsq(lin, -r0, rcond=None)[0]
    C1 = _noise_rows(np.tensordot(h, basis, 1), n_noise)
    best, r = _levenberg_marquardt(residual, jacobian, np.concatenate([C1.real.ravel(), C1.imag.ravel()]))
    kick = np.random.default_rng(0)
    for _ in range(NOISE_RESTARTS):
        if np.linalg.norm(r) <= bound:
            break
        x0 = best + 0.3 * max(1.0, np.linalg.norm(best)) / np.sqrt(best.size) * kick.standard_normal(best.size)
        x, rx = _levenberg_marquardt(residual, jacobian, x0)
        if rx @ rx < r @ r:
            best, r = x, rx
    C1 = to_c1(best)
    return _noise_rows(C1.conj().T @ C1, n_noise)


def noisy_realize(ss, n_noise, rng=None):
    """Passive physical system matching an accessible-block transfer function.

    `ss` is a minimal classical realization (A0, B0, C0, 1) of the m1 x m1
    accessible block Xi_11(s) of a passive system with `n_noise` additional
    unobserved channels (non-doubled representation), 0 <= n_noise <= n.
    The noise coupling C1 is fixed by the physicality condition
    r(C1) = M B0 + C0^dag = 0, where H = C1^dag C1 and

        A0^dag M + M A0 + C0^dag C0 + H = 0.

    M is affine in H, so a linear least-squares stage gives a Hermitian H;
    its PSD rank-``n_noise`` projection starts a Levenberg-Marquardt polish
    of r over C1 (``_noise_coupling``).  C1 is then rebuilt from H by
    ``_noise_rows``, which fixes its unitary freedom on the noise channels:
    the result is a continuous function of ``ss``.  ``rng`` is accepted for
    callers of the earlier seeded version and does not affect the result.
    """
    A0, B0, C0 = ss.A, ss.B, ss.C
    n = A0.shape[0]
    if not 0 <= n_noise <= n:
        raise ValueError(f"n_noise must be between 0 and n = {n}, got {n_noise}")
    solve = _noise_solver(A0)
    bound = 1e-6 * max(1.0, np.linalg.norm(C0))
    C1 = _noise_coupling(solve, B0, C0, n_noise, bound) if n_noise else np.zeros((0, n), dtype=complex)
    M = solve(C0.conj().T @ C0 + C1.conj().T @ C1)
    defect = np.linalg.norm(M @ B0 + C0.conj().T)
    if defect > bound:
        raise IdentificationError("data requires noise channels but n_noise = 0" if n_noise == 0
                                  else f"no physical noise extension found (residual {defect:.2e})")

    vals, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
    if np.min(vals) <= 0:
        raise IdentificationError("Gramian is not positive definite; realization not minimal")
    T = (vecs * np.sqrt(vals)) @ vecs.conj().T
    Tinv = np.linalg.inv(T)
    A = T @ A0 @ Tinv
    Cfull = np.vstack([C0, C1]) @ Tinv
    sys = QLSystem.from_drift(Delta(A), Delta(Cfull))
    pr = np.linalg.norm(A + A.conj().T + Cfull.conj().T @ Cfull)
    if pr > 1e-7 * max(1.0, np.linalg.norm(A)):
        raise IdentificationError(f"passive PR violated after extension ({pr:.2e})")
    return sys


def accessible_block(sys, channels):
    """The Xi block mapping the listed (accessible) input channels to themselves."""
    idx = np.ix_(list(channels), list(channels))
    return lambda s: du_blocks(transfer_function(sys, s))[0][idx]


def nus_detect(sys, accessible):
    """Basis of the noise-unobservable subspace of a passive system.

    Returns a basis (columns y) of the left eigenvectors of A_-
    (y^dag A = lambda y^dag) in the kernel of the noise-block coupling, per
    cluster of eigenvalues by the minimality test's rule and cutoff
    (``model._cluster_basis``, ||C_noise y|| <= RANK_TOL ||C_noise||).
    """
    if not sys.is_passive:
        raise ValueError("noise-unobservable subspaces are defined for passive systems")
    Am = du_blocks(sys.A)[0]
    Cm = du_blocks(sys.C)[0]
    noise_rows = [i for i in range(sys.m) if i not in set(accessible)]
    c2 = Cm[noise_rows, :]
    lam, vecs = np.linalg.eig(Am.conj().T)
    Y = _cluster_basis(lam, vecs, c2)
    keep = np.linalg.norm(c2 @ Y, axis=0) <= RANK_TOL * np.linalg.norm(c2)
    return list(Y.T[keep])
