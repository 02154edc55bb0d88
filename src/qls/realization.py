"""Reconstruction of physical systems from transfer-function and power-spectrum data.

Three reconstruction routes are implemented:

* the direct SISO route, peeling one-mode stages off a cascade by a
  coefficient recursion on the numerators of (Xi_-, Xi_+);
* the indirect route: a (non-physical) doubled-up Gilbert realization of the
  rational data followed by the similarity transform T with T^b T fixed by a
  flat Gramian, which restores physical realizability;
* the noisy route for passive systems observed through a subset of channels,
  which extends a classical realization of the accessible block with noise
  couplings fixed by the physicality conditions.

Rational data is carried as poles + rank-one residues + constant term
(`RationalMatrixFunction`); helpers extract that form from model objects by
sampling near the poles, the same way an experimenter would fit measured
frequency data.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Delta,
    du_blocks,
    factor_flat_gram,
    flat_adjoint,
    gramian_flat,
    is_doubled_up,
    jmat,
    lyap,
    sigma_swap,
)
from .model import (
    QLSystem,
    StateSpace,
    freq_response,
    series_product,
    transfer_function,
)
from .stationary import InputCovariance, _vacuum_rotated, power_spectrum, vacuum_covariance

POLE_MATCH_TOL = 1e-6   # absolute pole-location matching
RESIDUE_EPS = 1e-5      # radius for residue extraction by limit evaluation


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


def rational_from_callable(f, poles, constant):
    """Build a RationalMatrixFunction by limit evaluation at known pole locations.

    Each residue averages (s - p) f(s) over four points on a circle of radius
    RESIDUE_EPS around p; `f` maps a grid to a stack and is called once.
    """
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    offsets = [RESIDUE_EPS * np.exp(1j * t) for t in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)]
    s = (poles[:, None] + np.array(offsets)).ravel()
    vals = (s - np.repeat(poles, 4))[:, None, None] * f(s)
    vals = vals.reshape(len(poles), 4, *vals.shape[1:])
    residues = (((vals[:, 0] + vals[:, 1]) + vals[:, 2]) + vals[:, 3]) / 4.0
    return RationalMatrixFunction(constant=constant, poles=tuple(poles), residues=residues)


def tf_as_rational(sys):
    """Pole/residue form of the transfer function, poles read off eig(A)."""
    return rational_from_callable(lambda s: freq_response(sys, s), sys.poles, sys.S)


def ps_as_rational(sys, V):
    """Pole/residue form of Psi(s) J for a pure input, expressed in the vacuum basis.

    Poles are eig(A) together with the mirrored set -conj(eig(A)); the
    constant term is the scattering floor S V_vac S^b.
    """
    rotated, _ = _vacuum_rotated(sys, V)
    lam = rotated.poles
    poles = np.concatenate([lam, -lam.conj()])
    vac = InputCovariance.vacuum(sys.m)
    J = jmat(sys.m)
    const = rotated.S @ vacuum_covariance(sys.m) @ flat_adjoint(rotated.S)

    return rational_from_callable(lambda s: power_spectrum(rotated, vac, s) @ J, poles, const)


def _rank_one_factor(R, tol=1e-6):
    """R = col @ row with col a column and row a row; errors if rank(R) > 1."""
    U, sv, Vh = np.linalg.svd(R)
    if sv[0] == 0:
        raise IdentificationError("zero residue cannot be rank-one factored")
    if len(sv) > 1 and sv[1] > tol * sv[0]:
        raise IdentificationError(f"residue has rank > 1 (sigma2/sigma1 = {sv[1]/sv[0]:.2e})")
    col = U[:, :1] * np.sqrt(sv[0])
    row = Vh[:1, :] * np.sqrt(sv[0])
    return col, row


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
    """Cascade-stage parameters (x, theta, y, phi) of a one-mode SISO system.

    x = c^2 / 2 > 0, theta = Omega_-, y^2 = |Omega_+|^2 - Omega_-^2 (y real or
    purely imaginary) and phi = arg(Omega_+).
    """

    x: float
    theta: float
    y: complex
    phi: float

    @property
    def c(self):
        return np.sqrt(2.0 * self.x)

    @property
    def omega_minus(self):
        return self.theta

    @property
    def omega_plus(self):
        mag2 = (self.y ** 2).real + self.theta ** 2
        mag = np.sqrt(max(mag2, 0.0))
        return mag * np.exp(1j * self.phi)

    @staticmethod
    def from_physical(c, omega_minus, omega_plus):
        x = 0.5 * abs(c) ** 2
        y = np.sqrt(complex(abs(omega_plus) ** 2 - omega_minus ** 2))
        return OneModeParams(x=float(x), theta=float(omega_minus), y=complex(y),
                             phi=float(np.angle(omega_plus)) if omega_plus != 0 else 0.0)

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
    stages = []
    for z in poles:
        z = complex(z)
        if z.real >= 0:
            raise ValueError(f"pole {z} is not in the open left half-plane")
        stages.append(OneModeParams.from_physical(np.sqrt(-2.0 * z.real), -z.imag, 0.0))
    return CascadeRealization(stages=tuple(stages))


def _numerator_coeffs(rational, common_poles):
    """Numerator polynomial coefficients of `rational` over prod(s - p)."""
    den = np.poly(common_poles)
    num = np.asarray(rational.constant[0, 0], dtype=complex) * den
    for p, R in zip(rational.poles, rational.residues):
        k = int(np.argmin(np.abs(np.asarray(common_poles) - p)))
        if abs(common_poles[k] - p) > POLE_MATCH_TOL * max(1.0, abs(p)):
            raise IdentificationError(f"pole {p} missing from the common denominator")
        others = [q for j, q in enumerate(common_poles) if j != k]
        num = np.polyadd(num, complex(R[0, 0]) * np.poly(others))
    return num


def _even_coeffs(num, n_pairs, what):
    """Collect coefficients of s^{2k}; error on significant odd powers."""
    num = np.atleast_1d(num)
    full = np.zeros(2 * n_pairs + 1, dtype=complex)
    full[-len(num):] = num
    scale = np.max(np.abs(full)) or 1.0
    odd = full[-2::-2]
    if np.max(np.abs(odd), initial=0.0) > 1e-6 * scale:
        raise IdentificationError(f"{what} numerator has odd-power terms; not a cascade form")
    return full[::-2]  # index k -> coefficient of s^{2k}


class _Affine:
    """Affine record: a_k = s1 + s2 conj(O) - s3 theta, b_k = s4 + s2 theta - s3 O."""

    __slots__ = ("s1", "s2", "s3")

    def __init__(self, s1, s2, s3):
        self.s1, self.s2, self.s3 = complex(s1), complex(s2), complex(s3)


def _stage_from_pair(alphas, betas, x, y2):
    """One peeling step: identify (theta, Omega_+) and the quotient numerators.

    `alphas[k]`, `betas[k]` are the s^{2k} coefficients of the current
    numerators (alphas monic of degree 2n).  The one-mode factors are

        Xi_1-(s) = (s^2 + e) / d(s),  e = -x^2 - y^2 + 2 i x theta,
        Xi_1+(s) = f / d(s),          f = +2 i x Omega_+,

    with d(s) = (s + x)^2 - y^2.  Descending through the even powers keeps
    every coefficient affine in (theta, Omega_+): the quadratic terms always
    combine into the known y^2 = |Omega_+|^2 - theta^2.

    Returns (theta, omega_plus, new_alphas, new_betas).
    """
    n = len(alphas) - 1
    a = [None] * n
    b = [None] * n
    s1, s2, s3, s4 = 1.0, 0.0, 0.0, 0.0  # a_{n-1} = 1, b_{n-1} = 0
    w = x * x + y2
    for level in range(n - 1, -1, -1):
        alpha = alphas[level]
        beta = betas[level] if level < len(betas) else 0.0
        ns1 = alpha + w * s1 - 2j * x * s3 * y2
        ns2 = w * s2 + 2j * x * s4
        ns3 = w * s3 + 2j * x * s1
        ns4 = beta + w * s4 - 2j * x * s2 * y2
        s1, s2, s3, s4 = ns1, ns2, ns3, ns4
        if level > 0:
            a[level - 1] = _Affine(s1, s2, s3)
            b[level - 1] = _Affine(s4, s2, s3)
    # termination: a_{-1} = 0 and b_{-1} = 0, affine in (theta, Re O, Im O)
    # a: s1 + s2 (Re O - i Im O) - s3 theta = 0
    # b: s4 + s2 theta - s3 (Re O + i Im O) = 0
    rows, rhs = [], []
    for coeff_theta, coeff_re, coeff_im, const in (
        (-s3, s2, -1j * s2, s1),
        (s2, -s3, -1j * s3, s4),
    ):
        rows.append([coeff_theta.real, coeff_re.real, coeff_im.real])
        rows.append([coeff_theta.imag, coeff_re.imag, coeff_im.imag])
        rhs.extend([-const.real, -const.imag])
    rows = np.array(rows)
    rhs = np.array(rhs)
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    theta, re_o, im_o = sol
    omega_plus = re_o + 1j * im_o
    resid = np.linalg.norm(rows @ sol - rhs)
    scale = max(1.0, np.linalg.norm(rhs), np.max(np.abs(rows)) * np.linalg.norm(sol))
    if resid > 1e-6 * scale:
        raise IdentificationError(
            f"stage equations are inconsistent (residual {resid:.2e}); input is not generic"
        )
    y2_check = abs(omega_plus) ** 2 - theta ** 2
    if abs(y2_check - y2) > 1e-4 * max(1.0, abs(y2)):
        raise IdentificationError(
            f"pole data and recovered parameters disagree: y^2 {y2:.6g} vs {y2_check:.6g}"
        )
    new_alphas = np.array(
        [a[k].s1 + a[k].s2 * np.conj(omega_plus) - a[k].s3 * theta for k in range(n - 1)]
        + [1.0]
    )
    new_betas = np.array(
        [b[k].s1 + b[k].s2 * theta - b[k].s3 * omega_plus for k in range(n - 1)]
    )
    return float(theta), complex(omega_plus), new_alphas, new_betas


def siso_cascade_identify(xi_minus, xi_plus, pole_order="damping"):
    """Cascade realization of a generic SISO transfer function (Xi_-, Xi_+).

    The scalar rational functions must share their 2n poles (complex-conjugate
    pairs off the real axis) and have even numerators.  Stages are peeled one
    conjugate pole pair at a time; ``pole_order`` is either the default
    ``"damping"`` (descending |Re|) or an explicit sequence of pole-pair
    representatives choosing which pair is identified first.

    Returns a CascadeRealization; stage parameters are pinned by the
    convention that each stage couples passively with c real positive.
    """
    poles = list(xi_minus.poles)
    for p in xi_plus.poles:
        if np.min(np.abs(np.asarray(poles) - p)) > POLE_MATCH_TOL * max(1.0, abs(p)):
            raise IdentificationError("Xi_+ has a pole that Xi_- does not")
    scale = max(np.abs(poles))
    if any(abs(p.imag) <= 1e-9 * scale for p in poles):
        raise IdentificationError("real-axis poles are not supported by the direct method")
    if len(poles) % 2:
        raise IdentificationError("odd pole count; poles must come in conjugate pairs")
    n = len(poles) // 2
    if abs(complex(xi_minus.constant[0, 0]) - 1.0) > 1e-8:
        raise IdentificationError("Xi_- must be monic (constant term 1)")
    if abs(complex(xi_plus.constant[0, 0])) > 1e-8:
        raise IdentificationError("Xi_+ must vanish at infinity")

    alphas = _even_coeffs(_numerator_coeffs(xi_minus, poles), n, "Xi_-")
    betas = _even_coeffs(_numerator_coeffs(xi_plus, poles), n, "Xi_+")[:-1]
    if abs(alphas[-1] - 1.0) > 1e-8:
        raise IdentificationError("Xi_- numerator is not monic over the common denominator")

    if pole_order == "damping":
        order = None
    else:
        order = list(pole_order)

    stages = []
    remaining = list(poles)
    while remaining:
        if order and len(stages) < len(order):
            want = complex(order[len(stages)])
            k = int(np.argmin(np.abs(np.asarray(remaining) - want)))
        else:
            k = int(np.argmax([-p.real for p in remaining]))
        p = remaining[k]
        kc = int(np.argmin([abs(q - np.conj(p)) if j != k else np.inf
                            for j, q in enumerate(remaining)]))
        if abs(remaining[kc] - np.conj(p)) > POLE_MATCH_TOL * max(1.0, abs(p)):
            raise IdentificationError(f"pole {p} has no conjugate partner")
        x = -p.real
        if x <= 0:
            raise IdentificationError(f"unstable pole {p}")
        y2 = -(p.imag ** 2)
        theta, omega_plus, alphas, betas = _stage_from_pair(alphas, betas, x, y2)
        stages.append(OneModeParams.from_physical(np.sqrt(2 * x), theta, omega_plus))
        remaining = [q for j, q in enumerate(remaining) if j not in (k, kc)]
        if len(remaining) == 0:
            break
    return CascadeRealization(stages=tuple(stages))


# ---------------------------------------------------------------------------
# indirect (Gilbert + symplectic factorization) route


def gilbert_realize(tf):
    """Minimal doubled-up state-space realization of a rational transfer function.

    Requires distinct poles with nonzero imaginary parts and rank-one
    residues, mirrored so that conj(p) carries residue Sigma conj(R) Sigma.
    Returns a StateSpace with A0 diagonal; D is the constant term.
    """
    poles = np.array(tf.poles)
    if len(poles) == 0:
        empty = np.zeros((0, 0))
        return StateSpace(A=empty, B=np.zeros((0, tf.shape[1])),
                          C=np.zeros((tf.shape[0], 0)), D=tf.constant)
    scale = np.max(np.abs(poles))
    for i, p in enumerate(poles):
        if abs(p.imag) <= 1e-9 * scale:
            raise IdentificationError("poles on the real axis are not supported")
        if np.min(np.abs(np.delete(poles, i) - p)) <= POLE_MATCH_TOL * max(1.0, scale):
            raise IdentificationError("repeated poles are not supported")
    m2 = tf.shape[0]
    if m2 % 2:
        raise ValueError("transfer data must act on doubled field coordinates")
    Sig = sigma_swap(m2 // 2)

    upper = [i for i, p in enumerate(poles) if p.imag > 0]
    lam, B_rows, C_cols = [], [], []
    mirror_B, mirror_C = [], []
    for i in upper:
        p = poles[i]
        j = int(np.argmin(np.abs(poles - np.conj(p))))
        R, Rbar = tf.residues[i], tf.residues[j]
        if np.linalg.norm(Rbar - Sig @ R.conj() @ Sig) > 1e-6 * max(1.0, np.linalg.norm(R)):
            raise IdentificationError(f"residues at {p} and its conjugate are not mirrored")
        col, row = _rank_one_factor(R)
        ph = _canonical_row_phase(row)
        row, col = row * ph, col / ph
        B_rows.append(row)
        C_cols.append(col)
        mirror_B.append(row.conj() @ Sig)
        mirror_C.append(Sig @ col.conj())
        lam.append(p)
    A0 = np.diag(np.concatenate([lam, np.conj(lam)]))
    B0 = np.vstack(B_rows + mirror_B)
    C0 = np.hstack(C_cols + mirror_C)
    ss = StateSpace(A=A0, B=B0, C=C0, D=tf.constant)
    # round-trip defect against the rational data
    smax = 3.0 * max(1.0, scale)
    for s in (1j * smax, 0.37 + 0.91j * smax, -1j * 0.23 * smax + 0.11):
        if np.linalg.norm(ss.transfer(s) - tf(s)) > 1e-6 * max(1.0, np.linalg.norm(tf(s))):
            raise IdentificationError("Gilbert realization does not reproduce the data")
    return ss


def physical_from_classical(ss, tol=1e-8):
    """Physical system (S, C, Omega) from a minimal doubled-up realization of Xi(s).

    Solves the flat Gramian T^b T = int J (C0 e^{A0 t})^dag J (C0 e^{A0 t}) dt,
    factors it with the canonical symplectic factorization and transforms
    (A0, B0, C0) into a PR-valid triple.  The input must describe a genuine
    QLS transfer function (symplectic on the imaginary axis); otherwise the
    consistency check B = -C^b fails and an IdentificationError is raised.
    """
    A0, B0, C0, D = ss.A, ss.B, ss.C, ss.D
    for M, name in ((A0, "A"), (B0, "B"), (C0, "C")):
        if M.size and not is_doubled_up(M, tol=1e-7):
            raise ValueError(f"{name} block of the realization is not doubled-up")
    if A0.size and np.max(np.linalg.eigvals(A0).real) >= 0:
        raise ValueError("realization must be Hurwitz")
    m2 = C0.shape[0]
    S = D
    if np.linalg.norm(D - np.eye(m2)) > 1e-8 * max(1.0, np.linalg.norm(D)):
        B0 = B0 @ np.linalg.inv(D)  # pull the scattering out of the strictly proper part
    G = gramian_flat(A0, C0)
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
    unit diagonal entries on C2 and B1 = -C2^b; the input-side and
    output-side flat Gramians of the physicality conditions then coincide,
    a canonical T3 is produced by the symplectic factorization, and
    (A, C) = (T3 A0 T3^{-1}, C2 T3^{-1}).

    Returns the reconstructed QLSystem (vacuum input, S = 1 data); with
    ``return_details`` also a dict holding the seed and the Gramian T3^b T3.
    """
    poles = np.array(ps.poles)
    if len(poles) % 4:
        raise IdentificationError("power-spectrum data needs 4n poles")
    n = len(poles) // 4
    scale = np.max(np.abs(poles))
    if np.any(np.abs(poles.imag) <= 1e-9 * scale):
        raise IdentificationError("real-axis poles are not supported")
    stable = [p for p in poles if p.real < 0]
    if len(stable) != 2 * n:
        raise IdentificationError("stable/unstable pole counts are not balanced")

    # order the stable poles as (lambda_1..lambda_n, conj mirror)
    lam = [p for p in stable if p.imag > 0]
    if len(lam) != n:
        raise IdentificationError("stable poles do not form conjugate pairs")

    def residue_at(p):
        k = int(np.argmin(np.abs(poles - p)))
        if abs(poles[k] - p) > POLE_MATCH_TOL * max(1.0, abs(p)):
            raise IdentificationError(f"expected pole {p} missing from data")
        return ps.residues[k]

    m2 = ps.shape[0]
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

    # enforce B1 = -C2^b rowwise; the rescale moves onto C1, which is discarded
    A0 = np.diag(np.concatenate([lam, np.conj(lam)]))
    C2 = np.hstack([np.hstack(C2_first), np.hstack([Sig @ c.conj() for c in C2_first])])
    mC2b = -flat_adjoint(C2)
    rows_fixed = []
    for i, rowI in enumerate(B1_first):
        target = mC2b[i : i + 1, :]
        _match_scale(rowI, target, "B1 = -C2^b")  # collinearity check
        rows_fixed.append(target)
    B1 = np.vstack(rows_fixed + [np.conj(r) @ Sig for r in rows_fixed])
    if np.linalg.norm(B1 + flat_adjoint(C2)) > 1e-6 * max(1.0, np.linalg.norm(C2)):
        raise IdentificationError("could not canonicalize B1 = -C2^b")

    # flat Gramians of the two physicality equations must now agree
    T3bT3 = gramian_flat(A0, C2)
    # output map B1^dag J of the (T1^b T1)^{-1} Gramian
    T1bT1_inv = gramian_flat(A0, B1.conj().T @ jmat(n))
    if np.linalg.norm(T1bT1_inv - T3bT3) > 1e-6 * max(1.0, np.linalg.norm(T3bT3)):
        raise IdentificationError("input-side and output-side Gramians disagree beyond gauge")

    T3 = factor_flat_gram(T3bT3)
    T3inv = np.linalg.inv(T3)
    A = T3 @ A0 @ T3inv
    C = C2 @ T3inv
    # input-side route cross-check: T1 = -(T3^{-1})^b reproduces (A, +/-C)
    T1 = -flat_adjoint(T3inv)
    T1inv = np.linalg.inv(T1)
    A_alt = flat_adjoint(T1 @ flat_adjoint(A0) @ T1inv)
    C_alt = -flat_adjoint(T1 @ B1)
    if np.linalg.norm(A_alt - A) > 1e-6 * max(1.0, np.linalg.norm(A)):
        raise IdentificationError("realizations from the two routes disagree")
    if min(np.linalg.norm(C_alt - C), np.linalg.norm(C_alt + C)) > 1e-6 * max(
        1.0, np.linalg.norm(C)
    ):
        raise IdentificationError("coupling matrices from the two routes disagree")

    sys = QLSystem.from_drift(A, C)
    if return_details:
        return sys, {"A0": A0, "B1": B1, "C2": C2, "T3": T3, "T3bT3": T3bT3}
    return sys


# ---------------------------------------------------------------------------
# noisy identification (passive systems, inaccessible channels)


def _lyap_noise(A0, Q):
    """Solve A0^dag M + M A0 + Q = 0."""
    return lyap(A0.conj().T, -Q)


def noisy_realize(ss, n_noise, rng=None, restarts=50, tol=1e-8):
    """Passive physical system matching an accessible-block transfer function.

    `ss` is a minimal classical realization (A0, B0, C0, 1) of the m1 x m1
    accessible block Xi_11(s) of a passive system with `n_noise` additional
    unobserved channels (non-doubled representation).  The noise coupling C1
    is fixed, up to the residual unitary freedom, by the physicality
    condition M(C1) B0 = -C0^dag with

        A0^dag M + M A0 + C0^dag C0 + C1^dag C1 = 0,

    solved here as a linear system in H = C1^dag C1 followed by a PSD
    projection and a least-squares polish with seeded restarts.
    """
    from scipy.optimize import least_squares  # ~0.2 s to import; only needed here

    A0, B0, C0 = ss.A, ss.B, ss.C
    n = A0.shape[0]
    m1 = C0.shape[0]
    if rng is None:
        rng = np.random.default_rng(0)
    if n_noise == 0:
        H_opt = np.zeros((n, n), dtype=complex)
        C1 = np.zeros((0, n), dtype=complex)
        M = _lyap_noise(A0, C0.conj().T @ C0 + H_opt)
        defect = np.linalg.norm(M @ B0 + C0.conj().T)
        if defect > 1e-6 * max(1.0, np.linalg.norm(C0)):
            raise IdentificationError("data requires noise channels but n_noise = 0")
    else:
        # linear stage: M(H) affine in Hermitian H
        M0 = _lyap_noise(A0, C0.conj().T @ C0)
        base = M0 @ B0 + C0.conj().T  # must be cancelled by L(H) B0
        basis, images = [], []
        for i in range(n):
            for j in range(i, n):
                for part in ((1.0, 1.0), (1j, -1j)) if i != j else ((1.0, 1.0),):
                    E = np.zeros((n, n), dtype=complex)
                    E[i, j] += part[0]
                    E[j, i] += part[1]
                    basis.append(E)
                    images.append((_lyap_noise(A0, E) @ B0).ravel())
        Amat = np.array(images).T
        Areal = np.vstack([Amat.real, Amat.imag])
        brhs = -np.concatenate([base.ravel().real, base.ravel().imag])
        coef, *_ = np.linalg.lstsq(Areal, brhs, rcond=None)
        H = sum(c * E for c, E in zip(coef, basis))
        H = 0.5 * (H + H.conj().T)
        vals, vecs = np.linalg.eigh(H)
        vals = np.clip(vals, 0.0, None)
        order = np.argsort(vals)[::-1][:n_noise]
        C1 = (np.sqrt(vals[order])[:, None] * vecs[:, order].conj().T)

        def residual(x):
            C1m = (x[: n_noise * n] + 1j * x[n_noise * n :]).reshape(n_noise, n)
            M = _lyap_noise(A0, C0.conj().T @ C0 + C1m.conj().T @ C1m)
            r = (M @ B0 + C0.conj().T).ravel()
            return np.concatenate([r.real, r.imag])

        best, best_cost = None, np.inf
        x0 = np.concatenate([C1.real.ravel(), C1.imag.ravel()])
        for attempt in range(restarts):
            res = least_squares(residual, x0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
            if res.cost < best_cost:
                best, best_cost = res.x, res.cost
            if best_cost < 1e-20:
                break
            x0 = best + 0.3 * rng.standard_normal(best.shape) * max(
                1.0, np.linalg.norm(best)
            ) / max(1.0, np.sqrt(best.size))
        if best is None or np.sqrt(2 * best_cost) > 1e-6 * max(1.0, np.linalg.norm(C0)):
            raise IdentificationError(
                f"no physical noise extension found (residual {np.sqrt(2*best_cost):.2e})"
            )
        C1 = (best[: n_noise * n] + 1j * best[n_noise * n :]).reshape(n_noise, n)
        M = _lyap_noise(A0, C0.conj().T @ C0 + C1.conj().T @ C1)

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
    idx = list(channels)

    def f(s):
        Xi = transfer_function(sys, s)
        Xm, _ = du_blocks(Xi)
        return Xm[np.ix_(idx, idx)]

    return f


def nus_detect(sys, accessible, nus_tol=1e-8):
    """Basis of the noise-unobservable subspace of a passive system.

    Returns the left eigenvectors y of A_- (columns, y^dag A = lambda y^dag)
    whose noise-block coupling vanishes: C_noise y = 0 within nus_tol.
    """
    if not sys.is_passive:
        raise ValueError("noise-unobservable subspaces are defined for passive systems")
    Am = du_blocks(sys.A)[0]
    Cm = du_blocks(sys.C)[0]
    noise_rows = [i for i in range(sys.m) if i not in set(accessible)]
    c2 = Cm[noise_rows, :]
    vals, vecs = np.linalg.eig(Am.conj().T)
    out = []
    cscale = max(np.linalg.norm(c2), 1e-30)
    for k in range(vecs.shape[1]):
        y = vecs[:, k]
        if np.linalg.norm(c2 @ y) <= nus_tol * cscale * np.linalg.norm(y):
            out.append(y)
    return out
