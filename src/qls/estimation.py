"""Quantum Fisher information calculators for parameter families of systems.

Stationary inputs: the QFI grows linearly in time; the rate is computed
either in the frequency domain,

    f = (1/2 pi) integral f(w) dw,   f(w) = -Tr(J dPsi/dtheta J dPsi/dtheta),

with dPsi = dXi V Xi^dag + h.c. from the exact resolvent derivative of the
transfer function (``model.freq_response``) and a composite Gauss-Legendre
rule on w = c tan t, or in the time domain from the modified-generator form

    f = 4 E_ss[ a^dag D^dag J V J D a ],   D = dC - 2 i C J B,

with B solving A^dag B + B A + X = 0 for the Hermitian generator
X = dOmega/2 + Im(dC^dag J C)/2.  Both read the system and its tangent
(dS, dC, dOmega) from ``ParamFamily.at``, built once per theta, and
calibrate to the closed form 16 N (N+1) / c^2 for a vacuum-squeezed-driven
cavity at zero detuning.

Time-dependent inputs: coherent and squeezed-coherent probe formulas, the
destabilisation scaling diagnostic, and the multi-parameter entangled-probe
Cramer-Rao bounds.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import jmat, lyap
from .model import ParamFamily, QLSystem, _tangent_response, freq_response, is_hurwitz, spectral_gap
from .stationary import _channels_match, _eigenbasis, solve_lyapunov

GL_FIRST = 8      # Gauss-Legendre nodes per panel of the first frequency rule
GL_MAX = 1024     # nodes per panel past which the frequency integral has not converged
QUAD_RTOL = 1e-10  # relative accuracy the frequency integral is refined to


@dataclass(frozen=True)
class QFIReport:
    """A QFI value with the method that produced it and solver diagnostics."""

    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def coherent_qfi(family, theta0, omega, alpha, optimize_omega=False, grid=None):
    """QFI of a monochromatic coherent probe: F = 4 || dXi(-i w)/dtheta alpha ||^2.

    `alpha` is the complex amplitude vector over the m channels; the doubled
    amplitude (alpha; conj alpha) feeds the doubled transfer function, which
    reduces to the familiar passive-block expression for passive systems.
    dXi is the exact derivative along the family's tangent, evaluated on the
    whole grid at once.  With ``optimize_omega`` the frequency is swept over
    `grid` and the argmax is reported in the diagnostics.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    breve = np.concatenate([alpha, alpha.conj()])
    m = len(alpha)
    sys0, tangent = family.at(theta0)
    _channels_match(m, sys0, "alpha", "family")
    diagnostics = {"fd_step": family.step(theta0)}
    if optimize_omega:
        if grid is None:
            raise ValueError("optimize_omega requires a frequency grid")
        omegas = np.asarray(grid, dtype=float)
    else:
        omegas = np.array([omega], dtype=float)
    _, dXi = freq_response(sys0, -1j * omegas, tangent)
    # sensitivity of the output amplitude d(Xi_- alpha + Xi_+ conj(alpha))
    values = 4.0 * np.linalg.norm((dXi @ breve)[:, :m], axis=1) ** 2
    if not optimize_omega:
        return QFIReport(value=float(values[0]), method="coherent", diagnostics=diagnostics)
    k = int(np.argmax(values))
    diagnostics["omega_opt"] = float(omegas[k])
    diagnostics["grid_values"] = values.tolist()
    return QFIReport(value=float(values[k]), method="coherent", diagnostics=diagnostics)


def squeezed_coherent_qfi(dlambda=None, L=None, E=1.0):
    """Interferometric QFI with energy split between squeezing and displacement.

    SISO (pass ``dlambda``, the phase sensitivity): with sinh^2 r = E/2 and
    coherent energy E/2,  F = |dlambda|^2 (E/2 e^{2r} + E/2) -> |dlambda|^2 E^2.
    MIMO (pass the sensitivity matrix ``L``): F = E^2 ||L||^2 (spectral norm).
    """
    if E < 0:
        raise ValueError("energy must be nonnegative")
    if (dlambda is None) == (L is None):
        raise ValueError("pass exactly one of dlambda (SISO) or L (MIMO)")
    if dlambda is not None:
        r = np.arcsinh(np.sqrt(E / 2.0))
        exact = abs(dlambda) ** 2 * (0.5 * E * np.exp(2 * r) + 0.5 * E)
        leading = abs(dlambda) ** 2 * E * E
        return QFIReport(
            value=float(exact),
            method="squeezed_coherent",
            diagnostics={"leading_order": float(leading), "squeezing": float(r)},
        )
    L = np.atleast_2d(np.asarray(L, dtype=complex))
    norm = np.linalg.norm(L, ord=2)
    return QFIReport(
        value=float(E * E * norm**2),
        method="squeezed_coherent",
        diagnostics={"spectral_norm": float(norm)},
    )


@lru_cache(maxsize=None)
def _gauss_legendre(k):
    """k Gauss-Legendre nodes (ascending) and weights on [-1, 1] (cached and shared, so read-only).

    Newton's method on P_k(cos t) in the angle t, with P_k and P_{k-1} from
    the three-term recurrence, starts from Tricomi's estimate of the zeros
    and converges in a few O(k^2) sweeps (no eigenproblem).  In t, the
    weights 2 sin^2 t / (k (P_{k-1} - x P_k))^2 keep their relative accuracy
    at the ends of the interval.
    """
    i = np.arange(1, (k + 1) // 2 + 1)  # the zeros in [0, 1), largest first
    t = np.arccos((1.0 - (k - 1) / (8.0 * k**3)) * np.cos(np.pi * (4 * i - 1) / (4 * k + 2)))
    for _ in range(10):
        x = np.cos(t)
        p0, p1 = np.ones_like(x), x
        for j in range(1, k):  # (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dt = p1 * np.sin(t) / (k * (p0 - x * p1))  # P_k / (dP_k / dt)
        t = t + dt
        if np.max(np.abs(dt)) <= 1e-14:
            break
    x = np.cos(t)
    w = 2.0 * np.sin(t) ** 2 / (k * (p0 - x * p1)) ** 2
    inner = k // 2  # mirrored zeros: all but x = 0 at odd k
    x = np.concatenate([-x, x[:inner][::-1]])
    w = np.concatenate([w, w[:inner][::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_edges(poles, c):
    """Panel edges in t, w = c tan t: the axis ends, each pole's peak and its half-widths."""
    peaks, widths = np.abs(poles.imag), np.abs(poles.real)
    w = np.concatenate([peaks, peaks + widths, peaks - widths])
    t = np.unique(np.round(np.arctan(np.concatenate([w, -w]) / c), 12))
    return np.concatenate([[-0.5 * np.pi], t, [0.5 * np.pi]])


def _dpsi(respond, Vm, omegas):
    """dPsi(-i w) = G + G^dag, G = dXi V Xi^dag, on a frequency grid; returns (dPsi, G).

    `respond` is a tangent evaluator from ``model._tangent_response``; the
    grid is not checked against the poles.  dXi V is one GEMM over the
    stacked rows of the grid.  G is a two-term broadcast sum over the 2 x 2
    stacks of one channel and one einsum for more channels, where the sum
    is no faster.
    """
    Xi, dXi = respond(-1j * omegas)
    dXiV = (dXi.reshape(-1, Vm.shape[0]) @ Vm).reshape(dXi.shape)
    Xc = Xi.conj()
    if Vm.shape[0] == 2:
        G = dXiV[:, :, :1] * Xc[:, None, :, 0] + dXiV[:, :, 1:] * Xc[:, None, :, 1]
    else:
        G = np.einsum("kij,klj->kil", dXiV, Xc)
    return G + G.conj().transpose(0, 2, 1), G


def _fisher_density(dPsi, jd):
    """f(w) = -Tr(J dPsi J dPsi) = -sum_ij J_i J_j |dPsi_ij|^2 over a stack of Hermitian dPsi.

    J = diag(jd); the sum form holds because dPsi_ji = conj(dPsi_ij).
    """
    return -(dPsi.real**2 + dPsi.imag**2).reshape(len(dPsi), -1) @ np.outer(jd, jd).ravel()


def stationary_qfi_rate_freq(family, theta0, V):
    """Stationary QFI rate by frequency integration of the Gaussian per-mode QFI.

    f(w) = -Tr(J dPsi(w) J dPsi(w)), dPsi = dXi V Xi^dag + h.c., is
    integrated over (1/2 pi) dw with the exact tangent of the family.  The
    substitution w = c tan t, c = max |lambda| (1 at 0 modes), maps the
    whole axis onto (-pi/2, pi/2) with no tail model; the t range is split into panels at
    +/-Im(lambda) and +/-Im(lambda) +/- |Re(lambda)| for every pole lambda,
    so each peak is resolved at its own width.  Each panel doubles its
    Gauss-Legendre nodes from GL_FIRST until two rules agree to its share of
    QUAD_RTOL (1e-10) times the rate (or of 1e-13 times the integral of
    ||dXi V Xi^dag||^2, the only scale a vanishing rate leaves).
    RuntimeError is raised when a panel has not converged at GL_MAX nodes,
    e.g. when a theta-dependent S keeps dPsi from decaying at large |w|.
    Diagnostics carry the summed rule differences, the most nodes any panel
    used and the panel count.

    The system and tangent come from ``family.at(theta0)``, and the tangent
    evaluator (``model._tangent_response``) is built once for every rule.
    Its nodes skip ``freq_response``'s pole check, which cannot fire once
    the family is Hurwitz: every pole has Re lambda < -STAB_TOL max |lambda|
    (``is_hurwitz``), and every node s = -i w is finite, since w = c tan t
    with t inside (-pi/2, pi/2), and has Re s = 0 exactly, so
    |s - lambda| >= |Re lambda| > STAB_TOL max |lambda|.
    """
    sys0, tangent = family.at(theta0)
    _channels_match(V.m, sys0, "input covariance", "family")
    if not is_hurwitz(sys0):
        raise ValueError("family must be Hurwitz at theta0")
    respond = _tangent_response(sys0, tangent)
    jd = np.diag(jmat(sys0.m)).real
    Vm = V.matrix()
    c = float(np.max(np.abs(sys0.poles))) if sys0.n else 1.0
    edges = _panel_edges(sys0.poles, c)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])

    def rule(panels, k):
        """Panel integrals of f and of ||dXi V Xi^dag||^2 with k nodes each."""
        x, wx = _gauss_legendre(k)
        t = mid[panels, None] + half[panels, None] * x
        weights = half[panels, None] * wx * c / np.cos(t) ** 2 / (2.0 * np.pi)
        dPsi, G = _dpsi(respond, Vm, c * np.tan(t.ravel()))
        f = _fisher_density(dPsi, jd).reshape(t.shape)
        g = np.sum(np.abs(G) ** 2, axis=(1, 2)).reshape(t.shape)
        return np.sum(weights * f, axis=1), np.sum(weights * g, axis=1)

    k, active = GL_FIRST, np.arange(len(half))
    vals, scales = rule(active, k)
    quad_error = 0.0
    while active.size:
        if k == GL_MAX:
            raise RuntimeError(
                f"frequency integral did not converge: {active.size} of {len(half)} panels "
                f"still change with {GL_MAX} Gauss-Legendre nodes (rate estimate "
                f"{vals.sum():.6e}); dPsi may not decay at large |w|"
            )
        k *= 2
        new, scales[active] = rule(active, k)
        diff = np.abs(new - vals[active])
        vals[active] = new
        tol = (QUAD_RTOL * abs(vals.sum()) + 1e-13 * scales.sum()) / len(half)
        quad_error += float(diff[diff <= tol].sum())
        active = active[diff > tol]
    return QFIReport(
        value=float(vals.sum()),
        method="stationary_freq",
        diagnostics={"quad_error": quad_error, "max_nodes_per_panel": k,
                     "panels": len(half), "fd_step": family.step(theta0)},
    )


def stationary_qfi_rate_time(family, theta0, V):
    """Stationary QFI rate from the time-domain modified-generator expression.

    Builds X = dOmega/2 + Im(dC^dag J C)/2, solves the drift Lyapunov
    equation for B, forms D = dC + 2 i C J B and evaluates

        f = 4 Tr( D^dag J V J D (P - J) ),

    where P is the stationary covariance (``solve_lyapunov``), V is the
    input as the modes see it, S V S^dag, and P - J implements the normal
    ordering of the quadratic expectation.  Theta-dependent scattering is
    not supported.
    """
    sys0, (dS, dC, dOm) = family.at(theta0)
    _channels_match(V.m, sys0, "input covariance", "family")
    h = family.step(theta0)
    if h * np.linalg.norm(dS) > 1e-12 * max(1.0, np.linalg.norm(sys0.S)):
        raise ValueError("theta-dependent scattering is not supported in the time domain")
    if not is_hurwitz(sys0):
        raise ValueError("family must be Hurwitz at theta0")
    C, A = sys0.C, sys0.A
    m, n = sys0.m, sys0.n
    Jm, Jn = jmat(m), jmat(n)
    X = 0.5 * dOm + (dC.conj().T @ Jm @ C - C.conj().T @ Jm @ dC) / (4j)
    modal = _eigenbasis(sys0)
    if modal is not None:  # A = W diag(lambda) W^-1, so A^dag = W^-dag diag(conj(lambda)) W^dag
        lam, W, Wi = modal
        modal = (lam.conj(), Wi.conj().T, W.conj().T)
    B = lyap(A.conj().T, -X, modal)
    # along a pure gauge direction dC = -i C J R one finds B = R/2, so the
    # displacement generator D vanishes there, as it must
    D = dC + 2j * C @ Jn @ B
    P = solve_lyapunov(sys0, V).P
    Vs = sys0.S @ V.matrix() @ sys0.S.conj().T
    val = 4.0 * np.trace(D.conj().T @ Jm @ Vs @ Jm @ D @ (P - Jn))
    if abs(val.imag) > 1e-6 * max(1.0, abs(val.real)):
        raise RuntimeError(f"QFI rate came out non-real ({val:.3e})")
    return QFIReport(
        value=float(val.real),
        method="stationary_time",
        diagnostics={"fd_step": h, "B_residual": float(
            np.linalg.norm(A.conj().T @ B + B @ A + X)
        )},
    )


def gauge_tangent_family(sys, R):
    """Family moving along the unidentifiable gauge direction generated by R.

    R must be Hermitian and doubled-up; the tangent dC = -i C J R,
    dOmega = i (R J Omega - Omega J R), i.e. dA = i [J R, A], changes nothing
    observable, so any QFI rate along this family vanishes.  Returns a
    ParamFamily centred at theta = 0.
    """
    R = np.asarray(R, dtype=complex)
    Jn = jmat(sys.n)
    C0, Om0 = sys.C, sys.Omega
    dC = -1j * C0 @ Jn @ R
    dOm = 1j * (R @ Jn @ Om0 - Om0 @ Jn @ R)

    def evaluate(theta):
        return QLSystem(S=sys.S, C=C0 + theta * dC, Omega=Om0 + theta * dOm)

    return ParamFamily(evaluate=evaluate, fd_step=1e-6)


def destabilized_scaling_check(family_builder, couplings, V, theta0=0.0):
    """QFI rate versus stabilisation time across a coupling sweep.

    ``family_builder(c)`` must return the ParamFamily at coupling c.  For
    each coupling the time-domain rate f and the correlation time
    tau = 1/gap are tabulated, and the log-log slope of f against tau is
    fitted.  Near-decoherence-free dynamics shows slope 1 (f proportional
    to tau).

    Returns {"rows": [{coupling, tau, f}], "slope": fitted slope}.  Raises
    ValueError when the couplings give fewer than two distinct tau.
    """
    rows = []
    for c in couplings:
        fam = family_builder(c)
        sys0, _ = fam.at(theta0)
        if not is_hurwitz(sys0):
            raise ValueError(f"family at coupling {c} is not Hurwitz")
        tau = 1.0 / spectral_gap(sys0)
        f = stationary_qfi_rate_time(fam, theta0, V).value
        rows.append({"coupling": float(c), "tau": float(tau), "f": float(f)})
    taus = np.array([r["tau"] for r in rows])
    distinct = len(np.unique(taus))
    if distinct < 2:
        raise ValueError(f"a slope needs two distinct stabilisation times, got {distinct}")
    fs = np.array([r["f"] for r in rows])
    if np.any(fs <= 0):
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(taus), np.log(fs), 1)[0])
    return {"rows": rows, "slope": slope}


def multiparam_noon_bounds(Jac, N):
    """Cramer-Rao traces for d-parameter estimation with photon budget N.

    `Jac` is the d x d Jacobian of the frequency-phase map; strategy 1 splits
    the photons over d independent probes, strategy 2 uses a single
    entangled probe with optimized weight alpha.  With H = ||cof(Jac)||_F^2
    and K = 1/2 sum_j sum_{l,m} (P_{jl} - P_{jm})^2 over the cofactor matrix
    P, evaluated as d sum_{j,l} (P_{jl} - mean_l P_{jl})^2:

        strategy 1:      d^2 H / (N^2 |Jac|^2)
        strategy 2 min:  (2 d H - K + sqrt(4 d H (d H - K))) / (4 N^2 |Jac|^2)

    Returns the two traces, the optimal alpha^2 and their ratio.
    """
    Jac = np.atleast_2d(np.asarray(Jac, dtype=float))
    d = Jac.shape[0]
    det = np.linalg.det(Jac)
    if abs(det) < 1e-12 * max(1.0, np.linalg.norm(Jac) ** d):
        raise ValueError("singular Jacobian: parameters are not identifiable")
    cof = np.linalg.inv(Jac).T * det
    H = float(np.linalg.norm(cof, "fro") ** 2)
    K = d * float(np.sum((cof - cof.mean(axis=1, keepdims=True)) ** 2))
    strategy1 = d * d * H / (N * N * det * det)
    disc = np.sqrt(max(4.0 * d * H * (d * H - K), 0.0))
    strategy2 = (2.0 * d * H - K + disc) / (4.0 * N * N * det * det)
    if K > 0:
        alpha2 = (2.0 * d * H - disc) / (2.0 * d * K)
    else:
        alpha2 = 1.0 / (2.0 * d)  # K = 0: bound is flat, split evenly
    return {
        "trace_cr_strategy1": float(strategy1),
        "trace_cr_strategy2_min": float(strategy2),
        "alpha_opt_sq": float(alpha2),
        "ratio": float(strategy1 / strategy2) if strategy2 > 0 else np.inf,
    }


def ensemble_coupling_profile(kappa, grid=None):
    """Sensitivity profile f(w) = 2 kappa w / (w^2 + kappa^2/4) of coupled ensembles.

    The optimum sits at w = +/- kappa/2 where f^2 = 4.  Returns the tabulated
    profile, the grid argmax and f(w_opt)^2.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if grid is None:
        grid = np.linspace(-4.0 * kappa, 4.0 * kappa, 1601)
    grid = np.asarray(grid, dtype=float)
    f = 2.0 * kappa * grid / (grid**2 + kappa**2 / 4.0)
    k = int(np.argmax(np.abs(f)))
    return {
        "omega": grid,
        "f_values": f,
        "omega_opt": float(grid[k]),
        "f_opt_sq": float(f[k] ** 2),
        "omega_opt_exact": kappa / 2.0,
    }
