"""Seeded input generator for the benchmark (independent of ``qls.sampling``).

Systems are stable by construction: a passive part with well separated
mode frequencies and damping rates in [0.5, 2] is drawn first, then the
active blocks C_+ and Omega_+ are halved until the drift's spectral abscissa
is at most half the passive one.  The same seed always gives the same
inputs; see NOTES.md for the filters that decide which pipelines a system
enters and why.
"""

import numpy as np

from qls import InputCovariance, QLSystem

import oracle

POLE_IM_MIN = 5e-2   # realization routes need poles off the real axis ...
POLE_GAP_MIN = 1e-3  # ... and distinct
GM_TOL = 1e-7        # the package's pure/thermal threshold (relative to ||P||)
GM_MARGIN = 100.0    # own verdicts are only given this far from the threshold


def cplx(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _unitary(rng, n):
    Q, R = np.linalg.qr(cplx(rng, (n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _abscissa(Cm, Cp, Om, Op):
    C = np.block([[Cm, Cp], [Cp.conj(), Cm.conj()]])
    O = np.block([[Om, Op], [Op.conj(), Om.conj()]])
    return float(np.max(np.linalg.eigvals(oracle.drift(None, C, O)).real))


def draw_system(rng, n, m, active=0.5):
    """Hurwitz (S = 1, C, Omega) with n modes and m channels; active=0 gives a passive one."""
    U = _unitary(rng, n)
    freqs = 2.0 * (np.arange(n) - (n - 1) / 2) + rng.uniform(-0.5, 0.5, n)
    kappa = rng.uniform(0.5, 2.0, n)
    G = cplx(rng, (m, n))
    G = G / np.linalg.norm(G, axis=0) * np.sqrt(kappa)
    Cm = G @ U.conj().T
    Om = (U * freqs) @ U.conj().T
    Om = 0.5 * (Om + Om.conj().T)
    Cp = cplx(rng, (m, n)) / np.sqrt(n)
    X = cplx(rng, (n, n)) / np.sqrt(n)
    Op = 0.5 * (X + X.T)
    zero_c, zero_o = np.zeros((m, n)), np.zeros((n, n))
    passive_abscissa = _abscissa(Cm, zero_c, Om, zero_o)
    t = active
    while t > 1e-6 and _abscissa(Cm, t * Cp, Om, t * Op) > 0.5 * passive_abscissa:
        t *= 0.5
    if t <= 1e-6:
        t = 0.0
    return QLSystem.from_blocks(Cm, t * Cp, Om, t * Op)


def squeezed_input(rng, m, n_max=0.8):
    """Pure input: independent squeezed channels mixed by a random unitary."""
    U = _unitary(rng, m)
    occ = rng.uniform(0.2, n_max, m)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    N = U.conj() @ np.diag(occ) @ U.T
    M = U @ np.diag(np.sqrt(occ * (occ + 1.0)) * phase) @ U.T
    return InputCovariance(0.5 * (N + N.conj().T), 0.5 * (M + M.T))


def thermal_input(rng, m):
    U = _unitary(rng, m)
    N = U.conj() @ np.diag(rng.uniform(0.1, 1.0, m)) @ U.T
    return InputCovariance(0.5 * (N + N.conj().T), np.zeros((m, m)))


def real_squeezed_input(n_mean):
    """Single-channel squeezing with real M = sqrt(N (N + 1)), as in the cavity closed form."""
    return InputCovariance([[n_mean]], [[np.sqrt(n_mean * (n_mean + 1.0))]])


def family_spec(rng, base_json, n, m):
    """Affine family: one Omega dependency and one C dependency, each on a random entry."""
    deps = []
    half = "minus" if rng.random() < 0.5 else "plus"
    i, j = int(rng.integers(n)), int(rng.integers(n))
    c = complex(*rng.standard_normal(2)) * 0.5
    if half == "minus" and i == j:
        c = complex(c.real, 0.0)
    deps.append({"target": f"Omega.{half}", "row": i, "col": j, "coefficient": [c.real, c.imag]})
    half = "minus" if rng.random() < 0.5 else "plus"
    c = complex(*rng.standard_normal(2)) * 0.3
    deps.append({"target": f"C.{half}", "row": int(rng.integers(m)), "col": int(rng.integers(n)),
                 "coefficient": [c.real, c.imag]})
    return {"base": base_json, "fd_step": 1e-6, "dependencies": deps}


def cavity_json(c, detuning=0.0):
    """One-mode passive cavity with coupling c in the io system schema."""
    z = lambda v: [[[float(v), 0.0]]]
    return {"n": 1, "m": 1, "S": {"minus": z(1.0), "plus": z(0.0)},
            "C": {"minus": z(c), "plus": z(0.0)},
            "Omega": {"minus": z(detuning), "plus": z(0.0)}}


def cavity_rate(N, c):
    """Closed-form stationary QFI rate 16 N (N + 1) / c^2 of the cavity detuning family."""
    return 16.0 * N * (N + 1.0) / c**2


def cavity_family_spec(c):
    """Detuning family of a cavity: Omega_-(theta) = theta."""
    return {"base": cavity_json(c), "fd_step": 1e-6,
            "dependencies": [{"target": "Omega.minus", "row": 0, "col": 0,
                              "coefficient": [1.0, 0.0]}]}


# Worked examples of the package README (the same matrices as the test suite).

def two_mode_cascade_example():
    return QLSystem.from_blocks([[8.0, 12.0]], [[0.0, -1.0]],
                                [[6.0, -1.0], [-1.0, 2.0]], [[0.0, 1.0j], [1.0j, 0.0]])


def active_one_mode_example():
    return QLSystem.from_blocks([[7.0]], [[-1.0]], [[2.0]], [[1.0j]])


def absorber_two_mode_example():
    C = np.array([[5, 4, 1, -1j], [1, 1j, 5, 4]], dtype=complex)
    A = np.array([[-12 - 2j, 0.5j, 1, -2 - 2.5j],
                  [-20 - 0.5j, -7.5 - 6j, -6 - 7.5j, -2j],
                  [1, -2 + 2.5j, -12 + 2j, -0.5j],
                  [-6 + 7.5j, 2j, -20 + 0.5j, -7.5 + 6j]], dtype=complex)
    Om = 1j * oracle.jmat(2) @ (A + 0.5 * oracle.flat(C) @ C)
    om, op = Om[:2, :2], Om[:2, 2:]
    return QLSystem.from_blocks(C[:1, :2], C[:1, 2:], 0.5 * (om + om.conj().T), 0.5 * (op + op.T))


def gm2_system(x):
    return QLSystem.passive([[1.0]], [[0.0, 2.0 * np.sqrt(2.0)]],
                            0.5 * np.array([[4.0 + x, 4.0 - x], [4.0 - x, 4.0 + x]]))


def gauge_copy(sys, T):
    """The same system in the basis changed by symplectic T: C T^b, J Omega -> T J Omega T^b."""
    n, m = sys.n, sys.m
    J = oracle.jmat(n)
    Om = J @ (T @ J @ sys.Omega @ oracle.flat(T))
    om, op = Om[:n, :n], Om[:n, n:]
    C = sys.C @ oracle.flat(T)
    return QLSystem.from_blocks(C[:m, :n], C[:m, n:], 0.5 * (om + om.conj().T),
                                0.5 * (op + op.T), S=sys.S)


def probe_points(sys, k):
    """k Laplace points just right of the imaginary axis, spanning the system's resonances."""
    lam = np.linalg.eigvals(oracle.drift(sys.S, sys.C, sys.Omega))
    top = np.max(np.abs(lam.imag)) + 1.0
    return [-1j * w + 0.05 for w in np.linspace(-top, top, k)]


# Preconditions, checked with the benchmark's own formulas (NOTES.md, "Filters").

def realizable(sys):
    """Poles off the real axis and distinct, as the realization routes require."""
    lam = np.linalg.eigvals(oracle.drift(sys.S, sys.C, sys.Omega))
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    return np.min(np.abs(lam.imag)) > POLE_IM_MIN and np.min(gaps) > POLE_GAP_MIN


def gm_verdict(sys, V):
    """Globally minimal for input matrix V by the own occupation spectrum; None if too close to call."""
    P = oracle.stationary_cov(sys.S, sys.C, sys.Omega, V)
    ratio = np.min(oracle.occupations(P)) / max(1.0, np.linalg.norm(P))
    if ratio > GM_TOL * GM_MARGIN:
        return True
    if ratio < GM_TOL / GM_MARGIN:
        return False
    return None


def vacuum_gm(sys):
    return gm_verdict(sys, oracle.vacuum(sys.m)) is True


def draw_where(rng, n, m, want, tries=100):
    """First seeded draw meeting `want`; a documented precondition, never a known failure."""
    for _ in range(tries):
        sys = draw_system(rng, n, m)
        if want(sys):
            return sys
    raise RuntimeError(f"no seeded n={n}, m={m} draw met the precondition")
