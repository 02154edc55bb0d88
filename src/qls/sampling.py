"""Seeded random generators for systems, symplectics and pure inputs.

Every generator takes an explicit ``numpy.random.Generator`` so that test
suites and CLI sweeps are reproducible.
"""

import numpy as np

from .algebra import Delta, jmat
from .model import QLSystem, is_hurwitz


def _random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian_doubled_up(rng, n, scale=1.0):
    """Random Hermitian doubled-up R = Delta(R1, R2), R1 Hermitian, R2 symmetric."""
    R1 = _random_complex(rng, (n, n), scale)
    R1 = 0.5 * (R1 + R1.conj().T)
    R2 = _random_complex(rng, (n, n), scale)
    R2 = 0.5 * (R2 + R2.T)
    return Delta(R1, R2)


def random_symplectic(rng, n, scale=0.5):
    """Random symplectic exp(-i J R) with R Hermitian doubled-up."""
    from scipy.linalg import expm  # scipy.linalg is loaded only where it is needed

    R = random_hermitian_doubled_up(rng, n, scale)
    return expm(-1j * jmat(n) @ R)


def random_qlsystem(rng, n, m, passive=False, active_scale=0.4, ensure_hurwitz=True):
    """Random PR-valid system with n modes and m channels.

    Active couplings are kept smaller than passive ones so that the sampler
    lands on Hurwitz systems; with ``ensure_hurwitz`` the draw is repeated
    until stability holds.
    """
    for _ in range(200):
        Cm = _random_complex(rng, (m, n))
        Om1 = _random_complex(rng, (n, n))
        Om1 = 0.5 * (Om1 + Om1.conj().T)
        if passive:
            sys = QLSystem.from_blocks(Cm, np.zeros((m, n)), Om1, np.zeros((n, n)))
        else:
            Cp = _random_complex(rng, (m, n), active_scale)
            Om2 = _random_complex(rng, (n, n), active_scale)
            Om2 = 0.5 * (Om2 + Om2.T)
            sys = QLSystem.from_blocks(Cm, Cp, Om1, Om2)
        if not ensure_hurwitz or is_hurwitz(sys):
            return sys
    raise RuntimeError("failed to sample a Hurwitz system")


def random_pure_input(rng, m, scale=0.5):
    """Random pure input covariance blocks (N, M) = blocks of S V_vac S^dag."""
    S = random_symplectic(rng, m, scale)
    Vvac = np.zeros((2 * m, 2 * m), dtype=complex)
    Vvac[:m, :m] = np.eye(m)
    V = S @ Vvac @ S.conj().T
    N = V[m:, m:].copy()
    M = V[:m, m:].copy()
    N = 0.5 * (N + N.conj().T)
    M = 0.5 * (M + M.T)
    return N, M
