import numpy as np
import pytest

from qls import Delta, ParamFamily, QLSystem


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def cavity(kappa=2.0, omega0=1.3):
    return QLSystem.passive([[1.0]], [[np.sqrt(kappa)]], [[omega0]])


def dpa(kappa=3.0, eps=1.0, detuning=0.0):
    return QLSystem.from_blocks(
        [[np.sqrt(kappa)]], [[0.0]], [[detuning]], [[0.5j * eps]]
    )


def active_one_mode_example():
    """The one-mode system whose power spectrum drives the realization example."""
    return QLSystem.from_blocks([[7.0]], [[-1.0]], [[2.0]], [[1.0j]])


def two_mode_cascade_example():
    """Two-mode SISO system behind the direct-identification worked example."""
    return QLSystem.from_blocks(
        [[8.0, 12.0]],
        [[0.0, -1.0]],
        [[6.0, -1.0], [-1.0, 2.0]],
        [[0.0, 1.0j], [1.0j, 0.0]],
    )


def absorber_two_mode_example():
    """Two-mode, one-channel system from the worked absorber example.

    The printed matrices are already in the global [a; a#] ordering and
    satisfy physical realizability; Omega is recovered from the drift.
    """
    C = np.array([[5, 4, 1, -1j], [1, 1j, 5, 4]], dtype=complex)
    A = np.array(
        [
            [-12 - 2j, 0.5j, 1, -2 - 2.5j],
            [-20 - 0.5j, -7.5 - 6j, -6 - 7.5j, -2j],
            [1, -2 + 2.5j, -12 + 2j, -0.5j],
            [-6 + 7.5j, 2j, -20 + 0.5j, -7.5 + 6j],
        ],
        dtype=complex,
    )
    return QLSystem.from_drift(A, C)


def gm2_system(x):
    """Two-mode passive SISO family with tunable global minimality."""
    return QLSystem.passive(
        [[1.0]], [[0.0, 2.0 * np.sqrt(2.0)]],
        0.5 * np.array([[4.0 + x, 4.0 - x], [4.0 - x, 4.0 + x]]),
    )


def squeezing_family(r0=0.3):
    """One-mode system behind a theta-dependent squeezer S(theta), detuning 0.4 + theta.

    Returns the family and its exact tangent (dS, dC, dOmega) at theta = 0.
    """
    def S(r):
        return Delta([[np.cosh(r)]], [[np.sinh(r)]])

    def evaluate(theta):
        return QLSystem(S=S(r0 + theta), C=Delta([[1.1]], [[0.2]]),
                        Omega=Delta([[0.4 + theta]], [[0.0]]))

    dS = Delta([[np.sinh(r0)]], [[np.cosh(r0)]])
    return ParamFamily(evaluate=evaluate), (dS, np.zeros((2, 2)), Delta([[1.0]], [[0.0]]))


def squeezed_input(n_mean):
    from qls import InputCovariance

    m = np.sqrt(n_mean * (n_mean + 1.0))
    return InputCovariance([[n_mean]], [[m]])


def eigs_close(a, b, atol=1e-8):
    """Set comparison of eigenvalue lists by greedy nearest-neighbour matching."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return False
    for z in a:
        k = int(np.argmin([abs(z - w) for w in b]))
        if abs(z - b[k]) > atol:
            return False
        b.pop(k)
    return True
