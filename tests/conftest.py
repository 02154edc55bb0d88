import numpy as np
import pytest

from qls import Delta, ParamFamily, QLSystem


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def mpmath_lyap(X, Q, dps=40):
    """X M + M X^dag = Q by a dps-digit Kronecker solve (I (x) X + conj(X) (x) I) vec M = vec Q."""
    import mpmath

    n = X.shape[0]
    K = np.kron(np.eye(n), X) + np.kron(X.conj(), np.eye(n))
    with mpmath.workdps(dps):
        mat = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in K])
        vec = mpmath.matrix([mpmath.mpc(z) for z in Q.ravel(order="F")])
        sol = mpmath.lu_solve(mat, vec)
        return np.array([complex(sol[k]) for k in range(n * n)]).reshape((n, n), order="F")


def non_normal_triangular(rng, n):
    """Upper-triangular Hurwitz X with decay rates in [0.1, 2] and couplings of size 3 above them."""
    X = 3.0 * np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return X + np.diag(-rng.uniform(0.1, 2.0, n) + 1j * rng.standard_normal(n))


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


def siso_passive_gm(sys, V):
    """Reference closed form: global minimality of a passive SISO system with squeezed input (M != 0).

    The verdict depends only on the spectrum of A: the system is globally
    minimal iff no eigenvalue is real and no two eigenvalues are complex
    conjugates of each other, both to 1e-9 max(1, max |lambda|).  Returns
    the verdict together with the list of reducible eigenvalues.
    """
    from qls.algebra import du_blocks

    if not sys.is_passive or sys.m != 1:
        raise ValueError("this criterion applies to passive SISO systems")
    if np.linalg.norm(V.M) == 0:
        raise ValueError("squeezed input (M != 0) required; vacuum/thermal is never informative")
    eigs = np.linalg.eigvals(du_blocks(sys.A)[0])
    scale = max(1.0, np.max(np.abs(eigs)))
    reducible = []
    for i, lam in enumerate(eigs):
        if abs(lam.imag) <= 1e-9 * scale:
            reducible.append(lam)
            continue
        for j, mu in enumerate(eigs):
            if j != i and abs(lam - np.conj(mu)) <= 1e-9 * scale:
                reducible.append(lam)
                break
    return {"globally_minimal": len(reducible) == 0, "reducible_eigs": reducible}


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


def mpmath_residues(sys, dps=40):
    """Poles and residues -(C V)_k (V^-1 C^b S)_k of Xi from a dps-digit eigendecomposition of A, as numpy arrays."""
    import mpmath

    from qls.algebra import flat_adjoint

    to_mp = lambda M: mpmath.matrix([[mpmath.mpc(z) for z in row] for row in np.asarray(M)])
    to_np = lambda M: np.array([[complex(M[i, j]) for j in range(M.cols)] for i in range(M.rows)])
    with mpmath.workdps(dps):
        lam, V = mpmath.eig(to_mp(sys.A))
        left = to_np(mpmath.inverse(V) * to_mp(flat_adjoint(sys.C) @ sys.S))
        right = to_np(to_mp(sys.C) * V)
    return np.array([complex(z) for z in lam]), -right.T[:, :, None] * left[:, None, :]
