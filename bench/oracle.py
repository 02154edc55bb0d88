"""Reference formulas the benchmark checks the package's outputs against.

Everything here is written from the defining equations with numpy dense
solves (and scipy's Lyapunov solver), sharing no code with ``qls``, so a fast but wrong evaluator
in the package cannot pass its own check.  Matrices use the doubled-up
ordering [a; a#] with J = diag(1, -1) and the flat adjoint X^b = J X^dag J.
"""

import numpy as np
from scipy.linalg import solve_continuous_lyapunov


def jmat(k):
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)])).astype(complex)


def flat(X):
    """Flat adjoint J_rows X^dag J_cols of a 2a x 2b matrix."""
    X = np.asarray(X, dtype=complex)
    return jmat(X.shape[1] // 2) @ X.conj().T @ jmat(X.shape[0] // 2)


def drift(S, C, Om):
    n = Om.shape[0] // 2
    return -0.5 * flat(C) @ C - 1j * jmat(n) @ Om


def tf(S, C, Om, s):
    """Xi(s) = (1 - C (s - A)^{-1} C^b) S by one dense solve."""
    A = drift(S, C, Om)
    X = np.linalg.solve(s * np.eye(A.shape[0]) - A, flat(C))
    return (np.eye(C.shape[0]) - C @ X) @ S


def ps(S, C, Om, V, s):
    """Psi(s) = Xi(s) V Xi(-s*)^dag for the full input covariance matrix V."""
    return tf(S, C, Om, s) @ V @ tf(S, C, Om, -np.conj(s)).conj().T


def flat_unitary_residual(M):
    eye = np.eye(M.shape[0])
    return max(np.linalg.norm(flat(M) @ M - eye), np.linalg.norm(M @ flat(M) - eye))


def input_matrix(N, M):
    """V(N, M) = [[N^T + 1, M], [M^dag, N]]."""
    m = N.shape[0]
    return np.block([[N.T + np.eye(m), M], [M.conj().T, N]])


def vacuum(m):
    V = np.zeros((2 * m, 2 * m), dtype=complex)
    V[:m, :m] = np.eye(m)
    return V


def lyapunov(A, Q):
    """P with A P + P A^dag + Q = 0 (scipy's Bartels-Stewart Lyapunov solver)."""
    P = solve_continuous_lyapunov(A, -Q)
    return 0.5 * (P + P.conj().T)


def stationary_cov(S, C, Om, V):
    A = drift(S, C, Om)
    Cb = flat(C)
    return lyapunov(A, Cb @ S @ V @ S.conj().T @ Cb.conj().T)


def occupations(P):
    """Symplectic eigenvalues of a covariance: eig(J P) = {n_i + 1, -n_i}."""
    n = P.shape[0] // 2
    vals = np.sort(np.linalg.eigvals(jmat(n) @ P).real)
    return np.sort(-vals[:n])


def pbh_margin(A, C):
    """min over eigenvalues lam of sigma_min([A - lam; C]) relative to ||A|| + ||C||."""
    k = A.shape[0]
    scale = np.linalg.norm(A) + np.linalg.norm(C)
    worst = np.inf
    for lam in np.linalg.eigvals(A):
        M = np.vstack([A - lam * np.eye(k), C])
        worst = min(worst, np.linalg.svd(M, compute_uv=False)[-1])
    return worst / scale


def rel(a, b):
    """||a - b|| / max(||b||, 1e-300)."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))
