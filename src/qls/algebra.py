"""Doubled-up / symplectic matrix primitives.

All field and system quantities live on doubled vectors [a; a#], so every
matrix in this package is 2n_out x 2n_in.  A matrix is *doubled-up* when it
has the block form

    Delta(A, B) = [[A, B], [B#, A#]],

and the *flat adjoint* is M^b = J M^dag J with J = diag(1, -1) blockwise.
Symplectic matrices are doubled-up with S^b S = 1; they preserve the
canonical commutation relations.  This module also provides the Williamson
normal form of a Gaussian covariance, the flat-Gram factorization
T^b T = G used by every realization algorithm and ``lyap``, the package's
one Lyapunov solver; only ``lyap`` needs (and imports) ``scipy.linalg``.
"""

from dataclasses import dataclass

import numpy as np

TOL_STRUCT = 1e-10  # relative, doubled-up structure checks
TOL_NUM = 1e-8      # relative, algebraic residuals


def jmat(n):
    """The fundamental symmetry J_n = diag(1_n, -1_n)."""
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)


def sigma_swap(n):
    """Block swap Sigma_n = [[0, 1_n], [1_n, 0]]; conjugation partner of J_n."""
    z = np.zeros((n, n))
    i = np.eye(n)
    return np.block([[z, i], [i, z]]).astype(complex)


def Delta(minus, plus=None):
    """Assemble the doubled-up matrix [[A, B], [B#, A#]] from its blocks.

    Scalars and 1d arrays are promoted to matrices; ``plus=None`` means a
    zero B block (the passive case).
    """
    minus = np.atleast_2d(np.asarray(minus, dtype=complex))
    if plus is None:
        plus = np.zeros_like(minus)
    plus = np.atleast_2d(np.asarray(plus, dtype=complex))
    if minus.shape != plus.shape:
        raise ValueError(f"block shapes differ: {minus.shape} vs {plus.shape}")
    return np.block([[minus, plus], [plus.conj(), minus.conj()]])


def du_blocks(M):
    """Split a 2n x 2m matrix into its (minus, plus) blocks."""
    M = np.asarray(M)
    n2, m2 = M.shape
    if n2 % 2 or m2 % 2:
        raise ValueError(f"matrix of shape {M.shape} cannot be doubled-up")
    return M[: n2 // 2, : m2 // 2], M[: n2 // 2, m2 // 2 :]


def _relative(err, ref):
    return err / max(1.0, ref)


def is_doubled_up(M, tol=TOL_STRUCT):
    """True iff block(2,1) = conj(block(1,2)) and block(2,2) = conj(block(1,1))."""
    M = np.asarray(M, dtype=complex)
    n2, m2 = M.shape
    if n2 % 2 or m2 % 2:
        return False
    n, m = n2 // 2, m2 // 2
    scale = np.linalg.norm(M)
    err = np.linalg.norm(M[n:, :m] - M[:n, m:].conj()) + np.linalg.norm(
        M[n:, m:] - M[:n, :m].conj()
    )
    return _relative(err, scale) <= tol


def flat_adjoint(M):
    """Symplectic adjoint M^b = J_m M^dag J_n.  An involution on doubled-up matrices."""
    M = np.asarray(M, dtype=complex)
    n2, m2 = M.shape
    sign_m, sign_n = (np.repeat([1.0, -1.0], k // 2) for k in (m2, n2))  # diagonals of J
    return M.conj().T * np.outer(sign_m, sign_n)


def is_symplectic(M, tol=TOL_NUM):
    """True iff M is doubled-up and M^b M = M M^b = 1.

    Raises ValueError on odd-dimensional input.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[0] != M.shape[1]:
        return False
    if M.shape[0] % 2:
        raise ValueError("symplectic test needs even dimension")
    if not is_doubled_up(M, tol=max(tol, TOL_STRUCT)):
        return False
    eye = np.eye(M.shape[0])
    err = np.linalg.norm(flat_adjoint(M) @ M - eye) + np.linalg.norm(M @ flat_adjoint(M) - eye)
    return _relative(err, 1.0) <= 2 * tol


def flat_unitary_residual(M):
    """max(||M^b M - 1||, ||M M^b - 1||): the symplecticity defect of M.

    Transfer-function values Xi(-i w) are tested with this rather than
    ``is_symplectic`` because their doubled-up block structure relates the
    frequencies +w and -w, so the entrywise Delta form holds only at w = 0.
    """
    M = np.asarray(M, dtype=complex)
    eye = np.eye(M.shape[0])
    return max(
        np.linalg.norm(flat_adjoint(M) @ M - eye),
        np.linalg.norm(M @ flat_adjoint(M) - eye),
    )


@dataclass(frozen=True)
class WilliamsonResult:
    """Symplectic eigenvalues n_1 <= ... <= n_k and the transform to canonical form.

    ``transform`` is symplectic and satisfies
    transform @ V @ transform.conj().T = diag(n_i + 1) (+) diag(n_i).
    Both arrays are read-only, as results are cached and shared.
    """

    symplectic_eigenvalues: np.ndarray
    transform: np.ndarray

    def __post_init__(self):
        self.symplectic_eigenvalues.flags.writeable = self.transform.flags.writeable = False


def williamson(V, n=None, tol=TOL_NUM):
    """Williamson decomposition of a Gaussian covariance V = <a a^dag> (doubled-up).

    The symplectic eigenvalues are the thermal occupations n_i of the
    canonical modes; all n_i = 0 iff the state is pure.

    Args:
        V: 2n x 2n covariance in the [a; a#] ordering, blocks [[N^T+1, M], [M^dag, N]].
        n: mode count (inferred from the shape when omitted).
        tol: physicality tolerance on the eigenvalues.

    Returns:
        WilliamsonResult with eigenvalues sorted ascending.

    Raises:
        ValueError: if V is not a physical state covariance: not Hermitian,
            V - J/2 not positive definite, a symplectic spectrum that does
            not pair up, or some n_i < -tol (thresholds relative to ||V||).
    """
    V = np.asarray(V, dtype=complex)
    if n is None:
        n = V.shape[0] // 2
    if V.shape != (2 * n, 2 * n):
        raise ValueError(f"covariance shape {V.shape} does not match {n} modes")
    scale = max(1.0, np.linalg.norm(V))
    if np.linalg.norm(V - V.conj().T) > 1e-6 * scale:
        raise ValueError("covariance is not Hermitian; V is not a valid covariance")
    # W = V - J/2 is the symmetrised covariance, positive definite for a state.
    # With W = L L^dag, JV x = mu x iff K y = (mu - 1/2) y for K = L^dag J L and
    # x = J L y: K is Hermitian with eigenvalues -(n_i + 1/2) and n_i + 1/2.
    sgn = np.concatenate([np.ones(n), -np.ones(n)])
    W = 0.5 * (V + V.conj().T) - np.diag(0.5 * sgn)
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        raise ValueError("non-physical covariance: V - J/2 is not positive definite") from None
    k, Y = np.linalg.eigh(L.conj().T @ (sgn[:, None] * L))
    if np.max(np.abs(k[n:] + k[:n][::-1]), initial=0.0) > 1e-6 * scale:
        raise ValueError("symplectic spectrum of V does not pair up; V is not a valid covariance")
    nus = 0.5 * (k[n:] - k[:n][::-1]) - 0.5  # ascending
    if np.min(nus) < -max(tol, 1e-7) * scale:
        raise ValueError(f"non-physical covariance: symplectic eigenvalue {np.min(nus):.3e} < 0")
    nus = np.clip(nus, 0.0, None)

    # x = J L y / sqrt(n_i + 1/2) on the n_i + 1 branch: x^dag J x = y^dag K y / (n_i + 1/2)
    # = 1, and orthonormal eigh vectors keep repeated occupations J-orthonormal.
    # The mirror columns Sigma x# are fixed by the doubled-up structure.
    X = sgn[:, None] * (L @ Y[:, n:]) / np.sqrt(k[n:])
    T = np.hstack([X, np.roll(X.conj(), n, axis=0)])
    # T is symplectic with JV T = T diag(n+1, -n), hence T^dag V T = diag(n+1, n):
    # the canonicalizing transform is T^dag (itself symplectic).
    return WilliamsonResult(symplectic_eigenvalues=nus, transform=T.conj().T)


def vacuum_basis_transform(N, M, tol=1e-6):
    """Symplectic S with S V_vac S^dag = V(N, M), for a pure input state.

    S = Delta((N^T+1)^{1/2}, M (N^dag + 1)^{-1/2}); only defined for pure
    covariances, which is checked through the Williamson spectrum: every
    symplectic eigenvalue must be at most tol * max(1, ||V||).
    """
    N = np.atleast_2d(np.asarray(N, dtype=complex))
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    m = N.shape[0]
    V = np.block([[N.T + np.eye(m), M], [M.conj().T, N]])
    nus = williamson(V, m).symplectic_eigenvalues
    if np.max(nus) > tol * max(1.0, np.linalg.norm(V)):
        raise ValueError(f"input covariance is mixed (max symplectic eigenvalue {np.max(nus):.3e})")
    return _vacuum_basis(N, M)


def _vacuum_basis(N, M):
    """The transform of ``vacuum_basis_transform`` without its purity check."""
    eye = np.eye(N.shape[0])
    return Delta(_herm_sqrt(N.T + eye), M @ np.linalg.inv(_herm_sqrt(N.conj().T + eye)))


def _herm_sqrt(H):
    """Principal square root of a Hermitian PSD matrix."""
    vals, vecs = np.linalg.eigh(H)
    vals = np.clip(vals.real, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _real_eig_cluster(vals, tol):
    """Group indices of `vals` into clusters of equal eigenvalues within tol."""
    order = np.argsort(vals.real + 1e-3 * vals.imag)
    clusters = []
    for k in order:
        if clusters and abs(vals[clusters[-1][-1]] - vals[k]) <= tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def factor_flat_gram(G, tol=TOL_NUM):
    """Factor a flat-self-adjoint matrix as G = T^b T with T doubled-up.

    G must be invertible, semisimple and satisfy G^b = G (the form N^b N
    for invertible doubled-up N always does).  The factor is built by
    bringing G to its canonical symplectic form W Nhat W^b and factoring
    the canonical blocks:

    * positive real eigenvalue pairs   -> sqrt(lambda) on the minus diagonal,
    * negative real eigenvalue pairs   -> sqrt(|lambda|) on the plus diagonal,
    * complex quadruples mu +/- i nu   -> a two-mode cosh/sinh block.

    Returns the canonical representative T = Nbar W^b; any symplectic left
    factor gives another valid solution.

    Raises:
        ValueError: for non-semisimple (defective) or singular input, and for
            eigenvalue multiplicities outside the generic pattern.
    """
    G = np.asarray(G, dtype=complex)
    n2 = G.shape[0]
    if G.shape[1] != n2 or n2 % 2:
        raise ValueError("flat-Gram factorization needs a square even-dimensional matrix")
    n = n2 // 2
    scale = np.linalg.norm(G)
    if scale == 0:
        raise ValueError("singular input")
    if np.linalg.norm(flat_adjoint(G) - G) > 1e-7 * scale:
        raise ValueError("input is not flat-self-adjoint")
    J, Sig = jmat(n), sigma_swap(n)

    # scalar multiples of the identity factor in closed form (the canonical
    # representative of the fully degenerate case)
    g = np.trace(G).real / n2
    if np.linalg.norm(G - g * np.eye(n2)) <= 1e-10 * scale and abs(g) > 1e-12 * scale:
        if g > 0:
            return np.sqrt(g) * np.eye(n2, dtype=complex)
        return Delta(np.zeros((n, n)), np.sqrt(-g) * np.eye(n))

    vals, vecs = np.linalg.eig(G)
    if np.min(np.abs(vals)) < 1e-12 * scale:
        raise ValueError("singular input")
    # semisimplicity: eigenvector matrix must be well conditioned relative to spectrum gaps
    if np.linalg.matrix_rank(vecs, tol=1e-10) < n2:
        raise ValueError("non-semisimple spectrum is not supported")

    cluster_tol = 1e-7 * max(1.0, np.max(np.abs(vals)))
    real_mask = np.abs(vals.imag) <= cluster_tol

    minus_diag = np.zeros(n, dtype=complex)
    plus_diag = np.zeros((n, n), dtype=complex)
    w_cols = []
    mode = 0

    # real eigenvalues: appear in J-hyperbolic pairs per mode
    real_idx = np.where(real_mask)[0]
    if len(real_idx) % 2:
        raise ValueError("unpaired real eigenvalue; spectrum outside the supported pattern")
    for cluster in _real_eig_cluster(vals[real_idx], cluster_tol):
        idx = [real_idx[k] for k in cluster]
        if len(idx) % 2:
            raise ValueError("odd real eigenvalue multiplicity is not supported")
        if len(idx) > 2:
            raise ValueError("degenerate real eigenvalues are not supported (generic case only)")
        lam = float(np.mean(vals[idx].real))
        basis = vecs[:, idx]
        # J-form on the eigenspace; pick the J-positive direction
        H = basis.conj().T @ J @ basis
        hvals, hvecs = np.linalg.eigh(H)
        k = int(np.argmax(hvals))
        if hvals[k] <= 0:
            raise ValueError("eigenspace carries no J-positive direction; not a flat Gram matrix")
        w = basis @ hvecs[:, k]
        w = w / np.sqrt((w.conj() @ J @ w).real)
        w_cols.append(w)
        if lam > 0:
            minus_diag[mode] = np.sqrt(lam)
        else:
            plus_diag[mode, mode] = np.sqrt(-lam)
        mode += 1

    # complex eigenvalues: quadruples {lam, lam, conj, conj} spanning two modes
    cplx_idx = np.where(~real_mask)[0]
    upper = cplx_idx[vals[cplx_idx].imag > 0]
    for cluster in _real_eig_cluster(vals[upper], cluster_tol):
        idx = [upper[k] for k in cluster]
        if len(idx) == 1:
            raise ValueError("complex eigenvalue of multiplicity one; not a flat Gram matrix")
        if len(idx) > 2:
            raise ValueError("degenerate complex eigenvalues are not supported")
        lam = complex(np.mean(vals[idx]))
        mu, nu = lam.real, lam.imag
        x1, x2 = vecs[:, idx[0]], vecs[:, idx[1]]
        theta = x1.conj() @ J @ Sig @ x2.conj()
        if abs(theta) < 1e-10 * max(1.0, np.linalg.norm(x1) * np.linalg.norm(x2)):
            raise ValueError("degenerate pairing in complex eigenspace")
        p = x1
        q = (-2.0 / np.conj(theta)) * x2
        w1 = 0.5 * (p - Sig @ q.conj())
        w2 = 0.5 * (q + Sig @ p.conj())
        w_cols.extend([w1, w2])
        if abs(mu) < 1e-12 * max(1.0, abs(lam)):
            alpha = beta = np.sqrt(nu / 2.0)
        else:
            x = 0.5 * np.arcsinh(nu / abs(mu))
            if mu > 0:
                alpha, beta = np.sqrt(mu) * np.cosh(x), np.sqrt(mu) * np.sinh(x)
            else:
                alpha, beta = np.sqrt(-mu) * np.sinh(x), np.sqrt(-mu) * np.cosh(x)
        minus_diag[mode] = alpha
        minus_diag[mode + 1] = alpha
        sig_block = np.array([[0.0, -1j], [1j, 0.0]])
        plus_diag[mode : mode + 2, mode : mode + 2] = -beta * sig_block
        mode += 2

    if mode != n:
        raise ValueError("eigenvalue bookkeeping failed; spectrum outside the supported pattern")

    W1 = np.column_stack(w_cols)
    W = np.hstack([W1, Sig @ W1.conj()])
    Nbar = Delta(np.diag(minus_diag), plus_diag)
    T = Nbar @ flat_adjoint(W)
    resid = np.linalg.norm(flat_adjoint(T) @ T - G) / scale
    if resid > max(tol, 1e-7):
        raise ValueError(f"flat-Gram factorization failed (residual {resid:.2e})")
    return T


def lyap(X, Q):
    """Solve X M + M X^dag = Q by Bartels-Stewart (unique for Hurwitz X).

    One Schur form X = U R U^dag, one LAPACK ``trsyl`` solve of
    R Y + Y R^dag = U^dag Q U, and M = U Y U^dag.  Imports ``scipy.linalg``.
    """
    from scipy.linalg import get_lapack_funcs, schur

    X = np.asarray(X)
    if X.size == 0:
        return np.zeros(np.shape(Q), dtype=complex)
    R, U = schur(X, output="real")
    F = np.dot(np.dot(U.conj().T, Q), U)
    (trsyl,) = get_lapack_funcs(("trsyl",), (R, R, F))
    Y, scale, _ = trsyl(R, R, F, tranb="C")
    return np.dot(np.dot(U, scale * Y), U.conj().T)


def gramian_flat(A0, C0):
    """The flat Gramian  int_0^inf J (C0 e^{A0 t})^dag J (C0 e^{A0 t}) dt.

    Computed by solving the Lyapunov form A0^dag M + M A0 + C0^dag J C0 = 0
    and returning J M; valid for Hurwitz A0.
    """
    A0 = np.asarray(A0, dtype=complex)
    C0 = np.asarray(C0, dtype=complex)
    n2 = A0.shape[0]
    Jn = jmat(n2 // 2)
    Jm = jmat(C0.shape[0] // 2)
    M = lyap(A0.conj().T, -(C0.conj().T @ Jm @ C0))
    return Jn @ M
