"""Doubled-up / symplectic matrix primitives.

All field and system quantities live on doubled vectors [a; a#], so every
matrix in this package is 2n_out x 2n_in.  A matrix is *doubled-up* when it
has the block form

    Delta(A, B) = [[A, B], [B#, A#]],

and the *flat adjoint* is M^b = J M^dag J with J = diag(1, -1) blockwise.
Symplectic matrices are doubled-up with S^b S = 1; they preserve the
canonical commutation relations.  This module also provides the Williamson
normal form of a Gaussian covariance and the flat-Gram factorization
T^b T = G used by every realization algorithm, each from one Hermitian
eigenproblem (no non-Hermitian ``eig``), plus the Lyapunov solvers
``lyap`` and ``lyap_cascade`` (a cascade's block-triangular drift).

The Lyapunov solvers work in the eigenbasis X = V diag(lambda) V^-1 that a
``QLSystem`` already caches, where X M + M X^dag = Q is one elementwise
division.  Their accuracy contract: a solution is returned only when its
relative residual is at most LYAP_RESID_MAX (64 eps).  A modal solution
that misses it, and an X without a usable eigenbasis (kappa_F(V) >
MODAL_COND_MAX, the same cutoff ``freq_response`` uses), go to the
direct fallback ``_direct_lyap``: one LU of the Kronecker form for
n <= KRON_MAX, on numpy alone.  A larger X, and a Kronecker solution that
misses, go to Bartels-Stewart (``_schur_lyap``, the one place here that
imports ``scipy.linalg``); one that misses there too raises
``np.linalg.LinAlgError``.
"""

import math
from dataclasses import dataclass

import numpy as np

TOL_STRUCT = 1e-10  # relative, doubled-up structure checks
TOL_NUM = 1e-8      # relative, algebraic residuals
MODAL_COND_MAX = 1e3   # kappa_F(V) past which an eigenbasis is not used (``modal_inverse``)
LYAP_RESID_MAX = 64 * np.finfo(float).eps   # relative residual every Lyapunov solve must meet
KRON_MAX = 8           # largest X that ``_direct_lyap`` solves in Kronecker form
GM_TOL = 1e-7          # symplectic-eigenvalue threshold separating pure from thermal modes


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
    n, m = minus.shape
    out = np.empty((2 * n, 2 * m), dtype=complex)
    out[:n, :m], out[:n, m:] = minus, plus
    return _mirror(out)


def _mirror(M):
    """Fill the lower blocks of M in place with the conjugates of its upper ones; returns M."""
    n, m = M.shape[0] // 2, M.shape[1] // 2
    np.conjugate(M[:n, m:], out=M[n:, :m])
    np.conjugate(M[:n, :m], out=M[n:, m:])
    return M


def du_blocks(M):
    """Split a 2n x 2m matrix into its (minus, plus) blocks."""
    M = np.asarray(M)
    n2, m2 = M.shape
    if n2 % 2 or m2 % 2:
        raise ValueError(f"matrix of shape {M.shape} cannot be doubled-up")
    return M[: n2 // 2, : m2 // 2], M[: n2 // 2, m2 // 2 :]


def _relative(err, ref):
    return err / max(1.0, ref)


def _fro(x):
    """Frobenius norm of a complex array, the value of ``np.linalg.norm(x)`` at less call overhead."""
    return math.sqrt(np.vdot(x, x).real)


def is_doubled_up(M, tol=TOL_STRUCT):
    """True iff block(2,1) = conj(block(1,2)) and block(2,2) = conj(block(1,1))."""
    M = np.asarray(M, dtype=complex)
    n2, m2 = M.shape
    if n2 % 2 or m2 % 2:
        return False
    n, m = n2 // 2, m2 // 2
    err = _fro(M[n:, :m] - M[:n, m:].conj()) + _fro(M[n:, m:] - M[:n, :m].conj())
    return _relative(err, _fro(M)) <= tol


def flat_adjoint(M):
    """Symplectic adjoint M^b = J_m M^dag J_n.  An involution on doubled-up matrices."""
    M = np.asarray(M, dtype=complex)
    n2, m2 = M.shape
    if n2 % 2 or m2 % 2:
        raise ValueError(f"matrix of shape {M.shape} has no flat adjoint")
    n, m = n2 // 2, m2 // 2
    out = np.conjugate(M.T, order="C")  # C order, as the layout steers BLAS's summation order
    for block in (out[:m, n:], out[m:, :n]):  # one minus sign of J each
        np.negative(block, out=block)
    return out


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
    Mb = flat_adjoint(M)
    err = _fro(Mb @ M - eye) + _fro(M @ Mb - eye)
    return _relative(err, 1.0) <= 2 * tol


def flat_unitary_residual(M):
    """max(||M^b M - 1||, ||M M^b - 1||): the symplecticity defect of M.

    Transfer-function values Xi(-i w) are tested with this rather than
    ``is_symplectic`` because their doubled-up block structure relates the
    frequencies +w and -w, so the entrywise Delta form holds only at w = 0.
    """
    M = np.asarray(M, dtype=complex)
    eye = np.eye(M.shape[0])
    Mb = flat_adjoint(M)
    return max(np.linalg.norm(Mb @ M - eye), np.linalg.norm(M @ Mb - eye))


@dataclass(frozen=True, eq=False)
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


def williamson(V, n=None):
    """Williamson decomposition of a Gaussian covariance V = <a a^dag> (doubled-up).

    The symplectic eigenvalues are the thermal occupations n_i of the
    canonical modes; all n_i = 0 iff the state is pure.

    Args:
        V: 2n x 2n covariance in the [a; a#] ordering, blocks [[N^T+1, M], [M^dag, N]].
        n: mode count (inferred from the shape when omitted).

    Returns:
        WilliamsonResult with eigenvalues sorted ascending.

    Raises:
        ValueError: if V is not a physical state covariance: not Hermitian,
            V - J/2 not positive definite, a symplectic spectrum that does
            not pair up, or some n_i < -1e-7 (thresholds relative to
            max(1, ||V||)).  Occupations between that floor and 0 are
            clipped to 0.
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
    if np.min(nus, initial=np.inf) < -1e-7 * scale:
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


def vacuum_basis_transform(N, M, tol=GM_TOL):
    """Symplectic S with S V_vac S^dag = V(N, M), for a pure input state.

    S = Delta((N^T+1)^{1/2}, M (N^dag + 1)^{-1/2}); only defined for pure
    covariances, which is checked through the Williamson spectrum: every
    symplectic eigenvalue must be at most tol * max(1, ||V||), by default
    the threshold of ``InputCovariance.is_pure``.
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


def factor_flat_gram(G):
    """Factor a flat-self-adjoint matrix as G = T^b T with T doubled-up.

    G is a flat Gram matrix N^b N of an invertible doubled-up N exactly when
    H = J G = N^dag J N is Hermitian with inertia (n, n) (Sylvester's law).
    Since Sigma conj(H) Sigma = -H maps the positive eigenspace of H onto
    the negative one, one ``eigh(H)`` gives a factor for every spectrum,
    repeated and clustered eigenvalues included: with X the eigenvectors of
    the n positive eigenvalues d, W = [X, Sigma conj(X)] is unitary and
    doubled-up, H = W diag(d, -d) W^dag, and T = diag(sqrt(d), sqrt(d)) W^dag.

    Any symplectic left factor gives another solution.  The gauge is fixed
    by the passive unitary Delta(Q, 0), Q the polar factor of the block sum
    T- + T+, after which T- + T+ is Hermitian positive semidefinite; this
    removes the freedom of the eigenbasis, and c 1 (c > 0) factors as
    sqrt(c) 1.  A 0 x 0 input gives a 0 x 0 factor.

    Raises:
        ValueError: for non-square, odd-dimensional, non-flat-self-adjoint
            or singular input, when the inertia of J G is not (n, n) (G is
            then not a flat Gram matrix), and when the relative residual of
            T^b T = G exceeds 1e-7.
    """
    G = np.asarray(G, dtype=complex)
    n2 = G.shape[0]
    if G.shape[1] != n2 or n2 % 2:
        raise ValueError("flat-Gram factorization needs a square even-dimensional matrix")
    n = n2 // 2
    if n == 0:
        return G.copy()
    scale = np.linalg.norm(G)
    if np.linalg.norm(flat_adjoint(G) - G) > 1e-7 * scale:
        raise ValueError("input is not flat-self-adjoint")
    d, U = np.linalg.eigh(np.repeat([1.0, -1.0], n)[:, None] * G)  # J G by row signs
    if np.min(np.abs(d)) <= 1e-12 * scale:
        raise ValueError("singular input")
    if d[n - 1] > 0 or d[n] < 0:
        raise ValueError("J G does not have inertia (n, n); not a flat Gram matrix")
    X = U[:, n:]
    W = np.hstack([X, np.roll(X.conj(), n, axis=0)])
    root = np.sqrt(np.concatenate([d[n:], d[n:]]))
    T = root[:, None] * W.conj().T
    left, _, right = np.linalg.svd(T[:n, :n] + T[:n, n:])
    T = Delta(right.conj().T @ left.conj().T) @ T
    resid = np.linalg.norm(flat_adjoint(T) @ T - G) / scale
    if resid > 1e-7:
        raise ValueError(f"flat-Gram factorization failed (residual {resid:.2e})")
    return T


def modal_inverse(V):
    """V^-1 for an eigenbasis V with unit columns, or None when V is unusable.

    None when V is singular (an exactly defective matrix) or when
    kappa_F(V) = ||V||_F ||V^-1||_F = sqrt(k) ||V^-1||_F exceeds
    MODAL_COND_MAX (a nearly defective one): modal frequency responses lose
    accuracy as eps kappa_F and modal Lyapunov solves as eps kappa_F^2.
    """
    try:
        Vi = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    if not math.sqrt(len(V)) * _fro(Vi) <= MODAL_COND_MAX:
        return None
    return Vi


def _eig_modal(X):
    """The modal form (lambda, V, V^-1) of a bare matrix from one ``eig``, or None (``modal_inverse``)."""
    lam, V = np.linalg.eig(X)
    Vi = modal_inverse(V)
    return None if Vi is None else (lam, V, Vi)


def _dagger(M):
    """The conjugate transpose of a matrix or of each matrix in a stack (..., n, n)."""
    return M.swapaxes(-1, -2).conj()


def _hermitian(M):
    return 0.5 * (M + _dagger(M))


def _modal_sylvester(a, b, F):
    """Solve Xa M + M Xb^dag = F from modal forms a = (lambda_a, Va, Va^-1) of Xa and b of Xb.

    In the eigenbases the equation is diagonal:
    M = Va Y Vb^dag with Y_ij = (Va^-1 F Vb^-dag)_ij / (lambda_a,i + conj(lambda_b,j)).
    """
    la, Va, Via = a
    lb, Vb, Vib = b
    Y = (Via @ F @ Vib.conj().T) / (la[:, None] + lb.conj())
    return Va @ Y @ Vb.conj().T


def _modal_lyap(modal, Q):
    """``_modal_sylvester`` with both forms ``modal``, for Hermitian Q (or a stack of them): Y and M are made Hermitian.

    Both symmetrisations are exact for Hermitian Q: Y's drops the rounding
    of the first basis change, M's that of the second.
    """
    lam, V, Vi = modal
    Y = (Vi @ Q @ Vi.conj().T) / (lam[:, None] + lam.conj())
    return _hermitian(V @ _hermitian(Y) @ V.conj().T)


def _fro_stack(A):
    """``_fro`` of a matrix, or of each matrix of a stack (..., n, n)."""
    return _fro(A) if A.ndim == 2 else np.linalg.norm(A, axis=(-2, -1))


def _relative_residuals(X, M, Q):
    """||Q - X M - M X^dag||_F / (2 ||X||_F ||M||_F + ||Q||_F) for Hermitian M, or each M of a stack."""
    R = X @ M
    R = Q - R - _dagger(R)
    scale = 2.0 * _fro(X) * _fro_stack(M) + _fro_stack(Q)
    return _fro_stack(R) / np.fmax(scale, 1e-300)  # scale is 0 only where R is


def _meets_residual(X, M, Q):
    """The accuracy gate of every Lyapunov solve: relative residual <= LYAP_RESID_MAX (a NaN misses); per matrix of a stack."""
    return _relative_residuals(X, M, Q) <= LYAP_RESID_MAX


def _direct_lyap(X, Q):
    """``lyap`` without an eigenbasis, for Hermitian Q or a stack (..., n, n) of them.

    For n <= KRON_MAX one ``np.linalg.solve`` of the Kronecker form
    (X (x) 1 + 1 (x) conj(X)) vec M = vec Q, with the rows of M stacked,
    serves every right-hand side from one LU; Gaussian elimination with
    partial pivoting is normwise backward stable in practice (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 9).  M is made
    Hermitian.  Its cost grows as n^6, so a larger X, and any matrix that
    misses LYAP_RESID_MAX, goes to ``_schur_lyap``; only that route
    imports scipy.
    """
    Q = np.asarray(Q, dtype=complex)
    n = len(X)
    if Q.size == 0:
        return np.zeros(Q.shape, dtype=complex)
    if n > KRON_MAX:
        return _schur_lyap(X, Q.reshape(-1, n, n)).reshape(Q.shape)
    eye = np.eye(n)  # K[(i, j), (k, l)] = X_ik 1_jl + 1_ik conj(X_jl), np.kron by broadcasting
    K = (X[:, None, :, None] * eye[:, None] + eye[:, None, :, None] * X.conj()[:, None]).reshape(n * n, n * n)
    M = _hermitian(np.linalg.solve(K, Q.reshape(-1, n * n).T).T.reshape(Q.shape))
    miss = ~_meets_residual(X, M, Q)  # a boolean of Q's stack shape; for one Q, M[miss] is M[None] or empty
    if miss.any():
        M[miss] = _schur_lyap(X, Q[miss])
    return M


def _schur_lyap(X, Qs):
    """Bartels-Stewart (``scipy.linalg.solve_continuous_lyapunov``, one Schur form of X, backward stable)
    for a stack of Q, M made Hermitian.

    The route of ``_direct_lyap`` for n > KRON_MAX and for its misses, and
    the only Lyapunov solver that imports ``scipy.linalg``.

    Raises:
        np.linalg.LinAlgError: when a matrix still misses LYAP_RESID_MAX (a
            non-Hermitian Q always does), with its relative residual.
    """
    from scipy.linalg import solve_continuous_lyapunov

    if np.isfinite(X).all() and np.isfinite(Qs).all():
        M = _hermitian(np.array([solve_continuous_lyapunov(X, Q) for Q in Qs]))
    else:  # scipy rejects non-finite input; a NaN solution misses the gate below
        M = np.full(np.shape(Qs), np.nan, dtype=complex)
    resid = _relative_residuals(X, M, Qs)
    if not np.all(resid <= LYAP_RESID_MAX):
        raise np.linalg.LinAlgError(f"Lyapunov solve missed its accuracy bound: relative residual "
                                    f"{np.max(resid):.2e} > {LYAP_RESID_MAX:.2e}")
    return M


def lyap(X, Q, modal=None):
    """Solve X M + M X^dag = Q for Hurwitz X and Hermitian Q (M is then Hermitian).

    ``modal`` = (lambda, V, V^-1) with X = V diag(lambda) V^-1, when the
    caller holds it (a ``QLSystem`` caches its drift's); otherwise one
    ``eig`` of X gives it.  In that basis the equation is diagonal,
    M = V Y V^dag with Y_ij = (V^-1 Q V^-dag)_ij / (lambda_i + conj(lambda_j)),
    and Y and M are returned Hermitian.

    Accuracy contract: the returned M has relative residual
    ||X M + M X^dag - Q||_F / (2 ||X||_F ||M||_F + ||Q||_F) <= LYAP_RESID_MAX
    (64 eps).  When X has no usable eigenbasis (``modal_inverse``:
    kappa_F(V) > MODAL_COND_MAX, e.g. a defective X) or when the modal
    solution, whose error grows as eps kappa_F(V)^2, misses that bound,
    ``_direct_lyap`` solves instead: the Kronecker form by one LU up to
    KRON_MAX, Bartels-Stewart past it.  The forward error is then at most
    the equation's condition number times the residual.

    Raises:
        np.linalg.LinAlgError: when no route meets the bound (a
            non-Hermitian Q always misses; ``_schur_lyap``).
    """
    X = np.asarray(X, dtype=complex)
    return _lyap(X, Q, _eig_modal(X) if modal is None else modal)[0]


def _lyap(X, Q, modal):
    """``lyap`` for Q or each Q of a stack (..., n, n) from the modal form ``modal``, with the route taken.

    One modal division solves the whole stack, and the matrices whose
    solution misses the gate go to ``_direct_lyap`` together.  With ``modal``
    None all of them do.  The route is "modal", or "direct" when any matrix
    took the direct route.
    """
    Q = np.asarray(Q, dtype=complex)
    if modal is None:
        return _direct_lyap(X, Q), "direct"
    M = _modal_lyap(modal, Q)
    miss = ~_meets_residual(X, M, Q)
    if not miss.any():
        return M, "modal"
    M[miss] = _direct_lyap(X, Q[miss])
    return M, "direct"


def lyap_cascade(X, Q, k, first, second):
    """Solve X M + M X^dag = Q for block lower-triangular X and Hermitian Q; returns (M, route).

    X = [[X1, 0], [X21, X2]] with X1 of size k (X12 is not read; either
    block may be empty), and ``first`` and ``second`` are modal forms
    (lambda, V, V^-1) of X1 and X2, or None: for a cascade, the parts'
    cached eigendecompositions.  Bartels-Stewart by blocks, with M12 = M21^dag,

        X1 M11 + M11 X1^dag = Q11,
        X2 M21 + M21 X1^dag = Q21 - X21 M11,
        X2 M22 + M22 X2^dag = Q22 - X21 M12 - M21 X21^dag,

    each an elementwise division in the parts' eigenbases; no factorization
    of the whole X.  The contract is ``lyap``'s, checked on the whole X:
    when a part has no modal form or M misses the residual bound, the whole
    X is solved by ``_direct_lyap``.  ``route`` is "modal" or "direct".
    """
    if first is not None and second is not None:
        X21 = X[k:, :k]
        M = np.empty(np.shape(Q), dtype=complex)
        M[:k, :k] = M11 = _modal_lyap(first, Q[:k, :k])
        M[k:, :k] = M21 = _modal_sylvester(second, first, Q[k:, :k] - X21 @ M11)
        M[:k, k:] = M21.conj().T
        M[k:, k:] = _modal_lyap(second, Q[k:, k:] - X21 @ M[:k, k:] - M21 @ X21.conj().T)
        if _meets_residual(X, M, Q):
            return M, "modal"
    return _direct_lyap(X, Q), "direct"


def gramian_flat(A0, C0, modal=None):
    """The flat Gramian  int_0^inf J (C0 e^{A0 t})^dag J (C0 e^{A0 t}) dt.

    Computed by solving the Lyapunov form A0^dag M + M A0 + C0^dag J C0 = 0
    with ``lyap`` and returning J M, J applied as row signs; valid for
    Hurwitz A0.  ``modal`` is the modal form (lambda, V, V^-1) of A0^dag when
    the caller holds it; otherwise ``lyap`` takes one ``eig`` of A0^dag.
    """
    A0 = np.asarray(A0, dtype=complex)
    C0 = np.asarray(C0, dtype=complex)
    Jn = np.repeat([1.0, -1.0], A0.shape[0] // 2)[:, None]
    Jm = np.repeat([1.0, -1.0], C0.shape[0] // 2)[:, None]
    return Jn * lyap(A0.conj().T, -(C0.conj().T @ (Jm * C0)), modal)
