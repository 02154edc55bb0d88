import numpy as np
import pytest

from qls import algebra
from qls.algebra import (
    GM_TOL,
    Delta,
    du_blocks,
    factor_flat_gram,
    flat_adjoint,
    flat_unitary_residual,
    is_doubled_up,
    is_symplectic,
    jmat,
    lyap,
    sigma_swap,
    williamson,
)
from qls.sampling import random_pure_input, random_symplectic
from qls.stationary import InputCovariance

from conftest import mpmath_lyap, non_normal_triangular


def random_du(rng, rows, cols, scale=1.0):
    z = lambda: scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    return Delta(z(), z())


class TestFlatAdjoint:
    def test_identity_and_j_fixed_points(self):
        eye = np.eye(4, dtype=complex)
        assert np.allclose(flat_adjoint(eye), eye)
        J = jmat(2)
        assert np.allclose(flat_adjoint(J), J)

    def test_involution(self, rng):
        for _ in range(10):
            M = random_du(rng, 2, 3)
            assert np.allclose(flat_adjoint(flat_adjoint(M)), M)

    def test_product_rule(self, rng):
        for _ in range(10):
            A = random_du(rng, 2, 3)
            B = random_du(rng, 3, 2)
            assert np.allclose(flat_adjoint(A @ B), flat_adjoint(B) @ flat_adjoint(A), atol=1e-10)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (2, 6), (8, 4), (0, 4), (4, 0), (0, 0), (6, 2)])
    def test_sign_scaling_equals_j_products(self, rng, rows, cols):
        M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert np.array_equal(flat_adjoint(M), jmat(cols // 2) @ M.conj().T @ jmat(rows // 2))

    def test_leaves_input_unchanged(self, rng):
        M = random_du(rng, 2, 3)
        before = M.copy()
        flat_adjoint(M)
        assert np.array_equal(M, before)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_odd_shape_raises(self, shape):
        with pytest.raises(ValueError, match="no flat adjoint"):
            flat_adjoint(np.ones(shape))


class TestDelta:
    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (3, 1), (1, 0), (0, 0)])
    def test_equals_block_assembly(self, rng, rows, cols):
        A = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        B = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert np.array_equal(Delta(A, B), np.block([[A, B], [B.conj(), A.conj()]]))
        Z = np.zeros((rows, cols), dtype=complex)
        assert np.array_equal(Delta(A), np.block([[A, Z], [Z, A.conj()]]))

    def test_promotes_scalars_and_rejects_mismatched_blocks(self):
        assert np.array_equal(Delta(2.0, 1j), np.array([[2.0, 1j], [-1j, 2.0]]))
        with pytest.raises(ValueError, match="block shapes differ"):
            Delta(np.ones((1, 2)), np.ones((2, 1)))


def _hurwitz_draw(rng, n):
    """Seeded Hurwitz X and Hermitian Q of size n."""
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X -= (2.0 * np.sqrt(n) + 1.0) * np.eye(n)  # Hurwitz: unique solution
    Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return X, Q + Q.conj().T


class TestLyap:
    """The contract of ``lyap``: modal solves within LYAP_RESID_MAX, else the direct route."""

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 8, 32])
    def test_direct_route_against_mpmath(self, rng, n):
        """The direct route (``_direct_lyap``): against mpmath up to n = 4, and a residual bound
        at every size; an empty Q gives an empty M."""
        X, Q = _hurwitz_draw(rng, n)
        M = algebra._direct_lyap(X, Q)
        assert M.shape == (n, n) and M.dtype == complex
        assert np.array_equal(M, M.conj().T)
        if 0 < n <= 4:
            exact = mpmath_lyap(X, Q)
            assert np.linalg.norm(M - exact) <= 1e-13 * np.linalg.norm(exact)
        assert np.linalg.norm(X @ M + M @ X.conj().T - Q) <= 1e-12 * max(1.0, np.linalg.norm(Q))
        assert algebra._meets_residual(X, M, Q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_modal_route_against_mpmath(self, n):
        rng = np.random.default_rng([n, 40])
        X, Q = _hurwitz_draw(rng, n)
        M, route = algebra._lyap(X, Q, algebra._eig_modal(X))
        assert route == "modal"
        exact = mpmath_lyap(X, Q)
        assert np.linalg.norm(M - exact) <= 1e-13 * np.linalg.norm(exact)

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 8, 16, 32])
    def test_modal_route_against_schur_route(self, n):
        """Both routes against scipy's Bartels-Stewart solve (``solve_sylvester``)."""
        from scipy.linalg import solve_sylvester

        for seed in range(5):
            X, Q = _hurwitz_draw(np.random.default_rng([n, seed]), n)
            modal = algebra._eig_modal(X)
            M, route = algebra._lyap(X, Q, modal)
            assert route == "modal" and np.array_equal(lyap(X, Q), M)
            assert np.array_equal(M, M.conj().T)
            R = X @ M + M @ X.conj().T - Q
            assert np.linalg.norm(R) <= algebra.LYAP_RESID_MAX * (
                2.0 * np.linalg.norm(X) * np.linalg.norm(M) + np.linalg.norm(Q))
            if n:
                ref = solve_sylvester(X, X.conj().T, Q)
                assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)
                assert np.linalg.norm(algebra._direct_lyap(X, Q) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_given_modal_form_equals_computed_one(self, rng):
        X, Q = _hurwitz_draw(rng, 5)
        lam, V = np.linalg.eig(X)
        assert np.array_equal(lyap(X, Q, (lam, V, np.linalg.inv(V))), lyap(X, Q))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_jordan_block_falls_back_to_direct_route(self, n):
        X = -np.eye(n) + np.diag(np.ones(n - 1), 1) + 0j  # defective: one eigenvector
        Q = np.random.default_rng(n).standard_normal((n, n)) + 0j
        Q = Q + Q.T
        assert algebra._eig_modal(X) is None
        M = lyap(X, Q)
        assert np.array_equal(M, algebra._direct_lyap(X, Q))
        exact = mpmath_lyap(X, Q)
        assert np.linalg.norm(M - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_gm2_drift_falls_back_to_direct_route(self):
        from conftest import gm2_system

        A = gm2_system(0.0).A  # a 2 x 2 Jordan block per pole: kappa_F(V) ~ 1e8
        Q = np.diag([1.0, 0.5, 0.25, 2.0]) + 0j
        assert algebra._eig_modal(A) is None
        M = lyap(A, Q)
        assert np.array_equal(M, algebra._direct_lyap(A, Q))
        exact = mpmath_lyap(A, Q)
        assert np.linalg.norm(M - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_kronecker_solve_meets_the_gate_on_rotated_non_normal_drifts(self, monkeypatch):
        """Non-normal triangular drifts in a dense basis, n = 4-8: one LU meets the gate, no Bartels-Stewart."""
        def no_schur(X, Qs):
            raise AssertionError(f"_schur_lyap reached at n = {len(X)}")

        monkeypatch.setattr(algebra, "_schur_lyap", no_schur)
        for n in range(4, 9):
            for seed in range(10):
                rng = np.random.default_rng([n, seed, 19])
                X = non_normal_triangular(rng, n)
                U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                X = U @ X @ U.conj().T
                Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                Q = Q + Q.conj().T
                M, route = algebra._lyap(X, Q, None)
                assert route == "direct" and algebra._meets_residual(X, M, Q)

    def test_non_hermitian_q_misses_the_residual_gate(self, rng):
        """Every route returns Hermitian M, so none meets the gate: ``lyap`` raises."""
        X, _ = _hurwitz_draw(rng, 4)
        Q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(np.linalg.LinAlgError, match="relative residual"):
            algebra._lyap(X, Q, algebra._eig_modal(X))

    def test_nan_residual_misses_the_gate(self, rng):
        """A solve that ends in NaN (here from a NaN right-hand side) raises rather than returns."""
        X, _ = _hurwitz_draw(rng, 3)
        with pytest.raises(np.linalg.LinAlgError, match="relative residual nan"):
            algebra._direct_lyap(X, np.full((3, 3), np.nan, dtype=complex))

    def test_stack_matches_one_solve_at_a_time(self, rng):
        """``_lyap`` on a stack of right-hand sides, by either route, equals ``lyap`` on each."""
        from conftest import gm2_system

        near_defective = np.array([[-1, 1, 0, 0], [0, -1.005, 1, 0], [0, 0, -0.5 + 1j, 0.3], [0, 0, 0, -2]],
                                  dtype=complex)  # kappa_F(V) < MODAL_COND_MAX, yet the modal solves miss
        assert algebra._eig_modal(near_defective) is not None
        for X in (_hurwitz_draw(rng, 4)[0], gm2_system(0.0).A, near_defective):
            Qs = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
            Qs = Qs + Qs.conj().transpose(0, 2, 1)
            Ms = algebra._lyap(X, Qs, algebra._eig_modal(X))[0]
            for M, Q in zip(Ms, Qs):
                assert np.linalg.norm(M - lyap(X, Q)) <= 1e-14 * np.linalg.norm(M)


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4, dtype=complex))

    def test_one_mode_squeezer(self):
        r = 0.7
        S = Delta([[np.cosh(r)]], [[np.sinh(r)]])
        assert is_symplectic(S)

    def test_scaling_fails(self):
        assert not is_symplectic(Delta([[2.0]], [[0.0]]))

    def test_odd_dimension_raises(self):
        with pytest.raises(ValueError):
            is_symplectic(np.eye(3))

    def test_random_exponentials(self, rng):
        for n in (1, 2, 3):
            assert is_symplectic(random_symplectic(rng, n), tol=1e-10)


class TestWilliamson:
    def test_vacuum(self):
        V = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        res = williamson(V, 2)
        assert np.allclose(res.symplectic_eigenvalues, 0.0, atol=1e-12)

    def test_pure_squeezed_input(self, rng):
        N, M = random_pure_input(rng, 2)
        V = np.block([[N.T + np.eye(2), M], [M.conj().T, N]])
        res = williamson(V, 2)
        assert np.max(res.symplectic_eigenvalues) < 1e-10
        D = res.transform @ V @ res.transform.conj().T
        assert np.linalg.norm(D - np.diag(np.diag(D))) < 1e-9
        assert is_symplectic(res.transform, tol=1e-8)

    def test_thermal_diagonal(self):
        nvals = np.array([0.3, 1.7])
        V = np.block(
            [
                [np.diag(nvals) + np.eye(2), np.zeros((2, 2))],
                [np.zeros((2, 2)), np.diag(nvals)],
            ]
        )
        res = williamson(V, 2)
        assert np.allclose(res.symplectic_eigenvalues, nvals, atol=1e-12)

    def test_symplectic_invariance(self, rng):
        nvals = np.array([0.2, 0.9, 2.5])
        V = np.block(
            [
                [np.diag(nvals) + np.eye(3), np.zeros((3, 3))],
                [np.zeros((3, 3)), np.diag(nvals)],
            ]
        )
        for _ in range(5):
            S = random_symplectic(rng, 3)
            res = williamson(S @ V @ S.conj().T, 3)
            assert np.allclose(np.sort(res.symplectic_eigenvalues), nvals, atol=1e-8)

    def test_nonphysical_raises(self):
        V = np.diag([0.3, 0.3, -0.7, -0.7]).astype(complex)  # n_i = -0.7
        with pytest.raises(ValueError):
            williamson(V, 2)

    def test_non_hermitian_raises(self):
        V = np.diag([1.5, 1.0, 0.5, 0.0]).astype(complex)
        V[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            williamson(V, 2)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("cond", [1.0, 1e3])
    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_seeded_canonical_form(self, n, cond, repeated):
        """V = S diag(n + 1, n) S^dag with cond(S) = cond, occupations repeated or not."""
        rng = np.random.default_rng([n, int(cond), repeated])
        nus = rng.choice([0.0, 0.5, 2.0], n) if repeated else rng.uniform(0.0, 3.0, n)
        r = rng.uniform(0.0, 0.5 * np.log(cond), n)
        r[0] = 0.5 * np.log(cond)
        S = (Delta(_unitary(rng, n)) @ Delta(np.diag(np.cosh(r)), np.diag(np.sinh(r)))
             @ Delta(_unitary(rng, n)))
        V = S @ np.diag(np.concatenate([nus + 1.0, nus])) @ S.conj().T
        scale = np.linalg.norm(V)
        res = williamson(V, n)
        assert np.max(np.abs(res.symplectic_eigenvalues - np.sort(nus))) <= 1e-10 * scale
        T = res.transform
        assert is_doubled_up(T)
        assert np.linalg.norm(flat_adjoint(T) @ T - np.eye(2 * n)) <= 1e-10 * np.linalg.norm(T) ** 2
        D = np.diag(np.concatenate([res.symplectic_eigenvalues + 1.0, res.symplectic_eigenvalues]))
        assert np.linalg.norm(T @ V @ T.conj().T - D) <= 1e-10 * scale


def _unitary(rng, n):
    """Haar-random n x n unitary."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestVacuumBasisTransform:
    """``InputCovariance.field_transform``: the symplectic taking vacuum to a pure input."""

    def test_vacuum_gives_identity(self):
        S = InputCovariance(np.zeros((2, 2)), np.zeros((2, 2))).field_transform
        assert np.allclose(S, np.eye(4), atol=1e-12)

    def test_one_mode_closed_form(self):
        n = 1.2
        m = np.sqrt(n * (n + 1.0))
        S = InputCovariance([[n]], [[m]]).field_transform
        assert np.allclose(S, Delta([[np.sqrt(n + 1)]], [[m / np.sqrt(n + 1)]]), atol=1e-12)

    def test_random_pure_roundtrip(self, rng):
        for m in (1, 2):
            N, M = random_pure_input(rng, m)
            S = InputCovariance(N, M).field_transform
            assert is_symplectic(S, tol=1e-10)
            Vvac = np.zeros((2 * m, 2 * m), dtype=complex)
            Vvac[:m, :m] = np.eye(m)
            V = np.block([[N.T + np.eye(m), M], [M.conj().T, N]])
            assert np.linalg.norm(S @ Vvac @ S.conj().T - V) < 1e-9

    def test_mixed_input_raises(self):
        with pytest.raises(ValueError, match="max symplectic eigenvalue 5.000e-01"):
            InputCovariance([[0.5]], [[0.0]]).field_transform  # thermal: mixed

    @pytest.mark.parametrize("occupation", (3e-7, 3e-8))
    def test_default_threshold_agrees_with_is_pure(self, occupation):
        # a thermal occupation N is the input's symplectic eigenvalue: mixed above GM_TOL, pure below
        V = InputCovariance([[occupation]], [[0.0]])
        assert V.is_pure == (occupation < GM_TOL)
        if V.is_pure:
            V.field_transform
        else:
            with pytest.raises(ValueError, match="mixed"):
                V.field_transform


class TestFactorFlatGram:
    def test_identity(self):
        T = factor_flat_gram(np.eye(4, dtype=complex))
        assert np.allclose(T, np.eye(4), atol=1e-12)

    def test_positive_scalar_pair(self):
        lam = 2.5
        T = factor_flat_gram(lam * np.eye(2, dtype=complex))
        assert np.allclose(T, np.sqrt(lam) * np.eye(2), atol=1e-12)

    def test_negative_pair_uses_active_factor(self):
        G = -1.5 * np.eye(2, dtype=complex)
        T = factor_flat_gram(G)
        assert np.linalg.norm(flat_adjoint(T) @ T - G) < 1e-10
        # the factor must be genuinely active (off-diagonal block)
        minus, plus = du_blocks(T)
        assert np.linalg.norm(minus) < 1e-10
        assert np.linalg.norm(plus) > 1.0

    def test_random_flat_gram_residual(self, rng):
        for n in (1, 2, 3):
            for _ in range(10):
                N = random_du(rng, n, n)
                G = flat_adjoint(N) @ N
                T = factor_flat_gram(G)
                assert is_doubled_up(T)
                resid = np.linalg.norm(flat_adjoint(T) @ T - G) / np.linalg.norm(G)
                assert resid < 1e-12

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            factor_flat_gram(np.zeros((2, 2), dtype=complex))

    def test_scalar_identity_multiples_factor_in_closed_form(self):
        # fully degenerate but canonical: scalar multiples of the identity
        T = factor_flat_gram(2.0 * np.eye(4, dtype=complex))
        assert np.allclose(T, np.sqrt(2.0) * np.eye(4), atol=1e-12)
        G = -2.0 * np.eye(4, dtype=complex)
        T = factor_flat_gram(G)
        assert np.linalg.norm(flat_adjoint(T) @ T - G) < 1e-10

    def test_degenerate_complex_eigenvalues_factor(self):
        # two identical complex two-mode blocks: eigenvalue multiplicity four
        mu, nu = 1.0, 2.0
        sig = np.array([[0.0, -1j], [1j, 0.0]])
        N1 = mu * np.eye(4)
        N2 = np.zeros((4, 4), dtype=complex)
        N2[:2, :2] = -nu * sig
        N2[2:, 2:] = -nu * sig
        G = Delta(N1, N2)
        T = factor_flat_gram(G)
        assert is_doubled_up(T)
        assert np.linalg.norm(flat_adjoint(T) @ T - G) <= 1e-12 * np.linalg.norm(G)

    @pytest.mark.parametrize("n", (4, 8, 16, 32))
    @pytest.mark.parametrize("spectrum", ("repeated", "clustered", "mixed"))
    def test_seeded_degenerate_spectra(self, n, spectrum):
        """G = N^b N, N = N0 S for random symplectic S and a block-diagonal N0 whose
        spectrum is repeated (pairs of equal modes), clustered (modes 1e-9 apart)
        or mixed (repeated positive pairs, negative pairs, complex quadruples)."""
        rng = np.random.default_rng([n, len(spectrum)])
        half = n // 2
        if spectrum == "repeated":
            N0 = Delta(np.diag(np.repeat(np.arange(1.0, half + 1), 2)))
        elif spectrum == "clustered":
            N0 = Delta(np.diag(np.repeat(np.arange(1.0, half + 1), 2) + np.tile([0.0, 1e-9], half)))
        else:
            k = n // 4  # k positive modes, k negative modes, k quadruples (two modes each)
            minus = np.concatenate([np.ones(k), np.zeros(k), np.full(2 * k, 1.5)])
            plus = np.zeros((n, n), dtype=complex)
            plus[k : 2 * k, k : 2 * k] = 2.0 * np.eye(k)
            sig = np.array([[0.0, -1j], [1j, 0.0]])
            for j in range(2 * k, n, 2):
                plus[j : j + 2, j : j + 2] = -0.7 * sig
            N0 = Delta(np.diag(minus), plus)
        N = N0 @ random_symplectic(rng, n)
        G = flat_adjoint(N) @ N
        T = factor_flat_gram(G)
        assert is_doubled_up(T)
        assert np.linalg.norm(flat_adjoint(T) @ T - G) <= 1e-12 * np.linalg.norm(G)
        minus, plus = du_blocks(T)
        K = minus + plus  # the gauge makes the block sum Hermitian PSD
        assert np.linalg.norm(K - K.conj().T) <= 1e-12 * np.linalg.norm(K)
        assert np.min(np.linalg.eigvalsh(0.5 * (K + K.conj().T))) >= -1e-12 * np.linalg.norm(K)

    def test_wrong_inertia_raises(self):
        # G = J is flat-self-adjoint, but J G = 1 has inertia (2n, 0)
        with pytest.raises(ValueError, match="inertia"):
            factor_flat_gram(jmat(3))

    def test_zero_modes(self):
        T = factor_flat_gram(np.zeros((0, 0)))
        assert T.shape == (0, 0)

    def test_not_flat_self_adjoint_raises(self, rng):
        M = random_du(rng, 2, 2)
        with pytest.raises(ValueError):
            factor_flat_gram(M + np.eye(4) * 5)


def test_sigma_and_j_anticommute():
    n = 3
    assert np.allclose(jmat(n) @ sigma_swap(n), -sigma_swap(n) @ jmat(n))


def test_flat_unitary_residual_of_symplectic(rng):
    S = random_symplectic(rng, 2)
    assert flat_unitary_residual(S) < 1e-10
