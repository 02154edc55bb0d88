import copy

import numpy as np
import pytest

from qls import absorber, algebra, stationary
from qls.absorber import canonicalize_stationary
from qls.algebra import jmat, williamson
from qls.model import QLSystem, default_grid, gauge_transform, series_product, tf_equal
from qls.sampling import random_pure_input, random_qlsystem, random_symplectic
from qls.stationary import (
    InputCovariance,
    is_globally_minimal,
    power_spectrum,
    ps_cascade_embedding,
    pure_mixed_split,
    siso_passive_gm,
    solve_lyapunov,
    vacuum_covariance,
)

from conftest import absorber_two_mode_example, active_one_mode_example, cavity, gm2_system, squeezed_input


class TestInputCovariance:
    def test_vacuum_is_pure(self):
        assert InputCovariance.vacuum(2).is_pure

    def test_thermal_is_mixed(self):
        assert not InputCovariance([[0.5]], [[0.0]]).is_pure

    def test_squeezed_purity_condition(self):
        assert squeezed_input(0.8).is_pure

    def test_nonphysical_rejected(self):
        with pytest.raises(ValueError):
            InputCovariance([[0.1]], [[5.0]])  # |M|^2 >> N(N+1)

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            InputCovariance([[0.1 + 1j]], [[0.0]])

    def test_private_read_only_copies(self):
        N, M = np.array([[0.5]]), np.array([[0.3j]])
        V = InputCovariance(N, M)
        before = V.matrix().copy()
        N[0, 0] = 7.0
        M[0, 0] = 0.0
        assert np.array_equal(V.matrix(), before)
        assert V.matrix() is V.matrix() and V.normal_form is V.normal_form
        for arr in (V.matrix(), V.N, V.M, V.normal_form.transform):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


class TestSolveLyapunov:
    def test_passive_vacuum_settles_to_vacuum(self):
        st = solve_lyapunov(cavity(), InputCovariance.vacuum(1))
        assert np.linalg.norm(st.P - vacuum_covariance(1)) < 1e-12
        assert np.max(st.symplectic_spectrum) < 1e-10

    def test_absorber_example_entries(self):
        # stationary covariance of the worked two-mode example
        st = solve_lyapunov(absorber_two_mode_example(), InputCovariance.vacuum(1))
        assert abs(st.P[0, 0] - 1.1067) < 5e-5
        assert abs(st.P[0, 1] - (-0.0799 - 0.1952j)) < 5e-5
        assert np.allclose(np.sort(st.symplectic_spectrum), [0.0022, 0.3623], atol=5e-5)

    def test_random_residuals(self, rng):
        for _ in range(10):
            sys = random_qlsystem(rng, 3, 2)
            N, M = random_pure_input(rng, 2)
            st = solve_lyapunov(sys, InputCovariance(N, M))
            assert st.residual < 1e-8

    def test_non_hurwitz_raises(self):
        sys = QLSystem.from_blocks([[0.0]], [[0.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError):
            solve_lyapunov(sys, InputCovariance.vacuum(1))


def _separated_part(rng, n, m):
    """Seeded Hurwitz part whose Lyapunov equation is well conditioned.

    Two backward-stable solvers agree only to about eps times the condition
    of the equation, so the draw keeps it small: the Hamiltonian's
    eigenfrequencies are spaced by 2, every eigenmode couples to each channel
    with strength in [0.5, 1.5], and the active parts are 2 %.
    """
    cplx = lambda shape, scale: scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    U = np.linalg.qr(cplx((n, n), 1.0))[0]
    Om1 = (U * (2.0 * np.arange(n) - n + 1)) @ U.conj().T
    Cm = (rng.uniform(0.5, 1.5, (m, n)) * np.exp(2j * np.pi * rng.random((m, n)))) @ U.conj().T
    Om2 = cplx((n, n), 0.02)
    return QLSystem.from_blocks(Cm, cplx((m, n), 0.02), Om1, 0.5 * (Om2 + Om2.T))


class TestSolveLyapunovCascade:
    """On a `series_product` cascade, solve_lyapunov solves by blocks from the parts."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n1, n2", [(0, 1), (1, 1), (2, 5), (16, 16), (32, 32)])
    def test_matches_dense_solve(self, n1, n2, m):
        rng = np.random.default_rng([n1, n2, m])
        cascade = series_product(_separated_part(rng, n1, m), _separated_part(rng, n2, m))
        V = InputCovariance(*random_pure_input(rng, m))
        state = solve_lyapunov(cascade, V)
        dense = solve_lyapunov(QLSystem.from_drift(cascade.A, cascade.C, cascade.S), V)
        Q = stationary._noise_matrix(cascade, V)
        P = algebra.lyap(cascade.A, -Q)  # the same equation, solved whole
        P = 0.5 * (P + P.conj().T)
        assert dense.P.shape == state.P.shape == (2 * (n1 + n2),) * 2
        assert np.linalg.norm(state.P - P) <= 1e-12 * np.linalg.norm(P)
        assert np.linalg.norm(state.P - dense.P) <= 1e-12 * np.linalg.norm(P)
        assert state.residual <= 1e-12
        assert np.array_equal(state.P, state.P.conj().T)

    def test_no_schur_form_of_the_whole_drift(self, monkeypatch):
        sizes = []
        real = algebra._schur

        def counting(X):
            sizes.append(np.shape(X)[0])
            return real(X)

        monkeypatch.setattr(algebra, "_schur", counting)
        rng = np.random.default_rng(7)
        cascade = series_product(_separated_part(rng, 3, 1), _separated_part(rng, 5, 1))
        solve_lyapunov(cascade, InputCovariance.vacuum(1))
        assert sorted(sizes) == [6, 10]
        sizes.clear()
        absorber.dual_system(absorber_two_mode_example())
        assert max(sizes) == 4  # the 2-mode system's own solve, then the 4-mode cascade by blocks

    def test_zero_mode_parts(self, rng):
        V = InputCovariance(*random_pure_input(rng, 1))
        empty = QLSystem(S=random_symplectic(rng, 1), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        state = solve_lyapunov(empty, V)
        assert state.P.shape == (0, 0) and state.symplectic_spectrum.shape == (0,)
        for cascade in (series_product(empty, cavity()), series_product(cavity(), empty)):
            want = solve_lyapunov(QLSystem.from_drift(cascade.A, cascade.C, cascade.S), V).P
            assert np.linalg.norm(solve_lyapunov(cascade, V).P - want) <= 1e-12
        assert solve_lyapunov(series_product(empty, empty), V).P.shape == (0, 0)


def test_result_records_compare_by_identity(rng):
    from qls.realization import tf_as_rational

    state = solve_lyapunov(cavity(), InputCovariance.vacuum(1))
    records = [state, state.normal_form, absorber.dual_system(absorber_two_mode_example()),
               tf_as_rational(cavity())]
    for record in records:
        twin = copy.copy(record)
        assert record == record and record != twin
        assert len({record, twin}) == 2


class TestWilliamsonOnce:
    """The Williamson form of P comes from solve_lyapunov and is reused downstream."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Dimensions of the matrices passed to williamson, in call order."""
        dims = []
        real = algebra.williamson

        def counting(V, *args, **kwargs):
            dims.append(np.shape(V)[0])
            return real(V, *args, **kwargs)

        for module in (algebra, stationary, absorber):
            monkeypatch.setattr(module, "williamson", counting, raising=False)
        return dims

    def test_state_carries_normal_form(self):
        st = solve_lyapunov(absorber_two_mode_example(), InputCovariance.vacuum(1))
        assert st.symplectic_spectrum is st.normal_form.symplectic_eigenvalues

    def test_canonicalize_stationary(self, calls):
        sys = absorber_two_mode_example()  # n = 2 modes, m = 1 channel: P is 4 x 4
        canonicalize_stationary(sys)
        assert calls.count(2 * sys.n) == 1

    def test_pure_mixed_split(self, calls):
        sys = absorber_two_mode_example()
        pure_mixed_split(sys, squeezed_input(0.3))
        assert calls.count(2 * sys.n) == 1

    def test_is_pure_adds_no_call(self, calls):
        V = squeezed_input(0.8)
        assert calls == [2]
        assert V.is_pure and V.is_pure
        assert calls == [2]


class TestPowerSpectrum:
    def test_passive_vacuum_trivial(self, rng):
        sys = random_qlsystem(rng, 2, 2, passive=True)
        vac = InputCovariance.vacuum(2)
        for s in default_grid(sys, 11):
            assert np.linalg.norm(power_spectrum(sys, vac, s) - vacuum_covariance(2)) < 1e-9

    def test_one_mode_example_rational_structure(self):
        # Psi(s) J of the worked one-mode system is rational with poles at
        # +/- lambda, +/- conj(lambda), lambda = -24 + i sqrt(3); its (2,2)
        # entry is a constant over the monic quartic denominator
        sys = active_one_mode_example()
        lam = -24.0 + 1j * np.sqrt(3.0)
        den = np.poly([lam, np.conj(lam), -lam, -np.conj(lam)])
        vac = InputCovariance.vacuum(1)
        J = jmat(1)
        values = []
        for s in (0.3 + 0.8j, -1.1 + 0.4j, 2.0 - 3.0j):
            PsiJ = power_spectrum(sys, vac, s) @ J
            values.append(PsiJ[1, 1] * np.polyval(den, s))
        assert np.allclose(values, -3088.0, atol=1e-8)
        # (1,1) entry tends to 1 at infinity
        s = 1e6 + 1e5j
        assert abs((power_spectrum(sys, vac, s) @ J)[0, 0] - 1.0) < 1e-6

    def test_gauge_invariance(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        out = gauge_transform(sys, random_symplectic(rng, 2))
        V = InputCovariance(*random_pure_input(rng, 1))
        for s in default_grid(sys, 11):
            assert np.linalg.norm(
                power_spectrum(sys, V, s) - power_spectrum(out, V, s)
            ) < 1e-9

    def test_axis_values_are_covariances(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        V = InputCovariance(*random_pure_input(rng, 1))
        for w in (0.0, 0.7, -2.3):
            Psi = power_spectrum(sys, V, -1j * w)
            nus = williamson(Psi, 1).symplectic_eigenvalues
            assert np.min(nus) > -1e-9

    def test_mixed_inputs_accepted(self, rng):
        sys = random_qlsystem(rng, 1, 1)
        thermal = InputCovariance([[0.7]], [[0.0]])
        Psi = power_spectrum(sys, thermal, -0.5j)
        assert Psi.shape == (2, 2)


class TestGlobalMinimality:
    def test_passive_vacuum_not_gm(self, rng):
        sys = random_qlsystem(rng, 2, 1, passive=True)
        assert not is_globally_minimal(sys, InputCovariance.vacuum(1))

    def test_one_mode_example_gm(self):
        assert is_globally_minimal(active_one_mode_example(), InputCovariance.vacuum(1))

    def test_gm2_family_verdicts(self):
        V = squeezed_input(0.5)
        for x, expected in ((0.0, True), (8.0, True), (-1.0, False), (-4.0, False)):
            assert is_globally_minimal(gm2_system(x), V) == expected

    def test_mixed_input_rejected(self, rng):
        sys = random_qlsystem(rng, 1, 1)
        with pytest.raises(ValueError):
            is_globally_minimal(sys, InputCovariance([[0.4]], [[0.0]]))


class TestSisoPassiveGm:
    def test_detuned_cavity_gm(self):
        out = siso_passive_gm(cavity(kappa=1.0, omega0=2.0), squeezed_input(0.5))
        assert out["globally_minimal"]
        assert out["reducible_eigs"] == []

    def test_gm2_reducible_sets(self):
        V = squeezed_input(0.5)
        out = siso_passive_gm(gm2_system(-1.0), V)
        assert not out["globally_minimal"]
        assert len(out["reducible_eigs"]) == 1
        assert abs(out["reducible_eigs"][0].imag) < 1e-9  # one real eigenvalue
        out = siso_passive_gm(gm2_system(-4.0), V)
        assert len(out["reducible_eigs"]) == 2  # conjugate pair

    def test_opposite_detuning_pair_reducible(self):
        c, om = 1.1, 0.9
        first = cavity(kappa=c * c, omega0=om)
        second = cavity(kappa=c * c, omega0=-om)
        casc = series_product(first, second)
        out = siso_passive_gm(casc, squeezed_input(0.3))
        assert not out["globally_minimal"]
        assert len(out["reducible_eigs"]) == 2

    def test_vacuum_input_rejected(self):
        with pytest.raises(ValueError):
            siso_passive_gm(cavity(), InputCovariance.vacuum(1))


class TestPureMixedSplit:
    def test_gm_system_has_empty_pure_part(self):
        out = pure_mixed_split(active_one_mode_example(), InputCovariance.vacuum(1))
        assert out["pure"] is None
        assert out["mixed"].n == 1

    def test_gm2_dimensions(self):
        V = squeezed_input(0.5)
        out = pure_mixed_split(gm2_system(-4.0), V)
        assert out["pure"].n == 2 and out["mixed"] is None
        out = pure_mixed_split(gm2_system(-1.0), V)
        assert out["pure"].n == 1 and out["mixed"].n == 1

    def test_split_reconstructs_tf_and_ps(self):
        V = squeezed_input(0.5)
        out = pure_mixed_split(gm2_system(-1.0), V)
        casc = series_product(out["pure"], out["mixed"])
        assert tf_equal(casc, out["rotated"], tol=1e-6)
        # the mixed stage alone carries the whole (vacuum-basis) power spectrum
        vac = InputCovariance.vacuum(1)
        for s in default_grid(out["rotated"], 11):
            assert np.linalg.norm(
                power_spectrum(out["mixed"], vac, s) - power_spectrum(out["rotated"], vac, s)
            ) < 1e-7

    def test_pure_component_is_passive(self):
        out = pure_mixed_split(gm2_system(-4.0), squeezed_input(0.5))
        assert out["pure"].is_passive

    def test_split_consistent_with_gm(self, rng):
        vac1 = InputCovariance.vacuum(1)
        for _ in range(10):
            sys = random_qlsystem(rng, 2, 1)
            gm = is_globally_minimal(sys, vac1)
            out = pure_mixed_split(sys, vac1)
            assert (out["pure"] is None) == gm


class TestPsCascadeEmbedding:
    def test_uncoupled_embedding_constant(self):
        sys = QLSystem.from_blocks([[0.0]], [[0.0]], [[0.0]], [[0.0]])
        emb = ps_cascade_embedding(sys, InputCovariance.vacuum(1))
        for s in (0.3 + 1j, -2.0j, 1.5):
            assert np.linalg.norm(emb.transfer(s) - vacuum_covariance(1)) < 1e-12

    def test_one_mode_example_matches_psj(self):
        sys = active_one_mode_example()
        vac = InputCovariance.vacuum(1)
        emb = ps_cascade_embedding(sys, vac)
        J = jmat(1)
        for s in default_grid(sys, 21):
            PsiJ = power_spectrum(sys, vac, s) @ J
            assert np.linalg.norm(emb.transfer(s) - PsiJ) < 1e-6

    def test_embedding_drift_is_proper_lbt(self):
        sys = active_one_mode_example()
        emb = ps_cascade_embedding(sys, InputCovariance.vacuum(1))
        n2 = sys.A.shape[0]
        assert np.linalg.norm(emb.A[:n2, n2:]) < 1e-12
        top = np.linalg.eigvals(emb.A[:n2, :n2])
        bottom = np.linalg.eigvals(emb.A[n2:, n2:])
        assert np.min(top.real) > 0
        assert np.max(bottom.real) < 0

    def test_minimality_iff_global_minimality(self, rng):
        from qls.model import controllability_matrix, observability_matrix

        hits = {True: 0, False: 0}
        for k in range(20):
            if k % 2:
                sys = gm2_system(-1.0 if k % 4 == 1 else -4.0)
                V = squeezed_input(0.5)
            else:
                sys = random_qlsystem(rng, 2, 1)
                V = InputCovariance.vacuum(1)
            gm = is_globally_minimal(sys, V)
            emb = ps_cascade_embedding(sys, V)
            ctrb = controllability_matrix(emb.A, emb.B)
            obsv = observability_matrix(emb.C, emb.A)
            sv_c = np.linalg.svd(ctrb, compute_uv=False)
            sv_o = np.linalg.svd(obsv, compute_uv=False)
            minimal = (
                np.sum(sv_c > 1e-9 * sv_c[0]) == emb.A.shape[0]
                and np.sum(sv_o > 1e-9 * sv_o[0]) == emb.A.shape[0]
            )
            assert minimal == gm, f"case {k}"
            hits[gm] += 1
        assert hits[True] and hits[False]
