import copy

import numpy as np
import pytest

from qls import absorber, algebra, stationary
from qls.absorber import canonicalize_stationary
from qls.algebra import flat_adjoint, jmat, williamson
from qls.estimation import stationary_qfi_rate_time
from qls.model import ParamFamily, QLSystem, default_grid, gauge_transform, series_product, tf_equal
from qls.sampling import random_pure_input, random_qlsystem, random_symplectic
from qls.stationary import (
    InputCovariance,
    is_globally_minimal,
    power_spectrum,
    ps_cascade_embedding,
    pure_mixed_split,
    solve_lyapunov,
)

from conftest import (
    absorber_two_mode_example,
    active_one_mode_example,
    cavity,
    gm2_system,
    mpmath_lyap,
    non_normal_triangular,
    siso_passive_gm,
    squeezed_input,
    two_mode_cascade_example,
)


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
        assert np.linalg.norm(st.P - InputCovariance.vacuum(1).matrix()) < 1e-12
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

    def test_route_is_recorded(self):
        vac = InputCovariance.vacuum(1)
        modal = solve_lyapunov(absorber_two_mode_example(), vac)
        assert modal.route == "modal" and modal.residual <= 1e-14
        defective = solve_lyapunov(gm2_system(0.0), vac)  # kappa_F(V) ~ 1e8: the direct route
        assert defective.route == "direct" and defective.residual <= 1e-14


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
        """Neither an ``eig`` nor a direct-route solve of the whole drift: only the parts' eigs."""
        direct_sizes, eig_sizes = [], []
        direct, eig = algebra._direct_lyap, np.linalg.eig

        def counting_direct(X, Q):
            direct_sizes.append(np.shape(X)[0])
            return direct(X, Q)

        def counting_eig(X):
            eig_sizes.append(np.shape(X)[0])
            return eig(X)

        monkeypatch.setattr(algebra, "_direct_lyap", counting_direct)
        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        rng = np.random.default_rng(7)
        cascade = series_product(_separated_part(rng, 3, 1), _separated_part(rng, 5, 1))
        assert solve_lyapunov(cascade, InputCovariance.vacuum(1)).route == "modal"
        assert direct_sizes == [] and sorted(eig_sizes) == [6, 10]  # the parts' own eigs
        eig_sizes.clear()
        res = absorber.dual_system(absorber_two_mode_example())
        assert direct_sizes == [] and max(eig_sizes) == 4  # 2-mode systems only, never the 4-mode cascade
        assert res.combined.n == 4

    def test_ill_conditioned_whole_drift_is_rerouted_to_direct(self):
        """The 1 + 1 cascade of test_matches_dense_solve, solved whole: kappa_F(V) ~ 310."""
        rng = np.random.default_rng([1, 1, 1])
        cascade = series_product(_separated_part(rng, 1, 1), _separated_part(rng, 1, 1))
        V = InputCovariance(*random_pure_input(rng, 1))
        X, Q = cascade.A, -stationary._noise_matrix(cascade, V)
        modal = algebra._eig_modal(X)
        assert modal is not None and not algebra._meets_residual(X, algebra._modal_lyap(modal, Q), Q)
        M, route = algebra._lyap(X, Q, modal)
        assert route == "direct" and np.array_equal(M, algebra._direct_lyap(X, Q))
        exact = mpmath_lyap(X, Q)
        assert np.linalg.norm(M - exact) <= 1e-13 * np.linalg.norm(exact)
        assert solve_lyapunov(QLSystem.from_drift(X, cascade.C, cascade.S), V).route == "direct"
        assert solve_lyapunov(cascade, V).route == "modal"  # the parts are well conditioned

    def test_zero_mode_parts(self, rng):
        V = InputCovariance(*random_pure_input(rng, 1))
        empty = QLSystem(S=random_symplectic(rng, 1), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        state = solve_lyapunov(empty, V)
        assert state.P.shape == (0, 0) and state.symplectic_spectrum.shape == (0,)
        for cascade in (series_product(empty, cavity()), series_product(cavity(), empty)):
            want = solve_lyapunov(QLSystem.from_drift(cascade.A, cascade.C, cascade.S), V).P
            assert np.linalg.norm(solve_lyapunov(cascade, V).P - want) <= 1e-12
        assert solve_lyapunov(series_product(empty, empty), V).P.shape == (0, 0)


def _fallback_sweep(family):
    """Seeded (X, Q) draws with Hurwitz X and Hermitian Q on which the modal route is weak or absent."""
    if family == "jordan":  # exactly defective: one eigenvector
        for n in range(2, 65):
            Q = np.random.default_rng([n, 19]).standard_normal((n, n))
            yield (-1.0 - 0.5j) * np.eye(n) + np.eye(n, k=1), Q + Q.T + 0j
    elif family == "gm2":  # a double pole at x = 0, nearly double near it
        for x in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3):
            sys = gm2_system(x)
            for V in (InputCovariance.vacuum(1), squeezed_input(0.5)):
                yield sys.A, -stationary._noise_matrix(sys, V)
    elif family == "cascade":  # whole k + k cascades, kappa_F(V) up to ~1e3 and past it
        for k in range(1, 9):
            for seed in range(20):
                rng = np.random.default_rng([k, seed, 19])
                cascade = series_product(_separated_part(rng, k, 1), _separated_part(rng, k, 1))
                V = InputCovariance(*random_pure_input(rng, 1))
                yield cascade.A, -stationary._noise_matrix(cascade, V)
    else:  # non-normal triangular, and in a random unitary basis
        for n, rotate in [(n, False) for n in (2, 4, 8, 16, 32, 64)] + [(n, True) for n in (4, 5, 6, 8, 16, 32)]:
            for seed in range(10 if rotate else 3):
                rng = np.random.default_rng([n, seed, 19])
                X = non_normal_triangular(rng, n)
                if rotate:
                    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                    X = U @ X @ U.conj().T
                Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                yield X, Q + Q.conj().T


@pytest.mark.parametrize("family", ["jordan", "gm2", "cascade", "triangular"])
def test_direct_route_sweep(family, monkeypatch):
    """The direct route meets the residual gate on every draw; it agrees with scipy's
    Bartels-Stewart solve except on the triangular draws, whose forward error is
    bounded only by their (large) condition numbers.  Sizes up to KRON_MAX never
    reach ``_schur_lyap`` (one Kronecker LU suffices) and every larger size does."""
    from scipy.linalg import solve_sylvester

    escalated = []
    schur_lyap = algebra._schur_lyap
    monkeypatch.setattr(algebra, "_schur_lyap", lambda X, Qs: escalated.append(len(X)) or schur_lyap(X, Qs))
    sizes = []
    for X, Q in _fallback_sweep(family):
        sizes.append(len(X))
        M, route = algebra._lyap(X, Q, None)
        assert route == "direct" and algebra._meets_residual(X, M, Q)
        if family != "triangular":
            ref = solve_sylvester(X, X.conj().T, Q)
            assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)
    assert escalated == [n for n in sizes if n > algebra.KRON_MAX]


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
    """The Williamson form of P is computed on first use of ``StationaryState.normal_form``,
    once, and reused downstream; a caller that needs only P computes none."""

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

    def test_time_route_adds_no_call(self, calls):
        # a theta-independent S != 1 scatters the input; no second covariance is built for it
        S = random_symplectic(np.random.default_rng(3), 1, 0.4)
        fam = ParamFamily(evaluate=lambda th: QLSystem(
            S=S, C=algebra.Delta([[1.1]], [[0.2]]), Omega=algebra.Delta([[0.4 + th]], [[0.0]])))
        V = squeezed_input(0.3)
        assert calls == [2]
        stationary_qfi_rate_time(fam, 0.0, V)
        assert calls == [2]

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
            assert np.linalg.norm(power_spectrum(sys, vac, s) - vac.matrix()) < 1e-9

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

    def test_two_mode_cascade_example_gm(self):
        # symplectic eigenvalues 2.1e-5 and 0.15: mixed, though far closer to pure than
        # to the scale of P; the PBH controllability cross-check agrees
        assert is_globally_minimal(two_mode_cascade_example(), InputCovariance.vacuum(1))

    def test_gm2_family_verdicts(self):
        V = squeezed_input(0.5)
        for x, expected in ((0.0, True), (8.0, True), (-1.0, False), (-4.0, False)):
            assert is_globally_minimal(gm2_system(x), V) == expected

    def test_mixed_input_rejected(self, rng):
        sys = random_qlsystem(rng, 1, 1)
        with pytest.raises(ValueError):
            is_globally_minimal(sys, InputCovariance([[0.4]], [[0.0]]))

    def test_zero_mode_system_is_globally_minimal(self):
        sys = QLSystem(S=algebra.Delta(np.exp(0.3j)), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        assert is_globally_minimal(sys, InputCovariance.vacuum(1))
        assert is_globally_minimal(sys, squeezed_input(0.5))

    def test_builds_no_system(self, monkeypatch):
        # the cross-check reads the system's own drift and poles: the rotation to
        # vacuum leaves the drift unchanged, so no rotated copy is needed
        sys, V = gm2_system(0.0), squeezed_input(0.5)
        built = []
        post_init = QLSystem.__post_init__
        monkeypatch.setattr(QLSystem, "__post_init__", lambda self: built.append(1) or post_init(self))
        verdict, _ = stationary._global_minimality(sys, V, stationary.GM_TOL)
        assert verdict and built == []


@pytest.mark.parametrize("entry", ("solve_lyapunov", "is_globally_minimal", "power_spectrum",
                                   "pure_mixed_split", "ps_as_rational", "ps_cascade_embedding"))
def test_channel_count_mismatch_names_both_counts(entry):
    from qls import realization

    call = {
        "solve_lyapunov": solve_lyapunov,
        "is_globally_minimal": is_globally_minimal,
        "power_spectrum": lambda sys, V: power_spectrum(sys, V, -0.5j),
        "pure_mixed_split": pure_mixed_split,
        "ps_as_rational": realization.ps_as_rational,
        "ps_cascade_embedding": ps_cascade_embedding,
    }[entry]
    with pytest.raises(ValueError, match="input covariance has 2 channels but the system has 1"):
        call(cavity(), InputCovariance.vacuum(2))


class TestSisoPassiveGm:
    """The library's global-minimality test against the passive SISO closed form of conftest."""

    def test_detuned_cavity_gm(self):
        sys, V = cavity(kappa=1.0, omega0=2.0), squeezed_input(0.5)
        out = siso_passive_gm(sys, V)
        assert out["globally_minimal"] and out["reducible_eigs"] == []
        assert is_globally_minimal(sys, V)

    def test_gm2_reducible_sets(self):
        # one real eigenvalue at x = -1, a conjugate pair at x = -4: one pure
        # mode of the split per reducible eigenvalue
        V = squeezed_input(0.5)
        for x, count in ((-1.0, 1), (-4.0, 2)):
            sys = gm2_system(x)
            out = siso_passive_gm(sys, V)
            assert len(out["reducible_eigs"]) == count and not out["globally_minimal"]
            assert not is_globally_minimal(sys, V)
            assert pure_mixed_split(sys, V)["pure"].n == count
        assert abs(siso_passive_gm(gm2_system(-1.0), V)["reducible_eigs"][0].imag) < 1e-9

    def test_opposite_detuning_pair_reducible(self):
        c, om = 1.1, 0.9
        first = cavity(kappa=c * c, omega0=om)
        second = cavity(kappa=c * c, omega0=-om)
        casc = series_product(first, second)
        V = squeezed_input(0.3)
        out = siso_passive_gm(casc, V)
        assert not out["globally_minimal"]
        assert len(out["reducible_eigs"]) == 2
        assert not is_globally_minimal(casc, V)

    def test_vacuum_input_rejected(self):
        # the closed form refuses vacuum, under which a passive system is never informative
        with pytest.raises(ValueError):
            siso_passive_gm(cavity(), InputCovariance.vacuum(1))
        assert not is_globally_minimal(cavity(), InputCovariance.vacuum(1))

    def test_seeded_passive_draws(self):
        # two of the 300 draws (seeds 47 and 291) sit so near a reducible
        # system that the purity cutoff and the PBH cutoff disagree; the
        # library must then raise, never return a verdict the closed form contradicts
        for seed in range(300):
            rng = np.random.default_rng([seed, 7])
            n = rng.integers(1, 5)
            sys = random_qlsystem(rng, n, 1, passive=True)
            V = squeezed_input(rng.uniform(0.1, 1.0))
            try:
                verdict = is_globally_minimal(sys, V)
            except RuntimeError as err:
                assert "criteria disagree" in str(err), seed
                continue
            assert verdict == siso_passive_gm(sys, V)["globally_minimal"], seed


    @pytest.mark.parametrize("seed", (47, 291))
    def test_near_boundary_draws_raise(self, seed):
        # the purity cutoff calls these draws reducible while the controllability margin
        # (PBH 3.8e-4 and 2.0e-5, modal 5.6e-2 and 2.5e-2) stays above gm_tol
        rng = np.random.default_rng([seed, 7])
        n = rng.integers(1, 5)
        sys = random_qlsystem(rng, n, 1, passive=True)
        V = squeezed_input(rng.uniform(0.1, 1.0))
        with pytest.raises(RuntimeError, match="criteria disagree"):
            is_globally_minimal(sys, V)


def _controllability_margins(sys, V):
    """(modal, PBH) margins of the global-minimality cross-check's dual pair (B^dag, A^dag)."""
    from qls.model import _pbh_margin, _reducibility_margin

    assert sys._modal is not None
    B = flat_adjoint(sys.C) @ sys.S @ V.field_transform @ InputCovariance.vacuum(sys.m).matrix()
    return _reducibility_margin(sys, B), _pbh_margin(sys.A.conj().T, B.conj().T, sys.poles.conj())


class TestModalCrossCheck:
    """The cross-check from the eigenbasis gives the PBH verdict it replaced."""

    @pytest.mark.parametrize("n", (1, 2, 4, 8, 16))
    def test_seeded_draws(self, n):
        verdicts = set()
        for m in (1, 2):
            for seed in range(5):
                rng = np.random.default_rng([n, m, seed])
                for passive in (True, False):
                    sys = random_qlsystem(rng, n, m, passive=passive, active_scale=0.4 / n)
                    for V in (InputCovariance.vacuum(m), InputCovariance(*random_pure_input(rng, m))):
                        modal, pbh = _controllability_margins(sys, V)
                        verdicts.add(pbh > algebra.GM_TOL)
                        assert (modal > algebra.GM_TOL) == (pbh > algebra.GM_TOL), (m, seed, passive)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("x", (-8.0, -4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0, 16.0))
    def test_gm2_family(self, x):
        # x = 0 and 8 are defective and take the PBH route (TestClusterRule in test_model)
        modal, pbh = _controllability_margins(gm2_system(x), squeezed_input(0.5))
        assert (modal > algebra.GM_TOL) == (pbh > algebra.GM_TOL)


@pytest.mark.parametrize("gm_tol", (0.0, -1.0))
@pytest.mark.parametrize("entry", ("is_globally_minimal", "pure_mixed_split", "dual_system"))
def test_non_positive_gm_tol_is_named(entry, gm_tol):
    # a threshold <= 0 counts no mode as pure: gm2(-4) would read globally minimal and split
    # with no pure part
    sys, V = gm2_system(-4.0), squeezed_input(0.5)
    call = {
        "is_globally_minimal": lambda: is_globally_minimal(sys, V, gm_tol=gm_tol),
        "pure_mixed_split": lambda: pure_mixed_split(sys, V, gm_tol=gm_tol),
        "dual_system": lambda: absorber.dual_system(sys, gm_tol=gm_tol),
    }[entry]
    with pytest.raises(ValueError, match=f"gm_tol must be > 0, got {gm_tol}"):
        call()


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
            assert np.linalg.norm(emb.transfer(s) - InputCovariance.vacuum(1).matrix()) < 1e-12

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
        from qls.model import _pbh_margin

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
            poles = np.linalg.eigvals(emb.A)
            observable = _pbh_margin(emb.A, emb.C, poles) > 1e-9
            controllable = _pbh_margin(emb.A.conj().T, emb.B.conj().T, poles.conj()) > 1e-9
            minimal = observable and controllable
            assert minimal == gm, f"case {k}"
            hits[gm] += 1
        assert hits[True] and hits[False]
