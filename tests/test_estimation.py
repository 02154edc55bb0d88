import dataclasses
import re

import numpy as np
import pytest

from qls.algebra import Delta, du_blocks, jmat
from qls import estimation
from qls.estimation import (
    GL_FIRST,
    _dpsi,
    _fisher_density,
    _gauss_kronrod,
    _gauss_legendre,
    coherent_qfi,
    destabilized_scaling_check,
    ensemble_coupling_profile,
    gauge_tangent_family,
    multiparam_noon_bounds,
    squeezed_coherent_qfi,
    stationary_qfi_rate_freq,
    stationary_qfi_rate_time,
)
from qls.model import ParamFamily, QLSystem, _tangent_response, freq_response, series_product
from qls.sampling import (
    random_hermitian_doubled_up,
    random_pure_input,
    random_qlsystem,
    random_symplectic,
)
from qls.stationary import InputCovariance, power_spectrum

from conftest import cavity, squeezed_input, squeezing_family


def cavity_omega_family(c):
    return ParamFamily(
        evaluate=lambda th: QLSystem.passive([[1.0]], [[c]], [[th]]), fd_step=1e-6
    )


def cavity_coupling_family(a):
    return ParamFamily(
        evaluate=lambda th: QLSystem.passive([[1.0]], [[th]], [[a]]), fd_step=1e-7
    )


def weak_mode_family(g):
    """Omega = [[0, g], [g, theta]], C = [[1, 0]]: the second mode's damping ~ 2 g^2 vanishes with g.

    With the squeezed input N = 0.5 the stationary QFI rate at theta = 0 is
    3 / g^2 + 12, a closed form that neither route can bias.
    """
    return ParamFamily(evaluate=lambda th: QLSystem.passive(
        [[1.0]], [[1.0, 0.0]], [[0.0, g], [g, th]]), fd_step=1e-7)


def random_active_family(rng, n=1, m=1, vary_coupling=True, S=None):
    base = random_qlsystem(rng, n, m)
    dOm = random_hermitian_doubled_up(rng, n, 0.5)
    if vary_coupling:
        dCm = 0.3 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        dCp = 0.2 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    else:
        dCm = np.zeros((m, n))
        dCp = np.zeros((m, n))

    def evaluate(theta):
        om, op = du_blocks(base.Omega + theta * dOm)
        cm, cp = du_blocks(base.C)
        return QLSystem.from_blocks(
            cm + theta * dCm, cp + theta * dCp, 0.5 * (om + om.conj().T), 0.5 * (op + op.T), S=S
        )

    return ParamFamily(evaluate=evaluate, fd_step=1e-6)


class TestCoherentQfi:
    def test_cavity_detuning_sensitivity(self):
        c, E = 1.3, 2.0
        fam = cavity_omega_family(c)
        rep = coherent_qfi(fam, 0.7, 0.7, [np.sqrt(E)])
        assert abs(rep.value - 64.0 * E / c**4) < 1e-6 * (64.0 * E / c**4)

    def test_cavity_coupling_optimal_frequency(self):
        a, c = 0.9, 1.3
        fam = cavity_coupling_family(a)
        grid = np.linspace(a - 3, a + 3, 6001)
        rep = coherent_qfi(fam, c, None, [1.0], optimize_omega=True, grid=grid)
        w = rep.diagnostics["omega_opt"]
        assert min(abs(w - (a + c * c / 2)), abs(w - (a - c * c / 2))) < 2e-3
        # peak sensitivity |dXi/dc| = 2/c at the optimum
        assert abs(rep.value - 4.0 * (2.0 / c) ** 2) < 1e-3

    def test_theta_independent_family_is_blind(self):
        fam = ParamFamily(evaluate=lambda th: QLSystem.passive([[1]], [[1.0]], [[0.5]]))
        rep = coherent_qfi(fam, 0.0, 0.3, [1.0])
        assert abs(rep.value) < 1e-12

    def test_phase_invariance_of_alpha(self):
        fam = cavity_omega_family(1.1)
        a = coherent_qfi(fam, 0.4, 0.4, [1.2]).value
        b = coherent_qfi(fam, 0.4, 0.4, [1.2 * np.exp(0.7j)]).value
        assert abs(a - b) < 1e-9 * max(1.0, a)


class TestSqueezedCoherentQfi:
    def test_equal_split_approaches_heisenberg(self):
        E = 400.0
        rep = squeezed_coherent_qfi(dlambda=1.0, E=E)
        assert rep.value > 0.9 * E * E
        assert abs(rep.diagnostics["leading_order"] - E * E) < 1e-9

    def test_single_arm_is_linear(self):
        # all energy coherent: F = |dlambda|^2 E e^{0} ... reduces to O(E)
        E = 400.0
        r = 0.0
        F_coherent_only = 1.0 * (E * np.exp(2 * r))  # displacement arm alone
        assert F_coherent_only == pytest.approx(E)

    def test_mimo_zero_matrix(self):
        assert squeezed_coherent_qfi(L=np.zeros((2, 2)), E=3.0).value == 0.0

    def test_mimo_spectral_norm(self):
        L = np.diag([2.0, 1.0])
        rep = squeezed_coherent_qfi(L=L, E=3.0)
        assert rep.value == pytest.approx(9.0 * 4.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            squeezed_coherent_qfi(dlambda=1.0, L=np.eye(2), E=1.0)


class TestStationaryRates:
    def test_cavity_closed_form_time_domain(self):
        c, N = 1.3, 0.8
        fam = cavity_omega_family(c)
        V = squeezed_input(N)
        rep = stationary_qfi_rate_time(fam, 0.0, V)
        target = 16.0 * N * (N + 1.0) / c**2
        assert abs(rep.value - target) < 1e-8 * target

    def test_cavity_closed_form_freq_domain(self):
        c, N = 1.3, 0.8
        fam = cavity_omega_family(c)
        V = squeezed_input(N)
        rep = stationary_qfi_rate_freq(fam, 0.0, V)
        target = 16.0 * N * (N + 1.0) / c**2
        assert abs(rep.value - target) < 1e-8 * target

    def test_narrow_peak_cavity_freq_domain(self):
        c, N = 0.03, 0.8
        rep = stationary_qfi_rate_freq(cavity_omega_family(c), 0.0, squeezed_input(N))
        target = 16.0 * N * (N + 1.0) / c**2
        assert abs(rep.value - target) < 1e-8 * target

    def test_passive_vacuum_rate_vanishes(self):
        fam = cavity_omega_family(1.3)
        rep = stationary_qfi_rate_time(fam, 0.0, InputCovariance.vacuum(1))
        assert abs(rep.value) < 1e-12

    def test_gauge_tangent_nullity(self, rng):
        # the family carries its closed-form tangent, so D = dC + 2 i C J B cancels to rounding
        for _ in range(3):
            sys = random_qlsystem(rng, 2, 1)
            R = random_hermitian_doubled_up(rng, 2)
            fam = gauge_tangent_family(sys, R)
            V = squeezed_input(0.3)
            rep = stationary_qfi_rate_time(fam, 0.0, V)
            scale = np.linalg.norm(sys.C) ** 2 + np.linalg.norm(sys.Omega) ** 2
            assert rep.diagnostics["tangent"] == "exact"
            assert abs(rep.value) < 1e-12 * scale

    @pytest.mark.xfail(strict=True, raises=RuntimeError,
                       reason="the convergence floor 1e-13 * integral ||dXi V Xi^dag||^2 vanishes with dXi")
    def test_gauge_tangent_nullity_freq_route(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        fam = gauge_tangent_family(sys, random_hermitian_doubled_up(rng, 2))
        rep = stationary_qfi_rate_freq(fam, 0.0, squeezed_input(0.3))
        scale = np.linalg.norm(sys.C) ** 2 + np.linalg.norm(sys.Omega) ** 2
        assert abs(rep.value) < 1e-12 * scale

    @pytest.mark.parametrize("route", (stationary_qfi_rate_freq, stationary_qfi_rate_time), ids=("freq", "time"))
    @pytest.mark.parametrize("eps", (0.1, 0.5, 2.0))
    def test_mixed_input_raises(self, route, eps):
        """Squeezing r = 0.6 plus thermal noise eps on N: the pure-state formulas do not apply.

        At eps > 0 the time route used to return 5.321, 9.178 and 35.04 and the
        freq route 4.557 whatever eps, both without a word.
        """
        r = 0.6
        V = InputCovariance([[np.sinh(r) ** 2 + eps]], [[np.sinh(r) * np.cosh(r)]])
        nu = np.max(V.normal_form.symplectic_eigenvalues)
        message = f"input covariance is mixed (max symplectic eigenvalue {nu:.3e})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(cavity_omega_family(np.sqrt(2.0)), 0.0, V)
        if route is stationary_qfi_rate_time:
            with pytest.raises(ValueError, match="^input covariance is mixed"):
                destabilized_scaling_check(cavity_omega_family, [np.sqrt(2.0), 1.0], V)

    @pytest.mark.parametrize("route", (stationary_qfi_rate_freq, stationary_qfi_rate_time), ids=("freq", "time"))
    def test_pure_squeezed_input_rate(self, route):
        """The eps = 0 end of ``test_mixed_input_raises``: 16 N (N + 1) / c^2 = 4 sinh^2(1.2) / 2."""
        r = 0.6
        V = InputCovariance([[np.sinh(r) ** 2]], [[np.sinh(r) * np.cosh(r)]])
        rate = route(cavity_omega_family(np.sqrt(2.0)), 0.0, V).value
        assert abs(rate - 2.0 * np.sinh(2 * r) ** 2) <= 1e-9 * rate  # 4.5569

    @pytest.mark.parametrize("route", (stationary_qfi_rate_freq, stationary_qfi_rate_time, coherent_qfi),
                             ids=("freq", "time", "coherent"))
    def test_diagnostics_say_how_the_tangent_was_taken(self, route):
        """"exact" for a family carrying its tangent, else "central_difference" with its fd_step."""
        from qls.io import family_from_json, system_to_json

        spec = {"base": system_to_json(cavity(1.3**2, 0.0)), "fd_step": 1e-6,
                "dependencies": [{"target": "Omega.minus", "row": 0, "col": 0, "coefficient": [1.0, 0.0]}]}
        args = (0.5, [1.0]) if route is coherent_qfi else (squeezed_input(0.5),)
        exact = route(family_from_json(spec), 0.0, *args)
        difference = route(cavity_omega_family(1.3), 0.0, *args)
        assert exact.diagnostics["tangent"] == "exact" and "fd_step" not in exact.diagnostics
        assert difference.diagnostics["tangent"] == "central_difference"
        assert difference.diagnostics["fd_step"] == 1e-6
        assert abs(exact.value - difference.value) <= 1e-8 * exact.value

    def test_time_freq_agreement_random_families(self, rng):
        for k in range(4):
            fam = random_active_family(rng, n=1 + k % 2, m=1)
            V = InputCovariance(*random_pure_input(rng, 1))
            ft = stationary_qfi_rate_time(fam, 0.0, V).value
            ff = stationary_qfi_rate_freq(fam, 0.0, V).value
            assert abs(ft - ff) <= 1e-8 * max(abs(ft), 1e-9)

    def test_time_freq_agreement_two_channel_coupling_families(self, rng):
        # C depends on theta and m = 2: the integrand decays only as 1/w^2
        for n in (1, 2, 2):
            fam = random_active_family(rng, n=n, m=2, vary_coupling=True)
            V = InputCovariance(*random_pure_input(rng, 2))
            ft = stationary_qfi_rate_time(fam, 0.0, V).value
            ff = stationary_qfi_rate_freq(fam, 0.0, V).value
            assert abs(ft - ff) <= 1e-8 * abs(ft)

    @pytest.mark.parametrize("seed", range(10))
    def test_time_freq_agreement_fixed_scattering(self, seed):
        # a theta-independent S != 1 scatters the input into S V S^dag before the system sees it
        rng = np.random.default_rng([seed, 5])
        n, m = 1 + seed % 3, 1 + seed % 2
        fam = random_active_family(rng, n=n, m=m, S=random_symplectic(rng, m, 0.4))
        V = InputCovariance(*random_pure_input(rng, m))
        ft = stationary_qfi_rate_time(fam, 0.0, V).value
        ff = stationary_qfi_rate_freq(fam, 0.0, V).value
        assert abs(ft - ff) <= 1e-10 * abs(ft)

    def test_both_routes_take_three_evaluations(self, rng):
        # theta0 and theta0 +/- h, once per family: ``ParamFamily.at`` keeps that point, so
        # a second route on the same family builds no system, and ``replace`` starts afresh
        fam = random_active_family(rng, n=2, m=1)
        calls = []

        def counted(theta):
            calls.append(theta)
            return fam.evaluate(theta)

        counting = lambda: ParamFamily(evaluate=counted, fd_step=fam.fd_step)
        V = InputCovariance(*random_pure_input(rng, 1))
        alone = {}
        for route in (stationary_qfi_rate_time, stationary_qfi_rate_freq):
            calls.clear()
            alone[route] = route(counting(), 0.0, V).value
            assert len(calls) == 3
        shared = counting()
        calls.clear()
        for route in (stationary_qfi_rate_freq, stationary_qfi_rate_time):
            assert route(shared, 0.0, V).value == alone[route]
        assert len(calls) == 3
        calls.clear()
        stationary_qfi_rate_time(dataclasses.replace(shared, fd_step=2e-6), 0.0, V)
        assert calls == [0.0, 2e-6, -2e-6]

    @pytest.mark.parametrize("route", (stationary_qfi_rate_freq, stationary_qfi_rate_time, coherent_qfi),
                             ids=("freq", "time", "coherent"))
    def test_non_finite_theta_is_named(self, route):
        fam = cavity_omega_family(1.3)
        args = (0.5, [1.0]) if route is coherent_qfi else (squeezed_input(0.5),)
        with pytest.raises(ValueError, match="^theta = nan is not finite$"):
            route(fam, np.nan, *args)

    def test_theta_dependent_scattering_dpsi(self):
        fam, _ = squeezing_family()
        V = squeezed_input(0.4)
        omegas = np.linspace(-4.0, 4.0, 33)
        h = 1e-5
        dPsi, _ = _dpsi(_tangent_response(*fam.at(0.0)), V.matrix(), omegas)
        fd = (power_spectrum(fam.evaluate(h), V, -1j * omegas)
              - power_spectrum(fam.evaluate(-h), V, -1j * omegas)) / (2 * h)
        assert np.max(np.abs(dPsi - fd)) <= 1e-8 * np.max(np.abs(fd))
        with pytest.raises(ValueError, match="scattering"):
            stationary_qfi_rate_time(fam, 0.0, V)

    def test_freq_route_raises_when_not_converged(self):
        # S(theta) squeezes a squeezed input: dPsi tends to a nonzero constant
        # at large |w|, so the rate diverges and no rule can converge
        fam, _ = squeezing_family()
        with pytest.raises(RuntimeError, match="did not converge"):
            stationary_qfi_rate_freq(fam, 0.0, squeezed_input(0.4))

    def test_rates_nonnegative(self, rng):
        for _ in range(5):
            fam = random_active_family(rng)
            V = InputCovariance(*random_pure_input(rng, 1))
            assert stationary_qfi_rate_time(fam, 0.0, V).value > -1e-10

    def test_zero_mode_family(self):
        # no poles: the frequency rule is scaled by c = 1, as default_grid takes gap = 1
        V = squeezed_input(0.5)
        bare = ParamFamily(evaluate=lambda th: QLSystem(S=np.eye(2), C=np.zeros((2, 0)),
                                                        Omega=np.zeros((0, 0))))
        assert stationary_qfi_rate_freq(bare, 0.0, V).value == 0.0
        assert stationary_qfi_rate_time(bare, 0.0, V).value == 0.0
        # a theta-dependent squeezer alone: dPsi is a nonzero constant, the rate diverges
        squeezer = ParamFamily(evaluate=lambda th: QLSystem(
            S=Delta([[np.cosh(0.3 + th)]], [[np.sinh(0.3 + th)]]), C=np.zeros((2, 0)),
            Omega=np.zeros((0, 0))))
        with pytest.raises(RuntimeError, match="did not converge"):
            stationary_qfi_rate_freq(squeezer, 0.0, V)

    @pytest.mark.parametrize("route", ("freq", "time", "coherent"))
    def test_channel_count_mismatch_names_both_counts(self, route):
        fam = cavity_omega_family(1.3)
        with pytest.raises(ValueError, match="has 2 channels but the family has 1"):
            if route == "coherent":
                coherent_qfi(fam, 0.0, 0.5, [1.0, 0.5])
            else:
                rate = stationary_qfi_rate_freq if route == "freq" else stationary_qfi_rate_time
                rate(fam, 0.0, InputCovariance.vacuum(2))

    @pytest.mark.parametrize("g", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    def test_near_instability_freq_route_closed_form(self, g):
        """Graded break points resolve the narrow peak's tail: the freq route is right, not 18 % low."""
        fam, V, target = weak_mode_family(g), squeezed_input(0.5), 3.0 / g**2 + 12.0
        assert abs(stationary_qfi_rate_time(fam, 0.0, V).value - target) <= 1e-8 * target
        rep = stationary_qfi_rate_freq(fam, 0.0, V)
        assert abs(rep.value - target) <= 1e-8 * target
        assert rep.diagnostics["max_nodes_per_panel"] <= 32


    def test_cavity_takes_one_kronrod_level(self, monkeypatch):
        """Every panel of the cavity converges on its first 17 nodes: one evaluator call in all."""
        calls = []

        def counted(respond, Vm, omegas):
            calls.append(len(omegas))
            return _dpsi(respond, Vm, omegas)

        monkeypatch.setattr(estimation, "_dpsi", counted)
        rep = stationary_qfi_rate_freq(cavity_omega_family(1.0), 0.0, squeezed_input(0.5))
        assert abs(rep.value - 12.0) <= 1e-8 * 12.0  # 16 N (N + 1) / c^2
        panels = rep.diagnostics["panels"]
        assert calls == [17 * panels]
        assert rep.diagnostics["evaluations"] == 17 * panels
        assert rep.diagnostics["max_nodes_per_panel"] == 17


@pytest.mark.parametrize("c", (1.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8))
def test_cavity_closed_form_both_routes_down_to_weak_coupling(c):
    N = 0.5
    fam, V, target = cavity_omega_family(c), squeezed_input(N), 16.0 * N * (N + 1.0) / c**2
    for rate in (stationary_qfi_rate_freq, stationary_qfi_rate_time):
        assert abs(rate(fam, 0.0, V).value - target) <= 1e-8 * target


def _dpsi_cases():
    """(system, tangent, input) for m = 1, 2, 3, a theta-dependent S and a defective drift."""
    rng = np.random.default_rng(2022)
    cases = {}
    for n, m in ((2, 1), (2, 2), (3, 3)):
        dS = 0.2 * Delta(rng.standard_normal((m, m)), rng.standard_normal((m, m)))
        dC = Delta(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)),
                   0.1 * rng.standard_normal((m, n)))
        cases[f"m{m}"] = (random_qlsystem(rng, n, m), (dS, dC, random_hermitian_doubled_up(rng, n, 0.3)),
                          InputCovariance(*random_pure_input(rng, m)))
    fam, tangent = squeezing_family()
    cases["squeezing"] = (fam.evaluate(0.0), tangent, squeezed_input(0.4))
    pair = series_product(cavity(), cavity())  # two 2 x 2 Jordan blocks once the parts are forgotten
    cases["defective"] = (QLSystem.from_drift(pair.A, pair.C, pair.S),
                          (np.zeros((2, 2)), Delta([[0.3 - 0.2j, 0.5]], [[0.1, 0.0]]),
                           Delta(np.diag([0.4, -0.7]), np.zeros((2, 2)))), squeezed_input(0.5))
    return cases


class TestDpsi:
    @pytest.mark.parametrize("case", ("m1", "m2", "m3", "squeezing", "defective"))
    def test_matches_per_point_loop(self, case):
        sys, tangent, V = _dpsi_cases()[case]
        assert (sys._modal is None) == (case == "defective")  # the dense path
        assert (sys.m == 1) == (case not in ("m2", "m3"))  # G's broadcast sum; m2 and m3 take its einsum
        Vm, omegas = V.matrix(), np.linspace(-5.0, 5.0, 41)
        dPsi, G = _dpsi(_tangent_response(sys, tangent), Vm, omegas)
        # one point per call: no product mixes grid points (the evaluator's own accuracy,
        # against the dense formulas, is tested in test_model)
        loop = []
        for w in omegas:
            (Xi,), (dXi,) = freq_response(sys, [-1j * w], tangent)
            loop.append(dXi @ Vm @ Xi.conj().T)
        loop = np.array(loop)
        assert np.max(np.abs(G - loop)) <= 1e-13 * np.max(np.abs(loop))
        assert np.array_equal(dPsi, G + G.conj().transpose(0, 2, 1))
        J = jmat(sys.m)
        f = -np.array([np.trace(J @ D @ J @ D) for D in dPsi])
        assert np.max(np.abs(f.imag)) <= 1e-13 * np.max(np.abs(f))
        got = _fisher_density(dPsi, np.diag(J).real)
        assert np.max(np.abs(got - f.real)) <= 1e-13 * np.max(np.abs(f))


class TestScalingCheck:
    def test_cavity_sweep_slope_one(self):
        V = squeezed_input(0.8)
        out = destabilized_scaling_check(
            lambda c2: cavity_omega_family(np.sqrt(c2)), [1.0, 0.5, 0.25, 0.125], V
        )
        assert abs(out["slope"] - 1.0) < 0.05

    def test_passive_vacuum_all_zero(self):
        out = destabilized_scaling_check(
            lambda c2: cavity_omega_family(np.sqrt(c2)),
            [1.0, 0.5],
            InputCovariance.vacuum(1),
        )
        assert all(abs(r["f"]) < 1e-12 for r in out["rows"])
        assert out["slope"] == 0.0

    def test_destabilized_mode_in_two_mode_system(self):
        # mode 2 weakly coupled: its pole dominates tau and f follows tau
        V = squeezed_input(0.5)

        def builder(delta):
            def evaluate(theta):
                C = np.array([[1.0, delta]])
                Om = np.array([[0.4, 0.0], [0.0, theta]])
                return QLSystem.passive([[1.0]], C, Om)

            return ParamFamily(evaluate=evaluate, fd_step=1e-6)

        out = destabilized_scaling_check(builder, [0.5, 0.35, 0.25, 0.18], V, theta0=0.9)
        assert abs(out["slope"] - 1.0) < 0.15

    def test_weak_mode_sweep_closed_form(self):
        gs = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        out = destabilized_scaling_check(weak_mode_family, gs, squeezed_input(0.5))
        for g, row in zip(gs, out["rows"]):
            assert abs(row["f"] - (3.0 / g**2 + 12.0)) <= 1e-8 * row["f"]
        assert abs(out["slope"] - 0.9974) < 1e-4  # f = 3/g^2 + 12 bends away from tau at large g
        tail = destabilized_scaling_check(weak_mode_family, gs[2:], squeezed_input(0.5))
        assert abs(tail["slope"] - 1.0) < 1e-6


class TestMultiparam:
    def test_identity_jacobian_special_case(self):
        N = 10.0
        for d in (2, 3, 4):
            out = multiparam_noon_bounds(np.eye(d), N)
            assert out["trace_cr_strategy1"] == pytest.approx(d**3 / N**2)
            assert out["trace_cr_strategy2_min"] <= d**2 / N**2 + 1e-12

    def test_d4_closed_values(self):
        out = multiparam_noon_bounds(np.eye(4), N=10.0)
        assert out["trace_cr_strategy2_min"] == pytest.approx(9.0 / 100.0)
        assert out["alpha_opt_sq"] == pytest.approx(1.0 / 6.0)

    def test_single_parameter(self):
        out = multiparam_noon_bounds([[2.0]], N=5.0)
        assert out["trace_cr_strategy1"] == pytest.approx(1.0 / (25.0 * 4.0))
        assert out["trace_cr_strategy2_min"] == pytest.approx(1.0 / (25.0 * 4.0))

    def test_random_ordering(self, rng):
        for _ in range(10):
            J = rng.standard_normal((3, 3))
            if abs(np.linalg.det(J)) < 1e-3:
                continue
            out = multiparam_noon_bounds(J, N=7.0)
            assert out["trace_cr_strategy2_min"] <= out["trace_cr_strategy1"] + 1e-12
            d, det = 3, np.linalg.det(J)
            cof = np.linalg.inv(J).T * det
            H = np.linalg.norm(cof, "fro") ** 2
            assert out["trace_cr_strategy2_min"] <= d * H / (49.0 * det**2) + 1e-12

    def test_singular_jacobian_rejected(self):
        with pytest.raises(ValueError):
            multiparam_noon_bounds(np.zeros((2, 2)), N=1.0)

    @pytest.mark.parametrize("Jac, N, match", [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1.0, "square"),
        ([[1.0, np.nan], [0.0, 1.0]], 1.0, "finite"),
        (np.eye(2), 0.0, "positive"),
        (np.eye(2), -2.0, "positive"),
        (np.eye(2), np.inf, "positive"),
    ], ids=["non-square", "nan", "N0", "N-negative", "N-inf"])
    def test_malformed_input_rejected(self, Jac, N, match):
        with pytest.raises(ValueError, match=match):
            multiparam_noon_bounds(Jac, N)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_verdict_and_bounds_are_scale_invariant(self, d):
        """Jac s for s = 1e-9 ... 1e9: one verdict, the same alpha and ratio, traces as 1 / s^2."""
        rng = np.random.default_rng([d, 36])
        J, N = rng.standard_normal((d, d)) + 2.0 * np.eye(d), 3.0
        ref = multiparam_noon_bounds(J, N)
        u = rng.standard_normal((d, 1))
        rank1 = u @ rng.standard_normal((1, d))
        for s in 10.0 ** np.arange(-9, 10):
            out = multiparam_noon_bounds(J * s, N)
            for key in ("alpha_opt_sq", "ratio"):
                assert out[key] == pytest.approx(ref[key], rel=1e-12)
            for key in ("trace_cr_strategy1", "trace_cr_strategy2_min"):
                assert out[key] * s * s == pytest.approx(ref[key], rel=1e-12)
            if d > 1:
                with pytest.raises(ValueError, match="singular Jacobian"):
                    multiparam_noon_bounds(rank1 * s, N)
        # the old absolute floor called 1e-7 I singular while it accepted 1e-6 I
        assert multiparam_noon_bounds(1e-7 * np.eye(2), 10)["ratio"] == pytest.approx(
            multiparam_noon_bounds(np.eye(2), 10)["ratio"], rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_closed_form_matches_triple_sum(self, d):
        """The bounds from K as d times the row variances equal those from the triple sum of K."""
        rng = np.random.default_rng([d, 24])
        J, N = rng.standard_normal((d, d)) + 2.0 * np.eye(d), 3.0
        det = np.linalg.det(J)
        cof = np.linalg.inv(J).T * det
        H = np.linalg.norm(cof, "fro") ** 2
        K = 0.0
        for j in range(d):
            for l in range(d):
                for mdx in range(d):
                    K += 0.5 * (cof[j, l] - cof[j, mdx]) ** 2
        disc = np.sqrt(max(4.0 * d * H * (d * H - K), 0.0))
        strategy2 = (2.0 * d * H - K + disc) / (4.0 * N * N * det * det)
        out = multiparam_noon_bounds(J, N)
        assert out["trace_cr_strategy1"] == pytest.approx(d * d * H / (N * N * det * det), rel=1e-12)
        assert out["trace_cr_strategy2_min"] == pytest.approx(strategy2, rel=1e-12)
        alpha2 = (2.0 * d * H - disc) / (2.0 * d * K) if K > 0 else 1.0 / (2.0 * d)
        assert out["alpha_opt_sq"] == pytest.approx(alpha2, rel=1e-12)


class TestEnsembleProfile:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_optimum(self, kappa):
        out = ensemble_coupling_profile(kappa)
        assert abs(abs(out["omega_opt"]) - kappa / 2.0) < 1e-6
        assert abs(out["f_opt_sq"] - 4.0) < 1e-6

    def test_zero_frequency_blind(self):
        out = ensemble_coupling_profile(1.0, grid=np.array([0.0]))
        assert out["f_values"][0] == 0.0

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            ensemble_coupling_profile(-1.0)


def test_gauss_legendre_rules_are_shared_read_only():
    x, w = _gauss_legendre(8)
    assert _gauss_legendre(8)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_gauss_kronrod_rule_is_shared_read_only():
    rule = _gauss_kronrod()
    assert _gauss_kronrod() is rule
    for arr in rule:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_gauss_kronrod_rule_exact_to_degree_25():
    x, wk, wg = _gauss_kronrod()
    assert len(x) == 2 * GL_FIRST + 1
    for d in range(27):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        err = abs(wk @ x**d - exact)
        assert err <= 1e-15 if d <= 3 * GL_FIRST + 1 else err > 1e-12, d
    # the embedded Gauss rule: GL_FIRST nodes, exact to degree 2 GL_FIRST - 1
    xg, w8 = _gauss_legendre(GL_FIRST)
    assert np.max(np.abs(x[1::2] - xg)) <= 1e-15
    assert np.array_equal(wg[1::2], w8) and not np.any(wg[::2])


def test_gauss_kronrod_weights_positive_and_symmetric():
    x, wk, _ = _gauss_kronrod()
    assert np.all(np.diff(x) > 0) and np.all(wk > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(wk, wk[::-1])


@pytest.mark.parametrize("k", [8 * 2**j for j in range(8)])  # GL_FIRST, doubled up to GL_MAX
def test_gauss_legendre_matches_leggauss(k):
    x, w = _gauss_legendre(k)
    xr, wr = np.polynomial.legendre.leggauss(k)
    assert np.max(np.abs(x - xr)) <= 1e-14
    # at k = 1024 the end weights of leggauss itself are off by ~5e-10 relative
    # (1.5e-14 absolute); the mpmath test below checks those
    assert np.max(np.abs(w - wr)) <= (1e-14 if k < 1024 else 2e-14)


def test_gauss_legendre_end_weights_against_mpmath():
    mp = pytest.importorskip("mpmath")
    k = 1024
    x, w = _gauss_legendre(k)
    with mp.workdps(30):
        for i in (0, 1, 2, k // 2):
            z = mp.mpf(float(x[i]))
            for _ in range(3):  # Newton on the 30-digit recurrence
                p0, p1 = mp.mpf(1), z
                for j in range(1, k):
                    p0, p1 = p1, ((2 * j + 1) * z * p1 - j * p0) / (j + 1)
                dp = k * (p0 - z * p1) / (1 - z * z)
                z -= p1 / dp
            ref = 2 / ((1 - z * z) * dp * dp)
            assert abs(x[i] - float(z)) <= np.spacing(1.0)
            assert abs(w[i] - float(ref)) <= 1e-10 * float(ref)


@pytest.mark.parametrize("c", (1e-6, 1e-8))
def test_weak_cavity_time_route_closed_form(c):
    # pole -c^2/2 down to -5e-17: Hurwitz by the relative margin
    N = 0.8
    rep = stationary_qfi_rate_time(cavity_omega_family(c), 0.0, squeezed_input(N))
    target = 16.0 * N * (N + 1.0) / c**2
    assert abs(rep.value - target) <= 1e-8 * target
