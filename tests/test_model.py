import dataclasses
import re

import numpy as np
import pytest

from qls.algebra import (
    MODAL_COND_MAX,
    TOL_NUM,
    TOL_STRUCT,
    Delta,
    du_blocks,
    flat_adjoint,
    flat_unitary_residual,
    jmat,
    williamson,
)
from qls.estimation import coherent_qfi
from qls.model import (
    CLUSTER_TOL,
    RANK_TOL,
    ParamFamily,
    QLSystem,
    StateSpace,
    check_pr,
    concatenate,
    default_grid,
    freq_response,
    gauge_transform,
    is_hurwitz,
    is_minimal,
    series_product,
    spectral_gap,
    tf_equal,
    transfer_function,
    _pbh_margin,
    _reducibility_margin,
)
from qls.sampling import (
    random_hermitian_doubled_up,
    random_pure_input,
    random_qlsystem,
    random_symplectic,
)
from qls.stationary import InputCovariance, power_spectrum

from conftest import (
    cavity,
    dpa,
    eigs_close,
    gm2_system,
    rescaled,
    squeezed_input,
    squeezing_family,
    two_mode_cascade_example,
)


class TestDriftMatrix:
    def test_cavity(self):
        sys = cavity(kappa=2.0, omega0=1.3)
        assert np.allclose(sys.A, Delta([[-1j * 1.3 - 1.0]], [[0.0]]))

    def test_no_coupling(self):
        sys = QLSystem.from_blocks([[0.0]], [[0.0]], [[0.9]], [[0.2j]])
        assert np.allclose(sys.A, -1j * jmat(1) @ sys.Omega)

    def test_dpa(self):
        sys = dpa(kappa=3.0, eps=1.0)
        assert np.allclose(sys.A, Delta([[-1.5]], [[0.5]]))

    def test_cached_with_poles(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        assert sys.A is sys.A
        assert sys.poles is sys.poles
        assert eigs_close(sys.poles, np.linalg.eigvals(sys.A), atol=1e-12)


def _exactness_cases(rng):
    """Systems of rectangular and 0-mode shapes: (n, m) = (1, 1), (2, 1), (1, 3), (3, 2), (0, 1), (0, 2)."""
    cases = [random_qlsystem(rng, n, m) for n, m in ((1, 1), (2, 1), (1, 3), (3, 2))]
    for m in (1, 2):  # 2m x 0 C, 0 x 0 Omega
        cases.append(QLSystem(S=random_symplectic(rng, m), C=np.zeros((2 * m, 0)), Omega=np.zeros((0, 0))))
    return cases


class TestDriftExactness:
    def test_equals_j_product_formula(self, rng):
        for sys in _exactness_cases(rng):
            ref = -0.5 * flat_adjoint(sys.C) @ sys.C - 1j * jmat(sys.n) @ sys.Omega
            assert sys.A.shape == (2 * sys.n, 2 * sys.n)
            assert np.array_equal(sys.A, ref)

    def test_from_drift_omega_equals_j_product_formula(self, rng):
        for sys in _exactness_cases(rng):
            # a gauge product: a drift and coupling whose lower blocks are conjugates only to rounding
            T = random_symplectic(rng, sys.n) if sys.n else np.zeros((0, 0))
            Tb = flat_adjoint(T)
            A, C = T @ (sys.A @ Tb), sys.C @ Tb
            Cdu = Delta(*du_blocks(C))
            om, op = du_blocks(1j * jmat(sys.n) @ (A + 0.5 * flat_adjoint(Cdu) @ Cdu))
            out = QLSystem.from_drift(A, C)
            assert np.array_equal(out.Omega, Delta(0.5 * (om + om.conj().T), 0.5 * (op + op.T)))
            assert np.array_equal(out.C, Cdu)


class TestFromDrift:
    def test_roundtrip(self, rng):
        systems = [random_qlsystem(rng, n, m) for n, m in ((1, 1), (2, 1), (2, 2), (3, 2))]
        for sys in systems + [two_mode_cascade_example()]:
            out = QLSystem.from_drift(sys.A, sys.C, sys.S)
            assert np.linalg.norm(out.Omega - sys.Omega) <= 1e-12 * max(1.0, np.linalg.norm(sys.Omega))
            assert np.array_equal(out.C, sys.C)
            assert np.array_equal(out.S, sys.S)

    def test_passive_stays_passive(self, rng):
        sys = random_qlsystem(rng, 2, 1, passive=True)
        out = QLSystem.from_drift(sys.A, sys.C)
        assert out.is_passive
        assert np.array_equal(out.S, np.eye(2))


class TestCheckPR:
    def test_by_construction(self, rng):
        for _ in range(5):
            sys = random_qlsystem(rng, 2, 2)
            assert check_pr(sys.A, sys.C)

    def test_positive_drift_fails(self):
        assert not check_pr(np.eye(2, dtype=complex), np.zeros((2, 2)))

    def test_perturbed_drift_fails_at_tight_tol(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        A = sys.A + 1e-3 * np.eye(4)
        assert not check_pr(A, sys.C, tol=1e-6)
        assert check_pr(A, sys.C, tol=1.0)


class TestTransferFunction:
    def test_cavity_scalar_form(self):
        kappa, om0 = 2.0, 1.3
        sys = cavity(kappa, om0)
        for s in (0.7 - 0.2j, -0.5j, 2.0):
            expect = (s + 1j * om0 - kappa / 2) / (s + 1j * om0 + kappa / 2)
            assert abs(transfer_function(sys, s)[0, 0] - expect) < 1e-12

    def test_dpa_rational_form(self):
        # numerator matches the printed example; the stable denominator is
        # s^2 + kappa s + (kappa^2 - eps^2)/4, consistent with the drift
        # spectrum -kappa/2 +/- eps/2 and with flat-unitarity on the axis
        k, e = 3.0, 1.0
        sys = dpa(k, e)
        for s in (0.3 + 0.1j, -0.8j):
            den = s**2 + k * s + (k**2 - e**2) / 4
            num = np.array([[s**2 - (k**2 + e**2) / 4, -e * k / 2],
                            [-e * k / 2, s**2 - (k**2 + e**2) / 4]])
            assert np.linalg.norm(transfer_function(sys, s) - num / den) < 1e-12

    def test_no_coupling_returns_scattering(self, rng):
        S = random_symplectic(rng, 1)
        sys = QLSystem(S=S, C=np.zeros((2, 2)), Omega=Delta([[0.7]], [[0.0]]))
        assert np.allclose(transfer_function(sys, 0.3 + 1j), S)

    def test_pole_raises(self):
        sys = cavity(2.0, 0.0)
        with pytest.raises(ValueError):
            transfer_function(sys, -1.0)  # eigenvalue of A

    def test_fpr_on_axis(self, rng):
        for _ in range(10):
            sys = random_qlsystem(rng, 2, 2)
            for w in (0.0, 0.77, -3.1, 12.0):
                assert flat_unitary_residual(transfer_function(sys, -1j * w)) < 1e-8

    def test_passive_block_unitary_on_axis(self, rng):
        for _ in range(5):
            sys = random_qlsystem(rng, 2, 2, passive=True)
            Xi = transfer_function(sys, -1j * 0.6)
            block = du_blocks(Xi)[0]
            assert np.linalg.norm(block @ block.conj().T - np.eye(2)) < 1e-10


def per_point_tf(sys, s):
    """The dense one-point formula (1 - C (s - A)^{-1} C^b) S."""
    X = np.linalg.solve(s * np.eye(2 * sys.n) - sys.A, flat_adjoint(sys.C))
    return (np.eye(2 * sys.m) - sys.C @ X) @ sys.S


GRID = np.concatenate([-1j * np.linspace(-6.0, 6.0, 97), 0.4 + 1j * np.linspace(-3.0, 3.0, 11)])


class TestFreqResponse:
    def test_matches_per_point_loop(self, rng):
        systems = []
        for n, m in ((1, 1), (2, 1), (3, 2)):
            base = random_qlsystem(rng, n, m)
            systems.append(QLSystem(S=random_symplectic(rng, m), C=base.C, Omega=base.Omega))
        defective = dpa(kappa=3.0, eps=2.0, detuning=1.0)  # at its exceptional point: the dense route
        assert defective._modal is None
        cascade = series_product(random_qlsystem(rng, 3, 2), random_qlsystem(rng, 2, 2))
        for sys in systems + [defective, cascade]:
            stack = freq_response(sys, GRID)
            loop = np.array([per_point_tf(sys, s) for s in GRID])
            assert stack.shape == (len(GRID), 2 * sys.m, 2 * sys.m)
            assert np.max(np.abs(stack - loop)) <= 1e-12 * np.max(np.abs(loop))
            for s, X in zip(GRID, stack):
                assert np.array_equal(transfer_function(sys, s), X)
        first, second = cascade.parts
        assert np.array_equal(freq_response(cascade, GRID),
                              freq_response(second, GRID) @ freq_response(first, GRID))

    def test_power_spectrum_matches_per_point_loop(self, rng):
        for n, m in ((1, 1), (2, 2)):
            sys = random_qlsystem(rng, n, m)
            V = InputCovariance(*random_pure_input(rng, m))
            stack = power_spectrum(sys, V, GRID)
            loop = np.array([
                per_point_tf(sys, s) @ V.matrix() @ per_point_tf(sys, -np.conj(s)).conj().T
                for s in GRID
            ])
            assert np.max(np.abs(stack - loop)) <= 1e-12 * np.max(np.abs(loop))
            assert np.array_equal(power_spectrum(sys, V, GRID[3]), stack[3])

    def test_tangent_matches_central_differences(self, rng):
        base = random_qlsystem(rng, 2, 2)
        dC = 0.3 * Delta(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        dOm = Delta(np.array([[0.5, 0.2j], [-0.2j, -0.1]]), np.array([[0.1, 0.3], [0.3, 0.0]]))

        def at(theta):
            return QLSystem(S=base.S, C=base.C + theta * dC, Omega=base.Omega + theta * dOm)

        fam, tangent_s = squeezing_family()
        for sys_at, tangent in ((at, (np.zeros((4, 4)), dC, dOm)), (fam.evaluate, tangent_s)):
            h = 1e-5
            Xi, dXi = freq_response(sys_at(0.0), GRID, tangent)
            fd = (freq_response(sys_at(h), GRID) - freq_response(sys_at(-h), GRID)) / (2 * h)
            plain = freq_response(sys_at(0.0), GRID)
            assert np.max(np.abs(Xi - plain)) <= 1e-13 * np.max(np.abs(plain))
            assert np.max(np.abs(dXi - fd)) <= 1e-8 * np.max(np.abs(fd))

    def test_pole_check_names_the_point(self):
        sys = cavity(2.0, 0.0)
        with pytest.raises(ValueError, match=r"\(-1"):
            freq_response(sys, [-0.5j, -1.0, 0.3])

    @pytest.mark.parametrize("point", (np.nan, np.inf, -np.inf), ids=("nan", "+inf", "-inf"))
    @pytest.mark.parametrize("call", (
        lambda s: tf_equal(cavity(), cavity(), grid=[0.3j, s]),
        lambda s: transfer_function(cavity(), s),
        lambda s: transfer_function(gm2_system(0.0), s),  # a defective drift: the dense route
        lambda s: power_spectrum(cavity(), InputCovariance.vacuum(1), [0.3j, s]),
        lambda s: coherent_qfi(squeezing_family()[0], 0.0, None, [1.0]),  # omega None reads as nan
        lambda s: freq_response(series_product(cavity(), cavity(1.0, -0.4)), [s]),
    ), ids=("tf_equal", "modal", "dense", "power_spectrum", "coherent_qfi", "cascade"))
    def test_non_finite_point_raises(self, call, point):
        with pytest.raises(ValueError, match="is not a finite Laplace point"):
            call(point)

    def test_no_modes_and_empty_grid(self, rng):
        S = random_symplectic(rng, 1)
        sys = QLSystem(S=S, C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        assert np.array_equal(freq_response(sys, [0.1j, -2j]), np.array([S, S]))
        assert freq_response(cavity(), []).shape == (0, 2, 2)


def per_point_tangent(sys, s, tangent):
    """The dense one-point derivative of (1 - C R C^b) S along (dS, dC, dOmega), R = (s - A)^{-1}."""
    dS, dC, dOm = tangent
    C, Cb, dCb = sys.C, flat_adjoint(sys.C), flat_adjoint(dC)
    dA = -0.5 * (dCb @ C + Cb @ dC) - 1j * jmat(sys.n) @ dOm
    R = np.linalg.inv(s * np.eye(2 * sys.n) - sys.A)
    X, CR = R @ Cb, C @ R
    return -(dC @ X + CR @ (dA @ X) + CR @ dCb) @ sys.S + (np.eye(2 * sys.m) - C @ X) @ dS


def _tangent(rng, n, m):
    """A seeded doubled-up tangent (dS, dC, dOmega)."""
    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return (0.2 * Delta(cplx((m, m)), cplx((m, m))), Delta(cplx((m, n)), 0.1 * cplx((m, n))),
            random_hermitian_doubled_up(rng, n, 0.3))


def _kappa(sys):
    """kappa_F(V) = sqrt(2n) ||V^-1||_F for the unit-column eigenvectors V of A."""
    _, V = np.linalg.eig(sys.A)
    return np.sqrt(2 * sys.n) * np.linalg.norm(np.linalg.inv(V))


def _rel_errors(got, want):
    """Per-point deviation of two stacks, relative to the largest entry of the reference."""
    return np.max(np.abs(got - want), axis=(1, 2)) / np.max(np.abs(want))


class TestModalForm:
    """``freq_response`` from the eigendecomposition of A, and its dense path."""

    def test_cached_eigendecomposition(self, rng):
        systems = [dpa(), cavity()] + [random_qlsystem(rng, n, m, active_scale=0.4 / n)
                                       for n, m in ((1, 1), (3, 2), (8, 1))]
        for sys in systems:
            lam, V = sys._eig
            assert lam is sys.poles
            assert np.linalg.norm(sys.A @ V - V * lam) <= 1e-13 * np.linalg.norm(sys.A)
            assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-14)
            assert eigs_close(lam, lam.conj(), atol=0.0)  # exact conjugate pairs
            assert sys._modal is not None

    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("n", (8, 16, 32))
    def test_seeded_draws_match_dense_formula(self, n, m):
        # first-order (Bauer-Fike) error scale of the modal form, per point:
        # eps kappa_F(V) (1 + ||A|| / dist(s, spectrum)); it grows near a weakly damped pole
        rng = np.random.default_rng(1000 * n + m)
        for passive in (True, False):
            sys = random_qlsystem(rng, n, m, passive=passive, active_scale=0.4 / n)
            tangent = _tangent(rng, n, m)
            kappa = _kappa(sys)
            assert kappa <= MODAL_COND_MAX
            dist = np.min(np.abs(GRID[:, None] - sys.poles), axis=1)
            bound = 4 * np.finfo(float).eps * kappa * (1 + np.linalg.norm(sys.A, 2) / dist)
            ref = np.array([per_point_tf(sys, s) for s in GRID])
            dref = np.array([per_point_tangent(sys, s, tangent) for s in GRID])
            Xi, dXi = freq_response(sys, GRID, tangent)
            for got, want in ((freq_response(sys, GRID), ref), (Xi, ref), (dXi, dref)):
                err = _rel_errors(got, want)
                assert np.all(err <= bound), (passive, np.max(err / bound))

    @pytest.mark.parametrize("case", ("dpa_exceptional_point", "identical_cavities"))
    def test_defective_drifts_match_dense_formula(self, case, rng):
        if case == "dpa_exceptional_point":
            sys = dpa(kappa=3.0, eps=2.0, detuning=1.0)  # poles -kappa/2 +/- sqrt(eps^2/4 - detuning^2)
        else:  # the cascade's drift with its parts forgotten: two 2 x 2 Jordan blocks
            pair = series_product(cavity(), cavity())
            sys = QLSystem.from_drift(pair.A, pair.C, pair.S)
            assert sys.parts is None
        assert _kappa(sys) > MODAL_COND_MAX
        tangent = _tangent(rng, sys.n, sys.m)
        Xi, dXi = freq_response(sys, GRID, tangent)
        ref = np.array([per_point_tf(sys, s) for s in GRID])
        dref = np.array([per_point_tangent(sys, s, tangent) for s in GRID])
        for got, want in ((freq_response(sys, GRID), ref), (Xi, ref), (dXi, dref)):
            assert np.max(_rel_errors(got, want)) <= 1e-12

    def test_cascade_is_the_product_of_its_parts(self, rng):
        # the product of the parts' responses against the cascade's own dense formula
        ser = series_product(random_qlsystem(rng, 3, 2), random_qlsystem(rng, 2, 2))
        ref = np.array([per_point_tf(ser, s) for s in GRID])
        assert np.max(_rel_errors(freq_response(ser, GRID), ref)) <= 1e-12


class TestMinimalityStability:
    def test_cavity_minimal(self):
        assert is_minimal(cavity())

    def test_uncoupled_not_minimal(self):
        sys = QLSystem.from_blocks([[0.0]], [[0.0]], [[0.9]], [[0.0]])
        assert not is_minimal(sys)

    def test_minimal_but_not_hurwitz_counterexample(self):
        # |c+| > |c-| with equal detunings: stability fails, minimality holds
        sys = QLSystem.from_blocks([[1.0]], [[2.0]], [[1.5]], [[1.5]])
        assert is_minimal(sys)
        assert not is_hurwitz(sys)

    def test_hurwitz_implies_minimal(self, rng):
        checked = 0
        for _ in range(100):
            sys = random_qlsystem(
                rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)), ensure_hurwitz=False
            )
            if is_hurwitz(sys):
                checked += 1
                assert is_minimal(sys)
        assert checked > 50

    def test_cavity_gap(self):
        assert abs(spectral_gap(cavity(kappa=2.0)) - 1.0) < 1e-12
        assert is_hurwitz(cavity())

    def test_dpa_gap(self):
        k, e = 3.0, 1.0
        sys = dpa(k, e)
        assert is_hurwitz(sys)
        assert abs(spectral_gap(sys) - (k / 2 - e / 2)) < 1e-12

    def test_undamped_not_hurwitz(self):
        sys = QLSystem.from_blocks([[0.0]], [[0.0]], [[0.9]], [[0.0]])
        assert not is_hurwitz(sys)

    def test_zero_mode_system(self, rng):
        # pure scattering: an empty spectrum is Hurwitz and every frequency is a grid point
        S = random_symplectic(rng, 2)
        sys = QLSystem(S=S, C=np.zeros((4, 0)), Omega=np.zeros((0, 0)))
        assert is_hurwitz(sys)
        assert spectral_gap(sys) == np.inf
        grid = default_grid(sys, 9)
        assert grid.shape == (9,) and np.all(np.isfinite(grid))
        assert tf_equal(sys, sys)
        assert not tf_equal(sys, QLSystem(S=np.eye(4), C=np.zeros((4, 0)), Omega=np.zeros((0, 0))))

    def test_zero_mode_system_is_minimal(self):
        sys = QLSystem(S=Delta(np.exp(0.3j)), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        assert is_minimal(sys)


def _with_uncoupled_mode(sys):
    """The system plus one mode (frequency 0.7) coupled to nothing."""
    cm, cp = du_blocks(sys.C)
    om, op = du_blocks(sys.Omega)
    om = np.pad(om, ((0, 1), (0, 1)))
    om[-1, -1] = 0.7
    pad = ((0, 0), (0, 1))
    return QLSystem.from_blocks(np.pad(cm, pad), np.pad(cp, pad), om, np.pad(op, ((0, 1), (0, 1))))


def _duplicated(sys):
    """Two identical copies of the system on the same channels: their difference mode is dark."""
    cm, cp = du_blocks(sys.C)
    om, op = du_blocks(sys.Omega)
    eye = np.eye(2)
    return QLSystem.from_blocks(np.hstack([cm, cm]), np.hstack([cp, cp]), np.kron(eye, om), np.kron(eye, op))


class TestMinimalityAtScale:
    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("n", (8, 16, 32))
    def test_seeded_draws(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        for passive in (True, False):
            sys = random_qlsystem(rng, n, m, passive=passive, active_scale=0.4 / n)
            cases = ((sys, True), (_with_uncoupled_mode(sys), False), (_duplicated(sys), False))
            for case, minimal in cases:
                assert is_minimal(case) is minimal, (passive, case.n)
                for t in (1e-6, 1e6):
                    assert is_minimal(rescaled(case, t)) is minimal, (passive, case.n, t)


def _detuned_copies(sys, eps, shared):
    """Two copies of the system, the second's Omega_- shifted by eps max |lambda|.

    ``shared`` puts both on the same channels, whose difference mode is dark at
    eps = 0; otherwise each has its own channels and every pole is shared at eps = 0.
    """
    cm, cp = du_blocks(sys.C)
    om, op = du_blocks(sys.Omega)
    shifted = om + eps * np.max(np.abs(sys.poles)) * np.eye(len(om))
    if not shared:
        return concatenate(sys, QLSystem.from_blocks(cm, cp, shifted, op))
    z = np.zeros_like(om)
    return QLSystem.from_blocks(np.hstack([cm, cm]), np.hstack([cp, cp]),
                                np.block([[om, z], [z, shifted]]), np.block([[op, z], [z, op]]))


def _clustered(lam):
    """True when two poles lie within CLUSTER_TOL max |lambda| of each other."""
    gaps = np.abs(lam[:, None] - lam)
    np.fill_diagonal(gaps, np.inf)
    return np.min(gaps) <= CLUSTER_TOL * np.max(np.abs(lam))


class TestClusterRule:
    """The modal reducibility margin against the PBH margin it replaces wherever an eigenbasis is usable."""

    @pytest.mark.parametrize("shared", (True, False), ids=("dark", "split"))
    @pytest.mark.parametrize("eps", (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 3e-9, 1e-9))   # both sides of CLUSTER_TOL
    def test_detuned_copies_agree_with_pbh(self, eps, shared):
        # on these draws modal / PBH lies in [1.2, 6.2], so verdicts agree whenever the PBH margin is
        # at least 6.2 RANK_TOL; the dark copies' margins fall as eps (1.1e-10 at eps = 1e-9)
        for seed in range(4):
            for passive in (True, False):
                sys = _detuned_copies(random_qlsystem(np.random.default_rng(seed), 2, 1, passive=passive),
                                      eps, shared)
                lam = sys._modal[0]
                assert _clustered(lam) == (not shared and eps < CLUSTER_TOL), (seed, passive)
                modal = _reducibility_margin(sys)
                pbh = _pbh_margin(sys.A, sys.C, sys.poles)
                assert pbh <= modal * (1 + 1e-9) and modal <= 8 * pbh, (seed, passive, modal, pbh)
                assert (modal > RANK_TOL) == (pbh > RANK_TOL) == is_minimal(sys), (seed, passive)

    @pytest.mark.parametrize("kappa", (1e-10, 1e-12))
    def test_dark_mode_inside_a_cluster(self, kappa):
        # an uncoupled mode at the frequency of one damped by kappa / 2, mixed by a
        # unitary: the two poles lie within CLUSTER_TOL, rounding mixes their computed
        # eigenvectors, and only the cluster's basis shows the dark direction
        # (the computed vectors alone read 3.5e-6 and 1.6e-4)
        U = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))[0]
        sys = gauge_transform(QLSystem.passive([[1.0]], [[np.sqrt(kappa), 0.0]], np.eye(2)), Delta(U))
        lam, V = sys._modal[:2]
        assert _clustered(lam)
        assert np.min(np.linalg.norm(sys.C @ V, axis=0)) > 1e-6 * np.linalg.norm(sys.C)
        assert _reducibility_margin(sys) < RANK_TOL
        assert _pbh_margin(sys.A, sys.C, sys.poles) < RANK_TOL
        assert not is_minimal(sys)

    def test_pbh_runs_only_without_an_eigenbasis(self, monkeypatch):
        from qls import model
        from qls.stationary import is_globally_minimal

        calls = []
        pbh = model._pbh_margin
        monkeypatch.setattr(model, "_pbh_margin", lambda *args: calls.append(1) or pbh(*args))

        def pbh_calls(sys, gm=False):
            calls.clear()
            is_globally_minimal(sys, squeezed_input(0.5)) if gm else is_minimal(sys)
            return len(calls)

        assert gm2_system(0.0)._modal is None and pbh_calls(gm2_system(0.0), gm=True) == 2
        assert gm2_system(8.0)._modal is None and pbh_calls(gm2_system(8.0), gm=True) == 2
        ep = QLSystem.from_blocks([[np.sqrt(3.0)]], [[0.0]], [[1.0]], [[1.0j]])   # DPA at its exceptional point
        assert ep._modal is None and pbh_calls(ep) == 1
        assert pbh_calls(gm2_system(-4.0), gm=True) == 0
        rng = np.random.default_rng(27)
        for n, m in ((1, 1), (2, 1), (4, 2), (8, 1), (16, 2)):
            for passive in (True, False):
                sys = random_qlsystem(rng, n, m, passive=passive, active_scale=0.4 / n)
                assert sys._modal is not None and pbh_calls(sys) == 0


class TestScaleInvariantStability:
    @pytest.mark.parametrize("t", (1e-6, 1e6))
    def test_hurwitz_verdicts_under_time_rescaling(self, t, rng):
        systems = [
            cavity(), dpa(), cavity(kappa=1e-6, omega0=0.0),  # pole -5e-7
            QLSystem.from_blocks([[1.0]], [[2.0]], [[1.5]], [[1.5]]),  # minimal, not Hurwitz
            QLSystem.from_blocks([[0.0]], [[0.0]], [[0.9]], [[0.0]]),  # undamped
            QLSystem.from_blocks([[0.0]], [[0.0]], [[0.0]], [[0.0]]),  # A = 0
        ]
        systems += [random_qlsystem(rng, 3, 2, ensure_hurwitz=False) for _ in range(20)]
        verdicts = [is_hurwitz(sys) for sys in systems]
        assert True in verdicts and False in verdicts
        assert [is_hurwitz(rescaled(sys, t)) for sys in systems] == verdicts

    @pytest.mark.parametrize("c", (1e-6, 1e-8))
    def test_weakly_coupled_cavity_is_hurwitz(self, c):
        assert is_hurwitz(cavity(kappa=c**2, omega0=0.0))  # pole -c^2/2

    @pytest.mark.parametrize("t", (1.0, 1e-6, 1e6))
    def test_pole_check_is_relative(self, t):
        sys = rescaled(cavity(2.0, 0.0), t)  # pole -t
        with pytest.raises(ValueError):
            freq_response(sys, [-t])
        Xi = freq_response(sys, [-t * (1 + 1e-9)])  # 1e-9 away, relative to the pole
        assert np.isfinite(Xi).all()


class TestSeriesProduct:
    def test_tf_multiplies(self, rng):
        first = random_qlsystem(rng, 2, 2)
        second = random_qlsystem(rng, 1, 2)
        ser = series_product(first, second)
        assert check_pr(ser.A, ser.C)
        for s in default_grid(ser, 21):
            lhs = transfer_function(ser, s)
            rhs = transfer_function(second, s) @ transfer_function(first, s)
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_identity_element(self, rng):
        sys = random_qlsystem(rng, 1, 1)
        ident = QLSystem.passive([[1.0]], np.zeros((1, 0)), np.zeros((0, 0)))
        assert tf_equal(series_product(ident, sys), sys, tol=1e-10)
        assert tf_equal(series_product(sys, ident), sys, tol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            series_product(random_qlsystem(rng, 1, 1), random_qlsystem(rng, 1, 2))

    @pytest.mark.parametrize("n1, n2, m", [(1, 1, 1), (2, 3, 2), (4, 4, 1), (8, 5, 2), (16, 16, 1)])
    def test_poles_are_the_parts_poles(self, n1, n2, m):
        rng = np.random.default_rng([n1, n2, m])
        for k in range(3):  # an active part may be unstable: (passive, active), (active, passive), both passive
            first = random_qlsystem(rng, n1, m, passive=k != 1, active_scale=0.2, ensure_hurwitz=False)
            second = random_qlsystem(rng, n2, m, passive=k != 0, active_scale=0.2, ensure_hurwitz=False)
            ser = series_product(first, second)
            lam = np.linalg.eigvals(ser.A)
            assert eigs_close(ser.poles, lam, atol=1e-10 * np.max(np.abs(lam)))
            assert is_hurwitz(ser) == (is_hurwitz(first) and is_hurwitz(second))

    def test_absorber_cascade_poles(self):
        from qls.absorber import dual_system

        from conftest import absorber_two_mode_example

        res = dual_system(absorber_two_mode_example())
        lam = np.linalg.eigvals(res.combined.A)
        assert eigs_close(res.combined.poles, lam, atol=1e-10 * np.max(np.abs(lam)))
        assert is_hurwitz(res.combined)

    def test_cascade_swap_example(self):
        # passive one-mode stages (2,0)^T into (6,3)^T with detuning 4 admit
        # an equivalent swapped cascade; the mixing ratio is x = 41/24 - i/3
        eye2 = np.eye(2)
        first = QLSystem.passive(eye2, [[2.0], [0.0]], [[0.0]])
        second = QLSystem.passive(eye2, [[6.0], [3.0]], [[4.0]])
        combined = series_product(first, second)
        x = 41.0 / 24.0 - 1j / 3.0
        rt = np.sqrt(1.0 + abs(x) ** 2)
        t1 = QLSystem.passive(eye2, [[(2 + 6 * x) / rt], [3 * x / rt]], [[4.0]])
        t2 = QLSystem.passive(eye2, [[(6 - 2 * np.conj(x)) / rt], [3 / rt]], [[0.0]])
        assert tf_equal(series_product(t1, t2), combined, tol=1e-9)
        # and the stage transfer functions themselves differ
        assert not tf_equal(t1, second, tol=1e-3)


class TestConcatenate:
    def test_counts_add(self, rng):
        a = random_qlsystem(rng, 2, 1)
        b = random_qlsystem(rng, 1, 2)
        c = concatenate(a, b)
        assert (c.n, c.m) == (3, 3)

    def test_blockdiag_tf(self, rng):
        a = random_qlsystem(rng, 2, 1)
        b = random_qlsystem(rng, 1, 2)
        c = concatenate(a, b)
        for s in default_grid(c, 11):
            Xm, Xp = du_blocks(transfer_function(c, s))
            Am, Ap = du_blocks(transfer_function(a, s))
            Bm, Bp = du_blocks(transfer_function(b, s))
            assert np.linalg.norm(Xm[:1, :1] - Am) < 1e-9
            assert np.linalg.norm(Xm[1:, 1:] - Bm) < 1e-9
            assert np.linalg.norm(Xm[:1, 1:]) < 1e-9
            assert np.linalg.norm(Xp[:1, 1:]) < 1e-9

    def test_vacuum_channel_extension(self, rng):
        a = random_qlsystem(rng, 1, 1)
        ident = QLSystem.passive([[1.0]], np.zeros((1, 0)), np.zeros((0, 0)))
        c = concatenate(a, ident)
        assert (c.n, c.m) == (1, 2)
        for s in default_grid(a, 7):
            Xm, _ = du_blocks(transfer_function(c, s))
            assert abs(Xm[1, 1] - 1.0) < 1e-12


class TestGaugeTransform:
    def test_identity(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        out = gauge_transform(sys, np.eye(4, dtype=complex))
        assert np.allclose(out.C, sys.C)
        assert np.allclose(out.Omega, sys.Omega)

    def test_preserves_tf_spectrum_minimality(self, rng):
        for _ in range(5):
            sys = random_qlsystem(rng, 2, 1)
            T = random_symplectic(rng, 2)
            out = gauge_transform(sys, T)
            assert tf_equal(sys, out, tol=1e-8)
            assert is_minimal(out) == is_minimal(sys)
            assert eigs_close(np.linalg.eigvals(out.A), np.linalg.eigvals(sys.A), atol=1e-7)

    def test_unitary_on_passive_preserves_block_structure(self, rng):
        sys = random_qlsystem(rng, 2, 1, passive=True)
        # unitary symplectic: plus block zero
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = 0.5 * (H + H.conj().T)
        from scipy.linalg import expm

        U = expm(-1j * H)
        T = Delta(U, np.zeros((2, 2)))
        out = gauge_transform(sys, T)
        assert out.is_passive
        Cm = du_blocks(sys.C)[0]
        Om = du_blocks(sys.Omega)[0]
        assert np.allclose(du_blocks(out.C)[0], Cm @ U.conj().T, atol=1e-10)
        assert np.allclose(du_blocks(out.Omega)[0], U @ Om @ U.conj().T, atol=1e-10)

    def test_non_symplectic_raises(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        with pytest.raises(ValueError):
            gauge_transform(sys, 2.0 * np.eye(4, dtype=complex))


class TestTfEqual:
    def test_gauge_pair_equal(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        out = gauge_transform(sys, random_symplectic(rng, 2))
        assert tf_equal(sys, out, tol=1e-8)

    def test_different_couplings_differ(self):
        assert not tf_equal(cavity(kappa=2.0), cavity(kappa=3.0), tol=1e-6)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            tf_equal(random_qlsystem(rng, 1, 1), random_qlsystem(rng, 1, 2))

    @pytest.mark.parametrize("t", (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6))
    def test_default_grid_in_the_system_scale(self, t):
        """The gap floor and the pole nudge are relative, so the grid stays in the band at any scale."""
        a, b = cavity(kappa=1.0, omega0=0.3), cavity(kappa=1.0, omega0=0.6)
        base = default_grid(a)
        assert np.max(np.abs(default_grid(rescaled(a, t)) / t - base)) <= 1e-15 * np.max(np.abs(base))
        assert not tf_equal(rescaled(a, t), rescaled(b, t))


class TestValidation:
    def test_non_hermitian_omega_minus_rejected(self):
        with pytest.raises(ValueError):
            QLSystem.from_blocks([[1.0]], [[0.0]], [[1.0]], [[0.0]], S=None).__class__(
                S=np.eye(2, dtype=complex),
                C=Delta([[1.0]], [[0.0]]),
                Omega=np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex),
            )

    def test_non_symplectic_s_rejected(self):
        with pytest.raises(ValueError):
            QLSystem(
                S=2 * np.eye(2, dtype=complex),
                C=Delta([[1.0]], [[0.0]]),
                Omega=Delta([[0.0]], [[0.0]]),
            )

    def test_arrays_read_only(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        for M in (sys.S, sys.C, sys.Omega, sys.A, sys.poles):
            with pytest.raises(ValueError):
                M[0, ...] = 0.0

    def test_equality_and_hash_by_identity(self):
        a, b = cavity(), cavity()
        assert a == a and a != b
        assert len({a, b, a}) == 2
        ss = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        V = InputCovariance.vacuum(1)
        assert ss == ss and hash(ss) == hash(ss)
        assert V != InputCovariance.vacuum(1) and hash(V) == hash(V)

    def test_caller_array_is_copied(self):
        C = Delta([[1.0]], [[0.0]])
        sys = QLSystem(S=np.eye(2, dtype=complex), C=C, Omega=Delta([[0.5]], [[0.0]]))
        C[:] = 0.0
        assert np.allclose(sys.A, Delta([[-0.5 - 0.5j]], [[0.0]]))
        assert np.array_equal(sys.C, Delta([[1.0]], [[0.0]]))


FACTORS = pytest.mark.parametrize("factor, ok", [(10.0, False), (2.0, False), (0.5, True), (0.1, True)])


class TestValidationThresholds:
    """Each construction check: its exact message, and defects 10x and 2x over its
    relative tolerance (rejected) and 2x and 10x under it (accepted)."""

    S = Delta([[np.cosh(0.7)]], [[np.sinh(0.7)]])                 # symplectic, m = 1
    C = 5.0 * Delta([[0.6, -0.8j]], [[0.3, 0.1]])                  # doubled-up, ||C|| ~ 7
    OM = 20.0 * Delta([[1.0, 0.5 - 0.2j], [0.5 + 0.2j, -0.3]],     # Hermitian minus block,
                      [[0.2, 0.1j], [0.1j, 0.4]])                  # symmetric plus block
    T = Delta(np.diag([np.cosh(0.7), 1.0]), np.diag([np.sinh(0.7), 0.0]))  # symplectic, n = 2

    @staticmethod
    def _build(S=S, C=C, Omega=OM):
        return QLSystem(S=S, C=C, Omega=Omega)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("incompatible shapes: S (2, 2), C (2, 4), Omega (2, 2)")):
            self._build(Omega=Delta([[1.0]]))
        self._build()

    @FACTORS
    def test_s_not_symplectic(self, factor, ok):
        # sqrt(1 + e) S gives ||S^b S - 1|| = ||S S^b - 1|| = e sqrt(2m), tolerated up to TOL_NUM
        e = factor * TOL_NUM / np.sqrt(2)
        self._check(ok, "S is not symplectic", S=np.sqrt(1.0 + e) * self.S)

    @FACTORS
    def test_c_not_doubled_up(self, factor, ok):
        C = self.C.copy()
        C[1, 0] += factor * TOL_STRUCT * np.linalg.norm(self.C)  # lower-left block only
        self._check(ok, "C is not doubled-up", C=C)

    @FACTORS
    def test_omega_not_doubled_up(self, factor, ok):
        Om = self.OM.copy()
        Om[3, 0] += factor * TOL_STRUCT * np.linalg.norm(self.OM)  # lower-left block only
        self._check(ok, "Omega is not doubled-up", Omega=Om)

    @FACTORS
    def test_omega_minus_not_hermitian(self, factor, ok):
        # e at entry (0, 1) alone: ||om - om^dag|| = e sqrt(2), tolerated up to 10 TOL_STRUCT ||Omega||
        om, op = (b.copy() for b in du_blocks(self.OM))
        om[0, 1] += factor * 10 * TOL_STRUCT * np.linalg.norm(self.OM) / np.sqrt(2)
        self._check(ok, "Omega_- must be Hermitian", Omega=Delta(om, op))

    @FACTORS
    def test_omega_plus_not_symmetric(self, factor, ok):
        om, op = (b.copy() for b in du_blocks(self.OM))
        op[0, 1] += factor * 10 * TOL_STRUCT * np.linalg.norm(self.OM) / np.sqrt(2)
        self._check(ok, "Omega_+ must be symmetric", Omega=Delta(om, op))

    @FACTORS
    def test_gauge_not_symplectic(self, factor, ok):
        # sqrt(1 + e) T on 2 modes gives ||T^b T - 1|| = ||T T^b - 1|| = 2 e, tolerated up to 1e-7
        T = np.sqrt(1.0 + factor * 1e-7 / 2) * self.T
        if ok:
            gauge_transform(self._build(), T)
        else:
            with pytest.raises(ValueError, match="^gauge transformation must be symplectic$"):
                gauge_transform(self._build(), T)

    @FACTORS
    def test_williamson_occupation_below_zero(self, factor, ok):
        # occupations (-e, 0.5) squeezed by T: an occupation down to -1e-7 max(1, ||V||) is clipped to 0
        canonical = lambda e: self.T @ np.diag([1.0 - e, 1.5, -e, 0.5]) @ self.T.conj().T
        V = canonical(factor * 1e-7 * np.linalg.norm(canonical(0.0)))
        if ok:
            assert np.array_equal(williamson(V).symplectic_eigenvalues[:1], [0.0])
        else:
            with pytest.raises(ValueError, match="^non-physical covariance: symplectic eigenvalue "):
                williamson(V)

    def _check(self, ok, message, **parts):
        if ok:
            self._build(**parts)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                self._build(**parts)


class TestParamFamily:
    @staticmethod
    def _counting():
        """A one-mode family affine in theta, and the list of thetas it was evaluated at."""
        calls = []

        def evaluate(theta):
            calls.append(theta)
            return QLSystem.from_blocks([[1.0 + 0.3 * theta]], [[0.1]], [[0.5 + theta]], [[0.2j]])

        return ParamFamily(evaluate=evaluate, fd_step=1e-6), calls

    def test_at_keeps_the_last_point(self):
        fam, calls = self._counting()
        sys0, tangent = fam.at(0.1)
        assert len(calls) == 3
        again = fam.at(0.1)
        assert len(calls) == 3 and again[0] is sys0 and again[1] is tangent
        fresh = fam.derivatives(0.1)
        assert all(np.array_equal(d, e) for d, e in zip(tangent, fresh))
        assert all(not d.flags.writeable for d in tangent)
        calls.clear()
        fam.at(0.2)
        fam.at(0.1)  # one slot: 0.2 replaced 0.1
        assert len(calls) == 6

    def test_replace_starts_with_an_empty_slot(self):
        fam, calls = self._counting()
        fam.at(0.1)
        wider = dataclasses.replace(fam, fd_step=1e-4)
        wider.at(0.1)
        assert calls[3:] == [0.1, 0.1 + 1e-4, 0.1 - 1e-4]
        assert fam == dataclasses.replace(fam) and "_point" not in repr(fam)

    def test_exact_tangent_takes_one_evaluation(self):
        """A carried tangent is read-only, kept by ``replace``, left out of equality and repr, and
        returned by ``at`` and ``derivatives`` with no difference taken."""
        fam, calls = self._counting()
        dS, dC, dOm = np.zeros((2, 2)), Delta([[0.3]], [[0.0]]), Delta([[1.0]], [[0.0]])
        exact = dataclasses.replace(fam, tangent=(dS, dC, dOm))
        dC[0, 0] = 7.0  # the family holds its own copy
        sys0, tangent = exact.at(0.1)
        assert calls == [0.1] and tangent is exact.tangent and exact.derivatives(0.2) is tangent
        assert all(not d.flags.writeable for d in tangent) and tangent[1][0, 0] == 0.3
        assert all(np.allclose(d, e, atol=1e-9) for d, e in zip(tangent, fam.derivatives(0.1)))
        wrapped = []  # a counting wrapper, as a traced benchmark run installs one
        counted = dataclasses.replace(exact, evaluate=lambda th: wrapped.append(th) or exact.evaluate(th))
        assert all(np.array_equal(d, e) for d, e in zip(counted.at(0.1)[1], tangent)) and wrapped == [0.1]
        assert exact == fam and "tangent" not in repr(exact)

    @pytest.mark.parametrize("step", (np.inf, -np.inf, np.nan))
    def test_non_finite_fd_step_is_named(self, step):
        with pytest.raises(ValueError, match=f"^fd_step must be .*got {step}$"):
            ParamFamily(evaluate=lambda th: cavity(), fd_step=step)

    @pytest.mark.parametrize("theta", (np.nan, np.inf))
    def test_non_finite_theta_is_named(self, theta):
        fam, calls = self._counting()
        with pytest.raises(ValueError, match=f"^theta = {theta} is not finite$"):
            fam.at(theta)
        assert calls == []
