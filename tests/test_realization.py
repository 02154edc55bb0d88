import json
import re
from pathlib import Path

import numpy as np
import pytest

from qls import io as qio
from qls.algebra import Delta, du_blocks, flat_adjoint, is_doubled_up, jmat
from qls.model import (
    QLSystem,
    StateSpace,
    check_pr,
    default_grid,
    is_hurwitz,
    series_product,
    tf_equal,
    transfer_function,
)
from qls.realization import (
    CascadeRealization,
    IdentificationError,
    OneModeParams,
    RationalMatrixFunction,
    _noise_rows,
    accessible_block,
    gilbert_realize,
    noisy_realize,
    nus_detect,
    passive_siso_cascade,
    physical_from_classical,
    ps_as_rational,
    ps_realize,
    siso_cascade_identify,
    tf_as_rational,
)
from qls.sampling import random_qlsystem
from qls.stationary import InputCovariance, _vacuum_rotated, is_globally_minimal, power_spectrum

from conftest import (
    absorber_two_mode_example,
    active_one_mode_example,
    cavity,
    dpa,
    eigs_close,
    gm2_system,
    mpmath_residues,
    rescaled,
    squeezed_input,
    two_mode_cascade_example,
)


def scalar_parts(sys):
    """Split a SISO doubled transfer function into scalar (Xi_-, Xi_+) data."""
    tfr = tf_as_rational(sys)
    xi_m = RationalMatrixFunction([[1.0]], tfr.poles, [R[0:1, 0:1] for R in tfr.residues])
    xi_p = RationalMatrixFunction([[0.0]], tfr.poles, [R[0:1, 1:2] for R in tfr.residues])
    return xi_m, xi_p


class TestRationalMatrixFunction:
    def test_evaluation(self):
        r = RationalMatrixFunction([[1.0]], (-1.0 + 1j,), ([[2.0]],))
        s = 0.5
        assert abs(r.scalar(s) - (1.0 + 2.0 / (s + 1 - 1j))) < 1e-14

    def test_tf_rational_matches_model(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        tfr = tf_as_rational(sys)
        for s in default_grid(sys, 9):
            assert np.linalg.norm(tfr(s) - transfer_function(sys, s)) < 1e-6

    def test_ps_rational_matches_model(self):
        from qls.algebra import jmat

        sys = active_one_mode_example()
        vac = InputCovariance.vacuum(1)
        psr = ps_as_rational(sys, vac)
        for s in default_grid(sys, 9):
            target = power_spectrum(sys, vac, s) @ jmat(1)
            assert np.linalg.norm(psr(s) - target) < 1e-6


CASCADE_DRAWS = json.loads((Path(__file__).parent / "cascade_draws.json").read_text())

README_EXAMPLES = [cavity, dpa, active_one_mode_example, two_mode_cascade_example,
                   absorber_two_mode_example]


def seeded_draws(n, m):
    """Three active draws with n modes and m channels."""
    return [random_qlsystem(np.random.default_rng([21, n, m, k]), n, m, active_scale=0.15) for k in range(3)]


def residue_error(sys):
    """Worst relative distance of ``tf_as_rational``'s residues from ``mpmath_residues``, poles matched."""
    tfr = tf_as_rational(sys)
    lam, ref = mpmath_residues(sys)
    worst = 0.0
    for p, R in zip(tfr.poles, tfr.residues, strict=True):
        k = int(np.argmin(np.abs(lam - p)))
        assert abs(lam[k] - p) <= 1e-9 * max(1.0, abs(p))
        worst = max(worst, np.linalg.norm(R - ref[k]) / np.linalg.norm(ref[k]))
        lam, ref = np.delete(lam, k), np.delete(ref, k, axis=0)
    return worst


def off_pole_points(sys):
    scale = max(1.0, np.max(np.abs(sys.poles), initial=0.0))
    return np.concatenate([default_grid(sys, 5), scale * np.array([0.37 + 0.91j, -0.2 + 2.1j, 0.05 - 1.3j])])


def form_errors(sys, V):
    """Worst relative errors of the Xi and Psi J rational forms against direct evaluation off the poles."""
    rotated, _ = _vacuum_rotated(sys, V)
    vac, J = InputCovariance.vacuum(sys.m), jmat(sys.m)
    tfr, psr = tf_as_rational(sys), ps_as_rational(sys, V)
    rel = lambda a, b: np.linalg.norm(a - b) / np.linalg.norm(b)
    pts = off_pole_points(sys)
    return (max(rel(tfr(s), transfer_function(sys, s)) for s in pts),
            max(rel(psr(s), power_spectrum(rotated, vac, s) @ J) for s in pts))


class TestModalResidues:
    """Residues read off the cached eigendecomposition, against a 40-digit oracle and direct evaluation."""

    @pytest.mark.parametrize("example", README_EXAMPLES)
    def test_tf_residues_against_mpmath(self, example):
        assert residue_error(example()) <= 1e-12

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)])
    def test_tf_residues_against_mpmath_on_seeded_draws(self, n, m):
        assert max(residue_error(sys) for sys in seeded_draws(n, m)) <= 1e-12

    @pytest.mark.parametrize("example", README_EXAMPLES)
    @pytest.mark.parametrize("n_mean", [0.0, 0.4])
    def test_forms_match_direct_evaluation(self, example, n_mean):
        assert max(form_errors(example(), squeezed_input(n_mean))) <= 1e-13

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)])
    def test_forms_match_direct_evaluation_on_seeded_draws(self, n, m):
        vac = InputCovariance.vacuum(m)
        assert max(max(form_errors(sys, vac)) for sys in seeded_draws(n, m)) <= 1e-13

    @pytest.mark.parametrize("x, bound", [(-4.0, 1e-13), (-1.0, 1e-13), (0.0, 1e-6), (8.0, 1e-6)])
    def test_gm2_family(self, x, bound):
        """gm2(x) has repeated poles at every x; at x = 0 and 8 its drift is defective, so the
        forms carry eps kappa_F(V).  A circle around one of two coincident poles summed both."""
        assert max(form_errors(gm2_system(x), squeezed_input(0.5))) <= bound

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
    def test_close_poles(self, gap):
        """Two cavities in cascade whose poles are ``gap`` apart carry residues of size 1/gap that
        cancel.  Their relative condition number grows as (||A|| / gap)^2, and the modal residues
        meet it: 0.4-1.1 eps (||A||_2 / gap)^2 over these cavities.  At unit scale (kappa = 1) the
        error stays below 1e-9 at gap 1e-3 and 1e-6 at gap 1e-4."""
        for kappa, omega in ((0.5, 0.2), (1.0, 0.5), (2.0, 1.3), (4.0, 3.0)):
            sys = series_product(cavity(kappa, omega), cavity(kappa, omega + gap))
            err = residue_error(sys)
            assert err <= 4 * np.finfo(float).eps * (np.linalg.norm(sys.A, 2) / gap) ** 2
            if kappa == 1.0:
                assert err <= {1e-3: 1e-9, 1e-4: 1e-6, 1e-5: 1e-4}[gap]

    def test_singular_eigenbasis_raises(self):
        """Two identical detuned cavities in cascade, with exactly representable blocks: A is a Jordan block."""
        sys = QLSystem.passive([[1.0]], [[1.0, 1.0]], [[0.3, -0.5j], [0.5j, 0.3]])
        for call in (tf_as_rational, lambda s: ps_as_rational(s, InputCovariance.vacuum(1))):
            with pytest.raises(IdentificationError, match="singular eigenbasis"):
                call(sys)


class TestPassiveSisoCascade:
    def test_single_pole(self):
        kappa, om0 = 2.0, 1.3
        casc = passive_siso_cascade([-kappa / 2 - 1j * om0])
        st = casc.stages[0]
        assert abs(st.c - np.sqrt(kappa)) < 1e-12
        assert abs(st.omega_minus - om0) < 1e-12
        assert tf_equal(casc.to_system(), cavity(kappa, om0), tol=1e-10)

    def test_two_pole_product(self):
        poles = [-1.0 - 2.0j, -3.0 + 1.0j]
        casc = passive_siso_cascade(poles)
        cs = [st.c for st in casc.stages]
        assert np.allclose(cs, [np.sqrt(2.0), np.sqrt(6.0)])
        assert np.allclose([st.omega_minus for st in casc.stages], [2.0, -1.0])
        sys = casc.to_system()
        # all-pass factors: pole at z, mirrored zero at -conj(z)
        for s in default_grid(sys, 15):
            prod = np.prod([(s + np.conj(z)) / (s - z) for z in poles])
            assert abs(transfer_function(sys, s)[0, 0] - prod) < 1e-10

    def test_empty_is_identity(self):
        sys = passive_siso_cascade([]).to_system()
        assert sys.n == 0
        assert np.allclose(transfer_function(sys, 0.5j + 1), np.eye(2))

    def test_unstable_pole_rejected(self):
        with pytest.raises(ValueError):
            passive_siso_cascade([0.1 - 1j])


class TestOneStabilityRule:
    """Every route flags a pole as ``is_hurwitz`` does, by the relative margin STAB_TOL."""

    MARGINAL = cavity(2e-14, 1.0)  # poles -1e-14 +/- i: left of the axis, but not by the margin

    def test_is_hurwitz(self):
        assert not is_hurwitz(self.MARGINAL)

    def test_physical_from_classical(self):
        ss = gilbert_realize(tf_as_rational(self.MARGINAL))
        with pytest.raises(ValueError, match="realization must be Hurwitz"):
            physical_from_classical(ss)

    def test_siso_cascade_identify(self):
        xi_m, xi_p = scalar_parts(self.MARGINAL)
        with pytest.raises(IdentificationError, match=re.escape(f"unstable pole {xi_m.poles[0]}")):
            siso_cascade_identify(xi_m, xi_p)

    def test_passive_siso_cascade_names_the_first_flagged_pole(self):
        with pytest.raises(ValueError, match=re.escape("pole (-1e-14+1j) is not in the open left half-plane")):
            passive_siso_cascade([-1.0 - 2j, -1e-14 + 1j, 0.5 + 1j])


class TestSisoCascadeIdentify:
    def test_two_mode_example_default_order(self):
        sys = two_mode_cascade_example()
        casc = siso_cascade_identify(*scalar_parts(sys))
        st1, st2 = casc.stages
        # stage parameters of the printed example; the active coupling
        # parameterization there carries the opposite sign convention for
        # Omega_+, so the magnitudes and all passive parameters pin the match
        assert abs(st1.c - 14.39) < 5e-3
        assert abs(st1.omega_minus - 2.33) < 5e-3
        assert abs(st1.omega_plus.real - 0.15) < 5e-3
        assert abs(st1.omega_plus.imag - 0.93) < 5e-3
        assert abs(st2.c - 0.2) < 7e-3
        assert abs(st2.omega_minus - 7.38) < 5e-3
        assert abs(abs(st2.omega_plus.real) - 1.48) < 6e-3
        assert abs(abs(st2.omega_plus.imag) - 4.55) < 6e-3
        assert tf_equal(casc.to_system(), sys, tol=1e-6)

    def test_two_mode_example_alternate_order(self):
        sys = two_mode_cascade_example()
        xi_m, xi_p = scalar_parts(sys)
        small = [p for p in xi_m.poles if abs(p.real) < 1.0][0]
        casc = siso_cascade_identify(xi_m, xi_p, pole_order=[small])
        st1, st2 = casc.stages
        assert abs(st1.c - 0.2) < 7e-3
        assert abs(st1.omega_minus - 7.30) < 5e-2
        assert abs(abs(st1.omega_plus.real) - 1.61) < 5e-2
        assert abs(abs(st1.omega_plus.imag) - 4.37) < 5e-2
        assert abs(st2.c - 14.39) < 5e-3
        assert tf_equal(casc.to_system(), sys, tol=1e-6)

    @pytest.mark.parametrize("case", ["far", "zero", "twice", "extra"])
    def test_pole_order_names_a_pole_not_left_to_peel(self, case):
        """A requested pole that no remaining pair matches raises; it is not replaced by the nearest."""
        xi_m, xi_p = scalar_parts(two_mode_cascade_example())
        small = [p for p in xi_m.poles if abs(p.real) < 1.0][0]
        big = [p for p in xi_m.poles if abs(p.real) > 1.0][0]
        order = {"far": [100 + 100j], "zero": [0j], "twice": [small, small], "extra": [small, big, small]}[case]
        with pytest.raises(IdentificationError, match=f"requested pole {re.escape(str(order[-1]))} "):
            siso_cascade_identify(xi_m, xi_p, pole_order=order)

    def test_pole_order_matches_either_member_of_a_pair(self):
        xi_m, xi_p = scalar_parts(two_mode_cascade_example())
        small = [p for p in xi_m.poles if abs(p.real) < 1.0][0]
        want = siso_cascade_identify(xi_m, xi_p, pole_order=[small]).stages
        for z in (small.conjugate(), small * (1 + 1e-8)):
            assert siso_cascade_identify(xi_m, xi_p, pole_order=[z]).stages == want

    def test_one_stage_roundtrip_exact(self):
        stage = OneModeParams(1.4, 0.8, 0.3 - 0.5j)
        sys = stage.to_system()
        casc = siso_cascade_identify(*scalar_parts(sys))
        st = casc.stages[0]
        assert abs(st.c - 1.4) < 1e-8
        assert abs(st.omega_minus - 0.8) < 1e-8
        assert abs(st.omega_plus - (0.3 - 0.5j)) < 1e-8

    def test_random_roundtrips(self, rng):
        done = 0
        while done < 6:
            stages = []
            for _ in range(int(rng.integers(1, 4))):
                c = float(rng.uniform(0.5, 2.0))
                om = float(rng.uniform(-3.0, 3.0))
                op = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5
                stages.append(OneModeParams(c, om, op))
            sys = CascadeRealization(tuple(stages)).to_system()
            eigs = np.linalg.eigvals(sys.A)
            if np.max(eigs.real) > -1e-3 or np.min(np.abs(eigs.imag)) < 1e-2:
                continue  # outside the generic class (real-axis poles)
            casc = siso_cascade_identify(*scalar_parts(sys))
            assert tf_equal(casc.to_system(), sys, tol=1e-9)
            done += 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stages_recovered_in_their_own_order(self, n):
        rng = np.random.default_rng(7 + n)
        stages = []
        for _ in range(n):
            om = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)
            op = 0.5 * abs(om) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())  # |op| < |om|
            stages.append(OneModeParams(rng.uniform(0.5, 2.0), om, op))
        sys = CascadeRealization(tuple(stages)).to_system()
        own = [st.to_system().poles[0] for st in stages]
        casc = siso_cascade_identify(*scalar_parts(sys), pole_order=own)
        for got, want in zip(casc.stages, stages, strict=True):
            assert abs(got.c - want.c) < 1e-7
            assert abs(got.omega_minus - want.omega_minus) < 1e-7
            assert abs(got.omega_plus - want.omega_plus) < 1e-7

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_active_draws(self, n):
        rng = np.random.default_rng(100 + n)
        done = 0
        while done < 3:
            sys = random_qlsystem(rng, n, 1, active_scale=0.4 / n)
            lam = sys.poles
            if np.max(lam.real) >= -1e-3 or np.min(np.abs(lam.imag)) < 2.5e-3:
                continue  # outside the generic class (near-real or near-marginal poles)
            casc = siso_cascade_identify(*scalar_parts(sys))
            assert tf_equal(casc.to_system(), sys, tol=1e-6)
            done += 1

    @pytest.mark.parametrize("n", (1, 3, 6))
    def test_passive_draws(self, n):
        sys = random_qlsystem(np.random.default_rng(30 + n), n, 1, passive=True)
        casc = siso_cascade_identify(*scalar_parts(sys))
        assert all(abs(st.omega_plus) < 1e-9 for st in casc.stages)
        assert tf_equal(casc.to_system(), sys, tol=1e-9)

    def test_xi_plus_pole_order_is_irrelevant(self):
        sys = two_mode_cascade_example()
        xi_m, xi_p = scalar_parts(sys)
        perm = [3, 1, 0, 2]
        shuffled = RationalMatrixFunction(xi_p.constant, [xi_p.poles[k] for k in perm],
                                          [xi_p.residues[k] for k in perm])
        for a, b in zip(siso_cascade_identify(xi_m, xi_p).stages,
                        siso_cascade_identify(xi_m, shuffled).stages, strict=True):
            assert (a.c, a.omega_minus, a.omega_plus) == (b.c, b.omega_minus, b.omega_plus)

    def test_real_pole_rejected(self):
        sys = dpa(3.0, 1.0)  # drift spectrum is real
        with pytest.raises(IdentificationError):
            siso_cascade_identify(*scalar_parts(sys))

    def test_split_xi_plus_residue_is_summed(self):
        """Xi_+ listing a pole twice, its residue split in halves, is the same function and gives the same cascade."""
        sys = two_mode_cascade_example()
        xi_m, xi_p = scalar_parts(sys)
        halves = [R / 2 if k == 0 else R for k, R in enumerate(xi_p.residues)] + [xi_p.residues[0] / 2]
        split = RationalMatrixFunction(xi_p.constant, xi_p.poles + xi_p.poles[:1], halves)
        casc = siso_cascade_identify(xi_m, split)
        want = siso_cascade_identify(xi_m, xi_p)
        for a, b in zip(casc.stages, want.stages, strict=True):
            assert np.allclose([a.c, a.omega_minus, a.omega_plus], [b.c, b.omega_minus, b.omega_plus], atol=1e-9)
        assert tf_equal(casc.to_system(), sys, tol=1e-6)

    def test_xi_plus_pole_missing_from_xi_minus_named(self):
        xi_m, xi_p = scalar_parts(two_mode_cascade_example())
        extra = RationalMatrixFunction(xi_p.constant, xi_p.poles + (xi_p.poles[0] + 0.5,),
                                       xi_p.residues + xi_p.residues[:1])
        with pytest.raises(IdentificationError, match="Xi_\\+ has a pole that Xi_- does not"):
            siso_cascade_identify(xi_m, extra)

    def test_unpaired_pole_named(self):
        xi_m, xi_p = scalar_parts(two_mode_cascade_example())
        p = xi_m.poles[1]
        k = xi_m.poles.index(np.conj(p))
        drop = lambda f: RationalMatrixFunction(f.constant, f.poles[:k] + f.poles[k + 1:],
                                                f.residues[:k] + f.residues[k + 1:])
        with pytest.raises(IdentificationError, match=re.escape(f"pole {p} has no conjugate partner in the data")):
            siso_cascade_identify(drop(xi_m), drop(xi_p))

    @staticmethod
    def _xi_error(sys, casc):
        rec = casc.to_system()
        return max(np.linalg.norm(transfer_function(rec, s) - transfer_function(sys, s))
                   / np.linalg.norm(transfer_function(sys, s)) for s in off_pole_points(sys))

    @pytest.mark.parametrize("name", sorted(CASCADE_DRAWS))
    def test_draws_the_damping_order_missed(self, name):
        """Benchmark draws (``bench/gen.py``) whose first pair in the damping order is nearly
        J-neutral: seed 403's 5-mode basis had cond(T) 4.2e6 and failed the symplectic check,
        and the 2-mode cli draws of seeds 2009 and 2231 missed Xi by 1.3e-6 and 2.4e-6."""
        sys = qio.system_from_json(CASCADE_DRAWS[name])
        assert self._xi_error(sys, siso_cascade_identify(*scalar_parts(sys))) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_draws(self, n):
        """Eight active 1-channel draws per n with poles off the real axis and apart.  At n = 5 and 6
        the pivot leaves the damping order on three of them; without it they miss Xi by up to 2.8e-8."""
        rng = np.random.default_rng([19, n])
        done = 0
        while done < 8:
            sys = random_qlsystem(rng, n, 1, active_scale=0.6 / np.sqrt(n))
            lam = sys.poles
            if np.min(np.abs(lam.imag)) <= 5e-2 or np.min(np.abs(np.subtract.outer(lam, lam)) + np.eye(2 * n)) <= 1e-3:
                continue
            assert self._xi_error(sys, siso_cascade_identify(*scalar_parts(sys))) <= 1e-10
            done += 1

    def test_explicit_order_is_not_pivoted(self):
        """An explicit pole order is taken as given: on seed 403's draw the damping order's basis
        is not symplectic, and the error names its defect and cond(T)."""
        sys = qio.system_from_json(CASCADE_DRAWS["synthesis_seed403_n5m1"])
        lam = sys.poles
        order = [lam[i] for i in np.argsort(lam.real) if lam[i].imag > 0]
        with pytest.raises(IdentificationError, match=r"not symplectic \(defect .*, cond\(T\) 4\.\d+e\+06\)"):
            siso_cascade_identify(*scalar_parts(sys), pole_order=order)


@pytest.mark.parametrize("t", (1e-9, 1e-7, 1e-5, 1e-3, 1.0, 1e3, 1e6))
class TestRoundTripsAtScale:
    """Pole matching and Gilbert's gap and probe points are relative to the data's max |p|."""

    def test_tf(self, t):
        sys = two_mode_cascade_example()
        scaled = rescaled(sys, t)
        rec = physical_from_classical(gilbert_realize(tf_as_rational(scaled)))
        assert tf_equal(rec, scaled, t * default_grid(sys), tol=1e-12)

    def test_unmirrored_residue_named(self, t):
        """A residue off its conjugate's mirror is named at every time scale, not left to the probes."""
        r = tf_as_rational(rescaled(two_mode_cascade_example(), t))
        poles = np.array(r.poles)
        i = int(np.argmax(poles.imag))
        residues = tuple(1.5 * R if k == i else R for k, R in enumerate(r.residues))
        with pytest.raises(IdentificationError,
                           match=re.escape(f"residues at {poles[i]} and its conjugate are not mirrored")):
            gilbert_realize(RationalMatrixFunction(r.constant, r.poles, residues))

    def test_cascade(self, t):
        sys = two_mode_cascade_example()
        scaled = rescaled(sys, t)
        casc = siso_cascade_identify(*scalar_parts(scaled))
        assert tf_equal(casc.to_system(), scaled, t * default_grid(sys), tol=1e-12)

    def test_ps(self, t):
        sys, vac = active_one_mode_example(), InputCovariance.vacuum(1)
        grid = t * default_grid(sys)
        scaled = rescaled(sys, t)
        rec = ps_realize(ps_as_rational(scaled, vac))
        dev = power_spectrum(rec, vac, grid) - power_spectrum(scaled, vac, grid)
        assert np.max(np.linalg.norm(dev, axis=(1, 2))) <= 1e-12


class TestGilbertRealize:
    def test_cavity_roundtrip(self):
        sys = cavity(2.0, 1.3)
        ss = gilbert_realize(tf_as_rational(sys))
        assert ss.A.shape == (2, 2)
        assert is_doubled_up(ss.B) and is_doubled_up(ss.C)
        for s in default_grid(sys, 11):
            assert np.linalg.norm(ss.transfer(s) - transfer_function(sys, s)) < 1e-10

    def test_empty_poles(self):
        ss = gilbert_realize(RationalMatrixFunction(np.eye(2), (), ()))
        assert ss.A.shape == (0, 0)
        assert np.allclose(ss.transfer(1.0 + 1j), np.eye(2))

    def test_detuned_dpa_roundtrip(self):
        sys = dpa(3.0, 1.0, detuning=0.9)
        ss = gilbert_realize(tf_as_rational(sys))
        for s in default_grid(sys, 11):
            assert np.linalg.norm(ss.transfer(s) - transfer_function(sys, s)) < 1e-9

    def test_real_poles_rejected(self):
        with pytest.raises(IdentificationError):
            gilbert_realize(tf_as_rational(dpa(3.0, 1.0)))

    def test_repeated_poles_rejected(self):
        r = tf_as_rational(cavity(2.0, 1.3))
        twice = RationalMatrixFunction(r.constant, r.poles + r.poles, r.residues + r.residues)
        with pytest.raises(IdentificationError, match="repeated poles are not supported"):
            gilbert_realize(twice)

    def test_rank_two_residue_rejected(self):
        r = RationalMatrixFunction(
            np.eye(2), (-1.0 + 2j, -1.0 - 2j),
            (np.eye(2), np.eye(2)),
        )
        with pytest.raises(IdentificationError):
            gilbert_realize(r)

    @pytest.mark.parametrize("shape", ["one_pole", "conjugate_moved"])
    def test_unpaired_pole_named(self, shape):
        r = tf_as_rational(cavity(2.0, 1.3))
        p = next(z for z in r.poles if z.imag > 0)
        k = r.poles.index(np.conj(p))
        if shape == "one_pole":
            poles, residues = (p,), (r.residues[1 - k],)
        else:
            poles = tuple(z + 0.5 if i == k else z for i, z in enumerate(r.poles))
            residues = r.residues
        with pytest.raises(IdentificationError, match=re.escape(f"pole {p} has no conjugate partner")):
            gilbert_realize(RationalMatrixFunction(r.constant, poles, residues))


class TestPhysicalFromClassical:
    def test_cavity_recovery(self):
        sys = cavity(2.0, 1.3)
        rec = physical_from_classical(gilbert_realize(tf_as_rational(sys)))
        assert check_pr(rec.A, rec.C, tol=1e-8)
        assert tf_equal(rec, sys, tol=1e-8)

    def test_two_mode_example_recovery(self):
        sys = two_mode_cascade_example()
        rec = physical_from_classical(gilbert_realize(tf_as_rational(sys)))
        assert check_pr(rec.A, rec.C, tol=1e-8)
        assert tf_equal(rec, sys, tol=1e-6)

    def test_already_physical_input_is_fixed_point(self, rng):
        sys = random_qlsystem(rng, 2, 1)
        ss = StateSpace(A=sys.A, B=-flat_adjoint(sys.C), C=sys.C, D=np.eye(2))
        rec = physical_from_classical(ss)
        # payload Gramian is exactly the identity, so the system is untouched
        assert np.linalg.norm(rec.C - sys.C) < 1e-8
        assert np.linalg.norm(rec.A - sys.A) < 1e-8
        resid = rec.A + flat_adjoint(rec.A) + flat_adjoint(rec.C) @ rec.C
        assert np.linalg.norm(resid) < 1e-10

    def test_random_roundtrips(self, rng):
        done = 0
        while done < 6:
            sys = random_qlsystem(rng, int(rng.integers(1, 3)), 1)
            eigs = np.linalg.eigvals(sys.A)
            if np.min(np.abs(eigs.imag)) < 1e-2:
                continue
            rec = physical_from_classical(gilbert_realize(tf_as_rational(sys)))
            assert check_pr(rec.A, rec.C, tol=1e-8)
            assert tf_equal(rec, sys, tol=1e-6)
            done += 1

    def test_pure_scattering_realizes_zero_modes(self):
        sys = QLSystem(S=Delta(np.exp(0.3j)), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        rec = physical_from_classical(gilbert_realize(tf_as_rational(sys)))
        assert rec.n == 0
        assert np.allclose(rec.S, sys.S, atol=1e-14)

    def test_unphysical_tf_rejected(self, rng):
        # a generic stable classical system is not a QLS transfer function
        A0 = np.diag([-1.0 + 2j, -1.0 - 2j]).astype(complex)
        B0 = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
        C0 = np.array([[0.8, -0.2], [-0.2, 0.8]], dtype=complex)
        ss = StateSpace(A=A0, B=B0, C=C0, D=np.eye(2))
        with pytest.raises((IdentificationError, ValueError)):
            physical_from_classical(ss)


class TestPsRealize:
    def test_one_mode_example_full(self):
        sys = active_one_mode_example()
        vac = InputCovariance.vacuum(1)
        rec, details = ps_realize(ps_as_rational(sys, vac), return_details=True)
        lam = -24.0 + 1j * np.sqrt(3.0)
        assert eigs_close(np.linalg.eigvals(rec.A), [lam, np.conj(lam)], atol=1e-6)
        # the canonical seed reproduces the printed Gramian value
        assert np.allclose(details["T3bT3"], -0.2054 * np.eye(2), atol=5e-5)
        assert check_pr(rec.A, rec.C, tol=1e-8)
        for s in default_grid(sys, 20):
            assert np.linalg.norm(
                power_spectrum(rec, vac, s) - power_spectrum(sys, vac, s)
            ) < 1e-6
        assert is_globally_minimal(rec, vac)

    def test_pure_scattering_realizes_zero_modes(self):
        sys = QLSystem(S=Delta(np.exp(0.3j)), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        rec, details = ps_realize(ps_as_rational(sys, InputCovariance.vacuum(1)), return_details=True)
        assert rec.n == 0 and rec.m == 1
        assert details["T3bT3"].shape == (0, 0)

    def test_random_roundtrips(self, rng):
        vac = InputCovariance.vacuum(1)
        done = 0
        while done < 5:
            # n = 3 > 2m exercises the fallback column scaling
            sys = random_qlsystem(rng, int(rng.integers(1, 4)), 1)
            if np.min(np.abs(sys.poles.imag)) < 5e-2:
                continue
            if not is_globally_minimal(sys, vac):
                continue
            rec = ps_realize(ps_as_rational(sys, vac))
            for s in default_grid(sys, 11):
                assert np.linalg.norm(
                    power_spectrum(rec, vac, s) - power_spectrum(sys, vac, s)
                ) < 1e-6
            assert is_globally_minimal(rec, vac)
            done += 1

    def test_real_pole_data_rejected(self):
        vac = InputCovariance.vacuum(1)
        with pytest.raises(IdentificationError):
            ps_realize(ps_as_rational(dpa(3.0, 1.0, detuning=0.0), vac))

    def test_one_flat_gramian_per_call(self, monkeypatch):
        """Once B1 = -C2^b, the input-side Gramian is the output-side one: one solve, one factor."""
        import qls.realization as realization

        calls = []
        for name in ("gramian_flat", "factor_flat_gram"):
            wrapped = getattr(realization, name)
            monkeypatch.setattr(realization, name,
                                lambda *a, name=name, wrapped=wrapped: calls.append(name) or wrapped(*a))
        vac = InputCovariance.vacuum(1)
        draws = np.random.default_rng(3)
        seeded = next(s for s in (random_qlsystem(draws, 3, 1) for _ in range(100))
                      if np.min(np.abs(s.poles.imag)) > 5e-2 and is_globally_minimal(s, vac))
        for sys in (active_one_mode_example(), seeded):
            calls.clear()
            rec = ps_realize(ps_as_rational(sys, vac))
            assert calls == ["gramian_flat", "factor_flat_gram"]
            assert rec.n == sys.n

    @staticmethod
    def _perturbed(edit_residues=(), move_pole=None):
        """The active one-mode example's data with residues at given poles replaced by f(R),
        or one pole moved; lam is its stable pole in the upper half-plane."""
        ps = ps_as_rational(active_one_mode_example(), InputCovariance.vacuum(1))
        lam = next(p for p in ps.poles if p.real < 0 and p.imag > 0)
        at = lambda z: int(np.argmin(np.abs(np.array(ps.poles) - z(lam))))
        residues, poles = list(ps.residues), list(ps.poles)
        for z, f in edit_residues:
            residues[at(z)] = f(residues[at(z)])
        if move_pole is not None:
            poles[at(move_pole)] += 0.5
        return RationalMatrixFunction(ps.constant, poles, residues)

    @pytest.mark.parametrize("case, message", [
        ("stable", "stable mirror factors are not collinear"),
        ("unstable", "unstable mirror factors are not collinear"),
        ("B1", "B1 = -C2\\^b factors are not collinear"),
        ("missing", r"expected pole \(24-1\.73\d*j\) missing from data"),
    ])
    def test_inconsistent_data_rejected(self, case, message):
        """Each data check of ps_realize fires on the data it guards.  A sheared residue at
        conj(lam) breaks the stable Sigma-mirror; at -lam, the unstable one; at -conj(lam) and,
        mirrored, at -lam, it keeps the mirror but tilts the row off -C2^b."""
        shear, Sig = np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
        edits = {
            "stable": dict(edit_residues=[(np.conj, lambda R: shear @ R)]),
            "unstable": dict(edit_residues=[(lambda z: -z, lambda R: R @ shear)]),
            "B1": dict(edit_residues=[(lambda z: -np.conj(z), lambda R: R @ shear),
                                      (lambda z: -z, lambda R: R @ Sig @ shear @ Sig)]),
            "missing": dict(move_pole=lambda z: -z),
        }
        with pytest.raises(IdentificationError, match=message):
            ps_realize(self._perturbed(**edits[case]))


class TestNoisyRealize:
    def test_worked_example(self, rng):
        ss = StateSpace(A=[[-19.5 - 3j]], B=[[-1.0]], C=[[36.0]], D=np.eye(1))
        sys = noisy_realize(ss, 1, rng=rng)
        Cm = du_blocks(sys.C)[0]
        Om = du_blocks(sys.Omega)[0]
        assert abs(abs(Cm[0, 0]) - 6.0) < 1e-8
        assert abs(abs(Cm[1, 0]) - np.sqrt(3.0)) < 1e-8
        assert abs(Om[0, 0] - 3.0) < 1e-8
        f = accessible_block(sys, [0])
        for s in (-0.3j, -5j, 2.0, 0.5 + 1j):
            assert abs(f(s)[0, 0] - (1 - 36.0 / (s + 3j + 19.5))) < 1e-8

    @staticmethod
    def _accessible_data(seed, n, n_noise):
        """A seeded passive system with 1 + n_noise channels and the state space of its channel-0 block."""
        full = random_qlsystem(np.random.default_rng(seed), n, 1 + n_noise, passive=True)
        Am = du_blocks(full.A)[0]
        c1 = du_blocks(full.C)[0][0:1, :]
        return full, StateSpace(A=Am, B=-c1.conj().T, C=c1, D=np.eye(1))

    @pytest.mark.parametrize("n, n_noise", [(n, k) for n in range(1, 7) for k in (1, 2) if k <= n])
    def test_seeded_round_trip(self, n, n_noise):
        full, ss = self._accessible_data(100 * n + n_noise, n, n_noise)
        rec = noisy_realize(ss, n_noise)
        fa, fb = accessible_block(rec, [0]), accessible_block(full, [0])
        for s in default_grid(full):
            assert np.linalg.norm(fa(s) - fb(s)) <= 1e-8
        Arec, Crec = du_blocks(rec.A)[0], du_blocks(rec.C)[0]
        assert np.linalg.norm(Arec + Arec.conj().T + Crec.conj().T @ Crec) <= 1e-8

    @pytest.mark.parametrize("case", ["criterion_4", "n3_noise1", "n3_noise2"])
    def test_noise_coupling_is_canonical(self, case):
        """C1 is rebuilt from C1^dag C1, so rounding-level input changes move no entry of the output."""
        if case == "criterion_4":
            ss, n_noise = StateSpace(A=[[-19.5 - 3j]], B=[[-1.0]], C=[[36.0]], D=np.eye(1)), 1
        else:
            n_noise = int(case[-1])
            ss = self._accessible_data(31 + n_noise, 3, n_noise)[1]
        ref = noisy_realize(ss, n_noise)
        bump = np.random.default_rng(5)
        for _ in range(5):
            rel = lambda X: X * (1 + 1e-15 * (bump.standard_normal(X.shape) + 1j * bump.standard_normal(X.shape)))
            rec = noisy_realize(StateSpace(A=rel(ss.A), B=rel(ss.B), C=rel(ss.C), D=ss.D), n_noise)
            for X, Y in ((ref.S, rec.S), (ref.C, rec.C), (ref.Omega, rec.Omega)):
                assert np.all(np.abs(Y - X) <= 1e-9 * np.abs(X))

    def test_noise_rows_order_and_phase(self, rng):
        C = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        H = C.conj().T @ C
        rows = _noise_rows(H, 3)
        assert np.linalg.norm(rows.conj().T @ rows - H) <= 1e-12 * np.linalg.norm(H)
        norms = np.linalg.norm(rows, axis=1)
        assert norms[0] >= norms[1] > 0 and not rows[2].any()  # rank 2: the third row is zero
        for row in rows[:2]:
            lead = row[np.argmax(np.abs(row))]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15 * lead.real

    @pytest.mark.parametrize("n_noise", [2, -1])
    def test_n_noise_out_of_range(self, n_noise):
        ss = StateSpace(A=[[-19.5 - 3j]], B=[[-1.0]], C=[[36.0]], D=np.eye(1))
        with pytest.raises(ValueError, match="n_noise must be between 0 and n = 1"):
            noisy_realize(ss, n_noise)

    def test_zero_noise_channels(self, rng):
        sys = cavity(1.21, 0.6)
        Am = du_blocks(sys.A)[0]
        Cm = du_blocks(sys.C)[0]
        ss = StateSpace(A=Am, B=-Cm.conj().T, C=Cm, D=np.eye(1))
        rec = noisy_realize(ss, 0, rng=rng)
        assert tf_equal(rec, sys, tol=1e-8)

    def test_random_accessible_roundtrip(self, rng):
        for _ in range(3):
            full = random_qlsystem(rng, 2, 2, passive=True)
            Am = du_blocks(full.A)[0]
            c1 = du_blocks(full.C)[0][0:1, :]
            ss = StateSpace(A=Am, B=-c1.conj().T, C=c1, D=np.eye(1))
            rec = noisy_realize(ss, 2, rng=rng)
            fa = accessible_block(rec, [0])
            fb = accessible_block(full, [0])
            for s in default_grid(full, 11):
                assert np.linalg.norm(fa(s) - fb(s)) < 1e-6
            # passive PR of the extension
            Arec = du_blocks(rec.A)[0]
            Crec = du_blocks(rec.C)[0]
            assert np.linalg.norm(Arec + Arec.conj().T + Crec.conj().T @ Crec) < 1e-8


def make_nus_system():
    """Two-mode passive system whose noise coupling kills one left eigenvector."""
    Om = np.array([[1.0, 0.3], [0.3, 2.0]])
    c1 = np.array([[1.0, 0.5]])
    c2 = np.array([[0.2, -0.4]], dtype=complex)
    for _ in range(200):
        sys = QLSystem.passive(np.eye(2), np.vstack([c1, c2]), Om)
        Am = du_blocks(sys.A)[0]
        vals, vecs = np.linalg.eig(Am.conj().T)
        y = vecs[:, 0]
        proj = (c2 @ y)[0] / (y.conj() @ y)
        c2_new = c2 - proj * y.conj()[None, :]
        if np.linalg.norm(c2_new - c2) < 1e-15:
            break
        c2 = c2_new
    return QLSystem.passive(np.eye(2), np.vstack([c1, c2]), Om)


class TestNus:
    def test_constructed_nus(self):
        sys = make_nus_system()
        assert len(nus_detect(sys, [0])) == 1

    def test_zero_noise_coupling_gives_full_nus(self):
        Om = np.array([[1.0, 0.3], [0.3, 2.0]])
        c1 = np.array([[1.0, 0.5]])
        sys = QLSystem.passive(np.eye(2), np.vstack([c1, np.zeros((1, 2))]), Om)
        assert len(nus_detect(sys, [0])) == 2

    def test_generic_system_has_none(self, rng):
        sys = random_qlsystem(rng, 2, 2, passive=True)
        assert nus_detect(sys, [0]) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_cavities_share_one_pole(self, seed):
        # A_- = -(1/2 + 0.7i) 1: every vector is an eigenvector, so the noise-unobservable
        # subspace is the kernel of the noise row U[1], whatever basis eig returns
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        nus = nus_detect(QLSystem.passive(np.eye(2), U, 0.7 * np.eye(2)), [0])
        assert len(nus) == 1
        y = nus[0]
        assert abs(U[1] @ y) < 1e-12 * np.linalg.norm(y)

    def test_nus_data_rigid_across_equivalent_systems(self, rng):
        # two systems sharing the full accessible transfer data are related
        # by a unitary; on the noise-unobservable subspace the observable
        # moments C1 A^k y then agree up to a single eigenvector scale
        sys = make_nus_system()
        from scipy.linalg import expm

        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U = expm(-1j * 0.5 * (H + H.conj().T))
        Cm = du_blocks(sys.C)[0]
        Om = du_blocks(sys.Omega)[0]
        other = QLSystem.passive(np.eye(2), Cm @ U.conj().T, U @ Om @ U.conj().T)

        nus_a = nus_detect(sys, [0])
        nus_b = nus_detect(other, [0])
        assert len(nus_a) == len(nus_b) == 1

        def moments(system, y):
            A = du_blocks(system.A)[0]
            c1 = du_blocks(system.C)[0][0:1, :]
            return np.array([complex((c1 @ np.linalg.matrix_power(A, k) @ y)[0])
                             for k in range(A.shape[0])])

        ma = moments(sys, nus_a[0])
        mb = moments(other, nus_b[0])
        scale = mb[np.argmax(np.abs(ma))] / ma[np.argmax(np.abs(ma))]
        assert np.linalg.norm(mb - scale * ma) < 1e-8 * max(1.0, np.linalg.norm(mb))
