import numpy as np
import pytest

from qls.absorber import canonicalize_stationary, dual_system, verify_absorber
from qls.algebra import Delta, du_blocks, jmat
from qls.model import QLSystem, default_grid, gauge_transform, series_product, tf_equal, transfer_function
from qls.sampling import random_qlsystem, random_symplectic
from qls.stationary import InputCovariance, is_globally_minimal, power_spectrum, solve_lyapunov

from conftest import absorber_two_mode_example, eigs_close


def gm_random_system(rng, n=1, m=1):
    vac = InputCovariance.vacuum(m)
    while True:
        sys = random_qlsystem(rng, n, m)
        try:
            if is_globally_minimal(sys, vac):
                return sys
        except (ValueError, RuntimeError):
            continue


class TestCanonicalize:
    def test_two_mode_example_occupations(self):
        out = canonicalize_stationary(absorber_two_mode_example())
        assert np.allclose(out["occupations"], [0.0022, 0.3623], atol=5e-5)
        state = solve_lyapunov(out["sys"], InputCovariance.vacuum(1))
        D = state.P
        assert np.linalg.norm(D - np.diag(np.diag(D))) < 1e-9

    def test_random_canonical_form(self, rng):
        sys = gm_random_system(rng, 2)
        out = canonicalize_stationary(sys)
        state = solve_lyapunov(out["sys"], InputCovariance.vacuum(1))
        n = sys.n
        diag = np.diag(state.P).real
        assert np.allclose(diag[:n] - 1.0, diag[n:], atol=1e-8)
        assert np.linalg.norm(state.P - np.diag(np.diag(state.P))) < 1e-8

    def test_non_gm_rejected(self, rng):
        sys = random_qlsystem(rng, 1, 1, passive=True)
        with pytest.raises(ValueError):
            canonicalize_stationary(sys)


class TestDualSystem:
    def test_one_cascade_no_spectrum(self, monkeypatch):
        import qls.absorber as absorber

        sys = absorber_two_mode_example()
        calls = {"series_product": 0, "power_spectrum": 0}

        def counted(name):
            fn = getattr(absorber, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(absorber, name, counted(name))
        res = dual_system(sys)
        assert calls == {"series_product": 1, "power_spectrum": 0}
        monkeypatch.undo()
        canon = canonicalize_stationary(sys)["sys"]
        assert res.purity_residual == verify_absorber(canon, res.dual)["purity_residual"]

    def test_one_mode_closed_form(self, rng):
        sys = gm_random_system(rng, 1)
        res = dual_system(sys)
        assert res.purity_residual < 1e-10
        canon = canonicalize_stationary(sys)["sys"]
        C1m, C1p = du_blocks(canon.C)
        r = np.linalg.norm(C1m) / np.linalg.norm(C1p)
        expected_C2m = -r * C1p
        expected_C2p = -(1.0 / r) * C1m
        C2m, C2p = du_blocks(res.dual.C)
        assert np.allclose(C2m, expected_C2m, atol=1e-8)
        assert np.allclose(C2p, expected_C2p, atol=1e-8)
        # A2 = J conj(A1) J
        assert np.allclose(res.dual.A, jmat(1) @ canon.A.conj() @ jmat(1), atol=1e-8)

    def test_two_mode_example(self):
        sys = absorber_two_mode_example()
        res = dual_system(sys)
        assert res.purity_residual < 1e-6
        rep = verify_absorber(canonicalize_stationary(sys)["sys"], res.dual)
        assert rep["purity_residual"] < 1e-6
        assert rep["ps_residual"] < 1e-6
        assert eigs_close(
            np.linalg.eigvals(res.dual.A), np.linalg.eigvals(sys.A), atol=1e-8
        )

    def test_two_mode_example_matches_printed_dual(self):
        # printed to four decimals, so the transfer functions agree to the
        # precision the truncation allows
        from qls.algebra import flat_adjoint

        C2p = np.array(
            [
                [4.5733 + 1.8180j, -1.2936 + 4.3049j, -0.2287 + 0.0184j, -2.2092 + 0.7018j],
                [-0.2287 - 0.0184j, -2.2092 - 0.7018j, 4.5733 - 1.8180j, -1.2936 - 4.3049j],
            ]
        )
        A2p = np.array(
            [
                [-12.0838 + 3.5322j, 0.0412 - 21.7310j, 1.0074 - 0.4989j, 8.9136 - 6.9596j],
                [-1.4331 + 0.1886j, -7.4163 + 3.3866j, -0.2533 - 0.6494j, -3.3657 - 5.0183j],
                [1.0074 + 0.4989j, 8.9136 + 6.9596j, -12.0838 - 3.5322j, 0.0412 + 21.7310j],
                [-0.2533 + 0.6494j, -3.3657 + 5.0183j, -1.4331 - 0.1886j, -7.4163 - 3.3866j],
            ]
        )
        Om2 = 1j * jmat(2) @ (A2p + 0.5 * flat_adjoint(C2p) @ C2p)
        om, op = du_blocks(Om2)
        printed = QLSystem.from_blocks(
            du_blocks(C2p)[0], du_blocks(C2p)[1],
            0.5 * (om + om.conj().T), 0.5 * (op + op.T),
        )
        res = dual_system(absorber_two_mode_example())
        grid = default_grid(res.dual, 15)
        dev = max(
            np.linalg.norm(transfer_function(res.dual, s) - transfer_function(printed, s))
            for s in grid
        )
        assert dev < 0.1  # limited by the four-decimal truncation of the print

    def test_combined_power_spectrum_trivial(self, rng):
        sys = gm_random_system(rng, 2)
        res = dual_system(sys)
        vac = InputCovariance.vacuum(1)
        for s in default_grid(res.combined, 20):
            assert np.linalg.norm(power_spectrum(res.combined, vac, s) - vac.matrix()) < 1e-6

    def test_dual_spectrum_inherited(self, rng):
        for _ in range(3):
            sys = gm_random_system(rng, 2)
            res = dual_system(sys)
            assert eigs_close(
                np.linalg.eigvals(res.dual.A), np.linalg.eigvals(sys.A), atol=1e-7
            )

    def test_dual_unique_up_to_gauge(self, rng):
        sys = gm_random_system(rng, 2)
        res1 = dual_system(sys)
        res2 = dual_system(gauge_transform(sys, random_symplectic(rng, 2)))
        assert tf_equal(res1.dual, res2.dual, tol=1e-6)

    def test_non_gm_rejected(self, rng):
        with pytest.raises(ValueError):
            dual_system(random_qlsystem(rng, 1, 1, passive=True))


class TestVerifyAbsorber:
    def test_self_pairing_fails(self, rng):
        sys = gm_random_system(rng, 1)
        rep = verify_absorber(sys, sys)
        assert rep["purity_residual"] > 1e-3

    def test_pairing_with_dual_succeeds(self, rng):
        sys = gm_random_system(rng, 1)
        res = dual_system(sys)
        canon = canonicalize_stationary(sys)["sys"]
        rep = verify_absorber(canon, res.dual)
        assert rep["purity_residual"] < 1e-10
        assert rep["ps_residual"] < 1e-10


    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2)])
    def test_matches_dense_reference(self, rng, n, m):
        """Block solve and parts' spectrum against the cascade rebuilt without parts."""
        sys = gm_random_system(rng, n, m)
        res = dual_system(sys)
        canon = canonicalize_stationary(sys)["sys"]
        vac = InputCovariance.vacuum(m)
        for first, second in ((canon, res.dual), (sys, sys)):  # pure, and far from pure
            cascade = series_product(first, second)
            dense = QLSystem.from_drift(cascade.A, cascade.C, cascade.S)
            assert dense.parts is None
            grid = default_grid(cascade, 21)
            purity = np.max(solve_lyapunov(dense, vac).symplectic_spectrum)
            dev = power_spectrum(dense, vac, grid) - vac.matrix()
            rep = verify_absorber(first, second)
            assert abs(rep["purity_residual"] - purity) <= 1e-12
            assert abs(rep["ps_residual"] - np.max(np.linalg.norm(dev, axis=(1, 2)))) <= 1e-12
        dense = QLSystem.from_drift(res.combined.A, res.combined.C, res.combined.S)
        assert abs(res.purity_residual - np.max(solve_lyapunov(dense, vac).symplectic_spectrum)) <= 1e-12


class TestCascadeReduction:
    def test_absorbed_pair_is_invisible_downstream(self, rng):
        # a dual-built two-mode sub-cascade nullifies its stage: appending an
        # extra system leaves exactly the extra system's power spectrum
        sys = gm_random_system(rng, 1)
        res = dual_system(sys)
        extra = gm_random_system(rng, 1)
        full = series_product(res.combined, extra)
        vac = InputCovariance.vacuum(1)
        for s in default_grid(full, 15):
            assert np.linalg.norm(
                power_spectrum(full, vac, s) - power_spectrum(extra, vac, s)
            ) < 1e-7


class TestZeroModes:
    """Pure scattering (no modes): the stationary state is trivially pure."""

    sys = QLSystem(S=Delta(np.exp(0.3j)), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))

    def test_canonicalize_stationary(self):
        out = canonicalize_stationary(self.sys)
        assert out["sys"].n == 0 and out["occupations"].shape == (0,)

    def test_dual_system(self):
        res = dual_system(self.sys)
        assert res.dual.n == 0 and res.combined.n == 0
        assert res.purity_residual == 0.0

    def test_verify_absorber(self):
        rep = verify_absorber(self.sys, self.sys)
        assert rep["purity_residual"] == 0.0
        assert rep["ps_residual"] <= 1e-14
