"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from qls.absorber import canonicalize_stationary, dual_system, verify_absorber
from qls.algebra import du_blocks, flat_adjoint, flat_unitary_residual, jmat
from qls.estimation import (
    destabilized_scaling_check,
    ensemble_coupling_profile,
    gauge_tangent_family,
    stationary_qfi_rate_freq,
    stationary_qfi_rate_time,
)
from qls.model import (
    ParamFamily,
    QLSystem,
    default_grid,
    gauge_transform,
    series_product,
    tf_equal,
    transfer_function,
)
from qls.realization import (
    RationalMatrixFunction,
    ps_as_rational,
    ps_realize,
    noisy_realize,
    physical_from_classical,
    gilbert_realize,
    siso_cascade_identify,
    tf_as_rational,
    accessible_block,
)
from qls.sampling import (
    random_hermitian_doubled_up,
    random_pure_input,
    random_qlsystem,
    random_symplectic,
)
from qls.stationary import (
    InputCovariance,
    is_globally_minimal,
    power_spectrum,
    pure_mixed_split,
    solve_lyapunov,
)
from qls.model import StateSpace

from conftest import (
    absorber_two_mode_example,
    active_one_mode_example,
    eigs_close,
    gm2_system,
    squeezed_input,
    two_mode_cascade_example,
)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def scalar_parts(sys):
    tfr = tf_as_rational(sys)
    xi_m = RationalMatrixFunction([[1.0]], tfr.poles, [R[:1, :1] for R in tfr.residues])
    xi_p = RationalMatrixFunction([[0.0]], tfr.poles, [R[:1, 1:2] for R in tfr.residues])
    return xi_m, xi_p


def test_criterion_1_cascade_identification():
    """Two-mode cascade identification reproduces the worked stage values."""
    sys = two_mode_cascade_example()
    xi_m, xi_p = scalar_parts(sys)
    t0 = time.time()
    casc = siso_cascade_identify(xi_m, xi_p)  # descending |Re| picks -103.48 +/- 2.12i
    elapsed = time.time() - t0
    st1, st2 = casc.stages

    # Omega_+ values are pinned up to the active-coupling sign convention of
    # the source parameterization; components are compared in magnitude and
    # the composite transfer function pins the joint reconstruction exactly.
    checks = [
        abs(st1.c - 14.39) < 5e-3,
        abs(st1.omega_minus - 2.33) < 5e-3,
        abs(abs(st1.omega_plus.real) - 0.15) < 5e-3,
        abs(abs(st1.omega_plus.imag) - 0.93) < 5e-3,
        abs(st2.c - 0.2) < 7e-3,
        abs(st2.omega_minus - 7.38) < 5e-3,
        abs(abs(st2.omega_plus.real) - 1.48) < 6e-3,
        abs(abs(st2.omega_plus.imag) - 4.55) < 6e-3,
        tf_equal(casc.to_system(), sys, tol=1e-6),
        elapsed < 1.0,
    ]

    small = [p for p in xi_m.poles if abs(p.real) < 1.0][0]
    alt = siso_cascade_identify(xi_m, xi_p, pole_order=[small])
    a1, a2 = alt.stages
    checks += [
        abs(a1.c - 0.2) < 7e-3,
        abs(a1.omega_minus - 7.30) < 5e-2,
        abs(abs(a1.omega_plus.real) - 1.61) < 5e-2,
        abs(abs(a1.omega_plus.imag) - 4.37) < 5e-2,
        abs(a2.c - 14.39) < 5e-3,
        tf_equal(alt.to_system(), sys, tol=1e-6),
    ]
    report(
        "criterion 1: direct cascade identification",
        all(checks),
        f"stages ({st1.c:.2f}, {st1.omega_minus:.2f}, {st1.omega_plus:.2f}) / "
        f"({st2.c:.2f}, {st2.omega_minus:.2f}, {st2.omega_plus:.2f}), {elapsed*1e3:.0f} ms",
    )


def test_criterion_2_power_spectrum_realization():
    """Power-spectrum realization of the one-mode example."""
    sys = active_one_mode_example()
    vac = InputCovariance.vacuum(1)
    psr = ps_as_rational(sys, vac)
    rec, details = ps_realize(psr, return_details=True)
    lam = -24.0 + 1j * np.sqrt(3.0)
    spectrum_ok = eigs_close(np.linalg.eigvals(rec.A), [lam, np.conj(lam)], atol=5e-4)
    gramian_ok = np.allclose(details["T3bT3"], np.diag([-0.2054, -0.2054]), atol=5e-5)
    grid = default_grid(sys, 20)
    psi_dev = max(
        np.linalg.norm(power_spectrum(rec, vac, s) - power_spectrum(sys, vac, s))
        for s in grid
    )
    report(
        "criterion 2: power-spectrum realization",
        spectrum_ok and gramian_ok and psi_dev < 1e-6,
        f"spectrum {np.round(np.linalg.eigvals(rec.A), 3)}, "
        f"T3bT3 diag {details['T3bT3'][0,0]:.4f}, Psi dev {psi_dev:.2e}",
    )


def test_criterion_3_absorber_reproduction():
    """Two-mode absorber example: purity, trivial output, inherited spectrum."""
    sys = absorber_two_mode_example()
    res = dual_system(sys)
    canon = canonicalize_stationary(sys)["sys"]
    rep = verify_absorber(canon, res.dual)

    spec_ok = eigs_close(np.linalg.eigvals(res.dual.A), np.linalg.eigvals(sys.A), atol=1e-8)

    # printed dual, four-decimal truncation; compare transfer functions
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
        du_blocks(C2p)[0], du_blocks(C2p)[1], 0.5 * (om + om.conj().T), 0.5 * (op + op.T)
    )
    grid = default_grid(res.dual, 15)
    tf_dev = max(
        np.linalg.norm(transfer_function(res.dual, s) - transfer_function(printed, s))
        for s in grid
    )
    # the printed matrices themselves act as an absorber to print precision
    printed_rep = verify_absorber(canon, printed)

    report(
        "criterion 3: absorber reproduction",
        res.purity_residual < 1e-6
        and rep["ps_residual"] < 1e-6
        and spec_ok
        and tf_dev < 0.1
        and printed_rep["purity_residual"] < 5e-3,
        f"purity {res.purity_residual:.2e}, PS dev {rep['ps_residual']:.2e}, "
        f"TF dev vs print {tf_dev:.3f}, printed-dual purity {printed_rep['purity_residual']:.1e}",
    )


def test_criterion_4_noisy_identification():
    """Noise-channel extension of the accessible block 1 - 36/(s + 3i + 39/2)."""
    ss = StateSpace(A=[[-19.5 - 3j]], B=[[-1.0]], C=[[36.0]], D=np.eye(1))
    sys = noisy_realize(ss, 1, rng=np.random.default_rng(0))
    Cm = du_blocks(sys.C)[0]
    Om = du_blocks(sys.Omega)[0]
    vals_ok = (
        abs(abs(Cm[0, 0]) - 6.0) < 1e-8
        and abs(abs(Cm[1, 0]) - np.sqrt(3.0)) < 1e-8
        and abs(Om[0, 0] - 3.0) < 1e-8
    )
    f = accessible_block(sys, [0])
    tf_dev = max(
        abs(f(s)[0, 0] - (1 - 36.0 / (s + 3j + 19.5)))
        for s in (-0.1j, -2j, -40j, 1.0, 0.3 + 5j)
    )
    report(
        "criterion 4: noisy identification",
        vals_ok and tf_dev < 1e-8,
        f"|C1| {abs(Cm[0,0]):.6f}, |C2| {abs(Cm[1,0]):.6f}, Omega {Om[0,0].real:.6f}, "
        f"accessible dev {tf_dev:.2e}",
    )


def test_criterion_5_cavity_stationary_qfi():
    """Both stationary QFI rates hit 16 N (N+1) / c^2 for the detuning family."""
    c, N = 1.3, 0.8
    fam = ParamFamily(
        evaluate=lambda th: QLSystem.passive([[1.0]], [[c]], [[th]]), fd_step=1e-6
    )
    V = squeezed_input(N)
    target = 16.0 * N * (N + 1.0) / c**2
    ft = stationary_qfi_rate_time(fam, 0.0, V).value
    ff = stationary_qfi_rate_freq(fam, 0.0, V).value
    ok = abs(ft - target) < 1e-8 * target and abs(ff - target) < 1e-8 * target
    report(
        "criterion 5: cavity stationary QFI",
        ok,
        f"time {ft:.10f}, freq {ff:.10f}, target {target:.10f}",
    )


def test_criterion_6_ensemble_profile():
    """Coupling sensitivity peaks at w = +/- kappa/2 with squared value 4."""
    ok = True
    details = []
    for kappa in (0.5, 1.0, 2.0):
        out = ensemble_coupling_profile(kappa)
        ok = ok and abs(abs(out["omega_opt"]) - kappa / 2) < 1e-6
        ok = ok and abs(out["f_opt_sq"] - 4.0) < 1e-6
        details.append(f"k={kappa}: w*={out['omega_opt']:+.3f}, f^2={out['f_opt_sq']:.6f}")
    report("criterion 6: ensemble coupling profile", ok, "; ".join(details))


def test_criterion_7_gm2_family():
    """Global-minimality verdicts and pure-component dimensions of the family."""
    V = squeezed_input(0.5)
    ok = True
    for x, expected in ((0.0, True), (8.0, True)):
        ok = ok and is_globally_minimal(gm2_system(x), V) == expected
    dims = {}
    for x, dim in ((-1.0, 1), (-4.0, 2)):
        ok = ok and not is_globally_minimal(gm2_system(x), V)
        out = pure_mixed_split(gm2_system(x), V)
        dims[x] = 0 if out["pure"] is None else out["pure"].n
        ok = ok and dims[x] == dim
    report(
        "criterion 7: gm2 family",
        ok,
        f"GM at 0, 8; pure dims {dims[-1.0]} and {dims[-4.0]} at -1, -4",
    )


def test_criterion_8_property_suite():
    """Randomized invariants over 100 seeded physically realizable systems."""
    t0 = time.time()
    rng = np.random.default_rng(1234)
    systems = []
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        systems.append(random_qlsystem(rng, n, m))

    worst = {
        "fpr": 0.0,
        "lyap": 0.0,
        "gauge_tf": 0.0,
        "series": 0.0,
        "absorber": 0.0,
        "gauge_qfi": 0.0,
        "qfi_agree": 0.0,
        "tf_roundtrip": 0.0,
        "ps_roundtrip": 0.0,
    }
    counts = {k: 0 for k in worst}

    for idx, sys in enumerate(systems):
        m = sys.m
        V = InputCovariance(*random_pure_input(rng, m))
        grid = default_grid(sys, 9)

        dev = max(flat_unitary_residual(transfer_function(sys, s)) for s in grid)
        worst["fpr"] = max(worst["fpr"], dev)
        counts["fpr"] += 1

        worst["lyap"] = max(worst["lyap"], solve_lyapunov(sys, V).residual)
        counts["lyap"] += 1

        T = random_symplectic(rng, sys.n)
        gauged = gauge_transform(sys, T)
        dev = max(
            np.linalg.norm(transfer_function(sys, s) - transfer_function(gauged, s))
            for s in grid
        )
        worst["gauge_tf"] = max(worst["gauge_tf"], dev)
        counts["gauge_tf"] += 1

        partner = random_qlsystem(rng, int(rng.integers(1, 3)), m)
        ser = series_product(sys, partner)
        dev = 0.0
        for s in default_grid(ser, 9):
            prod = transfer_function(partner, s) @ transfer_function(sys, s)
            err = np.linalg.norm(transfer_function(ser, s) - prod)
            dev = max(dev, err / max(1.0, np.linalg.norm(prod)))
        worst["series"] = max(worst["series"], dev)
        counts["series"] += 1

        if counts["absorber"] < 15:
            try:
                gm = is_globally_minimal(sys, InputCovariance.vacuum(m))
            except (ValueError, RuntimeError):
                gm = False
            if gm:
                res = dual_system(sys)
                worst["absorber"] = max(worst["absorber"], res.purity_residual)
                counts["absorber"] += 1

        if counts["gauge_qfi"] < 15:
            R = random_hermitian_doubled_up(rng, sys.n)
            fam = gauge_tangent_family(sys, R)
            scale = np.linalg.norm(sys.C) ** 2 + np.linalg.norm(sys.Omega) ** 2
            val = abs(stationary_qfi_rate_time(fam, 0.0, V).value) / scale
            worst["gauge_qfi"] = max(worst["gauge_qfi"], val)
            counts["gauge_qfi"] += 1

        if counts["qfi_agree"] < 5 and sys.n <= 2:
            dOm = random_hermitian_doubled_up(rng, sys.n, 0.5)
            dCm = 0.3 * (rng.standard_normal((m, sys.n)) + 1j * rng.standard_normal((m, sys.n)))

            def evaluate(theta, base=sys, dOm=dOm, dCm=dCm):
                om, op = du_blocks(base.Omega + theta * dOm)
                cm, cp = du_blocks(base.C)
                return QLSystem.from_blocks(
                    cm + theta * dCm, cp, 0.5 * (om + om.conj().T), 0.5 * (op + op.T)
                )

            fam = ParamFamily(evaluate=evaluate, fd_step=1e-6)
            ft = stationary_qfi_rate_time(fam, 0.0, V).value
            ff = stationary_qfi_rate_freq(fam, 0.0, V).value
            worst["qfi_agree"] = max(worst["qfi_agree"], abs(ft - ff) / max(abs(ft), 1e-9))
            counts["qfi_agree"] += 1

        eigs = np.linalg.eigvals(sys.A)
        generic = np.min(np.abs(eigs.imag)) > 5e-2 and sys.m == 1
        if generic and counts["tf_roundtrip"] < 10:
            rec = physical_from_classical(gilbert_realize(tf_as_rational(sys)))
            dev = max(
                np.linalg.norm(transfer_function(rec, s) - transfer_function(sys, s))
                for s in grid
            )
            worst["tf_roundtrip"] = max(worst["tf_roundtrip"], dev)
            counts["tf_roundtrip"] += 1
        if generic and counts["ps_roundtrip"] < 8:
            vac = InputCovariance.vacuum(1)
            try:
                gm = is_globally_minimal(sys, vac)
            except (ValueError, RuntimeError):
                gm = False
            if gm:
                rec = ps_realize(ps_as_rational(sys, vac))
                dev = max(
                    np.linalg.norm(power_spectrum(rec, vac, s) - power_spectrum(sys, vac, s))
                    for s in grid
                )
                worst["ps_roundtrip"] = max(worst["ps_roundtrip"], dev)
                counts["ps_roundtrip"] += 1

    elapsed = time.time() - t0
    limits = {
        "fpr": 1e-8,
        "lyap": 1e-8,
        "gauge_tf": 1e-8,
        "series": 1e-10,
        "absorber": 1e-6,
        "gauge_qfi": 1e-6,
        "qfi_agree": 1e-8,
        "tf_roundtrip": 1e-6,
        "ps_roundtrip": 1e-6,
    }
    ok = all(worst[k] < limits[k] for k in limits) and elapsed < 300
    assert all(counts[k] > 0 for k in counts), counts
    detail = ", ".join(f"{k} {worst[k]:.1e}/{counts[k]}" for k in worst)
    report("criterion 8: property suite", ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_9_destabilization_scaling():
    """QFI rate grows linearly with the stabilisation time on a coupling sweep."""
    V = squeezed_input(0.8)

    def builder(c2):
        return ParamFamily(
            evaluate=lambda th: QLSystem.passive([[1.0]], [[np.sqrt(c2)]], [[th]]),
            fd_step=1e-6,
        )

    out = destabilized_scaling_check(builder, [1.0, 0.5, 0.25, 0.125], V)
    ok = abs(out["slope"] - 1.0) < 0.05
    report("criterion 9: destabilization scaling", ok, f"slope {out['slope']:.6f}")
