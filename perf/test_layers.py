"""Per-call cost of the package's layers, with pytest-benchmark.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest perf/test_layers.py \
        --benchmark-json=layers.json

This directory sits outside ``testpaths``, so the test suite does not
collect it.  Only public names are used, so the same file also times older
checkouts: copy it into the older tree and run it from that tree's root,
since pyproject.toml puts the root's ``src`` ahead of PYTHONPATH.  Inputs
are seeded: one passive-plus-weakly-active system with n modes and one
channel per size, a squeezed input, a generic flat Gram
matrix and, for ``physical_from_classical``, the system's realization in a
seeded non-symplectic basis.  The ``dump_json`` cases time the emit stage
of ``qls tf`` on the transfer function of a seeded 4-mode, 2-channel
system (2m = 4) and of the 1-mode, 1-channel one (2m = 2), and the list
path on the system file of the n = 32, m = 2 system.  The absorber cases
take the n = 32 system, its coherent
absorber and their pure 64-mode cascade (a 2n = 128 covariance); the
cascade Lyapunov case solves the cascade of each size's system into its
absorber.  The Lyapunov cases come cached (one system, its
eigendecomposition computed once) and ``fresh`` (the system, or the
cascade's parts, rebuilt inside the timed call); ``lyap`` takes a Hurwitz
X with a Hermitian right-hand side, ``lyap_defective`` a Jordan block and
``lyap_gm2_drift`` the drift of the two-mode gm2 example at x = 0 (a
2 x 2 Jordan block per pole), both solved by the direct fallback (one LU
of the Kronecker form up to ``KRON_MAX``, Bartels-Stewart past it).
``noisy_realize`` takes channel 0 of a seeded passive system with n modes
and 1 + n_noise channels, (n, n_noise) = (1, 1), (3, 1) and (6, 2).
``siso_cascade_identify`` takes the (Xi_-, Xi_+) data of the
n = 2, 8 and 16 systems; the n = 32 system has a near-real pole pair,
which the cascade route rejects.  ``gilbert_realize`` takes each size's
transfer-function data and ``ps_realize`` each size's vacuum
power-spectrum data; both skip n = 32 for the same reason; ``dual_system``
takes each size's system.  The ``freq_response_grid`` cases evaluate
the spectra workload's sizes, (n, m, K) = (1, 1, 301), (4, 2, 301),
(16, 1, 81) and (32, 2, 25), one rule of the qfi workload's frequency
route, (3, 2, 192), and the degenerate parametric amplifier at its
exceptional point (``dpaK301``, a defective drift on the dense route),
on K points spanning the poles' frequencies +/- 3, plain and along a
seeded tangent: ``fresh`` builds the system inside
the timed call (construction, eigendecomposition and grid, as for a system
evaluated once), ``cached`` reuses one already evaluated.  The
construction cases time ``Delta`` on the blocks of Omega,
``is_symplectic`` and ``gauge_transform`` with a seeded symplectic
exp(-i J R), and ``series_product`` of each system into itself; the
``family_evaluate`` cases evaluate a JSON family at the qfi workload's
sizes n = 1, 2, 3 (one channel), with one dependency on each block of C
and of Omega, and the ``family_at`` cases take ``at(0.1)`` on a fresh
``dataclasses.replace`` copy of such a family (``json``, which carries its
exact tangent) and of a family with its evaluate alone (``callable``, a
central difference).  The ``stationary_qfi_rate`` cases take such a family at
the qfi workload's sizes, n = 1, 2, 3 and m = 1, 2, at theta = 0.1 with
every channel squeezed alike, and time both routes, ``freq`` and ``time``,
each on a ``dataclasses.replace`` copy that keeps no evaluated point;
``qfi_rate_pair`` loads such a family inside the timed call and runs
``freq`` then ``time`` on it, as the qfi workload does for each family.
``is_minimal``, ``is_globally_minimal`` and ``pure_mixed_split`` take the
system of each of n = 1, 2, 8, 16 and 32 and the squeezed input (every size
is globally minimal, so the split has no pure part); ``is_minimal_defective``
takes the two-mode gm2 example at x = 0, whose defective drift has no usable
eigenbasis (the PBH route).  ``nus_detect`` takes a seeded passive system with
n = 1, 2, 8, 16 or 32 modes and two channels, channel 0 accessible.
The ``cli_process`` cases time one whole ``python -m qls.cli`` process
(interpreter start, imports, load, compute, emit; 7 rounds after one
warm-up) for ``--help``, ``tf`` on the n = 2 system, ``ps`` on it with the
squeezed input, ``realize-tf`` on that system's transfer-function
data, ``absorber`` on it, and ``qfi --method time`` on the n = 1 family.
"""

import dataclasses

import numpy as np
import pytest

from qls import (
    Delta,
    InputCovariance,
    QLSystem,
    RationalMatrixFunction,
    ParamFamily,
    StateSpace,
    default_grid,
    factor_flat_gram,
    dual_system,
    flat_adjoint,
    gauge_transform,
    gilbert_realize,
    is_globally_minimal,
    is_hurwitz,
    is_minimal,
    is_symplectic,
    jmat,
    noisy_realize,
    nus_detect,
    physical_from_classical,
    ps_as_rational,
    ps_realize,
    pure_mixed_split,
    random_symplectic,
    series_product,
    siso_cascade_identify,
    solve_lyapunov,
    stationary_qfi_rate_freq,
    stationary_qfi_rate_time,
    tf_as_rational,
    verify_absorber,
    williamson,
)
from qls import io as qio
from qls.algebra import du_blocks, gramian_flat, lyap
from qls.model import freq_response
from qls.realization import IdentificationError

SIZES = (2, 8, 32)
MINIMALITY_SIZES = (1, 2, 8, 16, 32)


def _cplx(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _system(n, m=1):
    """Seeded Hurwitz system: passive couplings plus 5 % active parts."""
    rng = np.random.default_rng(n)
    while True:
        Om1 = _cplx(rng, (n, n))
        Om2 = _cplx(rng, (n, n), 0.05)
        sys = QLSystem.from_blocks(_cplx(rng, (m, n)), _cplx(rng, (m, n), 0.05),
                                   0.5 * (Om1 + Om1.conj().T), 0.5 * (Om2 + Om2.T))
        if is_hurwitz(sys):
            return sys


def _flat_gram(n):
    """T^b T for a seeded doubled-up T near the identity: a generic input of factor_flat_gram."""
    rng = np.random.default_rng(100 + n)
    T = Delta(np.eye(n) + _cplx(rng, (n, n), 0.3 / np.sqrt(n)), _cplx(rng, (n, n), 0.2 / np.sqrt(n)))
    return flat_adjoint(T) @ T


def _squeezed(m):
    """The pure input squeezing each of m channels alike (N = 0.3)."""
    return InputCovariance(0.3 * np.eye(m), np.sqrt(0.3 * 1.3) * np.exp(0.4j) * np.eye(m))


INPUT = _squeezed(1)


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"n{n}")
def sys(request):
    return _system(request.param)


def test_jmat(benchmark, sys):
    benchmark(jmat, sys.n)


def test_flat_adjoint(benchmark, sys):
    benchmark(flat_adjoint, sys.C)


def test_qlsystem_construction(benchmark, sys):
    benchmark(QLSystem, S=sys.S, C=sys.C, Omega=sys.Omega)


def test_delta(benchmark, sys):
    benchmark(Delta, *du_blocks(sys.Omega))


def test_is_symplectic(benchmark, sys):
    benchmark(is_symplectic, random_symplectic(np.random.default_rng(400 + sys.n), sys.n))


def test_gauge_transform(benchmark, sys):
    benchmark(gauge_transform, sys, random_symplectic(np.random.default_rng(400 + sys.n), sys.n))


def test_series_product(benchmark, sys):
    benchmark(series_product, sys, sys)


def _family_spec(n, m=1):
    """JSON of a family on the n-mode, m-channel system, one dependency on each block of C and of Omega."""
    entry = lambda target, c: {"target": target, "row": 0, "col": n - 1, "coefficient": [c.real, c.imag]}
    return {
        "base": qio.system_to_json(_system(n, m)),
        "dependencies": [entry("C.minus", 0.3 + 0.5j), entry("C.plus", 0.1 - 0.2j),
                         entry("Omega.minus", 0.7 + 0j), entry("Omega.plus", 0.2 + 0.5j)],
    }


def _json_family(n, m=1):
    return qio.family_from_json(_family_spec(n, m))


@pytest.mark.parametrize("n", (1, 2, 3), ids=lambda n: f"n{n}")
def test_family_evaluate(benchmark, n):
    benchmark(_json_family(n).evaluate, 0.1)


@pytest.mark.parametrize("kind", ("json", "callable"))
@pytest.mark.parametrize("n", (1, 2, 3), ids=lambda n: f"n{n}")
def test_family_at(benchmark, n, kind):
    """``at(0.1)`` on a fresh copy of a JSON family, and of a family with only its evaluate."""
    family = _json_family(n)
    if kind == "callable":
        family = ParamFamily(evaluate=family.evaluate, fd_step=family.fd_step)
    benchmark(lambda: dataclasses.replace(family).at(0.1))


QFI = [(n, m) for n in (1, 2, 3) for m in (1, 2)]  # the qfi workload's family sizes


@pytest.mark.parametrize("route", (stationary_qfi_rate_freq, stationary_qfi_rate_time),
                         ids=("freq", "time"))
@pytest.mark.parametrize("n, m", QFI, ids=[f"n{n}m{m}" for n, m in QFI])
def test_stationary_qfi_rate(benchmark, route, n, m):
    family, V = _json_family(n, m), _squeezed(m)
    # a replaced family keeps no point, so each call builds its systems as a first call does
    benchmark(lambda: route(dataclasses.replace(family), 0.1, V))


def _rate_pair(n, m, V):
    """Both routes on one freshly loaded family, freq first: the qfi workload's traffic per family."""
    family = _json_family(n, m)
    return stationary_qfi_rate_freq(family, 0.1, V), stationary_qfi_rate_time(family, 0.1, V)


@pytest.mark.parametrize("n, m", QFI, ids=[f"n{n}m{m}" for n, m in QFI])
def test_qfi_rate_pair(benchmark, n, m):
    benchmark(_rate_pair, n, m, _squeezed(m))


@pytest.mark.parametrize("g", (1e-1, 1e-2), ids=("g1e-1", "g1e-2"))
def test_stationary_qfi_rate_freq_weak_mode(benchmark, g):
    """The freq route on Omega = [[0, g], [g, theta]], C = [[1, 0]]: a pole damped by ~2 g^2."""
    family = ParamFamily(evaluate=lambda th: QLSystem.passive(
        [[1.0]], [[1.0, 0.0]], [[0.0, g], [g, th]]), fd_step=1e-7)
    benchmark(lambda: stationary_qfi_rate_freq(dataclasses.replace(family), 0.0, _squeezed(1)))


def test_freq_response_per_point(benchmark, sys):
    benchmark(freq_response, sys, [0.1 - 1.7j])


SPECTRA = ((1, 1, 301), (4, 2, 301), (16, 1, 81), (32, 2, 25))  # (n, m, K)
QFI_GRID = (3, 2, 192)  # the size of a qfi-workload rule with the tangent
GRID_CASES = [(f"n{n}K{k}", n, m, k) for n, m, k in SPECTRA + (QFI_GRID,)] + [("dpaK301", 1, 1, 301)]


def _dpa_exceptional():
    """The degenerate parametric amplifier at its exceptional point: a defective drift, solved densely."""
    return QLSystem.from_blocks([[np.sqrt(3.0)]], [[0.0]], [[1.0]], [[1.0j]])


@pytest.fixture(scope="module", params=GRID_CASES, ids=lambda c: c[0])
def grid_case(request):
    """(system, grid, seeded tangent (dS, dC, dOmega)) of one case."""
    name, n, m, points = request.param
    sys = _dpa_exceptional() if name.startswith("dpa") else _system(n, m)
    width = np.max(np.abs(sys.poles.imag)) + 3.0
    rng = np.random.default_rng(300 + n)
    H = _cplx(rng, (n, n), 0.3)
    K = _cplx(rng, (n, n), 0.03)
    tangent = (np.zeros((2 * m, 2 * m)), Delta(_cplx(rng, (m, n)), _cplx(rng, (m, n), 0.05)),
               Delta(0.5 * (H + H.conj().T), 0.5 * (K + K.T)))
    return sys, -1j * np.linspace(-width, width, points), tangent


@pytest.mark.parametrize("with_tangent", (False, True), ids=("plain", "tangent"))
def test_freq_response_grid_fresh(benchmark, grid_case, with_tangent):
    sys, grid, tangent = grid_case
    extra = (tangent,) if with_tangent else ()
    benchmark(lambda: freq_response(QLSystem(S=sys.S, C=sys.C, Omega=sys.Omega), grid, *extra))


@pytest.mark.parametrize("with_tangent", (False, True), ids=("plain", "tangent"))
def test_freq_response_grid_cached(benchmark, grid_case, with_tangent):
    sys, grid, tangent = grid_case
    extra = (tangent,) if with_tangent else ()
    freq_response(sys, grid, *extra)
    benchmark(freq_response, sys, grid, *extra)


@pytest.fixture(scope="module", params=MINIMALITY_SIZES, ids=lambda n: f"n{n}")
def msys(request):
    return _system(request.param)


def test_is_minimal(benchmark, msys):
    benchmark(is_minimal, msys)


def test_is_minimal_defective(benchmark):
    sys = QLSystem.passive([[1.0]], [[0.0, 2.0 * np.sqrt(2.0)]], 2.0 * np.ones((2, 2)))   # gm2 at x = 0
    benchmark(is_minimal, sys)


def test_is_globally_minimal(benchmark, msys):
    benchmark(is_globally_minimal, msys, INPUT)


def test_pure_mixed_split(benchmark, msys):
    benchmark(pure_mixed_split, msys, INPUT)


def test_default_grid(benchmark, msys):
    benchmark(default_grid, msys)


@pytest.mark.parametrize("n", MINIMALITY_SIZES, ids=lambda n: f"n{n}")
def test_nus_detect(benchmark, n):
    rng = np.random.default_rng(400 + n)
    Om = _cplx(rng, (n, n))
    sys = QLSystem.passive(np.eye(2), _cplx(rng, (2, n)), 0.5 * (Om + Om.conj().T))
    benchmark(nus_detect, sys, [0])


def _copy(sys):
    """A fresh system equal to sys, with nothing cached (drift, eigendecomposition)."""
    return QLSystem(S=sys.S, C=sys.C, Omega=sys.Omega)


def test_solve_lyapunov(benchmark, sys):
    benchmark(solve_lyapunov, sys, INPUT)


def test_solve_lyapunov_fresh(benchmark, sys):
    """As ``test_solve_lyapunov`` on a system built inside the timed call (its drift and
    eigendecomposition included), as for a system solved once."""
    benchmark(lambda: solve_lyapunov(_copy(sys), INPUT))


@pytest.fixture(scope="module")
def absorbed(sys):
    """The 2n-mode cascade of the system into its coherent absorber."""
    return dual_system(sys).combined


def test_solve_lyapunov_cascade(benchmark, absorbed):
    """The cascade into the absorber, vacuum input."""
    benchmark(solve_lyapunov, absorbed, InputCovariance.vacuum(1))


def test_solve_lyapunov_cascade_fresh(benchmark, absorbed):
    """As ``test_solve_lyapunov_cascade`` on a cascade of fresh parts built inside the timed call."""
    first, second = absorbed.parts
    benchmark(lambda: solve_lyapunov(series_product(_copy(first), _copy(second)), InputCovariance.vacuum(1)))


def _hermitian_rhs(rng, size):
    Q = _cplx(rng, (size, size))
    return Q + Q.conj().T


@pytest.mark.parametrize("size", (2, 4), ids=lambda k: f"size{k}")
def test_lyap(benchmark, size):
    rng = np.random.default_rng(size)
    X = _cplx(rng, (size, size)) - (2.0 * np.sqrt(size) + 1.0) * np.eye(size)  # Hurwitz
    benchmark(lyap, X, _hermitian_rhs(rng, size))


@pytest.mark.parametrize("size", (2, 4, 8, 32), ids=lambda k: f"size{k}")
def test_lyap_defective(benchmark, size):
    """A Hurwitz Jordan block, which has no eigenbasis."""
    X = (-1.0 - 0.5j) * np.eye(size) + np.eye(size, k=1)
    benchmark(lyap, X, _hermitian_rhs(np.random.default_rng(size), size))


def test_lyap_gm2_drift(benchmark):
    X = QLSystem.passive([[1.0]], [[0.0, 2.0 * np.sqrt(2.0)]], 2.0 * np.ones((2, 2))).A
    benchmark(lyap, X, np.diag([1.0, 0.5, 0.25, 2.0]) + 0j)


def test_gramian_flat(benchmark, sys):
    benchmark(gramian_flat, sys.A, sys.C)


def test_williamson(benchmark, sys):
    P = solve_lyapunov(sys, INPUT).P
    benchmark(williamson, P, sys.n)


@pytest.fixture(scope="module")
def absorber32():
    """(canonical n = 32 system, its dual, vacuum covariance of their cascade)."""
    res = dual_system(_system(32))
    canon = gauge_transform(_system(32), res.basis_transform)
    return canon, res.dual, solve_lyapunov(res.combined, InputCovariance.vacuum(1)).P


def test_verify_absorber_n32(benchmark, absorber32):
    canon, dual, _ = absorber32
    benchmark(verify_absorber, canon, dual)


def test_williamson_cascade_2n128(benchmark, absorber32):
    P = absorber32[2]
    benchmark(williamson, P, P.shape[0] // 2)


def test_factor_flat_gram(benchmark, sys):
    benchmark(factor_flat_gram, _flat_gram(sys.n))


def _classical(n):
    """A doubled-up realization (T A T^-1, -T C^b, C T^-1, S) of the n-mode system's
    transfer function in a seeded basis T near the identity, not symplectic: its flat
    Gramian is a generic (T^-1)^b T^-1.  (Gilbert's route rejects the real-axis pole
    pair of the n = 32 system, so the basis is changed directly.)"""
    sys = _system(n)
    rng = np.random.default_rng(200 + n)
    T = Delta(np.eye(n) + _cplx(rng, (n, n), 0.3 / np.sqrt(n)), _cplx(rng, (n, n), 0.2 / np.sqrt(n)))
    Ti = np.linalg.inv(T)
    return StateSpace(A=T @ sys.A @ Ti, B=-T @ flat_adjoint(sys.C), C=sys.C @ Ti, D=sys.S)


def test_gilbert_realize(benchmark, sys):
    data = tf_as_rational(sys)
    try:
        gilbert_realize(data)
    except IdentificationError as exc:
        pytest.skip(f"gilbert_realize rejects this system's data: {exc}")
    benchmark(gilbert_realize, data)


def test_physical_from_classical(benchmark, sys):
    benchmark(physical_from_classical, _classical(sys.n))


def test_tf_as_rational(benchmark, sys):
    benchmark(tf_as_rational, sys)


def test_ps_as_rational(benchmark, sys):
    benchmark(ps_as_rational, sys, INPUT)


def test_ps_realize(benchmark, sys):
    data = ps_as_rational(sys, InputCovariance.vacuum(1))
    try:
        ps_realize(data)
    except IdentificationError as exc:
        pytest.skip(f"ps_realize rejects this system's data: {exc}")
    benchmark(ps_realize, data)


def test_dual_system(benchmark, sys):
    benchmark(dual_system, sys)


@pytest.mark.parametrize("n", (2, 8, 16), ids=lambda n: f"n{n}")
def test_siso_cascade_identify(benchmark, n):
    r = tf_as_rational(_system(n))
    xi_m = RationalMatrixFunction([[1.0]], r.poles, [R[:1, :1] for R in r.residues])
    xi_p = RationalMatrixFunction([[0.0]], r.poles, [R[:1, 1:2] for R in r.residues])
    benchmark(siso_cascade_identify, xi_m, xi_p)


def _accessible_block(n, n_noise):
    """(A0, B0, C0, 1) of channel 0 of a seeded passive n-mode system with 1 + n_noise channels."""
    rng = np.random.default_rng(300 + 10 * n + n_noise)
    Cm = _cplx(rng, (1 + n_noise, n))
    Om = _cplx(rng, (n, n))
    A = -0.5j * (Om + Om.conj().T) - 0.5 * Cm.conj().T @ Cm
    return StateSpace(A=A, B=-Cm[:1].conj().T, C=Cm[:1], D=np.eye(1))


@pytest.mark.parametrize("n, n_noise", ((1, 1), (3, 1), (6, 2)), ids=("n1k1", "n3k1", "n6k2"))
def test_noisy_realize(benchmark, n, n_noise):
    benchmark(noisy_realize, _accessible_block(n, n_noise), n_noise)


@pytest.mark.parametrize("points, n, m", ((301, 4, 2), (25, 4, 2), (301, 1, 1)), ids=("K301", "K25", "n1K301"))
def test_dump_json_tf_payload(benchmark, points, n, m):
    grid = -1j * np.linspace(-5.0, 5.0, points)
    values = freq_response(_system(n, m), grid)
    try:
        qio.dump_json({"grid": grid, "values": values})
    except TypeError:  # a dump_json that takes lists only: time the conversion its `tf` does too
        benchmark(lambda: qio.dump_json({"grid": [qio.complex_to_pair(s) for s in grid],
                                         "values": [qio.matrix_to_json(X) for X in values]}))
    else:
        benchmark(qio.dump_json, {"grid": grid, "values": values})


def test_dump_json_system_payload(benchmark):
    """A list payload, written by the standard encoder: the system file of the n = 32, m = 2 system."""
    benchmark(qio.dump_json, qio.system_to_json(_system(32, 2)))


CLI_PROCESSES = {  # subcommand -> its arguments, {name} standing for the input file of that name
    "help": ["--help"],
    "tf": ["tf", "{sys}"],
    "ps": ["ps", "{sys}", "--input", "{input}"],
    "realize-tf": ["realize-tf", "{rtf}"],
    "absorber": ["absorber", "{sys}"],
    "qfi-time": ["qfi", "{family}", "--input", "{input}", "--method", "time"],
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The n = 2 system, the squeezed input, the system's transfer-function data and a
    one-mode family with one dependency on each block of C and of Omega, as JSON files."""
    root = tmp_path_factory.mktemp("cli")
    payloads = {"sys": qio.system_to_json(_system(2)), "input": qio.input_to_json(INPUT),
                "rtf": qio.rational_to_json(tf_as_rational(_system(2))), "family": _family_spec(1)}
    for name, payload in payloads.items():
        qio.dump_json(payload, str(root / f"{name}.json"))
    return {name: str(root / f"{name}.json") for name in payloads} | {"out": str(root / "out.json")}


@pytest.mark.parametrize("command", CLI_PROCESSES)
def test_cli_process(benchmark, cli_files, command):
    """One `python -m qls.cli` process, start to exit: interpreter, imports, load, compute, emit."""
    import os
    import subprocess
    import sys as system

    import qls

    args = [part.format(**cli_files) for part in CLI_PROCESSES[command]] + ["-o", cli_files["out"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qls.__file__)))
    # pipes, not a bare wait: with a timeout, Popen.wait polls in sleeps of up to 50 ms
    run = lambda: subprocess.run([system.executable, "-m", "qls.cli", *args], env=env, check=True,
                                 capture_output=True, timeout=60)
    benchmark.pedantic(run, rounds=7, warmup_rounds=1)
