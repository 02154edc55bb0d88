import dataclasses
import json
import types

import numpy as np
import pytest

from qls import io as qio
from qls.cli import _spectrum_order, main
from qls.model import QLSystem, default_grid, freq_response, tf_equal
from qls.realization import RationalMatrixFunction, ps_as_rational, tf_as_rational
from qls.sampling import random_pure_input, random_qlsystem
from qls.stationary import InputCovariance, power_spectrum

from conftest import absorber_two_mode_example, active_one_mode_example, cavity, squeezed_input, two_mode_cascade_example


class TestJsonRoundtrips:
    def test_system(self, rng):
        sys = random_qlsystem(rng, 2, 2)
        back = qio.system_from_json(json.loads(qio.dump_json(qio.system_to_json(sys))))
        assert np.allclose(back.C, sys.C)
        assert np.allclose(back.Omega, sys.Omega)
        assert np.allclose(back.S, sys.S)

    def test_input(self, rng):
        V = InputCovariance(*random_pure_input(rng, 2))
        back = qio.input_from_json(qio.input_to_json(V))
        assert np.allclose(back.N, V.N) and np.allclose(back.M, V.M)

    def test_rational(self):
        r = tf_as_rational(cavity())
        back = qio.rational_from_json(qio.rational_to_json(r))
        s = 0.3 + 0.9j
        assert np.allclose(back(s), r(s))

    def test_family_affine_dependency(self):
        base = qio.system_to_json(cavity(1.69, 0.0))
        fam = qio.family_from_json(
            {
                "base": base,
                "fd_step": 1e-6,
                "dependencies": [
                    {"target": "Omega.minus", "row": 0, "col": 0, "coefficient": [1.0, 0.0]}
                ],
            }
        )
        sys = fam.evaluate(0.7)
        from qls.algebra import du_blocks

        assert abs(du_blocks(sys.Omega)[0][0, 0] - 0.7) < 1e-12

    def test_family_offdiagonal_mirroring(self):
        base = qio.system_to_json(random_qlsystem(np.random.default_rng(0), 2, 1))
        fam = qio.family_from_json(
            {
                "base": base,
                "dependencies": [
                    {"target": "Omega.minus", "row": 0, "col": 1, "coefficient": [0.0, 1.0]}
                ],
            }
        )
        sys = fam.evaluate(0.5)  # stays a valid Hermitian Hamiltonian
        assert sys.n == 2

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (0, 1)])
    def test_family_evaluate_equals_block_round_trip(self, rng, n, m):
        from qls.algebra import Delta, du_blocks
        from qls.model import QLSystem

        def dep(target, row, col, c):
            return {"target": target, "row": row, "col": col, "coefficient": [c.real, c.imag]}

        z = lambda: complex(*rng.standard_normal(2))
        deps = [dep("S.minus", 0, 0, 1e-12 * z()), dep("S.plus", m - 1, 0, 1e-12 * z())]
        if n:  # two on one entry, and an off-diagonal Omega entry in each block
            deps += [dep("C.minus", 0, n - 1, z()), dep("C.minus", 0, n - 1, z()), dep("C.plus", m - 1, 0, z()),
                     dep("Omega.minus", 0, n - 1, z()), dep("Omega.plus", n - 1, 0, z()),
                     dep("Omega.plus", 0, 0, z()), dep("Omega.minus", 1, 1, complex(z().real))]
        base = random_qlsystem(rng, n, m) if n else QLSystem(
            S=np.eye(2 * m), C=np.zeros((2 * m, 0)), Omega=np.zeros((0, 0)))
        spec = {"base": qio.system_to_json(base), "dependencies": deps}
        fam = qio.family_from_json(spec)
        base = qio.system_from_json(spec["base"])

        def reference(theta, base=base):  # entries added to copies of the blocks, then assembled by Delta
            blocks = {k: [b.copy() for b in du_blocks(getattr(base, k))] for k in ("S", "C", "Omega")}
            for d in deps:
                name, half = d["target"].split(".")
                idx, i, j, c = int(half == "plus"), d["row"], d["col"], qio.pair_to_complex(d["coefficient"])
                blocks[name][idx][i, j] += c * theta
                if name == "Omega" and i != j:
                    blocks[name][idx][j, i] += (c if idx else np.conj(c)) * theta
            return {k: Delta(*v) for k, v in blocks.items()}

        zero = types.SimpleNamespace(S=0 * base.S, C=0 * base.C, Omega=0 * base.Omega)
        tangent = reference(1.0, zero)  # the coefficients, added to zero blocks
        assert all(np.array_equal(d, tangent[k]) for d, k in zip(fam.tangent, ("S", "C", "Omega")))
        for theta in (0.0, 0.37, -1.3e-6):
            sys, ref = fam.evaluate(theta), reference(theta)
            for k in ("S", "C", "Omega"):
                assert np.array_equal(getattr(sys, k), ref[k])
            assert fam.at(theta)[1] is fam.tangent  # S +/- h dS passes the symplectic check

    def test_family_scattering_dependency_keeps_the_symplectic_check(self, rng):
        """At theta = 0 a JSON family builds no system, yet an S dependency that breaks
        symplecticity at theta +/- h still raises from ``at``, as the difference builds did."""
        dep = {"target": "S.minus", "row": 0, "col": 0, "coefficient": [0.1, 0.0]}
        fam = qio.family_from_json({"base": qio.system_to_json(random_qlsystem(rng, 2, 1)), "dependencies": [dep]})
        with pytest.raises(ValueError, match="^S is not symplectic$"):
            fam.at(0.0)

    def test_family_diagonal_omega_minus_needs_a_real_coefficient(self, rng):
        """An imaginary part would make Omega_- non-Hermitian at every theta != 0."""
        dep = {"target": "Omega.minus", "row": 1, "col": 1, "coefficient": [0.5, 1e-3]}
        with pytest.raises(ValueError, match=r"^Omega.minus diagonal entry \(1, 1\) needs a real coefficient"):
            qio.family_from_json({"base": qio.system_to_json(random_qlsystem(rng, 2, 1)), "dependencies": [dep]})

    @pytest.mark.parametrize("n, m", [(n, m) for m in (1, 2) for n in (1, 2, 3, 4)])
    def test_family_rates_agree_across_routes(self, n, m):
        """With the exact tangent the time and freq routes agree to 1e-12 (2.8e-13 measured over
        40 seeded families; difference tangents moved both routes by up to 2.4e-9)."""
        from qls.estimation import stationary_qfi_rate_freq, stationary_qfi_rate_time

        rng = np.random.default_rng([n, m, 32])
        deps = []
        for target, scale in (("C.minus", 0.3), ("C.plus", 0.1), ("Omega.minus", 0.5), ("Omega.plus", 0.2)):
            i, j = int(rng.integers(m if target[0] == "C" else n)), int(rng.integers(n))
            c = scale * complex(*rng.standard_normal(2))
            c = c.real if target == "Omega.minus" and i == j else c
            deps.append({"target": target, "row": i, "col": j, "coefficient": [c.real, c.imag]})
        fam = qio.family_from_json({"base": qio.system_to_json(random_qlsystem(rng, n, m)), "dependencies": deps})
        V = InputCovariance(*random_pure_input(rng, m))
        for theta in (0.0, 0.05):
            ft = stationary_qfi_rate_time(fam, theta, V).value
            ff = stationary_qfi_rate_freq(fam, theta, V).value
            assert abs(ff - ft) <= 1e-12 * abs(ft)

    def test_family_at_zero_is_its_base(self, rng):
        """evaluate(0) returns the loaded base, built once; the QFI rates at theta = 0 equal,
        bit for bit, those of the same family rebuilding its base on every evaluation."""
        from qls.estimation import stationary_qfi_rate_freq, stationary_qfi_rate_time
        from qls.model import ParamFamily

        deps = [{"target": "C.minus", "row": 0, "col": 1, "coefficient": [0.3, 0.5]},
                {"target": "Omega.minus", "row": 0, "col": 1, "coefficient": [0.7, -0.2]},
                {"target": "Omega.plus", "row": 1, "col": 1, "coefficient": [0.2, 0.5]}]
        spec = {"base": qio.system_to_json(random_qlsystem(rng, 2, 1)), "dependencies": deps, "fd_step": 1e-6}
        fam = qio.family_from_json(spec)
        base = fam.evaluate(0.0)
        assert fam.evaluate(-0.0) is base
        loaded = qio.system_from_json(spec["base"])
        assert all(np.array_equal(getattr(base, k), getattr(loaded, k)) for k in ("S", "C", "Omega"))

        def rebuilt(theta):
            sys = fam.evaluate(theta)
            return QLSystem(S=np.array(sys.S), C=np.array(sys.C), Omega=np.array(sys.Omega))

        V = squeezed_input(0.5)
        for route in (stationary_qfi_rate_freq, stationary_qfi_rate_time):
            reference = route(ParamFamily(evaluate=rebuilt, fd_step=fam.fd_step, tangent=fam.tangent), 0.0, V)
            assert route(dataclasses.replace(fam), 0.0, V).value == reference.value

    def test_family_entry_outside_block_raises(self):
        base = qio.system_to_json(random_qlsystem(np.random.default_rng(0), 2, 1))
        entry = {"target": "C.minus", "row": 0, "col": 2, "coefficient": [1.0, 0.0]}
        with pytest.raises(IndexError, match=r"\(0, 2\) lies outside the 1 x 2 block C.minus"):
            qio.family_from_json({"base": base, "dependencies": [entry]})
        negative = qio.family_from_json({"base": base, "dependencies": [dict(entry, col=-1)]})
        positive = qio.family_from_json({"base": base, "dependencies": [dict(entry, col=1)]})
        assert np.array_equal(negative.evaluate(0.3).C, positive.evaluate(0.3).C)

    @pytest.mark.parametrize("text, shown", [("0.7", "0.7"), ("true", "True"), ("1e400", "inf"), ('"0"', "'0'")],
                             ids=["fraction", "bool", "overflow", "string"])
    @pytest.mark.parametrize("key", ["row", "col"])
    def test_family_entry_index_must_be_an_integer(self, key, text, shown):
        """int() read 0.7 as entry 0 and true as entry 1, and overflowed on 1e400 (json reads inf)."""
        base = qio.system_to_json(random_qlsystem(np.random.default_rng(0), 2, 1))
        entries = [{"target": "C.minus", "row": 0, "col": 1, "coefficient": [1.0, 0.0]},
                   {"target": "Omega.plus", "row": 0, "col": 1, "coefficient": [1.0, 0.0], key: "?"}]
        spec = json.dumps({"base": base, "dependencies": entries}).replace('"?"', text)
        message = rf"^dependency 1 \(Omega.plus\) {key} must be an integer, got {shown}$"
        with pytest.raises(ValueError, match=message):
            qio.family_from_json(json.loads(spec))

    def test_determinism(self, rng):
        sys = random_qlsystem(rng, 1, 1)
        a = qio.dump_json(qio.system_to_json(sys))
        b = qio.dump_json(qio.system_to_json(sys))
        assert a == b


def _std_text(payload):
    """The standard library encoder's text of a list payload, dump_json's reference."""
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)


def _pair_lists(a):
    """Nested [re, im] lists of a complex array, built entry by entry."""
    if np.ndim(a) == 0:
        z = complex(a)
        return [z.real, z.imag]
    return [_pair_lists(x) for x in a]


class TestDumpJsonArrays:
    def test_equals_standard_encoder_on_list_form(self, rng):
        grid = -1j * np.linspace(-2.0, 2.0, 9)
        grid[0] = complex(-0.0, 5e-324)
        stack = rng.standard_normal((9, 4, 4)) + 1j * rng.standard_normal((9, 4, 4))
        stack[0, 0, 0] = complex(-0.0, -0.0)
        stack[1, 2, 3] = complex(1e-300, 5e300)
        stack[2, 1, 0] = complex(2.2e-310, -1.7e308)
        matrix = rng.standard_normal((2, 3)) + 0j
        plain = {"list": [1, [2.5, {}], []], "empty": {}, "k\u00e9y": "a\nb", "none": None}
        payload = {"grid": grid, "values": stack, "pi": 3.14,
                   "nested": dict(plain, matrix=matrix, row=np.zeros(0, dtype=complex),
                                  rows=np.zeros((3, 0, 2), dtype=complex), stack=np.zeros((0, 2, 2), dtype=complex))}
        lists = {"grid": [qio.complex_to_pair(s) for s in grid],
                 "values": [qio.matrix_to_json(X) for X in stack], "pi": 3.14,
                 "nested": dict(plain, matrix=qio.matrix_to_json(matrix), row=[], rows=[[], [], []], stack=[])}
        assert lists["values"] == _pair_lists(stack)
        assert lists["nested"]["matrix"] == _pair_lists(matrix)
        assert qio.dump_json(payload) == _std_text(lists)

    SPECIAL = (-0.0, 5e-324, 2.2e-310, 1e-5, 1e-4, 1e16, 1e22, 1.7976931348623157e308)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(1,), (7,), (1, 3), (4, 2), (1, 2, 2), (3, 1, 4), (6, 2, 2)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_equals_standard_encoder_on_seeded_arrays(self, shape, depth):
        """Seeded arrays of ndim 1-3 (a leading axis of 1 among them), nested 0, 1 and 2 dicts
        deep, mixing magnitudes 1e-30 to 1e30 with signed zero, subnormals, the points where
        repr switches to exponent form and the largest float, each with both signs."""
        rng = np.random.default_rng([depth, *shape])
        size = int(np.prod(shape))
        randoms = rng.standard_normal(2 * size) * 10.0 ** rng.integers(-30, 31, 2 * size)
        floats = rng.permutation(np.concatenate([self.SPECIAL, np.negative(self.SPECIAL), randoms]))
        a = (floats[:size] + 1j * floats[size:2 * size]).reshape(shape)
        payload, lists = {"values": a, "pi": 3.14}, {"values": _pair_lists(a), "pi": 3.14}
        for level in range(depth):
            payload, lists = ({"inner": p, "list": [level, 2.5]} for p in (payload, lists))
        assert qio.dump_json(payload) == _std_text(lists)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_raises(self, bad):
        values = np.ones((2, 2, 2), dtype=complex)
        values[1, 0, 1] = bad
        with pytest.raises(ValueError):
            qio.dump_json({"values": values})


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _run_python(args, check=True):
    """Run a fresh interpreter on this checkout's package."""
    import os
    import subprocess
    import sys

    import qls

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qls.__file__)))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True,
                          check=check, timeout=120)


def write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _cli_inputs(rng):
    """JSON inputs of the data subcommands, keyed by name: rational data, a state space,
    a (Xi_-, Xi_+) pair, a cavity QFI family and a coupling sweep of it."""
    cascade = tf_as_rational(two_mode_cascade_example())
    big = random_qlsystem(rng, 3, 1)
    while np.min(np.abs(big.poles.imag)) < 5e-2:
        big = random_qlsystem(rng, 3, 1)
    vac = InputCovariance.vacuum(1)
    family = {"base": qio.system_to_json(cavity(1.0, 0.0)), "fd_step": 1e-6,
              "dependencies": [{"target": "Omega.minus", "row": 0, "col": 0, "coefficient": [1.0, 0.0]}]}
    return {
        "rtf": qio.rational_to_json(cascade),
        "rps1": qio.rational_to_json(ps_as_rational(active_one_mode_example(), vac)),
        "rps3": qio.rational_to_json(ps_as_rational(big, vac)),
        "ss": {k: qio.matrix_to_json(v) for k, v in
               (("A", [[-19.5 - 3j]]), ("B", [[-1.0]]), ("C", [[36.0]]), ("D", [[1.0]]))},
        "pair": {"xi_minus": qio.rational_to_json(RationalMatrixFunction(
                     [[1.0]], cascade.poles, [R[:1, :1] for R in cascade.residues])),
                 "xi_plus": qio.rational_to_json(RationalMatrixFunction(
                     [[0.0]], cascade.poles, [R[:1, 1:2] for R in cascade.residues]))},
        "family": family,
        "sweep": {"family": family, "couplings": [1.0, 0.7, 0.5], "coupling_target": "C.minus"},
    }


def _cli_files(workdir, rng):
    """Paths of the JSON inputs of every subcommand: those of `_cli_inputs`, the absorber example
    with a random pure input, the gm2 example at x = 0 and -1, a squeezed input and a malformed file."""
    from conftest import gm2_system

    paths = {k: write(workdir / f"{k}.json", payload) for k, payload in _cli_inputs(rng).items()}
    paths.update(sys=write(workdir / "sys.json", qio.system_to_json(absorber_two_mode_example())),
                 input=write(workdir / "v.json", qio.input_to_json(InputCovariance(*random_pure_input(rng, 1)))),
                 gm2_0=write(workdir / "gm2_0.json", qio.system_to_json(gm2_system(0.0))),
                 gm2_m1=write(workdir / "gm2_m1.json", qio.system_to_json(gm2_system(-1.0))),
                 sq05=write(workdir / "sq05.json", qio.input_to_json(squeezed_input(0.5))),
                 bad=str(workdir / "bad.json"))
    with open(paths["bad"], "w") as fh:
        fh.write("{not json")
    return paths


def _run_cli_probe(report, args):
    """Run the CLI on args in a fresh interpreter: (exit code, the repr of `report` evaluated at exit)."""
    probe = ("import atexit, runpy, sys; atexit.register(lambda: print(repr(" + report + "), file=sys.stderr)); "
             "sys.argv[0] = 'qls'; runpy.run_module('qls.cli', run_name='__main__')")
    out = _run_python(["-c", probe] + args, check=False)
    return out.returncode, out.stderr.strip().splitlines()[-1]


class TestCli:
    def test_validate(self, workdir, capsys):
        p = write(workdir / "sys.json", qio.system_to_json(cavity()))
        assert main(["validate", p]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pr"] is True
        assert out["hurwitz"] is True
        assert out["minimal"] is True
        assert out["fpr_residual"] < 1e-8

    def test_validate_zero_modes(self, workdir, capsys):
        from qls.algebra import Delta
        from qls.model import QLSystem

        sys = QLSystem(S=Delta(np.exp(0.3j)), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        assert main(["validate", write(workdir / "sys.json", qio.system_to_json(sys))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 0 and out["minimal"] is True and out["spectral_gap"] is None

    def test_validate_malformed_exits_2(self, workdir, capsys):
        p = str(workdir / "bad.json")
        with open(p, "w") as fh:
            fh.write("{not json")
        assert main(["validate", p]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"

    def test_tf_and_ps(self, workdir, capsys):
        p = write(workdir / "sys.json", qio.system_to_json(cavity()))
        out_tf = str(workdir / "tf.json")
        assert main(["tf", p, "-o", out_tf]) == 0
        data = json.load(open(out_tf))
        assert len(data["grid"]) == len(data["values"])
        out_ps = str(workdir / "ps.json")
        assert main(["ps", p, "-o", out_ps]) == 0

    def test_gm_and_split(self, workdir, capsys):
        from conftest import gm2_system, squeezed_input

        p = write(workdir / "sys.json", qio.system_to_json(gm2_system(-1.0)))
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.5)))
        assert main(["gm", p, "--input", v]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["globally_minimal"] is False
        assert main(["split", p, "--input", v, "-o", str(workdir / "split.json")]) == 0
        sp = json.load(open(workdir / "split.json"))
        assert sp["pure"]["n"] == 1 and sp["mixed"]["n"] == 1

    def test_gm_two_mode_cascade_example(self, workdir, capsys):
        p = write(workdir / "sys.json", qio.system_to_json(two_mode_cascade_example()))
        assert main(["gm", p]) == 0
        assert json.loads(capsys.readouterr().out)["globally_minimal"] is True

    @pytest.mark.parametrize("example, route", [("absorber", "modal"), ("gm2_0", "direct")])
    def test_gm_solves_the_lyapunov_equation_once(self, workdir, capsys, monkeypatch, example, route):
        from conftest import gm2_system
        from qls import stationary

        sys = absorber_two_mode_example() if example == "absorber" else gm2_system(0.0)
        routes, lyap = [], stationary._lyap  # every solve_lyapunov of a non-cascade runs _lyap once

        def counting_lyap(*args):
            P, route = lyap(*args)
            routes.append(route)
            return P, route

        monkeypatch.setattr(stationary, "_lyap", counting_lyap)
        assert main(["gm", write(workdir / "sys.json", qio.system_to_json(sys))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert routes == [route]
        assert out["symplectic_spectrum"] == [float(v) for v in stationary.solve_lyapunov(
            sys, InputCovariance.vacuum(1)).symplectic_spectrum]

    def test_gm_non_hurwitz_exits_2(self, workdir, capsys):
        from qls.model import QLSystem

        undamped = QLSystem.from_blocks([[0.0]], [[0.0]], [[1.0]], [[0.0]])
        p = write(workdir / "sys.json", qio.system_to_json(undamped))
        assert main(["gm", p]) == 2

    def test_realize_tf(self, workdir):
        sys = two_mode_cascade_example()
        p = write(workdir / "tf.json", qio.rational_to_json(tf_as_rational(sys)))
        out = str(workdir / "rec.json")
        assert main(["realize-tf", p, "-o", out]) == 0
        rec = qio.system_from_json(json.load(open(out)))
        assert tf_equal(rec, sys, tol=1e-6)

    def test_realize_tf_unpaired_pole_exits_3(self, workdir, capsys):
        r = tf_as_rational(cavity())
        k = next(i for i, z in enumerate(r.poles) if z.imag > 0)
        one_pole = RationalMatrixFunction(r.constant, (r.poles[k],), (r.residues[k],))
        p = write(workdir / "tf.json", qio.rational_to_json(one_pole))
        out = workdir / "rec.json"
        assert main(["realize-tf", p, "-o", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical" and "has no conjugate partner" in err["message"]
        assert not out.exists()

    def test_realize_tf_marginal_pole_exits_2(self, workdir, capsys):
        # poles -1e-14 +/- i: left of the axis, but not by is_hurwitz's relative margin
        p = write(workdir / "tf.json", qio.rational_to_json(tf_as_rational(cavity(2e-14, 1.0))))
        out = workdir / "rec.json"
        assert main(["realize-tf", p, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "input", "message": "realization must be Hurwitz"}
        assert not out.exists()

    def test_realize_ps(self, workdir):
        sys = active_one_mode_example()
        psr = ps_as_rational(sys, InputCovariance.vacuum(1))
        p = write(workdir / "ps.json", qio.rational_to_json(psr))
        out = str(workdir / "rec.json")
        assert main(["realize-ps", p, "-o", out]) == 0
        data = json.load(open(out))
        T3bT3 = qio.matrix_from_json(data["T3bT3"])
        assert np.allclose(T3bT3, -0.2054 * np.eye(2), atol=5e-5)

    def test_realize_ps_zero_modes(self, workdir):
        from qls.algebra import Delta
        from qls.model import QLSystem

        sys = QLSystem(S=Delta(np.exp(0.3j)), C=np.zeros((2, 0)), Omega=np.zeros((0, 0)))
        psr = ps_as_rational(sys, InputCovariance.vacuum(1))
        p = write(workdir / "ps.json", qio.rational_to_json(psr))
        out = str(workdir / "rec.json")
        assert main(["realize-ps", p, "-o", out]) == 0
        data = json.load(open(out))
        assert qio.system_from_json(data["system"]).n == 0
        assert qio.matrix_from_json(data["T3bT3"]).shape == (0, 0)
        assert data["spectrum"] == []

    def test_realize_ps_spectrum_order_ignores_one_ulp(self):
        # a conjugate pair whose real parts differ by one ulp, in either order
        lo, hi = -24.0, np.nextafter(-24.0, 0.0)
        for pair in ([lo + 1.7j, hi - 1.7j], [hi + 1.7j, lo - 1.7j]):
            assert np.array_equal(_spectrum_order(pair).imag, [-1.7, 1.7])
            assert np.array_equal(_spectrum_order(pair[::-1]).imag, [-1.7, 1.7])
        assert np.array_equal(_spectrum_order([-1.0 + 2j, -3.0 - 1j, -1.0 - 2j]),
                              [-3.0 - 1j, -1.0 - 2j, -1.0 + 2j])

    def test_realize_ps_three_modes_one_channel(self, workdir, rng):
        vac = InputCovariance.vacuum(1)
        sys = random_qlsystem(rng, 3, 1)
        while np.min(np.abs(sys.poles.imag)) < 5e-2:
            sys = random_qlsystem(rng, 3, 1)
        p = write(workdir / "ps.json", qio.rational_to_json(ps_as_rational(sys, vac)))
        out = str(workdir / "rec.json")
        assert main(["realize-ps", p, "-o", out]) == 0
        rec = qio.system_from_json(json.load(open(out))["system"])
        assert rec.n == 3
        for s in (0.3j, -2.0j, 1.5 - 0.7j):
            assert np.linalg.norm(power_spectrum(rec, vac, s) - power_spectrum(sys, vac, s)) < 1e-6

    def test_realize_ps_bad_data_exits_3(self, workdir, capsys):
        bad = {
            "constant": qio.matrix_to_json(np.eye(2)),
            "poles": [[-1.0, 2.0], [-1.0, -2.0], [1.0, 2.0], [1.0, -2.0]],
            "residues": [qio.matrix_to_json(np.eye(2))] * 4,
        }
        p = write(workdir / "ps.json", bad)
        assert main(["realize-ps", p]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"

    def test_realize_noisy(self, workdir):
        ss = {
            "A": qio.matrix_to_json([[-19.5 - 3j]]),
            "B": qio.matrix_to_json([[-1.0]]),
            "C": qio.matrix_to_json([[36.0]]),
            "D": qio.matrix_to_json([[1.0]]),
        }
        p = write(workdir / "ss.json", ss)
        out = str(workdir / "sys.json")
        assert main(["realize-noisy", p, "--n-noise", "1", "--seed", "7", "-o", out]) == 0
        rec = qio.system_from_json(json.load(open(out)))
        from qls.algebra import du_blocks

        Cm = du_blocks(rec.C)[0]
        assert abs(abs(Cm[0, 0]) - 6.0) < 1e-7

    @pytest.mark.parametrize("n_noise", [2, -1])
    def test_realize_noisy_bad_n_noise_exits_2(self, workdir, capsys, n_noise):
        ss = {"A": qio.matrix_to_json([[-19.5 - 3j]]), "B": qio.matrix_to_json([[-1.0]]),
              "C": qio.matrix_to_json([[36.0]]), "D": qio.matrix_to_json([[1.0]])}
        p = write(workdir / "ss.json", ss)
        out = workdir / "sys.json"
        assert main(["realize-noisy", p, "--n-noise", str(n_noise), "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and err["message"].startswith("n_noise must be between 0 and n = 1")
        assert not out.exists()

    def test_cascade_id(self, workdir):
        sys = two_mode_cascade_example()
        tfr = tf_as_rational(sys)
        from qls.realization import RationalMatrixFunction

        xi_m = RationalMatrixFunction([[1.0]], tfr.poles, [R[:1, :1] for R in tfr.residues])
        xi_p = RationalMatrixFunction([[0.0]], tfr.poles, [R[:1, 1:2] for R in tfr.residues])
        p = write(
            workdir / "tf.json",
            {"xi_minus": qio.rational_to_json(xi_m), "xi_plus": qio.rational_to_json(xi_p)},
        )
        out = str(workdir / "casc.json")
        assert main(["cascade-id", p, "-o", out]) == 0
        stages = json.load(open(out))["stages"]
        assert abs(stages[0]["c"] - 14.39) < 5e-3
        assert abs(stages[1]["c"] - 0.2) < 7e-3

    def test_cascade_id_pole_not_in_data_exits_3(self, workdir, rng, capsys):
        p = write(workdir / "pair.json", _cli_inputs(rng)["pair"])
        order = write(workdir / "order.json", [[100.0, 100.0]])
        out = workdir / "casc.json"
        assert main(["cascade-id", p, "--pole-order", order, "-o", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical" and err["message"].startswith("requested pole (100+100j) ")
        assert not out.exists()

    @pytest.mark.parametrize("malformed", [False, True], ids=["missing", "malformed"])
    @pytest.mark.parametrize("command", ["validate", "realize-tf", "realize-ps", "realize-noisy",
                                         "cascade-id", "pole-order", "qfi", "sweep"])
    def test_bad_data_file_exits_2(self, workdir, capsys, command, malformed):
        bad = workdir / "bad.json"
        if malformed:
            write(bad, [[1]] if command == "pole-order" else {})
        if command == "pole-order":  # pole-free (Xi_-, Xi_+) = (1, 0) data, read before the order
            data = {k: qio.rational_to_json(RationalMatrixFunction([[v]], [], [])) for k, v in
                    (("xi_minus", 1.0), ("xi_plus", 0.0))}
            args = ["cascade-id", write(workdir / "tf.json", data), "--pole-order", str(bad)]
        else:
            args = [command, str(bad)]
        out = workdir / "out.json"
        assert main(args + ["-o", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"
        assert not out.exists()

    def test_absorber(self, workdir):
        p = write(workdir / "sys.json", qio.system_to_json(absorber_two_mode_example()))
        out = str(workdir / "dual.json")
        assert main(["absorber", p, "-o", out]) == 0
        data = json.load(open(out))
        assert data["purity_residual"] < 1e-6

    @pytest.mark.parametrize("kind", ["system", "input", "rational", "grid", "couplings", "fd_step",
                                      "--theta", "--gm-tol", "--tol"])
    def test_non_finite_number_exits_2(self, workdir, rng, capsys, kind):
        """json and argparse's float() read NaN and Infinity; every reader rejects them and names the value."""
        nan, inf = float("nan"), float("inf")
        inputs = _cli_inputs(rng)
        sys_json = qio.system_to_json(cavity())
        bad_sys = json.loads(json.dumps(sys_json))
        bad_sys["Omega"]["minus"][0][0] = [nan, 0.0]
        p = {name: write(workdir / f"{name}.json", data) for name, data in (
            ("sys", sys_json), ("fam", inputs["family"]), ("bad_sys", bad_sys),
            ("bad_input", {"N": [[[nan, 0.0]]], "M": [[[0.0, 0.0]]]}),
            ("bad_tf", dict(inputs["rtf"], poles=[[inf, 1.0]] + inputs["rtf"]["poles"][1:])),
            ("bad_sweep", dict(inputs["sweep"], couplings=[1.0, nan])),
            ("bad_fam", dict(inputs["family"], fd_step=inf)))}
        args, value = {
            "system": (["gm", p["bad_sys"]], "nan"),
            "input": (["ps", p["sys"], "--input", p["bad_input"]], "nan"),
            "rational": (["realize-tf", p["bad_tf"]], "inf"),
            "grid": (["tf", p["sys"], "--grid", "[[0.0, 1.0], [NaN, 2.0]]"], "nan"),
            "couplings": (["sweep", p["bad_sweep"]], "nan"),
            "fd_step": (["qfi", p["bad_fam"]], "inf"),
            "--theta": (["qfi", p["fam"], "--theta", "nan"], "nan"),
            "--gm-tol": (["gm", p["sys"], "--gm-tol", "nan"], "nan"),
            "--tol": (["validate", p["sys"], "--tol", "inf"], "inf"),
        }[kind]
        out = workdir / "out.json"
        assert main(args + ["-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "finite number" in err["message"] and value in err["message"]
        if kind.startswith("--"):
            assert err["message"] == f"{kind} must be a finite number, got {value}"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["system", "input", "rational", "grid", "couplings", "fd_step"])
    def test_oversized_integer_exits_2(self, workdir, rng, capsys, kind):
        """json reads an integer literal of any length; one past the float range is named, shortened."""
        big = 10**400
        inputs = _cli_inputs(rng)
        sys_json = qio.system_to_json(cavity())
        bad_sys = json.loads(json.dumps(sys_json))
        bad_sys["Omega"]["minus"][0][0] = [big, 0]
        p = {name: write(workdir / f"{name}.json", data) for name, data in (
            ("sys", sys_json), ("bad_sys", bad_sys),
            ("bad_input", {"N": [[[0, big]]], "M": [[[0.0, 0.0]]]}),
            ("bad_tf", dict(inputs["rtf"], poles=[[-1.0, -big]] + inputs["rtf"]["poles"][1:])),
            ("bad_sweep", dict(inputs["sweep"], couplings=[1.0, big])),
            ("bad_fam", dict(inputs["family"], fd_step=big)))}
        args = {
            "system": ["tf", p["bad_sys"]],
            "input": ["ps", p["sys"], "--input", p["bad_input"]],
            "rational": ["realize-tf", p["bad_tf"]],
            "grid": ["tf", p["sys"], "--grid", json.dumps([[0.0, 1.0], [0.0, big]])],
            "couplings": ["sweep", p["bad_sweep"]],
            "fd_step": ["qfi", p["bad_fam"]],
        }[kind]
        out = workdir / "out.json"
        assert main(args + ["-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "finite number" in err["message"] and "0...0" in err["message"]
        assert len(err["message"]) < 400
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0.7", "true", "1e400", '"0"'])
    @pytest.mark.parametrize("where", ["family", "sweep"])
    def test_non_integer_entry_index_exits_2(self, workdir, rng, capsys, where, text):
        """A dependency's row, or a sweep's coupling_row, is an integer: int() read 0.7 as 0 and
        true as 1, and overflowed on 1e400."""
        inputs = _cli_inputs(rng)
        if where == "family":
            family = json.loads(json.dumps(inputs["family"]))
            family["dependencies"][0]["row"] = "?"
            path, args = workdir / "fam.json", ["qfi", str(workdir / "fam.json"), "--method", "time"]
            payload, key = family, "dependency 0 (Omega.minus) row"
        else:
            path, args = workdir / "sweep.json", ["sweep", str(workdir / "sweep.json")]
            payload, key = dict(inputs["sweep"], coupling_row="?"), "coupling_row"
        path.write_text(json.dumps(payload).replace('"?"', text))
        out = workdir / "out.json"
        assert main(args + ["-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and f"{key} must be an integer" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["json", "flag"])
    def test_negative_fd_step_exits_2(self, workdir, rng, capsys, source):
        """A negative family fd_step is named, not replaced by the default; ``qls qfi`` has no
        --fd-step flag (a JSON family differentiates exactly), so argparse rejects one."""
        family = _cli_inputs(rng)["family"]
        out = workdir / "out.json"
        if source == "json":
            args = ["qfi", write(workdir / "fam.json", dict(family, fd_step=-1e-3))]
            assert main(args + ["-o", str(out)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "input"
            assert "fd_step must be >= 0" in err["message"] and "-0.001" in err["message"]
        else:
            args = ["qfi", write(workdir / "fam.json", family), "--fd-step", "1e-3"]
            with pytest.raises(SystemExit) as exit_:
                main(args + ["-o", str(out)])
            assert exit_.value.code == 2
            assert "unrecognized arguments: --fd-step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qfi-time", "qfi-freq", "sweep"])
    def test_mixed_input_to_a_qfi_rate_exits_2(self, workdir, rng, capsys, command):
        """A thermal part on the squeezed input: the rate formulas hold for pure inputs only."""
        V = InputCovariance([[0.5 + 0.1]], [[np.sqrt(0.75)]])
        nu = f"{np.max(V.normal_form.symplectic_eigenvalues):.3e}"
        inputs = _cli_inputs(rng)
        v = write(workdir / "v.json", qio.input_to_json(V))
        args = {"qfi-time": ["qfi", write(workdir / "fam.json", inputs["family"]), "--method", "time"],
                "qfi-freq": ["qfi", write(workdir / "fam.json", inputs["family"]), "--method", "freq"],
                "sweep": ["sweep", write(workdir / "sweep.json", inputs["sweep"])]}[command]
        out = workdir / "out"
        assert main(args + ["--input", v, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "input", "message": f"input covariance is mixed (max symplectic eigenvalue {nu})"}
        assert not out.exists()

    @pytest.mark.parametrize("gm_tol", ["0", "-1"])
    @pytest.mark.parametrize("command", ["gm", "split", "absorber"])
    def test_non_positive_gm_tol_exits_2(self, workdir, capsys, command, gm_tol):
        """gm2(-4) under squeezing is not globally minimal; a threshold <= 0 would call it so."""
        from conftest import gm2_system

        p = write(workdir / "sys.json", qio.system_to_json(gm2_system(-4.0)))
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.5)))
        args = [command, p] + ([] if command == "absorber" else ["--input", v])
        out = workdir / "out.json"
        assert main(args + ["--gm-tol", gm_tol, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "input", "message": f"gm_tol must be > 0, got {float(gm_tol)}"}
        assert not out.exists()

    def test_sweep_loads_each_family_once(self, workdir, rng, monkeypatch):
        """One load and one evaluation per coupling (the exact tangent takes none), and the same CSV."""
        from qls import cli

        spec = dict(_cli_inputs(rng)["sweep"], couplings=[1.0, 0.8, 0.6, 0.5])
        p = write(workdir / "sweep.json", spec)
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.5)))
        loads, evaluations = [], []
        family_from_json = qio.family_from_json

        def counted(data):
            family = family_from_json(data)
            loads.append(1)
            evaluate = family.evaluate
            return dataclasses.replace(family, evaluate=lambda t: evaluations.append(t) or evaluate(t))

        out = workdir / "sweep.csv"
        assert main(["sweep", p, "--input", v, "-o", str(out)]) == 0
        monkeypatch.setattr(cli.qio, "family_from_json", counted)
        counted_out = workdir / "counted.csv"
        assert main(["sweep", p, "--input", v, "-o", str(counted_out)]) == 0
        assert (len(loads), len(evaluations)) == (4, 4)
        assert counted_out.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("couplings", [[1.0], [0.7, 0.7]], ids=("one", "repeated"))
    def test_sweep_one_distinct_tau_exits_2(self, workdir, rng, capsys, couplings):
        """No slope is fitted from a single stabilisation time."""
        spec = dict(_cli_inputs(rng)["sweep"], couplings=couplings)
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.5)))
        out = workdir / "out.csv"
        assert main(["sweep", write(workdir / "sweep.json", spec), "--input", v, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "input",
                       "message": "a slope needs two distinct stabilisation times, got 1"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ps", "gm", "split", "qfi", "sweep"])
    def test_input_channel_count_mismatch_exits_2(self, workdir, rng, capsys, command):
        """A 2-channel input on a 1-channel system is named as such, not left to numpy."""
        inputs = _cli_inputs(rng)
        payload = {"qfi": inputs["family"], "sweep": inputs["sweep"]}.get(command, qio.system_to_json(cavity()))
        data = write(workdir / "data.json", payload)
        v = write(workdir / "v.json", qio.input_to_json(InputCovariance(*random_pure_input(rng, 2))))
        out = workdir / "out.json"
        assert main([command, data, "--input", v, "-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert err["message"] == f"input covariance {v} has 2 channels but the system has 1"
        assert not out.exists()

    def test_qfi_both_methods(self, workdir, capsys):
        from conftest import squeezed_input

        c, N = 1.3, 0.8
        fam = {
            "base": qio.system_to_json(cavity(c * c, 0.0)),
            "fd_step": 1e-6,
            "dependencies": [
                {"target": "Omega.minus", "row": 0, "col": 0, "coefficient": [1.0, 0.0]}
            ],
        }
        p = write(workdir / "fam.json", fam)
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(N)))
        target = 16.0 * N * (N + 1) / c**2
        keys = {"time": {"tangent", "B_residual"}, "freq": {"tangent", "quad_error", "max_nodes_per_panel", "panels",
                                                           "evaluations"}}
        for method, tol in (("time", 1e-8), ("freq", 1e-8)):
            assert main(["qfi", p, "--input", v, "--method", method]) == 0
            out = json.loads(capsys.readouterr().out)
            assert abs(out["value"] - target) < tol * target
            assert set(out["diagnostics"]) == keys[method] and out["diagnostics"]["tangent"] == "exact"

    def test_sweep_csv(self, workdir):
        from conftest import squeezed_input

        spec = {
            "family": {
                "base": qio.system_to_json(cavity(1.0, 0.0)),
                "fd_step": 1e-6,
                "dependencies": [
                    {"target": "Omega.minus", "row": 0, "col": 0, "coefficient": [1.0, 0.0]}
                ],
            },
            "couplings": [1.0, np.sqrt(0.5), 0.5, np.sqrt(0.125)],
            "coupling_target": "C.minus",
            "coupling_row": 0,
            "coupling_col": 0,
        }
        p = write(workdir / "sweep.json", spec)
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.8)))
        out = str(workdir / "sweep.csv")
        assert main(["sweep", p, "--input", v, "-o", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "coupling,tau,f,slope_fit"
        assert len(lines) == 5
        slope = float(lines[1].split(",")[3])
        assert abs(slope - 1.0) < 0.05

    def test_sweep_off_diagonal_omega_keeps_it_hermitian(self, workdir):
        """An Omega.minus coupling at (0, 1) also sets its Hermitian partner (1, 0)."""
        spec = {
            "family": {
                "base": qio.system_to_json(QLSystem.passive([[1.0]], [[1.0, 0.0]], [[0.0, 0.3], [0.3, 0.0]])),
                "fd_step": 1e-7,
                "dependencies": [{"target": "Omega.minus", "row": 1, "col": 1, "coefficient": [1.0, 0.0]}],
            },
            "couplings": [0.1, 0.01, 0.001],
            "coupling_target": "Omega.minus",
            "coupling_row": 0,
            "coupling_col": 1,
        }
        p = write(workdir / "sweep.json", spec)
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.5)))
        out = workdir / "sweep.csv"
        assert main(["sweep", p, "--input", v, "-o", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        for g, line in zip(spec["couplings"], rows):  # rate 3 / g^2 + 12 of test_estimation's weak mode
            assert abs(float(line.split(",")[2]) - (3.0 / g**2 + 12.0)) <= 1e-8 * (3.0 / g**2)

    def test_grid_output_byte_identical_across_runs(self, workdir, rng):
        sys = random_qlsystem(rng, 2, 2)
        p = write(workdir / "sys.json", qio.system_to_json(sys))
        V = InputCovariance(*random_pure_input(rng, 2))
        v = write(workdir / "v.json", qio.input_to_json(V))
        grid = json.dumps([[0.0, w] for w in np.linspace(-3.0, 3.0, 31)] + [[0.2, 0.5]])
        for args in (["tf", p, "--grid", grid], ["ps", p, "--input", v, "--grid", grid],
                     ["tf", p], ["validate", p]):
            outs = [str(workdir / f"out{k}.json") for k in (1, 2)]
            for out in outs:
                assert main(args + ["-o", out]) == 0
            assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        data = json.load(open(outs[0]))
        assert data["fpr_residual"] < 1e-8

    def test_tf_and_ps_files_equal_standard_encoder_text(self, workdir):
        from conftest import squeezed_input

        readme = {"n": 1, "m": 1,
                  "S": {"minus": [[[1.0, 0.0]]], "plus": [[[0.0, 0.0]]]},
                  "C": {"minus": [[[7.0, 0.0]]], "plus": [[[-1.0, 0.0]]]},
                  "Omega": {"minus": [[[2.0, 0.0]]], "plus": [[[0.0, 1.0]]]}}
        p = write(workdir / "sys.json", readme)
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.5)))
        sys = qio.system_from_json(readme)
        V = qio.input_from_json(qio.load_json(v))
        grid = default_grid(sys)
        out = str(workdir / "out.json")
        for args, values in ((["tf", p], freq_response(sys, grid)),
                             (["ps", p, "--input", v], power_spectrum(sys, V, grid))):
            assert main(args + ["-o", out]) == 0
            expected = _std_text({"grid": _pair_lists(grid), "values": _pair_lists(values)})
            assert open(out).read() == expected + "\n"

    def test_tf_on_an_empty_grid_writes_empty_lists(self, workdir):
        """An empty --grid gives a (0, 2m, 2m) value stack, written as the encoder writes []."""
        p = write(workdir / "sys.json", qio.system_to_json(cavity()))
        out = str(workdir / "out.json")
        assert main(["tf", p, "--grid", "[]", "-o", out]) == 0
        assert open(out).read() == _std_text({"grid": [], "values": []}) + "\n"

    @pytest.mark.parametrize("bad", [["1.0", 0.0], [0.0, True], [1.0], [0, 1, 5]],
                             ids=["string", "bool", "short", "long"])
    @pytest.mark.parametrize("where", ["system", "input", "rational", "grid"])
    def test_malformed_pair_exits_2(self, workdir, capsys, where, bad):
        sys_json = qio.system_to_json(cavity())
        p = write(workdir / "sys.json", sys_json)
        if where == "system":
            sys_json["C"]["minus"][0][0] = bad
            args = ["tf", write(workdir / "bad.json", sys_json)]
        elif where == "input":
            V = qio.input_to_json(InputCovariance.vacuum(1))
            V["M"][0][0] = bad
            args = ["ps", p, "--input", write(workdir / "v.json", V)]
        elif where == "rational":
            r = qio.rational_to_json(tf_as_rational(cavity()))
            r["poles"][0] = bad
            args = ["realize-tf", write(workdir / "r.json", r)]
        else:
            args = ["tf", p, "--grid", json.dumps([[0.0, 1.0], bad])]
        out = workdir / "out.json"
        assert main(args + ["-o", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and "[re, im]" in err["message"]
        assert not out.exists()

    def test_ps_values_match_power_spectrum(self, workdir, rng):
        sys = random_qlsystem(rng, 2, 1)
        V = InputCovariance(*random_pure_input(rng, 1))
        p = write(workdir / "sys.json", qio.system_to_json(sys))
        v = write(workdir / "v.json", qio.input_to_json(V))
        out = str(workdir / "ps.json")
        assert main(["ps", p, "--input", v, "-o", out]) == 0
        data = json.load(open(out))
        for pair, value in zip(data["grid"], data["values"]):
            s = qio.pair_to_complex(pair)
            ref = power_spectrum(sys, V, s)
            assert np.linalg.norm(qio.matrix_from_json(value) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_import_leaves_optimize_and_integrate_unloaded(self):
        code = ("import sys, qls; print(sorted(m for m in "
                "('scipy.optimize', 'scipy.integrate', 'scipy.linalg') if m in sys.modules))")
        out = _run_python(["-c", code])
        assert out.stdout.strip() == "[]"

    def test_scipy_is_imported_only_inside_two_functions(self):
        """scipy is imported by no module at load time, and inside no function but
        ``sampling.random_symplectic`` (``expm``) and ``algebra._schur_lyap``, the
        Lyapunov direct route past ``algebra.KRON_MAX`` and for its misses."""
        import ast
        from pathlib import Path

        import qls

        importers = set()
        for path in Path(qls.__file__).parent.glob("*.py"):
            for top in ast.parse(path.read_text()).body:  # each import, by its top-level function or class
                scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                for node in ast.walk(top):
                    names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                             else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                    if any(name.split(".")[0] == "scipy" for name in names):
                        importers.add((path.stem, scope))
        assert importers == {("sampling", "random_symplectic"), ("algebra", "_schur_lyap")}

    @pytest.mark.parametrize("command, loads_linalg", [
        (["validate", "{sys}"], False),
        (["tf", "{sys}", "--grid", "[[0, 1], [0, -2]]"], False),
        (["ps", "{sys}", "--input", "{input}"], False),
        (["gm", "{gm2_0}"], False),  # a defective drift: the Kronecker fallback
        (["gm", "{sys}"], False),
        (["split", "{gm2_m1}", "--input", "{sq05}"], False),
        (["absorber", "{sys}"], False),
        (["realize-tf", "{rtf}"], False),
        (["realize-ps", "{rps1}"], False),
        (["realize-ps", "{rps3}"], False),
        (["realize-noisy", "{ss}", "--n-noise", "1", "--seed", "7"], False),
        (["cascade-id", "{pair}"], False),
        (["qfi", "{family}", "--input", "{sq05}", "--method", "time"], False),
        (["sweep", "{sweep}", "--input", "{sq05}"], False),
        (["gm", "{gm2_0}", "--input", "{sq05}"], False),
    ])
    def test_cli_loads_scipy_linalg_only_for_lyapunov_solves(self, workdir, rng, command,
                                                              loads_linalg):
        """`python -m qls.cli` loads neither scipy.linalg nor scipy.optimize.

        Every Lyapunov solve (stationary states, flat Gramians, the
        time-route QFI, the noise-coupling polish of `realize-noisy`) runs
        on numpy alone: in the drift's eigenbasis, or by one LU of the
        Kronecker form for a defective drift of size up to ``algebra.KRON_MAX``.
        """
        paths = _cli_files(workdir, rng)
        args = [part.format(**paths) for part in command] + ["-o", str(workdir / "out.json")]
        code, loaded = _run_cli_probe("('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)", args)
        assert code == 0, loaded
        assert loaded == repr((False, loads_linalg))

    @pytest.mark.parametrize("command, pipeline", [
        (["--help"], ()),
        (["validate", "{sys}"], ()),
        (["tf", "{sys}"], ()),
        (["validate", "{bad}"], ()),
        (["ps", "{sys}", "--input", "{input}"], ("stationary",)),
        (["gm", "{sys}"], ("stationary",)),
        (["split", "{gm2_m1}", "--input", "{sq05}"], ("stationary",)),
        (["realize-tf", "{rtf}"], ("realization", "stationary")),
        (["realize-ps", "{rps1}"], ("realization", "stationary")),
        (["realize-noisy", "{ss}"], ("realization", "stationary")),
        (["cascade-id", "{pair}"], ("realization", "stationary")),
        (["absorber", "{sys}"], ("absorber", "stationary")),
        (["qfi", "{family}", "--input", "{sq05}"], ("estimation", "stationary")),
        (["sweep", "{sweep}", "--input", "{sq05}"], ("estimation", "stationary")),
    ])
    def test_cli_loads_only_its_pipeline(self, workdir, rng, command, pipeline):
        """A subcommand loads ``algebra``, ``model`` and ``io`` and the modules of its own
        pipeline; none loads ``sampling``, and a malformed input file still exits 2."""
        paths = _cli_files(workdir, rng)
        args = [part.format(**paths) for part in command] + ["-o", str(workdir / "out.json")]
        code, loaded = _run_cli_probe("sorted(m for m in sys.modules if m.startswith('qls.'))", args)
        assert code == (2 if "{bad}" in command else 0), loaded
        assert loaded == repr(sorted(f"qls.{m}" for m in ("algebra", "io", "model", *pipeline)))

    def test_determinism_across_runs(self, workdir):
        p = write(workdir / "sys.json", qio.system_to_json(absorber_two_mode_example()))
        out1, out2 = str(workdir / "d1.json"), str(workdir / "d2.json")
        assert main(["absorber", p, "-o", out1]) == 0
        assert main(["absorber", p, "-o", out2]) == 0
        assert open(out1).read() == open(out2).read()

    def test_in_process_calls_match_fresh_processes(self, workdir, rng, capsys):
        """One shared parser: no option leaks from one `main` call into the next."""
        from conftest import squeezed_input

        p = write(workdir / "sys.json", qio.system_to_json(random_qlsystem(rng, 2, 1)))
        v = write(workdir / "v.json", qio.input_to_json(squeezed_input(0.5)))
        grid = json.dumps([[0.0, w] for w in np.linspace(-2.0, 2.0, 9)])
        runs = [["ps", p, "--input", v, "--grid", grid], ["tf", p],
                ["gm", p, "--input", v, "--gm-tol", "0.5"], ["gm", p, "--input", v], ["gm", p],
                ["tf", p, "--grid", grid]]
        outs = []
        for args in runs:
            assert main(args) == 0
            outs.append(capsys.readouterr().out)
            assert outs[-1] == _run_python(["-m", "qls.cli"] + args).stdout
        # the two `gm --input` calls differ only in --gm-tol, and so do their verdicts
        assert [json.loads(outs[k])["globally_minimal"] for k in (2, 3)] == [False, True]
        with pytest.raises(SystemExit) as help_exit:
            main(["--help"])
        assert help_exit.value.code == 0
        assert "realize-noisy" in capsys.readouterr().out
        bad = str(workdir / "bad.json")
        with open(bad, "w") as fh:
            fh.write("{not json")
        assert main(["tf", bad]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"
        assert main(["tf", p]) == 0
        assert capsys.readouterr().out == _run_python(["-m", "qls.cli", "tf", p]).stdout


class TestPackageNamespace:
    """``import qls`` is lazy: each public name resolves from its home module on first use."""

    EXPORTS = {
        "absorber": ["AbsorberResult", "canonicalize_stationary", "dual_system", "verify_absorber"],
        "algebra": ["Delta", "TOL_NUM", "TOL_STRUCT", "WilliamsonResult", "du_blocks", "factor_flat_gram",
                    "flat_adjoint", "is_doubled_up", "is_symplectic", "jmat", "sigma_swap", "williamson"],
        "estimation": ["QFIReport", "coherent_qfi", "destabilized_scaling_check", "ensemble_coupling_profile",
                       "gauge_tangent_family", "multiparam_noon_bounds", "squeezed_coherent_qfi",
                       "stationary_qfi_rate_freq", "stationary_qfi_rate_time"],
        "model": ["ParamFamily", "QLSystem", "StateSpace", "check_pr", "concatenate", "default_grid",
                  "gauge_transform", "is_hurwitz", "is_minimal", "series_product", "spectral_gap", "tf_equal",
                  "transfer_function"],
        "realization": ["RationalMatrixFunction", "gilbert_realize", "noisy_realize", "nus_detect",
                        "passive_siso_cascade", "physical_from_classical", "ps_as_rational", "ps_realize",
                        "siso_cascade_identify", "tf_as_rational"],
        "sampling": ["random_pure_input", "random_qlsystem", "random_symplectic"],
        "stationary": ["InputCovariance", "StationaryState", "is_globally_minimal", "power_spectrum",
                       "ps_cascade_embedding", "pure_mixed_split", "solve_lyapunov"],
    }

    def test_all_is_pinned(self):
        import qls

        assert sorted(qls.__all__) == sorted([*self.EXPORTS, *(n for names in self.EXPORTS.values() for n in names)])

    def test_each_name_is_its_home_modules_object(self):
        import importlib

        import qls

        for module, names in self.EXPORTS.items():
            home = importlib.import_module(f"qls.{module}")
            assert getattr(qls, module) is home
            for name in names:
                assert getattr(qls, name) is getattr(home, name), name

    def test_star_import_dir_and_unknown_names(self):
        import qls

        namespace = {}
        exec("from qls import *", namespace)
        assert set(qls.__all__) <= set(namespace)
        assert set(qls.__all__) <= set(dir(qls))
        with pytest.raises(AttributeError, match="'nonexistent'"):
            qls.nonexistent

    def test_import_loads_no_submodule_until_one_is_used(self):
        code = ("import sys, qls; loaded = lambda: sorted(m for m in sys.modules if m.startswith('qls.')); "
                "print(loaded(), qls.model.__name__, loaded())")
        assert _run_python(["-c", code]).stdout.strip() == "[] qls.model ['qls.algebra', 'qls.model']"
