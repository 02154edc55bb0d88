import json

import numpy as np
import pytest

from qls import io as qio
from qls.cli import main
from qls.model import tf_equal
from qls.realization import ps_as_rational, tf_as_rational
from qls.sampling import random_pure_input, random_qlsystem
from qls.stationary import InputCovariance, power_spectrum

from conftest import absorber_two_mode_example, active_one_mode_example, cavity, two_mode_cascade_example


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

    def test_determinism(self, rng):
        sys = random_qlsystem(rng, 1, 1)
        a = qio.dump_json(qio.system_to_json(sys))
        b = qio.dump_json(qio.system_to_json(sys))
        assert a == b


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


class TestCli:
    def test_validate(self, workdir, capsys):
        p = write(workdir / "sys.json", qio.system_to_json(cavity()))
        assert main(["validate", p]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pr"] is True
        assert out["hurwitz"] is True
        assert out["minimal"] is True
        assert out["fpr_residual"] < 1e-8

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

    def test_realize_ps(self, workdir):
        sys = active_one_mode_example()
        psr = ps_as_rational(sys, InputCovariance.vacuum(1))
        p = write(workdir / "ps.json", qio.rational_to_json(psr))
        out = str(workdir / "rec.json")
        assert main(["realize-ps", p, "-o", out]) == 0
        data = json.load(open(out))
        T3bT3 = qio.matrix_from_json(data["T3bT3"])
        assert np.allclose(T3bT3, -0.2054 * np.eye(2), atol=5e-5)

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

    def test_absorber(self, workdir):
        p = write(workdir / "sys.json", qio.system_to_json(absorber_two_mode_example()))
        out = str(workdir / "dual.json")
        assert main(["absorber", p, "-o", out]) == 0
        data = json.load(open(out))
        assert data["purity_residual"] < 1e-6

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
        for method, tol in (("time", 1e-8), ("freq", 1e-8)):
            assert main(["qfi", p, "--input", v, "--method", method]) == 0
            out = json.loads(capsys.readouterr().out)
            assert abs(out["value"] - target) < tol * target

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
        import os
        import subprocess
        import sys

        import qls

        src = os.path.dirname(os.path.dirname(qls.__file__))
        code = ("import sys, qls; print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_determinism_across_runs(self, workdir):
        p = write(workdir / "sys.json", qio.system_to_json(absorber_two_mode_example()))
        out1, out2 = str(workdir / "d1.json"), str(workdir / "d2.json")
        assert main(["absorber", p, "-o", out1]) == 0
        assert main(["absorber", p, "-o", out2]) == 0
        assert open(out1).read() == open(out2).read()
