import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fraccomp.cli import main


def run_cli(args):
    return main(list(args))


def read_manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


CONFIG = """
# sample run
alpha = 0.5
n_space = 16
n_time = 32
T = 1.0
a = 1
c0 = 1
c = -1
initial = 1 + cos(pi*x)
output_dir = {out}
"""


class TestMl:
    def test_exponential_value(self, capsys):
        assert run_cli(["ml", "--alpha", "1", "--beta", "1", "--z", "1"]) == 0
        out = capsys.readouterr().out
        assert "2.71828182845904" in out

    def test_erfc_value(self, capsys):
        assert run_cli(["ml", "--alpha", "0.5", "--z", "-1"]) == 0
        assert "0.4275835761" in capsys.readouterr().out

    def test_cos_identity_value(self, capsys):
        assert run_cli(["ml", "--alpha", "2", "--z", "-2.46740110027234"]) == 0
        out = capsys.readouterr().out
        val = float(out.strip().splitlines()[-1].split()[1])
        assert abs(val) < 1e-9

    def test_grid_output(self, capsys):
        assert run_cli(["ml", "--alpha", "0.7", "--z-min", "-5", "--z-max", "0", "--z-count", "11"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12  # header + rows

    def test_invalid_parameters_exit_2(self):
        assert run_cli(["ml", "--alpha", "-1", "--z", "1"]) == 2

    def test_manifest_when_out_given(self, tmp_path, capsys):
        assert run_cli(["ml", "--alpha", "0.5", "--z", "-1", "--out", str(tmp_path)]) == 0
        assert read_manifest(tmp_path)["verdict"] == "ok"


class TestSolve:
    def test_solve_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path))
        code = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        man = read_manifest(tmp_path)
        assert man["verdict"] == "ok"
        assert (tmp_path / "u.csv").exists()
        assert (tmp_path / "decay.svg").exists()
        assert (tmp_path / "slices.svg").exists()
        header = (tmp_path / "u.csv").read_text().splitlines()[0]
        assert header == "x,t,u"

    def test_csv_deterministic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["solve", "--config", str(cfg), "--out", str(out1)])
        run_cli(["solve", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "u.csv").read_bytes() == (out2 / "u.csv").read_bytes()

    def test_cross_oracle_recorded(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path))
        run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path), "--cross-oracle"])
        man = read_manifest(tmp_path)
        # coarse smoke-test resolution: just confirm the oracle gap is recorded
        # and consistent with the discretisation scale
        assert man["cross_oracle_max_diff"] < 5e-2

    def test_semilinear_solve(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path) + "semilinear = enzyme\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        man = read_manifest(tmp_path)
        assert "enzyme" in man["method"]

    def test_config_error_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 1.5\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        # the failing exit path still writes a manifest with a verdict
        man = read_manifest(tmp_path)
        assert "config error" in man["verdict"]

    def test_solver_failure_exit_3(self, tmp_path):
        # a strongly positive zeroth-order coefficient on a coarse time grid
        # breaks the per-node contraction
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "alpha = 0.5\nn_space = 8\nn_time = 8\nT = 1\na = 1\nc0 = 1\nc = 60\ninitial = 1\n"
        )
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        man = read_manifest(tmp_path)
        assert "solver failure" in man["verdict"]

    @pytest.mark.parametrize("method", ["spectral", "l1"])
    def test_non_finite_coefficient_exit_3(self, tmp_path, capsys, method):
        # c = 1/(x - 0.5) is infinite on the grid node x = 0.5
        code = run_cli(["solve", "--set", "c=1/(x-0.5)", "--set", "n_space=33",
                        "--method", method, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "non-finite" in err and "x = 0.5" in err
        assert "Traceback" not in err
        assert "non-finite" in read_manifest(tmp_path)["verdict"]

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_bad_expression_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("initial = sin(\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_eigenmode_decay_csv(self, tmp_path):
        # single-mode initial data decays by the relaxation profile
        from fraccomp.special_ml import ml_relaxation

        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "alpha = 0.5\nn_space = 16\nn_time = 24\nT = 1\na = 1\nc0 = 1\nc = -1\ninitial = 1\n"
        )
        run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        rows = (tmp_path / "u.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        # constant initial = ground mode of the Neumann operator, lambda_1 = 1
        ts = np.unique(data[:, 1])
        for t in (ts[0], ts[len(ts) // 2], ts[-1]):
            u_vals = data[np.isclose(data[:, 1], t), 2]
            assert np.allclose(u_vals, ml_relaxation(0.5, 1.0, t), atol=1e-8)


class TestVerify:
    def test_ml_suite_passes(self, tmp_path, capsys):
        code = run_cli(["verify", "--suite", "ml", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        man = read_manifest(tmp_path)
        assert man["verdict"] == "ok"
        assert all(c["holds"] for c in man["checks"])

    def test_fracops_suite_passes(self, tmp_path, capsys):
        assert run_cli(["verify", "--suite", "fracops", "--out", str(tmp_path), "--seed", "7"]) == 0

    def test_unknown_suite_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestReproduce:
    def test_ex1(self, tmp_path, capsys):
        code = run_cli(["reproduce", "ex1", "--alpha", "0.5", "--out", str(tmp_path)])
        assert code == 0
        man = read_manifest(tmp_path)
        assert man["verdict"] == "ok"
        assert man["min_slack"] >= -1e-3
        assert (tmp_path / "ex1.csv").exists()
        assert (tmp_path / "ex1.svg").exists()

    def test_monotone_linear(self, tmp_path):
        assert run_cli(["reproduce", "monotone_linear", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "monotone_linear.csv").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fraccomp.cli", "ml", "--alpha", "1", "--z", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "1" in proc.stdout
