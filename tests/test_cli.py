import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccomp import special_ml, suites
from fraccomp.cli import main
from fraccomp.elliptic import EllipticSpec, Grid1D
from fraccomp.evolve_linear import PICARD_MAX, ProblemSpec, _sweeps
from fraccomp.fracops import TimeGrid


def run_cli(args):
    return main(list(args))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh, parse_constant=_reject_constant)


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

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_empty_grid_exit_2(self, capsys, count):
        assert run_cli(["ml", "--alpha", "0.5", "--z-min", "-1", "--z-max", "0", "--z-count", count]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"usage error: --z-count must be at least 1, got {count}" in err

    def test_huge_negative_argument(self, capsys):
        # x^(1/alpha) once overflowed into a traceback; E = erfcx(1e308)
        assert run_cli(["ml", "--alpha", "0.5", "--z=-1e308"]) == 0
        val = float(capsys.readouterr().out.strip().splitlines()[-1].split()[1])
        assert val == pytest.approx(5.6418958354775628e-309, rel=1e-12)

    @pytest.mark.parametrize("alpha, z", [("0.5", "800"), ("0.5", "1e300"), ("1", "1000")])
    def test_overflowing_value_exit_2(self, capsys, alpha, z):
        assert run_cli(["ml", "--alpha", alpha, "--z", z]) == 2
        out, err = capsys.readouterr()
        assert "overflows the double range" in err and "Traceback" not in err

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

    def test_near_constant_field_plots(self, tmp_path):
        # u stays within 4e-16 of 1, so the slice plot's y-range is a few
        # ulps wide: its ticks once never ended and ran the memory out
        argv = ["solve", "--method", "l1", "--out", str(tmp_path)]
        for item in ("alpha=0.05", "domain=0,1", "n_space=3", "n_time=8", "T=1",
                     "time_grading=uniform", "a=2+sin(t)", "b=-30", "c=-1", "c0=0",
                     "sigma_lo=0", "initial=1", "source=1"):
            argv += ["--set", item]
        assert run_cli(argv) == 0
        assert (tmp_path / "decay.svg").exists() and (tmp_path / "slices.svg").exists()

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

    @pytest.mark.parametrize("flags", [["--method", "l1"], ["--cross-oracle"]])
    def test_semilinear_conflicts_exit_2(self, tmp_path, capsys, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path) + "semilinear = enzyme\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)] + flags) == 2
        err = capsys.readouterr().err
        assert f"config error: {' '.join(flags)} conflicts with semilinear = enzyme" in err
        assert "conflicts with semilinear" in read_manifest(tmp_path)["verdict"]
        assert not (tmp_path / "u.csv").exists()

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

    def test_small_alpha_solves(self, tmp_path):
        # the relaxation table of alpha = 0.02 used to fail to build
        assert run_cli(["solve", "--set", "alpha=0.02", "--out", str(tmp_path)]) == 0

    def test_table_build_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(special_ml, "_SOE_TOL", -1.0)  # no exponential sum passes
        monkeypatch.setattr(special_ml, "_tables", OrderedDict())
        assert run_cli(["solve", "--set", "alpha=0.37", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "alpha=0.37" in err and "Traceback" not in err
        assert "solver failure" in read_manifest(tmp_path)["verdict"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("domain", ["0,1e-150", "0,1e-300"])
    @pytest.mark.parametrize("method", ["spectral", "l1"])
    def test_too_short_domain_exit_2(self, tmp_path, capsys, method, domain):
        # the operator's entries reach 2e303 (past the eigensolver's range;
        # the L1 step's shift is lost to rounding) or overflow: rejected
        # when the problem is built, the same way for both routes
        code = run_cli(["solve", "--set", f"domain={domain}", "--method", method, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "domain" in err and "n_space" in err and "Traceback" not in err
        assert "config error" in read_manifest(tmp_path)["verdict"]

    @pytest.mark.parametrize("setting, shift, diagonal", [("T=1e300", "1.85e-146", "2.18e+03"),
                                                          ("domain=0,1e-10", "1.85e+04", "2.18e+23")])
    def test_singular_l1_step_names_its_shift(self, tmp_path, capsys, setting, shift, diagonal):
        # with zero-flux ends and c = 0 the operator alone is singular, and
        # the step's shift is lost to rounding in its diagonal
        code = run_cli(["solve", "--set", setting, "--method", "l1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert (f"implicit step 1 is singular: its shift w = {shift} is below the rounding "
                f"of A's largest diagonal entry {diagonal}") in err
        assert "Traceback" not in err
        assert "solver failure" in read_manifest(tmp_path)["verdict"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_horizon_solves_without_warnings(self, tmp_path):
        # the march formed _BAND_LO / t_m, which overflows at T = 1e-300
        assert run_cli(["solve", "--set", "T=1e-300", "--set", "initial=1", "--out", str(tmp_path)]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["spectral", "l1"])
    def test_non_finite_coefficient_exit_2(self, tmp_path, capsys, method):
        # c = 1/(x - 0.5) is infinite on the grid node x = 0.5: rejected when
        # the problem is built, the same way for both routes
        code = run_cli(["solve", "--set", "c=1/(x-0.5)", "--set", "n_space=33",
                        "--method", method, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config key 'c' is not finite at x = 0.5," in err
        assert "Traceback" not in err
        assert "config error" in read_manifest(tmp_path)["verdict"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides, message", [
        (["n_space=2"], "grid (domain, n_space, T, n_time, grading_r): need at least 3 interior nodes"),
        (["domain=1,0"], "grid (domain, n_space, T, n_time, grading_r): need x_lo < x_hi"),
        (["T=nan"], "config key 'T': 'nan' is not a finite float"),
        (["T=0"], "T must be positive, got 0"),
        (["T=-1"], "T must be positive, got -1"),
        (["n_time=1"], "grid (domain, n_space, T, n_time, grading_r): need at least 3 nodes"),
        (["c0=inf"], "config key 'c0'"),
        (["a=-1"], "ellipticity violated"),
        (["a=1+1/(x-0.5)^2", "n_space=33"], "config key 'a' is not finite at x = 0.5"),
        (["initial=1/x"], "config key 'initial' is not finite at x = 0"),
        (["source=1/(t-0.5)", "time_grading=uniform", "n_time=4"],
         "config key 'source' is not finite at x = 0, t = 0.5"),
        (["c=" + "+".join(["x"] * 3000)], "config key 'c': cannot parse"),
        (["c=" + "(" * 400 + "x" + ")" * 400], "config key 'c': cannot parse"),
        (["b0=1"], "unknown key 'b0'"),
        (["grading_r=300"], "grading_r = 300 underflows the first graded node"),
        (["grading_r=-2000"], "grading exponent must be >= 1"),
    ], ids=["n_space", "domain", "T", "T=0", "T=-1", "n_time", "c0", "a<=0", "a", "initial", "source",
            "c-3000-terms", "c-400-parentheses", "b0", "grading_r", "grading_r<1"])
    def test_bad_config_rejected_at_build(self, tmp_path, capsys, overrides, message):
        argv = ["solve", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert "config error" in read_manifest(tmp_path)["verdict"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["spectral", "l1"])
    def test_overflowing_node_spacing_exit_2(self, tmp_path, capsys, method):
        # hi - lo overflows to inf: both routes refuse the grid before they solve
        settings = ["domain=-1e308,1e308", "n_space=4", "n_time=4"]
        code = run_cli(["solve", "--method", method, "--out", str(tmp_path)]
                       + [a for s in settings for a in ("--set", s)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error: grid (domain, n_space, T, n_time, grading_r): "
                                                   "need finite ends and a finite step")

    def test_default_grading_named_at_small_alpha(self, tmp_path, capsys):
        # r = 2/alpha = 200 underflows T (1/N)^r: the default grading is the cause
        assert run_cli(["solve", "--set", "alpha=0.01", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "grading_r = 200 (the default 2/alpha)" in err
        assert "smaller grading_r or time_grading = uniform" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, text, as_callable", [
        ("b", "1/(x-0.5)", lambda x, t: 1.0 / (x - 0.5)),
        ("c", "x + 1/(t-0.5)", lambda x, t: x + 1.0 / (t - 0.5)),
        ("source", "x/(t-0.5)", lambda x, t: x / (t - 0.5)),
    ])
    def test_non_finite_field_refused_alike_by_both_interfaces(self, tmp_path, capsys, key, text, as_callable):
        # the command line and a ProblemSpec built from Python refuse the
        # same field in the same place, with the same text
        settings = [f"{key}={text}", "n_space=33", "time_grading=uniform", "n_time=4"]
        assert run_cli(["solve", "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)]) == 2
        err = capsys.readouterr().err
        spec = EllipticSpec(c0=1.0, **({} if key == "source" else {key: as_callable}))
        with pytest.raises(ValueError) as built:
            ProblemSpec(0.5, spec, Grid1D(0.0, 1.0, 33), TimeGrid.uniform(1.0, 4), 0.0,
                        source=as_callable if key == "source" else None)
        assert str(built.value).startswith(f"{key!r} is not finite at x = ")
        assert err == f"config error: config key {built.value}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method, settings, cause", [
        # Burgers' product overflows in the sweeps of node 1
        ("spectral", ["alpha=0.9", "T=10", "a=2+sin(t)", "c=-60", "c0=0", "n_space=3", "n_time=2",
                      "initial=0.5", "source=1", "semilinear=burgers"], "non-finite step forcing"),
        # w u_0 overflows in the right-hand side of step 1
        ("l1", ["n_space=8", "n_time=8", "initial=1e308"], "non-finite operator or right-hand side"),
    ], ids=["spectral-burgers", "l1"])
    def test_overflowing_march_fails_without_warnings(self, tmp_path, capsys, method, settings, cause):
        # numpy's warnings are off in both marches, and their non-finite checks report
        args = ["solve", "--method", method, "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)]
        assert run_cli(args) == 3
        assert capsys.readouterr().err == f"solver failure: {cause} at time node 1 (first at x = 0)\n"

    def test_fields_checked_on_the_grid_only(self, tmp_path):
        # singular at x = 0.1 and t = 0, neither of which the solvers sample
        # on domain (2, 3); t^-0.5 is a typical weakly singular source
        assert run_cli(["solve", "--set", "domain=2,3", "--set", "c=-1/(x-0.1)",
                        "--set", "source=t^-0.5", "--out", str(tmp_path)]) == 0

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_bad_expression_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("initial = sin(\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_size_cap_exit_2(self, tmp_path, capsys):
        # rejected before any grid is allocated
        start = time.perf_counter()
        code = run_cli(["solve", "--set", "n_time=100000000", "--set", "n_space=3",
                        "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert "n_space = 3 and n_time = 100000000 exceed the size limit" in err
        assert "config error" in read_manifest(tmp_path)["verdict"]

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


_SOLVE_VALUES = {
    "alpha": ["0.5", "0.3", "0", "1", "1.5", "nan", "abc"],
    "domain": ["0,1", "2,3", "1,0", "0,0", "0,inf", "nan,1", "0", "0,1,2"],
    "n_space": ["3", "8", "16", "2", "0", "-4", "2.5"],
    "n_time": ["2", "8", "32", "1", "0", "-1", "1e3"],
    "T": ["1", "0.01", "10", "0", "-1", "nan", "inf"],
    "time_grading": ["graded", "uniform", "log"],
    "grading_r": ["", "1", "3", "0.5", "nan"],
    "a": ["1", "1+x^2", "-1", "x-0.5", "1+1/(x-0.5)^2", "exp(1000*x)", "none"],
    "b": ["", "0.3", "1/(x-0.5)"],
    "c": ["", "-1", "60", "1/(x-0.5)", "1/(t-0.5)", "sin(", "y"],
    "c0": ["1", "0", "-1", "inf"],
    "sigma_lo": ["0", "1", "-1", "nan"],
    "initial": ["0", "1 + cos(pi*x)", "1/(x-0.5)", "1/x", "exp(1000*x)"],
    "source": ["", "1", "t^-0.5", "1/(t-0.5)", "1/(x-0.25)"],
    "semilinear": ["none", "enzyme", "burgers", "foo"],
}


@settings(max_examples=30, deadline=None)
@given(cfg=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in _SOLVE_VALUES.items()}),
       method=st.sampled_from(["spectral", "l1"]))
def test_solve_exit_contract(cfg, method):
    """Any config ends in a documented exit code with a manifest and no
    traceback: bad numbers, tiny grids, fields singular on a node."""
    with tempfile.TemporaryDirectory() as out:
        argv = ["solve", "--method", method, "--out", out]
        for key, value in cfg.items():
            argv += ["--set", f"{key}={value}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert read_manifest(out)["verdict"]


class TestSemilinearFuzz:
    """Seeded configs from a value grid of hard cases, semilinear on the
    spectral route: each run ends with exit 0 or with one solver-failure
    line and exit 3, with no warning and no traceback."""

    GRID = {
        "alpha": ("0.05", "0.3", "0.5", "0.9", "0.99"),
        "T": ("1e-6", "0.01", "1", "10", "1e6"),
        "a": ("1", "1+x^2", "1e-6", "1e6", "2+sin(t)"),
        "b": ("none", "0.3", "5", "-30"),
        "c": ("none", "-1", "60", "-60", "sin(t)"),
        "c0": ("0", "0.5", "1", "100"),
        "sigma": ("0", "1", "100"),
        "n_space": ("3", "8", "16"),
        "n_time": ("2", "8", "32"),
        "semilinear": ("enzyme", "burgers"),
    }
    CODES = [3, 3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 3, 3, 0, 3, 0, 3, 0, 0, 3, 3, 0, 0, 3, 3]

    def test_exit_0_or_3_without_warnings(self, tmp_path):
        rng = random.Random(11)
        codes = []
        for _ in range(30):
            cfg = {key: rng.choice(values) for key, values in self.GRID.items()}
            sigma = cfg.pop("sigma")
            cfg.update(sigma_lo=sigma, sigma_hi=sigma, initial="0.5", source="1")
            args = ["solve", "--out", str(tmp_path)] + [a for k, v in cfg.items() for a in ("--set", f"{k}={v}")]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = run_cli(args)
            lines = err.getvalue().splitlines()
            assert not caught, (cfg, [str(w.message) for w in caught])
            assert (code, lines) == (0, []) or (code == 3 and len(lines) == 1
                                                and lines[0].startswith("solver failure: ")), (cfg, code, lines)
            codes.append(code)
        # each config's exit code is pinned (17 exit 0, 13 exit 3), so that a
        # change to the sweeps that flips one shows here
        assert codes == self.CODES


class TestStallRestart:
    """A step whose sweeps from the extrapolated start stall starts once more
    from u_{m-1}; only a second stall ends the solve."""

    @staticmethod
    def solve(tmp_path, monkeypatch, cfg):
        # the sweeps of each node, counted by the semilinear term's calls (one per sweep)
        sweeps = []

        def spy(batch, m, rows, active, nonlinearity, counts, mid):
            sweeps.append(0)

            def term(*args):
                sweeps[-1] += 1
                return nonlinearity(*args)

            return _sweeps(batch, m, rows, active, term, counts, mid)

        monkeypatch.setattr("fraccomp.evolve_linear._sweeps", spy)
        args = ["solve", "--out", str(tmp_path)] + [a for k, v in cfg.items() for a in ("--set", f"{k}={v}")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(args)
        return code, err.getvalue().splitlines(), sweeps

    def test_restart_converges(self, tmp_path, monkeypatch):
        # node 2 stalls from the quintic start and converges from u_1 in 47
        # sweeps, as it does from the cubic start in t
        cfg = dict(alpha="0.5", T="1", a="1+x^2", b="-30", c0="100", sigma_lo="100", sigma_hi="100",
                   n_space="16", n_time="2", semilinear="burgers", initial="0.5", source="1")
        code, lines, sweeps = self.solve(tmp_path, monkeypatch, cfg)
        assert (code, lines) == (0, [])
        assert sweeps[0] < PICARD_MAX < sweeps[1] < 2 * PICARD_MAX

    def test_second_stall_exits_3(self, tmp_path, monkeypatch):
        # the second config of TestSemilinearFuzz's list
        cfg = dict(alpha="0.05", T="10", a="1e-6", b="0.3", c="none", c0="0", sigma_lo="100", sigma_hi="100",
                   n_space="8", n_time="8", semilinear="enzyme", initial="0.5", source="1")
        code, lines, sweeps = self.solve(tmp_path, monkeypatch, cfg)
        assert code == 3 and len(lines) == 1
        assert re.match(rf"solver failure: Picard iteration stalled at node {len(sweeps)} ", lines[0]), lines
        assert sweeps[-1] == 2 * PICARD_MAX


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

    @pytest.mark.parametrize("argv, message", [
        (["--set", "seed=1"], "unrecognized arguments: --set seed=1"),
        (["--config", "run.cfg"], "unrecognized arguments: --config run.cfg"),
        (["--seed", "-1"], "argument --seed: seed must be a non-negative integer, got -1"),
    ], ids=["set", "config", "negative-seed"])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "ml", "--out", str(tmp_path)] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_unknown_suite_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_key_error_inside_a_suite_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # argparse already rejects unknown suite names; a KeyError raised by a
        # suite is a fault of the program and must surface as one
        def broken(rng):
            raise KeyError("inside the suite")

        monkeypatch.setitem(suites.SUITES, "ml", broken)
        with pytest.raises(KeyError, match="inside the suite"):
            run_cli(["verify", "--suite", "ml", "--out", str(tmp_path)])


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

    def test_all(self, tmp_path, capsys):
        # read_manifest rejects the non-standard Infinity/NaN constants
        assert run_cli(["reproduce", "all", "--out", str(tmp_path)]) == 0
        for name in ("ex1", "e3", "e4", "prop32", "monotone_linear"):
            out = tmp_path / name
            assert (out / f"{name}.csv").exists() and (out / f"{name}.svg").exists()
            man = read_manifest(out)
            assert man["verdict"] == "ok" and man["config"]["example"] == name
            assert man["checks"] and all(c["holds"] for c in man["checks"])
        assert read_manifest(tmp_path / "e4")["T2"] == "inf"

    def test_alpha_outside_hypotheses_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["reproduce", "ex1", "--alpha", "1.5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        # the e4 barriers need alpha > epsilon = 0.1
        assert run_cli(["reproduce", "e4", "--alpha", "0.05", "--out", str(tmp_path)]) == 2
        assert "usage error" in read_manifest(tmp_path)["verdict"]


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports fraccomp from this checkout's src, whatever PYTHONPATH says
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fraccomp.cli", "ml", "--alpha", "1", "--z", "0"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "1" in proc.stdout
