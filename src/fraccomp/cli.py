"""Configuration-driven experiment runner.

Subcommands: ml (tabulate the special function), solve (run a problem and
emit CSV/SVG artefacts), verify (named property suites with PASS/FAIL lines),
reproduce (the suites' experiments at a finer resolution, with CSV/SVG
artefacts and the same PASS/FAIL lines).  Every run writes a
manifest.json with the effective configuration, per-phase wall clock, and a
verdict; exit codes are 0 ok, 1 property failure, 2 usage/config error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, compare, special_ml
from .elliptic import EllipticSpec, Grid1D, NonFiniteError, assemble
from .evolve_linear import ProblemSpec, SolverError, solve_linear_l1, solve_linear_spectral
from .evolve_semilinear import builtin_burgers, builtin_enzyme, solve_semilinear
from .expressions import ExpressionError, parse_expression
from .fracops import TimeGrid
from .suites import EXPERIMENTS, SUITES, run_suite
from .svgplot import write_svg_plot

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_DEFAULTS = {
    "alpha": "0.5",
    "domain": "0,1",
    "n_space": "32",
    "n_time": "128",
    "time_grading": "graded",
    "grading_r": "",
    "T": "1.0",
    "a": "1",
    "b": "",
    "c": "",
    "sigma_lo": "0",
    "sigma_hi": "0",
    "initial": "0",
    "source": "",
    "semilinear": "none",
    "output_dir": ".",
}

# (n_space + 2) * max(n_space + 2, 2 * n_time) values: 128 MiB per float64 array
MAX_GRID_VALUES = 2 ** 24
# largest n_nodes * max |entry| of the assembled diffusion operator.  LAPACK's
# bisection for tridiagonal eigenvalues (stebz) fails from about 0.6 times
# sqrt(max float) (measured for 5 to 502 nodes); the divide-and-conquer
# solver that eigendecompose calls (stevd) scales the matrix first and stays
# finite to at least 30 times that.  The bound keeps a margin of 2.4 below
# where bisection fails, so that the configs accepted do not depend on the
# eigensolver's driver, and far below where the entries overflow
_MAX_OPERATOR_SCALE = math.sqrt(np.finfo(float).max) / 4.0


class ConfigError(ValueError):
    pass


def parse_config(path=None, overrides=()):
    """The defaults, updated by the key = value lines of the file at path
    (# starts a comment), then by the --set overrides."""
    items = []
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [(f"{path}:{n}: ", raw.split("#", 1)[0].strip())
                         for n, raw in enumerate(fh, 1)]
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        items = [(where, line) for where, line in lines if line]
    cfg = dict(_DEFAULTS)
    for where, item in items + [("--set: ", item) for item in overrides]:
        if "=" not in item:
            raise ConfigError(f"{where}expected key = value, got {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        if key not in cfg:
            why = ": the spectral route derives its splitting shift from c" if key == "c0" else ""
            raise ConfigError(f"{where}unknown key {key!r}{why}")
        cfg[key] = val
    return cfg


def _opt_expr(cfg, key):
    text = cfg.get(key, "").strip()
    if not text or text.lower() == "none":
        return None
    try:
        return parse_expression(text)
    except ExpressionError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _number(key, text, kind=float):
    """A finite number from config text, or a ConfigError naming the key."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: {text!r} is not a finite {kind.__name__}")
    return value


def build_problem(cfg):
    """The problem and semilinear term of a config.  Every number and every
    field is checked here, on the points the solvers sample, so bad input is
    a ConfigError rather than a solver failure later."""
    alpha = _number("alpha", cfg["alpha"])
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    domain = cfg["domain"].split(",")
    if len(domain) != 2:
        raise ConfigError(f"config key 'domain': expected lo,hi, got {cfg['domain']!r}")
    lo, hi = (_number("domain", s) for s in domain)
    n_space = _number("n_space", cfg["n_space"], int)
    n_time = _number("n_time", cfg["n_time"], int)
    if (n_space + 2) * max(n_space + 2, 2 * n_time) > MAX_GRID_VALUES:
        raise ConfigError(f"n_space = {n_space} and n_time = {n_time} exceed the size limit: "
                          f"(n_space + 2) * max(n_space + 2, 2 * n_time) > {MAX_GRID_VALUES}")
    horizon = _number("T", cfg["T"])
    if not horizon > 0.0:
        raise ConfigError(f"T must be positive, got {horizon:g}")
    sigma_lo, sigma_hi = (_number(key, cfg[key]) for key in ("sigma_lo", "sigma_hi"))
    grading = cfg["time_grading"].strip().lower()
    if grading not in ("uniform", "graded"):
        raise ConfigError(f"time_grading must be uniform or graded, got {grading!r}")
    r_default = not cfg["grading_r"].strip()
    r = 2.0 / alpha if r_default else _number("grading_r", cfg["grading_r"])
    # on an otherwise valid graded grid, T (1/N)^r = 0 = t_0 is the grading's fault
    if (grading == "graded" and n_time >= 2 and r >= 1.0
            and not horizon * (1.0 / n_time) ** r > 0.0):
        raise ConfigError(f"grading_r = {r:g}{' (the default 2/alpha)' if r_default else ''} "
                          f"underflows the first graded node T (1/n_time)^r to 0; "
                          f"set a smaller grading_r or time_grading = uniform")
    expr = {key: _opt_expr(cfg, key) for key in ("a", "b", "c", "initial", "source")}
    if expr["a"] is None:
        raise ConfigError("diffusion coefficient a is required")
    if expr["initial"] is None:
        raise ConfigError("initial value expression is required")

    # non-finite values are reported below by key and point, not warned about
    with np.errstate(all="ignore"):
        try:
            tgrid = (TimeGrid.uniform(horizon, n_time) if grading == "uniform"
                     else TimeGrid.graded(horizon, n_time, r))
            grid = Grid1D(lo, hi, n_space)
        except ValueError as exc:
            raise ConfigError(f"grid (domain, n_space, T, n_time, grading_r): {exc}") from exc
        # an Expression is a callable of (x, t = 0.0), the form the specs
        # take; assemble checks a, ProblemSpec the other fields
        try:
            spec = EllipticSpec(a=expr["a"], b=expr["b"], c=expr["c"], sigma_lo=sigma_lo, sigma_hi=sigma_hi)
            op = assemble(spec, grid)  # rejects a <= 0 on the same points
            problem = ProblemSpec(alpha, spec, grid, tgrid, expr["initial"], source=expr["source"])
        except NonFiniteError as exc:
            raise ConfigError(f"config key {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # a very short domain gives diffusion entries that are not finite, or
        # too large for the eigensolver (see _MAX_OPERATOR_SCALE); the diagonal
        # holds the largest entries of -(a u')'
        scale = grid.n_nodes * float(np.max(np.abs(op.flux_diag / op.volumes)))
        if not scale <= _MAX_OPERATOR_SCALE:
            raise ConfigError(f"grid (domain, n_space): the assembled operator's largest entry "
                              f"times the {grid.n_nodes} nodes is {scale:.3g}, beyond "
                              f"{_MAX_OPERATOR_SCALE:.3g}; take a longer domain or a smaller n_space")

    terms = {"": None, "none": None, "enzyme": builtin_enzyme, "burgers": builtin_burgers}
    name = cfg["semilinear"].strip().lower()
    if name not in terms:
        raise ConfigError(f"unknown semilinear term {name!r}")
    return problem, terms[name]() if terms[name] else None


def _strict_json(value):
    """Non-finite floats as strings ("inf", "nan"), which strict JSON parsers
    accept; everything else unchanged."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


class Manifest:
    def __init__(self, command, cfg=None, out_dir="."):
        self.data = {
            "command": command,
            "version": __version__,
            "config": dict(cfg) if cfg else {},
            "phases": {},
            "verdict": "incomplete",
        }
        self._t0 = time.time()
        self._phase_start = self._t0
        self.out_dir = out_dir

    def phase(self, name):
        now = time.time()
        self.data["phases"][name] = round(now - self._phase_start, 6)
        self._phase_start = now

    def finish(self, verdict, **extra):
        self.data["verdict"] = verdict
        self.data["wall_clock_total"] = round(time.time() - self._t0, 6)
        self.data.update(extra)
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_strict_json(self.data), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return path


def _write_columns_csv(path, header, columns):
    """One row per entry of the columns, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def cmd_ml(args):
    manifest = Manifest("ml", {"alpha": args.alpha, "beta": args.beta}, args.out) if args.out else None
    try:
        if args.z is not None:
            zs = [args.z]
        else:
            if args.z_min is None or args.z_max is None:
                raise ConfigError("give either --z or both --z-min and --z-max")
            if args.z_count < 1:
                raise ConfigError(f"--z-count must be at least 1, got {args.z_count}")
            zs = np.linspace(args.z_min, args.z_max, args.z_count)
        print(f"{'z':>24} {'E_(a,b)(z)':>24} {'regime':>10} {'est_abs_error':>13}")
        for z in zs:
            r = special_ml.ml(special_ml.MLQuery(args.alpha, args.beta, float(z)))
            print(f"{z:24.17g} {r.value:24.17g} {r.regime:>10} {r.est_abs_error:13.3e}")
        if manifest:
            manifest.finish("ok", points=len(zs))
        return EXIT_OK
    except (special_ml.InvalidParameterError, ConfigError) as exc:
        if manifest:
            return _fail(manifest, "usage error", exc, EXIT_CONFIG)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _fail(manifest, what, exc, code, **extra):
    """Report a failed run on stderr and in the manifest; returns the exit code."""
    print(f"{what}: {exc}", file=sys.stderr)
    manifest.finish(f"{what}: {exc}", **extra)
    return code


def _report(manifest, rows, **extra):
    """Print the PASS/FAIL rows and write them to the manifest; exit 0 when all hold."""
    for row in rows:
        print(row.line())
    n_fail = sum(0 if r.holds else 1 for r in rows)
    manifest.finish("ok" if n_fail == 0 else f"{n_fail} checks failed",
                    checks=[asdict(r) for r in rows], **extra)
    return EXIT_OK if n_fail == 0 else EXIT_PROPERTY


def cmd_solve(args):
    manifest = Manifest("solve", out_dir=args.out or ".")
    try:
        cfg = parse_config(args.config, args.set or ())
        manifest.data["config"] = dict(cfg)
        manifest.out_dir = args.out or cfg["output_dir"]
        problem, term = build_problem(cfg)
        # the L1 oracle is linear: only the spectral route takes a semilinear term
        if term is not None and (args.method == "l1" or args.cross_oracle):
            flag = "--method l1" if args.method == "l1" else "--cross-oracle"
            raise ConfigError(f"{flag} conflicts with semilinear = {cfg['semilinear'].strip()}: "
                              "the implicit L1 route solves linear problems only")
    except ConfigError as exc:
        return _fail(manifest, "config error", exc, EXIT_CONFIG)
    manifest.phase("setup")
    try:
        if term is not None:
            field = solve_semilinear(problem, term)
            method = f"semilinear spectral ({cfg['semilinear']})"
        elif args.method == "l1":
            field = solve_linear_l1(problem)
            method = "implicit L1"
        else:
            field = solve_linear_spectral(problem)
            method = "spectral"
        manifest.phase("solve")
        extra = {"method": method}
        if args.cross_oracle:
            other = solve_linear_l1(problem) if args.method != "l1" else solve_linear_spectral(problem)
            extra["cross_oracle_max_diff"] = float(np.max(np.abs(field.values - other.values)))
            manifest.phase("cross-oracle")
    except SolverError as exc:
        return _fail(manifest, "solver failure", exc, EXIT_SOLVER, failed_node=exc.node)

    os.makedirs(manifest.out_dir, exist_ok=True)
    ts = field.tgrid.nodes
    xs = field.grid.nodes
    _write_columns_csv(os.path.join(manifest.out_dir, "u.csv"), ["x", "t", "u"],
                       [np.tile(xs, ts.size), np.repeat(ts, xs.size), field.values.ravel()])
    mid = field.values[:, field.grid.n_nodes // 2]
    write_svg_plot(
        os.path.join(manifest.out_dir, "decay.svg"),
        [(ts, np.max(np.abs(field.values), axis=1), "max |u|"),
         (ts, mid, "u at midpoint")],
        title="time evolution", xlabel="t", ylabel="u",
    )
    picks = [0, len(ts) // 4, len(ts) // 2, len(ts) - 1]
    write_svg_plot(
        os.path.join(manifest.out_dir, "slices.svg"),
        [(xs, field.values[k], f"t={ts[k]:.3g}") for k in picks],
        title="solution slices", xlabel="x", ylabel="u",
    )
    manifest.phase("artefacts")
    manifest.finish("ok", **extra)
    print(f"wrote u.csv, decay.svg, slices.svg, manifest.json in {manifest.out_dir}")
    return EXIT_OK


def cmd_verify(args):
    manifest = Manifest("verify", {"suite": args.suite, "seed": args.seed}, args.out or ".")
    try:
        rows = run_suite(args.suite, seed=args.seed)
    except SolverError as exc:
        return _fail(manifest, "solver failure", exc, EXIT_SOLVER)
    manifest.phase("checks")
    return _report(manifest, rows, seed=args.seed)


def _reproduce(name, alpha, out_dir):
    """Run an experiment at its reproduce resolution; <name>.csv, .svg, manifest in out_dir."""
    exp = EXPERIMENTS[name]
    n, N = exp.resolution
    manifest = Manifest("reproduce", {"example": name, "alpha": alpha, "n_space": n, "n_time": N},
                        out_dir)
    try:
        outcome = exp.run(alpha, n, N)
    except compare.HypothesisViolation as exc:
        return _fail(manifest, "usage error", exc, EXIT_CONFIG)
    except SolverError as exc:
        return _fail(manifest, "solver failure", exc, EXIT_SOLVER)
    manifest.phase("run")
    os.makedirs(out_dir, exist_ok=True)
    _write_columns_csv(os.path.join(out_dir, f"{name}.csv"), exp.columns, outcome.columns)
    write_svg_plot(os.path.join(out_dir, f"{name}.svg"),
                   [(outcome.columns[0], y, label)
                    for y, label in zip(outcome.columns[1:], exp.columns[1:])],
                   title=exp.title, xlabel=exp.columns[0],
                   ylabel="log10" if exp.logy else "", logy=exp.logy)
    manifest.phase("artefacts")
    code = _report(manifest, outcome.rows, **outcome.extra)
    print(f"wrote {name}.csv, {name}.svg, manifest.json in {out_dir}")
    return code


def cmd_reproduce(args):
    out = args.out or "."
    if args.example != "all":
        return _reproduce(args.example, args.alpha, out)
    return max(_reproduce(name, args.alpha, os.path.join(out, name)) for name in EXPERIMENTS)


def _alpha(text):
    alpha = float(text)
    if not 0.0 < alpha < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0,1), got {text}")
    return alpha


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text}")
    return seed


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fraccomp",
        description="time-fractional diffusion solvers and comparison-principle checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ml = sub.add_parser("ml", help="evaluate the two-parameter relaxation function")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--beta", type=float, default=1.0)
    ml.add_argument("--z", type=float, default=None)
    ml.add_argument("--z-min", type=float, default=None)
    ml.add_argument("--z-max", type=float, default=None)
    ml.add_argument("--z-count", type=int, default=21)
    ml.add_argument("--out", default=None, help="also write a manifest.json here")
    ml.set_defaults(func=cmd_ml)

    sv = sub.add_parser("solve", help="solve a configured problem, emit CSV/SVG")
    sv.add_argument("--config", default=None)
    sv.add_argument("--set", action="append", metavar="KEY=VALUE")
    sv.add_argument("--out", default=None)
    sv.add_argument("--method", choices=("spectral", "l1"), default="spectral")
    sv.add_argument("--cross-oracle", action="store_true",
                    help="also run the other solver and record the max difference")
    sv.set_defaults(func=cmd_solve)

    vf = sub.add_parser("verify", help="run a named property suite")
    vf.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    vf.add_argument("--seed", type=_seed, default=0)
    vf.add_argument("--out", default=None)
    vf.set_defaults(func=cmd_verify)

    rp = sub.add_parser("reproduce", help="rebuild a built-in bound-vs-solution experiment")
    rp.add_argument("example", choices=sorted(EXPERIMENTS) + ["all"],
                    help="an experiment, or all of them into <out>/<name>")
    rp.add_argument("--alpha", type=_alpha, default=0.5)
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
