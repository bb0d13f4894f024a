"""Configuration-driven experiment runner.

Subcommands: ml (tabulate the special function), solve (run a problem and
emit CSV/SVG artefacts), verify (named property suites with PASS/FAIL lines),
reproduce (built-in bound-versus-solution experiments).  Every run writes a
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

import numpy as np

from . import __version__, compare, special_ml
from .elliptic import EllipticSpec, Grid1D, assemble, eigendecompose
from .evolve_linear import Field, ProblemSpec, SolverError, solve_linear_l1, solve_linear_spectral
from .evolve_semilinear import builtin_burgers, builtin_enzyme, solve_semilinear
from .expressions import ExpressionError, parse_expression
from .fracops import TimeGrid
from .suites import SUITES, run_suite
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
    "c0": "1.0",
    "sigma_lo": "0",
    "sigma_hi": "0",
    "b0": "",
    "initial": "0",
    "source": "",
    "semilinear": "none",
    "output_dir": ".",
    "seed": "0",
}


class ConfigError(ValueError):
    pass


def _cap_threads():
    """Best-effort honouring of FRACCOMP_THREADS for BLAS pools."""
    cap = os.environ.get("FRACCOMP_THREADS")
    if not cap:
        return None
    try:
        n = max(1, int(cap))
    except ValueError:
        return None
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=n)
    except Exception:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))
    return n


def parse_config(path=None, overrides=()):
    cfg = dict(_DEFAULTS)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, raw in enumerate(fh, 1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    key, val = (s.strip() for s in line.split("=", 1))
                    if key not in cfg:
                        raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                    cfg[key] = val
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        if key not in cfg:
            raise ConfigError(f"unknown key {key!r}")
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


def build_problem(cfg):
    try:
        alpha = float(cfg["alpha"])
        lo, hi = (float(s) for s in cfg["domain"].split(","))
        n_space = int(cfg["n_space"])
        n_time = int(cfg["n_time"])
        horizon = float(cfg["T"])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad numeric configuration: {exc}") from exc
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")

    grading = cfg["time_grading"].strip().lower()
    if grading == "uniform":
        tgrid = TimeGrid.uniform(horizon, n_time)
    elif grading == "graded":
        r = float(cfg["grading_r"]) if cfg["grading_r"].strip() else 2.0 / alpha
        tgrid = TimeGrid.graded(horizon, n_time, r)
    else:
        raise ConfigError(f"time_grading must be uniform or graded, got {grading!r}")
    grid = Grid1D(lo, hi, n_space)

    a_expr = _opt_expr(cfg, "a")
    if a_expr is None:
        raise ConfigError("diffusion coefficient a is required")
    b_expr = _opt_expr(cfg, "b")
    c_expr = _opt_expr(cfg, "c")
    b0_expr = _opt_expr(cfg, "b0")
    try:
        spec = EllipticSpec(
            a=a_expr.as_xfun(),
            b=b_expr.as_xtfun() if b_expr else None,
            c=c_expr.as_xtfun() if c_expr else None,
            c0=float(cfg["c0"]),
            sigma_lo=float(cfg["sigma_lo"]),
            sigma_hi=float(cfg["sigma_hi"]),
            b0=b0_expr.as_xtfun() if b0_expr else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    init_expr = _opt_expr(cfg, "initial")
    if init_expr is None:
        raise ConfigError("initial value expression is required")
    src_expr = _opt_expr(cfg, "source")
    problem = ProblemSpec(
        alpha, spec, grid, tgrid,
        init_expr.as_xfun(),
        source=src_expr.as_xtfun() if src_expr else None,
    )

    name = cfg["semilinear"].strip().lower()
    if name in ("", "none"):
        term = None
    elif name == "enzyme":
        term = builtin_enzyme()
    elif name == "burgers":
        term = builtin_burgers()
    else:
        raise ConfigError(f"unknown semilinear term {name!r}")
    return problem, term


class Manifest:
    def __init__(self, command, cfg=None):
        self.data = {
            "command": command,
            "version": __version__,
            "config": dict(cfg) if cfg else {},
            "phases": {},
            "verdict": "incomplete",
        }
        self._t0 = time.time()
        self._phase_start = self._t0
        self.out_dir = "."

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
            json.dump(self.data, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return path


def _write_field_csv(path, field: Field):
    """Rows x,t,u in t-major order, 17 significant digits."""
    xs = field.grid.nodes
    ts = field.tgrid.nodes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,t,u\n")
        for k, t in enumerate(ts):
            row = field.values[k]
            for x, u in zip(xs, row):
                fh.write(f"{x:.17g},{t:.17g},{u:.17g}\n")


def _write_columns_csv(path, header, columns):
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def cmd_ml(args):
    manifest = Manifest("ml", {"alpha": args.alpha, "beta": args.beta}) if args.out else None
    if manifest:
        manifest.out_dir = args.out
    try:
        if args.z is not None:
            zs = [args.z]
        else:
            if args.z_min is None or args.z_max is None:
                raise ConfigError("give either --z or both --z-min and --z-max")
            zs = np.linspace(args.z_min, args.z_max, args.z_count)
        print(f"{'z':>24} {'E_(a,b)(z)':>24} {'regime':>10} {'est_abs_error':>13}")
        for z in zs:
            r = special_ml.ml(special_ml.MLQuery(args.alpha, args.beta, float(z)))
            print(f"{z:24.17g} {r.value:24.17g} {r.regime:>10} {r.est_abs_error:13.3e}")
        if manifest:
            manifest.finish("ok", points=len(zs))
        return EXIT_OK
    except (special_ml.InvalidParameterError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if manifest:
            manifest.finish(f"usage error: {exc}")
        return EXIT_CONFIG


def cmd_solve(args):
    manifest = Manifest("solve")
    manifest.out_dir = args.out or "."
    try:
        cfg = parse_config(args.config, args.set or ())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        manifest.finish(f"config error: {exc}")
        return EXIT_CONFIG
    manifest.data["config"] = dict(cfg)
    manifest.out_dir = args.out or cfg["output_dir"]
    try:
        problem, term = build_problem(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        manifest.finish(f"config error: {exc}")
        return EXIT_CONFIG
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
        if args.cross_oracle and term is None:
            other = solve_linear_l1(problem) if args.method != "l1" else solve_linear_spectral(problem)
            extra["cross_oracle_max_diff"] = float(np.max(np.abs(field.values - other.values)))
            manifest.phase("cross-oracle")
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        manifest.finish(f"solver failure: {exc}", failed_node=exc.node)
        return EXIT_SOLVER

    os.makedirs(manifest.out_dir, exist_ok=True)
    _write_field_csv(os.path.join(manifest.out_dir, "u.csv"), field)
    ts = field.tgrid.nodes
    xs = field.grid.nodes
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
    manifest = Manifest("verify")
    manifest.out_dir = args.out or "."
    try:
        cfg = parse_config(args.config, args.set or ())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        manifest.finish(f"config error: {exc}")
        return EXIT_CONFIG
    manifest.data["config"] = dict(cfg)
    manifest.out_dir = args.out or cfg["output_dir"]
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    try:
        rows = run_suite(args.suite, seed=seed)
    except KeyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        manifest.finish(f"usage error: {exc}")
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        manifest.finish(f"solver failure: {exc}")
        return EXIT_SOLVER
    manifest.phase("checks")
    for row in rows:
        print(row.line())
    n_fail = sum(0 if r.holds else 1 for r in rows)
    verdict = "ok" if n_fail == 0 else f"{n_fail} checks failed"
    manifest.finish(verdict, seed=seed,
                    checks=[{"name": r.name, "holds": r.holds,
                             "worst": r.worst, "tolerance": r.tolerance} for r in rows])
    return EXIT_OK if n_fail == 0 else EXIT_PROPERTY


def _reproduce_ex1(alpha, out_dir):
    p = ProblemSpec(alpha, EllipticSpec(a=1.0, c0=0.0), Grid1D(0.0, 1.0, 48),
                    TimeGrid.graded(1.0, 256, 2.0 / alpha), 0.0,
                    source=lambda x, t: np.ones_like(x))
    u = solve_linear_spectral(p)
    bound = compare.example1_lower_bound(alpha, 0.0, 1.0, p.tgrid)
    lo = np.min(u.values, axis=1)
    slack = float(np.min(lo - bound.values))
    _write_columns_csv(os.path.join(out_dir, "ex1.csv"),
                       ["t", "min_x_u", "lower_bound"],
                       [p.tgrid.nodes, lo, bound.values])
    write_svg_plot(os.path.join(out_dir, "ex1.svg"),
                   [(p.tgrid.nodes, lo, "min_x u"),
                    (p.tgrid.nodes, bound.values, "explicit bound")],
                   title="power-source lower bound", xlabel="t", ylabel="u")
    return slack >= -1e-3, {"min_slack": slack}


def _reproduce_e3(alpha, out_dir):
    p = ProblemSpec(alpha, EllipticSpec(a=1.0, c0=0.0), Grid1D(0.0, 1.0, 48),
                    TimeGrid.graded(1.0, 192, 2.0 / alpha),
                    lambda x: 1 + np.cos(math.pi * x))
    band = compare.barrier_bounds_e3(p)
    u = band.solution
    a0 = p.initial_values()
    upper = np.max(u.values - a0[None, :], axis=1)
    cap = band.rho * p.tgrid.nodes ** alpha
    lower = np.min(u.values, axis=1)
    _write_columns_csv(os.path.join(out_dir, "e3.csv"),
                       ["t", "min_x_u", "max_x_u_minus_a", "rho_t_alpha"],
                       [p.tgrid.nodes, lower, upper, cap])
    write_svg_plot(os.path.join(out_dir, "e3.svg"),
                   [(p.tgrid.nodes, upper, "max (u - a)"),
                    (p.tgrid.nodes, cap, "rho t^alpha"),
                    (p.tgrid.nodes, lower, "min u")],
                   title="saturating-sink band", xlabel="t", ylabel="")
    slack = min(float(np.min(cap - upper)), float(np.min(lower)))
    return band.report.holds, {"rho": band.rho, "min_slack": slack}


def _reproduce_e4(alpha, out_dir):
    from .evolve_semilinear import SemilinearTerm

    f = SemilinearTerm(eval=lambda x, u: u, deriv_u=lambda x, u: np.ones_like(u), bound_M=10.0)
    p = ProblemSpec(alpha, EllipticSpec(a=1.0, c0=0.0), Grid1D(0.0, 1.0, 32),
                    TimeGrid.graded(0.5, 192, 2.0 / alpha), 1.0)
    band = compare.barrier_bounds_e4(p, f, epsilon=0.1, delta1=1.0)
    u = band.solution
    tn = p.tgrid.nodes
    dev = np.max(u.values - 1.0, axis=1)
    upper = tn ** (alpha - 0.1)
    lower = -band.lower_coeff * tn ** alpha
    _write_columns_csv(os.path.join(out_dir, "e4.csv"),
                       ["t", "max_x_u_minus_a", "upper_band", "lower_band"],
                       [tn, dev, upper, lower])
    write_svg_plot(os.path.join(out_dir, "e4.svg"),
                   [(tn, dev, "max (u - a)"), (tn, upper, "t^(alpha-eps)"),
                    (tn, lower, "lower band")],
                   title="increasing-term bands", xlabel="t", ylabel="")
    return band.report.holds, {"T1": band.T1, "T2": band.T2, "lower_coeff": band.lower_coeff}


def _reproduce_prop32(alpha, out_dir):
    grid = Grid1D(0.0, 1.0, 24)
    tg = TimeGrid.graded(400.0, 256, 2.0 / alpha)
    spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
    eig = eigendecompose(assemble(spec, grid))
    p = ProblemSpec(alpha, spec, grid, tg, lambda x: 0.5 + 0.3 * np.cos(math.pi * x))
    u = solve_semilinear(p, builtin_enzyme(), eig)
    rep = compare.asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig, alpha)
    from .special_ml import relaxation_batch

    lam1 = float(eig.lambdas[0])
    env = relaxation_batch(alpha, lam1 * tg.nodes ** alpha)
    dev = np.max(np.abs(u.values), axis=1)
    _write_columns_csv(os.path.join(out_dir, "prop32.csv"),
                       ["t", "max_x_dev", "ground_mode_envelope"],
                       [tg.nodes, dev, rep.fitted_C * env])
    keep = tg.nodes > 0
    write_svg_plot(os.path.join(out_dir, "prop32.svg"),
                   [(tg.nodes[keep], dev[keep], "||u - u_inf||"),
                    (tg.nodes[keep], (rep.fitted_C * env)[keep], "C E(-lam1 t^a)")],
                   title="long-time decay against the ground mode",
                   xlabel="t", ylabel="log10", logy=True)
    return rep.holds, {"fitted_C": rep.fitted_C, "fitted_C_tail": rep.fitted_C_tail}


def _reproduce_monotone_linear(alpha, out_dir):
    p = ProblemSpec(alpha,
                    EllipticSpec(a=1.0, c0=1.0, c=lambda x, t: -0.3 + 0.2 * np.sin(3 * x)),
                    Grid1D(0.0, 1.0, 24), TimeGrid.graded(0.75, 128, 2.0 / alpha),
                    lambda x: 1 + np.cos(math.pi * x))
    seq = compare.linear_monotone_sequence(p, b0_const=0.6, n_max=8)
    direct = solve_linear_l1(p)
    errs = np.array([float(np.max(np.abs(it.values - direct.values))) for it in seq])
    sweeps = np.arange(1, len(seq) + 1, dtype=float)
    _write_columns_csv(os.path.join(out_dir, "monotone_linear.csv"),
                       ["sweep", "sup_error"], [sweeps, errs])
    write_svg_plot(os.path.join(out_dir, "monotone_linear.svg"),
                   [(sweeps, errs, "||u_n - u||")],
                   title="linearisation sweeps", xlabel="sweep", ylabel="log10", logy=True)
    neg = max(-float(np.min(it.values)) for it in seq)
    tol = compare.default_tolerance(p.grid, p.tgrid, alpha, 2.0)
    ratios = errs[3:] / errs[2:-1]
    ok = bool(neg <= tol and np.all(ratios[errs[2:-1] > 1e-12] < 0.9))
    return ok, {"worst_negativity": neg, "final_error": float(errs[-1])}


_REPRODUCERS = {
    "ex1": _reproduce_ex1,
    "e3": _reproduce_e3,
    "e4": _reproduce_e4,
    "prop32": _reproduce_prop32,
    "monotone_linear": _reproduce_monotone_linear,
}


def cmd_reproduce(args):
    manifest = Manifest("reproduce", {"example": args.example, "alpha": args.alpha})
    manifest.out_dir = args.out or "."
    os.makedirs(manifest.out_dir, exist_ok=True)
    try:
        ok, extra = _REPRODUCERS[args.example](args.alpha, manifest.out_dir)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        manifest.finish(f"solver failure: {exc}")
        return EXIT_SOLVER
    manifest.phase("run")
    manifest.finish("ok" if ok else "bound violated", **extra)
    print(f"{args.example}: {'ok' if ok else 'FAIL'} {extra}")
    return EXIT_OK if ok else EXIT_PROPERTY


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
    vf.add_argument("--config", default=None)
    vf.add_argument("--set", action="append", metavar="KEY=VALUE")
    vf.add_argument("--seed", type=int, default=None)
    vf.add_argument("--out", default=None)
    vf.set_defaults(func=cmd_verify)

    rp = sub.add_parser("reproduce", help="rebuild a built-in bound-vs-solution experiment")
    rp.add_argument("example", choices=sorted(_REPRODUCERS))
    rp.add_argument("--alpha", type=float, default=0.5)
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None):
    _cap_threads()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
