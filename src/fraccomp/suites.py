"""Named verification suites behind the command-line runner.

Each suite returns a list of CheckResult rows; a suite passes when every row
does.  These are working-resolution versions of the package's acceptance
properties, sized to run in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx, gamma

from . import compare, special_ml
from .elliptic import EllipticSpec, Grid1D, assemble, eigendecompose, principal_eigenpair
from .evolve_linear import Field, ProblemSpec, solve_linear_l1, solve_linear_spectral
from .evolve_semilinear import builtin_enzyme, scalar_fractional_ode, solve_semilinear
from .fracops import TimeGrid, TimeSeries, caputo_l1, extremum_check, rl_integral
from .randomspec import random_linear_problem, random_nonneg_profile

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    worst: float
    tolerance: float

    def line(self):
        return f"{'PASS' if self.holds else 'FAIL'} {self.name} {self.worst:.3e} {self.tolerance:.3e}"


def _row(name, worst, tol):
    return CheckResult(name, bool(worst <= tol), float(worst), float(tol))


def _from_report(rep):
    return CheckResult(rep.property_name, rep.holds, rep.worst_violation, rep.tolerance_used)


def suite_ml(rng):
    rows = []
    xs = np.linspace(-30.0, 5.0, 141)
    worst = max(
        abs(special_ml.ml_value(1.0, 1.0, z) - math.exp(z)) / math.exp(z) for z in xs
    )
    rows.append(_row("ml/exponential-identity", worst, 1e-12))
    xs = np.linspace(0.0, 10.0, 161)
    worst = max(abs(special_ml.ml_value(2.0, 1.0, -x * x) - math.cos(x)) for x in xs)
    rows.append(_row("ml/cosine-identity", worst, 1e-10))
    xs = np.linspace(0.0, 5.0, 101)
    worst = max(
        abs(special_ml.ml_value(0.5, 1.0, -x) - erfcx(x)) / erfcx(x) for x in xs
    )
    rows.append(_row("ml/erfc-identity", worst, 1e-9))
    h = 1e-4
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for lam in (0.5, 2.0, 10.0):
            for t in (0.3, 1.0, 2.5):
                fd = (special_ml.ml_relaxation(alpha, lam, t + h)
                      - special_ml.ml_relaxation(alpha, lam, t - h)) / (2 * h)
                ref = -lam * special_ml.ml_kernel(alpha, lam, t)
                worst = max(worst, abs(fd - ref) / abs(ref))
    rows.append(_row("ml/derivative-identity", worst, 1e-5))
    worst = 0.0
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 80)])
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for x in xs:
            bound = 1.1 / (1.0 + x)
            worst = max(worst, special_ml.ml_value(alpha, 1.0, -x) - bound,
                        special_ml.ml_value(alpha, alpha, -x) - bound)
    rows.append(_row("ml/uniform-bound-C=1.1", max(worst, 0.0), 1e-9))
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.3, 0.95)
        lam = rng.uniform(0.1, 10.0)
        t = 1.7
        a, b = sorted(rng.uniform(0.05, 0.95, 2) * t)
        if b - a < 1e-3:
            continue
        whole = special_ml.ml_kernel_integral(alpha, lam, 0.0, b, t)
        parts = (special_ml.ml_kernel_integral(alpha, lam, 0.0, a, t)
                 + special_ml.ml_kernel_integral(alpha, lam, a, b, t))
        worst = max(worst, abs(whole - parts) / max(abs(whole), 1e-30))
    rows.append(_row("ml/kernel-additivity", worst, 1e-12))
    return rows


def suite_fracops(rng):
    rows = []
    alpha = 0.5
    errs = []
    for n in (128, 256, 512, 1024):
        g = TimeGrid.uniform(1.0, n)
        out = caputo_l1(TimeSeries(g, g.nodes ** alpha), alpha)
        errs.append(abs(out.values[-1] - gamma(1 + alpha)))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    rows.append(_row("fracops/L1-power-rule-order", (2.0 - alpha) - min(rates), 0.1))
    g = TimeGrid.uniform(1.0, 256)
    y = TimeSeries(g, np.sin(3 * g.nodes) + g.nodes)
    both = rl_integral(rl_integral(y, 0.45), 0.35).values
    direct = rl_integral(y, 0.8).values
    rows.append(_row("fracops/J-semigroup", float(np.max(np.abs(both - direct))), 5e-3))
    y2 = TimeSeries(g, np.sin(2 * g.nodes) * g.nodes)
    back = caputo_l1(rl_integral(y2, alpha), alpha)
    rows.append(_row("fracops/caputo-inverts-J",
                     float(np.max(np.abs(back.values[1:] - y2.values[1:]))), 5e-3))
    vals = rng.random(257)
    rows.append(_row("fracops/J-sign-preservation",
                     -float(np.min(rl_integral(TimeSeries(g, vals), 0.6).values)), 0.0))
    worst = -np.inf
    n_applicable = 0
    for _ in range(20):
        c = rng.normal(0, 1, 4)
        t = g.nodes
        series = TimeSeries(g, c[0] * np.sin(2 * np.pi * t) + c[1] * np.cos(3 * t)
                            + c[2] * t + c[3] * t ** 2)
        if int(np.argmin(series.values)) == 0:
            continue
        rep = extremum_check(series, 0.5)
        n_applicable += 1
        worst = max(worst, rep.caputo_at_min - rep.tolerance)
    rows.append(_row(f"fracops/extremum-principle[{n_applicable} cases]", worst, 0.0))
    return rows


def suite_positivity(rng):
    rows = []
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=20, N=64, T=1.0)
        u = solve_linear_spectral(p)
        rep = compare.check_positivity(u, alpha=alpha)
        worst = max(worst, rep.worst_violation - rep.tolerance_used)
    rows.append(_row("positivity/50-random-specs", worst, 0.0))
    alpha = 0.5
    p = ProblemSpec(alpha, EllipticSpec(a=1.0, c0=0.0), Grid1D(0.0, 1.0, 24),
                    TimeGrid.graded(1.0, 96, 4.0), 0.0,
                    source=lambda x, t: np.ones_like(x))
    u = solve_linear_spectral(p)
    bound = compare.example1_lower_bound(alpha, 0.0, 1.0, p.tgrid)
    slack = float(np.min(np.min(u.values, axis=1) - bound.values))
    rows.append(_row("positivity/power-source-lower-bound", -slack, 1e-3))
    return rows


def suite_ordering(rng):
    rows = []
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=20, N=64)
        bump = random_nonneg_profile(rng, amplitude=0.3)
        p_hi = replace(p, initial=lambda x, a0=p.initial, b=bump: a0(x) + b(x))
        u_hi = solve_linear_spectral(p_hi)
        u_lo = solve_linear_spectral(p)
        rep = compare.check_ordering(u_hi, u_lo, alpha=alpha)
        worst = max(worst, rep.worst_violation - rep.tolerance_used)
    rows.append(_row("ordering/data-comparison-10-pairs", worst, 0.0))
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=20, N=64, with_drift=True)
        d1 = float(rng.uniform(0.0, 0.6))
        d2 = float(rng.uniform(0.0, 0.6))
        hi, lo = max(d1, d2), min(d1, d2)
        _, _, rep = compare.coefficient_comparison(p, which="c", c1=-lo, c2=-hi)
        worst = max(worst, rep.worst_violation - rep.tolerance_used)
    rows.append(_row("ordering/zeroth-order-comparison-10-pairs", worst, 0.0))
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=20, N=64, with_drift=True)
        p = replace(p, elliptic=replace(p.elliptic, c=lambda x, t: -0.2 - 0.3 * np.sin(x) ** 2))
        s1 = float(rng.uniform(0.2, 1.5))
        s2 = s1 + float(rng.uniform(0.0, 1.5))
        _, _, rep = compare.coefficient_comparison(p, which="sigma", sigma1=s1, sigma2=s2)
        worst = max(worst, rep.worst_violation - rep.tolerance_used)
    rows.append(_row("ordering/robin-comparison-10-pairs", worst, 0.0))
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=16, N=48, with_drift=False)
        f1 = builtin_enzyme()
        f2 = f1.shifted(-float(rng.uniform(0.05, 0.3)))
        u1 = solve_semilinear(p, f1)
        u2 = solve_semilinear(p, f2)
        rep = compare.check_ordering(u1, u2, alpha=alpha, name="semilinear ordering")
        worst = max(worst, rep.worst_violation - rep.tolerance_used)
    rows.append(_row("ordering/semilinear-term-10-pairs", worst, 0.0))
    return rows


def suite_barriers(rng):
    rows = []
    alpha = 0.5
    p = ProblemSpec(alpha, EllipticSpec(a=1.0, c0=0.0), Grid1D(0.0, 1.0, 32),
                    TimeGrid.graded(1.0, 96, 4.0), lambda x: 1 + np.cos(math.pi * x))
    band = compare.barrier_bounds_e3(p)
    rows.append(_from_report(band.report))
    from .evolve_semilinear import SemilinearTerm

    f_lin = SemilinearTerm(eval=lambda x, u: u, deriv_u=lambda x, u: np.ones_like(u), bound_M=10.0)
    p4 = ProblemSpec(alpha, EllipticSpec(a=1.0, c0=0.0), Grid1D(0.0, 1.0, 24),
                     TimeGrid.graded(0.5, 96, 4.0), 1.0)
    band4 = compare.barrier_bounds_e4(p4, f_lin, epsilon=0.1, delta1=1.0)
    rows.append(_from_report(band4.report))
    zeros = Field(p.grid, p.tgrid, np.zeros((p.tgrid.nodes.size, p.grid.n_nodes)))
    rows.append(_from_report(compare.verify_barrier(zeros, "lower", p, f=builtin_enzyme())))
    return rows


def suite_monotone(rng):
    rows = []
    alpha = 0.5
    p = ProblemSpec(alpha,
                    EllipticSpec(a=1.0, c0=1.0, c=lambda x, t: -0.3 + 0.2 * np.sin(3 * x)),
                    Grid1D(0.0, 1.0, 20), TimeGrid.graded(0.75, 96, 4.0),
                    lambda x: 1 + np.cos(math.pi * x))
    seq = compare.linear_monotone_sequence(p, b0_const=0.6, n_max=8)
    tol = compare.default_tolerance(p.grid, p.tgrid, alpha, 2.0)
    worst_neg = max(-float(np.min(it.values)) for it in seq)
    rows.append(_row("monotone/linear-iterates-nonnegative", worst_neg, tol))
    direct = solve_linear_l1(p)
    errs = [float(np.max(np.abs(it.values - direct.values))) for it in seq]
    ratios = [errs[j + 1] / errs[j] for j in range(2, len(errs) - 1) if errs[j] > 1e-13]
    rows.append(_row("monotone/linear-geometric-ratio", max(ratios) if ratios else 0.0, 0.9))

    pe = ProblemSpec(alpha, EllipticSpec(a=1.0, c0=0.0), Grid1D(0.0, 1.0, 12),
                     TimeGrid.graded(1.0, 64, 4.0), 1.0)
    nt = pe.tgrid.nodes.size
    barriers = compare.BarrierPair(
        lower=Field(pe.grid, pe.tgrid, np.zeros((nt, pe.grid.n_nodes))),
        upper=Field(pe.grid, pe.tgrid, np.ones((nt, pe.grid.n_nodes))),
    )
    res = compare.monotone_iteration(pe, builtin_enzyme(), barriers, M=1.0, k_max=25)
    rows.append(_from_report(res.sandwich))
    tol = res.sandwich.tolerance_used
    chain_worst = 0.0
    for seq2, sgn in ((res.from_lower, 1.0), (res.from_upper, -1.0)):
        for a, b in zip(seq2, seq2[1:]):
            chain_worst = max(chain_worst, -float(np.min(sgn * (b.values - a.values))))
    rows.append(_row("monotone/chain-monotonicity", chain_worst, tol))
    y = scalar_fractional_ode(pe.tgrid, alpha, 1.0, lambda v: -v / (1 + abs(v)),
                              rhs_du=lambda v: -1.0 / (1 + abs(v)) ** 2)
    rows.append(_row("monotone/scalar-oracle-agreement",
                     float(np.max(np.abs(res.solution.values[:, 5] - y))), 5e-3))
    return rows


def suite_decay(rng):
    rows = []
    alpha = 0.5
    grid = Grid1D(0.0, 1.0, 20)
    tg = TimeGrid.graded(400.0, 256, 4.0)
    spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
    eig = eigendecompose(assemble(spec, grid))
    phi1 = eig.modes[:, 0]
    p = ProblemSpec(alpha, spec, grid, tg, 0.7 * phi1)
    u = solve_linear_spectral(p, eig)
    rep = compare.asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig, alpha)
    rows.append(_row("decay/single-mode-constant-ratio",
                     abs(rep.fitted_C - 0.7), 1e-8))
    pe = ProblemSpec(alpha, spec, grid, tg, lambda x: 0.5 + 0.3 * np.cos(math.pi * x))
    ue = solve_semilinear(pe, builtin_enzyme(), eig)
    rep2 = compare.asymptotic_decay_check(ue, np.zeros(grid.n_nodes), eig, alpha)
    rows.append(_row("decay/saturating-sink-fit-stability",
                     abs(rep2.fitted_C_tail - rep2.fitted_C) / max(rep2.fitted_C, 1e-300), 0.10))
    lam1, phi1p = principal_eigenpair(eig)
    tn = tg.nodes
    tail = tn >= 0.75 * tn[-1]
    third = (tn >= 0.5 * tn[-1]) & (tn < 0.75 * tn[-1])
    dev = np.abs(ue.values)

    def sup_ratio(mask):
        env = tn[mask, None] ** -alpha * phi1p[None, :]
        return float(np.max(dev[mask] / env))

    rows.append(_row("decay/t^-alpha-envelope", sup_ratio(tail), 1.1 * sup_ratio(third)))
    return rows


SUITES = {
    "ml": suite_ml,
    "fracops": suite_fracops,
    "positivity": suite_positivity,
    "ordering": suite_ordering,
    "barriers": suite_barriers,
    "monotone": suite_monotone,
    "decay": suite_decay,
}


def run_suite(name, seed=0):
    rng = np.random.default_rng(seed)
    if name == "all":
        rows = []
        for key in SUITES:
            rows.extend(SUITES[key](np.random.default_rng(seed)))
        return rows
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](rng)
