"""The deterministic experiments and the named verification suites behind the
command-line runner.

An experiment is one problem of the paper's comparison results: a builder,
a check returning CheckResult rows, and the columns `reproduce` writes.  Each
suite returns CheckResult rows and passes when every row does; suites run the
experiments and seeded random specs at working resolution, in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erfcx, gamma

from . import compare, special_ml
from .compare import CheckResult
from .elliptic import EllipticSpec, Grid1D, assemble, eigendecompose, principal_eigenpair
from .evolve_linear import (Field, ProblemSpec, solve_linear_l1, solve_linear_spectral,
                            solve_linear_spectral_many)
from .evolve_semilinear import (SemilinearTerm, builtin_enzyme, scalar_fractional_ode, solve_semilinear,
                                solve_semilinear_many)
from .fracops import TimeGrid, TimeSeries, caputo_l1, caputo_l1_weights, extremum_check, rl_integral
from .randomspec import random_linear_problem, random_nonneg_profile

__all__ = ["EXPERIMENTS", "Experiment", "Outcome", "SUITES", "run_suite"]


class Outcome(NamedTuple):
    rows: list  # CheckResult rows; the experiment holds when every row does
    columns: list  # arrays under Experiment.columns, the first is the x axis
    extra: dict  # scalar details for the manifest


@dataclass(frozen=True)
class Experiment:
    build: Callable  # (alpha, n, N) -> (ProblemSpec, SemilinearTerm or None)
    check: Callable  # (problem, term) -> Outcome
    resolution: tuple = None  # (n, N) of `reproduce`; None for a verify-only experiment
    columns: tuple = ()
    title: str = ""
    logy: bool = False

    def run(self, alpha, n, N):
        return self.check(*self.build(alpha, n, N))


def _neumann_problem(alpha, n, N, T, initial, c=None, source=None):
    """Unit-diffusion Neumann problem on (0, 1), graded with r = 2/alpha."""
    return ProblemSpec(alpha, EllipticSpec(a=1.0, c=c), Grid1D(0.0, 1.0, n),
                       TimeGrid.graded(T, N, 2.0 / alpha), initial, source=source)


def _check_ex1(p, _):
    u = solve_linear_spectral(p)
    bound = compare.example1_lower_bound(p.alpha, 0.0, 1.0, p.tgrid).values
    lo = np.min(u.values, axis=1)
    slack = float(np.min(lo - bound))
    return Outcome([CheckResult.of("positivity/power-source-lower-bound", -slack, 1e-3)],
                   [p.tgrid.nodes, lo, bound], {"min_slack": slack})


EX1 = Experiment(
    lambda alpha, n, N: (_neumann_problem(alpha, n, N, 1.0, 0.0, source=1.0), None),
    _check_ex1, (48, 256), ("t", "min_x_u", "lower_bound"), "power-source lower bound")


def _check_e3(p, f):
    band = compare.barrier_bounds_e3(p, f)
    u = band.solution.values
    lower = np.min(u, axis=1)
    upper = np.max(u - p.initial_values()[None, :], axis=1)
    cap = band.rho * p.tgrid.nodes ** p.alpha
    slack = min(float(np.min(cap - upper)), float(np.min(lower)))
    return Outcome([band.report], [p.tgrid.nodes, lower, upper, cap],
                   {"rho": band.rho, "min_slack": slack})


E3 = Experiment(
    lambda alpha, n, N: (_neumann_problem(alpha, n, N, 1.0, lambda x: 1 + np.cos(math.pi * x)),
                         builtin_enzyme()),
    _check_e3, (48, 192), ("t", "min_x_u", "max_x_u_minus_a", "rho_t_alpha"),
    "saturating-sink band")


def _check_e4(p, f):
    band = compare.barrier_bounds_e4(p, f, epsilon=0.1, delta1=1.0)
    tn = p.tgrid.nodes
    dev = np.max(band.solution.values - 1.0, axis=1)
    return Outcome([band.report],
                   [tn, dev, tn ** (p.alpha - 0.1), -band.lower_coeff * tn ** p.alpha],
                   {"T1": band.T1, "T2": band.T2, "lower_coeff": band.lower_coeff})


E4 = Experiment(
    lambda alpha, n, N: (_neumann_problem(alpha, n, N, 0.5, 1.0), SemilinearTerm(
        eval=lambda x, u: u, deriv_u=lambda x, u: np.ones_like(u), bound_M=10.0)),
    _check_e4, (32, 192), ("t", "max_x_u_minus_a", "upper_band", "lower_band"),
    "increasing-term bands")


def _check_monotone_linear(p, _):
    seq = compare.linear_monotone_sequence(p, b0_const=0.6, n_max=8)
    tol = compare.default_tolerance(p.grid, p.tgrid, p.alpha, 2.0)
    neg = max(-float(np.min(it.values)) for it in seq)
    direct = solve_linear_l1(p)
    errs = [float(np.max(np.abs(it.values - direct.values))) for it in seq]
    ratios = [errs[j + 1] / errs[j] for j in range(2, len(errs) - 1) if errs[j] > 1e-13]
    rows = [CheckResult.of("monotone/linear-iterates-nonnegative", neg, tol),
            CheckResult.of("monotone/linear-geometric-ratio",
                           max(ratios) if ratios else 0.0, 0.9)]
    return Outcome(rows, [np.arange(1, len(seq) + 1, dtype=float), np.array(errs)],
                   {"worst_negativity": neg, "final_error": errs[-1]})


MONOTONE_LINEAR = Experiment(
    lambda alpha, n, N: (_neumann_problem(alpha, n, N, 0.75, lambda x: 1 + np.cos(math.pi * x),
                                          c=lambda x, t: -0.3 + 0.2 * np.sin(3 * x)), None),
    _check_monotone_linear, (24, 128), ("sweep", "sup_error"), "linearisation sweeps",
    logy=True)


def _check_sandwich(p, f):
    nt = p.tgrid.nodes.size
    barriers = compare.BarrierPair(
        lower=Field(p.grid, p.tgrid, np.zeros((nt, p.grid.n_nodes))),
        upper=Field(p.grid, p.tgrid, np.ones((nt, p.grid.n_nodes))),
    )
    res = compare.monotone_iteration(p, f, barriers, M=1.0, k_max=25)
    chain_worst = 0.0
    for seq, sgn in ((res.from_lower, 1.0), (res.from_upper, -1.0)):
        for a, b in zip(seq, seq[1:]):
            chain_worst = max(chain_worst, -float(np.min(sgn * (b.values - a.values))))
    y = scalar_fractional_ode(p.tgrid, p.alpha, 1.0, lambda v: -v / (1 + abs(v)),
                              rhs_du=lambda v: -1.0 / (1 + abs(v)) ** 2)
    rows = [res.sandwich,
            CheckResult.of("monotone/chain-monotonicity", chain_worst, res.sandwich.tolerance),
            CheckResult.of("monotone/scalar-oracle-agreement",
                           float(np.max(np.abs(res.solution.values[:, 5] - y))), 5e-3)]
    return Outcome(rows, [], {})


SANDWICH = Experiment(
    lambda alpha, n, N: (_neumann_problem(alpha, n, N, 1.0, 1.0), builtin_enzyme()), _check_sandwich)


def _check_decay(p, f):
    alpha, grid, tn = p.alpha, p.grid, p.tgrid.nodes
    eig = eigendecompose(assemble(p.elliptic, grid))
    eig_a = eig.shifted(-p.elliptic.c)  # A's pairs: c is constant here
    single = solve_linear_spectral(replace(p, initial=0.7 * eig.modes[:, 0]), eig)
    rep1 = compare.asymptotic_decay_check(single, np.zeros(grid.n_nodes), eig_a, alpha)
    u = solve_semilinear(p, f, eig)
    rep = compare.asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig_a, alpha)
    lam1, phi1 = principal_eigenpair(eig_a)
    tail = tn >= 0.75 * tn[-1]
    third = (tn >= 0.5 * tn[-1]) & (tn < 0.75 * tn[-1])
    dev = np.abs(u.values)

    def sup_ratio(mask):
        env = tn[mask, None] ** -alpha * phi1[None, :]
        return float(np.max(dev[mask] / env))

    rows = [CheckResult.of("decay/single-mode-constant-ratio", abs(rep1.fitted_C - 0.7), 1e-8),
            CheckResult.of("decay/saturating-sink-fit-stability",
                           abs(rep.fitted_C_tail - rep.fitted_C) / max(rep.fitted_C, 1e-300), 0.10),
            CheckResult.of("decay/t^-alpha-envelope", sup_ratio(tail), 1.1 * sup_ratio(third))]
    envelope = rep.fitted_C * special_ml.relaxation_batch(alpha, lam1 * tn ** alpha)
    return Outcome(rows, [tn, np.max(dev, axis=1), envelope],
                   {"fitted_C": rep.fitted_C, "fitted_C_tail": rep.fitted_C_tail})


DECAY = Experiment(
    lambda alpha, n, N: (_neumann_problem(alpha, n, N, 400.0,
                                          lambda x: 0.5 + 0.3 * np.cos(math.pi * x),
                                          c=-1.0), builtin_enzyme()),
    _check_decay, (24, 256), ("t", "max_x_dev", "ground_mode_envelope"),
    "long-time decay against the ground mode", logy=True)

# the experiments `reproduce` runs, by artefact name
EXPERIMENTS = {
    "ex1": EX1,
    "e3": E3,
    "e4": E4,
    "prop32": DECAY,
    "monotone_linear": MONOTONE_LINEAR,
}


def suite_ml(rng):
    rows = []
    xs = np.linspace(-30.0, 5.0, 141)
    worst = max(
        abs(special_ml.ml_value(1.0, 1.0, z) - math.exp(z)) / math.exp(z) for z in xs
    )
    rows.append(CheckResult.of("ml/exponential-identity", worst, 1e-12))
    xs = np.linspace(0.0, 10.0, 161)
    worst = max(abs(special_ml.ml_value(2.0, 1.0, -x * x) - math.cos(x)) for x in xs)
    rows.append(CheckResult.of("ml/cosine-identity", worst, 1e-10))
    xs = np.linspace(0.0, 5.0, 101)
    worst = max(
        abs(special_ml.ml_value(0.5, 1.0, -x) - erfcx(x)) / erfcx(x) for x in xs
    )
    rows.append(CheckResult.of("ml/erfc-identity", worst, 1e-9))
    h = 1e-4
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for lam in (0.5, 2.0, 10.0):
            for t in (0.3, 1.0, 2.5):
                fd = (special_ml.ml_relaxation(alpha, lam, t + h)
                      - special_ml.ml_relaxation(alpha, lam, t - h)) / (2 * h)
                ref = -lam * special_ml.ml_kernel(alpha, lam, t)
                worst = max(worst, abs(fd - ref) / abs(ref))
    rows.append(CheckResult.of("ml/derivative-identity", worst, 1e-5))
    worst = 0.0
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 80)])
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for x in xs:
            bound = 1.1 / (1.0 + x)
            worst = max(worst, special_ml.ml_value(alpha, 1.0, -x) - bound,
                        special_ml.ml_value(alpha, alpha, -x) - bound)
    rows.append(CheckResult.of("ml/uniform-bound-C=1.1", max(worst, 0.0), 1e-9))
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
    rows.append(CheckResult.of("ml/kernel-additivity", worst, 1e-12))
    return rows


def suite_fracops(rng):
    rows = []
    alpha = 0.5
    errs = []
    for n in (128, 256, 512, 1024):
        g = TimeGrid.uniform(1.0, n)
        # the last row of caputo_l1 alone, as extremum_check takes its row
        last = caputo_l1_weights(g.nodes, alpha) @ np.diff(g.nodes ** alpha)
        errs.append(abs(last - gamma(1 + alpha)))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    rows.append(CheckResult.of("fracops/L1-power-rule-order", (2.0 - alpha) - min(rates), 0.1))
    g = TimeGrid.uniform(1.0, 256)
    y = TimeSeries(g, np.sin(3 * g.nodes) + g.nodes)
    both = rl_integral(rl_integral(y, 0.45), 0.35).values
    direct = rl_integral(y, 0.8).values
    rows.append(CheckResult.of("fracops/J-semigroup", float(np.max(np.abs(both - direct))), 5e-3))
    y2 = TimeSeries(g, np.sin(2 * g.nodes) * g.nodes)
    back = caputo_l1(rl_integral(y2, alpha), alpha)
    rows.append(CheckResult.of("fracops/caputo-inverts-J",
                               float(np.max(np.abs(back.values[1:] - y2.values[1:]))), 5e-3))
    vals = rng.random(257)
    rows.append(CheckResult.of("fracops/J-sign-preservation",
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
    rows.append(CheckResult.of(f"fracops/extremum-principle[{n_applicable} cases]", worst, 0.0))
    return rows


def suite_positivity(rng):
    rows = []
    worst = 0.0
    problems = [random_linear_problem(rng, float(rng.choice([0.3, 0.5, 0.7])), n=20, N=64, T=1.0)
                for _ in range(50)]
    for p, u in zip(problems, solve_linear_spectral_many(problems)):
        rep = compare.check_positivity(u, alpha=p.alpha)
        worst = max(worst, rep.worst - rep.tolerance)
    rows.append(CheckResult.of("positivity/50-random-specs", worst, 0.0))
    return rows + EX1.run(0.5, 24, 96).rows


def suite_ordering(rng):
    # the pairs of all four rows are drawn first, in the order of the rows;
    # the linear pairs are then solved in one batched call, and the
    # semilinear pairs in another
    linear = []
    for _ in range(10):
        p = random_linear_problem(rng, float(rng.choice([0.3, 0.5, 0.7])), n=20, N=64)
        bump = random_nonneg_profile(rng, amplitude=0.3)
        linear += [replace(p, initial=lambda x, a0=p.initial, b=bump: a0(x) + b(x)), p]
    for _ in range(10):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=20, N=64, with_drift=True)
        d1 = float(rng.uniform(0.0, 0.6))
        d2 = float(rng.uniform(0.0, 0.6))
        hi, lo = max(d1, d2), min(d1, d2)
        linear += compare.comparison_pair(p, which="c", c1=-lo, c2=-hi)[:2]
    for _ in range(10):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=20, N=64, with_drift=True)
        c = lambda x, t: -0.2 - 0.3 * np.sin(x) ** 2
        p = replace(p, elliptic=replace(p.elliptic, c=c))
        s1 = float(rng.uniform(0.2, 1.5))
        s2 = s1 + float(rng.uniform(0.0, 1.5))
        linear += compare.comparison_pair(p, which="sigma", sigma1=s1, sigma2=s2)[:2]
    semilinear, terms = [], []
    for _ in range(10):
        alpha = float(rng.choice([0.3, 0.5, 0.7]))
        p = random_linear_problem(rng, alpha, n=16, N=48, with_drift=False)
        f1 = builtin_enzyme()
        semilinear += [p, p]
        terms += [f1, f1.shifted(-float(rng.uniform(0.05, 0.3)))]
    # the problem whose solution is the larger comes first in each pair
    problems = linear + semilinear
    fields = solve_linear_spectral_many(linear) + solve_semilinear_many(semilinear, terms)
    rows = []
    for j, kind in enumerate(("data-comparison", "zeroth-order-comparison", "robin-comparison",
                              "semilinear-term")):
        worst = 0.0
        for k in range(20 * j, 20 * j + 20, 2):
            rep = compare.check_ordering(fields[k], fields[k + 1], alpha=problems[k].alpha)
            worst = max(worst, rep.worst - rep.tolerance)
        rows.append(CheckResult.of(f"ordering/{kind}-10-pairs", worst, 0.0))
    return rows


def suite_barriers(rng):
    p, f = E3.build(0.5, 32, 96)
    rows = E3.check(p, f).rows + E4.run(0.5, 24, 96).rows
    zeros = Field(p.grid, p.tgrid, np.zeros((p.tgrid.nodes.size, p.grid.n_nodes)))
    rows.append(compare.verify_barrier(zeros, "lower", p, f=f))
    return rows


def suite_monotone(rng):
    return MONOTONE_LINEAR.run(0.5, 20, 96).rows + SANDWICH.run(0.5, 12, 64).rows


def suite_decay(rng):
    return DECAY.run(0.5, 20, 256).rows


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
    """Rows of one suite, or of every suite for 'all', each from a fresh
    generator seeded with seed."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    names = SUITES if name == "all" else [name]
    return [row for key in names for row in SUITES[key](np.random.default_rng(seed))]
