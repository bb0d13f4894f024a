"""Acceptance gate: every release-blocking property at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the captured
output of a failing run).  Resolutions stay at laptop scale: n_space <= 256,
n_time <= 2048.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx, gamma

from references import DIGEST_RTOL, criterion5_problems, digest, digest_gap
from references import load as load_references

from fraccomp import compare, special_ml
from fraccomp.elliptic import (
    EllipticSpec,
    Grid1D,
    assemble,
    eigendecompose,
    principal_eigenpair,
)
from fraccomp.evolve_linear import Field, solve_linear_l1, solve_linear_spectral
from fraccomp.evolve_semilinear import builtin_enzyme, scalar_fractional_ode, solve_semilinear
from fraccomp.fracops import TimeGrid, TimeSeries, caputo_l1, extremum_check, rl_integral
from fraccomp.randomspec import random_linear_problem, random_nonneg_profile
from fraccomp.suites import DECAY, E3, E4, EX1, MONOTONE_LINEAR, SANDWICH


def report(num, name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} [criterion {num:2d}] {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class TestCriterion1MittagLeffler:
    def test_exponential_identity(self):
        xs = np.linspace(-30.0, 5.0, 141)
        worst = max(abs(special_ml.ml_value(1.0, 1.0, z) - math.exp(z)) / math.exp(z) for z in xs)
        report(1, "E_11 = exp on [-30, 5]", worst <= 1e-12, f"worst rel {worst:.2e} <= 1e-12")

    def test_cosine_identity(self):
        xs = np.linspace(0.0, 10.0, 201)
        worst = max(abs(special_ml.ml_value(2.0, 1.0, -x * x) - math.cos(x)) for x in xs)
        report(1, "E_21(-x^2) = cos x on [0, 10]", worst <= 1e-10, f"worst {worst:.2e} <= 1e-10")

    def test_erfc_identity(self):
        xs = np.linspace(0.0, 5.0, 201)
        worst = max(abs(special_ml.ml_value(0.5, 1.0, -x) - erfcx(x)) / erfcx(x) for x in xs)
        report(1, "E_{1/2,1}(-x) = e^{x^2} erfc x on [0, 5]", worst <= 1e-9,
               f"worst rel {worst:.2e} <= 1e-9")

    def test_derivative_identity(self):
        h = 1e-4
        worst = 0.0
        for alpha in (0.3, 0.5, 0.7, 0.9):
            for lam in (0.5, 2.0, 10.0):
                for t in (0.3, 1.0, 2.5):
                    fd = (special_ml.ml_relaxation(alpha, lam, t + h)
                          - special_ml.ml_relaxation(alpha, lam, t - h)) / (2 * h)
                    ref = -lam * special_ml.ml_kernel(alpha, lam, t)
                    worst = max(worst, abs(fd - ref) / abs(ref))
        report(1, "kernel derivative identity vs central differences", worst <= 1e-5,
               f"worst rel {worst:.2e} <= 1e-5")

    def test_uniform_bound(self):
        worst = -np.inf
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 150)])
        for alpha in np.linspace(0.3, 0.9, 7):
            for x in xs:
                bound = 1.1 / (1.0 + x)
                worst = max(worst,
                            special_ml.ml_value(alpha, 1.0, -x) - bound,
                            special_ml.ml_value(alpha, alpha, -x) - bound)
        report(1, "uniform bound C/(1+x) with C = 1.1 over [0, 1e6]", worst <= 0.0,
               f"worst excess {worst:.2e} <= 0")


class TestCriterion2FractionalOperators:
    def test_power_rule_order(self):
        alpha = 0.5  # the saturating-sink example's computation
        errs = []
        for n in (128, 256, 512, 1024):
            g = TimeGrid.uniform(1.0, n)
            out = caputo_l1(TimeSeries(g, g.nodes ** alpha), alpha)
            errs.append(abs(out.values[-1] - gamma(1 + alpha)))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        ok = min(rates) >= (2.0 - alpha) - 0.01 and all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        report(2, "L1 power rule order >= 2 - alpha", ok,
               f"rates {['%.3f' % r for r in rates]} vs {2 - alpha}")

    def test_semigroup_and_inversion_order(self):
        alpha = 0.6
        errs_s, errs_i = [], []
        for n in (128, 256, 512):
            g = TimeGrid.uniform(1.0, n)
            y = TimeSeries(g, np.sin(3 * g.nodes) + g.nodes)
            both = rl_integral(rl_integral(y, 0.45), 0.35).values
            direct = rl_integral(y, 0.8).values
            errs_s.append(np.max(np.abs(both - direct)))
            y2 = TimeSeries(g, np.sin(2 * g.nodes) * g.nodes)
            back = caputo_l1(rl_integral(y2, alpha), alpha)
            errs_i.append(np.max(np.abs(back.values[1:] - y2.values[1:])))
        rs = [math.log2(errs_s[i] / errs_s[i + 1]) for i in range(2)]
        ri = [math.log2(errs_i[i] / errs_i[i + 1]) for i in range(2)]
        ok = min(rs) >= 1.0 and min(ri) >= 1.0
        report(2, "J-semigroup and Caputo(J(y)) = y at order >= 1", ok,
               f"semigroup rates {['%.2f' % r for r in rs]}, inversion {['%.2f' % r for r in ri]}")

    def test_sign_preservation_exact(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            g = TimeGrid.graded(1.0, 64, float(rng.uniform(1.0, 4.0)))
            out = rl_integral(TimeSeries(g, rng.random(65)), float(rng.uniform(0.2, 1.8)))
            worst = max(worst, -float(np.min(out.values)))
        report(2, "fractional integral preserves signs exactly", worst <= 0.0,
               f"worst negativity {worst:.1e}")


class TestCriterion3ExtremumPrinciple:
    def test_randomized_interior_minima(self):
        rng = np.random.default_rng(2024)
        count, failures, worst = 0, 0, -np.inf
        while count < 20:
            c = rng.normal(0, 1, 4)
            g = TimeGrid.uniform(1.0, 256)
            t = g.nodes
            vals = (c[0] * np.sin(2 * np.pi * t) + c[1] * np.cos(3 * t)
                    + c[2] * t + c[3] * t ** 2)
            if int(np.argmin(vals)) == 0:
                continue
            count += 1
            rep = extremum_check(TimeSeries(g, vals), 0.5)
            worst = max(worst, rep.caputo_at_min - rep.tolerance)
            failures += 0 if rep.holds else 1
        report(3, "Caputo derivative <= tol at 20 sampled minima", failures == 0,
               f"worst margin {worst:.2e}")


class TestCriterion4Eigensolver:
    def test_neumann_spectrum_order(self):
        exact = 1.0 + np.arange(10) ** 2 * math.pi ** 2
        errs = []
        for n in (64, 128, 256):
            g = Grid1D(0.0, 1.0, n)
            eig = eigendecompose(assemble(EllipticSpec(a=1.0, c0=1.0), g))
            errs.append(np.max(np.abs(eig.lambdas[:10] - exact) / exact))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        report(4, "Neumann spectrum at order 2 for 10 modes", min(rates) >= 1.95,
               f"rates {['%.3f' % r for r in rates]}")

    def test_robin_ground_eigenvalue(self):
        # bisection oracle for tan(mu) = 2 mu / (mu^2 - 1)
        def f(mu):
            return (1.0 / mu - mu) * math.sin(mu) + 2.0 * math.cos(mu)

        lo, hi = 1e-6, math.pi - 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        ref = (0.5 * (lo + hi)) ** 2
        g = Grid1D(0.0, 1.0, 256)
        eig = eigendecompose(assemble(EllipticSpec(a=1.0, sigma_lo=1.0, sigma_hi=1.0), g))
        err = abs(float(eig.lambdas[0]) - ref)
        report(4, "Robin sigma=1 ground eigenvalue vs bisection oracle", err <= 1e-4,
               f"|{eig.lambdas[0]:.6f} - {ref:.6f}| = {err:.1e} <= 1e-4 (mu_1 = {math.sqrt(ref):.5f})")

    def test_ground_mode_positive_across_specs(self):
        rng = np.random.default_rng(5)
        ok = True
        for _ in range(12):
            amp = rng.uniform(0.0, 0.5)
            spec = EllipticSpec(
                a=lambda x, amp=amp: 1.0 + amp * np.sin(2 * x + 1.0),
                c0=float(rng.uniform(0.2, 2.0)),
                sigma_lo=float(rng.uniform(0.0, 2.0)),
                sigma_hi=float(rng.uniform(0.0, 2.0)),
            )
            g = Grid1D(0.0, 1.0, 48)
            lam1, phi1 = principal_eigenpair(eigendecompose(assemble(spec, g)))
            ok = ok and np.min(phi1) > 0.0
        report(4, "ground mode nodewise positive on random specs", ok)


@pytest.fixture(scope="module")
def cross_oracle_runs():
    # 20 random specs at (n=128, N=1024), seed 77
    problems = criterion5_problems()
    diffs = []
    digests = {"spectral": [], "l1": []}  # see references.py
    for p in problems:
        us = solve_linear_spectral(p)
        ul = solve_linear_l1(p)
        diffs.append(float(np.max(np.abs(us.values - ul.values))))
        digests["spectral"].append(digest(us.values))
        digests["l1"].append(digest(ul.values))
    return problems, diffs, digests


class TestCriterion5CrossOracle:
    def test_agreement_at_stated_resolution(self, cross_oracle_runs):
        _, diffs, _ = cross_oracle_runs
        worst = max(diffs)
        report(5, "spectral vs L1 on 20 random specs at (n=128, N=1024)", worst <= 1e-3,
               f"worst sup-difference {worst:.2e} <= 1e-3")

    def test_refinement_rate(self, cross_oracle_runs):
        problems, _, _ = cross_oracle_runs
        ok = True
        details = []
        for p in problems[:3]:
            errs = []
            for N in (128, 256, 512):
                tg = TimeGrid.graded(1.0, N, 2.0 / p.alpha)
                pj = replace(p, tgrid=tg)
                us = solve_linear_spectral(pj)
                ul = solve_linear_l1(pj)
                errs.append(float(np.max(np.abs(us.values - ul.values))))
            rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            details.append(f"{['%.2f' % r for r in rates]}")
            ok = ok and min(rates) >= 1.0 and errs[-1] < errs[0]
        report(5, "cross-oracle difference decreasing at rate >= 1", ok,
               "rates " + "; ".join(details))

    @pytest.mark.parametrize("route", ["spectral", "l1"])
    def test_fields_match_references(self, cross_oracle_runs, route):
        # the 20 fields against references.json (see references.py)
        _, _, digests = cross_oracle_runs
        refs = load_references()["criterion5"][route]
        gaps = [digest_gap(got, ref) for got, ref in zip(digests[route], refs, strict=True)]
        assert max(gaps) <= DIGEST_RTOL, gaps


class TestCriterion6Positivity:
    def test_fifty_random_specs(self):
        rng = np.random.default_rng(7)
        worst = -np.inf
        fails = 0
        for j in range(50):
            alpha = (0.3, 0.5, 0.7)[j % 3]
            p = random_linear_problem(rng, alpha, n=24, N=96)
            u = solve_linear_spectral(p)
            rep = compare.check_positivity(u, alpha=alpha)
            worst = max(worst, rep.worst - rep.tolerance)
            fails += 0 if rep.holds else 1
        report(6, "positivity on 50 random nonnegative-data specs", fails == 0,
               f"worst margin {worst:.2e}")

    def test_seed_reproducible(self):
        def run():
            rng = np.random.default_rng(7)
            p = random_linear_problem(rng, 0.3, n=24, N=96)
            return solve_linear_spectral(p).values

        a, b = run(), run()
        report(6, "same seed gives bit-identical solutions", np.array_equal(a, b))


class TestCriterion7ExplicitLowerBound:
    def test_unit_source_bound(self):
        out = EX1.run(0.5, 48, 256)
        _, _, bound = out.columns
        assert bound[-1] == pytest.approx(1.128379, abs=1e-6)
        slack = out.extra["min_slack"]
        report(7, "unit source solution above 1.128379 t^0.5", slack >= -1e-3,
               f"min slack {slack:.2e} >= -1e-3")


class TestCriterion8CoefficientComparison:
    def test_zeroth_order_pairs(self):
        rng = np.random.default_rng(31)
        worst = -np.inf
        fails = 0
        for j in range(10):
            alpha = (0.3, 0.5, 0.7)[j % 3]
            p = random_linear_problem(rng, alpha, n=24, N=96)
            d1, d2 = sorted(rng.uniform(0.0, 0.6, 2))
            _, _, rep = compare.coefficient_comparison(p, which="c", c1=-d1, c2=-d2)
            worst = max(worst, rep.worst - rep.tolerance)
            fails += 0 if rep.holds else 1
        report(8, "zeroth-order comparison on 10 random pairs", fails == 0,
               f"worst margin {worst:.2e}")

    def test_robin_pairs_under_negative_c(self):
        rng = np.random.default_rng(32)
        worst = -np.inf
        fails = 0
        for j in range(10):
            alpha = (0.3, 0.5, 0.7)[j % 3]
            p = random_linear_problem(rng, alpha, n=24, N=96)
            p = replace(p, elliptic=replace(p.elliptic,
                                            c=lambda x, t: -0.2 - 0.3 * np.sin(x) ** 2))
            s1 = float(rng.uniform(0.2, 1.5))
            s2 = s1 + float(rng.uniform(0.0, 1.5))
            _, _, rep = compare.coefficient_comparison(p, which="sigma", sigma1=s1, sigma2=s2)
            worst = max(worst, rep.worst - rep.tolerance)
            fails += 0 if rep.holds else 1
        report(8, "Robin comparison under c < 0 on 10 random pairs", fails == 0,
               f"worst margin {worst:.2e}")


class TestCriterion9LinearMonotoneSequence:
    def test_nonnegative_geometric(self):
        alpha = 0.5
        p, _ = MONOTONE_LINEAR.build(alpha, 24, 128)
        seq = compare.linear_monotone_sequence(p, b0_const=0.6, n_max=9)
        tol = compare.default_tolerance(p.grid, p.tgrid, alpha, 2.0)
        neg = max(-float(np.min(it.values)) for it in seq)
        direct = solve_linear_l1(p)
        errs = [float(np.max(np.abs(it.values - direct.values))) for it in seq]
        ratios = [errs[j + 1] / errs[j] for j in range(2, len(errs) - 1) if errs[j] > 1e-13]
        ok = neg <= tol and all(r < 0.9 for r in ratios)
        report(9, "linearisation iterates nonnegative, geometric ratio < 0.9", ok,
               f"negativity {neg:.1e} <= {tol:.1e}, max ratio {max(ratios):.3f}")


class TestCriterion10SemilinearReduction:
    def test_scalar_oracle_agreement(self):
        alpha = 0.5
        p, f = SANDWICH.build(alpha, 16, 1024)  # flat data a = 1 with the saturating sink
        u = solve_semilinear(p, f)
        y = scalar_fractional_ode(p.tgrid, alpha, 1.0,
                                  lambda v: -v / (1 + abs(v)),
                                  rhs_du=lambda v: -1.0 / (1 + abs(v)) ** 2)
        err = float(np.max(np.abs(u.values[:, 7] - y)))
        report(10, "flat-data saturating sink vs scalar oracle at N=1024", err <= 5e-3,
               f"sup error {err:.2e} <= 5e-3")

    def test_semilinear_ordering(self):
        rng = np.random.default_rng(40)
        fails = 0
        worst = -np.inf
        for j in range(10):
            alpha = (0.3, 0.5, 0.7)[j % 3]
            p2 = replace(random_linear_problem(rng, alpha, n=16, N=48, with_drift=False),
                         source=None)
            bump = random_nonneg_profile(rng, amplitude=0.2)
            p1 = replace(p2, initial=lambda x, a0=p2.initial, b=bump: a0(x) + b(x))
            f1 = builtin_enzyme()
            f2 = f1.shifted(-float(rng.uniform(0.05, 0.3)))
            u1 = solve_semilinear(p1, f1)
            u2 = solve_semilinear(p2, f2)
            rep = compare.check_ordering(u1, u2, alpha=alpha)
            worst = max(worst, rep.worst - rep.tolerance)
            fails += 0 if rep.holds else 1
        report(10, "semilinear ordering (f1 >= f2, a1 >= a2) on 10 instances", fails == 0,
               f"worst margin {worst:.2e}")


class TestCriterion11Sandwich:
    def test_monotone_chains_and_sandwich(self):
        p, f = SANDWICH.build(0.5, 16, 96)
        nt = p.tgrid.nodes.size
        barriers = compare.BarrierPair(
            lower=Field(p.grid, p.tgrid, np.zeros((nt, p.grid.n_nodes))),
            upper=Field(p.grid, p.tgrid, np.ones((nt, p.grid.n_nodes))),
        )
        res = compare.monotone_iteration(p, f, barriers, M=1.0, k_max=30)
        tol = res.sandwich.tolerance
        chain_worst = 0.0
        for seq, sgn in ((res.from_lower, 1.0), (res.from_upper, -1.0)):
            for a, b in zip(seq, seq[1:]):
                chain_worst = max(chain_worst, -float(np.min(sgn * (b.values - a.values))))
        ok = res.sandwich.holds and chain_worst <= tol
        report(11, "monotone chains and final sandwich", ok,
               f"chain violation {chain_worst:.1e}, sandwich worst {res.sandwich.worst:.1e}")

    def test_saturating_sink_band(self):
        # the band the explicit barriers prove: 0 <= u and u <= a + rho t^alpha
        out = E3.run(0.5, 48, 192)
        (row,) = out.rows
        rho = out.extra["rho"]
        ok = row.holds and rho == pytest.approx(math.pi ** 2 / gamma(1.5), rel=5e-3)
        report(11, "explicit band 0 <= u <= a + rho t^alpha", ok,
               f"rho {rho:.4f} (pi^2/Gamma(1.5) = {math.pi ** 2 / gamma(1.5):.4f}), "
               f"worst {row.worst:.1e}")

    def test_increasing_term_windows(self):
        out = E4.run(0.5, 24, 192)
        (row,) = out.rows
        report(11, "increasing-term bounds on windows (0,T1), (0,T2)", row.holds,
               f"T1 {out.extra['T1']:.3g}, T2 {out.extra['T2']:.3g}, "
               f"lower coeff {out.extra['lower_coeff']:.3f}, worst {row.worst:.1e}")


@pytest.fixture(scope="module")
def decay_setup():
    p, f = DECAY.build(0.5, 24, 512)  # lambda_1 T^alpha = 20
    eig = eigendecompose(assemble(p.elliptic, p.grid))
    return p, f, eig


class TestCriterion12AsymptoticDecay:
    def test_single_mode_exact(self, decay_setup):
        p, _, eig = decay_setup
        alpha, grid = p.alpha, p.grid
        u = solve_linear_spectral(replace(p, initial=0.7 * eig.modes[:, 0]), eig)
        rep = compare.asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig, alpha)
        err = abs(rep.fitted_C - 0.7) + abs(rep.fitted_C_tail - 0.7)
        report(12, "single-mode decay ratio constant", rep.holds and err <= 1e-8,
               f"fitted C deviation {err:.2e} <= 1e-8")

    def test_saturating_sink_stability(self, decay_setup):
        p, f, eig = decay_setup
        alpha, grid, tn = p.alpha, p.grid, p.tgrid.nodes
        u = solve_semilinear(p, f, eig)
        rep = compare.asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig, alpha)
        drift = abs(rep.fitted_C_tail - rep.fitted_C) / rep.fitted_C
        report(12, "sink-term fitted constant stable across window halves",
               rep.holds and drift <= 0.10, f"relative drift {drift:.3f} <= 0.10")

        lam1, phi1 = principal_eigenpair(eig)
        tail = tn >= 0.75 * tn[-1]
        third = (tn >= 0.5 * tn[-1]) & (tn < 0.75 * tn[-1])
        dev = np.abs(u.values)

        def sup_ratio(mask):
            env = tn[mask, None] ** -alpha * phi1[None, :]
            return float(np.max(dev[mask] / env))

        s_tail, s_third = sup_ratio(tail), sup_ratio(third)
        report(12, "t^-alpha envelope respected in the last quarter",
               s_tail <= 1.1 * s_third, f"sup ratio {s_tail:.3f} vs 1.1 x {s_third:.3f}")
