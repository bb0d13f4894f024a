import math
import re

import numpy as np
import pytest
from scipy.special import gamma

from fraccomp.compare import (
    BarrierPair,
    HypothesisViolation,
    asymptotic_decay_check,
    barrier_bounds_e3,
    barrier_bounds_e4,
    check_ordering,
    check_positivity,
    coefficient_comparison,
    comparison_pair,
    default_tolerance,
    example1_lower_bound,
    linear_monotone_sequence,
    monotone_iteration,
    verify_barrier,
)
from fraccomp.elliptic import EllipticSpec, Grid1D, assemble, eigendecompose
from fraccomp.evolve_linear import Field, ProblemSpec, solve_linear_spectral, solve_linear_spectral_many
from fraccomp.evolve_semilinear import (
    SemilinearTerm,
    builtin_enzyme,
    scalar_fractional_ode,
    solve_semilinear,
)
from fraccomp.fracops import TimeGrid, caputo_l1_field
from fraccomp.special_ml import ml_relaxation


def neumann_problem(alpha=0.5, n=20, N=64, T=1.0, initial=None, source=None, **spec_kw):
    grid = Grid1D(0.0, 1.0, n)
    tg = TimeGrid.graded(T, N, 2.0 / alpha)
    spec = EllipticSpec(**spec_kw)
    init = initial if initial is not None else 0.0
    return ProblemSpec(alpha, spec, grid, tg, init, source=source)


class TestPositivity:
    def test_nonnegative_initial(self):
        p = neumann_problem(initial=lambda x: np.sin(math.pi * x), c0=1.0, c=-1.0)
        u = solve_linear_spectral(p)
        rep = check_positivity(u, alpha=p.alpha)
        assert rep.holds

    def test_zero_data_zero_solution(self):
        p = neumann_problem(initial=0.0, c0=1.0, c=-1.0)
        u = solve_linear_spectral(p)
        rep = check_positivity(u, alpha=p.alpha)
        assert rep.holds
        assert rep.worst == 0.0

    def test_constant_preserved(self):
        p = neumann_problem(initial=1.0, c0=0.0)
        u = solve_linear_spectral(p)
        rep = check_positivity(u, alpha=p.alpha)
        assert rep.holds
        assert rep.worst <= 1e-12


class TestOrdering:
    def test_reflexive(self):
        p = neumann_problem(initial=lambda x: 1 + np.cos(math.pi * x), c0=1.0, c=-0.5)
        u = solve_linear_spectral(p)
        rep = check_ordering(u, u, alpha=p.alpha)
        assert rep.holds and rep.worst == 0.0

    def test_shifted_initial(self):
        p2 = neumann_problem(initial=lambda x: 1 + np.cos(math.pi * x), c0=1.0, c=-0.5, b=0.2)
        p1 = neumann_problem(initial=lambda x: 1.1 + np.cos(math.pi * x), c0=1.0, c=-0.5, b=0.2)
        u1, u2 = solve_linear_spectral(p1), solve_linear_spectral(p2)
        assert check_ordering(u1, u2, alpha=0.5).holds

    def test_transitive_at_double_tolerance(self):
        base = dict(c0=1.0, c=-0.3)
        u1 = solve_linear_spectral(neumann_problem(initial=lambda x: 2 + np.sin(x), **base))
        u2 = solve_linear_spectral(neumann_problem(initial=lambda x: 1 + np.sin(x), **base))
        u3 = solve_linear_spectral(neumann_problem(initial=lambda x: 0.5 + np.sin(x), **base))
        r12 = check_ordering(u1, u2, alpha=0.5)
        r23 = check_ordering(u2, u3, alpha=0.5)
        r13 = check_ordering(u1, u3, alpha=0.5)
        assert r12.holds and r23.holds and r13.worst <= 2 * r12.tolerance

    def test_semilinear_term_ordering(self):
        f1 = builtin_enzyme()
        f2 = f1.shifted(-0.1)
        p = neumann_problem(initial=lambda x: 1 + 0.3 * np.cos(math.pi * x), c0=1.0, c=-1.0)
        u1 = solve_semilinear(p, f1)
        u2 = solve_semilinear(p, f2)
        assert check_ordering(u1, u2, alpha=p.alpha).holds


class TestExample1Bound:
    def test_constant_value(self):
        tg = TimeGrid.uniform(1.0, 4)
        curve = example1_lower_bound(0.5, 0.0, 1.0, tg)
        assert curve.values[-1] == pytest.approx(1.0 / gamma(1.5), rel=1e-13)
        assert 1.0 / gamma(1.5) == pytest.approx(1.128379, abs=1e-6)

    def test_zero_delta(self):
        tg = TimeGrid.uniform(1.0, 4)
        assert np.all(example1_lower_bound(0.6, 1.0, 0.0, tg).values == 0.0)

    def test_classical_limit(self):
        # alpha = 1: the curve is the plain integral of the unit source
        tg = TimeGrid.uniform(2.0, 8)
        curve = example1_lower_bound(1.0, 0.0, 1.0, tg)
        assert np.allclose(curve.values, tg.nodes, rtol=1e-13)

    def test_solution_respects_bound(self):
        # F = 1, a = 0, zeroth-order-free Neumann operator
        alpha = 0.5
        p = neumann_problem(alpha=alpha, N=128, c0=0.0, source=lambda x, t: np.ones_like(x))
        u = solve_linear_spectral(p)
        bound = example1_lower_bound(alpha, 0.0, 1.0, p.tgrid)
        slack = np.min(u.values, axis=1) - bound.values
        assert np.min(slack) >= -1e-3


class TestCoefficientComparison:
    def test_equal_coefficients(self):
        p = neumann_problem(initial=lambda x: 1 + np.sin(2 * x), c0=1.0,
                            source=lambda x, t: np.ones_like(x))
        u1, u2, rep = coefficient_comparison(p, which="c", c1=-0.5, c2=-0.5)
        assert rep.holds
        assert np.max(np.abs(u1.values - u2.values)) < 1e-12

    def test_ordered_c(self):
        p = neumann_problem(initial=lambda x: 1 + np.sin(2 * x) ** 2, c0=1.0,
                            source=lambda x, t: np.ones_like(x))
        u1, u2, rep = coefficient_comparison(p, which="c", c1=0.0, c2=-1.0)
        assert rep.holds

    def test_ordered_sigma_under_negative_c(self):
        p = neumann_problem(initial=lambda x: 1 + 0.2 * np.cos(math.pi * x), c0=1.0, c=-1.0,
                            source=lambda x, t: 0.5 * np.ones_like(x))
        u1, u2, rep = coefficient_comparison(p, which="sigma", sigma1=1.0, sigma2=2.0)
        assert rep.holds

    def test_sigma_refused_without_negative_c(self):
        p = neumann_problem(initial=1.0, c0=1.0, c=0.0)
        with pytest.raises(HypothesisViolation):
            coefficient_comparison(p, which="sigma", sigma1=1.0, sigma2=2.0)

    def test_rejects_unordered_c(self):
        p = neumann_problem(initial=1.0, c0=1.0)
        with pytest.raises(HypothesisViolation):
            coefficient_comparison(p, which="c", c1=-1.0, c2=0.0)

    def test_rejects_c_unordered_at_a_single_node(self):
        # c1 < c2 only at t_3 of 64 steps: the hypothesis is checked on every node
        p = neumann_problem(initial=1.0, c0=1.0, N=64)
        t3 = p.tgrid.nodes[3]
        with pytest.raises(HypothesisViolation):
            coefficient_comparison(p, which="c", c1=lambda x, t: -1.0 * (t == t3), c2=0.0)


class TestComparisonPair:
    """comparison_pair is coefficient_comparison before its two solves."""

    def test_refuses_what_coefficient_comparison_refuses(self):
        cases = [
            (neumann_problem(initial=1.0, c0=1.0), dict(which="c", c1=-1.0, c2=0.0)),
            (neumann_problem(initial=1.0, c0=1.0, c=0.0), dict(which="sigma", sigma1=1.0, sigma2=2.0)),
            (neumann_problem(initial=1.0, c0=1.0, c=-1.0), dict(which="sigma", sigma1=2.0, sigma2=1.0)),
        ]
        for p, kw in cases:
            with pytest.raises(HypothesisViolation) as built:
                comparison_pair(p, **kw)
            with pytest.raises(HypothesisViolation, match=f"^{re.escape(str(built.value))}$"):
                coefficient_comparison(p, **kw)

    def test_source_checked_on_every_node_with_one_call_or_one_per_node(self):
        from dataclasses import replace

        p = neumann_problem(initial=1.0, c0=1.0, N=64)
        t5, calls = p.tgrid.nodes[5], []

        def counted(f):
            return lambda x, t: calls.append(t) or f(x, t)

        # math.exp takes no column of times: a problem built with such a
        # source probes it once and checks it once per time the solvers
        # sample (2 x 64), and the check calls it once per node (65); the
        # pair's two problems are built after the check
        q = replace(p, source=counted(lambda x, t: np.cos(x) ** 2 * math.exp(-t)))
        assert len(calls) == 1 + 128
        calls.clear()
        comparison_pair(q, which="c", c1=0.0, c2=-1.0)
        assert len(calls) == 65 + 2 * (1 + 128)
        # F < 0 only at the interior node t_5, with and without a column of
        # times: the check makes one call per node or one call
        for f, n_calls in ((lambda x, t: (np.cos(x) ** 2 - 0.5 * (t == t5)) * math.exp(-t), 65),
                           (lambda x, t: np.cos(x) ** 2 - 0.5 * (t == t5), 1)):
            q = replace(p, source=counted(f))
            calls.clear()
            with pytest.raises(HypothesisViolation, match="^source must be nonnegative$"):
                comparison_pair(q, which="c", c1=0.0, c2=-1.0)
            assert len(calls) == n_calls

    def test_constant_c_is_never_evaluated(self, monkeypatch):
        # c is decided once per problem: a constant is never evaluated, on
        # the time nodes or per L1 step, and a broadcasting c is called once
        # when its problem is built and once by the check
        from fraccomp.elliptic import Coefficient
        from fraccomp.evolve_linear import solve_linear_l1

        evaluated, values = [], Coefficient.values

        def spy(self, x, t=0.0):
            v = values(self, x, t)
            if self.key == "c" and self.kind == "constant" and v is not self.row:
                evaluated.append(t)
            return v

        monkeypatch.setattr(Coefficient, "values", spy)
        p = neumann_problem(initial=1.0, c0=1.0, N=64, source=lambda x, t: 0.5 + 0.0 * x * t)
        p1, p2, _ = comparison_pair(p, which="c", c1=-0.1, c2=-0.3)
        solve_linear_l1(p1)
        assert evaluated == []
        calls = []
        c1 = lambda x, t: calls.append(np.shape(t)) or -0.1 + 0.0 * x * t
        comparison_pair(p, which="c", c1=c1, c2=-0.3)
        assert calls == [(128, 1), (65, 1)] and evaluated == []

    @pytest.mark.parametrize("which, kw", [("c", dict(c1=0.0, c2=-1.0)),
                                           ("sigma", dict(sigma1=1.0, sigma2=2.0))])
    def test_batched_pair_matches_coefficient_comparison(self, which, kw):
        p = neumann_problem(initial=lambda x: 1 + 0.2 * np.cos(math.pi * x), c0=1.0, c=-1.0,
                            b=lambda x, t: 0.2 * np.cos(x + t), source=lambda x, t: 0.5 * np.ones_like(x))
        p1, p2, name = comparison_pair(p, which=which, **kw)
        batched = solve_linear_spectral_many([p1, p2])
        u1, u2, rep = coefficient_comparison(p, which=which, **kw)
        for b, u in zip(batched, (u1, u2)):
            assert np.max(np.abs(b.values - u.values)) <= 1e-13 * np.max(np.abs(u.values))
        assert rep.name == name and rep.holds


class TestLinearMonotoneSequence:
    def test_zero_data_zero_iterates(self):
        p = neumann_problem(initial=0.0, c0=1.0, c=0.0)
        seq = linear_monotone_sequence(p, b0_const=0.5, n_max=4)
        for it in seq:
            assert np.max(np.abs(it.values)) == 0.0

    def test_second_iterate_without_c(self):
        # with c = 0 the second iterate solves the b0-shifted problem with
        # source b0 a + F directly
        from dataclasses import replace

        p = neumann_problem(initial=lambda x: 1 + 0.5 * np.cos(math.pi * x),
                            N=96, c0=1.0, source=lambda x, t: np.ones_like(x))
        b0 = 0.8
        seq = linear_monotone_sequence(p, b0_const=b0, n_max=2)
        a0 = p.initial_values()
        shifted = replace(p, elliptic=replace(p.elliptic, c=-b0),
                          source=lambda x, t: b0 * (1 + 0.5 * np.cos(math.pi * x)) + 1.0)
        direct = solve_linear_spectral(shifted)
        assert np.max(np.abs(seq[1].values - direct.values)) < 2e-3

    def test_nonnegative_and_convergent(self):
        from fraccomp.evolve_linear import solve_linear_l1

        p = neumann_problem(initial=lambda x: 1 + np.cos(math.pi * x),
                            alpha=0.5, N=96, T=0.75, c0=1.0,
                            c=lambda x, t: -0.3 + 0.2 * np.sin(3 * x))
        seq = linear_monotone_sequence(p, b0_const=0.6, n_max=8)
        tol = default_tolerance(p.grid, p.tgrid, p.alpha, 2.0)
        # the iteration's fixed point is the direct implicit-L1 solution
        direct = solve_linear_l1(p)
        errs = [np.max(np.abs(it.values - direct.values)) for it in seq]
        for it in seq:
            assert np.min(it.values) >= -tol
        assert errs[-1] < 1e-6
        # geometric decay after the first couple of sweeps
        for j in range(2, len(errs) - 1):
            assert errs[j + 1] <= 0.9 * errs[j] + 1e-12
        # and the fixed point agrees with the independent spectral solution
        # to discretisation accuracy
        spectral = solve_linear_spectral(p)
        assert np.max(np.abs(seq[-1].values - spectral.values)) < 5e-3

    def test_shared_rows_match_direct_solves(self):
        # the chain builds its L1 weight rows once; every iterate must be the
        # one-off solve of its frozen problem on a fresh table, bit for bit
        from dataclasses import replace

        from fraccomp.evolve_linear import _L1Steps, _l1_march

        p = neumann_problem(initial=lambda x: 1 + np.cos(math.pi * x), N=40, c0=1.0,
                            c=lambda x, t: -0.3 + 0.2 * np.sin(3 * x + t))
        b0 = 0.6
        seq = linear_monotone_sequence(p, b0_const=b0, n_max=4)
        c_vals = p.coefficients["c"].values(p.grid.nodes, p.tgrid.nodes)
        frozen = replace(p, elliptic=replace(p.elliptic, c=-b0))
        for prev, nxt in zip(seq, seq[1:]):
            direct = _l1_march(frozen, _L1Steps(frozen, keep=False), (b0 + c_vals) * prev.values)
            assert np.array_equal(nxt.values, direct.values)

    def test_rejects_small_b0(self):
        p = neumann_problem(initial=1.0, c0=1.0, c=-2.0)
        with pytest.raises(HypothesisViolation):
            linear_monotone_sequence(p, b0_const=0.5, n_max=3)

    def test_rejects_source_negative_at_a_single_node(self):
        # F < 0 only at t_3 of 64 steps: the hypothesis is checked on every node
        from dataclasses import replace

        p = neumann_problem(initial=1.0, c0=1.0, c=-0.2, N=64)
        t3 = p.tgrid.nodes[3]
        src = lambda x, t: np.where(t == t3, -1.0, 1.0) * np.ones_like(x)
        with pytest.raises(HypothesisViolation):
            linear_monotone_sequence(replace(p, source=src), b0_const=0.5, n_max=2)


class TestVerifyBarrier:
    def test_gradient_term_refused(self):
        from fraccomp.evolve_semilinear import builtin_burgers

        p = neumann_problem(initial=1.0, c0=0.0, N=16)
        ones = Field(p.grid, p.tgrid, np.ones((p.tgrid.nodes.size, p.grid.n_nodes)))
        with pytest.raises(HypothesisViolation):
            verify_barrier(ones, "upper", p, f=builtin_burgers())

    def test_zero_lower_barrier_exact(self):
        p = neumann_problem(initial=lambda x: 1 + np.cos(math.pi * x), c0=0.0, N=32)
        zeros = Field(p.grid, p.tgrid, np.zeros((p.tgrid.nodes.size, p.grid.n_nodes)))
        rep = verify_barrier(zeros, "lower", p, f=builtin_enzyme())
        assert rep.holds
        assert rep.worst == 0.0

    def test_power_upper_barrier(self):
        # a + rho t^alpha with rho >= max Delta_h a / Gamma(1+alpha)
        alpha = 0.5
        p = neumann_problem(alpha=alpha, initial=lambda x: 1 + np.cos(math.pi * x), c0=0.0, N=64)
        a0 = p.initial_values()
        op = assemble(p.elliptic, p.grid)
        rho = float(np.max(-op.apply_full(a0, 0.0))) / gamma(1 + alpha)
        band = a0[None, :] + rho * p.tgrid.nodes[:, None] ** alpha
        rep = verify_barrier(Field(p.grid, p.tgrid, band), "upper", p, f=builtin_enzyme())
        assert rep.holds

    def test_increasing_term_window_barrier(self):
        # a + t^(alpha - eps) is an upper solution only on (0, T1); for
        # f(u) = u and flat unit initial data T1 ~ 0.03
        alpha, eps = 0.5, 0.1
        f = SemilinearTerm(eval=lambda x, u: u, deriv_u=lambda x, u: np.ones_like(u),
                           bound_M=10.0)
        p = neumann_problem(alpha=alpha, initial=1.0, c0=0.0, N=64, T=0.015)
        a0 = p.initial_values()
        band = a0[None, :] + p.tgrid.nodes[:, None] ** (alpha - eps)
        rep = verify_barrier(Field(p.grid, p.tgrid, band), "upper", p, f=f)
        assert rep.holds
        # and past the window the residual really does change sign
        p_long = neumann_problem(alpha=alpha, initial=1.0, c0=0.0, N=64, T=2.0)
        band_long = a0[None, :] + p_long.tgrid.nodes[:, None] ** (alpha - eps)
        raw = verify_barrier(Field(p_long.grid, p_long.tgrid, band_long), "upper", p_long, f=f)
        assert raw.worst > 1e-6

    def test_all_times_at_once(self):
        # b, c and the source are called once, with the column of the time
        # nodes after t = 0, and the worst residual has the bits of the
        # residuals taken one time node at a time
        calls = []

        def counted(f):
            def g(x, t):
                calls.append(np.shape(t))
                return f(x, t)
            return g

        p = neumann_problem(N=32, initial=1.0, c0=0.5, sigma_lo=1.0,
                            b=counted(lambda x, t: 0.3 * np.cos(2.0 * x + t)),
                            c=counted(lambda x, t: -0.3 * np.sin(2.0 * x) * np.cos(t)),
                            source=counted(lambda x, t: np.sin(3.0 * x) + t))
        t, x = p.tgrid.nodes, p.grid.nodes
        v = 1.0 + 0.3 * np.outer(t ** 0.5, np.sin(2.0 * x))
        calls.clear()
        rep = verify_barrier(Field(p.grid, p.tgrid, v), "upper", p)
        assert sorted(calls) == [(32, 1)] * 3
        op = assemble(p.elliptic, p.grid)
        cap = caputo_l1_field(p.tgrid, v, p.alpha)
        resid = [cap[k] + op.apply_full(v[k], t[k]) - p.source_at(t[k]) for k in range(1, t.size)]
        robin = [op.robin_residual(v[k]) for k in range(1, t.size)]
        worst = max(float(np.max(-np.array(resid))), float(np.max(np.abs(robin))), 0.0)
        assert worst > 0.0 and rep.worst == worst

    def test_non_barrier_flagged(self):
        # too-shallow power growth is *not* an upper solution for a positive source
        p = neumann_problem(initial=0.0, c0=0.0, N=32, source=lambda x, t: np.ones_like(x))
        shallow = Field(p.grid, p.tgrid,
                        0.01 * p.tgrid.nodes[:, None] ** 0.5 * np.ones((1, p.grid.n_nodes)))
        rep = verify_barrier(shallow, "upper", p)
        assert rep.worst > 0.1


class TestMonotoneIteration:
    def test_exact_solution_fixed_point(self):
        # f = 0: barriers equal to the solution stay fixed under the map
        p = neumann_problem(initial=lambda x: 1 + 0.3 * np.cos(math.pi * x),
                            N=48, c0=1.0, c=-1.0)
        zero = SemilinearTerm(eval=lambda x, u: np.zeros_like(u), bound_M=0.0)
        u = solve_semilinear(p, zero)
        barriers = BarrierPair(lower=u, upper=u)
        res = monotone_iteration(p, zero, barriers, M=0.5, k_max=25)
        assert res.sandwich.holds
        tol = res.sandwich.tolerance
        for it in res.from_lower + res.from_upper:
            assert np.max(np.abs(it.values - u.values)) <= 5 * tol

    def test_enzyme_unit_box(self):
        # constant data 1, barriers 0 and 1; chains monotone, sandwich holds,
        # scalar oracle cross-check
        alpha = 0.5
        p = neumann_problem(alpha=alpha, initial=1.0, N=64, c0=0.0, n=12)
        nt = p.tgrid.nodes.size
        ones = Field(p.grid, p.tgrid, np.ones((nt, p.grid.n_nodes)))
        zeros = Field(p.grid, p.tgrid, np.zeros((nt, p.grid.n_nodes)))
        f = builtin_enzyme()
        res = monotone_iteration(p, f, BarrierPair(lower=zeros, upper=ones), M=1.0, k_max=25)
        assert res.sandwich.holds
        tol = res.sandwich.tolerance
        for seq, sgn in ((res.from_lower, +1.0), (res.from_upper, -1.0)):
            for a, b in zip(seq, seq[1:]):
                assert np.min(sgn * (b.values - a.values)) >= -tol
        y = scalar_fractional_ode(p.tgrid, alpha, 1.0, lambda v: -v / (1 + abs(v)),
                                  rhs_du=lambda v: -1.0 / (1 + abs(v)) ** 2)
        assert np.max(np.abs(res.solution.values[:, 5] - y)) < 5e-3

    def test_shared_rows_match_per_sweep_rows(self):
        # both chains share one table of L1 steps; each sweep must equal the
        # same sweep on a fresh table that keeps nothing, as a one-off solve's
        from fraccomp.compare import _l_map, _shifted
        from fraccomp.evolve_linear import _L1Steps

        p = neumann_problem(alpha=0.5, initial=1.0, N=32, c0=0.0, n=12)
        nt = p.tgrid.nodes.size
        ones = Field(p.grid, p.tgrid, np.ones((nt, p.grid.n_nodes)))
        zeros = Field(p.grid, p.tgrid, np.zeros((nt, p.grid.n_nodes)))
        f = builtin_enzyme()
        res = monotone_iteration(p, f, BarrierPair(lower=zeros, upper=ones), M=1.0, k_max=25)
        for seq in (res.from_lower, res.from_upper):
            assert len(seq) > 2
            for prev, nxt in zip(seq, seq[1:]):
                again = _l_map(p, f, 1.0, prev, _L1Steps(_shifted(p, 1.0), keep=False))
                assert np.array_equal(nxt.values, again.values)

    def test_ground_mode_barriers(self):
        # stationary-state barriers u_inf +- M1 E(-lam1 t^alpha) phi1, about
        # the enzyme's stationary root u_inf = 0
        alpha = 0.5
        grid = Grid1D(0.0, 1.0, 16)
        tg = TimeGrid.graded(2.0, 64, 4.0)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
        f = builtin_enzyme()
        u_inf = np.zeros(grid.n_nodes)
        eig = eigendecompose(assemble(spec, grid))
        from fraccomp.elliptic import principal_eigenpair
        lam1, phi1 = principal_eigenpair(eig)
        a0 = 0.4 + 0.2 * np.cos(math.pi * grid.nodes)
        m1 = float(np.max(np.abs(a0 - u_inf)) / np.min(phi1)) * 1.05
        relax = np.array([ml_relaxation(alpha, lam1, t) for t in tg.nodes])
        upper = u_inf[None, :] + m1 * relax[:, None] * phi1[None, :]
        lower = u_inf[None, :] - m1 * relax[:, None] * phi1[None, :]
        p = ProblemSpec(alpha, spec, grid, tg, a0)
        barriers = BarrierPair(lower=Field(grid, tg, lower), upper=Field(grid, tg, upper))
        assert verify_barrier(barriers.upper, "upper", p, f=f).holds
        assert verify_barrier(barriers.lower, "lower", p, f=f).holds
        res = monotone_iteration(p, f, barriers, M=1.0, k_max=20)
        assert res.sandwich.holds


class TestChainSteps:
    """A chain's sweeps share one table of L1 steps: each node's weight row
    and the LU factors of its step matrix are built once per chain."""

    @staticmethod
    def sandwich(N=32):
        p = neumann_problem(alpha=0.5, initial=1.0, N=N, c0=0.5, n=12,
                            b=lambda x, t: 0.3 * np.cos(x + t), c=lambda x, t: -0.2 * np.sin(3 * x + t),
                            source=lambda x, t: 0.1 * (1.0 + t) * np.ones_like(x))
        nt = p.tgrid.nodes.size
        ones = Field(p.grid, p.tgrid, 2.0 * np.ones((nt, p.grid.n_nodes)))
        zeros = Field(p.grid, p.tgrid, np.zeros((nt, p.grid.n_nodes)))
        return p, BarrierPair(lower=zeros, upper=ones)

    @staticmethod
    def linear(N=40):
        return neumann_problem(initial=lambda x: 1 + np.cos(math.pi * x), N=N, c0=1.0,
                               c=lambda x, t: -0.3 + 0.2 * np.sin(3 * x + t),
                               source=lambda x, t: 0.5 + 0.0 * x)

    def test_iterates_match_fresh_tables(self):
        from fraccomp.compare import _l_map, _shifted, _with_c
        from fraccomp.evolve_linear import _L1Steps, _l1_march

        p, barriers = self.sandwich()
        f = builtin_enzyme()
        res = monotone_iteration(p, f, barriers, M=1.0, k_max=25)
        for seq in (res.from_lower, res.from_upper):
            assert len(seq) > 2
            for prev, nxt in zip(seq, seq[1:]):
                again = _l_map(p, f, 1.0, prev, _L1Steps(_shifted(p, 1.0)))
                assert np.array_equal(nxt.values, again.values)
        p = self.linear()
        b0 = 0.6
        seq = linear_monotone_sequence(p, b0_const=b0, n_max=4)
        gain = b0 + p.coefficients["c"].values(p.grid.nodes, p.tgrid.nodes)
        for prev, nxt in zip(seq, seq[1:]):
            again = _l1_march(p, _L1Steps(_with_c(p, -b0)), gain * prev.values)
            assert np.array_equal(nxt.values, again.values)

    def test_one_factorization_per_node(self, monkeypatch):
        from fraccomp import evolve_linear

        calls = []
        factor = evolve_linear.banded_lu
        monkeypatch.setattr(evolve_linear, "banded_lu", lambda ab: calls.append(1) or factor(ab))
        p, barriers = self.sandwich(N=24)
        res = monotone_iteration(p, builtin_enzyme(), barriers, M=1.0, k_max=25)
        assert len(res.from_lower) + len(res.from_upper) > 6
        assert len(calls) == 24
        calls.clear()
        seq = linear_monotone_sequence(self.linear(N=30), b0_const=0.6, n_max=5)
        assert len(seq) == 5
        assert len(calls) == 30

    @pytest.mark.parametrize("k", [1, 7, 24])
    def test_non_finite_forcing_names_its_node(self, k):
        from dataclasses import replace

        from fraccomp.elliptic import NonFiniteError
        from fraccomp.evolve_linear import SolverError

        message = f"non-finite operator or right-hand side at time node {k} "
        p, barriers = self.sandwich(N=24)
        # f is infinite at u = 3, where both barriers sit on node k only
        f = SemilinearTerm(eval=lambda x, u: -u / (1.0 + np.abs(u)) + np.where(u == 3.0, np.inf, 0.0))
        lower, upper = barriers.lower.values.copy(), barriers.upper.values.copy()
        lower[k] = upper[k] = 3.0
        with pytest.raises(SolverError, match=re.escape(message)):
            monotone_iteration(p, f, BarrierPair(lower=Field(p.grid, p.tgrid, lower),
                                                 upper=Field(p.grid, p.tgrid, upper)), M=1.0, k_max=25)
        # a non-finite source is refused where the problem is built
        p = self.linear(N=24)
        t_k, x_3 = p.tgrid.nodes[k], p.grid.nodes[3]
        src = lambda x, t: np.where((t == t_k) & (x == x_3), np.inf, 0.5)
        where = f"'source' is not finite at x = {p.grid.nodes[3]:.6g}, t = {p.tgrid.nodes[k]:.6g}"
        with pytest.raises(NonFiniteError, match=f"^{re.escape(where)}$"):
            replace(p, source=src)


class TestBarrierBandE3:
    def test_cosine_initial(self):
        alpha = 0.5
        p = neumann_problem(alpha=alpha, initial=lambda x: 1 + np.cos(math.pi * x),
                            n=48, N=96, c0=0.0)
        band = barrier_bounds_e3(p)
        assert band.report.holds
        assert band.rho == pytest.approx(math.pi ** 2 / gamma(1.5), rel=2e-3)

    def test_flat_initial_degenerates(self):
        p = neumann_problem(initial=1.0, N=64, c0=0.0)
        band = barrier_bounds_e3(p)
        assert band.rho == pytest.approx(1e-12)
        assert band.report.holds  # u <= a within tolerance, and u >= 0
        # the sink really does pull the solution below its initial value
        assert np.min(band.solution.values[-1] - 1.0) < 0.0

    def test_zero_initial_trivial(self):
        p = neumann_problem(initial=0.0, N=32, c0=0.0)
        band = barrier_bounds_e3(p)
        assert band.report.holds
        assert np.max(np.abs(band.solution.values)) < 1e-12

    def test_rejects_flux_violating_initial(self):
        p = neumann_problem(initial=lambda x: x, N=16, c0=0.0)
        with pytest.raises(HypothesisViolation):
            barrier_bounds_e3(p)


class TestBarrierBandE4:
    def test_degenerate_zero_term(self):
        f = SemilinearTerm(eval=lambda x, u: np.zeros_like(u), deriv_u=lambda x, u: np.zeros_like(u),
                           bound_M=0.1)
        p = neumann_problem(initial=1.0, N=64, c0=0.0)
        band = barrier_bounds_e4(p, f, epsilon=0.1, delta1=0.8)
        assert band.report.holds
        assert band.T1 > 10.0  # flat homogeneous case admits a huge window

    def test_linear_growth_term(self):
        f = SemilinearTerm(eval=lambda x, u: u, deriv_u=lambda x, u: np.ones_like(u), bound_M=10.0)
        p = neumann_problem(initial=1.0, N=96, T=0.5, c0=0.0)
        band = barrier_bounds_e4(p, f, epsilon=0.1, delta1=1.0)
        assert band.report.holds
        assert 0.0 < band.T1
        # flat initial: M2 = 0 and the lower coefficient goes negative,
        # i.e. the solution actually grows above its initial value
        assert band.lower_coeff == pytest.approx(-0.5 / gamma(1.5), abs=1e-10)
        assert band.T2 == math.inf

    def test_rejects_small_initial(self):
        f = SemilinearTerm(eval=lambda x, u: u, bound_M=10.0)
        p = neumann_problem(initial=0.1, N=16, c0=0.0)
        with pytest.raises(HypothesisViolation):
            barrier_bounds_e4(p, f, epsilon=0.1, delta1=0.5)


class TestDecay:
    def test_single_mode_exact(self):
        alpha = 0.5
        grid = Grid1D(0.0, 1.0, 20)
        tg = TimeGrid.graded(50.0, 128, 4.0)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
        eig = eigendecompose(assemble(spec, grid))
        phi1 = eig.modes[:, 0]
        p = ProblemSpec(alpha, spec, grid, tg, 0.7 * phi1)
        u = solve_linear_spectral(p, eig)
        rep = asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig, alpha)
        assert rep.holds
        assert rep.fitted_C == pytest.approx(0.7, rel=1e-8)
        assert rep.fitted_C_tail == pytest.approx(0.7, rel=1e-8)

    def test_two_mode_bounded(self):
        alpha = 0.5
        grid = Grid1D(0.0, 1.0, 20)
        tg = TimeGrid.graded(80.0, 160, 4.0)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
        eig = eigendecompose(assemble(spec, grid))
        a0 = eig.modes[:, 0] + 0.5 * eig.modes[:, 1]
        p = ProblemSpec(alpha, spec, grid, tg, a0)
        u = solve_linear_spectral(p, eig)
        rep = asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig, alpha)
        assert rep.holds
        assert np.isfinite(rep.fitted_C)

    def test_enzyme_decay(self):
        alpha = 0.5
        grid = Grid1D(0.0, 1.0, 16)
        tg = TimeGrid.graded(400.0, 256, 4.0)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
        eig = eigendecompose(assemble(spec, grid))
        p = ProblemSpec(alpha, spec, grid, tg, lambda x: 0.5 + 0.3 * np.cos(math.pi * x))
        u = solve_semilinear(p, builtin_enzyme(), eig)
        rep = asymptotic_decay_check(u, np.zeros(grid.n_nodes), eig, alpha)
        assert rep.holds
