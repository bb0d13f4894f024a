import math

import numpy as np
import pytest

from fraccomp.elliptic import EllipticSpec, Grid1D, assemble, eigendecompose
from fraccomp import evolve_semilinear
from fraccomp.evolve_linear import Batch, ProblemSpec, SolverError, solve_linear_spectral, spectral_march
from fraccomp.evolve_semilinear import (
    BoxExitError,
    SemilinearTerm,
    _march_semilinear,
    builtin_burgers,
    builtin_enzyme,
    scalar_fractional_ode,
    solve_semilinear,
)
from fraccomp.fracops import TimeGrid


class TestBuiltinTerms:
    def test_enzyme_values(self):
        f = builtin_enzyme()
        x = np.zeros(3)
        assert np.allclose(f(x, np.zeros(3)), 0.0)
        assert np.allclose(f(x, np.ones(3)), -0.5)
        assert np.allclose(f(x, -np.ones(3)), 0.5)

    def test_enzyme_is_bounded_decreasing(self):
        f = builtin_enzyme()
        u = np.linspace(-50, 50, 1001)
        x = np.zeros_like(u)
        vals = f(x, u)
        ders = f.deriv_u(x, u)
        assert np.all(np.abs(vals) <= f.bound_M)
        assert np.all(np.abs(ders) <= f.bound_M)
        assert np.all(ders <= 0.0)

    def test_enzyme_lipschitz_certificate(self):
        f = builtin_enzyme()
        rng = np.random.default_rng(0)
        u1 = rng.uniform(-3, 3, 400)
        u2 = rng.uniform(-3, 3, 400)
        x = np.zeros_like(u1)
        lhs = np.abs(f(x, u1) - f(x, u2))
        assert np.all(lhs <= f.bound_M * np.abs(u1 - u2) + 1e-15)

    def test_burgers_values(self):
        f = builtin_burgers()
        x = np.linspace(0, 1, 11)
        const = 3.0 * np.ones_like(x)
        assert np.allclose(f(x, const, np.zeros_like(x)), 0.0)
        assert np.allclose(f(x, x, np.ones_like(x)), -x)
        u = np.sin(x)
        assert np.allclose(f(x, u, np.cos(x)), -np.sin(x) * np.cos(x))
        assert f.depends_on_gradient


class TestSolveSemilinear:
    def test_zero_term_matches_linear(self):
        grid = Grid1D(0.0, 1.0, 24)
        tg = TimeGrid.graded(1.0, 48, 4.0)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-0.4, b=0.2)
        p = ProblemSpec(0.5, spec, grid, tg, lambda x: 1 + np.cos(math.pi * x))
        eig = eigendecompose(assemble(spec, grid))
        zero = SemilinearTerm(eval=lambda x, u: np.zeros_like(u), bound_M=0.0)
        u_nl = solve_semilinear(p, zero, eig)
        u_li = solve_linear_spectral(p, eig)
        assert np.max(np.abs(u_nl.values - u_li.values)) <= 1e-12

    def test_scalar_enzyme_reduction(self):
        # flat data + Neumann Laplacian: u(x,t) = y(t) with
        # d_t^alpha (y - 1) = -y/(1+y), cross-checked by the scalar L1 oracle
        alpha = 0.5
        grid = Grid1D(0.0, 1.0, 12)
        tg = TimeGrid.graded(1.0, 512, 2.0 / alpha)
        spec = EllipticSpec(a=1.0, c0=0.0)
        p = ProblemSpec(alpha, spec, grid, tg, 1.0)
        u = solve_semilinear(p, builtin_enzyme())
        y = scalar_fractional_ode(tg, alpha, 1.0, lambda v: -v / (1.0 + abs(v)),
                                  rhs_du=lambda v: -1.0 / (1.0 + abs(v)) ** 2)
        assert np.max(np.std(u.values, axis=1)) < 1e-10  # stays flat
        assert np.max(np.abs(u.values[:, 3] - y)) < 5e-3

    def test_picard_counts_recorded(self):
        grid = Grid1D(0.0, 1.0, 12)
        tg = TimeGrid.graded(0.5, 32, 4.0)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
        p = ProblemSpec(0.5, spec, grid, tg, 0.5)
        _, (counts,) = _march_semilinear(Batch((p,)), [builtin_enzyme()], [None])
        assert counts.shape == (32,)
        assert np.all(counts >= 1)

    def test_box_exit_detected(self):
        grid = Grid1D(0.0, 1.0, 12)
        tg = TimeGrid.uniform(1.0, 16)
        spec = EllipticSpec(a=1.0, c0=0.0)
        growth = SemilinearTerm(eval=lambda x, u: np.ones_like(u), bound_M=1.0, box_m=1.05)
        p = ProblemSpec(0.5, spec, grid, tg, 1.0)
        with pytest.raises(BoxExitError):
            solve_semilinear(p, growth)

    def test_state_guard_only_for_a_finite_box(self, monkeypatch):
        # an infinite box (every built-in term's) can never be left: the
        # march gets no guard and takes no max|u| per step
        guards = []

        def spy(batch, stack, **kw):
            guards.append(kw["state_guard"])
            return spectral_march(batch, stack, **kw)

        monkeypatch.setattr(evolve_semilinear, "spectral_march", spy)
        grid = Grid1D(0.0, 1.0, 12)
        p = ProblemSpec(0.5, EllipticSpec(a=1.0, c0=1.0), grid, TimeGrid.uniform(1.0, 8), 1.0)
        solve_semilinear(p, builtin_enzyme())
        solve_semilinear(p, SemilinearTerm(eval=lambda x, u: -u, box_m=5.0))
        assert guards[0] is None and callable(guards[1])

    def test_initial_continuity(self):
        # ||u_a - u_b|| <= C ||a - b|| with C stable under refinement
        grid = Grid1D(0.0, 1.0, 16)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
        f = builtin_enzyme()
        ratios = []
        for N in (32, 64):
            tg = TimeGrid.graded(1.0, N, 4.0)
            a1 = 1.0 + 0.5 * np.cos(math.pi * grid.nodes)
            a2 = a1 + 0.01 * np.cos(2 * math.pi * grid.nodes)
            u1 = solve_semilinear(ProblemSpec(0.5, spec, grid, tg, a1), f)
            u2 = solve_semilinear(ProblemSpec(0.5, spec, grid, tg, a2), f)
            num = np.max(np.abs(u1.values - u2.values))
            den = np.max(np.abs(a1 - a2))
            ratios.append(num / den)
        assert all(r < 3.0 for r in ratios)
        assert abs(ratios[0] - ratios[1]) < 0.2

    def test_contraction_residuals_decrease(self):
        # once tau is small the per-node Picard counts stay small and bounded
        grid = Grid1D(0.0, 1.0, 16)
        spec = EllipticSpec(a=1.0, c0=1.0, c=-1.0)
        p_coarse = ProblemSpec(0.5, spec, grid, TimeGrid.uniform(1.0, 16), 1.0)
        p_fine = ProblemSpec(0.5, spec, grid, TimeGrid.uniform(1.0, 128), 1.0)
        _, (c1,) = _march_semilinear(Batch((p_coarse,)), [builtin_enzyme()], [None])
        _, (c2,) = _march_semilinear(Batch((p_fine,)), [builtin_enzyme()], [None])
        assert np.mean(c2) <= np.mean(c1)


class TestScalarOracle:
    def test_linear_relaxation(self):
        # d_t^alpha (y - 1) = -y has solution E_{alpha,1}(-t^alpha)
        from fraccomp.special_ml import ml_relaxation

        alpha = 0.6
        tg = TimeGrid.graded(1.0, 1024, 2.0 / alpha)
        y = scalar_fractional_ode(tg, alpha, 1.0, lambda v: -v, rhs_du=lambda v: -1.0)
        ref = np.array([ml_relaxation(alpha, 1.0, t) for t in tg.nodes])
        assert np.max(np.abs(y - ref)) < 5e-4

    def test_non_finite_rhs_names_the_node(self):
        # rhs is NaN below 0.5: the march must stop at the first node whose
        # value falls there instead of returning NaNs
        alpha = 0.6
        tg = TimeGrid.graded(4.0, 64, 2.0 / alpha)
        ref = scalar_fractional_ode(tg, alpha, 1.0, lambda v: -v, rhs_du=lambda v: -1.0)
        first = int(np.argmax(ref <= 0.5))
        assert first > 1
        with pytest.raises(SolverError, match=f"node {first}") as err:
            scalar_fractional_ode(tg, alpha, 1.0, lambda v: -v if v > 0.5 else math.nan,
                                  rhs_du=lambda v: -1.0)
        assert err.value.node == first

    def test_newton_without_convergence_names_the_node(self):
        # a jump in rhs across the root: with d = 2.26 at node 1 the iterate
        # flips between 1 - 1/d and 1 + 1/d and never settles
        tg = TimeGrid.uniform(1.0, 4)
        with pytest.raises(SolverError, match="node 1") as err:
            scalar_fractional_ode(tg, 0.5, 1.0, lambda v: -math.copysign(1.0, v - 0.9),
                                  rhs_du=lambda v: 0.0)
        assert err.value.node == 1
