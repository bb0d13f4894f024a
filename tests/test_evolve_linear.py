import math

import numpy as np
import pytest
from scipy.special import gamma

from fraccomp.elliptic import EllipticSpec, Grid1D, SpaceField, assemble, eigendecompose
from fraccomp.evolve_linear import (
    _RELAX_BLOCK,
    Field,
    ProblemSpec,
    SolverError,
    _Memory,
    duhamel_step,
    homogeneous_solution,
    solve_linear_l1,
    solve_linear_spectral,
)
from fraccomp.fracops import TimeGrid
from fraccomp.special_ml import ml_relaxation, relaxation_batch, relaxation_exponentials


def make_problem(alpha=0.5, n=24, N=64, T=1.0, r=None, **spec_kw):
    grid = Grid1D(0.0, 1.0, n)
    tg = TimeGrid.graded(T, N, r if r is not None else 2.0 / alpha)
    spec = EllipticSpec(**spec_kw)
    return grid, tg, spec


class TestHomogeneous:
    def test_single_mode_decay(self):
        grid, tg, spec = make_problem(c0=1.0)
        eig = eigendecompose(assemble(spec, grid))
        phi2 = eig.modes[:, 2]
        for t in (0.0, 0.3, 1.0):
            got = homogeneous_solution(phi2, eig, 0.5, t)
            ref = ml_relaxation(0.5, eig.lambdas[2], t) * phi2
            assert np.allclose(got, ref, atol=1e-12)

    def test_time_zero_identity(self):
        grid, tg, spec = make_problem(c0=2.0, sigma_lo=1.0, sigma_hi=0.5)
        eig = eigendecompose(assemble(spec, grid))
        a = np.sin(2.5 * grid.nodes) + 1.0
        got = homogeneous_solution(a, eig, 0.4, 0.0)
        assert np.allclose(got, a, atol=1e-10)  # full basis: projection is exact

    def test_classical_heat_limit(self):
        # alpha -> 1 relaxation equals the exponential
        grid, tg, spec = make_problem(c0=1.0)
        eig = eigendecompose(assemble(spec, grid))
        phi = eig.modes[:, 1]
        got = homogeneous_solution(phi, eig, 0.999999, 0.7)
        ref = math.exp(-eig.lambdas[1] * 0.7) * phi
        assert np.max(np.abs(got - ref)) < 1e-4


class TestDuhamelStep:
    def test_zero_source_unchanged(self):
        grid, tg, spec = make_problem(c0=1.0)
        eig = eigendecompose(assemble(spec, grid))
        state = SpaceField(grid, np.cos(grid.nodes))
        out = duhamel_step(state, np.zeros(grid.n_nodes), eig, 0.5, 0.0, 0.1)
        assert np.allclose(out.values, state.values)

    def test_first_step_constant_mode(self):
        grid, tg, spec = make_problem(c0=1.0)
        eig = eigendecompose(assemble(spec, grid))
        lam1 = eig.lambdas[0]
        phi1 = eig.modes[:, 0]
        tau = 0.25
        out = duhamel_step(np.zeros(grid.n_nodes), phi1, eig, 0.5, 0.0, tau)
        ref = (1.0 - ml_relaxation(0.5, lam1, tau)) / lam1 * phi1
        assert np.allclose(out, ref, atol=1e-12)

    def test_exponential_case(self):
        grid, tg, spec = make_problem(c0=1.0)
        eig = eigendecompose(assemble(spec, grid))
        lam1 = eig.lambdas[0]
        phi1 = eig.modes[:, 0]
        tau = 0.5
        out = duhamel_step(np.zeros(grid.n_nodes), phi1, eig, 0.999999, 0.0, tau)
        ref = (1.0 - math.exp(-lam1 * tau)) / lam1 * phi1
        assert np.max(np.abs(out - ref)) < 1e-5


class TestSpectralSolver:
    def test_decoupled_mode_exact(self):
        # b=0, c=-c0: no iteration, each mode decays by its relaxation profile
        grid, tg, spec = make_problem(alpha=0.5, c0=1.0, c=-1.0)
        eig = eigendecompose(assemble(spec, grid))
        phi1 = eig.modes[:, 0]
        p = ProblemSpec(0.5, spec, grid, tg, phi1)
        u = solve_linear_spectral(p, eig)
        for k in (0, 5, 32, 64):
            t = tg.nodes[k]
            ref = ml_relaxation(0.5, eig.lambdas[0], t) * phi1
            assert np.allclose(u.values[k], ref, atol=1e-11)

    def test_pure_neumann_constant_source(self):
        # c = 0, c0 = 0 (lambda_1 = 0 branch): d_t^alpha u = 1 spatially constant,
        # exact solution t^alpha / Gamma(1 + alpha)
        alpha = 0.5
        grid, tg, spec = make_problem(alpha=alpha, c0=0.0)
        p = ProblemSpec(alpha, spec, grid, tg, 0.0, source=lambda x, t: np.ones_like(x))
        u = solve_linear_spectral(p)
        ref = tg.nodes ** alpha / gamma(1.0 + alpha)
        got = u.values[:, grid.n_nodes // 2]
        assert np.max(np.abs(got - ref)) < 1e-12
        # spatially constant
        assert np.max(np.std(u.values, axis=1)) < 1e-12

    def test_constants_preserved(self):
        grid, tg, spec = make_problem(alpha=0.6, c0=0.0)
        p = ProblemSpec(0.6, spec, grid, tg, 1.0)
        u = solve_linear_spectral(p)
        assert np.max(np.abs(u.values - 1.0)) < 1e-12

    def test_linearity(self):
        grid, tg, spec = make_problem(alpha=0.5, c0=1.0, b=0.2, c=-0.3)
        a1 = np.cos(math.pi * grid.nodes)
        a2 = 0.5 + 0.1 * grid.nodes
        f1 = lambda x, t: np.sin(x) * (1 + t)
        f2 = lambda x, t: np.exp(-t) * np.ones_like(x)
        eig = eigendecompose(assemble(spec, grid))
        u1 = solve_linear_spectral(ProblemSpec(0.5, spec, grid, tg, a1, source=f1), eig)
        u2 = solve_linear_spectral(ProblemSpec(0.5, spec, grid, tg, a2, source=f2), eig)
        u12 = solve_linear_spectral(
            ProblemSpec(0.5, spec, grid, tg, a1 + a2, source=lambda x, t: f1(x, t) + f2(x, t)), eig
        )
        assert np.max(np.abs(u12.values - u1.values - u2.values)) < 1e-8

    def test_memory_consistency(self):
        # restriction of a solve equals solving on the restricted grid
        grid, tg, spec = make_problem(alpha=0.4, N=40, c0=1.0, b=0.3, c=-0.5)
        p = ProblemSpec(0.4, spec, grid, tg, lambda x: 1 + np.cos(math.pi * x))
        u = solve_linear_spectral(p)
        half = u.restrict_time(20)
        p2 = ProblemSpec(0.4, spec, grid, half.tgrid, p.initial)
        u2 = solve_linear_spectral(p2)
        assert np.max(np.abs(half.values - u2.values)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.95])
    def test_march_matches_exact_duhamel_sum(self, alpha):
        # q inactive (b = 0, c = -c0): u(t_m) is the eigen-expansion of S(t_m) a
        # plus every past window's exact kernel mass times its projected
        # midpoint source.  c0 = 1e-6 gives a mode that starts on the small
        # branch and then keeps young windows out of the exponential sums.
        from fraccomp.evolve_linear import _kernel_masses

        grid, tg, spec = make_problem(alpha=alpha, n=24, N=256, c0=1e-6, c=-1e-6)
        eig = eigendecompose(assemble(spec, grid))
        src = lambda x, t: (1.0 + np.sin(3.0 * x)) * np.cos(4.0 * t) + t
        p = ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x), source=src)
        u = solve_linear_spectral(p, eig).values
        t = tg.nodes
        a_coef = eig.project(p.initial_values())
        f_coef = np.array([eig.project(src(grid.nodes, 0.5 * (t[k] + t[k + 1]))) for k in range(t.size - 1)])
        lam = np.maximum(eig.lambdas, 0.0)
        ref = np.empty_like(u)
        for m in range(t.size):
            coef = a_coef * np.array([ml_relaxation(alpha, l, t[m]) for l in lam])
            if m:
                masses = _kernel_masses(alpha, eig.lambdas, (t[m] - t[: m + 1]) ** alpha)
                coef = coef + (masses * f_coef[:m].T).sum(axis=1)
            ref[m] = eig.synthesize(coef)
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_kernel_mass_bound(self):
        # accumulated per-mode Duhamel weights over [0, T] telescope to
        # (1 - E(-lam T^alpha))/lam <= 1/lam
        from fraccomp.evolve_linear import _kernel_masses

        alpha, T = 0.6, 2.0
        tg = TimeGrid.graded(T, 37, 3.0)
        lams = np.array([0.5, 3.0, 40.0])
        dt_pow = (T - tg.nodes) ** alpha
        masses = _kernel_masses(alpha, lams, dt_pow)
        total = masses.sum(axis=1)
        ref = (1.0 - np.array([ml_relaxation(alpha, l, T) for l in lams])) / lams
        assert np.allclose(total, ref, rtol=1e-12)
        assert np.all(total <= 1.0 / lams + 1e-15)


def exact_duhamel(p, eig):
    """The march's fields from the eigen-expansion of S(t_m) a plus every past
    window's exact kernel mass times its projected midpoint source (q inactive)."""
    from fraccomp.evolve_linear import _kernel_masses

    t, alpha = p.tgrid.nodes, p.alpha
    a_coef = eig.project(p.initial_values())
    f_coef = np.array([eig.project(p.source_at(0.5 * (t[k] + t[k + 1]))) for k in range(t.size - 1)])
    lam = np.maximum(eig.lambdas, 0.0)
    ref = np.empty((t.size, p.grid.n_nodes))
    for m in range(t.size):
        coef = a_coef * np.array([ml_relaxation(alpha, l, t[m]) for l in lam])
        if m:
            masses = _kernel_masses(alpha, eig.lambdas, (t[m] - t[: m + 1]) ** alpha)
            coef = coef + (masses * f_coef[:m].T).sum(axis=1)
        ref[m] = eig.synthesize(coef)
    return ref


class TestBlockedMarch:
    """The march fetches relaxation values _RELAX_BLOCK nodes at a time and
    advances only the live band of exponential terms of each mode."""

    def test_relaxation_batch_is_pointwise(self):
        # a value does not depend on the batch it is computed in, which is
        # what lets the march fetch a block of nodes at once
        rng = np.random.default_rng(3)
        for alpha in (0.3, 0.95):
            x = np.concatenate([[0.0, 1e-3, 0.05, 1.0, 30.0], 10.0 ** rng.uniform(-6.0, 4.0, 400)])
            batch = relaxation_batch(alpha, x)
            alone = np.array([relaxation_batch(alpha, x[i : i + 1])[0] for i in range(x.size)])
            assert np.array_equal(batch, alone)
            assert np.array_equal(relaxation_batch(alpha, x.reshape(5, 81)).ravel(), batch)

    @pytest.mark.parametrize("alpha", [0.3, 0.95])
    def test_several_blocks_match_exact_duhamel_sum(self, alpha):
        grid, tg, spec = make_problem(alpha=alpha, n=24, N=2 * _RELAX_BLOCK + 5, c0=1e-6, c=-1e-6)
        eig = eigendecompose(assemble(spec, grid))
        src = lambda x, t: (1.0 + np.sin(3.0 * x)) * np.cos(4.0 * t) + t
        p = ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x), source=src)
        u = solve_linear_spectral(p, eig).values
        ref = exact_duhamel(p, eig)
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_restriction_inside_a_block_is_exact(self):
        # node 45 lies inside the second block of nodes; q is active, so the
        # Picard sweeps and the running sums both enter
        grid, tg, spec = make_problem(alpha=0.4, N=3 * _RELAX_BLOCK, c0=1.0, b=0.3, c=-0.5)
        p = ProblemSpec(0.4, spec, grid, tg, lambda x: 1 + np.cos(math.pi * x),
                        source=lambda x, t: np.sin(2.0 * x) + t)
        u = solve_linear_spectral(p)
        half = u.restrict_time(45)
        u2 = solve_linear_spectral(ProblemSpec(0.4, spec, grid, half.tgrid, p.initial, source=p.source))
        assert np.array_equal(half.values, u2.values)

    def test_memory_holds_only_the_band(self):
        # the rule has 1392 terms at alpha = 0.05; no modes x terms array is kept
        alpha, n = 0.05, 1024
        n_terms = relaxation_exponentials(alpha).log_rho.size
        lam = 1.0 + (math.pi * np.arange(n + 2)) ** 2
        t = TimeGrid.graded(1.0, 64, 2.0 / alpha).nodes
        memory = _Memory(alpha, lam, t)
        g_hist = np.ones((t.size - 1, lam.size))
        for m in range(1, t.size):
            memory.advance(m, g_hist)
        arrays = [a for a in vars(memory).values() if isinstance(a, np.ndarray)]
        assert max(a.size for a in arrays) < lam.size * n_terms // 4
        per_mode = [a for a in arrays if a.ndim == 2 and a.shape[0] == lam.size]
        assert per_mode and all(a.shape[1] < n_terms // 4 for a in per_mode)


class TestL1Solver:
    def test_constants_preserved(self):
        grid, tg, spec = make_problem(alpha=0.7, c0=0.0)
        p = ProblemSpec(0.7, spec, grid, tg, 1.0)
        u = solve_linear_l1(p)
        assert np.max(np.abs(u.values - 1.0)) < 1e-11

    def test_single_mode_matches_spectral(self):
        alpha = 0.5
        grid, tg, spec = make_problem(alpha=alpha, n=32, N=256, c0=1.0, c=-1.0)
        eig = eigendecompose(assemble(spec, grid))
        phi1 = eig.modes[:, 1]
        p = ProblemSpec(alpha, spec, grid, tg, phi1)
        ul1 = solve_linear_l1(p)
        ref = np.array([ml_relaxation(alpha, eig.lambdas[1], t) for t in tg.nodes])
        got = ul1.values @ (eig.weights * phi1)
        assert np.max(np.abs(got - ref)) < 2e-3

    def test_scalar_ode_oracle(self):
        # spatially flat data: d_t^alpha y + y = 1, y(0) = 0, solution 1 - E(-t^a)
        alpha = 0.6
        grid, tg, spec = make_problem(alpha=alpha, N=512, c0=1.0, c=-1.0, b=None)
        srcmat = np.ones((tg.nodes.size, grid.n_nodes))
        p = ProblemSpec(alpha, spec, grid, tg, 0.0, source=srcmat)
        u = solve_linear_l1(p)
        ref = np.array([1.0 - ml_relaxation(alpha, 1.0, t) for t in tg.nodes])
        assert np.max(np.abs(u.values[:, 5] - ref)) < 2e-3


@pytest.mark.parametrize("solve", [solve_linear_spectral, solve_linear_l1])
def test_non_finite_coefficient_solver_error(solve):
    # c = 1/(x - 0.5) is infinite on the node x = 0.5; the command line rejects
    # it when the problem is built, a ProblemSpec built directly reaches the
    # solver, which must fail with a SolverError naming the node
    grid, tg, spec = make_problem(n=33, N=16, c0=1.0, c=lambda x, t: 1.0 / (x - 0.5))
    p = ProblemSpec(0.5, spec, grid, tg, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match=r"non-finite .* at time node 1 \(first at x = 0\.5\)"):
            solve(p)


class TestCrossOracle:
    def test_agreement_and_rate(self):
        alpha = 0.5
        errs = []
        for N in (64, 128, 256):
            grid, tg, spec = make_problem(
                alpha=alpha, n=24, N=N,
                a=lambda x: 1.0 + 0.2 * np.sin(math.pi * x),
                b=0.3, c=-0.2, c0=1.0,
            )
            a0 = 1.0 + np.cos(math.pi * grid.nodes)
            src = lambda x, t: np.sin(2 * x) * np.exp(-t) + 0.5
            p = ProblemSpec(alpha, spec, grid, tg, a0, source=src)
            us = solve_linear_spectral(p)
            ul = solve_linear_l1(p)
            errs.append(np.max(np.abs(us.values - ul.values)))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert errs[-1] < 2e-3
        assert min(rates) >= 1.0
