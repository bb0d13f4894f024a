import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma

import fraccomp.evolve_linear as evolve_linear
from fraccomp.elliptic import (
    Coefficient,
    EllipticSpec,
    Grid1D,
    NonFiniteError,
    assemble,
    eigendecompose,
)
from fraccomp.evolve_linear import (
    _BAND_LO,
    _BATCH_MODES,
    _ORDERS,
    _RELAX_BLOCK,
    _START_MAX,
    Batch,
    ModeStack,
    ProblemSpec,
    SolverError,
    _Memory,
    _extrapolation_weights,
    solve_linear_l1,
    solve_linear_spectral,
    solve_linear_spectral_many,
    spectral_march,
)
from fraccomp.evolve_semilinear import (
    BoxExitError,
    SemilinearTerm,
    _march_semilinear,
    builtin_burgers,
    builtin_enzyme,
    solve_semilinear,
    solve_semilinear_many,
)
from fraccomp.expressions import parse_expression
from fraccomp.fracops import TimeGrid
from fraccomp.randomspec import random_linear_problem
from fraccomp.special_ml import ml_relaxation, relaxation_batch, relaxation_deficit, relaxation_exponentials
from fraccomp.suites import run_suite


def march(problems):
    """spectral_march on the batch of the problems: the field values and the
    sweep counts."""
    ops = [assemble(p.elliptic, p.grid) for p in problems]
    return spectral_march(Batch(problems), ModeStack([eigendecompose(op) for op in ops], ops))


def march_one(p):
    """march on a batch of one."""
    u, counts = march([p])
    return u[0], counts[0]


def assert_matches_solo_marches(problems, u, counts):
    """Each problem's field and sweep counts in a batch's march are its own march's."""
    for j, p in enumerate(problems):
        solo_u, solo_counts = march_one(p)
        assert np.max(np.abs(u[j] - solo_u)) <= 1e-13 * np.max(np.abs(solo_u))
        assert np.array_equal(counts[j], solo_counts)


def block_lengths(N, modes):
    """The nodes of each block of a march of N steps over `modes` modes: at
    least _RELAX_BLOCK a block, _FETCH_POINTS // modes where that is more,
    and at most the march."""
    block = min(max(_RELAX_BLOCK, evolve_linear._FETCH_POINTS // modes), N)
    return [min(block, N - s) for s in range(0, N, block)]


@pytest.fixture
def fetches(monkeypatch):
    """A fetch budget of _RELAX_BLOCK points, under which every block of a
    march of several modes spans _RELAX_BLOCK nodes and each relaxation call
    takes one mode; returns the list of the nodes at which each memory
    fetched."""
    monkeypatch.setattr(evolve_linear, "_FETCH_POINTS", _RELAX_BLOCK)
    starts = []
    fetch = _Memory._fetch

    def spy(self, m):
        starts.append(m)
        fetch(self, m)

    monkeypatch.setattr(_Memory, "_fetch", spy)
    return starts


def make_problem(alpha=0.5, n=24, N=64, T=1.0, r=None, **spec_kw):
    grid = Grid1D(0.0, 1.0, n)
    tg = TimeGrid.graded(T, N, r if r is not None else 2.0 / alpha)
    spec = EllipticSpec(**spec_kw)
    return grid, tg, spec


def at_the_floor(alpha, tg, **spec_kw):
    """EllipticSpec(c = -s, **spec_kw) with s the least splitting shift of
    the time grid tg (evolve_linear._shift_floor): Q is 0, and T0's zero
    mode, the Neumann ground mode, marches at the floor itself."""
    return EllipticSpec(c=-evolve_linear._shift_floor(alpha, tg.nodes), **spec_kw)


def homogeneous_solution(a, eig, alpha, t):
    """S(t) a: the relaxation-damped eigen-expansion of the initial value,
    the march's oracle without a forcing."""
    coef = eig.project(np.asarray(a, dtype=float))
    damped = coef * relaxation_batch(alpha, eig.lambdas * t ** alpha)
    return eig.synthesize(damped)


class TestHomogeneous:
    def test_single_mode_decay(self):
        grid, tg, spec = make_problem()
        eig = eigendecompose(assemble(spec, grid))
        phi2 = eig.modes[:, 2]
        for t in (0.0, 0.3, 1.0):
            got = homogeneous_solution(phi2, eig, 0.5, t)
            ref = ml_relaxation(0.5, eig.lambdas[2], t) * phi2
            assert np.allclose(got, ref, atol=1e-12)

    def test_time_zero_identity(self):
        grid, tg, spec = make_problem(sigma_lo=1.0, sigma_hi=0.5)
        eig = eigendecompose(assemble(spec, grid))
        a = np.sin(2.5 * grid.nodes) + 1.0
        got = homogeneous_solution(a, eig, 0.4, 0.0)
        assert np.allclose(got, a, atol=1e-10)  # full basis: projection is exact

    def test_classical_heat_limit(self):
        # alpha -> 1 relaxation equals the exponential
        grid, tg, spec = make_problem()
        eig = eigendecompose(assemble(spec, grid))
        phi = eig.modes[:, 1]
        got = homogeneous_solution(phi, eig, 0.999999, 0.7)
        ref = math.exp(-eig.lambdas[1] * 0.7) * phi
        assert np.max(np.abs(got - ref)) < 1e-4


def window_masses(alpha, lam, ages):
    """The kernel masses of the windows between the ages^(1/alpha), one row
    per mode: hi phi(lam hi) - lo phi(lam lo) over the powers hi, lo of each
    window's ages, with phi from relaxation_deficit."""
    g = ages * relaxation_deficit(alpha, lam[:, None] * ages)
    return g[:, :-1] - g[:, 1:]


class TestDuhamelStep:
    """The Duhamel mass of a step from rest, s^alpha phi(lam s^alpha) with
    the step's age s and phi from special_ml.relaxation_deficit."""

    def test_first_step_constant_mode(self):
        # the eigenvalues of A = T0 + 1 (c = -1), all positive
        grid, tg, spec = make_problem(c=-1.0)
        lam = eigendecompose(assemble(spec, grid)).shifted(1.0).lambdas
        tau = 0.25
        masses = window_masses(0.5, lam, np.array([tau ** 0.5, 0.0]))[:, 0]
        ref = (1.0 - np.array([ml_relaxation(0.5, l, tau) for l in lam])) / lam
        assert np.allclose(masses, ref, rtol=1e-12, atol=0.0)

    def test_exponential_case(self):
        grid, tg, spec = make_problem(c=-1.0)
        lam1 = eigendecompose(assemble(spec, grid)).shifted(1.0).lambdas[0]
        tau, alpha = 0.5, 0.999999
        mass = tau ** alpha * relaxation_deficit(alpha, lam1 * tau ** alpha)
        assert abs(mass - (1.0 - math.exp(-lam1 * tau)) / lam1) < 1e-5
        assert tau * relaxation_deficit(1.0, lam1 * tau) == pytest.approx(
            -math.expm1(-lam1 * tau) / lam1, rel=1e-15)


class TestSpectralSolver:
    def test_decoupled_mode_exact(self):
        # b = 0, c = -1: the shift 1 leaves Q = 0, no step sweeps, and each
        # mode decays by its relaxation profile at A's eigenvalue lambda + 1
        grid, tg, spec = make_problem(alpha=0.5, c=-1.0)
        eig = eigendecompose(assemble(spec, grid))
        phi1 = eig.modes[:, 0]
        u, counts = march_one(ProblemSpec(0.5, spec, grid, tg, phi1))
        assert not counts.any()
        for k in (0, 5, 32, 64):
            t = tg.nodes[k]
            ref = ml_relaxation(0.5, eig.lambdas[0] + 1.0, t) * phi1
            assert np.allclose(u[k], ref, atol=1e-11)

    def test_pure_neumann_constant_source(self):
        # d_t^alpha u - c u = 1 for a constant c, spatially constant: exactly
        # t^alpha phi(-c t^alpha), t^alpha / Gamma(1 + alpha) without c.
        # Without c the sweeps carry Q = s u with the shift floor s, and its
        # splitting error (1.0e-8 here) enters; c = -s leaves Q = 0 and only
        # the exponential sums' error (2.3e-11)
        alpha = 0.5
        grid, tg, _ = make_problem(alpha=alpha)
        tau, floor = tg.nodes ** alpha, at_the_floor(alpha, tg)
        for spec, ref, bound in ((EllipticSpec(), tau / gamma(1.0 + alpha), 2e-8),
                                 (floor, tau * relaxation_deficit(alpha, -floor.c * tau), 1e-10)):
            u = solve_linear_spectral(ProblemSpec(alpha, spec, grid, tg, 0.0, source=lambda x, t: np.ones_like(x)))
            assert np.max(np.abs(u.values[:, grid.n_nodes // 2] - ref)) <= bound
            assert np.max(np.std(u.values, axis=1)) < 1e-12  # spatially constant

    def test_constants_preserved(self):
        # without c, Q = s u with the shift floor s: the constant is still the fixed point
        grid, tg, spec = make_problem(alpha=0.6)
        p = ProblemSpec(0.6, spec, grid, tg, 1.0)
        u = solve_linear_spectral(p)
        assert np.max(np.abs(u.values - 1.0)) < 1e-12

    def test_linearity(self):
        grid, tg, spec = make_problem(alpha=0.5, b=0.2, c=-0.3)
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
        grid, tg, spec = make_problem(alpha=0.4, N=40, b=0.3, c=-0.5)
        p = ProblemSpec(0.4, spec, grid, tg, lambda x: 1 + np.cos(math.pi * x))
        u = solve_linear_spectral(p)
        half = u.restrict_time(20)
        p2 = ProblemSpec(0.4, spec, grid, half.tgrid, p.initial)
        u2 = solve_linear_spectral(p2)
        assert np.max(np.abs(half.values - u2.values)) < 1e-12

    @pytest.mark.parametrize("alpha, T, r, sigma, n, a", [
        pytest.param(0.3, 1.0, None, 0.0, 24, 1.0, id="0.3"),
        pytest.param(0.5, 1.0, None, 0.0, 24, 1.0, id="0.5"),
        pytest.param(0.95, 1.0, None, 0.0, 24, 1.0, id="0.95"),
        pytest.param(0.3, 1e4, None, 0.0, 24, 1.0, id="0.3-T=1e4-sigma-to-1e-30"),
        pytest.param(0.5, 1e4, 12.0, 0.0, 24, 1.0, id="0.5-T=1e4-r=12-small-modes"),
        pytest.param(0.5, 1.0, 8.0, 1.0, 24, 1.0, id="0.5-r=8-robin"),
        pytest.param(0.9, 1e4, None, 0.0, 8, 1e6, id="0.9-T=1e4-a=1e6-ground-below-minus-floor"),
    ])
    def test_march_matches_exact_duhamel_sum(self, alpha, T, r, sigma, n, a):
        # q inactive (b = 0, c = -s at the shift floor s): u(t_m) is the
        # eigen-expansion of S(t_m) a plus every past window's exact kernel
        # mass times its projected midpoint source.  The Neumann ground mode
        # is the floor itself, the least eigenvalue the memory divides its
        # history by.  At T = 1e4 its windows' ages reach sigma =
        # lam^(1/alpha) dt = 2.1e-30 on the rule, far below the 1e-20 where
        # the rule used to end.  r = 12 puts seven modes below
        # lam t_2^alpha = 1e-8 at node 2; the Robin ends lift every mode off
        # it.  At a = 1e6, n = 8 stevd puts T0's ground eigenvalue at
        # -4.6e-8, below minus the floor 2.1e-8: shifted, it is only above 0
        # because eigendecompose takes it as 0
        grid, tg, _ = make_problem(alpha=alpha, n=n, N=256, T=T, r=r)
        spec = at_the_floor(alpha, tg, a=a, sigma_lo=sigma, sigma_hi=sigma)
        src = lambda x, t: (1.0 + np.sin(3.0 * x)) * np.cos(4.0 * t / T) + t / T
        assert_exact_duhamel(ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x), source=src))

    def test_kernel_mass_bound(self):
        # accumulated per-mode Duhamel weights over [0, T] telescope to
        # T^alpha phi(lam T^alpha) = (1 - E(-lam T^alpha))/lam <= 1/lam, and
        # to T^alpha / Gamma(alpha + 1) at lam = 0
        alpha, T = 0.6, 2.0
        tg = TimeGrid.graded(T, 37, 3.0)
        lams = np.array([0.0, 1e-12, 0.5, 3.0, 40.0])
        dt_pow = (T - tg.nodes) ** alpha
        total = window_masses(alpha, lams, dt_pow).sum(axis=1)
        closed = T ** alpha * relaxation_deficit(alpha, lams * T ** alpha)
        assert np.allclose(total, closed, rtol=1e-13, atol=0.0)
        assert total[0] == pytest.approx(T ** alpha / gamma(alpha + 1.0), rel=1e-13)
        ref = (1.0 - np.array([ml_relaxation(alpha, l, T) for l in lams[2:]])) / lams[2:]
        assert np.allclose(total[2:], ref, rtol=1e-12, atol=0.0)
        assert np.all(total[1:] <= 1.0 / lams[1:] + 1e-15)


def assert_exact_duhamel(p):
    """p's spectral march, to 1e-9 of sup |u|, against the eigen-expansion of
    S(t_m) a plus every past window's exact kernel mass times its projected
    midpoint source (q inactive: no b, a constant c), over A's pairs, T0's
    shifted by -c.  A window's mass is hi phi(lam hi) - lo phi(lam lo) over
    the powers hi, lo of its ends' ages (window_masses)."""
    t, alpha = p.tgrid.nodes, p.alpha
    eig = eigendecompose(assemble(p.elliptic, p.grid))
    u = solve_linear_spectral(p, eig).values
    eig = eig.shifted(-p.elliptic.c)
    a_coef = eig.project(p.initial_values())
    f_coef = np.array([eig.project(p.source_at(0.5 * (t[k] + t[k + 1]))) for k in range(t.size - 1)])
    ref = np.empty((t.size, p.grid.n_nodes))
    for m in range(t.size):
        coef = a_coef * np.array([ml_relaxation(alpha, l, t[m]) for l in eig.lambdas])
        if m:
            masses = window_masses(alpha, eig.lambdas, (t[m] - t[: m + 1]) ** alpha)
            coef = coef + (masses * f_coef[:m].T).sum(axis=1)
        ref[m] = eig.synthesize(coef)
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


class TestArraySource:
    """A source, a, b or c is None, a number or a callable; an array, a list
    or a string is refused, with its key, when the spec or the problem is
    built."""

    @pytest.mark.parametrize("bad", [[[1.0, 2.0], [1.0]], np.ones((30, 10)), np.ones(41), np.ones((40, 10)),
                                     np.ones((41, 3)), np.ones((41, 10, 1)), "ones"])
    def test_a_bad_source_is_refused_when_built(self, bad):
        grid, tg, spec = make_problem(n=8, N=40)
        with pytest.raises(ValueError, match=r"^source must be None, a number or a callable of \(x, t\); "
                                             r"got (list|ndarray|str)$"):
            ProblemSpec(0.5, spec, grid, tg, 1.0, source=bad)

    @pytest.mark.parametrize("key", ["a", "b", "c"])
    @pytest.mark.parametrize("bad", [[1.0, 2.0], np.ones((41, 10)), "ones"])
    def test_a_bad_coefficient_is_refused_when_built(self, key, bad):
        args = "x" if key == "a" else r"\(x, t\)"
        with pytest.raises(ValueError, match=rf"^{key} must be None, a number or a callable of {args}; "
                                             rf"got {type(bad).__name__}$"):
            EllipticSpec(**{key: bad})

    @pytest.mark.parametrize("number", [2.0, np.float64(-0.5), 3])
    def test_a_number_is_a_constant_source(self, number):
        # a number was refused as an array of the wrong shape; it is the
        # constant kind, as a number b or c is, and solves as its callable
        grid, tg, spec = make_problem(n=8, N=40, c=lambda x, t: -0.5 * np.cos(x + t))
        p = ProblemSpec(0.5, spec, grid, tg, 1.0, source=number)
        assert p.coefficients["source"].kind == "constant"
        same = replace(p, source=lambda x, t: float(number) * np.ones_like(x) * np.ones_like(t))
        for solve in (solve_linear_spectral, solve_linear_l1):
            assert np.array_equal(solve(p).values, solve(same).values)


class TestBlockedMarch:
    """The march fetches relaxation values a block of nodes at a time and
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
    def test_several_blocks_match_exact_duhamel_sum(self, alpha, fetches):
        grid, tg, _ = make_problem(alpha=alpha, n=24, N=2 * _RELAX_BLOCK + 5)
        src = lambda x, t: (1.0 + np.sin(3.0 * x)) * np.cos(4.0 * t) + t
        assert_exact_duhamel(ProblemSpec(alpha, at_the_floor(alpha, tg), grid, tg,
                                         lambda x: 1.0 + np.cos(math.pi * x), source=src))
        assert fetches == [1, 1 + _RELAX_BLOCK, 1 + 2 * _RELAX_BLOCK]

    def test_restriction_inside_a_block_is_exact(self, fetches):
        # node 45 lies inside the second block of nodes; q is active, so the
        # Picard sweeps and the running sums both enter
        grid, tg, spec = make_problem(alpha=0.4, N=3 * _RELAX_BLOCK, b=0.3, c=-0.5)
        p = ProblemSpec(0.4, spec, grid, tg, lambda x: 1 + np.cos(math.pi * x),
                        source=lambda x, t: np.sin(2.0 * x) + t)
        u = solve_linear_spectral(p)
        half = u.restrict_time(45)
        u2 = solve_linear_spectral(ProblemSpec(0.4, spec, grid, half.tgrid, p.initial, source=p.source))
        assert np.array_equal(half.values, u2.values)
        assert fetches == [1, 33, 65] + [1, 33]

    def test_memory_holds_only_the_band(self):
        # the rule has 2769 terms at alpha = 0.05; no modes x terms array is
        # kept, and the band is 24 columns wide
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
        assert per_mode and all(a.shape[1] <= 24 for a in per_mode)


class TestFetchBudget:
    """A block spans max(_RELAX_BLOCK, _FETCH_POINTS // modes) nodes of the
    march, and each relaxation call of a block takes _FETCH_POINTS // block
    columns of the batch's modes.  Both functions are pointwise, so the
    fields do not depend on the split."""

    @pytest.mark.parametrize("modes, N, block", [
        (130, 1024, 63),  # a criterion-5 spec, n = 128
        (462, 64, _RELAX_BLOCK),  # a verify ensemble of 21 problems at n = 20
        (22, 256, 256),  # a single verify solve: the whole march
        (22, 40, 40),
    ])
    def test_block_nodes(self, modes, N, block):
        t = TimeGrid.graded(1.0, N, 4.0).nodes
        assert _Memory(0.5, np.ones(modes), t).block == block == block_lengths(N, modes)[0]

    @staticmethod
    def fields(problems, monkeypatch, budget=None):
        """The fields and sweep counts of one march of the batch, under the
        given fetch budget (default: the module's), and the shapes of the
        relaxation_batch calls it made."""
        shapes = []

        def spy(alpha, x):
            shapes.append(x.shape)
            return relaxation_batch(alpha, x)

        with monkeypatch.context() as mp:
            if budget is not None:
                mp.setattr(evolve_linear, "_FETCH_POINTS", budget)
            mp.setattr(evolve_linear, "relaxation_batch", spy)
            u, counts = march(problems)
        return u, counts, shapes

    @staticmethod
    def problems(alpha, S):
        grid, tg, _ = make_problem(alpha=alpha, n=24, N=100)
        specs = [
            EllipticSpec(b=lambda x, t: 0.3 * np.cos(2.0 * x + t), c=lambda x, t: -0.5 * np.sin(3.0 * x) * t),
            EllipticSpec(c=-0.3, sigma_lo=1.5, sigma_hi=0.5),
            EllipticSpec(b=0.2),
        ]
        src = lambda x, t: np.sin(2.0 * x) + np.cos(3.0 * t)
        return [ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + 0.5 * np.cos(math.pi * x), source=src)
                for spec in specs[:S]]

    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("alpha", [0.3, 0.95])
    def test_fields_do_not_depend_on_the_budget(self, alpha, S, monkeypatch):
        problems = self.problems(alpha, S)
        modes = problems[0].grid.n_nodes
        u, counts, shapes = self.fields(problems, monkeypatch)
        # the default budget: one block of the whole march, one call for the batch
        assert shapes == [(200, S * modes)]
        # 32-node blocks and one problem's modes per call
        u32, counts32, shapes32 = self.fields(problems, monkeypatch, _RELAX_BLOCK * modes)
        assert shapes32 == [(2 * _RELAX_BLOCK, modes)] * 3 * S + [(8, modes)] * S
        assert np.array_equal(u, u32) and np.array_equal(counts, counts32)
        assert counts[0].any()


class TestModeSpaceSweeps:
    """The Picard sweeps run on the mode coefficients of u_m, from the
    extrapolation of the last two nodes."""

    def test_sweep_count_below_the_physical_space_iteration(self):
        # the sweeps in physical space from u_{m-1}, which this march
        # replaced, took 1293 sweeps on this spec
        p = random_linear_problem(np.random.default_rng(5), 0.5, n=32, N=256, with_drift=True)
        _, counts = march_one(p)
        assert np.all(counts >= 1)
        assert counts.sum() < 1293

    @staticmethod
    def random_step_grid():
        """Four steps of 0.01, then 96 of 1e-9 to 0.1 in random order."""
        rng = np.random.default_rng(4)
        steps = np.concatenate([[0.01] * 4, 10.0 ** rng.uniform(-9.0, -1.0, 96)])
        return TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))

    def test_random_steps_match_exact_duhamel_sum(self):
        # c = -s at the shift floor s with Neumann ends on [0, 300]: the
        # ground mode is lambda = s and the next 1e-4 + s.  Steps of 1e-9 to
        # 0.1 in random order put windows of every age side by side in the
        # sums, each folded at the node after its end
        alpha, L = 0.3, 300.0
        tg = self.random_step_grid()
        grid, spec = Grid1D(0.0, L, 24), at_the_floor(alpha, tg)
        src = lambda x, t: (1.0 + np.sin(3.0 * x / L)) * np.cos(4.0 * t) + t
        assert_exact_duhamel(ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x / L), source=src))

    @pytest.mark.parametrize("alpha, L, steep", [pytest.param(0.3, 300.0, False, id="random-steps"),
                                                 pytest.param(0.01, 1.0, True, id="0.01-r=200")])
    def test_windows_are_old_enough_for_the_rule(self, alpha, L, steep, monkeypatch):
        # the memory folds window m - 2 into the sums at node m, at an age
        # of at least the grid's smallest step, and the rule holds from
        # sigma_lo: the shift floor makes sigma_lo / lambda^(1/alpha) at most
        # that step for every shifted eigenvalue.  On the random steps and on
        # the steepest graded grid (alpha = 0.01, r = 200, where the floor is
        # the rule's edge itself), without c
        tg = make_problem(alpha=alpha, n=32, N=32)[1] if steep else self.random_step_grid()
        seen = []
        init = _Memory.__init__
        monkeypatch.setattr(_Memory, "__init__", lambda self, a, lam, t: seen.append(lam) or init(self, a, lam, t))
        solve_linear_spectral(ProblemSpec(alpha, EllipticSpec(), Grid1D(0.0, L, 32), tg,
                                          lambda x: 1.0 + np.cos(math.pi * x / L), source=1.0))
        edge = relaxation_exponentials(alpha).sigma_lo * np.exp(-np.log(seen[0]) / alpha)
        # T0's zero eigenvalue is zero to rounding only, -2.7e-13 at alpha =
        # 0.01, which the power 1 / alpha = 100 takes to 2.6e-11 of the edge
        assert np.max(edge) <= np.min(np.diff(tg.nodes)) * (1.0 + 1e-9)

    def test_burgers_converges_and_restricts_exactly(self):
        # u u_x needs the derivative of every sweep's state; the predictor
        # reads t[0..m] only, so a restricted solve repeats the longer one
        grid, tg, spec = make_problem(alpha=0.6, n=24, N=48, b=0.3, c=-0.5)
        p = ProblemSpec(0.6, spec, grid, tg, lambda x: 1.0 + 0.5 * np.cos(math.pi * x))
        (u,), (counts,) = _march_semilinear(Batch((p,)), [builtin_burgers(0.8)], [None])
        assert np.all(counts >= 1)
        assert np.all(np.isfinite(u.values))
        half = u.restrict_time(30)
        u2 = solve_semilinear(ProblemSpec(0.6, spec, grid, half.tgrid, p.initial), builtin_burgers(0.8))
        assert np.array_equal(half.values, u2.values)


class TestStepForcing:
    """Each sweep projects the whole step forcing, the half that u_{m-1}
    fixes with the swept half, in one product."""

    def test_one_projection_per_sweep(self, monkeypatch):
        grid, tg, spec = make_problem(n=24, N=48, b=lambda x, t: 0.3 * np.cos(2.0 * x + t),
                                      c=lambda x, t: -0.3 * np.sin(2.0 * x) * np.cos(t))
        p = ProblemSpec(0.5, spec, grid, tg, lambda x: 1.0 + 0.5 * np.cos(math.pi * x),
                        source=lambda x, t: np.sin(3.0 * x) + t)
        op = assemble(p.elliptic, p.grid)
        eig = eigendecompose(op)
        proj = (eig.modes * eig.weights[:, None]).T
        products = []
        matvec = np.matvec

        def spy(a, v):
            if np.shape(a) == proj.shape and np.array_equal(a, proj):
                products.append(v.shape)
            return matvec(a, v)

        monkeypatch.setattr(np, "matvec", spy)
        _, counts = spectral_march(Batch((p,)), ModeStack((eig,), (op,)))
        # every step sweeps: one product per sweep, none for the fixed half
        assert counts.min() >= 1
        assert len(products) == counts.sum()

    @staticmethod
    def overflowing(m_bad, **spec_kw):
        """A problem on n = 24, N = 16 whose source and c jump to 1.5e308 for
        x > 0.5 from the midpoint of step m_bad on: finite at every time it
        is sampled, but F + (c + s) u_{m-1} / 2 overflows at node m_bad,
        first at the node x = 0.52."""
        grid, tg, _ = make_problem(n=24, N=16)
        t_on = tg.nodes[m_bad - 1]
        huge = lambda x, t, v: np.where((x > 0.5) & (t > t_on), 1.5e308, v)
        spec = EllipticSpec(c=lambda x, t: huge(x, t, -0.2 * np.cos(x)), **spec_kw)
        return ProblemSpec(0.5, spec, grid, tg, 1.0, source=lambda x, t: huge(x, t, 1.0))

    def test_overflowing_fixed_forcing_solo(self):
        with pytest.raises(SolverError, match=r"^non-finite step forcing at time node 6 \(first at x = 0\.52\)$") as exc:
            march_one(self.overflowing(6))
        assert exc.value.node == 6 and exc.value.problem is None

    def test_overflowing_fixed_forcing_in_a_batch(self):
        grid, tg, spec = make_problem(n=24, N=16, c=lambda x, t: -0.2 * np.cos(x))
        problems = [self.overflowing(5, b=0.3) if j == 2 else ProblemSpec(0.5, spec, grid, tg, 1.0, source=1.0)
                    for j in range(5)]
        message = r"^problem 2: non-finite step forcing at time node 5 \(first at x = 0\.52\)$"
        with pytest.raises(SolverError, match=message) as exc:
            solve_linear_spectral_many(problems)
        assert exc.value.problem == 2 and exc.value.node == 5

    def test_overflowing_fixed_forcing_beside_idle_problems(self):
        # problems 0 and 1 have no b and a constant c = -1, so Q is 0:
        # nothing couples their modes, and at every step they take u_m
        # directly while 2 and 3 sweep
        grid, tg, spec = make_problem(n=24, N=16, c=lambda x, t: -0.2 * np.cos(x))
        idle = ProblemSpec(0.5, EllipticSpec(c=-1.0), grid, tg, 1.0, source=1.0)
        problems = [idle, idle, self.overflowing(7), ProblemSpec(0.5, spec, grid, tg, 1.0, source=1.0)]
        message = r"^problem 2: non-finite step forcing at time node 7 \(first at x = 0\.52\)$"
        with pytest.raises(SolverError, match=message) as exc:
            solve_linear_spectral_many(problems)
        assert exc.value.problem == 2 and exc.value.node == 7
        # the same batch without the overflow marches, the idle ones without sweeps
        problems[2] = problems[3]
        u, counts = march(problems)
        assert np.all(np.isfinite(u))
        assert not counts[:2].any() and np.all(counts[2:] >= 1)


class TestTaylorMoments:
    """The frozen terms of _Memory, r t_m < _BAND_LO, live in K Taylor
    moments per mode; a term that thaws gets its sum back from them."""

    @staticmethod
    def exponential_sums(alpha, memory, t, g, m):
        """S_j at t_m of the windows k <= m - 2, term by term, per mode."""
        soe = relaxation_exponentials(alpha)
        r = np.exp(memory.ln_root[:, None] + soe.log_rho)
        k = np.arange(m - 1)
        terms = (np.exp(-r[:, None, :] * (t[m] - t[k + 1])[None, :, None])
                 * -np.expm1(-r[:, None, :] * (t[k + 1] - t[k])[None, :, None]) * g[k].T[:, :, None])
        sums = np.array([[math.fsum(terms[i, :, j]) for j in range(r.shape[1])] for i in range(r.shape[0])])
        return r, soe.weight, sums

    def test_frozen_sum_and_thaw_match_the_exponential_sums(self):
        alpha, lam = 0.5, np.array([1.0, 2.0])
        t = TimeGrid.graded(1.0, 24, 2.0).nodes
        g = np.random.default_rng(2).uniform(0.5, 1.5, (t.size - 1, lam.size))
        shifts = []

        class Spy(_Memory):
            def _shift(self, m, rows, base, moments):
                shifts.append(m)
                return super()._shift(m, rows, base, moments)

        memory = Spy(alpha, lam, t)
        for m in range(1, t.size):
            memory.advance(m, g)
        # the node before the last shift: the lower edge is about to pass
        # the band's first term, so the highest frozen terms sit just below it
        m = shifts[-1] - 1
        memory = _Memory(alpha, lam, t)
        for k in range(1, m + 1):
            memory.advance(k, g)
        tau = t[m] - t[0]
        r, w, sums = self.exponential_sums(alpha, memory, t, g, m)
        rows, base = np.arange(lam.size), memory.base.copy()
        assert np.all(r[rows, base - 1] * tau > 0.75 * _BAND_LO)
        assert np.all(r[rows, base - 1] * tau < _BAND_LO)

        def frozen_error(top):
            # the frozen sum comes divided by lam, as the band's weights do
            frozen = lam * memory._frozen(math.log(tau) * _ORDERS)
            ref = np.array([math.fsum(w[: top[i]] * sums[i, : top[i]]) for i in rows])
            return np.max(np.abs(frozen - ref) / ref)

        # the frozen sum reads its prefix sums as logs, each rounded to
        # eps |ln C_p| with |ln C_p| up to about 10 here
        assert frozen_error(base) <= 2e-15
        # thaw the four highest frozen terms, as node m + 1 would before
        # folding its window
        memory._shift(m + 1, rows, base - 4, memory.mom)
        ref = sums[rows[:, None], base[:, None] - 4 + np.arange(4)]
        assert np.max(np.abs(memory.sums[:, :4] - ref) / ref) <= 1e-15
        assert frozen_error(base - 4) <= 2e-15

    def test_march_with_thaws_matches_exact_duhamel_sum(self):
        # steps of 1e-6 to 0.1 in random order: the lower edge of the band
        # moves by many terms at once, and rows thaw terms from the moments
        alpha = 0.4
        rng = np.random.default_rng(6)
        tg = TimeGrid(np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-6.0, -1.0, 120))]))
        grid, spec = Grid1D(0.0, 1.0, 24), at_the_floor(alpha, tg)
        thawed = []

        class Spy(_Memory):
            def _shift(self, m, rows, base, moments):
                if m >= 3:
                    thawed.append(int(np.sum(self.base[rows] - base)))
                return super()._shift(m, rows, base, moments)

        src = lambda x, t: (1.0 + np.sin(3.0 * x)) * np.cos(40.0 * t) + t
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("fraccomp.evolve_linear._Memory", Spy)
            assert_exact_duhamel(ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x), source=src))
        assert sum(thawed) > 100

    def test_huge_horizon_marches(self):
        # the two-moment weights squared t and overflowed at T = 1e300; the
        # age-scaled moments hold ratios of steps only
        grid, tg, spec = make_problem(alpha=0.5, n=16, N=64, T=1e300, b=0.3, c=-0.5)
        p = ProblemSpec(0.5, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x),
                        source=lambda x, t: np.sin(2.0 * x) + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = solve_linear_spectral(p).values
        assert np.all(np.isfinite(u))


class TestBlockSampledForcing:
    """b / 2, (c + s) / 2 and the source are sampled a block of step
    midpoints per call where the problem's build-time call with the column
    of its sampled times gives (times, nodes), and once per step for the
    whole march where it does not."""

    @staticmethod
    def problem(N=3 * _RELAX_BLOCK, **spec_kw):
        grid, tg, spec = make_problem(alpha=0.4, n=24, N=N, **spec_kw)
        return ProblemSpec(0.4, spec, grid, tg, lambda x: 1 + np.cos(math.pi * x),
                           source=lambda x, t: np.sin(2.0 * x) + t)

    def test_non_broadcasting_coefficients_match_their_broadcasting_spelling(self):
        calls = {"scalar": 0, "array": 0}

        def step_c(x, t):  # `if t < 0.5` needs a scalar t
            calls["scalar"] += 1
            return (0.2 if t < 0.5 else -0.1) * np.cos(x)

        def where_c(x, t):
            calls["array"] += 1
            return np.where(t < 0.5, 0.2, -0.1) * np.cos(x)

        b_math = lambda x, t: 0.3 * np.sin(x) * math.cos(t)
        b_numpy = lambda x, t: 0.3 * np.sin(x) * np.cos(t)
        u1 = solve_linear_spectral(self.problem(b=b_math, c=step_c)).values
        u2 = solve_linear_spectral(self.problem(b=b_numpy, c=where_c)).values
        # when the problem is built, one failed call with the column of the
        # 2N sampled times and one call per time, then one call per step;
        # one call with that column, then one per block
        N = 3 * _RELAX_BLOCK
        n_blocks = len(block_lengths(N, self.problem().grid.n_nodes))
        assert calls == {"scalar": 1 + 2 * N + N, "array": 1 + n_blocks}
        # math.cos and numpy's cos may differ in the last bit
        assert np.max(np.abs(u1 - u2)) <= 1e-14 * np.max(np.abs(u2))
        u3 = solve_linear_spectral(self.problem(b=b_numpy, c=step_c)).values
        assert np.array_equal(u2, u3)

    def test_a_coefficient_raises_at_its_own_node(self):
        # the midpoint of step 40 is the first sampled time past t_bad: the
        # problem's build calls c once per time up to it, and raises there
        p = self.problem()
        t = p.tgrid.nodes
        t_bad = t[39]
        seen = []

        def c(x, t):
            seen.append(t)
            if np.any(np.asarray(t) > t_bad):
                raise ValueError("c is undefined past t_bad")
            return -0.5 * np.ones_like(x) * np.ones_like(t)

        with pytest.raises(ValueError, match="past t_bad"):
            replace(p, elliptic=replace(p.elliptic, c=c))
        times = np.sort(np.concatenate([t[1:40], 0.5 * (t[:40] + t[1:41])]))
        assert np.shape(seen[0]) == (2 * (t.size - 1), 1)
        assert np.array_equal(seen[1:], times)

    @pytest.mark.parametrize("k_last", [45, 2 * _RELAX_BLOCK + 1])
    def test_restriction_is_exact_past_a_partial_block(self, k_last, fetches):
        # the restricted march's last block holds 13 or 1 midpoints; a block
        # of one is sampled by a call with a one-time column
        p = self.problem(b=lambda x, t: 0.3 * np.cos(2.0 * x + 0.3 * t),
                         c=lambda x, t: -0.5 * np.sin(3.0 * x) * np.cos(0.5 * t))
        u = solve_linear_spectral(p)
        half = u.restrict_time(k_last)
        u2 = solve_linear_spectral(replace(p, tgrid=half.tgrid))
        assert np.array_equal(half.values, u2.values)
        assert fetches == [1, 33, 65] + list(range(1, k_last + 1, _RELAX_BLOCK))

    @pytest.mark.parametrize("role", ["c", "source"])
    @pytest.mark.parametrize("text", ["1 + x", "sin(t)", "x * exp(-t)"])
    def test_expressions_are_called_once_per_block(self, text, role):
        # an expression gives (times, nodes) for a column of times, with or
        # without x and t in it
        expr, calls = parse_expression(text), []

        def f(x, t):
            calls.append(np.shape(t))
            return expr(x, t)

        p = self.problem(c=f) if role == "c" else replace(self.problem(), source=f)
        solve_linear_spectral(p)
        # one call with the column of the 2N sampled times when p is built
        blocks = block_lengths(3 * _RELAX_BLOCK, p.grid.n_nodes)
        assert calls == [(6 * _RELAX_BLOCK, 1)] + [(b, 1) for b in blocks]

    def test_repo_coefficients_are_sampled_by_column(self, monkeypatch):
        # the suites' and the benchmark's coefficients take a column of
        # times, or do not depend on t; a math.exp in one of them would
        # bring back a call per step
        kinds = []
        decided = Coefficient.decided

        def spy(self, x, times):
            coef = decided(self, x, times)
            if callable(coef.f):
                kinds.append(coef.kind)
            return coef

        monkeypatch.setattr(Coefficient, "decided", spy)
        run_suite("positivity")
        run_suite("ordering")
        for drift in (True, False):
            march_one(random_linear_problem(np.random.default_rng(1), 0.5, n=16, N=40, with_drift=drift))
        assert "broadcasts" in kinds and set(kinds) <= {"broadcasts", "x-only"}

    def test_constant_q_is_not_sampled(self, monkeypatch):
        # without b and with a constant c, Q is the constant c + s: the
        # sampler of Q's bands and the fitted drift are never called, and
        # with c = -1, Q = 0 and a step takes u_m directly
        monkeypatch.setattr(evolve_linear, "_SampledQ", lambda *args: pytest.fail("sampled"))
        monkeypatch.setattr(evolve_linear, "fitted_drift", lambda *args: pytest.fail("sampled"))
        grid, tg, spec = make_problem(alpha=0.5, N=40, c=-1.0)
        p = ProblemSpec(0.5, spec, grid, tg, 1.0, source=lambda x, t: np.ones_like(x) * (1.0 + t))
        _, counts = march_one(p)
        assert not counts.any()


class TestBatch:
    """spectral_march advances several problems on one time grid at once;
    each keeps the field and the sweep counts of its own march."""

    @staticmethod
    def mixed_batch(N=64):
        alpha, n = 0.5, 24
        grid, tg, _ = make_problem(alpha=alpha, n=n, N=N)
        c = lambda x, t: -0.3 * np.sin(2.0 * x) * np.cos(t)
        a0 = lambda x: 1.0 + 0.5 * np.cos(math.pi * x)
        specs = [
            # drift, no source
            (EllipticSpec(b=lambda x, t: 0.3 * np.cos(2.0 * x + t), c=c), None),
            # no drift, a Robin sigma and a source of x only
            (EllipticSpec(c=c, sigma_lo=1.5, sigma_hi=1.5),
             lambda x, t: 1.0 + np.sin(x)),
            # a constant c = -1 without b: Q is inactive; a source that takes a scalar t only
            (EllipticSpec(c=-1.0, sigma_lo=1.0, sigma_hi=0.5),
             lambda x, t: np.cos(x) * math.exp(-t)),
            # a constant drift and a broadcasting source
            (EllipticSpec(b=0.3), lambda x, t: np.sin(3.0 * x) + t),
        ]
        return [ProblemSpec(alpha, spec, grid, tg, a0, source=f) for spec, f in specs]

    def test_mixed_batch_matches_solo_marches(self):
        problems = self.mixed_batch()
        u, counts = march(problems)
        assert u.shape == (4, 65, problems[0].grid.n_nodes) and counts.shape == (4, 64)
        assert_matches_solo_marches(problems, u, counts)
        assert not counts[2].any()
        assert np.all(counts[[0, 1, 3]] >= 1)

    def test_many_returns_fields_in_input_order(self):
        grid, _, spec = make_problem(n=20, c=lambda x, t: -0.2 * np.cos(x))
        src = lambda x, t: 1.0 + np.sin(x) * t
        problems = [ProblemSpec(alpha, spec, grid, TimeGrid.graded(1.0, N, 2.0 / alpha),
                                lambda x, k=k: 1.0 + 0.1 * k * np.cos(math.pi * x), source=src)
                    for k, (alpha, N) in enumerate([(0.5, 64), (0.3, 64), (0.5, 48), (0.5, 64), (0.3, 64)]
                                                   + [(0.7, 32)] * 24)]
        # the 24 alpha = 0.7 problems take more than _BATCH_MODES modes: two batches
        assert 24 * problems[-1].grid.n_nodes > _BATCH_MODES
        fields = solve_linear_spectral_many(problems)
        assert len(fields) == len(problems)
        for p, f in zip(problems, fields):
            solo = solve_linear_spectral(p)
            assert f.tgrid is p.tgrid and f.values.shape == solo.values.shape
            assert np.max(np.abs(f.values - solo.values)) <= 1e-13 * np.max(np.abs(solo.values))

    def test_large_batch_matches_solo_marches(self):
        # a positivity-suite ensemble at one alpha, all its modes in one memory
        rng = np.random.default_rng(3)
        problems = [random_linear_problem(rng, 0.5, n=20, N=64, T=1.0) for _ in range(20)]
        ops = [assemble(p.elliptic, p.grid) for p in problems]
        stack = ModeStack([eigendecompose(op) for op in ops], ops)
        assert 400 <= stack.lambdas.size <= _BATCH_MODES
        assert_matches_solo_marches(problems, *spectral_march(Batch(problems), stack))

    def test_positivity_suite_marches_once_per_alpha(self, monkeypatch):
        seen = []
        march = evolve_linear.spectral_march

        def spy(batch, *args, **kw):
            seen.append((batch.alpha, batch.problems[0].grid.n, len(batch.problems)))
            return march(batch, *args, **kw)

        monkeypatch.setattr(evolve_linear, "spectral_march", spy)
        run_suite("positivity", seed=1)
        # the 50 random specs (n = 20) march once per alpha drawn
        ensemble = [(alpha, size) for alpha, n, size in seen if n == 20]
        alphas = [alpha for alpha, _ in ensemble]
        assert len(alphas) == len(set(alphas)) >= 2
        assert sum(size for _, size in ensemble) == 50

    def test_empty_list(self):
        assert solve_linear_spectral_many([]) == []

    def test_solver_error_names_the_problem(self):
        grid, tg, spec = make_problem(n=24, N=16, c=lambda x, t: -0.2 * np.cos(x))
        # finite when the problem is built: the sweeps of node 1 overflow
        bad = replace(spec, c=lambda x, t: np.where(x < 0.5, 1e300, 0.0) + 0.0 * t)
        problems = [ProblemSpec(0.5, bad if j == 2 else spec, grid, tg, 1.0,
                                source=lambda x, t: np.ones_like(x)) for j in range(5)]
        message = r"^problem 2: non-finite .* at time node 1 \(first at x = 0\)"
        with pytest.raises(SolverError, match=message) as exc:
            solve_linear_spectral_many(problems)
        assert exc.value.problem == 2 and exc.value.node == 1
        # a batch given directly names the position in the batch
        with pytest.raises(SolverError, match=r"^problem 1: non-finite .* at time node 1"):
            march(problems[1:])

    @staticmethod
    def semilinear_batch(alpha=0.5):
        """Four problems on one grid, each with its own kind of term."""
        grid, tg, _ = make_problem(alpha=alpha, n=16, N=48)
        c = lambda x, t: -0.3 * np.sin(2.0 * x) * np.cos(t)
        a0 = lambda x: 0.8 + 0.4 * np.cos(math.pi * x)
        cases = [
            # drift and c, the enzyme sink
            (EllipticSpec(b=lambda x, t: 0.3 * np.cos(2.0 * x + t), c=c), builtin_enzyme()),
            # a Robin sigma, the shifted sink
            (EllipticSpec(c=c, sigma_lo=1.5, sigma_hi=1.5), builtin_enzyme().shifted(-0.2)),
            # Q inactive (c = -1 without b) and a zero term: the sweeps still run
            (EllipticSpec(c=-1.0, sigma_lo=1.0, sigma_hi=0.5), SemilinearTerm(eval=lambda x, u: 0.0)),
            # a constant drift, the Burgers product with its own derivative
            (EllipticSpec(b=0.3), builtin_burgers(0.8)),
        ]
        return [ProblemSpec(alpha, spec, grid, tg, a0) for spec, _ in cases], [f for _, f in cases]

    def test_semilinear_batch_matches_solo_solves(self):
        problems, terms = self.semilinear_batch()
        fields, counts = _march_semilinear(Batch(problems), terms, [None] * 4)
        for p, f, u, n_sweeps in zip(problems, terms, fields, counts):
            (solo,), (solo_sweeps,) = _march_semilinear(Batch((p,)), [f], [None])
            assert np.max(np.abs(u.values - solo.values)) <= 1e-13 * np.max(np.abs(solo.values))
            assert np.array_equal(n_sweeps, solo_sweeps)
        assert np.all(counts >= 1)

    def test_semilinear_many_keeps_the_input_order(self):
        low, low_terms = self.semilinear_batch(alpha=0.3)
        high, high_terms = self.semilinear_batch(alpha=0.7)
        order = [0, 4, 5, 1, 2, 6, 7, 3]
        problems = [(low + high)[i] for i in order]
        terms = [(low_terms + high_terms)[i] for i in order]
        fields = solve_semilinear_many(problems, terms)
        for p, f, u in zip(problems, terms, fields):
            solo = solve_semilinear(p, f)
            assert u.tgrid is p.tgrid
            assert np.max(np.abs(u.values - solo.values)) <= 1e-13 * np.max(np.abs(solo.values))
        with pytest.raises(ValueError, match="one term per problem"):
            solve_semilinear_many(problems, terms[:-1])

    def test_box_exit_names_the_problem(self):
        problems, terms = self.semilinear_batch()
        # u grows past the certified box of its term in problem 2 only
        growth = SemilinearTerm(eval=lambda x, u: 3.0 * u, bound_M=4.5, box_m=1.5)
        terms = terms[:2] + [growth, replace(terms[0], box_m=10.0)]
        with pytest.raises(BoxExitError) as solo:
            solve_semilinear(problems[2], growth)
        assert solo.value.problem is None and 1 < solo.value.node < 48
        with pytest.raises(BoxExitError, match=rf"^problem 2: \|u\| = .* at node {solo.value.node}$") as exc:
            solve_semilinear_many(problems, terms)
        assert exc.value.problem == 2 and exc.value.node == solo.value.node

    def test_batch_shares_alpha_and_grids(self):
        grid, tg, spec = make_problem(n=16, N=16)
        p = ProblemSpec(0.5, spec, grid, tg, 1.0)
        with pytest.raises(ValueError, match="share"):
            Batch([p, replace(p, alpha=0.3)])
        with pytest.raises(ValueError, match="share"):
            Batch([p, replace(p, grid=Grid1D(0.0, 1.0, 17))])


@pytest.mark.parametrize("solve", [solve_linear_spectral, solve_linear_l1])
def test_nan_coefficient_solver_error(solve):
    # nan > 0 is False: the spectral route used to find no active Q and
    # return a finite field; the problem is now refused when it is built,
    # at the first time sampled, the midpoint of step 1, for both routes
    grid, tg, spec = make_problem(n=24, N=16, c=lambda x, t: np.where(x < 0.5, np.nan, 0.0))
    where = f"'c' is not finite at x = 0, t = {0.5 * tg.nodes[1]:.6g}"
    with pytest.raises(NonFiniteError, match=f"^{re.escape(where)}$"):
        solve(ProblemSpec(0.5, spec, grid, tg, 1.0, source=lambda x, t: np.ones_like(x)))


@pytest.mark.parametrize("solve", [solve_linear_spectral, solve_linear_l1])
def test_non_finite_a_is_refused_by_assemble(solve):
    # np.min of a NaN compares False, so a NaN a passed the ellipticity
    # check: the spectral route failed in scipy's eigensolver with its own
    # ValueError, the L1 route with a SolverError at node 1
    grid, tg, spec = make_problem(n=16, N=8, a=lambda x: np.where(x < 0.5, np.nan, 1.0))
    p = ProblemSpec(0.5, spec, grid, tg, 1.0)
    with pytest.raises(NonFiniteError, match=r"^'a' is not finite at x = 0, t = 0$"):
        solve(p)


class TestExtrapolatedStart:
    def test_weights_are_finite_on_a_steeply_graded_grid(self):
        # alpha = 0.02 grades by 100: the first steps are ~1e-181 apart, and
        # products of three of them underflow; in tau = t^0.02 the grid is
        # graded by 2
        t = TimeGrid.graded(1.0, 64, 100.0).nodes
        for tau in (t, t ** 0.02):
            w = _extrapolation_weights(tau)
            assert np.all(np.isfinite(w))
            assert np.all(np.abs(w) <= _START_MAX)
            assert np.allclose(w[1:].sum(axis=1), 1.0, rtol=0.0, atol=1e-13)

    def test_polynomials_are_extrapolated_exactly(self):
        # graded by 2.5 in t, by 1 in tau = t^0.4
        for alpha in (0.4, 1.0):
            tau = TimeGrid.graded(2.0, 50, 2.5).nodes ** alpha
            w = _extrapolation_weights(tau)
            order = np.count_nonzero(w, axis=1)
            assert order[0] == 0 and order[1] == 1 and np.all(order <= 6)
            if alpha == 0.4:  # uniform in tau: the quintic wherever six nodes exist
                assert np.all(order[6:] == 6)
            for degree in range(6):
                q = np.polyval([0.1, -0.2, 0.5, -3.0, 2.0, 1.0][5 - degree :], tau)
                for m in np.flatnonzero(order > degree):
                    ring = np.zeros(6)
                    for k in range(max(m - 6, 0), m):
                        ring[k % 6] = q[k]
                    assert w[m] @ ring == pytest.approx(q[m], rel=1e-10, abs=1e-10 * np.abs(q).max())
        # uniform steps in tau: the quintic's weights are 6, -15, 20, -15, 6, -1
        u = _extrapolation_weights(np.linspace(0.0, 1.0, 11))
        assert np.allclose(u[7, [0, 5, 4, 3, 2, 1]], [6.0, -15.0, 20.0, -15.0, 6.0, -1.0], rtol=0.0, atol=1e-13)

    def test_steepest_grid_does_not_stall(self):
        # alpha = 0.01 grades by 200: the quadratic's weights at node 3 are
        # ~1e130, and starting from them stalled there after 50 sweeps.  The
        # shift floor of this grid is about 1.02; c = 1 - floor leaves Q = u
        grid, tg, _ = make_problem(alpha=0.01, n=32, N=32)
        spec = EllipticSpec(c=1.0 - evolve_linear._shift_floor(0.01, tg.nodes))
        p = ProblemSpec(0.01, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x))
        u, counts = march_one(p)
        assert np.all(np.isfinite(u)) and counts.max() < 10

    @pytest.mark.parametrize("alpha, r, sweeps", [(0.01, 200.0, 6), (0.05, 40.0, 2)])
    def test_steep_grid_without_c_sweeps_little(self, alpha, r, sweeps):
        # without c the sweeps carry Q = s u with the shift floor s.  The
        # floor's young-window term over t_4 - t_3 made s 40.4 (alpha =
        # 0.01) and 6.4 (0.05) on these grids, and 17 and 10 sweeps a step;
        # over the smallest step it is 1.02 and 1.3e-6
        grid, tg, spec = make_problem(alpha=alpha, n=32, N=32, r=r)
        u, counts = march_one(ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x), source=1.0))
        assert np.all(np.isfinite(u)) and counts.max() <= sweeps

    def test_quintic_start_and_narrow_band(self):
        # the first criterion-5 spec (seed 77, alpha = 0.3): the start from
        # the last two nodes took 4251 sweeps, the quadratic in t 3070, the
        # cubic in t about 2.5 per step, and the two-moment band 9945
        # entries per step
        p = random_linear_problem(np.random.default_rng(77), 0.3, n=128, N=1024, T=1.0)
        entries = []

        class Spy(_Memory):
            def advance(self, m, g_hist):
                out = super().advance(m, g_hist)
                entries.append(self.sums.size)
                return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("fraccomp.evolve_linear._Memory", Spy)
            _, counts = march_one(p)
        assert np.all(counts >= 1)
        assert counts.mean() <= 1.2
        assert np.mean(entries) < 6000


class TestL1Solver:
    def test_constants_preserved(self):
        grid, tg, spec = make_problem(alpha=0.7)
        p = ProblemSpec(0.7, spec, grid, tg, 1.0)
        u = solve_linear_l1(p)
        assert np.max(np.abs(u.values - 1.0)) < 1e-11

    def test_single_mode_matches_spectral(self):
        alpha = 0.5
        grid, tg, spec = make_problem(alpha=alpha, n=32, N=256, c=-1.0)
        eig = eigendecompose(assemble(spec, grid)).shifted(1.0)
        phi1 = eig.modes[:, 1]
        p = ProblemSpec(alpha, spec, grid, tg, phi1)
        ul1 = solve_linear_l1(p)
        ref = np.array([ml_relaxation(alpha, eig.lambdas[1], t) for t in tg.nodes])
        got = ul1.values @ (eig.weights * phi1)
        assert np.max(np.abs(got - ref)) < 2e-3

    def test_scalar_ode_oracle(self):
        # spatially flat data: d_t^alpha y + y = 1, y(0) = 0, solution 1 - E(-t^a)
        alpha = 0.6
        grid, tg, spec = make_problem(alpha=alpha, N=512, c=-1.0, b=None)
        p = ProblemSpec(alpha, spec, grid, tg, 0.0, source=1.0)
        u = solve_linear_l1(p)
        ref = np.array([1.0 - ml_relaxation(alpha, 1.0, t) for t in tg.nodes])
        assert np.max(np.abs(u.values[:, 5] - ref)) < 2e-3


@pytest.mark.parametrize("solve", [solve_linear_spectral, solve_linear_l1])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_coefficient_solver_error(solve):
    # c = 1/(x - 0.5) is infinite on the node x = 0.5: a ProblemSpec refuses
    # it when it is built, as the command line does, naming the node, so
    # that neither solver meets it
    grid, tg, spec = make_problem(n=33, N=16, c=lambda x, t: 1.0 / (x - 0.5))
    where = f"'c' is not finite at x = 0.5, t = {0.5 * tg.nodes[1]:.6g}"
    with pytest.raises(NonFiniteError, match=f"^{re.escape(where)}$"):
        solve(ProblemSpec(0.5, spec, grid, tg, 0.0))


class TestCrossOracle:
    def test_agreement_and_rate(self):
        alpha = 0.5
        errs = []
        for N in (64, 128, 256):
            grid, tg, spec = make_problem(
                alpha=alpha, n=24, N=N,
                a=lambda x: 1.0 + 0.2 * np.sin(math.pi * x),
                b=0.3, c=-0.2,
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
