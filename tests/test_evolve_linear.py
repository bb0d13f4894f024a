import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma

from fraccomp.elliptic import (
    DiscreteOperator,
    EllipticSpec,
    Grid1D,
    SpaceField,
    assemble,
    eigendecompose,
)
from fraccomp.evolve_linear import (
    _BAND_LO,
    _ORDERS,
    _RELAX_BLOCK,
    _START_MAX,
    Field,
    ProblemSpec,
    SolverError,
    _Memory,
    _extrapolation_weights,
    duhamel_step,
    homogeneous_solution,
    solve_linear_l1,
    solve_linear_spectral,
    spectral_march,
)
from fraccomp.evolve_semilinear import builtin_burgers, solve_semilinear
from fraccomp.fracops import TimeGrid
from fraccomp.randomspec import random_linear_problem
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
        grid, tg, spec = make_problem(alpha=alpha, n=24, N=256, c0=1e-6, c=-1e-6)
        eig = eigendecompose(assemble(spec, grid))
        src = lambda x, t: (1.0 + np.sin(3.0 * x)) * np.cos(4.0 * t) + t
        p = ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x), source=src)
        u = solve_linear_spectral(p, eig).values
        ref = exact_duhamel(p, eig)
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


def test_array_source_is_read_at_time_nodes():
    # an array source holds one row per time node and is not interpolated
    grid, tg, spec = make_problem(N=8, c0=1.0)
    src = np.arange(9.0)[:, None] * np.ones(grid.n_nodes)
    p = ProblemSpec(0.5, spec, grid, tg, 1.0, source=src)
    assert np.array_equal(p.source_at(tg.nodes[3], node_index=3), src[3])
    with pytest.raises(ValueError, match="node_index"):
        p.source_at(0.5 * (tg.nodes[3] + tg.nodes[4]))


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


class TestModeSpaceSweeps:
    """The Picard sweeps run on the mode coefficients of u_m, from the
    extrapolation of the last two nodes."""

    def test_sweep_count_below_the_physical_space_iteration(self):
        # the sweeps in physical space from u_{m-1}, which this march
        # replaced, took 1293 sweeps on this spec
        p = random_linear_problem(np.random.default_rng(5), 0.5, n=32, N=256, with_drift=True)
        op = assemble(p.elliptic, p.grid)
        _, counts = spectral_march(p, eigendecompose(op), op)
        assert np.all(counts >= 1)
        assert counts.sum() < 1293

    def test_general_fold_path_matches_exact_duhamel_sum(self, monkeypatch):
        # c0 = 0 with Neumann ends: the ground mode is small (|lambda| ~ 1e-18)
        # and keeps its exact masses.  On [0, 300] the next mode's lambda is
        # 1e-4, so at alpha = 0.3 its windows join the sums only when older
        # than about 1e-4, and steps of 1e-9 to 0.1 in random order make
        # several of them come of age at once: that is _Memory._fold's work
        alpha, L = 0.3, 300.0
        rng = np.random.default_rng(4)
        tg = TimeGrid(np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-9.0, -1.0, 96))]))
        grid, spec = Grid1D(0.0, L, 24), EllipticSpec(c0=0.0)
        eig = eigendecompose(assemble(spec, grid))
        assert eig.lambdas[0] * tg.horizon ** alpha <= 1e-8
        folded = []
        fold = _Memory._fold

        def spy(self, m, g_hist, late):
            folded.append(int(late.max() - self.folded[late > self.folded].min()))
            return fold(self, m, g_hist, late)

        monkeypatch.setattr(_Memory, "_fold", spy)
        src = lambda x, t: (1.0 + np.sin(3.0 * x / L)) * np.cos(4.0 * t) + t
        p = ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x / L), source=src)
        u = solve_linear_spectral(p, eig).values
        assert max(folded) > 1
        ref = exact_duhamel(p, eig)
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_one_window_folds_in_place_at_every_node(self, monkeypatch):
        # on a graded grid with every mode big, each window comes of age at
        # the node after its end: window m - 2 folds in place at every node
        # past the first, and the catch-up of older windows never runs
        grid, tg, spec = make_problem(alpha=0.5, n=24, N=256, c0=0.5)
        caught_up, in_place = [], []
        advance = _Memory.advance

        def spy(self, m, g_hist):
            out = advance(self, m, g_hist)
            in_place.append(int(np.count_nonzero(self.folded == m - 1)))
            return out

        monkeypatch.setattr(_Memory, "_fold", lambda self, m, *args: caught_up.append(m))
        monkeypatch.setattr(_Memory, "advance", spy)
        p = ProblemSpec(0.5, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x),
                        source=lambda x, t: np.sin(2.0 * x) + t)
        solve_linear_spectral(p)
        assert caught_up == []
        # node 1 has no window to fold; from node 2 on every mode folds one
        assert len(in_place) == 256 and set(in_place[1:]) == {grid.n_nodes}

    def test_burgers_converges_and_restricts_exactly(self):
        # u u_x needs the derivative of every sweep's state; the predictor
        # reads t[0..m] only, so a restricted solve repeats the longer one
        grid, tg, spec = make_problem(alpha=0.6, n=24, N=48, c0=1.0, b=0.3, c=-0.5)
        p = ProblemSpec(0.6, spec, grid, tg, lambda x: 1.0 + 0.5 * np.cos(math.pi * x))
        info = {}
        u = solve_semilinear(p, builtin_burgers(0.8), info=info)
        assert np.all(info["picard_counts"] >= 1)
        assert np.all(np.isfinite(u.values))
        half = u.restrict_time(30)
        u2 = solve_semilinear(ProblemSpec(0.6, spec, grid, half.tgrid, p.initial), builtin_burgers(0.8))
        assert np.array_equal(half.values, u2.values)


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
            frozen = memory._frozen(math.log(tau) * _ORDERS)
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
        grid, spec = Grid1D(0.0, 1.0, 24), EllipticSpec(c0=1e-6, c=-1e-6)
        eig = eigendecompose(assemble(spec, grid))
        thawed = []

        class Spy(_Memory):
            def _shift(self, m, rows, base, moments):
                if m >= 3:
                    thawed.append(int(np.sum(self.base[rows] - base)))
                return super()._shift(m, rows, base, moments)

        src = lambda x, t: (1.0 + np.sin(3.0 * x)) * np.cos(40.0 * t) + t
        p = ProblemSpec(alpha, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x), source=src)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("fraccomp.evolve_linear._Memory", Spy)
            u = solve_linear_spectral(p, eig).values
        assert sum(thawed) > 100
        ref = exact_duhamel(p, eig)
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_huge_horizon_marches(self):
        # the two-moment weights squared t and overflowed at T = 1e300; the
        # age-scaled moments hold ratios of steps only
        grid, tg, spec = make_problem(alpha=0.5, n=16, N=64, T=1e300, c0=1.0, b=0.3, c=-0.5)
        p = ProblemSpec(0.5, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x),
                        source=lambda x, t: np.sin(2.0 * x) + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = solve_linear_spectral(p).values
        assert np.all(np.isfinite(u))


class TestBlockSampledForcing:
    """b / 2, (c0 + c) / 2 and the source are sampled _RELAX_BLOCK step
    midpoints per call where they broadcast in t, and once per step where
    they do not."""

    @staticmethod
    def problem(N=3 * _RELAX_BLOCK, **spec_kw):
        grid, tg, spec = make_problem(alpha=0.4, n=24, N=N, c0=1.0, **spec_kw)
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
        # one failed block call, then one call per step; one call per block
        assert calls == {"scalar": 1 + 3 * _RELAX_BLOCK, "array": 3}
        # math.cos and numpy's cos may differ in the last bit
        assert np.max(np.abs(u1 - u2)) <= 1e-14 * np.max(np.abs(u2))
        u3 = solve_linear_spectral(self.problem(b=b_numpy, c=step_c)).values
        assert np.array_equal(u2, u3)

    def test_a_coefficient_raises_at_its_own_node(self):
        # the midpoint of step 40 (node 40, in the second block) is the first
        # past t_bad; nodes 1..39 are reached and guarded first
        p = self.problem()
        t = p.tgrid.nodes
        t_bad = t[39]

        def c(x, t):
            if np.any(np.asarray(t) > t_bad):
                raise ValueError("c is undefined past t_bad")
            return -0.5 * np.ones_like(x) * np.ones_like(t)

        p = replace(p, elliptic=replace(p.elliptic, c=c))
        op = assemble(p.elliptic, p.grid)
        reached = []
        with pytest.raises(ValueError, match="past t_bad"):
            spectral_march(p, eigendecompose(op), op, state_guard=lambda u, k: reached.append(k))
        assert reached == list(range(1, 40))

    @pytest.mark.parametrize("k_last", [45, 2 * _RELAX_BLOCK + 1])
    def test_restriction_is_exact_past_a_partial_block(self, k_last):
        # the restricted march's last block holds 13 or 1 midpoints; a block
        # of one is sampled by a call with a scalar t
        p = self.problem(b=lambda x, t: 0.3 * np.cos(2.0 * x + 0.3 * t),
                         c=lambda x, t: -0.5 * np.sin(3.0 * x) * np.cos(0.5 * t))
        u = solve_linear_spectral(p)
        half = u.restrict_time(k_last)
        u2 = solve_linear_spectral(replace(p, tgrid=half.tgrid))
        assert np.array_equal(half.values, u2.values)

    def test_constant_q_is_not_sampled(self, monkeypatch):
        # without b and c, Q is the constant c0: q_parts is never called and
        # a step with c0 = 0 takes u_m directly
        monkeypatch.setattr(DiscreteOperator, "q_parts", lambda self, t: pytest.fail("sampled"))
        grid, tg, spec = make_problem(alpha=0.5, N=40, c0=0.0)
        p = ProblemSpec(0.5, spec, grid, tg, 1.0, source=lambda x, t: np.ones_like(x) * (1.0 + t))
        op = assemble(spec, grid)
        _, counts = spectral_march(p, eigendecompose(op), op)
        assert not counts.any()


@pytest.mark.parametrize("solve", [solve_linear_spectral, solve_linear_l1])
def test_nan_coefficient_solver_error(solve):
    # nan > 0 is False: the spectral route used to find no active Q and
    # return a finite field; both routes now fail at node 1
    grid, tg, spec = make_problem(n=24, N=16, c0=0.0, c=lambda x, t: np.where(x < 0.5, np.nan, 0.0))
    p = ProblemSpec(0.5, spec, grid, tg, 1.0, source=lambda x, t: np.ones_like(x))
    with pytest.raises(SolverError, match=r"non-finite .* at time node 1 \(first at x = 0\)"):
        solve(p)


class TestExtrapolatedStart:
    def test_weights_are_finite_on_a_steeply_graded_grid(self):
        # alpha = 0.02 grades by 100: the first steps are ~1e-181 apart, and
        # products of three of them underflow
        w = _extrapolation_weights(TimeGrid.graded(1.0, 64, 100.0).nodes)
        assert np.all(np.isfinite(w))
        assert np.all(np.abs(w) <= _START_MAX)
        assert np.allclose(w[1:].sum(axis=1), 1.0, rtol=0.0, atol=1e-14)

    def test_polynomials_are_extrapolated_exactly(self):
        t = TimeGrid.graded(2.0, 50, 2.5).nodes
        w = _extrapolation_weights(t)
        order = np.count_nonzero(w, axis=1)
        assert order[0] == 0 and order[1] == 1
        # the first steps of a graded grid grow fast: their rows fall back
        assert set(order[1:11]) == {1, 2, 3} and np.all(order[11:] == 4)
        q = 1.0 + 2.0 * t - 3.0 * t * t + 0.5 * t ** 3
        for m in range(1, t.size):
            ring = np.zeros(4)
            for k in range(max(m - 4, 0), m):
                ring[k % 4] = q[k]
            if order[m] == 4:
                assert w[m] @ ring == pytest.approx(q[m], rel=1e-11, abs=1e-11)
            elif order[m] == 3:  # the quadratic through the last three nodes
                tq, qq = t[m - 3 : m], q[m - 3 : m]
                quad = np.polyval(np.polyfit(tq, qq, 2), t[m])
                assert w[m] @ ring == pytest.approx(quad, rel=1e-9, abs=1e-12)
            elif order[m] == 2:  # the line through the last two nodes
                slope = (q[m - 1] - q[m - 2]) / (t[m - 1] - t[m - 2])
                assert w[m] @ ring == pytest.approx(q[m - 1] + slope * (t[m] - t[m - 1]), rel=1e-12)
            else:
                assert w[m] @ ring == q[m - 1]
        # on a uniform grid the cubic's weights are 4, -6, 4, -1
        u = _extrapolation_weights(np.linspace(0.0, 1.0, 11))
        assert np.allclose(u[7, [2, 1, 0, 3]], [4.0, -6.0, 4.0, -1.0], rtol=0.0, atol=1e-14)

    def test_steepest_grid_does_not_stall(self):
        # alpha = 0.01 grades by 200: the quadratic's weights at node 3 are
        # ~1e130, and starting from them stalled there after 50 sweeps
        grid, tg, spec = make_problem(alpha=0.01, n=32, N=32, c0=1.0)
        p = ProblemSpec(0.01, spec, grid, tg, lambda x: 1.0 + np.cos(math.pi * x))
        op = assemble(spec, grid)
        u, counts = spectral_march(p, eigendecompose(op), op)
        assert np.all(np.isfinite(u)) and counts.max() < 10

    def test_cubic_start_and_narrow_band(self):
        # the first criterion-5 spec (seed 77, alpha = 0.3): the quadratic
        # start took 3070 sweeps and the two-moment band 9945 entries per step
        p = random_linear_problem(np.random.default_rng(77), 0.3, n=128, N=1024, T=1.0)
        op = assemble(p.elliptic, p.grid)
        entries = []

        class Spy(_Memory):
            def advance(self, m, g_hist):
                out = super().advance(m, g_hist)
                entries.append(self.sums.size)
                return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("fraccomp.evolve_linear._Memory", Spy)
            _, counts = spectral_march(p, eigendecompose(op), op)
        assert counts.sum() < 2600
        assert np.mean(entries) < 6000

    def test_sweeps_below_the_linear_start(self):
        # the first criterion-5 spec (seed 77, alpha = 0.3): the start from
        # the last two nodes took 4251 sweeps
        p = random_linear_problem(np.random.default_rng(77), 0.3, n=128, N=1024, T=1.0)
        op = assemble(p.elliptic, p.grid)
        _, counts = spectral_march(p, eigendecompose(op), op)
        assert np.all(counts >= 1)
        assert counts.sum() < 4251


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
