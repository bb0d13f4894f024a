import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammaln

from fraccomp.fracops import (
    NotApplicableError,
    TimeGrid,
    TimeSeries,
    caputo_l1,
    caputo_l1_weights,
    extremum_check,
    l1_weight_rows,
    rl_integral,
)


def series(grid, f):
    return TimeSeries(grid, f(grid.nodes))


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 8)
        assert g.nodes[-1] == 2.0
        assert g.nodes.size - 1 == 8
        assert np.allclose(g.steps, 0.25)

    def test_graded(self):
        g = TimeGrid.graded(1.0, 10, 3.0)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0
        assert np.all(np.diff(g.steps) > 0)  # steps grow toward the end

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))


class TestRLIntegral:
    def test_power_rule_constant(self):
        # J^0.5 of 1 = t^0.5/Gamma(1.5)
        g = TimeGrid.uniform(1.0, 64)
        out = rl_integral(series(g, lambda t: np.ones_like(t)), 0.5)
        ref = g.nodes ** 0.5 / gamma(1.5)
        assert np.allclose(out.values, ref, atol=1e-12)

    def test_linear_exact(self):
        g = TimeGrid.graded(2.0, 23, 2.7)
        out = rl_integral(series(g, lambda t: t), 1.0)
        assert np.allclose(out.values, g.nodes ** 2 / 2.0, atol=1e-13)

    def test_semigroup_on_power(self):
        # J^0.3 then J^0.4 on t^2 equals J^0.7 t^2 = 2/Gamma(3.7) t^2.7
        g = TimeGrid.uniform(1.0, 512)
        j1 = rl_integral(series(g, lambda t: t ** 2), 0.3)
        j2 = rl_integral(j1, 0.4)
        ref = 2.0 / gamma(3.7) * g.nodes ** 2.7
        assert np.max(np.abs(j2.values - ref)) < 2e-4

    def test_semigroup_order(self):
        errs = []
        for n in (64, 128, 256):
            g = TimeGrid.uniform(1.0, n)
            y = series(g, lambda t: np.sin(3 * t) + t)
            both = rl_integral(rl_integral(y, 0.45), 0.35).values
            direct = rl_integral(y, 0.8).values
            errs.append(np.max(np.abs(both - direct)))
        rate = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
        assert min(rate) >= 1.0

    def test_sign_preservation_exact(self):
        rng = np.random.default_rng(3)
        g = TimeGrid.graded(1.5, 40, 2.0)
        y = series(g, lambda t: np.abs(np.sin(7 * t)) + 0.0 * t)
        out = rl_integral(y, 0.6)
        assert np.all(out.values >= 0.0)

    @settings(max_examples=25, deadline=None)
    @given(beta=st.floats(0.1, 2.0), seed=st.integers(0, 1000))
    def test_monotone_quadrature(self, beta, seed):
        rng = np.random.default_rng(seed)
        g = TimeGrid.uniform(1.0, 30)
        y = TimeSeries(g, rng.random(31))
        assert np.all(rl_integral(y, beta).values >= -1e-15)

    def test_output_starts_at_zero(self):
        g = TimeGrid.uniform(1.0, 10)
        assert rl_integral(series(g, lambda t: 1 + t), 0.5).values[0] == 0.0

    def test_rejects_bad_beta(self):
        g = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            rl_integral(series(g, lambda t: t), 0.0)
        with pytest.raises(ValueError):
            rl_integral(series(g, lambda t: t), -0.3)


class TestCaputoL1:
    def test_constant_is_zero(self):
        g = TimeGrid.graded(1.0, 33, 2.2)
        out = caputo_l1(series(g, lambda t: 4.2 + 0 * t), 0.5)
        assert np.allclose(out.values, 0.0, atol=1e-14)

    def test_power_alpha(self):
        # d_t^alpha t^alpha = Gamma(alpha+1), approached at order 2-alpha
        alpha = 0.5
        errs = []
        for n in (128, 256, 512, 1024):
            g = TimeGrid.uniform(1.0, n)
            out = caputo_l1(series(g, lambda t: t ** alpha), alpha)
            errs.append(abs(out.values[-1] - gamma(1.0 + alpha)))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(rates) >= 2.0 - alpha - 0.1

    def test_power_alpha_minus_eps(self):
        # d_t^alpha t^(alpha-eps) = Gamma(alpha-eps+1)/Gamma(1-eps) t^(-eps)
        alpha, eps = 0.5, 0.1
        g = TimeGrid.graded(1.0, 2048, 2.0 / alpha)
        out = caputo_l1(series(g, lambda t: t ** (alpha - eps)), alpha)
        ref = gamma(alpha - eps + 1.0) / gamma(1.0 - eps) * g.nodes[1:] ** (-eps)
        rel = np.abs(out.values[1:] - ref) / ref
        assert np.median(rel) < 5e-3
        assert rel[-1] < 1e-3

    def test_affine_exact(self):
        g = TimeGrid.graded(1.0, 21, 1.8)
        out = caputo_l1(series(g, lambda t: 2.0 - 3.0 * t), 0.4)
        ref = -3.0 * g.nodes ** 0.6 / gamma(1.6)
        assert np.allclose(out.values[1:], ref[1:], rtol=1e-12)

    def test_inverts_rl_integral(self):
        # d_t^alpha (J^alpha y) = y for smooth y with y(0) = 0, order >= 2-alpha
        alpha = 0.6
        errs = []
        for n in (128, 256, 512):
            g = TimeGrid.uniform(1.0, n)
            y = series(g, lambda t: np.sin(2 * t) * t)
            back = caputo_l1(rl_integral(y, alpha), alpha)
            errs.append(np.max(np.abs(back.values[1:] - y.values[1:])))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(rates) >= 2.0 - alpha - 0.15

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_order_for_layer_data(self, alpha):
        # y = t^(1+alpha): order 2-alpha away from the initial layer (inside
        # the layer the first-node error caps the max norm at order 1)
        from scipy.special import gamma as g_fn

        errs = []
        for n in (128, 256, 512):
            g = TimeGrid.uniform(1.0, n)
            out = caputo_l1(series(g, lambda t: t ** (1 + alpha)), alpha)
            ref = g_fn(2 + alpha) * g.nodes
            errs.append(np.max(np.abs(out.values[n // 2:] - ref[n // 2:])))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(rates) >= 2.0 - alpha - 0.02

    def test_rejects_bad_alpha(self):
        g = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            caputo_l1(series(g, lambda t: t), 1.0)
        with pytest.raises(ValueError):
            caputo_l1(series(g, lambda t: t), 0.0)


def test_l1_weight_rows():
    t = TimeGrid.graded(1.0, 40, 3.0).nodes
    rows = list(l1_weight_rows(t, 0.4))
    assert len(rows) == 40
    for m, w in enumerate(rows, start=1):
        assert np.array_equal(w, caputo_l1_weights(t[: m + 1], 0.4))


class TestOnePowerPerRow:
    """caputo_l1_weights and rl_integral take each power of t_m - t once per
    row; every row keeps the bits of the formulas that took it at both ends
    of every step."""

    GRIDS = {
        "uniform": TimeGrid.uniform(2.0, 149).nodes,
        "graded": TimeGrid.graded(2.0, 149, 2.5).nodes,
        # t ~ k^30: the first steps are unresolvable against later nodes, so
        # those rows take the degenerate branch
        "k^30": TimeGrid.graded(1.0, 149, 30.0).nodes,
    }

    @staticmethod
    def l1_two_powers(t, alpha):
        # caputo_l1_weights before its two ends shared one power
        a = t[-1] - t[:-1]
        b = t[-1] - t[1:]
        tau = a - b
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.exp(-gammaln(2.0 - alpha)) * (a ** (1.0 - alpha) - b ** (1.0 - alpha)) / tau
        degenerate = ~(tau > 0.0) | ~np.isfinite(w)
        if degenerate.any():
            w = np.where(degenerate, np.exp(-gammaln(1.0 - alpha)) * np.maximum(a, 1e-300) ** -alpha, w)
        return w

    @pytest.mark.parametrize("alpha", [0.05, 0.35, 0.7, 0.95])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_l1_rows_equal_two_power_formula(self, grid, alpha):
        t = self.GRIDS[grid]
        if grid == "k^30":  # some step is 0 as seen from some later node
            assert any(np.any((t[m] - t[:m]) - (t[m] - t[1 : m + 1]) <= 0.0) for m in range(1, t.size))
        for m, w in enumerate(l1_weight_rows(t, alpha), start=1):
            assert np.array_equal(w, self.l1_two_powers(t[: m + 1], alpha))

    @staticmethod
    def rl_four_powers(y, beta):
        # the formula of rl_integral before each row took its powers once
        t, v = y.grid.nodes, y.values
        inv_g1 = np.exp(-gammaln(beta + 1.0))
        inv_g2 = np.exp(-gammaln(beta + 2.0))
        out = np.zeros(t.size)
        for m in range(1, t.size):
            a = t[m] - t[:m]
            b = t[m] - t[1 : m + 1]
            tau = a - b
            pa = a ** beta
            pb = b ** beta
            i0 = (pa - pb) * inv_g1
            i1 = a * (pa - pb) * inv_g1 - (a ** (beta + 1.0) - b ** (beta + 1.0)) * beta * inv_g2
            slope = (v[1 : m + 1] - v[:m]) / tau
            out[m] = np.dot(v[:m], i0) + np.dot(slope, i1)
        return out

    @pytest.mark.parametrize("beta", [0.2, 0.6, 1.0, 1.45, 2.0])
    @pytest.mark.parametrize("grid", ["uniform", "graded"])
    def test_rl_integral_equals_four_power_formula(self, grid, beta):
        y = series(TimeGrid(self.GRIDS[grid]), lambda t: np.cos(3.0 * t) + t * t)
        assert np.array_equal(rl_integral(y, beta).values, self.rl_four_powers(y, beta))


class TestExtremumCheck:
    def test_parabola_interior_minimum(self):
        g = TimeGrid.uniform(1.0, 200)
        rep = extremum_check(series(g, lambda t: (t - 0.5) ** 2), 0.5)
        assert rep.holds
        assert rep.caputo_at_min < 0.0
        # analytic value -2 (0.5)^1.5 / (Gamma(0.5) 1.5)
        ref = -2.0 * 0.5 ** 1.5 / (gamma(0.5) * 1.5)
        assert rep.caputo_at_min == pytest.approx(ref, rel=5e-3)

    def test_minimum_at_origin_not_applicable(self):
        g = TimeGrid.uniform(1.0, 50)
        with pytest.raises(NotApplicableError):
            extremum_check(series(g, lambda t: t), 0.5)

    def test_decreasing_line_minimum_at_end(self):
        g = TimeGrid.uniform(1.0, 100)
        rep = extremum_check(series(g, lambda t: -t), 0.5)
        assert rep.holds
        ref = -gamma(2.0) * 1.0 ** 0.5 / gamma(1.5)  # power-rule oracle
        assert rep.caputo_at_min == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.93])
    @pytest.mark.parametrize("grid", ["uniform", "graded"])
    def test_row_equals_full_l1_field(self, alpha, grid):
        # the check forms only row k; it must be that row of caputo_l1 to the bit
        g = TimeGrid.uniform(2.0, 150) if grid == "uniform" else TimeGrid.graded(2.0, 150, 2.0 / alpha)
        rng = np.random.default_rng(int(alpha * 100))
        for _ in range(5):
            c = rng.normal(0, 1, 3)
            y = series(g, lambda t: c[0] * np.sin(4 * t + c[1]) + c[2] * t)
            k = int(np.argmin(y.values))
            if k == 0:
                continue
            assert extremum_check(y, alpha).caputo_at_min == caputo_l1(y, alpha).values[k]

    def test_rejects_bad_alpha(self):
        g = TimeGrid.uniform(1.0, 20)
        with pytest.raises(ValueError):
            extremum_check(series(g, lambda t: (t - 0.5) ** 2), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_smooth_series(self, seed):
        rng = np.random.default_rng(seed)
        g = TimeGrid.uniform(1.0, 256)
        c = rng.normal(0, 1, 4)
        t = g.nodes
        vals = c[0] * np.sin(2 * np.pi * t) + c[1] * np.cos(3 * t) + c[2] * t + c[3] * t ** 2
        y = TimeSeries(g, vals)
        if int(np.argmin(vals)) == 0:
            with pytest.raises(NotApplicableError):
                extremum_check(y, 0.5)
        else:
            assert extremum_check(y, 0.5).holds
