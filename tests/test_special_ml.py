import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx, gamma

from fraccomp import special_ml
from fraccomp.special_ml import (
    InvalidParameterError,
    MLQuery,
    kernel_integral_lambda0,
    ml,
    ml_kernel,
    ml_kernel_integral,
    ml_relaxation,
    ml_value,
    relaxation_batch,
    relaxation_exponentials,
)


class TestMLExamples:
    def test_zero_argument(self):
        assert ml_value(0.7, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_exponential_case(self):
        assert ml_value(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_cosine_identity_at_zero(self):
        # E_{2,1}(-x^2) = cos x at x = pi/2
        assert abs(ml_value(2.0, 1.0, -math.pi ** 2 / 4.0)) < 1e-14

    def test_erfcx_identity_point(self):
        # E_{1/2,1}(-x) = e^{x^2} erfc(x)
        assert ml_value(0.5, 1.0, -1.0) == pytest.approx(erfcx(1.0), rel=1e-11)

    def test_erfcx_identity_sweep(self):
        xs = np.linspace(0.0, 5.0, 157)
        for x in xs:
            got = ml_value(0.5, 1.0, -x)
            assert got == pytest.approx(erfcx(x), rel=1e-9)

    def test_regime_recorded(self):
        assert ml(MLQuery(0.5, 1.0, -0.5)).regime == "series"
        assert ml(MLQuery(0.5, 1.0, -4.0)).regime == "integral"
        assert ml(MLQuery(0.5, 1.0, -100.0)).regime == "asymptotic"

    def test_results_are_python_floats(self):
        queries = [(0.5, 1.0, 0.0), (0.5, 1.0, -0.5), (0.5, 1.0, -4.0), (0.5, 1.0, -100.0),
                   (0.5, 1.0, 3.0), (1.5, 1.0, -5.0)]
        for q in queries:
            r = ml(MLQuery(*q))
            assert type(r.value) is float and type(r.est_abs_error) is float, r

    def test_error_estimate_honest_against_erfcx(self):
        for x in np.geomspace(0.01, 200.0, 60):
            r = ml(MLQuery(0.5, 1.0, -x))
            true = erfcx(x)
            assert abs(r.value - true) <= max(r.est_abs_error, 1e-12 * (1 + abs(r.value)))


class TestMLGuarantee:
    @pytest.mark.parametrize("alpha, beta, z", [(0.02, 1.0, -1.03), (0.999999, 0.999999, -8.633)])
    def test_value_against_exact_series(self, alpha, beta, z):
        # values once returned wrong with small estimates: a float series cut
        # at 600 terms (0.436575 for 0.4897243782), and a kernel value near
        # alpha = 1 off by a factor 2 (8.908e-5 for 1.7816e-4)
        r = ml(MLQuery(alpha, beta, z))
        ref = special_ml._mp_series(alpha, beta, z)
        assert r.est_abs_error <= 1e-12 * (1.0 + abs(r.value))
        assert abs(r.value - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_error_estimates_stay_small(self):
        loose = []
        for alpha in np.geomspace(0.01, 0.999, 30):
            for beta in (1.0, alpha, 0.5, 1.5):
                for x in np.geomspace(1e-3, 1e3, 50):
                    r = ml(MLQuery(alpha, beta, -x))
                    if r.est_abs_error > 1e-12 * (1.0 + abs(r.value)):
                        loose.append((alpha, beta, x, r))
        assert not loose


class TestMLValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            ml(MLQuery(0.0, 1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            ml(MLQuery(-0.5, 1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            ml(MLQuery(2.5, 1.0, 1.0))

    def test_rejects_bad_beta(self):
        with pytest.raises(InvalidParameterError):
            ml(MLQuery(0.5, 0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            ml(MLQuery(0.5, -1.0, 1.0))

    def test_rejects_nonfinite_z(self):
        with pytest.raises(InvalidParameterError):
            ml(MLQuery(0.5, 1.0, math.inf))
        with pytest.raises(InvalidParameterError):
            ml(MLQuery(0.5, 1.0, math.nan))


class TestRelaxation:
    def test_zero_rate(self):
        assert ml_relaxation(0.5, 0.0, 3.0) == 1.0

    def test_exponential(self):
        assert ml_relaxation(1.0, 2.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_erfc_oracle(self):
        assert ml_relaxation(0.5, 1.0, 1.0) == pytest.approx(erfcx(1.0), rel=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.25, 1.0),
        lam=st.floats(0.0, 50.0),
    )
    def test_range_and_monotonicity(self, alpha, lam):
        ts = np.linspace(0.0, 4.0, 120)
        vals = np.array([ml_relaxation(alpha, lam, t) for t in ts])
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0 + 1e-14)
        assert np.all(np.diff(vals) <= 1e-11)

    def test_podlubny_bound(self):
        # |E_{a,1}(-x)|, |E_{a,a}(-x)| <= C/(1+x) with C = 1.1 (empirical pin)
        C = 1.1
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 120)])
        for alpha in (0.3, 0.45, 0.6, 0.75, 0.9):
            for x in xs:
                bound = C / (1.0 + x)
                assert ml_value(alpha, 1.0, -x) <= bound * (1 + 1e-9)
                assert ml_value(alpha, alpha, -x) <= bound * (1 + 1e-9)


class TestKernel:
    def test_exponential_case(self):
        assert ml_kernel(1.0, 3.0, 2.0) == pytest.approx(math.exp(-6.0), rel=1e-12)

    def test_zero_rate(self):
        # t^(a-1) E_{a,a}(0) = t^(a-1)/Gamma(a) = 1/(2 sqrt(pi)) at a=1/2, t=4
        assert ml_kernel(0.5, 0.0, 4.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)

    def test_derivative_identity_oracle(self):
        # d/dt E_{a,1}(-lam t^a) = -lam t^(a-1) E_{a,a}(-lam t^a)
        alpha, lam, t, h = 0.6, 2.0, 0.5, 1e-4
        fd = (ml_relaxation(alpha, lam, t + h) - ml_relaxation(alpha, lam, t - h)) / (2 * h)
        assert fd == pytest.approx(-lam * ml_kernel(alpha, lam, t), rel=1e-6)

    def test_derivative_identity_sweep(self):
        h = 1e-4
        for alpha in (0.3, 0.5, 0.7, 0.9):
            for lam in (0.5, 2.0, 10.0):
                for t in (0.3, 1.0, 2.5):
                    fd = (ml_relaxation(alpha, lam, t + h) - ml_relaxation(alpha, lam, t - h)) / (2 * h)
                    assert fd == pytest.approx(-lam * ml_kernel(alpha, lam, t), rel=1e-5)

    def test_nonnegative(self):
        for alpha in (0.3, 0.7):
            for lam in (0.0, 1.0, 100.0):
                for t in (0.01, 1.0, 50.0):
                    assert ml_kernel(alpha, lam, t) >= 0.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidParameterError):
            ml_kernel(0.5, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            ml_kernel(0.5, 1.0, -1.0)


class TestKernelIntegral:
    def test_full_window_identity(self):
        # int_0^1 with lam=1 equals 1 - E_{1/2,1}(-1); erfcx oracle
        got = ml_kernel_integral(0.5, 1.0, 0.0, 1.0, 1.0)
        assert got == pytest.approx(1.0 - erfcx(1.0), rel=1e-11)

    def test_exponential_integral(self):
        got = ml_kernel_integral(1.0, 2.0, 0.0, 1.0, 1.0)
        assert got == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-12)

    def test_adaptive_quadrature_oracle(self):
        alpha, lam, s0, s1, t = 0.4, 5.0, 0.2, 0.7, 1.0
        ref, _ = quad(lambda s: ml_kernel(alpha, lam, t - s), s0, s1, epsabs=1e-12, epsrel=1e-12)
        got = ml_kernel_integral(alpha, lam, s0, s1, t)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_bounded_by_inverse_rate(self):
        for lam in (0.5, 3.0, 40.0):
            got = ml_kernel_integral(0.6, lam, 0.0, 2.0, 2.0)
            assert 0.0 <= got <= 1.0 / lam + 1e-15

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.3, 0.95),
        lam=st.floats(0.05, 20.0),
        cuts=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    )
    def test_additivity(self, alpha, lam, cuts):
        t = 1.7
        a, b = sorted(t * c for c in cuts)
        if b - a < 1e-6 or a < 1e-6:
            return
        whole = ml_kernel_integral(alpha, lam, 0.0, b, t)
        left = ml_kernel_integral(alpha, lam, 0.0, a, t)
        right = ml_kernel_integral(alpha, lam, a, b, t)
        assert left + right == pytest.approx(whole, rel=1e-12, abs=1e-15)

    def test_rejects_zero_rate(self):
        with pytest.raises(InvalidParameterError):
            ml_kernel_integral(0.5, 0.0, 0.0, 0.5, 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(InvalidParameterError):
            ml_kernel_integral(0.5, 1.0, 0.7, 0.2, 1.0)
        with pytest.raises(InvalidParameterError):
            ml_kernel_integral(0.5, 1.0, 0.0, 1.5, 1.0)

    def test_lambda0_branch(self):
        alpha = 0.45
        got = kernel_integral_lambda0(alpha, 0.0, 1.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(alpha + 1.0), rel=1e-13)
        ref, _ = quad(lambda s: (1.0 - s) ** (alpha - 1.0) / gamma(alpha), 0.2, 0.7)
        assert kernel_integral_lambda0(alpha, 0.2, 0.7, 1.0) == pytest.approx(ref, rel=1e-9)


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(42)
        for alpha in (0.3, 0.5, 0.7, 0.9):
            xs = np.concatenate([[0.0], np.abs(rng.normal(0, 30, 200)), np.geomspace(1e-5, 1e6, 100)])
            got = relaxation_batch(alpha, xs)
            ref = np.array([ml_value(alpha, 1.0, -x) for x in xs])
            assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 5e-12

    def test_alpha_one_is_exp(self):
        xs = np.linspace(0.0, 30.0, 50)
        assert np.allclose(relaxation_batch(1.0, xs), np.exp(-xs), rtol=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            relaxation_batch(0.5, np.array([-1.0]))

    def test_packed_segments_match_chebval(self):
        # the gathered Clenshaw loop over zero-padded rows against numpy's
        # chebval per segment on the unpadded coefficients: bit for bit
        rng = np.random.default_rng(3)
        for alpha in (0.3, 0.7, 0.999):
            table = special_ml._table(alpha)
            x = np.exp(rng.uniform(math.log(table.x_ser), math.log(table.x_asym), 2000))
            got = table(x)
            sv = np.log(x)
            idx = np.searchsorted(table.cheb_edges, sv)
            ref = np.empty_like(sv)
            for j, row in enumerate(table.cheb_coef):
                sel = idx == j
                s = (2.0 * sv[sel] - table.cheb_apb[j]) / table.cheb_bma[j]
                ref[sel] = np.exp(np.polynomial.chebyshev.chebval(s, np.trim_zeros(row, "b")))
            assert np.array_equal(got, ref)

    def test_alpha_0999_builds(self):
        table = special_ml._table(0.999)
        xs = np.concatenate([np.geomspace(0.06, 20.0, 12), np.linspace(5.1, 5.2, 5)])
        got = table(xs)
        ref = np.array([special_ml._mp_series(0.999, 1.0, -x) for x in xs])
        assert np.max(np.abs(got - ref) / ref) < 5e-12

    def test_table_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(special_ml, "_TABLES_MAX", 2)
        monkeypatch.setattr(special_ml, "_tables", OrderedDict())
        for alpha in (0.31, 0.32, 0.33):
            relaxation_batch(alpha, np.ones(3))
        assert list(special_ml._tables) == [0.32, 0.33]
        relaxation_batch(0.32, np.ones(3))  # a hit makes 0.32 the most recent
        relaxation_batch(0.34, np.ones(3))
        assert list(special_ml._tables) == [0.32, 0.34]


RULE_ALPHAS = [0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999, 0.999999]


class TestSpectralRule:
    @pytest.mark.parametrize("alpha", RULE_ALPHAS)
    def test_matches_exact_series(self, alpha):
        # x^(1/alpha) <= 40 keeps the mpmath series cheap
        x = np.geomspace(1e-3, 40.0 ** alpha, 12)
        for beta in (1.0, alpha):
            got, est = special_ml._ml_neg(alpha, beta, x)
            ref = np.array([special_ml._mp_series(alpha, beta, -xi) for xi in x])
            assert np.max(np.abs(got / ref - 1.0)) < 5e-14
            assert np.all(np.abs(got - ref) <= est)
        # beta > 1 + alpha goes through the recurrence in beta, which divides
        # by x: the scalar evaluator uses it only where the series fails, x > 1
        beta = 1.3 + alpha
        x = np.geomspace(1.0, 40.0 ** alpha, 6)
        got, est = special_ml._ml_neg(alpha, beta, x)
        ref = np.array([special_ml._mp_series(alpha, beta, -xi) for xi in x])
        assert np.max(np.abs(got - ref)) < 1e-12
        assert np.all(np.abs(got - ref) <= est)

    @pytest.mark.parametrize("alpha", [0.99999, 0.999999])
    def test_asymptotic_tail_near_one(self, alpha):
        # the reflection sine of the tail coefficients, sin(pi alpha k), loses
        # about eps/(1 - alpha) relative unless taken from (1 - alpha) k
        table = special_ml._table(alpha)
        x = np.geomspace(table.x_asym, 50.0 * table.x_asym, 64)
        ref = special_ml._ml_neg(alpha, 1.0, x)[0]
        assert np.max(np.abs(relaxation_batch(alpha, x) / ref - 1.0)) < 1e-13

    @pytest.mark.parametrize("alpha", [0.999, 0.99999, 0.999999])
    @pytest.mark.parametrize("beta_is_alpha", [False, True])
    def test_asymptotic_estimate_counts_exponential_branch(self, alpha, beta_is_alpha):
        # just above the switch x^(1/alpha) = 38 the omitted e^-x-like term
        # (3e-17 at x = 38) is larger than the tail's own estimate
        beta = alpha if beta_is_alpha else 1.0
        for factor in (1.0, 1.01, 1.1):
            x = 38.0 ** alpha * factor
            r = ml(MLQuery(alpha, beta, -x))
            assert r.regime == "asymptotic"
            assert abs(r.value - special_ml._mp_series(alpha, beta, -x)) <= r.est_abs_error

    @pytest.mark.parametrize("alpha", RULE_ALPHAS)
    def test_scalar_and_batch_agree(self, alpha):
        x = np.geomspace(1e-3, 1e3, 200)
        scalar = np.array([ml_relaxation(alpha, xi, 1.0) for xi in x])
        assert np.max(np.abs(relaxation_batch(alpha, x) - scalar)) <= 1e-12


class TestExponentialSum:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.95, 0.999999])
    def test_rule_accuracy(self, alpha):
        rule = relaxation_exponentials(alpha)
        assert np.all(rule.weight > 0.0)
        sigma = np.geomspace(rule.sigma_lo, 1e18, 1500)
        got = np.exp(-sigma[:, None] * np.exp(rule.log_rho)[None, :]) @ rule.weight
        assert np.max(np.abs(got - relaxation_batch(alpha, sigma ** alpha))) < 1e-10

    def test_rejects_alpha_outside_open_interval(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidParameterError):
                relaxation_exponentials(alpha)
