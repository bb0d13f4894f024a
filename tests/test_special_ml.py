import math
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx, gamma, gammaln, rgamma

from fraccomp import special_ml
from fraccomp.special_ml import (
    InvalidParameterError,
    MLQuery,
    ml,
    ml_kernel,
    ml_kernel_integral,
    ml_relaxation,
    ml_value,
    relaxation_batch,
    relaxation_deficit,
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


class TestMLRange:
    @pytest.mark.parametrize("alpha, x", [(0.5, 1e308), (0.1, 1e31), (0.3, 1e300)])
    def test_huge_negative_argument(self, alpha, x):
        # x^(1/alpha) overflows; E(-x) is about x^-1 / Gamma(1 - alpha),
        # for alpha = 1/2 erfcx(x), a subnormal at x = 1e308
        r = ml(MLQuery(alpha, 1.0, -x))
        with mpmath.workdps(30):
            ref = float(mpmath.rgamma(1 - mpmath.mpf(alpha)) / mpmath.mpf(x))
        assert r.regime == "asymptotic"
        assert abs(r.value - ref) <= r.est_abs_error <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("alpha, beta, z", [(0.5, 1.0, 800.0), (0.5, 1.0, 1e300), (1.0, 1.0, 1000.0),
                                                (2.0, 1.0, 1e7), (2.0, 2.0, 1e7), (0.5, 0.2, 700.0)])
    def test_overflow_is_rejected(self, alpha, beta, z):
        with pytest.raises(InvalidParameterError, match="overflows the double range"):
            ml(MLQuery(alpha, beta, z))


class TestAsymptoticTermMemo:
    """The x-independent parts of the asymptotic series are kept per
    (alpha, beta, max_terms) in a bounded memo."""

    @staticmethod
    def uncached(alpha, beta, x, max_terms):
        # the series terms formed from scratch, in the memo's operation order
        k = np.arange(1, max_terms + 1, dtype=float)
        y = alpha * k - beta + 1.0
        y_c = (1.0 - alpha) * k + (beta - 1.0)
        sin_y = np.where(np.abs(y) <= np.abs(y_c), np.sin(np.pi * y),
                         (-1.0) ** (k + 1) * np.sin(np.pi * y_c))
        base = -k * math.log(x) + gammaln(np.maximum(y, 1e-300)) - math.log(math.pi)
        with np.errstate(divide="ignore"):
            ln_mag = base + np.log(np.abs(sin_y))
        ln_env = base
        sign = (-1.0) ** (k + 1) * np.sign(sin_y)
        small = y <= 0.0
        if small.any():
            ln_mag[small] = -k[small] * math.log(x) - gammaln(1.0 - y[small])
            ln_env[small] = ln_mag[small]
            sign[small] = (-1.0) ** (k[small] + 1)
        return k, ln_mag, ln_env, sign

    @pytest.mark.parametrize("alpha, beta", [(0.3, 1.0), (0.5, 0.5), (0.95, 1.0), (0.999, 0.999),
                                             (1.5, 1.0), (1.5, 0.7), (0.3, 1.7)])
    def test_values_equal_an_uncached_evaluation(self, alpha, beta):
        for x in np.geomspace(0.7, 3e3, 25):
            # twice: the second call reads the memo, and the first must not have changed it
            for _ in range(2):
                got = special_ml._asym_term_logs(alpha, beta, float(x), 1200)
                for a, b in zip(got, self.uncached(alpha, beta, float(x), 1200)):
                    assert np.array_equal(a, b)
                got[1][:] = 0.0
                got[2][:] = 0.0

    def test_memo_is_bounded_and_read_only(self):
        memo = special_ml._asym_term_parts
        assert memo.cache_info().maxsize <= 8
        for alpha in np.linspace(0.1, 0.9, 12):
            special_ml._asym_term_logs(float(alpha), 1.0, 5.0, 300)
        assert memo.cache_info().currsize <= memo.cache_info().maxsize
        for part in memo(0.5, 1.0, 300):
            assert not part.flags.writeable
        assert not special_ml._asym_term_logs(0.5, 1.0, 5.0, 300)[3].flags.writeable


class TestSeriesTermsOnce:
    """_series reads ln Gamma(alpha k + beta) from a bounded memo of rows,
    and _asymptotic_neg hands fsum only the terms that did not underflow;
    both keep the values and estimates of the term-by-term formulas."""

    @staticmethod
    def series_term_by_term(alpha, beta, z, max_terms=600):
        # _series with one scalar gammaln call per term
        total = comp = abs_sum = max_abs = 0.0
        lz = math.log(abs(z)) if z != 0.0 else -math.inf
        term = rgamma(beta)
        k = 0
        while True:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            abs_sum += abs(term)
            max_abs = max(max_abs, abs(term))
            k += 1
            if k >= max_terms:
                break
            term = math.copysign(1.0, z) ** k * math.exp(k * lz - gammaln(alpha * k + beta)) if z != 0.0 else 0.0
            if abs(term) < 1e-17 * (max_abs + 1.0) and k > 4:
                break
        return total, abs(term) + 2.0 * special_ml._EPS * abs_sum + 1e-13 * max_abs

    @staticmethod
    def asymptotic_all_terms(alpha, beta, x, max_terms=1200):
        # _asymptotic_neg with fsum over all k_opt terms, underflowed or not
        k, ln_mag, ln_env, sign = special_ml._asym_term_logs(alpha, beta, x, max_terms)
        k_opt = int(np.argmin(ln_env)) + 1
        head = ln_mag[:k_opt]
        mags = np.where(np.isfinite(head), np.exp(np.minimum(head, 700.0)), 0.0)
        terms = sign[:k_opt] * mags
        total = math.fsum(terms.tolist())
        est = 2.0 * float(np.exp(min(ln_env[k_opt - 1], 700.0)))
        if alpha < 1.0:
            theta, root = math.pi * (1.0 / alpha - 1.0), special_ml._units(x, alpha)
            est += (2.0 / alpha) * erfcx(theta * math.sqrt(0.5 * root)) * math.exp(
                (1.0 - beta) / alpha * math.log(x) + root * (math.cos(math.pi / alpha) - 0.5 * theta * theta))
        kx = k[:k_opt] * math.log(x)
        parts = np.where(np.isfinite(head), np.abs(kx) + np.abs(head + kx), 0.0)
        rounding = special_ml._EPS * float(np.sum(np.abs(terms) * (1.0 + parts))) + 0.5 * math.ulp(total)
        return total, est + rounding

    def test_values_and_estimates_equal_the_term_by_term_formulas(self, monkeypatch):
        rng = np.random.default_rng(27)
        points = []
        for _ in range(2000):
            alpha = float(rng.uniform(0.1, 0.99)) if rng.random() < 0.8 else float(rng.uniform(1.01, 1.7))
            beta = float(rng.choice([0.5, 0.9, 1.0, 1.6]))
            if alpha > 1.0:  # the series or the asymptotic regime, not mpmath's series in between
                x = float(10.0 ** rng.uniform(-6.0, -1.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(3.0, 6.0))
            else:
                x = float(10.0 ** rng.uniform(-6.0, 6.0))
            if rng.random() < 0.1:  # z > 0: the series of 2000 terms, below overflow
                x = -float(10.0 ** rng.uniform(-6.0, 0.0))
            points.append((alpha, beta, -x))
        got = [ml(MLQuery(*p)) for p in points]
        monkeypatch.setattr(special_ml, "_series", self.series_term_by_term)
        monkeypatch.setattr(special_ml, "_asymptotic_neg", self.asymptotic_all_terms)
        ref = [ml(MLQuery(*p)) for p in points]
        assert {r.regime for r in ref} == {"series", "integral", "asymptotic"}
        assert [(r.value, r.est_abs_error, r.regime) for r in got] == \
            [(r.value, r.est_abs_error, r.regime) for r in ref]

    def test_ln_gamma_memo_is_bounded(self):
        memo = special_ml._series_ln_gamma
        assert memo.cache_info().maxsize is not None and memo.cache_info().maxsize <= 64
        for alpha in np.linspace(0.1, 0.9, 80):
            ml(MLQuery(float(alpha), 1.0, -0.5))
        assert memo.cache_info().currsize <= memo.cache_info().maxsize


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

    @pytest.mark.parametrize("lam", [1e-14, 1e-9])
    def test_small_rate(self, lam):
        # the difference of relaxation values over lam loses ~|log10 lam|
        # digits; reference: the series sum_k (-lam)^k ((t-s0)^(a(k+1)) -
        # (t-s1)^(a(k+1))) / Gamma(a(k+1) + 1) in 30-digit arithmetic
        alpha, s0, s1, t = 0.5, 0.0, 0.5, 1.0
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            ref = sum((-mpmath.mpf(lam)) ** k
                      * ((t - s0) ** (a * (k + 1)) - (t - s1) ** (a * (k + 1)))
                      / mpmath.gamma(a * (k + 1) + 1) for k in range(6))
        assert ml_kernel_integral(alpha, lam, s0, s1, t) == pytest.approx(float(ref), rel=1e-14)

    def test_rejects_negative_rate(self):
        for lam in (-1e-300, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                ml_kernel_integral(0.5, lam, 0.0, 0.5, 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(InvalidParameterError):
            ml_kernel_integral(0.5, 1.0, 0.7, 0.2, 1.0)
        with pytest.raises(InvalidParameterError):
            ml_kernel_integral(0.5, 1.0, 0.0, 1.5, 1.0)

    def test_lambda0_branch(self):
        alpha = 0.45
        got = ml_kernel_integral(alpha, 0.0, 0.0, 1.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(alpha + 1.0), rel=1e-13)
        ref, _ = quad(lambda s: (1.0 - s) ** (alpha - 1.0) / gamma(alpha), 0.2, 0.7)
        assert ml_kernel_integral(alpha, 0.0, 0.2, 0.7, 1.0) == pytest.approx(ref, rel=1e-9)

    def test_lambda_scan_against_series(self):
        # the window mass hi^a phi(lam hi^a) - lo^a phi(lam lo^a) with the
        # ages hi, lo of the window's ends and phi in 40 digits, through
        # the switch at lam t^a = 1e-8 the mass once had and on to lam = 3
        t = 1.0
        for alpha in (0.1, 0.3, 0.5, 0.95):
            a = mpmath.mpf(alpha)
            for lam in np.concatenate([[0.0], np.geomspace(1e-14, 3.0, 25)]):
                for s0, s1 in ((0.5, 1.0), (0.0, 0.5), (0.9, 0.95)):
                    with mpmath.workdps(40):
                        hi, lo = mpmath.mpf(t - s0) ** a, mpmath.mpf(t - s1) ** a
                        ref = hi * mp_deficit(alpha, lam * hi) - lo * mp_deficit(alpha, lam * lo)
                    got = ml_kernel_integral(alpha, lam, s0, s1, t)
                    assert abs(got / ref - 1) <= 1e-12, (alpha, lam, s0, s1)


def mp_deficit(alpha, x):
    """phi(x) = (1 - E_{alpha,1}(-x))/x as an mpf: the series
    sum_k (-x)^k / Gamma(alpha (k + 1) + 1) where x^(1/alpha) <= 60, at the
    precision its cancellation needs, else 1 - E over x with E's asymptotic
    expansion summed to its smallest term, off by about e^-60 relative."""
    a, xm = mpmath.mpf(alpha), mpmath.mpf(x)
    if x ** (1.0 / alpha) <= 60.0:
        dps = 40 + int(max(x, 1.0) ** (1.0 / alpha) / 2.3)
        with mpmath.workdps(dps):
            total, k = mpmath.mpf(0), 0
            while True:
                term = (-xm) ** k * mpmath.rgamma(a * (k + 1) + 1)
                total += term
                if k > 5 and abs(term) < mpmath.mpf(10) ** -40 * abs(total):
                    return +total
                k += 1
    e, prev = mpmath.mpf(0), mpmath.inf
    for k in range(1, 2000):
        envelope = xm ** -k * mpmath.gamma(a * k) / mpmath.pi  # >= |x^-k / Gamma(1 - a k)|
        if envelope > prev or envelope < mpmath.mpf(10) ** -40:
            break
        prev = envelope
        e += (-1) ** (k + 1) * xm ** -k * mpmath.rgamma(1 - a * k)
    return (1 - e) / xm


class TestDeficit:
    """relaxation_deficit: phi(x) = (1 - E_{alpha,1}(-x))/x without cancellation."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.95])
    def test_matches_series(self, alpha):
        # both sides of the Taylor head's reach and of the table's, to 1e2
        x = np.concatenate([[0.0, 5e-324], np.geomspace(1e-16, 0.04, 8),
                            np.geomspace(0.045, 100.0, 50)])
        got = relaxation_deficit(alpha, x)
        with mpmath.workdps(40):
            ref = np.array([float(mp_deficit(alpha, xi)) if xi else float(mpmath.rgamma(alpha + 1))
                            for xi in x])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14

    def test_pointwise(self):
        # a value does not depend on the others it is computed with, however
        # many Taylor terms the largest of them takes: the march's masses of
        # a block of nodes then equal those of a shorter block
        rng = np.random.default_rng(3)
        for alpha in (0.3, 0.95, 1.0):
            x = np.concatenate([[0.0, 1e-300, 1e-16, 1e-3, 0.1, 0.25, 1.5, 30.0],
                                10.0 ** rng.uniform(-14.0, 1.0, 300)])
            together = relaxation_deficit(alpha, x)
            alone = np.array([relaxation_deficit(alpha, x[i : i + 1])[0] for i in range(x.size)])
            assert np.array_equal(together, alone)

    def test_alpha_one_is_expm1(self):
        x = np.concatenate([[0.0], np.geomspace(1e-300, 1e3, 200)])
        got = relaxation_deficit(1.0, x)
        with np.errstate(invalid="ignore"):
            ref = np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
        assert np.max(np.abs(got / ref - 1.0)) <= 4e-16

    def test_window_mass_is_the_relaxation_difference(self):
        # x phi(x) = 1 - E(-x) where that difference does not cancel
        for alpha in (0.3, 0.7):
            x = np.geomspace(0.5, 1e4, 40)
            got = x * relaxation_deficit(alpha, x)
            assert np.allclose(got, 1.0 - relaxation_batch(alpha, x), rtol=1e-14, atol=0.0)

    def test_shape_and_rejects_negative(self):
        assert relaxation_deficit(0.5, np.zeros((3, 4))).shape == (3, 4)
        assert relaxation_deficit(0.5, 0.0) == pytest.approx(1.0 / gamma(1.5), rel=1e-15)
        with pytest.raises(InvalidParameterError):
            relaxation_deficit(0.5, np.array([1.0, -1e-300]))
        with pytest.raises(InvalidParameterError):
            relaxation_deficit(1.5, np.ones(2))


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

    @pytest.mark.parametrize("alpha, x", [(0.99, (1.5 * 38.0) ** 0.99), (0.5, 1.01 * 38.0 ** 0.5)])
    def test_asymptotic_estimate_covers_rounding_points(self, alpha, x):
        # each term exp(ln_mag) is off by about eps |ln_mag| relative, and the
        # sum by half an ulp: 1.9e-19 and 2.8e-17 here, beyond the terms' eps
        r = ml(MLQuery(alpha, 1.0, -x))
        assert r.regime == "asymptotic"
        assert abs(r.value - special_ml._mp_series(alpha, 1.0, -x)) <= r.est_abs_error

    def test_asymptotic_estimate_covers_rounding_scan(self):
        for alpha in (0.3, 0.5, 0.7, 0.9, 0.99, 0.999999):
            for beta in (1.0, alpha):
                for factor in (1.01, 1.1, 1.5, 3.0):
                    x = (factor * 38.0) ** alpha
                    r = ml(MLQuery(alpha, beta, -x))
                    assert r.regime == "asymptotic"
                    err = abs(r.value - special_ml._mp_series(alpha, beta, -x))
                    assert err <= r.est_abs_error, (alpha, beta, factor)

    @pytest.mark.parametrize("alpha", RULE_ALPHAS)
    def test_scalar_and_batch_agree(self, alpha):
        x = np.geomspace(1e-3, 1e3, 200)
        scalar = np.array([ml_relaxation(alpha, xi, 1.0) for xi in x])
        assert np.max(np.abs(relaxation_batch(alpha, x) - scalar)) <= 1e-12


class TestReferenceNodes:
    """ml() and the tables slice their trapezoid nodes from one memoised node
    set per alpha."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999])
    def test_slices_equal_a_fresh_placement(self, alpha, monkeypatch):
        # random ranges grow the memo on either side or fall inside it
        monkeypatch.setattr(special_ml, "_nodes", OrderedDict())
        h = special_ml._REF_H
        rng = np.random.default_rng(1)
        for _ in range(60):
            v_lo = rng.uniform(-70.0, 5.0)
            v_hi = v_lo + rng.uniform(0.0, 40.0)
            got = special_ml._reference_nodes(alpha, v_lo, v_hi)
            ref = special_ml._rule_nodes(alpha, h, v_lo, v_hi)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert list(special_ml._nodes) == [alpha]

    def test_growth_keeps_the_edge_it_did_not_pass(self, monkeypatch):
        # ranges that start on the lower edge of the set, with or without
        # its padding, and leave it above: the rebuilt set must still start
        # at that edge's node, though its v may round to a higher w
        h, pad = special_ml._REF_H, special_ml._NODES_PAD
        rng = np.random.default_rng(2)
        for alpha in (0.44, 0.7):
            for v_lo in rng.uniform(-60.0, -20.0, 40):
                monkeypatch.setattr(special_ml, "_nodes", OrderedDict())
                for lo, hi in [(v_lo, v_lo + 20.0), (v_lo, v_lo + 40.0), (v_lo - pad, v_lo + 80.0)]:
                    got = special_ml._reference_nodes(alpha, lo, hi)
                    ref = special_ml._rule_nodes(alpha, h, lo, hi)
                    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_a_node_does_not_depend_on_its_neighbours(self):
        k = np.arange(-900, 200)
        v, dv = special_ml._nodes_at(0.3, 0.15, k)
        for part in (slice(0, 7), slice(450, 460), slice(1090, 1100)):
            v_part, dv_part = special_ml._nodes_at(0.3, 0.15, k[part])
            assert np.array_equal(v_part, v[part]) and np.array_equal(dv_part, dv[part])

    def test_node_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(special_ml, "_TABLES_MAX", 2)
        monkeypatch.setattr(special_ml, "_nodes", OrderedDict())
        for alpha in (0.41, 0.42, 0.43):
            ml(MLQuery(alpha, 1.0, -4.0))
        assert list(special_ml._nodes) == [0.42, 0.43]
        assert ml(MLQuery(0.42, 1.0, -4.0)).regime == "integral"  # a hit
        ml(MLQuery(0.44, 1.0, -4.0))
        assert list(special_ml._nodes) == [0.42, 0.44]


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
