"""Mittag-Leffler functions E_{alpha,beta}(z) for real arguments.

The dominant use in this package is the relaxation profile E_{alpha,1}(-lambda t^alpha)
and the kernel profile t^(alpha-1) E_{alpha,alpha}(-lambda t^alpha) on the negative
real axis, where E is positive and completely monotone for 0 < alpha <= 1.

Evaluation strategy (scalar):

* power series with Kahan summation while the largest intermediate term stays
  small enough that alternating-sign cancellation cannot eat the answer,
* a spectral-function integral over (0, inf) through adaptive quadrature in
  the stretched variable where the integrand has no endpoint singularity
  (used in the gap where neither series nor asymptotics reach full accuracy),
* the algebraic asymptotic expansion truncated at its smallest term for
  large |z|,

plus closed forms for alpha in {1, 2} and a high-precision series fallback for
the rarely used non-integer alpha in (1, 2) at strongly negative z.

For the solvers there is a vectorised fast path ``relaxation_batch`` that
evaluates E_{alpha,1}(-x) on arrays; its gap regime is a per-alpha Chebyshev
interpolant (in log x) built from the scalar evaluator and validated against
it on construction.  With each table comes ``relaxation_exponentials``, a
sum of decaying exponentials equal to E_{alpha,1}(-sigma^alpha), on which the
spectral march runs its memory.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, rgamma

__all__ = [
    "MLQuery",
    "MLResult",
    "InvalidParameterError",
    "ml",
    "ml_value",
    "ml_relaxation",
    "ml_kernel",
    "ml_kernel_integral",
    "kernel_integral_lambda0",
    "relaxation_batch",
    "ExponentialSum",
    "relaxation_exponentials",
]


class InvalidParameterError(ValueError):
    """Raised for parameters outside the supported domain."""


@dataclass(frozen=True)
class MLQuery:
    alpha: float
    beta: float = 1.0
    z: float = 0.0


@dataclass(frozen=True)
class MLResult:
    value: float
    est_abs_error: float
    regime: str  # "series" | "integral" | "asymptotic"


# Largest admissible ln(max series term); keeps float64 cancellation below ~1e-11.
_LN_SAFE = math.log(300.0)
# Dispatch happens in units of |z|^(1/alpha); asymptotics take over here.
_ASYM_E = 38.0
_EPS = np.finfo(float).eps


def _validate(alpha, beta, z):
    if not (np.isfinite(alpha) and 0.0 < alpha <= 2.0):
        raise InvalidParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if not (np.isfinite(beta) and beta > 0.0):
        raise InvalidParameterError(f"beta must be positive, got {beta}")
    if not np.isfinite(z):
        raise InvalidParameterError(f"z must be finite, got {z}")


def _max_term_ln(alpha, beta, x):
    """ln of the largest term of sum x^k / Gamma(alpha k + beta), x > 0."""
    if x <= 0.0:
        return 0.0
    kstar = (x ** (1.0 / alpha) - beta) / alpha
    if kstar <= 0.0:
        return -gammaln(beta)
    return kstar * math.log(x) - gammaln(alpha * kstar + beta)


def _series(alpha, beta, z, max_terms=600):
    """Kahan-summed power series. Returns (value, est_abs_error)."""
    total = 0.0
    comp = 0.0
    abs_sum = 0.0
    max_abs = 0.0
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
    # first omitted term + rounding of the compensated sum + lgamma argument noise
    est = abs(term) + 2.0 * _EPS * abs_sum + 1e-13 * max_abs
    return total, est


def _asym_term_logs(alpha, beta, x, max_terms):
    """Signed log-space terms of the algebraic tail -sum_k z^-k/Gamma(beta-alpha k)
    at z = -x, plus the smooth magnitude envelope (sine factor dropped).
    Gamma of negative argument goes through the reflection formula so magnitudes
    stay representable for hundreds of terms.  Truncation decisions must use the
    envelope: near alpha = 1 the raw magnitudes dip at pseudo-poles of the
    reflection sine long after the true optimal index."""
    k = np.arange(1, max_terms + 1, dtype=float)
    y = alpha * k - beta + 1.0  # Gamma(beta - alpha k) = Gamma(1 - y)
    sin_y = np.sin(np.pi * y)
    base = -k * math.log(x) + gammaln(np.maximum(y, 1e-300)) - math.log(math.pi)
    with np.errstate(divide="ignore"):
        ln_mag = base + np.log(np.abs(sin_y))
    ln_env = base
    sign = (-1.0) ** (k + 1) * np.sign(sin_y)
    small = y <= 0.0  # Gamma argument >= 1: no reflection needed
    if small.any():
        ln_mag[small] = -k[small] * math.log(x) - gammaln(1.0 - y[small])
        ln_env[small] = ln_mag[small]
        sign[small] = (-1.0) ** (k[small] + 1)
    return k, ln_mag, ln_env, sign


def _asymptotic_neg(alpha, beta, x, max_terms=1200):
    """E_{alpha,beta}(-x) ~ sum_{k>=1} (-1)^(k+1) x^-k / Gamma(beta - alpha k),
    truncated at the smallest envelope magnitude.  Returns (value, est)."""
    k, ln_mag, ln_env, sign = _asym_term_logs(alpha, beta, x, max_terms)
    k_opt = int(np.argmin(ln_env)) + 1
    head = ln_mag[:k_opt]
    mags = np.where(np.isfinite(head), np.exp(np.minimum(head, 700.0)), 0.0)
    terms = sign[:k_opt] * mags
    total = math.fsum(terms)
    est = 2.0 * float(np.exp(min(ln_env[k_opt - 1], 700.0)))
    return total, est + _EPS * float(np.sum(np.abs(terms)))


def _oscillatory_part(alpha, beta, x):
    """The pair of conjugate exponential branches for 1 < alpha < 2 at z = -x."""
    root = x ** (1.0 / alpha)
    ang = math.pi / alpha
    re = root * math.cos(ang)
    im = root * math.sin(ang)
    amp = (2.0 / alpha) * root ** (1.0 - beta) * math.exp(re)
    return amp * math.cos(im + (1.0 - beta) * ang)


def _integral_neg(alpha, beta, x):
    """Spectral-function integral for E_{alpha,beta}(-x), 0 < alpha < 1.

    E = (1/(alpha pi)) int_0^inf r^((1-beta)/alpha) e^{-r^(1/alpha)}
        (r s1 + x s2) / (r^2 + 2 r x cos(pi alpha) + x^2) dr
    with s1 = sin(pi(1-beta)), s2 = sin(pi(1-beta+alpha)).  The integrand has
    no endpoint singularity for beta <= 1 + alpha; larger beta is reduced
    first via E_{a,b}(z) = (E_{a,b-a}(z) - rgamma(b-a)) / z.
    """
    if beta > 1.0 + alpha:
        inner, est = _integral_neg(alpha, beta - alpha, x)
        val = (inner - rgamma(beta - alpha)) / (-x)
        return val, est / x + _EPS * abs(val)
    s1 = math.sin(math.pi * (1.0 - beta))
    s2 = math.sin(math.pi * (1.0 - beta + alpha))
    c = math.cos(math.pi * alpha)
    p = (1.0 - beta) / alpha
    inv_a = 1.0 / alpha

    def f(r):
        den = r * r + 2.0 * r * x * c + x * x
        return r ** p * math.exp(-(r ** inv_a)) * (r * s1 + x * s2) / den / (alpha * math.pi)

    pts = [1.0, x]
    if c < 0.0:
        pts.append(x * abs(c))  # near-cancellation dip of the denominator
    pts = sorted({t for t in pts if 1e-10 < t < 1e9})
    total = 0.0
    err = 0.0
    lo = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for pt in pts:
            v, e = quad(f, lo, pt, epsabs=1e-15, epsrel=1e-12, limit=400)
            total += v
            err += e
            lo = pt
        v, e = quad(f, lo, np.inf, epsabs=1e-15, epsrel=1e-12, limit=400)
    return total + v, err + e


def _mp_series(alpha, beta, z):
    """Arbitrary-precision series; precision scales with the cancellation depth."""
    import mpmath as mp

    x = abs(z)
    expo = x ** (1.0 / alpha) if x > 1.0 else 0.0
    dps = int(expo / math.log(10.0)) + 40
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        zm = mp.mpf(z)
        s = mp.mpf(0)
        k = 0
        while True:
            t = zm ** k * mp.rgamma(a * k + b)
            s += t
            if k > 6 and abs(t) < mp.mpf(10) ** (-dps + 5):
                break
            k += 1
        return float(s)


def ml(q: MLQuery) -> MLResult:
    """Evaluate E_{alpha,beta}(z) with a recorded regime and error estimate.

    Guarantee: |value - E| <= max(est_abs_error, 1e-12 (1 + |value|)).
    """
    alpha, beta, z = float(q.alpha), float(q.beta), float(q.z)
    _validate(alpha, beta, z)

    if z == 0.0:
        v = rgamma(beta)
        return MLResult(float(v), 4.0 * _EPS * abs(v), "series")

    # closed forms; reported as exactly summed series
    if alpha == 1.0 and beta == 1.0:
        v = math.exp(z)
        return MLResult(v, 4.0 * _EPS * abs(v), "series")
    if alpha == 2.0 and beta == 1.0:
        v = math.cos(math.sqrt(-z)) if z < 0.0 else math.cosh(math.sqrt(z))
        return MLResult(v, 4.0 * _EPS * (1.0 + abs(v)), "series")
    if alpha == 2.0 and beta == 2.0:
        r = math.sqrt(abs(z))
        v = math.sin(r) / r if z < 0.0 else math.sinh(r) / r
        return MLResult(v, 4.0 * _EPS * (1.0 + abs(v)), "series")

    if z > 0.0:
        if z ** (1.0 / alpha) <= 200.0:
            v, est = _series(alpha, beta, z, max_terms=2000)
            return MLResult(v, est, "series")
        # exponential growth dominates every algebraic correction out here
        root = z ** (1.0 / alpha)
        lead = (1.0 / alpha) * root ** (1.0 - beta) * math.exp(root)
        return MLResult(lead, abs(z ** -1.0 * rgamma(beta - alpha)) + 4 * _EPS * lead, "asymptotic")

    # z < 0
    x = -z
    if _max_term_ln(alpha, beta, x) <= _LN_SAFE:
        v, est = _series(alpha, beta, z)
        return MLResult(v, est, "series")

    e_units = x ** (1.0 / alpha)
    if alpha < 1.0:
        if e_units >= _ASYM_E:
            v, est = _asymptotic_neg(alpha, beta, x)
            return MLResult(v, est, "asymptotic")
        v, est = _integral_neg(alpha, beta, x)
        return MLResult(v, est, "integral")

    # 1 < alpha < 2 (alpha == 1 with beta != 1 also lands here)
    if e_units >= _ASYM_E and alpha > 1.0:
        alg, est = _asymptotic_neg(alpha, beta, x)
        osc = _oscillatory_part(alpha, beta, x)
        return MLResult(alg + osc, est + _EPS * (abs(alg) + abs(osc)), "asymptotic")
    v = _mp_series(alpha, beta, z)
    return MLResult(v, 1e-13 * (1.0 + abs(v)), "series")


def ml_value(alpha, beta, z) -> float:
    return ml(MLQuery(alpha, beta, z)).value


def ml_relaxation(alpha, lam, t) -> float:
    """E_{alpha,1}(-lam t^alpha): the fractional relaxation profile.

    Lies in (0, 1] and is non-increasing in t for alpha in (0, 1], lam >= 0.
    """
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"relaxation needs alpha in (0, 1], got {alpha}")
    if lam < 0.0 or t < 0.0 or not (np.isfinite(lam) and np.isfinite(t)):
        raise InvalidParameterError("lam and t must be finite and nonnegative")
    if lam == 0.0 or t == 0.0:
        return 1.0
    return ml(MLQuery(alpha, 1.0, -lam * t ** alpha)).value


def ml_kernel(alpha, lam, t) -> float:
    """t^(alpha-1) E_{alpha,alpha}(-lam t^alpha), the Duhamel kernel; >= 0."""
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"kernel needs alpha in (0, 1], got {alpha}")
    if t <= 0.0:
        raise InvalidParameterError("kernel is singular at t <= 0")
    if lam < 0.0:
        raise InvalidParameterError("lam must be >= 0")
    return t ** (alpha - 1.0) * ml(MLQuery(alpha, alpha, -lam * t ** alpha)).value


def ml_kernel_integral(alpha, lam, s0, s1, t) -> float:
    """Closed form of int_{s0}^{s1} (t-s)^(alpha-1) E_{alpha,alpha}(-lam (t-s)^alpha) ds.

    Equals (1/lam) [E_{alpha,1}(-lam (t-s1)^alpha) - E_{alpha,1}(-lam (t-s0)^alpha)];
    nonnegative and bounded by 1/lam.
    """
    if lam <= 0.0:
        raise InvalidParameterError(
            "lam must be positive; for lam == 0 use the closed form "
            "((t-s0)^alpha - (t-s1)^alpha)/Gamma(alpha+1) (kernel_integral_lambda0)"
        )
    if not (0.0 <= s0 < s1 <= t):
        raise InvalidParameterError(f"need 0 <= s0 < s1 <= t, got {(s0, s1, t)}")
    hi = ml_relaxation(alpha, lam, t - s1) if t > s1 else 1.0
    lo = ml_relaxation(alpha, lam, t - s0)
    return max(0.0, (hi - lo) / lam)


def kernel_integral_lambda0(alpha, s0, s1, t) -> float:
    """The lam == 0 branch: ((t-s0)^alpha - (t-s1)^alpha)/Gamma(alpha+1)."""
    if not (0.0 <= s0 < s1 <= t):
        raise InvalidParameterError(f"need 0 <= s0 < s1 <= t, got {(s0, s1, t)}")
    g = math.exp(gammaln(alpha + 1.0))
    return ((t - s0) ** alpha - (t - s1) ** alpha) / g


# ---------------------------------------------------------------------------
# vectorised fast path for E_{alpha,1}(-x), x >= 0

class _RelaxationTable:
    """Per-alpha coefficients for the vectorised regimes of E_{alpha,1}(-x).

    Layout tuned for solver hot loops: a 16-term Taylor head below x = 0.05,
    a short (<= 14 term) asymptotic tail starting only where that length
    already reaches 1e-14 relative truncation, and adaptive piecewise
    Chebyshev fits of ln E in between.  Everything is validated against an
    exact-arithmetic reference during construction."""

    _KMAX_ASYM = 14
    _X_TINY = 0.05
    _K_TINY = 16

    def __init__(self, alpha):
        self.alpha = alpha
        self.x_ser = self._X_TINY
        ks = np.arange(self._K_TINY + 1, dtype=float)
        self.ser_coef = (-1.0) ** ks * rgamma(alpha * ks + 1.0)

        # asymptotic edge: smallest x where <= _KMAX_ASYM envelope terms reach
        # ~1e-14 relative truncation; the cut stays optimal for all larger x
        self.x_asym, k_cut = self._pick_asym_edge()
        _, ln_mag, _, sign = _asym_term_logs(alpha, 1.0, 1.0, k_cut)
        # ln_mag at x=1 gives ln |1/Gamma(1 - alpha k)|; coefficient = sign * e^ln
        self.asym_coef = np.where(np.isfinite(ln_mag), sign * np.exp(ln_mag), 0.0)

        # largest x whose float64 series keeps the max term below ~30
        lo, hi = self._X_TINY, self.x_asym
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _max_term_ln(alpha, 1.0, mid) <= math.log(30.0):
                lo = mid
            else:
                hi = mid
        self._x_series_ref = lo

        self._build_cheb()
        self.soe = self._build_soe()

    def _mid_reference(self, x, series=None):
        """Reference values for the fit: the cheapest evaluator whose noise is
        well below the fit target on its band.  series=True/False forces the
        choice between the float series and the rest for a whole segment."""
        if (x <= self._x_series_ref) if series is None else series:
            return _series(self.alpha, 1.0, -x)[0]
        if self.alpha > 0.9:
            # spectral integrand of the quadrature route develops a
            # 1/sin^2(pi alpha) cancellation dip here; exact arithmetic instead
            return _mp_series(self.alpha, 1.0, -x)
        if x ** (1.0 / self.alpha) < _ASYM_E:
            return _integral_neg(self.alpha, 1.0, x)[0]
        return _asymptotic_neg(self.alpha, 1.0, x)[0]

    def _pick_asym_edge(self):
        x = _ASYM_E ** self.alpha
        for x in np.geomspace(_ASYM_E ** self.alpha, 5e3, 220):
            _, _, ln_env, _ = _asym_term_logs(self.alpha, 1.0, float(x), self._KMAX_ASYM)
            k_min = int(np.argmin(ln_env)) + 1
            ln_min = float(ln_env[k_min - 1])
            # compare against the leading magnitude ~ x^-1/Gamma(1-alpha)
            if ln_min <= math.log(1e-14 * x ** -1.0 * abs(rgamma(1.0 - self.alpha)) + 1e-300):
                return float(x), k_min
        return float(x), self._KMAX_ASYM

    def _fit_segment(self, a, b, series=None):
        """Chebyshev fit of ln E_{alpha,1}(-e^s) on s in [a, b]; None if it
        does not converge at low degree."""
        for deg in (12, 24):
            nodes = np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
            xs = np.exp(0.5 * (a + b) + 0.5 * (b - a) * nodes)
            vals = np.log([self._mid_reference(x, series) for x in xs])
            coef = np.polynomial.chebyshev.chebfit(nodes, vals, deg)
            probe = np.exp(np.linspace(a, b, 2 * deg + 9))
            ref = np.array([self._mid_reference(x, series) for x in probe])
            s = (2.0 * np.log(probe) - (a + b)) / (b - a)
            got = np.exp(np.polynomial.chebyshev.chebval(s, coef))
            if np.max(np.abs(got - ref) / np.abs(ref)) <= 5e-12:
                return coef
        return None

    def _build_cheb(self):
        # ln E_{alpha,1}(-e^s) is slowly varying and exponentiating restores
        # uniform relative accuracy; segments split adaptively around the
        # exponential-to-algebraic crossover near alpha -> 1
        segs = []
        stack = [(math.log(self.x_ser * 0.98), math.log(self.x_asym * 1.02), 0, None)]
        while stack:
            a, b, depth, series = stack.pop()
            coef = self._fit_segment(a, b, series)
            if coef is not None:
                segs.append((a, b, coef))
            elif depth < 14:
                mid = 0.5 * (a + b)
                stack.append((a, mid, depth + 1, series))
                stack.append((mid, b, depth + 1, series))
            elif series is None and self.alpha > 0.9:
                # near alpha -> 1 the float series is noisy at the fit bound
                # just below its switch (alpha = 0.999): fit on the exact
                # series alone
                stack.append((a, b, depth, False))
            else:
                raise RuntimeError(f"relaxation interpolant failed (alpha={self.alpha})")
        segs.sort()
        self.cheb_edges = np.array([a for a, _, _ in segs[1:]])
        self.cheb_apb = np.array([a + b for a, b, _ in segs])
        self.cheb_bma = np.array([b - a for a, b, _ in segs])
        # one row per segment, zero-padded at the high-degree end: leading
        # zeros leave the Clenshaw recurrence bit-identical to chebval's
        self.cheb_coef = np.zeros((len(segs), 25))
        for row, (_, _, coef) in zip(self.cheb_coef, segs):
            row[: coef.size] = coef

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        m_ser = x <= self.x_ser
        m_asy = x >= self.x_asym
        m_mid = ~(m_ser | m_asy)
        if m_ser.any():
            out[m_ser] = np.polynomial.polynomial.polyval(x[m_ser], self.ser_coef)
        if m_asy.any():
            w = 1.0 / x[m_asy]
            out[m_asy] = w * np.polynomial.polynomial.polyval(w, self.asym_coef)
        if m_mid.any():
            sv = np.log(x[m_mid])
            idx = np.searchsorted(self.cheb_edges, sv)
            s = (2.0 * sv - self.cheb_apb[idx]) / self.cheb_bma[idx]
            # numpy's chebval recurrence, each point with its segment's row
            c = self.cheb_coef.T[:, idx]
            s2 = 2.0 * s
            c0, c1 = c[-2], c[-1]
            for ck in c[-3::-1]:
                c0, c1 = ck - c1, c0 + c1 * s2
            out[m_mid] = np.exp(c0 + c1 * s)
        return out

    def _build_soe(self):
        """The exponential-sum rule of E_{alpha,1}(-sigma^alpha), validated
        against this table on sigma in [_SOE_SIGMA_LO, _SOE_SIGMA_HI]."""
        alpha = self.alpha
        d = math.pi * (1.0 - alpha)  # distance of the density's poles from the real v axis
        half = 0.5 * math.pi * alpha  # half-width of the strip where e^{-sigma rho} decays
        v_hi = alpha * math.log(60.0 / _SOE_SIGMA_LO)

        def stretch(v):
            return np.arcsinh(v / d) + v / half

        ks = np.arange(math.ceil(stretch(_SOE_V_LO) / _SOE_H), math.floor(stretch(v_hi) / _SOE_H) + 1)
        lo = np.full(ks.size, _SOE_V_LO - 1.0)
        hi = np.full(ks.size, v_hi + 1.0)
        for _ in range(100):  # bisection for the nodes stretch(v) = k h
            mid = 0.5 * (lo + hi)
            above = stretch(mid) > ks * _SOE_H
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        v = 0.5 * (lo + hi)
        dv_dw = 1.0 / (1.0 / np.hypot(d, v) + 1.0 / half)
        # sin(pi alpha)/(alpha pi) / (2 cosh v + 2 cos(pi alpha)), written without
        # the cancellation of the denominator near alpha -> 1
        density = math.sin(math.pi * alpha) / (math.pi * alpha) / (
            4.0 * (np.sinh(0.5 * v) ** 2 + math.sin(0.5 * d) ** 2))
        rule = ExponentialSum(v / alpha, _SOE_H * dv_dw * density, _SOE_SIGMA_LO)
        sigma = np.geomspace(_SOE_SIGMA_LO, _SOE_SIGMA_HI, 256)
        approx = np.exp(-sigma[:, None] * np.exp(rule.log_rho)[None, :]) @ rule.weight
        err = float(np.max(np.abs(approx - self(sigma ** alpha))))
        if not err <= _SOE_TOL:
            raise RuntimeError(f"relaxation exponential sum failed (alpha={alpha}, error {err:.2e})")
        return rule


@dataclass(frozen=True)
class ExponentialSum:
    """E_{alpha,1}(-sigma^alpha) = sum_j weight_j exp(-sigma rho_j) to absolute
    accuracy _SOE_TOL for sigma >= sigma_lo, so that E_{alpha,1}(-lam s^alpha)
    is the same sum with the rates lam^(1/alpha) rho_j at sigma = s."""

    log_rho: np.ndarray
    weight: np.ndarray  # positive
    sigma_lo: float


# Exponential sums: E_{alpha,1}(-sigma^alpha) = int e^{-sigma rho} K(rho) drho
# with v = alpha ln rho, trapezoid nodes at equal steps _SOE_H of
# w(v) = asinh(v/d) + v/(pi alpha/2) on [_SOE_V_LO, alpha ln(60/sigma_lo)]:
# dense near the density's poles v = +-i d, d = pi (1 - alpha), and spaced
# to resolve e^{-sigma rho} far out: about 30/(_SOE_H pi alpha/2) nodes,
# 320 at alpha = 0.3.
_SOE_H = 0.3
_SOE_V_LO = -30.0
_SOE_SIGMA_LO, _SOE_SIGMA_HI = 1e-20, 1e18
_SOE_TOL = 1e-10

_TABLES_MAX = 32  # per-alpha tables kept; one costs up to seconds to build
_tables: OrderedDict = OrderedDict()
_tables_lock = threading.Lock()


def _table(alpha):
    """The memoised table of alpha, least recently used evicted first."""
    with _tables_lock:
        table = _tables.get(alpha)
        if table is None:
            table = _RelaxationTable(alpha)
            _tables[alpha] = table
            while len(_tables) > _TABLES_MAX:
                _tables.popitem(last=False)
        else:
            _tables.move_to_end(alpha)
    return table


def relaxation_exponentials(alpha) -> ExponentialSum:
    """The exponential-sum rule of E_{alpha,1}(-sigma^alpha), alpha in (0, 1),
    kept with the relaxation table of alpha."""
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"exponential sum needs alpha in (0, 1), got {alpha}")
    return _table(float(alpha)).soe


def relaxation_batch(alpha, x):
    """Vectorised E_{alpha,1}(-x) for x >= 0 (array-valued), alpha in (0, 1].

    Relative accuracy ~2e-11 everywhere (validated against exact arithmetic
    when the per-alpha table is built); intended for solver hot loops.  The
    per-alpha table memo is synchronized, bounded (least recently used
    tables are dropped) and transparent to callers.
    """
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"relaxation needs alpha in (0, 1], got {alpha}")
    x = np.asarray(x, dtype=float)
    if x.size and float(np.min(x)) < 0.0:
        raise InvalidParameterError("x must be nonnegative")
    if alpha == 1.0:
        return np.exp(-x)
    return _table(float(alpha))(x)
