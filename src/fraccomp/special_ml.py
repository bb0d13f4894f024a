"""Mittag-Leffler functions E_{alpha,beta}(z) for real arguments.

The dominant use in this package is the relaxation profile E_{alpha,1}(-lambda t^alpha)
and the kernel profile t^(alpha-1) E_{alpha,alpha}(-lambda t^alpha) on the negative
real axis, where E is positive and completely monotone for 0 < alpha <= 1.

Evaluation strategy (scalar):

* power series with Kahan summation while the largest intermediate term stays
  small enough that alternating-sign cancellation cannot eat the answer,
* for 0 < alpha < 1 and z < 0 where the series falls short, the
  spectral-function integral by an exponentially convergent trapezoid rule
  with nodes clustered at the density's poles (Trefethen & Weideman, SIAM
  Review 2014; Garrappa, SIAM J. Numer. Anal. 2015),
* the algebraic asymptotic expansion truncated at its smallest term for
  large |z|,

plus closed forms for alpha in {1, 2} and a high-precision series for the
rarely used non-integer alpha in (1, 2) at strongly negative z.

For the solvers there is a vectorised fast path ``relaxation_batch`` that
evaluates E_{alpha,1}(-x) on arrays; its gap regime is a per-alpha Chebyshev
interpolant (in log x) fitted to the trapezoid rule.  With each table comes
``relaxation_exponentials``, a sum of decaying exponentials equal to
E_{alpha,1}(-sigma^alpha) on nodes of the same rule, on which the spectral
march runs its memory.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, gammaln, rgamma

__all__ = [
    "MLQuery",
    "MLResult",
    "InvalidParameterError",
    "ml",
    "ml_value",
    "ml_relaxation",
    "ml_kernel",
    "ml_kernel_integral",
    "relaxation_batch",
    "relaxation_deficit",
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

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "est_abs_error", float(self.est_abs_error))


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


def _units(x, alpha):
    """x^(1/alpha), x >= 0, and inf where that overflows."""
    try:
        return x ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def _max_term_ln(alpha, beta, x):
    """ln of the largest term of sum x^k / Gamma(alpha k + beta), x > 0."""
    if x <= 0.0:
        return 0.0
    root = _units(x, alpha)
    if root == math.inf:
        return math.inf
    kstar = (root - beta) / alpha
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
    ln_gamma = _series_ln_gamma(alpha, beta, max_terms)
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
        term = math.copysign(1.0, z) ** k * math.exp(k * lz - ln_gamma[k]) if z != 0.0 else 0.0
        if abs(term) < 1e-17 * (max_abs + 1.0) and k > 4:
            break
    # first omitted term + rounding of the compensated sum + lgamma argument noise
    est = abs(term) + 2.0 * _EPS * abs_sum + 1e-13 * max_abs
    return total, est


# a verify pass evaluates the power series at 16 to 21 (alpha, beta,
# max_terms) (seeds 0, 1 and 7), interleaved, so that every one of them stays
# (one miss each in 503 to 523 calls); each entry holds about 19 kB at the
# default 600 terms (64 kB at 2000)
@functools.lru_cache(maxsize=32)
def _series_ln_gamma(alpha, beta, max_terms):
    """ln Gamma(alpha k + beta) for k = 0..max_terms-1, as a tuple of floats:
    one gammaln call on the array, the same bits as one call per term."""
    return tuple(gammaln(alpha * np.arange(max_terms, dtype=float) + beta).tolist())


def _asym_term_logs(alpha, beta, x, max_terms):
    """Signed log-space terms of the algebraic tail -sum_k z^-k/Gamma(beta-alpha k)
    at z = -x, plus the smooth magnitude envelope (sine factor dropped).
    Gamma of negative argument goes through the reflection formula so magnitudes
    stay representable for hundreds of terms.  Truncation decisions must use the
    envelope: near alpha = 1 the raw magnitudes dip at pseudo-poles of the
    reflection sine long after the true optimal index.  Only -k ln x depends
    on x: the rest comes from _asym_term_parts, and the signs are returned
    read-only."""
    ln_gamma, ln_sin, sign, ln_gamma_small = _asym_term_parts(alpha, beta, max_terms)
    k = np.arange(1, max_terms + 1, dtype=float)
    ln_x = math.log(x)
    base = -k * ln_x + ln_gamma - math.log(math.pi)
    ln_mag = base + ln_sin
    ln_env = base
    small = slice(ln_gamma_small.size)  # Gamma argument >= 1: no reflection needed
    ln_mag[small] = -k[small] * ln_x - ln_gamma_small
    ln_env[small] = ln_mag[small]
    return k, ln_mag, ln_env, sign


# a verify pass evaluates the asymptotic series at 18 to 20 (alpha, beta,
# max_terms) (seeds 0, 1 and 7), mostly one after another (24 to 26 misses
# in 434 to 450 calls), and each entry holds about 29 kB at the default 1200
# terms
@functools.lru_cache(maxsize=4)
def _asym_term_parts(alpha, beta, max_terms):
    """The x-independent parts of _asym_term_logs, as read-only arrays: for
    k = 1..max_terms and y = alpha k - beta + 1, ln Gamma(y), ln|sin(pi y)|
    and the term signs, then ln Gamma(1 - y) of the leading terms whose Gamma
    argument beta - alpha k is >= 1 (y <= 0), which need no reflection.  The
    sine comes from whichever of y and k - y is nearer zero,
    sin(pi y) = (-1)^(k+1) sin(pi (k - y)), so that it keeps its relative
    accuracy there."""
    k = np.arange(1, max_terms + 1, dtype=float)
    y = alpha * k - beta + 1.0  # Gamma(beta - alpha k) = Gamma(1 - y)
    y_c = (1.0 - alpha) * k + (beta - 1.0)  # k - y
    sin_y = np.where(np.abs(y) <= np.abs(y_c), np.sin(np.pi * y),
                     (-1.0) ** (k + 1) * np.sin(np.pi * y_c))
    ln_gamma = gammaln(np.maximum(y, 1e-300))
    with np.errstate(divide="ignore"):
        ln_sin = np.log(np.abs(sin_y))
    sign = (-1.0) ** (k + 1) * np.sign(sin_y)
    small = slice(np.count_nonzero(y <= 0.0))  # y rises with k
    sign[small] = (-1.0) ** (k[small] + 1)
    parts = (ln_gamma, ln_sin, sign, gammaln(1.0 - y[small]))
    for a in parts:
        a.flags.writeable = False
    return parts


def _asymptotic_neg(alpha, beta, x, max_terms=1200):
    """E_{alpha,beta}(-x) ~ sum_{k>=1} (-1)^(k+1) x^-k / Gamma(beta - alpha k),
    truncated at the smallest envelope magnitude.  Returns (value, est)."""
    k, ln_mag, ln_env, sign = _asym_term_logs(alpha, beta, x, max_terms)
    k_opt = int(np.argmin(ln_env)) + 1
    head = ln_mag[:k_opt]
    mags = np.where(np.isfinite(head), np.exp(np.minimum(head, 700.0)), 0.0)
    terms = sign[:k_opt] * mags
    # only the terms that did not underflow to 0 (about a tenth of them): the
    # exact sum, and so its rounding, is the same; a list, as fsum reads
    # numpy scalars slowly
    total = math.fsum(terms[terms != 0.0].tolist())
    est = 2.0 * float(np.exp(min(ln_env[k_opt - 1], 700.0)))
    if alpha < 1.0:
        # the pair of exponential branches zeta = x^(1/alpha) e^(+-i pi/alpha)
        # that the series omits; past the Stokes line arg zeta = pi they are
        # switched off by erfc(theta sqrt(|zeta|/2)), theta = pi (1/alpha - 1).
        # They make up E = e^-x at alpha = 1 and are negligible below ~0.9.
        theta, root = math.pi * (1.0 / alpha - 1.0), _units(x, alpha)
        est += (2.0 / alpha) * erfcx(theta * math.sqrt(0.5 * root)) * math.exp(
            (1.0 - beta) / alpha * math.log(x) + root * (math.cos(math.pi / alpha) - 0.5 * theta * theta))
    # rounding: exp(ln_mag) is off by the error of ln_mag, about eps times
    # the size of its parts k ln x and ln_mag + k ln x; the sum by half an ulp
    kx = k[:k_opt] * math.log(x)
    parts = np.where(np.isfinite(head), np.abs(kx) + np.abs(head + kx), 0.0)
    rounding = _EPS * float(np.sum(np.abs(terms) * (1.0 + parts))) + 0.5 * math.ulp(total)
    return total, est + rounding


def _oscillatory_part(alpha, beta, x):
    """The pair of conjugate exponential branches for 1 < alpha < 2 at z = -x."""
    root = x ** (1.0 / alpha)
    ang = math.pi / alpha
    re = root * math.cos(ang)
    im = root * math.sin(ang)
    amp = (2.0 / alpha) * root ** (1.0 - beta) * math.exp(re)
    return amp * math.cos(im + (1.0 - beta) * ang)


# E_{alpha,beta}(-x) for 0 < alpha < 1, beta <= 1 is the spectral integral
# int (sigma rho)^(1-beta) e^{-sigma rho} K_beta(v) dv over v = alpha ln rho,
# sigma = x^(1/alpha), K_beta(v) = (e^v sin pi(1-beta) + sin pi(1-beta+alpha))
# / (alpha pi (2 cosh v + 2 cos pi alpha)).  _rule_nodes places trapezoid
# nodes at equal steps of w(v) = asinh(v/d) + v/(pi alpha/2): dense near the
# poles v = +-i d, d = pi (1 - alpha), and spaced to resolve e^{-sigma rho},
# which decays only in |Im v| < pi alpha/2.  Pointwise values take the step
# _REF_H on v in [_REF_V_LO - ln x, alpha ln 60 - ln x]; the cut tails are
# below e^-40 and e^-60 of the value.
_REF_H = 0.15
_REF_V_LO = -40.0


def _node_range(alpha, h, v_lo, v_hi):
    """The indices k of the nodes v_k in [v_lo, v_hi], w(v_k) = k h."""
    d = math.pi * (1.0 - alpha)
    half = 0.5 * math.pi * alpha

    def stretch(v):
        return math.asinh(v / d) + v / half

    return math.ceil(stretch(v_lo) / h), math.floor(stretch(v_hi) / h)


def _nodes_at(alpha, h, k):
    """Nodes v_k at w(v_k) = k h for the integer array k, and their weights
    h dv/dw.  Each node's Newton iteration stops on its own step, so a node
    does not depend on the others it is placed with."""
    d = math.pi * (1.0 - alpha)
    half = 0.5 * math.pi * alpha
    c = d / half
    w = h * k
    # v = d sinh(u) with u + c sinh(u) = |w|: convex in u >= 0, so Newton from
    # a start above the root decreases monotonically onto it
    target = np.abs(w)
    u = np.minimum(target, np.arcsinh(target / c))
    active = np.ones(u.shape, dtype=bool)
    for _ in range(100):
        step = (u + c * np.sinh(u) - target) / (1.0 + c * np.cosh(u))
        step[~active] = 0.0
        u -= step
        active &= step > 1e-15 * (1.0 + u)
        if not active.any():
            break
    v = np.copysign(d * np.sinh(u), w)
    return v, h / (1.0 / np.hypot(d, v) + 1.0 / half)


def _rule_nodes(alpha, h, v_lo, v_hi):
    """Nodes v_k on [v_lo, v_hi] at w(v_k) = k h, and their weights h dv/dw."""
    k_lo, k_hi = _node_range(alpha, h, v_lo, v_hi)
    return _nodes_at(alpha, h, np.arange(k_lo, k_hi + 1))


_NODES_PAD = 8.0  # v a memoised node set reaches past the range it was built for
_nodes: OrderedDict = OrderedDict()  # alpha -> (k_lo, k_hi, v, dv) of the _REF_H rule
_nodes_lock = threading.Lock()


def _reference_nodes(alpha, v_lo, v_hi):
    """The _REF_H nodes and weights on [v_lo, v_hi], as read-only slices of
    one node set per alpha.  A range that leaves the set rebuilds it to
    cover the old set and the range widened by _NODES_PAD on both sides.
    As bounded as the table memo."""
    k_lo, k_hi = _node_range(alpha, _REF_H, v_lo, v_hi)
    with _nodes_lock:
        entry = _nodes.get(alpha)
        if entry is None or k_lo < entry[0] or k_hi > entry[1]:
            lo, hi = _node_range(alpha, _REF_H, v_lo - _NODES_PAD, v_hi + _NODES_PAD)
            if entry is not None:
                lo, hi = min(lo, entry[0]), max(hi, entry[1])
            v, dv = _nodes_at(alpha, _REF_H, np.arange(lo, hi + 1))
            v.setflags(write=False)
            dv.setflags(write=False)
            entry = (lo, hi, v, dv)
            _nodes[alpha] = entry
            while len(_nodes) > _TABLES_MAX:
                _nodes.popitem(last=False)
        else:
            _nodes.move_to_end(alpha)
    lo, _, v, dv = entry
    return v[k_lo - lo : k_hi - lo + 1], dv[k_lo - lo : k_hi - lo + 1]


def _sin_pi(y, y_c):
    """sin(pi y) from whichever of y and its complement y_c = 1 - y is nearer
    zero, so that a small result keeps its relative accuracy."""
    return math.sin(math.pi * (y if abs(y) <= abs(y_c) else y_c))


def _density(alpha, beta, v):
    """K_beta(v) without the cancellations near v = 0 as alpha -> 1: the
    numerator is expm1(v) s1 + (s1 + s2), the denominator
    4 alpha pi (sinh^2(v/2) + sin^2(pi (1 - alpha)/2))."""
    sin_hd = math.sin(0.5 * math.pi * (1.0 - alpha))
    s1 = _sin_pi(beta, 1.0 - beta)
    s12 = 2.0 * sin_hd * _sin_pi(beta - 0.5 * alpha, (1.0 - beta) + 0.5 * alpha)  # s1 + s2
    return (np.expm1(v) * s1 + s12) / (4.0 * math.pi * alpha * (np.sinh(0.5 * v) ** 2 + sin_hd**2))


def _reference_rule(alpha, beta, x_lo, x_hi):
    """Nodes v_k and weights of the rule for E_{alpha,beta}(-x), x in [x_lo, x_hi]."""
    v, dv = _reference_nodes(alpha, _REF_V_LO - math.log(x_hi),
                             alpha * math.log(60.0) - math.log(x_lo))
    return v, dv * _density(alpha, beta, v)


def _ml_neg(alpha, beta, x, rule=None):
    """E_{alpha,beta}(-x) on a short array of x > 0 for 0 < alpha < 1 by the
    trapezoid rule on the nodes of `rule` (built for beta), by default those
    for the range of x.  Returns (values, est).  beta > 1 is reduced first via
    E_{a,b}(z) = (E_{a,b-a}(z) - rgamma(b-a)) / z: the density's left tail
    decays like e^{v (1 + alpha - beta)/alpha}, too slowly as beta -> 1 + alpha."""
    if beta > 1.0:
        inner, est = _ml_neg(alpha, beta - alpha, x)
        g = rgamma(beta - alpha)
        return (g - inner) / x, (est + 4.0 * _EPS * (g + np.abs(inner))) / x
    v, weight = rule or _reference_rule(alpha, beta, float(np.min(x)), float(np.max(x)))
    # ln(sigma rho), capped where e^{-sigma rho} has underflowed anyway
    ln_sr = np.minimum((np.log(x)[:, None] + v) / alpha, 7.0)
    terms = weight * np.exp((1.0 - beta) * ln_sr - np.exp(ln_sr))
    # rounding of the nodes v_k moves each term by (1 - beta + sigma rho) dv/alpha
    return terms.sum(axis=1), 64.0 * _EPS / alpha * np.abs(terms).sum(axis=1)


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
    Raises InvalidParameterError where E (at z > 0) overflows the double range.
    """
    alpha, beta, z = float(q.alpha), float(q.beta), float(q.z)
    _validate(alpha, beta, z)
    with contextlib.suppress(OverflowError):
        r = _ml(alpha, beta, z)
        if not math.isinf(r.value):
            return r
    raise InvalidParameterError(f"E_(alpha,beta)(z) at alpha={alpha}, beta={beta}, z={z} overflows the double range")


def _ml(alpha, beta, z):
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
        root = _units(z, alpha)
        if root <= 200.0:
            v, est = _series(alpha, beta, z, max_terms=2000)
            return MLResult(v, est, "series")
        # exponential growth dominates every algebraic correction out here
        lead = (1.0 / alpha) * root ** (1.0 - beta) * math.exp(root)
        return MLResult(lead, abs(z ** -1.0 * rgamma(beta - alpha)) + 4 * _EPS * lead, "asymptotic")

    # z < 0
    x = -z
    if _max_term_ln(alpha, beta, x) <= _LN_SAFE:
        v, est = _series(alpha, beta, z)
        # a series cut short by max_terms (slow decay at small alpha, x ~ 1)
        # falls through to the trapezoid rule
        if alpha >= 1.0 or est <= 1e-12 * (1.0 + abs(v)):
            return MLResult(v, est, "series")

    e_units = _units(x, alpha)
    if alpha < 1.0:
        if e_units >= _ASYM_E:
            v, est = _asymptotic_neg(alpha, beta, x)
            return MLResult(v, est, "asymptotic")
        v, est = _ml_neg(alpha, beta, np.array([x]))
        return MLResult(v[0], est[0], "integral")

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
    """Closed form of int_{s0}^{s1} (t-s)^(alpha-1) E_{alpha,alpha}(-lam (t-s)^alpha) ds, lam >= 0.

    Equals (1/lam) [E_{alpha,1}(-lam (t-s1)^alpha) - E_{alpha,1}(-lam (t-s0)^alpha)], in [0, 1/lam],
    formed as hi phi(lam hi) - lo phi(lam lo), hi = (t-s0)^alpha, lo = (t-s1)^alpha, with phi from
    relaxation_deficit and E from ml, so that lam -> 0 does not cancel: lam == 0 gives (hi - lo)/Gamma(alpha+1).
    """
    if not (0.0 < alpha <= 1.0 and np.isfinite(lam) and lam >= 0.0 and 0.0 <= s0 < s1 <= t):
        raise InvalidParameterError(f"need alpha in (0, 1], lam >= 0 and 0 <= s0 < s1 <= t, got {(alpha, lam, s0, s1, t)}")
    ages = np.array([(t - s0) ** alpha, (t - s1) ** alpha])
    g = ages * relaxation_deficit(alpha, lam * ages, np.array([ml(MLQuery(alpha, 1.0, -lam * a)).value for a in ages]))
    return max(0.0, float(g[0] - g[1]))


@functools.lru_cache(maxsize=32)  # one per alpha, as the tables are kept
def _deficit_head(alpha):
    """phi's first 24 Taylor coefficients and reach[j - 1], the x <= 2 up to which each term past
    the first j is below 2^-56: added to a sum above 0.4, such a term leaves it as it is."""
    k = np.arange(1.0, 26.0)
    coef = (-1.0) ** (k - 1.0) * rgamma(alpha * k + 1.0)
    reach = (2.0 ** -56 / np.abs(coef[1:])) ** (1.0 / k[:-1])
    return tuple(coef[:-1]), tuple(np.minimum(np.minimum.accumulate(reach[::-1])[::-1], 2.0))  # read-only


def relaxation_deficit(alpha, x, e=None):
    """phi(x) = (1 - E_{alpha,1}(-x))/x for x >= 0 (array-valued), alpha in (0, 1].

    Within about 1e-14 relative of phi, phi(0) = 1/Gamma(alpha+1): the Taylor
    series gives it up to x = 0.2-2, past which (1 - E)/x loses a few ulps (at
    x = 0.05, where the table's head ends, up to 1e-13 for alpha near 1).  E(-x)
    comes from e where given (the caller's values on x), else from
    relaxation_batch.  Every window mass (E(-lam s_lo^a) - E(-lam s_hi^a))/lam,
    lam >= 0, is s_hi^a phi(lam s_hi^a) - s_lo^a phi(lam s_lo^a).
    """
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"relaxation needs alpha in (0, 1], got {alpha}")
    x = np.asarray(x, dtype=float)
    if x.size and float(np.min(x)) < 0.0:
        raise InvalidParameterError("x must be nonnegative")
    coef, reach = _deficit_head(float(alpha))
    head = x <= reach[-1]
    out = np.empty_like(x)
    # the series in order, to the terms the largest x needs: those past an x's
    # own leave its sum as it is, and a ground mode zero to rounding takes two
    xh = x[head]
    total, power = np.full(xh.shape, coef[0]), np.ones(xh.shape)
    for c in coef[1 : np.searchsorted(reach, xh.max(initial=0.0)) + 1]:
        power *= xh
        total += c * power
    out[head] = total
    if not head.all():
        far = ~head
        out[far] = (1.0 - (relaxation_batch(alpha, x[far]) if e is None else e[far])) / x[far]
    return out


# ---------------------------------------------------------------------------
# vectorised fast path for E_{alpha,1}(-x), x >= 0

class _RelaxationTable:
    """Per-alpha coefficients for the vectorised regimes of E_{alpha,1}(-x).

    Layout tuned for solver hot loops: a 16-term Taylor head below x = 0.05,
    a short (<= 14 term) asymptotic tail starting only where that length
    already reaches 1e-14 relative truncation, and adaptive piecewise
    Chebyshev fits of ln E in between, fitted to the trapezoid rule on one
    node set per alpha and validated against it during construction."""

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

        # the fitted gap, with a margin on both sides
        self._gap = (self.x_ser * 0.98, self.x_asym * 1.02)
        self._reference = _reference_rule(alpha, 1.0, *self._gap)
        self._build_cheb()
        self.soe = self._build_soe()

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

    def _fit_segment(self, a, b):
        """Chebyshev fit of ln E_{alpha,1}(-e^s) on s in [a, b]; None if it
        does not converge at low degree."""
        for deg in (12, 24):
            nodes = np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
            probe = np.linspace(-1.0, 1.0, 2 * deg + 9)
            xs = np.exp(0.5 * (a + b) + 0.5 * (b - a) * np.concatenate([nodes, probe]))
            ref = _ml_neg(self.alpha, 1.0, xs, self._reference)[0]
            coef = np.polynomial.chebyshev.chebfit(nodes, np.log(ref[: deg + 1]), deg)
            got = np.exp(np.polynomial.chebyshev.chebval(probe, coef))
            if np.max(np.abs(got / ref[deg + 1 :] - 1.0)) <= 5e-13:
                return coef
        return None

    def _build_cheb(self):
        # ln E_{alpha,1}(-e^s) is slowly varying and exponentiating restores
        # uniform relative accuracy; segments split adaptively around the
        # exponential-to-algebraic crossover near alpha -> 1
        segs = []
        stack = [(*np.log(self._gap), 0)]
        while stack:
            a, b, depth = stack.pop()
            coef = self._fit_segment(a, b)
            if coef is not None:
                segs.append((a, b, coef))
            elif depth < 14:
                mid = 0.5 * (a + b)
                stack.append((a, mid, depth + 1))
                stack.append((mid, b, depth + 1))
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
            # numpy's chebval recurrence, each point with its segment's row;
            # the rows are gathered one coefficient at a time, so that the
            # temporaries stay the size of x however long the rows are
            c = self.cheb_coef.T
            s2 = 2.0 * s
            c0, c1 = c[-2, idx], c[-1, idx]
            for ck in c[-3::-1]:
                c0, c1 = ck[idx] - c1, c0 + c1 * s2
            out[m_mid] = np.exp(c0 + c1 * s)
        return out

    def _build_soe(self):
        """The exponential-sum rule of E_{alpha,1}(-sigma^alpha), validated
        against this table on sigma in [_SOE_SIGMA_LO, _SOE_SIGMA_HI]."""
        alpha = self.alpha
        v, dv = _rule_nodes(alpha, _SOE_H, _SOE_V_LO, alpha * math.log(60.0 / _SOE_SIGMA_LO))
        rule = ExponentialSum(v / alpha, dv * _density(alpha, 1.0, v), _SOE_SIGMA_LO)
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


# Exponential sums: the spectral integral of E_{alpha,1}(-sigma^alpha) on
# the trapezoid nodes of _rule_nodes at step _SOE_H on
# [_SOE_V_LO, alpha ln(60/sigma_lo)]: about 30/(_SOE_H pi alpha/2) nodes,
# 320 at alpha = 0.3.
_SOE_H = 0.3
_SOE_V_LO = -30.0
_SOE_SIGMA_LO, _SOE_SIGMA_HI = 1e-20, 1e18
_SOE_TOL = 1e-10

_TABLES_MAX = 32  # per-alpha tables kept; one costs up to a second to build
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

    Relative accuracy ~1e-12 everywhere (the gap fit is validated against
    the trapezoid rule when the per-alpha table is built); intended for
    solver hot loops.  The per-alpha table memo is synchronized, bounded
    (least recently used tables are dropped) and transparent to callers.
    """
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"relaxation needs alpha in (0, 1], got {alpha}")
    x = np.asarray(x, dtype=float)
    if x.size and float(np.min(x)) < 0.0:
        raise InvalidParameterError("x must be nonnegative")
    if alpha == 1.0:
        return np.exp(-x)
    return _table(float(alpha))(x)
