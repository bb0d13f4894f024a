"""Discrete fractional calculus on time grids.

Riemann-Liouville integrals by product integration (exact for piecewise-linear
data), Caputo derivatives by the classical L1 scheme (exact for affine data,
order 2-alpha for smooth data), and the discrete extremum-principle check:
at an interior-or-right-end minimum the Caputo derivative is nonpositive.

Every L1 user takes its weight rows from l1_weight_rows: the implicit L1
solvers walk it once per solve, a chain of solves on one grid keeps its rows,
with the factors of its step matrices, in one table for the chain's lifetime
(evolve_linear._L1Steps), and the extremum check builds only the row it reads.
A row takes one power, (t_m - t)^(1-alpha), and both ends of each step read
from it; rl_integral's rows likewise take two powers, not four.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

__all__ = [
    "TimeGrid",
    "TimeSeries",
    "NotApplicableError",
    "rl_integral",
    "caputo_l1",
    "caputo_l1_weights",
    "l1_weight_rows",
    "caputo_l1_field",
    "extremum_check",
    "ExtremumReport",
]


class NotApplicableError(ValueError):
    """The requested check's hypotheses are not met by the data."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < t_1 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("need at least 3 nodes (N >= 2 steps)")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def uniform(cls, T, n_steps):
        return cls(np.linspace(0.0, float(T), int(n_steps) + 1))

    @classmethod
    def graded(cls, T, n_steps, r):
        """t_k = T (k/N)^r; r = 2/alpha compensates the t^alpha initial layer."""
        if r < 1.0:
            raise ValueError("grading exponent must be >= 1")
        k = np.arange(int(n_steps) + 1, dtype=float)
        return cls(float(T) * (k / n_steps) ** float(r))

    @property
    def steps(self):
        return np.diff(self.nodes)

    def max_step(self):
        return float(np.max(self.steps))


@dataclass(frozen=True)
class TimeSeries:
    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values length must match grid nodes")


def rl_integral(y: TimeSeries, beta: float) -> TimeSeries:
    """Riemann-Liouville integral J^beta y with piecewise-linear y.

    Exact for y linear in t; the quadrature weights are nonnegative, so
    nonnegative input gives nonnegative output identically.  Row m takes
    the powers beta and beta + 1 of t_m - t_j, j = 0..m, once each.
    """
    if not (0.0 < beta <= 2.0):
        raise ValueError(f"beta must lie in (0, 2], got {beta}")
    t = y.grid.nodes
    v = y.values
    n = t.size
    dv = v[1:] - v[:-1]
    inv_g1 = np.exp(-gammaln(beta + 1.0))
    inv_g2 = np.exp(-gammaln(beta + 2.0))
    out = np.zeros(n)
    for m in range(1, n):
        c = t[m] - t[: m + 1]
        a = c[:-1]             # distances to left step ends, descending
        tau = a - c[1:]
        p = c ** beta
        q = c ** (beta + 1.0)
        # exact moments of (t-s)^(beta-1)/Gamma(beta): against 1 and (s - t_k)
        i0 = (p[:-1] - p[1:]) * inv_g1
        i1 = a * (p[:-1] - p[1:]) * inv_g1 - (q[:-1] - q[1:]) * beta * inv_g2
        slope = dv[:m] / tau
        out[m] = np.dot(v[:m], i0) + np.dot(slope, i1)
    return TimeSeries(y.grid, out)


def caputo_l1_weights(t, alpha):
    """L1 weights d_{m,k}: the mean of the kernel (t_m - s)^(-alpha)/Gamma(1-alpha)
    over [t_k, t_{k+1}], for one output node t_m = t[-1].

    Increasing in k on any grid, which is what makes the implicit scheme order
    preserving.  On strongly graded grids early steps can be unresolvable
    against t_m in float64; the mean then degenerates to the kernel value.
    Both ends of a step read their power from one array, (t_m - t)^(1-alpha)."""
    inv_g2a = np.exp(-gammaln(2.0 - alpha))
    c = t[-1] - t
    p = c ** (1.0 - alpha)
    a = c[:-1]
    tau = a - c[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = inv_g2a * (p[:-1] - p[1:]) / tau
    degenerate = ~(tau > 0.0) | ~np.isfinite(w)
    if degenerate.any():
        inv_g1a = np.exp(-gammaln(1.0 - alpha))
        w = np.where(degenerate, inv_g1a * np.maximum(a, 1e-300) ** -alpha, w)
    return w


def l1_weight_rows(t, alpha):
    """The L1 weight rows of a grid, caputo_l1_weights(t[:m+1], alpha) for
    m = 1..N, generated one at a time, one power per row.

    Row m holds m weights, so all N rows take N(N+1)/2 floats: a march that
    runs once walks the generator, and a chain of solves on one grid keeps
    the rows in its table of steps (evolve_linear._L1Steps), next to each
    node's LU factors, for its own lifetime.  No memo keeps rows beyond
    that: a cache per (grid, alpha) would hold 4.2 MB at N = 1024 for every
    grid a process has solved on."""
    return (caputo_l1_weights(t[: m + 1], alpha) for m in range(1, len(t)))


def caputo_l1(y: TimeSeries, alpha: float) -> TimeSeries:
    """Pointwise Caputo derivative by the L1 scheme; output[0] = 0 by convention.

    Constant shifts drop out exactly, matching d_t^alpha y = d_t^alpha (y - y(0)).
    """
    return TimeSeries(y.grid, caputo_l1_field(y.grid, y.values, alpha))


def caputo_l1_field(tgrid: TimeGrid, values: np.ndarray, alpha: float) -> np.ndarray:
    """L1 Caputo derivative applied along axis 0 of a (time, space) array."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t = tgrid.nodes
    v = np.asarray(values, dtype=float)
    if v.shape[0] != t.size:
        raise ValueError("axis 0 must match the time grid")
    out = np.zeros_like(v)
    dv = np.diff(v, axis=0)
    for m, w in enumerate(l1_weight_rows(t, alpha), start=1):
        out[m] = w @ dv[:m]
    return out


@dataclass(frozen=True)
class ExtremumReport:
    t_min_index: int
    caputo_at_min: float
    tolerance: float
    holds: bool


def extremum_check(y: TimeSeries, alpha: float) -> ExtremumReport:
    """At a sampled minimum with t_0 > 0 the Caputo derivative must be <= 0,
    up to the L1 discretisation error (estimated from second differences).

    Raises NotApplicableError when the minimum sits at t = 0; the principle
    genuinely needs t_0 > 0.
    """
    v = y.values
    k = int(np.argmin(v))
    if k == 0:
        raise NotApplicableError("minimum attained at t=0; the check needs t_0 > 0")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t = y.grid.nodes
    # row k of caputo_l1 alone: the same weights and the same product
    cap = caputo_l1_weights(t[: k + 1], alpha) @ np.diff(v)[:k]
    tau = float(np.max(np.diff(t)))
    # crude max |y''| from second differences on the (possibly nonuniform) grid
    if v.size >= 3:
        h1 = np.diff(t)[:-1]
        h2 = np.diff(t)[1:]
        second = 2.0 * (v[2:] * h1 - v[1:-1] * (h1 + h2) + v[:-2] * h2) / (h1 * h2 * (h1 + h2))
        ypp = float(np.max(np.abs(second))) if second.size else 0.0
    else:
        ypp = 0.0
    tol = 10.0 * tau ** (2.0 - alpha) * max(ypp, 1.0)
    return ExtremumReport(k, float(cap), tol, bool(cap <= tol))
