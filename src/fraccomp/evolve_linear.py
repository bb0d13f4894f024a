"""Evolution solvers for d_t^alpha (u - a) + A u = F on a 1D interval.

Two independent routes:

* a spectral exponential integrator: the problem is split as
  d_t^alpha (u - a) + A0 u = F + Q u with Q u = b u' + (c0 + c) u, and the
  equivalent fixed-point form u(t) = S(t) a + int K(t-s) (F + Q u)(s) ds is
  marched node by node.  Per mode the Duhamel integral of piecewise-constant
  data has a closed form through differences of the relaxation profile, so
  the only time error is the piecewise-constant treatment of F + Q u
  (midpoint samples of the coefficients, endpoint-average state);

* an implicit L1 finite-difference scheme used as a cross-validation oracle:
  at each node the memory term is L1-discretised and the full elliptic
  operator is solved implicitly.  Its matrix is an M-matrix at moderate mesh
  Peclet numbers, which makes it the order-preserving workhorse for the
  comparison checks.

On the spectral route u at node m is the fixed point of the step map, found
by Picard sweeps on its mode coefficients (see spectral_march): a sweep is
one product giving u and u' on the nodes, the nodal forcing, one weighted
projection and the per-mode update.  The sweeps start from the quadratic
extrapolation of u and u' from the last three nodes, so that they mostly
stop after 2-3 sweeps; the march returns the number of sweeps per node.
The coefficients b, c and the source are sampled at the step midpoints
_RELAX_BLOCK steps per call where they broadcast in t, and once per step
where they do not.

Both keep the entire memory: there is no semigroup restart in fractional time.
The spectral route carries it compressed, as one running sum per mode and
exponential (see _Memory).  Per mode only a live band of the exponentials is
advanced: the fastest have decayed and are dropped, the slowest share two
moments.  A step costs O(modes x band), with a band of 67-94 of the rule's
214-339 terms at alpha = 0.3-0.95 on the acceptance grids; the
relaxation values the step needs are fetched for _RELAX_BLOCK nodes in one
vectorised call.  The L1 route sums every past step exactly: it takes the
grid's L1 weight rows from fracops.l1_weight_rows, built lazily for one
solve or once for a chain of solves on one grid (compare's monotone
iterations pass them to _l1_march), and solves each step's pentadiagonal
system with one direct LAPACK gbsv (elliptic.banded_solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .elliptic import (
    DiscreteOperator,
    EigenDecomposition,
    EllipticSpec,
    Grid1D,
    SpaceField,
    _node_values,
    assemble,
    banded_solve,
    eigendecompose,
)
from .fracops import TimeGrid, l1_weight_rows
from .special_ml import relaxation_batch, relaxation_exponentials

__all__ = [
    "ProblemSpec",
    "Field",
    "SolverError",
    "homogeneous_solution",
    "duhamel_step",
    "solve_linear_spectral",
    "solve_linear_l1",
]

PICARD_MAX = 50  # Picard sweeps per time node before the march reports a stall
_RELAX_BLOCK = 32  # time nodes whose relaxation values the march fetches in one call
# edges of the live band of exponential terms (see _Memory)
_BAND_HI = 40.0  # r dt_{m-1} above this: the running sum is below e^-40 of its input
_BAND_LO = 1e-8  # r t_m below this: exp(-r s) is quadratic in r s to rounding
_BAND_SLACK = 8  # terms the band storage moves or grows by at once
_START_MAX = 10.0  # largest weight of the sweeps' extrapolated start (see _extrapolation_weights)


class SolverError(RuntimeError):
    def __init__(self, msg, node=None, residual=None):
        super().__init__(msg)
        self.node = node
        self.residual = residual


@dataclass(frozen=True)
class ProblemSpec:
    alpha: float
    elliptic: EllipticSpec
    grid: Grid1D
    tgrid: TimeGrid
    initial: object  # SpaceField, array on the nodes, or callable of x
    source: object = None  # None, callable (x, t) -> values, or array (n_t+1, n_nodes)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def initial_values(self):
        x = self.grid.nodes
        a = self.initial
        if isinstance(a, SpaceField):
            return a.values.copy()
        if callable(a):
            return np.asarray(a(x), dtype=float) * np.ones_like(x)
        return np.asarray(a, dtype=float) * np.ones_like(x)

    def source_at(self, t, node_index=None):
        """Source values on the nodes at time t.  Array sources are stored on
        the time nodes and read at node_index, which they require."""
        if self.source is None:
            return None
        if callable(self.source):
            x = self.grid.nodes
            return _node_values(self.source(x, t), x)
        if node_index is None:
            raise ValueError("an array source is read at a time node: pass node_index")
        return np.asarray(self.source, dtype=float)[node_index]


@dataclass(frozen=True)
class Field:
    grid: Grid1D
    tgrid: TimeGrid
    values: np.ndarray = field(repr=False)  # shape (n_t + 1, n_nodes), time-major

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.tgrid.nodes.size, self.grid.n_nodes):
            raise ValueError("field shape must be (time nodes, space nodes)")

    def restrict_time(self, k_last):
        sub = TimeGrid(self.tgrid.nodes[: k_last + 1])
        return Field(self.grid, sub, self.values[: k_last + 1].copy())


def homogeneous_solution(a, eig: EigenDecomposition, alpha, t) -> np.ndarray:
    """S(t) a: the relaxation-damped eigen-expansion of the initial value."""
    av = a.values if isinstance(a, SpaceField) else np.asarray(a, dtype=float)
    coef = eig.project(av)
    # the discrete Neumann ground eigenvalue is zero only to rounding
    damped = coef * relaxation_batch(alpha, np.maximum(eig.lambdas, 0.0) * t ** alpha)
    return eig.synthesize(damped)


def _kernel_masses(alpha, lambdas, dt_pow):
    """Per-mode integrals of the Duhamel kernel over consecutive windows.

    dt_pow holds (t_eval - t_j)^alpha for the window nodes t_j (descending in
    value); returns the matrix of int_{t_k}^{t_{k+1}} K ds >= 0, one row per
    mode, via differences of the relaxation profile.  The lambda = 0 rows use
    the dedicated closed form (power differences over Gamma(alpha + 1))."""
    lam = np.asarray(lambdas, dtype=float)
    masses = np.zeros((lam.size, dt_pow.size - 1))
    # difference quotients of the relaxation profile cancel catastrophically
    # when lam t^alpha is tiny (and the discrete Neumann ground eigenvalue is
    # only zero to rounding); switch to the expansion in lam there
    small = lam * dt_pow[0] <= 1e-8
    lp = lam[~small]
    if lp.size:
        e = relaxation_batch(alpha, lp[:, None] * dt_pow[None, :])
        masses[~small] = np.diff(e, axis=1) / lp[:, None]
    if small.any():
        g1 = np.exp(-gammaln(alpha + 1.0))
        g2 = np.exp(-gammaln(2.0 * alpha + 1.0))
        d1 = -np.diff(dt_pow)
        d2 = -np.diff(dt_pow * dt_pow)
        masses[small] = g1 * d1[None, :] - lam[small, None] * (g2 * d2[None, :])
    return np.maximum(masses, 0.0)


def duhamel_step(state, F_samples, eig: EigenDecomposition, alpha, t_k, t_k1, t_eval=None):
    """Add the per-mode contribution of int_{t_k}^{t_k1} K(t_eval - s) F ds with
    F held constant on the step (exact per mode).  t_eval defaults to t_k1;
    history replay at later nodes passes the evaluation time explicitly."""
    if t_eval is None:
        t_eval = t_k1
    if not t_k < t_k1 <= t_eval:
        raise ValueError("need t_k < t_k1 <= t_eval")
    sv = state.values if isinstance(state, SpaceField) else np.asarray(state, dtype=float)
    fv = F_samples.values if isinstance(F_samples, SpaceField) else np.asarray(F_samples, dtype=float)
    dt_pow = np.array([(t_eval - t_k) ** alpha, (t_eval - t_k1) ** alpha])
    masses = _kernel_masses(alpha, eig.lambdas, dt_pow)[:, 0]
    coef = eig.project(fv) * masses
    grid = state.grid if isinstance(state, SpaceField) else None
    out = sv + eig.synthesize(coef)
    return SpaceField(grid, out) if grid is not None else out


def _non_finite(what, m, grid, values):
    """SolverError for a time step whose data are not finite, naming the
    time node and the first space node at fault."""
    bad = np.flatnonzero(~np.isfinite(values))
    where = f" (first at x = {grid.nodes[bad[0]]:.6g})" if bad.size else ""
    return SolverError(f"non-finite {what} at time node {m}{where}", node=m)


class _Memory:
    """The Duhamel memory of the march, node by node.

    At node m, mode i carries sum_k mass_ik g_ki over the windows
    [t_k, t_{k+1}] of the history (k <= m - 2), where mass_ik is the kernel
    integral (E(-lam (t_m - t_{k+1})^alpha) - E(-lam (t_m - t_k)^alpha))/lam.
    With the exponential sum E(-lam s^alpha) = sum_j w_j exp(-r_j s),
    r_j = lam^(1/alpha) rho_j, the windows reduce to one running sum per
    rate, S_j = sum_k exp(-r_j (t_m - t_{k+1})) (1 - exp(-r_j dt_k)) g_k,
    which moves to the next node in O(rates):
    S(m) = exp(-r dt_{m-1}) [S(m-1) + (1 - exp(-r dt_{m-2})) g_{m-2}].

    Only a live band of rates is advanced per mode:
    * above it, r_j dt_{m-1} > _BAND_HI: every window is at least dt_{m-1}
      old, so S_j is below e^-40 of the forcing and is dropped;
    * below it, r_j t_m < _BAND_LO: exp(-r s) = 1 - r s + (r s)^2/2 to
      rounding for every age s, so the frozen S_j are linear and quadratic
      in r_j through two moments per mode, M1 = sum_k dt_k g_k and
      P = sum_k (t_{k+1}^2 - t_k^2) g_k.  As t_m grows, the lower edge moves
      down the rule; a term that thaws gets its S_j rebuilt from them.
    The band is ln(4e9 t_m / dt_{m-1}) wide in ln r for every mode, so it is
    stored as a (modes x width) rectangle, column c of mode i holding term
    base_i + c; the width grows with the band and the rows shift only when
    the lower edge passes a node of the rule.

    Exact masses remain for
    * the current window, whose mass the Picard sweeps need;
    * windows younger than sigma_lo / lam^(1/alpha), below the rule's range;
      they join the sums when they are old enough;
    * modes with lam t_m^alpha <= 1e-8, whose masses are power differences.
    E(-lam t_m^alpha) and the current window's relaxation values are
    fetched for _RELAX_BLOCK nodes in one relaxation_batch call, together
    with the block's fold schedule and, per node, the flags the fold reads:
    whether every row folds window m - 2 and whether an older window is due.
    At every node m >= 2, window m - 2, which the last step left behind,
    folds in place on the rows whose schedule reaches it.  Windows older
    than that which came of age at node m fold first, window by window, in
    _fold; on the acceptance specs and the verify suites none ever do.  The
    two moments are one (2 x modes) array, and a fold adds the forcing times
    the window's two precomputed weights.  Every choice at node m depends
    on t[0..m], lam and alpha only, so a solve on a restricted grid
    reproduces the longer solve exactly."""

    def __init__(self, alpha, lambdas, t):
        self.alpha = alpha
        self.lam = np.asarray(lambdas, dtype=float)
        self.t = t
        try:
            soe = relaxation_exponentials(alpha)
        except RuntimeError as exc:  # the relaxation table of alpha did not build
            raise SolverError(str(exc)) from exc
        n_terms = soe.log_rho.size
        self.log_rho = soe.log_rho
        # band columns past the rule read rate 0 and weight 0
        self.log_rho_pad = np.concatenate([soe.log_rho, np.full(n_terms + _BAND_SLACK, -np.inf)])
        self.weight_pad = np.concatenate([soe.weight, np.zeros(n_terms + _BAND_SLACK)])
        self.log_rho_at = np.append(soe.log_rho, np.inf)  # +inf past the rule
        rho = np.exp(soe.log_rho)
        with np.errstate(divide="ignore", over="ignore"):
            # lam <= 0 gets rate 0 and tau inf; such modes stay on the small branch
            self.ln_root = np.log(np.maximum(self.lam, 0.0)) / alpha  # ln lam^(1/alpha)
            self.tau = soe.sigma_lo * np.exp(-self.ln_root)
            # ln of the prefix sums sum_{j < i} w_j rho_j and w_j rho_j^2, i = 0..n
            self.ln_c1 = np.log(np.concatenate([[0.0], np.cumsum(soe.weight * rho)]))
            self.ln_c2 = np.log(np.concatenate([[0.0], np.cumsum(soe.weight * rho * rho)]))
            # ln sum_{j < base} w_j r_j and ln sum_{j < base} w_j r_j^2
            self.ln_a = np.stack([self.ln_root + self.ln_c1[n_terms],
                                  2.0 * self.ln_root + self.ln_c2[n_terms]])
        modes = self.lam.size
        self.lam_div = np.where(self.lam > 0.0, self.lam, 1.0)
        self.base = np.full(modes, n_terms)  # term held in column 0 of each row
        self.sums = np.zeros((modes, 0))  # S_j at the previous node, band columns
        self.rates = np.zeros((modes, 0))
        self.weight = np.zeros((modes, 0))
        self.decay_m1 = np.zeros((modes, 0))  # exp(-r dt) - 1 of the last step
        self.work = np.zeros((modes, 0))  # scratch of the band's shape
        self.g_k = np.zeros(modes)  # scratch: the forcing of the window to fold
        self.mom = np.zeros((2, modes))  # moments M1 and P of the folded windows
        self.mom_work = np.empty((2, modes))
        # the moments' weights of window k: dt_k and t_{k+1}^2 - t_k^2 (from t_0)
        dt_w = t[1:] - t[:-1]
        self.mom_w = np.stack([dt_w, dt_w * (t[1:] + t[:-1] - 2.0 * t[0])], axis=1)[:, :, None]
        self.folded = np.zeros(modes, dtype=int)  # windows k < folded are in sums
        self.g1 = np.exp(-gammaln(alpha + 1.0))
        self.g2 = np.exp(-gammaln(2.0 * alpha + 1.0))
        self.block_start = self.block_stop = 1
        self._edges()

    def _fetch(self, m):
        """Relaxation values and current-window masses of the nodes
        m .. m + _RELAX_BLOCK - 1, from one relaxation_batch call."""
        t, lam, alpha = self.t, self.lam, self.alpha
        stop = min(m + _RELAX_BLOCK, t.size)
        # scalar powers, like homogeneous_solution's t ** alpha: numpy's
        # vectorised power can differ from them in the last bit
        t_pow = np.array([(t[k] - t[0]) ** alpha for k in range(m, stop)])
        dt_pow = (t[m:stop] - t[m - 1 : stop - 1]) ** alpha
        x = np.maximum(lam, 0.0) * np.concatenate([t_pow, dt_pow])[:, None]
        e = relaxation_batch(alpha, x)
        cur = e[stop - m :]
        # the mass (E(0) - E(-lam dt^alpha))/lam, E(0) = 1; power differences
        # where lam dt^alpha is tiny, as in _kernel_masses
        small = lam * dt_pow[:, None] <= 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            masses = np.where(small,
                              self.g1 * dt_pow[:, None] - lam * (self.g2 * (dt_pow * dt_pow)[:, None]),
                              (1.0 - cur) / lam)
        # the fold schedule: at node k, windows j with age t_k - t_{j+1} >= tau
        # fold into the sums, up to window k - 2; small rows fold nothing
        k = np.arange(m, stop)[:, None]
        big = lam * t_pow[:, None] > 1e-8
        # a mode with tau below half the block's shortest step reaches
        # window k - 2 at every node k; only the others are searched
        fold = np.repeat(k - 1, lam.size, axis=1)
        slow = np.flatnonzero(self.tau >= 0.5 * np.min(t[m:stop] - t[m - 1 : stop - 1]))
        if slow.size:
            fold[:, slow] = np.minimum(
                np.searchsorted(t[1:], t[m:stop, None] - self.tau[slow], side="right"), k - 1)
        fold[~big] = 0
        rest = fold < k - 1
        self.block_start, self.block_stop = m, stop
        # the frozen terms' scaling: ln t_m and 2 ln t_m, t_m and 2 t_m
        s = t[m:stop] - t[0]
        self.ln_s = np.log(s)[:, None, None] * np.array([[1.0], [2.0]])
        self.mom_div = np.stack([s, 2.0 * s], axis=1)[:, :, None]
        self.relax, self.w_cur = e[: stop - m], np.maximum(masses, 0.0)
        self.fold, self.fold_last = fold, fold == k - 1
        self.fold_all = self.fold_last.all(axis=1)
        self.rest, self.rest_any = rest, rest.any(axis=1)
        # the catch-up is due at node k >= 2 where a window older than k - 2
        # came of age: min(fold, k - 2) passes what node k - 1 folded
        before = np.concatenate([self.folded[None, :], fold[:-1]])
        self.late_due = (np.minimum(fold, k - 2) > before).any(axis=1)

    def _band_rows(self, rows, base):
        """Rates and weights of the band columns of `rows` from term `base` on."""
        j = base[:, None] + np.arange(self.sums.shape[1])
        with np.errstate(over="ignore"):
            rates = np.exp(self.ln_root[rows, None] + self.log_rho_pad[j])
        return rates, self.weight_pad[j]

    def _edges(self):
        """ln r of the highest frozen term and of the lowest term above the
        stored band, over all rows: no band edge moves at a node m with
        ln(_BAND_LO / t_m) above the first and ln(_BAND_HI / dt_{m-1}) below
        the second.  Rows with lam <= 0 hold no terms and give nan."""
        end = np.minimum(self.base + self.sums.shape[1], self.log_rho.size)
        with np.errstate(invalid="ignore"):
            # log_rho_pad[-1] = -inf stands for the term below term 0
            self.ln_top = np.fmax.reduce(self.ln_root + self.log_rho_pad[self.base - 1])
            self.ln_next = np.fmin.reduce(self.ln_root + self.log_rho_at[end])

    def _widen(self, m, width):
        """Widen the band storage; the new columns hold terms above the band
        of node m - 1, whose sums are zero there."""
        old = self.sums.shape[1]
        pad = ((0, 0), (0, width - old))
        self.sums = np.pad(self.sums, pad)
        rates, weight = self._band_rows(slice(None), self.base)
        self.rates, self.weight = rates, weight
        decay = np.zeros((self.lam.size, width - old))
        if m >= 2:
            decay = np.expm1(rates[:, old:] * -(self.t[m - 1] - self.t[m - 2]))
        self.decay_m1 = np.concatenate([self.decay_m1, decay], axis=1)
        self.work = np.empty_like(self.sums)
        self._edges()

    def _shift(self, m, rows, base):
        """Move the band of `rows` down to start at term `base`; the thawed
        terms get their sums at t_{m-1} from the moments."""
        width = self.sums.shape[1]
        src = np.arange(width)[None, :] - (self.base[rows] - base)[:, None]
        kept = self.sums[rows[:, None], np.maximum(src, 0)]
        rates, weight = self._band_rows(rows, base)
        # S_j = r M1 - r^2 (s M1 - P/2) at s = t_{m-1}, in r s and M1 / s,
        # which stay bounded for r s < 1e-8
        s = self.t[m - 1] - self.t[0]
        if s > 0.0:
            rs, m1 = rates * s, self.mom[0, rows, None] / s
            with np.errstate(over="ignore", invalid="ignore"):  # rates past the rule may be inf
                thawed = rs * m1 - rs * rs * (m1 - 0.5 * self.mom[1, rows, None] / s / s)
        else:  # node 0: nothing is folded yet
            thawed = np.zeros_like(rates)
        self.sums[rows] = np.where(src >= 0, kept, thawed)
        self.rates[rows], self.weight[rows] = rates, weight
        self.base[rows] = base
        self.ln_a[0, rows] = self.ln_root[rows] + self.ln_c1[base]
        self.ln_a[1, rows] = 2.0 * self.ln_root[rows] + self.ln_c2[base]
        self._edges()

    def _fold(self, m, g_hist, late):
        """Fold the windows folded <= k < late, older than m - 2, that came
        of age at node m into the sums at t_{m-1} and into the moments,
        window by window."""
        t = self.t
        for k in range(int(self.folded[late > self.folded].min()), int(late.max())):
            sel = (self.folded <= k) & (k < late)
            r = self.rates[sel]
            with np.errstate(over="ignore", invalid="ignore"):  # rates past the rule may be inf
                w = np.exp(-r * (t[m - 1] - t[k + 1])) * -np.expm1(-r * (t[k + 1] - t[k]))
            self.sums[sel] += w * g_hist[k, sel, None]
            self.mom += self.mom_w[k] * (g_hist[k] * sel)

    def advance(self, m, g_hist):
        """Move to node m; returns E(-lam t_m^alpha) per mode, the history
        term and the current window's masses.  g_hist[k] holds the mode
        coefficients of the forcing on window k (k <= m - 2 are read)."""
        t, lam, alpha = self.t, self.lam, self.alpha
        if m >= self.block_stop:
            self._fetch(m)
        b = m - self.block_start
        fold_to = self.fold[b]

        # the live band [lo, hi) of each mode at node m.  When the lower edge
        # of a row passes its first column, every row whose edge is within
        # _BAND_SLACK / 2 terms of its first column moves to _BAND_SLACK
        # terms below the edge, so that rows move together and seldom
        s_m, dt = t[m] - t[0], t[m] - t[m - 1]
        ln_lo, ln_hi = math.log(_BAND_LO / s_m), math.log(_BAND_HI / dt)
        moved = ()
        # the margins cover rounding between this test and the searches below
        if ln_lo <= self.ln_top + 1e-6 or ln_hi >= self.ln_next - 1e-6:
            lo = np.searchsorted(self.log_rho, ln_lo - self.ln_root)
            hi = np.searchsorted(self.log_rho, ln_hi - self.ln_root, side="right")
            moved = np.flatnonzero((lo < self.base + _BAND_SLACK // 2) & np.any(lo < self.base))
            base = self.base.copy()
            base[moved] = np.maximum(lo[moved] - _BAND_SLACK, 0)
            width = int(np.max(hi - base))
            if width > self.sums.shape[1]:
                self._widen(m, -(-width // _BAND_SLACK) * _BAND_SLACK)

        # nothing below overflows: a rate past the rule may be inf, which
        # expm1 takes to -1, and the frozen terms are scaled by t_m
        if m >= 2:
            if self.late_due[b]:
                self._fold(m, g_hist, np.minimum(fold_to, m - 2))
            # window m - 2, the one the last step left behind, in place
            g_k = g_hist[m - 2]
            if not self.fold_all[b]:
                g_k = np.multiply(g_k, self.fold_last[b], out=self.g_k)
            self.sums -= np.multiply(self.decay_m1, g_k[:, None], out=self.work)
            self.mom += np.multiply(self.mom_w[m - 2], g_k, out=self.mom_work)
        self.folded = fold_to
        if len(moved):
            self._shift(m, moved, base[moved])
        decay_m1 = np.multiply(self.rates, -dt, out=self.decay_m1)
        np.expm1(decay_m1, out=decay_m1)
        self.sums *= np.add(decay_m1, 1.0, out=self.work)

        # the frozen terms, scaled by t_m so that no factor overflows:
        # sum_j w_j r_j t_m <= 1e-8 sum_j w_j, M1 / t_m <= max |g|.  Row 0 of
        # e and c is t_m sum_j w_j r_j against M1 / t_m, row 1 is
        # t_m^2 sum_j w_j r_j^2 against P / (2 t_m^2) - M1 / t_m (t_m^2 may
        # underflow, so P is divided by t_m twice)
        e = np.exp(self.ln_a + self.ln_s[b])
        c = np.divide(self.mom, self.mom_div[b], out=self.mom_work)
        c1 = c[1]
        c1 /= s_m
        c1 -= c[0]
        e *= c
        frozen = e[0] + e[1]
        # small modes have folded nothing, so their sums and moments are 0
        history = (np.einsum("ij,ij->i", self.sums, self.weight) + frozen) / self.lam_div
        # small modes, and young windows fold_to <= k <= m - 2 of the others
        if self.rest_any[b]:
            rest = self.rest[b]
            q = int(fold_to[rest].min())
            masses = _kernel_masses(alpha, lam[rest], (t[m] - t[q:m]) ** alpha)
            young = np.arange(q, m - 1)[None, :] >= fold_to[rest, None]
            history[rest] += (masses * young * g_hist[q : m - 1, rest].T).sum(axis=1)
        return self.relax[b], history, self.w_cur[b]


class _Sampled:
    """A coefficient f(x, t) of the march at the step midpoints, as post(f)
    on the nodes x.  Each block of _RELAX_BLOCK midpoints is sampled by one
    call of f with x and the column of the block's times.  Where that call
    raises or gives another shape than (times, nodes), f does not broadcast
    in t: it is called once per time from then on, when the march reaches
    the step, so that an error surfaces at its own node.  A constant f is
    post(f) at every time and is never called."""

    def __init__(self, f, x, post=None):
        self.f, self.x, self.post = f, x, post
        self.per_time = False
        if not callable(f):
            v = float(f) if post is None else post(float(f))
            self.rows = np.full((_RELAX_BLOCK, 1), v)
            self.nonzero = np.full(_RELAX_BLOCK, v != 0.0)

    def block(self, ts):
        """Sample the midpoints ts of the next block."""
        if not callable(self.f):
            return
        self.ts, self.rows = ts, None
        # a block of one time is sampled per time: a scalar-only f (math.exp)
        # would take a one-element column for a scalar
        if self.per_time or ts.size < 2:
            return
        try:
            v = np.asarray(self.f(self.x, ts[:, None]), dtype=float)
        except Exception:  # any error: the per-time calls raise it again at its node
            v = None
        if v is None or v.shape != (ts.size, self.x.size):
            self.per_time = True
            return
        self.rows = v if self.post is None else self.post(v)
        self.nonzero = self.rows.any(axis=1)  # NaN counts as nonzero

    def at(self, k):
        """Row k of the block, and whether it has an entry other than 0."""
        if self.rows is not None:
            return self.rows[k], self.nonzero[k]
        v = _node_values(self.f(self.x, self.ts[k]), self.x)
        if self.post is not None:
            v = self.post(v)
        return v, np.count_nonzero(v) > 0  # NaN counts as nonzero


def _extrapolation_weights(t):
    """Weights of the start of the Picard sweeps at each node m: the
    quadratic through nodes m - 1, m - 2 and m - 3, evaluated at t_m.
    Row m holds the weight of node k in column k % 3, where the march keeps
    node k.  The Lagrange weights are written as ratios of steps: on a
    strongly graded grid (t_k = (k/N)^100) products of the first steps
    underflow.  There the ratios are huge instead, and the start's rounding
    alone would cost sweeps, so a row whose weights exceed _START_MAX takes
    the line through m - 1 and m - 2, or failing that node m - 1 itself
    (as do m = 1 and m = 2)."""
    h = np.diff(t)
    rows = np.arange(t.size)
    col1, col2, col3 = (rows - 1) % 3, (rows - 2) % 3, rows % 3  # nodes m - 1, m - 2, m - 3
    w = np.zeros((t.size, 3))
    w[rows[1:], col1[1:]] = 1.0
    with np.errstate(over="ignore"):  # a huge ratio is rejected below
        r = h[1:] / h[:-1]  # (t_m - t_{m-1}) / (t_{m-1} - t_{m-2}) at m = 2..N
        h1, h2, h3 = h[2:], h[1:-1], h[:-2]  # t_m - t_{m-1}, ... at m = 3..N
        quad = np.stack([((h1 + h2) / h2) * ((h1 + h2 + h3) / (h2 + h3)),
                         -(h1 / h2) * ((h1 + h2 + h3) / h3),
                         (h1 / h3) * ((h1 + h2) / (h2 + h3))])
    m = np.flatnonzero(1.0 + r <= _START_MAX) + 2
    w[m, col1[m]], w[m, col2[m]] = 1.0 + r[m - 2], -r[m - 2]
    m = np.flatnonzero(np.abs(quad).max(axis=0) <= _START_MAX) + 3
    w[m, col1[m]], w[m, col2[m]], w[m, col3[m]] = quad[:, m - 3]
    return w


def spectral_march(
    p: ProblemSpec,
    eig: EigenDecomposition,
    op: DiscreteOperator,
    nonlinearity=None,
    picard_tol=1e-10,
    state_guard=None,
):
    """Shared marching loop of the fixed-point solvers.

    At node m the step forcing g = F + Q u_rep [+ f(u_rep)], with u_rep the
    average of u_{m-1} and u_m, is frozen on the window, and the mode
    coefficients v of u_m are the fixed point of v -> base + w_last * P g,
    P the weighted projection.  The Picard sweeps run on v: the half of
    Q u_rep that u_{m-1} fixes (with the u' its last sweep gave) is projected
    once per step, and a sweep is one product giving u and u' on the nodes,
    the other half plus f, one projection and the update.  They start from
    the quadratic extrapolation of u and u' from the last three nodes (see
    _extrapolation_weights) and stop when u_m moves by at most picard_tol on
    the nodes.  The memory keeps the forcing of the last sweep, so u_m is
    exactly its Duhamel image.

    b / 2, (c0 + c) / 2 and the source are sampled at the step midpoints a
    block of _RELAX_BLOCK steps at a time (see _Sampled); without b and c,
    Q is the constant c0 and is not sampled.  A step whose samples of b and
    c0 + c are all zero takes u_m directly.

    nonlinearity(u_nodal, t) -> nodal values is added to the step forcing with
    the same endpoint-average state treatment as Q u.  state_guard(u, k) may
    raise to abort (box monitoring).  Returns the field values and, per
    node, the number of sweeps (applications of the map; 0 where nothing
    couples the modes and u_m is taken directly)."""
    t = p.tgrid.nodes
    alpha = p.alpha
    x = p.grid.nodes
    n_nodes = p.grid.n_nodes
    N = t.size - 1
    a = p.initial_values()
    if not np.all(np.isfinite(a)):
        raise _non_finite("initial value", 0, p.grid, a)
    a_coef = eig.project(a)
    mids = 0.5 * (t[:-1] + t[1:])
    spec = p.elliptic
    half_b = None if spec.b is None else _Sampled(spec.b, x, lambda v: 0.5 * v)
    half_c = _Sampled(0.0 if spec.c is None else spec.c, x, lambda v: 0.5 * (spec.c0 + v))
    src = p.source
    if callable(src):
        src = _Sampled(src, x)
    elif src is not None:
        src = np.asarray(src, dtype=float)
    sampled = [s for s in (half_b, half_c, src) if isinstance(s, _Sampled)]
    no_source = np.zeros(n_nodes)
    # one product gives the nodal values and, under a drift, their derivative
    synth = np.vstack([eig.modes, op.derivative(eig.modes)]) if half_b is not None else eig.modes
    proj = np.ascontiguousarray((eig.modes * eig.weights[:, None]).T)
    start = _extrapolation_weights(t)

    u = np.empty((N + 1, n_nodes))
    u[0] = a
    du = op.derivative(a)  # u' at the last node
    # mode coefficients of the frozen step forcings (F + Qu [+ f(u)])
    g_hist = np.zeros((N, eig.lambdas.size))
    counts = np.zeros(N, dtype=int)
    # u (and u') on the nodes at node k in row k % 3, for the sweeps' start
    uv_hist = np.zeros((3, synth.shape[0]))
    uv_hist[0] = synth @ a_coef

    memory = _Memory(alpha, eig.lambdas, t)

    for m in range(1, N + 1):
        relax, history, w_last = memory.advance(m, g_hist)
        base = a_coef * relax + history
        k = (m - 1) % _RELAX_BLOCK
        if k == 0:
            for s in sampled:
                s.block(mids[m - 1 : m - 1 + _RELAX_BLOCK])
        # the part of the step forcing that u_{m-1} fixes: F + Q u_{m-1} / 2
        if src is None:
            fixed = no_source
        elif isinstance(src, _Sampled):
            fixed, _ = src.at(k)
        else:
            fixed = 0.5 * (src[m - 1] + src[m])
        half_c_m, active = half_c.at(k)
        half_b_m = None
        if half_b is not None:
            half_b_m, b_active = half_b.at(k)
            active = active or b_active
        if active:
            fixed = fixed + half_c_m * u[m - 1]
            if half_b_m is not None:
                fixed += half_b_m * du
        g_fixed = proj @ fixed
        if not np.isfinite(g_fixed).all():
            raise _non_finite("step forcing", m, p.grid, fixed)

        if not (active or nonlinearity is not None):
            g = g_fixed
            v_next = base + w_last * g
            uv = synth @ v_next
            if not np.isfinite(uv[:n_nodes]).all():
                raise _non_finite("field", m, p.grid, uv[:n_nodes])
        else:
            uv = start[m] @ uv_hist
            converged = False
            residual = np.inf
            for it in range(PICARD_MAX):
                u_new = uv[:n_nodes]
                swept = half_c_m * u_new if active else 0.0
                if active and half_b_m is not None:
                    swept += half_b_m * uv[n_nodes:]
                if nonlinearity is not None:
                    swept = swept + nonlinearity(0.5 * (u[m - 1] + u_new), mids[m - 1])
                g = g_fixed + proj @ swept
                v_next = base + w_last * g
                uv = synth @ v_next
                residual = float(np.abs(uv[:n_nodes] - u_new).max())
                if not math.isfinite(residual):
                    raise _non_finite("step forcing", m, p.grid, fixed + swept)
                if residual <= picard_tol:
                    converged = True
                    counts[m - 1] = it + 1
                    break
            if not converged:
                raise SolverError(
                    f"Picard iteration stalled at node {m} (residual {residual:.3e}); "
                    "refine the time grid or reduce the coefficients",
                    node=m,
                    residual=residual,
                )
        uv_hist[m % 3] = uv
        u_new, du = uv[:n_nodes], uv[n_nodes:]
        u[m] = u_new
        if state_guard is not None:
            state_guard(u_new, m)
        g_hist[m - 1] = g

    return u, counts


def solve_linear_spectral(
    p: ProblemSpec,
    eig: Optional[EigenDecomposition] = None,
) -> Field:
    """March the fixed-point representation; with no drift and c = -c0 the
    result is the pure eigen-expansion without iteration."""
    op = assemble(p.elliptic, p.grid)
    if eig is None:
        eig = eigendecompose(op)
    u, _ = spectral_march(p, eig, op)
    return Field(p.grid, p.tgrid, u)


def solve_linear_l1(p: ProblemSpec) -> Field:
    """Implicit L1 stepping of the full operator; the cross-validation oracle."""
    return _l1_march(p, l1_weight_rows(p.tgrid.nodes, p.alpha))


def _l1_march(p: ProblemSpec, rows) -> Field:
    """solve_linear_l1 with the grid's L1 weight rows given: rows yields
    caputo_l1_weights(t[:m+1], alpha) for m = 1..N in order, either lazily
    (one solve) or from a tuple that a chain of solves on one grid shares."""
    op = assemble(p.elliptic, p.grid)
    t = p.tgrid.nodes
    N = t.size - 1
    n_nodes = p.grid.n_nodes
    a = p.initial_values()
    u = np.empty((N + 1, n_nodes))
    u[0] = a
    du = np.empty((N, n_nodes))
    for m, w in enumerate(rows, start=1):
        rhs = w[-1] * u[m - 1]
        if m > 1:
            rhs = rhs - w[: m - 1] @ du[: m - 1]
        f = p.source_at(t[m], node_index=m)
        if f is not None:
            rhs = rhs + f
        ab = op.bands(t[m], shift=w[-1])
        if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(rhs))):
            ones_row = op.apply_full(np.ones(n_nodes), t[m])  # row sums locate the bad node
            raise _non_finite("operator or right-hand side", m, p.grid, ones_row + rhs)
        try:
            u[m] = banded_solve(ab, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"implicit step {m} is singular", node=m) from exc
        if not np.all(np.isfinite(u[m])):
            raise SolverError(f"implicit step {m} produced non-finite values", node=m)
        du[m - 1] = u[m] - u[m - 1]
    return Field(p.grid, p.tgrid, u)
