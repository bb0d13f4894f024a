"""Evolution solvers for d_t^alpha (u - a) + A u = F on a 1D interval.

Two independent routes:

* a spectral exponential integrator: the problem is split as
  d_t^alpha (u - a) + (T0 + s) u = F + (Q + s) u with T0 u = -(a u')',
  Q = T0 - A (elliptic.DiscreteOperator.q_bands) and a shift s derived from
  c and the time grid (see _shifts); the fixed-point form
  u(t) = S(t) a + int K(t-r) (F + (Q + s) u)(r) dr is marched node by node.
  Per mode the Duhamel integral of piecewise-constant data has a closed form
  through differences of the relaxation profile, so the only time error is
  the piecewise-constant treatment of F + (Q + s) u (midpoint samples of
  the coefficients, endpoint-average state);

* an implicit L1 finite-difference scheme used as a cross-validation oracle:
  at each node the memory term is L1-discretised and A is solved
  implicitly.  With the drift fitted at the cell faces the step matrix has
  off-diagonal entries <= 0 at every mesh Peclet number, which makes it the
  order-preserving workhorse for the comparison checks.

On the spectral route u at node m is the fixed point of the step map, found
by Picard sweeps on its mode coefficients (see spectral_march): a sweep is
one product giving u on the nodes, the nodal forcing, one weighted
projection and the per-mode update.  The projection takes the whole step
forcing, the half that u_{m-1} fixes with the swept half, so that a swept
step projects once per sweep and at no other time.  The sweeps start from
the extrapolation of u by a polynomial in t^alpha through the last nodes,
up to the quintic through six, so that they mostly stop after one sweep; a
step that stalls from there starts once more from u_{m-1}.  The march
returns the number of sweeps per node.
The coefficients b, c and the source are sampled at the step midpoints
a block of steps per call where they take a column of times, once per
step where they do not, and never where they do not depend on t, as the
kinds decided when each problem was built say (elliptic.Coefficient).  The
march takes a leading problem axis: problems that share alpha, the time
nodes and the number of space nodes (a Batch) are marched as one, with one
memory of all their modes and the products of the sweeps stacked, so that
a short march's numpy overhead is paid once per batch.
solve_linear_spectral is a batch of one, and solve_linear_spectral_many
groups a list of problems into batches of up to _BATCH_MODES modes, which
the verify suites' ensembles fill one per alpha (_batches;
evolve_semilinear.solve_semilinear_many groups the same way).

Both keep the entire memory: there is no semigroup restart in fractional time.
The spectral route carries it compressed, as one running sum per mode and
exponential, for every mode alike (see _Memory): the shift keeps every
eigenvalue at or above a floor above 0 (see _shift_floor).  Per mode only
a live band of the exponentials is advanced: the fastest have decayed and
are dropped, the slowest share K Taylor moments.  A step costs
O(modes x band), with a band of 17-43 of the rule's 1591-1716 terms at
alpha = 0.3-0.95 on the acceptance grids; the relaxation values and
masses the step needs are fetched a block of
max(_RELAX_BLOCK, _FETCH_POINTS // modes) nodes at a time, so that a
batch of few modes fetches few, long blocks.
The L1 route sums every past step exactly.  Its steps come
from one table (_L1Steps): node m's weight row from fracops.l1_weight_rows
and the LAPACK LU factors of its tridiagonal step matrix
w_m I + A(t_m) (elliptic.banded_lu), built the first time a march reaches
the node.  A one-off solve builds each entry as it steps and keeps none;
compare's monotone iterations, whose sweeps all solve with one frozen
operator on one grid, keep one table per chain, so a sweep costs one
dgbtrs solve per node and the chain factors each node once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .elliptic import (
    ABSENT,
    CONSTANT,
    X_ONLY,
    Coefficient,
    EigenDecomposition,
    EllipticSpec,
    Grid1D,
    _require_finite,
    assemble,
    band_product,
    banded_lu,
    banded_lu_solve,
    eigendecompose,
    fitted_drift,
)
from .fracops import TimeGrid, l1_weight_rows
from .special_ml import relaxation_batch, relaxation_deficit, relaxation_exponentials

__all__ = [
    "ProblemSpec",
    "Field",
    "SolverError",
    "solve_linear_spectral",
    "solve_linear_spectral_many",
    "solve_linear_l1",
]

PICARD_MAX = 50  # Picard sweeps per time node before the march reports a stall
PICARD_TOL = 1e-10  # a sweep that moves u_m by at most this on the nodes ends the step's sweeps
_RELAX_BLOCK = 32  # fewest time nodes whose relaxation values the march fetches at once
# modes x nodes that one fetch of relaxation values covers: a march's block
# spans max(_RELAX_BLOCK, _FETCH_POINTS // modes) nodes, and each relaxation
# call of a block takes _FETCH_POINTS // block columns of the batch's modes.
# That is 63 nodes and one call per block for a spec at n = 128, 32 nodes
# and two calls for a verify ensemble of 462 modes, and the whole march for
# a single verify solve; the calls' temporaries grow with their input
_FETCH_POINTS = 8192
_SMALL = 1e-8  # half the least lam (t_4 - t_0)^alpha of the shift floor (see _shift_floor)
# the largest shift floor (see _shift_floor): the floor times a field of
# moderate size stays far inside the float range, where a horizon near the
# least float would ask for more than the largest float
_FLOOR_MAX = math.sqrt(np.finfo(float).max)
# edges of the live band of exponential terms (see _Memory)
_BAND_HI = 40.0  # r dt_{m-1} above this: the running sum is below e^-40 of its input
_MOMENTS = 12  # K: Taylor moments per mode that carry the frozen terms (see _Memory)
# r t_m below this: exp(-r s) is its degree-K Taylor polynomial in r s to
# rounding, the remainder (r s)^(K+1)/(K+1)! below 2^-53 r s
_BAND_LO = (math.factorial(_MOMENTS + 1) * 2.0 ** -53) ** (1.0 / _MOMENTS)
_BAND_SLACK = 8  # terms the band storage moves or grows by at once
# largest weight of the sweeps' extrapolated start (see _extrapolation_weights):
# the quintic on uniform steps in tau has weights up to 20
_START_MAX = 32.0
# modes one batched march advances at most (see _batches).  A batch holds
# the band, block samples and history of all its problems at once, about
# 5 KB per mode at n = 20, N = 64.  At 512 the verify suites' n = 20,
# N = 64 ensembles march one batch per alpha (16 marches per verify-all
# pass against 35 at 128), which took verify-all from 1.02 s to 0.79 s
# (benchmark calibrated_s, medians of four runs); 1024 gained nothing
# more, and each doubling from 128 cost 0.3-1.1 MB of peak memory
_BATCH_MODES = 512


class SolverError(RuntimeError):
    """A solve that cannot go on: node is the time node at fault, and in a
    batch of several problems problem is the index of the one at fault,
    which the message names first."""

    def __init__(self, msg, node=None, residual=None, problem=None):
        super().__init__(msg if problem is None else f"problem {problem}: {msg}")
        self.node = node
        self.residual = residual
        self.problem = problem


@dataclass(frozen=True)
class ProblemSpec:
    """A problem d_t^alpha (u - a) + A u = F.  The source F is None, a
    number or a callable of (x, t), as EllipticSpec's b and c are, and
    anything else is refused (ValueError).  When the problem is
    built, the kinds of b, c and F are decided (elliptic.Coefficient) on its
    nodes and the times its solvers sample, the time nodes after t = 0 and
    the step midpoints, by one call with the column of those times; b, c, F
    or the initial value not finite there is a ValueError
    (elliptic.NonFiniteError) naming the key and the first x and t."""

    alpha: float
    elliptic: EllipticSpec
    grid: Grid1D
    tgrid: TimeGrid
    initial: object  # a number, an array on the nodes, or a callable of x
    source: object = None  # None, a number, or a callable (x, t) -> values
    coefficients: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        x, t = self.grid.nodes, self.tgrid.nodes
        times = np.sort(np.concatenate([t[1:], 0.5 * t[:-1] + 0.5 * t[1:]]))
        spec = replace(self.elliptic)  # a copy with b and c decided, which the operators read
        for key in ("b", "c"):
            spec.coefficients[key] = spec.coefficients[key].decided(x, times)
        with np.errstate(all="ignore"):
            _require_finite("initial", self.initial_values(), x, t)
        source = Coefficient.of("source", self.source).decided(x, times)
        object.__setattr__(self, "elliptic", spec)
        object.__setattr__(self, "coefficients", {**spec.coefficients, "source": source})

    def initial_values(self):
        a, x = self.initial, self.grid.nodes
        v = a(x) if callable(a) else a
        return np.asarray(v, dtype=float) * np.ones_like(x)

    def source_at(self, t, node_index=None):
        """Source values on the nodes at time t, or one row per time of a
        1-D array t, or None.  node_index is ignored; it is kept for the
        benchmark's callers (perfbench/)."""
        return self.coefficients["source"].values(self.grid.nodes, t)


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


def _non_finite(what, m, grid, values, problem=None):
    """SolverError for a time step whose data are not finite, naming the
    time node and the first space node at fault."""
    bad = np.flatnonzero(~np.isfinite(values))
    where = f" (first at x = {grid.nodes[bad[0]]:.6g})" if bad.size else ""
    return SolverError(f"non-finite {what} at time node {m}{where}", node=m, problem=problem)


# the moments' orders p = 1..K as a column, the signs (-1)^(p+1) and the
# coefficients (-1)^(p+1) / p! of the Taylor terms of 1 - exp(-x), and the
# transfer's C(q, i) at [q - 1, i - 1] (0 for i > q) with its exponents q - i
_ORDERS = np.arange(1.0, _MOMENTS + 1.0)[:, None]
_SIGNS = np.array([(-1.0) ** (p + 1) for p in range(1, _MOMENTS + 1)])
_TAYLOR = np.array([(-1.0) ** (p + 1) / math.factorial(p) for p in range(1, _MOMENTS + 1)])
_BINOM = np.array([[math.comb(q, i) for i in range(1, _MOMENTS + 1)]
                   for q in range(1, _MOMENTS + 1)], dtype=float)
_Q_MINUS_I = np.array([[max(q - i, 0) for i in range(_MOMENTS)] for q in range(_MOMENTS)])


@functools.lru_cache(maxsize=32)  # one per alpha, as special_ml keeps its tables
def _prefix_logs(alpha):
    """ln (C_p[i] / p!), C_p[i] = sum_{j < i} w_j rho_j^p over the rule of
    alpha, p = 1..K, i = 0..n.  The sums are taken in logs: rho^p overflows
    past p = 14."""
    soe = relaxation_exponentials(alpha)
    ln_c = np.concatenate([np.full((_MOMENTS, 1), -np.inf),
                           np.logaddexp.accumulate(np.log(soe.weight) + _ORDERS * soe.log_rho, axis=1)],
                          axis=1)
    ln_c -= gammaln(_ORDERS + 1.0)
    ln_c.flags.writeable = False
    return ln_c


def _rule(alpha):
    """The exponential-sum rule of alpha (special_ml.relaxation_exponentials);
    a relaxation table that does not build is a SolverError."""
    try:
        return relaxation_exponentials(alpha)
    except RuntimeError as exc:
        raise SolverError(str(exc)) from exc


def _shift_floor(alpha, t):
    """The least eigenvalue that _Memory marches on the time nodes t: the
    larger of two terms, at most _FLOOR_MAX.
    * lam (t_4 - t_0)^alpha (t_4 the last node of a shorter grid) is twice
      _SMALL.  The history is divided by lam, so the rule's absolute error
      over lam must stay small; without this term the Neumann ground mode
      of a problem without c marches at the second alone, and the
      criterion-5 and spectral-long fields moved by up to 7.7e-8 of sup,
      the verify rows' worst values by up to 0.99 relative.
    * the rule edge sigma_lo / lam^(1/alpha) is at most the grid's smallest
      step, the least age of a window at the node after its end, so that
      every window folds into the rule (see _Memory)."""
    k = min(4, t.size - 1)
    floor = max(2.0 * _SMALL / (t[k] - t[0]) ** alpha, (_rule(alpha).sigma_lo / float(np.min(np.diff(t)))) ** alpha)
    return min(floor, _FLOOR_MAX)


def _shifts(problems, t, alpha):
    """The splitting shift s of each problem marched on the time nodes t:
    s = max(_shift_floor, -(min c + max c) / 2) over the values of c that
    the problem's build sampled (Coefficient.span, 0 where c is absent), so
    that Q + s, with Q = T0 - A, is 0 for every constant c <= -_shift_floor
    without b, and otherwise its c + s is the least a constant shift makes
    it (on choosing the linear part of an exponential integrator, see
    Hochbruck and Ostermann, Acta Numerica 19 (2010) 209).  T0's
    eigenvalues are at least 0 (elliptic.eigendecompose), so every shifted
    one is at least the floor, and the Neumann ground mode is a mode of
    the memory like any other."""
    floor = _shift_floor(alpha, t)
    return np.array([max(floor, -(0.5 * lo + 0.5 * hi)) for lo, hi in (p.coefficients["c"].span for p in problems)])


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
    The history is sum_j (w_j / lam) S_j: the division by lam is folded
    into the band's weights and the frozen sum's logs, so that a step
    divides nothing.  Every lam is at least the shift floor, above 0, whose
    first term keeps the rule's error over lam small (see _shift_floor).

    Only a live band of rates is advanced per mode:
    * above it, r_j dt_{m-1} > _BAND_HI: every window is at least dt_{m-1}
      old, so S_j is below e^-40 of the forcing and is dropped;
    * below it, r_j t_m < _BAND_LO: exp(-r s) is its Taylor polynomial of
      degree K = _MOMENTS in r s to rounding for every age s, so the frozen
      S_j = sum_p (-1)^(p+1) (r_j tau_m)^p / p! A_p are polynomials in r_j
      through K moments per mode.  With tau = t - t_0 and s = tau_m they are
      age-scaled, A_p = sum_k g_k [(1 - tau_k / s)^p - (1 - tau_{k+1} / s)^p],
      so that no power of t is formed and |A_p| <= max |g|; window m - 2
      folds in at s' = tau_{m-1} with the weights (dt_{m-2} / s')^p, and the
      moments move on to s = tau_m by the nonnegative lower-triangular
      matrix C(p, i) (dt_{m-1} / s)^(p-i) (s' / s)^i.  The frozen sum
      sum_{j < base} w_j S_j takes the prefix sums sum_{j < base} w_j rho_j^p
      as logs.  As t_m grows, the lower edge moves down the rule; a term
      that thaws gets its S_j rebuilt from the moments.
    The band is ln(_BAND_HI / _BAND_LO t_m / dt_{m-1}) wide in ln r for
    every mode, so it is stored as a (modes x width) rectangle, column c of
    mode i holding term base_i + c; the width grows with the band and the
    rows shift only when the lower edge passes a node of the rule.

    One fold rule: at every node m >= 2, window m - 2, which the last step
    left behind, folds into the sums and the moments of every row.  The
    rule holds for sigma >= sigma_lo, and the shift floor (_shift_floor)
    makes sigma_lo / lam^(1/alpha) at most the grid's smallest step, so that
    the window is old enough for it.  The moments sit above the forcing of
    window m - 2 in one (K + 1) x modes array, and one product with the
    node's K x (K + 1) matrix folds the window in and moves them to tau_m.

    The current window's mass, which the Picard sweeps need, is exact,
    dt^alpha phi(lam dt^alpha) with phi from special_ml.relaxation_deficit.
    E(-lam t_m^alpha) and the current window's masses are fetched for a
    block of nodes (block, at least _RELAX_BLOCK) by one relaxation_batch
    and one relaxation_deficit call per _FETCH_POINTS // block modes of the
    batch, together with the moments' matrices of each node.  Every choice
    at node m depends on t[0..m], lam and alpha only, and lam on the grid's
    smallest step (the shift floor), so a march on a restricted grid that
    keeps that step, as graded grids do, reproduces the longer march
    exactly.

    A batch of problems (see spectral_march) passes the eigenvalues of all
    of them, problem by problem.  Each row is still one mode, but the band
    moves when any row needs it, so a problem's band moves depend on the
    whole batch's eigenvalues: restriction is exact for the same batch, and
    the same problem in another batch moves by rounding only."""

    def __init__(self, alpha, lambdas, t):
        self.alpha = alpha
        # the modes of a batch of several problems come with a leading
        # problem axis, which the values advance returns keep; the memory
        # works on the flat modes
        self.shape = np.shape(lambdas) if np.ndim(lambdas) > 1 else None
        self.lam = np.ravel(np.asarray(lambdas, dtype=float))
        self.t = t
        soe = _rule(alpha)
        n_terms = soe.log_rho.size
        self.log_rho = soe.log_rho
        # band columns past the rule read rate 0 and weight 0
        self.log_rho_pad = np.concatenate([soe.log_rho, np.full(n_terms + _BAND_SLACK, -np.inf)])
        self.weight_pad = np.concatenate([soe.weight, np.zeros(n_terms + _BAND_SLACK)])
        self.log_rho_at = np.append(soe.log_rho, np.inf)  # +inf past the rule
        self.ln_c = _prefix_logs(alpha)
        self.ln_root = np.log(self.lam) / alpha  # ln lam^(1/alpha)
        # ln (sum_{j < base} w_j r_j^p) / (p! lam), p = 1..K
        self.ln_a = _ORDERS * self.ln_root + self.ln_c[:, n_terms, None] - np.log(self.lam)
        modes = self.lam.size
        self.base = np.full(modes, n_terms)  # term held in column 0 of each row
        self.sums = np.zeros((modes, 0))  # S_j at the previous node, band columns
        self.rates = np.zeros((modes, 0))
        self.weight = np.zeros((modes, 0))
        self.decay_m1 = np.zeros((modes, 0))  # exp(-r dt) - 1 of the last step
        self._windows(0)
        # the moments A_1..A_K of the folded windows (mom), above the forcing
        # of the window that folds at this node (the last row): one product
        # with [T | T w] (see _fetch) folds it in and moves the moments on.
        # Two such buffers, swapped at every node
        self.mom_g, self.next_g = np.zeros((2, _MOMENTS + 1, modes))
        self.mom, self.next_mom = self.mom_g[:-1], self.next_g[:-1]
        self.frozen_work = np.empty((_MOMENTS, modes))
        # the nodes of a block: at least _RELAX_BLOCK, more where the batch
        # has few modes, and at most the march
        self.block = min(max(_RELAX_BLOCK, _FETCH_POINTS // modes), t.size - 1)
        # what _fetch writes per block: the relaxation values and masses,
        # one row per node
        self.block_bufs = (np.empty((self.block, modes)), np.empty((self.block, modes)))
        self.block_start = self.block_stop = 1
        self._edges()

    def _fetch(self, m):
        """Relaxation values and current-window masses of the nodes
        m .. m + block - 1, and the moments' fold weights and transfer
        matrices of those nodes."""
        t, lam, alpha = self.t, self.lam, self.alpha
        stop = min(m + self.block, t.size)
        B = stop - m
        relax, w_cur = (buf[:B] for buf in self.block_bufs)
        # scalar powers, as the closed form of S(t) a takes them: numpy's
        # vectorised power can differ from them in the last bit
        t_pow = np.array([(t[k] - t[0]) ** alpha for k in range(m, stop)])
        dt_pow = (t[m:stop] - t[m - 1 : stop - 1]) ** alpha
        col = np.concatenate([t_pow, dt_pow])[:, None]
        # the block's outputs, E(-lam t^alpha) and the masses dt^alpha
        # phi(lam dt^alpha), from one relaxation_batch and one
        # relaxation_deficit call per _FETCH_POINTS // block modes of the
        # batch, whichever problems they belong to.  Both are pointwise, so
        # the values do not depend on the split
        cols = _FETCH_POINTS // self.block
        for i in range(0, lam.size, cols):
            x = lam[i : i + cols] * col
            e = relaxation_batch(alpha, x)
            relax[:, i : i + cols] = e[:B]
            w_cur[:, i : i + cols] = relaxation_deficit(alpha, x[B:], e[B:])
        w_cur *= dt_pow[:, None]
        self.block_start, self.block_stop = m, stop
        # per node, ln r of the band's edges, ln(_BAND_LO / tau_k) and
        # ln(_BAND_HI / dt_k), as differences of logs (_BAND_LO / tau_k
        # overflows for a tiny horizon), and -dt_k for the decay
        self.edges = [(math.log(_BAND_LO) - math.log(t[k] - t[0]),
                       math.log(_BAND_HI) - math.log(t[k] - t[k - 1]), -(t[k] - t[k - 1]))
                      for k in range(m, stop)]
        # the moments at node k: window k - 2 folds at s' = tau_{k-1} with
        # the weights (dt_{k-2} / s')^q, the powers of node k - 1's ratio
        # dt / tau, and they move to s = tau_k by the matrix
        # C(q, i) (dt_{k-1} / s)^(q-i) (s' / s)^i.  Row r of `ratios` is node
        # m - 1 + r; the powers 0..K are repeated products, which do not
        # depend on the block's length
        j = max(m - 1, 1)  # node 1 folds nothing: row 0 stays 0
        tau = t[j - 1 : stop] - t[0]
        ratios = np.zeros((2, B + 1, _MOMENTS + 1))
        ratios[0, j - m + 1 :] = (np.diff(t[j - 1 : stop]) / tau[1:])[:, None]
        ratios[1, 1:] = (tau[-B - 1 : -1] / tau[-B:])[:, None]
        ratios[:, :, 0] = 1.0
        powers = np.cumprod(ratios, axis=2)
        self.mom_w = powers[0, :-1, 1:, None]
        move = _BINOM * powers[1, 1:, None, 1:] * powers[0, 1:][:, _Q_MINUS_I]
        self.mom_t = np.concatenate([move, move @ self.mom_w], axis=2)
        # the frozen terms' scaling p ln tau_k
        self.ln_s = np.log(tau[-B:])[:, None, None] * _ORDERS
        if self.shape is not None:
            relax, w_cur = relax.reshape((-1,) + self.shape), w_cur.reshape((-1,) + self.shape)
        self.relax, self.w_cur = relax, w_cur

    def _band(self):
        """Rebuild the rates and weights of every row's band columns from its
        base, gathered from the windows of the band's width (see _windows);
        the old ones go first."""
        self.rates = self.weight = None
        rates = self.log_rho_win[self.base]
        rates += self.ln_root[:, None]
        with np.errstate(over="ignore"):
            np.exp(rates, out=rates)
        weight = self.weight_win[self.base]
        weight /= self.lam[:, None]
        self.rates, self.weight = rates, weight

    def _edges(self):
        """ln r of the highest frozen term and of the lowest term above the
        stored band, over all rows: no band edge moves at a node m with
        ln(_BAND_LO / t_m) above the first and ln(_BAND_HI / dt_{m-1}) below
        the second."""
        end = np.minimum(self.base + self.sums.shape[1], self.log_rho.size)
        # log_rho_pad[-1] = -inf stands for the term below term 0
        self.ln_top = np.max(self.ln_root + self.log_rho_pad[self.base - 1])
        self.ln_next = np.min(self.ln_root + self.log_rho_at[end])

    def _widen(self, m, width):
        """Widen the band storage; the new columns hold terms above the band
        of node m - 1, whose sums are zero there.  The arrays grow one at a
        time, and the rates and weights go before they are rebuilt, so that
        a widening holds one old array of the band at most."""
        old = self.sums.shape[1]
        for name in ("sums", "decay_m1"):
            grown = np.zeros((self.lam.size, width))
            grown[:, :old] = getattr(self, name)
            setattr(self, name, grown)
        self._windows(width)
        self._band()
        if m >= 2:
            np.expm1(self.rates[:, old:] * -(self.t[m - 1] - self.t[m - 2]), out=self.decay_m1[:, old:])
        self._edges()

    def _windows(self, width):
        """Row i of log_rho_win and weight_win: the width terms from term i
        on, views of the padded rule."""
        self.log_rho_win = np.lib.stride_tricks.sliding_window_view(self.log_rho_pad, width)
        self.weight_win = np.lib.stride_tricks.sliding_window_view(self.weight_pad, width)

    def _shift(self, m, rows, base, moments):
        """Move the band of `rows` down to start at term `base`; the thawed
        terms get their sums at t_{m-1} from the moments at tau_{m-1}."""
        width = self.sums.shape[1]
        lag = self.base[rows] - base
        # the thawed columns, c < lag of each row, are the leading ones
        n_thawed = min(int(lag.max()), width)
        src = np.arange(width) - lag[:, None]
        thaw = src[:, :n_thawed] < 0
        kept = self.sums[rows[:, None], np.maximum(src, 0, out=src)]
        del src
        self.base[rows] = base
        self._band()
        # S_j = sum_p (-1)^(p+1) (r s)^p / p! A_p at s = tau_{m-1}, by Horner
        # on the leading columns, where the thawed terms have r s < _BAND_LO;
        # the clip keeps the others, which the copy skips, from overflowing
        s = self.t[m - 1] - self.t[0]
        thawed = np.zeros((rows.size, n_thawed))
        if s > 0.0:  # at node 1 nothing is folded yet
            with np.errstate(over="ignore"):
                x = np.minimum(self.rates[rows, :n_thawed] * s, _BAND_LO)
            coef = _TAYLOR[:, None] * moments[:, rows]
            acc = np.repeat(coef[-1][:, None], n_thawed, axis=1)
            for c in coef[-2::-1]:
                acc *= x
                acc += c[:, None]
            thawed = acc * x
        np.copyto(kept[:, :n_thawed], thawed, where=thaw)
        self.sums[rows] = kept
        self.ln_a[:, rows] = _ORDERS * self.ln_root[rows] + self.ln_c[:, base] - np.log(self.lam[rows])
        self._edges()

    def _frozen(self, ln_s):
        """sum_{j < base} (w_j / lam) S_j per mode at the node whose p ln tau
        is ln_s: sum_p (-1)^(p+1) (sum_{j < base} w_j r_j^p) tau^p / (p! lam)
        A_p, every factor of which, times lam, is at most
        sum_j w_j _BAND_LO^p."""
        e = np.exp(np.add(self.ln_a, ln_s, out=self.frozen_work), out=self.frozen_work)
        e *= self.mom
        return _SIGNS @ e

    def advance(self, m, g_hist):
        """Move to node m; returns the history term and the current window's
        masses, each in the shape of lambdas.  E(-lam t^alpha) of the
        block's nodes is in relax after the fetch, which advance does not
        read.  g_hist[k] holds the mode coefficients of the forcing on
        window k, flat (k <= m - 2 are read)."""
        if m >= self.block_stop:
            self._fetch(m)
        b = m - self.block_start

        # the live band [lo, hi) of each mode at node m.  When the lower edge
        # of a row passes its first column, every row whose edge is within
        # _BAND_SLACK / 2 terms of its first column moves to _BAND_SLACK
        # terms below the edge, so that rows move together and seldom
        ln_lo, ln_hi, minus_dt = self.edges[b]
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
        # expm1 takes to -1, and the moments are scaled by the age tau_m
        if m >= 2:
            # window m - 2, the one the last step left behind, on every row;
            # the last step's decay is read here for the last time
            self.mom_g[-1] = g_hist[m - 2]
            self.sums -= np.multiply(self.decay_m1, self.mom_g[-1, :, None], out=self.decay_m1)
        if len(moved):
            # a thaw reads the moments at tau_{m-1}, window m - 2 folded in
            self._shift(m, moved, base[moved], self.mom + self.mom_w[b] * self.mom_g[-1])
        # fold window m - 2 and move the moments to tau_m
        np.matmul(self.mom_t[b], self.mom_g, out=self.next_mom)
        self.mom_g, self.next_g = self.next_g, self.mom_g
        self.mom, self.next_mom = self.next_mom, self.mom
        decay_m1 = np.multiply(self.rates, minus_dt, out=self.decay_m1)
        np.expm1(decay_m1, out=decay_m1)
        self.sums *= decay_m1 + 1.0

        history = np.vecdot(self.sums, self.weight) + self._frozen(self.ln_s[b])
        if self.shape is not None:
            history = history.reshape(self.shape)
        return history, self.w_cur[b]


class _Sampled:
    """The coefficients f_s (see elliptic.Coefficient) of a batch's problems
    at the step midpoints, stacked on the problem axis as f_s, or as
    0.5 (shift_s + f_s) where a shift is given: rows[k, s] holds midpoint k
    of the block, which spans up to `block` steps.  The absent, constant and
    x-only kinds are written once; the others are read by block."""

    def __init__(self, coefs, xs, block, shift=None):
        self.coefs, self.xs, self.shift = coefs, xs, shift
        self.sampled = [s for s, f in enumerate(coefs) if f.kind not in (ABSENT, CONSTANT, X_ONLY)]
        self.rows = np.zeros((block, len(coefs), xs[0].size))
        for s, f in enumerate(coefs):
            if s not in self.sampled:
                self._put(self.rows[:, s], s, 0.0 if f.kind == ABSENT else f.values(xs[s]))
        self._flags()

    def _put(self, out, s, v):
        """Write the values v of problem s into its rows out."""
        if self.shift is None:
            out[...] = v
        else:
            np.add(self.shift[s], v, out=out)
            out *= 0.5

    def _flags(self):
        # what at returns: a batch of one drops the problem axis (see spectral_march)
        self.view = self.rows[:, 0] if self.rows.shape[1] == 1 else self.rows
        # NaN counts as nonzero
        self.nonzero = self.rows.reshape(self.rows.shape[:2] + (-1,)).any(axis=2)
        self.any_nonzero = self.nonzero.any(axis=1).tolist()

    def block(self, ts):
        """Sample the midpoints ts of the block's steps."""
        for s in self.sampled:
            self._put(self.rows[: ts.size, s], s, self.coefs[s].values(self.xs[s], ts))
        self._flags()

    def at(self, k):
        """Row k of the block, and whether it has an entry other than 0."""
        return self.view[k], self.any_nonzero[k]


class _SampledQ(_Sampled):
    """(Q + s) / 2 of a batch's problems under a drift at the step
    midpoints (see elliptic.DiscreteOperator.q_bands) as (1, 1) bands on
    the problem axis: b and c sampled as _Sampled says, the drift fitted on
    half T0's bands for the whole batch and block at once, (c + s) / 2 on
    the diagonal."""

    def __init__(self, b, c, xs, block, shift, ops):
        self.b, self.half_c = _Sampled(b, xs, block), _Sampled(c, xs, block, shift)
        self.sampled = self.b.sampled + self.half_c.sampled
        self.half_t0 = 0.5 * np.stack([op.t0_bands for op in ops])
        self.face = -np.stack([op.flux_off for op in ops])  # a_f / h
        self._form(block)

    def _form(self, n):
        self.rows = fitted_drift(self.half_t0, self.face, self.b.rows[:n])
        self.rows[..., 1, :] += self.half_c.rows[:n]
        self._flags()

    def block(self, ts):
        self.b.block(ts)
        self.half_c.block(ts)
        self._form(ts.size)


def _extrapolation_weights(tau):
    """Weights of the start of the Picard sweeps at each node m: the
    polynomial in tau = (t - t_0)^alpha through the last nodes, evaluated at
    tau_m.  The fields grow like a + c t^alpha + O(t^(2 alpha)), so that a
    polynomial in tau follows them where one in t cannot.  Row m holds the
    weight of node k in column k % 6, where the march keeps node k.  The
    Lagrange weights are written as ratios of sums of steps: on a strongly
    graded grid products of the first steps underflow.  There the ratios are
    huge instead, and the start's rounding alone would cost sweeps, so row m
    takes the highest degree, up to the quintic through m - 1, ..., m - 6,
    whose weights are finite and at most _START_MAX, and failing all of them
    node m - 1 itself (as does m = 1)."""
    n = tau.size
    # d[a, m] = tau_m - tau_{m-1-a}, NaN where node m - 1 - a does not exist,
    # so that those rows fail the test below
    d = tau - np.stack([np.concatenate([np.full(a + 1, np.nan), tau])[:n] for a in range(6)])
    w = np.zeros((n, 6))  # the weight of node m - 1 - a in column a
    w[1:, 0] = 1.0
    lagrange = np.ones((1, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rejected below
        for p in range(1, 6):
            # add node m - 1 - p: the weight of node m - 1 - a is the product
            # over b != a of d_b / (d_b - d_a), and d_p - d_a is the sum of
            # the steps between nodes m - 1 - p and m - 1 - a
            gaps = d[p] - d[:p]
            lagrange = np.vstack([lagrange * (d[p] / gaps), np.prod(-d[:p] / gaps, axis=0)])
            m = np.flatnonzero(np.abs(lagrange).max(axis=0) <= _START_MAX)
            w[m, : p + 1] = lagrange[:, m].T
    # node m - 1 - a to column (m - 1 - a) % 6
    return np.take_along_axis(w, (np.arange(n)[:, None] - 1 - np.arange(6)) % 6, axis=1)


def _batch_key(p: ProblemSpec):
    """What the problems of one march share: alpha, the time nodes and the
    number of space nodes."""
    return p.alpha, p.tgrid.nodes.tobytes(), p.grid.n_nodes


def _batches(problems):
    """The batches that a list of problems marches in: (positions in the
    list, Batch) for each.  The problems that share alpha, the time nodes
    and the number of space nodes are cut into batches of up to
    _BATCH_MODES modes (or one problem), as even as they come: up to 23
    problems at n = 20, so that a verify suite's ensemble marches once per
    alpha.  A Batch names the positions in the list when it holds several
    problems."""
    groups = {}
    for i, p in enumerate(problems):
        groups.setdefault(_batch_key(p), []).append(i)
    for group in groups.values():
        size = max(1, _BATCH_MODES // problems[group[0]].grid.n_nodes)
        for index in np.array_split(group, -(-len(group) // size)):
            index = index.tolist()
            yield index, Batch([problems[i] for i in index], tuple(index) if len(problems) > 1 else None)


@dataclass(frozen=True)
class Batch:
    """Problems that share alpha, the time nodes and the number of space
    nodes: the leading axis of spectral_march.  index holds their positions
    in the caller's list, which a SolverError names; without it a batch of
    several problems names their positions in the batch, and a batch of one
    names none."""

    problems: tuple
    index: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        if not self.problems:
            raise ValueError("a batch holds at least one problem")
        if len({_batch_key(p) for p in self.problems}) > 1:
            raise ValueError("the problems of a batch share alpha, the time nodes and n_nodes")

    @property
    def alpha(self):
        return self.problems[0].alpha

    @property
    def tgrid(self):
        return self.problems[0].tgrid

    def label(self, s):
        """The index that a SolverError of problem s names, or None."""
        if self.index is not None:
            return self.index[s]
        return s if len(self.problems) > 1 else None


@dataclass(frozen=True)
class ModeStack:
    """The eigendecompositions and operators of a Batch's problems, in its
    order.  lambdas concatenates their eigenvalues, problem by problem: the
    modes whose memory the march advances as one."""

    eigs: tuple
    ops: tuple
    lambdas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigs", tuple(self.eigs))
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "lambdas", np.concatenate([e.lambdas for e in self.eigs]))


@np.errstate(over="ignore", invalid="ignore")  # the non-finite checks below report
def spectral_march(
    batch: Batch,
    stack: ModeStack,
    nonlinearity=None,
    state_guard=None,
):
    """Shared marching loop of the fixed-point solvers, for S problems at once.

    At node m the step forcing g = F + (Q + s) u_rep [+ f(u_rep)], u_rep
    the average of u_{m-1} and u_m, is frozen on the window, and the mode
    coefficients v of u_m are the fixed point of v -> base + w_last * P g,
    P the weighted projection.  The half of (Q + s) u_rep that u_{m-1}
    fixes is formed once per step, with F, where (Q + s) / 2 is a diagonal;
    its bands under a drift take u_{m-1} + u_m in each sweep, one stencil
    in place of two.  A Picard sweep on v is one product giving u on the
    nodes, the forcing's other half plus f, one projection of the whole
    step forcing (P is linear) and the update.  The sweeps
    start from the extrapolation of u by a polynomial in tau = (t -
    t_0)^alpha, up to the quintic through the last six nodes (see
    _extrapolation_weights), and stop when u_m moves by at most PICARD_TOL
    on the nodes; the problems still sweeping after PICARD_MAX sweeps
    start once more from u_{m-1}, and only a second stall is reported.
    The memory keeps the forcing of the last sweep, so u_m is exactly its
    Duhamel image.

    The problems of the batch share one _Memory of all their modes, and
    each product is one stack of S matrix-vector products.  A problem stops
    sweeping at the sweep where it converges and keeps that iterate, so its
    field and its sweep counts are those of its own march, up to the band
    moves of the shared memory (see _Memory).  A SolverError names the node
    and, in a batch of several, the problem (see Batch.label).

    The modes are T0's eigenpairs (stack), each problem's eigenvalues
    shifted by its splitting shift s (see _shifts), and Q = T0 - A
    (elliptic.DiscreteOperator.q_bands).  (Q + s) / 2, as bands under a
    drift and else as its diagonal (c + s) / 2, and the source are sampled
    at the step midpoints one block of the memory's fetches at a time, each
    as its kind says (see _SampledQ, _Sampled and elliptic.Coefficient).  A
    problem whose samples of (Q + s) / 2 are all zero at a step, as for a
    constant c <= -s without b, takes u_m directly, from P F.

    nonlinearity(u_nodal, t, rows) -> nodal values is added to the step
    forcing with the same endpoint-average state treatment as (Q + s) u: u_nodal
    holds one row of nodal values for each problem still sweeping, rows
    their positions in the batch, and each row of the result is that
    problem's own term (a batch of one has no problem axis).  Under a
    nonlinearity every problem sweeps at every node.  state_guard(u, k)
    sees u_k of every problem (same axes) and may raise to abort (box
    monitoring).  Numpy's overflow and invalid-value warnings are off: a
    step forcing or a field that is not finite ends as a SolverError.
    Returns the field values, (S, time nodes, space nodes), and per problem
    and node the number of sweeps (applications of the map; 0 where nothing
    couples the modes and u_m is taken directly), (S, time steps)."""
    problems = batch.problems
    S = len(problems)
    t = batch.tgrid.nodes
    n_nodes = problems[0].grid.n_nodes
    n_modes = stack.eigs[0].lambdas.size
    N = t.size - 1
    # the leading problem axis; a batch of one drops it, because numpy's
    # elementwise loops and reductions cost more on (1, n) views than on
    # (n,) vectors, and a short march is made of little else
    lead = (S,) if S > 1 else ()
    # first, so that a relaxation table they build meets none of the arrays below
    shifts = _shifts(problems, t, batch.alpha)
    lambdas = stack.lambdas.reshape(S, n_modes) + shifts[:, None]
    memory = _Memory(batch.alpha, lambdas.reshape(lead + (n_modes,)), t)
    block = memory.block  # the nodes of the memory's fetches and of the samples
    xs = [p.grid.nodes for p in problems]
    u = np.empty((N + 1, S, n_nodes))
    a = u[0]  # the initial values, finite: checked when each problem was built
    for j, p in enumerate(problems):
        a[j] = p.initial_values()
    a_coef = np.stack([e.project(v) for e, v in zip(stack.eigs, a)]).reshape(lead + (n_modes,))
    mids = 0.5 * t[:-1] + 0.5 * t[1:]
    coefs = {key: [p.coefficients[key] for p in problems] for key in ("b", "c", "source")}
    src = None
    # (Q + s) / 2: bands under a drift, else the diagonal (c + s) / 2
    if any(f.kind != ABSENT for f in coefs["b"]):
        half_q = _SampledQ(coefs["b"], coefs["c"], xs, block, shifts, stack.ops)
    else:
        half_q = _Sampled(coefs["c"], xs, block, shifts)
    if any(f.kind != ABSENT for f in coefs["source"]):
        src = _Sampled(coefs["source"], xs, block)
    sampled = [smp for smp in (half_q, src) if smp is not None and smp.sampled]
    no_source = np.zeros(lead + (n_nodes,))
    synth = np.stack([e.modes for e in stack.eigs]).reshape(lead + (n_nodes, n_modes))
    proj = np.stack([(e.modes * e.weights[:, None]).T for e in stack.eigs]).reshape(lead + (n_modes, n_nodes))
    start = _extrapolation_weights((t - t[0]) ** batch.alpha)

    u_prev = a.reshape(lead + (n_nodes,))
    # mode coefficients of the frozen step forcings (F + (Q + s) u [+ f(u)]); the
    # memory reads them as one row of S x modes per window
    g_hist = np.zeros((N,) + lead + (n_modes,))
    g_rows = g_hist.reshape(N, -1)
    counts = np.zeros((N,) + lead, dtype=int)
    # u on the nodes at node k in row k % 6, for the sweeps' start
    u_hist = np.zeros(lead + (6, n_nodes))
    u_hist[..., 0, :] = np.matvec(synth, a_coef)

    for m in range(1, N + 1):
        history, w_last = memory.advance(m, g_rows)
        k = (m - 1) % block
        if k == 0:
            # S(t) a on the nodes of the block the memory fetched, in place
            # of the relaxation values, which the memory does not read again
            free = np.multiply(memory.relax, a_coef, out=memory.relax)
            for smp in sampled:
                smp.block(mids[m - 1 : m - 1 + block])
        base = free[k] + history
        # the part of the step forcing that u_{m-1} fixes: F + (Q + s) u_{m-1} / 2 (F under a drift)
        fixed = no_source if src is None else src.at(k)[0]
        half_q_m, any_active = half_q.at(k)
        # in a batch without a nonlinearity, which problems Q couples at this step
        active = None
        if S > 1 and any_active and nonlinearity is None:
            active = half_q.nonzero[k]
        if any_active and half_q_m.ndim == u_prev.ndim:  # the diagonal; bands wait for the sweeps
            fixed = fixed + half_q_m * u_prev

        if not (any_active or nonlinearity is not None):
            g = np.matvec(proj, fixed)
            u_prev = np.matvec(synth, base + w_last * g)
            if not np.isfinite(u_prev).all():
                raise _non_finite_direct(batch, m, g, fixed, u_prev)
        else:
            if not any_active:  # nothing to sweep for Q
                half_q_m = None
            rows = (proj, synth, base, w_last, fixed, half_q_m, start[m] @ u_hist, u_hist[..., (m - 1) % 6, :],
                    u_prev)
            u_prev, g = _sweeps(batch, m, rows, active, nonlinearity, counts, mids[m - 1])
        u_hist[..., m % 6, :] = u_prev
        u[m] = u_prev
        if state_guard is not None:
            state_guard(u_prev, m)
        g_hist[m - 1] = g

    return u.transpose(1, 0, 2), counts.reshape(N, S).T


def _first_non_finite(batch, what, m, test, values, rows=None):
    """The SolverError of the first problem whose row of test is not
    finite, naming the first space node where its row of values is not;
    rows maps the rows to the batch's problems (default: one each)."""
    test, values = np.atleast_2d(test), np.atleast_2d(values)
    j = int(np.flatnonzero(~np.isfinite(test).all(axis=1))[0])
    s = j if rows is None else int(rows[j])
    return _non_finite(what, m, batch.problems[s].grid, values[j], batch.label(s))


def _non_finite_direct(batch, m, g, fixed, u, rows=None):
    """The SolverError of a step whose u_m, taken directly from the step
    forcing fixed and its mode coefficients g, is not finite: the step
    forcing where g is not finite, else the field."""
    if not np.isfinite(g).all():
        return _first_non_finite(batch, "step forcing", m, g, fixed)
    return _first_non_finite(batch, "field", m, u, u, rows)


def _take(rows, live):
    return tuple(None if v is None else v[live] for v in rows)


def _sweeps(batch, m, rows, active, nonlinearity, counts, mid):
    """The Picard sweeps of node m (see spectral_march), on the rows of the
    march's arrays, one per problem: projector, synthesis, base, w_last,
    fixed forcing, (Q + s) / 2 (None where Q is not swept; bands take
    u_{m-1} + u_m, see spectral_march), u on the nodes at the start and at
    node m - 1, and u_{m-1}.  Each sweep projects the fixed forcing and
    the swept one in one product.  Returns u on the nodes and the forcing's
    mode coefficients, and enters the sweep counts.  A problem leaves the
    sweeps at the sweep where it converges, moving u_m by at most
    PICARD_TOL on the nodes; where active marks some problems only, the
    others take u_m directly from the projection of their fixed forcing.
    The problems still sweeping after PICARD_MAX sweeps start once more from
    u_{m-1}, and a stall is reported only when they reach PICARD_MAX sweeps
    again."""
    S = len(batch.problems)
    # the problems still sweeping (None: all of them), and the rows of the
    # others, once there are any
    live = out_u = out_g = None
    if active is not None and not active.all():
        proj, synth, base, w_last, fixed = rows[:5]
        out_g = np.matvec(proj, fixed)
        out_u = np.matvec(synth, base + w_last * out_g)
        idle = np.flatnonzero(~active)
        if not np.isfinite(out_u[idle]).all():
            raise _non_finite_direct(batch, m, out_g, fixed, out_u[idle], idle)
        live = np.flatnonzero(active)
        rows = _take(rows, live)
    proj, synth, base, w_last, fixed, half_q_m, u_new, u_restart, u_prev = rows
    for it in range(2 * PICARD_MAX):
        if it == PICARD_MAX:  # stalled from the extrapolated start
            u_new = u_restart
        # the step forcing, fixed + swept
        if half_q_m is None:
            forcing = fixed
        elif half_q_m.ndim == u_new.ndim:
            forcing = half_q_m * u_new
            forcing += fixed
        else:  # bands: fixed holds F alone, and they take u_{m-1} and u_m at once
            forcing = band_product(half_q_m, u_prev + u_new)
            forcing += fixed
        if nonlinearity is not None:
            forcing = forcing + nonlinearity(0.5 * (u_prev + u_new), mid, np.arange(S) if live is None else live)
        g = np.matvec(proj, forcing)
        u_next = np.matvec(synth, base + w_last * g)
        change = np.abs(u_next - u_new)
        # one reduction per sweep: per problem in a batch, whose largest is the residual
        row_max = change.max(axis=-1)
        residual = float(row_max if S == 1 else row_max.max())
        if residual <= PICARD_TOL:
            if live is None:
                counts[m - 1] = it + 1
                return u_next, g
            counts[m - 1, live] = it + 1
            out_u[live], out_g[live] = u_next, g
            return out_u, out_g
        if not math.isfinite(residual):
            raise _first_non_finite(batch, "step forcing", m, change, forcing, live)
        u_new = u_next
        if S == 1:
            continue
        done = row_max <= PICARD_TOL
        if done.any():
            # the converged problems keep this iterate and leave the sweeps
            if live is None:
                live = np.arange(S)
                out_u, out_g = np.empty_like(u_next), np.empty_like(g)
            counts[m - 1, live[done]] = it + 1
            out_u[live[done]], out_g[live[done]] = u_next[done], g[done]
            keep = ~done
            live = live[keep]
            proj, synth, base, w_last, fixed, half_q_m, u_restart, u_prev, u_new, row_max = _take(
                (proj, synth, base, w_last, fixed, half_q_m, u_restart, u_prev, u_new, row_max), keep)
    # the first problem still sweeping
    residual = float(np.atleast_1d(row_max)[0])
    raise SolverError(
        f"Picard iteration stalled at node {m} (residual {residual:.3e}); "
        "refine the time grid or reduce the coefficients",
        node=m,
        residual=residual,
        problem=batch.label(0 if live is None else int(live[0])),
    )


def _march_fields(batch: Batch, eigs) -> list:
    """The fields of a batch's problems from one march; eigs holds each
    problem's eigendecomposition or None."""
    ops = [assemble(p.elliptic, p.grid) for p in batch.problems]
    eigs = [eigendecompose(op) if e is None else e for e, op in zip(eigs, ops)]
    u, _ = spectral_march(batch, ModeStack(eigs, ops))
    return [Field(p.grid, p.tgrid, v) for p, v in zip(batch.problems, u)]


def solve_linear_spectral(
    p: ProblemSpec,
    eig: Optional[EigenDecomposition] = None,
) -> Field:
    """March the fixed-point representation; eig, T0's eigendecomposition,
    is computed where it is not given.  With no drift and a constant
    c <= -_shift_floor Q + s is 0, and the result is the eigen-expansion
    of A = T0 - c without iteration."""
    return _march_fields(Batch((p,)), [eig])[0]


def solve_linear_spectral_many(problems) -> list:
    """solve_linear_spectral for each of the problems, in their order.  The
    problems that share alpha, the time nodes and the number of space nodes
    are marched together, in batches of up to _BATCH_MODES modes (see
    spectral_march), which costs much less than one march each when the
    marches are short: a march's numpy overhead is paid once per batch,
    and a batch's memory is about 5 KB per mode at n = 20, N = 64.  A
    SolverError names the problem's index in this list when it holds
    several."""
    problems = list(problems)
    fields = [None] * len(problems)
    for index, batch in _batches(problems):
        for i, f in zip(index, _march_fields(batch, [None] * len(index))):
            fields[i] = f
    return fields


def solve_linear_l1(p: ProblemSpec) -> Field:
    """Implicit L1 stepping of the full operator; the cross-validation oracle."""
    return _l1_march(p, _L1Steps(p, keep=False))


class _L1Steps:
    """The implicit L1 steps of one problem's operator A on its time grid:
    for m = 1..N the weight row w = caputo_l1_weights(t[:m+1], alpha) and the
    LU factors of w[-1] I + A(t_m) (elliptic.banded_lu), or None where that
    band array is not finite.

    A node's entry is built the first time a march reaches it: the weight
    row, drawn lazily from fracops.l1_weight_rows, the bands, their
    finiteness check, then the factorization.  With keep, the entries stay
    for the table's lifetime, so that the
    sweeps of a chain, which share one frozen operator and one grid, factor
    each node once; without, it keeps none, and a one-off march asks for
    the nodes 1..N once each, in order."""

    def __init__(self, p: ProblemSpec, keep=True):
        self.op = assemble(p.elliptic, p.grid)
        self._t = p.tgrid.nodes
        self._rows = l1_weight_rows(self._t, p.alpha)
        self._keep = keep
        self._kept = []

    def at(self, m):
        """Node m's (w, factors); without keep, m must run 1..N in order."""
        if m <= len(self._kept):
            return self._kept[m - 1]
        w = next(self._rows)
        ab = self.op.bands(self._t[m], shift=w[-1])
        entry = (w, banded_lu(ab) if np.isfinite(ab).all() else None)
        if self._keep:
            self._kept.append(entry)
        return entry


def _singular(op, t, w, m):
    """SolverError for an implicit step whose w I + A(t) has a zero pivot,
    with the step's shift w against the largest diagonal entry of A."""
    diag = float(np.max(np.abs(op.bands(t)[1])))
    why = (f"its shift w = {w:.3g} is below the rounding of A's largest diagonal entry {diag:.3g}"
           if w <= np.finfo(float).eps * diag else
           f"shift w = {w:.3g}, A's largest diagonal entry {diag:.3g}")
    return SolverError(f"implicit step {m} is singular: {why}", node=m)


@np.errstate(over="ignore", invalid="ignore")  # the non-finite checks below report
def _l1_march(p: ProblemSpec, steps: _L1Steps, forcing=None) -> Field:
    """The implicit L1 march of p on steps, the weight rows and factors of
    p's operator, with forcing, one row per time node, added to p's source:
    a chain of solves that differ only in their forcing shares one table."""
    op = steps.op
    t = p.tgrid.nodes
    N = t.size - 1
    n_nodes = p.grid.n_nodes
    a = p.initial_values()
    u = np.empty((N + 1, n_nodes))
    u[0] = a
    du = np.empty((N, n_nodes))
    for m in range(1, N + 1):
        f = p.source_at(t[m])
        if forcing is not None:
            f = forcing[m] + (0.0 if f is None else f)
        w, factors = steps.at(m)
        rhs = w[-1] * u[m - 1]
        if m > 1:
            rhs = rhs - w[: m - 1] @ du[: m - 1]
        if f is not None:
            rhs = rhs + f
        if factors is None or not np.isfinite(rhs).all():
            ones_row = op.apply_full(np.ones(n_nodes), t[m])  # row sums locate the bad node
            raise _non_finite("operator or right-hand side", m, p.grid, ones_row + rhs)
        if factors[2] > 0:
            raise _singular(op, t[m], w[-1], m)
        u[m] = banded_lu_solve(factors, rhs)
        if not np.isfinite(u[m]).all():
            raise SolverError(f"implicit step {m} produced non-finite values", node=m)
        du[m - 1] = u[m] - u[m - 1]
    return Field(p.grid, p.tgrid, u)
