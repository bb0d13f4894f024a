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

Both keep the entire memory: there is no semigroup restart in fractional time.
The spectral route carries it compressed, as one running sum per mode and
exponential (see _Memory), at O(modes x exponentials) per step; the L1 route
sums every past step exactly.
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
    assemble,
    banded_solve,
    eigendecompose,
)
from .fracops import TimeGrid, caputo_l1_weights
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
        """Source values on the nodes at time t; array sources are stored on
        the time nodes and interpolated linearly between them."""
        if self.source is None:
            return None
        if callable(self.source):
            x = self.grid.nodes
            return np.asarray(self.source(x, t), dtype=float) * np.ones_like(x)
        arr = np.asarray(self.source, dtype=float)
        tn = self.tgrid.nodes
        if node_index is not None:
            return arr[node_index]
        j = int(np.searchsorted(tn, t, side="right") - 1)
        j = min(max(j, 0), tn.size - 2)
        th = (t - tn[j]) / (tn[j + 1] - tn[j])
        return (1.0 - th) * arr[j] + th * arr[j + 1]


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


def _kernel_masses(alpha, lambdas, dt_pow, extra=None):
    """Per-mode integrals of the Duhamel kernel over consecutive windows.

    dt_pow holds (t_eval - t_j)^alpha for the window nodes t_j (descending in
    value); returns the matrix of int_{t_k}^{t_{k+1}} K ds >= 0, one row per
    mode, via differences of the relaxation profile.  The lambda = 0 rows use
    the dedicated closed form (power differences over Gamma(alpha + 1)).
    With `extra`, E_{alpha,1}(-extra) is evaluated in the same
    relaxation_batch call and returned after the masses."""
    lam = np.asarray(lambdas, dtype=float)
    masses = np.zeros((lam.size, dt_pow.size - 1))
    # difference quotients of the relaxation profile cancel catastrophically
    # when lam t^alpha is tiny (and the discrete Neumann ground eigenvalue is
    # only zero to rounding); switch to the expansion in lam there
    small = lam * dt_pow[0] <= 1e-8
    lp = lam[~small]
    x = lp[:, None] * dt_pow[None, :]
    head = np.empty(0) if extra is None else extra
    e = head
    if x.size or head.size:
        e = relaxation_batch(alpha, np.concatenate([head, x.ravel()]))
        masses[~small] = np.diff(e[head.size:].reshape(x.shape), axis=1) / lp[:, None]
    if small.any():
        g1 = np.exp(-gammaln(alpha + 1.0))
        g2 = np.exp(-gammaln(2.0 * alpha + 1.0))
        d1 = -np.diff(dt_pow)
        d2 = -np.diff(dt_pow * dt_pow)
        masses[small] = g1 * d1[None, :] - lam[small, None] * (g2 * d2[None, :])
    masses = np.maximum(masses, 0.0)
    return masses if extra is None else (masses, e[: head.size])


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


def _q_samples(op: DiscreteOperator, tgrid):
    """Midpoint samples of the splitting coefficients for every step."""
    mids = 0.5 * (tgrid.nodes[:-1] + tgrid.nodes[1:])
    return mids, [op.q_parts(tm) for tm in mids]


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
    Exact masses (_kernel_masses) remain for
    * the current window, whose mass the Picard sweeps need;
    * windows younger than sigma_lo / lam^(1/alpha), below the rule's range;
      they join the sum when they are old enough;
    * modes with lam t_m^alpha <= 1e-8, whose masses are power differences.
    Every choice at node m depends on t[0..m], lam and alpha only, so a solve
    on a restricted grid reproduces the longer solve exactly."""

    def __init__(self, alpha, lambdas, t):
        self.alpha = alpha
        self.lam = np.asarray(lambdas, dtype=float)
        self.t = t
        try:
            soe = relaxation_exponentials(alpha)
        except RuntimeError as exc:  # the relaxation table of alpha did not build
            raise SolverError(str(exc)) from exc
        self.weight = soe.weight
        with np.errstate(divide="ignore", over="ignore"):
            # lam <= 0 gets rate 0 and tau inf; such modes stay on the small branch
            ln_root = np.log(np.maximum(self.lam, 0.0)) / alpha  # ln lam^(1/alpha)
            self.rates = np.exp(ln_root[:, None] + soe.log_rho[None, :])
            self.tau = soe.sigma_lo * np.exp(-ln_root)
        self.sums = np.zeros(self.rates.shape)  # S_j at the previous node
        self.folded = np.zeros(self.lam.size, dtype=int)  # windows k < folded are in sums
        self.decay_m1 = np.zeros(self.rates.shape)  # exp(-r dt) - 1 of the last step

    def advance(self, m, g_hist):
        """Move to node m; returns E(-lam t_m^alpha) per mode, the history
        term and the current window's masses.  g_hist[k] holds the mode
        coefficients of the forcing on window k (k <= m - 2 are read)."""
        t, lam, alpha = self.t, self.lam, self.alpha
        t_pow = (t[m] - t[0]) ** alpha
        small = lam * t_pow <= 1e-8
        big = ~small
        # windows k with age t_m - t_{k+1} >= tau fold into the sums
        fold_to = np.where(big, np.searchsorted(t[1:m], t[m] - self.tau, side="right"), 0)
        grow = fold_to > self.folded
        with np.errstate(over="ignore"):
            if grow.any():
                for k in range(int(self.folded[grow].min()), int(fold_to.max())):
                    sel = grow & (self.folded <= k) & (k < fold_to)
                    if k == m - 2:  # the window the last step left behind
                        self.sums -= self.decay_m1 * (g_hist[k] * sel)[:, None]
                    else:  # windows that just came of age: their terms at t_{m-1}
                        r = self.rates[sel]
                        w = np.exp(-r * (t[m - 1] - t[k + 1])) * -np.expm1(-r * (t[k + 1] - t[k]))
                        self.sums[sel] += w * g_hist[k, sel, None]
                self.folded[grow] = fold_to[grow]
            decay_m1 = np.multiply(self.rates, -(t[m] - t[m - 1]))
        np.expm1(decay_m1, out=decay_m1)
        self.sums *= 1.0 + decay_m1
        self.decay_m1 = decay_m1

        history = np.zeros(lam.size)
        w_last = np.empty(lam.size)
        history[big] = (self.sums @ self.weight)[big] / lam[big]
        # modes whose whole history is in the sums need only the current
        # window, evaluated with E(-lam t_m^alpha) of every mode in one call
        rest = fold_to < m - 1
        masses, relax = _kernel_masses(alpha, lam[~rest], (t[m] - t[m - 1 : m + 1]) ** alpha,
                                       extra=np.maximum(lam, 0.0) * t_pow)
        w_last[~rest] = masses[:, 0]
        if rest.any():  # small modes, and young windows k >= fold_to of the others
            q = int(fold_to[rest].min())
            masses = _kernel_masses(alpha, lam[rest], (t[m] - t[q : m + 1]) ** alpha)
            young = np.arange(q, m - 1)[None, :] >= fold_to[rest, None]
            history[rest] += (masses[:, :-1] * young * g_hist[q : m - 1, rest].T).sum(axis=1)
            w_last[rest] = masses[:, -1]
        return relax, history, w_last


def spectral_march(
    p: ProblemSpec,
    eig: EigenDecomposition,
    op: DiscreteOperator,
    nonlinearity=None,
    picard_tol=1e-10,
    state_guard=None,
):
    """Shared marching loop of the fixed-point solvers.

    nonlinearity(u_nodal, t) -> nodal values is added to the step forcing with
    the same endpoint-average state treatment as Q u.  state_guard(u, k) may
    raise to abort (box monitoring).  Returns (field values, picard counts)."""
    t = p.tgrid.nodes
    alpha = p.alpha
    n_nodes = p.grid.n_nodes
    N = t.size - 1
    a = p.initial_values()
    a_coef = eig.project(a)
    mids, qc = _q_samples(op, p.tgrid)
    q_active = any(
        (b is not None and np.max(np.abs(b)) > 0.0) or np.max(np.abs(cz)) > 0.0
        for b, cz in qc
    )
    f_mid = []
    for k, tm in enumerate(mids):
        if p.source is None:
            f_mid.append(None)
        elif callable(p.source):
            f_mid.append(p.source_at(tm))
        else:
            arr = np.asarray(p.source, dtype=float)
            f_mid.append(0.5 * (arr[k] + arr[k + 1]))

    u = np.empty((N + 1, n_nodes))
    u[0] = a
    # mode coefficients of the frozen step forcings (F + Qu [+ f(u)])
    g_hist = np.zeros((N, eig.lambdas.size))
    counts = np.zeros(N, dtype=int)

    memory = _Memory(alpha, eig.lambdas, t)

    for m in range(1, N + 1):
        relax, history, w_last = memory.advance(m, g_hist)
        base = a_coef * relax + history
        f_k = f_mid[m - 1]

        def step_forcing(u_rep):
            g = np.zeros(n_nodes)
            if f_k is not None:
                g = g + f_k
            if q_active:
                g = g + op.apply_q(u_rep, qc[m - 1])
            if nonlinearity is not None:
                g = g + nonlinearity(u_rep, mids[m - 1])
            return g

        needs_iteration = q_active or (nonlinearity is not None)
        if not needs_iteration:
            g_coef = eig.project(f_k) if f_k is not None else np.zeros_like(base)
            u_new = eig.synthesize(base + w_last * g_coef)
            if not np.all(np.isfinite(u_new)):
                raise _non_finite("source or initial value", m, p.grid, a if f_k is None else a + f_k)
            counts[m - 1] = 0
        else:
            u_new = u[m - 1].copy()  # warm start
            converged = False
            residual = np.inf
            for it in range(PICARD_MAX):
                u_rep = 0.5 * (u[m - 1] + u_new)
                g_coef = eig.project(step_forcing(u_rep))
                u_next = eig.synthesize(base + w_last * g_coef)
                residual = float(np.max(np.abs(u_next - u_new)))
                if not math.isfinite(residual):
                    raise _non_finite("step forcing", m, p.grid, step_forcing(u_rep))
                u_new = u_next
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
        u[m] = u_new
        if state_guard is not None:
            state_guard(u_new, m)
        u_rep = 0.5 * (u[m - 1] + u[m])
        g_hist[m - 1] = eig.project(step_forcing(u_rep))

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
    op = assemble(p.elliptic, p.grid)
    t = p.tgrid.nodes
    N = t.size - 1
    n_nodes = p.grid.n_nodes
    a = p.initial_values()
    u = np.empty((N + 1, n_nodes))
    u[0] = a
    du = np.empty((N, n_nodes))
    for m in range(1, N + 1):
        w = caputo_l1_weights(t[: m + 1], p.alpha)
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
