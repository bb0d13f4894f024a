"""Verification harness: positivity and ordering of solutions, coefficient
comparison, the explicit lower bound for nonnegative sources, linear and
semilinear monotone iterations between upper/lower solutions, discrete
barrier residuals, and long-time decay fitting against the ground mode.

Continuum inequalities hold discretely only up to discretisation error, so
every check carries a tolerance C_pos (h^2 + tau^min(1, 2-alpha)) scaled by
the data magnitude.  Each check returns one CheckResult: its name, the worst
violation, the tolerance and whether the one is within the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import gamma

from .elliptic import EigenDecomposition, assemble, principal_eigenpair
from .evolve_linear import Field, ProblemSpec, SolverError, _L1Steps, _l1_march, solve_linear_spectral
from .evolve_semilinear import SemilinearTerm, solve_semilinear
from .fracops import TimeGrid, TimeSeries, caputo_l1_field
from .special_ml import relaxation_batch

__all__ = [
    "CheckResult",
    "BarrierPair",
    "HypothesisViolation",
    "default_tolerance",
    "check_positivity",
    "check_ordering",
    "example1_lower_bound",
    "comparison_pair",
    "coefficient_comparison",
    "linear_monotone_sequence",
    "monotone_iteration",
    "MonotoneIterationResult",
    "verify_barrier",
    "barrier_bounds_e3",
    "BarrierBandE3",
    "barrier_bounds_e4",
    "BarrierBandE4",
    "asymptotic_decay_check",
    "DecayReport",
]


class HypothesisViolation(ValueError):
    """The requested check's hypotheses fail on the supplied data."""


@dataclass(frozen=True)
class CheckResult:
    """One PASS/FAIL row: the property holds when its worst violation is
    within the tolerance."""

    name: str
    holds: bool
    worst: float
    tolerance: float

    @classmethod
    def of(cls, name, worst, tol):
        return cls(name, bool(worst <= tol), float(worst), float(tol))

    def line(self):
        verdict = "PASS" if self.holds else "FAIL"
        return f"{verdict} {self.name} {self.worst:.3e} {self.tolerance:.3e}"


@dataclass(frozen=True)
class BarrierPair:
    lower: Field
    upper: Field

    def __post_init__(self):
        if self.lower.values.shape != self.upper.values.shape:
            raise ValueError("barrier fields must share grids")
        if np.min(self.upper.values - self.lower.values) < -1e-12:
            raise ValueError("lower barrier exceeds upper barrier somewhere")


def default_tolerance(grid, tgrid, alpha, scale=1.0):
    """C_pos (h^2 + tau^min(1, 2-alpha)) * scale with C_pos = 10: the
    discretisation budget every continuum inequality is checked against."""
    tau = tgrid.max_step()
    return 10.0 * (grid.h ** 2 + tau ** min(1.0, 2.0 - alpha)) * max(scale, 1e-30)


def _worst(*violations):
    """The largest entry of the violation arrays, or 0 when none is positive."""
    return max([float(np.max(v)) for v in violations] + [0.0])


def check_positivity(u: Field, alpha) -> CheckResult:
    """Nonnegativity of a solution evolved from a >= 0, F >= 0 (the caller
    certifies the hypotheses)."""
    tol = default_tolerance(u.grid, u.tgrid, alpha, float(np.max(np.abs(u.values))))
    return CheckResult.of("positivity", _worst(-u.values), tol)


def check_ordering(u_hi: Field, u_lo: Field, alpha, name="ordering") -> CheckResult:
    """u_hi >= u_lo nodewise up to tolerance."""
    if u_hi.values.shape != u_lo.values.shape:
        raise ValueError("fields must share grids")
    scale = float(max(np.max(np.abs(u_hi.values)), np.max(np.abs(u_lo.values))))
    tol = default_tolerance(u_hi.grid, u_hi.tgrid, alpha, scale)
    return CheckResult.of(name, _worst(u_lo.values - u_hi.values), tol)


def example1_lower_bound(alpha, beta, delta, tgrid: TimeGrid) -> TimeSeries:
    """The explicit curve delta Gamma(beta+1)/Gamma(alpha+beta+1) t^(alpha+beta)
    that bounds solutions with zero initial value and source >= delta t^beta
    from below (zeroth-order-free operator)."""
    if beta < 0.0 or delta < 0.0:
        raise ValueError("need beta >= 0 and delta >= 0")
    coef = delta * gamma(beta + 1.0) / gamma(alpha + beta + 1.0)
    return TimeSeries(tgrid, coef * tgrid.nodes ** (alpha + beta))


def _require_signed(arr, sign, what):
    arr = np.asarray(arr)
    if sign > 0 and np.min(arr) < -1e-13:
        raise HypothesisViolation(f"{what} must be nonnegative")
    if sign < 0 and np.max(arr) >= 0.0:
        raise HypothesisViolation(f"{what} must be strictly negative")


def _require_nonnegative_data(p: ProblemSpec):
    """The initial value of p, after checking it and the source on every
    time node for a >= 0 and F >= 0."""
    a0 = p.initial_values()
    _require_signed(a0, +1, "initial value")
    _require_signed(_on_time_nodes(p, "source", 0.0), +1, "source")
    return a0


def _on_time_nodes(p: ProblemSpec, key, absent=None):
    """Coefficient key of p on every time node, one row per node or one row
    for all (see elliptic.Coefficient.values), or absent where it is."""
    v = p.coefficients[key].values(p.grid.nodes, p.tgrid.nodes)
    return absent if v is None else v


def comparison_pair(
    base: ProblemSpec,
    which: str = "c",
    c1=None,
    c2=None,
    sigma1=None,
    sigma2=None,
):
    """The two problems of coefficient_comparison, the one whose solution
    is the larger first, and the name of its ordering check; raises
    HypothesisViolation where the comparison's hypotheses fail.

    which = "c": c1 >= c2 pointwise gives u(c1) >= u(c2).
    which = "sigma": needs c < 0 everywhere and sigma2 >= sigma1 >= sigma0 > 0;
    then u(sigma1) >= u(sigma2).  Requests with c >= 0 somewhere are refused
    (the unshifted Robin comparison is an open conjecture)."""
    _require_nonnegative_data(base)

    if which == "c":
        p1, p2 = _with_c(base, c1), _with_c(base, c2)
        if np.min(_on_time_nodes(p1, "c", 0.0) - _on_time_nodes(p2, "c", 0.0)) < -1e-13:
            raise HypothesisViolation("need c1 >= c2 everywhere")
        name = "coefficient comparison (c1 >= c2)"
    elif which == "sigma":
        c = _on_time_nodes(base, "c")
        if c is None:
            raise HypothesisViolation("sigma comparison needs c < 0; got c = 0")
        _require_signed(c, -1, "zeroth-order coefficient c")
        if not (sigma2 >= sigma1 > 0.0):
            raise HypothesisViolation("need sigma2 >= sigma1 >= sigma0 > 0")
        p1 = replace(base, elliptic=replace(base.elliptic, sigma_lo=sigma1, sigma_hi=sigma1))
        p2 = replace(base, elliptic=replace(base.elliptic, sigma_lo=sigma2, sigma_hi=sigma2))
        name = "boundary comparison (sigma1 <= sigma2)"
    else:
        raise ValueError("which must be 'c' or 'sigma'")
    return p1, p2, name


def coefficient_comparison(
    base: ProblemSpec,
    which: str = "c",
    c1=None,
    c2=None,
    sigma1=None,
    sigma2=None,
):
    """Solve the problem twice with ordered coefficients (see
    comparison_pair) and report ordering."""
    p1, p2, name = comparison_pair(base, which, c1, c2, sigma1, sigma2)
    u1 = solve_linear_spectral(p1)
    u2 = solve_linear_spectral(p2)
    return u1, u2, check_ordering(u1, u2, base.alpha, name=name)


def _with_c(p: ProblemSpec, c) -> ProblemSpec:
    return replace(p, elliptic=replace(p.elliptic, c=c))


def linear_monotone_sequence(p: ProblemSpec, b0_const, n_max):
    """The inductive linearisation: freeze the zeroth-order feedback at the
    previous iterate, keep A1 (the spec with c = -b0) on the left.

    u_1 = a; each successor solves
    d_t^alpha (u_{j+1} - a) + A1 u_{j+1} = (b0 + c) u_j + F with
    A1 = -(a u')' - b u' + b0 u.  All iterates stay nonnegative and converge
    geometrically to the direct solution."""
    a0 = _require_nonnegative_data(p)
    c_vals = _on_time_nodes(p, "c", 0.0)
    c_max = float(np.max(np.abs(c_vals)))
    if b0_const < c_max:
        raise HypothesisViolation(f"b0 = {b0_const} below ||c||_inf = {c_max}")

    iterates = [Field(p.grid, p.tgrid, np.tile(a0, (p.tgrid.nodes.size, 1)))]
    steps = _L1Steps(_with_c(p, -float(b0_const)))  # every sweep solves with this operator
    gain = b0_const + c_vals
    for _ in range(n_max - 1):
        nxt = _l1_march(p, steps, gain * iterates[-1].values)
        iterates.append(nxt)
        if not np.all(np.isfinite(nxt.values)):
            raise RuntimeError("monotone sequence diverged; b0 too small or grid too coarse")
    return iterates


@dataclass(frozen=True)
class MonotoneIterationResult:
    from_lower: Sequence[Field]
    from_upper: Sequence[Field]
    sandwich: CheckResult
    solution: Field


def _shifted(p: ProblemSpec, M) -> ProblemSpec:
    """p with A + (M+1) I in place of A: c - (M+1) in place of c."""
    shift = M + 1.0
    c = p.elliptic.c
    if callable(c):
        return _with_c(p, lambda x, t: c(x, t) - shift)
    return _with_c(p, -shift if c is None else float(c) - shift)


def _l_map(p: ProblemSpec, f: SemilinearTerm, M, u_field: Field, steps: _L1Steps) -> Field:
    """One sweep of the shifted linearisation: solve
    d_t^alpha (v - a) + A v + (M+1) v = (M+1) u + f(u)
    on steps, the table of _shifted(p, M) that a chain's sweeps share."""
    u = u_field.values
    return _l1_march(p, steps, (M + 1.0) * u + f(p.grid.nodes, u))


def monotone_iteration(
    p: ProblemSpec,
    f: SemilinearTerm,
    barriers: BarrierPair,
    M=None,
    k_max=30,
) -> MonotoneIterationResult:
    """Iterate the shifted linearisation upward from the lower barrier and
    downward from the upper one until a sweep moves less than 1e-8; both
    chains converge to the solution, which the final report sandwiches
    between the original barriers."""
    if f.depends_on_gradient:
        raise HypothesisViolation("comparison machinery needs f independent of u_x")
    M = f.bound_M if M is None else float(M)
    if M < f.bound_M:
        raise HypothesisViolation("M must dominate the C1 bound of f")
    scale = float(np.max(np.abs(barriers.upper.values)) + np.max(np.abs(barriers.lower.values)))
    tol = default_tolerance(p.grid, p.tgrid, p.alpha, scale)

    lo_seq = [barriers.lower]
    hi_seq = [barriers.upper]
    steps = _L1Steps(_shifted(p, M))  # both chains solve with one operator on p's grid
    for seq, sgn, label in ((lo_seq, 1.0, "lower"), (hi_seq, -1.0, "upper")):
        moved = math.inf
        for _ in range(k_max):
            nxt = _l_map(p, f, M, seq[-1], steps)
            if np.min(sgn * (nxt.values - seq[-1].values)) < -tol:
                raise RuntimeError(f"{label} chain lost monotonicity beyond tolerance")
            moved = float(np.max(np.abs(nxt.values - seq[-1].values)))
            seq.append(nxt)
            if moved <= 1e-8:
                break
        else:
            raise SolverError(
                f"{label} chain did not settle within {k_max} sweeps (last move {moved:.2e})"
            )

    u = solve_semilinear(p, f)
    worst = _worst(barriers.lower.values - u.values, u.values - barriers.upper.values)
    sandwich = CheckResult.of("barrier sandwich", worst, tol)
    return MonotoneIterationResult(lo_seq, hi_seq, sandwich, u)


def verify_barrier(candidate: Field, kind: str, p: ProblemSpec, f=None) -> CheckResult:
    """Discrete residual check of the barrier inequalities: the L1 Caputo
    derivative of (candidate - its initial row) plus the assembled operator
    minus the nonlinearity must be >= -tol (upper) or <= tol (lower), with the
    Robin closure satisfied and the initial row ordered against p's data."""
    if kind not in ("upper", "lower"):
        raise ValueError("kind must be 'upper' or 'lower'")
    if f is not None and f.depends_on_gradient:
        raise HypothesisViolation("barrier residuals need f independent of u_x")
    op = assemble(p.elliptic, p.grid)
    x = p.grid.nodes
    tn = p.tgrid.nodes
    v = candidate.values
    tol = default_tolerance(p.grid, p.tgrid, p.alpha, float(np.max(np.abs(v)) + 1.0))

    # every time node after t = 0 at once: b, c and the source are sampled
    # once for the column of times
    cap = caputo_l1_field(p.tgrid, v, p.alpha)[1:]
    vk, tk = v[1:], tn[1:]
    rhs = np.zeros_like(vk)
    if f is not None:
        rhs = rhs + f(x, vk)
    src = p.source_at(tk)
    if src is not None:
        rhs = rhs + src
    resid = cap + op.apply_full(vk, tk) - rhs

    sign = 1.0 if kind == "upper" else -1.0
    eq_viol = np.maximum(-sign * resid, 0.0)
    init_viol = sign * (p.initial_values() - v[0])
    bc_viol = np.abs(op.robin_residual(vk))
    return CheckResult.of(f"{kind} solution residual", _worst(eq_viol, init_viol, bc_viol), tol)


@dataclass(frozen=True)
class BarrierBandE3:
    rho: float
    report: CheckResult
    solution: Field


def barrier_bounds_e3(p: ProblemSpec, f: Optional[SemilinearTerm] = None) -> BarrierBandE3:
    """Two-sided band from the explicit saturating-sink barriers: zero below,
    a(x) + rho t^alpha above, with rho = max(Delta_h a)/Gamma(alpha+1).

    The inequality chain needs a >= 0 with zero conormal data and no lower
    order terms (pure Neumann flux form); constant a degenerates to rho ~ 0
    and the upper check collapses to u <= a."""
    from .evolve_semilinear import builtin_enzyme

    f = builtin_enzyme() if f is None else f
    spec = p.elliptic
    if spec.sigma_lo != 0.0 or spec.sigma_hi != 0.0:
        raise HypothesisViolation("the explicit band needs Neumann data (sigma = 0)")
    if spec.b is not None or spec.c is not None:
        raise HypothesisViolation("the explicit band needs A = -(a u')' only")
    op = assemble(spec, p.grid)
    a0 = p.initial_values()
    _require_signed(a0, +1, "initial value")
    lo_res, hi_res = op.robin_residual(a0)
    flux_tol = 10.0 * p.grid.h ** 2 * (1.0 + float(np.max(np.abs(a0))))
    if max(abs(lo_res), abs(hi_res)) > flux_tol:
        raise HypothesisViolation("initial value must satisfy the zero-flux condition")

    lap_a = -op.apply_full(a0, 0.0)
    rho = float(np.max(lap_a)) / gamma(p.alpha + 1.0)
    if rho <= 0.0:
        rho = 1e-12  # degenerate flat band
    u = solve_semilinear(p, f)
    tol = default_tolerance(p.grid, p.tgrid, p.alpha, float(np.max(np.abs(u.values)) + 1.0))
    band_hi = a0[None, :] + rho * p.tgrid.nodes[:, None] ** p.alpha
    report = CheckResult.of("saturating-sink band 0 <= u <= a + rho t^alpha",
                            _worst(np.maximum(-u.values, u.values - band_hi)), tol)
    return BarrierBandE3(rho=rho, report=report, solution=u)


@dataclass(frozen=True)
class BarrierBandE4:
    T1: float
    T2: float
    lower_coeff: float
    report: CheckResult
    solution: Field


def barrier_bounds_e4(p: ProblemSpec, f: SemilinearTerm, epsilon, delta1) -> BarrierBandE4:
    """Barriers for an increasing nonlinearity: upper a + t^(alpha-eps) on a
    window (0, T1) found by bisection, lower a - coeff t^alpha on (0, T2) with
    coeff = (M2 - f(delta1/2))/Gamma(alpha+1), M2 = max(-Delta_h a)."""
    if not (0.0 < epsilon < p.alpha):
        raise HypothesisViolation("need 0 < epsilon < alpha")
    spec = p.elliptic
    if spec.sigma_lo != 0.0 or spec.sigma_hi != 0.0 or spec.b is not None or spec.c is not None:
        raise HypothesisViolation("the explicit band needs the Neumann flux form")
    op = assemble(spec, p.grid)
    a0 = p.initial_values()
    if float(np.min(a0)) < delta1:
        raise HypothesisViolation("need a >= delta1 > 0 for the lower barrier")
    x = p.grid.nodes

    lap_a = -op.apply_full(a0, 0.0)
    lap_max = float(np.max(lap_a))
    m1 = float(np.max(a0))
    g_ratio = gamma(p.alpha - epsilon + 1.0) / gamma(1.0 - epsilon)

    def upper_margin(T):
        # Gamma(alpha-eps+1)/Gamma(1-eps) T^-eps >= f(T^(alpha-eps) + m1) + max Delta a
        fval = float(np.max(f(x, np.full_like(x, T ** (p.alpha - epsilon) + m1))))
        return g_ratio * T ** (-epsilon) - fval - lap_max

    lo, hi = 1e-12, 1e6
    if upper_margin(lo) < 0.0:
        raise HypothesisViolation("no admissible upper window: f grows too fast near the box edge")
    if upper_margin(hi) > 0.0:
        T1 = hi
    else:
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if upper_margin(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        T1 = lo

    m2 = float(np.max(-lap_a))
    f_half = float(np.min(f(x, np.full_like(x, delta1 / 2.0))))
    lower_coeff = (m2 - f_half) / gamma(p.alpha + 1.0)
    # the window keeps the lower barrier above delta1/2; it only binds when
    # the barrier actually decreases
    if lower_coeff > 0.0:
        T2 = (delta1 / (2.0 * lower_coeff)) ** (1.0 / p.alpha)
    else:
        T2 = math.inf

    u = solve_semilinear(p, f)
    tol = default_tolerance(p.grid, p.tgrid, p.alpha, float(np.max(np.abs(u.values)) + 1.0))
    tn = p.tgrid.nodes
    up_win = tn <= T1
    lo_win = tn <= T2
    viol_hi = u.values[up_win] - (a0[None, :] + tn[up_win, None] ** (p.alpha - epsilon))
    viol_lo = (a0[None, :] - lower_coeff * tn[lo_win, None] ** p.alpha) - u.values[lo_win]
    report = CheckResult.of("increasing-term band on (0,T1) x (0,T2)",
                            _worst(viol_hi, viol_lo), tol)
    return BarrierBandE4(T1=float(T1), T2=float(T2), lower_coeff=float(lower_coeff),
                         report=report, solution=u)


@dataclass(frozen=True)
class DecayReport:
    fitted_C: float
    fitted_C_tail: float
    holds: bool


def asymptotic_decay_check(u: Field, u_inf, eig: EigenDecomposition, alpha) -> DecayReport:
    """Fit |u - u_inf| <= C E_{alpha,1}(-lambda_1 t^alpha) phi_1, with
    (lambda_1, phi_1) the principal pair of eig, which holds A's eigenpairs
    (for a constant c, T0's from elliptic.eigendecompose shifted by -c), and
    call the decay confirmed when the fitted constant is finite and stable
    (within 10%) when refitted on the last half of the window.  Early
    transients carry higher modes, so the first quarter is discarded."""
    lam1, phi1 = principal_eigenpair(eig)
    if float(np.min(np.abs(phi1))) < 1e-12:
        raise RuntimeError("ground mode vanishes on the grid: discretisation fault")
    ui = np.asarray(u_inf, dtype=float)
    tn = u.tgrid.nodes
    T = tn[-1]
    dev = np.abs(u.values - ui[None, :])
    env = relaxation_batch(alpha, lam1 * tn ** alpha)[:, None] * phi1[None, :]

    def fit(mask):
        if not mask.any():
            return math.inf
        return float(np.max(dev[mask] / env[mask]))

    c_main = fit(tn >= 0.25 * T)
    c_tail = fit(tn >= 0.5 * T)
    holds = bool(np.isfinite(c_main) and np.isfinite(c_tail)
                 and abs(c_tail - c_main) <= 0.10 * max(c_main, 1e-300))
    return DecayReport(fitted_C=c_main, fitted_C_tail=c_tail, holds=holds)
