"""Verification harness: positivity and ordering of solutions, coefficient
comparison, the explicit lower bound for nonnegative sources, linear and
semilinear monotone iterations between upper/lower solutions, discrete
barrier residuals, and long-time decay fitting against the ground mode.

Continuum inequalities hold discretely only up to discretisation error, so
every check carries a tolerance C_pos (h^2 + tau^min(1, 2-alpha)) scaled by
the data magnitude; reports state the worst violation and where it happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import gamma

from .elliptic import (
    EigenDecomposition,
    EllipticSpec,
    SpaceField,
    assemble,
    eigendecompose,
    principal_eigenpair,
)
from .evolve_linear import Field, ProblemSpec, solve_linear_l1, solve_linear_spectral
from .evolve_semilinear import SemilinearTerm, solve_semilinear
from .fracops import TimeGrid, TimeSeries, caputo_l1_field
from .special_ml import relaxation_batch

__all__ = [
    "ComparisonReport",
    "BarrierPair",
    "HypothesisViolation",
    "default_tolerance",
    "check_positivity",
    "check_ordering",
    "example1_lower_bound",
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
class ComparisonReport:
    property_name: str
    holds: bool
    worst_violation: float
    location: tuple  # (space node index, time node index)
    tolerance_used: float

    def __str__(self):
        verdict = "PASS" if self.holds else "FAIL"
        return (
            f"{verdict} {self.property_name} "
            f"worst={self.worst_violation:.3e} tol={self.tolerance_used:.3e}"
        )


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


def _report(name, violation_field, tol):
    worst = float(np.max(violation_field))
    k, i = np.unravel_index(int(np.argmax(violation_field)), violation_field.shape)
    worst = max(worst, 0.0)
    return ComparisonReport(
        property_name=name,
        holds=bool(worst <= tol),
        worst_violation=worst,
        location=(int(i), int(k)),
        tolerance_used=float(tol),
    )


def check_positivity(u: Field, tol=None, alpha=None, scale=None) -> ComparisonReport:
    """Nonnegativity of a solution evolved from a >= 0, F >= 0 (the caller
    certifies the hypotheses)."""
    if tol is None:
        if alpha is None:
            raise ValueError("need alpha for the default tolerance")
        scale = float(np.max(np.abs(u.values))) if scale is None else scale
        tol = default_tolerance(u.grid, u.tgrid, alpha, scale)
    return _report("positivity", -u.values, tol)


def check_ordering(u_hi: Field, u_lo: Field, tol=None, alpha=None, name="ordering") -> ComparisonReport:
    """u_hi >= u_lo nodewise up to tolerance."""
    if u_hi.values.shape != u_lo.values.shape:
        raise ValueError("fields must share grids")
    if tol is None:
        if alpha is None:
            raise ValueError("need alpha for the default tolerance")
        scale = float(max(np.max(np.abs(u_hi.values)), np.max(np.abs(u_lo.values))))
        tol = default_tolerance(u_hi.grid, u_hi.tgrid, alpha, scale)
    return _report(name, u_lo.values - u_hi.values, tol)


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


def coefficient_comparison(
    base: ProblemSpec,
    which: str = "c",
    c1=None,
    c2=None,
    sigma1=None,
    sigma2=None,
    tol=None,
):
    """Solve the problem twice with ordered coefficients and report ordering.

    which = "c": c1 >= c2 pointwise gives u(c1) >= u(c2).
    which = "sigma": needs c < 0 everywhere and sigma2 >= sigma1 >= sigma0 > 0;
    then u(sigma1) >= u(sigma2).  Requests with c >= 0 somewhere are refused
    (the unshifted Robin comparison is an open conjecture)."""
    x = base.grid.nodes
    a0 = base.initial_values()
    _require_signed(a0, +1, "initial value")
    if base.source is not None:
        for t in base.tgrid.nodes[:: max(1, base.tgrid.n_steps // 8)]:
            _require_signed(base.source_at(t), +1, "source")

    if which == "c":
        s1 = replace(base.elliptic, c=c1)
        s2 = replace(base.elliptic, c=c2)
        c1f, c2f = s1.c_fun(), s2.c_fun()
        for t in base.tgrid.nodes[:: max(1, base.tgrid.n_steps // 8)]:
            v1 = c1f(x, t) if c1f else np.zeros_like(x)
            v2 = c2f(x, t) if c2f else np.zeros_like(x)
            if np.min(v1 - v2) < -1e-13:
                raise HypothesisViolation("need c1 >= c2 everywhere")
        p1 = replace(base, elliptic=s1)
        p2 = replace(base, elliptic=s2)
        name = "coefficient comparison (c1 >= c2)"
    elif which == "sigma":
        cf = base.elliptic.c_fun()
        if cf is None:
            raise HypothesisViolation("sigma comparison needs c < 0; got c = 0")
        for t in base.tgrid.nodes[:: max(1, base.tgrid.n_steps // 8)]:
            _require_signed(cf(x, t), -1, "zeroth-order coefficient c")
        if not (sigma2 >= sigma1 > 0.0):
            raise HypothesisViolation("need sigma2 >= sigma1 >= sigma0 > 0")
        p1 = replace(base, elliptic=replace(base.elliptic, sigma_lo=sigma1, sigma_hi=sigma1))
        p2 = replace(base, elliptic=replace(base.elliptic, sigma_lo=sigma2, sigma_hi=sigma2))
        name = "boundary comparison (sigma1 <= sigma2)"
    else:
        raise ValueError("which must be 'c' or 'sigma'")

    u1 = solve_linear_spectral(p1)
    u2 = solve_linear_spectral(p2)
    report = check_ordering(u1, u2, tol=tol, alpha=base.alpha, name=name)
    return u1, u2, report


def linear_monotone_sequence(p: ProblemSpec, b0_const, n_max):
    """The inductive linearisation: freeze the zeroth-order feedback at the
    previous iterate, keep the positive-reaction operator on the left.

    u_1 = a; each successor solves
    d_t^alpha (u_{j+1} - a) + A1 u_{j+1} = (b0 + c) u_j + F with
    A1 = -(a u')' - b u' + b0 u.  All iterates stay nonnegative and converge
    geometrically to the direct solution."""
    x = p.grid.nodes
    a0 = p.initial_values()
    _require_signed(a0, +1, "initial value")
    cf = p.elliptic.c_fun()
    c_max = 0.0
    for t in p.tgrid.nodes[:: max(1, p.tgrid.n_steps // 8)]:
        if cf is not None:
            c_max = max(c_max, float(np.max(np.abs(cf(x, t)))))
        if p.source is not None:
            _require_signed(p.source_at(t), +1, "source")
    if b0_const < c_max:
        raise HypothesisViolation(f"b0 = {b0_const} below ||c||_inf = {c_max}")

    spec1 = replace(p.elliptic, c=-float(b0_const))
    tn = p.tgrid.nodes
    nt = tn.size

    def feedback(uj):
        src = np.empty((nt, x.size))
        for k, t in enumerate(tn):
            cv = cf(x, t) if cf is not None else np.zeros_like(x)
            base_f = p.source_at(t, node_index=k)
            src[k] = (b0_const + cv) * uj[k] + (base_f if base_f is not None else 0.0)
        return src

    iterates = [Field(p.grid, p.tgrid, np.tile(a0, (nt, 1)))]
    for _ in range(n_max - 1):
        src = feedback(iterates[-1].values)
        pj = replace(p, elliptic=spec1, source=src)
        nxt = solve_linear_l1(pj)
        iterates.append(nxt)
        if not np.all(np.isfinite(nxt.values)):
            raise RuntimeError("monotone sequence diverged; b0 too small or grid too coarse")
    return iterates


@dataclass(frozen=True)
class MonotoneIterationResult:
    from_lower: Sequence[Field]
    from_upper: Sequence[Field]
    sandwich: ComparisonReport
    solution: Field


def _l_map(p: ProblemSpec, f: SemilinearTerm, M, u_field: Field) -> Field:
    """One sweep of the shifted linearisation: solve
    d_t^alpha (v - a) + A v + (M+1) v = (M+1) u + f(u)."""
    x = p.grid.nodes
    tn = p.tgrid.nodes
    cf = p.elliptic.c_fun()
    shift = M + 1.0
    if cf is None:
        spec_s = replace(p.elliptic, c=-shift)
    else:
        spec_s = replace(p.elliptic, c=lambda xx, tt: cf(xx, tt) - shift)
    src = np.empty_like(u_field.values)
    for k, t in enumerate(tn):
        uk = u_field.values[k]
        base_f = p.source_at(t, node_index=k)
        src[k] = shift * uk + f(x, uk) + (base_f if base_f is not None else 0.0)
    return solve_linear_l1(replace(p, elliptic=spec_s, source=src))


def monotone_iteration(
    p: ProblemSpec,
    f: SemilinearTerm,
    barriers: BarrierPair,
    M=None,
    k_max=30,
    tol=None,
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
    if tol is None:
        scale = float(np.max(np.abs(barriers.upper.values)) + np.max(np.abs(barriers.lower.values)))
        tol = default_tolerance(p.grid, p.tgrid, p.alpha, scale)

    from .evolve_linear import SolverError

    lo_seq = [barriers.lower]
    hi_seq = [barriers.upper]
    for seq, sgn, label in ((lo_seq, 1.0, "lower"), (hi_seq, -1.0, "upper")):
        moved = math.inf
        for _ in range(k_max):
            nxt = _l_map(p, f, M, seq[-1])
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
    below = np.max(barriers.lower.values - u.values)
    above = np.max(u.values - barriers.upper.values)
    worst = float(max(below, above, 0.0))
    sandwich = ComparisonReport(
        property_name="barrier sandwich",
        holds=bool(worst <= tol),
        worst_violation=worst,
        location=(0, 0),
        tolerance_used=float(tol),
    )
    return MonotoneIterationResult(lo_seq, hi_seq, sandwich, u)


def verify_barrier(candidate: Field, kind: str, p: ProblemSpec, f=None, tol=None) -> ComparisonReport:
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
    if tol is None:
        scale = float(np.max(np.abs(v)) + 1.0)
        tol = default_tolerance(p.grid, p.tgrid, p.alpha, scale)

    cap = caputo_l1_field(p.tgrid, v, p.alpha)
    resid = np.zeros_like(v)
    for k in range(1, tn.size):
        rhs = np.zeros_like(x)
        if f is not None:
            rhs = rhs + f(x, v[k])
        src = p.source_at(tn[k], node_index=k)
        if src is not None:
            rhs = rhs + src
        resid[k] = cap[k] + op.apply_full(v[k], tn[k]) - rhs

    sign = 1.0 if kind == "upper" else -1.0
    eq_viol = np.maximum(-sign * resid[1:], 0.0)

    a0 = p.initial_values()
    if kind == "upper":
        init_viol = float(np.max(a0 - v[0]))
    else:
        init_viol = float(np.max(v[0] - a0))

    bc_viol = 0.0
    for k in range(1, tn.size):
        lo, hi = op.robin_residual(v[k])
        bc_viol = max(bc_viol, abs(lo), abs(hi))

    worst = float(max(np.max(eq_viol), init_viol, bc_viol, 0.0))
    k, i = np.unravel_index(int(np.argmax(eq_viol)), eq_viol.shape)
    return ComparisonReport(
        property_name=f"{kind} solution residual",
        holds=bool(worst <= tol),
        worst_violation=worst,
        location=(int(i), int(k) + 1),
        tolerance_used=float(tol),
    )


@dataclass(frozen=True)
class BarrierBandE3:
    rho: float
    report: ComparisonReport
    solution: Field


def barrier_bounds_e3(p: ProblemSpec, f: Optional[SemilinearTerm] = None, tol=None) -> BarrierBandE3:
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
    if tol is None:
        scale = float(np.max(np.abs(u.values)) + 1.0)
        tol = default_tolerance(p.grid, p.tgrid, p.alpha, scale)
    band_hi = a0[None, :] + rho * p.tgrid.nodes[:, None] ** p.alpha
    viol = np.maximum(-u.values, u.values - band_hi)
    report = _report("saturating-sink band 0 <= u <= a + rho t^alpha", viol, tol)
    return BarrierBandE3(rho=rho, report=report, solution=u)


@dataclass(frozen=True)
class BarrierBandE4:
    T1: float
    T2: float
    lower_coeff: float
    report: ComparisonReport
    solution: Field


def barrier_bounds_e4(p: ProblemSpec, f: SemilinearTerm, epsilon, delta1, tol=None) -> BarrierBandE4:
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
    if tol is None:
        scale = float(np.max(np.abs(u.values)) + 1.0)
        tol = default_tolerance(p.grid, p.tgrid, p.alpha, scale)
    tn = p.tgrid.nodes
    up_win = tn <= T1
    lo_win = tn <= T2
    viol_hi = np.maximum(
        u.values[up_win] - (a0[None, :] + tn[up_win, None] ** (p.alpha - epsilon)), 0.0
    )
    viol_lo = np.maximum(
        (a0[None, :] - lower_coeff * tn[lo_win, None] ** p.alpha) - u.values[lo_win], 0.0
    )
    worst = float(max(np.max(viol_hi) if viol_hi.size else 0.0,
                      np.max(viol_lo) if viol_lo.size else 0.0, 0.0))
    report = ComparisonReport(
        property_name="increasing-term band on (0,T1) x (0,T2)",
        holds=bool(worst <= tol),
        worst_violation=worst,
        location=(0, 0),
        tolerance_used=float(tol),
    )
    return BarrierBandE4(T1=float(T1), T2=float(T2), lower_coeff=float(lower_coeff),
                         report=report, solution=u)


@dataclass(frozen=True)
class DecayReport:
    fitted_C: float
    fitted_C_tail: float
    holds: bool


def asymptotic_decay_check(u: Field, u_inf, eig: EigenDecomposition, alpha) -> DecayReport:
    """Fit |u - u_inf| <= C E_{alpha,1}(-lambda_1 t^alpha) phi_1 and call the
    decay confirmed when the fitted constant is finite and stable (within 10%)
    when refitted on the last half of the window.  Early transients carry
    higher modes, so the first quarter is discarded."""
    lam1, phi1 = principal_eigenpair(eig)
    if float(np.min(np.abs(phi1))) < 1e-12:
        raise RuntimeError("ground mode vanishes on the grid: discretisation fault")
    ui = u_inf.values if isinstance(u_inf, SpaceField) else np.asarray(u_inf, dtype=float)
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
