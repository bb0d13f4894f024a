"""Semilinear evolution d_t^alpha (u - a) + A u = f(u) by the same fixed-point
marching as the linear solver, with the nonlinearity evaluated nodewise in
physical space and projected onto the modes each sweep.

solve_semilinear_many marches a list of problems, each with its own term,
in the batches of solve_linear_spectral_many: each sweep evaluates every
problem's term on its own row of the batch, and the state is checked per
problem against the box of a term that declares a finite one.
solve_semilinear is a batch of one.

Built-in nonlinearities: the saturating enzyme sink -u/(1+|u|) and the
advective Burgers product -mu u u_x (gradient-dependent, hence excluded
from comparison-principle checks)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .elliptic import EigenDecomposition, assemble, eigendecompose
from .evolve_linear import Batch, Field, ModeStack, ProblemSpec, SolverError, _batches, spectral_march
from .fracops import l1_weight_rows

__all__ = [
    "SemilinearTerm",
    "BoxExitError",
    "builtin_enzyme",
    "builtin_burgers",
    "solve_semilinear",
    "solve_semilinear_many",
    "scalar_fractional_ode",
]


_NEWTON_TOL = 1e-12  # relative update that ends a step of scalar_fractional_ode


class BoxExitError(SolverError):
    """The state left the box on which the nonlinearity's bounds are certified."""


@dataclass(frozen=True)
class SemilinearTerm:
    """Pointwise source f(x, u) with |f|, |f_u| <= bound_M on |u| <= box_m.

    Gradient-dependent terms take (x, u, u_x) and are flagged; the comparison
    machinery refuses them (the ordering theorems need f independent of
    derivatives)."""

    eval: Callable
    deriv_u: Optional[Callable] = None
    bound_M: float = 1.0
    depends_on_gradient: bool = False
    box_m: float = math.inf

    def __call__(self, x, u, ux=None):
        v = np.asarray(self.eval(x, u, ux) if self.depends_on_gradient else self.eval(x, u), dtype=float)
        # multiplying by ones only broadcasts: a value of u's shape is returned as it is
        return v if v.shape == np.shape(u) else v * np.ones_like(u)

    def shifted(self, delta):
        """The term plus a constant; keeps the ordering f1 >= f2 testable."""
        if self.depends_on_gradient:
            raise ValueError("shift only supported for pointwise terms")
        return SemilinearTerm(
            eval=lambda x, u: self.eval(x, u) + delta,
            deriv_u=self.deriv_u,
            bound_M=self.bound_M + abs(delta),
            box_m=self.box_m,
        )


def builtin_enzyme() -> SemilinearTerm:
    """Saturating sink -u/(1+|u|): globally C^1 with unit bound, decreasing."""
    return SemilinearTerm(
        eval=lambda x, u: -u / (1.0 + np.abs(u)),
        deriv_u=lambda x, u: -1.0 / (1.0 + np.abs(u)) ** 2,
        bound_M=1.0,
    )


def builtin_burgers(mu=1.0) -> SemilinearTerm:
    """Advective product -mu u u_x of the fractional Burgers equation, mu a
    number."""
    return SemilinearTerm(
        eval=lambda x, u, ux: -mu * u * ux,
        deriv_u=None,
        bound_M=math.inf,
        depends_on_gradient=True,
    )


def solve_semilinear(
    p: ProblemSpec,
    f: SemilinearTerm,
    eig: Optional[EigenDecomposition] = None,
) -> Field:
    """Per-node Picard iteration on the fixed-point map with f evaluated
    pointwise on the grid, to evolve_linear.PICARD_TOL.  Hard-fails when
    |u| exceeds the declared box (the Lipschitz certificate stops there) or
    when the iteration stalls (the contraction is local in time: refine the
    grid or shrink T).  _march_semilinear also returns the sweep counts."""
    return _march_semilinear(Batch((p,)), [f], [eig])[0][0]


def solve_semilinear_many(problems, terms) -> list:
    """solve_semilinear of each problem with its own term, in their order.
    The problems are batched as by solve_linear_spectral_many, and in a
    batch each term is evaluated on its own problem's rows.  A SolverError
    (a BoxExitError too) names the problem's index in this list when it
    holds several."""
    problems, terms = list(problems), list(terms)
    if len(terms) != len(problems):
        raise ValueError(f"one term per problem: {len(problems)} problems, {len(terms)} terms")
    fields = [None] * len(problems)
    for index, batch in _batches(problems):
        batch_fields, _ = _march_semilinear(batch, [terms[i] for i in index], [None] * len(index))
        for i, u in zip(index, batch_fields):
            fields[i] = u
    return fields


def _march_semilinear(batch: Batch, terms, eigs):
    """The fields of a batch's problems, each with its own term, from one
    march, and their sweep counts; eigs holds each problem's
    eigendecomposition or None.  The state is checked against the boxes
    of the terms that declare a finite one."""
    problems = batch.problems
    ops = [assemble(p.elliptic, p.grid) for p in problems]
    eigs = [eigendecompose(op) if e is None else e for e, op in zip(eigs, ops)]

    def term(s, u):
        f, x = terms[s], problems[s].grid.nodes
        if f.depends_on_gradient:
            return f(x, u, ops[s].derivative(u))
        return f(x, u)

    def nonlinearity(u, t, rows):
        if len(problems) == 1:  # no problem axis
            return term(0, u)
        return np.stack([term(s, v) for s, v in zip(rows.tolist(), u)])

    boxes = np.array([f.box_m for f in terms])
    for s, p in enumerate(problems):
        if float(np.max(np.abs(p.initial_values()))) > boxes[s]:
            raise BoxExitError(f"initial value already outside the box m = {boxes[s]:.3g}",
                               node=0, problem=batch.label(s))

    guard = None
    if np.isfinite(boxes).any():
        def guard(u, node):
            peaks = np.max(np.abs(u), axis=-1).reshape(-1)
            out = np.flatnonzero(peaks > boxes)
            if out.size:
                s = int(out[0])
                raise BoxExitError(
                    f"|u| = {peaks[s]:.3g} left the certified box m = {boxes[s]:.3g} at node {node}",
                    node=node, problem=batch.label(s))

    u, counts = spectral_march(batch, ModeStack(eigs, ops), nonlinearity=nonlinearity, state_guard=guard)
    return [Field(p.grid, p.tgrid, v) for p, v in zip(problems, u)], counts


def scalar_fractional_ode(tgrid, alpha, y0, rhs, rhs_du=None):
    """Implicit L1 marching of d_t^alpha (y - y0) = rhs(y) (brute-force oracle
    for spatially flat problems).  rhs_du enables Newton; otherwise damped
    fixed point with numerical slope.  A step stops when its update is at
    most _NEWTON_TOL (1 + |y|).  Raises SolverError naming the node
    where rhs gives a non-finite value or where 100 steps do not settle."""
    t = tgrid.nodes
    y = np.empty(t.size)
    y[0] = y0
    dy = np.empty(t.size - 1)
    for m, w in enumerate(l1_weight_rows(t, alpha), start=1):
        hist = 0.0 if m == 1 else float(w[: m - 1] @ dy[: m - 1])
        d = w[-1]
        # solve d*(ym - y[m-1]) + hist = rhs(ym)
        ym = y[m - 1]
        for _ in range(100):
            fy = rhs(ym)
            g = d * (ym - y[m - 1]) + hist - fy
            if not math.isfinite(g):
                raise SolverError(
                    f"scalar ODE: non-finite residual at node {m} (y = {ym:.6g}, rhs = {fy:.6g})", node=m)
            slope = d - (rhs_du(ym) if rhs_du is not None else (rhs(ym + 1e-7) - rhs(ym - 1e-7)) / 2e-7)
            step = -g / slope
            ym += step
            if abs(step) <= _NEWTON_TOL * (1.0 + abs(ym)):
                break
        else:
            raise SolverError(
                f"scalar ODE: no convergence at node {m} within 100 steps "
                f"(last step {step:.2e})", node=m, residual=abs(g))
        y[m] = ym
        dy[m - 1] = y[m] - y[m - 1]
    return y
