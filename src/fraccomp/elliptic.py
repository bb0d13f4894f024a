"""Second-order elliptic operators on a 1D interval with Neumann/Robin closure.

The self-adjoint part -(a u')' + c0 u is discretised in flux (finite-volume)
form on a grid that carries both endpoints as unknowns: half cells at the
boundary, ghost-free Robin closure through the conormal flux a u' nu + sigma u.
This makes the stiffness matrix exactly symmetric, so the eigenproblem is a
weighted symmetric tridiagonal one, second order in h including the boundary.

Drift terms b(x,t) d/dx and zeroth-order terms never enter the eigenproblem;
they are sampled as vectors and routed through the solvers' splitting.  The
full operator exists only as bands: tridiagonal flux plus the offsets +-2 of
the one-sided derivative rows, so every implicit solve is pentadiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

__all__ = [
    "Grid1D",
    "EllipticSpec",
    "DiscreteOperator",
    "EigenDecomposition",
    "SpaceField",
    "SingularOperatorError",
    "DegenerateEigenpairError",
    "assemble",
    "eigendecompose",
    "principal_eigenpair",
    "solve_stationary",
    "coercivity_form",
]


class SingularOperatorError(np.linalg.LinAlgError):
    pass


class DegenerateEigenpairError(RuntimeError):
    pass


def _as_xfun(f):
    """Coefficient given as a constant or a callable of x."""
    if f is None:
        return None
    if callable(f):
        return lambda x: np.asarray(f(x), dtype=float) * np.ones_like(x)
    c = float(f)
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


def _as_xtfun(f):
    """Coefficient given as a constant or a callable of (x, t)."""
    if f is None:
        return None
    if callable(f):
        return lambda x, t: np.asarray(f(x, t), dtype=float) * np.ones_like(x)
    c = float(f)
    return lambda x, t: np.full_like(np.asarray(x, dtype=float), c)


@dataclass(frozen=True)
class Grid1D:
    x_lo: float
    x_hi: float
    n: int  # interior unknowns; nodes include both endpoints

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError("need x_lo < x_hi")
        if self.n < 3:
            raise ValueError("need at least 3 interior nodes")

    @property
    def h(self):
        return (self.x_hi - self.x_lo) / (self.n + 1)

    @cached_property
    def nodes(self):
        """The n + 2 nodes, built once and read-only: every caller shares them."""
        x = np.linspace(self.x_lo, self.x_hi, self.n + 2)
        x.setflags(write=False)
        return x

    @property
    def n_nodes(self):
        return self.n + 2

    @property
    def volumes(self):
        """Cell volumes: the trapezoidal weights of the discrete L2 product."""
        w = np.full(self.n + 2, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True)
class SpaceField:
    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError("values must live on all grid nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")


@dataclass(frozen=True)
class EllipticSpec:
    """Coefficients of -A u = (a u')' + b u' + c u, the shifted self-adjoint
    part -(a u')' + c0 u, and the Robin data sigma >= 0 at both endpoints.
    b0 > 0 activates the positive-reaction form -(a u')' - b u' + b0 u."""

    a: object = 1.0
    b: object = None
    c: object = None
    c0: float = 0.0
    sigma_lo: float = 0.0
    sigma_hi: float = 0.0
    b0: object = None

    def __post_init__(self):
        if self.c0 < 0.0:
            raise ValueError("c0 must be >= 0")
        if self.sigma_lo < 0.0 or self.sigma_hi < 0.0:
            raise ValueError("Robin coefficients must be >= 0")

    def a_fun(self):
        return _as_xfun(self.a)

    def b_fun(self):
        return _as_xtfun(self.b)

    def c_fun(self):
        return _as_xtfun(self.c)

    def b0_fun(self):
        return _as_xtfun(self.b0)


@dataclass(frozen=True)
class DiscreteOperator:
    """Flux-form discretisation: the symmetric part as flux bands, drift and
    zeroth-order terms sampled from the spec at the time they are needed."""

    grid: Grid1D
    spec: EllipticSpec
    flux_diag: np.ndarray = field(repr=False)      # T0 main diagonal (no c0 yet)
    flux_off: np.ndarray = field(repr=False)       # T0 off diagonal
    volumes: np.ndarray = field(repr=False)

    def apply_sym(self, v):
        """Pointwise A0 v = (-(a v')' + c0 v) with the Robin closure."""
        v = np.asarray(v, dtype=float)
        out = self.flux_diag * v
        out[:-1] += self.flux_off * v[1:]
        out[1:] += self.flux_off * v[:-1]
        return out / self.volumes + self.spec.c0 * v

    def derivative(self, v):
        """d/dx v, centred inside, one-sided second order at the endpoints."""
        v = np.asarray(v, dtype=float)
        d = np.empty_like(v)
        np.subtract(v[2:], v[:-2], out=d[1:-1])
        d[0] = 4.0 * v[1] - 3.0 * v[0] - v[2]
        d[-1] = 3.0 * v[-1] - 4.0 * v[-2] + v[-3]
        d *= 0.5 / self.grid.h
        return d

    def q_parts(self, t):
        """Vectors (b, c0 + c) sampled at time t for the splitting
        Q u = b u' + (c0 + c) u."""
        x = self.grid.nodes
        bf = self.spec.b_fun()
        cf = self.spec.c_fun()
        b = bf(x, t) if bf is not None else None
        c = cf(x, t) if cf is not None else np.zeros_like(x)
        return b, self.spec.c0 + c

    def apply_q(self, v, parts):
        """Q v with parts = q_parts(t), so a time step samples them once."""
        b, czero = parts
        out = czero * v
        if b is not None:
            out = out + b * self.derivative(v)
        return out

    def apply_full(self, v, t=0.0, reaction=None):
        """A v = A0 v - Q v = -(a v')' - b v' - c v (c0 cancels); a reaction
        vector r gives the stationary form -(a v')' - b v' + r v, as in bands."""
        b, czero = self.q_parts(t)
        if reaction is not None:
            czero = self.spec.c0 - reaction
        return self.apply_sym(v) - self.apply_q(v, (b, czero))

    def bands(self, t=0.0, shift=0.0, reaction=None):
        """LAPACK (2, 2) band array, shape (5, m), of shift I + A(t): row r
        holds the diagonal at offset 2 - r.  A reaction vector r replaces the
        zeroth-order part c0 - c, giving the stationary form -(a u')' - b u' + r u."""
        h = self.grid.h
        ab = np.zeros((5, self.grid.n_nodes))
        ab[1, 1:] = self.flux_off / self.volumes[:-1]
        ab[3, :-1] = self.flux_off / self.volumes[1:]
        b, czero = self.q_parts(t)
        if reaction is None:
            ab[2] = self.flux_diag / self.volumes + self.spec.c0 - czero
        else:
            ab[2] = self.flux_diag / self.volumes + reaction
        if b is not None:
            # minus b times the stencil of derivative(), one band at a time
            ab[1, 2:] -= b[1:-1] * (0.5 / h)
            ab[3, :-2] += b[1:-1] * (0.5 / h)
            ab[2, 0] += b[0] * (1.5 / h)
            ab[1, 1] -= b[0] * (2.0 / h)
            ab[0, 2] += b[0] * (0.5 / h)
            ab[2, -1] -= b[-1] * (1.5 / h)
            ab[3, -2] += b[-1] * (2.0 / h)
            ab[4, -3] -= b[-1] * (0.5 / h)
        ab[2] += shift
        return ab

    def full_matrix(self, t=0.0):
        """Dense matrix of A at time t, expanded from bands(t); an inspection
        view, the solvers work on the bands."""
        ab = self.bands(t)
        m = ab.shape[1]
        return sum(np.diag(ab[2 - k, max(k, 0) : m + min(k, 0)], k) for k in range(-2, 3))

    def robin_residual(self, v):
        """Conormal-plus-sigma boundary residuals (left, right) of a field,
        with one-sided second-order derivatives."""
        x = self.grid.nodes
        af = self.spec.a_fun()
        dv = self.derivative(v)
        lo = -float(af(x[:1])[0]) * dv[0] + self.spec.sigma_lo * v[0]
        hi = float(af(x[-1:])[0]) * dv[-1] + self.spec.sigma_hi * v[-1]
        return lo, hi


def assemble(spec: EllipticSpec, grid: Grid1D, t: float = 0.0) -> DiscreteOperator:
    """Flux-form assembly; rejects non-elliptic a(x)."""
    x = grid.nodes
    h = grid.h
    af = spec.a_fun()
    a_mid = af(0.5 * (x[:-1] + x[1:]))
    if np.min(af(x)) <= 0.0 or np.min(a_mid) <= 0.0:
        raise ValueError("ellipticity violated: a(x) must be positive")
    m = grid.n_nodes
    diag = np.zeros(m)
    off = -a_mid / h
    diag[1:-1] = (a_mid[:-1] + a_mid[1:]) / h
    diag[0] = a_mid[0] / h + spec.sigma_lo
    diag[-1] = a_mid[-1] / h + spec.sigma_hi
    return DiscreteOperator(
        grid=grid,
        spec=spec,
        flux_diag=diag,
        flux_off=off,
        volumes=grid.volumes,
    )


@dataclass(frozen=True)
class EigenDecomposition:
    lambdas: np.ndarray
    modes: np.ndarray = field(repr=False)      # columns phi_n on the nodes
    weights: np.ndarray = field(repr=False)    # discrete L2 weights

    def project(self, v):
        """Coefficients (v, phi_n)_h for all retained modes."""
        return self.modes.T @ (self.weights * v)

    def synthesize(self, coef):
        return self.modes @ coef


def eigendecompose(op: DiscreteOperator) -> EigenDecomposition:
    """All eigenpairs of the symmetric part in ascending order, orthonormal
    under the cell weights; only the self-adjoint A0 enters (drift is handled
    by splitting)."""
    w = op.volumes
    sw = np.sqrt(w)
    d = op.flux_diag / w + op.spec.c0
    e = op.flux_off / (sw[:-1] * sw[1:])
    m = op.grid.n_nodes
    try:
        lam, psi = eigh_tridiagonal(d, e, select="i", select_range=(0, m - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError("tridiagonal eigensolver failed") from exc
    modes = psi / sw[:, None]
    # deterministic signs: positive weighted mean, falling back to the largest entry
    for j in range(modes.shape[1]):
        s = np.sum(w * modes[:, j])
        if abs(s) < 1e-12:
            s = modes[np.argmax(np.abs(modes[:, j])), j]
        if s < 0:
            modes[:, j] = -modes[:, j]
    return EigenDecomposition(lambdas=lam, modes=modes, weights=w)


def principal_eigenpair(eig: EigenDecomposition):
    """(lambda_1, phi_1) with phi_1 positive at every node; rejects numerically
    degenerate ground states (they indicate a discretisation fault)."""
    lam = eig.lambdas
    if lam.size >= 2 and lam[1] - lam[0] <= 1e-10 * abs(lam[0]):
        raise DegenerateEigenpairError(
            f"ground eigenvalue not simple: lambda_1={lam[0]}, lambda_2={lam[1]}"
        )
    phi = eig.modes[:, 0].copy()
    if np.max(phi) < 0.0:
        phi = -phi
    if np.min(phi) <= 0.0:
        raise DegenerateEigenpairError("ground mode changes sign on the grid")
    return float(lam[0]), phi


def _reaction_vector(spec, grid, t):
    """b0(x,t) when present, else the c0 shift (the A0 form)."""
    b0f = spec.b0_fun()
    if b0f is not None:
        vec = b0f(grid.nodes, t)
        if np.min(vec) <= 0.0:
            raise ValueError("b0 must be positive")
        return vec
    return np.full(grid.n_nodes, spec.c0)


def banded_solve(ab, rhs):
    """Solve with a (5, m) band array of DiscreteOperator.bands: every operator
    here is pentadiagonal, so this is an O(m) LAPACK gbsv."""
    return solve_banded((2, 2), ab, rhs)


def solve_stationary(spec: EllipticSpec, grid: Grid1D, rhs, boundary_rhs=(0.0, 0.0), t=0.0) -> SpaceField:
    """Solve A1 psi = rhs (or A0 psi = rhs when b0 is absent) with possibly
    inhomogeneous Robin data a psi' nu + sigma psi = g at the endpoints."""
    op = assemble(spec, grid, t)
    reaction = _reaction_vector(spec, grid, t)
    ab = op.bands(t, reaction=reaction)
    f = np.asarray(rhs.values if isinstance(rhs, SpaceField) else rhs, dtype=float).copy()
    g_lo, g_hi = boundary_rhs
    f[0] += g_lo / op.volumes[0]
    f[-1] += g_hi / op.volumes[-1]
    try:
        sol = banded_solve(ab, f)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("stationary operator is singular") from exc
    res = np.max(np.abs(op.apply_full(sol, t, reaction) - f))
    scale = np.max(np.abs(f)) + np.max(np.abs(sol)) + 1e-30
    if not np.all(np.isfinite(sol)) or res > 1e-10 * scale:
        raise SingularOperatorError(
            f"stationary solve failed: relative residual {res / scale:.2e}"
        )
    return SpaceField(grid, sol)


def coercivity_form(op: DiscreteOperator, v, t: float = 0.0) -> float:
    """Discrete (A1 v, v)_h including the boundary sigma terms.

    Compare against kappa1 (||v||_h^2 + ||v'||_h^2); see h1_norm_sq."""
    vv = np.asarray(v.values if isinstance(v, SpaceField) else v, dtype=float)
    reaction = _reaction_vector(op.spec, op.grid, t)
    return float(np.sum(op.volumes * vv * op.apply_full(vv, t, reaction)))


def h1_norm_sq(grid: Grid1D, v) -> tuple:
    """(||v||_h^2, ||v'||_h^2) with midpoint differences for the gradient."""
    vv = np.asarray(v.values if isinstance(v, SpaceField) else v, dtype=float)
    w = grid.volumes
    l2 = float(np.sum(w * vv * vv))
    dv = np.diff(vv) / grid.h
    h1 = float(np.sum(grid.h * dv * dv))
    return l2, h1
