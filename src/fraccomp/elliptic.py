"""Second-order elliptic operators on a 1D interval with Neumann/Robin closure.

The self-adjoint part T0 u = -(a u')' is discretised in flux (finite-volume)
form on a grid that carries both endpoints as unknowns: half cells at the
boundary, ghost-free Robin closure through the conormal flux a u' nu + sigma u.
This makes the stiffness matrix exactly symmetric, so the eigenproblem is a
weighted symmetric tridiagonal one, second order in h including the boundary.

Drift terms b(x,t) d/dx and zeroth-order terms c(x,t) never enter the
eigenproblem; they are sampled as vectors and routed through the solvers'
splitting; the spectral route shifts T0 by an amount of its own choosing
(see evolve_linear.spectral_march).  The full operator exists only as
bands: tridiagonal flux plus the offsets +-2 of the one-sided derivative
rows, so every implicit solve is pentadiagonal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import get_lapack_funcs

__all__ = [
    "Grid1D",
    "EllipticSpec",
    "DiscreteOperator",
    "EigenDecomposition",
    "DegenerateEigenpairError",
    "assemble",
    "eigendecompose",
    "principal_eigenpair",
]


class DegenerateEigenpairError(RuntimeError):
    pass


class NonFiniteError(ValueError):
    """A field that is not finite at a point the solvers sample."""


def _require_finite(key, values, x, t):
    """NonFiniteError at the first (x[i], t[k]) where values, one row per
    time of t or a row, is not finite."""
    finite = np.isfinite(np.atleast_2d(values))
    if not finite.all():
        k, i = np.argwhere(~finite)[0]
        raise NonFiniteError(f"{key!r} is not finite at x = {x[i]:.6g}, t = {t[k]:.6g}")


ABSENT, CONSTANT, X_ONLY, BROADCASTS, PER_TIME = "absent", "constant", "x-only", "broadcasts", "per time"


@dataclass(frozen=True, eq=False)
class Coefficient:
    """A coefficient a(x), b(x, t), c(x, t) or a source F(x, t),
    of one of five kinds, by what it is and what a callable returns for the
    nodes and a column of times:

    * absent: None;
    * constant: a number, never called;
    * x-only: (nodes,) or (1, nodes), independent of t: kept as that row;
    * broadcasts: (times, nodes), as numpy expressions: one call per column;
    * per time: anything else, or a raise: one call per time.

    of takes a callable as per time (a, of x alone, as x-only, called per
    evaluation) and refuses anything that is not None, a number or a
    callable (ValueError); decided settles its kind and keeps the range of
    the values it sampled."""

    key: str
    f: object
    kind: str
    x: Optional[np.ndarray] = field(default=None, repr=False)  # the nodes of row
    row: Optional[np.ndarray] = field(default=None, repr=False)  # constant and x-only kinds
    with_t: bool = True  # called as f(x, t), else as f(x)
    span: tuple = (0.0, 0.0)  # least and largest value decided sampled; 0 where absent

    @classmethod
    def of(cls, key, f, with_t=True):
        if f is None:
            return cls(key, None, ABSENT)
        if callable(f):
            return cls(key, f, PER_TIME if with_t else X_ONLY, with_t=with_t)
        if isinstance(f, numbers.Real):
            return cls(key, float(f), CONSTANT)
        raise ValueError(f"{key} must be None, a number or a callable of {'(x, t)' if with_t else 'x'}; "
                         f"got {type(f).__name__}")

    def decided(self, x, times):
        """This coefficient on the nodes x, its kind decided by one call
        f(x, times[:, None]) with the times the solvers sample, which is
        also the finiteness check (NonFiniteError); of the samples only
        their least and largest value are kept (span)."""
        key, f, kind = self.key, self.f, self.kind
        if kind == ABSENT:
            return self
        with np.errstate(all="ignore"):  # non-finite values are reported, not warned about
            try:
                v = np.full(x.shape, f) if kind == CONSTANT else np.asarray(f(x, times[:, None]), dtype=float)
            except Exception:  # any error: the per-time calls raise it again
                v = np.empty(0)
            if v.shape in ((x.size,), (1, x.size), (times.size, x.size)):
                _require_finite(key, v, x, times)
                span = (float(v.min()), float(v.max()))
                if v.shape == (times.size, x.size):
                    return Coefficient(key, f, BROADCASTS, span=span)
                return Coefficient(key, f, kind if kind == CONSTANT else X_ONLY, x, v.reshape(x.size), span=span)
            per_time = Coefficient(key, f, PER_TIME)
            lo, hi = math.inf, -math.inf
            for k, tk in enumerate(times):
                v = per_time.values(x, tk)
                _require_finite(key, v, x, times[k:])
                lo, hi = min(lo, float(v.min())), max(hi, float(v.max()))
        return replace(per_time, span=(lo, hi))

    def values(self, x, t=0.0):
        """The values on the nodes x at the time t, (nodes,), or at a 1-D
        array of times, (times, nodes); the row of the constant and x-only
        kinds at every t, None for the absent kind."""
        kind, f = self.kind, self.f
        if kind == ABSENT or x is self.x:
            return self.row
        if kind == CONSTANT:
            return np.full(np.shape(x), f)
        if kind == BROADCASTS and np.ndim(t):
            return np.asarray(f(x, t[:, None]), dtype=float)
        if np.ndim(t):
            return np.array([self.values(x, tk) for tk in t])
        return np.asarray(f(x, t) if self.with_t else f(x), dtype=float) * np.ones_like(x)


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
        if not math.isfinite(self.h):  # also where an end is infinite
            raise ValueError(f"need finite ends and a finite step (x_hi - x_lo) / (n + 1); got {self.h:g}")

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
class EllipticSpec:
    """Coefficients of -A u = (a u')' + b u' + c u and the Robin data
    sigma >= 0 at both endpoints; the self-adjoint part is T0 u = -(a u')'.
    A1 = -(a u')' - b u' + b0 u with b0 > 0 is the spec with c = -b0.
    a is a number or a callable of x, refused by assemble where it is not
    finite or not positive.  b and c are None, a number or a callable of
    (x, t), held in coefficients; a ProblemSpec decides the kinds of b and
    c on its grid (see Coefficient).  sigma_lo and sigma_hi must be finite
    and nonnegative; anything else is refused when the spec is built
    (ValueError)."""

    a: object = 1.0
    b: object = None
    c: object = None
    sigma_lo: float = 0.0
    sigma_hi: float = 0.0
    coefficients: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.sigma_lo < math.inf and 0.0 <= self.sigma_hi < math.inf):
            raise ValueError(f"Robin coefficients must be finite and >= 0, "
                             f"got sigma_lo = {self.sigma_lo}, sigma_hi = {self.sigma_hi}")
        object.__setattr__(self, "coefficients", {
            "a": Coefficient.of("a", self.a, with_t=False), "b": Coefficient.of("b", self.b),
            "c": Coefficient.of("c", self.c)})


@dataclass(frozen=True)
class DiscreteOperator:
    """Flux-form discretisation: the symmetric part as flux bands, drift and
    zeroth-order terms sampled from the spec at the time they are needed."""

    grid: Grid1D
    spec: EllipticSpec
    flux_diag: np.ndarray = field(repr=False)      # T0 main diagonal
    flux_off: np.ndarray = field(repr=False)       # T0 off diagonal
    volumes: np.ndarray = field(repr=False)

    def apply_sym(self, v):
        """Pointwise T0 v = -(a v')' with the Robin closure, along the last
        axis of v."""
        v = np.asarray(v, dtype=float)
        out = self.flux_diag * v
        out[..., :-1] += self.flux_off * v[..., 1:]
        out[..., 1:] += self.flux_off * v[..., :-1]
        return out / self.volumes

    def derivative(self, v):
        """d/dx v along the last axis of v, centred inside, one-sided second
        order at the endpoints."""
        v = np.asarray(v, dtype=float)
        d = np.empty_like(v)
        np.subtract(v[..., 2:], v[..., :-2], out=d[..., 1:-1])
        d[..., 0] = 4.0 * v[..., 1] - 3.0 * v[..., 0] - v[..., 2]
        d[..., -1] = 3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]
        d *= 0.5 / self.grid.h
        return d

    def q_parts(self, t):
        """(b, c) sampled at time t, or rows of them at a 1-D array of
        times: b None where absent, c 0 where absent."""
        x = self.grid.nodes
        coefs = self.spec.coefficients
        c = coefs["c"].values(x, t)
        return coefs["b"].values(x, t), 0.0 if c is None else c

    def apply_q(self, v, parts):
        """b v' + c v with parts = q_parts(t), so a time step samples them
        once."""
        b, c = parts
        out = c * v
        if b is not None:
            out = out + b * self.derivative(v)
        return out

    def apply_full(self, v, t=0.0):
        """A v = -(a v')' - b v' - c v; v may hold one row per time of a
        1-D array t."""
        return self.apply_sym(v) - self.apply_q(v, self.q_parts(t))

    def bands(self, t=0.0, shift=0.0):
        """LAPACK (2, 2) band array, shape (5, m), of shift I + A(t): row r
        holds the diagonal at offset 2 - r."""
        h = self.grid.h
        ab = np.zeros((5, self.grid.n_nodes))
        ab[1, 1:] = self.flux_off / self.volumes[:-1]
        ab[3, :-1] = self.flux_off / self.volumes[1:]
        b, c = self.q_parts(t)
        ab[2] = self.flux_diag / self.volumes - c
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
        or of each row of an array of them, with one-sided second-order
        derivatives."""
        a = self.spec.coefficients["a"].values(self.grid.nodes[[0, -1]])
        dv = self.derivative(v)
        lo = -a[0] * dv[..., 0] + self.spec.sigma_lo * v[..., 0]
        hi = a[1] * dv[..., -1] + self.spec.sigma_hi * v[..., -1]
        return lo, hi


def assemble(spec: EllipticSpec, grid: Grid1D) -> DiscreteOperator:
    """Flux-form assembly.  a is evaluated once on the nodes and the cell
    midpoints, and refused there where it is not finite (NonFiniteError)
    or not positive (ValueError)."""
    x = grid.nodes
    h = grid.h
    faces = np.empty(2 * x.size - 1)
    faces[::2], faces[1::2] = x, 0.5 * x[:-1] + 0.5 * x[1:]  # halves first: no overflow
    with np.errstate(all="ignore"):
        a_faces = spec.coefficients["a"].values(faces)
    _require_finite("a", a_faces, faces, np.zeros(1))
    a_mid = a_faces[1::2]
    if np.min(a_faces) <= 0.0:
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

    def shifted(self, s):
        """The pairs of T0 + s: the same modes, lambdas + s.  For a constant
        c without drift, shifted(-c) holds A's pairs."""
        return replace(self, lambdas=self.lambdas + s)


def eigendecompose(op: DiscreteOperator) -> EigenDecomposition:
    """All eigenpairs of the symmetric part T0 in ascending order, orthonormal
    under the cell weights; drift and c do not enter (they are handled by
    splitting).  They come from one call of LAPACK's divide-and-conquer
    solver for symmetric tridiagonal matrices (stevd), O(n^2) for all of
    them; the driver is named, so that a change of scipy's default cannot
    move the results."""
    w = op.volumes
    sw = np.sqrt(w)
    d = op.flux_diag / w
    e = op.flux_off / (sw[:-1] * sw[1:])
    try:
        lam, psi = eigh_tridiagonal(d, e, lapack_driver="stevd")
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError("tridiagonal eigensolver failed") from exc
    modes = psi / sw[:, None]
    # deterministic signs: positive weighted mean, falling back to the largest
    # entry (the first of equal ones) where the mean is zero to rounding
    s = w @ modes
    weak = np.flatnonzero(np.abs(s) < 1e-12)
    s[weak] = modes[np.argmax(np.abs(modes[:, weak]), axis=0), weak]
    modes[:, s < 0] *= -1.0
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


# float64 LAPACK dgbtrf and dgbtrs: dgbsv is exactly the one and then the other,
# so a solve has scipy.linalg.solve_banded's bits without its per-call validation
# and dispatch, which cost several times the O(m) solve at the L1 steps' sizes
_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), (np.empty(0),))


def banded_lu(ab):
    """LU factors of a finite (5, m) band array of DiscreteOperator.bands for
    banded_lu_solve: (lu, piv, info), with info > 0 where a pivot is exactly
    zero, that is where the matrix is singular.  lu is the (7, m) array that
    scipy.linalg.solve_banded builds (two zero rows on top for the pivoting
    fill-in), factored in place by dgbtrf."""
    lu = np.zeros((7, ab.shape[1]), order="F")
    lu[2:] = ab
    return _GBTRF(lu, 2, 2, overwrite_ab=True)


def banded_lu_solve(factors, rhs):
    """Solve with the factors of banded_lu, which must not be singular: one
    O(m) dgbtrs, so that a chain of solves with one matrix factors it once."""
    lu, piv, _ = factors
    return _GBTRS(lu, 2, 2, rhs, piv)[0]
