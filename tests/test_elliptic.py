import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

import fraccomp.elliptic as elliptic
from fraccomp.elliptic import (
    BROADCASTS,
    DegenerateEigenpairError,
    EllipticSpec,
    Grid1D,
    assemble,
    banded_lu,
    banded_lu_solve,
    eigendecompose,
    principal_eigenpair,
)
from fraccomp.evolve_linear import ProblemSpec
from fraccomp.fracops import TimeGrid


def robin_lambda1(sigma):
    """Bisection on the characteristic equation for -u'' = mu^2 u on (0,1)
    with u'(0) = sigma u(0), u'(1) + sigma u(1) = 0: for sigma = 1 this is
    tan(mu) = 2 mu / (mu^2 - 1)."""
    def f(mu):
        return (sigma / mu - mu / sigma) * math.sin(mu) + 2.0 * math.cos(mu)

    lo, hi = 1e-6, math.pi - 1e-9
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (0.5 * (lo + hi)) ** 2


class TestAssemble:
    def test_neumann_row_sums_zero(self):
        g = Grid1D(0.0, 1.0, 3)
        op = assemble(EllipticSpec(a=1.0, c0=0.0), g)
        for i in range(g.n_nodes):
            e = np.zeros(g.n_nodes)
            e[i] = 1.0
            pass  # row sums tested via action on constants below
        ones = np.ones(g.n_nodes)
        assert np.allclose(op.apply_sym(ones), 0.0, atol=1e-13)

    def test_constant_preserved_with_shift(self):
        g = Grid1D(0.0, 1.0, 17)
        op = assemble(EllipticSpec(a=1.0, c0=1.0), g)
        ones = np.ones(g.n_nodes)
        assert np.allclose(op.apply_sym(ones), 1.0, atol=1e-13)

    def test_hand_assembled_oracle(self):
        # a(x) = 1 + x, sigma = 1 on (0,1), n = 3: build the 5x5 flux matrix
        # by hand and compare actions
        g = Grid1D(0.0, 1.0, 3)
        h = g.h
        x = g.nodes
        am = 1.0 + 0.5 * (x[:-1] + x[1:])
        T = np.zeros((5, 5))
        T[0, 0] = am[0] / h + 1.0
        T[0, 1] = -am[0] / h
        for i in (1, 2, 3):
            T[i, i - 1] = -am[i - 1] / h
            T[i, i] = (am[i - 1] + am[i]) / h
            T[i, i + 1] = -am[i] / h
        T[4, 3] = -am[3] / h
        T[4, 4] = am[3] / h + 1.0
        w = g.volumes
        op = assemble(EllipticSpec(a=lambda x: 1.0 + x, sigma_lo=1.0, sigma_hi=1.0), g)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.normal(size=5)
            assert np.allclose(op.apply_sym(v), (T @ v) / w, atol=1e-12)

    def test_symmetry_exact(self):
        g = Grid1D(-1.0, 2.0, 40)
        op = assemble(EllipticSpec(a=lambda x: 1.0 + 0.3 * np.sin(x), sigma_lo=0.7, sigma_hi=2.0, c0=0.5), g)
        # weighted operator W A0 is the symmetric flux matrix
        m = g.n_nodes
        M = np.zeros((m, m))
        for i in range(m):
            e = np.zeros(m)
            e[i] = 1.0
            M[:, i] = op.volumes * op.apply_sym(e)
        assert np.array_equal(M, M.T)

    def test_rejects_nonelliptic(self):
        g = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            assemble(EllipticSpec(a=lambda x: x - 0.5), g)

    @pytest.mark.parametrize("key", ["c0", "sigma_lo", "sigma_hi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_bad_shift_and_robin_data(self, key, value):
        # nan < 0 is false: the check refuses what is not finite as well
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            EllipticSpec(**{key: value})

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.inf), (-1e308, 1e308)])
    def test_grid_rejects_non_finite_ends_or_step(self, lo, hi):
        with pytest.raises(ValueError, match="need finite ends and a finite step"):
            Grid1D(lo, hi, 4)


@pytest.mark.parametrize("n", [3, 20, 128])
@pytest.mark.parametrize("sigma", [0.0, 1.5], ids=["neumann", "robin"])
@pytest.mark.parametrize("drift", [False, True], ids=["no-drift", "drift"])
def test_banded_operator(drift, sigma, n):
    g = Grid1D(-0.5, 1.5, n)
    spec = EllipticSpec(
        a=lambda x: 1.0 + 0.5 * x * x,
        b=(lambda x, t: np.sin(3.0 * x) + t) if drift else None,
        c=lambda x, t: -0.5 + 0.2 * np.cos(x + t),
        c0=1.0,
        sigma_lo=sigma,
        sigma_hi=2.0 * sigma,
    )
    op = assemble(spec, g)
    x = g.nodes
    t = 0.3
    v = np.random.default_rng(n).normal(size=g.n_nodes)
    M = op.full_matrix(t)
    norm = np.max(np.sum(np.abs(M), axis=1))
    # the dense view and the matrix-free action agree to roundoff
    assert np.max(np.abs(M @ v - op.apply_full(v, t))) <= 1e-14 * norm * np.max(np.abs(v))
    # the stencil is exact on quadratics at every node, endpoints included
    assert np.max(np.abs(op.derivative(2.0 + 3.0 * x - 5.0 * x * x) - (3.0 - 10.0 * x))) <= 1e-12
    # an implicit L1 step and a stationary solve (zeroth-order term 1 + x^2)
    # on the bands leave roundoff residuals
    stationary = assemble(replace(spec, c=lambda x, t: -(1.0 + x * x)), g)
    for shift, o in ((2.0, op), (0.0, stationary)):
        sol = banded_lu_solve(banded_lu(o.bands(t, shift)), v)
        res = shift * sol + o.apply_full(sol, t) - v
        assert np.max(np.abs(res)) <= 1e-13 * (shift + norm) * np.max(np.abs(sol))


def test_operators_act_along_the_last_axis():
    # an array of fields, one row per time of a column of times, gives the
    # bits of one field at a time, also where b and c broadcast in t
    g = Grid1D(-0.5, 1.5, 20)
    spec = EllipticSpec(a=lambda x: 1.0 + 0.5 * x * x, b=lambda x, t: np.sin(3.0 * x) + t,
                        c=lambda x, t: -0.5 + 0.2 * np.cos(x + t), c0=1.0, sigma_lo=1.5, sigma_hi=3.0)
    p = ProblemSpec(0.5, spec, g, TimeGrid.graded(1.0, 8, 4.0), 1.0)
    assert p.elliptic.coefficients["b"].kind == BROADCASTS
    op = assemble(p.elliptic, g)
    t = p.tgrid.nodes[1:]
    v = np.random.default_rng(3).normal(size=(t.size, g.n_nodes))
    rows = [(op.apply_sym(v[k]), op.derivative(v[k]), op.apply_full(v[k], t[k]), op.robin_residual(v[k]))
            for k in range(t.size)]
    for whole, one in zip((op.apply_sym(v), op.derivative(v), op.apply_full(v, t)), zip(*rows)):
        assert np.array_equal(whole, np.array(one))
    assert np.array_equal(np.array(op.robin_residual(v)).T, np.array([r[3] for r in rows]))


class TestBandedSolve:
    """banded_lu and banded_lu_solve call LAPACK gbtrf and gbtrs directly:
    the same bits as scipy.linalg.solve_banded((2, 2), ...)."""

    @pytest.mark.parametrize("n", [3, 33, 129])
    def test_operator_bands_match_solve_banded(self, n):
        g = Grid1D(0.0, 1.0, n)
        spec = EllipticSpec(a=lambda x: 1.0 + x, b=lambda x, t: 4.0 * np.cos(5.0 * x) - t,
                            c=lambda x, t: 0.3 * np.sin(x), c0=0.5, sigma_hi=1.0)
        op = assemble(spec, g)
        rhs = np.random.default_rng(n).normal(size=g.n_nodes)
        for t, shift in ((0.0, 0.0), (0.4, 3.7), (1.0, 250.0)):
            ab = op.bands(t, shift)
            assert np.array_equal(banded_lu_solve(banded_lu(ab), rhs), solve_banded((2, 2), ab, rhs))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dominant_pentadiagonal(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 200))
        ab = rng.normal(size=(5, m))
        ab[2] = np.sum(np.abs(ab), axis=0) + rng.uniform(0.1, 1.0, m)
        rhs = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
        assert np.array_equal(banded_lu_solve(banded_lu(ab), rhs), solve_banded((2, 2), ab, rhs))

    @pytest.mark.parametrize("seed", range(4))
    def test_factors_reused_for_many_right_hand_sides(self, seed):
        # one banded_lu, then a banded_lu_solve per right-hand side: the
        # bits of a solve_banded of each
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 200))
        ab = rng.normal(size=(5, m))
        ab[2] += rng.choice([-1.0, 1.0], m) * rng.uniform(0.0, 2.0, m)
        factors = banded_lu(ab)
        assert factors[2] == 0
        for _ in range(5):
            rhs = rng.normal(size=m)
            assert np.array_equal(banded_lu_solve(factors, rhs), solve_banded((2, 2), ab, rhs))

    def test_singular_factors_report_the_zero_pivot(self):
        ab = np.zeros((5, 6))
        ab[2] = 1.0
        ab[2, 3] = 0.0
        assert banded_lu(ab)[2] == 4  # LAPACK's 1-based index of the zero pivot


class TestEigen:
    def test_neumann_spectrum_second_order(self):
        # lambda_n = 1 + (n-1)^2 pi^2 under c0 = 1, order-2 convergence in h
        exact = 1.0 + np.arange(10) ** 2 * math.pi ** 2
        errs = []
        for n in (32, 64, 128):
            g = Grid1D(0.0, 1.0, n)
            eig = eigendecompose(assemble(EllipticSpec(a=1.0, c0=1.0), g))
            errs.append(np.max(np.abs(eig.lambdas[:10] - exact) / exact))
        assert math.log2(errs[0] / errs[1]) > 1.9
        assert math.log2(errs[1] / errs[2]) > 1.9

    def test_neumann_ground_mode_constant(self):
        g = Grid1D(0.0, 1.0, 32)
        eig = eigendecompose(assemble(EllipticSpec(a=1.0, c0=1.0), g))
        lam, phi = principal_eigenpair(eig)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(phi, phi[0], rtol=1e-10)

    def test_robin_lambda1_oracle(self):
        ref = robin_lambda1(1.0)
        assert math.sqrt(ref) == pytest.approx(1.30654, abs=1e-5)
        g = Grid1D(0.0, 1.0, 256)
        eig = eigendecompose(assemble(EllipticSpec(a=1.0, sigma_lo=1.0, sigma_hi=1.0), g))
        assert eig.lambdas[0] == pytest.approx(ref, abs=1e-4)

    @pytest.mark.parametrize("spec, n", [
        (EllipticSpec(), 12),  # symmetric: every odd mode has zero mean
        (EllipticSpec(a=lambda x: 1.0 + 0.5 * np.sin(3.0 * x), c0=0.5, sigma_lo=0.3, sigma_hi=2.0), 40),
        (EllipticSpec(c0=1.0, sigma_lo=1.5, sigma_hi=1.5), 128),
    ])
    def test_signs_match_the_column_loop(self, spec, n):
        # the per-column rule: positive weighted mean, else positive largest
        # entry (the first on a tie); it maps -v to the same mode as v
        eig = eigendecompose(assemble(spec, Grid1D(0.0, 1.0, n)))
        flips = np.where(np.random.default_rng(n).random(n + 2) < 0.5, -1.0, 1.0)
        ref = eig.modes * flips
        for j in range(ref.shape[1]):
            s = np.sum(eig.weights * ref[:, j])
            if abs(s) < 1e-12:
                s = ref[np.argmax(np.abs(ref[:, j])), j]
            if s < 0:
                ref[:, j] = -ref[:, j]
        assert np.array_equal(eig.modes, ref)
        if spec.sigma_lo == spec.sigma_hi:
            assert np.sum(np.abs(eig.weights @ eig.modes) < 1e-12) >= n // 2

    @pytest.mark.parametrize("spec, n", [(EllipticSpec(c0=c0), n) for n in (3, 20, 128, 512) for c0 in (0.0, 0.5)]
                             + [(EllipticSpec(a=lambda x: 1.0 + 0.5 * np.sin(3.0 * x), c0=0.5,
                                              sigma_lo=0.3, sigma_hi=2.0), 128)])
    def test_all_eigenpairs_from_one_stevd_call(self, spec, n, monkeypatch):
        calls = []

        def spy(d, e, **kw):
            calls.append(kw)
            return eigh_tridiagonal(d, e, **kw)

        monkeypatch.setattr(elliptic, "eigh_tridiagonal", spy)
        op = assemble(spec, Grid1D(0.0, 1.0, n))
        eig = eigendecompose(op)
        assert calls == [{"lapack_driver": "stevd"}]
        lam, modes, w = eig.lambdas, eig.modes, eig.weights
        assert lam.size == n + 2 and np.all(np.diff(lam) > 0.0)
        gram = modes.T @ (w[:, None] * modes)
        assert np.max(np.abs(gram - np.eye(n + 2))) <= 1e-13
        # (K + c0 W) phi = lam W phi, with K the flux matrix and W the
        # weights, in the symmetric scaling, where the modes have unit norm
        k_phi = op.flux_diag[:, None] * modes
        k_phi[:-1] += op.flux_off[:, None] * modes[1:]
        k_phi[1:] += op.flux_off[:, None] * modes[:-1]
        residual = (k_phi + (spec.c0 - lam) * w[:, None] * modes) / np.sqrt(w)[:, None]
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(lam))
        # the signs: positive weighted mean, else positive largest entry
        mean = w @ modes
        weak = np.abs(mean) < 1e-12
        largest = modes[np.argmax(np.abs(modes), axis=0), np.arange(n + 2)]
        assert np.all(np.where(weak, largest, mean) > 0.0)
        # the eigenvalues of bisection and inverse iteration on the same
        # matrix, to rounding in the spectrum's scale
        sw = np.sqrt(w)
        ref = eigh_tridiagonal(op.flux_diag / w + spec.c0, op.flux_off / (sw[:-1] * sw[1:]),
                               select="i", select_range=(0, n + 1), eigvals_only=True)
        assert np.max(np.abs(lam - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_orthonormality(self):
        g = Grid1D(0.0, 2.0, 60)
        spec = EllipticSpec(a=lambda x: 1.0 + x * x / 4.0, c0=0.3, sigma_lo=0.5, sigma_hi=0.0)
        eig = eigendecompose(assemble(spec, g))
        gram = eig.modes.T @ (eig.weights[:, None] * eig.modes)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_ground_mode_positive(self):
        for spec in (
            EllipticSpec(a=1.0, c0=1.0),
            EllipticSpec(a=lambda x: 1.0 + x, sigma_lo=1.0, sigma_hi=2.0),
            EllipticSpec(a=2.0, c0=0.4, sigma_lo=0.0, sigma_hi=3.0),
        ):
            g = Grid1D(0.0, 1.0, 48)
            lam, phi = principal_eigenpair(eigendecompose(assemble(spec, g)))
            assert np.min(phi) > 0.0

    def test_positivity_threshold(self):
        # with sigma >= 0 and c0 >= 1 the ground eigenvalue stays positive
        for sig in (0.0, 0.5, 2.0):
            g = Grid1D(0.0, 1.0, 24)
            eig = eigendecompose(assemble(EllipticSpec(a=1.0, c0=1.0, sigma_lo=sig, sigma_hi=sig), g))
            assert eig.lambdas[0] >= 1.0 - 1e-12


def solve_a1(op, rhs, boundary_rhs=(0.0, 0.0)):
    """Solve A psi = rhs on the bands of op, with Robin data
    a psi' nu + sigma psi = g at the endpoints added as g / volumes to the
    end rows."""
    f = np.array(rhs, dtype=float)
    f[0] += boundary_rhs[0] / op.volumes[0]
    f[-1] += boundary_rhs[1] / op.volumes[-1]
    return banded_lu_solve(banded_lu(op.bands()), f)


class TestStationary:
    """A1 = -(a u')' - b u' + b0 u is the operator of a spec with c = -b0."""

    def test_constants_satisfy_unit_reaction(self):
        g = Grid1D(0.0, 1.0, 16)
        psi = solve_a1(assemble(EllipticSpec(a=1.0, c=-1.0), g), np.ones(g.n_nodes))
        assert np.allclose(psi, 1.0, atol=1e-12)

    def test_manufactured_solution(self):
        # -(u')' + u = (1 + pi^2) cos(pi x), Neumann-compatible
        errs = []
        for n in (32, 64, 128):
            g = Grid1D(0.0, 1.0, n)
            rhs = (1.0 + math.pi ** 2) * np.cos(math.pi * g.nodes)
            u = solve_a1(assemble(EllipticSpec(a=1.0, c=-1.0), g), rhs)
            errs.append(np.max(np.abs(u - np.cos(math.pi * g.nodes))))
        assert math.log2(errs[0] / errs[1]) > 1.9
        assert math.log2(errs[1] / errs[2]) > 1.9

    def test_auxiliary_psi_problem(self):
        # A1 psi = 1 with boundary flux data = 1 (sigma = 1, b0 = 2)
        g = Grid1D(0.0, 1.0, 64)
        b0 = 2.0
        op = assemble(EllipticSpec(a=1.0, b=0.3, sigma_lo=1.0, sigma_hi=1.0, c=-b0), g)
        psi = solve_a1(op, np.ones(g.n_nodes), boundary_rhs=(1.0, 1.0))
        interior = op.apply_sym(psi) - op.spec.c0 * psi - 0.3 * op.derivative(psi) + b0 * psi
        # interior residual (away from the boundary closure rows)
        assert np.max(np.abs(interior[1:-1] - 1.0)) < 1e-9
        lo, hi = op.robin_residual(psi)
        assert lo == pytest.approx(1.0, abs=5e-3)
        assert hi == pytest.approx(1.0, abs=5e-3)


class TestCoercivity:
    """The discrete form (A1 v, v)_h, the boundary sigma terms included."""

    def test_constant_field_unit_domain(self):
        g = Grid1D(0.0, 1.0, 32)
        op = assemble(EllipticSpec(a=1.0, c=-1.0), g)
        v = np.ones(g.n_nodes)
        assert np.sum(op.volumes * v * op.apply_full(v)) == pytest.approx(1.0, rel=1e-12)

    def test_eigenpair_identity(self):
        # c = -c0: A is the self-adjoint part -(u')' + c0 u itself
        g = Grid1D(0.0, 1.0, 48)
        op = assemble(EllipticSpec(a=1.0, c0=1.0, c=-1.0), g)
        lam, phi = principal_eigenpair(eigendecompose(op))
        assert np.sum(op.volumes * phi * op.apply_full(phi)) == pytest.approx(lam, rel=1e-10)

    def test_random_fields_bounded_below(self):
        # b0 = 10, |b| <= 1: form >= 0.1 (||v||^2 + ||v'||^2) sampled, with
        # midpoint differences for the gradient
        g = Grid1D(0.0, 1.0, 64)
        op = assemble(EllipticSpec(a=1.0, b=lambda x, t: np.sin(3 * x), c=-10.0), g)
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.normal(0, 1, 5)
            v = sum(c[j] * np.cos(j * math.pi * g.nodes) for j in range(5))
            dv = np.diff(v) / g.h
            l2, h1 = np.sum(g.volumes * v * v), np.sum(g.h * dv * dv)
            assert np.sum(op.volumes * v * op.apply_full(v)) >= 0.1 * (l2 + h1)
