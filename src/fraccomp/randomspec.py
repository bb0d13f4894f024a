"""Seeded random problem generation shared by the verification suites."""

from __future__ import annotations

import math

import numpy as np

from .elliptic import EllipticSpec, Grid1D
from .evolve_linear import ProblemSpec
from .fracops import TimeGrid

__all__ = ["random_linear_problem", "random_nonneg_profile"]


_FLOOR = 0.05  # least value of random_nonneg_profile before scaling


def random_nonneg_profile(rng, amplitude=1.0):
    """Smooth nonnegative function of x on (0, 1) with zero-flux-compatible
    cosine modes, at least _FLOOR before it is normalised to sup <= amplitude
    (the harness tolerances are absolute and presume unit-scale data)."""
    c = rng.normal(0.0, 1.0, 3)
    shift = abs(min(0.0, c[0] - abs(c[1]) - abs(c[2]))) + _FLOOR
    peak = shift + c[0] + abs(c[1]) + abs(c[2])
    scale = amplitude / max(peak, _FLOOR)

    def f(x):
        return scale * (shift + c[0] + c[1] * np.cos(math.pi * x) + c[2] * np.cos(2 * math.pi * x))

    return f


def random_linear_problem(
    rng,
    alpha,
    n=32,
    N=128,
    T=1.0,
    with_drift=True,
):
    """A smooth random instance with nonnegative initial value and source,
    mild drift and zeroth-order coefficients, and a random Robin constant."""
    grid = Grid1D(0.0, 1.0, n)
    tgrid = TimeGrid.graded(T, N, 2.0 / alpha)
    a_diff_c = rng.uniform(0.2, 0.6)
    a_diff_p = rng.uniform(0.0, 2 * math.pi)
    b_amp = rng.uniform(-0.4, 0.4) if with_drift else 0.0
    c_amp = rng.uniform(-0.4, 0.4)
    c_freq = rng.integers(1, 4)
    sigma = float(rng.choice((0.0, 0.5, 1.5)))

    spec = EllipticSpec(
        a=lambda x: 1.0 + a_diff_c * np.sin(x + a_diff_p),
        b=(lambda x, t: b_amp * np.cos(2.0 * x + 0.3 * t)) if b_amp else None,
        c=lambda x, t: c_amp * np.sin(c_freq * x) * np.cos(0.5 * t),
        c0=0.5,
        sigma_lo=sigma,
        sigma_hi=sigma,
    )
    a0 = random_nonneg_profile(rng)
    src_prof = random_nonneg_profile(rng, amplitude=0.7)
    decay = rng.uniform(0.0, 1.0)
    source = lambda x, t: src_prof(x) * np.exp(-decay * t)
    return ProblemSpec(alpha, spec, grid, tgrid, a0, source=source)
