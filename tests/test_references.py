"""The solvers' outputs against the committed references (see references.py,
which also says how to rewrite them)."""

import pytest

from references import DIGEST_RTOL, VERIFY_SEEDS, digest, digest_gap, load, spectral_long_problems, verify_rows

from fraccomp.evolve_linear import solve_linear_spectral

REFS = load()


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_rows(seed):
    # name and verdict exactly; a rounding-level move of a worst value (or
    # of a tolerance) shows without failing on another BLAS
    got, ref = verify_rows(seed), REFS["verify"][str(seed)]
    assert [(r["name"], r["holds"]) for r in got] == [(r["name"], r["holds"]) for r in ref]
    for g, r in zip(got, ref):
        for key in ("worst", "tolerance"):
            assert abs(g[key] - r[key]) <= 1e-12 + 1e-6 * abs(r[key]), (r["name"], key, g[key], r[key])


def test_spectral_long_fields():
    for p, ref in zip(spectral_long_problems(), REFS["spectral-long"], strict=True):
        got = digest(solve_linear_spectral(p).values)
        assert digest_gap(got, ref) <= DIGEST_RTOL, (p.alpha, got, ref)
