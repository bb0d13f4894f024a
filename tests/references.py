"""Reference values that pin the solvers' outputs: the `verify --suite all`
rows at seeds 0, 1 and 7, a digest of each of the 20 criterion-5 fields on
both routes, and a digest of each of the four seed-1 spectral-long fields
(the benchmark's specs: n = 128, N = 1024, alpha = 0.3, 0.5, 0.7, 0.95).
test_references.py and test_acceptance.py compare against references.json.

A change that moves an output on purpose rewrites the references by hand:

    PYTHONPATH=src python tests/references.py [verify] [criterion5] [spectral-long]

rewrites the named groups (all three without arguments) from the tree on
the path, and leaves the others as they are.  Say in the change's notes
which group moved and by how much.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from fraccomp.cli import main
from fraccomp.evolve_linear import solve_linear_l1, solve_linear_spectral
from fraccomp.randomspec import random_linear_problem

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
VERIFY_SEEDS = (0, 1, 7)
SPECTRAL_LONG_ALPHAS = (0.3, 0.5, 0.7, 0.95)
# a field's digest agrees with its reference to this much of the field's sup
DIGEST_RTOL = 1e-12


def load():
    with open(PATH) as fh:
        return json.load(fh)


def digest(values):
    """max|u|, a weighted mean of u over all nodes (weights cos k sin(i + 1)
    at time node k and space node i), and u at twelve fixed nodes: the
    first, quarter, middle and last time nodes, each at the first, middle and
    last space nodes."""
    v = np.asarray(values, dtype=float)
    rows = np.cos(np.arange(v.shape[0]))
    cols = np.sin(np.arange(1, v.shape[1] + 1))
    mean = float(rows @ v @ cols) / float(np.abs(rows).sum() * np.abs(cols).sum())
    ks = (1, v.shape[0] // 4, v.shape[0] // 2, v.shape[0] - 1)
    js = (0, v.shape[1] // 2, v.shape[1] - 1)
    return [float(np.max(np.abs(v))), mean] + [float(v[k, j]) for k in ks for j in js]


def digest_gap(got, ref):
    """The largest difference of two digests, over the reference's max|u|."""
    return float(np.max(np.abs(np.subtract(got, ref)))) / ref[0]


def verify_rows(seed):
    """The rows of `fraccomp verify --suite all --seed seed`, as the manifest
    holds them: name, holds, worst and tolerance."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        main(["verify", "--suite", "all", "--seed", str(seed), "--out", out])
        with open(os.path.join(out, "manifest.json")) as fh:
            return json.load(fh)["checks"]


def criterion5_problems():
    """The 20 specs of test_acceptance's cross_oracle_runs fixture, in its order."""
    rng = np.random.default_rng(77)
    return [random_linear_problem(rng, (0.3, 0.5, 0.7)[j % 3], n=128, N=1024, T=1.0) for j in range(20)]


def spectral_long_problems():
    """The seed-1 spectral-long specs of perfbench/workloads.py."""
    rng = np.random.default_rng(1)
    return [random_linear_problem(rng, a, n=128, N=1024, T=1.0, with_drift=True) for a in SPECTRAL_LONG_ALPHAS]


def _rewrite(groups):
    refs = load() if os.path.exists(PATH) else {}
    if "verify" in groups:
        refs["verify"] = {str(s): verify_rows(s) for s in VERIFY_SEEDS}
    if "criterion5" in groups:
        ps = criterion5_problems()
        refs["criterion5"] = {
            "spectral": [digest(solve_linear_spectral(p).values) for p in ps],
            "l1": [digest(solve_linear_l1(p).values) for p in ps],
        }
    if "spectral-long" in groups:
        refs["spectral-long"] = [digest(solve_linear_spectral(p).values) for p in spectral_long_problems()]
    with open(PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    groups = sys.argv[1:] or ["verify", "criterion5", "spectral-long"]
    unknown = set(groups) - {"verify", "criterion5", "spectral-long"}
    if unknown:
        sys.exit(f"unknown reference groups: {sorted(unknown)}")
    _rewrite(groups)
