"""Reference values that pin the solvers' outputs: the `verify --suite all`
rows at seeds 0, 1 and 7, a digest of each of the 20 criterion-5 fields on
both routes, a digest of each of the four seed-1 spectral-long fields
(the benchmark's specs: n = 128, N = 1024, alpha = 0.3, 0.5, 0.7, 0.95),
and the exit codes of both routes on the seed-5 list of hard configs.
test_references.py, test_acceptance.py and test_cli.py compare against
references.json.

A change that moves an output on purpose rewrites the references by hand:

    PYTHONPATH=src python tests/references.py [verify] [criterion5] [spectral-long] [seed5]

rewrites the named groups (all four without arguments) from the tree on
the path, and leaves the others as they are.  For each group it prints the
largest move against the file it replaces: over the field's sup for the
field digests, relative to the worst value for the verify rows, and the
configs whose exit codes changed for seed5.  Say in the change's notes
which group moved and by how much.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile

import numpy as np

from fraccomp.cli import ConfigError, build_problem, main, parse_config
from fraccomp.evolve_linear import SolverError, solve_linear_l1, solve_linear_spectral
from fraccomp.randomspec import random_linear_problem

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
VERIFY_SEEDS = (0, 1, 7)
SPECTRAL_LONG_ALPHAS = (0.3, 0.5, 0.7, 0.95)
# a field's digest agrees with its reference to this much of the field's sup
DIGEST_RTOL = 1e-12
GROUPS = ("verify", "criterion5", "spectral-long", "seed5")
# a value grid of hard cases: seeded config lists draw one rng.choice per
# key, in this order (test_cli.TestSemilinearFuzz adds a semilinear term)
HARD_GRID = {
    "alpha": ("0.05", "0.3", "0.5", "0.9", "0.99"),
    "T": ("1e-6", "0.01", "1", "10", "1e6"),
    "a": ("1", "1+x^2", "1e-6", "1e6", "2+sin(t)"),
    "b": ("none", "0.3", "5", "-30"),
    "c": ("none", "-1", "60", "-60", "sin(t)"),
    "spare": ("0", "0.5", "1", "100"),  # drawn and dropped, so that the seeded lists keep their configs
    "sigma": ("0", "1", "100"),
    "n_space": ("3", "8", "16"),
    "n_time": ("2", "8", "32"),
}


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


def hard_configs(seed, count, keys=HARD_GRID):
    """count configs drawn by random.Random(seed) from keys, a value grid
    that extends HARD_GRID, with both Robin constants the drawn sigma and
    the spare draw dropped."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        cfg = {key: rng.choice(values) for key, values in keys.items()}
        del cfg["spare"]
        sigma = cfg.pop("sigma")
        cfg.update(sigma_lo=sigma, sigma_hi=sigma)
        configs.append(cfg)
    return configs


def seed5_configs():
    """The seed-5 list: 150 configs of hard_configs(5) with initial and
    source 1."""
    return [dict(cfg, initial="1", source="1") for cfg in hard_configs(5, 150)]


def exit_code(solve, problem):
    """(the exit code of `fraccomp solve` on a built problem, the field or None)."""
    try:
        return 0, solve(problem)
    except SolverError:
        return 3, None


def seed5_runs():
    """For each config of the seed-5 list: (problem, or None where the
    build refuses it, (spectral exit code, field), (L1 exit code, field)),
    as `fraccomp solve` ends on each route."""
    runs = []
    for cfg in seed5_configs():
        try:
            problem, _ = build_problem(parse_config(overrides=[f"{k}={v}" for k, v in cfg.items()]))
        except ConfigError:
            runs.append((None, (2, None), (2, None)))
            continue
        runs.append((problem, exit_code(solve_linear_spectral, problem), exit_code(solve_linear_l1, problem)))
    return runs


def seed5_codes(runs):
    """The exit codes of seed5_runs, as references.json holds them."""
    return {"spectral": [s[0] for _, s, _ in runs], "l1": [l1[0] for _, _, l1 in runs]}


def _moves(group, new, old):
    """A line that states the largest move of a group against its old references."""
    if group == "verify":
        rel = [abs(g["worst"] - r["worst"]) / abs(r["worst"]) if r["worst"] else abs(g["worst"])
               for seed in new for g, r in zip(new[seed], old[seed])]
        return f"verify: worst values moved by at most {max(rel):.3g} relative"
    if group == "seed5":
        changed = {route: [i for i, (g, r) in enumerate(zip(new[route], old[route])) if g != r] for route in new}
        return "seed5: exit codes changed at " + ", ".join(f"{route} {changed[route]}" for route in new)
    pairs = zip(new, old) if group == "spectral-long" else ((g, r) for route in new
                                                             for g, r in zip(new[route], old[route]))
    return f"{group}: digests moved by at most {max(digest_gap(g, r) for g, r in pairs):.3g} of sup|u|"


def _rewrite(groups):
    refs = load() if os.path.exists(PATH) else {}
    new = {}
    if "verify" in groups:
        new["verify"] = {str(s): verify_rows(s) for s in VERIFY_SEEDS}
    if "criterion5" in groups:
        ps = criterion5_problems()
        new["criterion5"] = {
            "spectral": [digest(solve_linear_spectral(p).values) for p in ps],
            "l1": [digest(solve_linear_l1(p).values) for p in ps],
        }
    if "spectral-long" in groups:
        new["spectral-long"] = [digest(solve_linear_spectral(p).values) for p in spectral_long_problems()]
    if "seed5" in groups:
        new["seed5"] = seed5_codes(seed5_runs())
    for group, values in new.items():
        print(_moves(group, values, refs[group]) if group in refs else f"{group}: new")
    refs.update(new)
    with open(PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    groups = sys.argv[1:] or list(GROUPS)
    unknown = set(groups) - set(GROUPS)
    if unknown:
        sys.exit(f"unknown reference groups: {sorted(unknown)}")
    _rewrite(groups)
