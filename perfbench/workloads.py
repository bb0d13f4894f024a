"""The three benchmark workloads: seeded inputs, the operations of one pass,
and the correctness gate of every operation.

Each workload exposes `alphas` (whose relaxation tables belong to set-up),
`ops` (zero-argument callables, one pass of the fixed batch) and
`gate(i, result)`, which returns (holds, worst) for the result of ops[i].
Program functions are looked up on their modules at call time, so a traced
pass sees the wrappers of spans.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

from fraccomp import cli, compare, evolve_linear, special_ml
from fraccomp.elliptic import assemble
from fraccomp.fracops import TimeGrid, caputo_l1_field
from fraccomp.randomspec import random_linear_problem

# discrete L1 residual relative to ||A||_inf max|u|: roundoff level
RESIDUAL_TOL = 1e-12

SIZES = {
    "full": {
        # oracle_tol: criterion 5's bound on the spectral-versus-L1 sup difference
        "spectral": {"n": 128, "N": 1024, "alphas": (0.3, 0.5, 0.7, 0.95), "oracle_tol": 1e-3},
        "l1": {"n": 1024, "N": 256, "alphas": (0.3, 0.5, 0.7)},
        "suites": ("ml", "fracops", "positivity", "ordering", "barriers", "monotone", "decay"),
        "sweep": (256, 512, 1024),
    },
    "tiny": {
        # the difference shrinks about like 1/N; at N = 48 it reaches ~1e-2
        "spectral": {"n": 16, "N": 48, "alphas": (0.3, 0.5, 0.7, 0.95), "oracle_tol": 3e-2},
        "l1": {"n": 64, "N": 32, "alphas": (0.3, 0.5, 0.7)},
        "suites": ("ml", "barriers", "decay"),
        "sweep": (16, 32, 64),
    },
}


def build_tables(alphas):
    """Build the per-alpha relaxation tables through the public entry point."""
    for a in alphas:
        special_ml.relaxation_batch(a, np.ones(1))


def _problems(seed, n, N, alphas):
    rng = np.random.default_rng(seed)
    return [random_linear_problem(rng, a, n=n, N=N, T=1.0, with_drift=True) for a in alphas]


def l1_residual(p, u):
    """max_k |caputo_l1_field + A(t_k) u_k - F(t_k)| / (||A||_inf max|u|):
    the residual of the implicit L1 scheme, relative to its scale."""
    op = assemble(p.elliptic, p.grid)
    tn = p.tgrid.nodes
    v = u.values
    cap = caputo_l1_field(p.tgrid, v, p.alpha)
    worst = 0.0
    for k in range(1, tn.size):
        r = cap[k] + op.apply_full(v[k], tn[k])
        f = p.source_at(tn[k], node_index=k)
        if f is not None:
            r = r - f
        worst = max(worst, float(np.max(np.abs(r))))
    norm_a = max(float(np.max(np.sum(np.abs(op.full_matrix(t)), axis=1)))
                 for t in (tn[1], tn[tn.size // 2], tn[-1]))
    return worst / (norm_a * float(np.max(np.abs(v))))


class SpectralLong:
    """Criterion-5 resolution specs solved by the spectral Duhamel march; the
    gate is the implicit L1 oracle, computed once per spec."""

    name = "spectral-long"

    def __init__(self, seed, size):
        cfg = SIZES[size]["spectral"]
        self.alphas = cfg["alphas"]
        self.problems = _problems(seed, cfg["n"], cfg["N"], self.alphas)
        self.oracle_tol = cfg["oracle_tol"]
        self.sweep_Ns = SIZES[size]["sweep"]
        self._oracle = {}
        self.ops = [lambda p=p: evolve_linear.solve_linear_spectral(p) for p in self.problems]

    def gate(self, i, us):
        if i not in self._oracle:
            self._oracle[i] = evolve_linear.solve_linear_l1(self.problems[i])
        err = float(np.max(np.abs(us.values - self._oracle[i].values)))
        return err <= self.oracle_tol, err

    def sweep_problems(self):
        """The alpha = 0.5 spec of the batch at each sweep resolution."""
        p = self.problems[self.alphas.index(0.5)]
        return [replace(p, tgrid=TimeGrid.graded(1.0, N, 2.0 / p.alpha)) for N in self.sweep_Ns]


class L1Wide:
    """A wide space grid and a moderate time grid solved by the implicit L1
    scheme; gated by the discrete residual and by positivity."""

    name = "l1-wide"

    def __init__(self, seed, size):
        cfg = SIZES[size]["l1"]
        self.alphas = cfg["alphas"]
        self.problems = _problems(seed, cfg["n"], cfg["N"], self.alphas)
        self.ops = [lambda p=p: evolve_linear.solve_linear_l1(p) for p in self.problems]

    def gate(self, i, u):
        p = self.problems[i]
        res = l1_residual(p, u)
        positive = compare.check_positivity(u, alpha=p.alpha).holds
        return res <= RESIDUAL_TOL and positive, res


class VerifyAll:
    """The verification suites, each through the command-line entry point."""

    name = "verify-all"
    alphas = (0.3, 0.5, 0.7)

    def __init__(self, seed, size, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.ops = [lambda s=s: self._verify(s) for s in SIZES[size]["suites"]]

    def _verify(self, suite):
        path = os.path.join(self.out_dir, "manifest.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        argv = ["verify", "--suite", suite, "--seed", str(self.seed), "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        with open(path, encoding="utf-8") as fh:
            return rc, json.load(fh)

    def gate(self, i, result):
        """Holds when the run exits 0 and every manifest row holds; the
        worst quantity is the largest worst/tolerance margin."""
        rc, manifest = result
        rows = manifest.get("checks", [])
        margin = max((r["worst"] / r["tolerance"] for r in rows
                      if r["tolerance"] > 0 and math.isfinite(r["worst"])), default=0.0)
        return rc == 0 and bool(rows) and all(r["holds"] for r in rows), margin


def make(name, seed, size, out_dir):
    if name == SpectralLong.name:
        return SpectralLong(seed, size)
    if name == L1Wide.name:
        return L1Wide(seed, size)
    if name == VerifyAll.name:
        return VerifyAll(seed, size, out_dir)
    raise KeyError(name)

