"""The program names that perfbench/ reads.

perfbench/ wraps program methods by name for its traced passes and gates
the l1-wide workload with its own residual; a method it names that is gone
fails here rather than in a traced benchmark run.  Only reads perfbench/.
"""

import importlib
import os

import numpy as np
import pytest

from fraccomp.elliptic import EllipticSpec, Grid1D
from fraccomp.evolve_linear import ProblemSpec, solve_linear_l1
from fraccomp.fracops import TimeGrid
from fraccomp.randomspec import random_linear_problem

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_every_traced_method_is_defined_on_its_class(perfbench):
    spans, _ = perfbench
    assert spans.METHODS
    for mod_name, cls_name, meth, span_name, _ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert meth in cls.__dict__, f"{span_name}: {mod_name}.{cls_name}.{meth} is gone"


def test_l1_residual_gate_runs_on_a_tiny_solve(perfbench):
    # the residual reads apply_full and full_matrix: on a mild drift and on
    # one with cell Peclet number b h / a near 300, where the fitted drift
    # is far from the centred one, it sees the operator the L1 steps factor
    _, workloads = perfbench
    mild = random_linear_problem(np.random.default_rng(0), 0.5, n=16, N=32, T=1.0, with_drift=True)
    spec = EllipticSpec(a=1e-3, b=lambda x, t: 5.0 + np.sin(3.0 * x + t), c=-0.5, sigma_lo=1.0)
    steep = ProblemSpec(0.5, spec, Grid1D(0.0, 1.0, 16), TimeGrid.graded(1.0, 32, 4.0), 1.0, source=1.0)
    for p in (mild, steep):
        assert workloads.l1_residual(p, solve_linear_l1(p)) < workloads.RESIDUAL_TOL
