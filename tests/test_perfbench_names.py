"""The program names that perfbench/ reads.

perfbench/ wraps program methods by name for its traced passes and gates
the l1-wide workload with its own residual; a method it names that is gone
fails here rather than in a traced benchmark run.  Only reads perfbench/.
"""

import importlib
import os

import numpy as np
import pytest

from fraccomp.evolve_linear import solve_linear_l1
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
    _, workloads = perfbench
    p = random_linear_problem(np.random.default_rng(0), 0.5, n=16, N=32, T=1.0, with_drift=True)
    assert workloads.l1_residual(p, solve_linear_l1(p)) < workloads.RESIDUAL_TOL
