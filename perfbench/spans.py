"""Span recorder that wraps fraccomp's public functions from outside.

Wrappers are installed only for the duration of a traced pass and removed
afterwards, so untraced passes run the program's own functions unchanged.
A span is (name, start, end, parent); a span's self time is its duration
minus the time its child spans cover.  Counts are taken at the same
boundaries by per-span hooks.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.child_time = []
        self.stack = []
        self.counts = defaultdict(float)

    def inside(self, name):
        """True when a span called `name` is open on the current stack."""
        return any(self.names[i] == name for i in self.stack)

    def span(self, name, fn, hook=None):
        """Wrap fn so every call records a span; hook(tracer, args, kwargs,
        result, exc) adds counts after the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.child_time.append(0.0)
            self.stack.append(idx)
            result, exc = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
                parent = self.parents[idx]
                if parent >= 0:
                    self.child_time[parent] += t1 - t0
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return wrapper

    def self_times(self):
        """Total self time per span name."""
        out = defaultdict(float)
        for name, t0, t1, child in zip(self.names, self.starts, self.ends, self.child_time):
            out[name] += (t1 - t0) - child
        return out

    def call_counts(self):
        out = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return out

    def dump(self):
        """Spans as rows [name, start, end, parent] relative to the first start."""
        t_ref = min(self.starts) if self.starts else 0.0
        return [[n, round(a - t_ref, 9), round(b - t_ref, 9), p]
                for n, a, b, p in zip(self.names, self.starts, self.ends, self.parents)]


# ---------------------------------------------------------------------------
# count hooks: each runs after the wrapped call returns or raises


def _relax_points(tr, args, kwargs, result, exc):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tr.counts["special_ml.relax.points"] += getattr(x, "size", 1)


def _march_counts(tr, args, kwargs, result, exc):
    p, eig = args[0], args[1]
    n_steps = p.tgrid.nodes.size - 1
    modes = eig.lambdas.size
    tr.counts["evolve_linear.march.steps"] += n_steps
    # sum over steps m = 1..N of (m - 1) * modes history products
    tr.counts["evolve_linear.march.history_terms"] += modes * n_steps * (n_steps - 1) // 2
    if result is not None:
        sweeps = int(result[1].sum())
        tr.counts["evolve_linear.picard.sweeps"] += sweeps
        if tr.inside("evolve_semilinear.solve"):
            tr.counts["evolve_semilinear.picard.sweeps"] += sweeps


def _l1_counts(tr, args, kwargs, result, exc):
    tr.counts["evolve_linear.l1.steps"] += args[0].tgrid.nodes.size - 1
    if tr.inside("compare.monotone"):
        tr.counts["compare.monotone.l1_sweeps"] += 1


def _full_matrix_bytes(tr, args, kwargs, result, exc):
    n = args[0].grid.n_nodes
    tr.counts["elliptic.full_matrix.bytes"] += n * n * 8


def _box_exit(tr, args, kwargs, result, exc):
    from fraccomp.evolve_semilinear import BoxExitError

    if isinstance(exc, BoxExitError):
        tr.counts["evolve_semilinear.box_exits"] += 1


def _cli_exit(tr, args, kwargs, result, exc):
    if exc is not None or result != 0:
        tr.counts["cli.exit_nonzero"] += 1


# (module, attribute, span name, hook); module-level functions are replaced in
# every fraccomp module that bound them, so callers that imported the name
# directly see the wrapper too
FUNCTIONS = [
    ("fraccomp.special_ml", "relaxation_batch", "special_ml.relax", _relax_points),
    ("fraccomp.special_ml", "ml", "special_ml.ml", None),
    ("fraccomp.evolve_linear", "spectral_march", "evolve_linear.march", _march_counts),
    ("fraccomp.evolve_linear", "solve_linear_l1", "evolve_linear.l1", _l1_counts),
    ("fraccomp.elliptic", "assemble", "elliptic.assemble", None),
    ("fraccomp.elliptic", "eigendecompose", "elliptic.eig", None),
    ("fraccomp.elliptic", "banded_solve", "elliptic.banded_solve", None),
    ("fraccomp.fracops", "caputo_l1_weights", "fracops.l1_weights", None),
    ("fraccomp.evolve_semilinear", "solve_semilinear", "evolve_semilinear.solve", _box_exit),
    ("fraccomp.compare", "monotone_iteration", "compare.monotone", None),
    ("fraccomp.compare", "verify_barrier", "compare.verify_barrier", None),
    ("fraccomp.compare", "coefficient_comparison", "compare.coefficient_comparison", None),
    ("fraccomp.cli", "main", "cli.verify", _cli_exit),
]

# methods wrapped on the class, so every instance sees them
METHODS = [
    ("fraccomp.elliptic", "DiscreteOperator", "full_matrix", "elliptic.full_matrix", _full_matrix_bytes),
    ("fraccomp.elliptic", "EigenDecomposition", "project", "elliptic.project", None),
    ("fraccomp.elliptic", "EigenDecomposition", "synthesize", "elliptic.synthesize", None),
    # the per-alpha relaxation table is private; its constructor is the build
    ("fraccomp.special_ml", "_RelaxationTable", "__init__", "special_ml.table.build", None),
]


def _missing(mod_name, attr, span_name):
    print(f"perfbench: {mod_name}.{attr} not found; {span_name} not traced", file=sys.stderr)


class installed:
    """Context manager that puts the tracer's wrappers in place and takes
    them out again on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fraccomp" or name.startswith("fraccomp."))]
        for mod_name, attr, span_name, hook in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr, None)
            if orig is None:
                _missing(mod_name, attr, span_name)
                continue
            wrapper = self.tracer.span(span_name, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, span_name, hook in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name, None)
            if cls is None:
                _missing(mod_name, cls_name, span_name)
                continue
            orig = cls.__dict__[meth]
            self.undo.append((cls, meth, orig))
            setattr(cls, meth, self.tracer.span(span_name, orig, hook))
        return self.tracer

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self.undo):
            setattr(owner, key, orig)
        self.undo.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

# spans reported as <span>.calls and <span>.self_s, per traced pass
PASS_SPANS = (
    "special_ml.relax", "special_ml.ml",
    "evolve_linear.march", "evolve_linear.l1",
    "elliptic.assemble", "elliptic.eig", "elliptic.full_matrix", "elliptic.banded_solve",
    "elliptic.project", "elliptic.synthesize",
    "fracops.l1_weights",
    "evolve_semilinear.solve",
    "compare.monotone", "compare.verify_barrier", "compare.coefficient_comparison",
)

# hook counts, per traced pass, with their units; "computed" marks a count
# derived from array sizes rather than observed
PASS_COUNTS = {
    "special_ml.relax.points": "count",
    "evolve_linear.march.steps": "count",
    "evolve_linear.march.history_terms": "count-computed",
    "evolve_linear.picard.sweeps": "count",
    "evolve_linear.l1.steps": "count",
    "elliptic.full_matrix.bytes": "B-computed",
    "evolve_semilinear.picard.sweeps": "count",
    "evolve_semilinear.box_exits": "count",
    "compare.monotone.l1_sweeps": "count",
    "cli.exit_nonzero": "count",
}


def per_layer(setup_tr, tr, passes, traced_wall_s, untraced_wall_s, march_exp, l1_exp, max_err):
    """{metric: (value, unit)} from the tracer of set-up and the tracer of
    `passes` traced passes.  Table builds are whole-run totals, since set-up
    builds the workload's tables; everything else is per pass."""
    calls = tr.call_counts()
    self_s = tr.self_times()
    m = {}
    for name in PASS_SPANS:
        m[f"{name}.calls"] = (calls[name] / passes, "count")
        m[f"{name}.self_s"] = (self_s[name] / passes, "s")
    m["cli.verify.calls"] = (calls["cli.verify"] / passes, "count")
    m["cli.self_s"] = (self_s["cli.verify"] / passes, "s")
    m["unattributed.self_s"] = (self_s["bench.op"] / passes, "s")
    for name, unit in PASS_COUNTS.items():
        m[name] = (tr.counts[name] / passes, unit)
    points = tr.counts["special_ml.relax.points"]
    m["special_ml.relax.ns_per_point"] = (1e9 * self_s["special_ml.relax"] / points if points else 0.0, "ns")
    steps = tr.counts["evolve_linear.march.steps"]
    m["evolve_linear.picard.sweeps_per_step"] = (
        tr.counts["evolve_linear.picard.sweeps"] / steps if steps else 0.0, "1")
    build = "special_ml.table.build"
    m["special_ml.table.builds"] = (setup_tr.call_counts()[build] + calls[build], "count")
    m["special_ml.table.build_s"] = (setup_tr.self_times()[build] + self_s[build], "s")
    m["evolve_linear.march.N_exponent"] = (march_exp, "1")
    m["evolve_linear.l1.N_exponent"] = (l1_exp, "1")
    m["accuracy.max_err"] = (max_err, "1")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    m["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return m
