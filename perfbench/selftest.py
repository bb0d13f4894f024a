"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that every workload runs, that each
run emits exactly the metrics BENCHMARK.json names with their units, that the
layer spans land on the workloads that exercise them, that a deliberately
perturbed field fails each correctness gate, and that a second seed runs with
no failed operation.  Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run

ROOT = os.path.dirname(run.HERE)
failures = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{' ' + detail if detail else ''}")
    if not ok:
        failures.append(name)


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        return proc.returncode, None
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(label, rc, res, declared):
    check(f"{label} exits 0 with a result", rc == 0 and res is not None)
    if res is None:
        return {}
    check(f"{label} result keys", set(res) == {"correct", "attempted", "failed", "metrics"})
    check(f"{label} no failed operation",
          res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
          f"attempted={res['attempted']} failed={res['failed']}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(f"{label} emits every declared metric with its unit", got == declared,
          f"missing={sorted(set(declared) - set(got))} extra={sorted(set(got) - set(declared))} "
          f"unit mismatch={sorted(k for k in got if k in declared and got[k] != declared[k])}")
    check(f"{label} metric values are finite numbers",
          all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in res["metrics"].values()))
    return {k: v["value"] for k, v in res["metrics"].items()}


def check_gates():
    run.import_program()
    import numpy as np
    from fraccomp import compare
    from fraccomp.evolve_linear import Field

    import workloads

    sl = workloads.SpectralLong(1, "tiny")
    us = sl.ops[0]()
    holds, err = sl.gate(0, us)
    check("spectral-long gate holds on the solver's field", holds, f"gap={err:.2e}")
    bad = us.values.copy()
    bad[-1, 3] += 2.0 * sl.oracle_tol
    holds, err = sl.gate(0, Field(us.grid, us.tgrid, bad))
    check("spectral-long gate fails on a perturbed field", not holds, f"gap={err:.2e}")

    lw = workloads.L1Wide(1, "tiny")
    u = lw.ops[0]()
    holds, err = lw.gate(0, u)
    check("l1-wide gate holds on the solver's field", holds, f"residual={err:.2e}")
    bad = u.values.copy()
    bad[len(bad) // 2, 5] *= 1.0 + 1e-6
    res = workloads.l1_residual(lw.problems[0], Field(u.grid, u.tgrid, bad))
    check("l1-wide residual check fails on a perturbed field",
          res > workloads.RESIDUAL_TOL and not lw.gate(0, Field(u.grid, u.tgrid, bad))[0],
          f"residual={res:.2e}")
    # the positivity tolerance is 10 (h^2 + tau_max^min(1, 2 - alpha)) sup|u|; at
    # tiny sizes only the alpha = 0.7 spec has tau_max small enough to fail
    u = lw.ops[2]()
    bad = u.values.copy()
    bad[-1, 5] = -np.max(np.abs(bad))
    bad_field = Field(u.grid, u.tgrid, bad)
    check("l1-wide positivity check fails on a negative field",
          not compare.check_positivity(bad_field, alpha=lw.problems[2].alpha).holds
          and not lw.gate(2, bad_field)[0])

    va = workloads.VerifyAll(1, "tiny", run.OUT_DIR)
    rows = [{"name": "a", "holds": True, "worst": 0.0, "tolerance": 1.0}]
    check("verify-all gate holds on a clean manifest", va.gate(0, (0, {"checks": rows}))[0])
    check("verify-all gate fails on a non-zero exit", not va.gate(0, (1, {"checks": rows}))[0])
    failing = rows + [{"name": "b", "holds": False, "worst": 2.0, "tolerance": 1.0}]
    check("verify-all gate fails on a failed manifest row", not va.gate(0, (0, {"checks": failing}))[0])


def check_bare_directory():
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = os.path.join(ROOT, run.OUT_DIR, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "l1-wide",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=170, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        check("a directory without the program exits non-zero with no result",
              proc.returncode != 0 and '"metrics"' not in last, f"rc={proc.returncode}")
    finally:
        shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    check("BENCHMARK.json names only the benchmark's workloads", set(names) <= set(run.WORKLOADS))

    layers = {}
    for w in run.WORKLOADS:
        rc, res = bench(w, 1, 0)
        check_result(f"{w} seed 1 untraced", rc, res, end_to_end)
        rc, res = bench(w, 1, 1)
        layers[w] = check_result(f"{w} seed 1 traced", rc, res, per_layer)
        rc, res = bench(w, 2, 0)
        check_result(f"{w} seed 2 untraced", rc, res, end_to_end)

    if all(layers.values()):
        check("relaxation is not called on l1-wide",
              layers["l1-wide"]["special_ml.relax.points"] == 0
              and layers["l1-wide"]["special_ml.relax.calls"] == 0)
        check("spectral-long marches and l1-wide steps the L1 scheme",
              layers["spectral-long"]["evolve_linear.march.calls"] > 0
              and layers["l1-wide"]["evolve_linear.l1.calls"] > 0)
        for w in run.WORKLOADS:
            touched = [k for k, v in layers[w].items()
                       if k.split(".")[0] in ("compare", "cli") and v != 0]
            if w == "verify-all":
                check("compare and cli spans are non-empty on verify-all",
                      layers[w]["cli.verify.calls"] > 0
                      and any(k.startswith("compare.") for k in touched))
            else:
                check(f"compare and cli spans are empty on {w}", not touched, str(touched))

    check_gates()
    check_bare_directory()
    print(f"{len(failures)} self-test checks failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
