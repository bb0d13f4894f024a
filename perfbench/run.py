"""fraccomp benchmark: one workload per process, seeded inputs, gated outputs.

    python3 perfbench/run.py --workload spectral-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The timed window repeats passes over the workload's fixed batch until
`--seconds` of operation time have elapsed (at least one pass); `wall_s` is
the sum over operations of each one's median time, and the end-to-end
`calibrated_s` the same with each time taken relative to a reference loop
timed around it.  With `--trace 0` the last line of standard output is the
end-to-end result; with `--trace 1` every operation is run once untraced and
once traced, and the last line holds the per-layer metrics and the tracing
overhead.  See NOTES.md for what each metric should move.
"""

T0 = __import__("time").perf_counter()

import argparse
import contextlib
import ctypes
import gzip
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".perfbench-out"
# set-up is sampled at least SETUP_MIN times, and further (up to SETUP_MAX)
# while the samples total less than SETUP_BUDGET_S, so cheap set-ups get more
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 6.0
# BLAS and OpenMP pools of this process only; set before numpy is imported
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# glibc allocator of this process only: serve blocks up to 32 MiB from the heap
# and never trim it, so the solvers' large per-step temporaries are reused
# instead of being mapped and page-faulted afresh on every step (see NOTES.md)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_B, TRIM_THRESHOLD_B = 32 << 20, (1 << 31) - 1

# reference loop, timed before and after every operation: pure interpreter
# work, about 6 ms on the reference machine (NOMINAL_REF_S)
REF_ITERS, NOMINAL_REF_S = 100_000, 0.006

# BENCHMARK.json names spectral-long and verify-all; l1-wide stays runnable
# by hand (see NOTES.md for why it is not among them)
WORKLOADS = ("spectral-long", "l1-wide", "verify-all")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit (one set-up sample)")
    return ap.parse_args(argv)


def cap_threads():
    n = min(THREAD_CAP, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def pin_allocator():
    """Set glibc's mmap and trim thresholds; False where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_B)) and bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_B))


def import_program():
    """Import fraccomp from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "fraccomp")):
        raise ImportError(f"no fraccomp package under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import fraccomp

    if os.path.dirname(os.path.dirname(os.path.abspath(fraccomp.__file__))) != SRC:
        raise ImportError("fraccomp was imported from outside this checkout")
    return fraccomp


def environment(load_at_start, threads, pinned):
    import mpmath
    import numpy
    import scipy

    blas = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "thread_cap": threads,
        "allocator_pinned": pinned,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "loadavg_at_start": load_at_start,
    }


def setup(args, out_dir, tracer=None):
    """Import the program, generate the inputs and build the workload's
    relaxation tables; everything a run does before its timed batch."""
    import_program()
    import workloads

    with spans.installed(tracer) if tracer is not None else contextlib.nullcontext():
        wl = workloads.make(args.workload, args.seed, "tiny" if args.tiny else "full", out_dir)
        workloads.build_tables(wl.alphas)
    return wl


def setup_samples(args, first_s):
    """Set-up seconds of this run plus further samples, each in a fresh
    interpreter, run one at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = [first_s]
    while len(out) < SETUP_MIN or (sum(out) < SETUP_BUDGET_S and len(out) < SETUP_MAX):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-400:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _call(op):
    """(seconds, ok, result or exception) of one operation."""
    t0 = time.perf_counter()
    try:
        out, ok = op(), True
    except Exception as exc:  # a failed operation is counted, not fatal
        out, ok = exc, False
    return time.perf_counter() - t0, ok, out


def reference_seconds():
    """Seconds of the reference loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for j in range(REF_ITERS):
        acc += j * 0.5
    return time.perf_counter() - t0


def run_pass(wl, op_s, ref_s, traced_op_s, tracer=None, k=0):
    """Pass k over the batch: appends the seconds of each operation to its
    list in op_s (untraced) and traced_op_s, and the mean of the reference
    loop's seconds just before and just after the operation to its list in
    ref_s.  Returns the results as (op index, ok, result).  With a tracer
    each operation runs untraced and traced back to back, the order
    alternating from one operation to the next so that warm-up favours
    neither side."""
    results = []
    ref = reference_seconds()
    for i, op in enumerate(wl.ops):
        if tracer is None:
            sides = (False,)
        else:
            sides = (False, True) if (i + k) % 2 == 0 else (True, False)
        for traced in sides:
            if traced:
                with spans.installed(tracer):
                    dt, ok, out = _call(tracer.span("bench.op", op))
            else:
                dt, ok, out = _call(op)
            (traced_op_s if traced else op_s)[i].append(dt)
            results.append((i, ok, out))
        after = reference_seconds()
        ref_s[i].append(0.5 * (ref + after))
        ref = after
    return results


def batch_seconds(op_s):
    """Seconds of one pass over the batch: the sum over operations of the
    median of each operation's times, so a slow spell of the machine in one
    pass moves few of the medians."""
    return sum(statistics.median(ts) for ts in op_s)


def calibrated_seconds(op_s, ref_s):
    """batch_seconds with each operation's time taken relative to the
    reference loop around it and scaled to NOMINAL_REF_S: the seconds the
    batch would take with the machine at its nominal speed.  The shared
    machine's speed drifts by up to 50% over minutes and the reference loop
    slows with it (see NOTES.md)."""
    return NOMINAL_REF_S * sum(statistics.median(t / r for t, r in zip(ts, rs))
                               for ts, rs in zip(op_s, ref_s))


def gate_pass(wl, results, worst):
    """Gate each result outside the timed window; returns the failure count."""
    failed = 0
    for i, ok, res in results:
        if not ok:
            print(f"perfbench: op {i} raised:", file=sys.stderr)
            traceback.print_exception(res, file=sys.stderr)
            failed += 1
            continue
        holds, err = wl.gate(i, res)
        worst.append(err)
        if not holds:
            print(f"perfbench: op {i} failed its gate (worst {err:.3e})", file=sys.stderr)
            failed += 1
    return failed


def n_exponent(Ns, times):
    """Least-squares slope of log(time) against log(N)."""
    import numpy as np

    return float(np.polyfit(np.log(Ns), np.log(times), 1)[0])


def n_sweep(wl):
    """Solve time of one spec at each sweep resolution on both routes."""
    from fraccomp import evolve_linear

    probs = wl.sweep_problems()
    Ns = [p.tgrid.nodes.size - 1 for p in probs]
    t_march, t_l1 = [], []
    for p in probs:
        t = time.perf_counter()
        evolve_linear.solve_linear_spectral(p)
        t_march.append(time.perf_counter() - t)
        reps = []
        for _ in range(3):
            t = time.perf_counter()
            evolve_linear.solve_linear_l1(p)
            reps.append(time.perf_counter() - t)
        t_l1.append(statistics.median(reps))
    return n_exponent(Ns, t_march), n_exponent(Ns, t_l1), dict(N=Ns, march_s=t_march, l1_s=t_l1)


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM unwind normally, so that a running set-up sample is killed
    # and waited for and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_at_start = os.getloadavg()
    threads = cap_threads()
    pinned = pin_allocator()
    os.makedirs(OUT_DIR, exist_ok=True)
    verify_dir = os.path.join(OUT_DIR, f"verify-{os.getpid()}")
    os.makedirs(verify_dir, exist_ok=True)
    try:
        return _run(args, load_at_start, threads, pinned, verify_dir)
    finally:
        for name in os.listdir(verify_dir):
            os.remove(os.path.join(verify_dir, name))
        os.rmdir(verify_dir)


def _run(args, load_at_start, threads, pinned, verify_dir):
    setup_tracer = spans.Tracer() if args.trace else None
    tracer = spans.Tracer() if args.trace else None
    try:
        wl = setup(args, verify_dir, setup_tracer)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    op_s = [[] for _ in wl.ops]
    ref_s = [[] for _ in wl.ops]
    traced_op_s = [[] for _ in wl.ops]
    worst = []
    passes = attempted = failed = 0
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    while passes == 0 or sum(map(sum, op_s)) < args.seconds:
        results = run_pass(wl, op_s, ref_s, traced_op_s, tracer, passes)
        passes += 1
        attempted += len(results)
        failed += gate_pass(wl, results, worst)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = ru1.ru_maxrss / 1024.0
    wall_s = batch_seconds(op_s)

    env = environment(load_at_start, threads, pinned)
    summary = {"workload": args.workload, "seed": args.seed, "passes": passes,
               "ops_per_pass": len(wl.ops), "pass_s": [sum(ts) for ts in zip(*op_s)],
               "wall_s": wall_s, "ref_s_median": statistics.median(sum(ref_s, [])),
               "loop_user_s": ru1.ru_utime - ru0.ru_utime, "loop_sys_s": ru1.ru_stime - ru0.ru_stime,
               "fail_frac": failed / attempted, "worst_gate": max(worst, default=0.0)}
    if args.workload == "spectral-long":
        summary["max_err"] = max(worst, default=0.0)

    if tracer is None:
        setups = setup_samples(args, setup_s)
        summary["setup_samples_s"] = setups
        metrics = {
            "calibrated_s": (calibrated_seconds(op_s, ref_s), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        sweep = n_sweep(wl) if args.workload == "spectral-long" else (0.0, 0.0, None)
        summary["n_sweep"] = sweep[2]
        metrics = spans.per_layer(setup_tracer, tracer, passes, batch_seconds(traced_op_s),
                                   wall_s, sweep[0], sweep[1], summary.get("max_err", 0.0))
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"env": env, "summary": summary, "spans": tracer.dump()}, fh)
        summary["trace_file"] = path

    print("perfbench-env " + json.dumps(env, sort_keys=True))
    print("perfbench-summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
