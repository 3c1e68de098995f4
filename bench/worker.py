"""One measured process: import tlsphot, set up a workload, run and check it.

Started by ``run.py``, one process per measurement, so that its own peak RSS
is the workload's.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def import_tlsphot():
    sys.path.insert(0, SRC)
    import tlsphot
    if os.path.dirname(os.path.dirname(tlsphot.__file__)) != SRC:
        raise ImportError(f"tlsphot imported from {tlsphot.__file__}, "
                          f"not from {SRC}")
    return tlsphot


def blas_facts():
    """Name, version and thread count of the BLAS numpy was built with."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"),
             "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                facts["threads"] = getter()
                return facts
    return facts


def machine_facts():
    import numpy
    import scipy
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as fh:
        mem_total = next(int(line.split()[1]) for line in fh
                         if line.startswith("MemTotal:"))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "mem_total_mb": mem_total / 1024,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_facts()}


def latency_stats(latencies):
    """Median and the highest percentile with at least 10 ops beyond it.

    With 20 ops or fewer no percentile above the median has 10 ops beyond
    it, and the tail falls back to the upper median.
    """
    ops = sorted(latencies)
    n = len(ops)
    rank = max(n // 2 + 1, n - 10)  # 1-based nearest rank
    return {"op_s_p50": statistics.median(ops), "op_s_tail": ops[rank - 1],
            "op_tail_pct": 100.0 * rank / n, "ops": n}


def run_ops(tp, workload, ctx, rng, passes, max_ops, tracer):
    """Run the passes and check each op; returns one record per op."""
    records = []
    for index in range(passes):
        for op in workload.make_pass(tp, ctx, rng, index):
            if max_ops and len(records) == max_ops:
                return records
            label = f"{index}:{len(records)}:{op.kind}"
            if op.prepare is not None:
                op.prepare()
            if tracer:
                tracer.op = label
                tracer.enabled = True
            error = None
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if tracer:
                tracer.enabled = False  # checks run untimed and untraced
            checks = [] if error else op.check(out)
            del out
            records.append({
                "op": label, "latency_s": latency, "error": error,
                "failed_checks": [n for n, _, ok in checks if not ok],
                "deviation": max((d for _, d, _ in checks), default=0.0),
            })
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--ops", type=int, default=0,
                    help="stop after this many ops (0: every pass)")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    tp = import_tlsphot()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(tp)
    traced_from = time.perf_counter()

    rng = random.Random(args.seed)
    ctx = workload.setup(tp, rng)
    setup_s = time.monotonic() - args.spawned
    traced_setup_s = time.perf_counter() - traced_from
    if tracer:
        tracer.enabled = False  # re-enabled around each timed op
    result = {"workload": workload.name, "seed": args.seed,
              "setup_s": setup_s, "inputs": ctx["inputs"]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes = workload.passes(args.seconds)
    records = run_ops(tp, workload, ctx, rng, passes, args.ops, tracer)
    latencies = [r["latency_s"] for r in records]
    failed = sum(1 for r in records if r["error"] or r["failed_checks"])
    result.update(latency_stats(latencies))
    result.update({
        "wall_s": sum(latencies),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "ref_err_max": max(r["deviation"] for r in records),
        "machine": machine_facts(),
        "op_records": records,
    })
    if tracer:
        layers = tracer.layer_metrics(traced_setup_s + sum(latencies))
        result["layers"] = {k: list(v) for k, v in layers.items()}
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
