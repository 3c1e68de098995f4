"""tlsphot benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload circuits-n1201 --seed 1 --seconds 20 \\
        --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` a run
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of a traced process, and the tracing overhead against an untraced
process of the same seed.  Each measured process is a fresh child
(``worker.py``), so its peak RSS is its own.  The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 measured (see ``correct``), 2 no tlsphot sources next to the
benchmark, 3 refused because MemAvailable is below the workload's recorded
peak RSS, 4 a child process failed or overran the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("circuits-n1201", "ns-n4001", "scalar-sweep")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s_p50", "s"),
              ("op_s_tail", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3  # set-up is measured this many times per run, median kept
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def mem_available_mb():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(3, "MemAvailable missing from /proc/meminfo")


def recorded_peak_mb(workload):
    with open(os.path.join(BENCH, "baseline.json")) as fh:
        return json.load(fh)["workloads"][workload]["peak_rss_mb"]


def spawn(args, deadline, setup_only=False, trace=0, trace_file=None):
    """Run one worker process to completion; returns its JSON result."""
    need, have = recorded_peak_mb(args.workload), mem_available_mb()
    if have < need:
        raise BenchError(3, f"refusing {args.workload}: MemAvailable "
                            f"{have:.0f} MB is below its recorded peak RSS "
                            f"{need:.0f} MB")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--ops", str(args.ops)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(4, "time limit reached before a child could start")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(4, f"{args.workload} child overran the time limit")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(4, f"{args.workload} child exited with "
                            f"{proc.returncode}")
    return json.loads(lines[-1])


def measure(args):
    """One benchmark run of one workload: (correct, metrics, measured child).

    Metrics map name -> (value, unit).
    """
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        plain = spawn(args, deadline)
        main = spawn(args, deadline, trace=1, trace_file=stem + ".spans.jsonl")
        metrics = {k: tuple(v) for k, v in main["layers"].items()}
        overhead = 100.0 * (main["wall_s"] / plain["wall_s"] - 1.0)
        metrics["bench.trace_overhead_pct"] = (overhead, "%")
        metrics["check.error_rate"] = (main["error_rate"], "1")
        metrics["check.ref_err_max"] = (main["ref_err_max"], "1")
        children = [plain, main]
    else:
        setups = [spawn(args, deadline, setup_only=True)
                  for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(args, deadline)
        main["setup_samples_s"] = [c["setup_s"] for c in setups + [main]]
        main["setup_s"] = statistics.median(main["setup_samples_s"])
        metrics = {name: (main[name], unit) for name, unit in END_TO_END}
        children = [main]
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metrics": metrics, "children": children}, fh, indent=1)
    correct = all(c["failed"] == 0 for c in children)
    return correct, metrics, main


def report(args, metrics, main):
    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{main['ops']} ops in {main['passes']} passes, tail percentile "
          f"{main['op_tail_pct']:.1f}, inputs {json.dumps(main['inputs'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  error_rate {main['error_rate']:g} "
          f"({main['failed']}/{main['attempted']}), ref_err_max "
          f"{main['ref_err_max']:.3g}")
    print(f"  machine {json.dumps(main['machine'])}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="stop each process after this many ops (smoke test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tlsphot",
                                       "__init__.py")):
        print(f"no tlsphot sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        try:
            correct, metrics, main_child = measure(args)
        except BenchError as exc:
            print(str(exc), file=sys.stderr)
            return exc.code
        report(args, metrics, main_child)
        total["correct"] &= correct
        total["attempted"] += main_child["attempted"]
        total["failed"] += main_child["failed"]
        prefix = "" if len(names) == 1 else name + "."
        total["metrics"].update({prefix + k: {"value": v, "unit": u}
                                 for k, (v, u) in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
