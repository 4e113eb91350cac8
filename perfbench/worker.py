"""Run one benchmark workload in this process; print its result as JSON.

run.py starts this in a fresh process per workload. By hand, from the root
of the repository:

    python3 perfbench/worker.py --workload planar-enum --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object: the tally of
operations, the measured numbers, the sha256 of the first unit's outputs
and, with --trace 1, the per-layer numbers from the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5

sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer, calibration_probes, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Tally, sha256_json  # noqa: E402


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_reference(name: str, seed: int):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["workloads"].get(name) if seed == ref["seed"] else None


def run(args) -> dict[str, object]:
    import vcsample
    import vcsample.cli  # noqa: F401  (the workloads call it through the package)

    tally = Tally()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(vcsample)
    wl = WORKLOADS[args.workload](vcsample, args.seed, tally, tracer, OUT_DIR)

    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t)

    if tracer is not None:
        tracer.phase = "work"
    units = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.unit = len(units)
        t = time.perf_counter()
        units.append(wl.run_unit(len(units)))
        last = time.perf_counter() - t
        # start another unit only if it should end within the budget
        if time.perf_counter() - start + last > args.seconds:
            break
    if tracer is not None:
        tracer.phase = "check"
        tracer.uninstall()

    for i, u in enumerate(units[1:], start=1):
        tally.op(u.sha == units[0].sha, f"unit {i} outputs differ from unit 0")
    wl.check_reference(load_reference(wl.name, args.seed), units)
    threads = os_threads()
    tally.op(
        threading.active_count() == 1 and threads in (None, 1),
        f"workload process runs {threads} threads, expected only the main one",
    )

    latencies = [t for u in units for t in u.trial_s]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    result: dict[str, object] = {
        "workload": wl.name,
        "seed": args.seed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "units": len(units),
        "trials": sum(u.trials for u in units),
        "latency_samples": len(latencies),
        "build_s": statistics.median(builds),
        "work_s": statistics.median(u.work_s for u in units),
        "trials_per_s": sum(u.trials for u in units) / sum(u.loop_s for u in units),
        "trial_ms_p50": 1e3 * statistics.median(latencies),
        "trial_ms_p90": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference": wl.reference_values(units),
        "details": {k: statistics.median(u.extra[k] for u in units) for k in units[0].extra},
        "env": environment(),
    }
    result["result_sha"] = sha256_json({"unit": units[0].sha, "reference": result["reference"]})
    if tracer is not None:
        calibration = None
        if wl.calibration is not None:
            calibration = dict(wl.calibration)
            calibration["probes"] = calibration_probes(
                tracer.spans, wl.calibration["planned_trials"], wl.calibration["target_delta"]
            )
        result["calibration"] = calibration
        result["per_layer"] = per_layer_metrics(tracer.spans, len(units), calibration)
        result["trace_file"] = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
        with open(result["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"result": result, "spans": tracer.span_dicts()}, fh)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
