"""vcsample benchmark: one command runs every workload, or one of them.

From the root of the repository:

    python3 perfbench/run.py                        # all workloads, summary table
    python3 perfbench/run.py --workload planar-enum --seed 1 --seconds 30 --trace 0

Each workload runs in its own fresh worker process (worker.py) with the
BLAS/OpenMP thread pools pinned to one thread. With --trace 0 the result
holds the end-to-end metrics; with --trace 1 the workload runs once
untraced and once traced, the result holds the per-layer metrics, and the
two runs' outputs must be byte-identical. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("interval-net-calibrate", "interval-relsens", "planar-enum")
DEFAULT_SEED = 1
IMPORT_PROBES = 3
DEADLINE_S = 175.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import vcsample, vcsample.cli; print(time.perf_counter() - t)"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark deadline passed")
    return left


def import_seconds(deadline: float) -> float:
    """Median time to import vcsample in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC], env=_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=_remaining(deadline),
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def run_worker(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(
        cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=_remaining(deadline)
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name} worker exited with code {out.returncode} and no result")
    return json.loads(lines[-1])


def end_to_end(res: dict, import_s: float) -> dict[str, float]:
    setup_s = import_s + res["build_s"]
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + res["work_s"],
        "trials_per_s": res["trials_per_s"],
        "trial_ms_p50": res["trial_ms_p50"],
        "trial_ms_p90": res["trial_ms_p90"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    import_s = import_seconds(deadline)
    plain = run_worker(name, seed, seconds, 0, deadline)
    metrics = end_to_end(plain, import_s)
    out = {
        "plain": plain,
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "errors": list(plain["errors"]),
    }
    if trace:
        traced = run_worker(name, seed, seconds, 1, deadline)
        same = traced["result_sha"] == plain["result_sha"]
        out["attempted"] += traced["attempted"] + 1
        out["failed"] += traced["failed"] + (not same)
        out["errors"] += traced["errors"] + ([] if same else ["traced outputs differ from untraced outputs"])
        layers = {k: tuple(v) for k, v in traced["per_layer"].items()}
        layers["trace.overhead_s"] = (end_to_end(traced, import_s)["wall_s"] - metrics["wall_s"], "s")
        out["per_layer"] = layers
        out["traced"] = traced
    return out


def print_workload(name: str, seed: int, out: dict) -> None:
    plain = out["plain"]
    env = plain["env"]
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, threads {env['threads_env']}")
    print(f"# {name} seed {seed}: {plain['units']} unit(s), {plain['trials']} trials, "
          f"{plain['latency_samples']} latency samples, details {plain['details']}")
    for k, (v, unit) in out["metrics"].items():
        print(f"{name} {k} {v:.6g} {unit}")
    if "calibrate_s" in plain["details"]:
        print(f"{name} calibrate_s {plain['details']['calibrate_s']:.6g} s")
    print(f"{name} error_frac {out['failed'] / out['attempted']:.6g} 1 "
          f"({out['failed']} of {out['attempted']} operations)")
    for err in out["errors"]:
        print(f"# FAILED: {err}")
    if "per_layer" in out:
        calibration = out["traced"].get("calibration")
        if calibration:
            for probe in calibration["probes"][0]:
                cells = ", ".join(
                    f"eps={c['eps']} m={c['m']} trials={c['trials']} failures={c['failures']}"
                    + (" early-stop" if c["early_stop"] else "")
                    for c in probe["cells"]
                )
                print(f"# probe C={probe['C']} {'pass' if probe['passed'] else 'fail'}: {cells}")
        for k, (v, unit) in out["per_layer"].items():
            print(f"{name} {k} {v:.6g} {unit}")
        print(f"# spans written to {out['traced']['trace_file']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="run only this workload (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="time budget of each workload's work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "vcsample", "__init__.py")):
        print(f"error: no vcsample sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.SubprocessError, TimeoutError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_workload(name, args.seed, results[name])

    key = "per_layer" if args.trace else "metrics"
    metrics = {}
    for name, out in results.items():
        prefix = "" if args.workload else f"{name}."
        for k, (v, unit) in out[key].items():
            metrics[prefix + k] = {"value": v, "unit": unit}
    attempted = sum(out["attempted"] for out in results.values())
    failed = sum(out["failed"] for out in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
