"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in `setup`, then
`run_unit` does one fixed unit of work and returns what it measured. The
worker repeats units for the run's time budget. Every output the program
returns is checked, and every check is one tallied operation. Digests and
reference comparisons happen outside the timed region.

See README.md next to this file for why each workload exists and which
layer dominates it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any

# relative slack that keeps a bound check from failing on last-bit rounding,
# the same tolerance vcsample's verifiers grant
REL_TOL = 1e-9


@dataclass
class UnitResult:
    """What one unit of work measured: seconds of timed work, per-trial
    latencies in seconds, the trials completed, the trial-loop seconds they
    took, and the sha256 of the unit's outputs."""

    work_s: float
    trial_s: list[float]
    trials: int
    loop_s: float
    sha: str
    extra: dict[str, Any] = field(default_factory=dict)


class Tally:
    """Operations attempted and failed; a failed check names itself."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def sha256_json(obj: Any) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _report_ok(tally: Tally, rep, what: str) -> bool:
    return tally.op(rep.passed == (rep.worst_margin >= 0.0), f"{what}: passed != (worst_margin >= 0)")


def member_digest(rs) -> tuple[str, int]:
    """sha256 of the sorted member sets of a range set, and how many
    distinct sets there are.

    Each member set is packed into a bit mask over the ground set, so the
    sorted masks stand for the sorted `member_sets()` without building
    hundreds of thousands of Python frozensets.
    """
    import numpy as np

    nbytes = (rs.n + 7) // 8
    masks = np.zeros((len(rs), nbytes * 8), dtype=bool)
    for k in range(len(rs)):
        masks[k, rs.members(k)] = True
    packed = np.ascontiguousarray(np.packbits(masks, axis=1))
    keys = np.unique(packed.view(f"V{nbytes}").ravel())
    return hashlib.sha256(keys.tobytes()).hexdigest(), int(keys.shape[0])


class Workload:
    name = ""
    # planned trials per probe and target failure rate, for the workload
    # that calibrates
    calibration: dict[str, Any] | None = None

    def __init__(self, vc, seed: int, tally: Tally, tracer, out_dir: str):
        self.vc = vc
        self.seed = seed
        self.tally = tally
        self.tracer = tracer
        self.out_dir = out_dir

    def label(self, source: str) -> None:
        if self.tracer is not None:
            self.tracer.source = source

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def check_reference(self, ref: dict[str, Any] | None, units: list[UnitResult]) -> None:
        """Seed-invariant checks, then, on the reference seed, the
        comparison with the recorded reference results."""
        raise NotImplementedError

    def reference_values(self, units: list[UnitResult]) -> dict[str, Any]:
        raise NotImplementedError


class IntervalNetCalibrate(Workload):
    """Time to a calibrated C, then the experiment at that C via the CLI."""

    name = "interval-net-calibrate"
    N = 2000
    EPS = (0.05, 0.1)
    DELTA = 0.25
    TARGET = 0.1
    TRIALS = 100

    def __init__(self, *args):
        super().__init__(*args)
        h = self.vc.harness
        self.cfg = h.ExperimentConfig(
            family="intervals",
            property="eps_net",
            source=h.SourceSpec("uniform", n=self.N),
            eps_values=self.EPS,
            delta=self.DELTA,
            trials=self.TRIALS,
            seed=self.seed,
        )
        self.calibration = {"planned_trials": self.TRIALS, "target_delta": self.TARGET}

    def setup(self) -> None:
        vc = self.vc
        self.label("uniform")
        fam = vc.ranges.family("intervals")
        X = vc.harness.generate_ground_set(self.cfg.source, fam.ambient_dim, self.seed)
        self.rs = vc.ranges.induced_ranges(fam, X)
        distinct = len(set(X.coords[:, 0].tolist()))
        self.expected_count = distinct * (distinct + 1) // 2 + 1

    def run_unit(self, index: int) -> UnitResult:
        vc = self.vc
        t0 = time.perf_counter()
        C = vc.harness.calibrate_constant(self.cfg, self.TARGET, min_trials=self.TRIALS)
        t1 = time.perf_counter()
        cfg_path = os.path.join(self.out_dir, f"{self.name}.config.json")
        out_path = os.path.join(self.out_dir, f"{self.name}.result.json")
        csv_path = os.path.join(self.out_dir, f"{self.name}.cells.csv")
        doc = self.cfg.to_json_dict()
        doc["C"] = C
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        t2 = time.perf_counter()
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout):
            rc = vc.cli.main(
                ["experiment", "--config", cfg_path, "--out", out_path, "--csv", csv_path]
            )
        t3 = time.perf_counter()
        stdout.flush()
        payload = stdout.buffer.getvalue()

        tally = self.tally
        tally.op(math.isfinite(C) and C > 0.0, f"calibrated C={C!r} is not a positive number")
        with open(out_path, "rb") as fh:
            tally.op(rc == 0 and fh.read() == payload, "experiment exit code or --out bytes differ from stdout")
        result = json.loads(payload)
        bound = self.DELTA + 3.0 * math.sqrt(self.DELTA * (1.0 - self.DELTA) / self.TRIALS)
        for cell in result["cells"]:
            tally.op(
                cell["failure_rate"] <= bound,
                f"cell eps={cell['eps']}: failure rate {cell['failure_rate']} above delta + 3 sigma = {bound:.4f}",
            )
            for d in cell["trial_details"]:
                tally.op(d["passed"] == (d["worst_margin"] >= 0.0), f"trial {d['seed']}: passed != (worst_margin >= 0)")
        with open(csv_path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cell_s = [float(r["wall_time_s"]) for r in rows]
        return UnitResult(
            work_s=(t1 - t0) + (t3 - t2),
            # the CLI reports time per cell, not per trial: each cell's mean
            trial_s=[s / int(r["trials"]) for s, r in zip(cell_s, rows)],
            trials=sum(int(r["trials"]) for r in rows),
            loop_s=sum(cell_s),
            sha=sha256_json(payload),
            extra={"C": C, "calibrate_s": t1 - t0, "experiment_s": t3 - t2},
        )

    def check_reference(self, ref, units) -> None:
        u = units[0]
        self.tally.op(len(self.rs) == self.expected_count, f"{len(self.rs)} interval ranges, expected {self.expected_count}")
        if ref is None:
            return
        self.tally.op(u.extra["C"] == ref["C"], f"calibrated C {u.extra['C']} != reference {ref['C']}")
        self.tally.op(u.sha == ref["experiment_sha256"], "experiment JSON sha256 differs from the reference")
        self.tally.op(len(self.rs) == ref["range_count"], f"range count {len(self.rs)} != reference {ref['range_count']}")

    def reference_values(self, units) -> dict[str, Any]:
        return {"C": units[0].extra["C"], "experiment_sha256": units[0].sha, "range_count": len(self.rs)}


class IntervalRelSens(Workload):
    """Sensitive, relative and relative-sensitive verification of one
    relative-sized sample per trial, then count queries on that sample."""

    name = "interval-relsens"
    N = 2000
    P = 0.05
    EPS = 0.3
    DELTA = 0.25
    C = 0.1
    TRIALS_PER_UNIT = 10
    LIGHT_QUERIES = 8
    HEAVY_QUERIES = 8

    def setup(self) -> None:
        import numpy as np

        vc = self.vc
        self.label("uniform")
        fam = vc.ranges.family("intervals")
        self.fam = fam
        self.X = vc.harness.generate_ground_set(vc.harness.SourceSpec("uniform", n=self.N), 1, self.seed)
        self.rs = vc.ranges.induced_ranges(fam, self.X)
        self.m = vc.sampling.size_relative(self.P, self.EPS, fam.vc_dimension, self.DELTA, self.C)
        rng = np.random.default_rng([self.seed, 1])
        widths = np.concatenate(
            [
                rng.uniform(0.001, 0.8 * self.P, self.LIGHT_QUERIES),
                rng.uniform(2.0 * self.P, 0.9, self.HEAVY_QUERIES),
            ]
        )
        lo = rng.uniform(0.0, 1.0 - widths)
        self.queries = [(float(a), float(a + w)) for a, w in zip(lo, widths)]
        x = self.X.coords[:, 0]
        self.exact = [int(((x >= a) & (x <= b)).sum()) for a, b in self.queries]
        distinct = len(set(x.tolist()))
        self.expected_count = distinct * (distinct + 1) // 2 + 1

    def run_unit(self, index: int) -> UnitResult:
        vc = self.vc
        verify, tally = vc.verify, self.tally
        X, rs, n = self.X, self.rs, self.N
        trial_s: list[float] = []
        outputs = []
        for t in range(self.TRIALS_PER_UNIT):
            t0 = time.perf_counter()
            N = vc.sampling.draw_sample(X, self.m, self.seed * 100_000 + t)
            sens = verify.verify_sensitive(X, N, self.EPS, self.fam, ranges=rs)
            rel = verify.verify_relative(X, N, self.P, self.EPS, self.fam, ranges=rs)
            rsens = verify.verify_relative_sensitive(X, N, self.P, self.EPS, self.fam, ranges=rs)
            ests = [
                vc.estimator.estimate_count(q, N, n, "relative", self.fam, X=X, eps=self.EPS, p=self.P)
                for q in self.queries
            ]
            trial_s.append(time.perf_counter() - t0)

            for rep in (sens, rel, rsens):
                _report_ok(tally, rep, f"trial {t} {rep.property}")
            tally.op(rel.passed or not rsens.passed, f"trial {t}: relative_sensitive passed but relative failed")
            for q, exact, est in zip(self.queries, self.exact, ests):
                if exact >= self.P * n:
                    bound = est.relative_error_bound * exact
                else:
                    bound = est.additive_error_bound
                ok = not rel.passed or abs(est.estimate - exact) <= bound * (1.0 + REL_TOL) + REL_TOL
                tally.op(ok, f"trial {t} query {q}: estimate {est.estimate} vs exact {exact}, bound {bound}")
            outputs.append(
                [r.to_json_dict() for r in (sens, rel, rsens)] + [e.to_json_dict() for e in ests]
            )
        loop_s = sum(trial_s)
        return UnitResult(
            work_s=loop_s,
            trial_s=trial_s,
            trials=len(trial_s),
            loop_s=loop_s,
            sha=sha256_json(outputs),
            extra={"relative_passed": sum(o[1]["passed"] for o in outputs)},
        )

    def check_reference(self, ref, units) -> None:
        self.tally.op(len(self.rs) == self.expected_count, f"{len(self.rs)} interval ranges, expected {self.expected_count}")
        if ref is not None:
            self.tally.op(len(self.rs) == ref["range_count"], f"range count {len(self.rs)} != reference {ref['range_count']}")

    def reference_values(self, units) -> dict[str, Any]:
        return {"range_count": len(self.rs)}


class PlanarEnum(Workload):
    """Enumerate four planar ground sets, each followed by a short
    eps-approximation trial loop."""

    name = "planar-enum"
    # (family, source, n, trials). Trial latency differs by family: about
    # 16, 4, 2 and 1 ms here. The halfplane trials are 60% of all, so the
    # pooled p50 and p90 both fall inside them, never on the gap between
    # two families. Rectangle trials are not used for that: with the same
    # work, they swing between about 2.5 and 6.5 ms from trial to trial.
    SETS = (
        ("halfplanes", "uniform", 250, 150),
        ("rectangles", "uniform", 60, 50),
        ("disks", "uniform", 60, 25),
        ("disks", "grid", 49, 25),
    )
    M = 500
    EPS = 0.1

    def setup(self) -> None:
        h = self.vc.harness
        self.grounds = [h.generate_ground_set(h.SourceSpec(src, n=n), 2, self.seed) for _, src, n, _ in self.SETS]
        self.digests: dict[str, dict[str, Any]] = {}

    def run_unit(self, index: int) -> UnitResult:
        vc = self.vc
        tally = self.tally
        work_s = loop_s = 0.0
        trial_s: list[float] = []
        outputs: dict[str, Any] = {}
        for si, ((fam_name, src, n, trials), X) in enumerate(zip(self.SETS, self.grounds)):
            key = f"{fam_name}-{src}"
            fam = vc.ranges.family(fam_name)
            self.label(src)
            t0 = time.perf_counter()
            rs = vc.ranges.induced_ranges(fam, X)
            enum_s = time.perf_counter() - t0
            reports = []
            for t in range(trials):
                t1 = time.perf_counter()
                N = vc.sampling.draw_sample(X, self.M, self.seed * 100_000 + si * 1000 + t)
                rep = vc.verify.verify_eps_approx(X, N, self.EPS, fam, ranges=rs)
                trial_s.append(time.perf_counter() - t1)
                reports.append(rep)
            set_loop = sum(trial_s[-trials:])
            work_s += enum_s + set_loop
            loop_s += set_loop

            bound = vc.ranges.sauer_shelah_bound(n, fam.vc_dimension)
            tally.op(len(rs) <= bound, f"{key}: {len(rs)} ranges above the Sauer-Shelah bound {bound}")
            for t, rep in enumerate(reports):
                _report_ok(tally, rep, f"{key} trial {t}")
            if index == 0:
                digest, distinct = member_digest(rs)
                tally.op(distinct == len(rs), f"{key}: {len(rs)} ranges but {distinct} distinct member sets")
                self.digests[key] = {"range_count": len(rs), "member_digest": digest}
            outputs[key] = {
                "range_count": len(rs),
                "reports": [r.to_json_dict() for r in reports],
            }
            # free it before the next enumeration, so peak RSS holds one range set
            del rs
        return UnitResult(
            work_s=work_s, trial_s=trial_s, trials=len(trial_s), loop_s=loop_s, sha=sha256_json(outputs)
        )

    def check_reference(self, ref, units) -> None:
        if ref is None:
            return
        for key, want in ref.items():
            got = self.digests[key]
            self.tally.op(got["range_count"] == want["range_count"], f"{key}: range count {got['range_count']} != reference {want['range_count']}")
            self.tally.op(got["member_digest"] == want["member_digest"], f"{key}: member-set digest differs from the reference")

    def reference_values(self, units) -> dict[str, Any]:
        return self.digests


WORKLOADS = {w.name: w for w in (IntervalNetCalibrate, IntervalRelSens, PlanarEnum)}
