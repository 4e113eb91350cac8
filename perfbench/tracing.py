"""Span tracing of vcsample's layers from outside the package.

Only the traced run uses this module. It replaces the public functions and
range-set methods that the layers call each other through with wrappers
that record one span per call: name, start, end, parent span, the trial
the call belongs to, the benchmark phase and the unit of work. No source
file of the package is touched; `uninstall` puts the originals back.

A trial starts at each `draw_sample` call and ends at the next
`induced_ranges` call, because every workload draws exactly one sample per
trial and never enumerates inside one. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from typing import Any, Callable

VERIFY_PROPERTIES = ("eps_net", "eps_approx", "sensitive", "relative", "relative_sensitive")
FAMILY_SOURCES = (
    "intervals-uniform",
    "halfplanes-uniform",
    "rectangles-uniform",
    "disks-uniform",
    "disks-grid",
)

# span tuple fields
ID, PARENT, NAME, T0, T1, TRIAL, PHASE, UNIT, ATTRS = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.phase = "setup"
        self.unit: int | None = None
        self.source: str | None = None
        self._trial: int | None = None
        self._trials = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, attrs=None, trial: str | None = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trial == "start":
                tracer._trials += 1
                tracer._trial = tracer._trials
            elif trial == "end":
                tracer._trial = None
            rec = [
                len(tracer.spans),
                tracer._stack[-1] if tracer._stack else None,
                name,
                0.0,
                0.0,
                tracer._trial,
                tracer.phase,
                tracer.unit,
                None,
            ]
            tracer.spans.append(rec)
            tracer._stack.append(rec[ID])
            rec[T0] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(tracer, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owners: list[Any], attr: str, name: str, **kw) -> None:
        """Wrap `attr` in each owner that binds it; a refactor that drops
        one of these bindings loses its spans instead of failing the run."""
        for owner in owners:
            original = vars(owner).get(attr)
            if original is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, **kw))

    def install(self, vc) -> None:
        """Wrap the layer boundaries of the imported package `vc`."""
        ranges, sampling, verify, harness = vc.ranges, vc.sampling, vc.verify, vc.harness
        estimator, cli = vc.estimator, vc.cli

        def enum_attrs(tr, args, kwargs, out):
            return {"key": f"{args[0].name}-{tr.source}", "count": len(out)}

        self._patch(
            [ranges, harness, verify], "induced_ranges", "ranges.induced_ranges",
            attrs=enum_attrs, trial="end",
        )
        self._patch(
            [sampling, harness, cli], "draw_sample", "sampling.draw_sample", trial="start"
        )
        for prop in VERIFY_PROPERTIES:
            self._patch(
                [verify, harness], f"verify_{prop}", f"verify.{prop}",
                attrs=lambda tr, a, k, out: {"passed": out.passed},
            )
        self._patch(
            [harness, cli], "sample_size_for", "harness.sample_size_for",
            attrs=lambda tr, a, k, out: {"eps": a[2], "C": a[5], "m": out},
        )
        self._patch([harness], "calibrate_constant", "harness.calibrate_constant")
        self._patch([harness, cli], "run_experiment", "harness.run_experiment")
        self._patch([harness.ExperimentResult], "to_json_bytes", "harness.to_json_bytes")
        self._patch([estimator, cli], "estimate_count", "estimator.estimate_count")
        self._patch(
            [cli], "main", "cli.main",
            attrs=lambda tr, a, k, out: {"cmd": (a[0] if a else k["argv"])[0]},
        )
        # the range set's methods live on whichever classes define them
        classes = [ranges.InducedRangeSet]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for method in ("sample_counts", "range_at"):
            self._patch(classes, method, f"ranges.{method}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span_dicts(self) -> list[dict[str, Any]]:
        keys = ("id", "parent", "name", "start", "end", "trial", "phase", "unit", "attrs")
        return [dict(zip(keys, rec)) for rec in self.spans]


def _ms(rec) -> float:
    return 1e3 * (rec[T1] - rec[T0])


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibration_probes(
    spans: list[list[Any]], planned_trials: int, target_delta: float
) -> list[list[dict[str, Any]]]:
    """Per calibrate_constant call, its probes in the order they ran.

    Each probe is one C value: the cells it ran, how many trials each ran,
    how many failed, and whether the cell stopped early. A probe passes when
    every cell stays at or under floor(target * planned) failures, the rule
    calibrate_constant applies; a cell that stops early has exceeded it.
    """
    fail_limit = math.floor(target_delta * planned_trials)
    calls = []
    for cal in (s for s in spans if s[NAME] == "harness.calibrate_constant"):
        probes: list[dict[str, Any]] = []
        cell = None
        for s in spans:
            if s[PARENT] != cal[ID]:
                continue
            if s[NAME] == "harness.sample_size_for":
                C = s[ATTRS]["C"]
                if not probes or probes[-1]["C"] != C:
                    probes.append({"C": C, "cells": []})
                cell = {"eps": s[ATTRS]["eps"], "m": s[ATTRS]["m"], "trials": 0, "failures": 0}
                probes[-1]["cells"].append(cell)
            elif s[NAME].startswith("verify.") and cell is not None:
                cell["trials"] += 1
                cell["failures"] += not s[ATTRS]["passed"]
        for probe in probes:
            for c in probe["cells"]:
                c["early_stop"] = c["trials"] < planned_trials
            probe["passed"] = all(c["failures"] <= fail_limit for c in probe["cells"])
        calls.append(probes)
    return calls


def per_layer_metrics(
    spans: list[list[Any]], units: int, calibration: dict[str, Any] | None
) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans of the work phase.

    Counts are per unit of work, so they do not depend on how many units
    fit into the run. Enumeration times also take the set-up builds, since
    that is where the interval workloads enumerate. A layer the workload
    never calls reports 0 calls and 0 time.
    """
    work = [s for s in spans if s[PHASE] == "work"]
    by_name: dict[str, list[list[Any]]] = {}
    for s in work:
        by_name.setdefault(s[NAME], []).append(s)
    children: dict[int, list[list[Any]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_unit(n: int) -> float:
        return n / units if units else 0.0

    out: dict[str, tuple[float, str]] = {}
    for key in FAMILY_SOURCES:
        enum = [s for s in spans if s[NAME] == "ranges.induced_ranges" and s[ATTRS]["key"] == key]
        secs = _p50([s[T1] - s[T0] for s in enum])
        count = enum[-1][ATTRS]["count"] if enum else 0
        out[f"ranges.induced_ranges.{key}.s"] = (secs, "s")
        out[f"ranges.ranges_per_s.{key}"] = (count / secs if secs else 0.0, "1/s")
        out[f"ranges.count.{key}"] = (count, "count")
    out["ranges.induced_ranges.calls"] = (per_unit(len(named("ranges.induced_ranges"))), "count")
    out["ranges.sample_counts.ms_p50"] = (_p50([_ms(s) for s in named("ranges.sample_counts")]), "ms")
    out["ranges.sample_counts.calls"] = (per_unit(len(named("ranges.sample_counts"))), "count")
    out["ranges.range_at.ms_total"] = (
        per_unit(sum(_ms(s) for s in named("ranges.range_at"))), "ms"
    )
    out["ranges.range_at.calls"] = (per_unit(len(named("ranges.range_at"))), "count")
    out["sampling.draw_sample.ms_p50"] = (_p50([_ms(s) for s in named("sampling.draw_sample")]), "ms")
    out["sampling.draw_sample.calls"] = (per_unit(len(named("sampling.draw_sample"))), "count")
    for prop in VERIFY_PROPERTIES:
        recs = named(f"verify.{prop}")
        self_ms = [_ms(s) - sum(_ms(c) for c in children.get(s[ID], [])) for s in recs]
        out[f"verify.{prop}.ms_p50"] = (_p50([_ms(s) for s in recs]), "ms")
        out[f"verify.{prop}.self_ms_p50"] = (_p50(self_ms), "ms")
        out[f"verify.{prop}.calls"] = (per_unit(len(recs)), "count")

    def verify_children(name):
        return [
            len([c for c in children.get(s[ID], []) if c[NAME].startswith("verify.")])
            for s in named(name)
        ]

    cal_s = _p50([s[T1] - s[T0] for s in named("harness.calibrate_constant")])
    run_s = _p50([s[T1] - s[T0] for s in named("harness.run_experiment")])
    cli_s = _p50([s[T1] - s[T0] for s in named("cli.main") if s[ATTRS]["cmd"] == "experiment"])
    out["harness.calibrate_constant.s"] = (cal_s, "s")
    out["harness.calibrate.trials"] = (_p50(verify_children("harness.calibrate_constant")), "count")
    probes = calibration["probes"][0] if calibration and calibration["probes"] else []
    out["harness.calibrate.probes"] = (len(probes), "count")
    out["harness.calibrate.early_stops"] = (
        sum(c["early_stop"] for p in probes for c in p["cells"]), "count"
    )
    out["harness.run_experiment.s"] = (run_s, "s")
    out["harness.trials"] = (_p50(verify_children("harness.run_experiment")), "count")
    out["harness.to_json_bytes.ms"] = (_p50([_ms(s) for s in named("harness.to_json_bytes")]), "ms")
    est = named("estimator.estimate_count")
    out["estimator.estimate_count.us_p50"] = (1e3 * _p50([_ms(s) for s in est]), "us")
    out["estimator.estimate_count.calls"] = (per_unit(len(est)), "count")
    out["cli.main.experiment.s"] = (cli_s, "s")
    out["cli.main.experiment.overhead_s"] = (cli_s - run_s if cli_s else 0.0, "s")
    out["trace.spans"] = (per_unit(len(work)), "count")
    return out
