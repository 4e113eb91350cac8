"""Monte-Carlo experiment harness and constant calibration.

A config names a range family, a ground set (file or synthetic), one
verified property, and a grid of (eps, p) cells. Each cell computes its
sample size from the calculators, then repeatedly draws and verifies.
Everything is deterministic: ground-set generation uses the rng stream
[seed, 0], trial t of cell c uses integer seed (seed + c*10**6 + t), and
the JSON payload carries no wall-clock fields, so a rerun of the same
config is byte-identical. Wall times go to the CSV only. Trials per cell
stay below 10**6 so no two trials share a seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any

import numpy as np

from .errors import BudgetExceededError, CalibrationError, ParameterError
from .ranges import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    GroundSet,
    InducedRangeSet,
    family as family_by_name,
    induced_ranges,
    read_points_csv,
)
from .sampling import (
    Sample,
    _check_schema_version,
    _check_unit,
    _is_int,
    draw_sample,
    size_eps_approx,
)
from .verify import PROPERTIES, _worst_margin, canonical_property

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION",
    "SourceSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "canonical_property",
    "generate_ground_set",
    "sample_size_for",
    "run_experiment",
    "calibrate_constant",
    "size_table",
    "size_table_csv",
]

CONFIG_SCHEMA_VERSION = 1
RESULT_SCHEMA_VERSION = 1

SOURCE_KINDS = ("file", "uniform", "clusters", "grid")
_N_CLUSTERS = 5
_CLUSTER_SIGMA = 0.02
# trial seeds per grid cell; more trials than this would reuse seeds
_SEEDS_PER_CELL = 10**6


def _is_real(value: Any) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _unit_grid(name: str, values: Any) -> tuple[float, ...]:
    """A grid of numbers in (0, 1), as floats."""
    try:
        ok = not isinstance(values, (str, bytes)) and all(_is_real(v) for v in values)
    except TypeError:
        ok = False
    if not ok:
        raise ParameterError(f"{name} grid must be a list of numbers, got {values!r}")
    return tuple(_check_unit(name, v) for v in values)


@dataclass(frozen=True)
class SourceSpec:
    """Where the ground set comes from: a points CSV or a synthetic draw."""

    kind: str
    n: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ParameterError(
                f"unknown source kind {self.kind!r}; choose from {SOURCE_KINDS}"
            )
        if self.kind == "file":
            if not (isinstance(self.path, str) and self.path):
                raise ParameterError(f"file source needs a path, got {self.path!r}")
        elif not (_is_int(self.n) and self.n >= 1):
            raise ParameterError(f"{self.kind} source needs n >= 1, got {self.n!r}")

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        if self.n is not None:
            out["n"] = int(self.n)
        if self.path is not None:
            out["path"] = self.path
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    property: str
    source: SourceSpec
    eps_values: tuple[float, ...]
    p_values: tuple[float, ...] = ()
    delta: float = 0.25
    trials: int = 100
    C: float = 1.0
    seed: int = 0
    take_all: bool = False

    def __post_init__(self):
        family_by_name(self.family)
        object.__setattr__(self, "property", canonical_property(self.property))
        object.__setattr__(self, "eps_values", _unit_grid("eps", self.eps_values))
        object.__setattr__(self, "p_values", _unit_grid("p", self.p_values))
        if not self.eps_values:
            raise ParameterError("eps grid must be non-empty")
        if PROPERTIES[self.property].needs_p and not self.p_values:
            raise ParameterError(f"{self.property} needs a non-empty p grid")
        if not (_is_int(self.trials) and 1 <= self.trials < _SEEDS_PER_CELL):
            raise ParameterError(
                f"trials must lie in [1, {_SEEDS_PER_CELL}), got {self.trials!r}"
            )
        if not _is_real(self.delta):
            raise ParameterError(f"delta must be a number, got {self.delta!r}")
        _check_unit("delta", self.delta)
        if not (_is_real(self.C) and self.C > 0.0 and math.isfinite(self.C)):
            raise ParameterError(f"C must be positive, got {self.C!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.take_all, bool):
            raise ParameterError(f"take_all must be true or false, got {self.take_all!r}")

    def cells(self) -> list[tuple[float, float | None]]:
        """(eps, p) pairs in grid order; p is None for p-free properties."""
        if PROPERTIES[self.property].needs_p:
            return [(e, p) for e, p in product(self.eps_values, self.p_values)]
        return [(e, None) for e in self.eps_values]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "family": self.family,
            "property": self.property,
            "source": self.source.to_json_dict(),
            "grid": {
                "eps": list(self.eps_values),
                "p": list(self.p_values),
                "delta": self.delta,
            },
            "trials": self.trials,
            "C": self.C,
            "seed": self.seed,
            "take_all": self.take_all,
        }

    @classmethod
    def from_json_dict(cls, doc: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ParameterError(f"config must be a JSON object, got {type(doc).__name__}")
        _check_schema_version(doc, CONFIG_SCHEMA_VERSION, "config")
        try:
            grid = doc.get("grid", {})
            return cls(
                family=doc["family"],
                property=doc["property"],
                source=SourceSpec(**doc["source"]),
                eps_values=grid["eps"],
                p_values=grid.get("p", ()),
                delta=grid.get("delta", 0.25),
                trials=doc.get("trials", 100),
                C=doc.get("C", 1.0),
                seed=doc.get("seed", 0),
                take_all=doc.get("take_all", False),
            )
        except KeyError as exc:
            raise ParameterError(f"config is missing key {exc}") from None
        except TypeError as exc:
            raise ParameterError(f"malformed config: {exc}") from None

    @classmethod
    def from_json_path(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def generate_ground_set(source: SourceSpec, dim: int, seed: int) -> GroundSet:
    """Materialize the ground set. Synthetic draws use rng stream [seed, 0]
    so trial seeds (plain integers) can never collide with it."""
    if source.kind == "file":
        return read_points_csv(source.path)
    n = int(source.n)
    rng = np.random.default_rng([seed, 0])
    if source.kind == "uniform":
        coords = rng.random((n, dim))
    elif source.kind == "clusters":
        centers = rng.random((_N_CLUSTERS, dim))
        assign = rng.integers(0, _N_CLUSTERS, size=n)
        coords = centers[assign] + rng.normal(0.0, _CLUSTER_SIGMA, size=(n, dim))
    else:  # grid
        if dim == 1:
            coords = np.linspace(0.0, 1.0, n).reshape(-1, 1)
        else:
            k = int(math.ceil(math.sqrt(n)))
            axis = np.linspace(0.0, 1.0, k)
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            coords = np.column_stack([xx.ravel(), yy.ravel()])[:n]
    return GroundSet(coords)


def _range_set(cfg: ExperimentConfig, budget: EnumerationBudget | None) -> InducedRangeSet:
    """The config's ground set, enumerated. A synthetic source holds exactly
    n points, so its n meets the budget before any point is generated."""
    fam = family_by_name(cfg.family)
    if cfg.source.kind != "file":
        (budget or DEFAULT_BUDGET).check(fam, cfg.source.n)
    return induced_ranges(fam, generate_ground_set(cfg.source, fam.ambient_dim, cfg.seed), budget)


def sample_size_for(
    prop: str, d: int, eps: float, p: float | None, delta: float, C: float
) -> int:
    prop = PROPERTIES[canonical_property(prop)]
    if prop.needs_p and p is None:
        raise ParameterError(f"{prop.name} needs p")
    return prop.size(d, eps, p, delta, C)


def trial_seed(base_seed: int, cell_index: int, trial_index: int) -> int:
    return base_seed + cell_index * _SEEDS_PER_CELL + trial_index


@dataclass
class ExperimentResult:
    config: dict[str, Any]
    cells: list[dict[str, Any]]
    wall_times_s: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "config": self.config,
            "cells": self.cells,
        }

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")

    _CSV_COLUMNS = (
        "schema_version",
        "cell_index",
        "property",
        "family",
        "eps",
        "p",
        "delta",
        "C",
        "sample_size",
        "trials",
        "failure_count",
        "failure_rate",
        "mean_worst_margin",
        "max_worst_margin",
        "wall_time_s",
        "error",
    )

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self._CSV_COLUMNS)
        writer.writeheader()
        for cell, wall in zip(self.cells, self.wall_times_s):
            row = {k: cell.get(k, "") for k in self._CSV_COLUMNS}
            row["schema_version"] = RESULT_SCHEMA_VERSION
            row["wall_time_s"] = f"{wall:.6f}"
            row = {k: ("" if v is None else v) for k, v in row.items()}
            writer.writerow(row)
        return buf.getvalue()

    def save_json(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    def save_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())


def _run_cell(
    cfg: ExperimentConfig,
    X: GroundSet,
    engine: InducedRangeSet,
    cell_index: int,
    eps: float,
    p: float | None,
    m: int,
    trials: int,
    fail_limit: int | None = None,
) -> tuple[int, list[dict[str, Any]]]:
    """Run the cell's trials; with fail_limit set, stop once that many
    failures are in (calibration probes only care whether a cap is hit)."""
    n = len(X)
    prop = PROPERTIES[cfg.property]
    failures = 0
    details: list[dict[str, Any]] = []
    if cfg.take_all:
        N = Sample(indices=np.arange(n, dtype=np.int64), m=n, seed=cfg.seed, ground_size=n)
    for t in range(trials):
        seed_t = trial_seed(cfg.seed, cell_index, t)
        if not cfg.take_all:
            N = draw_sample(X, m, seed_t)
        # only the margin is kept, so the tie-break is skipped
        worst, _ = _worst_margin(prop, engine, N, eps, p, ties=False)
        passed = worst >= 0.0
        failures += not passed
        details.append(
            {"trial": t, "seed": seed_t, "passed": passed, "worst_margin": worst}
        )
        if fail_limit is not None and failures > fail_limit:
            break
    return failures, details


def run_experiment(
    cfg: ExperimentConfig, *, budget: EnumerationBudget | None = None
) -> ExperimentResult:
    """Run every grid cell; a blown enumeration budget marks all cells as
    errored instead of aborting the run."""
    fam = family_by_name(cfg.family)
    engine: InducedRangeSet | None = None
    error = None
    try:
        engine = _range_set(cfg, budget)
        n = engine.n
    except BudgetExceededError as exc:
        error, n = str(exc), exc.n
    cells: list[dict[str, Any]] = []
    walls: list[float] = []
    for cell_index, (eps, p) in enumerate(cfg.cells()):
        t0 = time.perf_counter()
        m = sample_size_for(cfg.property, fam.vc_dimension, eps, p, cfg.delta, cfg.C)
        if cfg.take_all:
            m = n
        cell: dict[str, Any] = {
            "cell_index": cell_index,
            "property": cfg.property,
            "family": cfg.family,
            "eps": eps,
            "p": p,
            "delta": cfg.delta,
            "C": cfg.C,
            "sample_size": m,
            "trials": cfg.trials,
            "failure_count": None,
            "failure_rate": None,
            "mean_worst_margin": None,
            "max_worst_margin": None,
            "error": error,
            "trial_details": [],
        }
        if engine is not None:
            failures, details = _run_cell(
                cfg, engine.ground, engine, cell_index, eps, p, m, cfg.trials
            )
            margins = [d["worst_margin"] for d in details]
            cell.update(
                failure_count=failures,
                failure_rate=failures / cfg.trials,
                mean_worst_margin=float(np.mean(margins)),
                max_worst_margin=float(np.max(margins)),
                trial_details=details,
            )
        cells.append(cell)
        walls.append(time.perf_counter() - t0)
    return ExperimentResult(config=cfg.to_json_dict(), cells=cells, wall_times_s=walls)


def calibrate_constant(
    cfg: ExperimentConfig,
    target_delta: float,
    *,
    resolution: float = 0.05,
    ceiling: float = 64.0,
    min_trials: int = 200,
    budget: EnumerationBudget | None = None,
) -> float:
    """Smallest C on the resolution grid whose empirical failure rate stays
    at or below target_delta in every grid cell.

    Doubling from the resolution floor finds a passing C, then bisection on
    the integer grid pins the boundary. Probes reuse one enumeration and the
    config's trial-seed scheme, so the search is deterministic. C values
    above the ceiling are never probed; if nothing up to the ceiling passes,
    calibration fails.
    """
    target_delta = _check_unit("delta", target_delta)
    if not (_is_real(resolution) and math.isfinite(resolution) and resolution > 0):
        raise ParameterError(f"resolution must be finite and > 0, got {resolution!r}")
    if not (_is_real(ceiling) and math.isfinite(ceiling) and ceiling >= resolution):
        raise ParameterError(
            f"ceiling must be finite and >= resolution {resolution}, got {ceiling!r}"
        )
    if not (_is_int(min_trials) and 1 <= min_trials < _SEEDS_PER_CELL):
        raise ParameterError(
            f"min_trials must lie in [1, {_SEEDS_PER_CELL}), got {min_trials!r}"
        )
    fam = family_by_name(cfg.family)
    # unlike run_experiment, a blown budget aborts calibration outright
    engine = _range_set(cfg, budget)
    trials = max(cfg.trials, min_trials)
    grid = cfg.cells()

    cache: dict[int, bool] = {}

    # a probe cell may stop early once it cannot come in under the target
    fail_limit = int(math.floor(target_delta * trials))

    def ok(k: int) -> bool:
        if k not in cache:
            C = round(k * resolution, 10)
            good = True
            for cell_index, (eps, p) in enumerate(grid):
                m = sample_size_for(cfg.property, fam.vc_dimension, eps, p, cfg.delta, C)
                failures, _ = _run_cell(
                    cfg, engine.ground, engine, cell_index, eps, p, m, trials, fail_limit
                )
                if failures > fail_limit:
                    good = False
                    break
            cache[k] = good
        return cache[k]

    k_max = int(math.floor(ceiling / resolution + 1e-9))
    if ok(1):
        return round(resolution, 10)
    k = 1
    while True:
        k_next = min(2 * k, k_max)
        if k_next == k:
            raise CalibrationError(
                f"no C <= {ceiling} reaches failure rate <= {target_delta} "
                f"({trials} trials per probe)"
            )
        k = k_next
        if ok(k):
            break
    hi = k
    lo = max(kk for kk, good in cache.items() if not good and kk < hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return round(hi * resolution, 10)


def size_table(
    families: list[str], grid: dict[str, Any]
) -> list[dict[str, Any]]:
    """One row per (property, family, eps, p, delta, C) combination.

    For the two relative properties the plain_p_approx_size column holds the
    plain approximation size whose additive error equals p, the cost of
    resolving weight-p ranges without the relative guarantee (1/p^2 growth
    against the relative calculator's 1/p).
    """
    eps_values = [float(e) for e in grid["eps"]]
    p_values = [float(p) for p in grid.get("p", ())]
    delta_values = [float(d) for d in grid.get("delta", (0.25,))]
    c_values = [float(c) for c in grid.get("C", (1.0,))]
    rows: list[dict[str, Any]] = []
    for prop in PROPERTIES.values():
        if prop.needs_p and not p_values:
            continue
        ps: list[float | None] = p_values if prop.needs_p else [None]
        for fam_name in families:
            fam = family_by_name(fam_name)
            for eps, p, delta, C in product(eps_values, ps, delta_values, c_values):
                row: dict[str, Any] = {
                    "property": prop.name,
                    "family": fam_name,
                    "eps": eps,
                    "p": p,
                    "delta": delta,
                    "C": C,
                    "size": prop.size(fam.vc_dimension, eps, p, delta, C),
                    "plain_p_approx_size": (
                        size_eps_approx(p, fam.vc_dimension, delta, C)
                        if prop.needs_p
                        else None
                    ),
                }
                rows.append(row)
    return rows


def size_table_csv(rows: list[dict[str, Any]]) -> str:
    columns = (
        "property",
        "family",
        "eps",
        "p",
        "delta",
        "C",
        "size",
        "plain_p_approx_size",
    )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row[k]) for k in columns})
    return buf.getvalue()
