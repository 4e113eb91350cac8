"""Finite geometric range spaces.

A ground set is a finite point multiset in R^1 or R^2. A range family is a
class of geometric regions (intervals, halfplanes, axis-parallel rectangles,
disks). The objects of interest are the induced ranges: the distinct subsets
of the ground set that some region of the family cuts out. Enumeration is
exhaustive and exact with respect to the floating-point membership predicate
`contains`, returns every distinct subset exactly once, and attaches to each
subset a concrete witness region that reproduces it.

Enumeration cost grows quickly with |X| (quadratically for intervals, worse
for the planar families), so each family carries a default budget on |X| and
refuses larger inputs instead of truncating.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceededError, ParameterError

__all__ = [
    "GroundSet",
    "RangeFamily",
    "FAMILIES",
    "family",
    "contains",
    "InducedRange",
    "InducedRangeSet",
    "EnumerationBudget",
    "induced_ranges",
    "enumerate_induced_ranges",
    "fractional_weight",
    "sauer_shelah_bound",
    "read_points_csv",
    "write_points_csv",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# ground sets and families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundSet:
    """Finite point multiset in R^1 or R^2.

    Duplicate points are kept and count with multiplicity in all weights.
    Coordinates must be finite reals. The coordinate array is made read-only
    so a ground set can be shared freely across threads and range sets.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ParameterError("points must form an (n, dim) array")
        if arr.shape[0] == 0:
            raise ParameterError("ground set must be non-empty")
        if arr.shape[1] not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("coordinates must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.coords.shape[0]

    def point(self, i: int) -> tuple[float, ...]:
        return tuple(float(v) for v in self.coords[i])


@dataclass(frozen=True)
class RangeFamily:
    """A named family of closed regions: VC and ambient dimension, witness
    length and the witness positions that must be non-negative, membership
    expression `contains_many(params, coords)` (a boolean row over an
    (n, dim) array) and enumerator `build(fam, ground)`."""

    name: str
    vc_dimension: int
    ambient_dim: int
    n_params: int
    contains_many: Callable[[tuple[float, ...], np.ndarray], np.ndarray] = field(repr=False)
    build: Callable[["RangeFamily", GroundSet], "InducedRangeSet"] = field(repr=False)
    nonnegative: tuple[int, ...] = ()


def family(name: str) -> RangeFamily:
    """Look up a range family by name.

    Valid names: intervals, halfplanes, rectangles, disks.
    """
    try:
        return FAMILIES[name]
    except KeyError:
        raise ParameterError(
            f"unknown family {name!r}; choose from {sorted(FAMILIES)}"
        ) from None


def _check_params(fam: RangeFamily, params: tuple[float, ...]) -> tuple[float, ...]:
    params = tuple(float(v) for v in params)
    if len(params) != fam.n_params:
        raise ParameterError(
            f"{fam.name} witness needs {fam.n_params} parameters, got {len(params)}"
        )
    if not all(math.isfinite(v) for v in params):
        raise ParameterError("witness parameters must be finite")
    if any(params[i] < 0.0 for i in fam.nonnegative):
        raise ParameterError(
            f"{fam.name} witness parameters at {fam.nonnegative} must be non-negative"
        )
    return params


def contains(fam: RangeFamily, params: tuple[float, ...], point) -> bool:
    """Closed-region membership predicate.

    Witness parameter conventions:
      intervals    (lo, hi)              lo <= x <= hi
      halfplanes   (a, b, c)             a*x + b*y <= c
      rectangles   (xlo, xhi, ylo, yhi)  xlo <= x <= xhi and ylo <= y <= yhi
      disks        (cx, cy, radius)      (x-cx)^2 + (y-cy)^2 <= radius^2

    All boundaries are inclusive. The same floating-point expressions are
    used by the enumerators, so a witness reproduces its subset exactly.
    """
    params = _check_params(fam, params)
    pt = np.atleast_1d(np.asarray(point, dtype=np.float64))
    if pt.shape != (fam.ambient_dim,):
        raise ParameterError(
            f"{fam.name} lives in R^{fam.ambient_dim}, got point of shape {pt.shape}"
        )
    return bool(fam.contains_many(params, pt.reshape(1, -1))[0])


# Membership expressions. Elementwise arithmetic only: numpy float64
# elementwise ops round exactly like Python scalar arithmetic, keeping
# enumeration and `contains` in bit-for-bit agreement. No dot products
# (those may reorder/fuse).


def _in_interval(params: tuple[float, ...], coords: np.ndarray) -> np.ndarray:
    lo, hi = params
    x = coords[:, 0]
    return (x >= lo) & (x <= hi)


def _in_halfplane(params: tuple[float, ...], coords: np.ndarray) -> np.ndarray:
    a, b, c = params
    return a * coords[:, 0] + b * coords[:, 1] <= c


def _in_rectangle(params: tuple[float, ...], coords: np.ndarray) -> np.ndarray:
    xlo, xhi, ylo, yhi = params
    x, y = coords[:, 0], coords[:, 1]
    return (x >= xlo) & (x <= xhi) & (y >= ylo) & (y <= yhi)


def _in_disk(params: tuple[float, ...], coords: np.ndarray) -> np.ndarray:
    cx, cy, radius = params
    dx = coords[:, 0] - cx
    dy = coords[:, 1] - cy
    return dx * dx + dy * dy <= radius * radius


# ---------------------------------------------------------------------------
# induced ranges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedRange:
    """One distinct subset cut out of a ground set, with a witness region.

    member_indices are positions into the ground set's point list, so
    duplicate points contribute their full multiplicity.
    """

    member_indices: frozenset[int]
    witness_params: tuple[float, ...]
    ground_size: int

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.member_indices))


def fractional_weight(r: InducedRange, ground: GroundSet) -> float:
    """Fraction of the ground set inside the range, counting multiplicity."""
    return len(r.member_indices) / len(ground)


def sauer_shelah_bound(n: int, d: int) -> int:
    """Maximum number of distinct subsets a VC-dimension-d family can induce."""
    return sum(math.comb(n, i) for i in range(min(d, n) + 1))


@dataclass(frozen=True)
class EnumerationBudget:
    """Per-family caps on |X| for exhaustive enumeration.

    Defaults keep enumeration tractable on a desk machine: intervals produce
    O(n^2) ranges, the planar families cost substantially more per point.
    """

    intervals: int = 5000
    halfplanes: int = 500
    disks: int = 200
    rectangles: int = 80

    def limit_for(self, fam: RangeFamily) -> int:
        return getattr(self, fam.name)


DEFAULT_BUDGET = EnumerationBudget()


class InducedRangeSet:
    """Every distinct induced subset of one ground set, in columnar form.

    Row 0 is always the empty range. `counts[k]` is |range k| counting
    multiplicity; `sample_counts` maps a per-point multiplicity vector to
    per-range hit counts in one vectorized pass, which is what makes the
    exhaustive verifiers affordable at thousands of points. Individual
    `InducedRange` objects are materialized on demand.
    """

    def __init__(self, fam: RangeFamily, ground: GroundSet):
        self.family = fam
        self.ground = ground
        self.n = len(ground)
        self.counts: np.ndarray = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.counts.shape[0]

    # subclass API ---------------------------------------------------------
    def sample_counts(self, multiplicities: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def members(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def witness(self, k: int) -> tuple[float, ...]:
        raise NotImplementedError

    # shared ---------------------------------------------------------------
    def range_at(self, k: int) -> InducedRange:
        return InducedRange(
            member_indices=frozenset(int(i) for i in self.members(k)),
            witness_params=self.witness(k),
            ground_size=self.n,
        )

    def iter_ranges(self) -> Iterator[InducedRange]:
        for k in range(len(self)):
            yield self.range_at(k)

    def member_sets(self) -> set[frozenset[int]]:
        return {frozenset(int(i) for i in self.members(k)) for k in range(len(self))}


class _IntervalRangeSet(InducedRangeSet):
    """Induced intervals: the empty set plus every run of consecutive values."""

    def __init__(self, fam: RangeFamily, ground: GroundSet):
        super().__init__(fam, ground)
        xs = ground.coords[:, 0]
        self.values, self.group_id = np.unique(xs, return_inverse=True)
        k = self.values.shape[0]
        per_group = np.bincount(self.group_id, minlength=k)
        self._cum = np.concatenate(([0], np.cumsum(per_group)))
        lo, hi = np.triu_indices(k)
        # row 0 is the empty range; the (0, -1) sentinel makes the prefix-sum
        # count formula come out to zero for it
        self.lo = np.concatenate(([0], lo)).astype(np.int64)
        self.hi = np.concatenate(([-1], hi)).astype(np.int64)
        self.counts = self._cum[self.hi + 1] - self._cum[self.lo]

    def sample_counts(self, multiplicities: np.ndarray) -> np.ndarray:
        k = self.values.shape[0]
        per_group = np.bincount(
            self.group_id, weights=multiplicities, minlength=k
        ).astype(np.int64)
        prefix = np.concatenate(([0], np.cumsum(per_group)))
        return prefix[self.hi + 1] - prefix[self.lo]

    def members(self, k: int) -> np.ndarray:
        if self.hi[k] < self.lo[k]:
            return np.zeros(0, dtype=np.int64)
        mask = (self.group_id >= self.lo[k]) & (self.group_id <= self.hi[k])
        return np.nonzero(mask)[0].astype(np.int64)

    def witness(self, k: int) -> tuple[float, ...]:
        if self.hi[k] < self.lo[k]:
            below = float(np.nextafter(self.values[0], -np.inf))
            return (below, below)
        return (float(self.values[self.lo[k]]), float(self.values[self.hi[k]]))


class _CsrRangeSet(InducedRangeSet):
    """Generic induced-range storage: one sparse membership row per range."""

    def __init__(
        self,
        fam: RangeFamily,
        ground: GroundSet,
        rows: list[np.ndarray],
        witnesses: list[tuple[float, ...]],
    ):
        super().__init__(fam, ground)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([r.shape[0] for r in rows])
        indices = (
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        ).astype(np.int64)
        data = np.ones(indices.shape[0], dtype=np.int64)
        self._matrix = sp.csr_matrix(
            (data, indices, indptr), shape=(len(rows), self.n)
        )
        self._witnesses = witnesses
        self.counts = np.diff(indptr)

    def sample_counts(self, multiplicities: np.ndarray) -> np.ndarray:
        return (self._matrix @ multiplicities.astype(np.int64)).astype(np.int64)

    def members(self, k: int) -> np.ndarray:
        start, stop = self._matrix.indptr[k], self._matrix.indptr[k + 1]
        return self._matrix.indices[start:stop].astype(np.int64)

    def witness(self, k: int) -> tuple[float, ...]:
        return self._witnesses[k]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def induced_ranges(
    fam: RangeFamily, ground: GroundSet, budget: EnumerationBudget | None = None
) -> InducedRangeSet:
    """Enumerate every distinct induced subset, in compact columnar form.

    Deterministic: the same ground set always yields the same range set in
    the same construction order. Raises BudgetExceededError when |X| is over
    the family's budget and ParameterError on an ambient-dimension mismatch.
    """
    budget = budget or DEFAULT_BUDGET
    if ground.dimension != fam.ambient_dim:
        raise ParameterError(
            f"{fam.name} needs points in R^{fam.ambient_dim}, "
            f"got R^{ground.dimension}"
        )
    limit = budget.limit_for(fam)
    if len(ground) > limit:
        raise BudgetExceededError(fam.name, len(ground), limit)
    return fam.build(fam, ground)


def enumerate_induced_ranges(
    fam: RangeFamily, ground: GroundSet, budget: EnumerationBudget | None = None
) -> list[InducedRange]:
    """All distinct induced ranges as objects, in canonical order.

    Canonical order is lexicographic on the sorted member index list, so the
    empty range comes first and reports are reproducible. For large ground
    sets prefer `induced_ranges`, which avoids materializing every member
    set.
    """
    rs = induced_ranges(fam, ground, budget)
    out = list(rs.iter_ranges())
    out.sort(key=lambda r: r.members)
    return out


class _SubsetCollector:
    """The one dedupe path of the planar enumerators.

    Candidates arrive only as batches: a boolean (k, n) row matrix and its k
    witnesses. Rows are keyed by their packed bits, and the first witness of
    each distinct subset is kept, in insertion order.
    """

    def __init__(self):
        self._keys: set[bytes] = set()
        self.rows: list[np.ndarray] = []
        self.witnesses: list[tuple[float, ...]] = []

    def add_batch(self, rows: np.ndarray, witnesses) -> None:
        # one packbits pass for the whole batch; python loop only for dedupe
        packed = np.packbits(rows, axis=1)
        for k, witness in enumerate(witnesses):
            key = packed[k].tobytes()
            if key not in self._keys:
                self._keys.add(key)
                self.rows.append(np.nonzero(rows[k])[0].astype(np.int64))
                self.witnesses.append(witness)

    def range_set(self, fam: RangeFamily, ground: GroundSet) -> _CsrRangeSet:
        return _CsrRangeSet(fam, ground, self.rows, self.witnesses)


def _build_halfplanes(fam: RangeFamily, ground: GroundSet) -> _CsrRangeSet:
    """Rotating-direction sweep over all closed halfplanes.

    The subsets induced by a*x + b*y <= c for a fixed direction (a, b) are
    the prefixes of the points sorted by key a*x + b*y, cut at positions
    where the key strictly increases. The prefix family only changes at
    critical directions perpendicular to some difference vector of two
    distinct points, so sweeping one generic direction per interval between
    consecutive critical angles (over the full circle, to get both closed
    sides) visits every induced subset. Between consecutive directions only
    prefixes inside the window where the two sort orders differ, plus any
    newly valid cut positions, can be new, which bounds the total number of
    candidate insertions by the number of swaps, O(n^2).
    """
    coords = ground.coords
    xs, ys = coords[:, 0], coords[:, 1]
    n = len(ground)
    uniq = np.unique(coords, axis=0)

    if uniq.shape[0] >= 2:
        iu, ju = np.triu_indices(uniq.shape[0], k=1)
        diff = uniq[ju] - uniq[iu]
        phi = np.arctan2(diff[:, 1], diff[:, 0])
        crit = np.concatenate([phi + 0.5 * math.pi, phi + 1.5 * math.pi]) % _TWO_PI
        crit = np.unique(crit)
        mids = (crit[:-1] + crit[1:]) / 2.0
        wrap = ((crit[-1] + crit[0] + _TWO_PI) / 2.0) % _TWO_PI
        directions = np.concatenate([mids, [wrap]])
    else:
        directions = np.array([0.0])

    collector = _SubsetCollector()
    c_empty = float(np.nextafter(np.min(1.0 * xs + 0.0 * ys), -np.inf))
    collector.add_batch(np.zeros((1, n), dtype=bool), [(1.0, 0.0, c_empty)])

    prev_order: np.ndarray | None = None
    prev_valid: np.ndarray | None = None
    for theta in directions:
        a = math.cos(float(theta))
        b = math.sin(float(theta))
        keys = a * xs + b * ys
        order = np.argsort(keys, kind="stable")
        ksort = keys[order]
        # valid[t]: cutting after position t-1 respects key ties
        valid = np.zeros(n + 1, dtype=bool)
        valid[1:n] = ksort[:-1] < ksort[1:]
        valid[n] = True

        candid = valid.copy()
        if prev_order is not None:
            window = np.zeros(n + 1, dtype=bool)
            ne = np.nonzero(order != prev_order)[0]
            if ne.size:
                window[ne[0] + 1 : ne[-1] + 1] = True
            candid &= window | (valid & ~prev_valid)
        cuts = ksort[candid[1:]]
        collector.add_batch(
            keys[None, :] <= cuts[:, None], [(a, b, c) for c in cuts.tolist()]
        )
        prev_order, prev_valid = order, valid

    return collector.range_set(fam, ground)


def _disk_rows(
    centers: np.ndarray, u: np.ndarray, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership rows for anchored disks through u, one per center, and
    their (cx, cy, radius) witnesses as a (k, 3) array.

    The broadcast arithmetic matches `contains` operation for operation, so
    each row is reproduced exactly by its witness.
    """
    dxu = u[0] - centers[:, 0]
    dyu = u[1] - centers[:, 1]
    rsq = dxu * dxu + dyu * dyu
    radii = np.sqrt(rsq)
    bump = radii * radii < rsq
    radii[bump] = np.nextafter(radii[bump], np.inf)
    dx = coords[None, :, 0] - centers[:, None, 0]
    dy = coords[None, :, 1] - centers[:, None, 1]
    rows = dx * dx + dy * dy <= (radii * radii)[:, None]
    return rows, np.column_stack([centers, radii])


def _build_disks(fam: RangeFamily, ground: GroundSet) -> _CsrRangeSet:
    """Anchored bisector-arrangement sweep over all closed disks.

    Shrinking a disk about its center until the farthest member sits on the
    boundary leaves the induced subset unchanged, so every nonempty subset
    is realized by a disk through some anchor point u. With the radius
    pinned to |c - u|, membership of any other point w depends only on
    which side of the u,w bisector the center c lies, and a center on the
    line puts w on the boundary (inside, ranges are closed). The distinct
    subsets anchored at u therefore correspond to the cells of the
    bisector-line arrangement. Per bisector line, evaluating at every
    crossing with the other bisectors, at midpoints between consecutive
    crossings, and beyond the extremes covers its vertices and edges.
    Stepping off the line away from its defining point v covers the open
    faces where v falls strictly outside. Where that first step overshoots,
    the steps of all such retries on the line are halved together until
    each shows its expected subset; every probe row is kept, in
    retry-then-step order, since any anchored disk is a valid witness.
    Single-position subsets come from radius-zero disks, the empty and full
    subsets from explicit witnesses.
    """
    coords = ground.coords
    xs, ys = coords[:, 0], coords[:, 1]
    n = len(ground)
    uniq = np.unique(coords, axis=0)
    m = uniq.shape[0]

    collector = _SubsetCollector()
    span_x = float(np.max(xs) - np.min(xs))
    # the offset is at least max(2, |min(xs)|), so subtracting it is never
    # absorbed and far_x stays about 2 or more left of every point
    far_x = float(np.min(xs) - (2.0 + span_x + abs(np.min(xs))))
    cx0 = float((np.min(xs) + np.max(xs)) / 2.0)
    cy0 = float((np.min(ys) + np.max(ys)) / 2.0)
    rmax = float(np.sqrt(np.max((xs - cx0) ** 2 + (ys - cy0) ** 2)))
    # the empty range, the full disk and the radius-zero disks
    specials = [(cx0, cy0, rmax + 1.0)] + [(px, py, 0.0) for px, py in uniq.tolist()]
    collector.add_batch(
        np.stack([np.zeros(n, dtype=bool)] + [fam.contains_many(w, coords) for w in specials]),
        [(far_x, float(np.min(ys)), 0.0)] + specials,
    )

    if m < 2:
        return collector.range_set(fam, ground)

    span = max(span_x, float(np.max(ys) - np.min(ys)), 1.0)
    norms = np.sum(uniq * uniq, axis=1)
    for i in range(m):
        u = uniq[i]
        others = np.delete(uniq, i, axis=0)
        aw = 2.0 * (others - u)
        bw = np.delete(norms, i) - float(norms[i])
        for j in range(m - 1):
            v = others[j]
            p0 = (u + v) / 2.0
            dvec = np.array([-aw[j, 1], aw[j, 0]])
            dvec /= math.hypot(dvec[0], dvec[1])
            nhat = aw[j] / math.hypot(aw[j, 0], aw[j, 1])
            den = aw[:, 0] * dvec[0] + aw[:, 1] * dvec[1]
            num = bw - (aw[:, 0] * p0[0] + aw[:, 1] * p0[1])
            with np.errstate(divide="ignore", invalid="ignore"):
                tcross = num / den
            tcross = np.unique(tcross[np.isfinite(tcross) & (den != 0.0)])
            if tcross.size == 0:
                t_list = np.array([0.0])
                is_vertex = np.array([False])
                gaps = np.array([span + 1.0])
            else:
                pad = span + 1.0 + float(np.max(np.abs(tcross)))
                mids = (tcross[:-1] + tcross[1:]) / 2.0
                t_all = np.concatenate(
                    [[tcross[0] - pad], tcross, mids, [tcross[-1] + pad]]
                )
                flags = np.zeros(t_all.shape[0], dtype=bool)
                flags[1 : 1 + tcross.size] = True
                order = np.argsort(t_all, kind="stable")
                t_list = t_all[order]
                is_vertex = flags[order]
                step = np.diff(t_list)
                gaps = np.minimum(
                    np.concatenate([[pad], step]), np.concatenate([step, [pad]])
                )
                gaps = np.maximum(gaps, span * 1e-12)
            centers = p0[None, :] + t_list[:, None] * dvec[None, :]
            rows, wit = _disk_rows(centers, u, coords)
            vmask = (xs == v[0]) & (ys == v[1])
            # first face probe for every candidate, batched
            off = centers - (0.5 * gaps)[:, None] * nhat[None, :]
            rows2, wit2 = _disk_rows(off, u, coords)
            collector.add_batch(rows, map(tuple, wit.tolist()))
            collector.add_batch(rows2, map(tuple, wit2.tolist()))
            # the probe can overshoot into a farther face when a nearby line
            # cuts it off; halve the step until the expected subset shows up,
            # for all retry rows of the line together. A retry also stops
            # once its center no longer moves. Vertex candidates are skipped:
            # stepping off a vertex resolves the second tie as well, and
            # those faces border the adjacent edge midpoints, which handle them.
            targets = rows & ~vmask[None, :]
            retry = (
                rows[:, vmask].any(axis=1)
                & np.any(rows2 != targets, axis=1)
                & ~is_vertex
            )
            k = np.nonzero(retry)[0]
            delta = 0.25 * gaps[k]
            probe_k, probe_rows, probe_wit = [], [], []
            for _ in range(60):
                c2 = centers[k] - delta[:, None] * nhat[None, :]
                moved = np.any(c2 != centers[k], axis=1)
                k, delta, c2 = k[moved], delta[moved], c2[moved]
                if k.size == 0:
                    break
                rows_c2, wit_c2 = _disk_rows(c2, u, coords)
                probe_k.append(k)
                probe_rows.append(rows_c2)
                probe_wit.append(wit_c2)
                miss = np.any(rows_c2 != targets[k], axis=1)
                k, delta = k[miss], 0.5 * delta[miss]
            if probe_k:
                # retry-then-step order, as a one-retry-at-a-time search adds them
                order = np.argsort(np.concatenate(probe_k), kind="stable")
                collector.add_batch(
                    np.concatenate(probe_rows)[order],
                    map(tuple, np.concatenate(probe_wit)[order].tolist()),
                )

    return collector.range_set(fam, ground)


def _build_rectangles(fam: RangeFamily, ground: GroundSet) -> _CsrRangeSet:
    """Product sweep over all closed axis-parallel rectangles.

    Shrinking a rectangle onto the extreme coordinates of its members leaves
    the induced subset unchanged, so thresholds at point coordinates are
    exhaustive. The per-axis runs need no dedupe: run (a, b) holds a point
    at vals[a] and one at vals[b], so its min and max identify it.
    """
    coords = ground.coords
    xs, ys = coords[:, 0], coords[:, 1]
    n = len(ground)
    vx = np.unique(xs)
    vy = np.unique(ys)

    def axis_runs(vals: np.ndarray, col: np.ndarray):
        lo, hi = np.triu_indices(vals.shape[0])
        masks = (col[None, :] >= vals[lo, None]) & (col[None, :] <= vals[hi, None])
        return masks, vals[lo].tolist(), vals[hi].tolist()

    x_masks, x_lo, x_hi = axis_runs(vx, xs)
    y_masks, y_lo, y_hi = axis_runs(vy, ys)

    collector = _SubsetCollector()
    below_x = float(np.nextafter(vx[0], -np.inf))
    below_y = float(np.nextafter(vy[0], -np.inf))
    collector.add_batch(
        np.zeros((1, n), dtype=bool), [(below_x, below_x, below_y, below_y)]
    )
    for mask_x, xlo, xhi in zip(x_masks, x_lo, x_hi):
        collector.add_batch(
            mask_x[None, :] & y_masks,
            [(xlo, xhi, ylo, yhi) for ylo, yhi in zip(y_lo, y_hi)],
        )

    return collector.range_set(fam, ground)


FAMILIES: dict[str, RangeFamily] = {
    fam.name: fam
    for fam in (
        # name, VC dim, ambient dim, witness length, membership, enumerator
        RangeFamily("intervals", 2, 1, 2, _in_interval, _IntervalRangeSet),
        RangeFamily("halfplanes", 3, 2, 3, _in_halfplane, _build_halfplanes),
        RangeFamily("rectangles", 4, 2, 4, _in_rectangle, _build_rectangles),
        RangeFamily("disks", 3, 2, 3, _in_disk, _build_disks, nonnegative=(2,)),
    )
}


# ---------------------------------------------------------------------------
# point file IO
# ---------------------------------------------------------------------------


def read_points_csv(path: str) -> GroundSet:
    """Read a ground set from CSV with header `x` (1-D) or `x,y` (2-D)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParameterError(f"{path}: empty points file") from None
        header = [h.strip().lower() for h in header]
        if header == ["x"]:
            dim = 1
        elif header == ["x", "y"]:
            dim = 2
        else:
            raise ParameterError(
                f"{path}: header must be 'x' or 'x,y', got {','.join(header)!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != dim:
                raise ParameterError(f"{path}:{lineno}: expected {dim} columns")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: non-numeric value") from None
    if not rows:
        raise ParameterError(f"{path}: no points")
    return GroundSet(np.asarray(rows, dtype=np.float64))


def write_points_csv(path: str, ground: GroundSet) -> None:
    """Write a ground set in the format `read_points_csv` accepts."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] if ground.dimension == 1 else ["x", "y"])
        for row in ground.coords:
            writer.writerow([repr(float(v)) for v in row])
