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
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

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
    multiplicity, built on first use; `sample_counts` maps a per-point
    multiplicity vector to per-range hit counts in one vectorized pass.
    Individual `InducedRange` objects are materialized on demand.
    """

    def __init__(self, fam: RangeFamily, ground: GroundSet):
        self.family = fam
        self.ground = ground
        self.n = len(ground)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        return self.sample_counts(np.ones(self.n, dtype=np.int64))

    def sample_counts(self, multiplicities) -> np.ndarray:
        """Per-range hit counts, int64, of `multiplicities`: a 1-D array of
        n non-negative integers, the draws of each ground point."""
        mult = np.asarray(multiplicities)
        if mult.shape != (self.n,) or not np.issubdtype(mult.dtype, np.integer):
            raise ParameterError(
                f"multiplicities must be a 1-D integer array of length {self.n}, "
                f"got {mult.dtype} of shape {mult.shape}"
            )
        mult = mult.astype(np.int64, copy=False)
        # a uint64 value of 2**63 or more wraps to a negative int64
        if mult.min() < 0:
            raise ParameterError("multiplicities must be non-negative int64 values")
        return self._sample_counts(mult)

    # subclass API ---------------------------------------------------------
    def _sample_counts(self, mult: np.ndarray) -> np.ndarray:
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


def _empty_run(smallest: float) -> tuple[float, float]:
    """(lo, hi) of a closed run that holds no value >= smallest: one ulp below
    it, or, where that is -inf, the inverted run (1, -1), which holds nothing."""
    below = math.nextafter(float(smallest), -math.inf)
    return (below, below) if math.isfinite(below) else (1.0, -1.0)


class _IntervalRangeSet(InducedRangeSet):
    """Induced intervals: the empty set plus every run of consecutive values."""

    def __init__(self, fam: RangeFamily, ground: GroundSet):
        super().__init__(fam, ground)
        self.values, self.group_id = np.unique(ground.coords[:, 0], return_inverse=True)
        # point indices grouped by value, ascending within each group
        self._order = np.argsort(self.group_id, kind="stable")
        self._cum = np.concatenate(([0], np.cumsum(np.bincount(self.group_id))))
        # _starts[lo]: first row of the runs from lo (`row_id` order); the last is len(self)
        groups = np.arange(self.values.shape[0] + 1)
        self._starts = self.row_id(groups, groups)

    def __len__(self) -> int:
        return int(self._starts[-1])

    def row_id(self, lo, hi):
        """Row of the run of groups lo..hi (lo <= hi), elementwise."""
        k = self.values.shape[0]
        return 1 + lo * k - lo * (lo - 1) // 2 + (hi - lo)

    def _run(self, k: int) -> tuple[int, int]:
        """(lo, hi) of row k, negative k counting from the end; (0, -1) for row 0."""
        k = range(len(self))[k]
        lo = int(np.searchsorted(self._starts, k, side="right")) - 1
        return (lo, lo + k - int(self._starts[lo])) if k else (0, -1)

    def sample_prefix(self, multiplicities: np.ndarray) -> np.ndarray:
        """Per-group prefix sums of the multiplicities, length k + 1: run
        lo..hi holds prefix[hi + 1] - prefix[lo] draws; exact int64 sums."""
        return np.concatenate(([0], np.cumsum(multiplicities[self._order])[self._cum[1:] - 1]))

    def _sample_counts(self, mult: np.ndarray) -> np.ndarray:
        prefix = self.sample_prefix(mult)
        out = np.zeros(len(self), dtype=np.int64)
        for lo, start in enumerate(self._starts[:-1].tolist()):
            out[start : self._starts[lo + 1]] = prefix[lo + 1 :] - prefix[lo]
        return out

    def members(self, k: int) -> np.ndarray:
        lo, hi = self._run(k)
        return np.sort(self._order[self._cum[lo] : self._cum[hi + 1]])

    def witness(self, k: int) -> tuple[float, ...]:
        lo, hi = self._run(k)
        if hi < lo:
            return _empty_run(self.values[0])
        return (float(self.values[lo]), float(self.values[hi]))


def _new_words(n: int, rows: int) -> np.ndarray:
    """Zeroed (ceil(n/64), rows) uint64 storage for `rows` packed rows of n points."""
    return np.zeros(((n + 63) // 64, rows), dtype=np.uint64)


def _put_rows(words: np.ndarray, start: int, packed: np.ndarray) -> None:
    """Write packed rows, the (k, ceil(n/8)) bytes of `np.packbits(rows,
    axis=1)`, into columns start..start+k-1 of `words`; the pad bytes of
    each row's last word stay zero."""
    k = packed.shape[0]
    view = words.view(np.uint8).reshape(words.shape[0], words.shape[1], 8)
    for w in range(words.shape[0]):
        part = packed[:, 8 * w : 8 * w + 8]
        view[w, start : start + k, : part.shape[1]] = part


class _PackedRangeSet(InducedRangeSet):
    """Halfplane and disk storage, one witness per row and the rows as
    `words`, a (W, R) uint64 array with W = ceil(n/64).

    Column r holds row r's `np.packbits` bytes, padded with zero bytes to
    8W, in memory order, so point i is bit 7 - i % 8 of byte i // 8 on any
    endianness, and a uint8 view of the words gives back the packed bytes.
    """

    def __init__(self, fam: RangeFamily, ground: GroundSet, words: np.ndarray, witnesses):
        super().__init__(fam, ground)
        self._words = words
        self._witnesses = witnesses

    def __len__(self) -> int:
        return self._words.shape[1]

    def packed_rows(self) -> np.ndarray:
        """The (R, ceil(n/8)) bytes of `np.packbits` of every row, in row order."""
        nw, nr = self._words.shape
        rows = self._words.view(np.uint8).reshape(nw, nr, 8).transpose(1, 0, 2)
        return np.ascontiguousarray(rows.reshape(nr, 8 * nw)[:, : (self.n + 7) // 8])

    def _sample_counts(self, mult: np.ndarray) -> np.ndarray:
        """Sum over the bit planes b of the multiplicities of 2^b times the
        popcount of each row ANDed with plane b, by Horner's rule from the
        top plane; all-zero plane words are skipped."""
        words = self._words
        nw, nr = words.shape
        planes = int(mult.max()).bit_length()
        masks = np.zeros((planes, 8 * nw), dtype=np.uint8)
        masks[:, : (self.n + 7) // 8] = np.packbits((mult >> np.arange(planes)[:, None]) & 1, axis=1)
        masks = masks.view(np.uint64)
        out = np.zeros(nr, dtype=np.int64)
        # a plane's popcount sum is at most n
        plane_sum = np.empty(nr, dtype=np.uint16 if self.n < 2**16 else np.uint32)
        hit = np.empty(nr, dtype=np.uint64)
        pop = np.empty(nr, dtype=np.uint8)
        for b in range(planes - 1, -1, -1):
            plane_sum.fill(0)
            for w in np.flatnonzero(masks[b]).tolist():
                np.bitwise_and(words[w], masks[b, w], out=hit)
                np.bitwise_count(hit, out=pop)
                np.add(plane_sum, pop, out=plane_sum)
            np.left_shift(out, 1, out=out)
            np.add(out, plane_sum, out=out)
        return out

    def members(self, k: int) -> np.ndarray:
        row = np.ascontiguousarray(self._words[:, k]).view(np.uint8)
        return np.flatnonzero(np.unpackbits(row, count=self.n))

    def witness(self, k: int) -> tuple[float, ...]:
        return self._witnesses[k]


class _BoxRangeSet(InducedRangeSet):
    """Rectangle storage: each row a tight box (a, b) x (c, d) over the ranks
    of the sorted distinct x values `vx` and y values `vy`, as `corners`, a
    (4, R) int32 array of flat positions in the (nx + 1) x (ny + 1) prefix
    table T of the multiplicities (T[i, j] sums the points of x-rank below i
    and y-rank below j). Box k holds T[b+1, d+1] + T[a, c] - T[a, d+1] -
    T[b+1, c] draws, corners in that order; row 0, the empty range, has all
    four at T[0, 0] = 0, which decodes to b = d = -1."""

    def __init__(self, fam, ground, vx, gx, vy, gy, corners):
        super().__init__(fam, ground)
        self._vx, self._gx, self._vy, self._gy, self._corners = vx, gx, vy, gy, corners

    def __len__(self) -> int:
        return self._corners.shape[1]

    def _sample_counts(self, mult: np.ndarray) -> np.ndarray:
        table = np.zeros((self._vx.shape[0] + 1, self._vy.shape[0] + 1), dtype=np.int64)
        np.add.at(table, (self._gx + 1, self._gy + 1), mult)
        np.cumsum(table, axis=0, out=table)
        flat = np.cumsum(table, axis=1, out=table).ravel()
        # the corners index the table, so "clip" clips nothing; it lets take
        # write into `part` without a temporary
        out = np.take(flat, self._corners[0])
        part = np.empty_like(out)
        for corner, op in ((1, np.add), (2, np.subtract), (3, np.subtract)):
            op(out, np.take(flat, self._corners[corner], out=part, mode="clip"), out=out)
        return out

    def _box(self, k: int) -> tuple[int, int, int, int]:
        (b, d), (a, c) = (divmod(int(v), self._vy.shape[0] + 1) for v in self._corners[:2, k])
        return a, b - 1, c, d - 1

    def members(self, k: int) -> np.ndarray:
        a, b, c, d = self._box(k)
        return np.flatnonzero((self._gx >= a) & (self._gx <= b) & (self._gy >= c) & (self._gy <= d))

    def witness(self, k: int) -> tuple[float, ...]:
        a, b, c, d = self._box(k)
        if b < 0:
            return _empty_run(self._vx[0]) + _empty_run(self._vy[0])
        return (float(self._vx[a]), float(self._vx[b]), float(self._vy[c]), float(self._vy[d]))


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
    """The dedupe path of the halfplane and disk enumerators (rectangles
    produce each subset once and need none).

    Candidates arrive only as batches: a boolean (k, n) row matrix and its k
    witnesses, a (k, w) float array or a list of k tuples. Rows are keyed by
    their packed bits, and the first witness of each distinct subset is kept,
    as a tuple of Python floats, in insertion order. A batch is deduplicated
    in one vectorized pass first, so only the first row of each subset in the
    batch reaches the dict, and only the rows the dict keeps become tuples.
    """

    def __init__(self):
        self._first: dict[bytes, tuple[float, ...]] = {}

    def add_batch(self, rows: np.ndarray, witnesses) -> None:
        if not len(rows):
            return
        packed = np.packbits(rows, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        first = np.sort(np.unique(keys, return_index=True)[1])
        keys = keys[first].tolist()
        new = np.array([k not in self._first for k in keys], dtype=bool)
        wit = np.asarray(witnesses, dtype=np.float64).reshape(len(rows), -1)[first[new]]
        self._first.update(zip(itertools.compress(keys, new), map(tuple, wit.tolist())))

    def range_set(self, fam: RangeFamily, ground: GroundSet) -> _PackedRangeSet:
        # the keys go into the row words a block at a time, never all joined
        n = len(ground)
        words = _new_words(n, len(self._first))
        keys = iter(self._first)
        for start in range(0, words.shape[1], _COPY_ROWS):
            block = b"".join(itertools.islice(keys, _COPY_ROWS))
            _put_rows(words, start, np.frombuffer(block, dtype=np.uint8).reshape(-1, (n + 7) // 8))
        return _PackedRangeSet(fam, ground, words, list(self._first.values()))


# rows per block copied from the collector's keys into the row words
_COPY_ROWS = 2**16
# key entries (directions x points) per block of the halfplane sweep
_HALFPLANE_KEYS = 2**14
# centers per chunk of the disk sweep, rounded up to whole bisector lines
_DISK_CENTERS = 2048


def _stable_order(keys: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.argsort(keys, axis=1, kind="stable")` and the sorted keys.

    Each row is sorted from the point order `ref`, where a sweep's keys are
    nearly sorted already, which the stable sort does in about linear time.
    A stable sort ranks tied keys by point index; rows whose ties come out
    in another rank are sorted again from scratch.
    """
    order = ref[np.argsort(keys[:, ref], axis=1, kind="stable")]
    ksort = np.take_along_axis(keys, order, axis=1)
    redo = ((ksort[:, :-1] == ksort[:, 1:]) & (order[:, :-1] > order[:, 1:])).any(axis=1)
    if redo.any():
        order[redo] = np.argsort(keys[redo], axis=1, kind="stable")
    return order, ksort


def _build_halfplanes(fam: RangeFamily, ground: GroundSet) -> _PackedRangeSet:
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

    Directions are swept in blocks of `_HALFPLANE_KEYS // n` (at least
    one), so the block's key and order arrays stay near 128 KB each whatever
    n is. Each block sorts all of its keys at once and takes every window
    from the first and last column where a direction's order differs from
    the one before it; the last order of a block carries into the next. The
    candidates come out direction by direction, in the order a
    one-direction-at-a-time sweep adds them.
    """
    coords = ground.coords
    xs, ys = coords[:, 0], coords[:, 1]
    n = len(ground)
    uniq = np.unique(coords, axis=0)
    # |a*x + b*y| <= max|x| + max|y|, so the keys and the empty range's c stay finite
    if not float(np.max(np.abs(xs))) + float(np.max(np.abs(ys))) < np.finfo(np.float64).max:
        raise ParameterError("halfplanes need max|x| + max|y| below about 1.8e308")

    if uniq.shape[0] >= 2:
        iu, ju = np.triu_indices(uniq.shape[0], k=1)
        with np.errstate(over="ignore"):
            diff = uniq[ju] - uniq[iu]
        far = ~np.isfinite(diff).all(axis=1)  # halved there only: halving loses subnormals
        diff[far] = uniq[ju[far]] / 2.0 - uniq[iu[far]] / 2.0
        phi = np.arctan2(diff[:, 1], diff[:, 0])
        crit = np.unique(np.concatenate([phi + 0.5 * math.pi, phi + 1.5 * math.pi]) % _TWO_PI)
        mids = (crit[:-1] + crit[1:]) / 2.0
        wrap = ((crit[-1] + crit[0] + _TWO_PI) / 2.0) % _TWO_PI
        directions = np.concatenate([mids, [wrap]])
    else:
        directions = np.array([0.0])

    collector = _SubsetCollector()
    c_empty = float(np.nextafter(np.min(1.0 * xs + 0.0 * ys), -np.inf))
    collector.add_batch(np.zeros((1, n), dtype=bool), [(1.0, 0.0, c_empty)])

    block = max(1, _HALFPLANE_KEYS // n)
    cols = np.arange(n + 1)
    prev_order: np.ndarray | None = None
    prev_valid: np.ndarray | None = None
    for start in range(0, len(directions), block):
        # math.cos and math.sin, as the witnesses have always used
        thetas = directions[start : start + block].tolist()
        a = np.array([math.cos(t) for t in thetas])[:, None]
        b = np.array([math.sin(t) for t in thetas])[:, None]
        keys = a * xs + b * ys
        order, ksort = _stable_order(keys, np.arange(n) if prev_order is None else prev_order)
        # valid[d, t]: cutting direction d after position t-1 respects key ties
        valid = np.zeros((len(a), n + 1), dtype=bool)
        valid[:, 1:n] = ksort[:, :-1] < ksort[:, 1:]
        valid[:, n] = True
        if prev_order is None:  # the first direction keeps every valid cut
            prev_order, prev_valid = order[0], np.zeros(n + 1, dtype=bool)
        ne = order != np.concatenate([prev_order[None], order[:-1]])
        first = np.argmax(ne, axis=1)[:, None]
        last = n - 1 - np.argmax(ne[:, ::-1], axis=1)[:, None]
        window = ne.any(axis=1)[:, None] & (cols > first) & (cols <= last)
        # a cut is a candidate inside the window or where it just became valid
        fresh = ~np.concatenate([prev_valid[None], valid[:-1]])
        d, t = np.nonzero((valid & (window | fresh))[:, 1:])
        cuts = ksort[d, t]
        collector.add_batch(keys[d] <= cuts[:, None], np.column_stack([a[d, 0], b[d, 0], cuts]))
        prev_order, prev_valid = order[-1], valid[-1]

    return collector.range_set(fam, ground)


def _disk_rows(
    centers: np.ndarray, u: np.ndarray, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership rows for anchored disks through u, one per center, and
    their (cx, cy, radius) witnesses as a (k, 3) array.

    The broadcast arithmetic matches `contains` operation for operation, so
    each row is reproduced exactly by its witness. The (k, n) squares are
    summed in place.
    """
    dxu = u[0] - centers[:, 0]
    dyu = u[1] - centers[:, 1]
    rsq = dxu * dxu + dyu * dyu
    radii = np.sqrt(rsq)
    bump = radii * radii < rsq
    radii[bump] = np.nextafter(radii[bump], np.inf)
    dx = np.subtract(coords[None, :, 0], centers[:, None, 0])
    dy = np.subtract(coords[None, :, 1], centers[:, None, 1])
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    rows = np.add(dx, dy, out=dx) <= (radii * radii)[:, None]
    return rows, np.concatenate([centers, radii[:, None]], axis=1)


def _bisector_line(u, v, j, aw, bw, span):
    """The bisector of anchor u and point v = others[j] as p0 + t*dvec, with
    nhat its unit normal towards v, and the positions t at which its
    anchored disks are evaluated: whether each is a crossing with another
    bisector, and the gap to its nearest neighbour (the face-probe step)."""
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
        return p0, dvec, nhat, np.array([0.0]), np.array([False]), np.array([span + 1.0])
    pad = span + 1.0 + float(np.max(np.abs(tcross)))
    mids = (tcross[:-1] + tcross[1:]) / 2.0
    t_all = np.concatenate([[tcross[0] - pad], tcross, mids, [tcross[-1] + pad]])
    flags = np.zeros(t_all.shape[0], dtype=bool)
    flags[1 : 1 + tcross.size] = True
    order = np.argsort(t_all, kind="stable")
    t_list = t_all[order]
    step = np.diff(t_list)
    gaps = np.minimum(np.concatenate([[pad], step]), np.concatenate([step, [pad]]))
    return p0, dvec, nhat, t_list, flags[order], np.maximum(gaps, span * 1e-12)


def _disk_chunk(collector, u, coords, lines, vmask) -> None:
    """Evaluate the anchored disks of whole bisector lines through u at once.

    `lines` holds one `_bisector_line` tuple per line, and `vmask[j]` marks
    the points equal to line j's defining point v. The rows reach the
    collector line by line: the line's centers, then its first face probes,
    then its halving retries, each retry's steps in order.
    """
    # line[r]: the line of candidate r
    line = np.repeat(np.arange(len(lines)), [len(ln[3]) for ln in lines])
    p0, dvec, nhat = (np.array([ln[i] for ln in lines])[line] for i in range(3))
    t_list, is_vertex, gaps = (np.concatenate([ln[i] for ln in lines]) for i in range(3, 6))
    vm = vmask[line]
    centers = p0 + t_list[:, None] * dvec
    rows, wit = _disk_rows(centers, u, coords)
    # first face probe, a half gap off the line away from v
    rows2, wit2 = _disk_rows(centers - (0.5 * gaps)[:, None] * nhat, u, coords)
    # the probe can overshoot into a farther face when a nearby line cuts it
    # off; halve the step until the expected subset shows up. A retry also
    # stops once its center no longer moves. Vertex candidates are skipped:
    # stepping off a vertex resolves the second tie as well, and those
    # faces border the adjacent edge midpoints, which handle them.
    targets = rows & ~vm
    retry = (rows & vm).any(axis=1) & (rows2 != targets).any(axis=1) & ~is_vertex
    k = np.nonzero(retry)[0]
    delta = 0.25 * gaps[k]
    probe_k, probe_rows, probe_wit = [], [], []
    for _ in range(60):
        c2 = centers[k] - delta[:, None] * nhat[k]
        moved = (c2 != centers[k]).any(axis=1)
        k, delta, c2 = k[moved], delta[moved], c2[moved]
        if k.size == 0:
            break
        rows_c2, wit_c2 = _disk_rows(c2, u, coords)
        probe_k.append(k)
        probe_rows.append(rows_c2)
        probe_wit.append(wit_c2)
        miss = (rows_c2 != targets[k]).any(axis=1)
        k, delta = k[miss], 0.5 * delta[miss]
    # sort on (line, phase, row); the stable sort keeps each retry's steps in order
    idx = np.concatenate([np.arange(len(line))] * 2 + probe_k)
    phase = np.repeat([0, 1, 2], [len(line), len(line), len(idx) - 2 * len(line)])
    order = np.lexsort((idx, phase, line[idx]))
    collector.add_batch(
        np.concatenate([rows, rows2] + probe_rows)[order],
        np.concatenate([wit, wit2] + probe_wit)[order],
    )


def _build_disks(fam: RangeFamily, ground: GroundSet) -> _PackedRangeSet:
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
    the step of each such retry is halved until it shows its expected
    subset; every probe row is kept, in retry-then-step order, since any
    anchored disk is a valid witness. Single-position subsets come from
    radius-zero disks, the empty and full subsets from explicit witnesses.

    The candidate positions are found line by line. The disks are then
    evaluated over chunks of whole lines of one anchor, about
    `_DISK_CENTERS` centers each, which caps the chunk's (centers, n)
    arrays at a few MB; the rows reach the collector in the order a
    line-by-line sweep gives them.
    """
    coords = ground.coords
    xs, ys = coords[:, 0], coords[:, 1]
    n = len(ground)
    uniq = np.unique(coords, axis=0)
    m = uniq.shape[0]

    span_x = float(np.max(xs)) - float(np.min(xs))
    span_y = float(np.max(ys)) - float(np.min(ys))
    with np.errstate(over="ignore"):
        norms = np.sum(uniq * uniq, axis=1)
    # every distance and bisector term below is a sum of such squares
    if not (math.isfinite(span_x * span_x + span_y * span_y) and np.isfinite(norms).all()):
        raise ParameterError(
            "disks need squared coordinates and squared coordinate spans "
            "that are finite in float64 (|x|, |y| and spans below about 1e154)"
        )

    collector = _SubsetCollector()
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

    span = max(span_x, span_y, 1.0)
    for i in range(m):
        u = uniq[i]
        others = np.delete(uniq, i, axis=0)
        aw = 2.0 * (others - u)
        bw = np.delete(norms, i) - float(norms[i])
        vmask = (xs[None, :] == others[:, 0, None]) & (ys[None, :] == others[:, 1, None])
        lines, first, centers = [], 0, 0
        for j in range(m - 1):
            lines.append(_bisector_line(u, others[j], j, aw, bw, span))
            centers += len(lines[-1][3])
            if centers >= _DISK_CENTERS or j == m - 2:
                _disk_chunk(collector, u, coords, lines, vmask[first : j + 1])
                lines, first, centers = [], j + 1, 0

    return collector.range_set(fam, ground)


def _build_rectangles(fam: RangeFamily, ground: GroundSet) -> _BoxRangeSet:
    """Tight-box sweep over all closed axis-parallel rectangles.

    A nonempty subset is induced iff its members' bounding box induces it,
    and that box is unique. Over the sorted distinct values, box (a, b) x
    (c, d) is such a tight box when it has a member in x-groups a and b and
    in y-groups c and d, so the tight boxes list every subset once, no dedupe.
    Rows run over a, then b, then the y-runs (c, d) in `np.triu_indices` order.
    """
    coords = ground.coords
    vx, gx = np.unique(coords[:, 0], return_inverse=True)
    vy, gy = np.unique(coords[:, 1], return_inverse=True)
    nx, ny = vx.shape[0], vy.shape[0]
    occupied = np.zeros((nx, ny), dtype=bool)
    occupied[gx, gy] = True
    # y-run j is c[j]..d[j]; side[a, j]: x-group a meets it
    c, d = np.triu_indices(ny)
    cum = np.cumsum(np.pad(occupied, ((0, 0), (1, 0))), axis=1)
    side = cum[:, d + 1] > cum[:, c]

    def tight(a: int) -> np.ndarray:  # [b - a, j]: box a..b over y-run j is tight
        present = np.logical_or.accumulate(occupied[a:], axis=0)
        return side[a] & side[a:] & present[:, c] & present[:, d]

    # a counting pass first, so the corners are allocated once; `side` alone
    # takes nx * ny^2 / 2 bytes, so the table's positions fit int32
    sizes = [np.count_nonzero(tight(a)) for a in range(nx)]
    corners = np.zeros((4, 1 + sum(sizes)), dtype=np.int32)
    for a, start in enumerate(np.cumsum([1] + sizes[:-1]).tolist()):
        b, j = np.nonzero(tight(a))
        lo, hi = a * (ny + 1), (a + b + 1) * (ny + 1)
        corners[:, start : start + len(j)] = hi + d[j] + 1, lo + c[j], lo + d[j] + 1, hi + c[j]
    return _BoxRangeSet(fam, ground, vx, gx, vy, gy, corners)


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
