"""Exhaustive verifiers for sampling guarantees, and the property registry.

Each guarantee is one `Property` record in `PROPERTIES`: its names, whether
it takes p, its sample size and its margin kernel. The kernel path
enumerates every induced range of the ground set, counts ground and sample
points per range, evaluates the guarantee's defining inequalities on those
exact integer counts (one float division at comparison time, no
accumulation), and reports the tightest constraint as a signed margin.
`passed` is exactly `worst_margin >= 0`.

On intervals no per-range array is built: one blocked row scorer runs the
margin kernel, about _BLOCK runs at a time, over the runs from chosen lo
values, counting from per-value prefix sums. Every property has a
prefix-sum fast path (`Property.interval_worst`) that bounds per lo the
margins of its runs from below (exactly the least one for eps_net and
eps_approx, within a tolerance for the relative-style two, over bands of
counts for sensitive), so only the lo values that can hold the worst margin
are scored. Only a relative-style p so small that the per-level arrays would
outgrow the row scorer scores every run. Counts and float expressions are
the kernel's, so the reports are bit-identical to the kernel path's. The
Monte-Carlo harness asks only for the worst margin and skips the tie-break.

Inequalities carry a relative slack of REL_TOL in favor of passing: true
weights are exact rationals, so near-ties only arise from rounding on the
analytic side (square roots, products with eps), and the slack keeps a
mathematically tight boundary case from flipping to a spurious failure.

The reported worst range is deterministic: margin ties break by
lexicographic order on the sorted member index list, a strict prefix first.
The empty range (row 0) wins any tie it is in; otherwise the tied range
with the least member list under Python's list order is reported.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ParameterError
from .ranges import (
    EnumerationBudget,
    GroundSet,
    InducedRange,
    InducedRangeSet,
    RangeFamily,
    _IntervalRangeSet,
    family as family_by_name,
    induced_ranges,
)
from .sampling import (
    Sample,
    _check_unit,
    size_eps_approx,
    size_eps_net,
    size_relative,
    size_sensitive,
)

__all__ = [
    "REL_TOL",
    "Property",
    "PROPERTIES",
    "canonical_property",
    "VerificationReport",
    "verify_property",
    "verify_eps_net",
    "verify_eps_approx",
    "verify_sensitive",
    "verify_relative",
    "verify_relative_sensitive",
    "check_sensitive_implies_net_approx",
    "check_sensitive_implies_relative",
]

log = logging.getLogger(__name__)

REL_TOL = 1e-9
_UP = 1.0 + REL_TOL
_DOWN = 1.0 - REL_TOL

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive check.

    worst_margin is the signed slack of the tightest constraint; the report
    passes exactly when it is non-negative. worst_range is the range
    attaining it; ties go to the lexicographically least member list.
    """

    property: str
    passed: bool
    worst_margin: float
    worst_range: InducedRange | None
    ranges_checked: int

    def __post_init__(self):
        if self.property not in PROPERTIES:
            raise ParameterError(f"unknown property {self.property!r}")

    def to_json_dict(self) -> dict[str, Any]:
        worst = None
        if self.worst_range is not None:
            worst = {
                "members": [int(i) for i in self.worst_range.members],
                "witness_params": [float(v) for v in self.worst_range.witness_params],
            }
        return {
            "property": self.property,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "worst_range": worst,
            "ranges_checked": self.ranges_checked,
        }


def _resolve_family(fam: RangeFamily | str) -> RangeFamily:
    return family_by_name(fam) if isinstance(fam, str) else fam


def _engine(
    X: GroundSet,
    N: Sample,
    fam: RangeFamily | str,
    budget: EnumerationBudget | None,
    ranges: InducedRangeSet | None,
) -> InducedRangeSet:
    fam = _resolve_family(fam)
    if N.ground_size != len(X):
        raise ParameterError(
            f"sample drawn from a ground set of size {N.ground_size}, "
            f"verifying against one of size {len(X)}"
        )
    if ranges is not None:
        same_ground = ranges.ground is X or np.array_equal(ranges.ground.coords, X.coords)
        if ranges.family.name != fam.name or not same_ground:
            raise ParameterError("precomputed ranges do not match X and family")
        return ranges
    return induced_ranges(fam, X, budget)


def _lex_min_range(engine: InducedRangeSet, candidates: np.ndarray) -> int:
    """Among candidate range ids (ascending), the one whose sorted member
    list is lexicographically least. Row 0 is the empty range, which sorts
    before every other list; otherwise Python list order decides, which is
    lexicographic with a strict prefix first."""
    if candidates[0] == 0:
        return 0
    return min(candidates.tolist(), key=lambda k: engine.members(k).tolist())


def _report(
    prop: str, engine: InducedRangeSet, worst: float, tied: np.ndarray
) -> VerificationReport:
    """Report for a worst margin and its tied range ids (ascending)."""
    k = _lex_min_range(engine, tied)
    return VerificationReport(
        property=prop,
        passed=bool(worst >= 0.0),
        worst_margin=worst,
        worst_range=engine.range_at(k),
        ranges_checked=len(engine),
    )


# Margin kernels map exact per-range ground and sample counts to signed
# slacks, non-negative exactly where the guarantee holds on that range.


def _net_margins(r_cnt, s_cnt, n, m, eps, p):
    # light ranges are unconstrained; the full set is induced and heavy, so
    # at least one margin is finite
    return np.where(r_cnt >= eps * n, (s_cnt - 1) / m, math.inf)


def _approx_margins(r_cnt, s_cnt, n, m, eps, p):
    dev = np.abs(r_cnt * m - s_cnt * n) / (n * m)
    return eps * _UP - dev


def _sensitive_allowance(n, eps):
    """The allowance per count 0..n, the only values r_cnt takes; it never
    falls as the count grows."""
    return (eps / 2.0) * (np.sqrt(np.arange(n + 1) / n) + eps) * _UP


def _sensitive_margins(r_cnt, s_cnt, n, m, eps, p):
    dev = np.abs(r_cnt * m - s_cnt * n) / (n * m)
    return _sensitive_allowance(n, eps)[r_cnt] - dev


# The two clauses of the relative-style guarantees, on weights r = r_cnt/n
# and s = s_cnt/m: the two-sided envelope (1 - e) r <= s <= (1 + e) r of a
# heavy range and the cap s <= (1 + e) base of a light one. Each kernel keeps
# a range's tightest applicable clause, +inf standing for an inapplicable
# one, so the multi-level kernel's level-1 margins match the plain relative
# kernel's bit for bit.


def _envelope(r, s, e):
    return np.minimum(s - (1.0 - e) * r * _DOWN, (1.0 + e) * r * _UP - s)


def _cap(s, e, base):
    return (1.0 + e) * base * _UP - s


def _relative_clauses(r_cnt, s_cnt, n, m, eps, p):
    # (clause (i) on r >= p, clause (ii) on r <= p)
    r, s = r_cnt / n, s_cnt / m
    return (
        np.where(r_cnt >= p * n, _envelope(r, s, eps), math.inf),
        np.where(r_cnt <= p * n, _cap(s, eps, p), math.inf),
    )


def _relative_kernel(r_cnt, s_cnt, n, m, eps, p):
    return np.minimum(*_relative_clauses(r_cnt, s_cnt, n, m, eps, p))


def _ladder(n, eps, p, sensitive):
    """(thresholds, env_eps, cap_eps, cap_base): envelope band i (from 1),
    thresholds[i-1] <= r_cnt < thresholds[i] (the last open above), at
    env_eps[i-1]; cap level j, thresholds[j-2] < r_cnt <= thresholds[j-1], at
    (1 + cap_eps[j-1]) cap_base[j-1]. Plain relative is one level, and
    relative_sensitive floor(1/p) levels (i p, eps/sqrt(i)) and one band more."""
    levels = max(1, int(math.floor(1.0 / p))) if sensitive else 1
    i = np.arange(1.0, levels + 1 + sensitive)
    e = eps / np.sqrt(i)
    return i * (p * n), e, e[:levels], (i * p)[:levels]


def _relative_sensitive_margins(r_cnt, s_cnt, n, m, eps, p):
    thresholds, env_eps, cap_eps, cap_base = _ladder(n, eps, p, True)
    r, s = r_cnt / n, s_cnt / m

    # binding envelope band, from 1: largest i with r_cnt >= thresholds[i-1],
    # 0 on light ranges (no envelope); binding cap level, from 0: smallest j
    # with r_cnt <= thresholds[j], 0 on light ranges (plain clause (ii)); both
    # found once per count 0..n, the only values r_cnt takes, and gathered
    i = np.searchsorted(thresholds, np.arange(n + 1), side="right")[r_cnt]
    j = np.searchsorted(thresholds, np.arange(n + 1), side="left")[r_cnt]
    env = np.where(i >= 1, _envelope(r, s, np.take(env_eps, i - 1, mode="clip")), math.inf)
    cap = _cap(s, np.take(cap_eps, j, mode="clip"), np.take(cap_base, j, mode="clip"))
    return np.minimum(env, np.where(j < cap_eps.shape[0], cap, math.inf))


# Interval fast paths, from the per-group prefix sums `cum` (ground) and P
# (sample), where run (lo, hi) holds cum[hi+1] - cum[lo] points: each finds
# bound[lo], a lower bound on the margins of the runs from lo, and an upper
# bound on the worst margin for `_score_rows`, which scores the picked runs
# about _BLOCK at a time so that its memory stays bounded. None sends the
# caller to `_score_rows` over every run. At 2^16 runs a kernel temporary is
# 512 KB: the sensitive kernel over all 2M runs of 2000 values took 28 ms,
# against 38 ms at 2^18 (in-process medians, shared 2-core Xeon).
_BLOCK = 1 << 16


def _score_rows(engine, P, ties, margins, bound, threshold):
    """The worst margin over the empty range and the runs from each lo with
    bound[lo] <= threshold, and with ties set the ascending ids of the
    ranges attaining it, the empty range alone for a tie it is in.
    bound[lo] must not exceed any margin of the runs from lo, nor threshold
    fall below the worst margin; margins(r_cnt, s_cnt) is the kernel."""
    cum, starts = engine._cum, engine._starts
    empty = np.zeros(1, dtype=np.int64)
    worst, tied = float(margins(empty, empty)[0]), None  # None: the empty range ties
    # a run no worse than the empty range can only tie it, which it wins
    pick = np.flatnonzero((bound <= threshold) & (bound < worst))
    # a block takes the rows that start in one window of _BLOCK ids; the
    # runs from one lo have consecutive ids, so the ids come out ascending
    window = starts[pick] // _BLOCK
    for w in np.unique(window):
        los = pick[window == w].tolist()
        margin = margins(
            np.concatenate([cum[lo + 1 :] - cum[lo] for lo in los]),
            np.concatenate([P[lo + 1 :] - P[lo] for lo in los]),
        )
        least = float(margin.min())
        if least < worst:
            worst, tied = least, []
        if ties and tied is not None and least == worst:
            ids = np.concatenate([np.arange(starts[lo], starts[lo + 1]) for lo in los])
            tied.append(ids[margin == worst])
    if not ties:
        return worst, None
    return worst, empty if tied is None else np.concatenate(tied)


def _interval_net_worst(engine, P, n, m, eps, p, ties):
    cum = engine._cum
    k = cum.shape[0] - 1
    # the kernel's heavy test r_cnt >= eps*n, on integer counts
    need = math.ceil(eps * n)
    # end = hi + 1 of the shortest heavy run from each lo; hits only grow
    # with hi, so that run has the fewest hits of the runs from lo
    end = np.searchsorted(cum, cum[:-1] + need, side="left")
    lo = np.nonzero(end <= k)[0]
    end = end[lo]
    hits = P[end] - P[lo]
    least = int(hits.min())
    worst = float((least - 1) / m)
    if not ties:
        return worst, None
    # the runs from a lo with no heavy run are all unconstrained
    best = np.full(k, math.inf)
    best[lo] = (hits - 1) / m
    return _score_rows(
        engine, P, True, lambda r, s: _net_margins(r, s, n, m, eps, p), best, best.min()
    )


def _interval_approx_worst(engine, P, n, m, eps, p, ties):
    # D[b] - D[a] = r_cnt*m - s_cnt*n for the run of groups a..b-1, so the
    # runs from lo deviate most toward the largest or the least D past lo
    D = engine._cum * m - P * n
    top = np.maximum.accumulate(D[:0:-1])[::-1]
    bottom = np.minimum.accumulate(D[:0:-1])[::-1]
    numer = np.maximum(top - D[:-1], D[:-1] - bottom)
    # the kernel's float expression, monotone in the numerator: best is exact,
    # and every lo holding a run that rounds to the worst margin is picked
    best = eps * _UP - numer / (n * m)
    return _score_rows(
        engine, P, ties, lambda r, s: _approx_margins(r, s, n, m, eps, p), best, best.min()
    )


# The relative-style fast paths: best[lo] is, within _TOL, the least cap or
# envelope side of any run from lo. A light run's cap (1 + e) base - s falls
# as s grows with hi, so from each lo the longest run within a cap level's
# count limit carries that level's least cap. The envelope sides are
# differences of per-end values, s - (1 - e) r = A[end] - A[lo] and
# (1 + e) r - s = B[end] - B[lo] with A = P/m - (1 - e) cum/n and
# B = (1 + e) cum/n - P/m, so range-min tables over each envelope band's
# ends give their least values. _TOL exceeds twice the rounding error of
# these differences (a few ulp of values at most 2), so best - _TOL bounds
# each lo's margins from below and best.min() + _TOL the worst from above.
_TOL = 1e-12
# The one deferral, to the row scorer over every run: the per-level arrays,
# float64 min tables included, take about 200-220 bytes per (level, lo)
# entry, the row scorer under 10 MB in all, and the two break even at about
# 2.5 ranges per entry at n = 500, 5.5 at n = 2000 and 8 at n = 5000
# (in-process medians, m = 2000, eps = 0.1, shared 2-core Xeon). At n = 5000,
# p = 1/300 (8.3 ranges per entry), fresh processes: 0.43-0.53 s and 288 MB
# of growth against 0.42-0.53 s and 8 MB; at p = 1/156.5, 785,157 entries,
# 162 MB. So the fast path defers past an eighth of the range count or
# _LEVEL_CAP, about 165 MB, but not within _LEVEL_FLOOR (14 MB).
_LEVEL_CAP = 3 << 18
_LEVEL_FLOOR = 1 << 16


def _min_tables(V, depth):
    """tables[t, row, x]: the least entry of V[row] in [x, x + 2**t), for
    x + 2**t <= V.shape[1]."""
    tables = np.empty((depth + 1, *V.shape), dtype=V.dtype)
    tables[0] = V
    for t in range(1, depth + 1):
        h = 1 << (t - 1)
        tables[t] = tables[t - 1]
        np.minimum(tables[t - 1, :, :-h], tables[t - 1, :, h:], out=tables[t, :, :-h])
    return tables


def _interval_relative_style(engine, P, n, m, ties, margins, ladder):
    """The shared fast path over a `_ladder`; margins(r_cnt, s_cnt) is the kernel."""
    thresholds, env_eps, cap_eps, cap_base = ladder
    cum = engine._cum
    k = cum.shape[0] - 1
    if thresholds.shape[0] * (k + 1) > max(_LEVEL_FLOOR, min(_LEVEL_CAP, len(engine) // 8)):
        return None

    # cap level j: E[j-1, lo] ends the longest run from lo within its count
    # limit, and the level's own runs from lo end in (prev, E]
    limit = np.floor(thresholds[: cap_eps.shape[0]])
    E = np.searchsorted(cum, cum[:-1] + limit[:, None], side="right") - 1
    prev = np.vstack([np.arange(k), E[:-1]])
    top = _cap(0.0, cap_eps, cap_base)
    best = np.where(E > prev, top[:, None] - (P[E] - P[:-1]) / m, math.inf).min(axis=0)

    # envelope band i: G[i-1, lo] is the first end whose run from lo reaches
    # it; rows of V are the A values of every band, then the B values
    s_w, r_w = P / m, cum / n
    V = np.concatenate([
        s_w - ((1.0 - env_eps) * _DOWN)[:, None] * r_w,
        ((1.0 + env_eps) * _UP)[:, None] * r_w - s_w,
    ])
    G = np.searchsorted(cum, cum[:-1] + np.ceil(thresholds)[:, None], side="left")
    G = np.vstack([G, np.full(k, k + 1)])
    a, b = np.tile(G[:-1], (2, 1)), np.tile(G[1:], (2, 1))
    row, at = np.nonzero(a < b)
    a, b = a[row, at], b[row, at]
    tables = _min_tables(V, int((b - a).max(initial=1)).bit_length() - 1)
    # the least of V[row] in [a, b): two overlapping power-of-two windows
    t = np.frexp(b - a)[1] - 1
    side = np.full((V.shape[0], k), math.inf)
    side[row, at] = np.minimum(tables[t, row, a], tables[t, row, b - (1 << t)]) - V[row, at]
    best = np.minimum(best, side.min(axis=0))
    return _score_rows(engine, P, ties, margins, best - _TOL, best.min() + _TOL)


def _interval_relative_worst(engine, P, n, m, eps, p, ties):
    return _interval_relative_style(
        engine, P, n, m, ties, lambda r, s: _relative_kernel(r, s, n, m, eps, p),
        _ladder(n, eps, p, False),
    )


def _interval_relative_sensitive_worst(engine, P, n, m, eps, p, ties):
    return _interval_relative_style(
        engine, P, n, m, ties, lambda r, s: _relative_sensitive_margins(r, s, n, m, eps, p),
        _ladder(n, eps, p, True),
    )


# The sensitive fast path bounds each lo's margins instead of finding them.
# A run's margin is allowance[r_cnt] - |D[end] - D[lo]| / (n m), D as in the
# eps_approx path, and the allowance never falls as r_cnt grows. So over the
# ends of one band of counts from lo, the allowance at the band's least count
# less the deviation toward the band's largest or least D is at most every
# margin: the kernel's integers and monotone float expressions, no tolerance.
# The _BANDS bands are uniform in sqrt(r_cnt), as the allowance is, so each
# leaves about the same allowance slack.
_BANDS = 32


def _interval_sensitive_worst(engine, P, n, m, eps, p, ties):
    cum = engine._cum
    k = cum.shape[0] - 1
    D = cum * m - P * n
    allowance = _sensitive_allowance(n, eps)
    # band j from lo: the ends G[j, lo] <= end < G[j + 1, lo], whose runs
    # count from edges[j] (one at least) up to the next edge; first[c] is
    # the first end whose run from group 0 counts at least c, k + 1 past n
    edges = np.ceil(n * (np.arange(_BANDS) / _BANDS) ** 2).clip(min=1)
    edges = np.append(edges, n + 1).astype(np.int64)
    first = np.searchsorted(cum, np.arange(n + 2))
    # the least and the largest D over a band: two overlapping power-of-two
    # windows of the min tables of D and -D (row 1)
    tables = _min_tables(np.stack([D, -D]), k.bit_length() - 1).reshape(-1)
    bound = np.full(k, math.inf)
    # about _BLOCK (band, lo) entries at a time
    step = max(1, _BLOCK // k)
    for j in range(0, _BANDS, step):
        G = first[np.minimum(cum[:-1] + edges[j : j + step + 1, None], n + 1)]
        a, b = G[:-1], G[1:]
        width = np.maximum(b - a, 1)
        t = np.frexp(width)[1].astype(np.int64) - 1
        # flat positions of the two windows in row 0 of level t
        x = np.minimum(a, k) + t * (2 * (k + 1))
        y = x + width - (1 << t)
        low = np.minimum(tables[x], tables[y])
        high = -np.minimum(tables[x + (k + 1)], tables[y + (k + 1)])
        numer = np.maximum(high - D[:-1], D[:-1] - low)
        band = allowance[cum[np.minimum(a, k)] - cum[:-1]] - numer / (n * m)
        bound = np.minimum(bound, np.where(a < b, band, math.inf).min(axis=0))
    # the row of the least bound caps the worst margin
    margins = lambda r, s: _sensitive_margins(r, s, n, m, eps, p)
    lo = int(bound.argmin())
    worst = float(margins(cum[lo + 1 :] - cum[lo], P[lo + 1 :] - P[lo]).min())
    return _score_rows(engine, P, ties, margins, bound, worst)


def _size_relative(d, eps, p, delta, C):
    # one sample size serves every level of the relative-sensitive ladder
    return size_relative(p, eps, d, delta, C)


@dataclass(frozen=True)
class Property:
    """One guarantee: its canonical name, the other spellings accepted for
    it, whether it takes a weight threshold p, its sample size
    size(d, eps, p, delta, C), its margin kernel
    margins(r_cnt, s_cnt, n, m, eps, p) and, optionally, an interval fast
    path interval_worst(engine, P, n, m, eps, p, ties). The fast path takes
    the kernel's arguments, with the per-group sample prefix sums P in
    place of the counts; p is None for the properties that do not take it.
    It returns the worst margin and the tied range ids (None unless ties),
    or None to have every run scored, as the relative-style level guard
    does at a small p; every property here has one."""

    name: str
    aliases: tuple[str, ...]
    needs_p: bool
    size: Callable[[int, float, float | None, float, float], int] = field(repr=False)
    margins: Callable[..., np.ndarray] = field(repr=False)
    interval_worst: Callable[..., tuple[float, np.ndarray | None] | None] | None = field(
        default=None, repr=False
    )


PROPERTIES: dict[str, Property] = {
    prop.name: prop
    for prop in (
        Property(
            "eps_net", ("net", "eps-net"), False,
            lambda d, eps, p, delta, C: size_eps_net(eps, d, delta, C), _net_margins,
            _interval_net_worst,
        ),
        Property(
            "eps_approx", ("approx", "eps-approx"), False,
            lambda d, eps, p, delta, C: size_eps_approx(eps, d, delta, C), _approx_margins,
            _interval_approx_worst,
        ),
        Property(
            "sensitive", (), False,
            lambda d, eps, p, delta, C: size_sensitive(eps, d, delta, C), _sensitive_margins,
            _interval_sensitive_worst,
        ),
        Property(
            "relative", (), True, _size_relative, _relative_kernel, _interval_relative_worst,
        ),
        Property(
            "relative_sensitive", ("relative-sensitive",), True,
            _size_relative, _relative_sensitive_margins, _interval_relative_sensitive_worst,
        ),
    )
}

# every accepted spelling -> canonical name
_SPELLINGS = {
    s: prop.name for prop in PROPERTIES.values() for s in (prop.name, *prop.aliases)
}


def canonical_property(name: str) -> str:
    try:
        return _SPELLINGS[name]
    except KeyError:
        raise ParameterError(
            f"unknown property {name!r}; choose from {sorted(_SPELLINGS)}"
        ) from None


def _worst_margin(
    prop: Property, engine: InducedRangeSet, N: Sample, eps: float, p: float | None,
    ties: bool,
) -> tuple[float, np.ndarray | None]:
    """The worst margin of N over every range of the engine and, if ties is
    set, the ascending ids of the ranges attaining it (on intervals the empty
    range alone for a tie it is in). Arguments are taken as already checked."""
    if isinstance(engine, _IntervalRangeSet) and prop.interval_worst is not None:
        P = engine.sample_prefix(N.multiplicities())
        found = prop.interval_worst(engine, P, engine.n, N.m, eps, p, ties)
        if found is not None:
            return found
    return _every_range(engine, N, lambda r, s: prop.margins(r, s, engine.n, N.m, eps, p), ties)


def _every_range(
    engine: InducedRangeSet, N: Sample, margins: Callable[..., np.ndarray], ties: bool
) -> tuple[float, np.ndarray | None]:
    """`_worst_margin` with no fast path, margins(r_cnt, s_cnt) being the
    kernel: the row scorer over every run on intervals, the per-range counts
    elsewhere."""
    if isinstance(engine, _IntervalRangeSet):
        P = engine.sample_prefix(N.multiplicities())
        # no lo has a lower bound on its margins
        return _score_rows(engine, P, ties, margins, np.full(P.shape[0] - 1, -math.inf), math.inf)
    margin = margins(engine.counts, engine.sample_counts(N.multiplicities()))
    worst = float(np.min(margin))
    return worst, (np.nonzero(margin == worst)[0] if ties else None)


def verify_property(
    prop: str, X: GroundSet, N: Sample, eps: float, p: float | None,
    fam: RangeFamily | str, *,
    budget: EnumerationBudget | None = None, ranges: InducedRangeSet | None = None,
) -> VerificationReport:
    """Exhaustively check one property, named by any accepted spelling: the
    worst margin over the engine's ranges and its tie-broken range, as a
    report. p is ignored by the properties that do not take it."""
    prop = PROPERTIES[canonical_property(prop)]
    if prop.needs_p:
        if p is None:
            raise ParameterError(f"{prop.name} needs p")
        p = _check_unit("p", p)
    eps = _check_unit("eps", eps)
    engine = _engine(X, N, fam, budget, ranges)
    return _report(prop.name, engine, *_worst_margin(prop, engine, N, eps, p, ties=True))


def verify_eps_net(
    X: GroundSet, N: Sample, eps: float, fam: RangeFamily | str, *,
    budget: EnumerationBudget | None = None, ranges: InducedRangeSet | None = None,
) -> VerificationReport:
    """Every range of fractional weight >= eps must catch at least one draw.

    The margin for a heavy range is sample_weight - 1/m, the gap to the
    smallest sample weight that still counts as hit; it is negative exactly
    on missed heavy ranges. Exact integer arithmetic, no tolerance needed.
    """
    return verify_property("eps_net", X, N, eps, None, fam, budget=budget, ranges=ranges)


def verify_eps_approx(
    X: GroundSet, N: Sample, eps: float, fam: RangeFamily | str, *,
    budget: EnumerationBudget | None = None, ranges: InducedRangeSet | None = None,
) -> VerificationReport:
    """|r(R) - s(R)| <= eps on every induced range."""
    return verify_property("eps_approx", X, N, eps, None, fam, budget=budget, ranges=ranges)


def verify_sensitive(
    X: GroundSet, N: Sample, eps: float, fam: RangeFamily | str, *,
    budget: EnumerationBudget | None = None, ranges: InducedRangeSet | None = None,
) -> VerificationReport:
    """|r - s| <= (eps/2)(sqrt(r) + eps) on every induced range.

    The allowance scales with sqrt(r), so light ranges are held to a much
    tighter deviation than an eps-approximation would ask; at r=0 it
    reduces to s <= eps^2/2.
    """
    return verify_property("sensitive", X, N, eps, None, fam, budget=budget, ranges=ranges)


def verify_relative(
    X: GroundSet, N: Sample, p: float, eps: float, fam: RangeFamily | str, *,
    budget: EnumerationBudget | None = None, ranges: InducedRangeSet | None = None,
) -> VerificationReport:
    """Relative (p, eps)-approximation, both clauses.

    (i) r >= p: (1-eps) r <= s <= (1+eps) r.
    (ii) r <= p: s <= (1+eps) p.
    A range with r = p must satisfy both.
    """
    return verify_property("relative", X, N, eps, p, fam, budget=budget, ranges=ranges)


def verify_relative_sensitive(
    X: GroundSet, N: Sample, p: float, eps: float, fam: RangeFamily | str, *,
    budget: EnumerationBudget | None = None, ranges: InducedRangeSet | None = None,
) -> VerificationReport:
    """One sample serving every level i = 1..floor(1/p) at once.

    Level i is a relative (i p, eps/sqrt(i))-approximation. Per range only
    the binding level of each clause is checked: the two-sided envelope
    uses i* = floor(r/p) (largest i whose threshold the range clears, where
    eps/sqrt(i) is tightest), and the one-sided cap uses j = ceil(r/p)
    (smallest level whose cap (1 + eps/sqrt(j)) j p applies, the lowest
    such cap). Level 1 reproduces the plain relative check exactly, so
    passing here implies passing verify_relative at (p, eps).
    """
    return verify_property(
        "relative_sensitive", X, N, eps, p, fam, budget=budget, ranges=ranges
    )


def _holds(name: str, engine: InducedRangeSet, N: Sample, eps: float, p: float | None) -> bool:
    """Whether N passes the registered property `name` on every range."""
    return _worst_margin(PROPERTIES[name], engine, N, eps, p, ties=False)[0] >= 0.0


def check_sensitive_implies_net_approx(
    X: GroundSet,
    N: Sample,
    eps: float,
    fam: RangeFamily | str,
    *,
    budget: EnumerationBudget | None = None,
    ranges: InducedRangeSet | None = None,
) -> bool:
    """A sensitive eps-approximation is an eps^2-net and an
    eps(1+eps)/2-approximation at once.

    Vacuously true when the sensitive check fails. A false return means
    either a verifier bug or a genuine boundary counterexample (a range
    sitting exactly at r = eps^2 with no draws satisfies the sensitive
    inequality with zero slack while missing the net); flag it loudly.
    """
    eps = _check_unit("eps", eps)
    engine = _engine(X, N, fam, budget, ranges)
    if not _holds("sensitive", engine, N, eps, None):
        return True
    return _holds("eps_net", engine, N, eps * eps, None) and _holds(
        "eps_approx", engine, N, eps * (1.0 + eps) / 2.0, None
    )


def check_sensitive_implies_relative(
    X: GroundSet,
    N: Sample,
    p: float,
    eps: float,
    fam: RangeFamily | str,
    *,
    budget: EnumerationBudget | None = None,
    ranges: InducedRangeSet | None = None,
) -> bool:
    """A sensitive eps*sqrt(p)-approximation is a relative (p, eps)-
    approximation: both clauses hold on every range.

    With eps' = eps*sqrt(p), the premise gives |r - s| <= (eps'/2)(sqrt(r) + eps')
    on every range, and eps < 1 (`_check_unit` enforces it).
      (i)  r >= p: the allowance is (eps/2)(sqrt(p r) + eps p) <= eps r, since
           p <= r and eps < 1, so (1 - eps) r <= s <= (1 + eps) r.
      (ii) r <= p: s <= r + (eps sqrt(p)/2)(sqrt(r) + eps sqrt(p))
           <= p (1 + eps/2 + eps^2/2) <= (1 + eps) p.
    Both sides carry the REL_TOL slack, and the premise's slack never
    outgrows the conclusion's: at r = p with eps just below 1 the cap holds
    by that slack alone, which a test pins. A false return flags a verifier
    bug. Vacuously true when the sensitive check fails.
    """
    p = _check_unit("p", p)
    eps = _check_unit("eps", eps)
    engine = _engine(X, N, fam, budget, ranges)
    eps_prime = eps * math.sqrt(p)
    if not _holds("sensitive", engine, N, eps_prime, None):
        return True
    # the relative kernel keeps the lesser clause, so one pass decides both;
    # only a failure scores them apart, to name the violated one
    clauses_ok = (True, True) if _holds("relative", engine, N, eps, p) else tuple(
        _every_range(
            engine, N, lambda r, s: _relative_clauses(r, s, len(X), N.m, eps, p)[c], ties=False
        )[0] >= 0.0
        for c in (0, 1)
    )
    log.info(
        "sensitive(eps'=%.6g) passed; relative clause (i) %s, clause (ii) %s",
        eps_prime, *("holds" if ok else "VIOLATED" for ok in clauses_ok),
    )
    return all(clauses_ok)
