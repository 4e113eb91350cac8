"""Exhaustive verifiers for sampling guarantees, and the property registry.

Each guarantee is one `Property` record in `PROPERTIES`: its names, whether
it takes p, its sample size and its margin kernel. The kernel path
enumerates every induced range of the ground set, counts ground and sample
points per range, evaluates the guarantee's defining inequalities on those
exact integer counts (one float division at comparison time, no
accumulation), and reports the tightest constraint as a signed margin.
`passed` is exactly `worst_margin >= 0`.

On intervals, every property but sensitive takes a prefix-sum fast path
instead (`Property.interval_worst`). From the per-value prefix sums of
ground and sample counts it finds, per lo value, the least margin of the
runs from it (within a tolerance for relative and relative_sensitive), and
then one blocked row scorer runs the margin kernel over every run from the
lo values that can hold the worst margin. Only a p so small that the
per-level arrays would outgrow the kernel path sends the relative-style two
to it. The integer counts and the final float expressions are the
kernel's, so the reports are bit-identical to the kernel path's. The
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


def _deviations(engine: InducedRangeSet, N: Sample) -> tuple[np.ndarray, np.ndarray]:
    """(r_counts, s_counts) as int64 arrays, exact."""
    return engine.counts, engine.sample_counts(N.multiplicities())


# Margin kernels map exact per-range ground and sample counts to signed
# slacks, non-negative exactly where the guarantee holds on that range.


def _net_margins(r_cnt, s_cnt, n, m, eps, p):
    # light ranges are unconstrained; the full set is induced and heavy, so
    # at least one margin is finite
    return np.where(r_cnt >= eps * n, (s_cnt - 1) / m, math.inf)


def _approx_margins(r_cnt, s_cnt, n, m, eps, p):
    dev = np.abs(r_cnt * m - s_cnt * n) / (n * m)
    return eps * _UP - dev


def _sensitive_margins(r_cnt, s_cnt, n, m, eps, p):
    dev = np.abs(r_cnt * m - s_cnt * n) / (n * m)
    r = r_cnt / n
    allowance = (eps / 2.0) * (np.sqrt(r) + eps)
    return allowance * _UP - dev


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
    # with r_cnt <= thresholds[j], 0 on light ranges (plain clause (ii))
    i = np.searchsorted(thresholds, r_cnt, side="right")
    j = np.searchsorted(thresholds, r_cnt, side="left")
    env = np.where(i >= 1, _envelope(r, s, np.take(env_eps, i - 1, mode="clip")), math.inf)
    cap = _cap(s, np.take(cap_eps, j, mode="clip"), np.take(cap_base, j, mode="clip"))
    return np.minimum(env, np.where(j < cap_eps.shape[0], cap, math.inf))


# Interval fast paths, from the per-group prefix sums `cum` (ground) and P
# (sample), where run (lo, hi) holds cum[hi+1] - cum[lo] points: each finds
# best[lo], the least margin of the runs from lo, for `_score_rows`, which
# scores at most the kernel path's runs, about _BLOCK at a time so that its
# memory stays bounded. None sends the caller to the kernel path.
_BLOCK = 1 << 18


def _score_rows(engine, P, ties, margins, best, tol):
    """The worst margin over the empty range and the runs from each lo whose
    best[lo] (their least margin, up to tol) is within tol of the least one,
    and with ties set the ascending ids of the ranges attaining it, the empty
    range alone for a tie it is in. margins(r_cnt, s_cnt) is the kernel."""
    cum, starts = engine._cum, engine._starts
    empty = np.zeros(1, dtype=np.int64)
    worst, tied = float(margins(empty, empty)[0]), None  # None: the empty range ties
    # a run no worse than the empty range can only tie it, which it wins
    pick = np.flatnonzero((best <= best.min() + tol) & (best < worst + tol))
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
        engine, P, True, lambda r, s: _net_margins(r, s, n, m, eps, p), best, 0.0
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
        engine, P, ties, lambda r, s: _approx_margins(r, s, n, m, eps, p), best, 0.0
    )


# The relative-style fast paths: best[lo] is, within _TOL, the least cap or
# envelope side of any run from lo. A light run's cap (1 + e) base - s falls
# as s grows with hi, so from each lo the longest run within a cap level's
# count limit carries that level's least cap. The envelope sides are
# differences of per-end values, s - (1 - e) r = A[end] - A[lo] and
# (1 + e) r - s = B[end] - B[lo] with A = P/m - (1 - e) cum/n and
# B = (1 + e) cum/n - P/m, so range-argmin tables over each envelope band's
# ends give their least values. _TOL exceeds twice the rounding error of
# these differences (a few ulp of values at most 2), so every run whose
# kernel margin is the worst one starts at a lo that the row scorer picks.
_TOL = 1e-12
# The one deferral: the per-level arrays cost about 140 bytes and 0.3 us per
# (level, lo) entry, the kernel path about 80 bytes and 0.12 us per range,
# and a tiny p makes floor(1/p) levels. (Fresh process, m = 2000, eps = 0.1,
# shared 2-core Xeon: n = 2000, p = 1/500, 1.0M entries, 0.29 s and 178 MB
# peak, the kernel path 0.24 s and 192 MB; n = 5000, p = 1/600, 3.0M
# entries, 0.94 s and 463 MB.)
# So the fast path defers once the entries pass a quarter of the range
# count, short of where the kernel path turns faster, unless they stay
# within _LEVEL_CAP (about 150 MB).
_LEVEL_CAP = 1 << 20


def _argmin_tables(V, depth):
    """tables[t, row, x]: a position of the least entry of V[row] in
    [x, x + 2**t)."""
    tables = np.empty((depth + 1, *V.shape), dtype=np.int32)
    idx = np.broadcast_to(np.arange(V.shape[1], dtype=np.int32), V.shape)
    val = V
    tables[0] = idx
    for t in range(1, depth + 1):
        h = 1 << (t - 1)
        left = val[:, :-h] <= val[:, h:]
        idx = np.where(left, idx[:, :-h], idx[:, h:])
        val = np.minimum(val[:, :-h], val[:, h:])
        tables[t, :, : idx.shape[1]] = idx
    return tables


def _argmin(V, tables, row, a, b):
    """A position of the least entry of V[row] in [a, b), elementwise (a < b)."""
    t = np.frexp(b - a)[1] - 1
    i, j = tables[t, row, a], tables[t, row, b - (1 << t)]
    return np.where(V[row, i] <= V[row, j], i, j).astype(np.int64)


def _interval_relative_style(engine, P, n, m, ties, margins, ladder):
    """The shared fast path over a `_ladder`; margins(r_cnt, s_cnt) is the kernel."""
    thresholds, env_eps, cap_eps, cap_base = ladder
    cum = engine._cum
    k = cum.shape[0] - 1
    if thresholds.shape[0] * (k + 1) > max(_LEVEL_CAP, len(engine) // 4):
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
    tables = _argmin_tables(V, int((b - a).max(initial=1)).bit_length() - 1)
    side = np.full((V.shape[0], k), math.inf)
    side[row, at] = V[row, _argmin(V, tables, row, a, b)] - V[row, at]
    best = np.minimum(best, side.min(axis=0))
    return _score_rows(engine, P, ties, margins, best, _TOL)


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
    or None to defer to the kernel."""

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
    set, the ascending ids of the ranges attaining it. Arguments are taken
    as already checked."""
    if prop.interval_worst is not None and isinstance(engine, _IntervalRangeSet):
        P = engine.sample_prefix(N.multiplicities())
        found = prop.interval_worst(engine, P, engine.n, N.m, eps, p, ties)
        if found is not None:
            return found
    margins = prop.margins(*_deviations(engine, N), engine.n, N.m, eps, p)
    worst = float(np.min(margins))
    return worst, (np.nonzero(margins == worst)[0] if ties else None)


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
    counts = (*_deviations(engine, N), len(X), N.m)
    if not np.min(_sensitive_margins(*counts, eps, None)) >= 0.0:
        return True
    net = _net_margins(*counts, eps * eps, None)
    approx = _approx_margins(*counts, eps * (1.0 + eps) / 2.0, None)
    return bool(np.min(net) >= 0.0 and np.min(approx) >= 0.0)


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
    """A sensitive eps*sqrt(p)-approximation satisfies the relative
    (p, eps) envelope on every heavy range.

    Only the two-sided clause (i) is asserted; whether the light-range cap
    (ii) is also forced is open, so its outcome is logged, not returned.
    Vacuously true when the sensitive check fails.
    """
    p = _check_unit("p", p)
    eps = _check_unit("eps", eps)
    engine = _engine(X, N, fam, budget, ranges)
    eps_prime = eps * math.sqrt(p)
    r_cnt, s_cnt = _deviations(engine, N)
    n, m = len(X), N.m
    if not np.min(_sensitive_margins(r_cnt, s_cnt, n, m, eps_prime, None)) >= 0.0:
        return True
    clause_i, clause_ii = _relative_clauses(r_cnt, s_cnt, n, m, eps, p)
    clause_i_ok = bool(np.min(clause_i) >= 0.0)
    clause_ii_ok = bool(np.min(clause_ii) >= 0.0)
    log.info(
        "sensitive(eps'=%.6g) passed; relative clause (i) %s, "
        "unasserted clause (ii) %s",
        eps_prime,
        "holds" if clause_i_ok else "VIOLATED",
        "holds" if clause_ii_ok else "violated",
    )
    return clause_i_ok