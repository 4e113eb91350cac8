"""Exhaustive verifiers for sampling guarantees, and the property registry.

Each guarantee is one `Property` record in `PROPERTIES`: its names, whether
it takes p, its sample size and its margin kernel. The kernel path
enumerates every induced range of the ground set, counts ground and sample
points per range, evaluates the guarantee's defining inequalities on those
exact integer counts (one float division at comparison time, no
accumulation), and reports the tightest constraint as a signed margin.
`passed` is exactly `worst_margin >= 0`.

On intervals, eps_net and eps_approx take a prefix-sum fast path instead
(`Property.interval_worst`). The worst margin comes from the per-value
prefix sums of ground and sample counts in O(n), and its tied ranges from
the same sums. The integer counts and the final float expressions are the
kernel's, so the reports are bit-identical to the kernel path's. The
Monte-Carlo harness asks only for the worst margin and skips the
tie-break on every property.

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


def _relative_kernel(r_cnt, s_cnt, n, m, eps, p):
    # clause (i) on r >= p, clause (ii) on r <= p
    r, s = r_cnt / n, s_cnt / m
    return np.minimum(
        np.where(r_cnt >= p * n, _envelope(r, s, eps), math.inf),
        np.where(r_cnt <= p * n, _cap(s, eps, p), math.inf),
    )


def _relative_sensitive_margins(r_cnt, s_cnt, n, m, eps, p):
    levels = max(1, int(math.floor(1.0 / p)))
    # thresholds[i - 1] = i*pn, the float products the clauses compare
    # against; the last one, (levels + 2)*pn, exceeds n >= r_cnt
    thresholds = np.arange(1, levels + 3) * (p * n)
    r, s = r_cnt / n, s_cnt / m

    # binding envelope level of a heavy range: largest i with r_cnt >= i*pn;
    # it is 0 on light ranges, whose unused envelope divides by 1 instead
    i_star = np.searchsorted(thresholds, r_cnt, side="right")
    env = _envelope(r, s, eps / np.sqrt(np.maximum(i_star, 1)))
    env = np.where(i_star >= 1, env, math.inf)

    # binding cap level: smallest j with r_cnt <= j*pn, which is 1 for light
    # ranges, so they get the plain relative clause (ii) expression
    j = (np.searchsorted(thresholds, r_cnt, side="left") + 1).astype(np.float64)
    return np.minimum(env, np.where(j <= levels, _cap(s, eps / np.sqrt(j), j * p), math.inf))


# Interval fast paths: the worst margin and, with ties set, the ascending
# ids of every range attaining it, from the per-group prefix sums `cum`
# (ground) and P (sample), where run (lo, hi) holds cum[hi+1] - cum[lo]
# points. None sends the caller to the kernel path.


def _interval_net_worst(engine, P, n, m, eps, ties):
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
    at = hits == least
    lo, end = lo[at], end[at]
    # from each such lo, the tied runs end anywhere up to the last hi whose
    # run still has `least` hits; ids of one lo are consecutive
    last = np.searchsorted(P, P[lo] + least, side="right") - 1
    first = engine.row_id(lo, end - 1)
    run = last - end + 1
    offsets = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run, run)
    return worst, np.repeat(first, run) + offsets


def _interval_approx_worst(engine, P, n, m, eps, ties):
    # D[b] - D[a] = r_cnt*m - s_cnt*n for the run of groups a..b-1, so the
    # largest deviation numerator is max D - min D
    D = engine._cum * m - P * n
    top, bottom = int(D.max()), int(D.min())
    numer = top - bottom
    scale = float(n * m)
    worst = eps * _UP - float(numer) / scale
    if numer > 0 and eps * _UP - float(numer - 1) / scale == worst:
        # smaller numerators round to the same margin and would tie too
        return None
    if not ties:
        return worst, None
    if numer == 0:
        # every range deviates by 0, and the empty range wins that tie
        return worst, np.zeros(1, dtype=np.int64)
    i = np.flatnonzero(D == top)[:, None]
    j = np.flatnonzero(D == bottom)[None, :]
    lo, end = np.minimum(i, j), np.maximum(i, j)
    return worst, np.sort(engine.row_id(lo, end - 1), axis=None)


def _size_relative(d, eps, p, delta, C):
    # one sample size serves every level of the relative-sensitive ladder
    return size_relative(p, eps, d, delta, C)


@dataclass(frozen=True)
class Property:
    """One guarantee: its canonical name, the other spellings accepted for
    it, whether it takes a weight threshold p, its sample size
    size(d, eps, p, delta, C), its margin kernel
    margins(r_cnt, s_cnt, n, m, eps, p) and, optionally, an interval fast
    path interval_worst(engine, P, n, m, eps, ties) that returns the worst
    margin and the tied range ids (None unless ties), or None to defer to
    the kernel."""

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
        Property("relative", (), True, _size_relative, _relative_kernel),
        Property(
            "relative_sensitive", ("relative-sensitive",), True,
            _size_relative, _relative_sensitive_margins,
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
        found = prop.interval_worst(engine, P, engine.n, N.m, eps, ties)
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
    engine = _engine(X, N, fam, budget, ranges)
    eps = _check_unit("eps", eps)
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
    r, s = r_cnt / n, s_cnt / m
    clause_i = np.where(r_cnt >= p * n, _envelope(r, s, eps), math.inf)
    clause_ii = np.where(r_cnt <= p * n, _cap(s, eps, p), math.inf)
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