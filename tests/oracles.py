"""Independent reference implementations for cross-checking.

Everything here recomputes what the package computes by a different,
deliberately naive route: induced subsets by brute force over candidate
witnesses, sizes by literal formula transcription, verification by
per-range Python loops over dicts. Slow and simple on purpose.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------- subsets
#
# Each oracle returns a set of frozensets of point indices, every one of
# which is realizable (it comes from an explicit witness region), and which
# for the point counts used in tests covers everything realizable.


def interval_subsets(coords: np.ndarray) -> set[frozenset]:
    xs = np.asarray(coords, dtype=np.float64).reshape(-1)
    out = {frozenset()}
    vals = np.unique(xs)
    for lo in vals:
        for hi in vals:
            if lo <= hi:
                out.add(frozenset(np.nonzero((lo <= xs) & (xs <= hi))[0].tolist()))
    return out


def rectangle_subsets(coords: np.ndarray) -> set[frozenset]:
    pts = np.asarray(coords, dtype=np.float64)
    xs, ys = pts[:, 0], pts[:, 1]
    xvals, yvals = np.unique(xs), np.unique(ys)
    out = {frozenset()}
    for xlo in xvals:
        for xhi in xvals:
            if xhi < xlo:
                continue
            in_x = (xlo <= xs) & (xs <= xhi)
            for ylo in yvals:
                for yhi in yvals:
                    if yhi < ylo:
                        continue
                    inside = in_x & (ylo <= ys) & (ys <= yhi)
                    out.add(frozenset(np.nonzero(inside)[0].tolist()))
    return out


def halfplane_subsets(coords: np.ndarray) -> set[frozenset]:
    """One probe direction inside each arc between consecutive critical
    angles; at each, every threshold prefix of a*x + b*y <= c.

    The prefix family is constant on each open arc, and subsets with ties
    on the boundary reappear in an adjacent arc at the later of the tied
    keys, so arc interiors cover the whole family. Probing exactly at a
    critical angle is avoided on purpose: there the direction's rounding
    breaks a mathematical tie arbitrarily, minting subsets that exist only
    at isolated float angles."""
    pts = np.asarray(coords, dtype=np.float64)
    n = len(pts)
    angles = set()
    for i, j in combinations(range(n), 2):
        dx, dy = pts[j] - pts[i]
        if dx == 0.0 and dy == 0.0:
            continue
        phi = math.atan2(dy, dx)
        for shift in (math.pi / 2.0, -math.pi / 2.0):
            angles.add((phi + shift) % (2.0 * math.pi))
    if not angles:
        probe = [0.0]
    else:
        ordered = sorted(angles)
        probe = [
            (a + b) / 2.0
            for a, b in zip(ordered, ordered[1:] + [ordered[0] + 2.0 * math.pi])
        ]
    out = {frozenset()}
    for theta in probe:
        a, b = math.cos(theta), math.sin(theta)
        keys = a * pts[:, 0] + b * pts[:, 1]
        for c in np.unique(keys):
            out.add(frozenset(np.nonzero(keys <= c)[0].tolist()))
    return out


def disk_subsets(coords: np.ndarray) -> set[frozenset]:
    """Distance prefixes around one candidate center per cell of the
    bisector-line arrangement.

    A closed disk realizing a subset can shrink its radius to the farthest
    member, so every realizable subset is a distance prefix of some center,
    and the prefix map is constant on each cell of the arrangement of all
    pairwise bisectors (subsets realized on edges or vertices reappear in an
    adjacent cell, since ties at the farthest distance only add members and
    the prefix at the last tied rank is taken anyway). Candidates: every
    pairwise line intersection nudged into its four incident cells along the
    local angle bisectors, plus the points, midpoints, and a few samples
    along each bisector for the low-count cases with no intersections."""
    pts = np.asarray(coords, dtype=np.float64)
    n = len(pts)
    if n == 1:
        return {frozenset(), frozenset({0})}
    span = float(np.max(np.ptp(pts, axis=0))) or 1.0
    pairs = np.array(list(combinations(range(n), 2)))
    i, j = pairs[:, 0], pairs[:, 1]
    normal = pts[j] - pts[i]  # line: normal . c = offset
    keep = (normal != 0.0).any(axis=1)
    offset = ((pts[j] ** 2).sum(1) - (pts[i] ** 2).sum(1)) / 2.0
    mids = (pts[i] + pts[j]) / 2.0
    # duplicate points repeat a (line, midpoint) exactly; its candidates
    # would only repeat too, so keep one copy
    lines = np.unique(np.column_stack([normal, offset, mids])[keep], axis=0)
    normal, offset, mids = lines[:, :2], lines[:, 2], lines[:, 3:]
    L = len(normal)

    centers = [pts, mids]
    along = np.column_stack([-normal[:, 1], normal[:, 0]])
    along /= np.linalg.norm(along, axis=1, keepdims=True)
    for t in (-1000.0, -50.0, -5.0, -1.0, -0.35, 0.05, 0.35, 1.0, 5.0, 50.0, 1000.0):
        centers.append(mids + (t * span) * along)
    if L >= 2:
        u, v = np.array(list(combinations(range(L), 2))).T
        det = normal[u, 0] * normal[v, 1] - normal[u, 1] * normal[v, 0]
        ok = np.abs(det) > 1e-12 * span * span
        u, v, det = u[ok], v[ok], det[ok]
        cx = (offset[u] * normal[v, 1] - offset[v] * normal[u, 1]) / det
        cy = (normal[u, 0] * offset[v] - normal[v, 0] * offset[u]) / det
        cross = np.column_stack([cx, cy])
        centers.append(cross)
        d1, d2 = along[u], along[v]
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                quad = s1 * d1 + s2 * d2
                quad /= np.linalg.norm(quad, axis=1, keepdims=True)
                # several scales: narrow wedges between near-parallel lines
                # only open up far from the vertex
                for scale in (1e-7, 1e-4, 1e-2, 0.3, 10.0, 300.0):
                    centers.append(cross + (scale * span) * quad)
    C = np.concatenate(centers, axis=0)

    out = {frozenset()}
    seen = set()
    for lo in range(0, len(C), 4096):  # chunks of centers bound the memory
        dist = ((pts[None, :, :] - C[lo : lo + 4096, None, :]) ** 2).sum(axis=2)
        cut = np.sort(dist, axis=1)
        # threshold at the smallest achievable radius*radius >= cut, not at
        # the raw squared distance: two points one ulp apart in squared
        # distance may not be separable by any float radius at all
        rad = np.sqrt(cut)
        bump = rad * rad < cut
        rad[bump] = np.nextafter(rad[bump], np.inf)
        thr = rad * rad
        rows = (dist[:, None, :] <= thr[:, :, None]).reshape(-1, n)
        packed = np.packbits(rows, axis=1)
        for k in range(rows.shape[0]):
            key = packed[k].tobytes()
            if key not in seen:
                seen.add(key)
                out.add(frozenset(np.nonzero(rows[k])[0].tolist()))
    return out


SUBSET_ORACLES = {
    "intervals": interval_subsets,
    "halfplanes": halfplane_subsets,
    "rectangles": rectangle_subsets,
    "disks": disk_subsets,
}


def growth_bound(n: int, d: int) -> int:
    return sum(math.comb(n, i) for i in range(min(n, d) + 1))


# ------------------------------------------------------------------ sizes


def base_size(alpha: float, nu: float, delta: float, d: int, C: float) -> int:
    lead = C / (alpha * alpha * nu)
    return max(1, math.ceil(lead * (d * math.log(1.0 / nu) + math.log(1.0 / delta))))


def net_size(eps, d, delta, C=1.0):
    return base_size(1.0 / 4.0, eps, delta, d, C)


def approx_size(eps, d, delta, C=1.0):
    return base_size(eps / 4.0, 1.0 / 4.0, delta, d, C)


def relative_size(p, eps, d, delta, C=1.0):
    return base_size(eps / 9.0, p / 2.0, delta, d, C)


def sensitive_size(eps, d, delta, C=1.0):
    M = math.ceil(800.0 / (eps * eps))
    lead = C / (eps * eps)
    return max(1, math.ceil(lead * (d * math.log(1.0 / eps) + math.log(M / delta))))


# ------------------------------------------------------------ verification
#
# Naive per-range re-checks, one range at a time with plain Python floats.
# They share the package verifiers' conventions, which are part of the
# contract: heavy/light splits compare the integer count against the float
# product (eps*n, p*n, i*p*n), and deviation checks carry a relative 1e-9
# slack applied in favor of passing.

_TOL = 1e-9


def _counts(subsets, mult):
    m = int(sum(mult))
    for members in subsets:
        rc = len(members)
        sc = sum(int(mult[i]) for i in members)
        yield members, rc, sc, m


def verify_net(subsets, n, mult, eps) -> bool:
    return all(
        sc >= 1 for _, rc, sc, _m in _counts(subsets, mult) if rc >= eps * n
    )


def verify_approx(subsets, n, mult, eps) -> bool:
    return all(
        abs(rc / n - sc / m) <= eps * (1.0 + _TOL)
        for _, rc, sc, m in _counts(subsets, mult)
    )


def verify_sensitive(subsets, n, mult, eps) -> bool:
    return all(
        abs(rc / n - sc / m) <= (eps / 2.0) * (math.sqrt(rc / n) + eps) * (1.0 + _TOL)
        for _, rc, sc, m in _counts(subsets, mult)
    )


def _within_envelope(r, s, eps_i) -> bool:
    return (
        s >= (1.0 - eps_i) * r * (1.0 - _TOL)
        and s <= (1.0 + eps_i) * r * (1.0 + _TOL)
    )


def verify_relative(subsets, n, mult, p, eps) -> bool:
    for _, rc, sc, m in _counts(subsets, mult):
        r, s = rc / n, sc / m
        if rc >= p * n and not _within_envelope(r, s, eps):
            return False
        if rc <= p * n and s > (1.0 + eps) * p * (1.0 + _TOL):
            return False
    return True


def verify_relative_sensitive(subsets, n, mult, p, eps) -> bool:
    levels = max(1, math.floor(1.0 / p))
    pn = p * n
    for _, rc, sc, m in _counts(subsets, mult):
        r, s = rc / n, sc / m
        if rc >= pn:
            i = 1
            while rc >= (i + 1) * pn:  # largest level the range clears
                i += 1
            if not _within_envelope(r, s, eps / math.sqrt(i)):
                return False
        j = 1
        while rc > j * pn:  # smallest level whose cap applies
            j += 1
        if j <= levels and s > (1.0 + eps / math.sqrt(j)) * (j * p) * (1.0 + _TOL):
            return False
    return True


def _rows(r_cnt, s_cnt):
    return zip(np.asarray(r_cnt).tolist(), np.asarray(s_cnt).tolist())


def net_margins(r_cnt, s_cnt, n, m, eps) -> np.ndarray:
    """Per-range eps-net margins: (s_cnt - 1)/m on a range with
    r_cnt >= eps*n, +inf on a lighter one."""
    return np.array(
        [(sc - 1) / m if rc >= eps * n else math.inf for rc, sc in _rows(r_cnt, s_cnt)],
        dtype=np.float64,
    )


def sensitive_margins(r_cnt, s_cnt, n, m, eps) -> np.ndarray:
    """Per-range sensitive margins: the allowance (eps/2)(sqrt(r) + eps)
    less the deviation |r - s|, in the package kernel's float expressions."""
    return np.array(
        [
            (eps / 2.0) * (math.sqrt(rc / n) + eps) * (1.0 + _TOL) - abs(rc * m - sc * n) / (n * m)
            for rc, sc in _rows(r_cnt, s_cnt)
        ],
        dtype=np.float64,
    )


def relative_margins(r_cnt, s_cnt, n, m, eps, p) -> np.ndarray:
    """Per-range relative (p, eps) margins: the envelope where r_cnt >= pn,
    the cap (1 + eps) p where r_cnt <= pn, the tighter of the two where both
    apply. The float expressions are the package kernel's."""
    up, down = 1.0 + _TOL, 1.0 - _TOL
    out = []
    for rc, sc in _rows(r_cnt, s_cnt):
        r, s = rc / n, sc / m
        margin = math.inf
        if rc >= p * n:
            margin = min(s - (1.0 - eps) * r * down, (1.0 + eps) * r * up - s)
        if rc <= p * n:
            margin = min(margin, (1.0 + eps) * p * up - s)
        out.append(margin)
    return np.array(out, dtype=np.float64)


def relative_sensitive_margins(r_cnt, s_cnt, n, m, eps, p) -> np.ndarray:
    """Per-range relative-sensitive margins, scanning every level.

    Level i = 1..floor(1/p)+1 contributes the two-sided envelope at
    eps/sqrt(i) where r_cnt >= i*pn (and the range is heavy at all), and
    level i <= floor(1/p) the cap (1 + eps/sqrt(i)) i p where r_cnt <= i*pn.
    Each range keeps its tightest margin, +inf when no clause applies. The
    float expressions are the package kernel's, so agreement is exact."""
    levels = max(1, math.floor(1.0 / p))
    pn = p * n
    up, down = 1.0 + _TOL, 1.0 - _TOL
    out = []
    for rc, sc in _rows(r_cnt, s_cnt):
        r, s = rc / n, sc / m
        margin = math.inf
        for i in range(1, levels + 2):
            eps_i = eps / math.sqrt(i)
            if rc >= i * pn and rc >= pn:
                lo = s - (1.0 - eps_i) * r * down
                hi = (1.0 + eps_i) * r * up - s
                margin = min(margin, lo, hi)
            if i <= levels and rc <= i * pn:
                margin = min(margin, (1.0 + eps_i) * (i * p) * up - s)
        out.append(margin)
    return np.array(out, dtype=np.float64)
