"""Enumeration layer: families, ground sets, induced ranges, witnesses."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import random_coords
from oracles import SUBSET_ORACLES, growth_bound
from vcsample.errors import BudgetExceededError, ParameterError
from vcsample.harness import SourceSpec, generate_ground_set
from vcsample.ranges import (
    DEFAULT_BUDGET,
    FAMILIES,
    EnumerationBudget,
    GroundSet,
    contains,
    enumerate_induced_ranges,
    family,
    fractional_weight,
    induced_ranges,
    read_points_csv,
    sauer_shelah_bound,
    write_points_csv,
    _PackedRangeSet,
    _SubsetCollector,
    _new_words,
    _put_rows,
    _stable_order,
)


# ---------------------------------------------------------------- families


def test_family_catalog():
    assert set(FAMILIES) == {"intervals", "halfplanes", "rectangles", "disks"}
    assert family("intervals").vc_dimension == 2
    assert family("halfplanes").vc_dimension == 3
    assert family("disks").vc_dimension == 3
    assert family("rectangles").vc_dimension == 4
    assert family("intervals").ambient_dim == 1
    for name in ("halfplanes", "rectangles", "disks"):
        assert family(name).ambient_dim == 2


def test_family_unknown():
    with pytest.raises(ParameterError):
        family("triangles")


def test_default_budgets():
    assert DEFAULT_BUDGET.intervals == 5000
    assert DEFAULT_BUDGET.halfplanes == 500
    assert DEFAULT_BUDGET.disks == 200
    assert DEFAULT_BUDGET.rectangles == 80


# -------------------------------------------------------------- ground set


def test_ground_set_validation():
    with pytest.raises(ParameterError):
        GroundSet(np.zeros((0, 1)))
    with pytest.raises(ParameterError):
        GroundSet(np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        GroundSet(np.array([[0.0, np.nan]]))
    with pytest.raises(ParameterError):
        GroundSet(np.array([np.inf]))


def test_ground_set_shape_and_access():
    g = GroundSet(np.array([3.0, 1.0, 2.0]))
    assert g.dimension == 1 and len(g) == 3
    assert g.point(1) == (1.0,)
    g2 = GroundSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert g2.dimension == 2 and g2.point(1) == (2.0, 3.0)
    with pytest.raises(ValueError):
        g2.coords[0, 0] = 9.0  # read-only


# ---------------------------------------------------------------- contains


def test_contains_closed_boundaries():
    assert contains(family("intervals"), (1.0, 2.0), (2.0,))
    assert contains(family("intervals"), (1.0, 2.0), (1.0,))
    assert not contains(family("intervals"), (1.0, 2.0), (2.5,))
    assert contains(family("halfplanes"), (1.0, 0.0, 0.5), (0.5, 7.0))
    assert not contains(family("halfplanes"), (1.0, 0.0, 0.5), (0.6, 7.0))
    assert contains(family("rectangles"), (0.0, 1.0, 0.0, 1.0), (1.0, 0.0))
    assert not contains(family("rectangles"), (0.0, 1.0, 0.0, 1.0), (1.0, -0.1))
    assert contains(family("disks"), (0.0, 0.0, 1.0), (1.0, 0.0))
    assert not contains(family("disks"), (0.0, 0.0, 1.0), (1.0, 0.1))


def test_contains_validation():
    with pytest.raises(ParameterError):
        contains(family("intervals"), (1.0,), (0.0,))
    with pytest.raises(ParameterError):
        contains(family("disks"), (0.0, 0.0, -1.0), (0.0, 0.0))
    with pytest.raises(ParameterError):
        contains(family("halfplanes"), (np.inf, 0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ParameterError):
        contains(family("halfplanes"), (1.0, 0.0, 0.0), (0.0,))


# ----------------------------------------------------- frozen enumerations


def test_intervals_frozen_example():
    # values 1, 2, 2, 5: empty + every (lo, hi) pair of unique values
    g = GroundSet(np.array([1.0, 2.0, 2.0, 5.0]))
    rs = induced_ranges(family("intervals"), g)
    assert len(rs) == 7
    rows = [tuple(int(i) for i in rs.members(k)) for k in range(len(rs))]
    assert rows == [
        (),
        (0,),
        (0, 1, 2),
        (0, 1, 2, 3),
        (1, 2),
        (1, 2, 3),
        (3,),
    ]
    assert rs.counts.tolist() == [0, 1, 3, 4, 2, 3, 1]
    # witnesses: (value, value) pairs; the empty witness sits below the data
    assert rs.witness(1) == (1.0, 1.0)
    assert rs.witness(3) == (1.0, 5.0)
    lo, hi = rs.witness(0)
    assert lo == hi < 1.0


FROZEN_COUNTS = {
    # (family, n, seed) -> distinct induced subsets
    ("halfplanes", 12, 12): 134,
    ("disks", 13, 13): 378,
    ("rectangles", 10, 10): 179,
}


@pytest.mark.parametrize("fam_name,n,seed", sorted(FROZEN_COUNTS))
def test_frozen_counts(fam_name, n, seed):
    fam = family(fam_name)
    rs = induced_ranges(fam, GroundSet(random_coords(fam_name, n, seed)))
    assert len(rs) == FROZEN_COUNTS[(fam_name, n, seed)]
    assert len(rs) <= sauer_shelah_bound(n, fam.vc_dimension)


def test_halfplanes_generic_count_formula():
    # n points in general position admit n(n-1) + 2 halfplane subsets
    rs = induced_ranges(
        family("halfplanes"), GroundSet(random_coords("halfplanes", 12, 12))
    )
    assert len(rs) == 12 * 11 + 2


def test_disks_seed13_meets_sauer_bound_exactly():
    rs = induced_ranges(family("disks"), GroundSet(random_coords("disks", 13, 13)))
    assert len(rs) == sauer_shelah_bound(13, 3) == 378


# ----------------------------------------------- curated degenerate inputs
#
# Dyadic coordinates: every derived quantity the enumerators compare
# (keys, squared distances) is computed exactly in float64, so the induced
# family equals the exact-geometry family and oracle equality is a fair
# assertion. Non-dyadic degenerate inputs (e.g. decimal grids) create
# sub-ulp knife edges where no float implementation can match exact
# geometry; those are exercised for structural invariants only, below.

DEGENERATE_2D = {
    "duplicates": np.array(
        [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75], [0.75, 0.25], [0.25, 0.25]]
    ),
    "collinear": np.array(
        [
            [0.125, 0.125],
            [0.25, 0.25],
            [0.375, 0.375],
            [0.5, 0.5],
            [0.75, 0.75],
            [0.25, 0.75],
        ]
    ),
    "cocircular4": np.array(
        [[0.75, 0.5], [0.25, 0.5], [0.5, 0.75], [0.5, 0.25], [0.5, 0.5]]
    ),
    "grid3x3": np.array(
        [
            [0.25, 0.25],
            [0.25, 0.5],
            [0.25, 0.75],
            [0.5, 0.25],
            [0.5, 0.5],
            [0.5, 0.75],
            [0.75, 0.25],
            [0.75, 0.5],
            [0.75, 0.75],
        ]
    ),
}

DEGENERATE_COUNTS = {
    ("halfplanes", "duplicates"): 12,
    ("halfplanes", "collinear"): 20,
    ("halfplanes", "cocircular4"): 18,
    ("halfplanes", "grid3x3"): 58,
    ("rectangles", "duplicates"): 13,
    ("rectangles", "collinear"): 29,
    ("rectangles", "cocircular4"): 21,
    ("rectangles", "grid3x3"): 37,
    ("disks", "duplicates"): 14,
    ("disks", "collinear"): 32,
    ("disks", "cocircular4"): 23,
    ("disks", "grid3x3"): 108,
}


@pytest.mark.parametrize("fam_name,fixture", sorted(DEGENERATE_COUNTS))
def test_degenerate_dyadic_equals_oracle(fam_name, fixture):
    coords = DEGENERATE_2D[fixture]
    fam = family(fam_name)
    rs = induced_ranges(fam, GroundSet(coords))
    enum = rs.member_sets()
    assert enum == SUBSET_ORACLES[fam_name](coords)
    assert len(enum) == DEGENERATE_COUNTS[(fam_name, fixture)]
    assert len(enum) <= sauer_shelah_bound(len(coords), fam.vc_dimension)


def _dyadic_grid(kx: int, ky: int, step: float) -> np.ndarray:
    xx, yy = np.meshgrid(
        step * np.arange(1, kx + 1), step * np.arange(1, ky + 1), indexing="ij"
    )
    return np.column_stack([xx.ravel(), yy.ravel()])


def _collinear_plus_three(seed: int) -> np.ndarray:
    """12 points on y = x, step 1/16, plus 3 seeded dyadic points off it."""
    line = 0.0625 * np.arange(1, 13)
    off = np.random.default_rng(seed).integers(0, 16, size=(3, 2)) * 0.0625
    assert np.all(off[:, 0] != off[:, 1])
    return np.concatenate([np.column_stack([line, line]), off])


# degenerate inputs above n = 12, still dyadic
DEGENERATE_SWEEP = {
    "grid5x5": _dyadic_grid(5, 5, 0.125),
    "grid6x4": _dyadic_grid(6, 4, 0.125),
    "collinear12+3": _collinear_plus_three(0),
    "grid3x3-tripled": np.repeat(_dyadic_grid(3, 3, 0.25), 3, axis=0),
}

SWEEP_COUNTS = {
    ("halfplanes", "grid5x5"): 402,
    ("halfplanes", "grid6x4"): 378,
    ("halfplanes", "collinear12+3"): 102,
    ("halfplanes", "grid3x3-tripled"): 58,
    ("rectangles", "grid5x5"): 226,
    ("rectangles", "grid6x4"): 211,
    ("rectangles", "collinear12+3"): 239,
    ("rectangles", "grid3x3-tripled"): 37,
    # the 5x5 grid has 4 disk subsets beyond the oracle's 1955
    ("disks", "grid5x5"): 1959,
    ("disks", "grid6x4"): 1776,
    ("disks", "collinear12+3"): 353,
    ("disks", "grid3x3-tripled"): 108,
}


def _assert_tight_boxes(rs, coords):
    """Every nonempty rectangle's witness is its members' bounding box."""
    for k in range(len(rs)):
        pts = coords[rs.members(k)]
        if len(pts):
            x, y = pts[:, 0], pts[:, 1]
            assert rs.witness(k) == (x.min(), x.max(), y.min(), y.max())


@pytest.mark.parametrize("fam_name,fixture", sorted(SWEEP_COUNTS))
def test_degenerate_sweep_against_oracle(fam_name, fixture):
    coords = DEGENERATE_SWEEP[fixture]
    fam = family(fam_name)
    g = GroundSet(coords)
    rs = induced_ranges(fam, g)
    enum = rs.member_sets()
    assert len(enum) == len(rs)  # every row is a distinct subset
    assert len(rs) == SWEEP_COUNTS[(fam_name, fixture)]
    oracle = SUBSET_ORACLES[fam_name](coords)
    if fam_name == "disks":
        # disk centers are not dyadic, so float disks can cut a few subsets
        # that exact geometry cannot; each must still be witness-backed, and
        # none of the exact ones may be missing
        assert oracle <= enum
    else:
        assert enum == oracle
    if fam_name == "rectangles":
        _assert_tight_boxes(rs, coords)
    for k in range(len(rs)):
        params = rs.witness(k)
        got = {i for i in range(len(g)) if contains(fam, params, g.point(i))}
        assert got == set(rs.members(k).tolist())


def _sweep_digest(rs) -> str:
    """sha256 of the packed rows in row order, then of repr(witness list)."""
    h = hashlib.sha256(rs.packed_rows().tobytes())
    h.update(repr([rs.witness(k) for k in range(len(rs))]).encode())
    return h.hexdigest()


def _golden_ground(name: str) -> GroundSet:
    if name == "uniform30":
        return generate_ground_set(SourceSpec("uniform", n=30), 2, 1)
    if name == "grid25":
        return generate_ground_set(SourceSpec("grid", n=25), 2, 1)
    return GroundSet(DEGENERATE_SWEEP[name])


# (range count, `_sweep_digest`) of the halfplane and disk sweeps; a reordered
# row or a witness that moves in its last bit changes the digest
SWEEP_GOLDEN = {
    ("halfplanes", "uniform30"): (872, "304c6a08dab9a0336a98b6dfd19f365bef41e5a88fc8d37e35ce109422017f8d"),
    ("halfplanes", "grid25"): (402, "fd1758d2cfbf2574fc5f344b7e1336ac395e35110dbc4cfaa2d49501b812eb03"),
    ("halfplanes", "grid5x5"): (402, "ecf0a4e0b6cb82ccd8825f3855d5debdefeba1c8f1ffcefc31f464b883686132"),
    ("halfplanes", "grid6x4"): (378, "824a5ae6e89026e0c929d37895364c82cbe63e94ad617dbeb9f08ebd4abb4327"),
    ("halfplanes", "collinear12+3"): (102, "a353c75ccc72726464e40f4cbc4283886865bc2a5b4da52f1d520bb9897eb5f9"),
    ("halfplanes", "grid3x3-tripled"): (58, "d62aa234129851e1e4c8a68b529f738e5d4f00d93e76f1fa797c3ba91c509297"),
    ("disks", "uniform30"): (4526, "4c0818f8711466b6409517a8a02561c47666a3dad989998089946961a7c42da1"),
    ("disks", "grid25"): (1959, "41d48e0443014242e7c464103d6df4147955e1608209522ebf11204b8604d301"),
    ("disks", "grid5x5"): (1959, "fe6bf61dbd51079a91eb8d930bc0b6f8a0db17c789f1961419f7692f95ea20a1"),
    ("disks", "grid6x4"): (1776, "a883e45df46daae1d40fd53552a927d690640aa085f28fdd67cb62ae59564ff4"),
    ("disks", "collinear12+3"): (353, "a9e05792167eb310f250e19ee096b86d6897729fa65773da6206dd8fb6508fbe"),
    ("disks", "grid3x3-tripled"): (108, "39714c0edc8325e2063670efc485309f41337f2eeb657ff46ea36568b51746d8"),
}


@pytest.mark.parametrize("fam_name,ground_name", sorted(SWEEP_GOLDEN))
def test_sweep_golden_output(fam_name, ground_name):
    rs = induced_ranges(family(fam_name), _golden_ground(ground_name))
    assert (len(rs), _sweep_digest(rs)) == SWEEP_GOLDEN[(fam_name, ground_name)]


def _box_digest(rs) -> str:
    """sha256 of repr of every row's member list in row order, then of
    repr(witness list)."""
    h = hashlib.sha256(repr([rs.members(k).tolist() for k in range(len(rs))]).encode())
    h.update(repr([rs.witness(k) for k in range(len(rs))]).encode())
    return h.hexdigest()


# (range count, `_box_digest`) of the rectangle sweep: its row order and witnesses
BOX_GOLDEN = {
    "uniform30": (9734, "76f74b804d9cf6b6bcba5464fd52379c4a7fb38d221342fce7dbfc9ad8ac0429"),
    "grid5x5": (226, "f62df0936a812ddab759b9a426e182684c030a496ac8028f5436565a81aba36e"),
    "grid3x3-tripled": (37, "81c7bf50e082369076674330514a2827ce14460f916f84d7c4e4e7aa982bb3f9"),
}


@pytest.mark.parametrize("ground_name", sorted(BOX_GOLDEN))
def test_rectangle_golden_output(ground_name):
    rs = induced_ranges(family("rectangles"), _golden_ground(ground_name))
    assert (len(rs), _box_digest(rs)) == BOX_GOLDEN[ground_name]
    for k in range(len(rs)):
        w = rs.witness(k)
        assert type(w) is tuple and len(w) == 4 and all(type(v) is float for v in w)


@pytest.mark.parametrize("size", [1, 7, 200, 10**9])
@pytest.mark.parametrize("fam_name,ground_name", [
    ("halfplanes", "uniform30"),
    ("halfplanes", "collinear12+3"),
    ("disks", "uniform30"),
    ("disks", "grid5x5"),
    ("disks", "grid3x3-tripled"),
])
def test_sweep_output_independent_of_block_size(monkeypatch, fam_name, ground_name, size):
    """One direction or line per block, a few, and all of them at once give
    the same rows and witnesses in the same order; so does copying the
    collected rows into the row words one, a few or all rows at a time."""
    monkeypatch.setattr("vcsample.ranges._HALFPLANE_KEYS", size)
    monkeypatch.setattr("vcsample.ranges._DISK_CENTERS", size)
    monkeypatch.setattr("vcsample.ranges._COPY_ROWS", size)
    rs = induced_ranges(family(fam_name), _golden_ground(ground_name))
    assert (len(rs), _sweep_digest(rs)) == SWEEP_GOLDEN[(fam_name, ground_name)]


def test_degenerate_intervals():
    xs = np.array([0.5, 0.5, 0.25, 0.75, 0.25])
    rs = induced_ranges(family("intervals"), GroundSet(xs))
    assert rs.member_sets() == SUBSET_ORACLES["intervals"](xs.reshape(-1, 1))
    assert len(rs) == 7
    rs1 = induced_ranges(family("intervals"), GroundSet(np.array([0.5, 0.5, 0.5])))
    assert rs1.member_sets() == {frozenset(), frozenset({0, 1, 2})}


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_duplicates_move_together(fam_name):
    # duplicate points are indistinguishable to every witness region
    coords = random_coords(fam_name, 7, 99)
    coords = np.concatenate([coords, coords[2:3], coords[5:6]])
    rs = induced_ranges(family(fam_name), GroundSet(coords))
    for k in range(len(rs)):
        members = set(int(i) for i in rs.members(k))
        assert (2 in members) == (7 in members)
        assert (5 in members) == (8 in members)


# ----------------------------------------------------- oracle cross-checks


@pytest.mark.parametrize("fam_name,nmax", [
    ("intervals", 12),
    ("halfplanes", 12),
    ("rectangles", 10),
    ("disks", 10),
])
def test_enumeration_matches_oracle_random(fam_name, nmax):
    fam = family(fam_name)
    for trial in range(12):
        seed = 9000 + 37 * trial
        n = int(np.random.default_rng(seed).integers(1, nmax + 1))
        coords = random_coords(fam_name, n, seed)
        rs = induced_ranges(fam, GroundSet(coords))
        enum = rs.member_sets()
        assert enum == SUBSET_ORACLES[fam_name](
            coords if coords.ndim == 2 else coords.reshape(-1, 1)
        ), f"{fam_name} trial {trial} (n={n})"
        assert len(enum) <= growth_bound(n, fam.vc_dimension)
        if fam_name == "rectangles":
            _assert_tight_boxes(rs, coords)


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_witnesses_reproduce_their_ranges(fam_name):
    fam = family(fam_name)
    for seed in (1, 2, 3):
        g = GroundSet(random_coords(fam_name, 9, seed))
        rs = induced_ranges(fam, g)
        for k in range(len(rs)):
            params = rs.witness(k)
            got = {i for i in range(len(g)) if contains(fam, params, g.point(i))}
            assert got == set(int(i) for i in rs.members(k))


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_witnesses_on_nondyadic_degenerate_inputs(fam_name):
    # equality with exact geometry is out of reach on these inputs (sub-ulp
    # knife edges), but every emitted range must still be witness-backed
    fam = family(fam_name)
    for seed in (4, 5, 6):
        coords = np.round(random_coords(fam_name, 9, seed), 1)
        g = GroundSet(coords)
        rs = induced_ranges(fam, g)
        for k in range(len(rs)):
            params = rs.witness(k)
            got = {i for i in range(len(g)) if contains(fam, params, g.point(i))}
            assert got == set(int(i) for i in rs.members(k))


EXTREME_INPUTS = [
    # squared norms and squared spans overflow float64
    [[1e300, 0.0], [1e300, 1e300]],
    [[-1.5e308, 0.0], [1.5e308, 1.0]],
    # squared norms are finite, the squared x span is not (the full disk's
    # radius overflowed here)
    [[-1.29e154, 0.0], [1.29e154, 1.0], [5.43e153, 7.15e153], [1.85e153, 3.98e153],
     [7.56e152, 7.54e153]],
    # halfplane difference vectors overflow float64; taken as they are, they
    # bend the critical angles and 2 of the 32 halfplane subsets go missing
    (np.random.default_rng(0).uniform(-1, 1, (2, 6)).T * [1.5e308, 1e307]).tolist(),
    # max|x| + max|y| overflows, and with it the halfplane keys a*x + b*y
    [[1.5e308, 0.0], [0.0, 1.5e308]],
    # one ulp below the smallest x (and y) is -inf, so the empty range's
    # witness cannot sit below the data there
    [[-1.7976931348623157e308, -1.7976931348623157e308], [0.0, 1.0]],
    [[0.0, -1.7976931348623157e308], [1.0, 0.0]],
]


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
@pytest.mark.parametrize("pts", EXTREME_INPUTS)
def test_witnesses_at_extreme_coordinates(fam_name, pts):
    # intervals take the x column
    fam = family(fam_name)
    g = GroundSet(np.array(pts)[:, : fam.ambient_dim])
    max_x, max_y = np.abs(np.array(pts)).max(axis=0).tolist()
    refused = {
        "disks": "1e154",
        "halfplanes": "1.8e308" if max_x + max_y >= np.finfo(np.float64).max else None,
    }
    if refused.get(fam_name):
        with pytest.raises(ParameterError, match=refused[fam_name]):
            induced_ranges(fam, g)
        return
    rs = induced_ranges(fam, g)
    if len(np.unique(g.coords, axis=0)) == 2:
        assert len(rs) == 4
    if fam_name == "halfplanes" and len(g) == 6:
        assert len(rs) == 6 * 5 + 2  # general position
    if fam_name == "rectangles":
        _assert_tight_boxes(rs, g.coords)
    for k in range(len(rs)):
        got = {i for i in range(len(g)) if contains(fam, rs.witness(k), g.point(i))}
        assert got == set(int(i) for i in rs.members(k))


def test_halfplanes_refuse_keys_at_the_float_maximum():
    # max|x| + max|y| is finite but not below the largest float, so the
    # empty range's c, one ulp under min x, would be -inf
    big = np.finfo(np.float64).max
    with pytest.raises(ParameterError, match="1.8e308"):
        induced_ranges(family("halfplanes"), GroundSet(np.array([[-big, 0.0], [0.0, 0.0]])))


def test_halfplanes_subnormal_coordinates_match_oracle():
    # difference vectors are taken unscaled unless they overflow; halving
    # them all would merge distinct subnormal points and lose directions
    fam = family("halfplanes")
    for seed in range(20):
        coords = np.random.default_rng(seed).integers(-3, 4, size=(6, 2)) * 5e-324
        rs = induced_ranges(fam, GroundSet(coords))
        assert rs.member_sets() == SUBSET_ORACLES["halfplanes"](coords), seed


# ------------------------------------------------------------- range sets


def test_empty_range_always_first():
    """Row 0 is the empty range, and the full index set is always induced;
    the eps-net verifier relies on the latter (the full set is heavy for
    every eps < 1, so some margin is always finite). Planar families also
    get coordinates near 1e17, where adding 2.0 to a coordinate is lost to
    rounding."""
    huge = [np.array([[1e17, 0.0], [1e17, 1.0]]), np.array([[-1e17, 0.0], [1e17, 1.0]])]
    for fam_name in FAMILIES:
        fam = family(fam_name)
        coords = random_coords(fam_name, 8, 7)
        duplicates = np.concatenate([coords[:3], coords[:3], coords[3:6]])
        extra = huge if fam.ambient_dim == 2 else []
        for pts in (coords, duplicates, coords[:1], *extra):
            rs = induced_ranges(fam, GroundSet(pts))
            assert rs.counts[0] == 0
            assert rs.members(0).size == 0
            rows = [tuple(map(float, row)) for row in rs.ground.coords]
            assert not any(contains(fam, rs.witness(0), row) for row in rows)
            full = np.nonzero(np.asarray(rs.counts) == rs.n)[0]
            assert full.size == 1
            assert rs.members(full[0]).tolist() == list(range(rs.n))
            assert all(contains(fam, rs.witness(full[0]), row) for row in rows)


@pytest.mark.parametrize("distinct", [None, 1, 3, 12])
def test_interval_members_match_mask(distinct):
    # members(k) slices the points sorted by value; the mask over group ids
    # is the direct definition
    rng = np.random.default_rng(0 if distinct is None else distinct)
    for n in (1, 7, 33, 60) if distinct is None else (1, 7, 60, 150):
        xs = rng.random(n) if distinct is None else rng.integers(0, distinct, n).astype(float)
        rs = induced_ranges(family("intervals"), GroundSet(xs))
        assert rs.values.shape[0] <= 60
        for k in range(len(rs)):
            lo, hi = rs._run(k)
            mask = (rs.group_id >= lo) & (rs.group_id <= hi)
            got = rs.members(k)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.nonzero(mask)[0])


def test_sample_counts_matches_bruteforce():
    # planar rows are uint64 words of packed bytes: n = 1, 9, 17 leave a
    # partial last byte, and n = 63..65 and 127..129 sit on word boundaries
    rng = np.random.default_rng(3)
    for fam_name in FAMILIES:
        g = GroundSet(random_coords(fam_name, 8, 21))
        rs = induced_ranges(family(fam_name), g)
        mult = rng.integers(0, 5, size=len(g))
        got = rs.sample_counts(mult)
        for k in range(len(rs)):
            assert got[k] == sum(mult[i] for i in rs.members(k))
    cases = [
        (fam_name, random_coords(fam_name, n, 40 + n))
        for fam_name in ("halfplanes", "rectangles", "disks")
        for n in (1, 9, 17, 65)
    ]
    cases += [("halfplanes", random_coords("halfplanes", n, 40 + n)) for n in (63, 64, 127, 128, 129)]
    # duplicate x and y values put several points in one rank of a box
    cases += [("rectangles", coords) for coords in DEGENERATE_SWEEP.values()]
    # interval counts are written one block of runs per lo; 150 points on at
    # most 12 values put many points in each group
    cases += [("intervals", random_coords("intervals", n, 40 + n)) for n in (1, 2, 33)]
    cases.append(("intervals", rng.integers(0, 12, size=150).astype(float)))
    for fam_name, coords in cases:
        n = len(coords)
        rs = induced_ranges(family(fam_name), GroundSet(coords))
        dense = np.zeros((len(rs), n), dtype=np.int64)
        for k in range(len(rs)):
            dense[k, rs.members(k)] = 1
        assert np.array_equal(rs.counts, dense.sum(axis=1))
        # 10**6 takes 20 bit planes; 2^53 + 1 is not exact in float64
        above_float = np.zeros(n, dtype=np.int64)
        above_float[0] = 2**53 + 1
        for mult in (
            np.ones(n, dtype=np.int64),
            rng.multinomial(n, np.full(n, 1.0 / n)),
            np.full(n, 10**6),
            rng.integers(0, 10**6 + 1, size=n),
            rng.integers(0, 2, size=n) * 10**6,
            above_float,
        ):
            want = dense @ mult
            got = rs.sample_counts(mult)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (fam_name, n)


@pytest.mark.parametrize("fam_name", ["intervals", "halfplanes"])
@pytest.mark.parametrize(
    "mult",
    [
        np.full(6, 0.5),  # used to count as all zeros
        np.array([1, 0, -1, 0, 0, 0]),  # used to give negative counts
        np.ones(5, dtype=np.int64),  # used to raise a raw numpy ValueError
        np.ones(7, dtype=np.int64),
        np.ones((6, 1), dtype=np.int64),
        np.ones(6, dtype=bool),
        np.array([2**63] + [0] * 5, dtype=np.uint64),  # wraps to a negative int64
    ],
    ids=["halves", "negative", "short", "long", "2-D", "bool", "uint64-above-int64"],
)
def test_sample_counts_rejects_bad_multiplicities(fam_name, mult):
    rs = induced_ranges(family(fam_name), GroundSet(random_coords(fam_name, 6, 8)))
    with pytest.raises(ParameterError):
        rs.sample_counts(mult)


def test_sample_counts_accepts_any_integer_dtype():
    rs = induced_ranges(family("halfplanes"), GroundSet(random_coords("halfplanes", 6, 8)))
    want = rs.sample_counts(np.arange(6))
    for dtype in (np.uint8, np.int16, np.uint64):
        assert np.array_equal(rs.sample_counts(np.arange(6, dtype=dtype)), want)
    assert np.array_equal(rs.sample_counts(list(range(6))), want)


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 8, 255, 10**6]),
)
def test_packed_rows_match_bool_rows(n, count, seed, top):
    """Random rows through `_put_rows`: the packed bytes, members and
    sample counts against the bool rows they came from."""
    rng = np.random.default_rng(seed)
    rows = rng.random((count, n)) < rng.random()
    words = _new_words(n, count)
    _put_rows(words, 0, np.packbits(rows, axis=1))
    rs = _PackedRangeSet(family("halfplanes"), GroundSet(np.zeros((n, 2))), words, [None] * count)
    assert np.array_equal(rs.packed_rows(), np.packbits(rows, axis=1))
    for k in range(count):
        assert np.array_equal(rs.members(k), np.flatnonzero(rows[k]))
    mult = rng.integers(0, top + 1, size=n)
    want = rows.astype(np.int64) @ mult
    assert np.array_equal(rs.sample_counts(mult), want)


def test_collector_keeps_first_witness_in_insertion_order():
    # reports name the worst range's witness, so which duplicate's witness
    # survives the dedupe is part of the output
    g = GroundSet(random_coords("halfplanes", 11, 2))
    rows = np.array([[1] * 11, [0] * 10 + [1], [1] * 11, [1] + [0] * 10, [0] * 10 + [1]], dtype=bool)
    collector = _SubsetCollector()
    collector.add_batch(rows[:3], [(0.0, 0.0, 1.0), (0.0, 0.0, 2.0), (0.0, 0.0, 3.0)])
    collector.add_batch(rows[3:], [(0.0, 0.0, 4.0), (0.0, 0.0, 5.0)])
    rs = collector.range_set(family("halfplanes"), g)
    assert [rs.members(k).tolist() for k in range(len(rs))] == [list(range(11)), [10], [0]]
    assert [rs.witness(k)[2] for k in range(len(rs))] == [1.0, 2.0, 4.0]
    assert rs.counts.tolist() == [11, 1, 1]


_WITNESS = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    st.integers(min_value=1, max_value=20),
    st.lists(
        st.lists(st.tuples(st.integers(0, 7), st.tuples(_WITNESS, _WITNESS)), max_size=12),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
def test_collector_matches_per_row_setdefault(n, batches, as_array):
    """Batched dedupe against one dict.setdefault per row: duplicates within
    and across batches, witnesses as tuples or as a (k, w) float array."""
    assume(any(batches))  # a range set holds at least one row
    # eight row patterns over n points, so batches repeat rows
    patterns = np.random.default_rng(n).random((8, n)) < 0.5
    collector, reference = _SubsetCollector(), {}
    for batch in batches:
        rows = patterns[[i for i, _ in batch]].reshape(len(batch), n)
        wits = [w for _, w in batch]
        for row, w in zip(rows, wits):
            reference.setdefault(row.tobytes(), w)
        collector.add_batch(rows, np.array(wits, dtype=np.float64).reshape(-1, 2) if as_array else wits)
    g = GroundSet(np.zeros((n, 2)))
    rs = collector.range_set(family("halfplanes"), g)
    got = {
        np.unpackbits(row, count=n).astype(bool).tobytes(): rs.witness(k)
        for k, row in enumerate(rs.packed_rows())
    }
    assert list(got) == list(reference)
    for key, w in reference.items():
        assert repr(got[key]) == repr(w)  # signed zeros too
        assert type(got[key]) is tuple and all(type(v) is float for v in got[key])


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_stable_order_matches_stable_argsort(n, rows, seed):
    """Sorting from a reference order, with many ties and signed zeros."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 2.0]), size=(rows, n))
    order, ksort = _stable_order(keys, rng.permutation(n))
    assert np.array_equal(order, np.argsort(keys, axis=1, kind="stable"))
    assert np.array_equal(ksort, np.take_along_axis(keys, order, axis=1))


def test_enumerate_induced_ranges_canonical_order():
    g = GroundSet(random_coords("halfplanes", 8, 5))
    ranges = enumerate_induced_ranges(family("halfplanes"), g)
    members = [r.members for r in ranges]
    assert members == sorted(members)
    assert members[0] == ()
    rs = induced_ranges(family("halfplanes"), g)
    assert {r.member_indices for r in ranges} == rs.member_sets()


def test_fractional_weight_counts_multiplicity():
    g = GroundSet(np.array([1.0, 1.0, 2.0]))
    rs = induced_ranges(family("intervals"), g)
    by_members = {tuple(int(i) for i in rs.members(k)): k for k in range(len(rs))}
    k = by_members[(0, 1)]
    assert fractional_weight(rs.range_at(k), g) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("fam_name", ["halfplanes", "rectangles", "disks"])
def test_enumeration_deterministic(fam_name):
    # the 5x5 grid sends many disk probes through the step-halving retries
    g = GroundSet(DEGENERATE_SWEEP["grid5x5"])
    a = induced_ranges(family(fam_name), g)
    b = induced_ranges(family(fam_name), g)
    assert [a.members(k).tolist() for k in range(len(a))] == [
        b.members(k).tolist() for k in range(len(b))
    ]
    assert [a.witness(k) for k in range(len(a))] == [
        b.witness(k) for k in range(len(b))
    ]


# ------------------------------------------------------- budgets and dims


def test_budget_exceeded():
    g = GroundSet(random_coords("rectangles", 81, 0))
    with pytest.raises(BudgetExceededError) as err:
        induced_ranges(family("rectangles"), g)
    assert err.value.family_name == "rectangles"
    assert err.value.n == 81
    assert err.value.budget == 80
    # an explicit budget lifts the cap
    rs = induced_ranges(
        family("rectangles"), g, EnumerationBudget(rectangles=81)
    )
    assert len(rs) > 0


def test_dimension_mismatch():
    with pytest.raises(ParameterError):
        induced_ranges(family("intervals"), GroundSet(np.zeros((3, 2))))
    with pytest.raises(ParameterError):
        induced_ranges(family("disks"), GroundSet(np.array([1.0, 2.0])))


# ------------------------------------------------------------------- CSV


def test_points_csv_roundtrip(tmp_path):
    for fam_name, n in (("intervals", 5), ("disks", 6)):
        g = GroundSet(random_coords(fam_name, n, 11))
        path = str(tmp_path / f"{fam_name}.csv")
        write_points_csv(path, g)
        back = read_points_csv(path)
        assert np.array_equal(back.coords, g.coords)  # repr round-trips floats


def test_points_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ParameterError):
        read_points_csv(str(bad))
    bad.write_text("x,y\n1\n")
    with pytest.raises(ParameterError):
        read_points_csv(str(bad))
    bad.write_text("x,y\n1,zebra\n")
    with pytest.raises(ParameterError):
        read_points_csv(str(bad))
    bad.write_text("x,y\n")
    with pytest.raises(ParameterError):
        read_points_csv(str(bad))
    bad.write_text("")
    with pytest.raises(ParameterError):
        read_points_csv(str(bad))


# ------------------------------------------------------------- properties


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40))
def test_interval_count_formula(values):
    # empty range + one range per (lo, hi) pair of unique values
    xs = np.array(values, dtype=np.float64)
    rs = induced_ranges(family("intervals"), GroundSet(xs))
    k = len(np.unique(xs))
    assert len(rs) == 1 + k * (k + 1) // 2


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_sauer_bound_random_inputs(n, seed):
    for fam_name in ("halfplanes", "disks"):
        fam = family(fam_name)
        rs = induced_ranges(fam, GroundSet(random_coords(fam_name, n, seed)))
        assert len(rs) <= sauer_shelah_bound(n, fam.vc_dimension)


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=5))
def test_sauer_shelah_monotone(n, d):
    assert sauer_shelah_bound(n, d) <= sauer_shelah_bound(n + 1, d)
    assert sauer_shelah_bound(n, d) <= sauer_shelah_bound(n, d + 1)
    assert sauer_shelah_bound(n, n) == 2**n
