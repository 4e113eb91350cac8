"""Exhaustive verifiers: worked examples, tie-breaks, oracle agreement."""

import dataclasses
import json
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import random_coords, run_from_small_interpreter
import vcsample.verify as verify_module
from vcsample.errors import BudgetExceededError, ParameterError
from vcsample.harness import SourceSpec, generate_ground_set
from vcsample.ranges import (
    EnumerationBudget,
    GroundSet,
    _IntervalRangeSet,
    family,
    induced_ranges,
)
from vcsample.sampling import Sample, draw_sample
from vcsample.verify import (
    PROPERTIES,
    REL_TOL,
    VerificationReport,
    _net_margins,
    _relative_kernel,
    _relative_sensitive_margins,
    _report,
    _sensitive_margins,
    _worst_margin,
    check_sensitive_implies_net_approx,
    check_sensitive_implies_relative,
    verify_eps_approx,
    verify_eps_net,
    verify_property,
    verify_relative,
    verify_relative_sensitive,
    verify_sensitive,
)

_UP = 1.0 + REL_TOL


def _deviations(rs, N):
    """Every range's ground and sample counts, through the range set's
    public per-range counts."""
    return rs.counts, rs.sample_counts(N.multiplicities())


def _sample(indices, ground_size):
    idx = np.asarray(indices, dtype=np.int64)
    return Sample(indices=idx, m=len(idx), seed=0, ground_size=ground_size)


# ---------------------------------------------------------------- examples


def test_net_worked_example():
    # values 1..10, draws land on 3 and 8; the run 4..7 is heavy and missed
    X = GroundSet(np.arange(1.0, 11.0))
    N = _sample([2, 7], 10)
    r = verify_eps_net(X, N, 0.4, "intervals")
    assert not r.passed
    assert r.worst_margin == -0.5  # (s_cnt - 1) / m with zero hits
    assert r.worst_range.members == (3, 4, 5, 6)
    assert r.ranges_checked == 56


def test_net_passes_with_spread_draws():
    X = GroundSet(np.arange(1.0, 11.0))
    N = _sample([0, 2, 4, 6, 8], 10)
    r = verify_eps_net(X, N, 0.4, "intervals")
    assert r.passed and r.worst_margin >= 0.0


def test_approx_worked_example():
    # all four draws on the first point: s((0,)) = 1 against r = 1/4
    X = GroundSet(np.array([1.0, 2.0, 3.0, 4.0]))
    N = _sample([0, 0, 0, 0], 4)
    r = verify_eps_approx(X, N, 0.5, "intervals")
    assert not r.passed
    assert r.ranges_checked == 11
    assert r.worst_margin == pytest.approx(0.5 * _UP - 0.75, abs=1e-15)
    # (0,) and (1,2,3) tie at deviation 0.75; lexicographic order decides
    assert r.worst_range.members == (0,)


def test_relative_worked_example():
    # mid block r = 0.5 oversampled to s = 0.8 breaks the upper envelope
    X = GroundSet(np.arange(0.0, 10.0))
    N = _sample([2, 3, 4, 5, 6] * 3 + [6, 0, 1, 8, 9], 10)
    r = verify_relative(X, N, 0.3, 0.2, "intervals")
    assert not r.passed
    assert r.worst_range.members == (2, 3, 4, 5, 6)
    assert r.worst_margin == pytest.approx(1.2 * 0.5 * _UP - 0.8, abs=1e-15)


def test_relative_tight_light_cap_passes_by_slack():
    # s equals (1+eps) p exactly; the slack keeps the boundary case passing
    X = GroundSet(np.array([0.0] * 5 + [1.0] * 4 + [2.0]))
    N = _sample([9, 9, 0, 1, 5], 10)
    r = verify_relative(X, N, 0.25, 0.6, "intervals")
    assert r.passed
    assert r.worst_range.members == (9,)
    assert r.worst_margin == pytest.approx(1.6 * 0.25 * _UP - 0.4, abs=1e-18)
    assert 0.0 < r.worst_margin < 1e-9


def test_relative_sensitive_strictly_stronger():
    # a block at r = 4p within the plain envelope but outside eps/sqrt(4)
    X = GroundSet(np.array([0.0] * 4 + [1.0] * 16))
    N = _sample([0, 1, 2, 3, 0, 1, 2] + list(range(4, 20)) + [4, 5], 20)
    assert verify_relative(X, N, 0.05, 0.5, "intervals").passed
    r = verify_relative_sensitive(X, N, 0.05, 0.5, "intervals")
    assert not r.passed
    assert r.worst_range.members == (0, 1, 2, 3)
    assert r.worst_margin == pytest.approx(1.25 * 0.2 * _UP - 0.28, abs=1e-15)


def test_sensitive_boundary_counterexample():
    # a range at r = eps^2 exactly, no draws: the sensitive inequality holds
    # with zero slack while the eps^2-net misses the range, so the
    # implication check reports the violation
    X = GroundSet(np.array([0.0, 0.0, 0.0, 1.0]))
    N = _sample([0, 1, 2], 4)
    assert verify_sensitive(X, N, 0.5, "intervals").passed
    assert not verify_eps_net(X, N, 0.25, "intervals").passed
    assert check_sensitive_implies_net_approx(X, N, 0.5, "intervals") is False


def test_implication_check_vacuous_on_sensitive_failure():
    X = GroundSet(np.arange(0.0, 10.0))
    N = _sample([0] * 10, 10)
    assert not verify_sensitive(X, N, 0.2, "intervals").passed
    assert check_sensitive_implies_net_approx(X, N, 0.2, "intervals") is True


def test_implication_checks_build_no_per_range_counts(monkeypatch):
    """On intervals both implication checks score premise and conclusions
    through the fast paths and the row scorer: no per-range count is built,
    whether the sensitive premise fails (the vacuous True) or passes."""

    def refuse(self, multiplicities):
        raise AssertionError("per-range sample counts built")

    monkeypatch.setattr(_IntervalRangeSet, "sample_counts", refuse)
    X = GroundSet(np.arange(0.0, 10.0))
    N = _sample([0] * 10, 10)
    assert check_sensitive_implies_net_approx(X, N, 0.2, "intervals") is True
    # eps * sqrt(p) = 0.2 again
    assert check_sensitive_implies_relative(X, N, 0.25, 0.4, "intervals") is True

    X = GroundSet(random_coords("intervals", 100, 2))
    rs = induced_ranges(family("intervals"), X)
    N = draw_sample(X, 2000, 2)
    # eps * sqrt(p) = 0.25 for the relative check
    assert verify_sensitive(X, N, 0.25, "intervals", ranges=rs).passed  # not vacuous
    assert check_sensitive_implies_net_approx(X, N, 0.25, "intervals", ranges=rs) is True
    assert check_sensitive_implies_relative(X, N, 0.25, 0.5, "intervals", ranges=rs) is True
    assert "counts" not in rs.__dict__


@pytest.mark.parametrize("fam_name", ["intervals", "halfplanes", "rectangles", "disks"])
def test_implication_checks_agree_with_naive_oracle(fam_name):
    """Both implication checks against the oracle's premise and conclusions
    on at most 12 points with duplicates, over samples whose sensitive
    premise passes and samples whose premise fails. Three copies of one
    point and one other point, with the copies drawn once each, is the
    boundary counterexample of the net conclusion in every family."""
    fam = family(fam_name)
    corner = np.array([0.0, 0.0, 0.0, 1.0])
    cases = [(corner if fam.ambient_dim == 1 else np.stack([corner, corner], axis=1), [0, 1, 2])]
    for trial in range(6):
        coords = random_coords(fam_name, 8, 6100 + trial)
        coords = np.concatenate([coords, coords[: 1 + trial % 4]])  # 9 to 12 points
        n = coords.shape[0]
        rng = np.random.default_rng(6100 + trial)
        cases += [
            (coords, np.arange(n)),
            (coords, np.concatenate([np.arange(n), rng.integers(0, n, 3)])),
            (coords, rng.integers(0, n, 4 * n)),
        ]
    premises, falses = set(), 0
    for coords, draws in cases:
        X = GroundSet(coords)
        n = len(X)
        rs = induced_ranges(fam, X)
        subsets = oracles.SUBSET_ORACLES[fam_name](coords.reshape(n, -1))
        N = _sample(draws, n)
        mult = N.multiplicities()
        for eps in (0.3, 0.5, 0.9):
            premise = oracles.verify_sensitive(subsets, n, mult, eps)
            want = not premise or (
                oracles.verify_net(subsets, n, mult, eps * eps)
                and oracles.verify_approx(subsets, n, mult, eps * (1.0 + eps) / 2.0)
            )
            got = check_sensitive_implies_net_approx(X, N, eps, fam_name, ranges=rs)
            assert got is want, (fam_name, coords, draws, eps)
            premises.add(premise)
            falses += not got
            for p in (0.2, 0.5):
                premise = oracles.verify_sensitive(subsets, n, mult, eps * math.sqrt(p))
                want = not premise or oracles.verify_relative(subsets, n, mult, p, eps)
                got = check_sensitive_implies_relative(X, N, p, eps, fam_name, ranges=rs)
                assert got is want, (fam_name, coords, draws, eps, p)
                premises.add(premise)
    assert premises == {True, False} and falses > 0  # neither side vacuous


# --------------------------------------------------------------- tie-break


def test_worst_range_lexicographic_tiebreak():
    # (1,2), (2,3) and (1,2,3) all miss with margin -0.5; the shortest
    # lexicographically-least member list wins
    X = GroundSet(np.array([1.0, 2.0, 3.0, 4.0]))
    N = _sample([0, 0], 4)
    r = verify_eps_net(X, N, 0.5, "intervals")
    assert not r.passed
    assert r.worst_margin == -0.5
    assert r.worst_range.members == (1, 2)


def test_worst_range_empty_wins_full_tie():
    # with N = X every deviation is zero, all margins tie, empty range first
    X = GroundSet(np.arange(0.0, 6.0))
    N = _sample(np.arange(6), 6)
    r = verify_eps_approx(X, N, 0.3, "intervals")
    assert r.passed
    assert r.worst_range.members == ()
    assert r.worst_margin == pytest.approx(0.3 * _UP, abs=1e-18)


def _brute_force_worst(members, N, prop, eps, p):
    """Worst margin and the least sorted member tuple among the ranges
    attaining it, with counts taken member by member."""
    mult = N.multiplicities().tolist()
    r_cnt = np.array([len(mem) for mem in members], dtype=np.int64)
    s_cnt = np.array([sum(mult[i] for i in mem) for mem in members], dtype=np.int64)
    margins = PROPERTIES[prop].margins(r_cnt, s_cnt, N.ground_size, N.m, eps, p)
    worst = float(np.min(margins))
    tied = [members[k] for k in np.nonzero(margins == worst)[0]]
    return worst, min(tied), len(tied)


# eps-net draws that miss tie every missed heavy range at margin -1/m
_TIE_CASES = [
    # (family, n, m, eps, p)
    ("intervals", 200, 4, 0.05, 0.1),
    ("intervals", 40, 30, 0.2, 0.1),
    ("halfplanes", 12, 3, 0.1, 0.2),
    ("rectangles", 10, 3, 0.1, 0.2),
    ("disks", 10, 3, 0.1, 0.2),
    ("disks", 10, 12, 0.3, 0.25),
]


@pytest.mark.parametrize("fam_name,n,m,eps,p", _TIE_CASES)
def test_worst_range_tiebreak_against_bruteforce(fam_name, n, m, eps, p):
    coords = random_coords(fam_name, n, 31)
    # a duplicated point ties its copies' ranges as well
    coords = np.concatenate([coords[:-1], coords[:1]])
    X = GroundSet(coords)
    rs = induced_ranges(family(fam_name), X)
    members = [tuple(int(i) for i in rs.members(k)) for k in range(len(rs))]
    most_tied = 0
    for seed in range(3):
        for N in (draw_sample(X, m, 900 + seed), _sample(np.arange(n), n)):
            for prop in PROPERTIES:
                r = verify_property(prop, X, N, eps, p, fam_name, ranges=rs)
                worst, least, ties = _brute_force_worst(members, N, prop, eps, p)
                assert r.worst_margin == worst
                assert r.worst_range.members == least, (prop, seed, ties)
                most_tied = max(most_tied, ties)
                if N.m == n and prop in ("eps_approx", "sensitive"):
                    # N = X: zero deviation everywhere, the empty range wins
                    assert least == ()
    if m < n / 2:
        assert most_tied >= 20  # the tie-break had real work to do


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.25, 1 / 3, 0.3, 0.7, 1 / 7, 1e-4])
def test_relative_sensitive_levels_against_reference(p):
    # every r_cnt from 0 to n, at n where i*p*n lands on integers (20, 60,
    # 140, 420) and where it does not, against a scan over every level; the
    # plain relative and eps-net kernels against their per-range references.
    # At p = 1e-4 the scan takes 10**4 levels per count, so n stops at 21,
    # where p*n < 1 puts every count in a band of its own
    rng = np.random.default_rng(int(p * 1e6))
    for n in (1, 3, 7, 10, 20, 21, 60, 100, 140, 420)[: 6 if p < 0.01 else None]:
        for _ in range(5):
            m = int(rng.integers(1, 3 * n + 2))
            eps = float(rng.choice([0.05, 0.2, 0.5, 0.9]))
            r_cnt = np.arange(n + 1, dtype=np.int64)
            jitter = rng.uniform(0.6, 1.4, size=n + 1)
            s_cnt = np.clip(np.rint(r_cnt * m / n * jitter), 0, m).astype(np.int64)
            got = _relative_sensitive_margins(r_cnt, s_cnt, n, m, eps, p)
            want = oracles.relative_sensitive_margins(r_cnt, s_cnt, n, m, eps, p)
            assert np.array_equal(got, want), (n, m, eps)
            got = _relative_kernel(r_cnt, s_cnt, n, m, eps, p)
            want = oracles.relative_margins(r_cnt, s_cnt, n, m, eps, p)
            assert np.array_equal(got, want), (n, m, eps)
            got = _net_margins(r_cnt, s_cnt, n, m, eps, p)
            want = oracles.net_margins(r_cnt, s_cnt, n, m, eps)
            assert np.array_equal(got, want), (n, m, eps)


def test_count_table_kernels_match_closed_forms():
    # the sensitive allowance and the binding relative-sensitive levels are
    # found once per count 0..n and gathered by r_cnt; shuffled counts hold
    # 0, n and every multiple of p n = i, each next to random ones, and at
    # p = 1e-4 (10**4 levels, p n below 1) 0, n and random ones
    rng = np.random.default_rng(15)
    for n in (1, 2, 7, 30, 61, 200):
        for i in [*sorted({1, 2, n // 3, n - 1, n} - {0}), None]:
            m = int(rng.integers(1, 3 * n + 2))
            eps = float(rng.choice([0.05, 0.3, 0.9]))
            p, multiples = (1e-4, []) if i is None else (i / n, np.arange(0, n + 1, i))
            r_cnt = rng.permutation(
                np.concatenate([multiples, [0, n], rng.integers(0, n + 1, 40)])
            ).astype(np.int64)
            s_cnt = rng.integers(0, m + 1, r_cnt.shape[0])
            got = _sensitive_margins(r_cnt, s_cnt, n, m, eps, None)
            assert np.array_equal(got, oracles.sensitive_margins(r_cnt, s_cnt, n, m, eps))
            got = _relative_sensitive_margins(r_cnt, s_cnt, n, m, eps, p)
            want = oracles.relative_sensitive_margins(r_cnt, s_cnt, n, m, eps, p)
            assert np.array_equal(got, want), (n, p, m, eps)


@pytest.mark.parametrize("fam_name,n", [("intervals", 30), ("halfplanes", 12)])
def test_relative_sensitive_at_a_tiny_p(fam_name, n):
    # at p = 1e-300 every nonempty range sits about 10**299 levels up, where
    # eps/sqrt(i) all but vanishes: the worst margin is within REL_TOL of
    # minus the largest deviation |r - s|, and the empty range's cap holds
    X = GroundSet(random_coords(fam_name, n, 3))
    N = draw_sample(X, 20, 1)
    rep = verify_property("relative_sensitive", X, N, 0.3, 1e-300, fam_name)
    dev = 0.3 * _UP - verify_eps_approx(X, N, 0.3, fam_name).worst_margin
    assert dev > 0.0 and abs(rep.worst_margin + dev) <= 2 * REL_TOL
    assert not rep.passed and rep.worst_range.members


# ------------------------------------------------------------ N = X passes


@pytest.mark.parametrize("fam_name,n", [
    ("intervals", 40),
    ("halfplanes", 14),
    ("rectangles", 12),
    ("disks", 12),
])
def test_full_sample_passes_everything(fam_name, n):
    X = GroundSet(random_coords(fam_name, n, 17))
    N = _sample(np.arange(n), n)
    eps, p = 0.2, 0.1
    assert verify_eps_net(X, N, eps, fam_name).passed
    assert verify_eps_approx(X, N, eps, fam_name).passed
    assert verify_sensitive(X, N, eps, fam_name).passed
    assert verify_relative(X, N, p, eps, fam_name).passed
    assert verify_relative_sensitive(X, N, p, eps, fam_name).passed


# ---------------------------------------------------------------- reports


def test_report_json_shape():
    X = GroundSet(np.arange(0.0, 5.0))
    N = _sample([0, 1], 5)
    doc = verify_eps_net(X, N, 0.5, "intervals").to_json_dict()
    assert set(doc) == {
        "property", "passed", "worst_margin", "worst_range", "ranges_checked",
    }
    assert doc["property"] == "eps_net"
    assert set(doc["worst_range"]) == {"members", "witness_params"}
    assert all(isinstance(i, int) for i in doc["worst_range"]["members"])


def test_passed_iff_nonnegative_margin():
    X = GroundSet(np.arange(0.0, 12.0))
    for seed in range(6):
        N = draw_sample(X, 8, seed)
        for prop, args in [
            (verify_eps_net, (0.3,)),
            (verify_eps_approx, (0.25,)),
            (verify_sensitive, (0.35,)),
        ]:
            r = prop(X, N, *args, "intervals")
            assert r.passed == (r.worst_margin >= 0.0)


# ------------------------------------------------------------- validation


def test_parameter_validation():
    X = GroundSet(np.arange(0.0, 5.0))
    N = _sample([0, 1], 5)
    with pytest.raises(ParameterError):
        verify_eps_net(X, N, 0.0, "intervals")
    with pytest.raises(ParameterError):
        verify_eps_approx(X, N, 1.0, "intervals")
    with pytest.raises(ParameterError):
        verify_relative(X, N, 0.5, 1.2, "intervals")
    with pytest.raises(ParameterError):
        verify_relative_sensitive(X, N, -0.1, 0.5, "intervals")
    # a p whose 1/p overflows leaves relative_sensitive no level count
    with pytest.raises(ParameterError, match="finite 1/p"):
        verify_relative_sensitive(X, N, 1e-310, 0.5, "intervals")
    with pytest.raises(ParameterError, match="unknown property"):
        VerificationReport("eps-net", True, 0.0, None, 1)


def test_implication_checks_validate_before_enumerating(monkeypatch):
    # a bad eps is refused before the ranges are enumerated, which can take
    # minutes for a planar family at its budget
    def enumerate_fails(*args):
        raise AssertionError("ranges enumerated before eps was checked")

    monkeypatch.setattr("vcsample.verify.induced_ranges", enumerate_fails)
    X = GroundSet(np.arange(0.0, 5.0))
    N = _sample([0, 1], 5)
    with pytest.raises(ParameterError):
        check_sensitive_implies_net_approx(X, N, 1.5, "intervals")
    with pytest.raises(ParameterError):
        check_sensitive_implies_relative(X, N, 0.5, 1.5, "intervals")


def test_sample_ground_mismatch():
    X = GroundSet(np.arange(0.0, 5.0))
    N = _sample([0, 1], 7)
    with pytest.raises(ParameterError):
        verify_eps_net(X, N, 0.5, "intervals")


def test_precomputed_ranges_must_match():
    X = GroundSet(np.arange(0.0, 5.0))
    N = _sample([0, 1], 5)
    other = induced_ranges(family("intervals"), GroundSet(np.arange(0.0, 6.0)))
    with pytest.raises(ParameterError):
        verify_eps_net(X, N, 0.5, "intervals", ranges=other)
    # same family and size, other points: the ranges would be counted wrong
    moved = induced_ranges(family("intervals"), GroundSet(np.arange(5.0)[::-1]))
    with pytest.raises(ParameterError):
        verify_eps_net(X, N, 0.5, "intervals", ranges=moved)
    # an equal copy of X is accepted
    copy = induced_ranges(family("intervals"), GroundSet(np.arange(0.0, 5.0)))
    got = verify_eps_net(X, N, 0.5, "intervals", ranges=copy)
    assert got.worst_margin == verify_eps_net(X, N, 0.5, "intervals").worst_margin


def test_precomputed_ranges_reused():
    X = GroundSet(np.arange(0.0, 8.0))
    N = _sample([0, 3, 6], 8)
    engine = induced_ranges(family("intervals"), X)
    a = verify_eps_approx(X, N, 0.4, "intervals")
    b = verify_eps_approx(X, N, 0.4, "intervals", ranges=engine)
    assert a.worst_margin == b.worst_margin
    assert a.worst_range.members == b.worst_range.members


def test_budget_forwarding():
    X = GroundSet(random_coords("rectangles", 81, 1))
    N = _sample([0, 1, 2], 81)
    with pytest.raises(BudgetExceededError):
        verify_eps_net(X, N, 0.5, "rectangles")
    r = verify_eps_net(
        X, N, 0.5, "rectangles", budget=EnumerationBudget(rectangles=100)
    )
    assert r.ranges_checked > 1


# ------------------------------------------------------- oracle agreement


def _enum_subsets(fam_name, X):
    rs = induced_ranges(family(fam_name), X)
    return rs, [frozenset(int(i) for i in rs.members(k)) for k in range(len(rs))]


@pytest.mark.parametrize("fam_name,n,m", [("intervals", 30, 40), ("halfplanes", 10, 25)])
def test_verifiers_agree_with_naive_oracle(fam_name, n, m):
    eps_grid = (0.15, 0.3, 0.5)
    p_grid = (0.1, 0.2)
    for trial in range(12):
        seed = 4000 + trial
        X = GroundSet(random_coords(fam_name, n, seed))
        N = draw_sample(X, m, seed + 1)
        rs, subsets = _enum_subsets(fam_name, X)
        mult = N.multiplicities()
        eps = eps_grid[trial % 3]
        p = p_grid[trial % 2]
        checks = [
            (verify_eps_net(X, N, eps, fam_name, ranges=rs).passed,
             oracles.verify_net(subsets, n, mult, eps)),
            (verify_eps_approx(X, N, eps, fam_name, ranges=rs).passed,
             oracles.verify_approx(subsets, n, mult, eps)),
            (verify_sensitive(X, N, eps, fam_name, ranges=rs).passed,
             oracles.verify_sensitive(subsets, n, mult, eps)),
            (verify_relative(X, N, p, eps, fam_name, ranges=rs).passed,
             oracles.verify_relative(subsets, n, mult, p, eps)),
            (verify_relative_sensitive(X, N, p, eps, fam_name, ranges=rs).passed,
             oracles.verify_relative_sensitive(subsets, n, mult, p, eps)),
        ]
        for got, want in checks:
            assert got == want, f"{fam_name} trial {trial} eps={eps} p={p}: {checks}"


def test_relative_sensitive_implies_relative_on_random_trials():
    # level 1 of the multi-level check reuses the plain check's expressions,
    # so passing the former must always pass the latter
    X = GroundSet(np.sort(random_coords("intervals", 50, 3)))
    passes = 0
    for trial in range(40):
        N = draw_sample(X, 120, 7000 + trial)
        for (p, eps) in ((0.1, 0.4), (0.2, 0.3)):
            if verify_relative_sensitive(X, N, p, eps, "intervals").passed:
                passes += 1
                assert verify_relative(X, N, p, eps, "intervals").passed
    assert passes > 0  # the implication was actually exercised


@pytest.mark.parametrize("eps", [1.0 - 2.0**-33, math.nextafter(1.0, 0.0)])
def test_sensitive_implies_relative_cap_at_r_equal_p(eps):
    """Clause (ii) at its tight end: r = p and eps just below 1, where the
    sample may put s = 2p on the range and (1 + eps) p can round below 2p."""
    X = GroundSet(np.arange(100.0))
    # the run 0..24 (r = p = 1/4) gets 3 draws a point, the rest 1: s = 1/2 there
    N = _sample(np.repeat(np.arange(100), [3] * 25 + [1] * 75), 100)
    p = 0.25
    assert verify_sensitive(X, N, eps * math.sqrt(p), "intervals").passed  # not vacuous
    assert 75 / N.m == 2 * p
    assert check_sensitive_implies_relative(X, N, p, eps, "intervals") is True
    assert verify_relative(X, N, p, eps, "intervals").passed


@pytest.mark.parametrize("clause", ["i", "ii"])
def test_sensitive_implies_relative_reports_a_failing_clause(clause, monkeypatch, caplog):
    """A violation of either relative clause alone makes the check return
    False, and the INFO line names that clause, and only it, VIOLATED."""
    X = GroundSet(np.arange(100.0))
    N = _sample(np.arange(100), 100)

    def one_fails(r_cnt, s_cnt, n, m, eps, p):
        holds, fails = np.zeros(len(r_cnt)), np.full(len(r_cnt), -1.0)
        return (fails, holds) if clause == "i" else (holds, fails)

    assert check_sensitive_implies_relative(X, N, 0.25, 0.5, "intervals") is True
    monkeypatch.setattr(verify_module, "_relative_clauses", one_fails)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="vcsample.verify"):
        assert check_sensitive_implies_relative(X, N, 0.25, 0.5, "intervals") is False
    verdicts = {"i": "(i) VIOLATED, clause (ii) holds", "ii": "(i) holds, clause (ii) VIOLATED"}
    assert [r.getMessage() for r in caplog.records] == [
        f"sensitive(eps'=0.25) passed; relative clause {verdicts[clause]}"
    ]


def test_check_sensitive_implies_relative_random_trials():
    X = GroundSet(random_coords("intervals", 40, 9))
    hit = 0
    for trial in range(10):
        N = draw_sample(X, 600, 8800 + trial)
        assert check_sensitive_implies_relative(X, N, 0.1, 0.4, "intervals")
        if verify_sensitive(X, N, 0.4 * math.sqrt(0.1), "intervals").passed:
            hit += 1
    assert hit > 0  # not vacuous throughout


# ------------------------------------------------------------- properties


@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from([0.15, 0.25, 0.4]))
def test_net_margin_formula(seed, eps):
    # the reported margin is exactly (s_cnt - 1)/m of the worst heavy range
    X = GroundSet(np.arange(0.0, 15.0))
    N = draw_sample(X, 10, seed)
    r = verify_eps_net(X, N, eps, "intervals")
    members = np.array(r.worst_range.members, dtype=np.int64)
    s_cnt = int(np.isin(N.indices, members).sum())
    assert len(members) >= eps * 15
    assert r.worst_margin == (s_cnt - 1) / N.m


@given(st.integers(min_value=0, max_value=10**6))
def test_approx_margin_matches_worst_deviation(seed):
    X = GroundSet(np.arange(0.0, 12.0))
    N = draw_sample(X, 9, seed)
    eps = 0.3
    r = verify_eps_approx(X, N, eps, "intervals")
    rs = induced_ranges(family("intervals"), X)
    mult = N.multiplicities()
    worst_dev = max(
        abs(int(rs.counts[k]) * N.m - int(rs.sample_counts(mult)[k]) * 12)
        / (12 * N.m)
        for k in range(len(rs))
    )
    assert r.worst_margin == pytest.approx(eps * _UP - worst_dev, abs=1e-15)


# ------------------------------------------------------ interval fast path


def _kernel_report(prop, rs, N, eps, p):
    """The kernel path: every range's counts through the margin kernel."""
    margins = PROPERTIES[prop].margins(*_deviations(rs, N), rs.n, N.m, eps, p)
    worst = float(np.min(margins))
    tied = np.nonzero(margins == worst)[0]
    return _report(prop, rs, worst, tied), worst, tied


@st.composite
def _interval_cases(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    distinct = draw(st.sampled_from([None, 1, 2, 3, 8]))
    xs = rng.random(n) if distinct is None else rng.integers(0, distinct, n) / 4.0
    kind = draw(st.sampled_from(["draw", "one", "take_all"]))
    if kind == "take_all":
        indices = np.arange(n)
    else:
        m = 1 if kind == "one" else draw(st.integers(min_value=1, max_value=3 * n))
        indices = rng.integers(0, n, m)
    if n > 1 and draw(st.booleans()):
        eps = draw(st.integers(min_value=1, max_value=n - 1)) / n
    else:
        eps = draw(st.floats(min_value=1e-3, max_value=0.999))
    # p = i/n puts ranges exactly at r = p, where both relative clauses hold
    if n > 1 and draw(st.booleans()):
        p = draw(st.integers(min_value=1, max_value=n - 1)) / n
    else:
        p = draw(st.floats(min_value=1e-3, max_value=0.999))
    return xs.tolist(), indices.tolist(), eps, p


@given(_interval_cases())
@example(([0.5] * 7, [0, 3, 3], 0.3, 0.5))  # k = 1
@example((list(range(9)), list(range(9)), 0.4, 1 / 3))  # take_all, p*n = 3
@example(([0.1, 0.2, 0.2, 0.7, 0.9], [3], 0.5, 0.4))  # m = 1
@example((list(range(40)), [0, 5, 5, 17, 33, 39], 0.25, 0.1))  # eps*n = 10, p*n = 4 exactly
@example((list(range(30)), list(range(30)), 0.2, 0.05))  # 20 relative-sensitive levels
# (1 - eps)(1 - REL_TOL) = 1/2 up to rounding, so the lower envelope sides of
# runs {0} and {0, 1}, both worst, differ only in their last bits
@example((list(range(6)), [1, 1] + [2, 3, 4, 5] * 5 + [2, 3], 1 - 0.5 / (1 - REL_TOL), 0.1))
# run {0} is light and undrawn, so it ties with the empty range at the worst
@example(([0.0] + [1.0] * 99, [1, 50, 99], 0.5, 0.015))
# the worst runs start at three lo values: {0, 1, 2}, {1, 2, 3} and {2, 3, 4}
# each hold 3 of the 7 draws and tie at the lower envelope side
@example((list(range(6)), [0, 0, 1, 3, 3, 4, 5], 5 / 6, 0.5))
# 32**2 values put the sensitive bands' least counts at the squares; the
# worst sensitive run, {100, ..., 103}, counts exactly 4, the least of a band
@example((list(range(1024)), [100, 101, 102, 103], 0.95, 0.02))
# every run deviates little against its allowance: the empty range is the
# worst sensitive range, and no run is scored
@example((list(range(10)), list(range(10)) * 3 + [0], 0.3, 0.5))
# a draw on every even point: the 20 singletons, one per lo, tie at the
# worst sensitive margin
@example((list(range(20)), list(range(0, 20, 2)), 0.05, 0.5))
@settings(max_examples=500)
def test_interval_fast_path_matches_kernel(case):
    xs, indices, eps, p = case
    X = GroundSet(np.asarray(xs))
    rs = induced_ranges(family("intervals"), X)
    N = _sample(indices, len(xs))
    P = rs.sample_prefix(N.multiplicities())
    for prop in PROPERTIES:
        fast = verify_property(prop, X, N, eps, p, "intervals", ranges=rs)
        kernel, worst, tied = _kernel_report(prop, rs, N, eps, p)
        assert json.dumps(fast.to_json_dict()) == json.dumps(kernel.to_json_dict())
        # same worst margin and exactly the kernel's ties, from the hook
        # itself and from `_worst_margin` around it; the empty range alone
        # stands for a tie it is in
        want = tied[:1] if tied[0] == 0 else tied
        found = PROPERTIES[prop].interval_worst(rs, P, len(xs), N.m, eps, p, True)
        assert found is not None and found[0] == worst
        assert np.array_equal(found[1], want)
        found = _worst_margin(PROPERTIES[prop], rs, N, eps, p, True)
        assert found[0] == worst and np.array_equal(found[1], want)
        assert _worst_margin(PROPERTIES[prop], rs, N, eps, p, False) == (worst, None)


@given(_interval_cases())
@settings(max_examples=300)
def test_interval_sensitive_bound_is_a_lower_bound(case):
    """The sensitive hook's bound[lo] never exceeds the kernel margin of a run
    from lo, and its threshold never falls below the worst margin."""
    xs, indices, eps, _ = case
    X = GroundSet(np.asarray(xs))
    rs = induced_ranges(family("intervals"), X)
    N = _sample(indices, len(xs))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("vcsample.verify._score_rows", lambda *args: seen.append(args[4:]))
        PROPERTIES["sensitive"].interval_worst(
            rs, rs.sample_prefix(N.multiplicities()), len(xs), N.m, eps, None, True
        )
    (bound, threshold), = seen
    margins = _sensitive_margins(*_deviations(rs, N), len(xs), N.m, eps, None)
    # the runs from lo are the rows _starts[lo] up to _starts[lo + 1]
    least = np.minimum.reduceat(margins, rs._starts[:-1])
    assert np.all(bound <= least)
    assert threshold >= margins.min()


def test_interval_row_id_matches_enumeration():
    for k in range(1, 51):
        rs = induced_ranges(family("intervals"), GroundSet(np.arange(float(k))))
        lo, hi = np.array([rs._run(row) for row in range(1, len(rs))]).T
        assert np.array_equal(np.stack([lo, hi]), np.triu_indices(k))
        assert np.array_equal(rs.row_id(lo, hi), np.arange(1, len(rs)))
        assert rs._run(0) == (0, -1)
        # rows index like a sequence: negative from the end, IndexError outside
        assert rs._run(-1) == rs._run(len(rs) - 1)
        for row in (len(rs), -len(rs) - 1):
            with pytest.raises(IndexError):
                rs.witness(row)


def test_interval_approx_rounding_ties_match_kernel():
    # at n*m = 2**55 the margins of numerators 2**42 and 2**42 - 1 round to
    # the same float, so runs of both deviations tie at the worst margin
    rs = induced_ranges(family("intervals"), GroundSet(np.arange(4.0)))
    m = 2**53
    mult = np.array([2**51 + 2**40, 2**51 - 2**40, 2**51, 2**51], dtype=np.int64)
    N = SimpleNamespace(m=m, multiplicities=lambda: mult)
    prop = PROPERTIES["eps_approx"]
    margins = prop.margins(*_deviations(rs, N), 4, m, 0.5, None)
    worst = float(np.min(margins))
    tied = np.nonzero(margins == worst)[0]
    assert worst == 0.49987793018750004 and tied.tolist() == [1, 5, 6, 7]
    found = prop.interval_worst(rs, rs.sample_prefix(mult), 4, m, 0.5, None, True)
    assert found[0] == worst and np.array_equal(found[1], tied)
    got = _worst_margin(prop, rs, N, 0.5, None, True)
    assert got[0] == worst and np.array_equal(got[1], tied)
    assert _worst_margin(prop, rs, N, 0.5, None, False) == (worst, None)


# (property, draws, eps, tied runs) on 300 distinct values, p = 0.51: each
# worst margin is tied by thousands of runs from many lo values
_LARGE_TIES = [
    # every heavy run from lo >= 1 misses the one draw, at point 0
    ("eps_net", [0], 0.1, 36_585),
    # a draw on every even point: each run of odd length deviates by 1/300
    ("eps_approx", list(range(0, 300, 2)), 0.5, 22_650),
    # every light run holding point 150, from 151 lo values, has the one
    # draw and ties at the worst cap
    ("relative", [150], 0.5, 11_772),
    ("relative_sensitive", [150], 0.5, 11_772),
    # a draw on every even point: each singleton deviates by 1/300, beyond
    # its allowance, and each longer run by at most that, against a larger
    # allowance; the 300 tied runs start at 300 lo values
    ("sensitive", list(range(0, 300, 2)), 0.05, 300),
]


def test_interval_relative_large_tie_matches_kernel(monkeypatch):
    """The row scorer's ties equal the kernel's, whole and split over blocks
    of 64 runs."""
    rs = induced_ranges(family("intervals"), GroundSet(np.arange(300.0)))
    for block in (None, 64):
        if block is not None:
            monkeypatch.setattr("vcsample.verify._BLOCK", block)
        for name, draws, eps, size in _LARGE_TIES:
            N = _sample(draws, 300)
            prop = PROPERTIES[name]
            margins = prop.margins(*_deviations(rs, N), 300, N.m, eps, 0.51)
            worst = float(np.min(margins))
            tied = np.nonzero(margins == worst)[0]
            assert tied.size == size
            found = prop.interval_worst(
                rs, rs.sample_prefix(N.multiplicities()), 300, N.m, eps, 0.51, True
            )
            assert found is not None and found[0] == worst
            assert np.array_equal(found[1], tied)
            found = _worst_margin(prop, rs, N, eps, 0.51, True)
            assert found[0] == worst and np.array_equal(found[1], tied)
            assert _worst_margin(prop, rs, N, eps, 0.51, False) == (worst, None)


@pytest.mark.parametrize(
    "k, p, defers",
    [
        # below 2**16 entries the guard never defers: about 10**5 levels of
        # floor(1/p) + 1 over 11 lo entries pass it, while 5 x 41 entries
        # stay within it though they pass an eighth of the 821 ranges (102)
        (10, 1e-5, True),
        (40, 0.25, False),
        # 1100 values, 605,551 ranges: 68 x 1101 entries (74,868) stay within
        # an eighth of the ranges (75,693), 69 x 1101 (75,969) pass it
        (1100, 1 / 67.5, False),
        (1100, 1 / 68.5, True),
    ],
)
def test_interval_relative_level_guard_defers_to_kernel(k, p, defers):
    X = GroundSet(np.arange(float(k)))
    rs = induced_ranges(family("intervals"), X)
    N = _sample(list(range(0, k, 3)) * 2, k)
    prop = PROPERTIES["relative_sensitive"]
    found = prop.interval_worst(rs, rs.sample_prefix(N.multiplicities()), k, N.m, 0.3, p, True)
    assert (found is None) == defers
    kernel, worst, _ = _kernel_report("relative_sensitive", rs, N, 0.3, p)
    fast = verify_property("relative_sensitive", X, N, 0.3, p, "intervals", ranges=rs)
    assert fast.to_json_dict() == kernel.to_json_dict()
    assert _worst_margin(prop, rs, N, 0.3, p, False) == (worst, None)


def test_interval_relative_sensitive_many_levels_in_blocks():
    """At 4000 values and p = 1/220 the 221 x 4001 (band, lo) entries stay
    within an eighth of the 8,002,001 ranges, so the fast path runs, a few
    bands at a time, and finds the worst margin and ties of scoring every
    run."""
    X = GroundSet(np.arange(4000.0))
    rs = induced_ranges(family("intervals"), X)
    N = draw_sample(X, 3000, 25)
    prop = PROPERTIES["relative_sensitive"]
    P = rs.sample_prefix(N.multiplicities())
    found = prop.interval_worst(rs, P, 4000, N.m, 0.3, 1 / 220, True)
    assert found is not None
    every_run = dataclasses.replace(prop, interval_worst=None)
    worst, tied = _worst_margin(every_run, rs, N, 0.3, 1 / 220, True)
    assert found[0] == worst and np.array_equal(found[1], tied)


def test_interval_sensitive_scores_few_runs(monkeypatch):
    """At 20,000 values (200,010,001 runs) the sensitive bound leaves fewer
    than 1% of the runs to the kernel, and the worst margin and its ties are
    those of scoring every run."""
    X = generate_ground_set(SourceSpec("uniform", n=20_000), 1, 1)
    rs = induced_ranges(family("intervals"), X, EnumerationBudget(intervals=20_000))
    assert len(rs) == 200_010_001
    N = draw_sample(X, 2000, 1)
    kernel = verify_module._sensitive_margins
    scored = []

    def counting(r_cnt, s_cnt, *args):
        scored.append(r_cnt.size)
        return kernel(r_cnt, s_cnt, *args)

    monkeypatch.setattr(verify_module, "_sensitive_margins", counting)
    prop = PROPERTIES["sensitive"]
    worst, tied = _worst_margin(prop, rs, N, 0.1, None, True)
    assert 0 < sum(scored) < len(rs) // 100
    every_run = dataclasses.replace(prop, interval_worst=None)
    want, want_tied = _worst_margin(every_run, rs, N, 0.1, None, True)
    assert worst == want and np.array_equal(tied, want_tied)


def test_interval_verification_builds_no_per_range_array(monkeypatch):
    """Every property, and a relative-style call the level guard defers,
    scores intervals from prefix sums: neither `counts` nor `sample_counts`
    is touched."""

    def refuse(self, multiplicities):
        raise AssertionError("per-range sample counts built")

    monkeypatch.setattr(_IntervalRangeSet, "sample_counts", refuse)
    X = GroundSet(np.arange(40.0))
    rs = induced_ranges(family("intervals"), X)
    N = _sample(list(range(0, 40, 3)) * 2, 40)
    prop = PROPERTIES["relative_sensitive"]
    P = rs.sample_prefix(N.multiplicities())
    # 10**4 levels over 41 lo entries pass the guard's floor
    assert prop.interval_worst(rs, P, 40, N.m, 0.3, 1e-4, True) is None
    for name, p in [*((name, 0.2) for name in PROPERTIES), ("relative_sensitive", 1e-4)]:
        rep = verify_property(name, X, N, 0.3, p, "intervals", ranges=rs)
        assert rep.ranges_checked == 821
    assert "counts" not in rs.__dict__


_INTERVAL_MEMORY = """
import resource, sys
import numpy as np
from vcsample.ranges import GroundSet, family, induced_ranges
from vcsample.sampling import Sample, draw_sample
from vcsample.verify import (
    PROPERTIES, _worst_margin, check_sensitive_implies_net_approx,
    check_sensitive_implies_relative, verify_eps_approx, verify_eps_net, verify_relative,
    verify_relative_sensitive, verify_sensitive,
)

# ru_maxrss is in bytes on macOS and in KiB elsewhere
unit = 2**20 if sys.platform == "darwin" else 2**10

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit

# every run of 2,001,001 scored, from the peak after enumeration; first, so
# that no earlier peak hides its growth: 201 x 2001 per-level entries pass
# an eighth of the range count, so the level guard defers
X = GroundSet(np.random.default_rng(6).random(2000))
rs = induced_ranges(family("intervals"), X)
M = draw_sample(X, 2000, 6)
P = rs.sample_prefix(M.multiplicities())
assert PROPERTIES["relative_sensitive"].interval_worst(rs, P, 2000, 2000, 0.3, 0.005, True) is None
before = peak_mb()
rep = verify_relative_sensitive(X, M, 0.005, 0.3, rs.family, ranges=rs)
assert rep.ranges_checked == 2000 * 2001 // 2 + 1
scored_growth = peak_mb() - before
del X, rs, M, P, rep

# the worst tie of relative_sensitive on 2000 values: 1.5M of the 2.0M runs
# scored, 520,310 of them tied
rs = induced_ranges(family("intervals"), GroundSet(np.arange(2000.0)))
N = Sample(indices=np.array([1000]), m=1, seed=0, ground_size=2000)
before = peak_mb()
_, tied = _worst_margin(PROPERTIES["relative_sensitive"], rs, N, 0.5, 0.51, True)
assert tied.size == 520_310
tie_growth = peak_mb() - before
del rs, N, tied

X = GroundSet(np.random.default_rng(5).random(5000))
rs = induced_ranges(family("intervals"), X)
N = draw_sample(X, 400, 5)
M = draw_sample(X, 2000, 5)
for rep in (verify_eps_net(X, N, 0.05, rs.family, ranges=rs),
            verify_eps_approx(X, N, 0.1, rs.family, ranges=rs),
            verify_sensitive(X, M, 0.3, rs.family, ranges=rs),
            verify_relative(X, M, 0.1, 0.3, rs.family, ranges=rs),
            verify_relative_sensitive(X, M, 0.1, 0.3, rs.family, ranges=rs),
            # 251 x 5001 per-level entries, within an eighth of the range
            # count: the fast path, a few bands at a time
            verify_relative_sensitive(X, M, 1 / 250, 0.3, rs.family, ranges=rs),
            # 1001 x 5001 per-level entries: the level guard defers
            verify_relative_sensitive(X, M, 0.001, 0.3, rs.family, ranges=rs)):
    assert rep.ranges_checked == 5000 * 5001 // 2 + 1
# both implication checks, each with a passing premise (eps * sqrt(p) for
# the relative one), so that their conclusions are scored
L = draw_sample(X, 20000, 5)
assert verify_sensitive(X, M, 0.3, rs.family, ranges=rs).passed
assert check_sensitive_implies_net_approx(X, M, 0.3, rs.family, ranges=rs)
assert verify_sensitive(X, L, 0.5 * 0.05 ** 0.5, rs.family, ranges=rs).passed
assert check_sensitive_implies_relative(X, L, 0.05, 0.5, rs.family, ranges=rs)
print(tie_growth, peak_mb(), "counts" in rs.__dict__, scored_growth)
"""


def test_interval_memory_stays_bounded():
    """In a fresh interpreter: first relative_sensitive at n = m = 2000 (2M
    ranges) and a p the level guard defers, every run scored in blocks,
    within 40 MB of the enumeration's peak. Then the worst tie of
    relative_sensitive on 2000 values, whose 1.5M scored runs go through the
    kernel in blocks, so the peak grows by less than 64 MB. Then intervals
    at the default budget, n = 5000 (12.5M ranges), verified for every
    property, for a relative_sensitive p of 251 levels that the fast path
    takes a few bands at a time and for one the level guard defers, then
    through both implication checks with a passing premise: the row scorer
    reads only per-value arrays and scores about _BLOCK runs at a time, so
    no per-range array is built and peak RSS stays far below the 100 MB
    that a single int64 per range would take."""
    pytest.importorskip("resource")
    proc = run_from_small_interpreter(_INTERVAL_MEMORY)
    assert proc.returncode == 0, proc.stderr
    tie_growth_mb, peak_mb, counts_cached, scored_growth_mb = proc.stdout.split()
    assert float(tie_growth_mb) < 64.0
    assert float(peak_mb) < 120.0
    assert counts_cached == "False"
    assert float(scored_growth_mb) < 40.0


_RECTANGLE_MEMORY = """
import resource, sys
from vcsample.harness import SourceSpec, generate_ground_set
from vcsample.ranges import EnumerationBudget, family, induced_ranges
from vcsample.sampling import draw_sample
from vcsample.verify import verify_eps_approx

unit = 2**20 if sys.platform == "darwin" else 2**10
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
X = generate_ground_set(SourceSpec("uniform", n=80), 2, 1)
rs = induced_ranges(family("rectangles"), X, EnumerationBudget(rectangles=80))
assert len(rs) == 390_055
verify_eps_approx(X, draw_sample(X, 500, 1), 0.1, rs.family, ranges=rs)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit - before)
"""


def test_rectangle_memory_stays_bounded():
    """In a fresh interpreter, rectangles at their budget, n = 80 (390,055
    tight boxes), enumerated and verified once: four int32 corners per box
    and the per-range counts of one eps_approx pass keep the peak RSS within
    40 MB of the import's."""
    pytest.importorskip("resource")
    proc = run_from_small_interpreter(_RECTANGLE_MEMORY)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 40.0
