"""Size calculators, the normalized deviation, and sample plumbing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from vcsample.errors import ParameterError
from vcsample.ranges import GroundSet, family, induced_ranges
from vcsample.sampling import (
    Sample,
    SamplingParams,
    dist_nu,
    draw_sample,
    meets_deviation_bound,
    read_sample_json,
    sample_size_base,
    sample_weight,
    sensitive_level_count,
    size_eps_approx,
    size_eps_net,
    size_relative,
    size_sensitive,
    write_sample_json,
)

unit_open = st.floats(min_value=0.01, max_value=0.99)


# ---------------------------------------------------------------- dist_nu


def test_dist_nu_examples():
    assert dist_nu(0.5, 0.25, 0.25) == pytest.approx(0.25)
    assert dist_nu(0.0, 0.0, 1.0) == 0.0
    assert dist_nu(0.3, 0.3, 0.1) == 0.0


def test_dist_nu_validation():
    with pytest.raises(ParameterError):
        dist_nu(0.5, 0.5, 0.0)
    with pytest.raises(ParameterError):
        dist_nu(-0.1, 0.5, 0.5)
    with pytest.raises(ParameterError):
        dist_nu(0.1, -0.5, 0.5)


@given(unit_open, unit_open, unit_open)
def test_dist_nu_range_and_symmetry(r, s, nu):
    v = dist_nu(r, s, nu)
    assert 0.0 <= v < 1.0
    assert v == dist_nu(s, r, nu)


@given(unit_open, unit_open, unit_open, unit_open)
def test_dist_nu_monotone_in_nu(r, s, nu, bump):
    # a larger offset can only shrink the normalized deviation
    assert dist_nu(r, s, nu + bump) <= dist_nu(r, s, nu)


@given(unit_open, unit_open, unit_open, unit_open)
def test_meets_deviation_bound_consistent(r, s, nu, alpha):
    assert meets_deviation_bound(r, s, nu, alpha) == (dist_nu(r, s, nu) < alpha)


# ------------------------------------------------------------------ sizes


def test_frozen_sizes():
    assert size_eps_net(0.1, 2, 0.25) == 959
    assert size_eps_approx(0.1, 2, 0.25) == 26617
    assert size_sensitive(0.2, 2, 0.25) == 363
    assert sensitive_level_count(0.2) == 20000
    assert size_relative(0.1, 0.3, 2, 0.25) == 132800


def test_more_frozen_sizes():
    assert size_eps_net(0.05, 2, 0.25) == 2361
    assert size_eps_net(0.1, 3, 0.25) == 1328
    assert size_relative(0.05, 0.3, 2, 0.25) == 315506
    assert size_sensitive(0.3, 2, 0.25) == 144
    assert sensitive_level_count(0.3) == 8889
    assert sample_size_base(SamplingParams(alpha=0.5, nu=0.5, delta=0.5, d=1)) == 12


@given(unit_open, st.integers(min_value=1, max_value=6), unit_open,
       st.floats(min_value=0.05, max_value=8.0))
def test_sizes_match_literal_formulas(eps, d, delta, C):
    assert size_eps_net(eps, d, delta, C) == oracles.net_size(eps, d, delta, C)
    assert size_eps_approx(eps, d, delta, C) == oracles.approx_size(eps, d, delta, C)
    assert size_sensitive(eps, d, delta, C) == oracles.sensitive_size(eps, d, delta, C)


@given(unit_open, unit_open, st.integers(min_value=1, max_value=6), unit_open)
def test_relative_size_matches_literal_formula(p, eps, d, delta):
    assert size_relative(p, eps, d, delta) == oracles.relative_size(p, eps, d, delta)


@given(unit_open, st.integers(min_value=1, max_value=5), unit_open)
def test_size_monotone_in_eps(eps, d, delta):
    smaller = eps / 2.0
    assert size_eps_net(smaller, d, delta) >= size_eps_net(eps, d, delta)
    assert size_eps_approx(smaller, d, delta) >= size_eps_approx(eps, d, delta)
    assert size_sensitive(smaller, d, delta) >= size_sensitive(eps, d, delta)


@given(unit_open, unit_open, st.integers(min_value=1, max_value=5), unit_open)
def test_size_monotone_in_d_and_delta(p, eps, d, delta):
    assert size_relative(p, eps, d + 1, delta) >= size_relative(p, eps, d, delta)
    assert size_eps_net(eps, d, delta / 2.0) >= size_eps_net(eps, d, delta)
    assert size_relative(p / 2.0, eps, d, delta) >= size_relative(p, eps, d, delta)


@given(unit_open, st.integers(min_value=1, max_value=5), unit_open,
       st.floats(min_value=0.05, max_value=4.0))
def test_size_scales_linearly_in_C(eps, d, delta, C):
    one = size_eps_net(eps, d, delta, 1.0)
    assert size_eps_net(eps, d, delta, C) >= math.floor(C * (one - 1))


def test_size_validation():
    with pytest.raises(ParameterError):
        size_eps_net(0.0, 2, 0.25)
    with pytest.raises(ParameterError):
        size_eps_net(1.0, 2, 0.25)
    with pytest.raises(ParameterError):
        size_eps_approx(0.1, 0, 0.25)
    with pytest.raises(ParameterError):
        size_sensitive(0.1, 2, 1.5)
    with pytest.raises(ParameterError):
        size_relative(0.1, 0.3, 2, 0.25, C=0.0)
    with pytest.raises(ParameterError):
        size_relative(1.2, 0.3, 2, 0.25)
    # a bool is not a VC dimension, though isinstance(True, int) holds
    for size in (size_eps_net, size_eps_approx, size_sensitive):
        with pytest.raises(ParameterError):
            size(0.1, True, 0.25)
    with pytest.raises(ParameterError):
        size_relative(0.1, 0.3, True, 0.25)


def test_sampling_params_validation():
    with pytest.raises(ParameterError):
        SamplingParams(alpha=0.0, nu=0.5, delta=0.5, d=2)
    with pytest.raises(ParameterError):
        SamplingParams(alpha=0.5, nu=1.5, delta=0.5, d=2)
    with pytest.raises(ParameterError):
        SamplingParams(alpha=0.5, nu=0.5, delta=0.5, d=2.5)
    with pytest.raises(ParameterError):
        SamplingParams(alpha=0.5, nu=0.5, delta=0.5, d=True)
    # nu = 1 is allowed (it only normalizes), alpha = 1 is not
    SamplingParams(alpha=0.5, nu=1.0, delta=0.5, d=2)
    with pytest.raises(ParameterError):
        SamplingParams(alpha=1.0, nu=0.5, delta=0.5, d=2)


# ----------------------------------------------------------------- Sample


def test_draw_sample_deterministic():
    X = GroundSet(np.linspace(0.0, 1.0, 50))
    a = draw_sample(X, 200, seed=7)
    b = draw_sample(X, 200, seed=7)
    c = draw_sample(X, 200, seed=8)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)
    assert a.m == 200 and a.ground_size == 50 and a.seed == 7


def test_draw_sample_has_repetition():
    X = GroundSet(np.linspace(0.0, 1.0, 5))
    N = draw_sample(X, 100, seed=0)
    assert len(np.unique(N.indices)) == 5  # pigeonhole


def test_sample_validation():
    with pytest.raises(ParameterError):
        Sample(indices=np.array([0, 1]), m=3, seed=0, ground_size=5)
    with pytest.raises(ParameterError):
        Sample(indices=np.array([0, 5]), m=2, seed=0, ground_size=5)
    with pytest.raises(ParameterError):
        Sample(indices=np.array([-1, 0]), m=2, seed=0, ground_size=5)
    with pytest.raises(ParameterError):
        draw_sample(GroundSet(np.array([1.0])), 0, seed=0)


def test_multiplicities():
    N = Sample(indices=np.array([0, 0, 2, 4]), m=4, seed=1, ground_size=5)
    assert N.multiplicities().tolist() == [2, 0, 1, 0, 1]
    assert N.multiplicities().sum() == N.m


def test_sample_weight():
    X = GroundSet(np.array([1.0, 2.0, 2.0, 5.0]))
    rs = induced_ranges(family("intervals"), X)
    by_members = {tuple(int(i) for i in rs.members(k)): k for k in range(len(rs))}
    N = Sample(indices=np.array([0, 1, 1, 3]), m=4, seed=0, ground_size=4)
    assert sample_weight(rs.range_at(by_members[(1, 2)]), N) == pytest.approx(0.5)
    assert sample_weight(rs.range_at(by_members[()]), N) == 0.0
    assert sample_weight(rs.range_at(by_members[(0, 1, 2, 3)]), N) == 1.0
    with pytest.raises(ParameterError):
        bad = Sample(indices=np.array([0]), m=1, seed=0, ground_size=9)
        sample_weight(rs.range_at(1), bad)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=10**6))
def test_draw_sample_in_range(n, m, seed):
    X = GroundSet(np.arange(n, dtype=np.float64))
    N = draw_sample(X, m, seed)
    assert N.indices.min() >= 0 and N.indices.max() < n
    assert N.multiplicities().sum() == m


# ------------------------------------------------------------------- JSON


def test_sample_json_roundtrip(tmp_path):
    X = GroundSet(np.linspace(0.0, 1.0, 20))
    N = draw_sample(X, 30, seed=5, params={"eps": 0.1})
    path = str(tmp_path / "sample.json")
    write_sample_json(path, N)
    back = read_sample_json(path)
    assert np.array_equal(back.indices, N.indices)
    assert back.m == N.m and back.seed == N.seed
    assert back.ground_size == N.ground_size
    assert back.params == {"eps": 0.1}


def test_sample_json_embeds_points(tmp_path):
    X = GroundSet(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
    N = draw_sample(X, 5, seed=2)
    path = str(tmp_path / "sample.json")
    write_sample_json(path, N, X)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["points"] == [X.coords[i].tolist() for i in N.indices]
    assert doc["schema_version"] == 1
    # mismatched ground set is refused
    with pytest.raises(ParameterError):
        write_sample_json(path, N, GroundSet(np.array([[0.0, 1.0]])))


def test_sample_json_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 3, "seed": 0, "indices": [0, 1, 2]}')
    with pytest.raises(ParameterError):
        read_sample_json(str(path))
    good = {"schema_version": 1, "m": 3, "seed": 0, "n_points": 5, "indices": [0, 1, 2]}
    path.write_text(json.dumps(good))
    assert read_sample_json(str(path)).ground_size == 5
    for bad in (
        [0, 1, 2],  # not an object
        {**good, "indices": [0, 1.5, 2]},
        {**good, "indices": ["a", "b", "c"]},
        {**good, "indices": [0, 1, 2**70]},
        {**good, "indices": "012"},
        {**good, "m": "3"},
        {**good, "seed": None},
        {**good, "n_points": 2},  # index 2 out of range
        {**good, "schema_version": 2},
        {**good, "points": [[0.5], [0.25]]},  # two rows for m = 3
        {**good, "points": [["x"], [0.5], [0.25]]},
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(ParameterError):
            read_sample_json(str(path))
