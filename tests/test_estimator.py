"""Approximate counting from stored samples."""

import math

import numpy as np
import pytest

from vcsample.errors import ParameterError
from vcsample.estimator import GUARANTEES, CountEstimate, estimate_count
from vcsample.ranges import GroundSet
from vcsample.sampling import draw_sample

COORDS_1D = np.array([0.1, 0.3, 0.5, 0.7])  # two of four in [0.2, 0.6]


def test_guarantee_catalog():
    assert GUARANTEES == ("approx", "relative", "sensitive", "none")


def test_approx_guarantee():
    est = estimate_count(
        (0.2, 0.6), COORDS_1D, 1000, "approx", "intervals", eps=0.1, delta=0.25
    )
    assert est.estimate == 500.0
    assert est.additive_error_bound == pytest.approx(100.0)
    assert est.relative_error_bound is None
    assert est.confidence == 0.75
    assert est.guarantee == "approx"


def test_relative_guarantee():
    est = estimate_count(
        (0.2, 0.6), COORDS_1D, 1000, "relative", "intervals", eps=0.1, p=0.05
    )
    assert est.estimate == 500.0
    assert est.additive_error_bound == pytest.approx(1.1 * 0.05 * 1000)
    assert est.relative_error_bound == 0.1
    assert est.confidence is None


def test_sensitive_guarantee():
    est = estimate_count(
        (0.2, 0.6), COORDS_1D, 1000, "sensitive", "intervals", eps=0.2
    )
    want = (0.2 / 2.0) * (math.sqrt(0.5) + 0.4) * 1000
    assert est.additive_error_bound == pytest.approx(want)
    assert est.relative_error_bound == pytest.approx(want / 500.0)
    # the plug-in nature of the bound is flagged in the payload
    assert "heuristic" in est.to_json_dict()["bound_note"]


def test_sensitive_empty_estimate_gives_inf_relative_bound():
    est = estimate_count(
        (0.8, 0.9), COORDS_1D, 1000, "sensitive", "intervals", eps=0.2
    )
    assert est.estimate == 0.0
    assert est.relative_error_bound == math.inf
    assert est.to_json_dict()["relative_error_bound"] == "inf"


def test_none_guarantee():
    est = estimate_count((0.2, 0.6), COORDS_1D, 1000, "none", "intervals")
    assert est.estimate == 500.0
    assert est.additive_error_bound == 1000.0
    assert est.relative_error_bound is None


def test_sample_with_ground_set_path():
    X = GroundSet(np.linspace(0.0, 1.0, 100))
    N = draw_sample(X, 400, seed=3)
    est = estimate_count((0.0, 0.5), N, 100, "approx", "intervals", X=X, eps=0.1)
    coords = X.coords[N.indices][:, 0]
    s = float(np.mean((coords >= 0.0) & (coords <= 0.5)))
    assert est.estimate == pytest.approx(s * 100)


def test_two_dimensional_query():
    coords = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9], [0.2, 0.8]])
    est = estimate_count(
        (0.0, 0.6, 0.0, 0.6), coords, 40, "approx", "rectangles", eps=0.25
    )
    assert est.estimate == pytest.approx(0.5 * 40)
    est = estimate_count(
        (0.5, 0.5, 0.4), coords, 40, "none", "disks"
    )
    assert est.estimate == pytest.approx(0.25 * 40)  # only the center point


def test_validation_errors():
    with pytest.raises(ParameterError):
        estimate_count((0.2, 0.6), COORDS_1D, 1000, "exact", "intervals")
    with pytest.raises(ParameterError):
        estimate_count((0.2, 0.6), COORDS_1D, 1000, "approx", "intervals")  # no eps
    with pytest.raises(ParameterError):
        estimate_count(
            (0.2, 0.6), COORDS_1D, 1000, "relative", "intervals", eps=0.1
        )  # no p
    with pytest.raises(ParameterError):
        estimate_count((0.2, 0.6), COORDS_1D, 0, "none", "intervals")
    with pytest.raises(ParameterError):
        estimate_count((0.0, 1.0), [[0.5]], True, "none", "intervals")  # bool size
    with pytest.raises(ParameterError):
        estimate_count((0.2,), COORDS_1D, 10, "none", "intervals")  # bad witness
    with pytest.raises(ParameterError):
        estimate_count((0.2, 0.6), np.zeros((0, 1)), 10, "none", "intervals")
    with pytest.raises(ParameterError):
        estimate_count((0.2, 0.6), COORDS_1D, 10, "none", "disks")  # dim mismatch
    with pytest.raises(ParameterError):
        estimate_count(
            (0.2, 0.6), COORDS_1D, 10, "approx", "intervals", eps=0.1, delta=2.0
        )
    # a parameter the guarantee does not take is an error, not ignored
    with pytest.raises(ParameterError):
        estimate_count((0.2, 0.6), COORDS_1D, 10, "none", "intervals", delta=0.1)
    with pytest.raises(ParameterError):
        estimate_count(
            (0.2, 0.6), COORDS_1D, 10, "approx", "intervals", eps=0.1, p=7
        )
    # X_size must agree with the ground set a Sample was drawn from
    X = GroundSet(np.linspace(0.0, 1.0, 100))
    N = draw_sample(X, 50, 1)
    with pytest.raises(ParameterError):
        estimate_count((0.0, 0.5), N, 7, "approx", "intervals", X=X, eps=0.1)


def test_sample_needs_ground_set():
    X = GroundSet(np.linspace(0.0, 1.0, 10))
    N = draw_sample(X, 5, seed=0)
    with pytest.raises(ParameterError):
        estimate_count((0.0, 0.5), N, 10, "none", "intervals")
    with pytest.raises(ParameterError):
        estimate_count(
            (0.0, 0.5), N, 10, "none", "intervals",
            X=GroundSet(np.linspace(0.0, 1.0, 11)),
        )


def test_count_estimate_validation():
    with pytest.raises(ParameterError):
        CountEstimate(1.0, -0.5, None, "approx", None)
    with pytest.raises(ParameterError):
        CountEstimate(1.0, 0.5, 0.1, "approx", None)  # stray relative bound
    with pytest.raises(ParameterError):
        CountEstimate(1.0, 0.5, None, "relative", None)  # missing one
    with pytest.raises(ParameterError):
        CountEstimate(1.0, 0.5, None, "never", None)


def test_json_dict_keys():
    est = estimate_count(
        (0.2, 0.6), COORDS_1D, 10, "approx", "intervals", eps=0.1, delta=0.5
    )
    doc = est.to_json_dict()
    assert set(doc) == {
        "estimate",
        "additive_error_bound",
        "relative_error_bound",
        "guarantee",
        "confidence",
    }
    assert doc["confidence"] == 0.5
