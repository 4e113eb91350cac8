"""Experiment harness: configs, determinism, calibration, size tables."""

import dataclasses
import json
import math

import numpy as np
import pytest

from vcsample.errors import CalibrationError, ParameterError
from vcsample.harness import (
    ExperimentConfig,
    ExperimentResult,
    SourceSpec,
    _run_cell,
    calibrate_constant,
    canonical_property,
    generate_ground_set,
    run_experiment,
    sample_size_for,
    size_table,
    size_table_csv,
    trial_seed,
)
from vcsample.ranges import GroundSet, family, induced_ranges, write_points_csv
from vcsample.sampling import (
    Sample,
    draw_sample,
    size_eps_approx,
    size_eps_net,
    size_relative,
    size_sensitive,
)
from vcsample.verify import PROPERTIES, verify_property


def _config(**kw):
    base = dict(
        family="intervals",
        property="approx",
        source=SourceSpec(kind="uniform", n=40),
        eps_values=(0.3,),
        delta=0.25,
        trials=5,
        seed=3,
        C=0.2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- properties


def test_canonical_property_aliases():
    assert canonical_property("net") == "eps_net"
    assert canonical_property("eps-net") == "eps_net"
    assert canonical_property("approx") == "eps_approx"
    assert canonical_property("eps_approx") == "eps_approx"
    assert canonical_property("relative-sensitive") == "relative_sensitive"
    assert canonical_property("relative") == "relative"
    with pytest.raises(ParameterError):
        canonical_property("uniform-convergence")


def test_sample_size_dispatch():
    assert sample_size_for("net", 2, 0.1, None, 0.25, 1.0) == size_eps_net(0.1, 2, 0.25)
    assert sample_size_for("approx", 2, 0.1, None, 0.25, 1.0) == size_eps_approx(
        0.1, 2, 0.25
    )
    assert sample_size_for("sensitive", 2, 0.2, None, 0.25, 1.0) == size_sensitive(
        0.2, 2, 0.25
    )
    rel = sample_size_for("relative", 2, 0.3, 0.1, 0.25, 1.0)
    assert rel == size_relative(0.1, 0.3, 2, 0.25)
    # one sample size serves the whole relative-sensitive ladder
    assert sample_size_for("relative-sensitive", 2, 0.3, 0.1, 0.25, 1.0) == rel
    with pytest.raises(ParameterError):
        sample_size_for("relative", 2, 0.3, None, 0.25, 1.0)


def test_trial_seed_formula():
    assert trial_seed(7, 0, 0) == 7
    assert trial_seed(7, 3, 41) == 7 + 3 * 10**6 + 41
    # distinct cells and trials never collide within sane trial counts
    seen = {trial_seed(0, c, t) for c in range(5) for t in range(1000)}
    assert len(seen) == 5000


# ----------------------------------------------------------------- config


def test_source_spec_validation():
    with pytest.raises(ParameterError):
        SourceSpec(kind="gaussian", n=5)
    with pytest.raises(ParameterError):
        SourceSpec(kind="uniform")
    with pytest.raises(ParameterError):
        SourceSpec(kind="uniform", n=0)
    with pytest.raises(ParameterError):
        SourceSpec(kind="file")
    assert SourceSpec(kind="file", path="points.csv").to_json_dict() == {
        "kind": "file",
        "path": "points.csv",
    }


def test_config_validation():
    with pytest.raises(ParameterError):
        _config(eps_values=())
    with pytest.raises(ParameterError):
        _config(eps_values=(1.5,))
    with pytest.raises(ParameterError):
        _config(property="relative")  # needs p grid
    with pytest.raises(ParameterError):
        _config(trials=0)
    with pytest.raises(ParameterError):
        _config(C=0.0)
    with pytest.raises(ParameterError):
        _config(delta=0.0)
    with pytest.raises(ParameterError):
        _config(family="simplices")
    for bad in (
        dict(trials=True),
        dict(trials=10**6),  # trial_seed(0, 0, 10**6) == trial_seed(0, 1, 0)
        dict(seed=1.5),
        dict(seed=-1),
        dict(take_all="no"),
        dict(eps_values="0.2"),
        dict(p_values=("0.1",)),
        dict(delta="0.25"),
        dict(C=True),
    ):
        with pytest.raises(ParameterError):
            _config(**bad)
    with pytest.raises(ParameterError):
        SourceSpec(kind="uniform", n=True)
    with pytest.raises(ParameterError):
        SourceSpec(kind="file", path=5)
    assert _config(trials=10**6 - 1, seed=0, take_all=True).trials == 10**6 - 1


def test_config_cells_order():
    cfg = _config(
        property="relative", eps_values=(0.2, 0.3), p_values=(0.05, 0.1)
    )
    assert cfg.cells() == [
        (0.2, 0.05),
        (0.2, 0.1),
        (0.3, 0.05),
        (0.3, 0.1),
    ]
    assert _config(eps_values=(0.2, 0.3)).cells() == [(0.2, None), (0.3, None)]


def test_config_json_roundtrip(tmp_path):
    cfg = _config(property="relative", eps_values=(0.3,), p_values=(0.1,))
    doc = cfg.to_json_dict()
    assert doc["schema_version"] == 1
    assert ExperimentConfig.from_json_dict(doc) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert ExperimentConfig.from_json_path(str(path)) == cfg


def test_config_json_errors():
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json_dict({"family": "intervals"})
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json_dict([_config().to_json_dict()])
    for bad in (
        {"grid": {"eps": "0.2"}},
        {"grid": {"eps": [0.2], "p": "0.1"}},
        {"seed": 1.5},
        {"seed": -1},
        {"trials": True},
        {"trials": 10**6},
        {"take_all": "no"},
        {"schema_version": 2},
        {"schema_version": "1"},
    ):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_json_dict({**_config().to_json_dict(), **bad})
    doc = _config().to_json_dict()
    del doc["schema_version"]
    assert ExperimentConfig.from_json_dict(doc) == _config()
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json_dict(
            {
                "family": "intervals",
                "property": "approx",
                "source": {"kind": "uniform", "n": 5, "oops": 1},
                "grid": {"eps": [0.3]},
            }
        )


# ------------------------------------------------------------ ground sets


def test_generate_ground_set_kinds(tmp_path):
    uniform = generate_ground_set(SourceSpec(kind="uniform", n=30), 2, seed=1)
    assert uniform.coords.shape == (30, 2)
    again = generate_ground_set(SourceSpec(kind="uniform", n=30), 2, seed=1)
    assert np.array_equal(uniform.coords, again.coords)
    other = generate_ground_set(SourceSpec(kind="uniform", n=30), 2, seed=2)
    assert not np.array_equal(uniform.coords, other.coords)

    clusters = generate_ground_set(SourceSpec(kind="clusters", n=40), 1, seed=3)
    assert clusters.coords.shape == (40, 1)

    grid1 = generate_ground_set(SourceSpec(kind="grid", n=7), 1, seed=0)
    assert np.array_equal(grid1.coords[:, 0], np.linspace(0.0, 1.0, 7))
    grid2 = generate_ground_set(SourceSpec(kind="grid", n=10), 2, seed=0)
    assert grid2.coords.shape == (10, 2)
    assert len(np.unique(grid2.coords[:, 0])) <= 4  # ceil(sqrt(10)) axis values

    g = GroundSet(np.array([[0.5, 0.25], [0.75, 0.5]]))
    path = str(tmp_path / "pts.csv")
    write_points_csv(path, g)
    from_file = generate_ground_set(SourceSpec(kind="file", path=path), 2, seed=9)
    assert np.array_equal(from_file.coords, g.coords)


# ------------------------------------------------------------ experiments


def test_run_experiment_deterministic_bytes():
    cfg = _config(source=SourceSpec(kind="clusters", n=50), eps_values=(0.3, 0.45), trials=8, seed=2)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.to_json_bytes() == b.to_json_bytes()
    assert a.to_json_bytes().endswith(b"\n")
    # wall-clock noise stays out of the JSON payload entirely
    assert b"wall" not in a.to_json_bytes()
    assert len(a.wall_times_s) == len(a.cells) == 2


def test_run_experiment_cell_contents():
    cfg = _config(trials=6)
    res = run_experiment(cfg)
    cell = res.cells[0]
    assert cell["sample_size"] == size_eps_approx(0.3, 2, 0.25, 0.2)
    assert cell["trials"] == 6
    assert cell["failure_count"] == sum(
        0 if d["passed"] else 1 for d in cell["trial_details"]
    )
    assert cell["failure_rate"] == cell["failure_count"] / 6
    assert len(cell["trial_details"]) == 6
    assert [d["seed"] for d in cell["trial_details"]] == [
        trial_seed(cfg.seed, 0, t) for t in range(6)
    ]
    margins = [d["worst_margin"] for d in cell["trial_details"]]
    assert cell["mean_worst_margin"] == pytest.approx(float(np.mean(margins)))
    assert cell["max_worst_margin"] == max(margins)


@pytest.mark.parametrize("prop", list(PROPERTIES))
@pytest.mark.parametrize("fam_name,n", [("intervals", 80), ("halfplanes", 24)])
def test_run_cell_matches_verify_property(fam_name, n, prop):
    # trials keep only the margin; it must be the full report's
    fam = family(fam_name)
    outcomes = set()
    for C in (0.001, 0.02, 2.0):
        cfg = _config(family=fam_name, property=prop, source=SourceSpec(kind="uniform", n=n),
                      eps_values=(0.1, 0.3), p_values=(0.2,), trials=6, C=C)
        X = generate_ground_set(cfg.source, fam.ambient_dim, cfg.seed)
        engine = induced_ranges(fam, X)
        for cell_index, (eps, p) in enumerate(cfg.cells()):
            m = sample_size_for(prop, fam.vc_dimension, eps, p, cfg.delta, C)
            failures, details = _run_cell(cfg, X, engine, cell_index, eps, p, m, cfg.trials)
            assert failures == sum(not d["passed"] for d in details)
            for d in details:
                N = draw_sample(X, m, d["seed"])
                r = verify_property(prop, X, N, eps, p, fam_name, ranges=engine)
                assert (d["passed"], d["worst_margin"]) == (r.passed, r.worst_margin)
                assert type(d["worst_margin"]) is float
                outcomes.add(r.passed)
    assert outcomes == {True, False}  # passing and failing trials both compared


def test_run_experiment_take_all_never_fails():
    cfg = _config(take_all=True, eps_values=(0.05,), trials=4)
    res = run_experiment(cfg)
    cell = res.cells[0]
    assert cell["sample_size"] == 40  # the whole ground set
    assert cell["failure_count"] == 0


@pytest.mark.parametrize("prop", list(PROPERTIES))
@pytest.mark.parametrize("fam_name,n", [("intervals", 40), ("halfplanes", 20)])
def test_run_experiment_take_all_matches_verify_property(fam_name, n, prop):
    cfg = _config(family=fam_name, property=prop, source=SourceSpec(kind="uniform", n=n),
                  take_all=True, eps_values=(0.1, 0.3), p_values=(0.2,), trials=3)
    X = generate_ground_set(cfg.source, family(fam_name).ambient_dim, cfg.seed)
    N = Sample(indices=np.arange(n), m=n, seed=0, ground_size=n)
    for cell, (eps, p) in zip(run_experiment(cfg).cells, cfg.cells()):
        assert cell["sample_size"] == n
        want = verify_property(prop, X, N, eps, p, fam_name).worst_margin
        assert [d["worst_margin"] for d in cell["trial_details"]] == [want] * 3


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("prop", ["relative", "relative_sensitive"])
def test_run_experiment_interval_fast_path_bytes(prop, seed, monkeypatch):
    # trials take only the worst margin (no tie-break); the interval fast
    # path must give the margin kernel's experiment JSON byte for byte
    cfg = _config(property=prop, source=SourceSpec(kind="uniform", n=200), trials=6, seed=seed,
                  eps_values=(0.2, 0.4), p_values=(0.05, 0.3), C=0.002)
    fast = run_experiment(cfg).to_json_bytes()
    assert {d["passed"] for cell in json.loads(fast)["cells"] for d in cell["trial_details"]} == {
        True, False
    }
    monkeypatch.setitem(PROPERTIES, prop, dataclasses.replace(PROPERTIES[prop], interval_worst=None))
    assert run_experiment(cfg).to_json_bytes() == fast


def test_run_experiment_budget_error_marks_cells():
    cfg = _config(
        family="halfplanes",
        source=SourceSpec(kind="uniform", n=501),
        eps_values=(0.3, 0.4),
    )
    res = run_experiment(cfg)
    assert len(res.cells) == 2
    for cell in res.cells:
        assert "budget" in cell["error"]
        assert cell["failure_count"] is None
        assert cell["trial_details"] == []


def test_result_csv_shape(tmp_path):
    cfg = _config(trials=4, eps_values=(0.3, 0.5))
    res = run_experiment(cfg)
    text = res.to_csv_text()
    lines = text.splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "schema_version"
    assert "wall_time_s" in header and "failure_rate" in header
    json_path, csv_path = str(tmp_path / "r.json"), str(tmp_path / "r.csv")
    res.save_json(json_path)
    res.save_csv(csv_path)
    with open(json_path, "rb") as fh:
        assert fh.read() == res.to_json_bytes()
    doc = json.loads(res.to_json_bytes())
    assert doc["schema_version"] == 1
    assert doc["config"]["family"] == "intervals"


# ------------------------------------------------------------ calibration


def test_calibrate_on_grid_and_deterministic():
    cfg = ExperimentConfig(
        family="intervals",
        property="sensitive",
        source=SourceSpec(kind="uniform", n=40),
        eps_values=(0.3,),
        delta=0.25,
        trials=60,
        seed=4,
    )
    C = calibrate_constant(cfg, 0.1)
    assert C == 0.95  # doubling past 16 then bisection back down
    assert calibrate_constant(cfg, 0.1) == C
    assert round(C / 0.05) * 0.05 == pytest.approx(C)


def test_calibrate_returns_grid_floor_when_easy():
    cfg = ExperimentConfig(
        family="intervals",
        property="approx",
        source=SourceSpec(kind="uniform", n=40),
        eps_values=(0.4,),
        delta=0.25,
        trials=30,
        seed=5,
    )
    assert calibrate_constant(cfg, 0.25) == 0.05


def test_calibrate_ceiling_error():
    cfg = ExperimentConfig(
        family="intervals",
        property="net",
        source=SourceSpec(kind="uniform", n=60),
        eps_values=(0.3,),
        delta=0.25,
        trials=50,
        seed=11,
    )
    assert calibrate_constant(cfg, 0.02) == 0.1
    with pytest.raises(CalibrationError):
        calibrate_constant(cfg, 0.02, ceiling=0.05)


def test_calibrate_argument_errors():
    cfg = ExperimentConfig(
        family="intervals",
        property="net",
        source=SourceSpec(kind="uniform", n=60),
        eps_values=(0.3,),
        delta=0.25,
        trials=50,
        seed=11,
    )
    # a ceiling below the resolution would probe C above it; min_trials of
    # 10**6 or more would reuse trial seeds across cells
    for kwargs in [
        dict(ceiling=0.01),
        dict(ceiling=math.inf),
        dict(ceiling=math.nan),
        dict(resolution=0.0),
        dict(resolution=-0.05),
        dict(resolution=math.inf),
        dict(resolution=math.nan),
        dict(resolution="0.05"),
        dict(min_trials=0),
        dict(min_trials=10**6),
        dict(min_trials=200.0),
        dict(min_trials=True),
    ]:
        with pytest.raises(ParameterError):
            calibrate_constant(cfg, 0.02, **kwargs)


def test_calibrate_respects_tighter_target():
    cfg = ExperimentConfig(
        family="intervals",
        property="sensitive",
        source=SourceSpec(kind="uniform", n=40),
        eps_values=(0.3,),
        delta=0.25,
        trials=60,
        seed=4,
    )
    loose = calibrate_constant(cfg, 0.2)
    tight = calibrate_constant(cfg, 0.05)
    assert tight >= loose


# ------------------------------------------------------------- size table


def test_size_table_structure():
    rows = size_table(["intervals", "disks"], {"eps": [0.2], "p": [0.1]})
    props = {r["property"] for r in rows}
    assert props == {"eps_net", "eps_approx", "sensitive", "relative", "relative_sensitive"}
    for r in rows:
        if r["property"] in ("relative", "relative_sensitive"):
            assert r["p"] == 0.1
            assert r["plain_p_approx_size"] is not None
        else:
            assert r["p"] is None
            assert r["plain_p_approx_size"] is None
    net_rows = {r["family"]: r for r in rows if r["property"] == "eps_net"}
    assert net_rows["intervals"]["size"] == size_eps_net(0.2, 2, 0.25)
    assert net_rows["disks"]["size"] == size_eps_net(0.2, 3, 0.25)


def test_size_table_gap_grows_as_p_shrinks():
    # the relative calculator scales like 1/p, a plain p-approximation like
    # 1/p^2, so the plain/relative ratio roughly doubles when p halves
    rows = size_table(["intervals"], {"eps": [0.3], "p": [0.01, 0.005]})
    ratio = {
        r["p"]: r["plain_p_approx_size"] / r["size"]
        for r in rows
        if r["property"] == "relative"
    }
    assert ratio[0.005] > ratio[0.01]
    assert ratio[0.005] / ratio[0.01] > 1.5


def test_size_table_skips_relative_without_p():
    rows = size_table(["intervals"], {"eps": [0.2]})
    assert {r["property"] for r in rows} == {"eps_net", "eps_approx", "sensitive"}


def test_size_table_csv_format():
    rows = size_table(["intervals"], {"eps": [0.2], "p": [0.1]})
    text = size_table_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "property,family,eps,p,delta,C,size,plain_p_approx_size"
    assert len(lines) == len(rows) + 1
    # empty cells for inapplicable columns, not the string None
    assert "None" not in text
