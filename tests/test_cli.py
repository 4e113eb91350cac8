"""CLI surface: subcommands, exit codes, stdout formats."""

import ast
import json
import os
import re
import shutil
import sys

import numpy as np
import pytest

import vcsample
from conftest import run_fresh
from vcsample.cli import main
from vcsample.harness import (
    ExperimentConfig, SourceSpec, run_experiment, sample_size_for, size_table_csv,
)
from vcsample.ranges import DEFAULT_BUDGET, FAMILIES, GroundSet, write_points_csv
from vcsample.sampling import Sample, write_sample_json
from vcsample.verify import _SPELLINGS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

@pytest.fixture
def points_1d(tmp_path):
    path = str(tmp_path / "points.csv")
    write_points_csv(path, GroundSet(np.arange(1.0, 11.0)))
    return path


def _draw(points, out, m=6, seed=7):
    assert main(["draw", "--points", points, "--m", str(m), "--seed", str(seed), "--out", out]) == 0


def _fixed_sample(indices, ground_size):
    idx = np.asarray(indices, dtype=np.int64)
    return Sample(indices=idx, m=len(idx), seed=0, ground_size=ground_size)


def _rejected(capsys, argv):
    """main(argv) exits 2 with one `error:` line and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


# every spelling the README promises
SPELLINGS = [
    ("net", "eps_net"), ("eps-net", "eps_net"), ("eps_net", "eps_net"),
    ("approx", "eps_approx"), ("eps-approx", "eps_approx"), ("eps_approx", "eps_approx"),
    ("sensitive", "sensitive"), ("relative", "relative"),
    ("relative-sensitive", "relative_sensitive"), ("relative_sensitive", "relative_sensitive"),
]


@pytest.mark.parametrize("spelling, canonical", SPELLINGS)
def test_property_spellings(spelling, canonical, points_1d, tmp_path, capsys):
    p = ["--p", "0.2"] if canonical.startswith("relative") else []
    assert main(["size", "--property", spelling, "--eps", "0.3", "--d", "2",
                 "--delta", "0.25", *p]) == 0
    expected = sample_size_for(canonical, 2, 0.3, 0.2 if p else None, 0.25, 1.0)
    assert capsys.readouterr().out == f"{expected}\n"
    sample = str(tmp_path / "s.json")
    write_sample_json(sample, _fixed_sample(np.arange(10), 10))
    assert main(["verify", "--property", spelling, "--points", points_1d, "--sample", sample,
                 "--family", "intervals", "--eps", "0.3", *p]) == 0
    assert json.loads(capsys.readouterr().out)["property"] == canonical


def test_readme_matches_registry():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    aliases = text[text.index("Property names accept aliases:"):]
    aliases = aliases[: aliases.index("\n\n")]
    listed = set(re.findall(r"`([a-z_-]+)`", aliases))
    assert listed == set(_SPELLINGS)
    assert listed == {s for s, _ in SPELLINGS}
    rows = re.findall(r"^\| `(\w+)` +\| (\d+) +\| (\d+) +\| (\d+) +\|$", text, re.M)
    assert {name: tuple(map(int, nums)) for name, *nums in rows} == {
        fam.name: (fam.ambient_dim, fam.vc_dimension, DEFAULT_BUDGET.limit_for(fam))
        for fam in FAMILIES.values()
    }


# ---------------------------------------------------------------- size


def test_size_net(capsys):
    assert main(["size", "--property", "net", "--eps", "0.1", "--d", "2", "--delta", "0.25"]) == 0
    assert capsys.readouterr().out == "959\n"


def test_size_relative_needs_p(capsys):
    code = main(["size", "--property", "relative", "--eps", "0.3", "--d", "2", "--delta", "0.1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert main(["size", "--property", "relative", "--eps", "0.3", "--p", "0.05",
                 "--d", "2", "--delta", "0.1"]) == 0
    assert capsys.readouterr().out == "348493\n"


def test_size_constant_scales(capsys):
    main(["size", "--property", "approx", "--eps", "0.1", "--d", "2", "--delta", "0.1", "--C", "0.5"])
    half = int(capsys.readouterr().out)
    main(["size", "--property", "approx", "--eps", "0.1", "--d", "2", "--delta", "0.1"])
    full = int(capsys.readouterr().out)
    assert half == (full + 1) // 2


# ---------------------------------------------------------------- draw


def test_draw_writes_sample(points_1d, tmp_path, capsys):
    out = str(tmp_path / "sample.json")
    _draw(points_1d, out)
    msg = capsys.readouterr().out
    assert "drew 6 of 10 points (seed 7)" in msg
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["m"] == 6 and doc["n_points"] == 10
    assert len(doc["indices"]) == 6
    assert len(doc["points"]) == 6  # coordinates embedded for later queries
    out2 = str(tmp_path / "sample2.json")
    _draw(points_1d, out2)
    with open(out2) as fh:
        assert json.load(fh)["indices"] == doc["indices"]


def test_draw_missing_points_file(points_1d, tmp_path, capsys):
    out = str(tmp_path / "s.json")
    assert main(["draw", "--points", str(tmp_path / "nope.csv"), "--m", "3",
                 "--seed", "1", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    # bad --m or --seed: exit 2 with one error line, not NumPy's ValueError
    for m, seed in [("3", "-1"), ("0", "1")]:
        _rejected(capsys, ["draw", "--points", points_1d, "--m", m, "--seed", seed,
                           "--out", out])


# ---------------------------------------------------------------- verify


def test_verify_failing_net(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    write_sample_json(sample, _fixed_sample([2, 7], 10))
    code = main(["verify", "--property", "net", "--points", points_1d,
                 "--sample", sample, "--family", "intervals", "--eps", "0.4"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["property"] == "eps_net"
    assert report["worst_range"]["members"] == [3, 4, 5, 6]
    assert report["ranges_checked"] == 56


def test_verify_passing_net(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    write_sample_json(sample, _fixed_sample([0, 2, 4, 6, 8], 10))
    code = main(["verify", "--property", "net", "--points", points_1d,
                 "--sample", sample, "--family", "intervals", "--eps", "0.4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_relative_needs_p(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    write_sample_json(sample, _fixed_sample(np.arange(10), 10))
    assert main(["verify", "--property", "relative", "--points", points_1d,
                 "--sample", sample, "--family", "intervals", "--eps", "0.3"]) == 2
    capsys.readouterr()
    assert main(["verify", "--property", "relative", "--points", points_1d,
                 "--sample", sample, "--family", "intervals", "--eps", "0.3",
                 "--p", "0.2"]) == 0


def test_verify_missing_eps(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    write_sample_json(sample, _fixed_sample(np.arange(10), 10))
    assert main(["verify", "--property", "approx", "--points", points_1d,
                 "--sample", sample, "--family", "intervals"]) == 2
    assert "--eps" in capsys.readouterr().err


def test_verify_budget_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(0)
    points = str(tmp_path / "p.csv")
    write_points_csv(points, GroundSet(rng.random((81, 2))))
    sample = str(tmp_path / "s.json")
    write_sample_json(sample, _fixed_sample(np.arange(81), 81))
    code = main(["verify", "--property", "approx", "--points", points,
                 "--sample", sample, "--family", "rectangles", "--eps", "0.3"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_verify_disks_extreme_coordinates(tmp_path, capsys):
    # squared spans overflow float64; the disk enumerator refuses the input
    points = str(tmp_path / "p.csv")
    write_points_csv(points, GroundSet(np.array([[-1.5e308, 0.0], [1.5e308, 1.0]])))
    sample = str(tmp_path / "s.json")
    write_sample_json(sample, _fixed_sample([0, 1], 2))
    err = _rejected(capsys, ["verify", "--property", "approx", "--points", points,
                             "--sample", sample, "--family", "disks", "--eps", "0.3"])
    assert "1e154" in err
    # halfplanes refuse max|x| + max|y| beyond float64, where a*x + b*y can overflow
    write_points_csv(points, GroundSet(np.array([[1.5e308, 0.0], [0.0, 1.5e308]])))
    err = _rejected(capsys, ["verify", "--property", "approx", "--points", points,
                             "--sample", sample, "--family", "halfplanes", "--eps", "0.3"])
    assert "1.8e308" in err


# ---------------------------------------------------------------- query


def test_query_with_drawn_sample(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    _draw(points_1d, sample, m=8, seed=3)
    capsys.readouterr()
    code = main(["query", "--points-size", "10", "--sample", sample,
                 "--family", "intervals", "--range", "2.5,7.5",
                 "--guarantee", "approx:0.2:0.1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["guarantee"] == "approx"
    with open(sample) as fh:
        pts = [row[0] for row in json.load(fh)["points"]]
    inside = sum(1 for x in pts if 2.5 <= x <= 7.5)
    assert doc["estimate"] == pytest.approx(inside / 8 * 10)
    assert doc["additive_error_bound"] == pytest.approx(0.2 * 10)
    assert doc["confidence"] == pytest.approx(0.9)


def test_query_guarantee_string_errors(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    _draw(points_1d, sample)
    capsys.readouterr()
    base = ["query", "--points-size", "10", "--sample", sample,
            "--family", "intervals", "--range", "2.5,7.5"]
    assert main(base + ["--guarantee", "relative:0.3"]) == 2  # missing p
    assert main(base + ["--guarantee", "uniform:0.3"]) == 2
    assert main(base + ["--guarantee", "approx:lots"]) == 2
    assert main(base + ["--guarantee", "approx:0.1:0.2:0.3"]) == 2
    assert main(base + ["--guarantee", "none"]) == 0


def test_query_malformed_range(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    _draw(points_1d, sample)
    capsys.readouterr()
    assert main(["query", "--points-size", "10", "--sample", sample,
                 "--family", "intervals", "--range", "low,high",
                 "--guarantee", "none"]) == 2


def test_query_needs_embedded_points(tmp_path, capsys):
    sample = str(tmp_path / "bare.json")
    write_sample_json(sample, _fixed_sample(np.arange(4), 10))
    assert main(["query", "--points-size", "10", "--sample", sample,
                 "--family", "intervals", "--range", "0,1",
                 "--guarantee", "none"]) == 2
    assert "embedded" in capsys.readouterr().err


def test_query_points_size_defaults_to_sample(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    _draw(points_1d, sample, m=8, seed=3)
    capsys.readouterr()
    query = ["query", "--sample", sample, "--family", "intervals",
             "--range", "2.5,7.5", "--guarantee", "approx:0.2"]
    assert main(query) == 0
    implicit = json.loads(capsys.readouterr().out)
    assert main(query + ["--points-size", "10"]) == 0
    assert json.loads(capsys.readouterr().out) == implicit
    assert implicit["additive_error_bound"] == pytest.approx(0.2 * 10)
    assert "n_points 10" in _rejected(capsys, query + ["--points-size", "5"])


def test_malformed_sample_files(points_1d, tmp_path, capsys):
    sample = str(tmp_path / "s.json")
    _draw(points_1d, sample)
    capsys.readouterr()
    with open(sample) as fh:
        good = json.load(fh)
    for bad in (
        [good],
        {**good, "indices": [0.5] * good["m"]},
        {**good, "schema_version": 2},
        {**good, "points": "none"},
    ):
        with open(sample, "w") as fh:
            json.dump(bad, fh)
        _rejected(capsys, ["query", "--points-size", "10", "--sample", sample,
                           "--family", "intervals", "--range", "2.5,7.5", "--guarantee", "none"])
        _rejected(capsys, ["verify", "--property", "approx", "--points", points_1d,
                           "--sample", sample, "--family", "intervals", "--eps", "0.3"])


# ------------------------------------------------------------ experiment


def _write_config(tmp_path):
    cfg = ExperimentConfig(
        family="intervals",
        property="approx",
        source=SourceSpec(kind="uniform", n=40),
        eps_values=(0.3,),
        delta=0.25,
        trials=5,
        seed=3,
        C=0.2,
    )
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg.to_json_dict(), fh)
    return cfg, path


def test_experiment_stdout_matches_library(tmp_path, capsysbinary):
    cfg, path = _write_config(tmp_path)
    out = str(tmp_path / "res.json")
    csv = str(tmp_path / "res.csv")
    assert main(["experiment", "--config", path, "--out", out, "--csv", csv]) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout == run_experiment(cfg).to_json_bytes()
    with open(out, "rb") as fh:
        assert fh.read() == stdout
    with open(csv) as fh:
        assert fh.readline().startswith("schema_version,")


def test_experiment_bad_config(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert main(["experiment", "--config", path]) == 2
    assert main(["experiment", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    _, good_path = _write_config(tmp_path)
    with open(good_path) as fh:
        good = json.load(fh)
    for bad in (
        [good],
        {**good, "grid": {"eps": "0.2"}},
        {**good, "seed": 1.5},
        {**good, "seed": -1},
        {**good, "trials": True},
        {**good, "trials": 10**6},
        {**good, "take_all": "no"},
        {**good, "source": {"kind": "uniform", "n": True}},
        {**good, "schema_version": 2},
    ):
        with open(path, "w") as fh:
            json.dump(bad, fh)
        _rejected(capsys, ["experiment", "--config", path])
        _rejected(capsys, ["calibrate", "--config", path, "--target-delta", "0.25"])


# ------------------------------------------------------------- calibrate


def test_calibrate_prints_constant(tmp_path, capsys):
    cfg = ExperimentConfig(
        family="intervals",
        property="approx",
        source=SourceSpec(kind="uniform", n=40),
        eps_values=(0.4,),
        delta=0.25,
        trials=30,
        seed=5,
    )
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg.to_json_dict(), fh)
    assert main(["calibrate", "--config", path, "--target-delta", "0.25"]) == 0
    assert capsys.readouterr().out == "0.05\n"


# ------------------------------------------------------------ packaging


SIZE_APPROX = ["size", "--property", "approx", "--eps", "0.1", "--d", "2", "--delta", "0.25"]
SIZE_RELATIVE_NO_P = ["size", "--property", "relative", "--eps", "0.3", "--d", "2", "--delta", "0.1"]


def _pyproject_project():
    """The [project] table of this checkout's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]


def _declared_console_script(name):
    """The ``module:attr`` target that pyproject.toml's [project.scripts] gives ``name``."""
    return _pyproject_project()["scripts"][name]


def test_imports_are_declared_and_scipy_free():
    """Importing the package and its CLI pulls in no SciPy, and every
    third-party top-level import in the package is a declared dependency."""
    proc = run_fresh([sys.executable, "-c",
                      "import sys, vcsample, vcsample.cli; print('scipy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_")
                for d in _pyproject_project()["dependencies"]}
    package = os.path.dirname(os.path.abspath(vcsample.__file__))
    imported = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"vcsample"}
    assert "numpy" in third_party
    assert third_party <= declared


def test_module_entry_point():
    for module in ("vcsample", "vcsample.cli"):
        proc = run_fresh([sys.executable, "-m", module, "size", "--property", "net",
                          "--eps", "0.1", "--d", "2", "--delta", "0.25"])
        assert proc.returncode == 0, module
        assert proc.stdout == "959\n"
        proc = run_fresh([sys.executable, "-m", module, *SIZE_RELATIVE_NO_P])
        assert proc.returncode == 2, module
        assert "error:" in proc.stderr


def test_console_script():
    """The declared ``vcsample`` script, run as the wrapper pip generates for it.

    An installed wrapper imports the ``[project.scripts]`` target, calls it
    with no arguments (so it parses ``sys.argv``) and exits with its return
    value. The child below does the same from the declaration itself, so no
    install is needed; a ``vcsample`` binary on ``PATH`` is run as well.
    """
    target = _declared_console_script("vcsample")
    assert target == "vcsample.cli:main"
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.exit(EntryPoint(name='vcsample', value={target!r}, group='console_scripts').load()())\n"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("vcsample")
    if installed is not None:
        commands.append([installed])
    for cmd in commands:
        proc = run_fresh([*cmd, *SIZE_APPROX])
        assert proc.returncode == 0, cmd
        assert proc.stdout == "26617\n"
        proc = run_fresh([*cmd, *SIZE_RELATIVE_NO_P])
        assert proc.returncode == 2, cmd
        assert "error:" in proc.stderr


def test_scripts_run_from_checkout(tmp_path):
    """Both scripts under scripts/ run in a fresh interpreter: the size table
    has `size_table_csv`'s header, and the demo's JSON is byte-identical
    across two runs with the same seed."""
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    proc = run_fresh([sys.executable, os.path.join(scripts, "make_size_table.py")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == size_table_csv([]).splitlines()[0]
    payloads = []
    for run in range(2):
        out = tmp_path / f"demo{run}.json"
        proc = run_fresh([sys.executable, os.path.join(scripts, "run_experiment_demo.py"),
                          "--n", "200", "--trials", "5", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
