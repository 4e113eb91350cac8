"""Acceptance gate.

One test per criterion. Each prints a single ACCEPTANCE line with PASS or
FAIL and the measured numbers before asserting, so the tee'd pytest output
doubles as the acceptance report.
"""

import json
import math
import time

import numpy as np
import pytest

from vcsample.cli import main as cli_main
from vcsample.harness import (
    ExperimentConfig,
    SourceSpec,
    calibrate_constant,
    generate_ground_set,
    run_experiment,
    sample_size_for,
    size_table,
    trial_seed,
)
from vcsample.ranges import GroundSet, family, induced_ranges, sauer_shelah_bound
from vcsample.sampling import (
    Sample,
    draw_sample,
    size_eps_approx,
    size_eps_net,
    size_sensitive,
)
from vcsample.verify import (
    check_sensitive_implies_net_approx,
    check_sensitive_implies_relative,
    verify_eps_approx,
    verify_eps_net,
    verify_relative,
    verify_relative_sensitive,
    verify_sensitive,
)

from oracles import SUBSET_ORACLES

pytestmark = pytest.mark.acceptance

FAMS = ["disks", "halfplanes", "intervals", "rectangles"]


def _report(num, slug, ok, detail):
    print(f"ACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _three_sigma_bound(delta, trials):
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


def _take_all(n):
    return Sample(indices=np.arange(n), m=n, seed=0, ground_size=n)


def test_criterion_1_enumerator_matches_oracle():
    t0 = time.perf_counter()
    bad = []
    for fi, fname in enumerate(FAMS):
        fam = family(fname)
        for trial in range(50):
            rng = np.random.default_rng(90000 + 1000 * fi + 97 * trial)
            n = int(rng.integers(3, 13))
            coords = (
                rng.random((n, fam.ambient_dim))
                if fam.ambient_dim == 2
                else rng.random(n)
            )
            rs = induced_ranges(fam, GroundSet(coords))
            got = rs.member_sets()
            want = SUBSET_ORACLES[fname](
                coords if coords.ndim == 2 else coords.reshape(-1, 1)
            )
            if got != want or len(got) > sauer_shelah_bound(n, fam.vc_dimension):
                bad.append((fname, trial, n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    assert _report(
        1,
        "enumerator-oracle-equivalence",
        ok,
        f"200 ground sets, {len(bad)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_take_all_passes_every_verifier():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    for i in range(20):
        fname = FAMS[i % 4]
        fam = family(fname)
        hi = 31 if fname == "rectangles" else 41
        n = int(rng.integers(10, hi))
        coords = (
            rng.random((n, fam.ambient_dim))
            if fam.ambient_dim == 2
            else rng.random(n)
        )
        X = GroundSet(coords)
        N = _take_all(n)
        eps = float(rng.uniform(0.1, 0.6))
        p = float(rng.uniform(0.05, 0.3))
        rs = induced_ranges(fam, X)
        verdicts = [
            verify_eps_net(X, N, eps, fam, ranges=rs).passed,
            verify_eps_approx(X, N, eps, fam, ranges=rs).passed,
            verify_sensitive(X, N, eps, fam, ranges=rs).passed,
            verify_relative(X, N, p, eps, fam, ranges=rs).passed,
            verify_relative_sensitive(X, N, p, eps, fam, ranges=rs).passed,
        ]
        if not all(verdicts):
            failures.append((fname, n, eps, p, verdicts))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    assert _report(
        2,
        "take-all-sanity",
        ok,
        f"20 configs x 5 verifiers, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_3_eps_net_guarantee():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family="intervals",
        property="net",
        source=SourceSpec(kind="uniform", n=2000),
        eps_values=(0.05, 0.1),
        delta=0.25,
        trials=400,
        seed=31,
    )
    C = calibrate_constant(cfg, cfg.delta)
    res = run_experiment(ExperimentConfig(**{**cfg.__dict__, "C": C}))
    bound = _three_sigma_bound(cfg.delta, cfg.trials)
    rates = {cell["eps"]: cell["failure_rate"] for cell in res.cells}
    elapsed = time.perf_counter() - t0
    ok = all(rate <= bound for rate in rates.values()) and elapsed < 300.0
    assert _report(
        3,
        "eps-net-failure-rate",
        ok,
        f"C={C}, rates {rates}, bound {bound:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_eps_approx_guarantee():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family="intervals",
        property="approx",
        source=SourceSpec(kind="uniform", n=1000),
        eps_values=(0.1,),
        delta=0.25,
        trials=400,
        seed=41,
    )
    C = calibrate_constant(cfg, cfg.delta)
    res = run_experiment(ExperimentConfig(**{**cfg.__dict__, "C": C}))
    bound = _three_sigma_bound(cfg.delta, cfg.trials)
    rate = res.cells[0]["failure_rate"]
    elapsed = time.perf_counter() - t0
    ok = rate <= bound and elapsed < 600.0
    assert _report(
        4,
        "eps-approx-failure-rate",
        ok,
        f"C={C}, rate {rate:.4f}, bound {bound:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_sensitive_guarantee_and_implications():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family="intervals",
        property="sensitive",
        source=SourceSpec(kind="uniform", n=500),
        eps_values=(0.3,),
        delta=0.25,
        trials=200,
        seed=51,
    )
    C = calibrate_constant(cfg, cfg.delta)
    fam = family(cfg.family)
    X = generate_ground_set(cfg.source, fam.ambient_dim, cfg.seed)
    rs = induced_ranges(fam, X)
    eps = cfg.eps_values[0]
    m = sample_size_for(cfg.property, fam.vc_dimension, eps, None, cfg.delta, C)
    failures = 0
    exceptions = 0
    for t in range(cfg.trials):
        N = draw_sample(X, m, trial_seed(cfg.seed, 0, t))
        if not verify_sensitive(X, N, eps, fam, ranges=rs).passed:
            failures += 1
            continue
        # a sensitive eps-approximation must also be an eps^2-net and a
        # plain eps-approximation; count every passing trial that is not
        if not check_sensitive_implies_net_approx(X, N, eps, fam, ranges=rs):
            exceptions += 1
    rate = failures / cfg.trials
    bound = _three_sigma_bound(cfg.delta, cfg.trials)
    elapsed = time.perf_counter() - t0
    ok = rate <= bound and exceptions == 0
    assert _report(
        5,
        "sensitive-rate-and-implications",
        ok,
        f"C={C}, m={m}, rate {rate:.4f} vs {bound:.4f}, "
        f"{exceptions} implication exceptions, {elapsed:.1f}s",
    )


def test_criterion_6_relative_guarantee_and_sensitive_relative():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family="intervals",
        property="relative",
        source=SourceSpec(kind="uniform", n=2000),
        eps_values=(0.3,),
        p_values=(0.05,),
        delta=0.25,
        trials=200,
        seed=61,
    )
    fam = family(cfg.family)
    X = generate_ground_set(cfg.source, fam.ambient_dim, cfg.seed)
    rs = induced_ranges(fam, X)
    eps, p = cfg.eps_values[0], cfg.p_values[0]
    m = sample_size_for(cfg.property, fam.vc_dimension, eps, p, cfg.delta, cfg.C)
    failures = 0
    relsens_passes = 0
    exceptions = 0
    for t in range(cfg.trials):
        N = draw_sample(X, m, trial_seed(cfg.seed, 0, t))
        rel = verify_relative(X, N, p, eps, fam, ranges=rs)
        if not rel.passed:
            failures += 1
        if verify_relative_sensitive(X, N, p, eps, fam, ranges=rs).passed:
            relsens_passes += 1
            if not rel.passed:
                exceptions += 1
    rate = failures / cfg.trials
    bound = _three_sigma_bound(cfg.delta, cfg.trials)
    elapsed = time.perf_counter() - t0
    ok = rate <= bound and exceptions == 0
    assert _report(
        6,
        "relative-rate-and-implication",
        ok,
        f"m={m}, rate {rate:.4f} vs {bound:.4f}, "
        f"{relsens_passes} relsens passes, {exceptions} exceptions, {elapsed:.1f}s",
    )


def test_criterion_7_sensitive_implies_relative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    p_grid = [0.05, 0.1, 0.2]
    eps_grid = [0.2, 0.3]
    true_count = 0
    non_vacuous = 0
    for i in range(100):
        fam = family(["intervals", "halfplanes"][i % 2])
        p = p_grid[i % 3]
        eps = eps_grid[(i // 2) % 2]
        n = int(rng.integers(30, 61))
        coords = (
            rng.random((n, fam.ambient_dim))
            if fam.ambient_dim == 2
            else rng.random(n)
        )
        X = GroundSet(coords)
        rs = induced_ranges(fam, X)
        eps_prime = eps * math.sqrt(p)
        m = size_sensitive(eps_prime, fam.vc_dimension, 0.25, 1.0)
        N = draw_sample(X, m, int(rng.integers(0, 2**31)))
        if verify_sensitive(X, N, eps_prime, fam, ranges=rs).passed:
            non_vacuous += 1
        true_count += check_sensitive_implies_relative(X, N, p, eps, fam, ranges=rs)
    elapsed = time.perf_counter() - t0
    ok = true_count == 100 and non_vacuous > 0
    assert _report(
        7,
        "sensitive-implies-relative",
        ok,
        f"{true_count}/100 true, {non_vacuous} non-vacuous, {elapsed:.1f}s",
    )


def test_criterion_8_size_regression_and_gap():
    values = (
        size_eps_net(0.1, 2, 0.25),
        size_eps_approx(0.1, 2, 0.25),
        size_sensitive(0.2, 2, 0.25),
    )
    sizes_ok = values == (959, 26617, 363)
    rows = size_table(["intervals"], {"eps": [0.3], "p": [0.01, 0.005]})
    ratio = {
        r["p"]: r["plain_p_approx_size"] / r["size"]
        for r in rows
        if r["property"] == "relative"
    }
    # relative scales like 1/p, a plain p-approximation like 1/p^2: the
    # plain/relative ratio must grow roughly linearly in 1/p
    gap_ok = ratio[0.005] > ratio[0.01] and ratio[0.005] / ratio[0.01] > 1.5
    ok = sizes_ok and gap_ok
    assert _report(
        8,
        "size-formula-regression",
        ok,
        f"sizes {values}, plain/relative ratios "
        f"{ {p: round(v, 2) for p, v in ratio.items()} }",
    )


def test_criterion_9_experiment_determinism(tmp_path, capsysbinary):
    cfg = ExperimentConfig(
        family="intervals",
        property="approx",
        source=SourceSpec(kind="clusters", n=50),
        eps_values=(0.3, 0.45),
        delta=0.25,
        trials=8,
        seed=2,
        C=0.2,
    )
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg.to_json_dict(), fh)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli_main(["experiment", "--config", cfg_path, "--out", out1]) == 0
    assert cli_main(["experiment", "--config", cfg_path, "--out", out2]) == 0
    capsysbinary.readouterr()  # drop the payloads echoed to stdout
    with open(out1, "rb") as fh:
        payload1 = fh.read()
    with open(out2, "rb") as fh:
        payload2 = fh.read()
    identical = payload1 == payload2
    in_process = payload1 == run_experiment(cfg).to_json_bytes()
    ok = identical and in_process
    assert _report(
        9,
        "experiment-byte-determinism",
        ok,
        f"{len(payload1)} bytes, rerun identical={identical}, "
        f"library match={in_process}",
    )
