"""End-to-end acceptance checks on the frozen benchmark fixtures.

Each test prints one verdict line (also replayed in the terminal summary)
and then asserts it, so a red criterion is visible both ways. The seeds
and sample sizes are fixed; the tolerance bands absorb the residual
stochasticity of the underlying Monte Carlo measurements.
"""

import json
import math
import time

import numpy as np
import pytest

from robustcausal.cli import main as cli_main
from robustcausal.ensemble import EnsembleConfig, analyze_ensemble
from robustcausal.estimators import BinningSpec, transfer_entropy
from robustcausal.evaluation import (
    bin_sensitivity_scan,
    ensemble_error_binomial,
    monte_carlo_rates,
)
from robustcausal.granger import GrangerConfig, granger_test
from robustcausal.graph import CausalLink, LaggedCausalGraph, export_graph, import_graph
from robustcausal.significance import SurrogateConfig, te_link_test
from robustcausal.synthetic import SystemSpec, generate
from robustcausal.timeseries import Dataset, TimeSeries

N_NULL_RUNS = 20
SYSTEM_B_SEED = 29
SYSTEM_C_SEED = 4
BIN_SCAN_SEED = 157


@pytest.fixture(scope="module")
def system_a_runs():
    """Twenty seeded full-pipeline runs on the no-coupling control system."""
    runs = []
    t0 = time.time()
    for seed in range(N_NULL_RUNS):
        d, _ = generate(SystemSpec(kind="A", length=1000, rng_seed=seed))
        runs.append(
            analyze_ensemble(
                d,
                EnsembleConfig(100, 200, rng_seed=seed, threshold=0.9),
                max_lag=4,
                test=SurrogateConfig(rng_seed=seed),
            )
        )
    per_run = (time.time() - t0) / N_NULL_RUNS
    return runs, per_run


def test_criterion_01_no_coupling_elimination(system_a_runs, acceptance_report):
    runs, per_run = system_a_runs
    with_links = sum(1 for r in runs if len(r.full_graph.links) >= 1)
    robust_empty = sum(1 for r in runs if len(r.robust.links) == 0)
    ok = with_links >= 10 and robust_empty >= 19 and per_run < 300.0
    acceptance_report(
        1,
        ok,
        f"full graph has links in {with_links}/20 runs (need >=10), robust empty "
        f"in {robust_empty}/20 (need >=19), {per_run:.1f} s/run (limit 300)",
    )
    assert ok


def test_criterion_02_spurious_link_frequency_bound(system_a_runs, acceptance_report):
    runs, _ = system_a_runs
    below = 0
    worst = 0.0
    for r in runs:
        counts = r.frequencies.counts
        top = max(counts.values()) / r.frequencies.n_subsamples if counts else 0.0
        worst = max(worst, top)
        below += top < 0.40
    ok = below >= 18
    acceptance_report(
        2,
        ok,
        f"every subsample fraction < 0.40 in {below}/20 runs (need >=18), "
        f"worst fraction {worst:.2f}",
    )
    assert ok


def test_criterion_03_linear_system_recovery(acceptance_report):
    d, truth = generate(SystemSpec(kind="B", length=1000, rng_seed=SYSTEM_B_SEED))
    res = analyze_ensemble(
        d,
        EnsembleConfig(100, 200, rng_seed=SYSTEM_B_SEED, threshold=0.9),
        max_lag=4,
        test=SurrogateConfig(rng_seed=SYSTEM_B_SEED),
    )
    strong = {("Z", "X", 1), ("X", "Y", 3), ("Y", "Z", 2), ("X", "W", 1)}
    allowed = set(truth.link_keys()) | set(truth.indirect_keys())
    robust = set(res.robust.link_keys())
    weak_fraction = res.frequencies.counts.get(("W", "Y", 2), 0) / res.frequencies.n_subsamples
    outside = (set(res.full_graph.link_keys()) | robust) - allowed
    ok = robust == strong and 0.50 < weak_fraction < 0.90 and not outside
    acceptance_report(
        3,
        ok,
        f"robust == strong four: {robust == strong}, weak-link fraction "
        f"{weak_fraction:.2f} in (0.50, 0.90), links outside truth: {sorted(outside)}",
    )
    assert ok


def test_criterion_04_small_sample_consistency(acceptance_report):
    d, truth = generate(SystemSpec(kind="C", length=1000, rng_seed=SYSTEM_C_SEED))
    start = int(
        np.random.default_rng([SYSTEM_C_SEED, 200]).integers(0, d.length - 200, endpoint=True)
    )
    sample = d.window(start, 200)
    res = analyze_ensemble(
        sample,
        EnsembleConfig(3, 100, rng_seed=SYSTEM_C_SEED, mode="fixed-overlap", threshold=1.0),
        max_lag=4,
        test=SurrogateConfig(rng_seed=SYSTEM_C_SEED),
    )
    robust = set(res.robust.link_keys())
    strong = {k for k in truth.link_keys() if k != ("W", "Y", 2)}
    allowed = set(truth.link_keys()) | {("Y", "X", 3)}
    ok = strong <= robust and ("W", "Y", 2) not in robust and robust <= allowed
    acceptance_report(
        4,
        ok,
        f"200-point window at offset {start}: strong links all kept: {strong <= robust}, "
        f"weak link dropped: {('W', 'Y', 2) not in robust}, "
        f"extras: {sorted(robust - allowed)}",
    )
    assert ok


def test_criterion_05_binomial_vote_error(acceptance_report):
    value = ensemble_error_binomial(0.1, 10, 9)
    exact = math.isclose(value, 9.1e-9, rel_tol=1e-12)
    grid = np.linspace(0.0, 1.0, 100)
    vals = [ensemble_error_binomial(e, 10, 9) for e in grid]
    monotone = all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    bounded = all(
        ensemble_error_binomial(e, 10, 9) <= e + 1e-15 for e in np.linspace(0.0, 0.8, 81)
    )
    ok = exact and monotone and bounded
    acceptance_report(
        5,
        ok,
        f"E(0.1, 10, 9) = {value!r} (target 9.1e-09), monotone on 100-point grid: "
        f"{monotone}, E <= e_s on [0, 0.8]: {bounded}",
    )
    assert ok


def test_criterion_06_error_rate_ordering(acceptance_report):
    ratios = [0.2, 0.3, 0.4, 0.5, 0.65]
    n = 1000
    confidence = 0.95
    curve = monte_carlo_rates(
        "bivariate-linear",
        [100, 1000],
        ratios,
        n,
        SurrogateConfig(rng_seed=2026, confidence=confidence),
    )

    def margin_ok(attr):
        details = []
        all_ok = True
        for r in ratios:
            short = getattr(curve.point(100, r), attr)
            long = getattr(curve.point(1000, r), attr)
            se = math.sqrt(short * (1 - short) / n + long * (1 - long) / n)
            passed = (short - long) > 3 * se
            all_ok &= passed
            details.append(f"{attr}@{r}: {short:.3f} vs {long:.3f} (3se={3 * se:.3f})")
        return all_ok, details

    fnr_ok, fnr_detail = margin_ok("fnr")

    # X is i.i.d. and Y depends only on X(t-1), so the lag-2 test is an exact
    # null: FPR estimates the test's size alpha at every length. It must stay
    # within criterion 8's bound and must not rise with more data.
    alpha = 1 - confidence
    size_bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / n)
    size_ok = True
    no_rise_ok = True
    fpr_detail = []
    for r in ratios:
        short = curve.point(100, r).fpr
        long = curve.point(1000, r).fpr
        se = math.sqrt(short * (1 - short) / n + long * (1 - long) / n)
        size_ok &= short <= size_bound and long <= size_bound
        no_rise_ok &= (long - short) <= 3 * se
        fpr_detail.append(
            f"fpr@{r}: {short:.3f} vs {long:.3f} (bound {size_bound:.4f}; "
            f"rise {long - short:+.3f}, 3se={3 * se:.3f})"
        )

    def monotone_ok(length):
        vals = [curve.point(length, r).fnr for r in ratios]
        inversions = sum(1 for a, b in zip(vals, vals[1:]) if b > a)
        return inversions <= 1 and vals[-1] < vals[0], vals

    mono_short, fnr_short = monotone_ok(100)
    mono_long, fnr_long = monotone_ok(1000)
    ok = fnr_ok and size_ok and no_rise_ok and mono_short and mono_long
    acceptance_report(
        6,
        ok,
        f"FNR margins: {fnr_ok}, FPR within size bound: {size_ok}, "
        f"FPR no rise with length: {no_rise_ok} ({'; '.join(fpr_detail)}), "
        f"FNR decreasing at 100: {mono_short} {np.round(fnr_short, 3).tolist()}, "
        f"at 1000: {mono_long} {np.round(fnr_long, 3).tolist()}",
    )
    assert ok, f"per-ratio rates: {fnr_detail}; {fpr_detail}"


def _brute_cmi(a, b, c, m):
    p = np.zeros((m, m, m))
    for ai, bi, ci in zip(a, b, c):
        p[ai, bi, ci] += 1.0
    p /= p.sum()
    p_b = p.sum(axis=(0, 2))
    p_ab = p.sum(axis=2)
    p_bc = p.sum(axis=0)
    total = 0.0
    for idx in np.argwhere(p > 0):
        ai, bi, ci = idx
        q = p[ai, bi, ci]
        total += q * math.log2(q * p_b[bi] / (p_ab[ai, bi] * p_bc[bi, ci]))
    return total


def test_criterion_07_estimator_equals_brute_force(acceptance_report):
    rng = np.random.default_rng(707)
    checked = 0
    worst = 0.0
    while checked < 200:
        l = int(rng.integers(10, 51))
        m = int(rng.integers(2, 5))
        lag = int(rng.integers(1, 4))
        x = TimeSeries("x", rng.integers(0, m, size=l).astype(float))
        y = TimeSeries("y", rng.integers(0, m, size=l).astype(float))
        if np.ptp(x.values) == 0 or np.ptp(y.values) == 0:
            continue
        spec = BinningSpec.from_dataset(Dataset((x, y)), bin_count=m)
        cx, cy = spec.digitize(x), spec.digitize(y)
        keep = l - lag
        want = _brute_cmi(cx[:keep], cy[:keep], cy[lag:], m)
        got = transfer_entropy(x, y, lag, spec)
        worst = max(worst, abs(got - want))
        checked += 1
    ok = worst <= 1e-12
    acceptance_report(
        7, ok, f"200 random instances, worst |TE - brute CMI| = {worst:.2e} (limit 1e-12)"
    )
    assert ok


def test_criterion_08_surrogate_test_calibration(acceptance_report):
    hits = 0
    n = 1000
    for trial in range(n):
        rng = np.random.default_rng([4242, trial])
        x = TimeSeries("x", rng.normal(size=1000))
        y = TimeSeries("y", rng.normal(size=1000))
        spec = BinningSpec.from_dataset(Dataset((x, y)))
        hits += te_link_test(x, y, 1, spec, SurrogateConfig(rng_seed=trial)).link
    rate = hits / n
    bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / n)
    ok = rate <= bound
    acceptance_report(
        8, ok, f"null link rate {rate:.3f} over {n} trials (bound {bound:.4f})"
    )
    assert ok


def test_criterion_09_regression_test_calibration(acceptance_report):
    hits = 0
    n = 1000
    for trial in range(n):
        rng = np.random.default_rng([5353, trial])
        x = TimeSeries("x", rng.normal(size=500))
        y = TimeSeries("y", rng.normal(size=500))
        hits += granger_test(x, y, 1, GrangerConfig()).link
    rate = hits / n
    half_band = 3 * math.sqrt(0.05 * 0.95 / n)
    calibrated = abs(rate - 0.05) <= half_band

    d, _ = generate(SystemSpec(kind="B", length=1000, rng_seed=SYSTEM_B_SEED))
    res = granger_test(d.get("X"), d.get("W"), 1, GrangerConfig())
    found = res.p_value < 0.05
    ok = calibrated and found
    acceptance_report(
        9,
        ok,
        f"null rate {rate:.3f} within 0.05 +/- {half_band:.4f}: {calibrated}; "
        f"lag-1 coupling on the 900-point linear system: p = {res.p_value:.1e}",
    )
    assert ok


def test_criterion_10_bin_count_stability(acceptance_report):
    d, _ = generate(SystemSpec(kind="C", length=1000, rng_seed=BIN_SCAN_SEED))
    center = BinningSpec.from_dataset(d).bin_count
    report = bin_sensitivity_scan(
        d, center, 2, max_lag=4, surrogate=SurrogateConfig(rng_seed=5157)
    )
    center_ok = 19 <= center <= 21
    stable = report.stable()
    ok = center_ok and stable
    acceptance_report(
        10,
        ok,
        f"900-point sample, Scott center {center} (expected 20 +/- 1), link-set "
        f"Jaccard across bins {sorted(report.jaccard)}: "
        f"{[report.jaccard[m] for m in sorted(report.jaccard)]}",
    )
    assert ok


def test_criterion_11_round_trip_and_determinism(acceptance_report, tmp_path):
    rng = np.random.default_rng(1111)
    lossless = 0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        names = tuple(f"V{i}" for i in range(k))
        max_lag = int(rng.integers(1, 7))
        n_links = int(rng.integers(0, min(10, k * (k - 1) * max_lag) + 1))
        keys = set()
        while len(keys) < n_links:
            s, t = rng.choice(k, size=2, replace=False)
            keys.add((names[s], names[t], int(rng.integers(1, max_lag + 1))))
        links = tuple(
            CausalLink(s, t, lag, float(rng.normal() * 10.0 ** rng.integers(-12, 4)),
                       bool(rng.integers(0, 2)))
            for s, t, lag in sorted(keys)
        )
        g = LaggedCausalGraph(names, links, max_lag, "te" if rng.integers(2) else "gc")
        back = import_graph(export_graph(g, "json"))
        lossless += (
            back.variables == g.variables
            and back.max_lag == g.max_lag
            and back.method == g.method
            and back.links == g.links
        )

    # identical manifests require identical configured paths, so rerun the
    # exact same commands in place and snapshot all bytes between runs
    tracked = ("data/data.csv", "data/manifest.json", "run/graph.json",
               "run/frequencies.csv", "run/robust_graph.json", "run/manifest.json")

    def run_and_snapshot():
        rc = cli_main([
            "generate", "--system", "B", "--length", "500", "--seed", "17",
            "--out", str(tmp_path / "data"),
        ])
        assert rc == 0
        rc = cli_main([
            "analyze", "--input", str(tmp_path / "data" / "data.csv"), "--max-lag", "3",
            "--surrogates", "50", "--subsamples", "10", "--sub-length", "150",
            "--seed", "17", "--out", str(tmp_path / "run"),
        ])
        assert rc == 0
        return {rel: (tmp_path / rel).read_bytes() for rel in tracked}

    first = run_and_snapshot()
    second = run_and_snapshot()
    assert first["data/manifest.json"] == second["data/manifest.json"]
    assert first["run/manifest.json"] == second["run/manifest.json"]
    identical = first == second
    ok = lossless == 100 and identical
    acceptance_report(
        11,
        ok,
        f"{lossless}/100 graphs round-trip lossless; reruns with identical "
        f"manifests byte-identical: {identical}",
    )
    assert ok
