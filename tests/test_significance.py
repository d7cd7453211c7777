import functools
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special, stats

from robustcausal import _critical, estimators, significance
from robustcausal._critical import t_bracket, t_exceeds
from robustcausal.ensemble import EnsembleConfig, analyze_ensemble
from robustcausal.errors import InvalidConfig, LagTooLarge, LengthMismatch
from robustcausal.estimators import BinningSpec, _cmi, transfer_entropy
from robustcausal.evaluation import monte_carlo_rates
from robustcausal.significance import (
    _SPREAD_FLOOR,
    _T_MARGIN,
    SurrogateConfig,
    _decide,
    _moments,
    _shuffled_source_rows,
    _surrogate_test,
    _t_ceiling,
    te_link_test,
)
from robustcausal.timeseries import Dataset, TimeSeries


def _series(name, values):
    return TimeSeries(name, np.asarray(values, dtype=float))


def _coupled_pair(seed, l=400, lag=1, gain=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=l)
    y = np.empty(l)
    y[:lag] = rng.normal(size=lag)
    y[lag:] = gain * x[:-lag] + 0.1 * rng.normal(size=l - lag)
    return _series("x", x), _series("y", y)


def _independent_pair(seed, l=300):
    rng = np.random.default_rng(seed)
    return _series("x", rng.normal(size=l)), _series("y", rng.normal(size=l))


def test_shuffle_is_a_permutation():
    codes = np.random.default_rng(1).permutation(50)
    rows = _shuffled_source_rows(codes, 20, np.random.default_rng(0))
    assert rows.shape == (20, 50)
    for row in rows:
        np.testing.assert_array_equal(np.sort(row), np.arange(50))
        assert not np.array_equal(row, codes)
    assert len({row.tobytes() for row in rows}) == 20


def test_shuffle_deterministic_per_stream():
    codes = np.arange(30)
    a = _shuffled_source_rows(codes, 5, np.random.default_rng(42))
    b = _shuffled_source_rows(codes, 5, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    # rows drawn into a slice of a larger buffer are the same rows
    buffer = np.full((8, 30), -1)
    c = _shuffled_source_rows(codes, 5, np.random.default_rng(42), out=buffer[2:7])
    assert c.base is buffer and (buffer[[0, 1, 7]] == -1).all()
    assert a.tobytes() == c.tobytes()


def test_mi_gate_detects_strong_dependence():
    x, y = _coupled_pair(0, lag=2)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    res = te_link_test(x, y, 2, spec, SurrogateConfig(rng_seed=0)).mi_test
    assert res.significant
    assert res.statistic > 10.0
    # the gate's MI is that of the lag-aligned pair (x[t - 2], y[t])
    aligned = _cmi(spec.digitize(x)[:-2], None, spec.digitize(y)[2:], spec.bin_count)[0]
    assert res.observed == pytest.approx(aligned, rel=1e-12)


def test_mi_gate_null_calibration():
    hits = 0
    for trial in range(100):
        x, y = _independent_pair(1000 + trial)
        spec = BinningSpec.from_dataset(Dataset((x, y)))
        res = te_link_test(x, y, 1, spec, SurrogateConfig(rng_seed=trial)).mi_test
        hits += res.significant
    # one-sided test at 95%: expect ~5 hits in 100, allow generous noise
    assert hits <= 15


def test_te_link_fires_on_lagged_copy():
    x, y = _coupled_pair(3, lag=2)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    res = te_link_test(x, y, 2, spec, SurrogateConfig(rng_seed=7))
    assert res.link
    assert res.mi_test.significant
    assert res.te == transfer_entropy(x, y, 2, spec)  # both _te_from_codes on the same codes


def test_te_is_computed_on_first_read_as_the_eager_value(monkeypatch):
    # gate failed: 0.0; stage off: _te_from_codes of the test's codes, run
    # once, on the first read; stage on: the stage's observed value, which
    # is that same number. Bit for bit on every branch.
    te_from_codes = significance._te_from_codes
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return te_from_codes(*args)

    monkeypatch.setattr(significance, "_te_from_codes", counted)
    x, y = _coupled_pair(3, lag=2)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    eager = te_from_codes(spec.digitize(x), spec.digitize(y), 2, spec.bin_count)
    assert eager > 0.0
    res = te_link_test(x, y, 2, spec, SurrogateConfig(rng_seed=7))
    assert res.link and res.te_test is None and calls == []
    assert res.te == eager and res.te == eager
    assert calls == [(2, spec.bin_count)]
    strict = te_link_test(x, y, 2, spec, SurrogateConfig(rng_seed=7, te_surrogate_test=True))
    assert strict.te_test is not None and strict.te == eager
    for trial in range(30):
        xi, yi = _independent_pair(2000 + trial, l=200)
        spec_i = BinningSpec.from_dataset(Dataset((xi, yi)))
        blocked = te_link_test(xi, yi, 1, spec_i, SurrogateConfig(rng_seed=trial))
        if not blocked.mi_test.significant:
            break
    assert not blocked.mi_test.significant and blocked.te == 0.0
    assert calls == [(2, spec.bin_count)]


def test_te_link_result_pickles_before_and_after_te_is_read():
    x, y = _coupled_pair(3, lag=2)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    for cfg in (SurrogateConfig(rng_seed=7), SurrogateConfig(rng_seed=7, te_surrogate_test=True)):
        res = te_link_test(x, y, 2, spec, cfg)
        unread = pickle.loads(pickle.dumps(res))
        assert unread == res and "te" not in vars(unread)
        assert _link_bits(unread) == _link_bits(res)
        read = pickle.loads(pickle.dumps(res))
        assert "te" in vars(read) and _link_bits(read) == _link_bits(res)


def test_te_link_default_skips_te_stage():
    x, y = _coupled_pair(4, lag=1)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    res = te_link_test(x, y, 1, spec, SurrogateConfig(rng_seed=8))
    assert res.te_test is None
    x2, y2 = _independent_pair(5)
    spec2 = BinningSpec.from_dataset(Dataset((x2, y2)))
    res2 = te_link_test(x2, y2, 1, spec2, SurrogateConfig(rng_seed=9))
    assert res2.te_test is None


def test_te_link_gate_blocks_without_mi():
    # whenever the MI gate fails the link must be off and TE reported as 0
    for trial in range(30):
        x, y = _independent_pair(2000 + trial, l=200)
        spec = BinningSpec.from_dataset(Dataset((x, y)))
        res = te_link_test(x, y, 1, spec, SurrogateConfig(rng_seed=trial))
        if not res.mi_test.significant:
            assert not res.link
            assert res.te == 0.0
            assert res.te_test is None


def test_te_link_strict_mode_runs_second_stage():
    cfg = SurrogateConfig(rng_seed=11, te_surrogate_test=True)
    x, y = _coupled_pair(6, lag=1)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    res = te_link_test(x, y, 1, spec, cfg)
    assert res.mi_test.significant
    assert res.te_test is not None
    assert res.link == res.te_test.significant
    assert res.te == res.te_test.observed


def test_te_link_strict_no_more_permissive_than_default():
    # the strict decision can only switch links off relative to the gate
    for trial in range(20):
        x, y = _coupled_pair(3000 + trial, l=150, gain=0.35)
        spec = BinningSpec.from_dataset(Dataset((x, y)))
        gate = te_link_test(x, y, 1, spec, SurrogateConfig(rng_seed=trial))
        strict = te_link_test(
            x, y, 1, spec, SurrogateConfig(rng_seed=trial, te_surrogate_test=True)
        )
        if strict.link:
            assert gate.link


def test_results_bit_reproducible():
    x, y = _coupled_pair(12, lag=3)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    cfg = SurrogateConfig(rng_seed=99, n_surrogates=60)
    a = te_link_test(x, y, 3, spec, cfg)
    b = te_link_test(x, y, 3, spec, cfg)
    assert a == b
    assert a.mi_test == b.mi_test


def _bits(res):
    floats = (res.observed, res.surrogate_mean, res.surrogate_std, res.statistic)
    return tuple(np.float64(v).tobytes() for v in floats) + (res.significant,)


def test_chunked_row_banks_are_bit_identical(monkeypatch):
    x, y = _coupled_pair(6, l=200, lag=1)
    spec = BinningSpec.from_dataset(Dataset((x, y)), bin_count=5)
    cfg = SurrogateConfig(rng_seed=11, n_surrogates=30, te_surrogate_test=True)
    whole = te_link_test(x, y, 1, spec, cfg)
    row_counts = []
    entropy_rows = estimators._entropy_bits_rows

    def counted(rows, total):
        row_counts.append(rows.shape[0])
        return entropy_rows(rows, total)

    # 250 cells: gate chunks of at most 250 // 5**2 = 10 rows, TE chunks of
    # at most 250 // 5**3 = 2, within the checkpoint chunks of 9, 9 and 12
    monkeypatch.setattr(estimators, "_BATCH_CELL_BUDGET", 250)
    monkeypatch.setattr(estimators, "_entropy_bits_rows", counted)
    chunked = te_link_test(x, y, 1, spec, cfg)
    # two row-entropy calls per chunk: 4 gate chunks, then 16 TE chunks
    gate = [9, 9, 10, 2]
    te = [2, 2, 2, 2, 1] * 2 + [2] * 6
    assert row_counts == [rows for rows in gate + te for _ in range(2)]
    assert whole.te_test is not None
    assert _bits(chunked.mi_test) == _bits(whole.mi_test)
    assert _bits(chunked.te_test) == _bits(whole.te_test)


def test_concurrent_threads_equal_a_sequential_run():
    # each thread builds its row banks' index in its own scratch buffer;
    # tests of different bank sizes run at once, in four threads
    cases = []
    for i in range(12):
        lag = 1 + i % 3
        x, y = _coupled_pair(40 + i, l=150 + 100 * (i % 4), lag=lag, gain=0.3)
        cases.append((x, y, lag, BinningSpec.from_dataset(Dataset((x, y)))))
    cfg = SurrogateConfig(rng_seed=5, n_surrogates=60, te_surrogate_test=True)

    def run(case):
        x, y, lag, spec = case
        return te_link_test(x, y, lag, spec, cfg)

    sequential = [run(case) for case in cases]
    assert sum(res.te_test is not None for res in sequential) >= 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, case) for case in cases * 4]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(sequential * 4, concurrent):
        assert _bits(got.mi_test) == _bits(want.mi_test)
        assert (got.te_test is None) == (want.te_test is None)
        if want.te_test is not None:
            assert _bits(got.te_test) == _bits(want.te_test)
        assert (got.link, np.float64(got.te).tobytes()) == (want.link, np.float64(want.te).tobytes())


def _link_bits(res):
    """Everything a TE link test returns, as bytes and flags."""
    tests = [res.mi_test] + ([res.te_test] if res.te_test is not None else [])
    return (res.link, np.float64(res.te).tobytes()) + tuple(
        (_bits(t), t.rows) for t in tests)


_SCRATCH_CFG = SurrogateConfig(rng_seed=3, n_surrogates=40, te_surrogate_test=True)


@functools.cache
def _scratch_cases():
    cases = []
    for l, seed in ((1000, 60), (200, 61)):
        x, y = _coupled_pair(seed, l=l, lag=2, gain=0.3)
        spec = BinningSpec.from_dataset(Dataset((x, y)))
        cases += [(x, y, lag, spec) for lag in (1, 2, 3)]
    return cases


def _scratch_run(i):
    x, y, lag, spec = _scratch_cases()[i]
    return _link_bits(te_link_test(x, y, lag, spec, _SCRATCH_CFG))


@functools.cache
def _scratch_fresh(i):
    # a thread starts with no scratch buffers
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(_scratch_run, i).result(timeout=120)


@settings(max_examples=20, deadline=None, database=None)
@given(order=st.lists(st.integers(0, 5), min_size=2, max_size=10))
def test_scratch_buffers_leave_no_trace_between_tests(order):
    # a test on a 1000-point record grows the bank and index buffers that a
    # 200-point one then reuses, and back: the order of the tests on a
    # thread, serial or beside another thread, changes no bit of a result
    fresh = [_scratch_fresh(i) for i in range(6)]
    # gates that stop early, and gates that pass into the TE stage
    assert {bits[2][1] for bits in fresh} == {12, 40}
    assert [len(bits) for bits in fresh].count(4) == 2
    assert [_scratch_run(i) for i in order] == [fresh[i] for i in order]

    halves = (order, order[::-1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda half: [_scratch_run(i) for i in half], half)
                       for half in halves]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for half, got in zip(halves, concurrent):
        assert got == [fresh[i] for i in half]


def test_decide_degenerate_spread_rules():
    flat = np.zeros(20)
    hit = _decide(1.0, flat, 0.95)
    assert hit.significant
    miss = _decide(0.0, flat, 0.95)
    assert not miss.significant
    assert miss.surrogate_std == 0.0


def test_surrogate_config_validation():
    with pytest.raises(InvalidConfig):
        SurrogateConfig(rng_seed=0, n_surrogates=1)
    with pytest.raises(InvalidConfig):
        SurrogateConfig(rng_seed=0, confidence=1.0)
    with pytest.raises(InvalidConfig):
        SurrogateConfig(rng_seed=0, confidence=0.0)
    for bins in (0, 1):
        with pytest.raises(InvalidConfig, match="bins must be >= 2"):
            SurrogateConfig(rng_seed=0, bins=bins)
    assert SurrogateConfig(rng_seed=0, bins=2).bins == 2


def test_te_link_argument_validation():
    x, y = _independent_pair(13, l=40)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    cfg = SurrogateConfig(rng_seed=0)
    with pytest.raises(InvalidConfig):
        te_link_test(x, y, 0, spec, cfg)
    with pytest.raises(LagTooLarge):
        te_link_test(x, y, 40, spec, cfg)
    with pytest.raises(LengthMismatch):
        te_link_test(x, _series("y", np.arange(39.0)), 1, spec, cfg)


_CONFIDENCES = (1e-100, 0.01, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999)
_DFS = list(range(1, 301)) + [499, 999, 4999, 100_000, 10**8, 10**9]


def test_t_critical_equals_scipy_stats_quantile():
    # the scipy.stats quantile itself fails and the next float up passes, so
    # the value t_exceeds compares with is the quantile's, bit for bit
    for confidence in _CONFIDENCES:
        for df in _DFS:
            crit = float(stats.t.ppf(confidence, df))
            assert not t_exceeds(crit, confidence, df), (confidence, df)
            assert t_exceeds(float(np.nextafter(crit, np.inf)), confidence, df), (confidence, df)


def test_t_bracket_holds_the_scipy_quantile():
    for confidence in _CONFIDENCES:
        for df in _DFS:
            lo, hi = t_bracket(confidence, df)
            assert lo < special.stdtrit(df, confidence) < hi, (confidence, df)


@pytest.mark.parametrize("confidence, df", [(0.95, 99), (0.8, 29), (0.999, 4999), (0.5, 9)])
def test_t_at_the_scipy_quantile_decides_as_scipy(monkeypatch, confidence, df):
    crit = float(special.stdtrit(df, confidence))
    lo, hi = t_bracket(confidence, df)
    # the quantile and its neighbours lie inside the band, where scipy decides
    for statistic in (np.nextafter(crit, -np.inf), crit, np.nextafter(crit, np.inf)):
        assert lo < statistic < hi
        assert t_exceeds(float(statistic), confidence, df) == (statistic > crit)
    # outside the band the bracket decides alone
    monkeypatch.setattr(_critical, "_special", None)
    assert t_exceeds(hi + 1e-12, confidence, df) and not t_exceeds(lo, confidence, df)


def _copy_values(rows, out):
    """A ``count`` for banks whose rows are the surrogate values themselves."""
    out[:] = rows
    return out


def _bank_prefix(seed, n, k_share, scale, levels, low, width, z):
    """k of n surrogate values in a band of [0, scale], continuous or on
    ``levels`` + 1 levels, and an observed value z prefix deviations above
    their mean; None unless the prefix spreads as far as a test needs to stop."""
    k = min(n - 1, max(2, round(k_share * n)))
    rng = np.random.default_rng(seed)
    u = rng.random(k) if levels == 0 else rng.integers(0, levels + 1, k) / levels
    prefix = (low + width * u) * scale
    mean, m2 = _moments(prefix)
    s = math.sqrt(m2 / (k - 1))
    observed = max(0.0, mean + z * s)
    if s <= _SPREAD_FLOOR * observed:
        return None
    return rng, k, prefix, mean, m2, observed


_BANKS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 150),
    k_share=st.floats(0.0, 1.0),
    scale=st.floats(0.01, 8.0),
    levels=st.integers(0, 4),
    low=st.floats(0.0, 1.0),
    width=st.floats(0.01, 1.0),
    z=st.floats(-3.0, 12.0),
)


@settings(max_examples=300, deadline=None, database=None)
@given(**_BANKS)
def test_t_ceiling_bounds_the_t_of_every_completion(seed, n, k_share, scale, levels, low,
                                                    width, z):
    # wherever it is positive (a test stops only below a positive critical
    # value), the t of a bank of n is at most _t_ceiling of its first k
    # values, up to rounding, whatever its other n - k values are; equal
    # completions on a grid reach the largest t, up to the grid's step
    width = min(width, 1.0 - low)
    assume(width > 0.0)
    drawn = _bank_prefix(seed, n, k_share, scale, levels, low, width, z)
    assume(drawn is not None)
    rng, k, prefix, mean, m2, observed = drawn
    bound = _t_ceiling(observed, mean, m2, k, n)
    r = n - k
    completions = [np.full(r, v) for v in np.linspace(0.0, 2.0 * scale, 401)]
    completions += [rng.random(r) * scale for _ in range(5)]
    completions += [(low + width * rng.random(r)) * scale for _ in range(5)]
    for rest in completions:
        t = _decide(observed, np.concatenate([prefix, rest]), 0.95).statistic
        assert t <= max(bound, 0.0) + _T_MARGIN


@settings(max_examples=300, deadline=None, database=None)
@given(**_BANKS, confidence=st.sampled_from([0.3, 0.5, 0.9, 0.95, 0.99]),
       completion=st.sampled_from(["stationary", "zero", "mean", "band", "uniform"]))
def test_a_stopped_test_decides_as_the_full_bank(seed, n, k_share, scale, levels, low, width,
                                                 z, confidence, completion):
    width = min(width, 1.0 - low)
    assume(width > 0.0)
    drawn = _bank_prefix(seed, n, k_share, scale, levels, low, width, z)
    assume(drawn is not None)
    rng, k, prefix, mean, m2, observed = drawn
    r = n - k
    delta = observed - mean
    stationary = mean - m2 / (k * delta) if delta > 0.0 else 0.0
    rest = {
        "stationary": np.full(r, max(stationary, 0.0)),
        "zero": np.zeros(r),
        "mean": np.full(r, mean),
        "band": (low + width * rng.random(r)) * scale,
        "uniform": rng.random(r) * scale,
    }[completion]
    want = _decide(observed, np.concatenate([prefix, rest]), confidence)
    got = _surrogate_test(observed, _copy_values, [prefix, rest], n, confidence)
    assert got.significant == want.significant
    assert got.rows in (k, n)
    if got.rows == n:
        assert _bits(got) == _bits(want)
    else:
        assert (got.surrogate_mean, got.surrogate_std) == (mean, math.sqrt(m2 / (k - 1)))


def test_a_clear_null_stops_at_the_first_checkpoint():
    # x[t - 1] and y[t] run through every pair of bins equally often, so the
    # observed MI is about 0 and below every surrogate
    x = _series("x", np.tile([0.0, 1.0], 200))
    y = _series("y", np.tile([1.0, 0.0, 0.0, 1.0], 100))
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    res = te_link_test(x, y, 1, spec, SurrogateConfig(rng_seed=3, n_surrogates=100))
    assert not res.link
    assert res.mi_test.rows == 30
    assert res.mi_test.statistic < 0.0


def test_a_passing_gate_counts_the_whole_bank():
    x, y = _coupled_pair(6, lag=1)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    cfg = SurrogateConfig(rng_seed=11, n_surrogates=50, te_surrogate_test=True)
    res = te_link_test(x, y, 1, spec, cfg)
    assert res.mi_test.significant and res.mi_test.rows == 50
    assert res.te_test.rows == 50


def test_stopping_early_changes_no_ensemble_or_rate_curve(monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.normal(size=400)
    y = np.concatenate([[0.0], 0.6 * x[:-1]]) + rng.normal(size=400)
    d = Dataset((_series("X", x), _series("Y", y), _series("Z", rng.normal(size=400))))
    ens = EnsembleConfig(6, 150, rng_seed=2)
    sur = SurrogateConfig(rng_seed=5, n_surrogates=40, te_surrogate_test=True)
    surrogate_test = significance._surrogate_test
    counted = []

    def recorded(*args):
        res = surrogate_test(*args)
        counted.append(res.rows)
        return res

    def run():
        res = analyze_ensemble(d, ens, sur, max_lag=2)
        curve = monte_carlo_rates("bivariate-linear", [60, 120], [0.3, 1.0], 5,
                                  SurrogateConfig(rng_seed=1, n_surrogates=30))
        return res.decisions.tobytes(), res.statistics.tobytes(), curve.to_csv()

    monkeypatch.setattr(significance, "_surrogate_test", recorded)
    stopping = run()
    # gates and TE stages stopped at both checkpoints, and others counted all
    assert {12, 24, 40, 9, 18, 30} <= set(counted)
    monkeypatch.setattr(significance, "_CHECKPOINT_TENTHS", ())
    counted.clear()
    assert run() == stopping
    assert set(counted) == {40, 30}
