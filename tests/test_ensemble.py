import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustcausal import ensemble, graph
from robustcausal.ensemble import (
    SUBSAMPLE_MODES,
    EnsembleConfig,
    LinkFrequencyTable,
    analyze_ensemble,
    draw_subsamples,
    link_frequencies,
    robust_graph,
)
from robustcausal.errors import InvalidConfig, TooManyWindows, WindowTooLong
from robustcausal.estimators import BinningSpec
from robustcausal.granger import GrangerConfig
from robustcausal.graph import candidate_keys, evaluate_candidates, export_graph
from robustcausal.significance import SurrogateConfig
from robustcausal.timeseries import Dataset, TimeSeries, _derived_seed


def _series(name, values):
    return TimeSeries(name, np.asarray(values, dtype=float))


def _dataset(seed, names=("A", "B"), l=200):
    rng = np.random.default_rng(seed)
    return Dataset(tuple(_series(n, rng.normal(size=l)) for n in names))


def _vote(appearances, n, strength_by_run=None):
    """The vote of n windows over ("U", "V") at max lag 4; ``appearances[key]``
    says in which windows a link is kept."""
    keys = candidate_keys(("U", "V"), 4)
    decisions = np.zeros((n, len(keys)), dtype=bool)
    statistics = np.zeros((n, len(keys)))
    for key, runs in appearances.items():
        for run in runs:
            decisions[run, keys.index(key)] = True
            statistics[run, keys.index(key)] = strength_by_run[key][run] if strength_by_run else 0.5
    return link_frequencies(decisions, statistics, variables=("U", "V"), max_lag=4, method="te")


def test_fixed_overlap_window_starts():
    d = _dataset(0, l=200)
    cfg = EnsembleConfig(3, 100, rng_seed=1, mode="fixed-overlap")
    subs = draw_subsamples(d, cfg)
    assert len(subs) == 3
    np.testing.assert_array_equal(subs[0].get("A").values, d.get("A").values[0:100])
    np.testing.assert_array_equal(subs[1].get("A").values, d.get("A").values[50:150])
    np.testing.assert_array_equal(subs[2].get("A").values, d.get("A").values[100:200])


def test_fixed_overlap_requires_three_windows():
    with pytest.raises(InvalidConfig):
        EnsembleConfig(4, 100, rng_seed=1, mode="fixed-overlap")


def test_nonoverlapping_windows_pack_from_origin():
    d = _dataset(1, l=200)
    cfg = EnsembleConfig(4, 50, rng_seed=1, mode="nonoverlapping")
    subs = draw_subsamples(d, cfg)
    for j, w in enumerate(subs):
        np.testing.assert_array_equal(
            w.get("B").values, d.get("B").values[j * 50 : (j + 1) * 50]
        )
    with pytest.raises(TooManyWindows):
        draw_subsamples(d, EnsembleConfig(5, 50, rng_seed=1, mode="nonoverlapping"))


def test_random_windows_reproducible_and_in_range():
    d = _dataset(2, l=300)
    cfg = EnsembleConfig(20, 80, rng_seed=9)
    a = draw_subsamples(d, cfg)
    b = draw_subsamples(d, cfg)
    for wa, wb in zip(a, b):
        np.testing.assert_array_equal(wa.get("A").values, wb.get("A").values)
        assert wa.length == 80
    # windows must be contiguous slices of the parent
    parent = d.get("A").values
    for w in a:
        start = int(np.where(parent == w.get("A").values[0])[0][0])
        np.testing.assert_array_equal(w.get("A").values, parent[start : start + 80])


def test_random_windows_do_not_depend_on_the_window_count():
    d = _dataset(2, l=300)
    few = draw_subsamples(d, EnsembleConfig(5, 80, rng_seed=9))
    many = draw_subsamples(d, EnsembleConfig(20, 80, rng_seed=9))
    for a, b in zip(few, many[:5], strict=True):
        np.testing.assert_array_equal(a.get("A").values, b.get("A").values)


def test_window_too_long_rejected():
    d = _dataset(3, l=100)
    with pytest.raises(WindowTooLong):
        draw_subsamples(d, EnsembleConfig(3, 100, rng_seed=0))


def test_vote_keeps_exact_threshold_count():
    # 92 and 90 appearances survive a 0.9 vote over 100 runs, 89 does not
    appearances = {
        ("U", "V", 1): set(range(92)),
        ("U", "V", 2): set(range(90)),
        ("V", "U", 1): set(range(89)),
    }
    freq = _vote(appearances, 100)
    robust = robust_graph(freq, threshold=0.9)
    assert robust.link_keys() == {("U", "V", 1), ("U", "V", 2)}
    assert freq.counts[("V", "U", 1)] == 89


def test_vote_all_three_at_unit_threshold():
    appearances = {("U", "V", 1): {0, 1, 2}, ("V", "U", 2): {0, 2}}
    freq = _vote(appearances, 3)
    robust = robust_graph(freq, threshold=1.0)
    assert robust.link_keys() == {("U", "V", 1)}


def test_robust_strength_is_mean_over_appearances():
    key = ("U", "V", 3)
    strengths = {key: {0: 0.2, 2: 0.6}}
    freq = _vote({key: {0, 2}}, 3, strengths)
    robust = robust_graph(freq, threshold=0.5)
    (link,) = robust.links
    assert link.strength == pytest.approx(0.4)


def _dict_loop_vote(decisions, statistics, keys):
    """The vote as a per-link dict loop over windows, the way it was counted
    from window graphs: the oracle of the matrix vote."""
    counts, sums = {}, {}
    for row_decisions, row_statistics in zip(decisions, statistics):
        for key, kept, strength in zip(keys, row_decisions, row_statistics):
            if kept:
                counts[key] = counts.get(key, 0) + 1
                sums[key] = sums.get(key, 0.0) + float(strength)
    return counts, {key: sums[key] / counts[key] for key in counts}


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_windows=st.integers(1, 120),
       n_variables=st.integers(2, 3), max_lag=st.integers(1, 3), vote_share=st.floats(0, 1))
def test_vote_counts_and_means_match_a_dict_loop_bit_for_bit(seed, n_windows, n_variables,
                                                             max_lag, vote_share):
    variables = ("U", "V", "W")[:n_variables]
    keys = candidate_keys(variables, max_lag)
    shape = (n_windows, len(keys))
    rng = np.random.default_rng(seed)
    decisions = rng.random(shape) < vote_share
    # Strengths of varied magnitude, so the order of the additions shows in
    # the last bits of a mean.
    statistics = rng.random(shape) * 10.0 ** rng.integers(-6, 7, shape)
    freq = link_frequencies(decisions, statistics, variables=variables, max_lag=max_lag,
                            method="te")
    counts, means = _dict_loop_vote(decisions, statistics, keys)
    assert freq.counts == counts
    assert all(type(count) is int for count in freq.counts.values())
    assert freq.mean_strengths.keys() == means.keys()
    for key, mean in freq.mean_strengths.items():
        assert type(mean) is float and mean.hex() == means[key].hex(), key


@pytest.mark.parametrize("decisions_shape, statistics_shape", [
    ((3, 11), (3, 11)), ((3, 13), (3, 13)), ((0, 12), (0, 12)), ((12,), (12,)),
    ((1, 3, 12), (1, 3, 12)), ((3, 12), (3, 11)),
], ids=["short", "over", "no-rows", "1-d", "3-d", "statistics-short"])
def test_link_frequencies_rejects_a_vote_matrix_of_the_wrong_shape(decisions_shape,
                                                                   statistics_shape):
    # ("U", "V") at max lag 6 has 12 candidate keys; a matrix that is not
    # windows x 12, or statistics of another shape, must not be counted.
    with pytest.raises(InvalidConfig, match="12 columns"):
        link_frequencies(np.ones(decisions_shape, dtype=bool), np.ones(statistics_shape),
                         variables=("U", "V"), max_lag=6, method="te")


def test_frequency_table_csv_lists_candidates():
    freq = _vote({("U", "V", 1): {0, 1}}, 2)
    text = freq.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("source,target,lag")
    assert any(line.startswith("U,V,1") for line in lines[1:])


def test_frequency_table_csv_reads_back_awkward_names():
    # Names with a comma or a quote are legal dataset names; each row must
    # still read back as five fields.
    names = ("a,b", 'c"d')
    table = LinkFrequencyTable(variables=names, max_lag=2, method="te", n_subsamples=3,
                               counts={("a,b", 'c"d', 2): 2}, mean_strengths={})
    rows = list(csv.reader(io.StringIO(table.to_csv())))
    assert rows[0] == ["source", "target", "lag", "count", "fraction"]
    assert sorted(rows[1:]) == sorted(
        [s, t, str(lag), str(table.counts.get((s, t, lag), 0)),
         repr(table.counts.get((s, t, lag), 0) / 3)]
        for s in names for t in names if s != t for lag in (1, 2))
    # plain names are written as before: no quoting, "\n" line ends
    plain = LinkFrequencyTable(variables=("U", "V"), max_lag=1, method="te", n_subsamples=3,
                               counts={("U", "V", 1): 1}, mean_strengths={})
    assert plain.to_csv() == "source,target,lag,count,fraction\nU,V,1,1,0.3333333333333333\nV,U,1,0,0.0\n"


def _exported(result):
    """Every output of an ensemble run, as the bytes the CLI writes, and the
    bytes of the vote matrix: every window's decision and statistic of
    every candidate."""
    return (export_graph(result.full_graph, "json"), export_graph(result.robust, "json"),
            result.frequencies.to_csv(), result.decisions.tobytes(),
            result.statistics.tobytes())


@settings(max_examples=24, deadline=None, database=None)
@given(
    method=st.sampled_from(["te", "gc"]),
    mode=st.sampled_from(SUBSAMPLE_MODES),
    reuse_parent_bins=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_analyze_ensemble_deterministic_and_worker_independent(method, mode, reuse_parent_bins,
                                                                seed):
    d = _dataset(seed, names=("A", "B", "C"), l=240)
    # only a TE ensemble bins its windows, so only it can reuse the parent's bins
    cfg = EnsembleConfig(3, 80, rng_seed=seed, mode=mode, threshold=0.6,
                         reuse_parent_bins=reuse_parent_bins and method == "te")
    test = (SurrogateConfig(rng_seed=seed + 1, n_surrogates=20)
            if method == "te" else GrangerConfig())
    result = analyze_ensemble(d, cfg, test, max_lag=2, workers=1)
    assert result.decisions.dtype == bool and result.statistics.dtype == np.float64
    assert result.decisions.shape == result.statistics.shape == (cfg.n_subsamples, 12)
    serial = _exported(result)
    assert _exported(analyze_ensemble(d, cfg, test, max_lag=2, workers=2)) == serial
    assert _exported(analyze_ensemble(d, cfg, test, max_lag=2, workers=1)) == serial


def test_analyze_ensemble_reuse_parent_bins_mode_runs(monkeypatch):
    d = _dataset(5, names=("A", "B"), l=300)
    sur = SurrogateConfig(rng_seed=11, n_surrogates=30, bins=5)
    derive = BinningSpec.from_dataset.__func__
    link_test = graph._te_link_from_codes
    derived, bin_counts = [], set()

    def counted(cls, *args, **kwargs):
        derived.append(1)
        return derive(cls, *args, **kwargs)

    def recorded(source, target, lag, n_bins, *args):
        bin_counts.add(n_bins)
        return link_test(source, target, lag, n_bins, *args)

    monkeypatch.setattr(BinningSpec, "from_dataset", classmethod(counted))
    monkeypatch.setattr(graph, "_te_link_from_codes", recorded)
    for reuse, derivations in ((True, 1), (False, 1 + 5)):
        cfg = EnsembleConfig(5, 90, rng_seed=2, reuse_parent_bins=reuse)
        derived.clear()
        bin_counts.clear()
        res = analyze_ensemble(d, cfg, sur, max_lag=2)
        assert res.decisions.shape == (5, 4)
        assert len(derived) == derivations, reuse
        assert bin_counts == {5}, reuse
        again = analyze_ensemble(d, cfg, sur, max_lag=2)
        assert res.frequencies.counts == again.frequencies.counts


def test_parent_bins_are_an_ensemble_setting(monkeypatch):
    # A test config has no parent record, so it has no reuse_parent_bins.
    # An ensemble has one, and a Granger ensemble, which bins nothing,
    # refuses the setting before it draws a window.
    with pytest.raises(TypeError, match="reuse_parent_bins"):
        SurrogateConfig(rng_seed=1, reuse_parent_bins=True)

    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the settings were checked")

    monkeypatch.setattr(ensemble, "draw_subsamples", unreachable)
    monkeypatch.setattr(ensemble, "build_graph", unreachable)
    cfg = EnsembleConfig(5, 60, rng_seed=1, reuse_parent_bins=True)
    with pytest.raises(InvalidConfig, match="reuse_parent_bins"):
        analyze_ensemble(_dataset(3, l=200), cfg, GrangerConfig(), max_lag=2)


def test_analyze_ensemble_reports_all_parts():
    d = _dataset(6, names=("A", "B"), l=250)
    res = analyze_ensemble(
        d,
        EnsembleConfig(4, 80, rng_seed=0),
        SurrogateConfig(rng_seed=1, n_surrogates=30),
        max_lag=2,
    )
    assert res.full_graph.variables == ("A", "B")
    assert res.decisions.shape == res.statistics.shape == (4, 4)
    assert res.frequencies.n_subsamples == 4


def test_vote_matrix_rows_are_the_window_tests():
    # Row j is window j's evaluate_candidates row, bit for bit, under the
    # config analyze_ensemble derives for the window (TE: its own surrogate
    # seed; with reuse_parent_bins, the spec derived on the full record),
    # in candidate_keys order over the dataset's variable order,
    # non-significant candidates included. TE and GC alike.
    rng = np.random.default_rng(7)
    a, c = rng.normal(size=300), rng.normal(size=300)
    b = np.concatenate(([0.0], 0.8 * a[:-1])) + 0.5 * rng.normal(size=300)
    d = Dataset((_series("B", b), _series("A", a), _series("C", c)))
    windowed = EnsembleConfig(4, 90, rng_seed=3)
    te = SurrogateConfig(rng_seed=5, n_surrogates=20)
    parent_spec = BinningSpec.from_dataset(d, bin_count=te.bins)
    window_bins = {BinningSpec.from_dataset(w).bin_count for w in draw_subsamples(d, windowed)}
    assert parent_spec.bin_count not in window_bins  # reuse changes every window's bins
    for test, cfg, spec in ((te, windowed, None),
                            (te, replace(windowed, reuse_parent_bins=True), parent_spec),
                            (GrangerConfig(), windowed, None)):
        res = analyze_ensemble(d, cfg, test, max_lag=2)
        assert res.frequencies.variables == ("B", "A", "C")
        assert res.decisions.shape == (4, len(candidate_keys(d.names, 2)))
        assert res.decisions.any() and not res.decisions.all()
        for j, window in enumerate(draw_subsamples(d, cfg)):
            window_test = test
            if test.method == "te":
                window_test = replace(test, rng_seed=_derived_seed(test.rng_seed, 0x5B5B, j))
            decisions, statistics = evaluate_candidates(window, window_test, 2, spec=spec)
            assert res.decisions[j].tolist() == decisions.tolist(), (test.method, j)
            assert res.statistics[j].tobytes() == statistics.tobytes(), (test.method, j)
            if test.method == "te":
                # a TE cell that is not kept failed the MI gate: (False, 0.0)
                assert (statistics[~decisions] == 0.0).all(), j


@pytest.mark.parametrize("config, field", [
    (lambda v: SurrogateConfig(rng_seed=0, n_surrogates=v), "n_surrogates"),
    (lambda v: SurrogateConfig(rng_seed=0, bins=v), "bins"),
    (lambda v: EnsembleConfig(v, 100, rng_seed=0), "n_subsamples"),
    (lambda v: EnsembleConfig(3, v, rng_seed=0), "subsample_length"),
], ids=["n_surrogates", "bins", "n_subsamples", "subsample_length"])
def test_config_counts_are_integers(config, field):
    # A count that is a bool or not integral is refused, not truncated or
    # left to fail later with a bare TypeError; numpy integers are counts.
    for bad in (True, 5.7, 80.5, 5.0, "5", np.float64(6.0)):
        with pytest.raises(InvalidConfig, match=field):
            config(bad)
    with pytest.raises(InvalidConfig, match=f"{field} must be >= "):
        config(np.int64(0))
    assert getattr(config(np.int64(3)), field) == 3


def test_ensemble_config_validation():
    with pytest.raises(InvalidConfig):
        EnsembleConfig(0, 100, rng_seed=0)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(3, 1, rng_seed=0)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(3, 100, rng_seed=0, mode="bootstrap")
    with pytest.raises(InvalidConfig):
        EnsembleConfig(3, 100, rng_seed=0, threshold=0.0)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(3, 100, rng_seed=0, threshold=1.2)


@settings(max_examples=12, deadline=None, database=None)
@given(seed=st.integers(0, 2**16), binary=st.booleans(), method=st.sampled_from(["te", "gc"]))
def test_quantised_and_binary_inputs_neither_abort_nor_bias_the_vote(seed, binary, method):
    # X drives Y at lag 1. Quantised sensors (X in integers, Y in halves)
    # and binary records make ties and few distinct values; the vote must
    # still keep exactly the true link, in every example.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=600)
    y = np.concatenate(([0.0], x[:-1])) + 0.5 * rng.normal(size=600)
    if binary:
        x, y = (x > 0).astype(float), (y > 0).astype(float)
    else:
        x, y = np.round(x), np.round(2 * y) / 2
    d = Dataset((_series("X", x), _series("Y", y)))
    test = SurrogateConfig(rng_seed=seed, n_surrogates=50) if method == "te" else GrangerConfig()
    res = analyze_ensemble(d, EnsembleConfig(20, 100, rng_seed=seed), test, max_lag=2)
    assert res.robust.link_keys() == {("X", "Y", 1)}
