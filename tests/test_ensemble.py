import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustcausal import graph
from robustcausal.ensemble import (
    SUBSAMPLE_MODES,
    EnsembleConfig,
    LinkFrequencyTable,
    analyze_ensemble,
    draw_subsamples,
    link_frequencies,
    robust_graph,
)
from robustcausal.errors import (
    InvalidConfig,
    TooManyWindows,
    VariableMismatch,
    WindowTooLong,
)
from robustcausal.estimators import BinningSpec
from robustcausal.granger import GrangerConfig
from robustcausal.graph import CausalLink, LaggedCausalGraph, export_graph
from robustcausal.significance import SurrogateConfig
from robustcausal.timeseries import Dataset, TimeSeries


def _series(name, values):
    return TimeSeries(name, np.asarray(values, dtype=float))


def _dataset(seed, names=("A", "B"), l=200):
    rng = np.random.default_rng(seed)
    return Dataset(tuple(_series(n, rng.normal(size=l)) for n in names))


def _fake_graphs(appearances, n, strength_by_run=None):
    """n two-variable graphs; ``appearances[key]`` says in which runs a link shows."""
    graphs = []
    for run in range(n):
        links = []
        for key, runs in appearances.items():
            if run in runs:
                s = strength_by_run[key][run] if strength_by_run else 0.5
                links.append(CausalLink(key[0], key[1], key[2], s))
        graphs.append(LaggedCausalGraph(("U", "V"), tuple(links), 4, "te"))
    return graphs


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
    freq = link_frequencies(_fake_graphs(appearances, 100))
    robust = robust_graph(freq, threshold=0.9)
    assert robust.link_keys() == {("U", "V", 1), ("U", "V", 2)}
    assert freq.fraction(("V", "U", 1)) == pytest.approx(0.89)


def test_vote_all_three_at_unit_threshold():
    appearances = {("U", "V", 1): {0, 1, 2}, ("V", "U", 2): {0, 2}}
    freq = link_frequencies(_fake_graphs(appearances, 3))
    robust = robust_graph(freq, threshold=1.0)
    assert robust.link_keys() == {("U", "V", 1)}


def test_robust_strength_is_mean_over_appearances():
    key = ("U", "V", 3)
    strengths = {key: {0: 0.2, 2: 0.6}}
    freq = link_frequencies(_fake_graphs({key: {0, 2}}, 3, strengths))
    robust = robust_graph(freq, threshold=0.5)
    (link,) = robust.links
    assert link.strength == pytest.approx(0.4)


def test_frequency_table_csv_lists_candidates():
    freq = link_frequencies(_fake_graphs({("U", "V", 1): {0, 1}}, 2))
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
         repr(table.fraction((s, t, lag)))]
        for s in names for t in names if s != t for lag in (1, 2))
    # plain names are written as before: no quoting, "\n" line ends
    plain = LinkFrequencyTable(variables=("U", "V"), max_lag=1, method="te", n_subsamples=3,
                               counts={("U", "V", 1): 1}, mean_strengths={})
    assert plain.to_csv() == "source,target,lag,count,fraction\nU,V,1,1,0.3333333333333333\nV,U,1,0,0.0\n"


def _exported(result):
    """Every output of an ensemble run, as the bytes the CLI writes."""
    return (export_graph(result.full_graph, "json"), export_graph(result.robust, "json"),
            result.frequencies.to_csv(),
            *(export_graph(g, "json") for g in result.subsample_graphs))


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
    cfg = EnsembleConfig(3, 80, rng_seed=seed, mode=mode, threshold=0.6)
    test = (SurrogateConfig(rng_seed=seed + 1, n_surrogates=20,
                            reuse_parent_bins=reuse_parent_bins)
            if method == "te" else GrangerConfig())
    serial = _exported(analyze_ensemble(d, cfg, test, max_lag=2, workers=1))
    assert len(serial) == 3 + cfg.n_subsamples
    assert _exported(analyze_ensemble(d, cfg, test, max_lag=2, workers=2)) == serial
    assert _exported(analyze_ensemble(d, cfg, test, max_lag=2, workers=1)) == serial


def test_analyze_ensemble_reuse_parent_bins_mode_runs(monkeypatch):
    d = _dataset(5, names=("A", "B"), l=300)
    cfg = EnsembleConfig(5, 90, rng_seed=2)
    derive = BinningSpec.from_dataset.__func__
    link_test = graph._te_link_from_codes
    derived, bin_counts = [], set()

    def counted(cls, *args, **kwargs):
        derived.append(1)
        return derive(cls, *args, **kwargs)

    def recorded(cx, cy, lag, n_bins, *args):
        bin_counts.add(n_bins)
        return link_test(cx, cy, lag, n_bins, *args)

    monkeypatch.setattr(BinningSpec, "from_dataset", classmethod(counted))
    monkeypatch.setattr(graph, "_te_link_from_codes", recorded)
    for reuse, derivations in ((True, 1), (False, 1 + cfg.n_subsamples)):
        sur = SurrogateConfig(rng_seed=11, n_surrogates=30, bins=5, reuse_parent_bins=reuse)
        derived.clear()
        bin_counts.clear()
        res = analyze_ensemble(d, cfg, sur, max_lag=2)
        assert len(res.subsample_graphs) == 5
        assert len(derived) == derivations, reuse
        assert bin_counts == {5}, reuse
        again = analyze_ensemble(d, cfg, sur, max_lag=2)
        assert res.frequencies.counts == again.frequencies.counts


def test_analyze_ensemble_reports_all_parts():
    d = _dataset(6, names=("A", "B"), l=250)
    res = analyze_ensemble(
        d,
        EnsembleConfig(4, 80, rng_seed=0),
        SurrogateConfig(rng_seed=1, n_surrogates=30),
        max_lag=2,
    )
    assert res.full_graph.variables == ("A", "B")
    assert len(res.subsample_graphs) == 4
    assert res.frequencies.n_subsamples == 4


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


def test_frequency_tables_reject_mixed_graphs():
    a = LaggedCausalGraph(("U", "V"), (), 4, "te")
    b = LaggedCausalGraph(("U", "W"), (), 4, "te")
    with pytest.raises(VariableMismatch):
        link_frequencies([a, b])
    with pytest.raises(InvalidConfig):
        link_frequencies([])
