import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustcausal import estimators, graph
from robustcausal.errors import (
    InvalidConfig,
    LagTooLarge,
    UnknownFormat,
    VariableMismatch,
)
from robustcausal.estimators import BinningSpec
from robustcausal.graph import (
    CausalLink,
    LaggedCausalGraph,
    build_graph,
    candidate_keys,
    evaluate_candidates,
    export_graph,
    import_graph,
)
from robustcausal.ensemble import EnsembleConfig, analyze_ensemble
from robustcausal.granger import GrangerConfig, GrangerResult
from robustcausal.significance import SurrogateConfig, te_link_test
from robustcausal.timeseries import Dataset, TimeSeries


def _series(name, values):
    return TimeSeries(name, np.asarray(values, dtype=float))


def _noise_dataset(seed, names=("A", "B", "C"), l=200):
    rng = np.random.default_rng(seed)
    return Dataset(tuple(_series(n, rng.normal(size=l)) for n in names))


def _graph(links, variables=("X", "Y", "Z"), max_lag=4, method="te"):
    return LaggedCausalGraph(variables, tuple(links), max_lag, method)


def test_candidate_count_is_pairs_times_lags():
    # TE and GC, the full graph and the frequency table walk one key list.
    d = _noise_dataset(0)
    keys = candidate_keys(d.names, 3)
    assert len(keys) == 3 * 2 * 3
    for test in (SurrogateConfig(rng_seed=3, n_surrogates=20), GrangerConfig()):
        decisions, statistics = evaluate_candidates(d, test, max_lag=3)
        assert decisions.dtype == bool and statistics.dtype == np.float64
        assert decisions.shape == statistics.shape == (len(keys),)
        ens = analyze_ensemble(d, EnsembleConfig(3, 60, rng_seed=1), test, max_lag=3)
        assert ens.full_graph.method == ens.robust.method == test.method
        rows = [row.split(",")[:3] for row in ens.frequencies.to_csv().splitlines()[1:]]
        assert [(s, t, int(lag)) for s, t, lag in rows] == keys


def test_build_graph_contains_planted_link():
    rng = np.random.default_rng(1)
    x = rng.normal(size=600)
    y = np.empty(600)
    y[:2] = rng.normal(size=2)
    y[2:] = x[:-2] + 0.1 * rng.normal(size=598)
    z = rng.normal(size=600)
    d = Dataset((_series("X", x), _series("Y", y), _series("Z", z)))
    g = build_graph(d, SurrogateConfig(rng_seed=5), max_lag=3)
    assert ("X", "Y", 2) in g.link_keys()
    assert g.method == "te"
    assert g.variables == ("X", "Y", "Z")


def test_max_lag_guard():
    d = _noise_dataset(3, l=40)
    with pytest.raises(LagTooLarge):
        build_graph(d, SurrogateConfig(rng_seed=0), max_lag=10)
    with pytest.raises(InvalidConfig):
        build_graph(d, SurrogateConfig(rng_seed=0), max_lag=0)


def _assert_test_config_rejected(d, test):
    with pytest.raises(InvalidConfig):
        build_graph(d, test, max_lag=2)
    with pytest.raises(InvalidConfig):
        analyze_ensemble(d, EnsembleConfig(3, 60, rng_seed=1), test, max_lag=2)


def test_te_graph_requires_surrogate_config():
    # A missing test config is rejected, not defaulted.
    _assert_test_config_rejected(_noise_dataset(2), None)


def test_unknown_method_rejected():
    # Method names and objects that are not test configs pick no method.
    d = _noise_dataset(4)
    for test in ("te", "gc", "magic", GrangerResult(1.0, False, 1.0, 1.0, 1, 10)):
        _assert_test_config_rejected(d, test)


def test_granger_test_refuses_a_binning_spec():
    # A Granger test bins nothing: a spec handed to it would be dropped.
    d = _noise_dataset(5)
    spec = BinningSpec.from_dataset(d)
    with pytest.raises(InvalidConfig, match="Granger"):
        evaluate_candidates(d, GrangerConfig(), 2, spec=spec)
    with pytest.raises(InvalidConfig, match="Granger"):
        build_graph(d, GrangerConfig(), 2, spec=spec)


def test_graph_validation_rules():
    link = CausalLink("X", "Y", 1, 0.5)
    with pytest.raises(InvalidConfig):
        _graph([CausalLink("X", "X", 1, 0.5)])
    with pytest.raises(VariableMismatch):
        _graph([CausalLink("X", "Q", 1, 0.5)])
    with pytest.raises(InvalidConfig):
        _graph([CausalLink("X", "Y", 9, 0.5)])
    with pytest.raises(InvalidConfig):
        _graph([link, CausalLink("X", "Y", 1, 0.7)])
    with pytest.raises(InvalidConfig):
        _graph([link], max_lag=0)
    with pytest.raises(InvalidConfig):
        LaggedCausalGraph(("X", "X"), (), 2, "te")


def test_json_round_trip_lossless():
    g = _graph(
        [
            CausalLink("X", "Y", 3, 0.123456789012345),
            CausalLink("Z", "X", 1, 2.5e-17),
        ]
    )
    back = import_graph(export_graph(g, "json"))
    assert back.variables == g.variables
    assert back.max_lag == g.max_lag
    assert back.method == g.method
    assert back.link_keys() == g.link_keys()
    strengths = {(l.source, l.target, l.lag): l.strength for l in back.links}
    for l in g.links:
        assert strengths[(l.source, l.target, l.lag)] == l.strength


def test_dot_output_shape():
    g = _graph([CausalLink("X", "Y", 3, 0.4)])
    dot = export_graph(g, "dot")
    assert 'X -> Y [label="lag 3"]' in dot
    assert dot.startswith("digraph")


def test_dot_quotes_awkward_names():
    g = LaggedCausalGraph(
        ("soil moisture", "rain"),
        (CausalLink("rain", "soil moisture", 1, 0.9),),
        2,
        "te",
    )
    dot = export_graph(g, "dot")
    assert 'rain -> "soil moisture" [label="lag 1"]' in dot


def test_unknown_format_rejected():
    g = _graph([])
    for fmt in ("yaml", "csv"):
        with pytest.raises(UnknownFormat):
            export_graph(g, fmt)
    with pytest.raises(UnknownFormat):
        import_graph("this is not json")
    with pytest.raises(UnknownFormat):
        import_graph('{"variables": ["X"]}')
    good = json.loads(export_graph(_graph([CausalLink("X", "Y", 1, 0.5)]), "json"))
    # Each value below has the wrong JSON type; a lenient reader would turn
    # most of them into a valid graph ("false" into True, 1.9 into 1).
    wrong_top = {"max_lag": ["two", 2.9, True], "variables": ["XY", ["X", "Y", 3]],
                 "method": [1], "links": [good["links"][0]]}
    wrong_link = {"lag": ["x", 1.9, True], "strength": ["0.5", True, None],
                  "significant": ["false", 1], "source": [0], "target": [None]}
    malformed = []
    for key, values in wrong_top.items():
        malformed += [{**good, key: v} for v in values]
    for key, values in wrong_link.items():
        malformed += [{**good, "links": [{**good["links"][0], key: v}]} for v in values]
    for bad in malformed:
        with pytest.raises(UnknownFormat):
            import_graph(json.dumps(bad))
    assert import_graph(json.dumps(good)) == _graph([CausalLink("X", "Y", 1, 0.5)])


_NAMES = st.one_of(
    st.sampled_from(["soil moisture", 'say "hi"', "a,b", "Größe", "温度", ""]),
    st.text(max_size=5),
)


@st.composite
def _graphs(draw):
    variables = tuple(draw(st.lists(_NAMES, min_size=2, max_size=4, unique=True)))
    max_lag = draw(st.integers(1, 3))
    keys = draw(st.lists(st.sampled_from(candidate_keys(variables, max_lag)),
                         unique=True, max_size=6))
    # A Granger F statistic can be inf, so strengths include both infinities.
    strengths = st.one_of(st.just(float("inf")), st.floats(allow_nan=False))
    links = tuple(CausalLink(s, t, lag, draw(strengths), draw(st.booleans()))
                  for s, t, lag in keys)
    return LaggedCausalGraph(variables, links, max_lag, draw(_NAMES))


@settings(max_examples=100, deadline=None, database=None)
@given(g=_graphs())
def test_json_round_trip_is_lossless_for_any_graph(g):
    text = export_graph(g, "json")
    back = import_graph(text)
    assert back == g
    assert export_graph(back, "json") == text


def test_links_are_stored_sorted():
    g = _graph(
        [
            CausalLink("Z", "X", 2, 0.1),
            CausalLink("X", "Y", 1, 0.2),
            CausalLink("X", "Y", 3, 0.3),
        ]
    )
    keys = [(l.source, l.target, l.lag) for l in g.links]
    assert keys == sorted(keys)


def _coupled_dataset(seed, l=120):
    """Three variables with X -> Y at lag 1 and Z independent."""
    rng = np.random.default_rng(seed)
    x, z = rng.normal(size=l), rng.normal(size=l)
    y = np.concatenate(([0.0], 0.8 * x[:-1])) + 0.5 * rng.normal(size=l)
    return Dataset((_series("X", x), _series("Y", y), _series("Z", z)))


@settings(max_examples=12, deadline=None, database=None)
@given(seed=st.integers(0, 2**16), order=st.permutations([0, 1, 2]))
def test_graph_does_not_depend_on_column_order(seed, order):
    d = _coupled_dataset(seed)
    shuffled = Dataset(tuple(d.series[i] for i in order))
    for test in (SurrogateConfig(rng_seed=seed, n_surrogates=10), GrangerConfig()):
        g = build_graph(d, test, max_lag=2)
        assert build_graph(shuffled, test, max_lag=2).links == g.links
        # the vote row, mapped by candidate key, is the same cell for cell
        row = _row_by_key(d, test, 2)
        assert _row_by_key(shuffled, test, 2) == row
        # and the graph holds exactly its kept cells, with their statistics
        kept = {key: cell for key, cell in row.items() if cell[0]}
        assert {(l.source, l.target, l.lag): (True, np.float64(l.strength).tobytes())
                for l in g.links} == kept
        assert all(type(l.strength) is float for l in g.links)


def _row_by_key(d, test, max_lag):
    """``evaluate_candidates``' row as {key: (decision, statistic bytes)}."""
    decisions, statistics = evaluate_candidates(d, test, max_lag)
    return {key: (bool(kept), statistic.tobytes())
            for key, kept, statistic in zip(candidate_keys(d.names, max_lag), decisions,
                                            statistics, strict=True)}


def _chain_dataset(seed, k, l):
    """``k`` variables, each driven by the one before it at lag 1."""
    rng = np.random.default_rng(seed)
    columns = [rng.normal(size=l)]
    for _ in range(k - 1):
        driven = np.concatenate(([0.0], 0.9 * columns[-1][:-1]))
        columns.append(driven + 0.3 * rng.normal(size=l))
    return Dataset(tuple(_series(name, c) for name, c in zip("ABCD", columns)))


def _result_bits(res):
    """A link test's decision, TE bits, and each stage's floats and rows."""
    tests = [res.mi_test] + ([res.te_test] if res.te_test is not None else [])
    floats = [(t.observed, t.surrogate_mean, t.surrogate_std, t.statistic) for t in tests]
    return (res.link, np.float64(res.te).tobytes(),
            [(np.array(f).tobytes(), t.significant, t.rows) for f, t in zip(floats, tests)])


@settings(max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**16),
    k=st.sampled_from([2, 4]),
    stage=st.booleans(),
    bins=st.sampled_from([None, 5, 19]),
    budget=st.sampled_from([None, 250]),
)
def test_record_prologue_cells_equal_the_single_link_test(seed, k, stage, bins, budget):
    # evaluate_candidates computes each record's shared link-test work once
    # (scaled source codes, the gate's and the stage's given sides, the
    # observed marginals); te_link_test builds them for one pair and lag.
    # At m = 19 a stage row has 6,859 cells, so the stage counts each bank
    # chunk of 12 or 16 rows in parts of 9; a budget of 250 cells splits
    # the gate's chunks too.
    d = _chain_dataset(seed, k, 160)
    cfg = SurrogateConfig(rng_seed=seed, n_surrogates=40, te_surrogate_test=stage, bins=bins)
    spec = BinningSpec.from_dataset(d, bin_count=bins)
    recorded = []
    link_test = graph._te_link_from_codes

    def recording(*args):
        recorded.append(link_test(*args))
        return recorded[-1]

    with mock.patch.object(graph, "_te_link_from_codes", recording), \
            mock.patch.object(estimators, "_BATCH_CELL_BUDGET",
                              budget or estimators._BATCH_CELL_BUDGET):
        decisions, statistics = evaluate_candidates(d, cfg, 2)
        keys = candidate_keys(d.names, 2)
        singles = [te_link_test(d.get(s), d.get(t), lag, spec, cfg) for s, t, lag in keys]
    assert len(recorded) == len(keys)
    for i, (res, single) in enumerate(zip(recorded, singles)):
        assert _result_bits(res) == _result_bits(single)
        assert (decisions[i], statistics[i].tobytes()) == (
            single.link, np.float64(single.te).tobytes())
    # every record's driven lag-1 links pass the gate, so the stage runs
    assert any(res.te_test is not None for res in singles) == stage
