from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from robustcausal import granger, graph
from robustcausal._critical import f_bracket

from robustcausal.errors import (
    InvalidConfig,
    LagTooLarge,
    LengthMismatch,
    SingularDesign,
    TooShort,
)
from robustcausal.granger import GrangerConfig, GrangerResult, granger_test
from robustcausal.graph import candidate_keys, evaluate_candidates
from robustcausal.synthetic import SystemSpec, generate
from robustcausal.timeseries import Dataset, TimeSeries


def _series(name, values):
    return TimeSeries(name, np.asarray(values, dtype=float))


def _driven_pair(seed, l=500, lag=1, gain=0.9):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=l)
    y = np.zeros(l)
    for t in range(l):
        y[t] = 0.3 * y[t - 1] + 0.2 * rng.normal()
        if t >= lag:
            y[t] += gain * x[t - lag]
    return _series("x", x), _series("y", y)


def _reference_rss(x, y, lag, lagwise):
    """RSS of the reduced and the full model of one candidate, each fitted
    alone by the 2-D normal equations; None for a design whose Gram is
    worse conditioned than the limit."""
    l = y.size
    target = y[lag:]
    reduced = [np.ones(l - lag)] + [y[lag - j : l - j] for j in range(1, lag + 1)]
    source = [x[lag - j : l - j] for j in range(lag if lagwise else 1, lag + 1)]

    def rss(columns):
        design = np.column_stack(columns)
        gram = design.T @ design
        if np.linalg.cond(gram) > granger._COND_LIMIT:
            return None
        resid = target - design @ np.linalg.solve(gram, design.T @ target)
        return float(np.dot(resid, resid))

    return rss(reduced), rss(reduced + source)


def _hex(rss):
    return tuple(None if r is None else r.hex() for r in rss)


def test_detects_strong_lagged_driver():
    x, y = _driven_pair(0, lag=1)
    res = granger_test(x, y, 1, GrangerConfig())
    assert res.link
    assert res.p_value < 1e-20
    assert res.f_statistic > 100.0


def test_lag_resolution_prefers_true_lag():
    x, y = _driven_pair(1, lag=3)
    cfg = GrangerConfig()
    at_true = granger_test(x, y, 3, cfg)
    at_wrong = granger_test(x, y, 2, cfg)
    assert at_true.link
    assert at_true.f_statistic > at_wrong.f_statistic


def test_restricted_model_never_beats_full():
    rng = np.random.default_rng(2)
    for trial in range(20):
        x = _series("x", rng.normal(size=120))
        y = _series("y", rng.normal(size=120))
        res = granger_test(x, y, 2, GrangerConfig())
        assert res.rss_full <= res.rss_reduced + 1e-9
        assert 0.0 <= res.p_value <= 1.0


def test_null_rate_close_to_alpha():
    hits = 0
    n = 200
    for trial in range(n):
        rng = np.random.default_rng([77, trial])
        x = _series("x", rng.normal(size=300))
        y = _series("y", rng.normal(size=300))
        hits += granger_test(x, y, 1, GrangerConfig()).link
    # alpha 0.05: 3 binomial standard errors around 10 hits is about [3, 20]
    assert 2 <= hits <= 22


def test_lagwise_and_cumulative_modes_differ():
    x, y = _driven_pair(3, lag=2)
    lw = granger_test(x, y, 2, GrangerConfig(lagwise=True))
    cm = granger_test(x, y, 2, GrangerConfig(lagwise=False))
    assert lw.df_num == 1
    assert cm.df_num == 2
    assert lw.link and cm.link


def test_system_coupling_found_at_documented_lag():
    d, _ = generate(SystemSpec(kind="B", length=1000, rng_seed=29))
    res = granger_test(d.get("X"), d.get("W"), 1, GrangerConfig())
    assert res.link
    assert res.p_value < 1e-10


def test_singular_design_rejected():
    t = np.arange(60.0)
    x = _series("x", t)
    y = _series("y", 2.0 * t + 1.0)
    with pytest.raises(SingularDesign):
        granger_test(x, y, 1, GrangerConfig())


def test_too_short_sample_rejected():
    # lag 4 needs 1 + 4 + 1 parameters plus one residual degree of freedom
    x = _series("x", np.arange(10.0))
    y = _series("y", np.arange(10.0) ** 1.5)
    with pytest.raises(TooShort):
        granger_test(x, y, 4, GrangerConfig())


def test_argument_validation():
    x = _series("x", np.random.default_rng(4).normal(size=50))
    y = _series("y", np.random.default_rng(5).normal(size=50))
    with pytest.raises(InvalidConfig):
        granger_test(x, y, 0, GrangerConfig())
    with pytest.raises(LengthMismatch):
        granger_test(x, _series("y", np.arange(49.0)), 1, GrangerConfig())
    with pytest.raises(LagTooLarge):  # as in the TE tests, not TooShort
        granger_test(x, y, 50, GrangerConfig())
    with pytest.raises(InvalidConfig):
        GrangerConfig(alpha=1.5)


def test_result_reports_consistent_fields():
    x, y = _driven_pair(6, lag=1)
    res = granger_test(x, y, 1, GrangerConfig())
    assert isinstance(res, GrangerResult)
    assert res.df_den > 0
    assert res.rss_full > 0.0
    assert res.link == (res.p_value < 0.05)


def test_p_value_equals_scipy_stats_f_survival():
    # F from ~0 (gain 0) to huge (gain 1) at residual df from 5 to 494
    for l in (12, 30, 100, 500):
        for gain in (0.0, 0.05, 0.2, 1.0):
            for seed, lag in enumerate((1, 2, 3)):
                x, y = _driven_pair(seed, l=l, lag=lag, gain=gain)
                for lagwise in (True, False):
                    res = granger_test(x, y, lag, GrangerConfig(lagwise=lagwise))
                    want = float(stats.f.sf(res.f_statistic, res.df_num, res.df_den))
                    assert res.p_value == want, (l, gain, lag, lagwise)


def test_f_bracket_holds_the_scipy_critical_value():
    # fdtrc falls through alpha inside the bracket: above it every F is a
    # link by scipy's p-value, at or below it none is
    for k in range(1, 9):
        for df in list(range(5, 60)) + list(range(60, 1001, 10)):
            for alpha in (0.01, 0.025, 0.05, 0.075, 0.1):
                lo, hi = f_bracket(k, df, alpha)
                assert special.fdtrc(k, df, hi) < alpha <= special.fdtrc(k, df, lo), (k, df, alpha)


@pytest.mark.parametrize("k, df, alpha", [(1, 195, 0.05), (4, 191, 0.05), (2, 994, 0.01),
                                          (8, 5, 0.1)])
def test_f_at_the_scipy_critical_value_decides_as_scipy(monkeypatch, k, df, alpha):
    crit = float(stats.f.isf(alpha, k, df))
    lo, hi = f_bracket(k, df, alpha)
    # the critical value and its neighbours lie inside the band, where the
    # p-value decides
    for f in (np.nextafter(crit, -np.inf), crit, np.nextafter(crit, np.inf)):
        assert lo < f < hi
        assert granger._f_link(k, df, float(f), alpha) == (special.fdtrc(k, df, f) < alpha)
    # outside the band the bracket decides alone
    monkeypatch.setattr(granger, "_p_value", None)
    assert granger._f_link(k, df, hi * (1 + 1e-12), alpha)
    assert not granger._f_link(k, df, lo, alpha)


@pytest.mark.parametrize("lagwise", [True, False], ids=["lagwise", "cumulative"])
def test_shared_reduced_fit_matches_unshared_tests(lagwise):
    d, _ = generate(SystemSpec(kind="B", length=400, rng_seed=8))
    cfg = GrangerConfig(lagwise=lagwise)
    for data in (d, d.window(50, 200)):
        keys = candidate_keys(data.names, 4)
        decisions, statistics = evaluate_candidates(data, cfg, max_lag=4)
        assert decisions.shape == statistics.shape == (len(keys),)
        for (src, tgt, lag), kept, statistic in zip(keys, decisions, statistics):
            alone = granger_test(data.get(src), data.get(tgt), lag, cfg)
            assert statistic.hex() == alone.f_statistic.hex(), (src, tgt, lag)
            assert kept == alone.link, (src, tgt, lag)


def test_shared_reduced_fit_keeps_singular_design_errors():
    rng = np.random.default_rng(9)
    noise, flat = _series("X", rng.normal(size=80)), _series("F", np.full(80, 2.5))
    # flat target: the shared reduced fit (2 columns) raises at the first
    # candidate, X -> F at lag 1; flat source: the full fit (3 columns)
    # raises at F -> X at lag 1
    cases = ((Dataset((noise, flat)), "X", "F", "(2 columns)"),
             (Dataset((flat, noise)), "F", "X", "(3 columns)"))
    for d, src, tgt, columns in cases:
        with pytest.raises(SingularDesign) as alone:
            granger_test(d.get(src), d.get(tgt), 1, GrangerConfig())
        with pytest.raises(SingularDesign) as shared:
            evaluate_candidates(d, GrangerConfig(), max_lag=2)
        assert str(shared.value) == str(alone.value)
        assert columns in str(shared.value)


@settings(max_examples=60, deadline=None, database=None)
@given(
    kinds=st.lists(st.sampled_from(("noise", "noise", "noise", "flat", "collinear", "near")),
                   min_size=2, max_size=4),
    length=st.integers(30, 300),
    lag_share=st.floats(0.0, 1.0),
    lagwise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    stack_cap=st.sampled_from([1, granger._STACK_ELEMENT_CAP]),
)
# a flat or collinear variable in the middle of the stacks
@example(kinds=["noise", "flat", "noise"], length=80, lag_share=0.2, lagwise=True, seed=3,
         stack_cap=granger._STACK_ELEMENT_CAP)
@example(kinds=["noise", "noise", "collinear", "noise"], length=120, lag_share=0.1,
         lagwise=False, seed=4, stack_cap=granger._STACK_ELEMENT_CAP)
@example(kinds=["noise", "collinear", "noise", "noise"], length=200, lag_share=0.0,
         lagwise=True, seed=5, stack_cap=1)
def test_stacked_fits_match_unshared_tests(kinds, length, lag_share, lagwise, seed, stack_cap):
    # evaluate_candidates fits each lag's models in stacks (one full model
    # a stack at stack_cap 1); a loop of unshared tests must give the same
    # strengths and decisions, or the same SingularDesign at the same
    # candidate. Each unshared test must in turn match the 2-D reference
    # fit: the same RSS floats, and SingularDesign exactly where the
    # reference finds an ill-conditioned design, naming its column count.
    # "collinear" is an affine copy of the previous variable's noise (the
    # last one's for V0), so with a "noise" there it makes a singular full
    # design; "near" adds a little noise, for condition numbers about the
    # limit.
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(len(kinds), length))
    values = {"noise": lambda i: noise[i], "flat": lambda i: np.full(length, 1.5),
              "collinear": lambda i: 2.5 * noise[i - 1] - 1.0,
              "near": lambda i: 2.5 * noise[i - 1] - 1.0 + 1e-4 * noise[i]}
    d = Dataset(tuple(_series(f"V{i}", values[kind](i)) for i, kind in enumerate(kinds)))
    max_lag = 1 + round(lag_share * ((length - 1) // 4 - 1))
    cfg = GrangerConfig(lagwise=lagwise)

    expected, failure = [], None
    for src, tgt, lag in candidate_keys(d.names, max_lag):
        want = _reference_rss(d.get(src).values, d.get(tgt).values, lag, lagwise)
        try:
            res = granger_test(d.get(src), d.get(tgt), lag, cfg)
        except SingularDesign as exc:
            columns = 1 + lag if want[0] is None else 1 + lag + (1 if lagwise else lag)
            assert None in want and str(exc).endswith(f"({columns} columns)"), (want, exc)
            failure = (src, tgt, lag), str(exc)
            break
        assert _hex((res.rss_reduced, res.rss_full)) == _hex(want), (src, tgt, lag)
        expected.append((res.f_statistic.hex(), res.link))

    with mock.patch.object(graph, "granger_test", wraps=granger_test) as spy, \
            mock.patch.object(granger, "_STACK_ELEMENT_CAP", stack_cap):
        if failure is None:
            decisions, statistics = evaluate_candidates(d, cfg, max_lag)
            assert [(s.hex(), bool(k)) for s, k in zip(statistics, decisions)] == expected
        else:
            with pytest.raises(SingularDesign) as raised:
                evaluate_candidates(d, cfg, max_lag)
            assert str(raised.value) == failure[1]
            x, y, lag = spy.call_args.args[:3]
            assert (x.name, y.name, lag) == failure[0]
