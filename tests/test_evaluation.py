import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from robustcausal import significance
from robustcausal._critical import binomial_tail
from robustcausal.errors import InvalidConfig
from robustcausal.estimators import BinningSpec
from robustcausal.evaluation import (
    bin_sensitivity_scan,
    ensemble_error_binomial,
    jaccard_links,
    monte_carlo_rates,
)
from robustcausal.graph import CausalLink, LaggedCausalGraph
from robustcausal.significance import SurrogateConfig
from robustcausal.synthetic import SystemSpec, generate


def _graph(links, variables=("X", "Y", "Z"), max_lag=4):
    return LaggedCausalGraph(variables, tuple(links), max_lag, "te")


def test_binomial_error_closed_form_value():
    # n=10, per-subsample rate 0.1, at least 9 wrong:
    # 10 * 0.1**9 * 0.9 + 0.1**10 = 9.1e-9
    got = ensemble_error_binomial(0.1, 10, 9)
    assert got == pytest.approx(9.1e-9, rel=1e-12)


def test_binomial_error_half_rate_value():
    # all 2**10 outcomes equally likely: (10 + 1) / 1024
    got = ensemble_error_binomial(0.5, 10, 9)
    assert got == pytest.approx(11.0 / 1024.0, rel=1e-12)


def test_binomial_error_edge_cases():
    assert ensemble_error_binomial(0.0, 10, 9) == 0.0
    assert ensemble_error_binomial(1.0, 10, 9) == 1.0
    # k_min = 1 is "any subsample errs at all"
    got = ensemble_error_binomial(0.3, 10, 1)
    assert got == pytest.approx(1.0 - 0.7**10, rel=1e-12)


def test_binomial_error_large_n_does_not_overflow():
    # by symmetry at e_s = 1/2: P(at least n/2 of n) = 1/2 + C(n, n/2) / 2**(n + 1)
    got = ensemble_error_binomial(0.5, 1100, 550)
    assert got == pytest.approx(0.5 + math.comb(1100, 550) / 2**1101, rel=1e-12)
    far_tail = sum(math.comb(1100, i) for i in range(900, 1101)) / 2**1100
    assert ensemble_error_binomial(0.5, 1100, 900) == pytest.approx(far_tail, rel=1e-12)


def test_binomial_error_monotone_in_subsample_rate():
    grid = np.linspace(0.0, 1.0, 100)
    values = [ensemble_error_binomial(e, 10, 9) for e in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_binomial_error_below_single_subsample_rate():
    for e in np.linspace(0.0, 0.8, 81):
        assert ensemble_error_binomial(e, 10, 9) <= e + 1e-15


def test_binomial_miss_is_complement():
    # A true link each window misses with probability e is dropped by the
    # vote when fewer than k of 10 windows detect it.
    for e in (0.05, 0.2, 0.5, 0.77):
        for k in (1, 5, 9, 10):
            miss = sum(math.comb(10, i) * (1 - e) ** i * e ** (10 - i) for i in range(k))
            assert miss == pytest.approx(
                1.0 - ensemble_error_binomial(1.0 - e, 10, k), rel=1e-9
            )


def test_binomial_tail_matches_scipy_bdtrc():
    # every k of every n up to 100 and of every 31st n to 1100 (summed
    # C(n, i) terms overflow from 1030); bound fixed before the first run:
    # 1e-11 relative where bdtrc is above 1e-100, below it both under 1e-99
    ns = list(range(1, 101)) + list(range(101, 1101, 31)) + [1029, 1030, 1100]
    ps = (0.0, 1e-12, 1e-6, 0.001, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999, 1 - 1e-9, 1.0)
    for n in ns:
        k = np.arange(1, n + 1)
        for p in ps:
            want = special.bdtrc(k - 1, n, p)
            got = np.array([binomial_tail(int(i), n, p) for i in k])
            big = want > 1e-100
            assert np.all(np.abs(got - want)[big] <= 1e-11 * want[big]), (n, p)
            assert np.all(got[~big] < 1e-99) and np.all(want[~big] < 1e-99), (n, p)
    assert binomial_tail(3, 10, 0.0) == 0.0 and binomial_tail(3, 10, 1.0) == 1.0


def test_binomial_validation():
    with pytest.raises(InvalidConfig):
        ensemble_error_binomial(-0.1, 10, 9)
    with pytest.raises(InvalidConfig):
        ensemble_error_binomial(0.1, 0, 0)
    with pytest.raises(InvalidConfig):
        ensemble_error_binomial(0.1, 10, 11)
    with pytest.raises(InvalidConfig):
        ensemble_error_binomial(0.1, 10, 0)


def test_jaccard_edge_cases():
    empty = _graph([])
    assert jaccard_links(empty, empty) == 1.0
    a = _graph([CausalLink("X", "Y", 1, 0.5)])
    b = _graph([CausalLink("Y", "X", 1, 0.5)])
    assert jaccard_links(a, b) == 0.0
    c = _graph([CausalLink("X", "Y", 1, 0.5), CausalLink("Y", "X", 1, 0.5)])
    assert jaccard_links(a, c) == pytest.approx(0.5)
    assert jaccard_links(a, a) == 1.0


def test_monte_carlo_smoke_and_csv():
    curve = monte_carlo_rates(
        "bivariate-linear", [60], [1.0], 4, SurrogateConfig(rng_seed=0, n_surrogates=20)
    )
    assert curve.kind == "bivariate-linear"
    p = curve.point(60, 1.0)
    assert 0.0 <= p.fnr <= 1.0
    assert 0.0 <= p.fpr <= 1.0
    assert p.n_trials == 4
    header = curve.to_csv().splitlines()[0]
    assert header == "data_length,m_over_eps,fnr,fpr,n_trials"
    with pytest.raises(KeyError):
        curve.point(61, 1.0)


def test_monte_carlo_rejects_unknown_kind():
    # Only the full bivariate kind names are accepted; the CLI's --kind
    # maps its short spellings before calling.
    for kind in ("cubic", "linear", "nonlinear", "B"):
        with pytest.raises(InvalidConfig):
            monte_carlo_rates(kind, [60], [1.0], 2, SurrogateConfig(rng_seed=0))


def test_strong_signal_beats_weak_signal():
    weak, strong = monte_carlo_rates(
        "bivariate-linear", [400], [0.2, 3.0], 30, SurrogateConfig(rng_seed=5, n_surrogates=40)
    ).points
    assert weak.fnr > strong.fnr


def test_te_stage_setting_reaches_the_trials():
    # The TE stage reuses the gate's bank, so a stage link implies a gate
    # link: with the stage on, no point misses less or fires more often.
    gate = SurrogateConfig(rng_seed=4, n_surrogates=30)
    args = ("bivariate-linear", [80, 300], [0.2, 0.5], 10)
    loose = monte_carlo_rates(*args, gate).points
    strict = monte_carlo_rates(*args, replace(gate, te_surrogate_test=True)).points
    assert all(s.fnr >= g.fnr and s.fpr <= g.fpr for g, s in zip(loose, strict))
    assert strict != loose


def test_forced_bins_reach_every_trial(monkeypatch):
    link_test = significance._te_link_from_codes
    bin_counts = []

    def recorded(cx, cy, lag, n_bins, *args):
        bin_counts.append(n_bins)
        return link_test(cx, cy, lag, n_bins, *args)

    monkeypatch.setattr(significance, "_te_link_from_codes", recorded)
    sur = SurrogateConfig(rng_seed=2, n_surrogates=10, bins=7)
    monte_carlo_rates("bivariate-linear", [60, 90], [0.5, 1.0], 3, sur)
    assert bin_counts == [7] * (2 * 2 * 3 * 2)  # lengths x ratios x trials x lags


def test_trials_compute_no_te_and_digitize_each_series_once(monkeypatch):
    def refused(*args):
        raise AssertionError("a trial computed a TE it never reads")

    digitize = BinningSpec.digitize
    digitized = []

    def counted(self, s):
        digitized.append(s.name)
        return digitize(self, s)

    monkeypatch.setattr(significance, "_te_from_codes", refused)
    monkeypatch.setattr(BinningSpec, "digitize", counted)
    for kind in ("bivariate-linear", "bivariate-nonlinear"):
        digitized.clear()
        curve = monte_carlo_rates(kind, [60, 300], [0.5, 3.0], 3,
                                  SurrogateConfig(rng_seed=2, n_surrogates=20))
        assert digitized == ["X", "Y"] * (2 * 2 * 3)
        assert curve.point(300, 3.0).fnr == 0.0  # gates passed, and no TE was read


def test_bin_sensitivity_scan_shape():
    d, _ = generate(SystemSpec(kind="B", length=400, rng_seed=3))
    rep = bin_sensitivity_scan(
        d, 6, 1, max_lag=2, surrogate=SurrogateConfig(rng_seed=1, n_surrogates=30)
    )
    assert rep.center_bins == 6
    assert sorted(rep.graphs) == [5, 6, 7]
    assert rep.jaccard[6] == 1.0
    assert rep.stable() == all(v == 1.0 for v in rep.jaccard.values())
