import numpy as np
import pytest

from robustcausal.errors import (
    InvalidConfig,
    LengthMismatch,
    SingularDesign,
    TooShort,
)
from robustcausal.granger import GrangerConfig, GrangerResult, granger_test
from robustcausal.synthetic import SystemSpec, generate
from robustcausal.timeseries import TimeSeries


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
    with pytest.raises(InvalidConfig):
        GrangerConfig(alpha=1.5)


def test_result_reports_consistent_fields():
    x, y = _driven_pair(6, lag=1)
    res = granger_test(x, y, 1, GrangerConfig())
    assert isinstance(res, GrangerResult)
    assert res.df_den > 0
    assert res.rss_full > 0.0
    assert res.link == (res.p_value < 0.05)
