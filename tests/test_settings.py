"""Every count and level setting of the library follows one of two rules,
and every seed a third.

A count is an integer (a numpy one too, not a bool) at or above its
minimum; a level is a real number in (0, 1), or in (0, 1] for a vote
threshold, and a test's level (a confidence, an alpha) stays at least
1e-150 from 0 and 1, where its critical value is computed; a seed is an
integer of any value. A violation raises
``InvalidConfig`` naming the field, or the entry point's own type for a
value below the minimum (``DegenerateBins`` for a bin count).
"""

import math
import re

import numpy as np
import pytest

from robustcausal import evaluation
from robustcausal.cli import main
from robustcausal.ensemble import (EnsembleConfig, LinkFrequencyTable, analyze_ensemble,
                                   robust_graph)
from robustcausal.errors import DegenerateBins, InvalidConfig
from robustcausal.estimators import BinningSpec, transfer_entropy
from robustcausal.evaluation import bin_sensitivity_scan, ensemble_error_binomial, monte_carlo_rates
from robustcausal.granger import GrangerConfig, granger_test
from robustcausal.graph import (CausalLink, LaggedCausalGraph, build_graph, export_graph,
                                import_graph)
from robustcausal.significance import SurrogateConfig, te_link_test
from robustcausal.synthetic import SystemSpec, generate
from robustcausal.timeseries import Dataset, PreprocessSpec, TimeSeries, deseasonalize

_RNG = np.random.default_rng(23)
_D = Dataset(TimeSeries(name, _RNG.normal(size=60)) for name in ("X", "Y", "Z"))
_X, _Y = _D.get("X"), _D.get("Y")
_SPEC = BinningSpec.from_dataset(_D)
_TE = SurrogateConfig(rng_seed=0, n_surrogates=10)
_FREQ = LinkFrequencyTable(("X", "Y"), 1, "te", 3, {}, {})

# entry point -> (field its errors name, minimum, error below the minimum,
# the call with the setting at v, a valid value)
COUNTS = {
    "SystemSpec.length": ("length", 1, InvalidConfig,
                          lambda v: SystemSpec(kind="A", length=v, rng_seed=0), 50),
    "SystemSpec.burn_in": ("burn_in", 0, InvalidConfig,
                           lambda v: SystemSpec(kind="B", length=300, rng_seed=0, burn_in=v), 100),
    "deseasonalize": ("season period", 2, InvalidConfig, lambda v: deseasonalize(_X, v), 7),
    "PreprocessSpec": ("season period", 2, InvalidConfig,
                       lambda v: PreprocessSpec(season_period=v), 12),
    "transfer_entropy": ("lag", 1, InvalidConfig, lambda v: transfer_entropy(_X, _Y, v, _SPEC), 2),
    "te_link_test": ("lag", 1, InvalidConfig, lambda v: te_link_test(_X, _Y, v, _SPEC, _TE), 2),
    "granger_test": ("lag", 1, InvalidConfig,
                     lambda v: granger_test(_X, _Y, v, GrangerConfig()), 2),
    "build_graph": ("max_lag", 1, InvalidConfig, lambda v: build_graph(_D, GrangerConfig(), v), 2),
    "LaggedCausalGraph.max_lag": ("max_lag", 1, InvalidConfig,
                                  lambda v: LaggedCausalGraph(("X", "Y"), (), v, "te"), 2),
    "LaggedCausalGraph.link_lag": (
        "link X->Y lag", 1, InvalidConfig,
        lambda v: LaggedCausalGraph(("X", "Y"), (CausalLink("X", "Y", v, 0.5),), 4, "te"), 2),
    "monte_carlo_rates.n_trials": (
        "n_trials", 1, InvalidConfig,
        lambda v: monte_carlo_rates("bivariate-linear", [60], [1.0], v, _TE), 1),
    "monte_carlo_rates.lengths": (
        "length", 1, InvalidConfig,
        lambda v: monte_carlo_rates("bivariate-linear", [60, v], [1.0], 1, _TE), 60),
    "bin_sensitivity_scan.center_bins": (
        "center_bins", 2, InvalidConfig,
        lambda v: bin_sensitivity_scan(_D, v, 0, max_lag=1, surrogate=_TE), 3),
    "bin_sensitivity_scan.radius": (
        "radius", 0, InvalidConfig,
        lambda v: bin_sensitivity_scan(_D, 4, v, max_lag=1, surrogate=_TE), 1),
    "ensemble_error_binomial.n": ("n", 1, InvalidConfig,
                                  lambda v: ensemble_error_binomial(0.1, v, 1), 10),
    "ensemble_error_binomial.k_min": ("k_min", 1, InvalidConfig,
                                      lambda v: ensemble_error_binomial(0.1, 10, v), 9),
    "analyze_ensemble.workers": (
        "workers", 1, InvalidConfig,
        lambda v: analyze_ensemble(_D, EnsembleConfig(3, 40, rng_seed=0), GrangerConfig(),
                                   max_lag=1, workers=v), 1),
    "BinningSpec": ("bin_count", 2, DegenerateBins, lambda v: BinningSpec(v, {}), 4),
    "BinningSpec.from_dataset": ("bin_count", 2, DegenerateBins,
                                 lambda v: BinningSpec.from_dataset(_D, bin_count=v), 4),
}

# entry point -> (field, whether 1 is in the interval, the call)
LEVELS = {
    "SurrogateConfig.confidence": ("confidence", False,
                                   lambda v: SurrogateConfig(rng_seed=0, confidence=v)),
    "GrangerConfig.alpha": ("alpha", False, lambda v: GrangerConfig(alpha=v)),
    "EnsembleConfig.threshold": ("threshold", True,
                                 lambda v: EnsembleConfig(3, 100, rng_seed=0, threshold=v)),
    "robust_graph.threshold": ("threshold", True, lambda v: robust_graph(_FREQ, v)),
}

_NOT_COUNTS = [True, 2.5, np.float64(2.0), "3"]


@pytest.mark.parametrize("bad", _NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("entry", COUNTS)
def test_a_count_that_is_not_an_integer_is_refused(entry, bad):
    field, _, _, call, _ = COUNTS[entry]
    with pytest.raises(InvalidConfig, match=re.escape(f"{field} must be an integer")):
        call(bad)


@pytest.mark.parametrize("entry", COUNTS)
def test_a_count_below_its_minimum_is_refused(entry):
    field, minimum, below, call, _ = COUNTS[entry]
    with pytest.raises(below, match=re.escape(f"{field} must be >= {minimum}")):
        call(minimum - 1)


@pytest.mark.parametrize("entry", COUNTS)
def test_a_numpy_integer_count_is_accepted(entry):
    _, _, _, call, valid = COUNTS[entry]
    call(np.int64(valid))


@pytest.mark.parametrize("bad", [True, 2.5, np.float64(2.0), "3", 0.0, -0.1, float("nan")],
                         ids=repr)
@pytest.mark.parametrize("entry", LEVELS)
def test_a_level_outside_its_interval_is_refused(entry, bad):
    field, _, call = LEVELS[entry]
    with pytest.raises(InvalidConfig, match=f"{field} must be in "):
        call(bad)


@pytest.mark.parametrize("entry", LEVELS)
def test_a_level_inside_its_interval_is_accepted(entry):
    field, closed, call = LEVELS[entry]
    call(np.float64(0.5))
    if closed:
        call(1)
    else:
        with pytest.raises(InvalidConfig, match=f"{field} must be in "):
            call(1.0)


# the levels of a link test, whose critical values are computed down to a
# tail of 1e-150
TEST_LEVELS = ["SurrogateConfig.confidence", "GrangerConfig.alpha"]


@pytest.mark.parametrize("entry", TEST_LEVELS)
def test_a_test_level_at_its_floor_is_accepted(entry):
    _, _, call = LEVELS[entry]
    call(1e-150)
    call(math.nextafter(1.0, 0.0))  # the upper tail, 1.1e-16 from 1


@pytest.mark.parametrize("entry", TEST_LEVELS)
def test_a_test_level_below_its_floor_is_refused(entry):
    field, _, call = LEVELS[entry]
    for bad in (math.nextafter(1e-150, 0.0), 1e-200, 1e-300, 5e-324):
        with pytest.raises(InvalidConfig, match=re.escape(
                f"{field} must be at least 1e-150 from 0 and 1, got {bad!r}")):
            call(bad)


@pytest.mark.parametrize("flags", [["--confidence"], ["--method", "gc", "--gc-alpha"]],
                         ids=["confidence", "gc-alpha"])
def test_a_test_level_below_its_floor_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    argv = ["analyze", "--system", "B", "--length", "300", "--seed", "1", "--max-lag", "1",
            *flags, repr(math.nextafter(1e-150, 0.0)), "--out", str(out)]
    assert main(argv) == 2
    assert "must be at least 1e-150 from 0 and 1" in capsys.readouterr().err
    assert not out.exists()


def test_a_graph_refuses_a_lag_its_json_could_not_carry():
    # A bool or float lag would be exported as JSON that import_graph refuses
    # (UnknownFormat), so the graph refuses it when it is built.
    for max_lag, lag in [(True, 1), (2.0, 1), (2, True), (2, 1.0), (2, np.float64(1.0))]:
        with pytest.raises(InvalidConfig, match="lag must be an integer"):
            LaggedCausalGraph(("X", "Y"), (CausalLink("X", "Y", lag, 0.5),), max_lag, "te")
    g = LaggedCausalGraph(("X", "Y"), (CausalLink("X", "Y", 1, 0.5),), 2, "te")
    assert import_graph(export_graph(g)) == g


def test_monte_carlo_checks_every_grid_point_before_the_first_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(evaluation, "generate", lambda spec: calls.append(spec))
    with pytest.raises(InvalidConfig, match=r"length must be an integer, got 60\.5"):
        monte_carlo_rates("bivariate-linear", [100, 60.5], [1.0], 2, _TE)
    assert calls == []


def test_evaluate_with_a_zero_length_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["evaluate", "--lengths", "0", "--seed", "1", "--out", str(out)]) == 2
    assert "length must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


# entry point -> the call with its seed at v
SEEDS = {
    "SurrogateConfig": lambda v: SurrogateConfig(rng_seed=v),
    "EnsembleConfig": lambda v: EnsembleConfig(3, 40, rng_seed=v),
    "SystemSpec": lambda v: SystemSpec(kind="A", length=50, rng_seed=v),
}


@pytest.mark.parametrize("bad", [True, False, 2.5, np.float64(2.0), "3", None], ids=repr)
@pytest.mark.parametrize("entry", SEEDS)
def test_a_seed_that_is_not_an_integer_is_refused(entry, bad):
    # int() of a float or bool seed would quietly reuse the stream of another
    with pytest.raises(InvalidConfig, match=re.escape("rng_seed must be an integer")):
        SEEDS[entry](bad)


@pytest.mark.parametrize("entry", SEEDS)
def test_a_numpy_integer_seed_is_accepted(entry):
    assert SEEDS[entry](np.int64(7)) == SEEDS[entry](7)


@pytest.mark.parametrize("seed, key", [(2, 2), (np.uint32(2), 2), (-1, 2**32 - 1)], ids=repr)
def test_a_valid_seed_derives_the_same_streams(seed, key):
    d, _ = generate(SystemSpec(kind="A", length=20, rng_seed=seed))
    for i, s in enumerate(d.series):
        assert s.values.tobytes() == np.random.default_rng([key, i]).standard_normal(20).tobytes()


@pytest.mark.parametrize("bad", [True, False, "0.5", None], ids=repr)
def test_a_binomial_rate_that_is_not_a_number_is_refused(bad):
    with pytest.raises(InvalidConfig, match=re.escape("per-subsample rate must be in [0, 1]")):
        ensemble_error_binomial(bad, 10, 9)


def test_a_graph_with_numpy_integer_lags_exports_plain_json():
    g = LaggedCausalGraph(("X", "Y"), (CausalLink("X", "Y", np.int64(1), 0.5),), np.int64(2), "te")
    plain = LaggedCausalGraph(("X", "Y"), (CausalLink("X", "Y", 1, 0.5),), 2, "te")
    assert export_graph(g) == export_graph(plain)
    assert import_graph(export_graph(g)) == plain


def test_a_numpy_trial_count_writes_plain_rates():
    curve = monte_carlo_rates("bivariate-linear", [np.int64(60)], [1.0], np.int64(2), _TE)
    assert curve.to_csv() == monte_carlo_rates("bivariate-linear", [60], [1.0], 2, _TE).to_csv()
    assert "np." not in curve.to_csv()
    assert type(curve.points[0].fnr) is float and type(curve.points[0].n_trials) is int
