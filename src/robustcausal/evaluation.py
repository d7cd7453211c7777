"""Evaluation utilities: error-rate Monte Carlo curves, the ensemble
error budget, and a bin sensitivity scan.

A graph is scored against a system's ground truth with set algebra on
``LaggedCausalGraph.link_keys()`` and ``GroundTruth.link_keys()`` /
``GroundTruth.indirect_keys()``.

Error-rate conventions
----------------------
On the bivariate benchmark (one true link X -> Y at lag 1) the false
negative rate is the fraction of trials in which the lag-1 link test does
not fire, and the false positive rate is the fraction in which the lag-2
test (a known non-link) does fire. X is i.i.d. and Y depends only on
X(t-1), so X(t-2) is independent of Y(t) and Y(t-2): the lag-2 test is an
exact null, and the false positive rate estimates the test's size
(1 - confidence). It is not expected to fall as the data length grows.

Ensemble error budget
---------------------
If one subsample analysis errs on a given link with probability ``e_s``
independently, the probability that at least ``k_min`` of ``n`` subsamples
err together is the binomial tail

    E(e_s) = sum_{i = k_min}^{n} C(n, i) e_s^i (1 - e_s)^(n - i)

which is what :func:`ensemble_error_binomial` computes. Read for a true
link missed with probability ``e_s``, ``1 - E(1 - e_s)`` is the
probability that *fewer* than ``k_min`` subsamples detect it, i.e. that
the consistency vote drops a real link.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

from . import significance
from ._choices import SYSTEM_KINDS, SYSTEM_SETTINGS
from ._critical import binomial_tail
from .errors import InvalidConfig
from .estimators import BinningSpec
from .graph import LaggedCausalGraph, build_graph
from .significance import SurrogateConfig, _name_key
from .synthetic import SystemSpec, generate
from .timeseries import Dataset, _check_count, _check_pair, _derived_seed

__all__ = [
    "ensemble_error_binomial",
    "ErrorRatePoint",
    "ErrorRateCurve",
    "monte_carlo_rates",
    "jaccard_links",
    "BinSensitivityReport",
    "bin_sensitivity_scan",
]


def ensemble_error_binomial(e_s: float, n: int, k_min: int) -> float:
    """Probability that at least ``k_min`` of ``n`` independent subsample
    analyses commit an error of per-subsample probability ``e_s``."""
    if isinstance(e_s, bool) or not isinstance(e_s, numbers.Real) or not 0.0 <= e_s <= 1.0:
        raise InvalidConfig(f"per-subsample rate must be in [0, 1], got {e_s!r}")
    _check_count("n", n, 1)
    _check_count("k_min", k_min, 1)
    if k_min > n:
        raise InvalidConfig(f"k_min must be in 1..{n}, got {k_min}")
    # by the regularized incomplete beta function: summed C(n, i) terms
    # overflow a float from n = 1030 on
    return binomial_tail(k_min, n, e_s)


@dataclass(frozen=True)
class ErrorRatePoint:
    data_length: int
    m_over_eps: float
    fnr: float
    fpr: float
    n_trials: int


@dataclass(frozen=True)
class ErrorRateCurve:
    """FNR/FPR sampled over (length, signal-to-noise ratio) grid points."""

    kind: str
    points: tuple[ErrorRatePoint, ...]

    def point(self, data_length: int, m_over_eps: float) -> ErrorRatePoint:
        for p in self.points:
            if p.data_length == data_length and p.m_over_eps == m_over_eps:
                return p
        raise KeyError((data_length, m_over_eps))

    def to_csv(self) -> str:
        lines = ["data_length,m_over_eps,fnr,fpr,n_trials"]
        for p in self.points:
            lines.append(
                f"{p.data_length},{p.m_over_eps!r},{p.fnr!r},{p.fpr!r},{p.n_trials}"
            )
        return "\n".join(lines) + "\n"


def monte_carlo_rates(
    kind: str,
    lengths: list[int],
    ratios: list[float],
    n_trials: int,
    surrogate: SurrogateConfig,
) -> ErrorRateCurve:
    """Estimate FNR and FPR of the TE link test on the bivariate benchmark.

    ``kind`` is "bivariate-linear" or "bivariate-nonlinear". Per trial a fresh sample of the
    requested length is generated with signal m = ratio and noise eps = 1,
    then the TE link test with the settings of ``surrogate``, its ``bins``
    included, runs at lag 1 (miss -> false negative) and lag 2 (fire ->
    false positive). X is i.i.d., so the lag-2 test is an exact null and
    ``fpr`` estimates the test's size, 1 - ``confidence``, at every length;
    only ``fnr`` is expected to fall with more data. Each trial digitizes X
    and Y once for both lags and reads only the decisions, so no TE is
    computed unless the TE stage is on. Trial RNG streams
    derive from (``surrogate.rng_seed``, length index, ratio index, trial),
    so single points are reproducible in isolation. Each grid point's
    ``SystemSpec`` is built, and so checked, before the first trial.
    """
    if kind not in SYSTEM_KINDS or "signal" not in SYSTEM_SETTINGS[kind]:
        raise InvalidConfig(f"kind must be a bivariate system, got {kind!r}")
    _check_count("n_trials", n_trials, 1)
    n_trials = int(n_trials)  # plain rates: a numpy count makes numpy floats
    grid = {(li, ri): SystemSpec(kind=kind, length=length, rng_seed=0, signal=ratio, noise=1.0)
            for li, length in enumerate(lengths) for ri, ratio in enumerate(ratios)}
    keys = _name_key("X"), _name_key("Y")
    lags = (1, 2)
    points = []
    for (li, ri), system in grid.items():
        misses = false_alarms = 0
        for trial in range(n_trials):
            data_seed = _derived_seed(surrogate.rng_seed, li, ri, trial, 0)
            test_seed = _derived_seed(surrogate.rng_seed, li, ri, trial, 1)
            d, _ = generate(replace(system, rng_seed=data_seed))
            spec = BinningSpec.from_dataset(d, bin_count=surrogate.bins)
            cfg = replace(surrogate, rng_seed=test_seed)
            x, y = d.get("X"), d.get("Y")
            for lag in lags:
                _check_pair(x, y, lag)
            m = spec.bin_count
            source = significance._source(spec.digitize(x), m, lags)
            target = significance._target(spec.digitize(y), m, lags)

            def fires(lag: int) -> bool:
                return significance._te_link_from_codes(source, target, lag, m, cfg, *keys).link

            misses += not fires(1)
            false_alarms += fires(2)
        points.append(ErrorRatePoint(data_length=int(system.length),
                                     m_over_eps=float(system.signal), fnr=misses / n_trials,
                                     fpr=false_alarms / n_trials, n_trials=n_trials))
    return ErrorRateCurve(kind=kind, points=tuple(points))


def jaccard_links(a: LaggedCausalGraph, b: LaggedCausalGraph) -> float:
    """Jaccard similarity of two graphs' link sets (1.0 when both empty)."""
    ka, kb = a.link_keys(), b.link_keys()
    union = ka | kb
    if not union:
        return 1.0
    return len(ka & kb) / len(union)


@dataclass(frozen=True)
class BinSensitivityReport:
    """Graphs and their similarity to the center graph across bin counts."""

    center_bins: int
    graphs: dict[int, LaggedCausalGraph]
    jaccard: dict[int, float]

    def stable(self) -> bool:
        return all(v == 1.0 for v in self.jaccard.values())


def bin_sensitivity_scan(
    d: Dataset,
    center_bins: int,
    radius: int,
    *,
    max_lag: int = 4,
    surrogate: SurrogateConfig,
) -> BinSensitivityReport:
    """Rebuild the TE graph at bin counts center - radius .. center + radius,
    each with a copy of ``surrogate`` forcing that ``bins``, and report each
    link set's Jaccard similarity to the center graph."""
    _check_count("center_bins", center_bins, 2)
    _check_count("radius", radius, 0)
    if center_bins - radius < 2:
        raise InvalidConfig(
            f"center {center_bins} with radius {radius} dips below 2 bins"
        )
    graphs = {}
    for m in range(center_bins - radius, center_bins + radius + 1):
        graphs[m] = build_graph(d, replace(surrogate, bins=m), max_lag)
    center = graphs[center_bins]
    similarity = {m: jaccard_links(center, g) for m, g in graphs.items()}
    return BinSensitivityReport(center_bins=center_bins, graphs=graphs, jaccard=similarity)
