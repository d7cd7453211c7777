"""Shuffle-surrogate significance testing for mutual information and
transfer entropy.

Procedure
---------
The source series is shuffled (a uniform random permutation destroying all
temporal relationships) and the statistic is recomputed for ``n_surrogates``
independent realizations. The observed value is compared against the
surrogate population with a one-sided, one-sample t-test: with surrogate
mean ``mu`` and sample standard deviation ``s``, the statistic
``(observed - mu) / s`` must exceed the Student-t critical value at the
configured confidence level (df = n_surrogates - 1).

A transfer-entropy link test is gated: TE is only computed if the mutual
information between the lag-aligned source and target is itself
significant, and by default the gate alone decides the link. An optional
second surrogate t-test on the TE statistic can be switched on for a
stricter decision. Both stages are one call of the estimator kernel
``estimators._cmi`` on the same shuffled sources: the gate is ``I(X_past;
Y_now)``, the TE stage ``I(X_past; Y_now | Y_past)``.

Determinism
-----------
Every surrogate batch draws from an RNG stream derived from the configured
seed plus the (source, target, lag) identity, so decisions are
bit-reproducible and independent of the order in which candidate links are
evaluated. A link test draws one shuffle ensemble and evaluates both MI and
TE on the same shuffled sources, exactly as a sequential by-hand procedure
would reuse its surrogate realizations.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import InvalidConfig
from .estimators import BinningSpec, _check_pair, _cmi, _te_from_codes
from .timeseries import TimeSeries, _rng

__all__ = [
    "SurrogateConfig",
    "SignificanceResult",
    "TeLinkResult",
    "te_link_test",
]

@dataclass(frozen=True)
class SurrogateConfig:
    """Settings for the surrogate significance procedure.

    By default a link decision rests on the MI gate alone and the transfer
    entropy is only computed, not itself surrogate-tested; switching
    ``te_surrogate_test`` on adds a second t-test on the TE statistic,
    which roughly squares the false-positive rate of the combined decision.
    A graph built with this config is labelled ``method`` "te".

    ``bins`` forces the bin count, else Scott's rule derives it per record;
    with ``reuse_parent_bins`` an ensemble derives it once, on the full
    record, for every window. A ``spec`` passed explicitly to ``build_graph``
    wins over ``bins``.
    """

    method: ClassVar[str] = "te"

    rng_seed: int
    n_surrogates: int = 100
    confidence: float = 0.95
    te_surrogate_test: bool = False
    bins: int | None = None
    reuse_parent_bins: bool = False

    def __post_init__(self):
        if self.n_surrogates < 2:
            raise InvalidConfig(f"n_surrogates must be >= 2, got {self.n_surrogates}")
        if not 0.0 < self.confidence < 1.0:
            raise InvalidConfig(f"confidence must be in (0, 1), got {self.confidence}")
        if self.bins is not None and self.bins < 2:
            raise InvalidConfig(f"bins must be >= 2, got {self.bins}")


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of one surrogate test."""

    observed: float
    surrogate_mean: float
    surrogate_std: float
    statistic: float
    significant: bool


@dataclass(frozen=True)
class TeLinkResult:
    """Outcome of the gated transfer-entropy link test.

    ``te`` is the observed transfer entropy when the MI gate passes and 0.0
    otherwise. ``te_test`` is None when the gate failed or the TE surrogate
    stage is switched off.
    """

    link: bool
    te: float
    mi_test: SignificanceResult
    te_test: SignificanceResult | None


def _name_key(name: str) -> int:
    """Stable 32-bit identity of a variable name for seed derivation."""
    return zlib.crc32(name.encode("utf-8"))


@lru_cache(maxsize=64)
def _t_critical(confidence: float, df: int) -> float:
    """Student-t quantile ``t.ppf(confidence, df)``, by the special
    function it wraps, so that ``scipy.stats`` is never imported.

    ``scipy.special`` is imported here, on the first cache miss, not with
    the module: it takes about half of the CLI's start-up, and
    ``generate``, ``--help`` and usage errors never need a quantile."""
    from scipy import special

    return float(special.stdtrit(df, confidence))


def _decide(observed: float, surrogates: np.ndarray, confidence: float) -> SignificanceResult:
    """One-sided, one-sample t-test of the observed value against surrogates."""
    mu = float(surrogates.mean())
    s = float(surrogates.std(ddof=1))
    if s == 0.0:
        if observed > mu:
            return SignificanceResult(observed, mu, s, math.inf, True)
        return SignificanceResult(observed, mu, s, 0.0, False)
    statistic = (observed - mu) / s
    crit = _t_critical(confidence, surrogates.size - 1)
    return SignificanceResult(observed, mu, s, statistic, statistic > crit)


def _shuffled_source_rows(cx: np.ndarray, n_rows: int, rng: np.random.Generator) -> np.ndarray:
    """n_rows independent full-length permutations of the source codes."""
    tiles = np.tile(cx, (n_rows, 1))
    rng.permuted(tiles, axis=1, out=tiles)
    return tiles


def _te_stage(
    cx: np.ndarray,
    cy: np.ndarray,
    lag: int,
    m: int,
    confidence: float,
    rows: np.ndarray,
) -> SignificanceResult:
    """Surrogate test of the transfer entropy at ``lag``.

    ``rows`` holds the same shuffled-source realizations the MI gate used,
    sliced to the aligned window.
    """
    keep = cx.size - lag
    return _decide(*_cmi(cx[:keep], cy[:keep], cy[lag:], m, rows), confidence)


def _te_link_from_codes(
    cx: np.ndarray,
    cy: np.ndarray,
    lag: int,
    m: int,
    cfg: SurrogateConfig,
    key_x: int,
    key_y: int,
) -> TeLinkResult:
    """Gated TE link decision on pre-digitized code arrays.

    One shuffle ensemble of the full source is drawn per (pair, lag) and
    shared by the MI gate and the TE test.
    """
    keep = cx.size - lag
    rng = _rng(cfg.rng_seed, key_x, key_y, lag)
    rows = _shuffled_source_rows(cx, cfg.n_surrogates, rng)[:, :keep]
    mi_res = _decide(*_cmi(cx[:keep], None, cy[lag:], m, rows), cfg.confidence)
    if not mi_res.significant:
        return TeLinkResult(False, 0.0, mi_res, None)
    if not cfg.te_surrogate_test:
        return TeLinkResult(True, _te_from_codes(cx, cy, lag, m), mi_res, None)
    te_res = _te_stage(cx, cy, lag, m, cfg.confidence, rows)
    return TeLinkResult(te_res.significant, te_res.observed, mi_res, te_res)


def te_link_test(
    x: TimeSeries, y: TimeSeries, lag: int, spec: BinningSpec, cfg: SurrogateConfig
) -> TeLinkResult:
    """Decide whether a lagged TE link from ``x`` to ``y`` is significant.

    Stage 1 tests the MI between the lag-aligned pair ``(x[t - lag], y[t])``;
    failing the gate yields ``(link=False, te=0.0)`` without computing TE.
    When the gate passes, the TE is computed and the gate alone decides,
    unless ``cfg.te_surrogate_test`` is on, in which case the same surrogate
    procedure is applied to the TE itself and that test decides.
    """
    _check_pair(x, y, lag)
    return _te_link_from_codes(
        spec.digitize(x),
        spec.digitize(y),
        lag,
        spec.bin_count,
        cfg,
        _name_key(x.name),
        _name_key(y.name),
    )
