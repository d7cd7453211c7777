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
stricter decision.

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
from scipy import special

from .errors import InvalidConfig, LagTooLarge, LengthMismatch
from .estimators import BinningSpec, _entropy_bits, _entropy_bits_rows, _joint_counts, _te_from_codes
from .timeseries import TimeSeries, _rng

__all__ = [
    "SurrogateConfig",
    "SignificanceResult",
    "TeLinkResult",
    "te_link_test",
]

# Cap on surrogate-batch histogram cells held at once; larger batches are
# processed in row chunks to bound memory.
_BATCH_CELL_BUDGET = 30_000_000


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
    function it wraps, so that ``scipy.stats`` is never imported."""
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


def _mi_stage(
    a: np.ndarray,
    c: np.ndarray,
    m: int,
    confidence: float,
    rows: np.ndarray,
) -> SignificanceResult:
    """Surrogate test of the MI between aligned code arrays ``a`` and ``c``.

    ``rows`` holds the pre-shuffled source realizations, already sliced to
    the aligned window, so the surrogate statistic is computed exactly as
    the observed one.
    """
    joint = _joint_counts([a, c], m).reshape(m, m)
    h_c = _entropy_bits(joint.sum(axis=0))
    observed = max(0.0, _entropy_bits(joint.sum(axis=1)) + h_c - _entropy_bits(joint))

    n_rows = rows.shape[0]
    offsets = (np.arange(n_rows) * (m * m))[:, None]
    flat = (rows * m + c[None, :]) + offsets
    counts = np.bincount(flat.ravel(), minlength=n_rows * m * m)
    counts = counts.reshape(n_rows, m * m)
    h_ac_s = _entropy_bits_rows(counts, c.size)
    h_a_s = _entropy_bits_rows(counts.reshape(n_rows, m, m).sum(axis=2), c.size)
    surrogates = np.maximum(0.0, h_a_s + h_c - h_ac_s)
    return _decide(observed, surrogates, confidence)


def _te_stage(
    cx: np.ndarray,
    cy: np.ndarray,
    lag: int,
    m: int,
    confidence: float,
    rows: np.ndarray,
) -> SignificanceResult:
    """Surrogate test of the transfer entropy at ``lag``.

    ``rows`` holds the same shuffled-source realizations the MI stage used,
    sliced to the aligned window.
    """
    observed = _te_from_codes(cx, cy, lag, m)
    keep = cx.size - lag
    b = cy[:keep]
    c = cy[lag:]
    joint_bc = _joint_counts([b, c], m).reshape(m, m)
    h_b = _entropy_bits(joint_bc.sum(axis=1))
    h_bc = _entropy_bits(joint_bc)
    base = b * m + c

    n_rows = rows.shape[0]
    cells = m * m * m
    chunk = max(1, min(n_rows, _BATCH_CELL_BUDGET // cells))
    surrogates = np.empty(n_rows)
    for start in range(0, n_rows, chunk):
        part = rows[start : start + chunk]
        n_part = part.shape[0]
        offsets = (np.arange(n_part) * cells)[:, None]
        flat = (part * (m * m) + base[None, :]) + offsets
        counts = np.bincount(flat.ravel(), minlength=n_part * cells)
        counts = counts.reshape(n_part, cells)
        h_abc_s = _entropy_bits_rows(counts, keep)
        h_ab_s = _entropy_bits_rows(
            counts.reshape(n_part, m, m, m).sum(axis=3).reshape(n_part, m * m), keep
        )
        surrogates[start : start + n_part] = -h_b + h_ab_s + h_bc - h_abc_s
    np.maximum(surrogates, 0.0, out=surrogates)
    return _decide(observed, surrogates, confidence)


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
    mi_res = _mi_stage(cx[:keep], cy[lag:], m, cfg.confidence, rows)
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
    if len(x) != len(y):
        raise LengthMismatch(
            f"series lengths differ: {x.name!r} has {len(x)}, {y.name!r} has {len(y)}"
        )
    if lag < 1:
        raise InvalidConfig(f"lag must be >= 1, got {lag}")
    if lag >= len(y):
        raise LagTooLarge(f"lag {lag} leaves no aligned samples for length {len(y)}")
    return _te_link_from_codes(
        spec.digitize(x),
        spec.digitize(y),
        lag,
        spec.bin_count,
        cfg,
        _name_key(x.name),
        _name_key(y.name),
    )
