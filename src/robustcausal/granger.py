"""Lag-specific Granger causality via nested OLS models and an F-test.

For a candidate link from x to y at lag p, the full model regresses y on an
intercept, its own lags 1..p, and the source term(s); the reduced model
drops the source term(s). Both are fitted on the identical sample window
``i in [p, l)``. In the default lagwise mode the source contributes only
``x[i - p]`` (one restriction), which localizes the test to a single lag;
cumulative mode includes ``x[i - 1] .. x[i - p]`` (p restrictions).

The test statistic is

    F = ((RSS_reduced - RSS_full) / k) / (RSS_full / (N - params_full))

with k restrictions, referred to the F(k, N - params_full) distribution;
the p-value comes from ``scipy.special.fdtrc``, the survival function
``scipy.stats.f.sf`` wraps, so ``scipy.stats`` is never imported.
``scipy.special`` itself is imported on first use, inside ``granger_test``:
it takes about half of the CLI's start-up, and ``generate``, ``--help``
and usage errors never compute a p-value.

The reduced model depends only on the target and the lag, so a caller
testing several sources against one (target, lag) fits it once with
``_reduced_rss`` and passes ``rss_reduced`` in; the result is the same
float as an unshared fit. Each model keeps its own singular-design check:
the Gram matrix of the reduced design and that of the full design must
each have a 2-norm condition number (``np.linalg.cond``) of at most
``_COND_LIMIT``, else ``SingularDesign`` is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidConfig, LengthMismatch, NonFinite, SingularDesign, TooShort
from .timeseries import TimeSeries

__all__ = ["GrangerConfig", "GrangerResult", "granger_test"]

# Gram matrices worse conditioned than this are treated as singular.
_COND_LIMIT = 1e10


@dataclass(frozen=True)
class GrangerConfig:
    """Settings for Granger link tests.

    ``lagwise`` picks the single-lag source term (the default) over the
    cumulative form. A graph built with this config is labelled ``method``
    "gc".
    """

    method: ClassVar[str] = "gc"

    alpha: float = 0.05
    lagwise: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class GrangerResult:
    """Outcome of one Granger link test."""

    f_statistic: float
    p_value: float
    link: bool
    rss_full: float
    rss_reduced: float
    df_num: int
    df_den: int


def _ols_rss(design: np.ndarray, target: np.ndarray) -> float:
    """Residual sum of squares of an OLS fit via the normal equations."""
    gram = design.T @ design
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise SingularDesign(
            f"regression design is numerically singular ({design.shape[1]} columns)"
        )
    beta = np.linalg.solve(gram, design.T @ target)
    resid = target - design @ beta
    return float(np.dot(resid, resid))


def _autoregression(yv: np.ndarray, lag: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Target ``y[lag:]`` and the columns of the reduced design: an
    intercept and the lags 1..lag of ``y``."""
    l = yv.size
    auto_cols = [yv[lag - j : l - j] for j in range(1, lag + 1)]
    return yv[lag:], [np.ones(l - lag)] + auto_cols


def _reduced_rss(yv: np.ndarray, lag: int) -> float:
    """RSS of the reduced model of ``y`` at ``lag``, shared by every source."""
    target, cols = _autoregression(yv, lag)
    return _ols_rss(np.column_stack(cols), target)


def granger_test(
    x: TimeSeries,
    y: TimeSeries,
    lag: int,
    cfg: GrangerConfig,
    rss_reduced: float | None = None,
) -> GrangerResult:
    """F-test of whether lagged x improves the autoregressive fit of y.

    ``rss_reduced`` is the reduced model's RSS from ``_reduced_rss`` on
    ``y`` at ``lag``; when None the reduced model is fitted here.
    """
    if len(x) != len(y):
        raise LengthMismatch(
            f"series lengths differ: {x.name!r} has {len(x)}, {y.name!r} has {len(y)}"
        )
    if lag < 1:
        raise InvalidConfig(f"lag must be >= 1, got {lag}")
    xv = x.values
    yv = y.values
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise NonFinite("Granger test inputs must be finite")

    l = yv.size
    p = lag
    n_eff = l - p
    if cfg.lagwise:
        source_cols = [xv[: l - p]]
    else:
        source_cols = [xv[p - j : l - j] for j in range(1, p + 1)]
    k = len(source_cols)
    params_full = 1 + p + k
    df_den = n_eff - params_full
    if df_den < 1:
        raise TooShort(
            f"length {l} leaves no residual degrees of freedom at lag {p} "
            f"({params_full} parameters, {n_eff} usable samples)"
        )

    target, reduced_cols = _autoregression(yv, p)
    if rss_reduced is None:
        rss_reduced = _ols_rss(np.column_stack(reduced_cols), target)
    rss_full = _ols_rss(np.column_stack(reduced_cols + source_cols), target)

    numerator = max(0.0, rss_reduced - rss_full) / k
    denominator = rss_full / df_den
    if denominator == 0.0:
        f_statistic = math.inf if numerator > 0.0 else 0.0
    else:
        f_statistic = numerator / denominator
    from scipy import special

    p_value = float(special.fdtrc(k, df_den, f_statistic)) if math.isfinite(f_statistic) else 0.0
    return GrangerResult(
        f_statistic=f_statistic,
        p_value=p_value,
        link=p_value < cfg.alpha,
        rss_full=rss_full,
        rss_reduced=rss_reduced,
        df_num=k,
        df_den=df_den,
    )
