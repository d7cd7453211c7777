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

Each model keeps its own singular-design check: the Gram matrix of the
reduced design and that of the full design must each have a 2-norm
condition number (``np.linalg.cond``) of at most ``_COND_LIMIT``, else
``SingularDesign`` is raised.

Stacked fits
------------
A graph tests every ordered pair of variables at each lag, and at one lag
all reduced designs share a shape, as do all full designs. ``_stacked_fits``
fits them as stacks by the normal equations: one ``np.matmul`` Gram, one
batched ``np.linalg.cond``, one batched ``np.linalg.solve`` over the designs
at or below ``_COND_LIMIT``, one stacked residual, and the RSS of each fit
by ``np.dot`` as ``_ols_rss`` takes it. Each stacked call runs the same
BLAS or LAPACK routine per design as the 2-D call, so every RSS is the
same float as an unshared fit. The caller passes them to ``granger_test``
as ``rss_reduced`` and ``rss_full``. An ill-conditioned design is left out
of the solve (an exactly singular Gram would abort the whole batch) and
passed as None, so ``granger_test`` fits it itself and raises
``SingularDesign`` at the same candidate, with the same message, as an
unshared test.
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


def _stacked_rss(designs: np.ndarray, targets: np.ndarray) -> list[float | None]:
    """``_ols_rss`` of each (design, target) pair of a stack of designs
    (fits x samples x columns) and targets (fits x samples), bit for bit;
    None for a design whose Gram is worse conditioned than ``_COND_LIMIT``."""
    gram = np.matmul(designs.transpose(0, 2, 1), designs)
    fit = np.flatnonzero(np.linalg.cond(gram) <= _COND_LIMIT)
    rss: list[float | None] = [None] * len(designs)
    if fit.size:
        x, y = designs[fit], targets[fit]
        beta = np.linalg.solve(gram[fit], np.matmul(x.transpose(0, 2, 1), y[..., None]))
        resid = y - np.matmul(x, beta)[..., 0]
        for i, r in zip(fit, resid):
            rss[i] = float(np.dot(r, r))
    return rss


# Cap on the design elements of one stack of full models (8 MB of float64);
# more (source, target) pairs are fitted in several stacks.
_STACK_ELEMENT_CAP = 1 << 20


def _stacked_fits(
    values: np.ndarray, lag: int, lagwise: bool, sources: list[int], targets: list[int]
) -> tuple[list[float | None], list[float | None]]:
    """RSS at ``lag`` of the reduced model of each row of ``values``
    (variables x samples), and of the full model of each pair
    ``(sources[i], targets[i])`` of row indices; None for an
    ill-conditioned design (see the module docstring)."""
    l = values.shape[1]
    # reduced[v] is the design of _autoregression for row v; its lag
    # columns of a source are also that source's columns in a full design
    reduced = np.empty((len(values), l - lag, 1 + lag))
    reduced[:, :, 0] = 1.0
    for j in range(1, lag + 1):
        reduced[:, :, j] = values[:, lag - j : l - j]
    y = values[:, lag:]
    first = lag if lagwise else 1
    rss_full: list[float | None] = []
    step = max(1, _STACK_ELEMENT_CAP // ((l - lag) * (2 * (1 + lag) - first)))
    for start in range(0, len(targets), step):
        t, s = targets[start : start + step], sources[start : start + step]
        full = np.concatenate((reduced[t], reduced[s, :, first:]), axis=2)
        rss_full += _stacked_rss(full, y[t])
    return _stacked_rss(reduced, y), rss_full


def _autoregression(yv: np.ndarray, lag: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Target ``y[lag:]`` and the columns of the reduced design: an
    intercept and the lags 1..lag of ``y``."""
    l = yv.size
    auto_cols = [yv[lag - j : l - j] for j in range(1, lag + 1)]
    return yv[lag:], [np.ones(l - lag)] + auto_cols


def granger_test(
    x: TimeSeries,
    y: TimeSeries,
    lag: int,
    cfg: GrangerConfig,
    rss_reduced: float | None = None,
    rss_full: float | None = None,
) -> GrangerResult:
    """F-test of whether lagged x improves the autoregressive fit of y.

    ``rss_reduced`` and ``rss_full`` are the RSS of the reduced and the
    full model from ``_stacked_fits`` on ``y`` (and ``x``) at ``lag``; a
    model given as None is fitted here.
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
    if rss_full is None:
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
