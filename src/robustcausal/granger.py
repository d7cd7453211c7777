"""Lag-specific Granger causality via nested OLS models and an F-test.

For a candidate link from x to y at lag p, the full model regresses y on an
intercept, its own lags 1..p, and the source term(s); the reduced model
drops the source term(s). Both are fitted on the identical sample window
``i in [p, l)``. In the default lagwise mode the source contributes only
``x[i - p]`` (one restriction), which localizes the test to a single lag;
cumulative mode includes ``x[i - 1] .. x[i - p]`` (p restrictions).

The test statistic is

    F = ((RSS_reduced - RSS_full) / k) / (RSS_full / (N - params_full))

with k restrictions, referred to the F(k, N - params_full) distribution.
A link is a p-value below alpha, the p-value being ``scipy.special.fdtrc``,
the survival function ``scipy.stats.f.sf`` wraps (so ``scipy.stats`` is
never imported). The decision needs no p-value: ``_critical.f_bracket``
brackets, in pure Python, the F at which the p-value is alpha, and an F
above the bracket is a link and one at or below it is none, as the p-value
would decide. Only an F inside the bracket, within 1e-9 of the critical
value, is decided by ``fdtrc`` itself (``_f_link``). So ``scipy.special``,
which takes longer to import than the rest of the CLI's start-up, is
imported only then, or when a caller reads ``GrangerResult.p_value``.

One fit path: ``_stacked_fits`` fits every model by the normal equations,
in stacks of designs of one shape; each batched call runs the same BLAS or
LAPACK routine per design, so an RSS does not depend on its stack. A design
whose Gram has a 2-norm condition number above ``_COND_LIMIT`` is left out
of the solve (an exactly singular Gram would abort the batch) and gets an
RSS of None, on which ``granger_test`` raises ``SingularDesign`` naming the
model, its lag and its column count, the reduced model first.
``_candidate_fits`` fits a graph's candidates lag by lag; a single test
given no fits is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import ClassVar

import numpy as np

from ._critical import exceeds, f_bracket
from .errors import SingularDesign, TooShort
from .timeseries import Dataset, TimeSeries, _check_level, _check_pair

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
        _check_level("alpha", self.alpha)


@dataclass(frozen=True)
class GrangerResult:
    """Outcome of one Granger link test; ``p_value`` is computed when it is
    first read."""

    f_statistic: float
    link: bool
    rss_full: float
    rss_reduced: float
    df_num: int
    df_den: int

    @cached_property
    def p_value(self) -> float:
        return _p_value(self.df_num, self.df_den, self.f_statistic)


def _p_value(k: int, df: int, f_statistic: float) -> float:
    """The F-test's p-value; 0 for an infinite F statistic."""
    from scipy import special

    return float(special.fdtrc(k, df, f_statistic)) if math.isfinite(f_statistic) else 0.0


def _f_link(k: int, df: int, f_statistic: float, alpha: float) -> bool:
    """``_p_value(k, df, f_statistic) < alpha``, which is computed only for
    an F inside the bracket around the critical value."""
    return exceeds(f_statistic, f_bracket(k, df, alpha),
                   lambda: _p_value(k, df, f_statistic) < alpha)


def _stacked_rss(designs: np.ndarray, targets: np.ndarray) -> list[float | None]:
    """RSS of the OLS fit of each (design, target) pair of a stack of
    designs (fits x samples x columns) and targets (fits x samples); None
    for a design whose Gram is worse conditioned than ``_COND_LIMIT``."""
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
    # reduced[v] is row v's reduced design (intercept, lags 1..lag); its lag
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


def _candidate_fits(
    d: Dataset, max_lag: int, lagwise: bool
) -> dict[tuple[str, str, int], tuple[float | None, float | None]]:
    """``(rss_reduced, rss_full)`` of every candidate (source, target, lag)
    of ``d`` up to ``max_lag``, the models of each lag fitted as stacks."""
    values = np.stack([s.values for s in d.series])
    pairs = list(permutations(range(len(d.names)), 2))
    sources, targets = [s for s, _ in pairs], [t for _, t in pairs]
    fits = {}
    for lag in range(1, max_lag + 1):
        reduced, full = _stacked_fits(values, lag, lagwise, sources, targets)
        for s, t, rss_full in zip(sources, targets, full):
            fits[d.names[s], d.names[t], lag] = reduced[t], rss_full
    return fits


def granger_test(
    x: TimeSeries,
    y: TimeSeries,
    lag: int,
    cfg: GrangerConfig,
    rss: tuple[float | None, float | None] | None = None,
) -> GrangerResult:
    """F-test of whether lagged x improves the autoregressive fit of y.

    ``rss`` is the candidate's ``(rss_reduced, rss_full)`` from
    ``_candidate_fits``; without it the test fits its own, a stack of one.
    Input faults raise as ``timeseries._check_pair`` says, as in the TE
    tests; a lag that leaves no residual degrees of freedom, ``TooShort``.
    """
    _check_pair(x, y, lag)
    l = len(y)
    p = lag
    n_eff = l - p
    k = 1 if cfg.lagwise else p
    params_full = 1 + p + k
    df_den = n_eff - params_full
    if df_den < 1:
        raise TooShort(
            f"length {l} leaves no residual degrees of freedom at lag {p} "
            f"({params_full} parameters, {n_eff} usable samples)"
        )

    if rss is None:
        reduced, full = _stacked_fits(np.stack([x.values, y.values]), p, cfg.lagwise, [0], [1])
        rss = reduced[1], full[0]
    rss_reduced, rss_full = rss
    singular = "regression design is numerically singular"
    if rss_reduced is None:
        raise SingularDesign(
            f"reduced model of {y.name!r} at lag {p}: {singular} ({1 + p} columns)"
        )
    if rss_full is None:
        raise SingularDesign(
            f"full model {x.name!r} -> {y.name!r} at lag {p}: {singular} ({params_full} columns)"
        )

    numerator = max(0.0, rss_reduced - rss_full) / k
    denominator = rss_full / df_den
    if denominator == 0.0:
        f_statistic = math.inf if numerator > 0.0 else 0.0
    else:
        f_statistic = numerator / denominator
    return GrangerResult(
        f_statistic=f_statistic,
        link=_f_link(k, df_den, f_statistic, cfg.alpha),
        rss_full=rss_full,
        rss_reduced=rss_reduced,
        df_num=k,
        df_den=df_den,
    )
