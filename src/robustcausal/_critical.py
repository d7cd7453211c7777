"""Brackets around the critical values of the t and F tests, in pure Python.

A link test decides by comparing its statistic with a critical value: the
surrogate t-test with the Student-t quantile ``scipy.special.stdtrit``, the
Granger F-test with the point where ``scipy.special.fdtrc`` falls below
alpha. Importing ``scipy.special`` takes longer than the rest of the CLI's
start-up and about 20 MB of memory, so the critical values are computed
here, from a regularized incomplete beta function, and each is returned as
a bracket ``(lo, hi)``: the pure-Python value widened by ``_BAND`` of its
size (of 1 below 1) on either side.

The callers keep scipy's decisions bit for bit (``exceeds``): a statistic
above ``hi`` passes, one at or below ``lo`` fails, and only one inside the
band is decided by the scipy function itself, which is imported then and
only then. That holds while scipy's value lies in the band. The tests check
it for the t quantile at confidence 0.5-0.999 and df 1-100000 (the largest
distance found was 4e-13 relative, at df 100000) and for the F value at k
1-8, df 5-1000 and alpha 0.01-0.1 (5e-14). The continued fraction loses
about ``eps * df / (k * F)`` relative, so the distance grows with df.

The incomplete beta is the continued fraction of Numerical Recipes (Press
et al., 3rd ed., section 6.4), evaluated by the modified Lentz method; the
F distribution's survival function is ``I_x(d/2, k/2)`` at ``x = d / (d +
k F)``, and the t distribution's two-sided tail is that of F(1, df) at t².
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

# Half-width of a bracket, relative to the value (absolute below 1).
_BAND = 1e-9

_TINY = 1e-300
_CF_EPS = 1e-16
_CF_MAX_TERMS = 100_000


def _log_beta(a: float, b: float) -> float:
    """``log B(a, b)``. From 20 up, ``lgamma(big) - lgamma(big + small)`` is
    taken from Stirling's series, in which the large terms cancel exactly,
    not from two ``lgamma`` values rounded to their own size."""
    small, big = min(a, b), max(a, b)
    if big < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def series(z: float) -> float:  # lgamma(z) less (z - 1/2) log z - z + log(2 pi)/2
        return 1 / (12 * z) - 1 / (360 * z**3) + 1 / (1260 * z**5) - 1 / (1680 * z**7)

    return (math.lgamma(small) - (big - 0.5) * math.log1p(small / big)
            - small * math.log(big + small) + small + series(big) - series(big + small))


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of ``I_x(a, b)``, by modified Lentz."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            step = c * d
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _beta_front(a: float, b: float, x: float, y: float) -> float:
    """``x**a * y**b / B(a, b)`` with ``y = 1 - x`` given exactly, so that
    neither logarithm loses the digits of a value near 1."""
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    return math.exp(a * log_x + b * log_y - _log_beta(a, b))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta ``I_x(a, b)``, with ``y = 1 - x``."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _beta_front(a, b, x, y) * _beta_cf(a, b, x) / a
    return 1.0 - _beta_front(b, a, y, x) * _beta_cf(b, a, y) / b


def _f_sf(k: int, df: int, f: float) -> tuple[float, float]:
    """The survival function of F(k, df) at ``f`` > 0, and its derivative
    with respect to ``log f``, negated."""
    x, y = df / (df + k * f), k * f / (df + k * f)
    return _betainc(df / 2.0, k / 2.0, x, y), _beta_front(df / 2.0, k / 2.0, x, y)


def _f_isf(k: int, df: int, alpha: float) -> float:
    """The F with ``_f_sf(k, df, F) == alpha``: Newton's method on ``log F``,
    kept inside a bracket by bisection."""
    lo, hi = -math.inf, math.inf
    u = 0.0
    for _ in range(200):
        sf, slope = _f_sf(k, df, math.exp(u))
        if sf == alpha:
            break
        if sf > alpha:
            lo = u
        else:
            hi = u
        new = u + (sf - alpha) / slope if slope > 0.0 else math.nan
        if not lo < new < hi:
            # off the bracket: bisect it, or step out of its open side
            new = (lo + hi) / 2.0 if math.isfinite(hi - lo) else u + math.copysign(1.0, sf - alpha)
        done = abs(new - u) <= 1e-15 * max(1.0, abs(u))
        u = new
        if done:
            break
    return math.exp(u)


def exceeds(statistic: float, bracket: tuple[float, float], exact: Callable[[], bool]) -> bool:
    """Whether ``statistic`` is above the critical value that ``bracket``
    holds: the bracket decides outside itself, ``exact()`` inside."""
    lo, hi = bracket
    if statistic > hi:
        return True
    if statistic <= lo:
        return False
    return exact()


def _bracket(value: float) -> tuple[float, float]:
    width = _BAND * max(abs(value), 1.0)
    return value - width, value + width


@lru_cache(maxsize=256)
def f_bracket(k: int, df: int, alpha: float) -> tuple[float, float]:
    """A bracket around the F where ``fdtrc(k, df, F) == alpha``."""
    return _bracket(_f_isf(k, df, alpha))


@lru_cache(maxsize=64)
def t_bracket(confidence: float, df: int) -> tuple[float, float]:
    """A bracket around the Student-t quantile ``stdtrit(df, confidence)``."""
    if confidence == 0.5:
        return _bracket(0.0)
    tail = min(confidence, 1.0 - confidence)
    return _bracket(math.copysign(math.sqrt(_f_isf(1, df, 2.0 * tail)), confidence - 0.5))
