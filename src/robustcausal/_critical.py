"""The t, F and binomial distributions, in pure Python.

A link test decides by comparing its statistic with a critical value: the
surrogate t-test with the Student-t quantile ``t_critical`` (``t_exceeds``),
the Granger F-test with the F where its p-value ``f_p_value`` falls to
alpha, ``f_critical`` (``f_exceeds``). Both come from one regularized
incomplete beta function, and each critical value is cached per setting.

The tests check the values against scipy's, within ``max(1e-12, 4 eps
df)`` of their size (of 1 below 1): the t quantile at confidence 1e-100 and
0.01-0.999 over df 1-300, 499, 999, 4999, 100000, 1e8 and 1e9; the F value
at k 1-8 and alpha 0.01-0.1 over df 5-1000, 1e8 and 1e9, and at alpha
1e-80, 1e-100 and 1e-150 over df 5-1000; the p-value over Granger tests of
df 5-494, 0 and infinity included. The continued fraction loses about ``eps
* df / (k * F)`` relative, which is where ``eps * df`` comes from.

The search for a critical value settles down to a tail probability of
``_ALPHA_MIN`` (1e-150); from 1e-152 down, at df = 1, the crossing lies
beyond its reach. So a test's level (a ``SurrogateConfig.confidence``, a
``GrangerConfig.alpha``) is refused when it lies closer than 1e-150 to 0
or 1.

``binomial_tail`` is the binomial upper tail, the same incomplete beta; the
tests check it against ``scipy.special.bdtrc`` for n 1-1100.

The incomplete beta is the continued fraction of Numerical Recipes (Press
et al., 3rd ed., section 6.4), evaluated by the modified Lentz method; the
F distribution's survival function is ``I_x(d/2, k/2)`` at ``x = d / (d +
k F)``, and the t distribution's two-sided tail is that of F(1, df) at t².
"""

from __future__ import annotations

import math
from functools import lru_cache

# The least tail probability, and so the least level a test accepts, at
# which the critical value search settles.
_ALPHA_MIN = 1e-150
# The search for a critical F stays within exp(+-_LOG_F_MAX), and a result
# within 1 of either edge is refused; every crossing of a tail of at least
# _ALPHA_MIN lies inside (the highest, at df = 1, is about exp(690.3)).
_LOG_F_MAX = 700.0

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


@lru_cache(maxsize=256)
def f_critical(k: int, df: int, alpha: float) -> float:
    """The F where the survival function of F(k, df) falls to ``alpha``,
    by Newton's method on ``log sf`` against ``log F``, kept inside a
    bracket by bisection. On ``log sf`` a step keeps its reach however small
    alpha is: the tail falls as a power of F. A search that does not settle,
    or settles at the edge of its reach, raises ``ArithmeticError``."""
    target = math.log(alpha)
    lo, hi = -_LOG_F_MAX, _LOG_F_MAX
    u = 0.0
    for _ in range(200):
        sf, slope = _f_sf(k, df, math.exp(u))
        if sf == alpha:
            return math.exp(u)
        if sf > alpha:
            lo = u
        else:
            hi = u
        # d(log sf)/du is -slope / sf
        new = u + (math.log(sf) - target) * sf / slope if sf > 0.0 and slope > 0.0 else math.nan
        if not lo < new < hi:
            new = (lo + hi) / 2.0
        if abs(new - u) <= 1e-15 * max(1.0, abs(u)):
            if abs(new) > _LOG_F_MAX - 1.0:  # at the edge: the crossing lies beyond it
                break
            return math.exp(new)
        u = new
    raise ArithmeticError(f"critical F did not settle at k={k}, df={df}, alpha={alpha}")


@lru_cache(maxsize=64)
def t_critical(confidence: float, df: int) -> float:
    """The Student-t quantile at ``confidence`` with ``df`` degrees of freedom."""
    if confidence == 0.5:
        return 0.0
    tail = min(confidence, 1.0 - confidence)
    return math.copysign(math.sqrt(f_critical(1, df, 2.0 * tail)), confidence - 0.5)


def t_exceeds(statistic: float, confidence: float, df: int) -> bool:
    """Whether ``statistic`` lies above the t quantile ``t_critical``."""
    return statistic > t_critical(confidence, df)


def f_p_value(k: int, df: int, f: float) -> float:
    """The F-test's p-value, the survival function of F(k, df) at ``f``: 1
    at 0, 0 at infinity."""
    if f <= 0.0:
        return 1.0
    if f == math.inf:
        return 0.0
    return _f_sf(k, df, f)[0]


def f_exceeds(f: float, k: int, df: int, alpha: float) -> bool:
    """``f_p_value(k, df, f) < alpha``: whether ``f`` lies above ``f_critical``."""
    return f > f_critical(k, df, alpha)


def binomial_tail(k: int, n: int, p: float) -> float:
    """The probability of at least ``k`` (>= 1) successes in ``n`` trials of
    probability ``p``: ``I_p(k, n - k + 1)``, as ``bdtrc(k - 1, n, p)``."""
    p = float(p)
    return _betainc(float(k), float(n - k + 1), p, 1.0 - p)
