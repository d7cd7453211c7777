"""Synthetic benchmark systems with known lagged causal structure.

Four system kinds are available:

``A``
    Four mutually independent standard-normal series (no links at all),
    the negative control.
``B``
    Four linearly coupled autoregressive series::

        X(t) = 0.4 Z(t-1) + eta_x(t)
        Y(t) = 0.6 X(t-3) + 0.09 W(t-2) + eta_y(t)
        Z(t) = 0.7 Y(t-2) + eta_z(t)
        W(t) = 0.5 X(t-1) + eta_w(t)

    with independent standard-normal noise per variable. The first
    ``burn_in`` steps are discarded so the output is past transients.
``C``
    Same as B except the first coupling is quadratic:
    ``X(t) = 0.4 Z(t-1)**2 + eta_x(t)``.
``bivariate-linear`` / ``bivariate-nonlinear``
    A two-variable pair driven by an i.i.d. standard-normal source::

        Y(t) = m X(t-1)     + eps eta(t)      (linear)
        Y(t) = m X(t-1)**2  + eps eta(t)      (nonlinear)

    The single true link is X -> Y at lag 1. Exactly ``length`` points are
    produced (no recursion, so no burn-in is needed).

Alongside the data, :func:`generate` returns the ground truth: the direct
links written into the equations plus the indirect (transitive) links that
lag composition produces up to a total lag of 4, which a pairwise detector
may legitimately pick up without them being directly simulated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFinite
from .timeseries import Dataset, TimeSeries, _check_count, _check_integer, _rng

__all__ = ["SystemSpec", "GroundTruth", "TrueLink", "generate", "SYSTEM_KINDS"]

SYSTEM_KINDS = ("A", "B", "C", "bivariate-linear", "bivariate-nonlinear")

_COUPLED_NAMES = ("X", "Y", "Z", "W")


@dataclass(frozen=True)
class TrueLink:
    source: str
    target: str
    lag: int
    coefficient: float


# The direct couplings of systems B and C, in ground-truth order: each adds
# coefficient * source(t - lag) to target(t). System C squares Z in its one
# term, Z -> X.
_COUPLINGS = (
    TrueLink("Z", "X", 1, 0.4),
    TrueLink("X", "Y", 3, 0.6),
    TrueLink("W", "Y", 2, 0.09),
    TrueLink("Y", "Z", 2, 0.7),
    TrueLink("X", "W", 1, 0.5),
)

# The largest lag at which the benchmark systems are analysed, and so the
# largest total lag of the indirect links their ground truth lists.
_INDIRECT_MAX_LAG = 4


def _composed_links(max_lag: int) -> tuple[tuple[str, str, int], ...]:
    """Indirect links of systems B and C: (source, target, total lag) of
    every path of two or more couplings with total lag <= ``max_lag``, other
    than the couplings themselves and self-loops, sorted by (lag, source,
    target). Example: Z drives X at lag 1 and X drives Y at lag 3, so Z also
    shows up at Y with lag 4 without a simulated Z->Y term."""
    direct = {(c.source, c.target, c.lag) for c in _COUPLINGS}
    composed, paths = set(), direct
    while paths:
        paths = {(s, c.target, lag + c.lag) for s, t, lag in paths for c in _COUPLINGS
                 if c.source == t and lag + c.lag <= max_lag}
        composed |= paths
    keys = {(s, t, lag) for s, t, lag in composed - direct if s != t}
    return tuple(sorted(keys, key=lambda k: (k[2], k[0], k[1])))


_INDIRECT = _composed_links(_INDIRECT_MAX_LAG)


@dataclass(frozen=True)
class GroundTruth:
    """Direct links of the generating equations plus documented indirect links."""

    true_links: tuple[TrueLink, ...]
    indirect_links: tuple[tuple[str, str, int], ...] = ()

    def link_keys(self) -> frozenset[tuple[str, str, int]]:
        return frozenset((l.source, l.target, l.lag) for l in self.true_links)

    def indirect_keys(self) -> frozenset[tuple[str, str, int]]:
        return frozenset(self.indirect_links)

    def to_json(self) -> str:
        payload = {
            "true_links": [
                {
                    "source": l.source,
                    "target": l.target,
                    "lag": l.lag,
                    "coefficient": l.coefficient,
                }
                for l in self.true_links
            ],
            "indirect_links": [
                {"source": s, "target": t, "lag": lag} for s, t, lag in self.indirect_links
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        payload = json.loads(text)
        return cls(
            true_links=tuple(
                TrueLink(l["source"], l["target"], int(l["lag"]), float(l["coefficient"]))
                for l in payload["true_links"]
            ),
            indirect_links=tuple(
                (l["source"], l["target"], int(l["lag"])) for l in payload["indirect_links"]
            ),
        )


@dataclass(frozen=True)
class SystemSpec:
    """What to simulate.

    ``length`` is the number of generated steps for the coupled systems
    (B and C output ``length - burn_in`` points after the transient is
    dropped; A and the bivariate kinds output exactly ``length``).
    ``burn_in`` is read by B and C only. ``signal`` and ``noise`` are the
    bivariate coefficients m (required, finite) and eps (finite, > 0), read
    by the bivariate kinds only.
    """

    kind: str
    length: int
    rng_seed: int
    burn_in: int = 100
    signal: float | None = None
    noise: float = 1.0

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise InvalidConfig(f"unknown system kind {self.kind!r}, expected one of {SYSTEM_KINDS}")
        _check_count("length", self.length, 1)
        _check_integer("rng_seed", self.rng_seed)
        _check_count("burn_in", self.burn_in, 0)
        if self.kind in ("B", "C") and self.length <= self.burn_in:
            raise InvalidConfig(
                f"length {self.length} must exceed burn_in {self.burn_in} for kind {self.kind!r}"
            )
        if self.kind.startswith("bivariate"):
            if self.signal is None:
                raise InvalidConfig(f"kind {self.kind!r} needs a signal coefficient")
            if not np.isfinite(self.signal):
                raise InvalidConfig(f"signal coefficient must be finite, got {self.signal}")
            if not (np.isfinite(self.noise) and self.noise > 0):
                raise InvalidConfig(f"noise coefficient must be finite and > 0, got {self.noise}")


# Magnitude beyond which the quadratic recursion has irreversibly left the
# stationary regime (stationary values stay below ~30; noise is O(1)).
_DIVERGENCE_LIMIT = 1e8


def _simulate_coupled(n: int, *eta: np.ndarray, squared_z: bool) -> tuple[np.ndarray, ...]:
    """Run the recursion of ``_COUPLINGS`` on explicit noise arrays, one per
    variable in ``_COUPLED_NAMES`` order, and return the series in that order.

    Values at negative time indices are zero, so the recursion starts from
    rest and is driven purely by the supplied noise. Each value is its
    coupling terms summed in table order, plus its noise.

    The quadratic variant is only metastable: the loop Z -> X -> Y -> Z has
    an effective map ``z -> 0.168 z**2``, so a noise excursion beyond
    ``|z| ~ 6`` triggers super-exponential blow-up. Such realizations raise
    :class:`NonFinite` rather than returning astronomically large values.
    """
    pad = max(c.lag for c in _COUPLINGS)
    history = {name: [0.0] * (pad + n) for name in _COUPLED_NAMES}
    noise = dict(zip(_COUPLED_NAMES, (e.tolist() for e in eta)))
    inputs = {
        name: [
            (history[c.source], pad - c.lag, c.coefficient, squared_z and c.source == "Z")
            for c in _COUPLINGS
            if c.target == name
        ]
        for name in _COUPLED_NAMES
    }
    for t in range(n):
        for name in _COUPLED_NAMES:
            value = -0.0  # the exact additive identity: -0.0 + a is a, bit for bit
            for source, shift, coefficient, square in inputs[name]:
                v = source[shift + t]
                value += coefficient * (v * v if square else v)
            history[name][pad + t] = value + noise[name][t]
        if squared_z and abs(history["X"][pad + t]) > _DIVERGENCE_LIMIT:
            raise NonFinite(
                f"quadratic system diverged at step {t}; this noise realization "
                "leaves the stable regime, use a different rng_seed"
            )
    return tuple(np.array(history[name][pad:]) for name in _COUPLED_NAMES)


def generate(spec: SystemSpec) -> tuple[Dataset, GroundTruth]:
    """Simulate the configured system and return (dataset, ground truth)."""
    if spec.kind == "A":
        series = tuple(
            TimeSeries(name, _rng(spec.rng_seed, i).standard_normal(spec.length))
            for i, name in enumerate(_COUPLED_NAMES)
        )
        return Dataset(series), GroundTruth(true_links=())

    if spec.kind in ("B", "C"):
        eta = [_rng(spec.rng_seed, i).standard_normal(spec.length) for i in range(4)]
        simulated = _simulate_coupled(spec.length, *eta, squared_z=spec.kind == "C")
        series = tuple(
            TimeSeries(name, arr[spec.burn_in:])
            for name, arr in zip(_COUPLED_NAMES, simulated)
        )
        return Dataset(series), GroundTruth(true_links=_COUPLINGS, indirect_links=_INDIRECT)

    # bivariate kinds: X is i.i.d., Y responds at lag 1, no recursion.
    m = float(spec.signal)
    eps = float(spec.noise)
    x_full = _rng(spec.rng_seed, 0).standard_normal(spec.length + 1)
    eta = _rng(spec.rng_seed, 1).standard_normal(spec.length)
    driver = x_full[:-1]
    if spec.kind == "bivariate-nonlinear":
        driver = driver * driver
    y = m * driver + eps * eta
    d = Dataset((TimeSeries("X", x_full[1:]), TimeSeries("Y", y)))
    truth = GroundTruth(true_links=(TrueLink("X", "Y", 1, m),))
    return d, truth
