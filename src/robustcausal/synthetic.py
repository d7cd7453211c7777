"""Synthetic benchmark systems with known lagged causal structure.

Each system kind is a coupling table (``_table``): its variables, its
couplings in ground-truth order, each adding ``coefficient * source(t -
lag)`` to ``target(t)``, and the couplings whose source enters squared.

- ``A``: four independent standard-normal series, the negative control.
- ``B``: four linearly coupled autoregressive series, each plus its own
  standard-normal noise: X(t) = 0.4 Z(t-1), Y(t) = 0.6 X(t-3) + 0.09
  W(t-2), Z(t) = 0.7 Y(t-2) and W(t) = 0.5 X(t-1).
- ``C``: B with its first coupling quadratic, X(t) = 0.4 Z(t-1)**2.
- ``bivariate-linear`` / ``bivariate-nonlinear``: an i.i.d. source X and
  Y(t) = m X(t-1) + eps eta(t), or m X(t-1)**2 + eps eta(t).

One simulator runs every table; the i-th variable's noise is the stream
``_rng(rng_seed, i)``. A variable that no coupling drives is its own noise
stream, drawn back to the furthest lag at which it is read (the bivariate
X has ``length + 1`` points). A driven variable starts from rest, and its
value is its terms summed in table order plus its noise. It is computed
over the whole record at once when it neither reads nor feeds a driven
variable (the bivariate Y): ``evaluate`` generates a pair per trial, and a
Python step loop would cost it several times as much. The others (B and
C) step through time together, as a recursion must.

``_choices.SYSTEM_SETTINGS`` names the ``SystemSpec`` settings each kind
reads. :func:`generate` returns the ground truth with the data: the
couplings plus the indirect links that lag composition produces up to a
total lag of 4, which a pairwise detector may legitimately pick up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from ._choices import SYSTEM_KINDS, SYSTEM_SETTINGS
from .errors import InvalidConfig, NonFinite, UnknownFormat
from .timeseries import Dataset, TimeSeries, _check_count, _check_integer, _read_only, _rng, _typed

__all__ = ["SystemSpec", "GroundTruth", "TrueLink", "generate", "SYSTEM_KINDS"]

@dataclass(frozen=True)
class TrueLink:
    source: str
    target: str
    lag: int
    coefficient: float


# The direct couplings of systems B and C, in ground-truth order. System C
# squares Z in its one term, Z -> X.
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


def _composed_links(max_lag: int, couplings) -> tuple[tuple[str, str, int], ...]:
    """Indirect links of ``couplings``: (source, target, total lag) of every
    path of two or more couplings with total lag <= ``max_lag``, other than
    the couplings themselves and self-loops, sorted by (lag, source, target).
    Example: in system B, Z drives X at lag 1 and X drives Y at lag 3, so Z
    also shows up at Y with lag 4 without a simulated Z->Y term. A path may
    pass through a self-coupling: S -> S -> E makes S -> E at lag 2."""
    direct = {(c.source, c.target, c.lag) for c in couplings}
    composed, paths = set(), direct
    while paths:
        paths = {(s, c.target, lag + c.lag) for s, t, lag in paths for c in couplings
                 if c.source == t and lag + c.lag <= max_lag}
        composed |= paths
    keys = {(s, t, lag) for s, t, lag in composed - direct if s != t}
    return tuple(sorted(keys, key=lambda k: (k[2], k[0], k[1])))


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
        """Rebuild ``to_json``'s ground truth; a field without its JSON type
        raises ``UnknownFormat``."""
        def key(l: dict) -> tuple[str, str, int]:
            return _typed(l, "source", str), _typed(l, "target", str), _typed(l, "lag", int)

        try:
            payload = json.loads(text)
            return cls(tuple(TrueLink(*key(l), float(_typed(l, "coefficient", (int, float))))
                             for l in _typed(payload, "true_links", list)),
                       tuple(key(l) for l in _typed(payload, "indirect_links", list)))
        except (KeyError, TypeError, ValueError) as exc:
            raise UnknownFormat(f"ground-truth JSON is malformed: {exc}") from None


@dataclass(frozen=True)
class _Table:
    """A system: its variables, couplings and squared couplings."""

    names: tuple[str, ...]
    couplings: tuple[TrueLink, ...]
    squared: tuple[TrueLink, ...] = ()

    @cached_property
    def truth(self) -> GroundTruth:
        return GroundTruth(self.couplings, _composed_links(_INDIRECT_MAX_LAG, self.couplings))

    @cached_property
    def wiring(self) -> tuple[dict, dict, tuple]:
        """Each variable's terms, as (source, shift, coefficient, squared);
        its reach, the furthest lag at which it is read (a term's shift is
        its source's reach minus its lag); and the stepped variables: the
        driven ones that read a driven variable or that one reads."""
        reach = {name: max((c.lag for c in self.couplings if c.source == name), default=0)
                 for name in self.names}
        inputs = {name: tuple((c.source, reach[c.source] - c.lag, c.coefficient, c in self.squared)
                              for c in self.couplings if c.target == name)
                  for name in self.names}
        stepped = tuple(name for name in self.names if inputs[name] and (
            reach[name] or any(inputs[source] for source, *_ in inputs[name])))
        return inputs, reach, stepped


@lru_cache(maxsize=64)
def _table(kind: str, signal: str | None) -> _Table:
    """The coupling table of system ``kind``; ``signal`` is the bivariate m
    as ``float.hex`` writes it, a key that tells -0.0 from 0.0."""
    if kind in ("A", "B", "C"):
        couplings = () if kind == "A" else _COUPLINGS
        return _Table(("X", "Y", "Z", "W"), couplings, _COUPLINGS[:1] if kind == "C" else ())
    pair = (TrueLink("X", "Y", 1, float.fromhex(signal)),)
    return _Table(("X", "Y"), pair, pair if kind == "bivariate-nonlinear" else ())


@dataclass(frozen=True)
class SystemSpec:
    """What to simulate: ``length`` steps, of which the kinds that read
    ``burn_in`` (B and C, as ``_choices.SYSTEM_SETTINGS`` lists) drop the
    first ``burn_in``. ``signal`` and ``noise``, read by the bivariate
    kinds, are m (required, finite) and eps (finite, > 0). A setting that
    the kind does not read must keep its default.
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
        reads = SYSTEM_SETTINGS[self.kind]
        for f in fields(self):
            readers = [kind for kind, names in SYSTEM_SETTINGS.items() if f.name in names]
            if readers and f.name not in reads and getattr(self, f.name) != f.default:
                raise InvalidConfig(f"kind {self.kind!r} does not read {f.name}; "
                                    f"only {' and '.join(readers)} do")
        if "burn_in" in reads and self.length <= self.burn_in:
            raise InvalidConfig(
                f"length {self.length} must exceed burn_in {self.burn_in} for kind {self.kind!r}"
            )
        if "signal" in reads:
            if self.signal is None:
                raise InvalidConfig(f"kind {self.kind!r} needs a signal coefficient")
            if not np.isfinite(self.signal):
                raise InvalidConfig(f"signal coefficient must be finite, got {self.signal}")
        if "noise" in reads and not (np.isfinite(self.noise) and self.noise > 0):
            raise InvalidConfig(f"noise coefficient must be finite and > 0, got {self.noise}")


# A stepped variable with a squared term is only metastable: in system C the
# loop Z -> X -> Y -> Z maps z -> 0.168 z**2, so a noise excursion beyond
# |z| ~ 6 blows up super-exponentially. Past this magnitude (stationary
# values stay below ~30) the realization has left the stable regime for good.
_DIVERGENCE_LIMIT = 1e8


def _simulate(table: _Table, n: int, draw: Callable[[int, int], np.ndarray],
              scale: float | None = None, drop: int = 0) -> tuple[np.ndarray, ...]:
    """Run ``table`` for ``n`` steps; return its series from step ``drop`` on.

    ``draw(i, size)`` is the i-th variable's noise; ``scale``, when given,
    multiplies the driven variables' noise. A stepped variable with a
    squared term that passes ``_DIVERGENCE_LIMIT`` raises :class:`NonFinite`
    naming the first such step, rather than return astronomical values.
    """
    inputs, reach, stepped = table.wiring
    values = {}  # the times -reach[name] .. n - 1; a driven variable's noise until it is run
    for i, name in enumerate(table.names):
        eta = draw(i, n if inputs[name] else reach[name] + n)
        values[name] = eta if scale is None or not inputs[name] else scale * eta
    for name in table.names:
        if inputs[name] and name not in stepped:  # it reads only drawn variables; none reads it
            value = None
            for source, shift, coefficient, square in inputs[name]:
                v = values[source][shift:shift + n]
                term = coefficient * (v * v if square else v)
                value = term if value is None else value + term
            values[name] = value + values[name]
    if stepped:
        history = {name: [0.0] * (reach[name] + n) for name in stepped}
        steps = [(history[name], reach[name], values[name].tolist(),
                  [(history[s] if s in history else values[s].tolist(), *term)
                   for s, *term in inputs[name]]) for name in stepped]
        for t in range(n):
            for out, at, eta, terms in steps:
                value = -0.0  # the exact additive identity: -0.0 + a is a, bit for bit
                for source, shift, coefficient, square in terms:
                    v = source[shift + t]
                    value += coefficient * (v * v if square else v)
                out[at + t] = value + eta[t]
    for name in stepped:
        values[name] = np.array(history[name])
        if any(square for *_, square in inputs[name]):
            over = np.flatnonzero(np.abs(values[name]) > _DIVERGENCE_LIMIT)
            if over.size:
                raise NonFinite(f"quadratic system diverged at step {over[0] - reach[name]}; "
                                "this noise realization leaves the stable regime, "
                                "use a different rng_seed")
    return tuple(values[name][reach[name] + drop:] for name in table.names)


def generate(spec: SystemSpec) -> tuple[Dataset, GroundTruth]:
    """Simulate the configured system and return (dataset, ground truth)."""
    reads = SYSTEM_SETTINGS[spec.kind]
    table = _table(spec.kind, float(spec.signal).hex() if "signal" in reads else None)
    # an eps of 1 scales nothing: a * 1.0 is a, bit for bit
    scale = float(spec.noise) if "noise" in reads and spec.noise != 1 else None
    simulated = _simulate(table, spec.length,
                          lambda i, size: _rng(spec.rng_seed, i).standard_normal(size),
                          scale, spec.burn_in if "burn_in" in reads else 0)
    return Dataset(tuple(map(TimeSeries, table.names, map(_read_only, simulated)))), table.truth
