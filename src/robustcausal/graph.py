"""Lagged causal graphs: candidate evaluation, construction, and
deterministic serialization (JSON, DOT).

A graph over k variables with maximum lag L is built by testing every
ordered pair at every lag 1..L, exactly k*(k-1)*L candidate links; only
significant candidates become graph links. Self-links are never tested.
The test config picks the method and holds its settings: a
``SurrogateConfig`` runs binned TE against shuffled surrogates, a
``GrangerConfig`` the Granger F-test, and the graph is labelled with that
config's ``method`` ("te" or "gc").
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, LagTooLarge, UnknownFormat, VariableMismatch
from .estimators import BinningSpec
from .granger import GrangerConfig, _candidate_fits, granger_test
from .significance import SurrogateConfig, _name_key, _source, _target, _te_link_from_codes
from .timeseries import Dataset, _check_count, _typed

__all__ = [
    "CausalLink",
    "LaggedCausalGraph",
    "evaluate_candidates",
    "build_graph",
    "export_graph",
    "import_graph",
]

LinkKey = tuple[str, str, int]


@dataclass(frozen=True, order=True)
class CausalLink:
    """One directed lagged link with its strength (TE bits or GC F value)."""

    source: str
    target: str
    lag: int
    strength: float
    significant: bool = True


@dataclass(frozen=True)
class LaggedCausalGraph:
    """An immutable set of significant links over a fixed variable set.

    Variables and links are canonically sorted at construction so equal
    graphs compare equal and serialize to identical bytes.
    """

    variables: tuple[str, ...]
    links: tuple[CausalLink, ...]
    max_lag: int
    method: str

    def __post_init__(self):
        _check_count("max_lag", self.max_lag, 1)
        variables = tuple(sorted(self.variables))
        if len(set(variables)) != len(variables):
            raise InvalidConfig("graph variables must be unique")
        links = tuple(sorted(self.links, key=lambda l: (l.source, l.target, l.lag)))
        known = set(variables)
        seen: set[LinkKey] = set()
        for link in links:
            if link.source not in known or link.target not in known:
                raise VariableMismatch(
                    f"link {link.source}->{link.target} references an unknown variable"
                )
            if link.source == link.target:
                raise InvalidConfig(f"self-link on {link.source!r} is not allowed")
            _check_count(f"link {link.source}->{link.target} lag", link.lag, 1)
            if link.lag > self.max_lag:
                raise InvalidConfig(
                    f"link {link.source}->{link.target} lag {link.lag} outside 1..{self.max_lag}"
                )
            key = (link.source, link.target, link.lag)
            if key in seen:
                raise InvalidConfig(f"duplicate link {key}")
            seen.add(key)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "links", links)

    def link_keys(self) -> frozenset[LinkKey]:
        return frozenset((l.source, l.target, l.lag) for l in self.links)

    @property
    def n_links(self) -> int:
        return len(self.links)


def candidate_keys(variables: tuple[str, ...], max_lag: int) -> list[LinkKey]:
    """Every (source, target, lag) candidate of a search: each ordered pair
    of distinct variables at each lag 1..max_lag, in the given order."""
    return [
        (s, t, lag)
        for s in variables
        for t in variables
        if s != t
        for lag in range(1, max_lag + 1)
    ]


def _check_max_lag(max_lag: int, length: int) -> None:
    """The rule for a graph on ``length`` points: a count, ``1 <= max_lag < length/4``."""
    _check_count("max_lag", max_lag, 1)
    if max_lag >= length / 4:
        raise LagTooLarge(
            f"max_lag {max_lag} is too large for length {length} (must stay below length/4)"
        )


def evaluate_candidates(
    d: Dataset,
    test: SurrogateConfig | GrangerConfig,
    max_lag: int = 4,
    *,
    spec: BinningSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The record's vote row: ``(decisions, statistics)``, a bool and a
    float64 array with a cell per key of ``candidate_keys(d.names, max_lag)``.

    A cell holds the decision and statistic of its candidate, kept or not:
    a ``SurrogateConfig`` runs the gated surrogate TE link test (TE in bits;
    ``(False, 0.0)`` where the MI gate fails), a ``GrangerConfig`` the
    lagwise or cumulative Granger F-test (F statistic). The TE path bins
    with ``spec`` when one is given (a subsample window reusing the full
    sample's discretization), else derives a spec from ``d``: Scott's rule,
    or the count ``test.bins`` forces. A Granger test bins nothing, so a
    ``spec`` with a ``GrangerConfig`` raises ``InvalidConfig``.
    """
    _check_max_lag(max_lag, d.length)

    if isinstance(test, SurrogateConfig):
        if spec is None:
            spec = BinningSpec.from_dataset(d, bin_count=test.bins)
        # the work a record's candidates share, done once (see ``_te_link_from_codes``)
        m, lags = spec.bin_count, range(1, max_lag + 1)
        codes = {s.name: spec.digitize(s) for s in d.series}
        sources = {name: _source(c, m, lags) for name, c in codes.items()}
        targets = {name: _target(c, m, lags) for name, c in codes.items()}
        keys = {name: _name_key(name) for name in d.names}

        def decide(src: str, tgt: str, lag: int) -> tuple[float, bool]:
            res = _te_link_from_codes(
                sources[src], targets[tgt], lag, m, test, keys[src], keys[tgt]
            )
            return res.te, res.link

    elif isinstance(test, GrangerConfig):
        if spec is not None:
            raise InvalidConfig("a Granger test bins nothing: it takes no spec")
        fits = _candidate_fits(d, max_lag, test.lagwise)

        def decide(src: str, tgt: str, lag: int) -> tuple[float, bool]:
            res = granger_test(d.get(src), d.get(tgt), lag, test, fits[src, tgt, lag])
            return res.f_statistic, res.link

    else:
        raise InvalidConfig(
            f"test must be a SurrogateConfig or a GrangerConfig, got {type(test).__name__}"
        )

    statistics, decisions = zip(*(decide(*key) for key in candidate_keys(d.names, max_lag)))
    return np.array(decisions, dtype=bool), np.array(statistics, dtype=np.float64)


def build_graph(
    d: Dataset,
    test: SurrogateConfig | GrangerConfig,
    max_lag: int = 4,
    *,
    spec: BinningSpec | None = None,
) -> LaggedCausalGraph:
    """Build the graph of the kept candidates; the test config picks the
    method and the graph's label."""
    decisions, statistics = evaluate_candidates(d, test, max_lag, spec=spec)
    row = zip(candidate_keys(d.names, max_lag), decisions, statistics)
    links = tuple(CausalLink(*key, float(statistic)) for key, kept, statistic in row if kept)
    return LaggedCausalGraph(tuple(d.names), links, max_lag, test.method)


def _dot_identifier(name: str) -> str:
    if name and not name[0].isdigit() and all(c.isalnum() or c == "_" for c in name):
        return name
    return '"' + name.replace('"', '\\"') + '"'


def export_graph(g: LaggedCausalGraph, fmt: str = "json") -> str:
    """Serialize a graph to "json" or "dot" text.

    Output is deterministic: variables alphabetical, links sorted by
    (source, target, lag). Only JSON keeps strengths and reads back.
    """
    if fmt == "json":
        payload = {
            "method": g.method,
            "max_lag": int(g.max_lag),
            "variables": list(g.variables),
            "links": [
                {
                    "source": l.source,
                    "target": l.target,
                    "lag": int(l.lag),
                    "strength": l.strength,
                    "significant": l.significant,
                }
                for l in g.links
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        lines = ["digraph causal_links {"]
        for v in g.variables:
            lines.append(f"  {_dot_identifier(v)};")
        for l in g.links:
            lines.append(
                f'  {_dot_identifier(l.source)} -> {_dot_identifier(l.target)} [label="lag {l.lag}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise UnknownFormat(f"unknown export format {fmt!r}")


def import_graph(text: str) -> LaggedCausalGraph:
    """Rebuild a graph from its JSON serialization (lossless round trip);
    a field without its JSON type raises ``UnknownFormat``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UnknownFormat(f"not valid graph JSON: {exc}") from None
    try:
        links = tuple(
            CausalLink(
                source=_typed(l, "source", str),
                target=_typed(l, "target", str),
                lag=_typed(l, "lag", int),
                strength=float(_typed(l, "strength", (int, float))),
                significant=_typed(l, "significant", bool),
            )
            for l in _typed(payload, "links", list)
        )
        variables = _typed(payload, "variables", list)
        if not all(isinstance(name, str) for name in variables):
            raise TypeError(f"variable names must be strings: {variables!r}")
        return LaggedCausalGraph(
            variables=tuple(variables),
            links=links,
            max_lag=_typed(payload, "max_lag", int),
            method=_typed(payload, "method", str),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UnknownFormat(f"graph JSON is missing or malformed fields: {exc}") from None
