"""Command-line interface.

Subcommands
-----------
generate
    Simulate a benchmark system to CSV plus a ground-truth JSON.
analyze
    Build the lagged causal graph of a dataset (CSV or a generated
    system), optionally with the subsample-ensemble consistency check.
evaluate
    Monte Carlo false-negative / false-positive rate curves on the
    bivariate benchmark.
sensitivity
    Rebuild the TE graph across a window of bin counts and report link-set
    stability.

Each setting is one row of ``SETTINGS`` (flag, parser, default, help),
keyed by its config key, which is also its key in the manifest's
``config``; ``--help`` shows both. A value comes from the flag, else the
JSON file given as ``--config``, else the default; JSON ``null`` is unset.
Unknown config keys and bad values are usage errors, and so is a setting
of a part (the data source's, or for ``analyze`` TE, GC, the ensemble)
that the run skips, set away from its default. Every run writes a
``manifest.json`` (the settings of the parts it used, seed, library
versions, no timestamps); its ``config`` plus ``seed``, given as
``--config``, replays the run byte for byte.

Building the parser loads no numpy: the module imports only the standard
library, ``errors`` and ``_choices``, and each command imports what it runs.

Exit codes: 0 success, 1 computation error, 2 usage error. The environment
variable ``ROBUST_CAUSAL_THREADS`` caps worker parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from ._choices import SUBSAMPLE_MODES, SYSTEM_KINDS, SYSTEM_SETTINGS
from .errors import InvalidConfig, LagTooLarge, RobustCausalError

THREAD_ENV = "ROBUST_CAUSAL_THREADS"


class UsageError(Exception):
    """Bad invocation; maps to exit code 2."""


def _int(raw) -> int:
    """An integer from a flag string or a JSON number; 3.9 is not 3."""
    if isinstance(raw, (bool, float)):
        raise TypeError(f"expected an integer, got {raw!r}")
    return int(raw)


def _float(raw) -> float:
    """A number from a flag string or a JSON number; true is not 1.0."""
    if isinstance(raw, bool):
        raise TypeError(f"expected a number, got {raw!r}")
    return float(raw)


def _count(raw) -> int:
    value = _int(raw)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError(f"expected true or false, got {raw!r}")
    return raw


def _auto_or_int(raw):
    return "auto" if raw == "auto" else _int(raw)


def _choice(*words, **named) -> Callable:
    """Parser for a flag that takes one of some words, which it carries as
    ``choices`` for argparse. ``named`` maps a word to the value the
    manifest records; a config file may give either."""
    table = dict(zip(words, words), **named)
    lookup = {**table, **{value: value for value in table.values()}}

    def parse(raw):
        if raw not in lookup:
            raise ValueError(f"expected one of {', '.join(table)}, got {raw!r}")
        return lookup[raw]

    parse.choices = table
    return parse


def _list(raw, item) -> list:
    """Items from "a,b,c" or a JSON list; at least one."""
    parts = raw if isinstance(raw, list) else str(raw).split(",")
    values = [item(part) for part in parts if part != ""]
    if not values:
        raise ValueError("expected at least one value")
    return values


def _ratios(raw) -> list:
    """Ratios as "a,b,c", a JSON list, or a range "lo..hi" (5 points) / "lo..hi:n"."""
    if not (isinstance(raw, str) and ".." in raw):
        return _list(raw, _float)
    import numpy as np
    span, _, count = raw.partition(":")
    lo, hi = map(float, span.split(".."))
    n = int(count or 5)
    if n < 2 or hi <= lo:
        raise ValueError(f"a range lo..hi[:n] needs hi > lo and n >= 2, got {raw!r}")
    return [float(v) for v in np.linspace(lo, hi, n)]


class Setting(NamedTuple):
    flag: str
    parse: Callable  # flag string or JSON value -> the value the manifest records
    default: object
    help: str


# Keyed by config key, which is also the argparse dest and the manifest key.
SETTINGS = {
    "input": Setting("--input", str, None, "CSV file with a header of variable names"),
    "system": Setting("--system", _choice(*SYSTEM_KINDS), None,
                      "benchmark system to simulate (analyze, sensitivity: instead of --input)"),
    "length": Setting("--length", _int, 1000, "generated sample length"),
    "burn_in": Setting("--burn-in", _int, 100, "transient steps to drop"),
    "signal": Setting("--m", _float, None, "bivariate signal coefficient"),
    "noise": Setting("--eps", _float, 1.0, "bivariate noise coefficient"),
    "detrend": Setting("--detrend", _bool, False, "remove a linear trend per variable"),
    "deseasonalize_period": Setting("--deseasonalize", _int, None,
                                    "remove the mean cycle of this period per variable"),
    "max_lag": Setting("--max-lag", _count, 4, "largest lag to test"),
    "method": Setting("--method", _choice("te", "gc"), "te", "estimator"),
    "bins": Setting("--bins", _auto_or_int, "auto", "'auto' (Scott's rule) or a fixed bin count"),
    "n_surrogates": Setting("--surrogates", _int, 100, "surrogate realizations per test"),
    "confidence": Setting("--confidence", _float, 0.95, "surrogate test confidence"),
    "te_surrogate_test": Setting("--te-surrogate-test", _choice("on", "off"), "off",
                                 "surrogate-test the TE after the MI gate"),
    "gc_alpha": Setting("--gc-alpha", _float, 0.05, "Granger F-test level"),
    "gc_lagwise": Setting("--gc-mode", _choice(lagwise=True, cumulative=False), "lagwise",
                          "test each lag alone or all lags up to it"),
    "n_subsamples": Setting("--subsamples", _int, None,
                            "enable the ensemble check with this many windows"),
    "subsample_length": Setting("--sub-length", _int, None, "window length for the ensemble check"),
    "mode": Setting("--mode", _choice(*SUBSAMPLE_MODES), "random-continuous",
                    "how windows are drawn"),
    "threshold": Setting("--threshold", _float, 0.9, "consistency vote fraction"),
    "reuse_parent_bins": Setting("--reuse-parent-bins", _bool, False,
                                 "reuse the full-sample discretization for every window"),
    "workers": Setting("--workers", _count, 1, f"parallel workers (capped by ${THREAD_ENV})"),
    "kind": Setting("--kind", _choice(linear="bivariate-linear", nonlinear="bivariate-nonlinear"),
                    "linear", "bivariate system"),
    "lengths": Setting("--lengths", lambda raw: _list(raw, _int), "100,1000",
                       "comma-separated sample lengths"),
    "ratios": Setting("--ratios", _ratios, "0.1,0.25,0.5,0.75,1.0",
                      "signal-to-noise ratios: 'a,b,c' or 'lo..hi[:n]'"),
    "trials": Setting("--trials", _count, 1000, "trials per grid point"),
    "center": Setting("--center", _auto_or_int, "auto",
                      "'auto' (the graph's Scott's-rule count) or a center bin count"),
    "radius": Setting("--radius", _int, 2, "half-width of the bin-count window"),
    "seed": Setting("--seed", _int, None, "RNG seed (required when the run draws random numbers)"),
    "out": Setting("--out", str, None, "output directory, or a .csv path for generate and evaluate"),
    "truth": Setting("--truth", str, None, "ground-truth JSON path (default next to the CSV)"),
}


def _always(s: dict) -> bool:
    return True


# A part of a run: the settings only it reads, what a run sets to use it
# (None: every run does), and whether this run does. Each command lists its
# parts in --help order; the settings outside them are seed, out, truth.
SYSTEM_PARTS = (
    (("system", "length"), "--system", lambda s: s["system"] is not None),
    (("burn_in",), "--system " + " or ".join(
        kind for kind, reads in SYSTEM_SETTINGS.items() if "burn_in" in reads),
     lambda s: "burn_in" in SYSTEM_SETTINGS.get(s["system"], ())),
    (("signal", "noise"), "a bivariate --system",
     lambda s: "signal" in SYSTEM_SETTINGS.get(s["system"], ())),
)
SOURCE_PARTS = (
    (("input",), "--input", lambda s: s["input"] is not None),
    *SYSTEM_PARTS,
    (("detrend", "deseasonalize_period"), None, _always),
)
ANALYZE_PARTS = (
    (("max_lag", "method"), None, _always),
    (("bins", "n_surrogates", "confidence", "te_surrogate_test"), "--method te",
     lambda s: s["method"] == "te"),
    (("gc_alpha", "gc_lagwise"), "--method gc", lambda s: s["method"] == "gc"),
    (("n_subsamples", "subsample_length", "mode", "threshold"), "--subsamples",
     lambda s: s["n_subsamples"] is not None),
    (("reuse_parent_bins",), "--method te with --subsamples",
     lambda s: s["method"] == "te" and s["n_subsamples"] is not None),
    (("workers",), "--subsamples", lambda s: s["n_subsamples"] is not None),
)
UNRECORDED_KEYS = ("workers",)  # used, but not in the manifest: it changes no output
# Settings a run may set for a part it skips: the benchmark harness
# (benchmarks/harness.py) passes --surrogates to its GC analyses too.
UNCHECKED_KEYS = ("n_surrogates",)


def _load_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _resolve(ns) -> dict:
    """Final value of each setting of ``ns.subcommand``: flag beats config
    beats default, each passed through its row's parser."""
    command = COMMANDS[ns.subcommand]
    config = _load_config(ns.config)
    for key in config:
        if key not in command.keys:
            flags = {SETTINGS[name].flag: name for name in command.keys}
            flag = "--" + key.replace("_", "-")
            hint = f"; {flag} sets {flags[flag]!r}" if flag in flags else ""
            raise UsageError(f"{ns.subcommand} takes no config key {key!r}{hint}")
    values = {}
    for key in command.keys:
        row = SETTINGS[key]
        raw = getattr(ns, key)
        if raw is None:
            raw = config.get(key)
        if raw is None:
            raw = command.out if key == "out" else row.default
        try:
            values[key] = None if raw is None else row.parse(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{row.flag} (config key {key}): {exc}") from None
    return values


def _recorded(command: Command, s: dict) -> dict:
    """The manifest's ``config``: the settings of every part of ``command``
    that the run uses. A setting of a part it skips, away from its parsed
    default, is a usage error."""
    config = {}
    for keys, needs, used in command.parts:
        if used(s):
            config.update((key, s[key]) for key in keys if key not in UNRECORDED_KEYS)
            continue
        for key in keys:
            row = SETTINGS[key]
            default = None if row.default is None else row.parse(row.default)
            if key not in UNCHECKED_KEYS and s[key] != default:
                raise UsageError(f"{row.flag} (config key {key}) needs {needs}")
    return config


def _require_seed(seed) -> int:
    if seed is None:
        raise UsageError("--seed is required (this command draws random numbers)")
    return seed


def _worker_count(requested: int) -> int:
    cap_raw = os.environ.get(THREAD_ENV, requested)
    try:
        return min(requested, max(1, int(cap_raw)))
    except ValueError:
        raise UsageError(f"{THREAD_ENV} must be an integer, got {cap_raw!r}") from None


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_manifest(path: Path, command: str, config: dict, seed) -> None:
    import platform
    import numpy as np
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "robustcausal": __version__,
        },
    }
    _write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _beside(out: Path, name: str) -> Path:
    """``out/name``, or ``<stem>_name`` next to ``out`` when it is a .csv file."""
    return out.with_name(f"{out.stem}_{name}") if out.suffix.lower() == ".csv" else out / name


def _checked(config: Callable, **settings):
    """``config(**settings)``: a config object, such as a ``SystemSpec``, or a
    study, such as ``monte_carlo_rates``. Settings it rejects are usage errors."""
    try:
        return config(**settings)
    except InvalidConfig as exc:
        raise UsageError(str(exc)) from None


def _generate(s: dict, seed):
    """The dataset and ground truth of the benchmark system the settings describe."""
    from .synthetic import SystemSpec, generate
    return generate(_checked(SystemSpec, kind=s["system"], length=s["length"],
                             rng_seed=_require_seed(seed), burn_in=s["burn_in"],
                             signal=s["signal"], noise=s["noise"]))


def _load_input(s: dict, seed: int | None):
    """Preprocessed dataset from --input CSV or an inline-generated --system."""
    from .timeseries import PreprocessSpec, apply_preprocess, read_dataset_csv
    if (s["input"] is None) == (s["system"] is None):
        raise UsageError("exactly one of --input or --system is required")
    spec = _checked(PreprocessSpec, detrend=s["detrend"], season_period=s["deseasonalize_period"])
    if s["input"] is not None:
        d = read_dataset_csv(s["input"])
    else:
        d, _ = _generate(s, seed)
    if spec.detrend or spec.season_period is not None:
        d = apply_preprocess(d, spec)
    return d


def cmd_generate(s: dict, config: dict) -> int:
    from .timeseries import write_dataset_csv
    seed = _require_seed(s["seed"])
    if s["system"] is None:
        raise UsageError("--system is required")
    d, truth = _generate(s, seed)

    out = Path(s["out"] or f"system_{s['system']}.csv")
    csv_path = out if out.suffix.lower() == ".csv" else out / "data.csv"
    truth_path = Path(s["truth"]) if s["truth"] else _beside(out, "truth.json")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(d, csv_path)
    _write(truth_path, truth.to_json())
    # Record the paths as given, not as derived: a replay with a new --out
    # then writes every file beside the new output.
    config.update(truth=s["truth"], out=str(out))
    _write_manifest(_beside(out, "manifest.json"), "generate", config, seed)
    print(f"wrote {csv_path} ({len(d.names)} variables, {d.length} steps)")
    return 0


def _surrogate_config(s: dict, seed: int):
    from .significance import SurrogateConfig
    return _checked(SurrogateConfig, rng_seed=seed, n_surrogates=s["n_surrogates"],
                    confidence=s["confidence"],
                    te_surrogate_test=s.get("te_surrogate_test") == "on",
                    bins=None if s.get("bins", "auto") == "auto" else s["bins"])


def cmd_analyze(s: dict, config: dict) -> int:
    from .ensemble import EnsembleConfig, analyze_ensemble
    from .granger import GrangerConfig
    from .graph import _check_max_lag, build_graph, export_graph
    ensemble = s["n_subsamples"] is not None
    seed = _require_seed(s["seed"]) if s["method"] == "te" or ensemble else s["seed"]
    test = (_surrogate_config(s, seed) if s["method"] == "te"
            else _checked(GrangerConfig, alpha=s["gc_alpha"], lagwise=s["gc_lagwise"]))
    if ensemble:
        if s["subsample_length"] is None:
            raise UsageError("--sub-length is required when --subsamples is set")
        ens_cfg = _checked(EnsembleConfig, n_subsamples=s["n_subsamples"],
                           subsample_length=s["subsample_length"], rng_seed=seed,
                           mode=s["mode"], threshold=s["threshold"],
                           reuse_parent_bins=s["reuse_parent_bins"])
        try:
            _check_max_lag(s["max_lag"], s["subsample_length"])
        except LagTooLarge as exc:
            raise UsageError(f"--max-lag with --sub-length: {exc}") from None
    d = _load_input(s, seed)
    out = Path(s["out"])

    if ensemble:
        result = analyze_ensemble(d, ens_cfg, test, max_lag=s["max_lag"],
                                  workers=_worker_count(s["workers"]))
        graph, robust = result.full_graph, result.robust
        _write(out / "frequencies.csv", result.frequencies.to_csv())
        _write(out / "robust_graph.json", export_graph(robust, "json"))
        summary = f"full graph: {graph.n_links} link(s); robust graph: {robust.n_links} link(s)"
    else:
        graph = build_graph(d, test, s["max_lag"])
        summary = f"graph: {graph.n_links} significant link(s)"
    _write(out / "graph.json", export_graph(graph, "json"))
    _write(out / "graph.dot", export_graph(graph, "dot"))
    _write_manifest(out / "manifest.json", "analyze", config, seed)
    print(f"{summary} -> {out}")
    return 0


def cmd_evaluate(s: dict, config: dict) -> int:
    from .evaluation import monte_carlo_rates
    seed = _require_seed(s["seed"])
    curve = _checked(monte_carlo_rates, kind=s["kind"], lengths=s["lengths"],
                     ratios=s["ratios"], n_trials=s["trials"],
                     surrogate=_surrogate_config(s, seed))
    out = Path(s["out"])
    csv_path = out if out.suffix.lower() == ".csv" else out / "error_rates.csv"
    _write(csv_path, curve.to_csv())
    config["out"] = str(out)
    _write_manifest(_beside(out, "manifest.json"), "evaluate", config, seed)
    print(f"wrote {csv_path} ({len(curve.points)} grid points x {s['trials']} trials)")
    return 0


def cmd_sensitivity(s: dict, config: dict) -> int:
    from .estimators import BinningSpec
    from .evaluation import bin_sensitivity_scan
    from .graph import export_graph
    seed = _require_seed(s["seed"])
    surrogate = _surrogate_config(s, seed)
    if s["radius"] < 0:
        raise UsageError(f"--radius must be >= 0, got {s['radius']}")
    if s["center"] != "auto" and s["center"] - s["radius"] < 2:
        raise UsageError(f"--center {s['center']} with --radius {s['radius']} dips below 2 bins")
    d = _load_input(s, seed)
    center = s["center"]
    if center == "auto":
        center = BinningSpec.from_dataset(d).bin_count
    report = bin_sensitivity_scan(d, center, s["radius"], max_lag=s["max_lag"],
                                  surrogate=surrogate)

    out = Path(s["out"])
    for m, graph in sorted(report.graphs.items()):
        _write(out / f"graph_bins_{m}.json", export_graph(graph, "json"))
    summary = {
        "center_bins": report.center_bins,
        "jaccard": {str(m): report.jaccard[m] for m in sorted(report.jaccard)},
        "n_links": {str(m): report.graphs[m].n_links for m in sorted(report.graphs)},
        "stable": report.stable(),
    }
    _write(out / "report.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    config["center"] = center
    _write_manifest(out / "manifest.json", "sensitivity", config, seed)
    flat = ", ".join(f"{m}:{report.jaccard[m]:.2f}" for m in sorted(report.jaccard))
    print(f"bin sensitivity around {center}: {flat} -> {out}")
    return 0


class Command(NamedTuple):
    run: Callable  # (settings, the manifest's config) -> exit code
    help: str
    parts: tuple  # (keys, needs, used) per part, in --help order
    own: tuple  # settings outside the parts (seed, out, truth); the command records them
    out: str | None  # default of --out

    @property
    def keys(self) -> tuple:
        return tuple(key for keys, _, _ in self.parts for key in keys) + self.own


COMMANDS = {
    "generate": Command(cmd_generate, "simulate a benchmark system to CSV", SYSTEM_PARTS,
                        ("seed", "out", "truth"), None),
    "analyze": Command(cmd_analyze, "build the lagged causal graph of a dataset",
                       SOURCE_PARTS + ANALYZE_PARTS, ("seed", "out"), "analysis"),
    "evaluate": Command(cmd_evaluate, "Monte Carlo FNR/FPR curves on the bivariate benchmark",
                        ((("kind", "lengths", "ratios", "trials", "n_surrogates", "confidence"),
                          None, _always),),
                        ("seed", "out"), "evaluation"),
    "sensitivity": Command(cmd_sensitivity, "link-set stability across bin counts",
                           SOURCE_PARTS + ((("center", "radius", "max_lag", "n_surrogates",
                                             "confidence"), None, _always),),
                           ("seed", "out"), "sensitivity"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcausal",
        description="Lagged causal-link discovery with surrogate significance "
        "testing and a subsample-ensemble consistency check.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key in command.keys:
            row = SETTINGS[key]
            default = command.out if key == "out" else row.default
            shown = "" if default is None else f", default {default}"
            kind = ({"action": argparse.BooleanOptionalAction} if row.parse is _bool
                    else {"choices": getattr(row.parse, "choices", None)})
            p.add_argument(row.flag, dest=key, help=f"{row.help} (key {key}{shown})", **kind)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    command = COMMANDS[ns.subcommand]
    try:
        s = _resolve(ns)
        return command.run(s, _recorded(command, s))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RobustCausalError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
