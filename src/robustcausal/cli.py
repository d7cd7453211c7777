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

Settings come from flags or a single JSON config file (``--config``);
flags override config values. Every run writes a ``manifest.json``
recording the effective config, the seed, and library versions; two runs
with identical manifests produce byte-identical outputs.

Exit codes: 0 success, 1 computation error, 2 usage error. The environment
variable ``ROBUST_CAUSAL_THREADS`` caps worker parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .ensemble import EnsembleConfig, analyze_ensemble
from .errors import RobustCausalError
from .estimators import BinningSpec, system_bin_count
from .evaluation import bin_sensitivity_scan, monte_carlo_rates
from .granger import GrangerConfig
from .graph import build_graph, export_graph
from .significance import SurrogateConfig
from .synthetic import SYSTEM_KINDS, SystemSpec, generate
from .timeseries import PreprocessSpec, apply_preprocess, read_dataset_csv, write_dataset_csv

THREAD_ENV = "ROBUST_CAUSAL_THREADS"


class UsageError(Exception):
    """Bad invocation; maps to exit code 2."""


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "robustcausal": __version__,
    }


def _load_config(ns) -> dict:
    path = getattr(ns, "config", None)
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


def _setting(ns, config: dict, key: str, default):
    """Effective value of one setting: flag beats config beats default."""
    flag = getattr(ns, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _require_seed(value) -> int:
    if value is None:
        raise UsageError("--seed is required (this command draws random numbers)")
    return int(value)


def _parse_bins(raw) -> int | None:
    if raw is None or raw == "auto":
        return None
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise UsageError(f"--bins expects 'auto' or an integer, got {raw!r}") from None
    return value


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in str(raw).split(",") if part != ""]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {raw!r}") from None


def _parse_ratio_list(raw: str) -> list[float]:
    """Ratios as "a,b,c", or a range "lo..hi" (5 points) / "lo..hi:n"."""
    text = str(raw)
    if ".." in text:
        span, _, count = text.partition(":")
        lo_text, _, hi_text = span.partition("..")
        try:
            lo, hi = float(lo_text), float(hi_text)
            n = int(count) if count else 5
        except ValueError:
            raise UsageError(f"--ratios range must look like 0.1..2.0[:n], got {raw!r}") from None
        if n < 2 or hi <= lo:
            raise UsageError(f"--ratios range needs hi > lo and n >= 2, got {raw!r}")
        return [float(v) for v in np.linspace(lo, hi, n)]
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"--ratios expects comma-separated floats, got {raw!r}") from None


def _worker_count(requested) -> int:
    cap_raw = os.environ.get(THREAD_ENV)
    requested = 1 if requested is None else int(requested)
    if requested < 1:
        raise UsageError(f"--workers must be >= 1, got {requested}")
    if cap_raw is None:
        return requested
    try:
        cap = max(1, int(cap_raw))
    except ValueError:
        raise UsageError(f"{THREAD_ENV} must be an integer, got {cap_raw!r}") from None
    return min(requested, cap)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_manifest(path: Path, command: str, config: dict, seed) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": _versions(),
    }
    _write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _system_spec(ns, config: dict, kind: str, seed) -> SystemSpec:
    """The benchmark system the flags and config describe."""
    return SystemSpec(
        kind=kind,
        length=int(_setting(ns, config, "length", 1000)),
        rng_seed=_require_seed(seed),
        burn_in=int(_setting(ns, config, "burn_in", 100)),
        signal=_setting(ns, config, "signal", None),
        noise=_setting(ns, config, "noise", None),
    )


def _load_input(ns, config: dict, seed: int | None):
    """Dataset from --input CSV or an inline-generated --system."""
    input_path = _setting(ns, config, "input", None)
    system = _setting(ns, config, "system", None)
    if (input_path is None) == (system is None):
        raise UsageError("exactly one of --input or --system is required")
    if input_path is not None:
        return read_dataset_csv(input_path), None, {"input": str(input_path)}
    spec = _system_spec(ns, config, system, seed)
    d, truth = generate(spec)
    described = {
        "system": spec.kind,
        "length": spec.length,
        "burn_in": spec.burn_in,
    }
    if spec.signal is not None:
        described["signal"] = spec.signal
        described["noise"] = 1.0 if spec.noise is None else spec.noise
    return d, truth, described


def _preprocess(ns, config: dict, d):
    period = _setting(ns, config, "deseasonalize_period", None)
    spec = PreprocessSpec(
        detrend=bool(_setting(ns, config, "detrend", False)),
        deseasonalize=period is not None,
        season_period=int(period) if period is not None else 12,
    )
    if spec.detrend or spec.deseasonalize:
        d = apply_preprocess(d, spec)
    return d, {
        "detrend": spec.detrend,
        "deseasonalize_period": int(period) if period is not None else None,
    }


def cmd_generate(ns) -> int:
    config = _load_config(ns)
    seed = _require_seed(_setting(ns, config, "seed", None))
    kind = _setting(ns, config, "system", None)
    if kind is None:
        raise UsageError("--system is required")
    spec = _system_spec(ns, config, kind, seed)
    d, truth = generate(spec)

    out_raw = _setting(ns, config, "out", None)
    if out_raw is None:
        out_raw = f"system_{kind}.csv"
    out = Path(out_raw)
    if out.suffix.lower() == ".csv":
        csv_path = out
        truth_raw = _setting(ns, config, "truth", None)
        truth_path = Path(truth_raw) if truth_raw else out.with_name(out.stem + "_truth.json")
        manifest_path = out.with_name(out.stem + "_manifest.json")
    else:
        csv_path = out / "data.csv"
        truth_path = out / "truth.json"
        manifest_path = out / "manifest.json"

    csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(d, csv_path)
    _write(truth_path, truth.to_json())
    effective = {
        "system": spec.kind,
        "length": spec.length,
        "burn_in": spec.burn_in,
        "signal": spec.signal,
        "noise": spec.noise,
        "out": str(csv_path),
        "truth": str(truth_path),
    }
    _write_manifest(manifest_path, "generate", effective, seed)
    print(f"wrote {csv_path} ({len(d.names)} variables, {d.length} steps)")
    return 0


def _surrogate_config(ns, config: dict, seed: int) -> SurrogateConfig:
    raw_switch = _setting(ns, config, "te_surrogate_test", "off")
    if isinstance(raw_switch, str):
        if raw_switch not in ("on", "off"):
            raise UsageError(f"--te-surrogate-test expects on|off, got {raw_switch!r}")
        switch = raw_switch == "on"
    else:
        switch = bool(raw_switch)
    return SurrogateConfig(
        rng_seed=seed,
        n_surrogates=int(_setting(ns, config, "n_surrogates", 100)),
        confidence=float(_setting(ns, config, "confidence", 0.95)),
        te_surrogate_test=switch,
    )


def cmd_analyze(ns) -> int:
    config = _load_config(ns)
    method = _setting(ns, config, "method", "te")
    if method not in ("te", "gc"):
        raise UsageError(f"--method expects te or gc, got {method!r}")
    seed_raw = _setting(ns, config, "seed", None)
    n_subsamples = _setting(ns, config, "n_subsamples", None)

    needs_seed = method == "te" or n_subsamples is not None
    seed = _require_seed(seed_raw) if needs_seed else (int(seed_raw) if seed_raw is not None else None)

    d, _, source_desc = _load_input(ns, config, seed)
    d, prep_desc = _preprocess(ns, config, d)

    max_lag = int(_setting(ns, config, "max_lag", 4))
    bins = _parse_bins(_setting(ns, config, "bins", None))
    surrogate = _surrogate_config(ns, config, seed) if method == "te" else None
    gc_lagwise = _setting(ns, config, "gc_lagwise", True)
    if isinstance(gc_lagwise, str):
        gc_lagwise = gc_lagwise != "cumulative"
    granger = (
        GrangerConfig(
            alpha=float(_setting(ns, config, "gc_alpha", 0.05)),
            lagwise=bool(gc_lagwise),
        )
        if method == "gc"
        else None
    )

    out = Path(_setting(ns, config, "out", "analysis"))
    effective = {
        **source_desc,
        **prep_desc,
        "method": method,
        "max_lag": max_lag,
        "bins": bins if bins is not None else "auto",
    }
    if surrogate is not None:
        effective.update(
            n_surrogates=surrogate.n_surrogates,
            confidence=surrogate.confidence,
            te_surrogate_test="on" if surrogate.te_surrogate_test else "off",
        )
    if granger is not None:
        effective.update(gc_alpha=granger.alpha, gc_lagwise=granger.lagwise)

    if n_subsamples is None:
        graph = build_graph(d, max_lag, method, surrogate=surrogate, granger=granger, bins=bins)
        _write(out / "graph.json", export_graph(graph, "json"))
        _write(out / "graph.dot", export_graph(graph, "dot"))
        _write_manifest(out / "manifest.json", "analyze", effective, seed)
        print(f"graph: {graph.n_links} significant link(s) -> {out}")
        return 0

    sub_length = _setting(ns, config, "subsample_length", None)
    if sub_length is None:
        raise UsageError("--sub-length is required when --subsamples is set")
    ens_cfg = EnsembleConfig(
        n_subsamples=int(n_subsamples),
        subsample_length=int(sub_length),
        rng_seed=seed,
        mode=_setting(ns, config, "mode", "random-continuous"),
        threshold=float(_setting(ns, config, "threshold", 0.9)),
    )
    workers = _worker_count(_setting(ns, config, "workers", None))
    reuse_parent_bins = bool(_setting(ns, config, "reuse_parent_bins", False))
    result = analyze_ensemble(
        d,
        ens_cfg,
        max_lag=max_lag,
        method=method,
        surrogate=surrogate,
        granger=granger,
        bins=bins,
        reuse_parent_bins=reuse_parent_bins,
        workers=workers,
    )
    effective.update(
        n_subsamples=ens_cfg.n_subsamples,
        subsample_length=ens_cfg.subsample_length,
        mode=ens_cfg.mode,
        threshold=ens_cfg.threshold,
        reuse_parent_bins=reuse_parent_bins,
    )
    _write(out / "graph.json", export_graph(result.full_graph, "json"))
    _write(out / "graph.dot", export_graph(result.full_graph, "dot"))
    _write(out / "frequencies.csv", result.frequencies.to_csv())
    _write(out / "robust_graph.json", export_graph(result.robust.graph, "json"))
    _write_manifest(out / "manifest.json", "analyze", effective, seed)
    print(
        f"full graph: {result.full_graph.n_links} link(s); "
        f"robust graph: {result.robust.graph.n_links} link(s) -> {out}"
    )
    return 0


def cmd_evaluate(ns) -> int:
    config = _load_config(ns)
    seed = _require_seed(_setting(ns, config, "seed", None))
    trials = int(_setting(ns, config, "trials", 1000))
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    kind = _setting(ns, config, "kind", "linear")
    lengths = _parse_int_list(_setting(ns, config, "lengths", "100,1000"), "--lengths")
    ratios = _parse_ratio_list(_setting(ns, config, "ratios", "0.1,0.25,0.5,0.75,1.0"))
    if not lengths or not ratios:
        raise UsageError("--lengths and --ratios must be nonempty")
    n_surrogates = int(_setting(ns, config, "n_surrogates", 100))
    confidence = float(_setting(ns, config, "confidence", 0.95))
    curve = monte_carlo_rates(
        kind=kind,
        lengths=lengths,
        ratios=ratios,
        n_trials=trials,
        rng_seed=seed,
        n_surrogates=n_surrogates,
        confidence=confidence,
    )
    out = Path(_setting(ns, config, "out", "evaluation"))
    if out.suffix.lower() == ".csv":
        csv_path = out
        manifest_path = out.with_name(out.stem + "_manifest.json")
    else:
        csv_path = out / "error_rates.csv"
        manifest_path = out / "manifest.json"
    _write(csv_path, curve.to_csv())
    effective = {
        "kind": curve.kind,
        "lengths": lengths,
        "ratios": ratios,
        "trials": trials,
        "n_surrogates": n_surrogates,
        "confidence": confidence,
        "out": str(csv_path),
    }
    _write_manifest(manifest_path, "evaluate", effective, seed)
    print(f"wrote {csv_path} ({len(curve.points)} grid points x {trials} trials)")
    return 0


def cmd_sensitivity(ns) -> int:
    config = _load_config(ns)
    seed = _require_seed(_setting(ns, config, "seed", None))
    d, _, source_desc = _load_input(ns, config, seed)
    d, prep_desc = _preprocess(ns, config, d)

    center_raw = _setting(ns, config, "center", "auto")
    if center_raw == "auto":
        center = system_bin_count(d)
    else:
        try:
            center = int(center_raw)
        except (TypeError, ValueError):
            raise UsageError(f"--center expects 'auto' or an integer, got {center_raw!r}") from None
    radius = int(_setting(ns, config, "radius", 2))
    max_lag = int(_setting(ns, config, "max_lag", 4))
    surrogate = _surrogate_config(ns, config, seed)
    report = bin_sensitivity_scan(d, center, radius, max_lag=max_lag, surrogate=surrogate)

    out = Path(_setting(ns, config, "out", "sensitivity"))
    for m, graph in sorted(report.graphs.items()):
        _write(out / f"graph_bins_{m}.json", export_graph(graph, "json"))
    summary = {
        "center_bins": report.center_bins,
        "jaccard": {str(m): report.jaccard[m] for m in sorted(report.jaccard)},
        "n_links": {str(m): report.graphs[m].n_links for m in sorted(report.graphs)},
        "stable": report.stable(),
    }
    _write(out / "report.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    effective = {
        **source_desc,
        **prep_desc,
        "center": center,
        "radius": radius,
        "max_lag": max_lag,
        "n_surrogates": surrogate.n_surrogates,
        "confidence": surrogate.confidence,
    }
    _write_manifest(out / "manifest.json", "sensitivity", effective, seed)
    flat = ", ".join(f"{m}:{report.jaccard[m]:.2f}" for m in sorted(report.jaccard))
    print(f"bin sensitivity around {center}: {flat} -> {out}")
    return 0


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="CSV file with a header of variable names")
    p.add_argument("--system", choices=SYSTEM_KINDS, help="generate this benchmark system instead")
    p.add_argument("--length", type=int, help="generated sample length (default 1000)")
    p.add_argument("--burn-in", dest="burn_in", type=int, help="transient steps to drop (default 100)")
    p.add_argument("--m", dest="signal", type=float, help="bivariate signal coefficient")
    p.add_argument("--eps", dest="noise", type=float, help="bivariate noise coefficient (default 1)")
    p.add_argument("--detrend", action=argparse.BooleanOptionalAction, default=None,
                   help="remove a linear trend per variable")
    p.add_argument("--deseasonalize", dest="deseasonalize_period", type=int, metavar="PERIOD",
                   help="remove the mean cycle of this period per variable")


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surrogates", dest="n_surrogates", type=int,
                   help="surrogate realizations per test (default 100)")
    p.add_argument("--confidence", type=float, help="surrogate test confidence (default 0.95)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcausal",
        description="Lagged causal-link discovery with surrogate significance "
        "testing and a subsample-ensemble consistency check.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="simulate a benchmark system to CSV")
    g.add_argument("--config", help="JSON config file; flags override its keys")
    g.add_argument("--system", choices=SYSTEM_KINDS)
    g.add_argument("--length", type=int)
    g.add_argument("--burn-in", dest="burn_in", type=int)
    g.add_argument("--m", dest="signal", type=float)
    g.add_argument("--eps", dest="noise", type=float)
    g.add_argument("--seed", type=int, help="RNG seed (required)")
    g.add_argument("--out", help="output CSV path or directory")
    g.add_argument("--truth", help="ground-truth JSON path (default next to the CSV)")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="build the lagged causal graph of a dataset")
    a.add_argument("--config", help="JSON config file; flags override its keys")
    _add_input_flags(a)
    a.add_argument("--max-lag", dest="max_lag", type=int, help="largest lag to test (default 4)")
    a.add_argument("--method", choices=("te", "gc"), help="estimator (default te)")
    a.add_argument("--bins", help="'auto' (Scott's rule) or a fixed bin count")
    _add_test_flags(a)
    a.add_argument("--te-surrogate-test", dest="te_surrogate_test", choices=("on", "off"),
                   help="surrogate-test the TE after the MI gate (default off)")
    a.add_argument("--gc-alpha", dest="gc_alpha", type=float)
    a.add_argument("--gc-mode", dest="gc_lagwise", choices=("lagwise", "cumulative"))
    a.add_argument("--subsamples", dest="n_subsamples", type=int,
                   help="enable the ensemble check with this many windows")
    a.add_argument("--sub-length", dest="subsample_length", type=int,
                   help="window length for the ensemble check")
    a.add_argument("--mode", choices=("random-continuous", "fixed-overlap", "nonoverlapping"))
    a.add_argument("--threshold", type=float, help="consistency vote fraction (default 0.9)")
    a.add_argument("--reuse-parent-bins", dest="reuse_parent_bins",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="reuse the full-sample discretization for every window")
    a.add_argument("--workers", type=int, help=f"parallel workers (capped by ${THREAD_ENV})")
    a.add_argument("--seed", type=int, help="RNG seed (required for te or ensemble runs)")
    a.add_argument("--out", help="output directory (default ./analysis)")
    a.set_defaults(func=cmd_analyze)

    e = sub.add_parser("evaluate", help="Monte Carlo FNR/FPR curves on the bivariate benchmark")
    e.add_argument("--config", help="JSON config file; flags override its keys")
    e.add_argument("--kind", choices=("linear", "nonlinear"))
    e.add_argument("--lengths", help="comma-separated sample lengths (default 100,1000)")
    e.add_argument("--ratios", help="signal-to-noise ratios: 'a,b,c' or 'lo..hi[:n]'")
    e.add_argument("--trials", type=int, help="trials per grid point (default 1000)")
    _add_test_flags(e)
    e.add_argument("--seed", type=int, help="RNG seed (required)")
    e.add_argument("--out", help="output directory or CSV path (default ./evaluation)")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("sensitivity", help="link-set stability across bin counts")
    s.add_argument("--config", help="JSON config file; flags override its keys")
    _add_input_flags(s)
    s.add_argument("--center", help="'auto' (Scott's rule) or a center bin count")
    s.add_argument("--radius", type=int, help="half-width of the bin-count window (default 2)")
    s.add_argument("--max-lag", dest="max_lag", type=int)
    _add_test_flags(s)
    s.add_argument("--seed", type=int, help="RNG seed (required)")
    s.add_argument("--out", help="output directory (default ./sensitivity)")
    s.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RobustCausalError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except OSError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
