"""Benchmark of the ``robustcausal`` command line.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload chain_B --seed 1 --seconds 45 --trace 0

Workloads (closed-loop: one caller runs rounds through
``robustcausal.cli.main`` in this process, BLAS pinned to one thread):

``chain_B``
    Two commands per round on one system-B record (1100 generated, 1000
    after burn-in), each an ensemble of 100 random windows of 200, max lag
    4, 100 surrogates, threshold 0.9: ``analyze`` TE with
    ``--te-surrogate-test on``, where shuffles and row entropies of the MI
    gate do most of the work and which is the only path through the TE
    surrogate stage; then ``analyze --method gc``, Granger tests dominated
    by per-call overhead. Timed rounds run at ``--workers 1``; one more
    round per run puts the TE command through the process pool at
    ``--workers 2`` and must give the same outputs.
``evaluate_grid``
    ``evaluate --kind linear --lengths 100,1000 --ratios 0.2..0.65:5
    --trials 40``: many single-link tests on short series, the only
    workload that reaches ``synthetic`` and ``evaluation``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
fresh interpreters that import the CLI and write the input), ``wall_ref``
and ``peak_rss_mb``. ``wall_ref`` is the mean seconds per timed round
divided by the mean CPU seconds of a fixed plain-Python loop that a
background thread runs every 0.1 s on the same CPU while the rounds are
timed (``harness.HostProbe``), so that swings in the speed of a shared
host cancel. The report lines also give the plain ``wall_s``,
``tests_per_s`` and ``reference_s``.
``--trace 1`` alternates traced and untraced ``--workers 1`` rounds and
prints the per-layer metrics derived from spans around the calls between
modules (see ``layer_trace.py``). Both modes check every output.
The report lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Working files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# numpy reads these when it is first imported, so they are set before that.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description="Benchmark the robustcausal CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _import_harness():
    """Import the harness against ``src/`` of this checkout, or exit with an error."""
    if not (SRC / "robustcausal" / "__init__.py").is_file():
        sys.exit(f"error: no robustcausal package under {SRC}")
    sys.path.insert(0, str(SRC))
    import robustcausal

    if Path(robustcausal.__file__).resolve().parent != (SRC / "robustcausal").resolve():
        sys.exit(f"error: robustcausal was imported from {robustcausal.__file__}, not {SRC}")
    import harness

    return harness


def _report(w, ns, result) -> None:
    rec = result.record
    print(f"workload {w.name} seed {ns.seed} trace {ns.trace}")
    for analysis in w.steps:
        print("  robustcausal " + " ".join(w.argv(ns.seed, "input.csv", "out", analysis, 1)))
    for analysis in w.steps:
        if analysis and analysis.workers > 1:
            print(f"  one round also at --workers {analysis.workers} for {analysis.method}, "
                  "with the same fingerprint")
    print(f"machine {json.dumps(rec['machine'], sort_keys=True)}")
    print(f"tests per round {w.tests}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:38s} {value:>16.6g} {unit}")
    if not ns.trace:
        print(f"{'wall_s':38s} {rec['wall_s']:>16.6g} s "
              f"(mean of {len(rec['wall_s_samples'])} rounds)")
        print(f"{'tests_per_s':38s} {rec['tests_per_s']:>16.6g} 1/s")
        print(f"{'reference_s':38s} {rec['reference_s']:>16.6g} s "
              f"(mean of {len(rec['reference_s_samples'])} samples)")
        for name, value in rec["quality"].items():
            print(f"{name:38s} {value:>16.6g}")
    print(f"{'failed_ops':38s} {result.failed / result.attempted:>16.6g} ratio "
          f"({result.failed} of {result.attempted} rounds)")
    print(f"{'fingerprint':38s} sha256:{rec['fingerprint']}")
    for problem in rec["problems"]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    ns = _parse(argv)
    os.environ.update(PINNED_ENV)
    # The CLI caps --workers by this variable; unset, chain_B runs 2 workers.
    os.environ.pop("ROBUST_CAUSAL_THREADS", None)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    harness = _import_harness()

    if ns.workload not in harness.WORKLOADS:
        sys.exit(f"error: --workload must be one of {', '.join(harness.WORKLOADS)}")
    w = harness.WORKLOADS[ns.workload]
    work = ROOT / ".bench_out" / w.name
    result = harness.run(w, ns.seed, ns.seconds, bool(ns.trace), work)
    with open(work / f"record-seed{ns.seed}-trace{ns.trace}.json", "w") as fh:
        json.dump(result.record, fh, indent=1, sort_keys=True)
    _report(w, ns, result)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
