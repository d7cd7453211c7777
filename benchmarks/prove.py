"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/prove.py --seeds 1-10 [--workloads chain_B,evaluate_grid]
                                [--out benchmarks/baseline.json]

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of that
median, next to the metric's bound from ``BENCHMARK.json``. With ``--out``
it also writes the runs, the machine, the seeds, the output fingerprints
and the per-layer metrics of one traced run per workload to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and the interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def bench(spec: dict, name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run of the benchmark command: its result line and its record."""
    command = [*spec["command"], "--workload", name, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *command[1:]], cwd=ROOT, check=True,
                          capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / name /
                         f"record-seed{seed}-trace{trace}.json").read_text())
    record["run_elapsed_s"] = time.perf_counter() - start
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out")
    ns = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ns.workloads.split(",") if ns.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(ns.seeds)
    summary = {"cpu_model": _cpu_model(), "seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            result, record = bench(spec, name, seed, 0)
            runs.append({"seed": seed, "result": result, "fingerprint": record["fingerprint"],
                         "quality": record["quality"], "wall_s": record["wall_s"],
                         "wall_s_samples": record["wall_s_samples"],
                         "reference_s": record["reference_s"],
                         "reference_samples": len(record["reference_s_samples"]),
                         "run_elapsed_s": record["run_elapsed_s"]})
            ok &= result["correct"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
            median, share = spread(values)
            steady = share < metric["bound"] / 3 or metric["name"] == "setup_s"
            ok &= steady
            metrics[metric["name"]] = {"median": median, "iqr_share": share,
                                       "bound": metric["bound"], "values": values}
            print(f"  {metric['name']:12s} median {median:10.4f} {metric['unit']:4s} "
                  f"iqr/median {share:.4f} bound {metric['bound']} "
                  f"{'ok' if steady else 'WIDE'}", flush=True)
        median, share = spread([run["wall_s"] for run in runs])
        metrics["wall_s (not gated)"] = {"median": median, "iqr_share": share}
        print(f"  {'wall_s':12s} median {median:10.4f} s    iqr/median {share:.4f} not gated",
              flush=True)
        layers, traced = bench(spec, name, seeds[0], 1)
        layers["run_elapsed_s"] = traced["run_elapsed_s"]
        ok &= layers["correct"]
        summary["machine"] = record["machine"]
        summary["workloads"][name] = {"inputs": record["workload"], "metrics": metrics,
                                      "runs": runs, "traced_run": layers}
    if ns.out:
        Path(ns.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
