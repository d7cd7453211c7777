"""Workloads, timed CLI rounds, output checks and metrics.

A round runs every command of a workload once, in order, through
``robustcausal.cli.main`` in this process. Rounds are closed-loop: one
caller, and the next round starts when the previous one has returned.
Inputs come from the run's seed only. Every round is checked, and one in
which a command exits non-zero or fails a check counts as a failed
operation. All rounds of one run use the same input and seed, so they must
also produce the same output fingerprint; on ``chain_B`` this includes a
round at ``--workers 2`` next to the timed ``--workers 1`` ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

import robustcausal
from robustcausal import cli
from robustcausal.errors import RobustCausalError
from robustcausal.graph import export_graph, import_graph
from robustcausal.synthetic import GroundTruth

from layer_trace import Tracer, instrument, summarize

SRC = Path(robustcausal.__file__).resolve().parents[1]
# Fewest rounds a run times.
MIN_SAMPLES = 3
# Fresh interpreters per timed set-up; setup_s is their median.
SETUP_REPEATS = 3
# Seconds between two host-speed samples while rounds are timed.
PROBE_PERIOD_S = 0.1
# Iterations of one host-speed sample, about 2 ms on a 2-vCPU Xeon VM.
PROBE_LOOPS = 20_000
# True links of system B at least this strong count towards the recall.
STRONG_COEFFICIENT = 0.3
VARIABLES = 4

# A fresh interpreter that imports the CLI and writes the workload's input.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from robustcausal.cli import main; "
    "sys.exit(main(sys.argv[2:]) if len(sys.argv) > 2 else 0)"
)


@dataclass(frozen=True)
class Analysis:
    """One ``analyze`` command of a round. Timed rounds run it at
    ``--workers 1``; ``workers`` is the count of the extra round that
    checks the result does not depend on it."""

    method: str = "te"
    te_surrogate_test: bool = False
    workers: int = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the commands of a round and the sizes of
    their input. ``analyze`` rounds run ``analyses`` on one generated
    record; an ``evaluate`` round is a single ``evaluate`` command."""

    name: str
    command: str
    system: str = ""
    length: int = 0
    analyses: tuple[Analysis, ...] = (Analysis(),)
    max_lag: int = 4
    surrogates: int = 100
    subsamples: int = 100
    sub_length: int = 200
    lengths: tuple[int, ...] = (100, 1000)
    ratios: int = 5
    trials: int = 40

    @property
    def steps(self) -> tuple[Analysis | None, ...]:
        return self.analyses if self.command == "analyze" else (None,)

    @property
    def workers(self) -> int:
        return max(a.workers for a in self.analyses)

    @property
    def candidates(self) -> int:
        return VARIABLES * (VARIABLES - 1) * self.max_lag

    @property
    def grid_points(self) -> int:
        return len(self.lengths) * self.ratios

    @property
    def tests(self) -> int:
        """Link tests per round: every candidate on the full record and on
        every window per analysis, or two single-link tests per trial."""
        if self.command == "evaluate":
            return 2 * self.trials * self.grid_points
        return self.candidates * (1 + self.subsamples) * len(self.analyses)

    def argv(self, seed: int, data: Path | None, out: Path,
             analysis: Analysis | None, workers: int) -> list[str]:
        if analysis is None:
            return [
                "evaluate", "--kind", "linear",
                "--lengths", ",".join(str(n) for n in self.lengths),
                "--ratios", f"0.2..0.65:{self.ratios}",
                "--trials", str(self.trials), "--surrogates", str(self.surrogates),
                "--seed", str(seed), "--out", str(out),
            ]
        argv = [
            "analyze", "--input", str(data), "--method", analysis.method,
            "--max-lag", str(self.max_lag), "--surrogates", str(self.surrogates),
            "--subsamples", str(self.subsamples), "--sub-length", str(self.sub_length),
            "--threshold", "0.9", "--workers", str(workers),
            "--seed", str(seed), "--out", str(out),
        ]
        if analysis.te_surrogate_test:
            argv += ["--te-surrogate-test", "on"]
        return argv

    def generate_argv(self, seed: int, data: Path) -> list[str]:
        if self.command == "evaluate":
            return []
        return ["generate", "--system", self.system, "--length", str(self.length),
                "--seed", str(seed), "--out", str(data)]


def label(analysis: Analysis | None) -> str:
    return "evaluate" if analysis is None else analysis.method


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain_B", "analyze", system="B", length=1100,
                 analyses=(Analysis("te", te_surrogate_test=True, workers=2), Analysis("gc"))),
        Workload("evaluate_grid", "evaluate"),
    )
}


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Outcome:
    """One checked round; ``quality`` keys are prefixed by the command."""

    wall_s: float
    workers: int
    traced: bool
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def fingerprint(w: Workload, out: Path) -> str:
    """sha256 over the result files of one command."""
    if w.command == "evaluate":
        names = ("error_rates.csv",)
    else:
        names = ("graph.json", "robust_graph.json", "frequencies.csv")
    digest = hashlib.sha256()
    for name in names:
        path = out / name
        digest.update(name.encode() + b"\0")
        digest.update(path.read_bytes() if path.exists() else b"missing")
        digest.update(b"\0")
    return digest.hexdigest()


def _check_analyze(w: Workload, out: Path, truth: GroundTruth) -> dict:
    """Problems raise ValueError; returns the quality of the robust graph."""
    graphs = {}
    for name in ("graph.json", "robust_graph.json"):
        text = (out / name).read_text()
        graphs[name] = import_graph(text)
        if export_graph(graphs[name], "json") != text:
            raise ValueError(f"{name} does not round-trip through import_graph")
        if graphs[name].max_lag != w.max_lag:
            raise ValueError(f"{name} has max_lag {graphs[name].max_lag}, asked for {w.max_lag}")
    variables = graphs["graph.json"].variables
    if len(variables) != VARIABLES:
        raise ValueError(f"graph.json has {len(variables)} variables, expected {VARIABLES}")
    expected = {(s, t, lag) for s in variables for t in variables if s != t
                for lag in range(1, w.max_lag + 1)}
    rows = (out / "frequencies.csv").read_text().splitlines()[1:]
    if len(rows) != len(expected):
        raise ValueError(f"frequencies.csv has {len(rows)} rows, expected {len(expected)}")
    keys = set()
    for row in rows:
        source, target, lag = row.split(",")[:3]
        keys.add((source, target, int(lag)))
    if keys != expected:
        raise ValueError("frequencies.csv rows are not the candidate keys")
    for name, graph in graphs.items():
        if not graph.link_keys() <= keys:
            raise ValueError(f"{name} has links outside the candidate keys")

    robust = graphs["robust_graph.json"].link_keys()
    strong = {(l.source, l.target, l.lag) for l in truth.true_links
              if abs(l.coefficient) >= STRONG_COEFFICIENT}
    quality = {"false_links": len(robust - truth.link_keys() - truth.indirect_keys())}
    if strong:
        quality["true_link_recall"] = len(robust & strong) / len(strong)
    return quality


def _check_evaluate(w: Workload, out: Path) -> dict:
    lines = (out / "error_rates.csv").read_text().splitlines()
    if lines[0] != "data_length,m_over_eps,fnr,fpr,n_trials":
        raise ValueError("error_rates.csv has an unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != w.grid_points:
        raise ValueError(f"error_rates.csv has {len(rows)} rows, expected {w.grid_points}")
    if any(int(row[4]) != w.trials for row in rows):
        raise ValueError("error_rates.csv reports another trial count")
    return {
        "mean_fnr": statistics.fmean(float(row[2]) for row in rows),
        "mean_fpr": statistics.fmean(float(row[3]) for row in rows),
    }


def _call(argv: list[str], tracer: Tracer | None, root: str) -> tuple[object, float]:
    """Exit code and wall seconds of one CLI invocation, traced under a root
    span named ``root`` when a tracer is given."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with instrument(tracer), tracer.span(root):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "an uncaught exception"
        return code, time.perf_counter() - start


def run_round(w: Workload, seed: int, data: Path | None, truth: GroundTruth | None,
              out: Path, workers: int | None = None, tracer: Tracer | None = None) -> Outcome:
    """Run every command of the workload once, timed, then check what each
    wrote. ``workers`` overrides the worker count of every analysis."""
    outcome = Outcome(0.0, workers or w.workers, tracer is not None)
    digest = hashlib.sha256()
    for analysis in w.steps:
        name = label(analysis)
        step_out = out / name
        shutil.rmtree(step_out, ignore_errors=True)
        argv = w.argv(seed, data, step_out, analysis,
                      workers or (analysis.workers if analysis else 1))
        code, wall = _call(argv, tracer, f"cli.{name}")
        outcome.wall_s += wall
        if code != 0:
            outcome.problems.append(f"{name}: exit code {code}")
            continue
        try:
            if analysis is None:
                quality = _check_evaluate(w, step_out)
            else:
                quality = _check_analyze(w, step_out, truth)
            outcome.quality.update({f"{name}.{k}": v for k, v in quality.items()})
        except (OSError, ValueError, IndexError, RobustCausalError) as exc:
            outcome.problems.append(f"{name}: output check: {exc}")
        digest.update(fingerprint(w, step_out).encode())
    outcome.fingerprint = digest.hexdigest()
    return outcome


def setup(w: Workload, seed: int, work: Path, repeats: int):
    """Time ``repeats`` fresh interpreters that import the CLI and write the
    input; returns the times, the input path and its ground truth."""
    data = work / "input.csv" if w.command == "analyze" else None
    argv = w.generate_argv(seed, data)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    truth = None
    if data is not None:
        truth = GroundTruth.from_json((work / "input_truth.json").read_text())
    return times, data, truth


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Run the calling thread, and every thread it starts meanwhile, on one
    of the CPUs this process may use; restore its CPU set afterwards."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class HostProbe:
    """Samples the speed of the host on a background thread while rounds run.

    On start and then every ``PROBE_PERIOD_S`` it runs a fixed plain-Python
    loop and records the CPU seconds its own thread spent on it
    (``time.thread_time``). Time spent waiting for the GIL or for a CPU is
    not counted, so how busy the program keeps this process does not move a
    sample; a slower host does.
    """

    def __enter__(self) -> "HostProbe":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i * i % 7
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return


def _closed_loop(seconds: float, minimum: int, step) -> list:
    """Call ``step`` at least ``minimum`` times, then until another call
    would overrun ``seconds``."""
    results, took = [], []
    start = time.perf_counter()
    while (len(results) < minimum
           or time.perf_counter() - start + statistics.median(took) <= seconds):
        began = time.perf_counter()
        results.append(step(len(results)))
        took.append(time.perf_counter() - began)
    return results


def _tally(outcomes: list[Outcome]) -> list[str]:
    """Every problem of the run, with fingerprints compared to the first."""
    problems = []
    reference = outcomes[0].fingerprint
    for index, outcome in enumerate(outcomes):
        if outcome.fingerprint != reference and not outcome.problems:
            outcome.problems.append(
                f"fingerprint at --workers {outcome.workers} differs from the first round")
        problems += [f"round {index}: {p}" for p in outcome.problems]
    return problems


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict
    record: dict


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
        minimum: int = MIN_SAMPLES, setup_repeats: int = SETUP_REPEATS) -> RunResult:
    work.mkdir(parents=True, exist_ok=True)
    setup_times, data, truth = setup(w, seed, work, 1 if trace else setup_repeats)
    out = work / "out"

    def once(workers: int | None = None, tracer: Tracer | None = None) -> Outcome:
        return run_round(w, seed, data, truth, out, workers, tracer)

    record = {"workload": asdict(w), "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "tests_per_round": w.tests}
    if trace:
        tracer, pool_tracer = Tracer(), Tracer()
        pairs = _closed_loop(seconds, 1, lambda i: [once(1, tracer if (i + j) % 2 else None)
                                                     for j in range(2)])
        outcomes = [o for pair in pairs for o in pair]
        if w.workers > 1:
            outcomes.append(once(tracer=pool_tracer))
        metrics = layer_metrics(w, tracer, pool_tracer, outcomes)
        tracer.dump(work / "spans.json")
    else:
        # Each CPU of the host this was tuned on changes speed on its own, so
        # the rounds and the probe share one CPU while they are timed; the
        # pool round after them may use every CPU again.
        with pinned_to_one_cpu(), HostProbe() as probe:
            outcomes = _closed_loop(seconds, minimum, lambda i: once(1))
        timed = [o.wall_s for o in outcomes]
        if w.workers > 1:
            outcomes.append(once())
        # The shared host this was tuned on runs at one of two speeds, about
        # 1.4x apart, switching every few seconds and sometimes staying slow
        # for minutes, so plain seconds spread by up to 22% between runs.
        # The probe slows down by about as much and samples the same span of
        # time, so the ratio of the two means cancels most of that. A median
        # would snap to one of the two speeds; a mean follows the share of
        # time spent at each.
        wall = statistics.fmean(timed)
        reference_s = statistics.fmean(probe.samples)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_ref": (wall / reference_s, "ref"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        record.update(setup_s_samples=setup_times, wall_s_samples=timed,
                      reference_s_samples=probe.samples, wall_s=wall, reference_s=reference_s,
                      tests_per_s=w.tests / wall)
    problems = _tally(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    record.update(
        attempted=len(outcomes), failed=failed, problems=problems,
        fingerprint=outcomes[0].fingerprint, quality=outcomes[0].quality,
        rounds=[{"wall_s": o.wall_s, "workers": o.workers, "traced": o.traced}
                for o in outcomes],
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    return RunResult(len(outcomes), failed, metrics, record)


def layer_metrics(w: Workload, tracer: Tracer, pool_tracer: Tracer,
                  outcomes: list[Outcome]) -> dict:
    """Per-layer metrics of the traced ``--workers 1`` rounds, per round;
    times are shares of the traced wall time in percent."""
    s = summarize(tracer)
    counts = tracer.counts
    traced_rounds = [o.wall_s for o in outcomes if o.traced and o.workers == 1]
    runs = len(traced_rounds)
    wall = s.wall_s

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    def per(count: float) -> float:
        return count / runs

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    sig_tests = s.count["significance.link_test"]
    gc_tests = s.count["granger.test"]
    pool = summarize(pool_tracer)
    parallel_s = pool.total_s["ensemble.parallel_section"]
    # Window work of the commands that use the pool, at one worker.
    pooled = {f"cli.{a.method}" for a in w.analyses if a.workers > 1}
    window_work = per(sum(v for (root, name), v in s.by_root_s.items()
                          if root in pooled and name == "ensemble.window_graph"))
    traced = statistics.median(traced_rounds)
    untraced = statistics.median(o.wall_s for o in outcomes if not o.traced)
    quality = outcomes[0].quality

    def quality_values(suffix: str) -> list[float]:
        return [v for k, v in quality.items() if k.endswith(suffix)]

    recalls = quality_values(".true_link_recall")
    return {
        "significance.tests": (per(sig_tests), "count"),
        "significance.busy_pct": (pct(s.layer_busy_s["significance"]), "%"),
        "significance.self_pct": (pct(s.layer_self_s["significance"]), "%"),
        "significance.shuffle_pct": (pct(s.total_s["significance.shuffle"]), "%"),
        "significance.tests_per_s": (ratio(sig_tests, s.layer_busy_s["significance"]), "1/s"),
        "significance.shuffle_bytes_computed": (
            per(counts["significance.shuffle_bytes_computed"]), "bytes"),
        "significance.gate_pass_ratio": (ratio(counts["significance.gate_passes"], sig_tests), "ratio"),
        "significance.te_stage_runs": (per(s.count["significance.te_stage"]), "count"),
        "estimators.busy_pct": (pct(s.layer_busy_s["estimators"]), "%"),
        "estimators.entropy_rows_calls": (per(s.count["estimators.entropy_rows"]), "count"),
        "estimators.entropy_rows_pct": (pct(s.total_s["estimators.entropy_rows"]), "%"),
        "estimators.joint_counts_pct": (pct(s.total_s["estimators.joint_counts"]), "%"),
        "estimators.te_point_pct": (pct(s.total_s["estimators.te_point"]), "%"),
        "estimators.binning_calls": (per(s.count["estimators.binning"]), "count"),
        "estimators.binning_pct": (pct(s.total_s["estimators.binning"]), "%"),
        "estimators.digitize_calls": (per(s.count["estimators.digitize"]), "count"),
        "estimators.digitize_pct": (pct(s.total_s["estimators.digitize"]), "%"),
        "granger.tests": (per(gc_tests), "count"),
        "granger.busy_pct": (pct(s.layer_busy_s["granger"]), "%"),
        "granger.tests_per_s": (ratio(gc_tests, s.layer_busy_s["granger"]), "1/s"),
        "granger.link_ratio": (ratio(counts["granger.links"], gc_tests), "ratio"),
        "granger.singular_failures": (per(counts["granger.test.raised.SingularDesign"]), "count"),
        "graph.build_calls": (per(s.count["graph.build"]), "count"),
        "graph.build_pct": (pct(s.total_s["graph.build"]), "%"),
        "graph.self_pct": (pct(s.layer_self_s["graph"]), "%"),
        "graph.export_pct": (pct(s.total_s["graph.export"]), "%"),
        "ensemble.windows": (per(counts["ensemble.windows"]), "count"),
        "ensemble.draw_pct": (pct(s.total_s["ensemble.draw"]), "%"),
        "ensemble.window_graphs_pct": (pct(s.total_s["ensemble.window_graph"]), "%"),
        "ensemble.vote_pct": (pct(s.total_s["ensemble.vote"]), "%"),
        "ensemble.self_pct": (pct(s.layer_self_s["ensemble"]), "%"),
        "ensemble.parallel_section_pct": (100.0 * ratio(parallel_s, pool.wall_s), "%"),
        "ensemble.parallel_efficiency": (ratio(window_work, w.workers * parallel_s), "ratio"),
        "ensemble.false_links": (sum(quality_values(".false_links")), "count"),
        "ensemble.true_link_recall": (statistics.fmean(recalls) if recalls else 0.0, "ratio"),
        "timeseries.read_csv_pct": (pct(s.total_s["timeseries.read_csv"]), "%"),
        "timeseries.validate_calls": (per(s.count["timeseries.validate"]), "count"),
        "timeseries.validate_pct": (pct(s.total_s["timeseries.validate"]), "%"),
        "cli.self_pct": (pct(s.layer_self_s["cli"]), "%"),
        "synthetic.generate_calls": (per(s.count["synthetic.generate"]), "count"),
        "synthetic.generate_pct": (pct(s.total_s["synthetic.generate"]), "%"),
        "evaluation.trials": (per(counts["evaluation.trials"]), "count"),
        "evaluation.self_pct": (pct(s.layer_self_s["evaluation"]), "%"),
        "evaluation.mean_fnr": (quality.get("evaluate.mean_fnr", 0.0), "ratio"),
        "evaluation.mean_fpr": (quality.get("evaluate.mean_fpr", 0.0), "ratio"),
        "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
    }
