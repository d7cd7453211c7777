"""Tests of the benchmark harness on tiny inputs."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import harness
from robustcausal import ensemble

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
TINY = dict(length=300, max_lag=2, surrogates=10, subsamples=3, sub_length=80,
            lengths=(100,), ratios=2, trials=2)


def tiny_run(name: str, trace: bool, work: Path) -> harness.RunResult:
    w = replace(harness.WORKLOADS[name], **TINY)
    return harness.run(w, seed=3, seconds=0, trace=trace, work=work,
                       minimum=1, setup_repeats=1)


def test_workload_names_match_spec():
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_every_workload_runs_and_prints_the_spec_metrics(name, tmp_path):
    plain = tiny_run(name, False, tmp_path)
    assert plain.failed == 0, plain.record["problems"]
    assert list(plain.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(plain.metrics[m["name"]][1] == m["unit"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = tiny_run(name, True, tmp_path)
    assert traced.failed == 0, traced.record["problems"]
    assert list(traced.metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(traced.metrics[m["name"]][1] == m["unit"] for m in SPEC["per_layer"])
    assert traced.record["fingerprint"] == plain.record["fingerprint"]

    w = replace(harness.WORKLOADS[name], **TINY)
    layer = {key: value for key, (value, _) in traced.metrics.items()}
    if w.command == "analyze":
        tests = w.candidates * (1 + w.subsamples)
        methods = [a.method for a in w.analyses]
        assert layer["significance.tests"] == tests * methods.count("te")
        assert layer["granger.tests"] == tests * methods.count("gc")
        assert layer["ensemble.windows"] == w.subsamples * len(methods)
    else:
        assert layer["significance.tests"] == w.tests
        assert layer["evaluation.trials"] == w.trials * w.grid_points
        assert layer["synthetic.generate_calls"] == w.trials * w.grid_points
    if w.workers > 1:
        assert layer["ensemble.parallel_section_pct"] > 0
        assert layer["ensemble.parallel_efficiency"] > 0


def test_truncated_frequencies_count_as_failed(tmp_path, monkeypatch):
    to_csv = ensemble.LinkFrequencyTable.to_csv
    monkeypatch.setattr(ensemble.LinkFrequencyTable, "to_csv",
                        lambda self: "".join(to_csv(self).splitlines(keepends=True)[:-1]))
    result = tiny_run("chain_B", False, tmp_path)
    assert result.failed == result.attempted > 0
    assert "frequencies.csv has" in result.record["problems"][0]


def test_differing_fingerprints_count_as_failed():
    outcomes = [harness.Outcome(1.0, 2, False, "a"), harness.Outcome(1.0, 1, False, "b")]
    problems = harness._tally(outcomes)
    assert len(problems) == 1 and "--workers 1" in problems[0]
