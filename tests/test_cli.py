import json
import re
from pathlib import Path

import numpy as np
import pytest

from robustcausal import cli
from robustcausal.cli import main
from robustcausal.estimators import BinningSpec
from robustcausal.graph import import_graph
from robustcausal.timeseries import Dataset, TimeSeries, read_dataset_csv, write_dataset_csv


def _run(*args):
    return main(list(args))


def _generate_small(tmp_path, seed="3", system="B", length="400"):
    out = tmp_path / "data"
    rc = _run(
        "generate", "--system", system, "--length", length, "--seed", seed,
        "--out", str(out),
    )
    assert rc == 0
    return out


def test_generate_writes_csv_truth_manifest(tmp_path, capsys):
    out = _generate_small(tmp_path)
    assert (out / "data.csv").exists()
    assert (out / "truth.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 3
    assert manifest["config"]["system"] == "B"
    assert "wrote" in capsys.readouterr().out


def test_generate_reruns_byte_identical(tmp_path):
    a = _generate_small(tmp_path / "a")
    b = _generate_small(tmp_path / "b")
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_generate_csv_path_variant(tmp_path):
    target = tmp_path / "sim.csv"
    rc = _run("generate", "--system", "A", "--length", "120", "--seed", "0",
              "--out", str(target))
    assert rc == 0
    assert target.exists()
    assert (tmp_path / "sim_truth.json").exists()
    assert (tmp_path / "sim_manifest.json").exists()


def test_generate_truth_path_wins_for_both_out_forms(tmp_path):
    for out in (tmp_path / "dir", tmp_path / "sim.csv"):
        truth = tmp_path / f"{out.stem}_given.json"
        assert _run("generate", "--system", "B", "--length", "150", "--seed", "1",
                    "--out", str(out), "--truth", str(truth)) == 0
        assert json.loads(truth.read_text())["true_links"]
        assert not (out / "truth.json").exists()
        assert not (tmp_path / f"{out.stem}_truth.json").exists()


def test_generate_requires_seed_and_system(tmp_path, capsys):
    assert _run("generate", "--system", "A", "--out", str(tmp_path / "x.csv")) == 2
    assert "--seed" in capsys.readouterr().err
    assert _run("generate", "--seed", "1", "--out", str(tmp_path / "y.csv")) == 2


def test_analyze_single_graph(tmp_path):
    data = _generate_small(tmp_path)
    out = tmp_path / "analysis"
    rc = _run(
        "analyze", "--input", str(data / "data.csv"), "--max-lag", "2",
        "--surrogates", "30", "--seed", "5", "--out", str(out),
    )
    assert rc == 0
    g = import_graph((out / "graph.json").read_text())
    assert g.variables == ("W", "X", "Y", "Z")
    assert (out / "graph.dot").read_text().startswith("digraph")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["method"] == "te"
    assert manifest["config"]["te_surrogate_test"] == "off"


def test_analyze_ensemble_outputs(tmp_path):
    data = _generate_small(tmp_path, length="500")
    out = tmp_path / "ens"
    rc = _run(
        "analyze", "--input", str(data / "data.csv"), "--max-lag", "2",
        "--surrogates", "30", "--subsamples", "5", "--sub-length", "120",
        "--seed", "5", "--out", str(out),
    )
    assert rc == 0
    for name in ("graph.json", "graph.dot", "frequencies.csv", "robust_graph.json", "manifest.json"):
        assert (out / name).exists(), name
    freq_header = (out / "frequencies.csv").read_text().splitlines()[0]
    assert freq_header.startswith("source,target,lag")


def test_analyze_gc_method_needs_no_seed(tmp_path):
    data = _generate_small(tmp_path)
    out = tmp_path / "gc"
    rc = _run(
        "analyze", "--input", str(data / "data.csv"), "--method", "gc",
        "--max-lag", "2", "--out", str(out),
    )
    assert rc == 0
    g = import_graph((out / "graph.json").read_text())
    assert g.method == "gc"


def test_analyze_te_requires_seed(tmp_path, capsys):
    data = _generate_small(tmp_path)
    rc = _run("analyze", "--input", str(data / "data.csv"), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_analyze_missing_input_reports_json_error(tmp_path, capsys):
    rc = _run(
        "analyze", "--input", str(tmp_path / "absent.csv"), "--seed", "1",
        "--out", str(tmp_path / "o"),
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().err)
    assert "message" in payload


@pytest.mark.parametrize("names, model, columns", [
    (("X", "F"), "reduced model of 'F'", 2),
    (("F", "X"), "full model 'F' -> 'X'", 3),
], ids=["flat-target", "flat-source"])
def test_gc_singular_design_names_the_model(tmp_path, capsys, names, model, columns):
    # a flat column F fails at the first candidate: X -> F has a singular
    # reduced model, and F -> X (F first) a singular full model
    noise = np.random.default_rng(9).normal(size=80)
    values = {"X": noise, "F": np.full(80, 2.5)}
    write_dataset_csv(Dataset(tuple(TimeSeries(n, values[n]) for n in names)), tmp_path / "f.csv")
    rc = _run("analyze", "--input", str(tmp_path / "f.csv"), "--method", "gc",
              "--max-lag", "2", "--out", str(tmp_path / "o"))
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "SingularDesign",
        "message": f"{model} at lag 1: regression design is numerically singular "
                   f"({columns} columns)",
    }


def _analyze_error(tmp_path, capsys, body: bytes):
    path = tmp_path / "in.csv"
    path.write_bytes(body)
    rc = _run("analyze", "--input", str(path), "--method", "gc", "--out", str(tmp_path / "o"))
    assert rc == 1
    return json.loads(capsys.readouterr().err), str(path)


def test_analyze_reports_non_utf8_input_as_json_error(tmp_path, capsys):
    payload, path = _analyze_error(tmp_path, capsys, b"X,Y\n1,2\n3,\xff\n")
    assert payload["error"] == "CsvFormatError"
    assert payload["message"].startswith(f"{path}: not UTF-8")


def test_analyze_reports_csv_module_faults_as_json_error(tmp_path, capsys):
    # a quoted field over the csv module's 131072-character limit, on line 3
    payload, path = _analyze_error(tmp_path, capsys, b'X,Y\n1,2\n3,"' + b"9" * 131073 + b'"\n')
    assert payload["error"] == "CsvFormatError"
    assert payload["message"].startswith(f"{path}:3: field larger than field limit")


def test_analyze_byte_identical_reruns(tmp_path):
    data = _generate_small(tmp_path, length="500")
    args = (
        "analyze", "--input", str(data / "data.csv"), "--max-lag", "2",
        "--surrogates", "30", "--subsamples", "4", "--sub-length", "120",
        "--seed", "9",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(*args, "--out", str(out_a)) == 0
    assert _run(*args, "--out", str(out_b)) == 0
    for name in ("graph.json", "frequencies.csv", "robust_graph.json", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_config_file_with_flag_override(tmp_path):
    data = _generate_small(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "input": str(data / "data.csv"),
        "max_lag": 1,
        "n_surrogates": 30,
        "seed": 4,
        "out": str(tmp_path / "from_config"),
    }))
    assert _run("analyze", "--config", str(cfg)) == 0
    manifest = json.loads((tmp_path / "from_config" / "manifest.json").read_text())
    assert manifest["config"]["max_lag"] == 1
    # a flag wins over the config file value
    assert _run("analyze", "--config", str(cfg), "--max-lag", "2",
                "--out", str(tmp_path / "override")) == 0
    manifest = json.loads((tmp_path / "override" / "manifest.json").read_text())
    assert manifest["config"]["max_lag"] == 2


def test_evaluate_writes_rate_curve(tmp_path):
    out = tmp_path / "rates"
    rc = _run(
        "evaluate", "--kind", "linear", "--lengths", "60", "--ratios", "1.0",
        "--trials", "3", "--surrogates", "20", "--seed", "7", "--out", str(out),
    )
    assert rc == 0
    lines = (out / "error_rates.csv").read_text().splitlines()
    assert lines[0] == "data_length,m_over_eps,fnr,fpr,n_trials"
    assert len(lines) == 2


def test_evaluate_rejects_bad_trials(tmp_path, capsys):
    rc = _run("evaluate", "--trials", "0", "--seed", "1", "--out", str(tmp_path / "x"))
    assert rc == 2


def test_sensitivity_report(tmp_path):
    data = _generate_small(tmp_path, length="500")
    out = tmp_path / "sens"
    rc = _run(
        "sensitivity", "--input", str(data / "data.csv"), "--center", "6",
        "--radius", "1", "--max-lag", "2", "--surrogates", "30",
        "--seed", "2", "--out", str(out),
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["center_bins"] == 6
    assert set(report["jaccard"]) == {"5", "6", "7"}
    for m in (5, 6, 7):
        assert (out / f"graph_bins_{m}.json").exists()


def test_deseasonalized_monthly_style_analysis(tmp_path):
    # 4-variable synthetic data with a yearly cycle on a monthly grid
    import numpy as np
    from robustcausal.timeseries import Dataset, TimeSeries, write_dataset_csv

    rng = np.random.default_rng(6)
    n = 360
    cycle = 2.0 * np.sin(2 * np.pi * np.arange(n) / 12)
    series = tuple(
        TimeSeries(name, rng.normal(size=n) + cycle)
        for name in ("precip", "soilw", "temp", "runoff")
    )
    path = tmp_path / "monthly.csv"
    write_dataset_csv(Dataset(series), path)
    out = tmp_path / "season"
    rc = _run(
        "analyze", "--input", str(path), "--deseasonalize", "12",
        "--max-lag", "3", "--surrogates", "30", "--seed", "8", "--out", str(out),
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["deseasonalize_period"] == 12


def test_workers_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUST_CAUSAL_THREADS", "1")
    data = _generate_small(tmp_path, length="500")
    out = tmp_path / "capped"
    rc = _run(
        "analyze", "--input", str(data / "data.csv"), "--max-lag", "2",
        "--surrogates", "30", "--subsamples", "4", "--sub-length", "120",
        "--workers", "8", "--seed", "9", "--out", str(out),
    )
    assert rc == 0


def test_manifest_has_no_timestamps(tmp_path):
    out = _generate_small(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"command", "config", "seed", "versions"}


def _manifest_config(*args):
    """Run one command and return the ``config`` of the manifest it wrote."""
    assert _run(*args) == 0
    path = Path(args[args.index("--out") + 1])
    manifest = path.with_name(path.stem + "_manifest.json") if path.suffix else path / "manifest.json"
    return json.loads(manifest.read_text())["config"]


def test_manifest_configs_are_pinned(tmp_path):
    t = str(tmp_path)
    system_b = ("--system", "B", "--length", "300", "--max-lag", "2")
    source_b = {"system": "B", "length": 300, "burn_in": 100, "max_lag": 2,
                "detrend": False, "deseasonalize_period": None}
    assert _manifest_config(
        "generate", "--system", "A", "--length", "120", "--seed", "1",
        "--out", f"{t}/a.csv",
    ) == {"system": "A", "length": 120, "out": f"{t}/a.csv", "truth": None}
    assert _manifest_config(
        "generate", "--system", "B", "--length", "150", "--burn-in", "20", "--seed", "1",
        "--out", f"{t}/b.csv",
    ) == {"system": "B", "length": 150, "burn_in": 20, "out": f"{t}/b.csv", "truth": None}
    assert _manifest_config(
        "generate", "--system", "bivariate-linear", "--m", "0.5", "--length", "120",
        "--seed", "1", "--out", f"{t}/biv",
    ) == {"system": "bivariate-linear", "length": 120, "signal": 0.5, "noise": 1.0,
          "out": f"{t}/biv", "truth": None}
    assert _manifest_config(
        "analyze", *system_b, "--surrogates", "20", "--subsamples", "3",
        "--sub-length", "120", "--te-surrogate-test", "on", "--bins", "5",
        "--reuse-parent-bins", "--seed", "2", "--out", f"{t}/te",
    ) == {**source_b, "method": "te", "bins": 5, "n_surrogates": 20, "confidence": 0.95,
          "te_surrogate_test": "on", "n_subsamples": 3, "subsample_length": 120,
          "mode": "random-continuous", "threshold": 0.9, "reuse_parent_bins": True}
    assert _manifest_config(
        "analyze", *system_b, "--method", "gc", "--gc-mode", "cumulative",
        "--gc-alpha", "0.01", "--seed", "2", "--out", f"{t}/gc",
    ) == {**source_b, "method": "gc", "gc_alpha": 0.01, "gc_lagwise": False}
    # binning is TE-only, so a GC manifest records neither bins key
    assert _manifest_config(
        "analyze", *system_b, "--method", "gc", "--subsamples", "3", "--sub-length", "120",
        "--seed", "2", "--out", f"{t}/gc_ens",
    ) == {**source_b, "method": "gc", "gc_alpha": 0.05, "gc_lagwise": True, "n_subsamples": 3,
          "subsample_length": 120, "mode": "random-continuous", "threshold": 0.9}
    assert _manifest_config(
        "analyze", "--system", "bivariate-linear", "--m", "0.5", "--length", "200",
        "--max-lag", "2", "--surrogates", "20", "--seed", "2", "--out", f"{t}/biv_te",
    ) == {"system": "bivariate-linear", "length": 200, "signal": 0.5, "noise": 1.0,
          "max_lag": 2, "detrend": False, "deseasonalize_period": None, "method": "te",
          "bins": "auto", "n_surrogates": 20, "confidence": 0.95, "te_surrogate_test": "off"}
    assert _manifest_config(
        "analyze", "--input", f"{t}/a.csv", "--method", "gc", "--max-lag", "2", "--detrend",
        "--out", f"{t}/csv_gc",
    ) == {"input": f"{t}/a.csv", "max_lag": 2, "detrend": True, "deseasonalize_period": None,
          "method": "gc", "gc_alpha": 0.05, "gc_lagwise": True}
    assert _manifest_config(
        "evaluate", "--lengths", "60", "--ratios", "0.2..0.6:3", "--trials", "2",
        "--surrogates", "10", "--seed", "3", "--out", f"{t}/x.csv",
    ) == {"kind": "bivariate-linear", "lengths": [60], "ratios": [0.2, 0.4, 0.6],
          "trials": 2, "n_surrogates": 10, "confidence": 0.95, "out": f"{t}/x.csv"}
    assert _manifest_config(
        "sensitivity", *system_b, "--radius", "1", "--surrogates", "20",
        "--seed", "4", "--out", f"{t}/sens",
    ) == {**source_b, "center": 9, "radius": 1, "n_surrogates": 20, "confidence": 0.95}


GC_ENSEMBLE = ("--method", "gc", "--subsamples", "3", "--sub-length", "120")


@pytest.mark.parametrize("flags, config, named", [
    (GC_ENSEMBLE + ("--bins", "6"), {}, "--bins (config key bins)"),
    (GC_ENSEMBLE + ("--reuse-parent-bins",), {},
     "--reuse-parent-bins (config key reuse_parent_bins)"),
    (GC_ENSEMBLE, {"bins": 6}, "--bins (config key bins)"),
    (GC_ENSEMBLE, {"reuse_parent_bins": True},
     "--reuse-parent-bins (config key reuse_parent_bins)"),
    (GC_ENSEMBLE + ("--bins", "auto", "--no-reuse-parent-bins"), {}, None),
    (GC_ENSEMBLE + ("--confidence", "0.9"), {},
     "--confidence (config key confidence) needs --method te"),
    (GC_ENSEMBLE, {"te_surrogate_test": "on"},
     "--te-surrogate-test (config key te_surrogate_test) needs --method te"),
    (("--gc-alpha", "0.01"), {}, "--gc-alpha (config key gc_alpha) needs --method gc"),
    (("--threshold", "0.5"), {}, "--threshold (config key threshold) needs --subsamples"),
    ((), {"mode": "nonoverlapping"}, "--mode (config key mode) needs --subsamples"),
    (("--sub-length", "120"), {},
     "--sub-length (config key subsample_length) needs --subsamples"),
    (("--workers", "2"), {}, "--workers (config key workers) needs --subsamples"),
    (("--reuse-parent-bins",), {},
     "--reuse-parent-bins (config key reuse_parent_bins) needs --method te with --subsamples"),
    (("--surrogates", "20", "--gc-mode", "lagwise", "--threshold", "0.9", "--workers", "1"),
     {"gc_alpha": 0.05}, None),
], ids=["bins-flag", "reuse-flag", "bins-key", "reuse-key", "defaults", "gc-confidence",
        "gc-te-surrogate-test", "te-gc-alpha", "single-threshold", "single-mode",
        "single-sub-length", "single-workers", "single-reuse", "te-defaults"])
def test_gc_refuses_binning_settings(tmp_path, capsys, flags, config, named):
    # A setting of a part the run skips (TE or GC, the ensemble) is refused
    # unless it keeps its default.
    out = tmp_path / "o"
    path = _write_config(tmp_path / "c.json", config)
    code = _run("analyze", "--system", "B", "--length", "300", "--max-lag", "2",
                "--seed", "2", "--config", path, *flags, "--out", str(out))
    if named is None:
        assert code == 0
        return
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, named", [
    (("analyze", "--input", "F", "--length", "50"), {},
     "--length (config key length) needs --system"),
    (("analyze", "--input", "F", "--m", "0.3"), {},
     "--m (config key signal) needs a bivariate --system"),
    (("analyze", "--input", "F"), {"burn_in": 7},
     "--burn-in (config key burn_in) needs --system B or C"),
    (("generate", "--system", "B", "--m", "0.7"), {},
     "--m (config key signal) needs a bivariate --system"),
    (("generate", "--system", "B"), {"noise": 2},
     "--eps (config key noise) needs a bivariate --system"),
    (("generate", "--system", "A", "--burn-in", "7"), {},
     "--burn-in (config key burn_in) needs --system B or C"),
    (("generate", "--system", "bivariate-linear", "--m", "0.5", "--burn-in", "7"), {},
     "--burn-in (config key burn_in) needs --system B or C"),
    (("sensitivity", "--input", "F", "--burn-in", "3"), {},
     "--burn-in (config key burn_in) needs --system B or C"),
    (("analyze", "--input", "F", "--length", "1000", "--burn-in", "100", "--eps", "1"), {},
     None),
    (("generate", "--system", "bivariate-linear", "--m", "0.5", "--burn-in", "100"), {}, None),
], ids=["analyze-length", "analyze-m", "analyze-burn-in-key", "generate-b-m",
        "generate-b-eps-key", "generate-a-burn-in", "generate-bivariate-burn-in",
        "sensitivity-burn-in", "analyze-defaults", "generate-defaults"])
def test_source_settings_of_a_skipped_part_are_refused(tmp_path, capsys, argv, config, named):
    # A source setting the chosen data source never reads (a system setting
    # with --input, burn-in outside B and C, m and eps outside the bivariate
    # systems) is refused unless it keeps its default, and nothing is written.
    source = tmp_path / "in" / "f.csv"
    source.parent.mkdir()
    rng = np.random.default_rng(5)
    write_dataset_csv(Dataset((TimeSeries("X", rng.normal(size=150)),
                               TimeSeries("Y", rng.normal(size=150)))), source)
    argv = [str(source) if arg == "F" else arg for arg in argv]
    tail = (("--length", "150") if argv[0] == "generate"
            else ("--max-lag", "1", "--surrogates", "10"))
    if argv[0] == "sensitivity":
        tail += ("--radius", "1", "--center", "5")
    code = _run(*argv, *tail, "--seed", "2", "--out", str(tmp_path / "out"),
                "--config", _write_config(tmp_path / "in" / "c.json", config))
    if named is None:
        assert code == 0
        return
    assert code == 2
    assert named in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


_ENSEMBLE = ("--subsamples", "5", "--sub-length", "100")


@pytest.mark.parametrize("argv, named", [
    *(pytest.param((command, *system), named, id=f"{name}-{command}")
      for name, system, named in [
          ("bivariate-without-m", ("--system", "bivariate-linear", "--length", "200"),
           "needs a signal coefficient"),
          ("b-not-above-burn-in", ("--system", "B", "--length", "100"), "must exceed burn_in"),
          ("m-nan", ("--system", "bivariate-linear", "--length", "50", "--m", "nan"),
           "signal coefficient must be finite"),
          ("eps-inf", ("--system", "bivariate-linear", "--length", "50", "--m", "0.5",
                       "--eps", "inf"), "noise coefficient must be finite")]
      for command in ("generate", "analyze", "sensitivity")),
    # Test and ensemble settings are checked before the input is read: the
    # input file ("F") does not exist.
    *(pytest.param((command, "--input", "F", *settings), named, id=name)
      for name, command, settings, named in [
          ("threshold-0", "analyze", ("--threshold", "0", *_ENSEMBLE), "threshold must be"),
          ("subsamples-0", "analyze", ("--subsamples", "0", "--sub-length", "100"),
           "n_subsamples must be"),
          ("sub-length-1", "analyze", ("--subsamples", "5", "--sub-length", "1"),
           "subsample_length must be"),
          ("fixed-overlap-4", "analyze", ("--mode", "fixed-overlap", *_ENSEMBLE),
           "exactly 3 windows"),
          ("surrogates-1", "analyze", ("--surrogates", "1"), "n_surrogates must be"),
          ("confidence-1.5", "analyze", ("--confidence", "1.5"), "confidence must be"),
          ("gc-alpha-2", "analyze", ("--method", "gc", "--gc-alpha", "2"), "alpha must be"),
          ("max-lag-0", "analyze", ("--max-lag", "0"), "max_lag"),
          ("max-lag-4-sub-length-16", "analyze",
           ("--subsamples", "5", "--sub-length", "16", "--max-lag", "4"),
           "--max-lag with --sub-length: max_lag 4 is too large for length 16"),
          ("sensitivity-surrogates-1", "sensitivity", ("--surrogates", "1"),
           "n_surrogates must be"),
          ("bins-0", "analyze", ("--bins", "0"), "bins must be >= 2"),
          ("bins-1", "analyze", ("--bins", "1"), "bins must be >= 2"),
          ("sensitivity-radius--1", "sensitivity", ("--radius", "-1"), "--radius must be"),
          ("sensitivity-center-3-radius-2", "sensitivity", ("--center", "3", "--radius", "2"),
           "dips below 2 bins"),
          ("deseasonalize-1", "analyze", ("--deseasonalize", "1"), "season period must be >= 2")]),
    # evaluate checks its trials' settings and systems before the first trial.
    *(pytest.param(("evaluate", "--trials", "2", *settings), named, id=name)
      for name, settings, named in [
          ("evaluate-surrogates-1", ("--surrogates", "1"), "n_surrogates must be"),
          ("evaluate-confidence-1.5", ("--confidence", "1.5"), "confidence must be"),
          ("evaluate-lengths-0", ("--lengths", "100,0", "--ratios", "1.0"),
           "length must be >= 1"),
          ("evaluate-ratio-nan", ("--lengths", "60", "--ratios", "0.5,nan"),
           "signal coefficient must be finite")]),
])
def test_system_settings_the_system_rejects_are_usage_errors(tmp_path, capsys, argv, named):
    # Settings that a system, a test or the ensemble rejects are usage
    # errors: exit 2, "error: ..." and nothing written.
    argv = [str(tmp_path / "absent.csv") if arg == "F" else arg for arg in argv]
    code = _run(*argv, "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert list(tmp_path.iterdir()) == []


def test_gc_accepts_surrogates(tmp_path):
    # benchmarks/harness.py passes --surrogates to its GC analyses.
    base = ("analyze", "--system", "B", "--length", "300", "--max-lag", "2",
            "--method", "gc", "--seed", "2")
    assert _run(*base, "--out", str(tmp_path / "plain")) == 0
    assert _run(*base, "--surrogates", "7", "--out", str(tmp_path / "s")) == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()} == plain


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("analyze", {"max_lag": "four"}, "max_lag"),
        ("generate", {"seed": "x"}, "seed"),
        ("analyze", {"seed": 3.9}, "seed"),
        ("analyze", {"surrogates": 20}, "n_surrogates"),
        ("analyze", {"method": "gc", "gc_lagwise": "cumulativ"}, "gc_lagwise"),
        ("sensitivity", {"te_surrogate_test": "on"}, "te_surrogate_test"),
        ("analyze", {"method": "gc", "length": None}, None),
    ],
    ids=["int-word", "seed-word", "seed-float", "flag-spelling", "gc-mode-typo",
         "sensitivity-te", "null-is-unset"],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, config, named):
    out = tmp_path / "o"
    base = {"system": "A", "length": 200, "max_lag": 2, "seed": 1, "out": str(out)}
    if command == "generate":
        base = {"system": "A", "length": 100, "seed": 1, "out": str(tmp_path / "g.csv")}
    path = _write_config(tmp_path / "run.json", {**base, **config})
    if named is not None:
        assert _run(command, "--config", path) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        return
    # a JSON null runs as if the key were absent
    absent = {key: value for key, value in {**base, **config}.items() if value is not None}
    absent["out"] = str(tmp_path / "absent")
    assert _run(command, "--config", path) == 0
    assert _run(command, "--config", _write_config(tmp_path / "absent.json", absent)) == 0
    for name in ("graph.json", "manifest.json"):
        assert (out / name).read_bytes() == (tmp_path / "absent" / name).read_bytes(), name
    assert json.loads((out / "manifest.json").read_text())["config"]["length"] == 1000


@pytest.mark.parametrize("command, config, named", [
    ("analyze", {"threshold": True, "n_subsamples": 3, "subsample_length": 100},
     "--threshold (config key threshold)"),
    ("analyze", {"confidence": True}, "--confidence (config key confidence)"),
    ("analyze", {"method": "gc", "gc_alpha": True}, "--gc-alpha (config key gc_alpha)"),
    ("generate", {"system": "bivariate-linear", "signal": True}, "--m (config key signal)"),
    ("generate", {"system": "bivariate-linear", "signal": 0.5, "noise": True},
     "--eps (config key noise)"),
    ("evaluate", {"ratios": [True, 0.5]}, "--ratios (config key ratios)"),
], ids=["threshold", "confidence", "gc-alpha", "signal", "noise", "ratios"])
def test_json_true_is_not_a_number(tmp_path, capsys, command, config, named):
    # float(True) is 1.0; a number setting refuses a JSON boolean instead
    out = tmp_path / "o"
    base = {"analyze": {"system": "A", "length": 200, "max_lag": 2},
            "generate": {"length": 100, "out": str(tmp_path / "o.csv")},
            "evaluate": {"lengths": [60], "trials": 2, "n_surrogates": 10}}[command]
    path = _write_config(tmp_path / "run.json", {"seed": 1, "out": str(out), **base, **config})
    assert _run(command, "--config", path) == 2
    assert f"{named}: expected a number, got True" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("args", [
    ("generate", "--system", "B", "--length", "300", "--seed", "3"),
    ("analyze", "--system", "B", "--length", "400", "--max-lag", "2", "--surrogates", "20",
     "--subsamples", "4", "--sub-length", "120", "--detrend", "--seed", "5"),
    ("evaluate", "--lengths", "60", "--ratios", "0.5..1.0:2", "--trials", "2",
     "--surrogates", "10", "--seed", "3"),
    ("sensitivity", "--system", "B", "--length", "400", "--radius", "1", "--max-lag", "2",
     "--surrogates", "20", "--seed", "2"),
], ids=lambda args: args[0])
def test_manifest_replays_the_run(tmp_path, args):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert _run(*args, "--out", str(first)) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    path = _write_config(tmp_path / "replay.json", {**manifest["config"], "seed": manifest["seed"]})
    assert _run(args[0], "--config", path, "--out", str(replay)) == 0
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(replay) for p in replay.rglob("*") if p.is_file())
    for name in files:
        if name.name == "manifest.json":
            # only the output paths a manifest records may differ
            a, b = (json.loads((root / name).read_text()) for root in (first, replay))
            for m in (a, b):
                m["config"].pop("out", None)
                m["config"].pop("truth", None)
            assert a == b
        else:
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name


def test_generate_replay_writes_beside_the_new_csv(tmp_path):
    # A .csv manifest replayed with a new --out writes a new truth file
    # beside the new CSV and leaves the first run's files alone.
    first = tmp_path / "a.csv"
    assert _run("generate", "--system", "A", "--length", "120", "--seed", "1",
                "--out", str(first)) == 0
    manifest = json.loads((tmp_path / "a_manifest.json").read_text())
    path = _write_config(tmp_path / "gen.json", {**manifest["config"], "seed": manifest["seed"]})
    before = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    assert _run("generate", "--config", path, "--out", str(tmp_path / "b.csv")) == 0
    assert (tmp_path / "b_truth.json").read_bytes() == (tmp_path / "a_truth.json").read_bytes()
    assert json.loads((tmp_path / "b_manifest.json").read_text())["config"]["truth"] is None
    for name, mtime in before.items():
        assert (tmp_path / name).stat().st_mtime_ns == mtime, name


def test_evaluate_replay_rewrites_the_same_files(tmp_path):
    # A directory-output manifest replayed without --out writes where the
    # first run wrote.
    out = tmp_path / "k"
    assert _run("evaluate", "--lengths", "60", "--ratios", "0.5", "--trials", "2",
                "--surrogates", "10", "--seed", "3", "--out", str(out)) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(written["manifest.json"])
    path = _write_config(tmp_path / "eval.json", {**manifest["config"], "seed": manifest["seed"]})
    for p in out.iterdir():
        p.unlink()
    assert _run("evaluate", "--config", path) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


# One valid, non-default flag value for every setting; a bool flag takes none.
FLAG_SAMPLES = {
    "input": "x.csv", "system": "B", "length": "300", "burn_in": "50", "signal": "0.5",
    "noise": "2.0", "detrend": True, "deseasonalize_period": "12", "max_lag": "3",
    "method": "gc", "bins": "6", "n_surrogates": "30", "confidence": "0.9",
    "te_surrogate_test": "on", "gc_alpha": "0.01", "gc_lagwise": "cumulative",
    "n_subsamples": "5", "subsample_length": "120", "mode": "fixed-overlap",
    "threshold": "0.8", "reuse_parent_bins": True, "workers": "2", "kind": "nonlinear",
    "lengths": "60,100", "ratios": "0.2..0.6:3", "trials": "4", "center": "7", "radius": "1",
    "seed": "9", "out": "o", "truth": "t.json",
}


def _resolved(command, *argv):
    return cli._resolve(cli._build_parser().parse_args([command, *argv]))


def test_flag_and_config_resolve_alike(tmp_path):
    for command, spec in cli.COMMANDS.items():
        defaults = _resolved(command)
        for key in spec.keys:
            sample = FLAG_SAMPLES[key]
            flag = cli.SETTINGS[key].flag
            from_flag = _resolved(command, *([flag] if sample is True else [flag, sample]))[key]
            assert from_flag != defaults[key], (command, key)
            for value in (sample, from_flag):
                path = _write_config(tmp_path / "c.json", {key: value})
                assert _resolved(command, "--config", path)[key] == from_flag, (command, key)


def test_help_offers_the_same_flags(capsys):
    source = ["--input", "--system", "--length", "--burn-in", "--m", "--eps", "--detrend",
              "--no-detrend", "--deseasonalize"]
    expected = {
        "generate": ["--system", "--length", "--burn-in", "--m", "--eps", "--seed", "--out",
                     "--truth"],
        "analyze": source + [
            "--max-lag", "--method", "--bins", "--surrogates", "--confidence",
            "--te-surrogate-test", "--gc-alpha", "--gc-mode", "--subsamples", "--sub-length",
            "--mode", "--threshold", "--reuse-parent-bins", "--no-reuse-parent-bins",
            "--workers", "--seed", "--out"],
        "evaluate": ["--kind", "--lengths", "--ratios", "--trials", "--surrogates",
                     "--confidence", "--seed", "--out"],
        "sensitivity": source + ["--center", "--radius", "--max-lag", "--surrogates",
                                 "--confidence", "--seed", "--out"],
    }
    for command, flags in expected.items():
        with pytest.raises(SystemExit):
            _run(command, "--help")
        offered = []
        for line in capsys.readouterr().out.splitlines():
            match = re.match(r"^  (--\S.*?)(?:  |$)", line)
            if match:
                offered += [part.split()[0] for part in match.group(1).split(", ")]
        assert offered == ["--config", *flags], command
    assert [len(flags) + 1 for flags in expected.values()] == [9, 27, 9, 17]


def test_sensitivity_auto_center_skips_constant_columns(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.normal(size=400)
    y = np.concatenate(([0.0], 0.8 * x[:-1])) + rng.normal(size=400)
    d = Dataset((TimeSeries("X", x), TimeSeries("Y", y), TimeSeries("K", np.full(400, 2.0))))
    path = tmp_path / "flat.csv"
    write_dataset_csv(d, path)
    common = ("--input", str(path), "--max-lag", "2", "--surrogates", "20", "--seed", "1")
    assert _run("analyze", *common, "--out", str(tmp_path / "a")) == 0
    assert _run("sensitivity", *common, "--radius", "1", "--center", "6",
                "--out", str(tmp_path / "s6")) == 0
    assert _run("sensitivity", *common, "--radius", "1", "--out", str(tmp_path / "s")) == 0
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    expected = BinningSpec.from_dataset(read_dataset_csv(path)).bin_count
    assert report["center_bins"] == expected
