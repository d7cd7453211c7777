"""The package's public surface: exactly these names, each one resolvable."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustcausal
from robustcausal.cli import main

PUBLIC = {
    "__version__",
    # containers and preprocessing
    "TimeSeries",
    "Dataset",
    "PreprocessSpec",
    "validate_dataset",
    "detrend_linear",
    "deseasonalize",
    "apply_preprocess",
    "read_dataset_csv",
    "write_dataset_csv",
    # binned estimators
    "BinningSpec",
    "scott_bin_width",
    "variable_bin_count",
    "transfer_entropy",
    # surrogate significance
    "SurrogateConfig",
    "SignificanceResult",
    "TeLinkResult",
    "te_link_test",
    # Granger causality
    "GrangerConfig",
    "GrangerResult",
    "granger_test",
    # causal graphs
    "CausalLink",
    "LaggedCausalGraph",
    "evaluate_candidates",
    "build_graph",
    "export_graph",
    "import_graph",
    # ensemble consistency
    "EnsembleConfig",
    "LinkFrequencyTable",
    "EnsembleResult",
    "draw_subsamples",
    "link_frequencies",
    "robust_graph",
    "analyze_ensemble",
    # synthetic benchmarks
    "SystemSpec",
    "GroundTruth",
    "TrueLink",
    "generate",
    "SYSTEM_KINDS",
    # evaluation
    "ensemble_error_binomial",
    "ErrorRatePoint",
    "ErrorRateCurve",
    "monte_carlo_rates",
    "jaccard_links",
    "BinSensitivityReport",
    "bin_sensitivity_scan",
    # errors
    "RobustCausalError",
    "LengthMismatch",
    "NonFinite",
    "DuplicateName",
    "TooShort",
    "CsvFormatError",
    "ZeroVariance",
    "DegenerateBins",
    "EmptyHistogram",
    "LagTooLarge",
    "SingularDesign",
    "UnknownFormat",
    "VariableMismatch",
    "WindowTooLong",
    "TooManyWindows",
    "InvalidConfig",
}


def test_public_names_are_pinned_and_resolve():
    assert len(robustcausal.__all__) == len(set(robustcausal.__all__))
    assert set(robustcausal.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(robustcausal, name), name


SUBMODULES = ("timeseries", "estimators", "significance", "granger", "graph", "ensemble",
              "synthetic", "evaluation", "errors")


def _fresh_python(tmp_path, probe: str) -> str:
    """Standard output of ``probe`` run in a new interpreter that imports
    this checkout's package, so no earlier import in this process masks a
    name or a module the probe would otherwise have to load."""
    src = str(Path(robustcausal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("probe", [
    pytest.param("assert PUBLIC <= set(dir(robustcausal)), PUBLIC - set(dir(robustcausal))",
                 id="dir"),
    pytest.param("names = {}\nexec('from robustcausal import *', names)\n"
                 "assert set(names) - {'__builtins__'} == PUBLIC", id="import-star"),
    pytest.param("import importlib\n"
                 f"modules = [importlib.import_module('robustcausal.' + m)\n"
                 f"           for m in {SUBMODULES}]\n"
                 "names = [n for m in modules for n in m.__all__]\n"
                 "assert robustcausal.__all__ == ['__version__', *names]\n"
                 "for m in modules:\n"
                 "    for name in m.__all__:\n"
                 "        assert getattr(robustcausal, name) is getattr(m, name), name",
                 id="same-objects"),
    pytest.param("from robustcausal import ensemble, SYSTEM_KINDS\n"
                 "assert ensemble.SUBSAMPLE_MODES and SYSTEM_KINDS\n"
                 "assert robustcausal.graph.build_graph",
                 id="from-import"),
    # hasattr is False only for an AttributeError; any other error propagates
    pytest.param("assert not hasattr(robustcausal, 'no_such_name')", id="unknown-name"),
])
def test_lazy_package_resolves_the_public_surface(tmp_path, probe):
    # The package binds its public names on first access; each check runs
    # in a fresh interpreter, where nothing has loaded a submodule yet.
    _fresh_python(tmp_path, f"import robustcausal\nPUBLIC = set({sorted(PUBLIC)})\n{probe}")


def _cli(*argv) -> str:
    """A statement that runs the CLI in-process and keeps its exit code as ``code``."""
    return (f"from robustcausal.cli import main\ntry:\n    code = main({list(argv)!r})\n"
            "except SystemExit as exc:\n    code = exc.code")


_SYSTEM_B = ("--system", "B", "--length", "300", "--seed", "1")
# No command imports scipy, the tests' oracle: robustcausal._critical
# computes the t, F and binomial distributions in pure Python.
NEVER = {"scipy"}
# A cold start (the package, the CLI, --help) loads no numpy: the parser's
# choice words live in robustcausal._choices, and each command imports the
# library when it runs.
COLD = NEVER | {"numpy", "concurrent.futures"}
# generate simulates and writes a CSV: none of the link-test stack.
GENERATE = NEVER | {"concurrent.futures.process"} | {
    f"robustcausal.{m}"
    for m in ("ensemble", "graph", "significance", "estimators", "granger", "_critical",
              "evaluation")}
WATCHED = sorted(COLD | GENERATE)


@pytest.mark.parametrize("statement, code, absent", [
    pytest.param("import robustcausal", None, COLD, id="import-package"),
    pytest.param("import robustcausal.cli", None, COLD, id="import-cli"),
    pytest.param(_cli("generate", *_SYSTEM_B, "--out", "g"), 0, GENERATE, id="generate"),
    pytest.param(_cli("--help"), 0, COLD, id="help"),
    pytest.param(_cli("analyze", "--input", "absent.csv", "--bins", "1", "--seed", "1"), 2,
                 NEVER, id="usage-error"),
    pytest.param(_cli("analyze", *_SYSTEM_B, "--max-lag", "1", "--surrogates", "5",
                      "--out", "te"), 0, NEVER, id="analyze-te"),
    pytest.param(_cli("analyze", *_SYSTEM_B, "--max-lag", "1", "--method", "gc",
                      "--out", "gc"), 0, NEVER, id="analyze-gc"),
    pytest.param(_cli("analyze", *_SYSTEM_B, "--max-lag", "2", "--method", "gc",
                      "--gc-mode", "cumulative", "--out", "gc"), 0, NEVER,
                 id="analyze-gc-cumulative"),
    pytest.param(_cli("evaluate", "--lengths", "60", "--ratios", "1.0", "--trials", "1",
                      "--surrogates", "5", "--seed", "1", "--out", "ev"), 0, NEVER, id="evaluate"),
    pytest.param(_cli("sensitivity", *_SYSTEM_B, "--radius", "1", "--max-lag", "1",
                      "--surrogates", "5", "--out", "sens"), 0, NEVER, id="sensitivity"),
    pytest.param("from robustcausal.evaluation import ensemble_error_binomial\n"
                 "ensemble_error_binomial(0.1, 1100, 900)", None, NEVER,
                 id="ensemble-error-binomial"),
])
def test_import_budget(tmp_path, statement, code, absent):
    probe = (f"import json, sys\ncode = None\n{statement}\n"
             f"print(code, json.dumps([m for m in {WATCHED!r} if m in sys.modules]))")
    exit_code, _, loaded = _fresh_python(tmp_path, probe).splitlines()[-1].partition(" ")
    loaded = set(json.loads(loaded))
    print(f"loaded {sorted(loaded)}")
    assert exit_code == str(code)
    assert not loaded & absent, sorted(loaded & absent)


@pytest.mark.parametrize("argv", [
    pytest.param(("generate", *_SYSTEM_B, "--out", "g"), id="generate"),
    pytest.param(("analyze", *_SYSTEM_B, "--max-lag", "1", "--surrogates", "5",
                  "--te-surrogate-test", "on", "--subsamples", "3", "--sub-length", "100",
                  "--out", "te"), id="analyze-te-stage"),
    pytest.param(("analyze", *_SYSTEM_B, "--max-lag", "2", "--method", "gc", "--out", "gc"),
                 id="analyze-gc"),
    pytest.param(("analyze", *_SYSTEM_B, "--max-lag", "2", "--method", "gc",
                  "--gc-mode", "cumulative", "--out", "gc"), id="analyze-gc-cumulative"),
    pytest.param(("evaluate", "--lengths", "60", "--ratios", "1.0", "--trials", "2",
                  "--surrogates", "5", "--seed", "1", "--out", "ev"), id="evaluate"),
    pytest.param(("sensitivity", *_SYSTEM_B, "--radius", "1", "--max-lag", "1",
                  "--surrogates", "5", "--out", "sens"), id="sensitivity"),
])
def test_no_command_needs_scipy(tmp_path, monkeypatch, argv):
    # A command run where scipy cannot be imported writes the same bytes, in
    # every file, as the same command run here, where the tests import it.
    plain, blocked = tmp_path / "plain", tmp_path / "blocked"
    plain.mkdir()
    blocked.mkdir()
    monkeypatch.chdir(plain)
    assert main(list(argv)) == 0
    _fresh_python(blocked, f'import sys\nsys.modules["scipy"] = None\n{_cli(*argv)}\n'
                           "assert code == 0, code")
    written = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(blocked) for p in blocked.rglob("*") if p.is_file())
    for path in written:
        assert (plain / path).read_bytes() == (blocked / path).read_bytes(), path
