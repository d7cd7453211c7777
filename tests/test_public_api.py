"""The package's public surface: exactly these names, each one resolvable."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustcausal

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


def _cli(*argv) -> str:
    """A statement that runs the CLI in-process and keeps its exit code as ``code``."""
    return (f"from robustcausal.cli import main\ntry:\n    code = main({list(argv)!r})\n"
            "except SystemExit as exc:\n    code = exc.code")


_SYSTEM_B = ("--system", "B", "--length", "300", "--seed", "1")


@pytest.mark.parametrize("statement, code", [
    pytest.param("import robustcausal", None, id="import-package"),
    pytest.param("import robustcausal.cli", None, id="import-cli"),
    pytest.param(_cli("generate", *_SYSTEM_B, "--out", "g"), 0, id="generate"),
    pytest.param(_cli("--help"), 0, id="help"),
    pytest.param(_cli("analyze", "--input", "absent.csv", "--bins", "1", "--seed", "1"), 2,
                 id="usage-error"),
    pytest.param(_cli("analyze", *_SYSTEM_B, "--max-lag", "1", "--surrogates", "5",
                      "--out", "te"), 0, id="analyze-te"),
    pytest.param(_cli("analyze", *_SYSTEM_B, "--max-lag", "1", "--method", "gc",
                      "--out", "gc"), 0, id="analyze-gc"),
    pytest.param(_cli("analyze", *_SYSTEM_B, "--max-lag", "2", "--method", "gc",
                      "--gc-mode", "cumulative", "--out", "gc"), 0, id="analyze-gc-cumulative"),
    pytest.param(_cli("evaluate", "--lengths", "60", "--ratios", "1.0", "--trials", "1",
                      "--surrogates", "5", "--seed", "1", "--out", "ev"), 0, id="evaluate"),
    pytest.param(_cli("sensitivity", *_SYSTEM_B, "--radius", "1", "--max-lag", "1",
                      "--surrogates", "5", "--out", "sens"), 0, id="sensitivity"),
])
def test_import_budget(tmp_path, statement, code):
    # scipy.special, with the array-API layer it pulls in, takes longer to
    # import than the rest of the CLI and about 20 MB, and no command needs
    # it: the link tests decide by pure-Python brackets around their
    # critical values (robustcausal._critical) and import it only for a
    # statistic within 1e-9 of one. scipy.stats is never imported.
    src = str(Path(robustcausal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = (f"import sys\ncode = None\n{statement}\n"
             "print(code, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split()[-3:] == [str(code), "False", "False"]
