"""The package's public surface: exactly these names, each one resolvable."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_cli_does_not_load_scipy_stats():
    # scipy.stats takes most of the CLI's import time; the package uses the
    # scipy.special functions it wraps instead.
    src = str(Path(robustcausal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, robustcausal.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
