"""The package's public surface: exactly these names, each one resolvable."""

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
    "mutual_information",
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
    "ConfusionCounts",
    "TruthScore",
    "score_against_truth",
    "ensemble_error_binomial",
    "ensemble_miss_binomial",
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
