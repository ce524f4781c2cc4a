import fsdc

# __all__ is kept by hand; this pins it.  A name leaves or joins the public
# surface only by an edit here as well.
PUBLIC_NAMES = [
    "BaseStatsTable", "CalibratedDistribution", "CalibrationParams",
    "DataError", "Dataset", "DimensionError", "DivergenceError",
    "EpisodeError", "EpisodeSpec", "EvalReport", "FactorizationError",
    "FormatError", "FsdcError", "LinearModel", "OptimizerConfig",
    "PipelineConfig", "PortableRng", "SamplerConfig", "SpecError",
    "SplitManifest", "SyntheticSpec", "SyntheticTruth", "TrainSet",
    "TukeyParams", "build_base_stats", "calibrate", "calibrate_support_set",
    "cholesky_psd", "class_similarity", "derive_key", "evaluate",
    "generate_synthetic", "load_dataset", "load_split", "predict",
    "project_2d", "run_episode", "sample_episode", "sample_features",
    "save_dataset", "save_split", "train_logistic", "train_svm",
    "tukey_transform",
]


def test_all_is_the_pinned_sorted_list():
    assert fsdc.__all__ == PUBLIC_NAMES
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    assert [name for name in fsdc.__all__ if not hasattr(fsdc, name)] == []
