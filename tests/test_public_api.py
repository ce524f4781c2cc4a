import importlib
import re
from pathlib import Path

import fsdc

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")

# __all__ is kept by hand; this pins it.  A name leaves or joins the public
# surface only by an edit here as well.
PUBLIC_NAMES = [
    "BaseStatsTable", "CalibratedDistribution", "CalibrationParams",
    "DataError", "Dataset", "EpisodeSpec", "EvalReport", "FormatError",
    "FsdcError", "LinearModel", "OptimizerConfig", "PipelineConfig",
    "PortableRng", "SamplerConfig", "SpecError", "SplitManifest",
    "SyntheticSpec", "TrainSet", "TukeyParams", "build_base_stats",
    "calibrate", "calibrate_support_set", "cholesky_psd", "class_similarity",
    "derive_key", "evaluate", "generate_synthetic", "load_dataset",
    "load_split", "predict", "project_2d", "run_episode", "sample_episode",
    "sample_features", "save_dataset", "save_split", "train_logistic",
    "train_svm", "tukey_transform",
]


def test_all_is_the_pinned_sorted_list():
    assert fsdc.__all__ == PUBLIC_NAMES
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    assert [name for name in fsdc.__all__ if not hasattr(fsdc, name)] == []


def test_three_kinds_of_error():
    # a setting, a file or the data; the command line exits 2 for a setting
    assert set(fsdc.FsdcError.__subclasses__()) == {
        fsdc.SpecError, fsdc.FormatError, fsdc.DataError}
    assert issubclass(fsdc.SpecError, ValueError)


def test_readme_names_the_submodule_only_helpers():
    # README's sentence on the helpers imported from their submodules only
    text = " ".join(README.split())
    sentence = text.split("imported from their submodules only", 1)[1]
    names = re.findall(r"`fsdc\.([\w.]+)`", sentence.split(". ", 1)[0])
    assert len(names) == 2
    for dotted in names:
        module, _, name = dotted.rpartition(".")
        assert callable(getattr(importlib.import_module(f"fsdc.{module}"), name))
        assert name not in fsdc.__all__
        assert not hasattr(fsdc, name)
