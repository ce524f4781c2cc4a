"""Few-shot distribution calibration toolkit.

Transfers feature statistics from data-rich base classes to few-shot novel
classes, samples synthetic features from the calibrated Gaussians, and
evaluates simple classifiers over many episodic tasks.  The usual flow:

    ds, split, _ = generate_synthetic(SyntheticSpec(...))
    stats = build_base_stats(ds, split)
    report = evaluate(ds, split, stats, EpisodeSpec(...), PipelineConfig())
"""

from .calibration import (CalibratedDistribution, CalibrationParams,
                          calibrate, calibrate_support_set)
from .classifiers import (LinearModel, MaxLikelihoodScorer, OptimizerConfig,
                          TrainSet, predict, train_logistic, train_svm)
from .errors import (DataError, DimensionError, DivergenceError,
                     EmptyClassError, EpisodeError, FactorizationError,
                     FormatError, FsdcError, InsufficientSamplesError,
                     MissingClassError, SpecError, UndefinedStatisticError)
from .features_io import (Dataset, SplitManifest, SyntheticSpec,
                          SyntheticTruth, generate_synthetic, load_dataset,
                          load_split, save_dataset, save_split)
from .harness import (EpisodeSpec, EvalReport, PipelineConfig, evaluate,
                      project_2d, run_episode, sample_episode, sweep)
from .rng import PortableRng, derive_key
from .sampling import SamplerConfig, cholesky_psd, sample_features
from .stats import (BaseStatsTable, ClassStatistics, build_base_stats,
                    class_similarity)
from .transform import TukeyParams, tukey_transform

__version__ = "0.1.0"

__all__ = [
    "BaseStatsTable", "CalibratedDistribution", "CalibrationParams",
    "ClassStatistics", "DataError", "Dataset", "DimensionError",
    "DivergenceError", "EmptyClassError", "EpisodeError", "EpisodeSpec",
    "EvalReport", "FactorizationError", "FormatError", "FsdcError",
    "InsufficientSamplesError", "LinearModel", "MaxLikelihoodScorer",
    "MissingClassError", "OptimizerConfig", "PipelineConfig",
    "PortableRng", "SamplerConfig", "SpecError", "SplitManifest",
    "SyntheticSpec", "SyntheticTruth", "TrainSet", "TukeyParams",
    "UndefinedStatisticError", "build_base_stats", "calibrate",
    "calibrate_support_set", "cholesky_psd", "class_similarity",
    "derive_key", "evaluate", "generate_synthetic", "load_dataset",
    "load_split", "predict", "project_2d", "run_episode", "sample_episode",
    "sample_features", "save_dataset", "save_split", "sweep",
    "train_logistic", "train_svm", "tukey_transform",
]
