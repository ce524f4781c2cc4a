"""Episodic evaluation: N-way K-shot tasks, the per-episode pipeline, and
aggregation over many episodes.

Episode i draws its classes and samples from a stream keyed by (seed, i), so
results do not depend on evaluation order or on the number of worker
processes.  Two configurations evaluated with the same episode settings see
exactly the same tasks, which makes sweeps paired comparisons.

Each stage is switched off by its own setting: the transform at exponent
one, generation at zero features per class.  Retrieval is off at zero rows
per support feature and, when on, replaces generation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Final

import numpy as np

from .calibration import CalibrationParams, calibrate_support_set, \
    retrieve_nearest_class_features
from .classifiers import (OptimizerConfig, TrainSet, predict, train_logistic,
                          train_svm)
from .errors import DataError, FsdcError, SpecError
from .features_io import Dataset, SplitManifest
from .rng import PortableRng, derive_key
from .sampling import SamplerConfig, sample_features
from .stats import BaseStatsTable
from .transform import TukeyParams, tukey_transform

_DOM_EPISODE: Final = 0x45
_DOM_GEN: Final = 0x47
_DOM_RETRIEVE: Final = 0x52
_DOM_SAMPLE: Final = 0x5A


@dataclass(frozen=True)
class EpisodeSpec:
    """Shape of the evaluation tasks."""

    n_way: int = 5
    k_shot: int = 1
    q_queries: int = 15
    num_episodes: int = 2000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_way < 2:
            raise SpecError("n_way must be at least 2")
        for name in ("k_shot", "q_queries", "num_episodes"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be at least 1")

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the per-episode pipeline needs besides the data."""

    tukey: TukeyParams = TukeyParams()
    calib: CalibrationParams = CalibrationParams()
    sampler: SamplerConfig = SamplerConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    classifier: str = "logistic"
    #: base rows retrieved per support feature in place of generated ones;
    #: 0 is off
    retrieve: int = 0

    def __post_init__(self) -> None:
        if self.classifier not in ("logistic", "svm"):
            raise SpecError(f"unknown classifier {self.classifier!r}")
        if self.retrieve < 0:
            raise SpecError("retrieve must be non-negative")

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Episode:
    """One sampled N-way K-shot task; features are raw, the stored float32
    values bit for bit."""

    index: int
    class_ids: tuple[int, ...]
    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Aggregate accuracy with the full configuration that produced it."""

    mean_accuracy: float
    ci95: float
    episode_accuracies: tuple[float, ...]
    episode_spec: dict
    pipeline: dict

    def to_payload(self) -> dict:
        return {
            "mean_accuracy": self.mean_accuracy,
            "ci95": self.ci95,
            "num_episodes": len(self.episode_accuracies),
            "episode_spec": self.episode_spec,
            "pipeline": self.pipeline,
            "episode_accuracies": list(self.episode_accuracies),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"


def sample_episode(ds: Dataset, split: SplitManifest, spec: EpisodeSpec,
                   index: int) -> Episode:
    """Draw episode ``index``: n_way novel classes, k_shot support and
    q_queries query rows each, all without replacement.

    Each class's rows are read in one call, which releases the pages of a
    loaded dataset's file before the next class is read, and are then
    split into support and query rows."""
    novel = sorted(split.novel_classes)
    if len(novel) < spec.n_way:
        raise DataError(
            f"episode needs {spec.n_way} novel classes, split has {len(novel)}")
    rng = PortableRng(derive_key(spec.seed, _DOM_EPISODE, index))
    chosen = [novel[i] for i in rng.permutation_prefix(len(novel), spec.n_way)]
    need = spec.k_shot + spec.q_queries
    support_x = []
    query_x = []
    for cid in chosen:
        rows = ds.rows_for(cid)
        if rows.size < need:
            raise DataError(
                f"class {cid} has {rows.size} records, episode needs {need}")
        picked = rng.permutation_prefix(rows.size, need)
        x = ds._rows(rows[np.asarray(picked)])
        support_x.append(x[:spec.k_shot])
        query_x.append(x[spec.k_shot:])
    support_y = np.repeat(np.arange(spec.n_way, dtype=np.int64), spec.k_shot)
    query_y = np.repeat(np.arange(spec.n_way, dtype=np.int64), spec.q_queries)
    return Episode(index=index,
                   class_ids=tuple(int(c) for c in chosen),
                   support_x=np.concatenate(support_x),
                   support_y=support_y,
                   query_x=np.concatenate(query_x),
                   query_y=query_y)


def run_episode(ep: Episode, stats: BaseStatsTable, cfg: PipelineConfig,
                base_data: Dataset | None = None) -> float:
    """Run the pipeline on one episode and return query accuracy in [0, 1].

    ``base_data`` supplies raw base-class rows and is only required for
    retrieval.  Errors from any stage are re-raised with the episode
    index attached.
    """
    try:
        support_x, query_x = _transformed(ep, cfg)
        train_x, train_y = _train_rows(ep, support_x, stats, cfg, base_data)
        train = TrainSet(train_x, train_y, len(ep.class_ids))
        fit = train_logistic if cfg.classifier == "logistic" else train_svm
        predicted = predict(fit(train, cfg.optimizer), query_x)
        return float((predicted == ep.query_y).mean())
    except FsdcError as exc:
        raise type(exc)(f"episode {ep.index}: {exc}") from exc


def _transformed(ep: Episode, cfg: PipelineConfig):
    """The episode's support and query features in pipeline space."""
    return (tukey_transform(ep.support_x, cfg.tukey),
            tukey_transform(ep.query_x, cfg.tukey))


def _train_rows(ep: Episode, support_x, stats: BaseStatsTable,
                cfg: PipelineConfig, base_data: Dataset | None):
    """The rows a classifier trains on and their task labels: the support
    rows first, then the extra rows.

    The extra rows are ``retrieve`` base rows per support feature when
    retrieval is on, else ``total_per_class`` features per class drawn from
    the calibrated Gaussians, one per support row.  Classes come in
    ascending label order and rows in support order; a class's budget is
    split evenly across its rows, the first ``total mod K`` rows drawing one
    extra and a row with no draws skipped.  Row j of class ``label`` draws
    from its own stream, keyed by the sampler seed, the episode, ``label``
    and j, so a class's draws do not depend on the other classes.  Each row
    is calibrated only when it is drawn from, and drawn straight into its
    place in one preallocated matrix, so an episode holds one covariance at
    a time and each drawn row is stored once.
    """
    if cfg.retrieve:
        if base_data is None:
            raise SpecError("retrieval needs the base dataset")
        blocks = []
        for i in range(support_x.shape[0]):
            rng = PortableRng(derive_key(cfg.sampler.seed, _DOM_RETRIEVE,
                                         ep.index, i))
            raw = retrieve_nearest_class_features(support_x[i], base_data,
                                                  stats, cfg.retrieve, rng)
            blocks.append(tukey_transform(raw, cfg.tukey))
        return (np.concatenate([support_x, *blocks]),
                np.concatenate([ep.support_y,
                                np.repeat(ep.support_y, cfg.retrieve)]))
    total = cfg.sampler.total_per_class
    if total == 0:
        return support_x, ep.support_y
    seed = derive_key(cfg.sampler.seed, _DOM_GEN, ep.index)
    labels = np.unique(ep.support_y)
    start = support_x.shape[0]
    train_x = np.empty((start + labels.size * total, support_x.shape[1]))
    train_x[:start] = support_x
    for label in labels.tolist():
        rows = support_x[ep.support_y == label]
        share, extra = divmod(total, rows.shape[0])
        for j in range(rows.shape[0]):
            count = share + (j < extra)
            if count == 0:
                continue
            try:
                # one row goes through the support-set helper because
                # perfbench's tracer wraps it and reads its dict of lists;
                # the distribution, held by no name, is freed before the
                # next row is calibrated
                sample_features(
                    calibrate_support_set(rows[j:j + 1], [label], stats,
                                          cfg.calib)[label][0],
                    count,
                    PortableRng(derive_key(seed, _DOM_SAMPLE, label, j)),
                    out=train_x[start:start + count])
            except FsdcError as exc:
                raise type(exc)(
                    f"class {label}, distribution {j}: {exc}") from exc
            start += count
    return train_x, np.concatenate([ep.support_y, np.repeat(labels, total)])


_WORKER_STATE: dict = {}


def _init_worker(ds, split, stats, spec, cfg) -> None:
    _WORKER_STATE["args"] = (ds, split, stats, spec, cfg)


def _run_index(index: int) -> float:
    ds, split, stats, spec, cfg = _WORKER_STATE["args"]
    ep = sample_episode(ds, split, spec, index)
    return run_episode(ep, stats, cfg, base_data=ds)


def evaluate(ds: Dataset, split: SplitManifest, stats: BaseStatsTable,
             spec: EpisodeSpec, cfg: PipelineConfig,
             workers: int = 1) -> EvalReport:
    """Run every episode and aggregate accuracy with a 95% interval.

    ``workers > 1`` fans episodes out to processes; because every episode is
    seeded independently, the result is identical to the serial run.
    """
    if workers < 1:
        raise SpecError("workers must be at least 1")
    indices = range(spec.num_episodes)
    if workers == 1:
        accuracies = [
            run_episode(sample_episode(ds, split, spec, i), stats, cfg,
                        base_data=ds)
            for i in indices
        ]
    else:
        # imported here, so that importing the package leaves
        # multiprocessing unloaded
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, spec.num_episodes // (workers * 8))
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(ds, split, stats, spec, cfg)) as pool:
            accuracies = list(pool.map(_run_index, indices, chunksize=chunk))
    acc = np.asarray(accuracies, dtype=np.float64)
    mean = float(acc.mean())
    if acc.size > 1:
        ci = float(1.96 * acc.std(ddof=1) / np.sqrt(acc.size))
    else:
        ci = 0.0
    return EvalReport(mean_accuracy=mean, ci95=ci,
                      episode_accuracies=tuple(float(a) for a in acc),
                      episode_spec=spec.to_payload(),
                      pipeline=cfg.to_payload())


def collect_episode_features(ep: Episode, stats: BaseStatsTable,
                             cfg: PipelineConfig,
                             base_data: Dataset | None = None):
    """Gather one episode's features in pipeline space for inspection.

    Returns ``(features, class_ids, roles)``: the stacked support, query and
    extra rows that :func:`run_episode` uses, the original class id of each
    row, and a role string per row ("support", "query", and "retrieved"
    when retrieval is on or "generated" otherwise).  ``base_data`` is only
    required for retrieval.
    """
    support_x, query_x = _transformed(ep, cfg)
    train_x, train_y = _train_rows(ep, support_x, stats, cfg, base_data)
    n_support = support_x.shape[0]
    extra_x, extra_y = train_x[n_support:], train_y[n_support:]
    extra_role = "retrieved" if cfg.retrieve else "generated"
    roles = (["support"] * n_support + ["query"] * query_x.shape[0]
             + [extra_role] * extra_x.shape[0])
    labels = np.concatenate([ep.support_y, ep.query_y, extra_y])
    return (np.concatenate([support_x, query_x, extra_x]),
            np.asarray(ep.class_ids, dtype=np.int64)[labels], roles)


def project_2d(features) -> np.ndarray:
    """Project features onto their top two principal axes.

    Output is centered, so reconstruction error equals total variance minus
    the variance captured by the two axes.  Each axis has a deterministic
    sign: its largest-magnitude component is positive.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("features must be 2-D")
    if x.shape[1] < 2:
        raise DataError("projection needs at least 2 feature dimensions")
    if x.shape[0] < 2:
        raise SpecError("projection needs at least 2 feature vectors")
    if not np.isfinite(x).all():
        raise DataError("projection input must be finite")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    if eigenvalues[-1] <= 0:
        raise DataError("cannot project: features have zero variance")
    axes = eigenvectors[:, [-1, -2]].copy()
    for j in range(2):
        lead = int(np.argmax(np.abs(axes[:, j])))
        if axes[lead, j] < 0:
            axes[:, j] = -axes[:, j]
    return centered @ axes
