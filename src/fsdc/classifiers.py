"""Classifiers for episodic evaluation.

Two linear models trained by gradient descent from zero initialization
(multinomial logistic regression and a one-vs-rest linear SVM with squared
weight penalty), plus a training-free alternative that scores queries
directly under the calibrated Gaussians.

Losses are means over samples, so gradient magnitudes do not grow with the
number of generated features.  The L2 penalty applies to weights only, never
biases.  Zero initialization plus full-batch descent makes training a pure
function of the data, so episodes reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DataError, DimensionError, DivergenceError, SpecError
from .sampling import cholesky_psd


@dataclass(frozen=True)
class OptimizerConfig:
    """Full-batch gradient descent settings."""

    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = 1e-3

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise SpecError("learning_rate must be finite and positive")
        if self.epochs < 1:
            raise SpecError("epochs must be at least 1")
        if not 0 <= self.l2 < math.inf:
            raise SpecError("l2 must be finite and non-negative")


class TrainSet:
    """Features with dense task labels 0..N-1 and the map back to class ids."""

    def __init__(self, features, labels, class_map) -> None:
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        self.class_map = tuple(int(c) for c in class_map)
        if x.ndim != 2:
            raise DimensionError("features must be 2-D")
        if y.shape != (x.shape[0],):
            raise DimensionError("labels must match features")
        if len(self.class_map) < 2:
            raise SpecError("training needs at least 2 classes")
        if not np.isfinite(x).all():
            raise DataError("training features must be finite")
        if y.min(initial=0) < 0 or y.max(initial=0) >= len(self.class_map):
            raise SpecError("labels must lie in [0, num_classes)")
        present = np.bincount(y, minlength=len(self.class_map))
        if (present == 0).any():
            missing = int(np.flatnonzero(present == 0)[0])
            raise SpecError(f"no training samples for task label {missing}")
        self.features = x
        self.labels = y

    @property
    def num_classes(self) -> int:
        return len(self.class_map)


@dataclass
class LinearModel:
    """Trained weights, biases, and the per-epoch loss trace."""

    kind: str
    weights: np.ndarray
    bias: np.ndarray
    loss_history: tuple[float, ...]


def softmax_loss_grad(weights, bias, features, labels, l2):
    """Cross-entropy of a linear softmax model, averaged over samples.

    Returns ``(loss, grad_weights, grad_bias)``.  The L2 term is
    ``0.5 * l2 * sum(weights**2)`` and leaves the bias alone.

    The softmax runs class-major, on a (C, n) array, so that every reduction
    over classes is an elementwise pass along C contiguous rows of length n.
    The results are bit for bit those of the row-major (n, C) formulation:
    the two matrix products keep their row-major operands, because BLAS
    picks its kernel, and with it the summation order, by operand layout,
    and both sums add their terms in the order numpy used on (n, C).
    """
    m = features.shape[0]
    num_classes = weights.shape[0]
    probs = np.add((features @ weights.T).T, bias[:, None],
                   out=np.empty((num_classes, m)))
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= _row_major_class_sum(probs)
    target = np.asarray(labels, dtype=np.intp) * m + np.arange(m)
    flat = probs.reshape(-1)
    picked = flat[target]
    loss = float(-np.log(picked).mean()
                 + 0.5 * l2 * (weights * weights).sum())
    flat[target] = picked - 1.0
    probs /= m
    grad_scores = np.ascontiguousarray(probs.T)
    grad_w = grad_scores.T @ features + l2 * weights
    # einsum walks the (n, C) rows in order and so adds each column one term
    # at a time, as grad_scores.sum(axis=0) does, at a quarter of its cost;
    # a sum along the class-major rows would add pairwise, in another order
    grad_b = np.einsum("ij->j", grad_scores)
    return loss, grad_w, grad_b


def _row_major_class_sum(rows):
    """Column sums of a (C, n) array, added in the order numpy's pairwise
    summation adds one contiguous row of C values.

    That order: fewer than 8 terms one after another; up to 128 terms in 8
    interleaved partial sums joined as a tree, then the remainder one after
    another; more terms split in two at a multiple of 8, each half summed
    alike.
    """
    count = rows.shape[0]
    if count > 128:
        half = count // 2
        half -= half % 8
        return _row_major_class_sum(rows[:half]) + _row_major_class_sum(rows[half:])
    if count < 8:
        blocked = 0
        total = np.zeros(rows.shape[1])
    else:
        blocked = count - count % 8
        r = rows[:8].copy()
        for start in range(8, blocked, 8):
            r += rows[start:start + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in rows[blocked:]:
        total += row
    return total


def hinge_loss_grad(weights, bias, features, labels, l2):
    """One-vs-rest hinge loss, averaged over samples, same return shape as
    :func:`softmax_loss_grad`."""
    m = features.shape[0]
    num_classes = weights.shape[0]
    target = np.full((m, num_classes), -1.0)
    target[np.arange(m), labels] = 1.0
    margins = target * (features @ weights.T + bias)
    slack = np.maximum(0.0, 1.0 - margins)
    loss = float(slack.sum(axis=1).mean() + 0.5 * l2 * (weights * weights).sum())
    active = np.where(slack > 0, target, 0.0)
    grad_w = -(active.T @ features) / m + l2 * weights
    grad_b = -active.sum(axis=0) / m
    return loss, grad_w, grad_b


def _fit(train: TrainSet, config: OptimizerConfig, loss_grad, kind: str) -> LinearModel:
    x = train.features
    y = train.labels
    weights = np.zeros((train.num_classes, x.shape[1]))
    bias = np.zeros(train.num_classes)
    lr = config.learning_rate
    history = []
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_grad(weights, bias, x, y, config.l2)
        _check_finite(loss, grad_w, grad_b, epoch)
        weights = weights - lr * grad_w
        bias = bias - lr * grad_b
        history.append(loss)
    return LinearModel(kind=kind, weights=weights, bias=bias,
                       loss_history=tuple(history))


def _check_finite(loss, grad_w, grad_b, epoch: int) -> None:
    if not (math.isfinite(loss) and np.isfinite(grad_w).all()
            and np.isfinite(grad_b).all()):
        raise DivergenceError(f"training diverged at epoch {epoch}")


def train_logistic(train: TrainSet, config: OptimizerConfig = OptimizerConfig()) -> LinearModel:
    """Multinomial logistic regression by full-batch gradient descent."""
    # a diverging run can overflow exp or hit log(0) in its final epoch; the
    # finite check turns that into DivergenceError, so keep numpy quiet here
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _fit(train, config, softmax_loss_grad, "logistic")


def train_svm(train: TrainSet, config: OptimizerConfig = OptimizerConfig()) -> LinearModel:
    """One-vs-rest linear SVM by subgradient descent."""
    return _fit(train, config, hinge_loss_grad, "svm")


def predict(model: LinearModel, features):
    """Predicted task labels; ties go to the lowest label.

    A 1-D input yields an int, a 2-D input an int64 array.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.weights.shape[1]:
        raise DimensionError("query features do not match the trained model")
    scores = x @ model.weights.T + model.bias
    labels = np.argmax(scores, axis=1)
    return int(labels[0]) if single else labels


class MaxLikelihoodScorer:
    """Classify queries by Gaussian log-density under calibrated
    distributions, no training involved.

    A class with several distributions scores the largest of their log
    densities.  Ties go to the lowest label because labels are scored in
    ascending order.
    """

    def __init__(self, distributions, jitter: float = 1e-6) -> None:
        if not distributions:
            raise SpecError("no distributions to score against")
        self.labels = sorted(int(label) for label in distributions)
        self._per_label = []
        for label in self.labels:
            dists = distributions[label]
            if not dists:
                raise SpecError(f"class {label} has no distributions")
            prepared = []
            for dist in dists:
                factor, _ = cholesky_psd(dist.covariance, jitter)
                log_det = 2.0 * float(np.log(np.diag(factor)).sum())
                prepared.append((dist.mean, factor, log_det))
            self._per_label.append(prepared)
        self.dim = self._per_label[0][0][0].shape[0]

    def log_densities(self, features) -> np.ndarray:
        """(n, num_labels) matrix of per-class best log densities."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionError("query features do not match the distributions")
        const = -0.5 * self.dim * math.log(2.0 * math.pi)
        columns = []
        for prepared in self._per_label:
            scores = np.empty((x.shape[0], len(prepared)))
            for j, (mean, factor, log_det) in enumerate(prepared):
                z = solve_triangular(factor, (x - mean).T, lower=True)
                quad = (z * z).sum(axis=0)
                scores[:, j] = const - 0.5 * log_det - 0.5 * quad
            columns.append(scores.max(axis=1))
        return np.stack(columns, axis=1)

    def classify(self, features) -> np.ndarray:
        """Predicted labels (original label values, not column indices)."""
        dens = self.log_densities(features)
        picks = np.argmax(dens, axis=1)
        label_array = np.asarray(self.labels, dtype=np.int64)
        return label_array[picks]

