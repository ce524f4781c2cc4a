"""Classifiers for episodic evaluation.

Two linear models trained by gradient descent from zero initialization:
multinomial logistic regression and a one-vs-rest linear SVM with squared
weight penalty.

Losses are means over samples, so gradient magnitudes do not grow with the
number of generated features.  The L2 penalty applies to weights only, never
biases.  The step size is worked out from the training rows
(:func:`_step_size`), not set.  Zero initialization plus full-batch descent
makes training a pure function of the data, so episodes reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SpecError


@dataclass(frozen=True)
class OptimizerConfig:
    """Full-batch gradient descent settings; the step follows from the rows."""

    epochs: int = 300
    l2: float = 1e-3

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise SpecError("epochs must be at least 1")
        if not 0 <= self.l2 < math.inf:
            raise SpecError("l2 must be finite and non-negative")


class TrainSet:
    """Features with dense task labels 0..num_classes-1."""

    def __init__(self, features, labels, num_classes: int) -> None:
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim != 2:
            raise DataError("features must be 2-D")
        if y.shape != (x.shape[0],):
            raise DataError("labels must match features")
        if num_classes < 2:
            raise SpecError("training needs at least 2 classes")
        if not np.isfinite(x).all():
            raise DataError("training features must be finite")
        if y.min(initial=0) < 0 or y.max(initial=0) >= num_classes:
            raise SpecError("labels must lie in [0, num_classes)")
        present = np.bincount(y, minlength=num_classes)
        if (present == 0).any():
            missing = int(np.flatnonzero(present == 0)[0])
            raise SpecError(f"no training samples for task label {missing}")
        self.features = x
        self.labels = y
        self.num_classes = num_classes


@dataclass
class LinearModel:
    """Trained weights, biases, and the per-epoch loss trace."""

    weights: np.ndarray
    bias: np.ndarray
    loss_history: tuple[float, ...]


def softmax_loss_grad(weights, bias, features, labels, l2):
    """Cross-entropy of a linear softmax model, averaged over samples.

    Returns ``(loss, grad_weights, grad_bias)``.  The L2 term is
    ``0.5 * l2 * sum(weights**2)`` and leaves the bias alone.

    The softmax runs class-major, on the (C, n) scores ``weights @
    features.T``, so every reduction over classes is an elementwise pass
    along C contiguous rows of length n.  The residuals ``G``, probabilities
    minus one-hot targets divided by n, stay in that layout: the weight
    gradient is ``G @ features`` and the bias gradient ``G.sum(axis=1)``.
    """
    m = features.shape[0]
    probs = weights @ features.T
    probs += bias[:, None]
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    target = np.asarray(labels, dtype=np.intp) * m + np.arange(m)
    flat = probs.reshape(-1)
    picked = flat[target]
    loss = float(-np.log(picked).mean()
                 + 0.5 * l2 * (weights * weights).sum())
    flat[target] = picked - 1.0
    probs /= m
    grad_w = probs @ features + l2 * weights
    grad_b = probs.sum(axis=1)
    return loss, grad_w, grad_b


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


# The step never exceeds 0.1, the fixed step it replaces: 1.9/L is at least
# 0.137 in all 10,000 episodes of the acceptance tests, so there the cap binds
# and the results, and where 150 epochs stop, stay as they were.
_MAX_STEP = 0.1
# four rounds put λmax within 1e-10 of the exact value at d=16 and at d=640
_POWER_ROUNDS = 4


def _step_size(x, l2: float) -> float:
    """The descent step for training rows ``x``: ``min(0.1, 1.9 / L)``.

    ``L = ½·λmax(X̃ᵀX̃/n) + l2``, with X̃ the rows plus a ones column, bounds
    the softmax loss's curvature (Böhning, Ann. Inst. Stat. Math. 1992), and
    descent is stable below 2/L; the hinge loss takes the same step.  λmax is
    the Rayleigh quotient after fixed rounds of power iteration from X̃ᵀ1,
    which is never zero (its last entry is n), so the step is a pure function
    of the rows.  The quotient never exceeds λmax; 1.9 rather than 2 leaves
    room for that.  Raises :class:`DataError` when L overflows.
    """
    u = np.ones(x.shape[0])
    # rows large enough to overflow L turn it into inf or nan, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_POWER_ROUNDS):
            v = np.append(x.T @ u, u.sum())
            v /= np.abs(v).max()
            u = x @ v[:-1] + v[-1]
        curvature = 0.5 * float(u @ u) / (u.size * float(v @ v)) + l2
    if not math.isfinite(curvature):
        raise DataError("training rows overflow the curvature bound")
    return min(_MAX_STEP, 1.9 / curvature)


def _fit(train: TrainSet, config: OptimizerConfig, loss_grad) -> LinearModel:
    x = train.features
    y = train.labels
    weights = np.zeros((train.num_classes, x.shape[1]))
    bias = np.zeros(train.num_classes)
    lr = _step_size(x, config.l2)
    history = []
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_grad(weights, bias, x, y, config.l2)
        if not (math.isfinite(loss) and np.isfinite(grad_w).all()
                and np.isfinite(grad_b).all()):
            raise DataError(f"training diverged at epoch {epoch}")
        weights = weights - lr * grad_w
        bias = bias - lr * grad_b
        history.append(loss)
    return LinearModel(weights=weights, bias=bias,
                       loss_history=tuple(history))


def train_logistic(train: TrainSet, config: OptimizerConfig = OptimizerConfig()) -> LinearModel:
    """Multinomial logistic regression by full-batch gradient descent."""
    # a diverging run can overflow exp or hit log(0) in its final epoch; the
    # finite check turns that into DataError, so keep numpy quiet here
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _fit(train, config, softmax_loss_grad)


def train_svm(train: TrainSet, config: OptimizerConfig = OptimizerConfig()) -> LinearModel:
    """One-vs-rest linear SVM by subgradient descent."""
    return _fit(train, config, hinge_loss_grad)


def predict(model: LinearModel, features):
    """Predicted task labels of 2-D query rows, an int64 array; ties go to
    the lowest label."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[1]:
        raise DataError("query features do not match the trained model")
    scores = x @ model.weights.T + model.bias
    return np.argmax(scores, axis=1)

