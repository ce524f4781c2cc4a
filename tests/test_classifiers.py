import numpy as np
import pytest

from fsdc import classifiers
from fsdc.calibration import CalibratedDistribution
from fsdc.classifiers import (LinearModel, MaxLikelihoodScorer, OptimizerConfig,
                              TrainSet, hinge_loss_grad, predict,
                              softmax_loss_grad, train_logistic, train_svm)
from fsdc.errors import DimensionError, DivergenceError, SpecError


def blobs(seed=0, n=40, spread=0.1):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    x = np.concatenate([c + spread * rng.normal(size=(n, 2)) for c in centers])
    y = np.repeat(np.arange(3), n)
    return TrainSet(x, y, class_map=(10, 20, 30))


# ------------------------------------------------------------------- training

def test_logistic_separates_blobs():
    ts = blobs()
    model = train_logistic(ts, OptimizerConfig(epochs=200))
    assert np.array_equal(predict(model, ts.features), ts.labels)


def test_svm_separates_blobs():
    ts = blobs()
    model = train_svm(ts, OptimizerConfig(epochs=200))
    assert np.array_equal(predict(model, ts.features), ts.labels)


def test_training_is_deterministic():
    ts = blobs(3)
    a = train_logistic(ts, OptimizerConfig(epochs=50))
    b = train_logistic(ts, OptimizerConfig(epochs=50))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert a.loss_history == b.loss_history


def test_symmetric_data_gives_symmetric_model():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [1.1, 0.0], [-1.1, 0.0]])
    y = np.array([0, 1, 0, 1])
    ts = TrainSet(x, y, class_map=(0, 1))
    model = train_logistic(ts, OptimizerConfig(epochs=100))
    # mirror-image classes produce mirror-image weights and equal biases
    assert np.allclose(model.weights[0], -model.weights[1], atol=1e-10)
    assert model.bias[0] == pytest.approx(model.bias[1], abs=1e-10)


def test_full_batch_loss_is_monotone_at_small_lr():
    ts = blobs(5)
    model = train_logistic(ts, OptimizerConfig(learning_rate=1e-3, epochs=80))
    losses = np.asarray(model.loss_history)
    assert losses.shape == (80,)
    assert np.all(np.diff(losses) <= 1e-12)


def test_divergence_is_reported_with_epoch():
    ts = blobs(1)
    with pytest.raises(DivergenceError, match="epoch"):
        train_logistic(ts, OptimizerConfig(learning_rate=1e12, epochs=50))


def test_l2_shrinks_weights_not_bias():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]] * 10)
    y = np.array([0, 1] * 10)
    ts = TrainSet(x, y, class_map=(0, 1))
    loose = train_logistic(ts, OptimizerConfig(epochs=300, l2=0.0))
    tight = train_logistic(ts, OptimizerConfig(epochs=300, l2=1.0))
    assert np.abs(tight.weights).sum() < np.abs(loose.weights).sum()


# ------------------------------------------------------- finite differences

def _flat_pack(w, b):
    return np.concatenate([w.ravel(), b])


def _numeric_grad(loss_fn, w, b, eps=1e-6):
    theta = _flat_pack(w, b)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += eps
        minus = theta.copy()
        minus[i] -= eps
        wp, bp = plus[:w.size].reshape(w.shape), plus[w.size:]
        wm, bm = minus[:w.size].reshape(w.shape), minus[w.size:]
        grad[i] = (loss_fn(wp, bp) - loss_fn(wm, bm)) / (2 * eps)
    return grad


@pytest.mark.parametrize("loss_grad", [softmax_loss_grad, hinge_loss_grad])
def test_analytic_gradients_match_finite_differences(loss_grad):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 4))
    y = rng.integers(0, 3, size=12)
    w = 0.3 * rng.normal(size=(3, 4))
    b = 0.1 * rng.normal(size=3)
    if loss_grad is hinge_loss_grad:
        # keep every margin away from the hinge kink so the loss is smooth
        # in the neighborhood probed by the finite differences
        margins = (np.where(np.arange(3) == y[:, None], 1.0, -1.0)
                   * (x @ w.T + b))
        assert np.abs(margins - 1.0).min() > 1e-3
    loss, grad_w, grad_b = loss_grad(w, b, x, y, 0.01)
    analytic = _flat_pack(grad_w, grad_b)
    numeric = _numeric_grad(lambda wv, bv: loss_grad(wv, bv, x, y, 0.01)[0], w, b)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


# ------------------------------------------------- class-major bit identity

def _row_major_softmax_loss_grad(weights, bias, features, labels, l2):
    """The (n, C) formulation the class-major gradient must match bit for bit."""
    m = features.shape[0]
    scores = features @ weights.T + bias
    scores = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(m)
    loss = float(-np.log(probs[rows, labels]).mean()
                 + 0.5 * l2 * (weights * weights).sum())
    grad_scores = probs
    grad_scores[rows, labels] -= 1.0
    grad_scores /= m
    grad_w = grad_scores.T @ features + l2 * weights
    grad_b = grad_scores.sum(axis=0)
    return loss, grad_w, grad_b


def _softmax_problem(num_classes, n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, num_classes, size=n)
    w = 0.5 * rng.normal(size=(num_classes, d))
    b = 0.5 * rng.normal(size=num_classes)
    return w, b, x, y


def _assert_bitwise_equal(got, expected):
    loss, grad_w, grad_b = got
    assert loss == expected[0]
    assert np.array_equal(grad_w, expected[1])
    assert np.array_equal(grad_b, expected[2])


@pytest.mark.parametrize("num_classes", [2, 5, 20])
@pytest.mark.parametrize("n", [1, 37, 3755])
@pytest.mark.parametrize("d", [1, 4, 16, 64])
def test_softmax_grad_bitwise_equals_row_major(num_classes, n, d):
    w, b, x, y = _softmax_problem(num_classes, n, d)
    _assert_bitwise_equal(softmax_loss_grad(w, b, x, y, 1e-3),
                          _row_major_softmax_loss_grad(w, b, x, y, 1e-3))


@pytest.mark.parametrize("as_labels", [
    lambda y: y.astype(np.int64), lambda y: y.astype(np.int32),
    lambda y: [int(v) for v in y]], ids=["int64", "int32", "list"])
def test_softmax_grad_label_types(as_labels):
    w, b, x, y = _softmax_problem(5, 101, 16, seed=1)
    expected = _row_major_softmax_loss_grad(w, b, x, y, 1e-3)
    _assert_bitwise_equal(softmax_loss_grad(w, b, x, as_labels(y), 1e-3),
                          expected)


def test_softmax_grad_leaves_inputs_alone():
    w, b, x, y = _softmax_problem(5, 101, 16, seed=2)
    before = [a.copy() for a in (w, b, x, y)]
    softmax_loss_grad(w, b, x, y, 1e-3)
    for arr, copy in zip((w, b, x, y), before):
        assert np.array_equal(arr, copy)


def test_training_bitwise_equals_row_major_gradient(monkeypatch):
    rng = np.random.default_rng(4)
    centers = 2.0 * rng.normal(size=(5, 16))
    x = np.concatenate([c + rng.normal(size=(151, 16)) for c in centers])
    ts = TrainSet(x, np.repeat(np.arange(5), 151), class_map=range(5))
    config = OptimizerConfig(epochs=50)
    got = train_logistic(ts, config)
    monkeypatch.setattr(classifiers, "softmax_loss_grad",
                        _row_major_softmax_loss_grad)
    expected = train_logistic(ts, config)
    assert got.loss_history == expected.loss_history
    assert np.array_equal(got.weights, expected.weights)
    assert np.array_equal(got.bias, expected.bias)


# ----------------------------------------------------------------- prediction

def test_predict_rows_of_identity():
    model = LinearModel(kind="logistic", weights=np.eye(3), bias=np.zeros(3),
                        loss_history=())
    assert predict(model, [0.0, 1.0, 0.0]) == 1
    out = predict(model, np.eye(3))
    assert np.array_equal(out, [0, 1, 2])


def test_predict_tie_goes_to_lowest_label():
    model = LinearModel(kind="svm", weights=np.zeros((3, 2)), bias=np.zeros(3),
                        loss_history=())
    assert predict(model, [1.0, 1.0]) == 0


def test_predict_checks_dimensions():
    model = LinearModel(kind="logistic", weights=np.eye(2), bias=np.zeros(2),
                        loss_history=())
    with pytest.raises(DimensionError):
        predict(model, [1.0, 2.0, 3.0])


def test_rescaled_features_do_not_flip_confident_predictions():
    ts = blobs(9, spread=0.05)
    model = train_logistic(ts, OptimizerConfig(epochs=200))
    queries = np.array([[0.0, 0.1], [3.9, 0.0], [0.0, 4.1]])
    base = predict(model, queries)
    assert np.array_equal(base, [0, 1, 2])


# -------------------------------------------------------------- trainset type

def test_trainset_validation():
    with pytest.raises(SpecError):
        TrainSet(np.zeros((2, 2)), [0, 0], class_map=(0,))
    with pytest.raises(SpecError):
        TrainSet(np.zeros((2, 2)), [0, 2], class_map=(0, 1))
    with pytest.raises(SpecError):
        TrainSet(np.zeros((2, 2)), [0, 0], class_map=(0, 1))
    with pytest.raises(DimensionError):
        TrainSet(np.zeros((2, 2)), [0], class_map=(0, 1))


def test_optimizer_config_validation():
    with pytest.raises(SpecError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(SpecError):
        OptimizerConfig(epochs=0)
    for field, value in [("learning_rate", np.inf), ("learning_rate", np.nan),
                         ("l2", -0.1), ("l2", np.inf), ("l2", np.nan)]:
        with pytest.raises(SpecError):
            OptimizerConfig(**{field: value})


# --------------------------------------------------------------- max likelihood

def gaussian(mean, cov):
    return CalibratedDistribution(np.asarray(mean, dtype=np.float64),
                                  np.asarray(cov, dtype=np.float64),
                                  source_support_index=0,
                                  neighbor_class_ids=(0,))


def test_max_likelihood_matches_dense_formula():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    scorer = MaxLikelihoodScorer({0: [gaussian(mean, cov)]})
    x = np.array([[0.5, 0.5], [2.0, -3.0]])
    got = scorer.log_densities(x)[:, 0]
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    for i in range(2):
        diff = x[i] - mean
        expected = -0.5 * (2 * np.log(2 * np.pi) + logdet + diff @ inv @ diff)
        assert got[i] == pytest.approx(expected, rel=1e-12)


def test_max_likelihood_picks_own_mean():
    dists = {0: [gaussian([0.0, 0.0], np.eye(2))],
             1: [gaussian([5.0, 5.0], np.eye(2))]}
    got = MaxLikelihoodScorer(dists).classify([[0.1, -0.1], [5.2, 4.9]])
    assert np.array_equal(got, [0, 1])


def test_max_likelihood_tie_goes_to_lowest_label():
    dists = {2: [gaussian([1.0, 0.0], np.eye(2))],
             7: [gaussian([-1.0, 0.0], np.eye(2))]}
    assert np.array_equal(MaxLikelihoodScorer(dists).classify([[0.0, 0.0]]), [2])


def test_max_likelihood_spherical_equals_nearest_mean():
    rng = np.random.default_rng(2)
    means = rng.normal(size=(4, 3))
    dists = {i: [gaussian(means[i], np.eye(3))] for i in range(4)}
    x = rng.normal(size=(20, 3))
    expected = np.argmin(((means - x[:, None, :]) ** 2).sum(axis=2), axis=1)
    assert np.array_equal(MaxLikelihoodScorer(dists).classify(x), expected)


def test_max_likelihood_aggregate_modes():
    near = gaussian([0.0], np.eye(1) * 0.1)
    far = gaussian([100.0], np.eye(1) * 0.1)
    tight = gaussian([3.0], np.eye(1))
    dists = {0: [near, far], 1: [tight]}
    x = [[2.9]]
    # max aggregation ignores the far-away distribution of class 0
    assert MaxLikelihoodScorer(dists).classify(x)[0] == 1


def test_max_likelihood_batch_shape():
    dists = {0: [gaussian([0.0, 0.0], np.eye(2))],
             1: [gaussian([5.0, 5.0], np.eye(2))]}
    out = MaxLikelihoodScorer(dists).classify(np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert out.shape == (2,) and out.dtype == np.int64
    assert np.array_equal(out, [0, 1])
