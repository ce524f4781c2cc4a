import numpy as np
import pytest

from fsdc import classifiers
from fsdc.classifiers import (LinearModel, OptimizerConfig, TrainSet,
                              hinge_loss_grad, predict, softmax_loss_grad,
                              train_logistic, train_svm)
from fsdc.errors import DataError, SpecError
from fsdc.features_io import SyntheticSpec, generate_synthetic
from fsdc.harness import (EpisodeSpec, PipelineConfig,
                          collect_episode_features, sample_episode)
from fsdc.sampling import SamplerConfig
from fsdc.stats import build_base_stats


def blobs(seed=0, n=40, spread=0.1):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    x = np.concatenate([c + spread * rng.normal(size=(n, 2)) for c in centers])
    y = np.repeat(np.arange(3), n)
    return TrainSet(x, y, 3)


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
    ts = TrainSet(x, y, 2)
    model = train_logistic(ts, OptimizerConfig(epochs=100))
    # mirror-image classes produce mirror-image weights and equal biases
    assert np.allclose(model.weights[0], -model.weights[1], atol=1e-10)
    assert model.bias[0] == pytest.approx(model.bias[1], abs=1e-10)


def test_full_batch_loss_is_monotone_at_the_derived_step():
    ts = blobs(5)
    model = train_logistic(ts, OptimizerConfig(epochs=80))
    losses = np.asarray(model.loss_history)
    assert losses.shape == (80,)
    assert np.all(np.diff(losses) <= 1e-12)


@pytest.mark.parametrize("train", [train_logistic, train_svm],
                         ids=["logistic", "svm"])
def test_overflowing_curvature_is_reported_as_divergence(train):
    # finite rows whose curvature bound overflows; any numpy warning would
    # fail the test, as pytest turns it into an error
    ts = blobs(1)
    huge = TrainSet(ts.features * 1e200, ts.labels, ts.num_classes)
    with pytest.raises(DataError, match="overflow"):
        train(huge)


def test_step_is_capped_and_shrinks_with_the_curvature():
    x = blobs(2).features
    assert classifiers._step_size(x, 1e-3) == 0.1
    # power iteration underestimates the curvature, and so overestimates
    # 1.9/L, but stays below the stability limit 2/L
    wide = np.hstack([10 * x, np.ones((x.shape[0], 1))])
    curvature = 0.5 * np.linalg.eigvalsh(wide.T @ wide / x.shape[0])[-1] + 1e-3
    assert 1.9 / curvature <= classifiers._step_size(10 * x, 1e-3) \
        < 2 / curvature


# the smallest shape found where a fixed step of 0.1 makes both losses
# oscillate: 5-shot at d=256, 5 support rows and 300 generated ones per class
@pytest.fixture(scope="module")
def wide_train_sets():
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=25, dim=256, samples_per_class=60, group_size=5, seed=1))
    table = build_base_stats(ds, split)
    spec = EpisodeSpec(n_way=5, k_shot=5, q_queries=5, num_episodes=2, seed=3)
    cfg = PipelineConfig(sampler=SamplerConfig(total_per_class=300))
    sets = []
    for index in range(spec.num_episodes):
        ep = sample_episode(ds, split, spec, index)
        x, class_ids, roles = collect_episode_features(ep, table, cfg)
        keep = np.array([role != "query" for role in roles])
        labels = [ep.class_ids.index(c) for c in class_ids[keep]]
        sets.append(TrainSet(x[keep], labels, len(ep.class_ids)))
    return sets


def test_logistic_loss_settles_at_the_papers_width(wide_train_sets):
    for ts in wide_train_sets:
        losses = np.asarray(train_logistic(ts).loss_history)
        assert np.all(np.diff(losses[-20:]) <= 0)


def test_svm_loss_settles_at_the_papers_width(wide_train_sets):
    # a constant-step subgradient method is never monotone, so bound the
    # swing instead: a fixed step of 0.1 swings by 1.05 and 1.85 here
    for ts in wide_train_sets:
        losses = np.asarray(train_svm(ts).loss_history)
        assert np.ptp(losses[-10:]) < 0.1


def test_l2_shrinks_weights_not_bias():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]] * 10)
    y = np.array([0, 1] * 10)
    ts = TrainSet(x, y, 2)
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


# ------------------------------------------------- row-major softmax reference

def _row_major_softmax_loss_grad(weights, bias, features, labels, l2):
    """The textbook (n, C) softmax, one row of scores per sample."""
    m = features.shape[0]
    scores = features @ weights.T + bias
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = np.arange(m)
    loss = float(-np.log(probs[rows, labels]).mean()
                 + 0.5 * l2 * (weights * weights).sum())
    probs[rows, labels] -= 1.0
    probs /= m
    grad_w = probs.T @ features + l2 * weights
    grad_b = probs.sum(axis=0)
    return loss, grad_w, grad_b


def _softmax_problem(num_classes, n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, num_classes, size=n)
    w = 0.5 * rng.normal(size=(num_classes, d))
    b = 0.5 * rng.normal(size=num_classes)
    return w, b, x, y


# a grid of class counts, row counts and widths, then the paper's shape:
# 5-way at d=640 with 755, 3755 (1-shot) and 3775 (5-shot) training rows
_BIT_IDENTITY_SHAPES = (
    [(c, n, d) for d in (1, 4, 16, 64) for n in (1, 37, 3755) for c in (2, 5, 20)]
    + [(5, n, 640) for n in (755, 3755, 3775)])


@pytest.mark.parametrize("num_classes, n, d", _BIT_IDENTITY_SHAPES,
                         ids=[f"{d}-{n}-{c}" for c, n, d in _BIT_IDENTITY_SHAPES])
def test_softmax_grad_bitwise_equals_row_major(num_classes, n, d):
    # The name is from when the class-major kernel reproduced the row-major
    # summation order bit for bit.  It now sums in numpy's default order, so
    # it matches the row-major formulation to rounding, not to the bit.
    w, b, x, y = _softmax_problem(num_classes, n, d)
    got = softmax_loss_grad(w, b, x, y, 1e-3)
    expected = _row_major_softmax_loss_grad(w, b, x, y, 1e-3)
    assert got[0] == pytest.approx(expected[0], rel=1e-12)
    # each array within 1e-12 of its largest entry: the two layouts add
    # their terms in different orders
    for a, e in zip(got[1:], expected[1:]):
        assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max()


@pytest.mark.parametrize("as_labels", [
    lambda y: y.astype(np.int64), lambda y: y.astype(np.int32),
    lambda y: [int(v) for v in y]], ids=["int64", "int32", "list"])
def test_softmax_grad_label_types(as_labels):
    w, b, x, y = _softmax_problem(5, 101, 16, seed=1)
    loss, grad_w, grad_b = softmax_loss_grad(w, b, x, y, 1e-3)
    got = softmax_loss_grad(w, b, x, as_labels(y), 1e-3)
    assert got[0] == loss
    assert np.array_equal(got[1], grad_w)
    assert np.array_equal(got[2], grad_b)


def test_softmax_grad_leaves_inputs_alone():
    w, b, x, y = _softmax_problem(5, 101, 16, seed=2)
    before = [a.copy() for a in (w, b, x, y)]
    softmax_loss_grad(w, b, x, y, 1e-3)
    for arr, copy in zip((w, b, x, y), before):
        assert np.array_equal(arr, copy)


# ----------------------------------------------------------------- prediction

def test_predict_rows_of_identity():
    model = LinearModel(weights=np.eye(3), bias=np.zeros(3), loss_history=())
    one = predict(model, [[0.0, 1.0, 0.0]])
    assert one.dtype == np.int64
    assert np.array_equal(one, [1])
    out = predict(model, np.eye(3))
    assert np.array_equal(out, [0, 1, 2])


def test_predict_tie_goes_to_lowest_label():
    model = LinearModel(weights=np.zeros((3, 2)), bias=np.zeros(3),
                        loss_history=())
    assert np.array_equal(predict(model, [[1.0, 1.0]]), [0])


def test_predict_checks_dimensions():
    model = LinearModel(weights=np.eye(2), bias=np.zeros(2), loss_history=())
    with pytest.raises(DataError, match="do not match the trained model"):
        predict(model, [[1.0, 2.0, 3.0]])
    # one query is a one-row matrix, not a vector
    with pytest.raises(DataError, match="do not match the trained model"):
        predict(model, [1.0, 2.0])


def test_rescaled_features_do_not_flip_confident_predictions():
    ts = blobs(9, spread=0.05)
    model = train_logistic(ts, OptimizerConfig(epochs=200))
    queries = np.array([[0.0, 0.1], [3.9, 0.0], [0.0, 4.1]])
    base = predict(model, queries)
    assert np.array_equal(base, [0, 1, 2])


# -------------------------------------------------------------- trainset type

def test_trainset_validation():
    with pytest.raises(SpecError):
        TrainSet(np.zeros((2, 2)), [0, 0], 1)
    with pytest.raises(SpecError):
        TrainSet(np.zeros((2, 2)), [0, 2], 2)
    with pytest.raises(SpecError):
        TrainSet(np.zeros((2, 2)), [0, 0], 2)
    with pytest.raises(DataError, match="labels must match features"):
        TrainSet(np.zeros((2, 2)), [0], 2)


def test_optimizer_config_validation():
    with pytest.raises(SpecError):
        OptimizerConfig(epochs=0)
    for field, value in [("l2", -0.1), ("l2", np.inf), ("l2", np.nan)]:
        with pytest.raises(SpecError):
            OptimizerConfig(**{field: value})

