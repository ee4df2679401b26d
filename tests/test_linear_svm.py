"""Tests for the one-vs-rest linear classifier on low-rank features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gnystrom import (
    InductiveModel,
    InputError,
    KernelParams,
    LinearModel,
    NumericalError,
    build_core,
    embed,
    make_blobs,
    train_linear,
)
from gnystrom import linear_svm
from gnystrom.linear_svm import GAP_TOL


def test_separable_pair_reaches_zero_training_error():
    G = np.array([[-1.0], [1.0]])
    labels = np.array([0, 1])
    model = train_linear(G, labels)
    assert np.array_equal(model.predict(G), labels)


def test_degenerate_duplicates_survive():
    G = np.zeros((4, 1))
    labels = np.array([0, 0, 1, 1])
    model = train_linear(G, labels, n_iters=50)
    predictions = model.predict(G)
    assert float(np.mean(predictions != labels)) == 0.5


def test_single_class_rejected():
    with pytest.raises(InputError):
        train_linear(np.ones((3, 1)), np.zeros(3))


def test_prediction_ties_break_to_lowest_class():
    model = LinearModel(classes=np.array([2, 5, 9]), weights=np.zeros((3, 3)))
    assert model.predict(np.ones((4, 2))).tolist() == [2, 2, 2, 2]


def test_decision_function_shape():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(20, 4))
    labels = rng.integers(0, 3, size=20)
    while np.unique(labels).size < 3:
        labels = rng.integers(0, 3, size=20)
    model = train_linear(G, labels)
    assert model.decision_function(G).shape == (20, 3)
    assert model.predict(G).shape == (20,)


def test_training_is_deterministic():
    rng = np.random.default_rng(1)
    G = rng.normal(size=(30, 3))
    labels = rng.integers(0, 2, size=30)
    a = train_linear(G, labels)
    b = train_linear(G, labels)
    assert np.array_equal(a.weights, b.weights)


def test_binary_training_steps_one_class(monkeypatch):
    """With two classes the second class's dual is the first's with y
    negated, so one interior-point step per iteration serves both."""
    calls = []
    real = linear_svm._interior_step

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linear_svm, "_interior_step", counting)
    rng = np.random.default_rng(3)
    G = rng.normal(size=(40, 3))
    labels = np.where(G[:, 0] + 0.3 * rng.normal(size=40) > 0, 7, 2)
    model = train_linear(G, labels)
    assert model.stop_reason == "gap"
    assert model.iterations > 0
    assert len(calls) == model.iterations
    assert np.array_equal(model.weights[1], -model.weights[0])


def test_multiclass_blobs_low_error():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    G = np.vstack([rng.normal(size=(30, 2)) * 0.5 + c for c in centers])
    labels = np.repeat([0, 1, 2], 30)
    model = train_linear(G, labels)
    error = float(np.mean(model.predict(G) != labels))
    assert error < 0.05


def test_string_labels_supported():
    G = np.array([[-2.0], [-1.5], [1.5], [2.0]])
    labels = np.array(["neg", "neg", "pos", "pos"])
    model = train_linear(G, labels)
    assert model.predict(np.array([[-3.0], [3.0]])).tolist() == ["neg", "pos"]


def test_input_validation():
    with pytest.raises(InputError):
        train_linear(np.ones((3, 1)), np.array([0, 1]))  # length mismatch
    with pytest.raises(InputError):
        train_linear(np.ones((2, 1)), np.array([0, 1]), c_reg=0.0)
    with pytest.raises(InputError):
        train_linear(np.ones((2, 1)), np.array([0, 1]), c_reg=np.inf)
    with pytest.raises(InputError):  # a bare TypeError before
        train_linear(np.ones((2, 1)), np.array([0, 1]), c_reg="1")
    with pytest.raises(InputError):
        train_linear(np.ones((2, 1)), np.array([0, 1]), n_iters=0)
    with pytest.raises(InputError):
        train_linear(np.array([[np.inf]]), np.array([0]))


@pytest.mark.parametrize("n_iters", [2.5, 2.0, True])
def test_training_rejects_non_integer_step_caps(n_iters):
    """n_iters = 2.5 ran 2 interior-point steps."""
    G = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(InputError, match="n_iters must be of integer type"):
        train_linear(G, np.array([0, 0, 1, 1]), n_iters=n_iters)


def test_overflowing_features_raise_instead_of_certifying():
    """Rows whose Gram matrix overflows give a duality gap that is not a
    number; training raises instead of running on it."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
        train_linear(np.array([[1e200], [-1e200]]), np.array([0, 1]))


def test_gap_below_rounding_stops_as_stalled():
    """With every row equal and of size 1e4, each margin is c_reg * |a|^2
    (3e10 here) times a sum that cancels, so the gap cannot be computed to
    GAP_TOL. Training stops as stalled once the interior-point method has
    converged, and reports the gap it reached."""
    model = train_linear(np.full((40, 3), 1e4), np.arange(40) % 4, c_reg=100.0)
    assert model.stop_reason == "stalled"
    assert GAP_TOL < model.relative_gap < 1e-3
    assert model.iterations <= 20


def _reference_weights(G, labels, c_reg=1.0, n_iters=1000):
    """One class at a time, with the active rows gathered explicitly."""
    A = np.hstack([G, np.ones((G.shape[0], 1))])
    n, p = A.shape
    reg = 1.0 / (c_reg * n)
    radius = 1.0 / np.sqrt(reg)
    classes = np.unique(labels)
    weights = np.zeros((classes.size, p))
    for ci, cls in enumerate(classes):
        y = np.where(labels == cls, 1.0, -1.0)
        w = np.zeros(p)
        for t in range(n_iters):
            active = y * (A @ w) < 1.0
            grad = reg * w - (y[active] @ A[active]) / n
            w = w - grad / (reg * (t + 1))
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
        weights[ci] = w
    return weights


def _objective(weights, G, labels, c_reg):
    """Per-class primal objective (reg/2)||w||^2 + mean hinge of the weight
    rows over [G, 1], with reg = 1/(c_reg * n)."""
    A = np.hstack([G, np.ones((G.shape[0], 1))])
    reg = 1.0 / (c_reg * A.shape[0])
    Y = np.where(labels[:, None] == np.unique(labels), 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - Y * (A @ weights.T))
    return 0.5 * reg * np.sum(weights * weights, axis=1) + np.mean(hinge, axis=0)


def _face_optimum(G, labels, c_reg, weights, tol=1e-4):
    """The exact optimum on the face the given weights point to, checked
    against the optimality conditions of the dual.

    Rows whose margin y * a.w is within ``tol`` of 1 are taken as free, rows
    below it at alpha = 1 and rows above it at alpha = 0; the free alphas put
    their rows exactly on the margin. The result is the optimum if the free
    alphas lie in [0, 1] and every other row keeps its side of the margin.
    """
    A = np.hstack([G, np.ones((G.shape[0], 1))])
    K = A @ A.T
    rows = []
    for cls, w in zip(np.unique(labels), weights):
        y = np.where(labels == cls, 1.0, -1.0)
        margin = y * (A @ w)
        inside, free = margin < 1.0 - tol, np.abs(margin - 1.0) <= tol
        Q = c_reg * K * np.outer(y, y)
        alpha = inside.astype(float)
        alpha[free] = np.linalg.lstsq(Q[np.ix_(free, free)],
                                      1.0 - Q[np.ix_(free, inside)] @ alpha[inside],
                                      rcond=None)[0]
        optimum = c_reg * A.T @ (y * alpha)
        margin = y * (A @ optimum)
        assert np.all((alpha[free] >= 0.0) & (alpha[free] <= 1.0))
        assert_allclose(margin[free], 1.0, rtol=0, atol=1e-9)
        assert np.all(margin[inside] <= 1.0) and np.all(margin[~inside & ~free] >= 1.0)
        rows.append(optimum)
    return np.array(rows)


@pytest.mark.parametrize("n_classes, c_reg", [(2, 1.0), (4, 1.0), (3, 100.0)])
def test_all_class_training_matches_per_class_reference(n_classes, c_reg):
    """All classes trained together do no worse than the per-class
    subgradient reference, and lie within their reported duality gap of the
    optimum, which _face_optimum finds and checks independently."""
    ds = make_blobs(300, 6, n_classes=n_classes, separation=2.0, seed=n_classes)
    G = ds.X @ np.random.default_rng(4).normal(size=(6, 12))
    model = train_linear(G, ds.y, c_reg=c_reg)
    assert model.stop_reason == "gap"
    objective = _objective(model.weights, G, ds.y, c_reg)
    reference = _reference_weights(G, ds.y, c_reg=c_reg)
    assert np.all(objective <= _objective(reference, G, ds.y, c_reg))
    optimum = _face_optimum(G, ds.y, c_reg, model.weights)
    best = _objective(optimum, G, ds.y, c_reg)
    assert np.all(best <= objective)
    assert np.all(objective - best <= model.relative_gap * objective)
    scores = np.hstack([G, np.ones((300, 1))]) @ optimum.T
    assert np.array_equal(model.predict(G), model.classes[np.argmax(scores, axis=1)])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), p=st.integers(1, 8), n_classes=st.integers(2, 4),
       c_reg=st.sampled_from((0.01, 1.0, 100.0)), scale=st.sampled_from((0.01, 1.0, 100.0)),
       duplicates=st.integers(0, 39), seed=st.integers(0, 2**31 - 1))
def test_training_certifies_its_gap(n, p, n_classes, c_reg, scale, duplicates, seed):
    """Small problems of any feature scale train to the gap tolerance,
    reproducibly and no worse than the subgradient reference beyond the
    certified gap: on easy draws the reference can end nearer the optimum
    than a stop at GAP_TOL. Rows 1 to ``duplicates`` repeat row 0 with
    labels that clash with it."""
    rng = np.random.default_rng(seed)
    G = scale * rng.normal(size=(n, p))
    labels = rng.integers(0, n_classes, size=n)
    labels[:2] = [0, 1]
    duplicates = min(duplicates, n - 1)
    G[1:duplicates + 1] = G[0]
    labels[1:duplicates + 1] = np.maximum(labels[1:duplicates + 1], 1)
    model = train_linear(G, labels, c_reg=c_reg)
    assert model.stop_reason == "gap"
    assert model.relative_gap <= GAP_TOL
    objective = _objective(model.weights, G, labels, c_reg)
    reference = _objective(_reference_weights(G, labels, c_reg=c_reg), G, labels, c_reg)
    assert np.all(objective <= reference + model.relative_gap * objective)
    assert np.array_equal(train_linear(G, labels, c_reg=c_reg).weights, model.weights)


def test_xor_separable_after_embedding():
    """Raw 2-D XOR defeats a linear rule, but embedding through a four-corner
    landmark model makes it linearly separable."""
    rng = np.random.default_rng(3)
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    n_per = 15
    X = np.vstack([rng.normal(scale=0.08, size=(n_per, 2)) + c for c in corners])
    y = np.array([0, 1, 1, 0]).repeat(n_per)

    p = KernelParams(bandwidth=0.5)
    core = build_core(X, corners, p)
    model = InductiveModel.from_state(corners, p, core.S0)
    G_train = embed(model, X)

    X_test = np.vstack([rng.normal(scale=0.08, size=(n_per, 2)) + c
                        for c in corners])
    y_test = np.array([0, 1, 1, 0]).repeat(n_per)
    G_test = embed(model, X_test)

    clf = train_linear(G_train, y)
    raw = train_linear(X, y)
    embedded_error = float(np.mean(clf.predict(G_test) != y_test))
    raw_error = float(np.mean(raw.predict(X_test) != y_test))
    assert embedded_error < 0.1
    assert raw_error > 0.25  # sanity: the raw features really are XOR-hard
