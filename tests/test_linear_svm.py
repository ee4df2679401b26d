"""Tests for the one-vs-rest linear classifier on low-rank features."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gnystrom import (
    InductiveModel,
    InputError,
    KernelParams,
    LinearModel,
    build_core,
    embed,
    make_blobs,
    train_linear,
)


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
        train_linear(np.ones((2, 1)), np.array([0, 1]), n_iters=0)
    with pytest.raises(InputError):
        train_linear(np.array([[np.inf]]), np.array([0]))


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


@pytest.mark.parametrize("n_classes, c_reg", [(2, 1.0), (4, 1.0), (3, 100.0)])
def test_all_class_training_matches_per_class_reference(n_classes, c_reg):
    ds = make_blobs(300, 6, n_classes=n_classes, separation=2.0, seed=n_classes)
    G = ds.X @ np.random.default_rng(4).normal(size=(6, 12))
    model = train_linear(G, ds.y, c_reg=c_reg)
    expected = _reference_weights(G, ds.y, c_reg=c_reg)
    assert_allclose(model.weights, expected, rtol=0, atol=1e-9 * np.abs(expected).max())
    reference = np.argmax(np.hstack([G, np.ones((300, 1))]) @ expected.T, axis=1)
    assert np.array_equal(model.predict(G), model.classes[reference])


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
