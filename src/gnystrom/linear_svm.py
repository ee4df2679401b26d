"""One-vs-rest linear SVM trained by deterministic subgradient descent.

Full-batch hinge-loss minimization with the classic 1/(reg * t) step
schedule and norm-ball projection; no sampling, so training is bit-for-bit
reproducible. The bias enters as an augmented constant feature and is
regularized with the rest.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class LinearModel:
    """Per-class weight rows over augmented features [x, 1]."""

    classes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        classes = np.asarray(self.classes)
        weights = np.asarray(self.weights, dtype=np.float64)
        if classes.ndim != 1 or weights.ndim != 2:
            raise InputError("classes must be 1-D and weights 2-D")
        if weights.shape[0] != classes.shape[0]:
            raise InputError("one weight row per class required")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "weights", weights)

    def decision_function(self, G):
        G = _check_features(G, self.weights.shape[1] - 1)
        return G @ self.weights[:, :-1].T + self.weights[:, -1]

    def predict(self, G):
        scores = self.decision_function(G)
        # argmax returns the first maximum; classes are sorted, so ties
        # break toward the lowest class id.
        return self.classes[np.argmax(scores, axis=1)]


def _check_features(G, expected_cols=None):
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2:
        raise InputError(f"feature matrix must be 2-D, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise InputError("feature matrix contains non-finite values")
    if expected_cols is not None and G.shape[1] != expected_cols:
        raise InputError(f"expected {expected_cols} features, got {G.shape[1]}")
    return G


def train_linear(G, labels, c_reg=1.0, n_iters=1000):
    """Train one-vs-rest L2-regularized hinge-loss classifiers.

    Minimizes (reg/2)||w||^2 + mean hinge with reg = 1/(c_reg * n) per
    class, by full-batch subgradient steps of length 1/(reg * (t+1)) with
    projection onto the ball of radius 1/sqrt(reg). The iteration budget is
    fixed, so degenerate inputs (duplicate points with clashing labels)
    still terminate. All classes step together: each iteration is one
    ``A @ W`` and one ``A.T @ hinge`` product over the p x classes weights,
    and each column is projected onto the ball on its own.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise InputError("labels must be 1-D")
    G = _check_features(G)
    n = G.shape[0]
    A = np.hstack([G, np.ones((n, 1))])
    if labels.shape[0] != n:
        raise InputError("one label per feature row required")
    if not c_reg > 0:
        raise InputError(f"c_reg must be positive, got {c_reg}")
    if n_iters < 1:
        raise InputError(f"n_iters must be >= 1, got {n_iters}")
    classes = np.unique(labels)
    if classes.size < 2:
        raise InputError("training needs at least two classes")
    reg = 1.0 / (float(c_reg) * n)
    radius = 1.0 / np.sqrt(reg)
    # Column c holds +1 where a row is in class c and -1 elsewhere.
    Y = np.where(labels[:, None] == classes, 1.0, -1.0)
    W = np.zeros((A.shape[1], classes.size))
    for t in range(int(n_iters)):
        hinge = np.where(Y * (A @ W) < 1.0, Y, 0.0)
        grad = reg * W - (A.T @ hinge) / n
        W = W - grad / (reg * (t + 1))
        norms = np.linalg.norm(W, axis=0)
        outside = norms > radius
        W[:, outside] *= radius / norms[outside]
    return LinearModel(classes=classes, weights=W.T.copy())
