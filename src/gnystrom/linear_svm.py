"""One-vs-rest linear SVM trained to a certified duality gap.

Each class's classifier minimizes (reg/2)||w||^2 + mean hinge over the
augmented features a = [x, 1], so the bias is regularized with the rest,
with reg = 1/(c_reg * n). Training solves the dual, a QP over a box in n
variables: with alpha in [0, 1]^n, beta = y * alpha, K = A @ A.T and
w = c_reg * A.T @ beta, it minimizes (1/2) alpha.Q.alpha - sum(alpha) with
Q = c_reg * (y y^T) * K.

The QP is solved by a primal-dual interior-point method with Mehrotra's
predictor-corrector (Nocedal & Wright 2006, section 16.6): each step of a
class factors one n x n matrix, c_reg * K plus a positive diagonal, and
solves with it twice; with two classes one step serves both, as the second
class's dual is the first's with y negated. On the benchmark's rows it takes
6 to 8 steps, and on small random problems with features scaled from 1e-3
to 1e3 at most 80. An accelerated projected gradient on the same dual (FISTA
with adaptive restart) takes 100 to 1,000 steps on the benchmark's rows and
tens of thousands or more on badly scaled ones, where it settles the rows at
the bounds of the box one at a time.

Before every step each class's duality gap P(w) - D(alpha), an upper bound
on how far P(w) lies above the optimum, is computed from w. A class stops
stepping once its gap is at most GAP_TOL times its primal value, or once
the method has converged as far as double precision goes while rounding
keeps the gap above that (it stalls: rows with huge, nearly equal
features); training stops once every class has stopped, or after
``n_iters`` steps. Nothing is sampled, so training is bit-for-bit
reproducible.
"""

from dataclasses import dataclass

import numpy as np

from ._arrays import as_count, as_real
from ._lapack import dpotrf, dpotrs
from .errors import InputError, NumericalError

# A class stops once its duality gap is at most this fraction of its primal
# objective.
GAP_TOL = 1e-6
# Share of the way to the boundary of the feasible region a step may go.
_STEP_FRACTION = 0.99


@dataclass(frozen=True)
class LinearModel:
    """Per-class weight rows over augmented features [x, 1].

    :func:`train_linear` also records the interior-point steps it took, why
    it stopped (``"gap"``, ``"stalled"`` or ``"max_iters"``) and the largest
    relative duality gap over the classes; a model built from given weights
    leaves them at their defaults.
    """

    classes: np.ndarray
    weights: np.ndarray
    iterations: int = 0
    stop_reason: str | None = None
    relative_gap: float | None = None

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
    class through its dual (see the module docstring) until every class's
    duality gap is at most GAP_TOL of its primal objective, or for at most
    ``n_iters`` interior-point steps; the model records which. A step
    factors an n x n matrix per class (one for two classes), so the cost
    suits the labelled rows a classifier here is trained on. Degenerate
    inputs (duplicate points with clashing labels) have a bounded dual and
    train like any other.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise InputError("labels must be 1-D")
    G = _check_features(G)
    n = G.shape[0]
    A = np.hstack([G, np.ones((n, 1))])
    if labels.shape[0] != n:
        raise InputError("one label per feature row required")
    c_reg = as_real(c_reg, "c_reg", positive=True)
    n_iters = as_count(n_iters, "n_iters")
    classes = np.unique(labels)
    if classes.size < 2:
        raise InputError("training needs at least two classes")
    reg = 1.0 / (c_reg * n)
    # Column c holds +1 where a row is in class c and -1 elsewhere.
    Y = np.where(labels[:, None] == classes, 1.0, -1.0)
    # Class c's Q is diag(y) @ cK @ diag(y); all classes share cK.
    cK = c_reg * (A @ A.T)
    # Interior start. 1 - alpha is kept as its own variable, which stays
    # accurate as alpha nears 1; z and s are the multipliers of alpha >= 0
    # and alpha <= 1.
    alpha, rest = np.full(Y.shape, 0.5), np.full(Y.shape, 0.5)
    z, s = np.ones(Y.shape), np.ones(Y.shape)
    for iterations in range(n_iters + 1):
        W = c_reg * (A.T @ (Y * alpha))
        half_sq = 0.5 * reg * np.einsum("ij,ij->j", W, W)
        primal = half_sq + np.mean(np.maximum(0.0, 1.0 - Y * (A @ W)), axis=0)
        gaps = (primal - (np.mean(alpha, axis=0) - half_sq)) / primal
        if not np.all(np.isfinite(gaps)):
            raise NumericalError("duality gap is not finite")
        # The gap is at most 2 * mu, the mean complementarity, plus what the
        # residual of the dual's optimality conditions adds. Once 2 * mu is
        # at rounding level, a gap above the tolerance is rounding in that
        # residual, which more steps do not reduce: the class has stalled.
        mu = (np.einsum("ij,ij->j", alpha, z) + np.einsum("ij,ij->j", rest, s)) / (2 * n)
        stepping = (gaps > GAP_TOL) & (2.0 * mu > np.finfo(float).eps * primal)
        if not stepping.any() or iterations == n_iters:
            break
        # With two classes, class 1's y is class 0's negated. Negation is
        # exact in every product and solve of a step, so class 1 would step
        # as class 0 does, bit for bit: one step serves both.
        binary = classes.size == 2
        for c in [0] if binary else np.flatnonzero(stepping):
            alpha[:, c], rest[:, c], z[:, c], s[:, c] = _interior_step(
                cK, Y[:, c], alpha[:, c], rest[:, c], z[:, c], s[:, c])
        if binary:
            for v in (alpha, rest, z, s):
                v[:, 1] = v[:, 0]
    if np.all(gaps <= GAP_TOL):
        stop_reason = "gap"
    else:
        stop_reason = "max_iters" if stepping.any() else "stalled"
    return LinearModel(classes=classes, weights=W.T.copy(), iterations=iterations,
                       stop_reason=stop_reason, relative_gap=float(gaps.max()))


def _interior_step(cK, y, x, u, z, s):
    """One Mehrotra predictor-corrector step for min (1/2) x.Q.x - sum(x)
    over 0 <= x <= 1 with Q = diag(y) @ cK @ diag(y), from the interior
    point x with u = 1 - x and the multipliers z of x >= 0 and s of x <= 1;
    returns the next (x, u, z, s).

    Q + D = diag(y) @ (cK + D) @ diag(y) for a diagonal D, as y * y = 1, so
    the Newton systems are solved with the factor of cK + D.
    """
    residual = y * (cK @ (y * x)) - 1.0 - z + s
    mu = (x @ z + u @ s) / (2 * x.size)
    diagonal = np.diag(cK) + z / x + s / u
    # cK has rank at most p + 1, so cK plus the diagonal is near singular
    # once the entries of the rows strictly inside the box are small. Shift
    # it until it factors.
    shift = 0.0
    while True:
        # In Fortran order LAPACK factors H in place.
        H = cK.copy(order="F")
        np.fill_diagonal(H, diagonal + shift)
        factor, info = dpotrf(H, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            break
        shift = 10.0 * shift if shift else 1e-14 * float(np.max(diagonal))
        if not np.isfinite(shift):
            raise NumericalError("interior-point system is not finite")

    def direction(target_z, target_s):
        # Newton direction that moves x * z by target_z and u * s by target_s.
        v, info = dpotrs(factor, y * (target_z / x - target_s / u - residual), lower=1,
                         overwrite_b=1)
        if info != 0:
            raise NumericalError(f"interior-point solve failed: dpotrs info={info}")
        dx = y * v
        return dx, (target_z - z * dx) / x, (target_s + s * dx) / u

    def longest_step(dx, dz, ds):
        step = np.inf
        for v, dv in ((x, dx), (u, -dx), (z, dz), (s, ds)):
            shrinking = dv < 0
            step = min(step, float(np.min(v[shrinking] / -dv[shrinking], initial=np.inf)))
        return step

    # Predictor: the affine direction toward mu = 0.
    dx, dz, ds = direction(-x * z, -u * s)
    a = min(1.0, longest_step(dx, dz, ds))
    mu_affine = ((x + a * dx) @ (z + a * dz) + (u - a * dx) @ (s + a * ds)) / (2 * x.size)
    # Corrector: centre on sigma * mu with sigma = (mu_affine / mu)^3, and
    # cancel the second-order terms of the predictor.
    centre = (mu_affine / mu) ** 3 * mu
    dx, dz, ds = direction(centre - x * z - dx * dz, centre - u * s + dx * ds)
    a = min(1.0, _STEP_FRACTION * longest_step(dx, dz, ds))
    return x + a * dx, u - a * dx, z + a * dz, s + a * ds
