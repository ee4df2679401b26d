"""Landmark selection: uniform random rows or k-means cluster centers."""

from dataclasses import dataclass

import numpy as np

from ._arrays import as_count, as_data_matrix, as_seed
from .errors import InputError

LANDMARK_METHODS = ("kmeans", "random")

# Iteration cap and relative error-decrease tolerance of select_kmeans's
# Lloyd run.
_LLOYD_MAX_ITERS = 100
_LLOYD_TOL = 1e-4
# Scores per row block of a Lloyd assignment step (512 KiB, L2-sized).
_ASSIGN_SCORES = 2**16


@dataclass(frozen=True)
class KMeansConfig:
    """k-means landmarks: ``k`` centers, seeded by distance-weighted
    sampling (:func:`_init_spread`) from ``seed``.

    Lloyd's algorithm then runs for at most 100 iterations and stops once
    an iteration lowers the quantization error (the total squared distance
    to the nearest center) by at most 1e-4 of its previous value. The
    Nystrom error is bounded by that error (Zhang, Tsang & Kwok 2008), and
    a relative rule does not change when the data are translated.
    """

    k: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", as_count(self.k, "k"))


@dataclass(frozen=True)
class LandmarkSet:
    """Landmark points plus the provenance of their selection.

    ``source_indices`` is set only for random selection, where landmarks are
    actual dataset rows; k-means centers are synthetic means.
    """

    points: np.ndarray
    method: str
    seed: int
    source_indices: np.ndarray | None = None

    def __post_init__(self):
        points = as_data_matrix(self.points, "landmark points")
        object.__setattr__(self, "points", points)
        if self.method not in LANDMARK_METHODS:
            raise InputError(f"unknown landmark method {self.method!r}")

    @property
    def m(self):
        return int(self.points.shape[0])


def select_random(X, m, seed):
    """Pick m distinct rows of X uniformly at random, reproducibly."""
    X = as_data_matrix(X)
    n = X.shape[0]
    m = as_count(m, "m")
    if m > n:
        raise InputError(f"need 1 <= m <= n, got m={m} with n={n}")
    rng = np.random.default_rng(as_seed(seed))
    idx = rng.choice(n, size=m, replace=False)
    return LandmarkSet(points=X[idx].copy(), method="random", seed=int(seed),
                       source_indices=idx)


def select_kmeans(X, cfg):
    """Landmarks as k-means centers, deterministic for a given config."""
    X = as_data_matrix(X)
    if cfg.k > X.shape[0]:
        raise InputError(f"k={cfg.k} exceeds the number of samples {X.shape[0]}")
    rng = np.random.default_rng(as_seed(cfg.seed))
    centers = _init_spread(X, cfg.k, rng)
    centers, _ = lloyd_iterations(X, centers, _LLOYD_MAX_ITERS, _LLOYD_TOL)
    return LandmarkSet(points=centers, method="kmeans", seed=int(cfg.seed))


def lloyd_iterations(X, centers, max_iters, tol):
    """Run Lloyd updates from the given centers.

    Returns ``(centers, trace)`` where ``trace`` holds the clustering
    objective (total squared distance to the nearest center) evaluated after
    each assignment step; the sequence is non-increasing. Clusters that come
    up empty are re-seeded with points farthest from their assigned center,
    which also cannot increase the objective.

    Each assignment step is one matrix product per block of about
    2**16 / k rows, whose scores stay in cache (see :func:`_assign`), and
    each update one weighted ``bincount`` per feature. Iteration stops after
    the update that follows an assignment lowering the objective by at most
    ``tol`` times its previous value; ``tol=0`` runs until the objective
    stops falling. At an exact fixed point the stall shows one assignment
    after the centers stop moving, and that assignment returns the same
    centers. Besides X the run holds one n x d copy, a few length-n vectors
    and one block of scores.
    """
    X = as_data_matrix(X)
    centers = np.array(centers, dtype=np.float64)
    n, d = X.shape
    k = centers.shape[0]
    if centers.ndim != 2 or centers.shape[1] != d:
        raise InputError("initial centers must match the feature dimension")
    if k > n:
        raise InputError(f"cannot maintain {k} nonempty clusters with {n} samples")
    mean = X.mean(axis=0)
    Xc = X - mean
    trace = []
    for _ in range(max_iters):
        assign, nearest = _assign(X, Xc, mean, centers)
        trace.append(float(nearest.sum()))

        assign = _repair_empty(assign, nearest, k)
        counts = np.bincount(assign, minlength=k)
        new_centers = np.empty((k, d))
        for j in range(d):
            new_centers[:, j] = np.bincount(assign, weights=X[:, j], minlength=k)
        new_centers /= counts[:, None]
        centers = new_centers
        if len(trace) > 1 and trace[-2] - trace[-1] <= tol * trace[-2]:
            break
    return centers, trace


def _assign(X, Xc, mean, centers):
    """Nearest center of every row of X, and the squared distance to it.

    Ranks centers by ``||z||^2 - 2 x.z``, one matrix product per block of
    rows. Both sides are shifted by ``mean`` first (``Xc = X - mean``), which
    keeps the expansion's cancellation error at the scale of the data's
    spread rather than of its offset. The distances are recomputed from the
    original rows. A block's scores (about 2**16 of them, 512 KiB) stay in
    cache between the product, the norm addition and the argmin, where one
    n x k score matrix would go to memory and back; a row's scores do not
    depend on the block it falls in, so the result is the same as from one
    product over all rows.
    """
    n, k = X.shape[0], centers.shape[0]
    Zc = centers - mean
    # Scaling by -2 is exact, so folding it into the k x d operand gives the
    # same bits as scaling the n x k product.
    W = (-2.0 * Zc).T
    sq_z = np.einsum("ij,ij->i", Zc, Zc)
    rows = max(2, _ASSIGN_SCORES // k)
    assign = np.empty(n, dtype=np.intp)
    nearest = np.empty(n)
    start = 0
    while start < n:
        # A one-row product would go to BLAS's matrix-vector routine, whose
        # sums may round differently; a lone last row joins the block before.
        stop = start + rows if n - start - rows > 1 else n
        scores = Xc[start:stop] @ W
        scores += sq_z
        part = scores.argmin(axis=1, out=assign[start:stop])
        diff = X[start:stop] - centers[part]
        np.einsum("ij,ij->i", diff, diff, out=nearest[start:stop])
        start = stop
    return assign, nearest


def _repair_empty(assign, nearest, k):
    """Donate the farthest points (from clusters with spare members) to any
    empty clusters; n >= k guarantees enough donors."""
    counts = np.bincount(assign, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return assign
    assign = assign.copy()
    order = np.argsort(-nearest)
    cursor = 0
    for cluster in empty:
        while counts[assign[order[cursor]]] <= 1:
            cursor += 1
        donor = order[cursor]
        counts[assign[donor]] -= 1
        assign[donor] = cluster
        counts[cluster] += 1
        cursor += 1
    return assign


def _init_spread(X, k, rng):
    """Distance-weighted seeding: the first center is a uniform pick, each
    later one is drawn with probability proportional to the squared distance
    to the closest center picked so far.

    Each pick's distances take one matrix-vector product on mean-centred
    rows, ``|xc|^2 - 2 Xc @ xc_pick + |xc_pick|^2``. Entries at or below the
    expansion's rounding bound (the pick itself, its duplicates, and every
    negative result) are recomputed pairwise, so duplicates of a center
    weigh exactly 0. The draw inverts the same cumulative distribution as
    ``rng.choice(n, p=closest / total)`` and consumes the same random
    number, without re-validating p.
    """
    n, d = X.shape
    Xc = X - X.mean(axis=0)
    sq = np.einsum("ij,ij->i", Xc, Xc)
    # Bound on the expansion's rounding error, as in kernels.kernel_matrix.
    rounding = (d + 2) * np.finfo(np.float64).eps
    top = sq.max()

    def distances_to(pick):
        dist = Xc @ (-2.0 * Xc[pick])
        dist += sq
        dist += sq[pick]
        near = np.flatnonzero(dist <= rounding * (top + sq[pick]))
        dist[near] = np.sum((X[near] - X[pick]) ** 2, axis=1)
        return dist

    centers = np.empty((k, d))
    pick = int(rng.integers(n))
    centers[0] = X[pick]
    closest = distances_to(pick)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            cdf = np.cumsum(closest / total)
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        centers[i] = X[pick]
        np.minimum(closest, distances_to(pick), out=closest)
    return centers
