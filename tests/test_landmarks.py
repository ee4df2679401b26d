"""Tests for landmark selection: uniform sampling and Lloyd k-means."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from gnystrom import (
    InputError,
    KMeansConfig,
    LandmarkSet,
    make_blobs,
    make_two_moons,
    select_kmeans,
    select_random,
)
from gnystrom.landmarks import (_LLOYD_MAX_ITERS, _LLOYD_TOL, _assign, _init_spread,
                                _repair_empty, lloyd_iterations)


def _sorted_rows(A):
    A = np.asarray(A)
    return A[np.lexsort(A.T[::-1])]


# ---------------------------------------------------------------------------
# select_random


def test_select_random_all_rows_is_permutation():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 2))
    lm = select_random(X, 7, seed=3)
    assert_allclose(_sorted_rows(lm.points), _sorted_rows(X))


def test_select_random_single_row():
    X = np.array([[1.5, -2.0]])
    lm = select_random(X, 1, seed=0)
    assert_allclose(lm.points, X)
    assert lm.m == 1


def test_select_random_deterministic():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    a = select_random(X, 5, seed=42)
    b = select_random(X, 5, seed=42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.source_indices, b.source_indices)


def test_select_random_rows_come_from_x():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 4))
    lm = select_random(X, 6, seed=9)
    assert np.array_equal(lm.points, X[lm.source_indices])
    assert len(set(lm.source_indices.tolist())) == 6


def test_select_random_m_too_large():
    with pytest.raises(InputError):
        select_random(np.zeros((3, 1)), 4, seed=0)


def test_select_random_m_nonpositive():
    with pytest.raises(InputError):
        select_random(np.zeros((3, 1)), 0, seed=0)


# ---------------------------------------------------------------------------
# select_kmeans


def test_kmeans_two_singletons():
    X = np.array([[0.0, 0.0], [10.0, 10.0]])
    lm = select_kmeans(X, KMeansConfig(k=2, seed=0))
    assert_allclose(_sorted_rows(lm.points), _sorted_rows(X), atol=1e-12)


def test_kmeans_two_duplicate_pairs():
    X = np.array([[0.0], [0.0], [10.0], [10.0]])
    lm = select_kmeans(X, KMeansConfig(k=2, seed=1))
    assert_allclose(_sorted_rows(lm.points), [[0.0], [10.0]], atol=1e-12)


def test_kmeans_single_cluster_is_centroid():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 3))
    lm = select_kmeans(X, KMeansConfig(k=1, seed=0))
    assert_allclose(lm.points, X.mean(axis=0, keepdims=True), atol=1e-12)


def test_kmeans_output_shape_and_finite():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 2))
    for k in (1, 3, 7):
        lm = select_kmeans(X, KMeansConfig(k=k, seed=5))
        assert lm.points.shape == (k, 2)
        assert np.all(np.isfinite(lm.points))


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    cfg = KMeansConfig(k=6, seed=11)
    a = select_kmeans(X, cfg)
    b = select_kmeans(X, cfg)
    assert np.array_equal(a.points, b.points)


def test_kmeans_commutes_with_translation():
    # The stop rule scales with the spread, not with max|X|: at an offset of
    # 1e6 a max|X|-scaled threshold is about one unit and stops Lloyd after
    # its first pass.
    X = make_two_moons(400, noise=0.1, seed=3).X
    cfg = KMeansConfig(k=25, seed=0)
    shifted = select_kmeans(X + 1e6, cfg)
    assert_allclose(shifted.points, select_kmeans(X, cfg).points + 1e6, rtol=1e-9)


def test_kmeans_k_too_large():
    with pytest.raises(InputError):
        select_kmeans(np.zeros((2, 1)), KMeansConfig(k=3, seed=0))


def test_kmeans_config_validation():
    with pytest.raises(InputError):
        KMeansConfig(k=0)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_kmeans_config_rejects_non_integer_k(k):
    """A fractional k was accepted and failed in select_kmeans with a raw
    TypeError."""
    with pytest.raises(InputError, match="k must be of integer type"):
        KMeansConfig(k=k)


@pytest.mark.parametrize("m", [2.5, 2.0, True])
def test_select_random_rejects_non_integer_m(m):
    with pytest.raises(InputError, match="m must be of integer type"):
        select_random(np.zeros((5, 1)), m, seed=0)


# ---------------------------------------------------------------------------
# lloyd_iterations


def test_lloyd_objective_nonincreasing():
    rng = np.random.default_rng(7)
    for trial in range(10):
        X = rng.normal(size=(60, 2))
        centers = X[rng.choice(60, size=5, replace=False)]
        _, trace = lloyd_iterations(X, centers, max_iters=50, tol=0.0)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10 * (1.0 + np.abs(trace[:-1])))


def test_lloyd_repairs_empty_clusters():
    # Both initial centers sit close to the left points, so the far center
    # at 100 collects nothing on the first assignment and must be reseeded.
    X = np.array([[0.0], [1.0], [2.0]])
    centers = np.array([[0.5], [100.0]])
    out, trace = lloyd_iterations(X, centers, max_iters=20, tol=1e-8)
    assert out.shape == (2, 1)
    assert np.all(np.isfinite(out))
    assert len(trace) >= 1


def test_lloyd_fixed_point_stays_put():
    X = np.array([[0.0], [0.0], [10.0], [10.0]])
    centers = np.array([[0.0], [10.0]])
    out, _ = lloyd_iterations(X, centers, max_iters=10, tol=1e-9)
    assert_allclose(_sorted_rows(out), [[0.0], [10.0]], atol=1e-12)

    # The error can only be seen to stall one assignment after the centers
    # stop moving; that assignment must hand back the same centers.
    X = make_blobs(3000, 10, seed=8).X
    start = _init_spread(X, 60, np.random.default_rng(0))
    fixed, trace = lloyd_iterations(X, start, _LLOYD_MAX_ITERS, 0.0)
    assert len(trace) < _LLOYD_MAX_ITERS and trace[-1] == trace[-2]
    again, again_trace = lloyd_iterations(X, fixed, _LLOYD_MAX_ITERS, _LLOYD_TOL)
    assert len(again_trace) == 2 and again_trace[0] == again_trace[1]
    assert np.array_equal(again, fixed)


def test_lloyd_stops_once_the_error_stalls():
    # Stopping on the relative decrease of the quantization error, not on
    # the centers' last creeping moves, ends these four runs in 96 Lloyd
    # iterations at an error within 3e-4 of running until it stops falling.
    X = make_blobs(8000, 20, n_classes=4, separation=3.0, seed=9).X
    mean = X.mean(axis=0)
    iterations = 0
    for seed in range(4):
        start = _init_spread(X, 200, np.random.default_rng(seed))
        centers, trace = lloyd_iterations(X, start, _LLOYD_MAX_ITERS, _LLOYD_TOL)
        stalled, _ = lloyd_iterations(X, start, _LLOYD_MAX_ITERS, 0.0)
        iterations += len(trace)
        error = _assign(X, X - mean, mean, centers)[1].sum()
        floor = _assign(X, X - mean, mean, stalled)[1].sum()
        assert error <= floor * (1 + 1e-3)
    assert iterations <= 100


def _reference_lloyd(X, centers, max_iters, tol):
    """Plain Lloyd: exact distances from cdist, centers summed with np.add.at,
    stopped once an assignment lowers the objective by at most ``tol`` of its
    previous value."""
    previous = None
    for _ in range(max_iters):
        d2 = cdist(X, centers, "sqeuclidean")
        assign = d2.argmin(axis=1)
        nearest = d2[np.arange(len(X)), assign]
        objective = nearest.sum()
        assign = _repair_empty(assign, nearest, len(centers))
        new_centers = np.zeros_like(centers)
        np.add.at(new_centers, assign, X)
        new_centers /= np.bincount(assign, minlength=len(centers))[:, None]
        centers = new_centers
        if previous is not None and previous - objective <= tol * previous:
            break
        previous = objective
    return centers


def _reference_spread(X, k, rng):
    """Distance-weighted seeding with pairwise distances and ``rng.choice``."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centers[i] = X[pick]
        closest = np.minimum(closest, np.sum((X - centers[i]) ** 2, axis=1))
    return centers


@pytest.mark.parametrize("X, k", [
    (make_two_moons(400, noise=0.1, seed=3).X, 25),
    (make_blobs(3000, 10, seed=8).X, 60),
    (make_blobs(8000, 20, n_classes=4, separation=3.0, seed=9).X, 200),
    (np.array([[0.0], [0.0], [10.0], [10.0]]), 3),
    # More centers than distinct rows: duplicates of a center must weigh
    # exactly 0, so the uniform fallback fires as in the reference.
    (np.repeat(1e3 + np.random.default_rng(2).normal(size=(4, 3)), 2, axis=0), 6),
])
def test_spread_seeding_matches_reference_exactly(X, k):
    for seed in (0, 1):
        expected = _reference_spread(X, k, np.random.default_rng(seed))
        assert np.array_equal(_init_spread(X, k, np.random.default_rng(seed)), expected)


@pytest.mark.parametrize("X, k", [
    (make_two_moons(400, noise=0.1, seed=3).X, 25),
    (make_blobs(3000, 10, seed=8).X, 60),
])
def test_kmeans_matches_reference_lloyd_exactly(X, k):
    cfg = KMeansConfig(k=k, seed=0)
    start = _init_spread(X, k, np.random.default_rng(cfg.seed))
    reference = _reference_lloyd(X, start, _LLOYD_MAX_ITERS, _LLOYD_TOL)
    assert np.array_equal(select_kmeans(X, cfg).points, reference)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 60), d=st.integers(1, 5),
       k=st.integers(1, 8), scale=st.sampled_from((1e-3, 1.0, 100.0)),
       offset=st.sampled_from((0.0, 1e3, 1e6)))
def test_assignment_matches_cdist_and_trace_never_rises(seed, n, d, k, scale, offset):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    X = offset + scale * rng.normal(size=(n, d))
    centers = X[rng.choice(n, size=k, replace=False)] + 0.3 * scale * rng.normal(size=(k, d))

    mean = X.mean(axis=0)
    assign, nearest = _assign(X, X - mean, mean, centers)
    d2 = cdist(X, centers, "sqeuclidean")
    assert_allclose(nearest, d2[np.arange(n), assign], rtol=1e-12, atol=0)
    # Where the two nearest centers are not within rounding of a tie, the
    # expansion must pick the exact nearest one.
    two = np.sort(np.hstack([d2, np.full((n, 1), np.inf)]), axis=1)[:, :2]
    size = np.sum((X - mean) ** 2, axis=1) + np.max(np.sum((centers - mean) ** 2, axis=1))
    clear = two[:, 1] - two[:, 0] > 1e-9 * size
    assert np.array_equal(assign[clear], d2.argmin(axis=1)[clear])

    _, trace = lloyd_iterations(X, centers, max_iters=30, tol=0.0)
    trace = np.array(trace)
    assert np.all(np.diff(trace) <= 1e-9 * (trace[:-1] + scale**2))


def _one_shot_assign(X, Xc, mean, centers):
    """The assignment step as one n x k product over all rows."""
    Zc = centers - mean
    scores = Xc @ (-2.0 * Zc).T
    scores += np.einsum("ij,ij->i", Zc, Zc)
    assign = scores.argmin(axis=1)
    diff = X - centers[assign]
    return assign, np.einsum("ij,ij->i", diff, diff)


# With k = 200 a block holds 327 rows: n = 300 is one block, 327 exactly
# one, 328 one block with the lone last row joined to it, 330 and 8000 a
# short last block.
@pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (300, 200), (327, 200), (328, 200),
                                  (330, 200), (8000, 200), (3001, 60), (400, 25)])
def test_blocked_assignment_matches_one_shot_product(n, k):
    X = make_blobs(8000, 20, n_classes=4, separation=3.0, seed=9).X[:n] + 1e3
    rng = np.random.default_rng(n + k)
    centers = X[rng.choice(n, size=k, replace=False)] + 0.3 * rng.normal(size=(k, 20))
    mean = X.mean(axis=0)
    assign, nearest = _assign(X, X - mean, mean, centers)
    expected_assign, expected_nearest = _one_shot_assign(X, X - mean, mean, centers)
    assert np.array_equal(assign, expected_assign)
    assert np.array_equal(nearest, expected_nearest)


def test_kmeans_memory_stays_below_the_score_matrix():
    # One n x k score matrix is 12.8 MB here; the blocked assignment holds
    # one block of scores, besides an n x d copy of X and length-n vectors.
    n, k = 8000, 200
    X = make_blobs(n, 20, n_classes=4, separation=3.0, seed=9).X
    tracemalloc.start()
    try:
        select_kmeans(X, KMeansConfig(k=k, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8 / 4


# ---------------------------------------------------------------------------
# LandmarkSet


def test_landmark_set_validation():
    with pytest.raises(InputError):
        LandmarkSet(points=np.empty((0, 2)), method="random", seed=0)
    with pytest.raises(InputError):
        LandmarkSet(points=np.array([[np.nan]]), method="kmeans", seed=0)
    with pytest.raises(InputError):
        LandmarkSet(points=np.ones((2, 2)), method="other", seed=0)

