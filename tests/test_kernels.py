"""Tests for kernel evaluation, the bandwidth heuristic, ideal-kernel
construction, double-centering, and the normalized alignment score."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist

from gnystrom import (
    DegenerateBandwidthError,
    InputError,
    KernelParams,
    LabelVector,
    UndefinedAlignmentError,
    bandwidth_heuristic,
    double_center,
    ideal_kernel,
    kernel_matrix,
    nka_score,
    rbf_kernel,
)
from gnystrom.kernels import _rbf_block


# ---------------------------------------------------------------------------
# KernelParams / LabelVector


def test_kernel_params_requires_positive_bandwidth():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            KernelParams(bandwidth=bad)


def test_label_vector_validates_indices():
    with pytest.raises(InputError):
        LabelVector(indices=[0, 0], labels=[1, 2])  # duplicate
    with pytest.raises(InputError):
        LabelVector(indices=[-1], labels=[1])  # negative
    with pytest.raises(InputError):
        LabelVector(indices=[0, 1], labels=[1])  # length mismatch
    lv = LabelVector(indices=[3, 1], labels=["a", "b"])
    assert len(lv) == 2


# ---------------------------------------------------------------------------
# rbf_kernel


def test_rbf_kernel_zero_distance_is_one():
    p = KernelParams(bandwidth=1.0)
    for d in (1, 2, 5):
        x = np.arange(d, dtype=float)
        assert rbf_kernel(x, x, p) == 1.0


def test_rbf_kernel_hand_values():
    assert_allclose(rbf_kernel([0.0], [2.0], KernelParams(bandwidth=4.0)),
                    np.exp(-1.0), rtol=1e-12)
    assert_allclose(rbf_kernel([0.0, 0.0], [3.0, 4.0], KernelParams(bandwidth=25.0)),
                    np.exp(-1.0), rtol=1e-12)


def test_rbf_kernel_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    p = KernelParams(bandwidth=2.5)
    for _ in range(50):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        kxy = rbf_kernel(x, y, p)
        assert kxy == rbf_kernel(y, x, p)
        assert 0.0 < kxy <= 1.0


def test_rbf_kernel_dimension_mismatch():
    with pytest.raises(InputError):
        rbf_kernel([0.0], [0.0, 1.0], KernelParams(bandwidth=1.0))


# ---------------------------------------------------------------------------
# kernel_matrix


def test_kernel_matrix_single_point():
    K = kernel_matrix([[0.5]], [[0.5]], KernelParams(bandwidth=1.0))
    assert_allclose(K, [[1.0]])


def test_kernel_matrix_two_point_hand_case():
    A = [[0.0], [2.0]]
    K = kernel_matrix(A, A, KernelParams(bandwidth=4.0))
    e = np.exp(-1.0)
    assert_allclose(K, [[1.0, e], [e, 1.0]], rtol=1e-12)


def test_kernel_matrix_rectangular_hand_case():
    K = kernel_matrix([[0.0]], [[0.0], [1.0]], KernelParams(bandwidth=1.0))
    assert_allclose(K, [[1.0, np.exp(-1.0)]], rtol=1e-12)


def test_kernel_matrix_same_input_symmetric_unit_diagonal():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 4))
    K = kernel_matrix(X, X, KernelParams(bandwidth=3.0))
    assert np.array_equal(K, K.T)
    assert_allclose(np.diag(K), np.ones(20))


def test_kernel_matrix_matches_entrywise_evaluation():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(6, 3))
    B = rng.normal(size=(4, 3))
    p = KernelParams(bandwidth=1.7)
    K = kernel_matrix(A, B, p)
    expected = np.array([[rbf_kernel(a, b, p) for b in B] for a in A])
    assert_allclose(K, expected, rtol=1e-12)


def test_kernel_matrix_is_psd():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(15, 2))
    K = kernel_matrix(X, X, KernelParams(bandwidth=2.0))
    vals = np.linalg.eigvalsh(K)
    assert vals.min() >= -1e-8 * np.linalg.norm(K)


def test_kernel_matrix_dimension_mismatch():
    with pytest.raises(InputError):
        kernel_matrix([[0.0, 1.0]], [[0.0]], KernelParams(bandwidth=1.0))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30), m=st.integers(1, 12),
       d=st.integers(1, 20), scale=st.sampled_from((1e-3, 1.0, 100.0)),
       offset=st.sampled_from((0.0, 1e3, 1e6)), width=st.floats(0.05, 20.0))
def test_rbf_block_matches_kernel_matrix(seed, n, m, d, scale, offset, width):
    rng = np.random.default_rng(seed)
    Z = offset + scale * rng.normal(size=(m, d))
    X = offset + scale * rng.normal(size=(n, d))
    # The first rows coincide with landmarks: their kernel value is exactly 1.
    hits = rng.integers(0, m, size=min(n, m))
    X[:hits.size] = Z[hits]
    params = KernelParams(bandwidth=width * d * scale**2)
    block = _rbf_block(X, Z, params.bandwidth)
    assert_allclose(block, kernel_matrix(X, Z, params), rtol=0, atol=1e-13)
    assert np.all(block[np.arange(hits.size), hits] == 1.0)



@pytest.mark.parametrize("scale, bandwidth", [(1e200, 1.0), (1.0, 1e-310)])
def test_rbf_block_overflow_goes_pairwise_without_warnings(scale, bandwidth):
    # Terms of the expansion overflow to inf or nan; those rows are
    # recomputed pairwise, and nothing warns.
    Z = scale * np.array([[1.0, 0.0], [-1.0, 1.0], [0.5, 0.5]])
    X = np.vstack([Z[:1], scale * np.array([[0.0, 0.0], [0.25, -1.0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = _rbf_block(X, Z, bandwidth)
    with np.errstate(over="ignore"):
        expected = kernel_matrix(X, Z, KernelParams(bandwidth=bandwidth))
    assert np.array_equal(block, expected)
    assert block[0, 0] == 1.0


# ---------------------------------------------------------------------------
# bandwidth_heuristic


def test_bandwidth_single_pair():
    assert_allclose(bandwidth_heuristic(np.array([[0.0], [2.0]])), 4.0)


def test_bandwidth_three_points():
    X = np.array([[0.0], [1.0], [2.0]])
    assert_allclose(bandwidth_heuristic(X), 2.0)  # (1 + 4 + 1) / 3


def test_bandwidth_matches_explicit_pair_average():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(17, 3))
    total, count = 0.0, 0
    for i in range(17):
        for j in range(i + 1, 17):
            total += float(np.sum((X[i] - X[j]) ** 2))
            count += 1
    assert_allclose(bandwidth_heuristic(X), total / count, rtol=1e-12)


def test_bandwidth_identical_points_degenerate():
    with pytest.raises(DegenerateBandwidthError):
        bandwidth_heuristic(np.array([[5.0], [5.0]]))


def test_bandwidth_single_point_rejected():
    with pytest.raises(InputError):
        bandwidth_heuristic(np.array([[1.0]]))


def test_bandwidth_translation_invariant():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    b0 = bandwidth_heuristic(X)
    b1 = bandwidth_heuristic(X + 1234.5)
    assert abs(b1 - b0) < 1e-9 * b0


def test_bandwidth_matches_pdist_mean_at_n_2500():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(2500, 3))
    assert_allclose(bandwidth_heuristic(X), pdist(X, "sqeuclidean").mean(), rtol=1e-12)


def test_bandwidth_memory_is_linear_in_n():
    # The exact mean needs at most one n x d temporary at any n.
    X = np.random.default_rng(7).normal(size=(3000, 8))
    tracemalloc.start()
    try:
        bandwidth_heuristic(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * X.nbytes


# ---------------------------------------------------------------------------
# ideal_kernel


def test_ideal_kernel_two_classes():
    lv = LabelVector(indices=[0, 1, 2], labels=["a", "a", "b"])
    assert_allclose(ideal_kernel(lv), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_ideal_kernel_single_label():
    lv = LabelVector(indices=[0], labels=["a"])
    assert_allclose(ideal_kernel(lv), [[1.0]])


def test_ideal_kernel_all_distinct_is_identity():
    lv = LabelVector(indices=[0, 1, 2], labels=["a", "b", "c"])
    assert_allclose(ideal_kernel(lv), np.eye(3))


def test_ideal_kernel_empty_rejected():
    with pytest.raises(InputError):
        ideal_kernel(LabelVector(indices=[], labels=[]))


def test_ideal_kernel_properties():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=12)
    K = ideal_kernel(LabelVector(indices=np.arange(12), labels=labels))
    assert np.array_equal(K, K.T)
    assert np.all((K == 0) | (K == 1))
    assert np.all(np.diag(K) == 1)


# ---------------------------------------------------------------------------
# double_center


def test_double_center_constant_matrix_to_zero():
    assert_allclose(double_center(np.ones((4, 4))), np.zeros((4, 4)), atol=1e-15)


def test_double_center_identity_2x2():
    assert_allclose(double_center(np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_double_center_zeroes_row_and_column_sums():
    rng = np.random.default_rng(8)
    for _ in range(10):
        K = rng.normal(size=(6, 6))
        C = double_center(K)
        assert_allclose(C.sum(axis=0), np.zeros(6), atol=1e-10)
        assert_allclose(C.sum(axis=1), np.zeros(6), atol=1e-10)


def test_double_center_matches_projection_conjugation():
    """Independent path: conjugate by H = I - ones/q explicitly."""
    rng = np.random.default_rng(9)
    for q in (2, 3, 5):
        K = rng.normal(size=(q, q))
        H = np.eye(q) - np.ones((q, q)) / q
        assert_allclose(double_center(K), H @ K @ H, atol=1e-12)


def test_double_center_idempotent():
    rng = np.random.default_rng(10)
    K = rng.normal(size=(5, 5))
    once = double_center(K)
    assert_allclose(double_center(once), once, atol=1e-10)


def test_double_center_rejects_nonsquare():
    with pytest.raises(InputError):
        double_center(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# nka_score


def test_nka_self_alignment_is_one():
    rng = np.random.default_rng(11)
    K = rng.normal(size=(4, 4))
    K = K + K.T
    assert_allclose(nka_score(K, K), 1.0, atol=1e-12)


def test_nka_scale_invariance():
    rng = np.random.default_rng(12)
    K = rng.normal(size=(5, 5))
    Kp = rng.normal(size=(5, 5))
    base = nka_score(K, Kp)
    for a in (1e-3, 1.0, 1e3):
        assert abs(nka_score(a * K, Kp) - base) < 1e-10
        assert abs(nka_score(K, a * Kp) - base) < 1e-10


def test_nka_matches_brute_force_cosine():
    """Independent oracle: center via explicit H-conjugation, then take the
    Frobenius cosine by hand."""
    rng = np.random.default_rng(13)
    for q in (3, 4, 6):
        K = rng.normal(size=(q, q))
        Kp = rng.normal(size=(q, q))
        H = np.eye(q) - np.ones((q, q)) / q
        Kc = H @ K @ H
        Kpc = H @ Kp @ H
        expected = np.sum(Kc * Kpc) / (np.linalg.norm(Kc) * np.linalg.norm(Kpc))
        assert_allclose(nka_score(K, Kp), expected, atol=1e-12)


def test_nka_bounded_by_one():
    rng = np.random.default_rng(14)
    for _ in range(25):
        K = rng.normal(size=(4, 4))
        Kp = rng.normal(size=(4, 4))
        assert abs(nka_score(K, Kp)) <= 1.0


def test_nka_constant_matrix_undefined():
    K = np.ones((3, 3))
    other = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(UndefinedAlignmentError):
        nka_score(K, other)
    with pytest.raises(UndefinedAlignmentError):
        nka_score(other, K)


def test_nka_shape_mismatch_rejected():
    with pytest.raises(InputError):
        nka_score(np.eye(2), np.eye(3))
    with pytest.raises(InputError):
        nka_score(np.ones((2, 3)), np.ones((2, 3)))
