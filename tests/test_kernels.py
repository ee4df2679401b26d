"""Tests for kernel evaluation, the bandwidth heuristic, the label target,
double-centering, and the normalized alignment score."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist, pdist

from gnystrom import (
    DegenerateBandwidthError,
    InputError,
    KernelParams,
    LabelVector,
    SideInformation,
    UndefinedAlignmentError,
    bandwidth_heuristic,
    kernel_matrix,
    nka_score,
)
import gnystrom
from gnystrom.kernels import _centred_cosine, _double_center, _squared_distances, _unit_scaled


# ---------------------------------------------------------------------------
# KernelParams / LabelVector


def test_kernel_params_requires_positive_bandwidth():
    # "abc" raised a bare ValueError and True was accepted as 1.0.
    for bad in (0.0, -1.0, float("nan"), float("inf"), "abc", "1.0", True):
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
    expected = np.array([[np.exp(-np.sum((a - b) ** 2) / p.bandwidth) for b in B]
                         for a in A])
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


def _pairwise_kernel(X, Z, bandwidth):
    """The kernel with every squared distance taken pairwise by scipy."""
    return np.exp(cdist(X, Z, "sqeuclidean") / -bandwidth)


_SCALES = st.sampled_from((1e-3, 1.0, 100.0))
_OFFSETS = st.sampled_from((0.0, 1e3, 1e6))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30), m=st.integers(1, 12),
       d=st.integers(1, 20), scale=_SCALES, offset=_OFFSETS, width=st.floats(0.05, 20.0))
def test_kernel_matrix_matches_pairwise_kernel(seed, n, m, d, scale, offset, width):
    rng = np.random.default_rng(seed)
    Z = offset + scale * rng.normal(size=(m, d))
    X = offset + scale * rng.normal(size=(n, d))
    # The first rows coincide with landmarks: their kernel value is exactly 1.
    hits = rng.integers(0, m, size=min(n, m))
    X[:hits.size] = Z[hits]
    params = KernelParams(bandwidth=width * d * scale**2)
    block = kernel_matrix(X, Z, params)
    assert_allclose(block, _pairwise_kernel(X, Z, params.bandwidth), rtol=0, atol=1e-13)
    assert np.all(block[np.arange(hits.size), hits] == 1.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30), d=st.integers(1, 20),
       scale=_SCALES, offset=_OFFSETS, width=st.floats(0.05, 20.0))
def test_kernel_self_block_is_symmetric_with_unit_diagonal(seed, n, d, scale, offset, width):
    rng = np.random.default_rng(seed)
    X = offset + scale * rng.normal(size=(n, d))
    X[n // 2:] = X[:n - n // 2]  # repeated rows too
    K = kernel_matrix(X, X, KernelParams(bandwidth=width * d * scale**2))
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30), m=st.integers(1, 12),
       d=st.integers(1, 20), scale=_SCALES, offset=_OFFSETS)
def test_squared_distances_match_cdist_bit_for_bit(seed, n, m, d, scale, offset):
    rng = np.random.default_rng(seed)
    A = offset + scale * rng.normal(size=(n, d))
    B = offset + scale * rng.normal(size=(m, d))
    sq = _squared_distances(A, B)
    assert np.array_equal(sq, cdist(A, B, "sqeuclidean"))
    assert np.array_equal(np.sqrt(sq), cdist(A, B))


def test_squared_distances_row_blocks_match_cdist():
    # 5000 columns leave 13 rows per block: 40 rows take four blocks, the
    # last one short.
    rng = np.random.default_rng(4)
    A = rng.normal(size=(40, 3))
    B = rng.normal(size=(5000, 3))
    assert np.array_equal(_squared_distances(A, B), cdist(A, B, "sqeuclidean"))


@pytest.mark.parametrize("scale, bandwidth", [(1e200, 1.0), (1.0, 1e-310)])
def test_kernel_matrix_overflow_goes_pairwise_without_warnings(scale, bandwidth):
    # Terms of the expansion overflow to inf or nan; those rows are
    # recomputed pairwise, and nothing warns.
    Z = scale * np.array([[1.0, 0.0], [-1.0, 1.0], [0.5, 0.5]])
    X = np.vstack([Z[:1], scale * np.array([[0.0, 0.0], [0.25, -1.0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = kernel_matrix(X, Z, KernelParams(bandwidth=bandwidth))
    with np.errstate(over="ignore"):
        expected = _pairwise_kernel(X, Z, bandwidth)
    assert np.array_equal(block, expected)
    assert block[0, 0] == 1.0


def test_pipeline_does_not_import_scipy_spatial_or_linalg(tmp_path):
    """The whole pipeline, from landmarks through label and pair fits,
    selection, the classifier and a saved model, runs without scipy.linalg,
    whose import costs about 22 MiB of resident memory, or scipy.spatial,
    which imports it and costs about 9 MiB more."""
    script = f"""
import sys
import numpy as np
import gnystrom as gn
ds = gn.make_two_moons(60, noise=0.1, seed=0)
params = gn.KernelParams(bandwidth=gn.bandwidth_heuristic(ds.X))
Z = gn.select_kmeans(ds.X, gn.KMeansConfig(k=8, seed=0))
core = gn.build_core(ds.X, Z, params)
side = gn.SideInformation.from_labels(gn.sample_labeled(ds, 10, 1))
result = gn.fit(core, side, gn.LearnConfig(lam=0.1))
pairs = gn.SideInformation.from_constraints([(0, 1), (2, 3)], [(0, 2), (1, 4)])
gn.fit(core, pairs, gn.LearnConfig(lam=0.1))
gn.select_lambda(core, side, grid=(0.01, 1.0))
gn.factorize(result.state)
model = gn.InductiveModel.from_state(Z, params, result.state, lam=0.1)
G = gn.embed(model, ds.X)
gn.train_linear(G, ds.y).predict(G)
gn.save(model, {str(tmp_path / "model.gnys")!r})
gn.load({str(tmp_path / "model.gnys")!r})
gn.rbf_lipschitz_constant(ds.X, Z, params)
print("scipy.spatial" in sys.modules, "scipy.linalg" in sys.modules)
"""
    src = str(Path(gnystrom.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False False"


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
# the label target (SideInformation.from_labels(...).target)


def _label_target(lv):
    return SideInformation.from_labels(lv).target


def test_label_target_two_classes():
    lv = LabelVector(indices=[0, 1, 2], labels=["a", "a", "b"])
    assert_allclose(_label_target(lv), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_label_target_single_label():
    lv = LabelVector(indices=[0], labels=["a"])
    assert_allclose(_label_target(lv), [[1.0]])


def test_label_target_all_distinct_is_identity():
    lv = LabelVector(indices=[0, 1, 2], labels=["a", "b", "c"])
    assert_allclose(_label_target(lv), np.eye(3))


def test_label_target_properties():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=12)
    K = _label_target(LabelVector(indices=np.arange(12), labels=labels))
    assert np.array_equal(K, K.T)
    assert np.all((K == 0) | (K == 1))
    assert np.all(np.diag(K) == 1)


# ---------------------------------------------------------------------------
# _double_center


def test_double_center_constant_matrix_to_zero():
    assert_allclose(_double_center(np.ones((4, 4))), np.zeros((4, 4)), atol=1e-15)


def test_double_center_identity_2x2():
    assert_allclose(_double_center(np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_double_center_zeroes_row_and_column_sums():
    rng = np.random.default_rng(8)
    for _ in range(10):
        K = rng.normal(size=(6, 6))
        C = _double_center(K)
        assert_allclose(C.sum(axis=0), np.zeros(6), atol=1e-10)
        assert_allclose(C.sum(axis=1), np.zeros(6), atol=1e-10)


def test_double_center_matches_projection_conjugation():
    """Independent path: conjugate by H = I - ones/q explicitly."""
    rng = np.random.default_rng(9)
    for q in (2, 3, 5):
        K = rng.normal(size=(q, q))
        H = np.eye(q) - np.ones((q, q)) / q
        assert_allclose(_double_center(K), H @ K @ H, atol=1e-12)


def test_double_center_idempotent():
    rng = np.random.default_rng(10)
    K = rng.normal(size=(5, 5))
    once = _double_center(K)
    assert_allclose(_double_center(once), once, atol=1e-10)


def test_double_center_rejects_nonsquare():
    with pytest.raises(InputError):
        _double_center(np.ones((2, 3)))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nka_rejects_non_finite_operands(bad):
    K = np.diag([1.0, 2.0, 3.0])
    broken = K.copy()
    broken[0, 1] = bad
    with pytest.raises(InputError, match="non-finite"):
        nka_score(broken, K)
    with pytest.raises(InputError, match="non-finite"):
        nka_score(K, broken)


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-310])
def test_nka_extreme_scale_operands(scale):
    """The norms of 1e300 * I overflow and those of 1e-300 * I fall below
    the zero floor, yet I against any multiple of itself aligns at 1."""
    eye = np.eye(3)
    for K, Kp in ((scale * eye, eye), (eye, scale * eye), (scale * eye, scale * eye)):
        assert abs(nka_score(K, Kp) - 1.0) <= 4 * np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), q=st.integers(2, 8), k=st.integers(-900, 900))
def test_nka_invariant_under_power_of_two_scaling(seed, q, k):
    rng = np.random.default_rng(seed)
    K, Kp = rng.normal(size=(2, q, q))
    base = nka_score(K, Kp)
    assert nka_score(2.0**k * K, Kp) == base
    assert nka_score(K, 2.0**k * Kp) == base


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), q=st.integers(2, 8), spread=_SCALES)
def test_nka_ignores_row_and_column_offsets(seed, q, spread):
    """Adding u 1^T + 1 v^T to K leaves its centred form, and so the score,
    as it was, up to rounding."""
    rng = np.random.default_rng(seed)
    K, Kp = rng.normal(size=(2, q, q))
    u, v = spread * rng.normal(size=(2, q))
    shifted = K + u[:, None] + v[None, :]
    assert_allclose(nka_score(shifted, Kp), nka_score(K, Kp), rtol=0, atol=1e-10)
    assert_allclose(nka_score(Kp, shifted), nka_score(Kp, K), rtol=0, atol=1e-10)


def _inline_nka_score(K, Kp):
    """nka_score with every step in line, each operand unit-scaled, centred
    and normed where it is used."""
    K, Kp = _unit_scaled(K, "K"), _unit_scaled(Kp, "Kp")
    Kc, Kpc = _double_center(K), _double_center(Kp)
    return _centred_cosine(float(np.sum(Kc * Kpc)), float(np.linalg.norm(Kc)),
                           float(np.linalg.norm(Kpc)), float(np.linalg.norm(K)),
                           float(np.linalg.norm(Kp)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), q=st.integers(2, 30), spread=_SCALES)
def test_nka_from_prepared_operands_keeps_its_bits(seed, q, spread):
    """nka_score, composed from operands prepared one at a time (so that a
    shared one is prepared once), equals the in-line computation bit for
    bit."""
    rng = np.random.default_rng(seed)
    K, Kp = spread * rng.normal(size=(2, q, q))
    assert nka_score(K, Kp) == _inline_nka_score(K, Kp)
    assert nka_score(K @ K.T, Kp @ Kp.T) == _inline_nka_score(K @ K.T, Kp @ Kp.T)
