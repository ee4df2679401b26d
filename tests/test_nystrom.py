"""Tests for the low-rank core: kernel blocks, the pseudo-inverse prior
and its factor, entry reconstruction, and the error bound."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from gnystrom import (
    InputError,
    KernelParams,
    NystromCore,
    build_core,
    extrapolation_bound,
    kernel_matrix,
    rbf_lipschitz_constant,
    reconstruct_entry,
    select_random,
)


def _random_core(rng, n, m, d=3, bandwidth=4.0):
    X = rng.normal(size=(n, d))
    Z = select_random(X, m, seed=int(rng.integers(1 << 31)))
    core = build_core(X, Z, KernelParams(bandwidth=bandwidth))
    return X, Z, core


# ---------------------------------------------------------------------------
# build_core


def test_build_core_single_point():
    core = build_core([[0.0]], [[0.0]], KernelParams(bandwidth=1.0))
    assert_allclose(core.E, [[1.0]])
    assert_allclose(core.W, [[1.0]])
    assert_allclose(core.S0, [[1.0]])
    assert core.pinv_rank == 1


def test_build_core_distant_landmarks_identity():
    # exp(-1e6) underflows to zero, so W is exactly the identity.
    Z = np.array([[0.0], [1000.0]])
    core = build_core(Z, Z, KernelParams(bandwidth=1.0))
    assert np.array_equal(core.W, np.eye(2))
    assert_allclose(core.S0, np.eye(2), atol=1e-12)


def test_build_core_matches_svd_pseudo_inverse():
    """Independent oracle: numpy's SVD-based pinv on the landmark block."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 1))
    Z = rng.normal(size=(2, 1))
    core = build_core(X, Z, KernelParams(bandwidth=2.0))
    W = kernel_matrix(Z, Z, KernelParams(bandwidth=2.0))
    recon = core.E @ core.S0 @ core.E.T
    expected = core.E @ np.linalg.pinv(W) @ core.E.T
    assert_allclose(recon, expected, atol=1e-10)


def test_build_core_pseudo_inverse_identity():
    rng = np.random.default_rng(1)
    _, _, core = _random_core(rng, n=20, m=6)
    assert core.pinv_rank == 6
    assert np.linalg.norm(core.W @ core.S0 @ core.W - core.W) <= 1e-8 * np.linalg.norm(core.W)


def test_build_core_s0_symmetric_psd():
    rng = np.random.default_rng(2)
    for _ in range(5):
        _, _, core = _random_core(rng, n=15, m=5)
        assert np.array_equal(core.S0, core.S0.T)
        vals = np.linalg.eigvalsh(core.S0)
        assert vals.min() >= -1e-8 * max(vals.max(), 1.0)


def test_build_core_drops_tiny_eigenvalues():
    # Two landmarks 1e-9 apart make W singular in float64; the cutoff must
    # drop the weak direction and record the reduced rank.
    Z = np.array([[0.0], [1e-9]])
    core = build_core(Z, Z, KernelParams(bandwidth=1.0))
    assert core.pinv_rank == 1


def test_build_core_input_validation():
    p = KernelParams(bandwidth=1.0)
    with pytest.raises(InputError):
        build_core([[0.0, 1.0]], [[0.0]], p)  # feature mismatch


def test_nystrom_core_shape_validation():
    E, W = np.ones((3, 2)), np.eye(2)
    with pytest.raises(InputError):
        NystromCore(E=E, W=np.ones((3, 3)), R=np.eye(2))
    for R in (np.ones(2), np.ones((1, 2, 2)), np.ones((3, 2)), np.ones((2, 3))):
        with pytest.raises(InputError, match="R must be"):
            NystromCore(E=E, W=W, R=R)


def test_nystrom_core_prior_is_its_factor_gram():
    R = np.array([[2.0, 0.0], [1.0, 3.0], [0.5, -1.0]])
    core = NystromCore(E=np.ones((4, 3)), W=np.eye(3), R=R)
    assert core.pinv_rank == 2
    assert np.array_equal(core.S0, core.S0.T)
    assert_allclose(core.S0, R @ R.T, rtol=1e-15)
    assert NystromCore(E=np.ones((4, 3)), W=np.eye(3), R=np.empty((3, 0))).pinv_rank == 0


def test_reconstruction_rank_bounded_by_m():
    rng = np.random.default_rng(3)
    X, _, core = _random_core(rng, n=25, m=4)
    recon = core.E @ core.S0 @ core.E.T
    svals = np.linalg.svd(recon, compute_uv=False)
    assert np.sum(svals > 1e-10 * svals.max()) <= 4


def test_reconstruction_symmetric_psd():
    rng = np.random.default_rng(4)
    X, _, core = _random_core(rng, n=18, m=6)
    recon = core.E @ core.S0 @ core.E.T
    assert_allclose(recon, recon.T, atol=1e-12)
    vals = np.linalg.eigvalsh(recon)
    assert vals.min() >= -1e-8 * np.trace(recon)


def test_exactness_when_landmarks_are_samples():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 3))
    p = KernelParams(bandwidth=5.0)
    core = build_core(X, X, p)
    K = kernel_matrix(X, X, p)
    recon = core.E @ core.S0 @ core.E.T
    assert np.linalg.norm(recon - K) / np.linalg.norm(K) < 1e-6


# ---------------------------------------------------------------------------
# reconstruct_entry


def test_reconstruct_entry_exact_at_landmarks():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5, 2))
    p = KernelParams(bandwidth=3.0)
    core = build_core(X, X, p)  # every sample is a landmark
    for i in range(5):
        for j in range(5):
            assert abs(reconstruct_entry(core, i, j) - core.W[i, j]) < 1e-8


def test_reconstruct_entry_matches_dense_path():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(4, 2))
    Z = rng.normal(size=(2, 2))
    p = KernelParams(bandwidth=2.0)
    core = build_core(X, Z, p)
    dense = core.E @ np.linalg.pinv(core.W) @ core.E.T
    for i in range(4):
        for j in range(4):
            assert abs(reconstruct_entry(core, i, j) - dense[i, j]) < 1e-10


def test_reconstruct_entry_index_checks():
    core = build_core([[0.0], [1.0]], [[0.5]], KernelParams(bandwidth=1.0))
    with pytest.raises(InputError):
        reconstruct_entry(core, 2, 0)
    with pytest.raises(InputError):
        reconstruct_entry(core, 0, -1)
    with pytest.raises(InputError, match="index i=2 out of range for 2 samples"):
        reconstruct_entry(core, 2, 0)
    # A float index raised a bare IndexError and a bool a TypeError; a float
    # index reached extrapolation_bound's indexing the same way.
    for i, j in ((1.5, 0), (True, 0), (0, 1.0), (0, np.float64(1.0))):
        with pytest.raises(InputError, match="must be of integer type"):
            reconstruct_entry(core, i, j)
    with pytest.raises(InputError, match="index i must be of integer type"):
        extrapolation_bound(core, [[0.0], [1.0]], [[0.5]], KernelParams(bandwidth=1.0),
                            1.0, 2.0, 1)
    assert reconstruct_entry(core, np.int64(1), 0) == reconstruct_entry(core, 1, 0)


# ---------------------------------------------------------------------------
# the prior's factor R


def test_eigensystem_orthonormal_descending():
    # R = U diag(1 / sqrt(w)): orthogonal columns whose squared norms, the
    # eigenvalues 1 / w of S0, are positive and descending.
    rng = np.random.default_rng(8)
    _, _, core = _random_core(rng, n=10, m=6)
    gram = core.R.T @ core.R
    norms = np.diag(gram)
    assert_allclose(gram, np.diag(norms), atol=1e-12 * norms.max())
    assert np.all(norms > 0)
    assert np.all(np.diff(norms) <= 0)


def test_eigensystem_reconstructs_w():
    # R whitens W on the retained subspace: R.T W R = I.
    rng = np.random.default_rng(9)
    _, _, core = _random_core(rng, n=10, m=5)
    assert_allclose(core.R.T @ core.W @ core.R, np.eye(core.pinv_rank), atol=1e-8)


def test_eigensystem_keeps_the_pairs_the_prior_inverts():
    # The cutoff drops the weak direction of two landmarks 1e-9 apart; R
    # keeps the other pinv_rank pairs, and its Gram matrix is S0.
    Z = np.array([[0.0], [1e-9], [3.0]])
    core = build_core(Z, Z, KernelParams(bandwidth=1.0))
    assert core.pinv_rank == 2
    assert core.R.shape == (3, 2)
    vals, vecs = np.linalg.eigh(core.W)
    assert_allclose(np.abs(core.R), np.abs(vecs[:, 1:] / np.sqrt(vals[1:])),
                    atol=1e-12 * np.abs(core.R).max())
    assert np.array_equal(core.R @ core.R.T, core.S0)


def test_eigensystem_rejects_bad_values():
    for bad in (np.nan, np.inf):
        R = np.eye(2)
        R[1, 0] = bad
        with pytest.raises(InputError, match="R must be a finite"):
            NystromCore(E=np.ones((3, 2)), W=np.eye(2), R=R)


def test_extrapolation_at_landmarks_recovers_scaled_eigvecs():
    # The embedding k(x, Z) @ R at the landmarks is W R = U diag(sqrt(w)):
    # the eigenvectors of W scaled by the square roots of their
    # eigenvalues, whose Gram matrix is W again.
    rng = np.random.default_rng(10)
    X = rng.normal(size=(6, 2))
    Z = select_random(X, 4, seed=0)
    p = KernelParams(bandwidth=3.0)
    core = build_core(X, Z, p)
    phi = kernel_matrix(Z.points, Z.points, p) @ core.R
    vals, vecs = np.linalg.eigh(core.W)
    assert_allclose(np.abs(phi), np.abs(vecs * np.sqrt(vals)), atol=1e-8)
    assert_allclose(phi @ phi.T, core.W, atol=1e-10)


def test_extrapolation_matches_direct_summation():
    """Independent oracle: per-sample, per-column explicit sums of the
    embedding k(x, Z) @ R."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(5, 2))
    Z = rng.normal(size=(3, 2))
    p = KernelParams(bandwidth=2.0)
    core = build_core(X, Z, p)
    phi = core.E @ core.R
    for a in range(5):
        for i in range(core.pinv_rank):
            total = 0.0
            for j in range(3):
                diff = X[a] - Z[j]
                total += np.exp(-np.dot(diff, diff) / 2.0) * core.R[j, i]
            assert abs(phi[a, i] - total) < 1e-10


# ---------------------------------------------------------------------------
# extrapolation_bound


def test_bound_zero_at_landmarks():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(4, 2))
    p = KernelParams(bandwidth=6.0)
    core = build_core(X, X, p)
    eta = rbf_lipschitz_constant(X, X, p)
    check = extrapolation_bound(core, X, X, p, eta, 0, 2)
    assert check.rhs == 0.0
    assert check.lhs <= 1e-12


def test_bound_single_offset_sample():
    # First sample sits on a landmark, second does not: the bound reduces to
    # the single-distance term and still dominates.
    Z = np.array([[0.0], [2.0]])
    X = np.array([[0.0], [2.3]])
    p = KernelParams(bandwidth=4.0)
    core = build_core(X, Z, p)
    eta = rbf_lipschitz_constant(X, Z, p)
    check = extrapolation_bound(core, X, Z, p, eta, 0, 1)
    m = 2
    d_q = 0.3
    expected_rhs = np.sqrt(m) * eta * (m * d_q) * np.linalg.norm(core.S0)
    assert_allclose(check.rhs, expected_rhs, rtol=1e-12)
    assert check.lhs <= check.rhs + 1e-12


def test_bound_holds_on_random_instances():
    rng = np.random.default_rng(13)
    on_landmarks = 0
    for _ in range(100):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, min(n, 6) + 1))
        X = rng.normal(size=(n, 2))
        Z = select_random(X, m, seed=int(rng.integers(1 << 31)))
        p = KernelParams(bandwidth=float(rng.uniform(0.5, 8.0)))
        core = build_core(X, Z, p)
        eta = rbf_lipschitz_constant(X, Z, p)
        i, j = int(rng.integers(n)), int(rng.integers(n))
        check = extrapolation_bound(core, X, Z, p, eta, i, j)
        if check.rhs == 0.0:
            # Both samples sit on landmarks, where the reconstruction is
            # exact up to rounding.
            on_landmarks += 1
            assert check.lhs <= 1e-14
        else:
            assert check.lhs <= check.rhs + 1e-12
    assert on_landmarks > 0


def test_lipschitz_constant_equals_full_distance_maximum():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(700, 3)) * rng.uniform(0.1, 10.0, size=3)
    Z = X[rng.choice(700, 50, replace=False)] + 0.01
    p = KernelParams(bandwidth=2.5)
    pts = np.vstack([X, Z])
    assert rbf_lipschitz_constant(X, Z, p) == 2.0 * cdist(pts, pts).max() / 2.5


def test_lipschitz_constant_memory_stays_below_distance_matrix():
    # All (n + m)**2 distances at once would be about 75 MB here.
    n, m = 3000, 100
    rng = np.random.default_rng(15)
    X = rng.normal(size=(n, 4))
    tracemalloc.start()
    try:
        rbf_lipschitz_constant(X, X[:m], KernelParams(bandwidth=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n + m) ** 2 * 8 / 20


def test_bound_input_validation():
    Z = np.array([[0.0]])
    X = np.array([[0.0], [1.0]])
    p = KernelParams(bandwidth=1.0)
    core = build_core(X, Z, p)
    with pytest.raises(InputError):
        extrapolation_bound(core, X, Z, p, -1.0, 0, 1)
    with pytest.raises(InputError):
        extrapolation_bound(core, X, Z, p, 1.0, 0, 5)
