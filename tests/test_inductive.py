"""Tests for the deployable model: embedding, pairwise similarity, and the
binary save/load round trip."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from gnystrom import (
    InductiveModel,
    InputError,
    KMeansConfig,
    KernelParams,
    LabelVector,
    LearnConfig,
    ModelFormatError,
    SideInformation,
    bandwidth_heuristic,
    build_core,
    embed,
    factorize,
    fit,
    kernel_matrix,
    load,
    make_blobs,
    sample_labeled,
    save,
    select_kmeans,
    select_random,
    similarity,
    train_linear,
)

_HEADER_FMT = "<4sIIIId8sI"


def _fitted_model(seed=0, n=15, m=5, lam=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    Z = select_random(X, m, seed=seed)
    p = KernelParams(bandwidth=4.0)
    core = build_core(X, Z, p)
    labeled = LabelVector(indices=np.arange(6),
                          labels=rng.integers(0, 2, size=6))
    side = SideInformation.from_labels(labeled)
    result = fit(core, side, LearnConfig(lam=lam))
    model = InductiveModel.from_state(Z, p, result.state, lam=lam,
                                      report=result.report)
    return model, X, Z, core, p


def _prior_model(seed=1, n=10, m=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    Z = select_random(X, m, seed=seed)
    p = KernelParams(bandwidth=5.0)
    core = build_core(X, Z, p)
    model = InductiveModel.from_state(Z, p, core.S0)
    return model, X, Z, core, p


# ---------------------------------------------------------------------------
# construction


def test_model_invariants_validated():
    Z = np.zeros((2, 1))
    p = KernelParams(bandwidth=1.0)
    with pytest.raises(InputError):
        InductiveModel(landmarks=Z, kernel=p, L=np.array([[np.nan], [1.0]]))
    with pytest.raises(InputError):  # finite, but its triangular form overflows
        InductiveModel(landmarks=np.zeros((3, 1)), kernel=p, L=np.full((3, 3), 1.5e308))
    with pytest.raises(InputError):
        InductiveModel(landmarks=Z, kernel=p, L=np.eye(3))  # one row per landmark
    with pytest.raises(InputError):
        InductiveModel(landmarks=Z, kernel=p, L=np.ones((2, 3)))  # rank above m
    with pytest.raises(InputError):
        InductiveModel(landmarks=Z, kernel=p, L=np.eye(2), metadata=[])


def _counting_qr(monkeypatch):
    calls, real = [], np.linalg.qr

    def qr(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return calls


@pytest.mark.parametrize("r", [4, 2, 0])
def test_factor_in_cholesky_form_skips_the_qr(monkeypatch, r):
    """A lower-trapezoidal L with a nonnegative diagonal, as every Cholesky
    factor and every saved model holds, is kept as it is without a QR (which
    would leave it unchanged bit for bit); a general L takes the QR."""
    rng = np.random.default_rng(50)
    L = np.tril(rng.normal(size=(4, r)))
    L[np.arange(r), np.arange(r)] = np.abs(np.diagonal(L))
    if r > 1:
        L[1, 1] = 0.0
    calls = _counting_qr(monkeypatch)
    model = InductiveModel(landmarks=np.zeros((4, 1)), kernel=KernelParams(bandwidth=1.0), L=L)
    assert calls == []
    assert np.array_equal(model.L, L)
    monkeypatch.undo()
    assert np.array_equal(np.linalg.qr(L.T, mode="r").T, L)
    if r:
        flipped = L.copy()
        flipped[:, 0] *= -1.0
        calls = _counting_qr(monkeypatch)
        InductiveModel(landmarks=np.zeros((4, 1)), kernel=KernelParams(bandwidth=1.0),
                       L=flipped)
        assert len(calls) == 1


# Lower-triangular factors with a nonnegative diagonal (no QR) and general
# ones (QR), each non-finite or finite with a row norm past the largest
# double.
_HUGE = 1.5e308
_BAD_FACTORS = {
    "skip-nan": [[1.0, 0.0], [np.nan, 1.0]],
    "skip-inf": [[np.inf, 0.0], [0.0, 1.0]],
    "skip-row-norm-overflows": [[_HUGE, 0.0], [_HUGE, _HUGE]],
    "qr-nan": [[1.0, np.nan], [0.0, 1.0]],
    "qr-inf": [[-np.inf, 1.0], [0.0, 1.0]],
    "qr-row-norm-overflows": [[_HUGE, _HUGE], [0.0, 1.0]],
}


@pytest.mark.parametrize("name", list(_BAD_FACTORS))
def test_model_rejects_non_finite_factor_with_or_without_qr(monkeypatch, name):
    calls = _counting_qr(monkeypatch)
    with pytest.raises(InputError, match="finite"):
        InductiveModel(landmarks=np.zeros((2, 1)), kernel=KernelParams(bandwidth=1.0),
                       L=np.array(_BAD_FACTORS[name]))
    assert bool(calls) == name.startswith("qr")


@pytest.mark.parametrize("lam", [0.5, 1e-3, 1e3])
def test_model_from_fit_factor_embeds_like_factorize(lam):
    """from_state embeds through the factor the fit handed over, with the
    Gram matrix of embeddings that factorize's factor gives, to 1e-12."""
    rng = np.random.default_rng(51)
    X = rng.normal(size=(60, 3))
    Z = select_random(X, 12, seed=5)
    p = KernelParams(bandwidth=2.0)
    core = build_core(X, Z, p)
    labeled = LabelVector(indices=np.arange(20), labels=rng.integers(0, 3, size=20))
    state = fit(core, SideInformation.from_labels(labeled), LearnConfig(lam=lam)).state
    handed = embed(InductiveModel.from_state(Z, p, state), X)
    through_factorize = embed(InductiveModel.from_state(Z, p, state.S), X)
    gram = through_factorize @ through_factorize.T
    assert np.linalg.norm(handed @ handed.T - gram) <= 1e-12 * np.linalg.norm(gram)


def test_from_state_records_metadata():
    model, *_ = _fitted_model(lam=0.25)
    assert model.metadata["lambda"] == 0.25
    solver = model.metadata["solver"]
    assert solver["converged_by"] in ("grad_norm", "obj_rel", "max_iters")
    assert solver["final_objective"] >= 0.0
    assert model.rank <= model.m


# ---------------------------------------------------------------------------
# the factor


def _general_model(seed, m, r):
    """A model built from a dense, non-triangular m x r factor."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(m, 3))
    L = rng.normal(size=(m, r))
    return InductiveModel(landmarks=Z, kernel=KernelParams(bandwidth=4.0), L=L), L


@pytest.mark.parametrize("m, r", [(6, 6), (6, 3), (6, 1), (6, 0)])
def test_factor_is_lower_trapezoidal_with_nonnegative_diagonal(m, r):
    model, L = _general_model(seed=20 + r, m=m, r=r)
    T = model.L
    assert T.shape == (m, r)
    assert np.all(np.triu(T[:r], 1) == 0.0)
    assert np.all(np.diag(T) >= 0.0)
    gram = L @ L.T
    assert np.linalg.norm(T @ T.T - gram) <= 1e-12 * np.linalg.norm(gram)


def test_triangularizing_is_idempotent():
    model, *_ = _fitted_model(seed=22)
    again = InductiveModel(landmarks=model.landmarks, kernel=model.kernel, L=model.L)
    assert np.array_equal(again.L, model.L)


@pytest.mark.parametrize("r", [3, 0])
def test_rank_deficient_model_embeds_like_the_dense_product(r):
    model, _ = _general_model(seed=23, m=6, r=r)
    rng = np.random.default_rng(230)
    for n in (40, 1):  # one row makes K.T[:r] contiguous, so dtrmm works in place
        Xnew = rng.normal(size=(n, 3))
        expected = kernel_matrix(Xnew, model.landmarks, model.kernel) @ model.L
        atol = 1e-12 * (1.0 + np.linalg.norm(model.L))
        G = embed(model, Xnew)
        assert G.shape == (n, r)
        assert_allclose(G, expected, rtol=0, atol=atol)


def test_general_factor_file_loads_with_the_same_gram_and_round_trips(tmp_path):
    rng = np.random.default_rng(24)
    m, d, r = 6, 3, 4
    Z = rng.normal(size=(m, d))
    L = rng.normal(size=(m, r))
    meta = b"{}"
    raw = (struct.pack(_HEADER_FMT, b"GNYM", 2, m, d, r, 4.0, b"rbf".ljust(8, b"\0"),
                       len(meta))
           + meta + Z.astype("<f8").tobytes() + L.astype("<f8").tobytes())
    path = tmp_path / "general.bin"
    path.write_bytes(raw)
    model = load(path)
    Xnew = rng.normal(size=(20, d))
    G = embed(model, Xnew)
    E = kernel_matrix(Xnew, Z, KernelParams(bandwidth=4.0)) @ L
    assert_allclose(G @ G.T, E @ E.T, rtol=0, atol=1e-12 * np.linalg.norm(E @ E.T))
    again = tmp_path / "again.bin"
    save(model, again)
    reloaded = load(again)
    assert np.array_equal(reloaded.L, model.L)
    assert np.array_equal(embed(reloaded, Xnew), G)


def test_triangular_features_predict_like_eigenvector_features():
    # A fit at lambda = 1e3 is PSD in closed form and full rank; the
    # triangular factor is an orthogonal rotation of factorize's, so a
    # linear classifier trained on either predicts the same labels.
    ds = make_blobs(8000, 20, n_classes=4, separation=3.0, seed=7)
    held = make_blobs(20_000, 20, n_classes=4, separation=3.0, seed=8)
    params = KernelParams(bandwidth=bandwidth_heuristic(ds.X))
    Z = select_kmeans(ds.X, KMeansConfig(k=200, seed=1))
    core = build_core(ds.X, Z, params)
    labeled = sample_labeled(ds, 200, seed=2)
    result = fit(core, SideInformation.from_labels(labeled), LearnConfig(lam=1e3))
    model = InductiveModel.from_state(Z, params, result.state, lam=1e3)
    L = factorize(result.state)
    assert model.rank == model.m  # full rank: embed multiplies in place

    tri = train_linear(embed(model, ds.X[labeled.indices]), labeled.labels)
    eig = train_linear(core.E[labeled.indices] @ L, labeled.labels)
    tri_pred = tri.predict(embed(model, held.X))
    eig_pred = eig.predict(kernel_matrix(held.X, Z.points, params) @ L)
    assert np.array_equal(tri_pred, eig_pred)


# ---------------------------------------------------------------------------
# embed


def test_embed_on_landmarks_reproduces_dictionary():
    model, _, Z, core, _ = _prior_model()
    G = embed(model, Z.points)
    assert np.linalg.matrix_rank(core.W) == core.m  # full-rank premise
    assert_allclose(G @ G.T, core.W, atol=1e-6)


def test_embed_landmark_self_similarity():
    model, _, Z, core, _ = _prior_model(seed=2)
    G = embed(model, Z.points)
    for pidx in range(core.m):
        assert abs(G[pidx] @ G[pidx] - core.W[pidx, pidx]) < 1e-6


def test_embed_matches_dense_quadratic_form():
    model, _, Z, _, p = _fitted_model(seed=3)
    rng = np.random.default_rng(30)
    Xnew = rng.normal(size=(7, 3))
    G = embed(model, Xnew)
    e = kernel_matrix(Xnew, Z.points, p)
    expected = e @ (model.L @ model.L.T) @ e.T
    assert_allclose(G @ G.T, expected, atol=1e-10)


def test_embed_matches_pairwise_kernel_product():
    model, _, Z, _, p = _fitted_model(seed=6)
    rng = np.random.default_rng(60)
    Xnew = np.vstack([rng.normal(size=(40, 3)), Z.points, 1e3 + rng.normal(size=(5, 3))])
    expected = kernel_matrix(Xnew, Z.points, p) @ model.L
    atol = 1e-12 * (1.0 + np.linalg.norm(model.L))
    assert_allclose(embed(model, Xnew), expected, rtol=0, atol=atol)


def test_embed_memory_is_one_block():
    # One n x m kernel block plus the n x rank result; the pairwise path held
    # three n x m arrays at once.
    n, m, d = 4000, 100, 5
    rng = np.random.default_rng(61)
    L = rng.normal(size=(m, m))
    model = InductiveModel(landmarks=rng.normal(size=(m, d)),
                           kernel=KernelParams(bandwidth=2.0 * d), L=L)
    Xnew = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        embed(model, Xnew)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * m * 8


@pytest.mark.parametrize("r", [90, 50])
def test_embed_memory_below_full_rank(r):
    # The n x m kernel block plus the n x r result, besides small slack.
    n, m, d = 4000, 100, 5
    rng = np.random.default_rng(62)
    model = InductiveModel(landmarks=rng.normal(size=(m, d)),
                           kernel=KernelParams(bandwidth=2.0 * d),
                           L=rng.normal(size=(m, r)))
    Xnew = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        embed(model, Xnew)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1.0 + r / m + 0.05) * n * m * 8


def test_embed_dimension_mismatch():
    model, *_ = _fitted_model()
    with pytest.raises(InputError):
        embed(model, np.zeros((2, 5)))


def test_embed_gram_rank_bounded():
    model, _, _, _, _ = _fitted_model(seed=4)
    rng = np.random.default_rng(40)
    Xnew = rng.normal(size=(12, 3))
    G = embed(model, Xnew)
    svals = np.linalg.svd(G @ G.T, compute_uv=False)
    assert np.sum(svals > 1e-10 * max(svals.max(), 1.0)) <= model.rank


# ---------------------------------------------------------------------------
# similarity


def test_similarity_symmetric_exactly():
    model, *_ = _fitted_model(seed=5)
    rng = np.random.default_rng(50)
    for _ in range(10):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        assert similarity(model, x, y) == similarity(model, y, x)


def test_similarity_self_nonnegative():
    model, *_ = _fitted_model(seed=6)
    rng = np.random.default_rng(60)
    for _ in range(10):
        x = rng.normal(size=3)
        assert similarity(model, x, x) >= 0.0


def test_similarity_at_landmarks_recovers_dictionary():
    model, _, Z, core, _ = _prior_model(seed=7)
    for pidx in range(core.m):
        for q in range(core.m):
            got = similarity(model, Z.points[pidx], Z.points[q])
            assert abs(got - core.W[pidx, q]) < 1e-8


def test_similarity_consistent_with_embedding():
    model, *_ = _fitted_model(seed=8)
    rng = np.random.default_rng(80)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    G = embed(model, np.vstack([x, y]))
    assert abs(similarity(model, x, y) - G[0] @ G[1]) < 1e-10


def test_similarity_gram_is_psd():
    model, *_ = _fitted_model(seed=9)
    rng = np.random.default_rng(90)
    pts = rng.normal(size=(8, 3))
    gram = np.array([[similarity(model, a, b) for b in pts] for a in pts])
    vals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert vals.min() >= -1e-8 * max(vals.max(), 1.0)
    # and it agrees with the embedding Gram matrix
    G = embed(model, pts)
    assert_allclose(gram, G @ G.T, atol=1e-8)


def test_similarity_dimension_mismatch():
    model, *_ = _fitted_model()
    with pytest.raises(InputError):
        similarity(model, np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# save / load


def test_save_load_round_trip_bit_exact(tmp_path):
    model, X, *_ = _fitted_model(seed=10)
    path = tmp_path / "model.bin"
    save(model, path)
    loaded = load(path)
    assert np.array_equal(loaded.landmarks, model.landmarks)
    assert np.array_equal(loaded.L, model.L)
    assert loaded.kernel == model.kernel
    assert loaded.metadata == model.metadata
    before = embed(model, X)
    after = embed(loaded, X)
    assert np.array_equal(before, after)  # zero ulps apart


def test_round_trip_bit_exact_for_any_input_memory_layout(tmp_path):
    # BLAS products round differently per memory layout, so the model must
    # normalize its arrays; otherwise a fitted model and its reloaded copy
    # could disagree in the last ulp.
    base, X, Z, _, p = _fitted_model(seed=12)
    model = InductiveModel(landmarks=np.asfortranarray(base.landmarks),
                           kernel=p, L=np.asfortranarray(base.L))
    path = tmp_path / "model.bin"
    save(model, path)
    loaded = load(path)
    assert np.array_equal(embed(model, X), embed(loaded, X))
    for i in range(3):
        assert similarity(model, X[i], X[i + 1]) == similarity(loaded, X[i], X[i + 1])


def test_saved_file_is_self_describing(tmp_path):
    model, *_ = _fitted_model(seed=11)
    path = tmp_path / "model.bin"
    save(model, path)
    data = path.read_bytes()
    magic, version, m, d, r, bandwidth, family, meta_len = struct.unpack_from(
        _HEADER_FMT, data)
    assert magic == b"GNYM"
    assert version == 2
    assert (m, d, r) == (model.m, model.landmarks.shape[1], model.rank)
    assert bandwidth == model.kernel.bandwidth
    assert family.rstrip(b"\0") == b"rbf"
    expected_size = (struct.calcsize(_HEADER_FMT) + meta_len
                     + 8 * (m * d + m * r))
    assert len(data) == expected_size


def test_load_rejects_truncated_file(tmp_path):
    model, *_ = _fitted_model(seed=12)
    path = tmp_path / "model.bin"
    save(model, path)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ModelFormatError):
        load(clipped)


def test_load_rejects_bad_magic(tmp_path):
    model, *_ = _fitted_model(seed=13)
    path = tmp_path / "model.bin"
    save(model, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load(bad)


def test_load_rejects_injected_non_finite_factor(tmp_path):
    model, *_ = _fitted_model(seed=14)
    path = tmp_path / "model.bin"
    save(model, path)
    data = bytearray(path.read_bytes())
    header_size = struct.calcsize(_HEADER_FMT)
    _, _, m, d, r, _, _, meta_len = struct.unpack_from(_HEADER_FMT, data)
    l_offset = header_size + meta_len + 8 * m * d
    data[l_offset:l_offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
    poisoned = tmp_path / "poisoned.bin"
    poisoned.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load(poisoned)


def test_load_rejects_version_1(tmp_path):
    # Version 1 stored S between Z and L; it is not read.
    model, *_ = _fitted_model(seed=15)
    path = tmp_path / "model.bin"
    save(model, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 4, 1)
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="unsupported format version 1"):
        load(path)


def test_load_rejects_metadata_that_is_not_an_object(tmp_path):
    model, *_ = _fitted_model(seed=13)
    path = tmp_path / "model.bin"
    save(model, path)
    data = path.read_bytes()
    header_size = struct.calcsize(_HEADER_FMT)
    fields = list(struct.unpack_from(_HEADER_FMT, data))
    body = data[header_size + fields[-1]:]
    meta = b"[1, 2]"
    fields[-1] = len(meta)
    path.write_bytes(struct.pack(_HEADER_FMT, *fields) + meta + body)
    with pytest.raises(ModelFormatError, match="metadata must be a JSON object"):
        load(path)


@pytest.mark.parametrize("family", [b"poly", b"rbf\0\0\0\0x", b"RBF", b""])
def test_load_rejects_other_kernel_family(tmp_path, family):
    model, *_ = _fitted_model(seed=17)
    path = tmp_path / "model.bin"
    save(model, path)
    data = bytearray(path.read_bytes())
    data[28:36] = family.ljust(8, b"\0")
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="kernel family"):
        load(path)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    model, X, *_ = _fitted_model(seed=16)
    path = tmp_path_factory.mktemp("gnym") / "model.bin"
    save(model, path)
    return path.read_bytes(), X, path.with_name("corrupt.bin")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_rejects_every_strict_prefix(saved_model, data):
    raw, _, path = saved_model
    cut = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:cut])
    with pytest.raises(ModelFormatError):
        load(path)


@settings(max_examples=300, deadline=None)
@given(offset=st.integers(0, 2**16), value=st.integers(0, 255))
@example(offset=28, value=0xFF)  # a non-ASCII kernel family name
def test_load_of_corrupt_header_or_metadata_fails_cleanly(saved_model, offset, value):
    # Any single byte of the header or the metadata may change; the load
    # either raises ModelFormatError or yields a model that embeds finitely.
    raw, X, path = saved_model
    meta_len = struct.unpack_from(_HEADER_FMT, raw)[-1]
    corrupt = bytearray(raw)
    corrupt[offset % (struct.calcsize(_HEADER_FMT) + meta_len)] = value
    path.write_bytes(bytes(corrupt))
    try:
        model = load(path)
    except ModelFormatError:
        return
    # A corrupt bandwidth may be tiny; the kernel then underflows to 0.
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(embed(model, X)))


def test_load_missing_file(tmp_path):
    with pytest.raises((ModelFormatError, OSError)):
        load(tmp_path / "absent.bin")
