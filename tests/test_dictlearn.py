"""Tests for dictionary learning: objective/gradient, PSD projection, the
closed-form warm start, the ADMM fit loop, its two x-steps and its
Anderson safeguard, and factoring."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gnystrom import (
    DictionaryState,
    InductiveModel,
    InputError,
    KernelParams,
    LabelVector,
    KMeansConfig,
    LearnConfig,
    NumericalError,
    NystromCore,
    SideInformation,
    SolverReport,
    UndefinedAlignmentError,
    bandwidth_heuristic,
    build_core,
    factorize,
    fit,
    gradient,
    init_closed_form,
    make_blobs,
    nka_score,
    objective,
    psd_project,
    sample_labeled,
    select_kmeans,
    select_lambda,
    select_random,
)
from gnystrom import dictlearn, supervision


def alignment_scores(S, core, side):
    """(rho_prior, rho_align) of S, as select_lambda scores a fit: the
    alignment of S with the prior, and of the reconstructed supervised block
    with its target, both by nka_score."""
    return nka_score(S, core.S0), supervision._Supervision(core, side).alignment(S)


def _identity_problem():
    """Two samples sitting on two landmarks with an identity prior whose
    reconstruction already equals the two-class target: the objective is
    exactly zero at the prior."""
    core = NystromCore(E=np.eye(2), W=np.eye(2), R=np.eye(2))
    side = SideInformation(kind="labels", indices=[0, 1], codes=[0, 1])
    return core, side


def _random_labeled_problem(rng, n=12, m=4, l=5, d=2, bandwidth=3.0):
    X = rng.normal(size=(n, d))
    Z = select_random(X, m, seed=int(rng.integers(1 << 31)))
    core = build_core(X, Z, KernelParams(bandwidth=bandwidth))
    idx = np.sort(rng.choice(n, size=l, replace=False))
    labels = rng.integers(0, 2, size=l)
    side = SideInformation.from_labels(LabelVector(indices=idx, labels=labels))
    return core, side


def _random_grouping_problem(rng, n=12, m=4, d=2, bandwidth=3.0):
    X = rng.normal(size=(n, d))
    Z = select_random(X, m, seed=int(rng.integers(1 << 31)))
    core = build_core(X, Z, KernelParams(bandwidth=bandwidth))
    side = SideInformation.from_constraints(
        must_link=[(0, 1), (2, 3)], cannot_link=[(0, 4), (1, 5)])
    return core, side


def _pairs_from_mask(indices, target, mask):
    """Grouping-kind side information with a pair at every nonzero of the
    upper triangle of the dense 0/1 ``mask``, its diagonal included, and a
    must-link flag where ``target`` is 1 there."""
    a, b = np.nonzero(np.triu(mask))
    return SideInformation(kind="grouping", indices=indices,
                           pairs=np.column_stack([a, b]), must=target[a, b] == 1.0)


def _fd_gradient(S, core, side, lam, h=1e-5):
    G = np.zeros_like(S)
    for i in range(S.shape[0]):
        for j in range(S.shape[1]):
            Sp = S.copy()
            Sm = S.copy()
            Sp[i, j] += h
            Sm[i, j] -= h
            G[i, j] = (objective(Sp, core, side, lam)
                       - objective(Sm, core, side, lam)) / (2.0 * h)
    return G


def _random_symmetric(rng, m):
    A = rng.normal(size=(m, m))
    return 0.5 * (A + A.T)


# ---------------------------------------------------------------------------
# SideInformation


def test_side_information_from_labels():
    lv = LabelVector(indices=[2, 5, 7], labels=["a", "b", "a"])
    side = SideInformation.from_labels(lv)
    assert side.kind == "labels"
    assert np.array_equal(side.indices, [2, 5, 7])
    assert_allclose(side.target, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_side_information_from_labels_empty():
    side = SideInformation.from_labels(LabelVector(indices=[], labels=[]))
    assert side.indices.size == 0
    assert side.target.shape == (0, 0)


def test_side_information_from_constraints():
    side = SideInformation.from_constraints(must_link=[(3, 1)],
                                            cannot_link=[(1, 5)])
    assert side.kind == "grouping"
    assert np.array_equal(side.indices, [1, 3, 5])
    # rows/cols follow sorted involved indices: 1, 3, 5
    assert_allclose(side.mask, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert_allclose(side.target, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_side_information_from_constraints_conflicts():
    with pytest.raises(InputError):
        SideInformation.from_constraints(must_link=[(0, 1)], cannot_link=[(1, 0)])
    with pytest.raises(InputError):
        SideInformation.from_constraints(must_link=[(2, 2)], cannot_link=[])
    with pytest.raises(InputError):
        SideInformation.from_constraints(must_link=[(-1, 2)], cannot_link=[])


@pytest.mark.parametrize("a", [3_100_000_000, 4_999_999_999, 2**63 - 2])
def test_from_constraints_keeps_large_sample_indices(a):
    """Indices whose product a * (a + 2) passes 2**63 map to their own rows:
    no key is built from the sample indices themselves."""
    side = SideInformation.from_constraints([(a + 1, a)], [(0, a)])
    assert np.array_equal(side.indices, [0, a, a + 1])
    assert np.array_equal(side.pairs, [[0, 1], [1, 2]])
    assert np.array_equal(side.must, [False, True])


def test_from_constraints_rejects_fractional_indices():
    """As SideInformation(indices=...) does; a cast would read (0, 2)."""
    with pytest.raises(InputError, match="integer"):
        SideInformation.from_constraints([(0.5, 2.7)], [])
    with pytest.raises(InputError, match="integer"):
        SideInformation.from_constraints([(0, 1)], [(1.0, 3.0)])


def test_from_constraints_reports_indices_past_intp_as_too_large():
    """An unsigned index of 2**63 is too large, not negative."""
    pairs = np.array([[1, 2**63]], dtype=np.uint64)
    with pytest.raises(InputError, match=re.escape("below 2**63")):
        SideInformation.from_constraints(pairs, [])


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6, unique=True),
       draws=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
                      max_size=12))
def test_from_constraints_matches_set_reference(pool, draws):
    """indices, pairs and must (or the error) as Python sets give them, for
    sample indices anywhere below 2**63, repeats, both orders and conflicts
    included."""
    pool = pool * 6
    must_link = [(pool[i], pool[j]) for i, j, must in draws if must]
    cannot_link = [(pool[i], pool[j]) for i, j, must in draws if not must]
    must = {tuple(sorted(pair)) for pair in must_link}
    cannot = {tuple(sorted(pair)) for pair in cannot_link}
    if any(a == b for a, b in must | cannot):
        with pytest.raises(InputError, match="distinct samples"):
            SideInformation.from_constraints(must_link, cannot_link)
        return
    if must & cannot:
        with pytest.raises(InputError, match=re.escape(str(sorted(must & cannot)))):
            SideInformation.from_constraints(must_link, cannot_link)
        return
    side = SideInformation.from_constraints(must_link, cannot_link)
    involved = sorted({i for pair in must | cannot for i in pair})
    row = {sample: r for r, sample in enumerate(involved)}
    pairs = sorted((row[a], row[b], (a, b) in must) for a, b in must | cannot)
    assert side.indices.tolist() == involved
    assert side.pairs.tolist() == [[a, b] for a, b, _ in pairs]
    assert side.must.tolist() == [flag for _, _, flag in pairs]


def _old_ideal_kernel(values):
    """The dense label target as the library built it before side
    information went compact."""
    return (values[:, None] == values[None, :]).astype(np.float64)


def _old_from_constraints(must_link, cannot_link):
    """(indices, target, mask) as the library's dense pair builder made them."""
    must = {tuple(sorted((int(a), int(b)))) for a, b in must_link}
    cannot = {tuple(sorted((int(a), int(b)))) for a, b in cannot_link}
    involved = sorted({i for pair in must | cannot for i in pair})
    pos = {idx: row for row, idx in enumerate(involved)}
    c = len(involved)
    mask = np.zeros((c, c))
    target = np.zeros((c, c))
    for a, b in must:
        mask[pos[a], pos[b]] = mask[pos[b], pos[a]] = 1.0
        target[pos[a], pos[b]] = target[pos[b], pos[a]] = 1.0
    for a, b in cannot:
        mask[pos[a], pos[b]] = mask[pos[b], pos[a]] = 1.0
    return np.asarray(involved, dtype=np.intp), target, mask


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(st.integers(0, 3), max_size=12))
def test_label_target_property_matches_dense_builder(labels):
    values = np.asarray(labels, dtype=np.int64)
    side = SideInformation.from_labels(LabelVector(indices=np.arange(values.size) * 2,
                                                   labels=values))
    assert side.mask is None
    assert np.array_equal(side.target, _old_ideal_kernel(values))
    assert side.target.dtype == np.float64


@settings(max_examples=100, deadline=None)
@given(draws=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.booleans()),
                      max_size=30))
def test_pair_properties_match_dense_builder(draws):
    """Pairs in either order, repeated within a list, must and cannot mixed."""
    flags = {}
    for a, b, must in draws:
        if a != b:
            flags.setdefault(tuple(sorted((a, b))), must)
    kept = [(a, b, must) for a, b, must in draws
            if a != b and flags[tuple(sorted((a, b)))] == must]
    must_link = [(a, b) for a, b, must in kept if must]
    cannot_link = [(a, b) for a, b, must in kept if not must]
    side = SideInformation.from_constraints(must_link, cannot_link)
    indices, target, mask = _old_from_constraints(must_link, cannot_link)
    assert np.array_equal(side.indices, indices)
    assert np.array_equal(side.target, target)
    assert np.array_equal(side.mask, mask)
    assert np.all(side.pairs[:, 0] <= side.pairs[:, 1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), l=st.integers(0, 9))
def test_pair_constructor_keeps_diagonal_pairs(seed, l):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((l, l)) < 0.4)
    mask = (upper | upper.T).astype(np.float64)
    target = mask * np.triu(rng.random((l, l)) < 0.5)
    target = np.maximum(target, target.T)
    side = _pairs_from_mask(np.arange(l), target, mask)
    assert np.array_equal(side.mask, mask)
    assert np.array_equal(side.target, target)
    assert side.pairs.shape[0] == np.count_nonzero(np.triu(mask))


def test_side_information_validates_compact_fields():
    idx = np.arange(3)
    with pytest.raises(InputError):
        SideInformation(kind="other", indices=idx, codes=[0, 0, 0])
    with pytest.raises(InputError):
        SideInformation(kind="labels", indices=idx)  # no codes
    with pytest.raises(InputError):
        SideInformation(kind="labels", indices=idx, codes=[0, 1])  # one per row
    with pytest.raises(InputError):
        SideInformation(kind="labels", indices=idx, codes=[0, -1, 0])
    with pytest.raises(InputError):
        SideInformation(kind="grouping", indices=idx, pairs=[[1, 0]], must=[True])  # a > b
    with pytest.raises(InputError):
        SideInformation(kind="grouping", indices=idx, pairs=[[0, 3]], must=[True])  # row 3
    with pytest.raises(InputError):
        SideInformation(kind="grouping", indices=idx, pairs=[[0, 1], [0, 1]],
                        must=[True, True])  # repeated
    with pytest.raises(InputError):
        SideInformation(kind="grouping", indices=idx, pairs=[[0, 1]], must=[True, False])
    side = SideInformation(kind="grouping", indices=idx, pairs=[[1, 2], [0, 0]],
                           must=[0, 1])
    assert np.array_equal(side.pairs, [[0, 0], [1, 2]])  # lexicographic
    assert side.must.tolist() == [True, False]


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_at_consistent_prior():
    core, side = _identity_problem()
    assert objective(np.eye(2), core, side, lam=1.0) == 0.0


def test_objective_lambda_zero_isolates_residual():
    rng = np.random.default_rng(0)
    core, side = _random_labeled_problem(rng)
    S = psd_project(_random_symmetric(rng, core.m))
    El = core.E[side.indices]
    res = El @ S @ El.T - side.target
    assert_allclose(objective(S, core, side, lam=0.0), np.sum(res * res), rtol=1e-12)


def test_objective_matches_scalar_loops():
    """Independent oracle: evaluate the penalized fit entry by entry."""
    rng = np.random.default_rng(1)
    core, side = _random_labeled_problem(rng, n=6, m=2, l=2)
    S = _random_symmetric(rng, 2)
    lam = 0.7
    El = core.E[side.indices]
    total = 0.0
    for i in range(2):
        for j in range(2):
            total += lam * (S[i, j] - core.S0[i, j]) ** 2
    for a in range(2):
        for b in range(2):
            recon = 0.0
            for i in range(2):
                for j in range(2):
                    recon += El[a, i] * S[i, j] * El[b, j]
            total += (recon - side.target[a, b]) ** 2
    assert_allclose(objective(S, core, side, lam), total, rtol=1e-12)


def test_objective_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        core, side = _random_labeled_problem(rng)
        S = _random_symmetric(rng, core.m)
        assert objective(S, core, side, lam=float(rng.uniform(0, 5))) >= 0.0


def test_objective_grouping_applies_mask():
    rng = np.random.default_rng(3)
    core, side = _random_grouping_problem(rng)
    S = _random_symmetric(rng, core.m)
    El = core.E[side.indices]
    res = side.mask * (El @ S @ El.T) - side.target
    expected = 2.0 * np.sum((S - core.S0) ** 2) + np.sum(res * res)
    assert_allclose(objective(S, core, side, lam=2.0), expected, rtol=1e-12)


def test_objective_convexity():
    rng = np.random.default_rng(4)
    core, side = _random_labeled_problem(rng)
    for _ in range(10):
        Sa = _random_symmetric(rng, core.m)
        Sb = _random_symmetric(rng, core.m)
        theta = float(rng.uniform(0.05, 0.95))
        mix = objective(theta * Sa + (1 - theta) * Sb, core, side, 1.3)
        hull = (theta * objective(Sa, core, side, 1.3)
                + (1 - theta) * objective(Sb, core, side, 1.3))
        assert mix <= hull + 1e-10


def test_objective_input_validation():
    core, side = _identity_problem()
    with pytest.raises(InputError):
        objective(np.eye(3), core, side, 1.0)  # wrong shape
    with pytest.raises(InputError):
        objective(np.eye(2), core, side, -1.0)  # negative weight


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_consistent_prior():
    core, side = _identity_problem()
    assert_allclose(gradient(np.eye(2), core, side, 1.0), np.zeros((2, 2)), atol=1e-15)


def test_gradient_no_supervision_is_prior_pull():
    rng = np.random.default_rng(5)
    core, _ = _random_labeled_problem(rng)
    side = SideInformation.from_labels(LabelVector(indices=[], labels=[]))
    S = _random_symmetric(rng, core.m)
    assert_allclose(gradient(S, core, side, 1.7), 2.0 * 1.7 * (S - core.S0), atol=1e-12)


def test_gradient_matches_finite_differences_labels():
    rng = np.random.default_rng(6)
    for _ in range(10):
        core, side = _random_labeled_problem(rng, n=8, m=3, l=4)
        S = psd_project(_random_symmetric(rng, 3))
        lam = float(rng.uniform(0.1, 3.0))
        analytic = gradient(S, core, side, lam)
        fd = _fd_gradient(S, core, side, lam)
        assert np.all(np.abs(analytic - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))


def test_gradient_matches_finite_differences_grouping():
    rng = np.random.default_rng(7)
    for _ in range(10):
        core, side = _random_grouping_problem(rng, n=8, m=3)
        S = psd_project(_random_symmetric(rng, 3))
        lam = float(rng.uniform(0.1, 3.0))
        analytic = gradient(S, core, side, lam)
        fd = _fd_gradient(S, core, side, lam)
        assert np.all(np.abs(analytic - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))


def test_gradient_is_symmetric():
    rng = np.random.default_rng(8)
    core, side = _random_labeled_problem(rng)
    S = _random_symmetric(rng, core.m)
    G = gradient(S, core, side, 0.9)
    assert np.array_equal(G, G.T)


# ---------------------------------------------------------------------------
# compact forms against the dense l x l formulas


def _dense_value_and_gradient(S, core, side, lam):
    """J and grad J from the masked l x l residual, as the library computed
    them before side information went compact."""
    El = core.E[side.indices]
    recon = El @ S @ El.T
    if side.kind == "grouping":
        recon = side.mask * recon
    res = recon - side.target
    prior = S - core.S0
    value = float(lam * np.sum(prior * prior) + np.sum(res * res))
    grad = 2.0 * lam * prior + 2.0 * (El.T @ res @ El)
    return value, 0.5 * (grad + grad.T)


def _dense_alignment(S, core, side):
    El = core.E[side.indices]
    recon = El @ S @ El.T
    if side.kind == "grouping":
        recon = side.mask * recon
    return nka_score(recon, side.target)


def _drawn_problem(rng, grouping):
    """A random problem; pairs come from a dense mask that constrains some
    diagonal entries and mixes must- and cannot-links."""
    n, m = int(rng.integers(6, 14)), int(rng.integers(1, 7))
    l = int(rng.integers(1, n + 1))
    X = rng.normal(size=(n, 2))
    core = build_core(X, select_random(X, m, seed=int(rng.integers(1 << 31))),
                      KernelParams(bandwidth=float(rng.uniform(1.0, 5.0))))
    idx = np.sort(rng.choice(n, size=l, replace=False))
    if not grouping:
        labels = rng.integers(0, int(rng.integers(1, 4)), size=l)
        return core, SideInformation.from_labels(LabelVector(indices=idx, labels=labels))
    upper = np.triu(rng.random((l, l)) < 0.5)
    mask = (upper | upper.T).astype(np.float64)
    target = mask * (rng.random((l, l)) < 0.5)
    target = np.triu(target) + np.triu(target, 1).T
    return core, _pairs_from_mask(idx, target, mask)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), grouping=st.booleans(),
       lam=st.sampled_from((0.0, 1e-3, 1.0)), symmetric=st.booleans())
# A nearly constant reconstructed block, whose centred part is some 1e-5 of it.
@example(seed=1396652, grouping=True, lam=0.0, symmetric=False)
def test_compact_forms_match_dense_formulas(seed, grouping, lam, symmetric):
    """J, grad J, B, the closed form and both alignment factors, from the
    class codes or the pair list, against the l x l formulas, for symmetric
    S and for the asymmetric S that finite differences evaluate."""
    rng = np.random.default_rng(seed)
    core, side = _drawn_problem(rng, grouping)
    m = core.m
    S = rng.normal(size=(m, m))
    if symmetric:
        S = 0.5 * (S + S.T)
    value, grad = dictlearn._value_and_gradient(S, core, side, lam)
    dense_value, dense_grad = _dense_value_and_gradient(S, core, side, lam)
    assert_allclose(value, dense_value, rtol=1e-10, atol=1e-12)
    assert_allclose(grad, dense_grad, rtol=0, atol=1e-10 * (1.0 + np.abs(dense_grad).max()))
    El = core.E[side.indices]
    B = El.T @ side.target @ El
    assert_allclose(supervision._Supervision(core, side).B, B, rtol=0,
                    atol=1e-12 * (1.0 + np.abs(B).max()))
    if not grouping and lam > 0:
        P = (El.T @ El) / np.sqrt(lam)
        Q = core.S0 + B / lam
        S1 = init_closed_form(core, side, lam, project=False)
        assert np.linalg.norm(S1 + P @ S1 @ P - Q) <= 1e-8 * np.linalg.norm(Q)
    try:
        dense = (nka_score(S, core.S0), _dense_alignment(S, core, side))
    except UndefinedAlignmentError:
        with pytest.raises(UndefinedAlignmentError):
            alignment_scores(S, core, side)
        return
    assert_allclose(alignment_scores(S, core, side), dense, rtol=0, atol=1e-10)


def _twenty_label_problem():
    ds = make_blobs(3000, 10, n_classes=2, separation=2.0, seed=7)
    core = build_core(ds.X, select_kmeans(ds.X, KMeansConfig(k=200, seed=0)),
                      KernelParams(bandwidth=float(bandwidth_heuristic(ds.X))))
    return core, SideInformation.from_labels(sample_labeled(ds, 20, 0))


def _as_full_mask_pairs(side):
    """The label target of ``side`` as grouping-kind side information that
    constrains every pair of its rows."""
    l = side.indices.size
    return _pairs_from_mask(side.indices, side.target, np.ones((l, l)))


def test_compact_objective_is_accurate_near_zero():
    """The lam = 0 fit of the 20-label target at m = 200, as full-mask
    pairs, ends at J of about 3.4e-9 (the label fit returns the closed form,
    at J of about 1e-24, where float64 alone sets the error). The QR form
    agrees with a long-double evaluation of the l x l residual to 1e-6
    relative; the expansion tr(SCSC) - 2 tr(SB) + sum n_c^2 loses every
    digit to cancellation."""
    core, side = _twenty_label_problem()
    S = fit(core, _as_full_mask_pairs(side), LearnConfig(lam=0.0)).state.S
    El = core.E[side.indices]
    wide = El.astype(np.longdouble)
    res = wide @ S.astype(np.longdouble) @ wide.T - side.target
    reference = float(np.sum(res * res))
    assert 0.0 < reference < 1e-7
    assert abs(objective(S, core, side, 0.0) - reference) <= 1e-6 * reference
    C = El.T @ El
    B = El.T @ side.target @ El
    expansion = np.trace(S @ C @ S @ C) - 2.0 * np.sum(S * B) + np.sum(side.target)
    assert abs(expansion - reference) > 1e-6 * reference


# ---------------------------------------------------------------------------
# psd_project


def test_psd_project_fixed_point():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4))
    P = A @ A.T  # PSD by construction
    assert_allclose(psd_project(P), P, atol=1e-10)


def test_psd_project_clamps_negative_eigenvalue():
    assert_allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_project_matches_eigenvalue_clamp():
    """Independent oracle: clamp the spectrum by hand."""
    rng = np.random.default_rng(10)
    for _ in range(10):
        M = _random_symmetric(rng, 5)
        vals, vecs = np.linalg.eigh(M)
        expected = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        assert_allclose(psd_project(M), expected, atol=1e-10)


def test_psd_project_is_frobenius_nearest():
    rng = np.random.default_rng(11)
    M = _random_symmetric(rng, 4)
    P = psd_project(M)
    base = np.linalg.norm(M - P)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        candidate = A @ A.T
        assert base <= np.linalg.norm(M - candidate) + 1e-12


def test_psd_project_output_is_psd():
    rng = np.random.default_rng(12)
    for _ in range(10):
        P = psd_project(_random_symmetric(rng, 6))
        vals = np.linalg.eigvalsh(P)
        assert vals.min() >= -1e-12 * max(1.0, vals.max())


def test_psd_project_rejects_nonfinite():
    with pytest.raises(InputError):
        psd_project(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(max_examples=200, deadline=None)
@given(vals=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=1,
                     max_size=12),
       sign=st.sampled_from((-1.0, 0.0, 1.0)), seed=st.integers(0, 2**31 - 1))
@example(vals=[-2.0], sign=0.0, seed=0)                  # m = 1, k = m
@example(vals=[3.0], sign=0.0, seed=0)                   # m = 1, k = 0
@example(vals=[0.0, 0.0, 0.0, 5.0, -1.0], sign=0.0, seed=1)  # repeated zeros
@example(vals=[1.0, 2.0, 3.0, 4.0], sign=-1.0, seed=2)    # k = m
@example(vals=[1.0, 2.0, 3.0, 4.0], sign=1.0, seed=3)     # k = 0
@example(vals=[0.0625] * 4, sign=-1.0, seed=2)           # cluster: dsyevr info=1
def test_negative_cut_matches_psd_project(vals, sign, seed):
    """The loop's projection subtracts the eigenpairs at or below zero,
    from the partial eigendecomposition, or from the full one where that
    fails (the cluster example); it must agree with the full clamp of
    psd_project. sign = +-1 makes every eigenvalue nonnegative or
    nonpositive, 0 keeps the mixed spectrum. The loop's states are
    symmetric bit for bit, and so are the projection and the part it cuts
    off."""
    vals = np.asarray(vals) if sign == 0.0 else sign * np.abs(vals)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(vals.size, vals.size)))
    M = (Q * vals) @ Q.T
    M = 0.5 * (M + M.T)
    expected = psd_project(M)
    got, cut = dictlearn._cut_negative(M)
    assert np.array_equal(got, got.T) and np.array_equal(cut, cut.T)
    assert np.linalg.norm(got + cut - M) <= 1e-15 * (1.0 + np.linalg.norm(M))
    assert np.linalg.norm(got - expected) <= 1e-12 * (1.0 + np.linalg.norm(M))


# ---------------------------------------------------------------------------
# init_closed_form


def test_init_no_supervision_returns_prior():
    rng = np.random.default_rng(14)
    core, _ = _random_labeled_problem(rng)
    side = SideInformation.from_labels(LabelVector(indices=[], labels=[]))
    assert_allclose(init_closed_form(core, side, lam=1.0), core.S0, atol=1e-10)


def test_init_large_lambda_approaches_prior():
    rng = np.random.default_rng(15)
    core, side = _random_labeled_problem(rng)
    S = init_closed_form(core, side, lam=1e12)
    assert np.abs(S - core.S0).max() < 1e-4


def test_init_solves_stationarity_equation():
    """Pre-projection solution must satisfy S + P @ S @ P = Q."""
    rng = np.random.default_rng(16)
    for lam in (0.01, 1.0, 100.0):
        for _ in range(10):
            core, side = _random_labeled_problem(rng, n=9, m=3, l=2)
            S = init_closed_form(core, side, lam, project=False)
            El = core.E[side.indices]
            P = (El.T @ El) / np.sqrt(lam)
            Q = core.S0 + (El.T @ side.target @ El) / lam
            resid = np.linalg.norm(S + P @ S @ P - Q) / np.linalg.norm(Q)
            assert resid < 1e-8


def test_init_rejects_bad_inputs():
    rng = np.random.default_rng(17)
    core, side = _random_labeled_problem(rng)
    with pytest.raises(InputError):
        init_closed_form(core, side, lam=0.0)
    with pytest.raises(InputError):
        init_closed_form(core, side, lam=-1.0)
    _, grouping = _random_grouping_problem(rng)
    with pytest.raises(InputError):
        init_closed_form(core, grouping, lam=1.0)


def _closed_form_of(core, side, lam):
    return supervision._Supervision(core, side).closed_form(core.S0, lam)


def test_positive_definite_closed_form_is_the_start(monkeypatch):
    """A positive definite closed form is the unconstrained optimum and so
    the answer: the fit returns it bit for bit after 0 iterations, with one
    eigendecomposition (of C = El.T @ El) and no projection."""
    rng = np.random.default_rng(30)
    core, side = _random_labeled_problem(rng)
    expected = _closed_form_of(core, side, 1.0)
    assert np.linalg.eigvalsh(expected).min() > 0.0
    real_eigh, calls = np.linalg.eigh, []

    def counting_eigh(M):
        calls.append(M.shape)
        return real_eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    result = fit(core, side, LearnConfig(lam=1.0))
    assert result.report.iterations == 0
    assert np.array_equal(result.state.S, expected)
    assert len(calls) == 1


def test_indefinite_closed_form_starts_projected(monkeypatch):
    """A closed form with a negative eigenvalue fails its Cholesky test and
    starts from its PSD projection: the start and objective_trace[0] are
    those of _project(closed form)."""
    rng = np.random.default_rng(30)
    core, side = _random_labeled_problem(rng)
    closed = _closed_form_of(core, side, 1e-3)
    assert np.linalg.eigvalsh(closed).min() < 0.0
    real_dpotrf, infos = dictlearn.dpotrf, []

    def recording_dpotrf(a, **kwargs):
        out = real_dpotrf(a, **kwargs)
        infos.append(out[1])
        return out

    monkeypatch.setattr(dictlearn, "dpotrf", recording_dpotrf)
    result = fit(core, side, LearnConfig(lam=1e-3), record_iterates=True)
    start = dictlearn._project(closed)
    assert len(infos) == 1 and infos[0] > 0
    assert result.report.iterations > 0
    assert np.array_equal(result.report.iterates[0], start)
    assert result.report.objective_trace[0] == objective(start, core, side, 1e-3)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 100.0])
def test_init_closed_form_is_the_fit_start(lam):
    """init_closed_form returns the matrix fit starts from: the raw closed
    form where Cholesky certifies it positive definite (lam = 1 and 100
    here), its projection otherwise (lam = 1e-3)."""
    rng = np.random.default_rng(30)
    core, side = _random_labeled_problem(rng)
    start = fit(core, side, LearnConfig(lam=lam), record_iterates=True).report.iterates[0]
    S = init_closed_form(core, side, lam)
    assert np.array_equal(S, start)
    raw = init_closed_form(core, side, lam, project=False)
    assert np.array_equal(S, raw) == (lam > 1e-3)


def test_tiny_lambda_starts_from_prior():
    """At lam = 1e-320 the closed form overflows. Without a warning, fit
    starts from the prior, S0 as it is, and init_closed_form rejects the
    non-finite solution."""
    rng = np.random.default_rng(30)
    core, side = _random_labeled_problem(rng)
    assert core.pinv_rank == core.m
    assert not np.all(np.isfinite(_closed_form_of(core, side, 1e-320)))
    result = fit(core, side, LearnConfig(lam=1e-320), record_iterates=True)
    assert np.array_equal(result.report.iterates[0], core.S0)
    assert result.report.converged_by == "grad_norm"
    with pytest.raises(InputError, match="non-finite"):
        init_closed_form(core, side, 1e-320)


def test_psd_start_projects_what_cholesky_rejects():
    """A closed form that Cholesky rejects starts from its PSD projection,
    with the factor of the same eigenpairs: the fit cases that iterate
    leave this start behind, so it is checked here directly."""
    A = np.random.default_rng(32).normal(size=(5, 5))
    M = 0.5 * (A + A.T)
    assert np.linalg.eigvalsh(M).min() < 0.0
    S, L = dictlearn._psd_start(M)
    assert np.array_equal(S, psd_project(M))
    assert L.shape[1] == np.count_nonzero(np.linalg.eigvalsh(M) > 0.0)
    assert np.linalg.norm(L @ L.T - S) <= 1e-12 * np.linalg.norm(S)


# ---------------------------------------------------------------------------
# fit


def test_fit_no_supervision_returns_prior():
    rng = np.random.default_rng(18)
    core, _ = _random_labeled_problem(rng)
    side = SideInformation.from_labels(LabelVector(indices=[], labels=[]))
    result = fit(core, side, LearnConfig(lam=1.0))
    assert_allclose(result.state.S, psd_project(core.S0), atol=1e-10)
    assert result.report.iterations <= 1


def test_fit_consistent_prior_converges_immediately():
    core, side = _identity_problem()
    result = fit(core, side, LearnConfig(lam=1.0))
    assert result.report.iterations == 0
    assert result.report.converged_by == "grad_norm"
    assert result.report.objective_trace[-1] <= 1e-12
    assert_allclose(result.state.S, np.eye(2), atol=1e-10)


def test_fit_never_worse_than_prior_or_warm_start():
    rng = np.random.default_rng(19)
    for _ in range(10):
        core, side = _random_labeled_problem(rng)
        lam = float(rng.uniform(0.1, 2.0))
        result = fit(core, side, LearnConfig(lam=lam))
        final = result.report.objective_trace[-1]
        at_prior = objective(psd_project(core.S0), core, side, lam)
        at_init = result.report.objective_trace[0]
        slack = 1e-9 * (1.0 + abs(at_prior))
        assert final <= at_prior + slack
        assert final <= at_init + slack


def test_fit_trace_nonincreasing_and_iterates_psd():
    rng = np.random.default_rng(20)
    for _ in range(5):
        core, side = _random_labeled_problem(rng)
        result = fit(core, side, LearnConfig(lam=0.5), record_iterates=True)
        trace = result.report.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
        for S in result.report.iterates:
            vals = np.linalg.eigvalsh(S)
            assert vals.min() >= -1e-8 * max(vals.max(), 0.0)


def test_fit_large_lambda_recovers_prior():
    rng = np.random.default_rng(21)
    core, side = _random_labeled_problem(rng)
    result = fit(core, side, LearnConfig(lam=1e12))
    assert np.abs(result.state.S - psd_project(core.S0)).max() < 1e-4


def test_fit_lambda_zero_pure_data_fit():
    rng = np.random.default_rng(22)
    core, side = _random_labeled_problem(rng)
    result = fit(core, side, LearnConfig(lam=0.0))
    start = objective(psd_project(core.S0), core, side, 0.0)
    assert result.report.objective_trace[-1] <= start + 1e-12 * (1.0 + start)


def test_fit_grouping_kind_runs():
    rng = np.random.default_rng(23)
    core, side = _random_grouping_problem(rng)
    result = fit(core, side, LearnConfig(lam=1.0))
    assert result.report.converged_by in ("grad_norm", "obj_rel", "max_iters")
    vals = np.linalg.eigvalsh(result.state.S)
    assert vals.min() >= -1e-8 * max(vals.max(), 0.0)


def test_fit_final_state_symmetric_psd():
    rng = np.random.default_rng(24)
    core, side = _random_labeled_problem(rng)
    result = fit(core, side, LearnConfig(lam=1.0))
    S = result.state.S
    assert np.abs(S - S.T).max() <= 1e-10
    vals = np.linalg.eigvalsh(S)
    assert vals.min() >= -1e-8 * max(vals.max(), 0.0)


def test_fit_reconstruction_stays_psd():
    rng = np.random.default_rng(25)
    core, side = _random_labeled_problem(rng)
    S = fit(core, side, LearnConfig(lam=1.0)).state.S
    recon = core.E @ S @ core.E.T
    vals = np.linalg.eigvalsh(recon)
    assert vals.min() >= -1e-8 * max(vals.max(), 1.0)


def _kkt_draw(seed, grouping):
    """The problem test_fit_satisfies_kkt_conditions and tools/kkt_stress.py
    draw from a seed."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    if grouping:
        return _random_grouping_problem(rng, m=m)
    return _random_labeled_problem(rng, m=m, l=int(rng.integers(2, 9)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), grouping=st.booleans(),
       lam=st.sampled_from((1e-3, 1.0, 100.0)))
def test_loop_states_are_symmetric_bit_for_bit(seed, grouping, lam):
    """The projection reads the lower triangle of the state it is handed
    and does not symmetrize it, so every state of the loop, the start's
    first map value, Anderson's extrapolations and the plain steps, must be
    symmetric bit for bit."""
    core, side = _kkt_draw(seed, grouping)
    cut, asymmetric, states = dictlearn._cut_negative, [], []

    def record(W):
        states.append(None)
        if not np.array_equal(W, W.T):
            asymmetric.append(float(np.abs(W - W.T).max()))
        return cut(W)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dictlearn, "_cut_negative", record)
        result = fit(core, side, LearnConfig(lam=lam, max_iters=20000))
    assert len(states) == result.report.iterations
    assert asymmetric == []


@pytest.mark.parametrize("problem", [
    lambda: _kkt_draw(99, grouping=False), lambda: _kkt_draw(324, grouping=True),
    lambda: _fit_pairs_problem()], ids=["labels", "pairs", "fit-pairs"])
def test_loop_objective_matches_objective_at_its_iterates(problem):
    """The loop takes J at an iterate Y from its expansion about the start,
    in one dot product; it must agree with objective at S = matrix(Y)."""
    core, side = problem()
    lam = 1e-3
    step, seen = dictlearn._ADMM.step, []

    def record(self):
        point, value, bound = step(self)
        seen.append((self.matrix(point), value))
        return point, value, bound

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dictlearn._ADMM, "step", record)
        fit(core, side, LearnConfig(lam=lam))
    assert seen
    for S, value in seen:
        assert abs(value - objective(S, core, side, lam)) <= 1e-12 * (1.0 + value)


def test_failed_anderson_solve_takes_the_plain_step(monkeypatch):
    """A nonzero info from the Cholesky solve of Anderson's least-squares
    system (dposv) takes the plain step from the kept state and restarts the
    memory there; the fit still reaches the optimum."""
    core, side = _random_grouping_problem(np.random.default_rng(13), m=5)
    lam = 1e-3
    fake = _lapack_failing_once(dictlearn.dposv)
    monkeypatch.setattr(dictlearn, "dposv", fake)
    extrapolate, plain = dictlearn._Anderson.extrapolate, []

    def record(self, f, g):
        W = extrapolate(self, f, g)
        if len(fake.calls) == 1 and not plain:
            plain.append((W is f, self.size))
        return W

    monkeypatch.setattr(dictlearn._Anderson, "extrapolate", record)
    result = fit(core, side, LearnConfig(lam=lam))
    assert plain == [(True, 0)]
    assert len(fake.calls) > 1
    assert result.report.converged_by == "grad_norm"
    _assert_kkt(result.state.S, core, side, lam)


def test_fit_deterministic():
    rng = np.random.default_rng(26)
    core, side = _random_labeled_problem(rng)
    a = fit(core, side, LearnConfig(lam=0.7))
    b = fit(core, side, LearnConfig(lam=0.7))
    assert np.array_equal(a.state.S, b.state.S)
    assert np.array_equal(a.report.objective_trace, b.report.objective_trace)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), grouping=st.booleans(),
       lam=st.sampled_from((0.0, 1e-3, 1.0, 100.0)))
def test_fit_satisfies_kkt_conditions(seed, grouping, lam):
    """At the optimum over the PSD cone, S >= 0, grad J(S) >= 0 and
    <S, grad J(S)> = 0. Tolerances scale with the gradient at S = 0.

    At lam = 0 a masked fit need not attain its infimum (masking can leave
    the image of the PSD cone unclosed, so J only decreases as S grows
    without bound), so grouping-kind examples take lam > 0."""
    assume(not (grouping and lam == 0.0))
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    if grouping:
        core, side = _random_grouping_problem(rng, m=m)
    else:
        core, side = _random_labeled_problem(rng, m=m, l=int(rng.integers(2, 9)))
    # A generous budget: a few ill-conditioned draws need several thousand
    # iterations, and this test is about where the solver ends up.
    S = fit(core, side, LearnConfig(lam=lam, max_iters=20000)).state.S
    G = gradient(S, core, side, lam)
    scale = 1.0 + np.linalg.norm(gradient(np.zeros_like(S), core, side, lam))
    tol = 1e-4 * scale
    assert np.linalg.eigvalsh(S).min() >= -1e-8 * max(1.0, np.linalg.norm(S))
    assert np.linalg.eigvalsh(G).min() >= -tol
    assert abs(np.sum(S * G)) <= tol * (1.0 + np.linalg.norm(S))


def test_pair_x_step_solves_dense_masked_system(monkeypatch):
    """The grouping solver evaluates J and grad J on the list of constrained
    pairs and solves its x-step through a p x p system; compare with the
    dense masked l x l form, and with the x-step's m^2 x m^2 linear system
    solved densely, for a mask that also constrains diagonal entries."""
    rng = np.random.default_rng(29)
    X = rng.normal(size=(12, 2))
    core = build_core(X, select_random(X, 5, seed=3), KernelParams(bandwidth=2.0))
    mask = np.zeros((4, 4))
    target = np.zeros((4, 4))
    for a, b, must in ((0, 1, 1.0), (1, 3, 0.0), (2, 2, 1.0), (3, 3, 0.0), (0, 2, 1.0)):
        mask[a, b] = mask[b, a] = 1.0
        target[a, b] = target[b, a] = must
    side = _pairs_from_mask(np.array([1, 4, 7, 9]), target, mask)
    El = core.E[side.indices]
    lam = 0.3
    S = psd_project(_random_symmetric(rng, 5))
    solver = dictlearn._ADMM(S, core.S0, objective(S, core, side, lam), lam,
                             supervision._Supervision(core, side))

    def to_z(M):
        # A gradient in S, expressed in the solver's coordinates Z, where
        # S = V (DD * Z) V^T.
        return solver.DD * (solver.V.T @ M @ solver.V)

    S1 = psd_project(_random_symmetric(rng, 5))
    value, grad = solver._evaluate(solver.coords(S1) - solver.Y0)
    assert_allclose(value, objective(S1, core, side, lam), rtol=1e-12)
    assert_allclose(grad, to_z(gradient(S1, core, side, lam)), rtol=1e-10, atol=1e-12)

    # The Hessian in Z, one column per entry of Z, from the dense masked form.
    m = 5
    H = np.empty((m * m, m * m))
    for k in range(m * m):
        D = solver.V @ (solver.DD * np.eye(m * m)[k].reshape(m, m)) @ solver.V.T
        H[:, k] = to_z(2.0 * lam * D + 2.0 * El.T @ (mask * (El @ D @ El.T)) @ El).ravel()
    G_at_zero = to_z(gradient(solver.matrix(np.zeros((m, m))), core, side, lam))
    built = _count_pair_factors(monkeypatch)
    for rho in (0.05, 40.0):
        # The solver keeps one rho; set another, with its x-step diagonal,
        # and factor the system for that rho.
        solver.rho = rho
        solver.Dg = solver.Hs + 0.5 * rho
        solver.factor = solver.pairs.factor(solver.Dg)
        builds = len(built)
        Y = _random_symmetric(rng, m)
        U = _random_symmetric(rng, m)
        # grad J(X) + rho (X - Y + U) = 0, with grad J(X) = G(0) + H X.
        dense = np.linalg.solve(H + rho * np.eye(m * m), (rho * (Y - U) - G_at_zero).ravel())
        assert_allclose(solver._x_step(Y - solver.Y0, U), dense.reshape(m, m),
                        rtol=1e-9, atol=1e-11)
        # The x-step solves with the factor held and builds none.
        assert len(built) == builds


@pytest.mark.parametrize("lam, reference", [(1e-3, 42.9811990362), (0.1, 68.2695641497)])
def test_fit_reaches_long_run_optimum_on_blobs600(lam, reference):
    """configs/blobs600.cfg repeat 0 (m=20, 20 labels). The references come
    from 30,000-iteration fits with both stop tests disabled."""
    ds = make_blobs(600, 10, n_classes=2, separation=2.0, seed=7)
    seeds = np.random.SeedSequence(0).generate_state(2)
    labeled = sample_labeled(ds, 20, int(seeds[0]))
    Z = select_kmeans(ds.X, KMeansConfig(k=20, seed=int(seeds[1])))
    core = build_core(ds.X, Z, KernelParams(bandwidth=float(bandwidth_heuristic(ds.X))))
    side = SideInformation.from_labels(labeled)
    result = fit(core, side, LearnConfig(lam=lam))
    assert result.report.converged_by != "max_iters"
    assert abs(result.report.objective_trace[-1] - reference) <= 1e-6 * reference
    assert_allclose(objective(result.state.S, core, side, lam),
                    result.report.objective_trace[-1], rtol=1e-9)


def _fit_pairs_problem():
    """The benchmark's fit-pairs problem 0 at seed 0: 100 random index pairs
    split into must-link and cannot-link by class, k-means m=60."""
    ds = make_blobs(3000, 10, n_classes=2, separation=2.0, seed=7)
    side_seed, landmark_seed = (int(s) for s in np.random.SeedSequence(0).generate_state(2))
    pairs = np.random.default_rng(side_seed).integers(0, ds.n, size=(100, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    same = ds.y[pairs[:, 0]] == ds.y[pairs[:, 1]]
    side = SideInformation.from_constraints(pairs[same].tolist(), pairs[~same].tolist())
    Z = select_kmeans(ds.X, KMeansConfig(k=60, seed=landmark_seed))
    core = build_core(ds.X, Z, KernelParams(bandwidth=float(bandwidth_heuristic(ds.X))))
    return core, side


def test_grouping_fit_reaches_long_run_optimum():
    """The reference comes from a 30,000-iteration fit with both stop tests
    disabled."""
    core, side = _fit_pairs_problem()
    reference = 19.9793485462
    result = fit(core, side, LearnConfig(lam=0.1))
    assert result.report.converged_by != "max_iters"
    assert abs(result.report.objective_trace[-1] - reference) <= 2e-7 * reference
    assert_allclose(objective(result.state.S, core, side, 0.1),
                    result.report.objective_trace[-1], rtol=1e-9)


def _assert_kkt(S, core, side, lam):
    """The optimality conditions of test_fit_satisfies_kkt_conditions."""
    G = gradient(S, core, side, lam)
    tol = 1e-4 * (1.0 + np.linalg.norm(gradient(np.zeros_like(S), core, side, lam)))
    assert np.linalg.eigvalsh(S).min() >= -1e-8 * max(1.0, np.linalg.norm(S))
    assert np.linalg.eigvalsh(G).min() >= -tol
    assert abs(np.sum(S * G)) <= tol * (1.0 + np.linalg.norm(S))


# (seed, m); m = None draws m as test_fit_satisfies_kkt_conditions does.
_CAPPED_GROUPING_DRAWS = [(218, 4), (277, 4)] + [
    (seed, None) for seed in (13, 15, 80, 138, 228, 245)]


@pytest.mark.parametrize("seed, m", _CAPPED_GROUPING_DRAWS,
                         ids=[str(seed) for seed, _ in _CAPPED_GROUPING_DRAWS])
def test_grouping_fit_converges_within_default_budget(seed, m):
    """Ill-conditioned masked problems at small lam that ran into the default
    iteration cap: seeds 218 and 277 under spectral projected gradient, the
    draws of test_fit_satisfies_kkt_conditions under plain ADMM."""
    rng = np.random.default_rng(seed)
    if m is None:
        m = int(rng.integers(2, 7))
    core, side = _random_grouping_problem(rng, m=m)
    lam = 1e-3
    result = fit(core, side, LearnConfig(lam=lam))
    assert result.report.converged_by != "max_iters"
    _assert_kkt(result.state.S, core, side, lam)


def test_objective_trace_never_negative():
    """J is a sum of squares. Near J = 0 the loop's expansion of J about its
    start can cancel below 0, and the loop clamps it. On the label fit of
    this problem it read -2.6e-5 (J at the returned S: 9.4e-11) while the
    start gradient in the loop's coordinates carried a false slope along
    the null space of C. The label fit at lam = 0 is now the closed form,
    so the loop runs on the same target as full-mask pairs: 2 iterations,
    to a trace minimum of 3.4e-9."""
    core, side = _twenty_label_problem()
    result = fit(core, _as_full_mask_pairs(side), LearnConfig(lam=0.0))
    assert result.report.iterations > 0
    assert result.report.objective_trace.min() >= 0.0


def test_accelerated_grouping_fit_needs_few_iterations():
    """Plain ADMM, at the fit's rho, takes 79 iterations on this problem;
    with Anderson acceleration of its fixed-point map the loop takes 29.
    With rho started at twice the mean Hessian diagonal and rebalanced on a
    10-fold residual imbalance they took 438 and 86."""
    core, side = _fit_pairs_problem()
    result = fit(core, side, LearnConfig(lam=0.1))
    assert result.report.converged_by == "grad_norm"
    assert result.report.iterations <= 200


def _kkt_sweep_grouping_draw(seed=0):
    """The grouping problem that tools/kkt_stress.py draws at ``seed`` (m = 6
    at seed 0)."""
    rng = np.random.default_rng(seed)
    return _random_grouping_problem(rng, m=int(rng.integers(2, 7)))


def _count_pair_factors(monkeypatch):
    """A list that gains one entry each time :meth:`supervision._Pairs.factor`
    returns a factor of the pair system (it returns None with no pairs)."""
    real, built = supervision._Pairs.factor, []

    def factor(self, Dg):
        result = real(self, Dg)
        if result is not None:
            built.append(result.shape)
        return result

    monkeypatch.setattr(supervision._Pairs, "factor", factor)
    return built


def test_pair_fit_starts_rho_near_where_it_settles(monkeypatch):
    """Started at twice the mean Hessian diagonal and rebalanced on a 10-fold
    residual imbalance, rho was halved five times on this problem: 86
    iterations and 6 builds of the p x p factor. Started at an eighth of
    that and rebalanced on a 100-fold imbalance, it moved once: 57
    iterations and 2 builds, at the same optimum. Started a further 2**-2.5
    lower, the loop kept it: 29 iterations and 1 build. Scaled by the pair
    term's share of the Hessian trace instead, as pair fits now are: 27
    iterations and 1 build. A label fit builds no factor."""
    core, side = _fit_pairs_problem()
    built = _count_pair_factors(monkeypatch)
    report = fit(core, side, LearnConfig(lam=0.1)).report
    assert report.converged_by == "grad_norm"
    assert report.iterations <= 60
    assert len(built) == 1
    reference = 19.9793485462
    assert abs(report.objective_trace[-1] - reference) <= 2e-7 * reference
    labels = fit(*_random_labeled_problem(np.random.default_rng(3)), LearnConfig(lam=1e-3))
    assert labels.report.iterations > 0 and len(built) == 1


def _assert_pair_fit_builds_once(monkeypatch, core, side, lam, reference):
    built = _count_pair_factors(monkeypatch)
    report = fit(core, side, LearnConfig(lam=lam)).report
    assert report.converged_by == "grad_norm"
    assert len(built) == 1
    assert report.iterations <= 40
    assert abs(report.objective_trace[-1] - reference) <= 2e-7 * reference


def test_pair_fit_builds_its_system_once(monkeypatch):
    """The loop keeps its starting rho, so a pair fit builds the p x p
    system once: 27 iterations on this problem. The reference is the
    long-run optimum."""
    _assert_pair_fit_builds_once(monkeypatch, *_fit_pairs_problem(), 0.1, 19.9793485462)


def test_kkt_sweep_pair_fit_builds_its_system_once(monkeypatch):
    """On the grouping problem that tools/kkt_stress.py draws at seed 0,
    residual balancing changed rho at each of the fit's 4 iterations, so
    the fit built the system 5 times. The reference is the long-run
    optimum."""
    _assert_pair_fit_builds_once(monkeypatch, *_kkt_sweep_grouping_draw(), 1.0,
                                 0.822803902053)


@pytest.mark.parametrize("seed", [539, 1244, 51])
def test_slowest_kkt_sweep_pair_fits(seed, monkeypatch):
    """The three slowest grouping draws of tools/kkt_stress.py over seeds
    0-1499 (m = 3, four pairs) at lam = 1e-3. With rho at 2**-2.5 of the
    label rule they took 245, 235 and 157 iterations; scaled by the pair
    term's share of the Hessian trace, 38, 20 and 24."""
    built = _count_pair_factors(monkeypatch)
    report = fit(*_kkt_sweep_grouping_draw(seed), LearnConfig(lam=1e-3)).report
    assert report.converged_by == "grad_norm"
    assert report.iterations <= 100
    assert len(built) == 1


@pytest.mark.parametrize("lam", [1e-3, 1.0])
@pytest.mark.parametrize("grouping", [False, True])
def test_fit_with_faint_supervised_rows(grouping, lam):
    """Supervised rows of E scaled by 1e-6 leave the pair term's share of the
    Hessian trace near 0, and so rho near 0 without the floor on the pair
    factor. The fits start from the prior and stop within 5 iterations."""
    rng = np.random.default_rng(30)
    core, side = _random_labeled_problem(rng)
    if grouping:
        side = SideInformation.from_constraints(
            must_link=[(0, 1), (2, 3)], cannot_link=[(0, 4), (1, 5)])
    E = core.E.copy()
    E[side.indices] *= 1e-6
    faint = NystromCore(E=E, W=core.W, R=core.R)
    report = fit(faint, side, LearnConfig(lam=lam)).report
    assert report.converged_by == "grad_norm"
    assert report.iterations <= 5


def _mapping_tolerance(core, side):
    """fit's stop tolerance on the gradient-mapping norm."""
    El = core.E[side.indices]
    return 1e-6 * (1.0 + 2.0 * np.linalg.norm(El.T @ side.target @ El))


def _mapping_norm(S, core, side, lam):
    """L * ||S - P(S - grad J(S) / L)||_F with L = 2 lam + 2 c_max^2."""
    El = core.E[side.indices]
    L = 2.0 * lam + 2.0 * np.linalg.eigvalsh(El.T @ El).max() ** 2
    return L * np.linalg.norm(S - psd_project(S - gradient(S, core, side, lam) / L))


# (seed, grouping, lam): draws made as test_fit_satisfies_kkt_conditions
# makes them (label draws with the default l = 5) whose fit reported
# "grad_norm" although the exact gradient-mapping norm of the S it returned
# was 3.8, 2.3 and 1.8 times the tolerance: the loop's bound held at its
# last iterate, not at the best one it returns.
_OVERSTATED_STOPS = [(314, False, 1e-3), (396, False, 1e-3), (115, True, 0.1)]


@pytest.mark.parametrize("seed, grouping, lam", _OVERSTATED_STOPS,
                         ids=[str(seed) for seed, _, _ in _OVERSTATED_STOPS])
def test_grad_norm_stop_holds_at_the_returned_matrix(seed, grouping, lam):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    if grouping:
        core, side = _random_grouping_problem(rng, m=m)
    else:
        core, side = _random_labeled_problem(rng, m=m)
    result = fit(core, side, LearnConfig(lam=lam))
    tol = _mapping_tolerance(core, side)
    assert result.report.converged_by == "grad_norm"
    assert result.report.final_grad_norm <= tol
    assert_allclose(_mapping_norm(result.state.S, core, side, lam),
                    result.report.final_grad_norm, rtol=1e-6, atol=1e-3 * tol)


def test_lambda_zero_fit_has_no_false_slope_along_the_null_space():
    """With 20 labels and m = 200, C = El.T @ El is null on 180 directions,
    where the loop's coordinates scale S by up to 1e12 / c_max. Rotating
    and scaling grad J into them turned its rounding into a slope of 4e-5
    there, on which J has no curvature: the loop's objective fell to -2.6e-5
    (J at the returned S: 9.4e-11) and it reported "grad_norm" at 11 times
    the tolerance. Taken through Et, the slope is 1e-17. The label fit at
    lam = 0 is now the closed form, so the loop runs on the same target as
    full-mask pairs, whose pull is taken through the same factor."""
    core, labels = _twenty_label_problem()
    side = _as_full_mask_pairs(labels)
    result = fit(core, side, LearnConfig(lam=0.0))
    assert result.report.converged_by == "grad_norm"
    assert result.report.final_grad_norm <= _mapping_tolerance(core, side)
    assert_allclose(result.report.objective_trace[-1],
                    objective(result.state.S, core, side, 0.0), rtol=1e-3)


def test_rejected_extrapolation_falls_back_to_plain_step(monkeypatch):
    """An extrapolated state whose fixed-point residual exceeds that of the
    last kept state is dropped: the next evaluation is the plain step f from
    the kept state, and the fit still reaches the optimum."""
    core, side = _random_grouping_problem(np.random.default_rng(13), m=5)
    lam = 1e-3
    extrapolate, cut = dictlearn._Anderson.extrapolate, dictlearn._cut_negative
    corrupted, inputs = [], []

    def corrupt_first(self, f, g):
        W = extrapolate(self, f, g)
        if self.size and not corrupted:
            noise = _random_symmetric(np.random.default_rng(0), f.shape[0])
            W = W + 10.0 * (1.0 + np.linalg.norm(f)) * noise
            corrupted.append((f, W))
        return W

    def record(M, **kwargs):
        inputs.append(M)
        return cut(M, **kwargs)

    monkeypatch.setattr(dictlearn._Anderson, "extrapolate", corrupt_first)
    monkeypatch.setattr(dictlearn, "_cut_negative", record)
    result = fit(core, side, LearnConfig(lam=lam))
    (kept, bad), = corrupted
    i = next(k for k, M in enumerate(inputs) if M is bad)
    assert inputs[i + 1] is kept
    trace = result.report.objective_trace
    assert np.all(np.diff(trace) <= 0.0)
    assert result.report.converged_by == "grad_norm"
    _assert_kkt(result.state.S, core, side, lam)


@pytest.mark.parametrize("seed", [413, 592, 1249, 1417])
def test_label_fit_at_zero_lambda_returns_psd_optimum(seed):
    """Draws of test_fit_satisfies_kkt_conditions (labels, lam = 0) whose
    returned S, without a full projection at exit, kept rounding along the
    directions the loop's partial projection removed; the congruence back
    to S magnified it past DictionaryState's PSD tolerance."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    core, side = _random_labeled_problem(rng, m=m, l=int(rng.integers(2, 9)))
    lam = 0.0
    S = fit(core, side, LearnConfig(lam=lam, max_iters=20000)).state.S
    DictionaryState(S=S)
    _assert_kkt(S, core, side, lam)


def _seed_977_problem():
    """The draw of test_fit_satisfies_kkt_conditions (labels) at seed 977."""
    rng = np.random.default_rng(977)
    m = int(rng.integers(2, 7))
    return _random_labeled_problem(rng, m=m, l=int(rng.integers(2, 9)))


def _hundred_label_problem():
    ds = make_blobs(3000, 10, seed=7)
    Z = select_kmeans(ds.X, KMeansConfig(k=200, seed=0))
    core = build_core(ds.X, Z, KernelParams(bandwidth=bandwidth_heuristic(ds.X)))
    return core, SideInformation.from_labels(sample_labeled(ds, 100, 0))


# (problem, bound on ||S||, J the ADMM loop reached on it at lam = 0); None
# where none applies.
_LAMBDA_ZERO_LABEL_DRAWS = [(_seed_977_problem, 1e4, None),
                            (_twenty_label_problem, 1e4, 8.1e-9),
                            (_hundred_label_problem, None, 8.6e-8)]


@pytest.mark.parametrize("problem, norm_bound, loop_objective", _LAMBDA_ZERO_LABEL_DRAWS,
                         ids=["seed977", "m200-l20", "m200-l100"])
def test_lambda_zero_label_fit_is_the_closed_form(monkeypatch, problem, norm_bound,
                                                  loop_objective):
    """A label fit at lam = 0 returns the optimum over the PSD cone in
    closed form, after 0 iterations. On the seed-977 draw the ADMM loop ran
    20,000 iterations to ||S|| = 7.1e13 (J = 3.88, lower only through
    rounding along the null space of C); the closed form has ||S|| = 635
    and J = 5.64. On the m = 200 draws the loop took 3 iterations or more,
    and with 100 labels it clamped a third to a half of the spectrum in
    each projection. There the optimum is unique on the range of C, whose
    smallest eigenvalue is 1.5e-8 of the largest (the next is 1.9e-17), and
    its norm is 2.1e4 (the loop's S: 1.1e5), so no norm bound applies.

    The closed form is a Gram matrix, PSD by construction, so the fit
    eigendecomposes C alone: one eigh and no Cholesky test, which would
    fail on a matrix of rank at most the class count and cost a
    projection."""
    core, side = problem()
    real_eigh, real_dpotrf, calls = np.linalg.eigh, dictlearn.dpotrf, []

    def counting(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", real_eigh))
    monkeypatch.setattr(dictlearn, "dpotrf", counting("dpotrf", real_dpotrf))
    result = fit(core, side, LearnConfig(lam=0.0))
    monkeypatch.undo()
    assert calls == ["eigh"]
    assert result.report.iterations == 0
    assert result.report.converged_by == "grad_norm"
    assert result.report.final_grad_norm <= _mapping_tolerance(core, side)
    _assert_kkt(result.state.S, core, side, 0.0)
    if norm_bound is not None:
        assert np.linalg.norm(result.state.S) < norm_bound
    if loop_objective is not None:
        assert result.report.final_objective <= loop_objective


def test_every_stop_is_confirmed_once(monkeypatch):
    """One block at the end of each iteration confirms every stop, once.

    On this ill-conditioned core (the bandwidth 1e4 times the heuristic) the
    closed form at lam = 0 has ||grad J|| at 2.95 times the tolerance, so
    the fit iterates. Every iteration's bound is within the tolerance while
    the mapping norm of the matrix the fit would return is not, so each
    iteration confirms and goes on, until the objective stalls at iteration
    20: 20 exit evaluations and 20 projections of the returned matrix. A
    second confirmation after the loop, and one of the closed form before
    it, made them 22 and 21."""
    ds = make_blobs(1500, 10, n_classes=3, separation=3.0, seed=9)
    core = build_core(ds.X, select_random(ds.X, 10, 9),
                      KernelParams(1e4 * bandwidth_heuristic(ds.X)))
    side = SideInformation.from_labels(sample_labeled(ds, 5, 10))
    real_exit, real_finish, calls = dictlearn._exit_evaluation, dictlearn._ADMM.finish, []

    def exit_evaluation(*args):
        calls.append("exit")
        return real_exit(*args)

    def finish(*args):
        calls.append("finish")
        return real_finish(*args)

    monkeypatch.setattr(dictlearn, "_exit_evaluation", exit_evaluation)
    monkeypatch.setattr(dictlearn._ADMM, "finish", finish)
    built = _count_pair_factors(monkeypatch)
    report = fit(core, side, LearnConfig(lam=0.0)).report
    monkeypatch.undo()
    tol = _mapping_tolerance(core, side)
    H = supervision._Supervision(core, side).closed_form(core.S0, 0.0)
    assert np.linalg.norm(gradient(H @ H.T, core, side, 0.0)) > 2.9 * tol
    assert calls.count("exit") == 20 and calls.count("finish") == 20
    assert (report.iterations, report.converged_by, len(built)) == (20, "obj_rel", 0)
    assert report.objective_trace.size == 21
    assert report.final_grad_norm > tol
    assert_allclose(report.final_grad_norm, 4.7326e-3, rtol=1e-4)


def test_failed_confirmations_keep_the_pair_factor(monkeypatch):
    """A pair fit factors its p x p system once and keeps it until it
    returns. On this ill-conditioned core (the bandwidth 1e4 times the
    heuristic) the fit confirms a stop 22 times, and 21 of them fail and go
    on, until the objective stalls at iteration 24. Releasing the factor
    before each exit evaluation and rebuilding it on the next x-step made
    22 builds."""
    ds = make_blobs(1500, 10, n_classes=3, separation=3.0, seed=0)
    core = build_core(ds.X, select_random(ds.X, 20, 0),
                      KernelParams(1e4 * bandwidth_heuristic(ds.X)))
    pairs = np.random.default_rng(1).integers(0, 1500, size=(60, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    same = ds.y[pairs[:, 0]] == ds.y[pairs[:, 1]]
    side = SideInformation.from_constraints(pairs[same].tolist(), pairs[~same].tolist())
    built = _count_pair_factors(monkeypatch)
    report = fit(core, side, LearnConfig(lam=0.1)).report
    assert len(built) == 1
    assert (report.iterations, report.converged_by) == (24, "obj_rel")
    assert_allclose(report.final_objective, 26.66398836, rtol=1e-8)


def test_pair_rho_floor_sets_rho_at_a_tiny_pair_share():
    """The grouping draw of test_fit_satisfies_kkt_conditions at seed 108
    and lam = 100 (m = 2) has a pair share s = 1.74e-5 of the Hessian's
    trace, so _PAIR_RHO_SLOPE * sqrt(s) = 0.0167 falls below the floor
    2**-5, and the floor sets rho. It is the only one of the 600 grouping
    draws at seeds 0-199 where the floor binds."""
    lam = 100.0
    rng = np.random.default_rng(108)
    core, side = _random_grouping_problem(rng, m=int(rng.integers(2, 7)))
    sup = supervision._Supervision(core, side)
    # The solver as fit builds it from the prior start.
    value, _ = dictlearn._value_and_gradient(core.S0, core, side, lam, sup)
    solver = dictlearn._ADMM(core.S0, core.S0, value, lam, sup)
    pair_mean = solver.pairs.hessian_trace() / solver.Hs.size
    mean = 2.0 * float(np.mean(solver.Hs)) + pair_mean
    assert pair_mean / mean == pytest.approx(1.74e-5, rel=1e-2)
    assert dictlearn._PAIR_RHO_SLOPE * np.sqrt(pair_mean / mean) < dictlearn._PAIR_RHO_FLOOR
    assert solver.rho == dictlearn._RHO_START * dictlearn._PAIR_RHO_FLOOR * mean


def test_grouping_fit_memory_stays_below_pair_by_entry_array():
    """The pair x-step's p x p system is accumulated over the rows of Z, so a
    fit never holds a p x m^2 array (one would take p * m^2 * 8 bytes)."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(200, 3))
    m = 40
    core = build_core(X, select_random(X, m, seed=5), KernelParams(bandwidth=3.0))
    # Pairs among 100 rows, so the l x l arrays of the dense objective and
    # gradient stay small next to the p x p system.
    upper = np.transpose(np.triu_indices(100, 1))
    pairs = upper[rng.choice(len(upper), size=400, replace=False)]
    must = rng.random(len(pairs)) < 0.5
    side = SideInformation.from_constraints(pairs[must].tolist(), pairs[~must].tolist())
    p = int(np.count_nonzero(np.triu(side.mask)))
    tracemalloc.start()
    try:
        result = fit(core, side, LearnConfig(lam=0.1, max_iters=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.report.iterations > 0
    assert peak < 0.5 * p * m * m * 8


@pytest.fixture(scope="module")
def wide_core():
    """make_blobs 20000 x 10 with m = 100 random landmarks."""
    ds = make_blobs(20000, 10, seed=7)
    core = build_core(ds.X, select_random(ds.X, 100, seed=0),
                      KernelParams(bandwidth=float(bandwidth_heuristic(ds.X))))
    return ds, core


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_label_fit_and_alignment_memory_is_linear_in_l(wide_core):
    """4,000 labels at m = 100: the l x m rows, their QR and m x m matrices,
    no l x l array (one takes 122 MiB; the dense forms peaked at 611 MiB)."""
    ds, core = wide_core
    labels = sample_labeled(ds, 4000, 0)

    def run():
        side = SideInformation.from_labels(labels)
        result = fit(core, side, LearnConfig(lam=0.1))
        return result, alignment_scores(result.state.S, core, side)

    (result, scores), peak = _traced_peak(run)
    assert result.report.iterations > 0
    assert all(np.isfinite(scores))
    assert peak < 32 * 2**20


def test_pair_objective_and_alignment_memory_is_linear_in_l(wide_core):
    """2,000 pairs over 4,000 distinct rows at m = 100: J and the target
    alignment at the prior gather the pairs' rows and centre over O(p + l)
    sums, with no l x l array (one takes 122 MiB). The fit is left out: its
    p x p system alone takes 32 MB."""
    ds, core = wide_core
    rows = np.random.default_rng(0).permutation(ds.n)[:4000].reshape(-1, 2)
    same = ds.y[rows[:, 0]] == ds.y[rows[:, 1]]

    def run():
        side = SideInformation.from_constraints(rows[same].tolist(), rows[~same].tolist())
        return side, objective(core.S0, core, side, 0.1), alignment_scores(core.S0, core, side)

    (side, value, scores), peak = _traced_peak(run)
    assert side.indices.size == 4000 and side.pairs.shape[0] == 2000
    assert np.isfinite(value) and all(np.isfinite(scores))
    assert peak < 32 * 2**20


def test_label_codes_with_gaps_fit_as_their_relabelling():
    """Codes 0 and 3000 on 40 rows at m = 20 give the bits of codes 0 and 1:
    the one-hot matrix has a column per class present, not per code up to
    the largest (that took 140 MiB)."""
    ds = make_blobs(200, 3, n_classes=2, seed=4)
    core = build_core(ds.X, select_random(ds.X, 20, seed=1),
                      KernelParams(bandwidth=float(bandwidth_heuristic(ds.X))))
    labels = sample_labeled(ds, 40, 0)
    plain = SideInformation(kind="labels", indices=labels.indices, codes=labels.labels)
    gapped = SideInformation(kind="labels", indices=labels.indices, codes=3000 * labels.labels)

    def run(side):
        result = fit(core, side, LearnConfig(lam=0.1))
        return result, alignment_scores(result.state.S, core, side)

    (result, scores), peak = _traced_peak(lambda: run(gapped))
    reference, reference_scores = run(plain)
    assert np.array_equal(result.state.S, reference.state.S)
    assert np.array_equal(result.report.objective_trace, reference.report.objective_trace)
    assert scores == reference_scores
    assert peak < 2**20


def test_pair_fit_holds_no_l_by_l_array(wide_core):
    """1,000 random pairs touch about 1,900 rows. The fit (its first 20
    iterations, at m = 40) and its alignment hold the p x p pair system,
    never an l x l array (the dense forms peaked at 166 MiB at m = 100)."""
    ds, _ = wide_core
    core = build_core(ds.X, select_random(ds.X, 40, seed=0),
                      KernelParams(bandwidth=float(bandwidth_heuristic(ds.X))))
    pairs = np.random.default_rng(0).integers(0, ds.n, size=(1000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    same = ds.y[pairs[:, 0]] == ds.y[pairs[:, 1]]

    def run():
        side = SideInformation.from_constraints(pairs[same].tolist(), pairs[~same].tolist())
        result = fit(core, side, LearnConfig(lam=0.1, max_iters=20))
        return side, result, alignment_scores(result.state.S, core, side)

    (side, result, scores), peak = _traced_peak(run)
    l = side.indices.size
    assert l > 1800 and result.report.iterations > 0
    assert all(np.isfinite(scores))
    assert peak < l * l * 8


def test_final_objective_is_j_at_the_returned_matrix():
    """The report and the model's metadata carry J at the returned S. At
    lam = 0 with 100 labels and m = 200, the loop's expansion of J about
    its start once clamped to 0 while J at its returned S was 8.6e-8; the
    fit now returns the closed form, at J of about 4e-16."""
    ds = make_blobs(3000, 10, seed=7)
    Z = select_kmeans(ds.X, KMeansConfig(k=200, seed=0))
    params = KernelParams(bandwidth=bandwidth_heuristic(ds.X))
    core = build_core(ds.X, Z, params)
    side = SideInformation.from_labels(sample_labeled(ds, 100, 0))
    result = fit(core, side, LearnConfig(lam=0.0))
    final = result.report.final_objective
    assert final > 0.0
    assert final == objective(result.state.S, core, side, 0.0)
    model = InductiveModel.from_state(Z, params, result.state, lam=0.0, report=result.report)
    assert model.metadata["solver"]["final_objective"] == final


def test_fit_wraps_linalg_error(monkeypatch):
    rng = np.random.default_rng(30)
    core, side = _random_labeled_problem(rng)

    def broken(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(NumericalError, match="did not converge"):
        fit(core, side, LearnConfig(lam=1e-3))


def _lapack_failing_once(real):
    """A stand-in for a LAPACK wrapper whose first call returns info = 1
    (its last output); later calls go to the real routine. ``fake.calls``
    counts the calls."""
    calls = []

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        return out[:-1] + (1,) if len(calls) == 1 else out

    fake.calls = calls
    return fake


def _eigh_failing_after(failing, real):
    """A stand-in for dictlearn.eigh that raises on its first call after the
    first (failing) call of ``failing``: the projection's full fallback."""
    raised = []

    def fake(M):
        if len(failing.calls) == 1 and not raised:
            raised.append(None)
            raise NumericalError("eigendecomposition failed: Eigenvalues did not converge")
        return real(M)

    return fake


@pytest.mark.parametrize("kind, routine", [("labels", "dsyevr"), ("grouping", "dpotrf"),
                                           ("grouping", "dpotrs")])
def test_lapack_info_raises_and_fails_one_candidate(monkeypatch, kind, routine):
    """A nonzero info from the loop's projection (dsyevr) together with its
    full fallback, its pair-system factorization (dpotrf) or its pair solve
    (dpotrs) raises NumericalError from fit; select_lambda scores that
    candidate -inf and goes on with the rest of the grid."""
    rng = np.random.default_rng(31)
    if kind == "labels":
        core, side = _random_labeled_problem(rng, m=5, l=8)
    else:
        core, side = _random_grouping_problem(rng, m=5)
    # The pair system lives in the supervision module.
    module = dictlearn if kind == "labels" else supervision
    real, real_eigh = getattr(module, routine), dictlearn.eigh
    assert fit(core, side, LearnConfig(lam=1e-3)).report.iterations > 0

    def fail_once():
        fake = _lapack_failing_once(real)
        monkeypatch.setattr(module, routine, fake)
        if routine == "dsyevr":
            monkeypatch.setattr(dictlearn, "eigh", _eigh_failing_after(fake, real_eigh))

    fail_once()
    with pytest.raises(NumericalError, match=f"{routine} info=1"):
        fit(core, side, LearnConfig(lam=1e-3))

    # Only the first call fails: the first candidate runs the loop, so it
    # alone is lost.
    fail_once()
    report = select_lambda(core, side, grid=(1e-3, 1.0, 100.0))
    failed = report.records[0]
    assert failed.criterion == -np.inf
    assert failed.solver is None and failed.S is None
    assert f"{routine} info=1" in failed.failure
    assert all(r.failure is None and r.S is not None for r in report.records[1:])
    assert report.chosen_lambda != 1e-3


def test_failed_partial_projection_falls_back_to_full_one(monkeypatch):
    """A nonzero dsyevr info in the loop's projection hands the matrix to the
    full projection; the fit goes on to the optimum."""
    core, side = _random_labeled_problem(np.random.default_rng(31), m=5, l=8)
    lam = 1e-3
    fake = _lapack_failing_once(dictlearn.dsyevr)
    monkeypatch.setattr(dictlearn, "dsyevr", fake)
    result = fit(core, side, LearnConfig(lam=lam))
    assert len(fake.calls) > 1
    assert result.report.converged_by != "max_iters"
    _assert_kkt(result.state.S, core, side, lam)


# ---------------------------------------------------------------------------
# reports and states


def test_learn_config_validation():
    with pytest.raises(InputError):
        LearnConfig(lam=-0.5)
    with pytest.raises(InputError):
        LearnConfig(max_iters=0)
    with pytest.raises(InputError):
        LearnConfig(obj_rel_tol=-1e-9)
    # A string raised a bare TypeError and True was stored; an infinite
    # obj_rel_tol would stall every iterating fit at iteration 20; an int
    # beyond the float range reads as infinite.
    for kwargs in ({"lam": "1"}, {"obj_rel_tol": "1"}, {"lam": True},
                   {"obj_rel_tol": np.inf}, {"lam": np.inf}, {"lam": 10**400}):
        with pytest.raises(InputError):
            LearnConfig(**kwargs)
    assert type(LearnConfig(lam=np.float32(0.5)).lam) is float


@pytest.mark.parametrize("max_iters", [2.5, 3.0, True])
def test_learn_config_rejects_non_integer_iteration_caps(max_iters):
    """2.5 ran 3 iterations and True ran 1; an integer-valued float is
    rejected too, as a seed of 3.0 is."""
    with pytest.raises(InputError, match="max_iters must be of integer type"):
        LearnConfig(max_iters=max_iters)
    assert type(LearnConfig(max_iters=np.int64(3)).max_iters) is int


def test_dictionary_state_validation():
    with pytest.raises(InputError):
        DictionaryState(S=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        DictionaryState(S=np.diag([1.0, -1.0]))
    state = DictionaryState(S=np.eye(2))
    assert state.S.shape == (2, 2)


def _eye_with(i, j, value):
    S = np.eye(3)
    S[i, j] = value
    return S


@pytest.mark.parametrize("S", [
    _eye_with(0, 0, np.nan),
    _eye_with(0, 1, np.nan),
    _eye_with(0, 0, np.inf),
    np.full((3, 3), np.nan),
], ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal", "all-nan"])
def test_dictionary_state_rejects_non_finite(S):
    """NaN compares False, so a NaN passed the symmetry and PSD tests; an
    infinite diagonal passed after a warning from S - S.T; an all-NaN S
    raised LinAlgError from the eigenvalue check. Each is an InputError,
    raised before any arithmetic on S (warnings are errors here)."""
    with pytest.raises(InputError, match="non-finite"):
        DictionaryState(S=S)


def test_dictionary_state_accepts_rounding_asymmetry_at_large_scale():
    """A PSD (Q * d) @ Q.T with eigenvalues near 1e8 is asymmetric by about
    1e-8 absolute, 1e-16 relative to its entries: rounding, not asymmetry.
    An absolute 1e-10 tolerance rejected it."""
    rng = np.random.default_rng(40)
    Q, _ = np.linalg.qr(rng.normal(size=(50, 50)))
    S = (Q * rng.uniform(0.5e8, 1.5e8, size=50)) @ Q.T
    assert np.abs(S - S.T).max() > 1e-10
    assert DictionaryState(S=S).S is not None


def test_dictionary_state_rejects_asymmetry_at_small_scale():
    """At 1e-12 an S with no symmetry at all differs from S.T by less than
    1e-10 absolute, which an absolute tolerance let through."""
    S = 1e-12 * np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(InputError, match="symmetric"):
        DictionaryState(S=S)


def test_dictionary_state_with_factor_skips_the_eigenvalue_check(monkeypatch):
    """A state given its factor L is PSD by construction: no eigvalsh. Its
    L must be finite with one row per row of S."""
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M))
    L = np.array([[1.0, 0.0], [2.0, 1.0]])
    state = DictionaryState(S=L @ L.T, L=L)
    assert calls == [] and state.L is L
    with pytest.raises(InputError, match="L must be"):
        DictionaryState(S=np.eye(3), L=L)
    with pytest.raises(InputError, match="L must be a finite"):
        DictionaryState(S=L @ L.T, L=np.array([[1.0, 0.0], [np.nan, 1.0]]))


def _no_labels():
    return SideInformation.from_labels(LabelVector(indices=[], labels=[]))


# Every way a fit makes its factor: (core, side, lam, iterations > 0).
_FACTOR_CASES = {
    "certified-closed-form": lambda: (*_random_labeled_problem(np.random.default_rng(30)),
                                      1.0, False),
    "lambda-zero-labels": lambda: (*_random_labeled_problem(np.random.default_rng(30)),
                                   0.0, False),
    "iterating-labels": lambda: (*_random_labeled_problem(np.random.default_rng(30)),
                                 1e-3, True),
    "iterating-pairs": lambda: (*_random_grouping_problem(np.random.default_rng(31)),
                                0.1, True),
    "prior": lambda: (_random_labeled_problem(np.random.default_rng(30))[0],
                      _no_labels(), 1.0, False),
}


@pytest.mark.parametrize("case", list(_FACTOR_CASES))
def test_fit_and_model_never_decompose_the_returned_matrix(monkeypatch, case):
    """fit returns S with its factor, from the decomposition that made S,
    and from_state embeds through it: no eigvalsh anywhere, no eigh of the
    returned S, and none at all in from_state. The prior comes with the
    core's factor R, so a fit that stops there decomposes nothing."""
    core, side, lam, iterates = _FACTOR_CASES[case]()
    calls = []

    def recording(name, real):
        def call(M, *args, **kwargs):
            calls.append((name, np.array(M)))
            return real(M, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigh", recording("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", np.linalg.eigvalsh))
    real_dpotrf, cholesky = dictlearn.dpotrf, []

    def recording_dpotrf(a, **kwargs):
        cholesky.append(a)
        return real_dpotrf(a, **kwargs)

    monkeypatch.setattr(dictlearn, "dpotrf", recording_dpotrf)
    result = fit(core, side, LearnConfig(lam=lam))
    in_fit = len(calls)
    if case == "prior":
        assert result.state.L is core.R
        assert in_fit == 0 and cholesky == []
    model = InductiveModel.from_state(np.zeros((core.m, 2)), KernelParams(bandwidth=1.0),
                                      result.state)
    monkeypatch.undo()
    S, L = result.state.S, result.state.L
    assert (result.report.iterations > 0) == iterates
    assert len(calls) == in_fit
    assert [name for name, _ in calls] == ["eigh"] * in_fit
    # factorize and the eigvalsh check decompose 0.5 * (S + S.T), which is S.
    assert not any(np.array_equal(M, S) for _, M in calls)
    assert np.linalg.norm(model.L @ model.L.T - L @ L.T) <= 1e-12 * np.linalg.norm(S)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), grouping=st.booleans(),
       lam=st.sampled_from((0.0, 1e-3, 1.0, 100.0)))
def test_fit_state_is_its_factor_gram(seed, grouping, lam):
    """Every returned state, drawn as test_fit_satisfies_kkt_conditions
    draws its problems: S is symmetric bit for bit, S = L @ L.T to 1e-12
    relative, and S passes the eigenvalue check a bare S gets."""
    assume(not (grouping and lam == 0.0))
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    if grouping:
        core, side = _random_grouping_problem(rng, m=m)
    else:
        core, side = _random_labeled_problem(rng, m=m, l=int(rng.integers(2, 9)))
    state = fit(core, side, LearnConfig(lam=lam)).state
    S, L = state.S, state.L
    assert np.array_equal(S, S.T)
    assert L.shape[0] == m and L.shape[1] <= m
    assert np.linalg.norm(S - L @ L.T) <= 1e-12 * np.linalg.norm(S)
    DictionaryState(S=S)


def test_solver_report_rejects_rising_trace():
    with pytest.raises(InputError):
        SolverReport(iterations=1, objective_trace=np.array([1.0, 2.0]),
                     final_grad_norm=0.0, final_objective=1.0, converged_by="grad_norm")
    with pytest.raises(InputError):
        SolverReport(iterations=0, objective_trace=np.array([1.0]),
                     final_grad_norm=0.0, final_objective=1.0, converged_by="other")
    with pytest.raises(InputError):
        SolverReport(iterations=0, objective_trace=np.array([1.0]),
                     final_grad_norm=0.0, final_objective=-1.0, converged_by="grad_norm")


# ---------------------------------------------------------------------------
# factorize


def test_factorize_identity():
    L = factorize(np.eye(3))
    assert L.shape == (3, 3)
    assert_allclose(L @ L.T, np.eye(3), atol=1e-10)


def test_factorize_drops_null_directions():
    L = factorize(np.diag([4.0, 0.0]))
    assert L.shape == (2, 1)
    assert_allclose(np.abs(L), [[2.0], [0.0]], atol=1e-12)


def test_factorize_reconstructs_random_psd():
    rng = np.random.default_rng(27)
    for _ in range(10):
        A = rng.normal(size=(5, 3))
        S = A @ A.T  # rank 3 PSD
        L = factorize(S)
        assert L.shape[1] <= 5
        assert np.linalg.norm(L @ L.T - S) <= 1e-8 * np.linalg.norm(S)


def test_factorize_columns_ordered_by_energy():
    rng = np.random.default_rng(28)
    A = rng.normal(size=(6, 6))
    S = A @ A.T
    L = factorize(S)
    energy = np.sum(L * L, axis=0)
    assert np.all(np.diff(energy) <= 1e-12)


def test_factorize_accepts_dictionary_state():
    state = DictionaryState(S=np.diag([2.0, 1.0]))
    L = factorize(state)
    assert_allclose(L @ L.T, np.diag([2.0, 1.0]), atol=1e-12)


def test_factorize_zero_matrix():
    L = factorize(np.zeros((3, 3)))
    assert L.shape == (3, 0)

