"""Tests for weight selection by the two-factor alignment criterion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gnystrom import (
    DEFAULT_LAMBDA_GRID,
    InputError,
    KernelParams,
    LabelVector,
    LambdaRecord,
    LearnConfig,
    NumericalError,
    NystromCore,
    SelectionReport,
    SideInformation,
    alignment_scores,
    build_core,
    double_center,
    fit,
    make_blobs,
    nka_score,
    sample_labeled,
    select_lambda,
    select_random,
    validate_grid,
)
from gnystrom import modelselect


def _blob_problem(seed=0, n=60, m=8, l=10):
    ds = make_blobs(n, d=3, n_classes=2, separation=3.0, seed=seed)
    Z = select_random(ds.X, m, seed=seed)
    core = build_core(ds.X, Z, KernelParams(bandwidth=6.0))
    labeled = sample_labeled(ds, l, seed=seed)
    side = SideInformation.from_labels(labeled)
    return core, side


# ---------------------------------------------------------------------------
# validate_grid


def test_validate_grid_accepts_increasing_positive():
    assert validate_grid((0.1, 1.0, 10.0)) == [0.1, 1.0, 10.0]


def test_validate_grid_rejections():
    with pytest.raises(InputError):
        validate_grid(())
    with pytest.raises(InputError):
        validate_grid((0.0, 1.0))
    with pytest.raises(InputError):
        validate_grid((-1.0, 1.0))
    with pytest.raises(InputError):
        validate_grid((1.0, 1.0))
    with pytest.raises(InputError):
        validate_grid((2.0, 1.0))


def test_default_grid_is_valid():
    assert validate_grid(DEFAULT_LAMBDA_GRID) == list(DEFAULT_LAMBDA_GRID)


# ---------------------------------------------------------------------------
# select_lambda


def test_single_candidate_is_chosen():
    core, side = _blob_problem()
    report = select_lambda(core, side, grid=(0.5,))
    assert report.chosen_lambda == 0.5
    assert len(report.records) == 1


def test_tie_breaks_toward_smallest():
    # The prior already reproduces the target exactly, so every candidate
    # fit stays at the prior and all criteria coincide.
    core = NystromCore(E=np.eye(2), W=np.eye(2), S0=np.eye(2),
                       pinv_rank=2)
    side = SideInformation.from_dense(kind="labels", indices=np.array([0, 1]),
                                      target=np.eye(2))
    report = select_lambda(core, side, grid=(0.01, 1.0, 100.0))
    crits = [r.criterion for r in report.records]
    assert_allclose(crits, [crits[0]] * 3, atol=1e-12)
    assert report.chosen_lambda == 0.01


def test_report_is_complete_and_consistent():
    core, side = _blob_problem(seed=1)
    grid = (1e-3, 1e-1, 10.0)
    report = select_lambda(core, side, grid=grid)
    assert tuple(r.lam for r in report.records) == grid
    assert report.chosen_lambda in grid
    for r in report.records:
        if np.isfinite(r.criterion):
            assert abs(r.rho_prior) <= 1.0
            assert abs(r.rho_align) <= 1.0
            assert_allclose(r.criterion, r.rho_prior * r.rho_align, rtol=1e-12)
    best = max(report.records, key=lambda r: r.criterion)
    assert report.chosen.criterion == best.criterion


def test_chosen_matches_exhaustive_recomputation():
    """Independent oracle: refit per candidate and recompute both centered
    cosines from scratch."""
    core, side = _blob_problem(seed=2)
    grid = (1e-3, 1e-1, 10.0)
    report = select_lambda(core, side, grid=grid)

    def centered_cosine(A, B):
        Ac = double_center(A)
        Bc = double_center(B)
        return float(np.sum(Ac * Bc) / (np.linalg.norm(Ac) * np.linalg.norm(Bc)))

    El = core.E[side.indices]
    best_lam, best_crit = None, -np.inf
    for lam in grid:
        S = fit(core, side, LearnConfig(lam=lam)).state.S
        crit = (centered_cosine(S, core.S0)
                * centered_cosine(El @ S @ El.T, side.target))
        if crit > best_crit:
            best_lam, best_crit = lam, crit
    assert report.chosen_lambda == best_lam
    assert_allclose(report.chosen.criterion, best_crit, atol=1e-9)


def test_criterion_scale_invariant():
    core, side = _blob_problem(seed=3)
    S = fit(core, side, LearnConfig(lam=1.0)).state.S
    base = alignment_scores(S, core, side)
    for a in (1e-3, 1e3):
        scaled = alignment_scores(a * S, core, side)
        assert abs(scaled[0] - base[0]) < 1e-10
        assert abs(scaled[1] - base[1]) < 1e-10


def test_undefined_alignment_scores_minus_infinity():
    # A single-class target is constant, so its centered norm vanishes and
    # the candidate must be reported with criterion -inf instead of raising.
    core, _ = _blob_problem(seed=4)
    lv = LabelVector(indices=np.arange(6), labels=np.zeros(6, dtype=np.int64))
    side = SideInformation.from_labels(lv)
    report = select_lambda(core, side, grid=(0.1, 1.0))
    assert all(r.criterion == -np.inf for r in report.records)
    assert all(np.isnan(r.rho_prior) for r in report.records)
    assert all(r.failure for r in report.records)
    assert report.chosen_lambda == 0.1  # tie-break on the smallest


def _fit_failing_at(monkeypatch, bad_lams):
    """Replace the fit select_lambda calls with one whose eigendecompositions
    raise LinAlgError for the candidates in bad_lams."""
    real_fit = modelselect.fit

    def broken_eigh(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def patched(core, side, cfg, *args, **kwargs):
        if cfg.lam not in bad_lams:
            return real_fit(core, side, cfg, *args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", broken_eigh)
            return real_fit(core, side, cfg, *args, **kwargs)

    monkeypatch.setattr(modelselect, "fit", patched)


def test_failed_fit_scores_minus_infinity(monkeypatch):
    core, side = _blob_problem(seed=8)
    _fit_failing_at(monkeypatch, {1e-3})
    report = select_lambda(core, side, grid=(1e-3, 1e-1, 10.0))
    failed = report.records[0]
    assert failed.criterion == -np.inf
    assert failed.solver is None and failed.S is None
    assert "did not converge" in failed.failure
    assert all(r.failure is None for r in report.records[1:])
    assert report.chosen_lambda != 1e-3
    assert report.chosen.S is not None


def test_every_failed_fit_raises(monkeypatch):
    core, side = _blob_problem(seed=9)
    _fit_failing_at(monkeypatch, {0.1, 1.0})
    with pytest.raises(NumericalError, match="every candidate"):
        select_lambda(core, side, grid=(0.1, 1.0))


def test_select_lambda_requires_supervision():
    core, _ = _blob_problem(seed=5)
    side = SideInformation.from_labels(LabelVector(indices=[], labels=[]))
    with pytest.raises(InputError):
        select_lambda(core, side, grid=(1.0,))


def test_select_lambda_deterministic():
    core, side = _blob_problem(seed=6)
    a = select_lambda(core, side, grid=(0.1, 1.0, 10.0))
    b = select_lambda(core, side, grid=(0.1, 1.0, 10.0))
    assert a.chosen_lambda == b.chosen_lambda
    assert [r.criterion for r in a.records] == [r.criterion for r in b.records]


def test_alignment_scores_match_nka_directly():
    core, side = _blob_problem(seed=7)
    S = fit(core, side, LearnConfig(lam=0.5)).state.S
    rho_prior, rho_align = alignment_scores(S, core, side)
    El = core.E[side.indices]
    assert_allclose(rho_prior, nka_score(S, core.S0), rtol=1e-12)
    assert_allclose(rho_align, nka_score(El @ S @ El.T, side.target), rtol=1e-12)


# ---------------------------------------------------------------------------
# flags on the selection


def _scored(lam, rho_prior, rho_align):
    return LambdaRecord(lam=lam, rho_prior=rho_prior, rho_align=rho_align,
                        criterion=rho_prior * rho_align, solver=None, S=np.eye(1))


def _failed(lam):
    nan = float("nan")
    return LambdaRecord(lam=lam, rho_prior=nan, rho_align=nan, criterion=float("-inf"),
                        solver=None, S=None, failure="diverged")


def test_interior_choice_with_moving_prior_raises_no_flag():
    records = (_scored(0.1, 0.90, 0.6), _scored(1.0, 0.95, 0.8), _scored(10.0, 0.99, 0.5))
    report = SelectionReport(records=records, chosen_lambda=1.0)
    assert not report.chosen_at_edge
    assert not report.prior_is_flat


def test_flags_read_the_scored_candidates_only():
    # The grid runs on past both ends, but its end candidates scored -inf.
    records = (_failed(0.01), _scored(0.1, 0.9, 0.9), _scored(1.0, 0.9 + 5e-7, 0.5),
               _failed(10.0))
    report = SelectionReport(records=records, chosen_lambda=0.1)
    assert report.chosen_at_edge
    assert report.prior_is_flat
    spread = 2 * modelselect.FLAT_PRIOR_SPREAD
    records = (_scored(0.1, 0.9, 0.5), _scored(1.0, 0.9 + spread, 0.9),
               _scored(10.0, 0.9, 0.5))
    report = SelectionReport(records=records, chosen_lambda=1.0)
    assert not report.chosen_at_edge and not report.prior_is_flat
