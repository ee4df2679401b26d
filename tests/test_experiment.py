"""Tests for the end-to-end comparison harness and its config plumbing."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gnystrom import (
    ExperimentConfig,
    InputError,
    KernelParams,
    KMeansConfig,
    LabelVector,
    LearnConfig,
    ParseError,
    RepeatResult,
    RunReport,
    SideInformation,
    build_core,
    emit_report,
    experiment_config_from_file,
    factorize,
    fit,
    make_blobs,
    make_two_moons,
    run_experiment,
    sample_labeled,
    select_kmeans,
    select_random,
    train_linear,
)
from gnystrom import dictlearn, experiment, supervision
from gnystrom._arrays import as_index_array, as_seed
from gnystrom.experiment import (_CONFIG_PARSERS, _CONFIG_RENAMES, default_landmark_count,
                                 read_config)
from gnystrom.modelselect import _score_fit


def _small_blobs(seed=0):
    return make_blobs(80, d=3, n_classes=2, separation=3.0, seed=seed)


# ---------------------------------------------------------------------------
# default_landmark_count


def test_default_landmark_count():
    assert default_landmark_count(10) == 10     # floor of 10
    assert default_landmark_count(50) == 10     # 10% below the floor
    assert default_landmark_count(300) == 30    # plain 10%
    assert default_landmark_count(100_000) == 500  # cap
    assert default_landmark_count(5) == 5       # never more than n


# ---------------------------------------------------------------------------
# ExperimentConfig


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=0)
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, repeats=0)
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, m=0)
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, landmark_method="grid")
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, bandwidth="auto")
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, bandwidth=-1.0)
    # Non-finite weights and bandwidths fail here, before any landmark or
    # core is built, as an infinite grid candidate does.
    for bad in (np.inf, np.nan):
        with pytest.raises(InputError):
            ExperimentConfig(labeled_per_run=4, lam=bad)
        with pytest.raises(InputError):
            ExperimentConfig(labeled_per_run=4, bandwidth=bad)
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, lambda_grid=(0.1, np.inf))
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, lam=1.0, lambda_grid=(0.1, 1.0))
    with pytest.raises(InputError):
        ExperimentConfig(labeled_per_run=4, lambda_grid=(1.0, 0.1))


@pytest.mark.parametrize("field", ["labeled_per_run", "repeats", "m"])
def test_config_rejects_non_integer_counts(field):
    """Each was accepted: m = 2.5 and labeled_per_run = 2.5 failed later
    with a raw TypeError, repeats = 1.5 failed at the seed draw."""
    kwargs = {"labeled_per_run": 4, field: 2.5}
    with pytest.raises(InputError, match=f"{field} must be of integer type"):
        ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# run_experiment


def test_run_is_deterministic():
    ds = _small_blobs()
    cfg = ExperimentConfig(labeled_per_run=10, repeats=2, seed=5, m=8, lam=1.0)
    a = run_experiment(ds, cfg, "generalized")
    b = run_experiment(ds, cfg, "generalized")
    assert np.array_equal(a.errors, b.errors)
    assert a.chosen_lambdas == b.chosen_lambdas
    assert [r.rho_prior for r in a.results] == [r.rho_prior for r in b.results]


def test_report_fields_well_formed():
    ds = _small_blobs(seed=1)
    cfg = ExperimentConfig(labeled_per_run=10, repeats=3, seed=0, m=8, lam=1.0)
    report = run_experiment(ds, cfg, "generalized")
    assert report.method == "generalized"
    assert report.errors.shape == (3,)
    assert np.all((report.errors >= 0.0) & (report.errors <= 1.0))
    assert report.std_error >= 0.0
    assert_allclose(report.mean_error, report.errors.mean())
    for phase in ("landmarks", "core", "fit", "classify"):
        assert report.phase_seconds[phase] >= 0.0
    assert report.chosen_lambdas == [1.0, 1.0, 1.0]


def test_fixed_lambda_builds_supervision_once_per_repeat(monkeypatch):
    """The fit and its alignment scores share one supervision build, and the
    errors equal those of building it separately for each, bit for bit."""
    ds = _small_blobs(seed=8)
    cfg = ExperimentConfig(labeled_per_run=12, repeats=3, seed=9, m=8, lam=0.5)
    builds = []
    real_init = supervision._Supervision.__init__

    def counting_init(self, core, side):
        builds.append(1)
        real_init(self, core, side)

    monkeypatch.setattr(supervision._Supervision, "__init__", counting_init)
    shared = run_experiment(ds, cfg, "generalized")
    assert len(builds) == cfg.repeats

    # The same run with the fit and the scores each building their own.
    sides = []

    def own_fit(core, side, learn, _supervision):
        sides.append(side)
        return fit(core, side, learn)

    monkeypatch.setattr(experiment, "fit", own_fit)
    monkeypatch.setattr(experiment, "_score_fit", lambda core, lam, result, _: (
        _score_fit(core, lam, result, supervision._Supervision(core, sides[-1]))))
    separate = run_experiment(ds, cfg, "generalized")
    assert np.array_equal(shared.errors, separate.errors)
    assert shared.results == separate.results


def test_baseline_ignores_labels_in_dictionary():
    ds = _small_blobs(seed=2)
    cfg = ExperimentConfig(labeled_per_run=10, repeats=2, seed=3, m=8)
    report = run_experiment(ds, cfg, "nystrom_baseline")
    assert report.chosen_lambdas == [None, None]
    assert all(np.isnan(r.rho_prior) for r in report.results)


def test_baseline_record_carries_its_factor(monkeypatch):
    """The baseline's record carries the core's factor R of S0, so the
    pipeline eigendecomposes W alone, once, and run_experiment embeds
    through each record's L without factoring S0."""
    ds = _small_blobs(seed=2)
    cfg = ExperimentConfig(labeled_per_run=10, repeats=2, seed=3, m=8)
    real_eigh, decomposed = np.linalg.eigh, []

    def recording_eigh(M, *args, **kwargs):
        decomposed.append(np.array(M))
        return real_eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    run = experiment.pipeline(ds.X, None, cfg, 5)
    monkeypatch.undo()
    assert len(decomposed) == 1 and np.array_equal(decomposed[0], run.core.W)
    assert run.record.S is run.core.S0
    assert run.record.L is run.core.R

    factored = []
    for module in (experiment, dictlearn):
        monkeypatch.setattr(module, "factorize",
                            lambda S: factored.append(S) or factorize(S), raising=False)
    assert run_experiment(ds, cfg, "nystrom_baseline").errors.size == cfg.repeats
    assert factored == []


def test_huge_lambda_matches_baseline_per_repeat():
    """With an overwhelming prior pull the learned dictionary collapses to
    the pseudo-inverse, so both methods classify identically on each split."""
    ds = _small_blobs(seed=3)
    base_cfg = ExperimentConfig(labeled_per_run=10, repeats=3, seed=11, m=8)
    gen_cfg = ExperimentConfig(labeled_per_run=10, repeats=3, seed=11, m=8, lam=1e8)
    base = run_experiment(ds, base_cfg, "nystrom_baseline")
    gen = run_experiment(ds, gen_cfg, "generalized")
    for be, ge in zip(base.errors, gen.errors):
        assert abs(be - ge) <= 1.0 / 500.0 + 1e-12


def test_empty_side_information_equals_baseline_pipeline():
    """Learning with no supervised rows returns the prior, so the downstream
    classifier sees identical features either way."""
    ds = _small_blobs(seed=4)
    Z = select_random(ds.X, 8, seed=0)
    core = build_core(ds.X, Z, KernelParams(bandwidth=float(np.var(ds.X) * ds.d * 2)))
    empty = SideInformation.from_labels(LabelVector(indices=[], labels=[]))
    S_learned = fit(core, empty, LearnConfig(lam=1.0)).state.S

    labeled = sample_labeled(ds, 10, seed=1)
    test_mask = np.ones(ds.n, dtype=bool)
    test_mask[labeled.indices] = False

    def pipeline_error(S):
        G = core.E @ factorize(S)
        clf = train_linear(G[labeled.indices], labeled.labels)
        return float(np.mean(clf.predict(G[test_mask]) != ds.y[test_mask]))

    assert pipeline_error(S_learned) == pipeline_error(core.S0)


def test_grid_selection_records_lambdas():
    ds = _small_blobs(seed=5)
    cfg = ExperimentConfig(labeled_per_run=10, repeats=2, seed=2, m=8,
                           lambda_grid=(0.1, 1.0, 10.0))
    report = run_experiment(ds, cfg, "generalized")
    for lam, r in zip(report.chosen_lambdas, report.results):
        assert lam in (0.1, 1.0, 10.0)
        assert np.isfinite(r.rho_prior) and np.isfinite(r.rho_align)


def test_run_experiment_input_checks():
    ds = _small_blobs(seed=6)
    cfg = ExperimentConfig(labeled_per_run=10, m=8)
    with pytest.raises(InputError):
        run_experiment(ds, cfg, "other")
    with pytest.raises(InputError):
        run_experiment(ds, ExperimentConfig(labeled_per_run=10, m=500), "generalized")
    with pytest.raises(InputError):
        run_experiment(ds, ExperimentConfig(labeled_per_run=80, m=8), "generalized")


def test_random_landmarks_also_run():
    ds = _small_blobs(seed=7)
    cfg = ExperimentConfig(labeled_per_run=10, repeats=1, seed=4, m=8,
                           landmark_method="random", lam=1.0)
    report = run_experiment(ds, cfg, "generalized")
    assert 0.0 <= report.errors[0] <= 1.0


# ---------------------------------------------------------------------------
# emit_report


def _tiny_report():
    results = (
        RepeatResult(error=0.10, chosen_lambda=1.0, rho_prior=0.9, rho_align=0.8),
        RepeatResult(error=0.20, chosen_lambda=0.1, rho_prior=0.7, rho_align=0.6),
    )
    return RunReport(dataset="toy", method="generalized", results=results,
                     phase_seconds={"landmarks": 0.0, "core": 0.1,
                                    "fit": 0.2, "classify": 0.3})


def test_emit_csv_rows():
    out = emit_report(_tiny_report(), format="csv")
    lines = out.strip().split("\n")
    assert lines[0] == "repeat,error,lambda,rho_prior,rho_align"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.10
    assert float(first[2]) == 1.0


def test_emit_text_table_matches_csv_statistics():
    report = _tiny_report()
    csv_out = emit_report(report, format="csv")
    errors = [float(row.split(",")[1]) for row in csv_out.strip().split("\n")[1:]]
    mean = float(np.mean(errors))
    std = float(np.std(errors, ddof=1))
    assert_allclose(mean, report.mean_error, rtol=1e-15)
    text = emit_report(report, format="text_table")
    assert f"{100 * mean:.2f}+-{100 * std:.2f}" in text
    assert "toy" in text and "generalized" in text


def test_emit_report_rejects_empty_and_unknown():
    report = RunReport(dataset="x", method="generalized", results=(),
                       phase_seconds={})
    with pytest.raises(InputError):
        emit_report(report)
    with pytest.raises(InputError):
        emit_report(_tiny_report(), format="json")


# ---------------------------------------------------------------------------
# config files


def test_read_config_basic(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("# comment\nlabeled_per_run = 10\nseed=3  # inline\n\nm = 8\n")
    assert read_config(f) == {"labeled_per_run": "10", "seed": "3", "m": "8"}


def test_read_config_malformed_line(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("labeled_per_run\n")
    with pytest.raises(ParseError) as exc:
        read_config(f)
    assert "line 1" in str(exc.value)


def test_read_config_repeated_key(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("labeled_per_run = 20\nlambda = 1.0\nlambda = 10\n")
    with pytest.raises(ParseError) as exc:
        read_config(f)
    assert "line 3" in str(exc.value) and "'lambda'" in str(exc.value)
    with pytest.raises(ParseError):
        experiment_config_from_file(f)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_every_user_seed_is_checked(seed):
    """A seed that is not a nonnegative integer raises InputError wherever
    the library makes a generator from it, not numpy's ValueError."""
    ds = _small_blobs()
    calls = [lambda: run_experiment(ds, ExperimentConfig(labeled_per_run=10, seed=seed),
                                    "nystrom_baseline"),
             lambda: select_kmeans(ds.X, KMeansConfig(k=3, seed=seed)),
             lambda: sample_labeled(ds, 10, seed),
             lambda: select_random(ds.X, 3, seed),
             lambda: make_blobs(20, 2, seed=seed),
             lambda: make_two_moons(20, seed=seed)]
    for call in calls:
        with pytest.raises(InputError, match="^seed must be"):
            call()


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
def test_seeds_from_2_63_are_accepted(seed):
    """Seeds that do not fit an intp are still nonnegative: they are checked
    before any cast, and reach numpy's generator unchanged."""
    assert as_seed(seed) == seed
    assert make_blobs(20, 2, seed=seed).X.shape == (20, 2)
    with pytest.raises(InputError, match="^indices must be below 2"):
        as_index_array(np.array([seed], dtype=np.uint64))


def test_experiment_config_from_file(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text(
        "labeled_per_run = 20\n"
        "repeats = 10\n"
        "seed = 0\n"
        "m = 20\n"
        "landmark_method = kmeans\n"
        "bandwidth = heuristic\n"
        "lambda = 1.0\n"
    )
    cfg = experiment_config_from_file(f)
    assert cfg.labeled_per_run == 20
    assert cfg.repeats == 10
    assert cfg.m == 20
    assert cfg.lam == 1.0
    assert cfg.bandwidth == "heuristic"


def test_experiment_config_grid(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("labeled_per_run = 10\nlambda_grid = 0.001,0.1,10\n")
    cfg = experiment_config_from_file(f)
    assert cfg.lambda_grid == (0.001, 0.1, 10.0)


def test_experiment_config_unknown_key(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("labeled_per_run = 10\ncolor = blue\n")
    with pytest.raises(InputError):
        experiment_config_from_file(f)


def test_experiment_config_requires_labeled(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("repeats = 3\n")
    with pytest.raises(InputError):
        experiment_config_from_file(f)


def test_experiment_config_bad_value(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("labeled_per_run = many\n")
    with pytest.raises(InputError):
        experiment_config_from_file(f)


def test_config_keys_match_readme_and_fields():
    """The README's config table, the parsers and ExperimentConfig's fields
    name the same settings, so none of the three can drift from the others."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE))
    assert documented == set(_CONFIG_PARSERS)
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert {_CONFIG_RENAMES.get(key, key) for key in _CONFIG_PARSERS} == fields
