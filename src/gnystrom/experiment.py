"""End-to-end comparison harness: baseline dictionary vs learned dictionary.

One run draws a balanced labeled subset, then :func:`pipeline` selects
landmarks, builds the kernel blocks and, for the generalized method, learns
the dictionary from the labeled rows; a linear classifier is trained on the
embeddings of the labeled rows and scored on everything else. The CLI's
``fit`` and ``select-lambda`` run the same :func:`pipeline`. Repeats differ
only in their derived seeds, so a report is reproducible from (dataset,
config, seed); wall-clock phase timings are the one field exempt from that
guarantee.
"""

import time
from dataclasses import dataclass

import numpy as np

from ._arrays import as_count, as_seed
from .datasets import Dataset, sample_labeled
from .dictlearn import LearnConfig, fit
from .errors import InputError, ParseError
from .kernels import KernelParams, bandwidth_heuristic
from .landmarks import (KMeansConfig, LANDMARK_METHODS, LandmarkSet, select_kmeans,
                        select_random)
from .linear_svm import train_linear
from .modelselect import (LambdaRecord, SelectionReport, _score_fit, select_lambda,
                          validate_grid)
from .nystrom import NystromCore, build_core
from .supervision import SideInformation, _Supervision

EXPERIMENT_METHODS = ("nystrom_baseline", "generalized")
REPORT_FORMATS = ("text_table", "csv")
PHASES = ("landmarks", "core", "fit", "classify")

_MAX_LANDMARKS_DEFAULT = 500


def default_landmark_count(n):
    """Default m: a tenth of the data, at least 10, at most 500 (and never
    more than n)."""
    return int(min(max(10, round(0.10 * n)), _MAX_LANDMARKS_DEFAULT, n))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one experiment.

    ``bandwidth`` is either the string "heuristic" or a positive number.
    ``m = None`` applies :func:`default_landmark_count`. For the
    generalized method exactly one of ``lam`` (fixed weight) or
    ``lambda_grid`` (criterion-based selection) may be set; with neither,
    the weight defaults to 1.0. The core and the classifier take the
    defaults of :func:`build_core` and :func:`train_linear`.
    """

    labeled_per_run: int
    repeats: int = 1
    seed: int = 0
    m: int | None = None
    landmark_method: str = "kmeans"
    bandwidth: float | str = "heuristic"
    lam: float | None = None
    lambda_grid: tuple | None = None

    def __post_init__(self):
        for name in ("labeled_per_run", "repeats"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.m is not None:
            object.__setattr__(self, "m", as_count(self.m, "m"))
        if self.landmark_method not in LANDMARK_METHODS:
            raise InputError(f"unknown landmark method {self.landmark_method!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "heuristic":
                raise InputError(f"bandwidth must be 'heuristic' or a number, "
                                 f"got {self.bandwidth!r}")
        else:
            # The core's and the fit's own checks, made before any work.
            KernelParams(bandwidth=self.bandwidth)
        if self.lam is not None and self.lambda_grid is not None:
            raise InputError("set either lam or lambda_grid, not both")
        if self.lam is not None:
            LearnConfig(lam=self.lam)
        if self.lambda_grid is not None:
            object.__setattr__(self, "lambda_grid",
                               tuple(validate_grid(self.lambda_grid)))


@dataclass(frozen=True)
class RepeatResult:
    """Per-repeat outcome; alignment factors are NaN where unavailable
    (baseline runs, degenerate alignment)."""

    error: float
    chosen_lambda: float | None
    rho_prior: float
    rho_align: float


@dataclass(frozen=True)
class RunReport:
    dataset: str
    method: str
    results: tuple
    phase_seconds: dict

    @property
    def errors(self):
        return np.asarray([r.error for r in self.results])

    @property
    def mean_error(self):
        return float(self.errors.mean())

    @property
    def std_error(self):
        errs = self.errors
        return float(errs.std(ddof=1)) if errs.size > 1 else 0.0

    @property
    def chosen_lambdas(self):
        return [r.chosen_lambda for r in self.results]


@dataclass(frozen=True)
class PipelineResult:
    """What :func:`pipeline` built.

    ``record`` describes the dictionary in use: the chosen candidate of a
    grid, the fit at a fixed weight, or for the baseline a record with
    ``lam = None``, NaN scores, no solver report, ``S = core.S0`` and
    ``L = core.R``, the prior's factor from the core's one decomposition
    of W.
    ``selection`` is the grid's report (None without a grid), and
    ``seconds`` maps the phases "landmarks", "core" and "fit" to their
    wall-clock time.
    """

    landmarks: LandmarkSet
    kernel: KernelParams
    core: NystromCore
    record: LambdaRecord
    selection: SelectionReport | None
    seconds: dict


def _select_landmarks(X, method, m, seed):
    """m landmarks of X by ``method`` (one of LANDMARK_METHODS)."""
    if method == "kmeans":
        return select_kmeans(X, KMeansConfig(k=m, seed=seed))
    return select_random(X, m, seed)


def pipeline(X, side, cfg, landmark_seed):
    """Landmarks, core, then fit or select, as the config says.

    Resolves m (:func:`default_landmark_count` when ``cfg.m`` is None),
    selects the landmarks with ``landmark_seed``, resolves the bandwidth and
    builds the core. ``side = None`` keeps the baseline S = core.S0 with the
    core's factor L = core.R, so every record carries its L and S0 is not
    decomposed; with side information,
    ``cfg.lambda_grid`` runs :func:`select_lambda`, and otherwise one
    :func:`fit` runs at ``cfg.lam`` (1.0 when unset), whose NumericalError
    propagates; the fit and its alignment scores share one supervision
    build.
    """
    m = cfg.m if cfg.m is not None else default_landmark_count(len(X))
    t0 = time.perf_counter()
    Z = _select_landmarks(X, cfg.landmark_method, m, landmark_seed)
    t1 = time.perf_counter()
    params = KernelParams(bandwidth=bandwidth_heuristic(X) if cfg.bandwidth == "heuristic"
                          else cfg.bandwidth)
    core = build_core(X, Z, params)
    t2 = time.perf_counter()
    selection = None
    if side is None:
        nan = float("nan")
        record = LambdaRecord(lam=None, rho_prior=nan, rho_align=nan, criterion=nan,
                              solver=None, S=core.S0, L=core.R)
    elif cfg.lambda_grid is not None:
        selection = select_lambda(core, side, cfg.lambda_grid)
        record = selection.chosen
    else:
        lam = cfg.lam if cfg.lam is not None else 1.0
        supervision = _Supervision(core, side)
        result = fit(core, side, LearnConfig(lam=lam), _supervision=supervision)
        record = _score_fit(core, lam, result, supervision)
    t3 = time.perf_counter()
    return PipelineResult(landmarks=Z, kernel=params, core=core, record=record,
                          selection=selection,
                          seconds={"landmarks": t1 - t0, "core": t2 - t1, "fit": t3 - t2})


def _repeat_draws(ds, cfg):
    """The labeled rows and the landmark seed of each of ``cfg.repeats``
    repeats, in order, from the label and landmark seeds that ``cfg.seed``
    derives: words 2 i and 2 i + 1 of its SeedSequence's state for repeat i.
    """
    seeds = np.random.SeedSequence(as_seed(cfg.seed)).generate_state(2 * cfg.repeats)
    for label_seed, landmark_seed in seeds.reshape(-1, 2):
        yield sample_labeled(ds, cfg.labeled_per_run, int(label_seed)), int(landmark_seed)


def run_experiment(ds, cfg, method):
    """Run ``cfg.repeats`` train/evaluate cycles of one method."""
    if method not in EXPERIMENT_METHODS:
        raise InputError(f"unknown experiment method {method!r}")
    if not isinstance(ds, Dataset):
        raise InputError("ds must be a Dataset")
    if cfg.labeled_per_run >= ds.n:
        raise InputError("labeled_per_run must leave at least one test sample")
    phase_totals = dict.fromkeys(PHASES, 0.0)
    results = []
    for labeled, landmark_seed in _repeat_draws(ds, cfg):
        side = SideInformation.from_labels(labeled) if method == "generalized" else None
        run = pipeline(ds.X, side, cfg, landmark_seed)

        t0 = time.perf_counter()
        G = run.core.E @ run.record.L
        model = train_linear(G[labeled.indices], labeled.labels)
        test_mask = np.ones(ds.n, dtype=bool)
        test_mask[labeled.indices] = False
        predictions = model.predict(G[test_mask])
        error = float(np.mean(predictions != ds.y[test_mask]))

        for phase, seconds in run.seconds.items():
            phase_totals[phase] += seconds
        phase_totals["classify"] += time.perf_counter() - t0
        results.append(RepeatResult(error=error, chosen_lambda=run.record.lam,
                                    rho_prior=run.record.rho_prior,
                                    rho_align=run.record.rho_align))
    phase_seconds = {k: v / cfg.repeats for k, v in phase_totals.items()}
    return RunReport(dataset=ds.name, method=method, results=tuple(results),
                     phase_seconds=phase_seconds)


def emit_report(report, format="text_table"):
    """Render a RunReport as a text table or as one CSV row per repeat."""
    if format not in REPORT_FORMATS:
        raise InputError(f"unknown report format {format!r}")
    if not report.results:
        raise InputError("report has no repeats")
    if format == "csv":
        lines = ["repeat,error,lambda,rho_prior,rho_align"]
        for idx, r in enumerate(report.results):
            lam = "" if r.chosen_lambda is None else repr(float(r.chosen_lambda))
            lines.append(f"{idx},{r.error!r},{lam},{r.rho_prior!r},{r.rho_align!r}")
        return "\n".join(lines) + "\n"
    timing = " ".join(f"{phase}={report.phase_seconds[phase]:.3f}"
                      for phase in PHASES)
    name_w = max(len(report.dataset), len("dataset"))
    method_w = max(len(report.method), len("time (s)"))
    lines = [
        f"{'dataset':<{name_w}}  {'method':<{method_w}}  error (%)",
        f"{report.dataset:<{name_w}}  {report.method:<{method_w}}  "
        f"{100.0 * report.mean_error:.2f}+-{100.0 * report.std_error:.2f}",
        f"{'':<{name_w}}  {'time (s)':<{method_w}}  {timing}",
    ]
    return "\n".join(lines) + "\n"


def read_config(path):
    """Parse a flat ``key = value`` file; '#' starts a comment. A malformed
    line or a key set twice raises ParseError with the line number."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ParseError("expected 'key = value'", path=str(path), line=lineno)
            if key in out:
                raise ParseError(f"key {key!r} is set twice", path=str(path), line=lineno)
            out[key] = value
    return out


_CONFIG_PARSERS = {
    "labeled_per_run": int,
    "repeats": int,
    "seed": int,
    "m": int,
    "landmark_method": str,
    "bandwidth": lambda v: v if v == "heuristic" else float(v),
    "lambda": float,
    "lambda_grid": lambda v: tuple(float(tok) for tok in v.split(",") if tok.strip()),
}

# Config keys spell the weight out as "lambda"; the dataclass field avoids
# the Python keyword.
_CONFIG_RENAMES = {"lambda": "lam"}


def _parse_value(key, value, source):
    """Parse one config value; an unknown key or a malformed value raises
    InputError naming ``source`` (the file or the command-line flag)."""
    if key not in _CONFIG_PARSERS:
        raise InputError(f"{source}: unknown config key {key!r}")
    try:
        return _CONFIG_PARSERS[key](value)
    except ValueError:
        raise InputError(f"{source}: bad value {value!r} for key {key!r}") from None


def experiment_config_from_file(path):
    """Build an ExperimentConfig from a flat key-value file."""
    raw = read_config(path)
    kwargs = {_CONFIG_RENAMES.get(key, key): _parse_value(key, value, path)
              for key, value in raw.items()}
    if "labeled_per_run" not in kwargs:
        raise InputError(f"{path}: config must set labeled_per_run")
    return ExperimentConfig(**kwargs)
