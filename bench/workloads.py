"""The benchmark's three workloads: seeded inputs, one unit of work, checks.

A workload's set-up builds a list of problems from the run seed: datasets,
side information (labels or pair constraints) and landmark seeds. A unit of
work solves one problem through gnystrom's public API, the way the README
quick start and ``run_experiment`` do, and returns what the runner needs:
times taken from outside the library, the solver reports, and the outputs
that the quality metrics and checks are computed from. Library functions are
looked up on the package at call time (``gn.fit``, not a name imported
here), so a traced pass sees every call.

How many problems a run solves follows from ``--seconds`` alone, never from
the speed of the code, so two versions of the library run at one seed solve
the same problems. Why each workload exists, and which metric each layer
should move, is in README.md next to this file.
"""

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAMBDA_GRID = (1e-3, 1e-1, 1.0, 10.0, 1e3)  # configs/moons400.cfg
SEED_STRIDE = 100_000  # between the dataset seeds of successive problems

clock = time.perf_counter


class Ops:
    """Counts library calls, and calls whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def fail(self, message):
        self.failed += 1
        self.messages.append(message)

    def check(self, ok, message):
        if not ok:
            self.fail(message)


@dataclass
class Problem:
    ds: object                  # Dataset the problem is posed on
    side: object                # SideInformation
    landmark_seed: int
    labels: object = None       # LabelVector of the supervised rows, if any


@dataclass
class Unit:
    """Measurements and outputs of one unit of work."""

    wall_s: float
    fit_s: float
    reports: list               # SolverReport of every solver run
    fits: list                  # (S, core, side, lam) of every solver run
    wrong: int = 0              # misclassified scored rows
    scored: int = 0
    e_bytes: int = 0
    candidates: int = 0         # lambda candidates scored by select_lambda
    phases: dict = field(default_factory=dict)
    batch_s: list = field(default_factory=list)
    model_bytes: int = 0
    objective: float = 0.0      # filled in by the runner from ``fits``
    stationarity: float = 0.0


class Workload:
    """A run solves ``problems(seconds, trace)`` problems, each once (a
    traced run: once plain and once traced). ``unit_s`` is the time of one
    unit of the unchanged library on a 2-core x86_64 machine with one BLAS
    thread, so a run measures about ``--seconds``. The quality metrics cover
    the first ``quality_units`` problems, so they repeat exactly for a seed."""

    name = ""
    dataset_seed = 0
    unit_s = 1.0
    quality_units = 1

    def problems(self, seconds, trace):
        passes = 2 if trace else 1
        return max(self.quality_units, round(seconds / (passes * self.unit_s)))

    def setup(self, gn, seed, count):
        # Problem i takes its label and landmark seeds as run_experiment
        # takes repeat i's; generate_state's first words do not depend on
        # how many are asked for.
        seeds = np.random.SeedSequence(seed).generate_state(2 * count)
        return [self.problem(gn, ds, int(seeds[2 * i]), int(seeds[2 * i + 1]))
                for i, ds in enumerate(self.datasets(gn, seed, count))]

    def datasets(self, gn, seed, count):
        """One dataset per problem, so a run averages over datasets too."""
        return [self.dataset(gn, self.dataset_seed + seed + SEED_STRIDE * i)
                for i in range(count)]

    def problem(self, gn, ds, side_seed, landmark_seed):
        labels = gn.sample_labeled(ds, self.labeled, side_seed)
        return Problem(ds=ds, side=gn.SideInformation.from_labels(labels),
                       landmark_seed=landmark_seed, labels=labels)

    def core(self, gn, ops, p):
        params = gn.KernelParams(bandwidth=ops.call(gn.bandwidth_heuristic, p.ds.X))
        Z = ops.call(gn.select_kmeans, p.ds.X, gn.KMeansConfig(k=self.m, seed=p.landmark_seed))
        return params, Z, ops.call(gn.build_core, p.ds.X, Z, params)


class SelectMoons(Workload):
    """configs/moons400.cfg: labels-kind solver at m=25 over a 5-point grid.
    Every problem is posed on the config's dataset (seed 3); at run seed s,
    problems 0-4 are the config's five repeats at seed s."""

    name = "select-moons"
    n, m, labeled = 400, 25, 16
    dataset_seed = 3
    unit_s, quality_units = 2.0, 5

    def datasets(self, gn, seed, count):
        return [gn.make_two_moons(self.n, noise=0.1, seed=self.dataset_seed)] * count

    def unit(self, gn, ops, inputs, index, workdir):
        p = inputs[index]
        test = np.ones(p.ds.n, dtype=bool)
        test[p.labels.indices] = False
        t0 = clock()
        _, _, core = self.core(gn, ops, p)
        t1 = clock()
        selection = ops.call(gn.select_lambda, core, p.side, LAMBDA_GRID)
        t2 = clock()
        L = ops.call(gn.factorize, selection.chosen.S)
        G = core.E @ L
        model = ops.call(gn.train_linear, G[p.labels.indices], p.labels.labels)
        predictions = ops.call(model.predict, G[test])
        t3 = clock()
        ops.check(selection.chosen_lambda in LAMBDA_GRID,
                  f"chosen lambda {selection.chosen_lambda!r} is not in the grid")
        truth = p.ds.y[test]
        ops.check(predictions.shape == truth.shape,
                  f"{predictions.shape[0]} predictions for {truth.shape[0]} rows")
        return Unit(wall_s=t3 - t0, fit_s=t2 - t1,
                    reports=[r.solver for r in selection.records],
                    fits=[(r.S, core, p.side, r.lam) for r in selection.records],
                    wrong=int(np.count_nonzero(predictions != truth)),
                    scored=int(truth.shape[0]), e_bytes=core.E.nbytes,
                    candidates=len(selection.records))


class FitPairs(Workload):
    """Grouping-kind (masked) solver at m=60 from random must/cannot pairs."""

    name = "fit-pairs"
    n, d, m, pairs, lam = 3000, 10, 60, 100, 0.1
    dataset_seed = 7
    unit_s = 4.0

    def dataset(self, gn, seed):
        return gn.make_blobs(self.n, self.d, n_classes=2, separation=2.0, seed=seed)

    def problem(self, gn, ds, side_seed, landmark_seed):
        pairs = np.random.default_rng(side_seed).integers(0, ds.n, size=(self.pairs, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        same = ds.y[pairs[:, 0]] == ds.y[pairs[:, 1]]
        side = gn.SideInformation.from_constraints(pairs[same].tolist(), pairs[~same].tolist())
        return Problem(ds=ds, side=side, landmark_seed=landmark_seed)

    def unit(self, gn, ops, inputs, index, workdir):
        p = inputs[index]
        t0 = clock()
        _, _, core = self.core(gn, ops, p)
        t1 = clock()
        result = ops.call(gn.fit, core, p.side, gn.LearnConfig(lam=self.lam))
        t2 = clock()
        L = ops.call(gn.factorize, result.state)
        t3 = clock()
        ops.check(L.shape[0] == self.m, f"factor has {L.shape[0]} rows, expected {self.m}")
        return Unit(wall_s=t3 - t0, fit_s=t2 - t1, reports=[result.report],
                    fits=[(result.state.S, core, p.side, self.lam)],
                    e_bytes=core.E.nbytes)


class TrainServe(Workload):
    """n-scaled layers: fit at a lambda where the closed form is already PSD,
    then save, load and score a held-out stream in batches."""

    name = "train-serve"
    n, d, classes, m, labeled, lam = 8000, 20, 4, 200, 200, 1e3
    stream, batch = 100_000, 2000
    dataset_seed = 7
    unit_s = 2.4

    def dataset(self, gn, seed):
        return gn.make_blobs(self.n, self.d, n_classes=self.classes, separation=3.0, seed=seed)

    def setup(self, gn, seed, count):
        # The class centres depend only on (d, classes, separation), so a
        # stream drawn with another seed comes from the same distribution.
        stream = gn.make_blobs(self.stream, self.d, n_classes=self.classes, separation=3.0,
                               seed=self.dataset_seed + seed + SEED_STRIDE * count)
        return stream, super().setup(gn, seed, count)

    def unit(self, gn, ops, inputs, index, workdir):
        stream, problems = inputs
        p = problems[index]
        path = Path(workdir) / f"{self.name}.gnym"
        t0 = clock()
        params, Z, core = self.core(gn, ops, p)
        t1 = clock()
        result = ops.call(gn.fit, core, p.side, gn.LearnConfig(lam=self.lam))
        t2 = clock()
        model = ops.call(gn.InductiveModel.from_state, Z, params, result.state,
                         lam=self.lam, report=result.report)
        G = ops.call(gn.embed, model, p.ds.X[p.labels.indices])
        classifier = ops.call(gn.train_linear, G, p.labels.labels)
        ops.call(gn.save, model, path)
        t3 = clock()
        loaded = ops.call(gn.load, path)
        batch_s, wrong, first = [], 0, None
        for start in range(0, self.stream, self.batch):
            b0 = clock()
            G_batch = ops.call(gn.embed, loaded, stream.X[start:start + self.batch])
            predictions = ops.call(classifier.predict, G_batch)
            batch_s.append(clock() - b0)
            truth = stream.y[start:start + self.batch]
            ops.check(predictions.shape == truth.shape,
                      f"{predictions.shape[0]} predictions for {truth.shape[0]} rows")
            wrong += int(np.count_nonzero(predictions != truth))
            if first is None:
                first = G_batch
        t4 = clock()
        # Acceptance gate C10: a reloaded model embeds bit for bit like the
        # in-memory one.
        in_memory = ops.call(gn.embed, model, stream.X[:self.batch])
        ops.check(np.array_equal(in_memory, first),
                  "first batch embeds differently through the loaded model")
        return Unit(wall_s=t4 - t0, fit_s=t2 - t1, reports=[result.report],
                    fits=[(result.state.S, core, p.side, self.lam)],
                    wrong=wrong, scored=self.stream, e_bytes=core.E.nbytes,
                    phases={"train_s": t3 - t0, "serve_s": t4 - t3},
                    batch_s=batch_s, model_bytes=path.stat().st_size)


WORKLOADS = {w.name: w for w in (SelectMoons(), FitPairs(), TrainServe())}
