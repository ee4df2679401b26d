"""Regularization-weight selection via the two-factor alignment criterion.

Each candidate weight is scored by the product of two normalized alignments:
how much the learned dictionary kernel still agrees with its pseudo-inverse
prior, and how well the reconstructed similarities of the supervised rows
agree with their target. The candidate maximizing the product wins; ties
resolve toward the smallest weight. A candidate whose fit fails numerically
or whose alignment is undefined scores -inf, with the reason recorded,
rather than failing the whole search.

The grid shares one :class:`supervision._Supervision` of the side
information: the supervised rows' eigendecomposition and their thin QR
factors, with which the target alignment is taken in O(l m + m^2) memory
(labels: the QR of the centred rows; pairs: the masked matrix double-centred
in O(p + l)), not on an l x l block.

A report flags two choices it cannot back: one at an edge of the scored
grid, where the criterion may peak outside it, and one where rho_prior is
flat across the grid (it spreads by at most 1e-6), so the criterion ranks
the candidates by rho_align alone.
"""

from dataclasses import dataclass

import numpy as np

from .dictlearn import LearnConfig, SolverReport, fit
from .errors import InputError, NumericalError, UndefinedAlignmentError
from .kernels import nka_score
from .supervision import _Supervision

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
# SelectionReport.prior_is_flat holds when rho_prior spreads by at most this
# across the scored candidates.
FLAT_PRIOR_SPREAD = 1e-6


@dataclass(frozen=True)
class LambdaRecord:
    """Outcome for one candidate weight; S is kept so the chosen fit can be
    reused without re-running the solver.

    ``failure`` says why a candidate scored -inf: the message of its fit's
    NumericalError (``solver`` and ``S`` are then None) or of its undefined
    alignment. It is None for a scored candidate.
    """

    lam: float
    rho_prior: float
    rho_align: float
    criterion: float
    solver: SolverReport | None
    S: np.ndarray | None
    failure: str | None = None


@dataclass(frozen=True)
class SelectionReport:
    records: tuple
    chosen_lambda: float

    @property
    def chosen(self):
        for record in self.records:
            if record.lam == self.chosen_lambda:
                return record
        raise InputError("chosen_lambda missing from records")

    @property
    def chosen_at_edge(self):
        """The chosen weight is the smallest or the largest scored candidate
        (or none was scored): the criterion may peak outside the grid."""
        scored = [record.lam for record in self._scored()]
        return not scored or self.chosen_lambda in (scored[0], scored[-1])

    @property
    def prior_is_flat(self):
        """rho_prior spreads by at most FLAT_PRIOR_SPREAD across the scored
        candidates (or none was scored): the criterion then ranks them by
        rho_align alone."""
        rhos = [record.rho_prior for record in self._scored()]
        return not rhos or max(rhos) - min(rhos) <= FLAT_PRIOR_SPREAD

    def _scored(self):
        return [record for record in self.records if np.isfinite(record.criterion)]


def validate_grid(grid):
    """Candidate weights must be nonempty, positive, strictly increasing."""
    vals = [float(g) for g in grid]
    if not vals:
        raise InputError("candidate grid must be nonempty")
    if any(not (np.isfinite(v) and v > 0) for v in vals):
        raise InputError("grid candidates must be positive finite reals")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise InputError("grid candidates must be strictly increasing")
    return vals


def alignment_scores(S, core, side):
    """(rho_prior, rho_align): alignment of S with the prior, and of the
    reconstructed supervised block El @ S @ El.T (masked for pairs) with its
    target, both by :func:`nka_score`; the second never forms an l x l
    array.
    """
    return nka_score(S, core.S0), _Supervision(core, side).alignment(S)


def _score_fit(core, side, lam, result, supervision=None):
    """LambdaRecord of a finished fit at weight lam, scored as by
    :func:`alignment_scores` through the shared ``supervision`` if given; an
    undefined alignment scores -inf with the reason recorded."""
    S = result.state.S
    try:
        rho_prior = nka_score(S, core.S0)
        if supervision is None:
            supervision = _Supervision(core, side)
        rho_align = supervision.alignment(S)
    except UndefinedAlignmentError as exc:
        return LambdaRecord(lam=lam, rho_prior=float("nan"), rho_align=float("nan"),
                            criterion=float("-inf"), solver=result.report, S=S,
                            failure=str(exc))
    return LambdaRecord(lam=lam, rho_prior=rho_prior, rho_align=rho_align,
                        criterion=rho_prior * rho_align, solver=result.report, S=S)


def select_lambda(core, side, grid=DEFAULT_LAMBDA_GRID):
    """Fit one dictionary per candidate and keep the best-scoring one.

    Every candidate fits with the default :class:`LearnConfig` at its own
    weight; C = El.T @ El is eigendecomposed, and the supervised rows
    factored, once for the whole grid. A failure of that decomposition fails
    every candidate alike and raises.
    """
    vals = validate_grid(grid)
    if side.indices.size == 0:
        raise InputError("selection needs at least one supervised sample")
    supervision = _Supervision(core, side)
    supervision.eigenpairs  # a failure here fails the whole grid
    records = []
    for lam in vals:
        try:
            result = fit(core, side, LearnConfig(lam=lam), _supervision=supervision)
        except NumericalError as exc:
            records.append(LambdaRecord(lam=lam, rho_prior=float("nan"),
                                        rho_align=float("nan"), criterion=float("-inf"),
                                        solver=None, S=None, failure=str(exc)))
            continue
        records.append(_score_fit(core, side, lam, result, supervision))
    fitted = [record for record in records if record.S is not None]
    if not fitted:
        reasons = "; ".join(f"lambda={r.lam:g}: {r.failure}" for r in records)
        raise NumericalError(f"every candidate fit failed ({reasons})")
    # max keeps the first of equal criteria, so ties go to the smallest weight.
    best = max(fitted, key=lambda record: record.criterion)
    return SelectionReport(records=tuple(records), chosen_lambda=best.lam)
