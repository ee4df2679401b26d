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

from ._arrays import as_real
from .dictlearn import LearnConfig, SolverReport, fit
from .errors import InputError, NumericalError, UndefinedAlignmentError
from .kernels import _prepared, _prepared_cosine
from .supervision import _Supervision

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
# SelectionReport.prior_is_flat holds when rho_prior spreads by at most this
# across the scored candidates.
FLAT_PRIOR_SPREAD = 1e-6


@dataclass(frozen=True)
class LambdaRecord:
    """Outcome for one candidate weight; S and its factor L (S = L @ L.T,
    as the fit's :class:`DictionaryState` holds them) are kept so the chosen
    fit can be reused without re-running the solver or decomposing S.

    ``failure`` says why a candidate scored -inf: the message of its fit's
    NumericalError (``solver``, ``S`` and ``L`` are then None: the only
    record without L) or of its undefined alignment. It is None for a scored
    candidate.
    """

    lam: float
    rho_prior: float
    rho_align: float
    criterion: float
    solver: SolverReport | None
    S: np.ndarray | None
    failure: str | None = None
    L: np.ndarray | None = None


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
    """Candidate weights must come in an iterable other than a string,
    nonempty, strictly increasing and each a positive finite real
    (:func:`as_real`), so a scalar, a string, a bool or a nested sequence
    raises InputError."""
    if isinstance(grid, (str, bytes)) or not np.iterable(grid):
        raise InputError(f"grid candidate must be a real in a sequence, got {grid!r} as the grid")
    vals = [as_real(g, "grid candidate", positive=True) for g in grid]
    if not vals:
        raise InputError("candidate grid must be nonempty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise InputError("grid candidates must be strictly increasing")
    return vals


def _score_fit(core, lam, result, supervision, prior=None):
    """LambdaRecord of a finished fit at weight lam: rho_prior is the
    :func:`nka_score` of S against the prior S0, and rho_align that of the
    reconstructed supervised block El @ S @ El.T (masked for pairs) against
    its target, taken through ``supervision``, the :class:`_Supervision` of
    (core, side) that the fit used, without an l x l array. ``prior`` is
    S0 as :func:`kernels._prepared` prepares it, which a grid shares;
    without it S0 is prepared here. An undefined alignment scores -inf with
    the reason recorded."""
    S, L = result.state.S, result.state.L
    if prior is None:
        prior = _prepared(core.S0, "Kp")
    try:
        rho_prior = _prepared_cosine(_prepared(S, "K"), prior)
        rho_align = supervision.alignment(S)
    except UndefinedAlignmentError as exc:
        return LambdaRecord(lam=lam, rho_prior=float("nan"), rho_align=float("nan"),
                            criterion=float("-inf"), solver=result.report, S=S,
                            failure=str(exc), L=L)
    return LambdaRecord(lam=lam, rho_prior=rho_prior, rho_align=rho_align,
                        criterion=rho_prior * rho_align, solver=result.report, S=S, L=L)


def select_lambda(core, side, grid=DEFAULT_LAMBDA_GRID):
    """Fit one dictionary per candidate and keep the best-scoring one.

    Every candidate fits with the default :class:`LearnConfig` at its own
    weight; C = El.T @ El is eigendecomposed, the supervised rows factored,
    and the prior S0 prepared for its alignment, once for the whole grid. A
    failure of that decomposition fails every candidate alike and raises.
    """
    vals = validate_grid(grid)
    if side.indices.size == 0:
        raise InputError("selection needs at least one supervised sample")
    supervision = _Supervision(core, side)
    supervision.eigenpairs  # a failure here fails the whole grid
    prior = _prepared(core.S0, "Kp")
    records = []
    for lam in vals:
        try:
            result = fit(core, side, LearnConfig(lam=lam), _supervision=supervision)
        except NumericalError as exc:
            records.append(LambdaRecord(lam=lam, rho_prior=float("nan"),
                                        rho_align=float("nan"), criterion=float("-inf"),
                                        solver=None, S=None, failure=str(exc)))
            continue
        records.append(_score_fit(core, lam, result, supervision, prior))
    fitted = [record for record in records if record.S is not None]
    if not fitted:
        reasons = "; ".join(f"lambda={r.lam:g}: {r.failure}" for r in records)
        raise NumericalError(f"every candidate fit failed ({reasons})")
    # max keeps the first of equal criteria, so ties go to the smallest weight.
    best = max(fitted, key=lambda record: record.criterion)
    return SelectionReport(records=tuple(records), chosen_lambda=best.lam)
