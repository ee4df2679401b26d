"""Learning the inverse dictionary kernel over the PSD cone.

The extrapolated Gram matrix E @ S @ E.T is bent toward side information by
minimizing

    J(S) = lam * ||S - S0||_F^2 + ||residual(S)||_F^2

over positive semidefinite S, where S0 is the pseudo-inverse prior from the
landmark block and the residual compares the reconstructed similarities of
the supervised rows against a 0/1 target (optionally through a mask that
limits which pairs are constrained). J is a convex quadratic; a closed-form
solution of the unconstrained problem provides the warm start: as it is
when a Cholesky factorization certifies it positive definite, since it is
then the constrained optimum too, and PSD-projected otherwise.

Side information (:mod:`supervision`) is held as class codes or as a list
of constrained pairs, never as l x l arrays, for l supervised rows; J and
its gradient come from the thin QR factor of the supervised rows (labels)
or from the pair list (pairs), in O(l m + m^2) memory. The supervision
(:class:`supervision._Supervision`) supplies the closed form where one
exists (labels), J's data term and its pull at S, and the data term in the
loop's coordinates, so no code here asks which kind of side information it
holds.

One ADMM loop (Boyd et al. 2011) serves both kinds of side information. It
splits J from the PSD constraint: the x-step minimizes J plus a proximal
term exactly, the y-step is the projection, and the penalty rho is set by
residual balancing: halved or doubled when one residual exceeds the other
100-fold. It starts at a quarter of the mean Hessian diagonal in the
loop's coordinates, and with pairs 2**-2.5 lower, near where balancing
settles (see _RHO_START), since each change of rho clears the
acceleration's memory and, for pairs, refactors the p x p system. The
projection computes only the eigenpairs it removes, those with eigenvalue
<= 0 (LAPACK dsyevr), and subtracts them; computing only the part of the
spectrum a projection changes is the idea behind ProxSDP (Souto, Garcia &
Veiga 2022). The loop's matrices usually have a handful of negative
eigenvalues, so at m = 60 this costs about half of a full
eigendecomposition; while the previous projection removed more
than a quarter of the spectrum, where dsyevr costs about as much as a full
eigendecomposition or more, the loop takes the full one instead. The loop
runs in the eigenbasis V of C = El.T @ El = V diag(c) V.T, rescaled by the
congruence diag(1 / sqrt(sqrt(lam) + c)), which maps the PSD cone onto
itself and evens out the curvature at small lam. In V the Hessian
of J is diagonal, with weights 2 * (lam + c_i * c_j) for labels and 2 * lam
for pairs, plus for p constrained pairs a rank-p term that couples the
entries; the x-step is then elementwise, or solves a p x p system
(Woodbury) factored once per value of rho. The supervision
(:meth:`supervision._Supervision.in_basis`) supplies the diagonal and one
pair operator (:class:`supervision._Pairs`) that holds the pair term, the
system and the factor of rho's start, with no pairs for labels, so the
loop is the same for both kinds.

The loop runs ADMM as its Douglas-Rachford fixed-point map on one m x m
state, the projection input W = X + U: Y = P(W), U = W - Y, X = x-step(Y, U)
and f(W) = X + U, so one iteration is one map evaluation (one partial
eigendecomposition and one x-step). Type-II Anderson acceleration (Walker &
Ni 2011) extrapolates W from the last 10 differences of f and of the
residual f(W) - W, as SCS 3 does (Zhang, O'Donoghue & Boyd 2020). An
extrapolated state is kept only if its residual is no larger than that of
the last kept state; otherwise the next state is the plain f of the kept
one and the memory is cleared, as it is whenever rho changes. A rejected
extrapolation costs an iteration.

The loop stops on the gradient-mapping norm L * ||S - P(S - grad J(S) / L)||_F,
with P the PSD projection and L = 2 * lam + 2 * c_max^2 the Lipschitz
constant of grad J. It vanishes exactly at the constrained optimum. Each
iteration bounds it by ||grad J(S) - M||_F, where M = -rho * U is the PSD
part the projection cut off, orthogonal to S for any W; that residual of the
optimality conditions needs no further eigendecomposition. The bound holds
at the current iterate, while the loop returns the best one, so a stop on
it is confirmed by the gradient-mapping norm of the matrix returned, and
the loop goes on if that exceeds the tolerance. A second test
stops once the best objective stalls. The returned S goes through one
full projection: the subtraction leaves rounding along the removed
directions, which the congruence back to S can magnify past the PSD
tolerance.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dsyevr

from ._arrays import as_square_matrix, eigh, truncated_eigh
from .errors import InputError, NumericalError
from .supervision import _Supervision

CONVERGENCE_REASONS = ("grad_norm", "obj_rel", "max_iters")

# Relative slack for "the recorded objective may not increase".
_ACCEPT_SLACK = 1e-12
# Iterations over which the best objective must improve by obj_rel_tol.
_OBJ_WINDOW = 20
# factorize keeps eigenvalues above this fraction of the largest.
_RANK_RTOL = 1e-12
# The loop projects with a full eigendecomposition while the previous
# projection clamped more than this share of the m eigenvalues, and with
# the partial one (dsyevr) otherwise. Measured ratios of their costs, one
# BLAS thread, cross 1 at about 0.4 of m for m = 25, 0.23 for m = 60, 0.15
# for m = 200 and 0.19 for m = 500; between those points and 0.25 the one
# taken costs at most about a third more than the other.
_FULL_PROJECTION_SHARE = 0.25
# ADMM's penalty rho starts at this fraction of twice the mean diagonal of
# the Hessian in Z (pair term included), times the pair operator's
# rho_factor: 1 for labels and 2**-2.5 with pairs. Started at twice that
# mean and balanced on a 10-fold imbalance, rho ended at 1/4 or 1/8 of its
# start in 28 of 29 measured fits (the benchmark's 16 iterating label fits
# at m = 25 and 10 pair fits at m = 60, and 3 label fits at m = 200) and at
# 1/16 in one pair fit. From this start balancing moved rho in none of 70
# label fits of select-moons, but halved it on each of 21 fit-pairs fits,
# whose mean diagonal is almost all the prior's (the pair term adds about
# 4.5e-4 of it); hence the pair factor (supervision._PAIR_RHO_FACTOR).
# Label fits started at a quarter of this start took 82.1 instead of 76.4
# iterations per select-moons unit (run seed 1), so they keep it.
_RHO_START = 0.125
# Residual balancing halves or doubles rho only when one residual exceeds
# the other by this factor.
_RHO_IMBALANCE = 100.0
# Differences of the ADMM fixed-point map kept by Anderson acceleration.
_AA_MEMORY = 10
# Tikhonov weight of its least-squares problem, relative to the trace of the
# Gram matrix of the residual differences.
_AA_REG = 1e-10


@dataclass(frozen=True)
class LearnConfig:
    """Settings of the ADMM loop, shared by both kinds of side information.

    The loop stops once the gradient-mapping norm is at most
    1e-6 * (1 + ||2 El.T @ target @ El||_F), a tolerance relative to the
    pull of the data term on the gradient, which has the gradient's units,
    unlike ||S0||; or once the best objective has improved by at most
    ``obj_rel_tol`` (relative) over the last 20 iterations; or after
    ``max_iters`` iterations. An iteration is one evaluation of the loop's
    fixed-point map, which costs one partial eigendecomposition of an m x m
    matrix (its negative eigenpairs only) and one x-step; an Anderson
    extrapolation that the safeguard rejects counts as one. ``obj_rel_tol = 0``
    disables the objective test. ``lam = 0`` is legal (pure data fitting);
    the closed-form initializer then does not apply and fitting starts from
    the projected prior. A fit at ``lam = 0`` may end at ``max_iters``, of
    either kind: the masked problem need not attain its infimum, and a
    label problem whose infimum is approached only as ||S|| grows without
    bound ends there too (one small random problem ran 20,000 iterations to
    ||S|| of about 7e13).
    """

    lam: float = 1.0
    max_iters: int = 2000
    obj_rel_tol: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise InputError(f"lam must be a nonnegative real, got {self.lam}")
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.obj_rel_tol >= 0:
            raise InputError("obj_rel_tol must be >= 0")


@dataclass(frozen=True)
class DictionaryState:
    """Learned inverse dictionary kernel.

    S must be finite, symmetric to 1e-10 absolute and PSD up to a -1e-8
    relative eigenvalue tolerance; violations raise at construction.
    """

    S: np.ndarray

    def __post_init__(self):
        S = as_square_matrix(self.S, "S")
        # Comparisons with NaN are False, so the tests below would pass it.
        if not np.all(np.isfinite(S)):
            raise InputError("S contains non-finite entries")
        if S.size:
            if float(np.abs(S - S.T).max()) > 1e-10:
                raise InputError("S must be symmetric to 1e-10")
            vals = np.linalg.eigvalsh(0.5 * (S + S.T))
            lo, hi = float(vals[0]), float(vals[-1])
            if lo < -1e-8 * max(hi, 0.0):
                raise InputError(
                    f"S must be PSD: smallest eigenvalue {lo} below tolerance")
        object.__setattr__(self, "S", S)


@dataclass(frozen=True)
class SolverReport:
    """What happened during fitting.

    ``objective_trace[0]`` is the objective at the initializer and one entry
    follows per iteration: the best objective among the PSD iterates so
    far, so the sequence never increases and, J being a sum of squares,
    never falls below 0 (``iterates``, when recorded, holds the matching
    matrices; of iterates with equal objective, the later one counts). That
    entry comes from the loop's expansion of J about its start, so near
    J = 0 it may differ from J at the returned S, which is
    ``final_objective``. ``final_grad_norm`` is the gradient-mapping norm
    L * ||S - P(S - grad J(S) / L)||_F at the returned S; a fit that stops
    at its initializer reports ||grad J||_F instead, which bounds it.
    ``converged_by`` is one of "grad_norm", "obj_rel", "max_iters" --
    stopping at the iteration cap is reported, not raised; "grad_norm"
    means ``final_grad_norm`` is within the tolerance. ``rho_updates``
    counts the loop's changes of its penalty rho and ``factor_builds`` its
    Cholesky factorizations of the p x p pair system (0 for labels).
    """

    iterations: int
    objective_trace: np.ndarray
    final_grad_norm: float
    final_objective: float
    converged_by: str
    iterates: tuple | None = None
    rho_updates: int = 0
    factor_builds: int = 0

    def __post_init__(self):
        if self.converged_by not in CONVERGENCE_REASONS:
            raise InputError(f"unknown convergence reason {self.converged_by!r}")
        trace = np.asarray(self.objective_trace, dtype=np.float64)
        if trace.ndim != 1 or trace.size == 0:
            raise InputError("objective_trace must be a nonempty 1-D sequence")
        rises = np.diff(trace) > _ACCEPT_SLACK * (1.0 + np.abs(trace[:-1]))
        if np.any(rises):
            raise InputError("objective_trace must be non-increasing")
        if not (np.isfinite(self.final_objective) and self.final_objective >= 0):
            raise InputError(f"final_objective must be a nonnegative real, "
                             f"got {self.final_objective}")
        object.__setattr__(self, "objective_trace", trace)


@dataclass(frozen=True)
class FitResult:
    state: DictionaryState
    report: SolverReport


def objective(S, core, side, lam):
    """Penalized fit J(S) = lam * ||S - S0||_F^2 + ||residual(S)||_F^2."""
    return _value_and_gradient(S, core, side, lam)[0]


def gradient(S, core, side, lam):
    """Analytic gradient of :func:`objective` at S.

    2*lam*(S - S0) + 2 * El.T @ residual @ El. For grouping-kind side
    information the target lives inside the mask, so mask*(recon) - target
    already equals the masked residual the chain rule requires. The result
    is symmetrized to remove floating-point asymmetry.
    """
    return _value_and_gradient(S, core, side, lam)[1]


def _value_and_gradient(S, core, side, lam, supervision=None):
    """(:func:`objective`, :func:`gradient`) at S, from one residual, in the
    compact forms of :class:`_Supervision` (built here unless given)."""
    S = as_square_matrix(S, "S")
    if S.shape != core.S0.shape:
        raise InputError(f"S must be {core.S0.shape}, got {S.shape}")
    LearnConfig(lam=lam)  # the fit's rule for lam
    if supervision is None:
        supervision = _Supervision(core, side)
    loss, pull = supervision.term(S)
    prior = S - core.S0
    value = float(lam * np.sum(prior * prior) + loss)
    grad = 2.0 * lam * prior + 2.0 * pull
    return value, 0.5 * (grad + grad.T)


def psd_project(M):
    """Frobenius-nearest PSD matrix: symmetrize, then clamp negative
    eigenvalues to exactly zero."""
    M = as_square_matrix(M, "M")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix contains non-finite entries")
    return _project(M)


def _project(M):
    vals, vecs = eigh(0.5 * (M + M.T))
    out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return 0.5 * (out + out.T)


def _cut_negative(M, full=False):
    """PSD projection of the symmetrized M, and the number k of eigenvalues
    at or below 0 it clamped.

    It subtracts the :func:`_negative_part` of M. Exact in exact
    arithmetic; in floating point it leaves rounding of size eps * ||M_-||
    along the removed directions, so :func:`fit` passes the matrix it
    returns through one full :func:`_project`.
    """
    M = 0.5 * (M + M.T)
    N, k = _negative_part(M, full)
    M -= N
    return 0.5 * (M + M.T), k


def _negative_part(M, full=False):
    """The part of the symmetric M on its eigenvalues at or below 0, and
    their number k.

    It computes only those k eigenpairs (dsyevr), or with ``full`` all of
    them (eigh), which costs less once k is more than
    ``_FULL_PROJECTION_SHARE`` (a quarter) of m. dsyevr's bisection and
    inverse iteration can fail (nonzero info) when the nonpositive
    eigenvalues form an exact cluster; the full decomposition then takes
    over, and only its failure raises.
    """
    if full:
        vals, vecs = eigh(M)
        k = int(np.count_nonzero(vals <= 0.0))
    else:
        vals, vecs, k, _, info = dsyevr(M, compute_v=1, range="V", vl=-np.inf, vu=0.0,
                                        lower=1)
        if info != 0:
            try:
                return _negative_part(M, full=True)
            except NumericalError as exc:
                raise NumericalError(f"eigendecomposition failed: dsyevr info={info}, "
                                     f"and the full fallback: {exc}") from exc
    return (vecs[:, :k] * vals[:k]) @ vecs[:, :k].T, int(k)


def init_closed_form(core, side, lam, project=True):
    """Closed-form start: the unconstrained stationary point, PSD-projected.

    Setting the gradient to zero gives the linear system S + P @ S @ P = Q
    with P = (El.T @ El) / sqrt(lam) and Q = S0 + (El.T @ target @ El) / lam.
    Diagonalizing P = U diag(v) U.T turns that into independent scalar
    equations: in the eigenbasis, S_ij = Q_ij / (1 + v_i * v_j). With no
    supervised rows this degenerates to S = S0.

    A solution that a Cholesky factorization certifies positive definite is
    its own projection and is returned unprojected, as :func:`fit` starts
    from it; any other is PSD-projected. Pass ``project=False`` to get the
    raw solution of the linear system. The solution comes from
    :meth:`supervision._Supervision.closed_form`, which has one for
    label-kind side information with lam > 0 only; for the grouping kind
    this raises InputError, and :func:`fit` starts from the projected prior.
    A lam so small that the solution overflows raises InputError, as a
    non-finite matrix does in :func:`psd_project`.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise InputError(f"closed-form initialization requires lam > 0, got {lam}")
    S = _Supervision(core, side).closed_form(core.S0, lam)
    if S is None:
        raise InputError("closed-form initialization applies to label-kind side information")
    return _psd_start(S) if project else S


def _psd_start(S):
    """The symmetric S itself if it is finite and LAPACK's Cholesky (dpotrf)
    factors it, and :func:`psd_project` of S otherwise.

    Cholesky succeeds in floating point exactly when S is numerically
    positive definite (Higham 2002, ch. 10), so S is then its own
    projection, certified at a small fraction of an eigendecomposition's
    cost. dpotrf reports success on NaN and infinite input, so it is
    trusted only on finite S; psd_project rejects the others.
    """
    if np.all(np.isfinite(S)) and dpotrf(S, lower=1, clean=0)[1] == 0:
        return S
    return psd_project(S)


def fit(core, side, cfg, record_iterates=False, *, _supervision=None):
    """Minimize the penalized objective over the PSD cone.

    The start is the closed form (:func:`init_closed_form`) whenever the
    supervision has one (label-kind side information) and lam > 0 and there
    is at least one supervised row, and the projected prior psd_project(S0)
    otherwise, or when lam is so small that the closed form overflows.
    C = El.T @ El is eigendecomposed once, for the closed form and the loop
    alike. A closed form that a Cholesky factorization certifies positive
    definite is the unconstrained optimum and starts unprojected, so a fit
    that stops there costs no further eigendecomposition; any other is
    PSD-projected.

    A start whose gradient norm is already within the tolerance of
    :class:`LearnConfig` is returned after 0 iterations. Otherwise one ADMM
    loop runs for both kinds (see the module docstring), until the
    gradient-mapping norm falls within that tolerance, the best objective
    stalls (obj_rel_tol), or max_iters; the stopping reason lands in the
    report's ``converged_by``.

    The report's ``final_objective`` is J at the returned S, from the same
    evaluation as its ``final_grad_norm``.

    ``_supervision`` is private: :func:`select_lambda` passes the
    :class:`_Supervision` of (core, side) that its whole grid shares.
    """
    sup = _Supervision(core, side) if _supervision is None else _supervision
    S = sup.closed_form(core.S0, cfg.lam) if cfg.lam > 0 and side.indices.size > 0 else None
    S = _psd_start(S) if S is not None and np.all(np.isfinite(S)) else psd_project(core.S0)

    grad_tol = 1e-6 * (1.0 + 2.0 * float(np.linalg.norm(sup.B)))
    value, grad = _value_and_gradient(S, core, side, cfg.lam, sup)
    final = value
    trace = [value]
    iterates = [S] if record_iterates else None
    iterations = 0
    # ||grad|| bounds the gradient-mapping norm and needs no eigendecomposition.
    gnorm = float(np.linalg.norm(grad))
    converged_by = "grad_norm"
    solver = None
    if gnorm > grad_tol:
        solver = _ADMM(S, core.S0, value, cfg.lam, sup)
        best = solver.Y0
        converged_by = "max_iters"

        def exit_check():
            """The matrix the fit returns, from the best iterate, J there and
            its gradient-mapping norm, taken as ||grad J(S) + L N|| with N the
            negative part of S - grad J(S) / L. As L ||S - P(S - grad J(S) / L)||,
            a difference of two nearly equal matrices the size of S, its
            rounding alone read 1.1-1.3 times the tolerance on a pair fit
            with L = 1.5e10. The p x p pair factor is released first, so the
            check's pair evaluation does not sit on top of it; the next
            x-step rebuilds it if the loop goes on."""
            solver.release_factor()
            S = solver.matrix(_project(best))
            value, grad = _value_and_gradient(S, core, side, cfg.lam, sup)
            N, _ = _negative_part(S - grad / solver.lipschitz)
            return S, value, float(np.linalg.norm(grad + solver.lipschitz * N))

        while iterations < cfg.max_iters:
            point, value, bound = solver.step()
            iterations += 1
            if not np.isfinite(value):
                raise NumericalError(f"solver diverged at iteration {iterations}")
            if value <= trace[-1]:
                best = point
            trace.append(min(value, trace[-1]))
            if record_iterates:
                iterates.append(solver.matrix(_project(best)))
            # The bound holds at the current iterate, which need not be the
            # best one the fit returns: confirm the stop on the returned
            # matrix and keep iterating if it fails.
            if bound <= grad_tol:
                S, final, gnorm = exit_check()
                if gnorm <= grad_tol:
                    converged_by = "grad_norm"
                    break
            # The best objective has stalled over the window, and the iterate
            # has settled on it (ADMM may wander above the best for a while
            # before improving on it).
            slack = cfg.obj_rel_tol * max(1.0, abs(trace[-1]))
            if (cfg.obj_rel_tol > 0 and iterations >= _OBJ_WINDOW
                    and trace[-1 - _OBJ_WINDOW] - trace[-1] <= slack
                    and value - trace[-1] <= slack):
                converged_by = "obj_rel"
                break
        if converged_by != "grad_norm":
            S, final, gnorm = exit_check()
            if converged_by == "max_iters" and gnorm <= grad_tol:
                converged_by = "grad_norm"
    report = SolverReport(
        iterations=iterations,
        objective_trace=np.asarray(trace),
        final_grad_norm=gnorm,
        final_objective=final,
        converged_by=converged_by,
        iterates=tuple(iterates) if record_iterates else None,
        rho_updates=solver.rho_updates if solver else 0,
        factor_builds=solver.factor_builds if solver else 0,
    )
    return FitResult(state=DictionaryState(S=S), report=report)


class _ADMM:
    """ADMM (Boyd et al. 2011) over the PSD cone, for both kinds of side
    information.

    It runs in coordinates Z with S = V (DD * Z) V^T, where
    C = El.T @ El = V diag(c) V^T and DD = d d^T, d_i = 1 / sqrt(sqrt(lam) + c_i).
    The congruence by V diag(d) maps the PSD cone onto itself, so the
    projection is unchanged, while the Hessian of the label-kind J, diagonal
    in V with weights 2 * (lam + c_i c_j), gets weights of at most 2 (all 2
    at lam = 0). Without it, small lam leaves those weights spread over
    many orders of magnitude and the iterates crawl along the flat
    directions.

    With D = Z - Y0 for the start Y0, J is the exact quadratic
    J(Y0) + <G0, D> + sum(Hs * D**2) + the pair term at D, where
    Hs = (lam + diagonal) * DD**2. The supervision, taken in the basis
    V diag(d), supplies the pull in G0, the diagonal and the pair operator
    that holds the pair term and the x-step's p x p system (see
    :meth:`supervision._Supervision.in_basis`); the loop keeps only that
    operator and does not depend on the kind of side information.
    """

    def __init__(self, S, S0, value, lam, supervision):
        c, self.V = supervision.eigenpairs
        c = np.maximum(c, 0.0)
        h = np.sqrt(lam) + c
        scale = 1.0 / np.sqrt(np.maximum(h, max(1e-12 * h.max(), np.finfo(float).tiny)))
        self.DD = np.outer(scale, scale)
        # Lipschitz constant of grad J in S, for the gradient mapping.
        self.lipschitz = 2.0 * lam + 2.0 * float(c.max(initial=0.0)) ** 2
        self.Y0 = self.coords(S)
        pull, diagonal, self.pairs = supervision.in_basis(self.V, scale, S)
        # grad J in Z, its data term taken from the residual through the
        # factor in the basis V diag(d) rather than by rotating and scaling
        # grad J: where C is numerically null, DD reaches 1e12 / c_max and
        # would turn the rounding in grad J into a slope along which J has no
        # curvature, and the iterates would drift along it without bound.
        G0 = 2.0 * lam * (self.V.T @ (S - S0) @ self.V) * self.DD + 2.0 * pull
        self.G0 = 0.5 * (G0 + G0.T)
        self.half_G0 = 0.5 * self.G0
        self.J0 = value
        self.memory = _Anderson(self.Y0.shape)
        self.factor = self.factor_rho = None
        # negatives: eigenvalues the last projection clamped; they pick the
        # next one's method.
        self.rho_updates = self.factor_builds = self.negatives = 0
        self.Hs = (lam + diagonal) * self.DD ** 2
        self.twice_Hs = 2.0 * self.Hs
        # An eighth of twice the mean diagonal of the Hessian in Z, pair term
        # included, scaled down with pairs (see _RHO_START).
        self.rho = _RHO_START * self.pairs.rho_factor() * (
            2.0 * float(np.mean(self.Hs)) + self.pairs.hessian_trace() / self.Hs.size)
        # The start is PSD, so P(Y0) = Y0 and U = 0: Y0 is the first kept
        # state, and the first state evaluated is the map's value there.
        U = np.zeros_like(self.Y0)
        X = self._x_step(self.Y0, U)
        g = X - self.Y0
        self._keep(self.Y0, U, X, g, _norm(g))

    def coords(self, M):
        """Z coordinates of an S-space matrix."""
        return (self.V.T @ M @ self.V) / self.DD

    def matrix(self, Z):
        S = self.V @ (Z * self.DD) @ self.V.T
        return 0.5 * (S + S.T)

    def _evaluate(self, Z):
        """J and its gradient at Z."""
        D = Z - self.Y0
        value = self.J0 + float(np.sum(self.G0 * D)) + float(np.sum(self.Hs * D * D))
        grad = self.G0 + self.twice_Hs * D
        if self.pairs.weight.size:
            pair_value, pair_grad = self.pairs.term(D)
            value += pair_value
            grad += pair_grad
        # J is a sum of squares; near J = 0 the cancellation in the expansion
        # about Y0 can leave it slightly negative.
        return max(value, 0.0), grad

    def _x_step(self, Y, U):
        """The exact minimizer X = Y0 + D of J(X) + (rho/2) ||X - Y + U||^2.

        D solves Dg * D + (the pair term's gradient at D) / 2 = N, with
        Dg = Hs + rho/2 and N = (rho (Y - Y0 - U) - G0) / 2, through the
        pair operator's system for Dg; Dg and that system are built once per
        value of rho.
        """
        rho = self.rho
        N = 0.5 * rho * (Y - self.Y0 - U) - self.half_G0
        if self.factor_rho != rho:
            self.Dg = self.Hs + 0.5 * rho
            # Release the old factor before the new one is allocated.
            self.factor = None
            self.factor = self.pairs.factor(self.Dg)
            self.factor_rho = rho
            self.factor_builds += self.factor is not None
        return self.Y0 + self.pairs.solve(self.factor, N, self.Dg)

    def release_factor(self):
        """Drop the x-step's system; the next x-step rebuilds it."""
        self.factor = self.factor_rho = None

    def step(self):
        """One evaluation of the fixed-point map f at the state W; returns
        the projection Y = P(W), J(Y) and the bound on the mapping norm at Y."""
        Y, self.negatives = _cut_negative(
            self.W, full=self.negatives > _FULL_PROJECTION_SHARE * self.Y0.shape[0])
        U = self.W - Y
        value, grad = self._evaluate(Y)
        # -rho * U, the part the projection cut off scaled by -rho, is PSD and
        # orthogonal to Y, whatever W is, so its distance to grad J(Y) bounds
        # the mapping norm at Y: ||E|| in S for the Z-space residual
        # E_Z = DD * (V^T E V).
        bound = _norm((grad + self.rho * U) / self.DD)
        X = self._x_step(Y, U)
        # f(W) - W = X + U - W = X - Y.
        g = X - Y
        g_norm = _norm(g)
        if self.extrapolated and g_norm > self.kept_norm:
            # Safeguard: fall back to the plain step from the last kept state.
            self.W, self.extrapolated = self.kept, False
            self.memory.clear()
            return Y, value, bound
        # Residual balancing (Boyd et al. 2011, section 3.4.1) against the
        # last kept state; without extrapolation these are the primal
        # residual X_k - Y_k = U_k - U_{k-1} and the dual rho (Y_k - Y_{k-1}).
        primal = _norm(U - self.U_last)
        dual = self.rho * _norm(Y - self.Y_last)
        factor = (2.0 if primal > _RHO_IMBALANCE * dual
                  else 0.5 if dual > _RHO_IMBALANCE * primal else 1.0)
        if factor != 1.0:
            # A new rho is a new map: rescale the state and redo its x-step.
            self.rho *= factor
            self.rho_updates += 1
            U /= factor
            X = self._x_step(Y, U)
            g = X - Y
            g_norm = _norm(g)
            self.memory.clear()
        self._keep(Y, U, X, g, g_norm)
        return Y, value, bound

    def _keep(self, Y, U, X, g, g_norm):
        """Make W = Y + U the kept state, with f(W) = X + U and residual
        g = X - Y of norm g_norm, and move to the next state: Anderson's
        extrapolation, or f(W) while it has no memory."""
        self.Y_last, self.U_last = Y, U
        self.kept, self.kept_norm = X + U, g_norm
        self.W = self.memory.extrapolate(self.kept, g)
        self.extrapolated = self.memory.size > 0


class _Anderson:
    """Type-II Anderson acceleration (Walker & Ni 2011) of a fixed-point map
    f, with the residual g(W) = f(W) - W.

    Ring buffers hold the differences of f and of g between the last
    _AA_MEMORY + 1 kept states, and ``gram`` their Gram matrix dG dG^T, one
    row of which changes per state. The next state is f - dF^T gamma, with
    gamma the Tikhonov-regularised least-squares fit of g by the columns of
    dG^T; a step costs O(_AA_MEMORY * W.size).
    """

    def __init__(self, shape):
        size = int(np.prod(shape))
        self.dF = np.zeros((_AA_MEMORY, size))
        self.dG = np.zeros((_AA_MEMORY, size))
        self.gram = np.zeros((_AA_MEMORY, _AA_MEMORY))
        self.clear()

    def clear(self):
        self.size = self.slot = 0
        self.last = None

    def extrapolate(self, f, g):
        """Record f and g at a kept state; return the next state to evaluate."""
        f_flat, g_flat = f.ravel(), g.ravel()
        if self.last is not None:
            k = self.slot
            np.subtract(f_flat, self.last[0], out=self.dF[k])
            np.subtract(g_flat, self.last[1], out=self.dG[k])
            self.size = min(self.size + 1, _AA_MEMORY)
            self.slot = (k + 1) % _AA_MEMORY
            self.gram[k, :self.size] = self.gram[:self.size, k] = self.dG[:self.size] @ self.dG[k]
        self.last = f_flat, g_flat
        n = self.size
        scale = float(np.trace(self.gram[:n, :n])) if n else 0.0
        if not scale > 0.0:
            return f
        # Tikhonov term on a copy of the Gram matrix's diagonal.
        A = self.gram[:n, :n].copy()
        A.flat[::n + 1] += _AA_REG * scale
        gamma = np.linalg.solve(A, self.dG[:n] @ g_flat)
        return f - (gamma @ self.dF[:n]).reshape(f.shape)


def _norm(x):
    """Frobenius norm, with the bits of ``np.linalg.norm(x)``: one dot
    product of the raveled array, then its square root, without the
    dispatch on ``ord`` and ``axis``."""
    x = x.ravel(order="K")
    return float(np.sqrt(x.dot(x)))


def factorize(state):
    """Factor S = L @ L.T over eigenvalues above 1e-12 times the largest.

    Accepts a DictionaryState or a bare PSD matrix; columns of L are ordered
    by decreasing eigenvalue. A zero matrix yields an (m, 0) factor.
    """
    S = state.S if isinstance(state, DictionaryState) else as_square_matrix(state, "S")
    vals, vecs = truncated_eigh(0.5 * (S + S.T), _RANK_RTOL)
    return vecs[:, ::-1] * np.sqrt(vals[::-1])
