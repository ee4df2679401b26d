"""Learning the inverse dictionary kernel over the PSD cone.

The extrapolated Gram matrix E @ S @ E.T is bent toward side information by
minimizing

    J(S) = lam * ||S - S0||_F^2 + ||residual(S)||_F^2

over positive semidefinite S, where S0 is the pseudo-inverse prior from the
landmark block and the residual compares the reconstructed similarities of
the supervised rows against a 0/1 target (optionally through a mask that
limits which pairs are constrained). J is a convex quadratic. The fit
starts from a closed form where the side information has one (labels) and
from the prior S0 otherwise. The prior is PSD by construction, S0 = R R^T
with the core's factor R, and starts as it is. The closed form at lam > 0
is not PSD by construction and passes one rule: it is kept as it is when a
Cholesky factorization certifies it positive definite, and PSD-projected
otherwise. For labels at lam > 0 the closed form is the unconstrained
minimizer, so a positive definite one is the constrained optimum too. For
labels at lam = 0 the constrained optimum itself has a closed form, a Gram
matrix and so PSD by construction, which starts as it is. Any start is
returned without iterating when the norm of its gradient is within the
tolerance, and iterates otherwise: on ill-conditioned cores the rounding
in a closed form can leave its gradient above it.

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
term exactly and the y-step is the projection. J is a convex quadratic, so
ADMM converges at any fixed penalty rho > 0, and the loop keeps one: a
quarter of the mean Hessian diagonal in the loop's coordinates, and with
pairs lower by a factor that grows with the pair term's share of the
Hessian trace (see _RHO_START). A fit therefore iterates one fixed-point
map from start to end, and with pairs factors its p x p system
once. The projection computes only the eigenpairs it removes, those with
eigenvalue <= 0 (LAPACK dsyevr), and subtracts them; computing only the
part of the spectrum a projection changes is the idea behind ProxSDP
(Souto, Garcia & Veiga 2022). The loop's matrices usually have a handful
of negative eigenvalues, so at m = 60 this costs about half of a full
eigendecomposition. The loop runs in the eigenbasis V of
C = El.T @ El = V diag(c) V.T, rescaled by the congruence
diag(1 / sqrt(sqrt(lam) + c)), which maps the PSD cone onto itself and
evens out the curvature at small lam. In V the Hessian
of J is diagonal, with weights 2 * (lam + c_i * c_j) for labels and 2 * lam
for pairs, plus for p constrained pairs a rank-p term that couples the
entries; the x-step is then elementwise, or solves a p x p system
(Woodbury) factored once per fit. The supervision
(:meth:`supervision._Supervision.in_basis`) supplies the diagonal and one
pair operator (:class:`supervision._Pairs`) that holds the pair term, its
Hessian trace and the system, with no pairs for labels, so the loop is the
same for both kinds.

The loop runs ADMM as its Douglas-Rachford fixed-point map on one m x m
state, the projection input W = X + U: the projection returns Y = P(W) and
the negative part U = W - Y it cuts off, X = x-step(Y, U) and f(W) = X + U,
so one iteration is one map evaluation (one partial eigendecomposition and
one x-step). Type-II Anderson acceleration (Walker & Ni 2011) extrapolates
W from the last 10 differences of f and of the residual f(W) - W, as SCS 3
does (Zhang, O'Donoghue & Boyd 2020). An extrapolated state is kept only if
its residual is no larger than that of the last kept state; otherwise the
next state is the plain f of the kept one and the memory is cleared. A
rejected extrapolation costs an iteration. The state is symmetric by
construction, bit for bit: the start is symmetrized once, U is -B B^T from
BLAS syrk, and every step from there adds, subtracts and scales symmetric
matrices entrywise. So no iteration symmetrizes, and the projection hands
W to LAPACK as it is.

The loop stops on the gradient-mapping norm L * ||S - P(S - grad J(S) / L)||_F,
with P the PSD projection and L = 2 * lam + 2 * c_max^2 the Lipschitz
constant of grad J. It vanishes exactly at the constrained optimum. Each
iteration bounds it by ||grad J(S) - M||_F, where M = -rho * U is the PSD
part the projection cut off, orthogonal to S for any W; that residual of the
optimality conditions needs no further eigendecomposition. The bound holds
at the current iterate, while the loop returns the best one. One block at
the end of each iteration handles every stop: when the bound is within the
tolerance, the best objective has stalled or the iteration cap is reached,
it takes the matrix the fit would return and evaluates J and its
gradient-mapping norm there, once. The fit ends by "grad_norm" if that norm
is within the tolerance, else by "obj_rel" if the objective stalled, else
by "max_iters" at the cap; a stop on the bound alone that this evaluation
fails goes on iterating. The returned S goes through one full projection:
the subtraction leaves rounding along the removed directions, which the
congruence back to S can magnify past the PSD tolerance.

Every fit returns its S with a factor L, S = L @ L.T, PSD by construction,
taken from a decomposition already made: the core's factor R of the prior,
the Cholesky factor that certified its start, the factor H of the closed
form at lam = 0, or the eigenpairs of the projection that made its start or
its exit. So no fit path eigendecomposes its S again, neither to check it
nor to build a model from it (:meth:`inductive.InductiveModel.from_state`).
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._arrays import (RANK_RTOL, _clamp, _project, _truncate, as_count, as_real,
                      as_square_matrix, eigh)
from ._lapack import Posv, Syevr, dposv, dpotrf, dsyevr
from .errors import InputError, NumericalError
from .supervision import _Supervision

CONVERGENCE_REASONS = ("grad_norm", "obj_rel", "max_iters")

# Relative slack for "the recorded objective may not increase".
_ACCEPT_SLACK = 1e-12
# Iterations over which the best objective must improve by obj_rel_tol.
_OBJ_WINDOW = 20
# ADMM's penalty rho is this fraction of twice the mean diagonal of the
# Hessian in Z (pair term included), times a factor that is 1 for labels.
# Any rho > 0 converges on this convex quadratic; the choice sets the speed.
# The mean diagonal is the curvature scale the x-step weighs against rho.
# Label fits at a quarter of it took 82.1 instead of 76.4 iterations per
# select-moons unit (run seed 1).
_RHO_START = 0.125
# With pairs the factor is _PAIR_RHO_SLOPE * sqrt(s), clipped to
# [_PAIR_RHO_FLOOR, 1], for the pair term's share s = tr_p / (2 sum(Hs) +
# tr_p) of the Hessian's trace in Z. The best rho depends on the Hessian's
# spectrum, not on its mean diagonal alone (Ghadimi et al. 2015, IEEE
# Trans. Autom. Control 60), and s is a cheap proxy for it: scanning
# factors 2**(-k/2), the best k was 10 at s ~ 5e-5 (tools/pair_sweep.py),
# 6-8 at s ~ 4.5e-4 (the benchmark's fit-pairs fits) and 0-2 at s from
# 1e-2 to 1 (most grouping draws of tools/kkt_stress.py). On those sets,
# without the floor, slope 3 took between 1% fewer and 8% more iterations
# than slope 4, and slope 6 2-19% more. The floor is the best factor
# measured at the smallest share seen, 2**-5 (k = 10 at s ~ 5e-5, where the
# slope alone gives about 2**-5.1): no measurement supports a lower one, and
# without the floor rho would follow sqrt(s) toward 0 where the constrained
# rows carry almost no kernel mass.
_PAIR_RHO_SLOPE = 4.0
_PAIR_RHO_FLOOR = 2.0 ** -5
# Differences of the ADMM fixed-point map kept by Anderson acceleration.
_AA_MEMORY = 10
# Tikhonov weight of its least-squares problem, relative to the trace of the
# Gram matrix of the residual differences.
_AA_REG = 1e-10
# DictionaryState's tolerance on S's asymmetry, relative to max |S|.
_SYMMETRY_RTOL = 1e-10


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
    disables the objective test. ``lam = 0`` is legal (pure data fitting).
    A label fit then starts from the optimum over the PSD cone in closed
    form (see :func:`fit`), and iterates when rounding leaves its gradient
    above the tolerance, as on ill-conditioned cores. A grouping-kind fit
    starts from the prior and may end at ``max_iters``: the masked problem
    need not attain its infimum.
    """

    lam: float = 1.0
    max_iters: int = 2000
    obj_rel_tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "lam", as_real(self.lam, "lam"))
        object.__setattr__(self, "max_iters", as_count(self.max_iters, "max_iters"))
        object.__setattr__(self, "obj_rel_tol", as_real(self.obj_rel_tol, "obj_rel_tol"))


@dataclass(frozen=True)
class DictionaryState:
    """Learned inverse dictionary kernel S, with its factor L when known.

    S must be finite and symmetric to 1e-10 relative to its largest entry;
    violations raise at construction. A state given only S is checked PSD
    up to a -1e-8 relative eigenvalue tolerance (one ``eigvalsh``). A state
    given L as well, an m x r matrix with S = L @ L.T up to rounding, is PSD
    by construction and is not decomposed; :func:`fit` returns such a state,
    and :meth:`inductive.InductiveModel.from_state` embeds through its L.
    L must be finite; whether L @ L.T is S is the caller's to ensure.
    """

    S: np.ndarray
    L: np.ndarray | None = None

    def __post_init__(self):
        S = as_square_matrix(self.S, "S")
        # Comparisons with NaN are False, so the tests below would pass it.
        if not np.all(np.isfinite(S)):
            raise InputError("S contains non-finite entries")
        if S.size:
            scale = float(np.abs(S).max())
            if float(np.abs(S - S.T).max()) > _SYMMETRY_RTOL * scale:
                raise InputError(f"S must be symmetric to {_SYMMETRY_RTOL:g} relative")
        if self.L is not None:
            L = np.asarray(self.L, dtype=np.float64)
            m = S.shape[0]
            if L.ndim != 2 or L.shape[0] != m or L.shape[1] > m or not np.all(np.isfinite(L)):
                raise InputError(f"L must be a finite {m} x r matrix with r <= {m}")
            object.__setattr__(self, "L", L)
        elif S.size:
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
    at a start whose ||grad J||_F is within the tolerance reports that
    instead, which bounds it. ``converged_by`` is one of "grad_norm",
    "obj_rel", "max_iters" -- stopping at the iteration cap is reported,
    not raised; "grad_norm" means ``final_grad_norm`` is within the
    tolerance, and the other two that it is not.
    """

    iterations: int
    objective_trace: np.ndarray
    final_grad_norm: float
    final_objective: float
    converged_by: str
    iterates: tuple | None = None

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
    compact forms of :class:`_Supervision`. Without a ``supervision`` it
    checks S and lam and builds one, as the public functions need;
    :func:`fit` passes its own, with an S and a lam it has checked."""
    if supervision is None:
        S = as_square_matrix(S, "S")
        if S.shape != core.S0.shape:
            raise InputError(f"S must be {core.S0.shape}, got {S.shape}")
        LearnConfig(lam=lam)  # the fit's rule for lam
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


def _cut_negative(W):
    """(Y, U): the PSD projection Y = W - U of the symmetric W and its
    :func:`_negative_part` U, through the loop's plan when it has W's
    order. Both are symmetric bit for bit when W is.
    Exact in exact arithmetic; in floating point Y keeps rounding of size
    eps * ||U|| along the removed directions, so :func:`fit` passes the
    matrix it returns through one full :func:`_project`.
    """
    U = _negative_part(W, _loop.projection)
    return W - U, U


def _projection(n):
    """The :class:`_lapack.Syevr` of :func:`_negative_part` for order n."""
    return Syevr(n, compute_v=1, range="V", lower=1, vl=-np.inf, vu=0.0)


class _Loop(threading.local):
    """Per thread: the loop's :func:`_projection` and the Anderson system. A
    fit drops a projection of another order, and a step makes one when
    there is none. :meth:`_ADMM.finish` drops one above order
    :data:`_KEPT_ORDER`, before the exit evaluation, which is a fit's
    memory peak; up to that order the thread's next fits reuse it."""

    projection = None
    system = None


_loop = _Loop()
# The largest order whose projection plan a thread keeps between fits,
# 26 KiB at 32. Making one per fit took select-moons units (order 25) 2%
# longer in their median, and at order 40 keeping one through the exit
# evaluation would take test_grouping_fit_memory_stays_below_pair_by_entry_array
# over its bound.
_KEPT_ORDER = 32


def _negative_part(M, plan=None):
    """The part -B B^T of the symmetric M on its eigenvalues at or below 0,
    B = V diag(sqrt(-vals)) over those eigenpairs. NumPy takes B @ B.T by
    BLAS syrk, which fills one triangle and mirrors it, so the part is
    symmetric bit for bit. LAPACK reads M's lower triangle only.

    It computes only those eigenpairs (dsyevr), through ``plan`` if it is a
    :func:`_projection` of M's order, else one made for this call. dsyevr's
    bisection and inverse iteration can fail (nonzero info) when the
    nonpositive eigenvalues form an exact cluster; the full decomposition
    (eigh) then takes over, and only its failure raises.
    """
    if plan is None or plan.a.shape != M.shape:
        plan = _projection(M.shape[0])
    plan.a[...] = M
    vals, vecs, k, _, info = dsyevr(plan)
    if info != 0:
        try:
            vals, vecs = eigh(M)
        except NumericalError as exc:
            raise NumericalError(f"eigendecomposition failed: dsyevr info={info}, "
                                 f"and the full fallback: {exc}") from exc
        k = np.count_nonzero(vals <= 0.0)
    B = vecs[:, :k] * np.sqrt(-vals[:k])
    N = B @ B.T
    return np.negative(N, out=N)


def _exit_evaluation(S, core, side, lam, supervision):
    """J at S and its gradient-mapping norm L ||S - P(S - grad J(S) / L)||_F,
    with L = 2 * lam + 2 * c_max^2 the Lipschitz constant of grad J, taken
    as ||grad J(S) + L N|| with N the negative part of S - grad J(S) / L. As
    L ||S - P(S - grad J(S) / L)||, a difference of two nearly equal
    matrices the size of S, its rounding alone read 1.1-1.3 times the
    tolerance on a pair fit with L = 1.5e10."""
    value, grad = _value_and_gradient(S, core, side, lam, supervision)
    lipschitz = 2.0 * lam + 2.0 * max(float(supervision.eigenpairs[0].max(initial=0.0)), 0.0) ** 2
    N = _negative_part(S - grad / lipschitz, _loop.projection)
    return value, float(np.linalg.norm(grad + lipschitz * N))


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
    label-kind side information only; for the grouping kind this raises
    InputError, and :func:`fit` starts from the prior. At lam = 0
    the closed form is a different one, the optimum over the PSD cone, so
    this function takes lam > 0 only.
    A lam so small that the solution overflows raises InputError, as a
    non-finite matrix does in :func:`psd_project`.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise InputError(f"closed-form initialization requires lam > 0, got {lam}")
    S = _Supervision(core, side).closed_form(core.S0, lam)
    if S is None:
        raise InputError("closed-form initialization applies to label-kind side information")
    return _psd_start(S)[0] if project else S


def _psd_start(S):
    """(start, L): the start :func:`fit` takes from the symmetric S, a
    closed form at lam > 0, which is not PSD by construction, and a factor
    of it. If S is finite and LAPACK's Cholesky (dpotrf) factors it, the
    start is S and L its Cholesky factor. Otherwise the start is
    :func:`psd_project` of S and L the :func:`_factor` of the same
    eigenpairs.

    Cholesky succeeds in floating point exactly when S is numerically
    positive definite (Higham 2002, ch. 10), so S is then its own
    projection, certified at a small fraction of an eigendecomposition's
    cost. dpotrf reports success on NaN and infinite input, so a
    non-finite S raises InputError first, as in psd_project.
    """
    if not np.all(np.isfinite(S)):
        raise InputError("matrix contains non-finite entries")
    chol, info = dpotrf(S, lower=1)
    if info == 0:
        return S, chol
    vals, vecs = eigh(0.5 * (S + S.T))
    return _clamp(vals, vecs), _factor(vals, vecs)


def _factor(vals, vecs):
    """L = vecs diag(sqrt(vals)) over the eigenvalues above RANK_RTOL times
    the largest, as :func:`factorize` keeps them: L @ L.T is the PSD
    projection of the matrix with eigenpairs (vals, vecs), up to rounding
    and the eigenvalues it drops."""
    vals, vecs = _truncate(vals, vecs, RANK_RTOL)
    return vecs * np.sqrt(vals)


def fit(core, side, cfg, record_iterates=False, *, _supervision=None):
    """Minimize the penalized objective over the PSD cone.

    The start is the closed form whenever the supervision has one
    (label-kind side information) and there is at least one supervised row,
    and the prior S0 otherwise, or when lam is so small that the closed form
    overflows. For lam > 0 the closed form is that of
    :func:`init_closed_form`, and at lam = 0 the optimum itself
    (:meth:`supervision._Supervision.closed_form`), a Gram matrix, which
    starts as it is. C = El.T @ El is eigendecomposed once, for the closed
    form and the loop alike. The prior S0 = R @ R.T is a Gram matrix too and
    starts as it is, with the core's factor R: it is neither Cholesky-tested
    nor projected. The closed form at lam > 0 is kept as it is when a
    Cholesky factorization certifies it positive definite and PSD-projected
    otherwise (:func:`_psd_start`). A fit that stops at an unprojected start
    costs no eigendecomposition beyond C's.

    A start whose gradient norm is already within the tolerance of
    :class:`LearnConfig` is returned after 0 iterations; any other start,
    the closed form at lam = 0 included, iterates. One ADMM loop runs from
    the start for both kinds (see the module docstring), until the
    gradient-mapping norm of the matrix it would return falls within that
    tolerance, the best objective stalls (obj_rel_tol), or max_iters; one
    block at the end of each iteration confirms each of these stops once,
    and the stopping reason lands in the report's ``converged_by``.

    The report's ``final_objective`` is J at the returned S, from the same
    evaluation as its ``final_grad_norm``.

    The returned :class:`DictionaryState` holds S with a factor L, S = L @ L.T,
    from the decomposition that made S, so it is not decomposed again:

    - the prior: S = core.S0 and L = core.R;
    - a closed form that Cholesky certified: S as it is, L its Cholesky
      factor;
    - the closed form at lam = 0: L = H, S = H @ H.T;
    - a projected closed form: S the projection, L from its eigenpairs,
      over the eigenvalues above RANK_RTOL times the largest
      (:func:`_factor`);
    - the full projection at the exit of a fit that iterates: L from its
      eigenpairs, as for a projected closed form, and S = L @ L.T.

    ``_supervision`` is private: :func:`select_lambda` passes the
    :class:`_Supervision` of (core, side) that its whole grid shares.
    """
    sup = _Supervision(core, side) if _supervision is None else _supervision
    start = sup.closed_form(core.S0, cfg.lam) if side.indices.size > 0 else None
    if start is not None and cfg.lam == 0:
        # The closed form at lam = 0 is the factor H of the optimum H H^T,
        # one column per class. With more classes than landmarks, the state
        # keeps the m columns of its triangular form R.T (H.T = Q R).
        S = start @ start.T
        L = np.linalg.qr(start.T, mode="r").T if start.shape[1] > start.shape[0] else start
    else:
        closed = start is not None and np.all(np.isfinite(start))
        S, L = _psd_start(start) if closed else (core.S0, core.R)

    grad_tol = 1e-6 * (1.0 + 2.0 * sup.B_norm)
    value, grad = _value_and_gradient(S, core, side, cfg.lam, sup)
    # ||grad|| bounds the gradient-mapping norm and needs no eigendecomposition.
    gnorm = float(np.linalg.norm(grad))
    final = value
    trace = [value]
    iterates = [S] if record_iterates else None
    iterations = 0
    converged_by = "grad_norm"
    solver = None
    if gnorm > grad_tol:
        solver = _ADMM(S, core.S0, value, cfg.lam, sup)
        best = solver.Y0
        while True:
            point, value, bound = solver.step()
            iterations += 1
            if not math.isfinite(value):
                raise NumericalError(f"solver diverged at iteration {iterations}")
            if value <= trace[-1]:
                best = point
            trace.append(min(value, trace[-1]))
            if record_iterates:
                iterates.append(solver.matrix(_project(best)))
            # The best objective has stalled over the window, and the iterate
            # has settled on it (ADMM may wander above the best for a while
            # before improving on it).
            slack = cfg.obj_rel_tol * max(1.0, abs(trace[-1]))
            stalled = (cfg.obj_rel_tol > 0 and iterations >= _OBJ_WINDOW
                       and trace[-1 - _OBJ_WINDOW] - trace[-1] <= slack
                       and value - trace[-1] <= slack)
            capped = iterations >= cfg.max_iters
            # The bound holds at the current iterate, which need not be the
            # best one the fit returns: every stop is confirmed on the
            # returned matrix, and a stop on the bound alone that fails it
            # goes on iterating.
            if bound <= grad_tol or stalled or capped:
                state = solver.finish(best)
                final, gnorm = _exit_evaluation(state.S, core, side, cfg.lam, sup)
                if gnorm <= grad_tol or stalled or capped:
                    converged_by = ("grad_norm" if gnorm <= grad_tol
                                    else "obj_rel" if stalled else "max_iters")
                    break
    else:
        state = DictionaryState(S=S, L=L)
    report = SolverReport(
        iterations=iterations,
        objective_trace=np.asarray(trace),
        final_grad_norm=gnorm,
        final_objective=final,
        converged_by=converged_by,
        iterates=tuple(iterates) if record_iterates else None,
    )
    return FitResult(state=state, report=report)


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
    J(Y0) + <G0 + Hs * D, D> + the pair term at D, where
    Hs = (lam + diagonal) * DD**2. The supervision, taken in the basis
    V diag(d), supplies the pull in G0, the diagonal and the pair operator
    that holds the pair term and the x-step's p x p system (see
    :meth:`supervision._Supervision.in_basis`); the loop keeps only that
    operator and does not depend on the kind of side information. rho, and
    so the system, is fixed for the fit: the constructor factors it once,
    and the factor is kept until the fit returns (None with no pairs).

    Y0 and G0 are symmetrized once, here, and every state after them is
    symmetric bit for bit (see the module docstring): the projection
    :func:`_cut_negative` returns Y and U = W - Y, and D = Y - Y0 serves
    J, its gradient and the x-step of one iteration.
    """

    def __init__(self, S, S0, value, lam, supervision):
        c, self.V = supervision.eigenpairs
        h = np.sqrt(lam) + np.maximum(c, 0.0)
        self.scale = 1.0 / np.sqrt(np.maximum(h, max(RANK_RTOL * h.max(),
                                                      np.finfo(float).tiny)))
        self.DD = np.outer(self.scale, self.scale)
        Y0 = self.coords(S)
        self.Y0 = 0.5 * (Y0 + Y0.T)
        pull, diagonal, self.pairs = supervision.in_basis(self.V, self.scale, S)
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
        if _loop.projection is not None and _loop.projection.a.shape != self.Y0.shape:
            _loop.projection = None
        self.Hs = (lam + diagonal) * self.DD ** 2
        # An eighth of twice the mean diagonal of the Hessian in Z, pair term
        # included, scaled down with pairs by their share of it (see
        # _RHO_START).
        pair_mean = self.pairs.hessian_trace() / self.Hs.size
        mean = 2.0 * float(np.mean(self.Hs)) + pair_mean
        factor = (min(max(_PAIR_RHO_SLOPE * np.sqrt(pair_mean / mean), _PAIR_RHO_FLOOR), 1.0)
                  if pair_mean > 0 else 1.0)
        self.rho = _RHO_START * factor * mean
        # The x-step's diagonal and the pair system's factor, fixed with rho
        # for the whole fit.
        self.Dg = self.Hs + 0.5 * self.rho
        self.factor = self.pairs.factor(self.Dg)
        # The weights that take a Z-space residual to S's norm (see step).
        self.inv_DD = 1.0 / self.DD
        self.rho_DD = self.rho / self.DD
        # The start is PSD, so P(Y0) = Y0 and U = 0: Y0 is the first kept
        # state, and the first state evaluated is the map's value there.
        U = np.zeros_like(self.Y0)
        X = self._x_step(U, U)
        g = X - self.Y0
        self._keep(U, X, g, _norm(g))

    def coords(self, M):
        """Z coordinates of an S-space matrix."""
        return (self.V.T @ M @ self.V) / self.DD

    def matrix(self, Z):
        S = self.V @ (Z * self.DD) @ self.V.T
        return 0.5 * (S + S.T)

    def _evaluate(self, D):
        """J and its gradient at Y0 + D: J0 + <G0 + Hs * D, D> from one dot
        product and (G0 + Hs * D) + Hs * D, plus the pair term."""
        HD = self.Hs * D
        grad = self.G0 + HD
        value = self.J0 + float(grad.ravel().dot(D.ravel()))
        grad += HD
        if self.pairs.weight.size:
            pair_value, pair_grad = self.pairs.term(D)
            value += pair_value
            grad += pair_grad
        # J is a sum of squares; near J = 0 the cancellation in the expansion
        # about Y0 can leave it slightly negative.
        return max(value, 0.0), grad

    def _x_step(self, D, U):
        """The exact minimizer X = Y0 + E of J(X) + (rho/2) ||X - Y + U||^2,
        for Y = Y0 + D.

        E solves Dg * E + (the pair term's gradient at E) / 2 = N, with
        Dg = Hs + rho/2 and N = (rho (D - U) - G0) / 2, through the
        pair operator's system for Dg, factored once in the constructor.
        """
        N = D - U
        N *= 0.5 * self.rho
        N -= self.half_G0
        return self.Y0 + self.pairs.solve(self.factor, N, self.Dg)

    def finish(self, Z):
        """The state the fit returns for the iterate Z: its full projection,
        in S, as the Gram matrix of L = V diag(d) Q diag(sqrt(mu)) over the
        eigenpairs (mu, Q) of Z that :func:`_factor` keeps. Above order
        :data:`_KEPT_ORDER` it drops the loop's projection plan, 2 m^2 + 39 m
        words (see :class:`_Loop`); a step after it makes a new one."""
        if self.Y0.shape[0] > _KEPT_ORDER:
            _loop.projection = None
        L = (self.V * self.scale) @ _factor(*eigh(Z))
        # NumPy takes the product of a matrix with its own transpose by BLAS
        # syrk, which fills one triangle and mirrors it: S is symmetric bit
        # for bit.
        return DictionaryState(S=L @ L.T, L=L)

    def step(self):
        """One evaluation of the fixed-point map f at the state W; returns
        the projection Y = P(W), J(Y) and the bound on the mapping norm at Y."""
        if _loop.projection is None:
            _loop.projection = _projection(self.Y0.shape[0])
        Y, U = _cut_negative(self.W)
        D = Y - self.Y0
        value, grad = self._evaluate(D)
        # -rho * U, the part the projection cut off scaled by -rho, is PSD and
        # orthogonal to Y, whatever W is, so its distance to grad J(Y) bounds
        # the mapping norm at Y: ||E|| in S for the Z-space residual
        # E_Z = DD * (V^T E V).
        grad *= self.inv_DD
        grad += U * self.rho_DD
        bound = _norm(grad)
        X = self._x_step(D, U)
        # f(W) - W = X + U - W = X - Y.
        g = X - Y
        g_norm = _norm(g)
        if self.extrapolated and g_norm > self.kept_norm:
            # Safeguard: fall back to the plain step from the last kept state.
            self.W, self.extrapolated = self.kept, False
            self.memory.clear()
        else:
            self._keep(U, X, g, g_norm)
        return Y, value, bound

    def _keep(self, U, X, g, g_norm):
        """Make W = Y + U the kept state, with f(W) = X + U and residual
        g = X - Y of norm g_norm, and move to the next state: Anderson's
        extrapolation, or f(W) while it has no memory."""
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
        if _loop.system is None:
            _loop.system = Posv(_AA_MEMORY)
        self.system = _loop.system
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
        scale = float(self.gram[:n, :n].trace()) if n else 0.0
        if not scale > 0.0:
            return f
        # Tikhonov term on a copy of the Gram matrix's diagonal, which makes
        # it positive definite: LAPACK's Cholesky solve (dposv) takes it, in
        # the leading block of the system's buffers.
        A, b = self.system.block(n)
        A[...] = self.gram[:n, :n]
        A.flat[::n + 1] += _AA_REG * scale
        np.matmul(self.dG[:n], g_flat, out=b)
        _, gamma, info = dposv(self.system)
        if info != 0:
            # Not positive definite in floating point: take the plain step,
            # and restart the memory from this state.
            self.size = self.slot = 0
            return f
        return f - (gamma @ self.dF[:n]).reshape(f.shape)


def _norm(x):
    """Frobenius norm, with the bits of ``np.linalg.norm(x)``: one dot
    product of the raveled array, then its square root, without the
    dispatch on ``ord`` and ``axis``."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def factorize(state):
    """Factor S = L @ L.T over eigenvalues above 1e-12 times the largest.

    Accepts a DictionaryState or a bare PSD matrix; columns of L are ordered
    by decreasing eigenvalue, whatever the input, so this costs one full
    eigendecomposition of S. A zero matrix yields an (m, 0) factor. A
    caller that holds a fit's state, or the ``L`` of its
    :class:`modelselect.LambdaRecord`, has a factor already and does not
    need this.
    """
    S = state.S if isinstance(state, DictionaryState) else as_square_matrix(state, "S")
    vals, vecs = _truncate(*eigh(0.5 * (S + S.T)), RANK_RTOL)
    return vecs[:, ::-1] * np.sqrt(vals[::-1])
