"""Learning the inverse dictionary kernel over the PSD cone.

The extrapolated Gram matrix E @ S @ E.T is bent toward side information by
minimizing

    J(S) = lam * ||S - S0||_F^2 + ||residual(S)||_F^2

over positive semidefinite S, where S0 is the pseudo-inverse prior from the
landmark block and the residual compares the reconstructed similarities of
the supervised rows against a 0/1 target (optionally through a mask that
limits which pairs are constrained). J is a convex quadratic; a closed-form
solution of the unconstrained problem provides the warm start. Every solver
iteration costs exactly one m x m eigendecomposition, the PSD projection.
Both step kinds run in the eigenbasis V of C = El.T @ El = V diag(c) V.T,
rescaled by the congruence diag(1 / sqrt(sqrt(lam) + c)), which maps the
PSD cone onto itself and evens out the curvature at small lam:

* label kind: the Hessian of J is diagonal in V, with weights
  2 * (lam + c_i * c_j). ADMM (Boyd et al. 2011) splits J from the PSD
  constraint: the x-step is exact and elementwise, the y-step is the
  projection, and the penalty rho is set by residual balancing;
* grouping kind: the mask couples the entries, so nonmonotone spectral
  projected gradient (Birgin, Martinez & Raydan 2000) takes
  Barzilai-Borwein steps. J is quadratic, so its value and gradient along
  the search direction are exact and the line search needs no further
  eigendecomposition.

Both stop on the gradient-mapping norm L * ||S - P(S - grad J(S) / L)||_F,
with P the PSD projection and L = 2 * lam + 2 * c_max^2 the Lipschitz
constant of grad J. It vanishes exactly at the constrained optimum. Each
iteration bounds it by ||grad J(S) - M||_F, where M is a PSD matrix
orthogonal to S that the projection leaves behind (the ADMM dual, or the
projected-off negative part); that residual of the optimality conditions
needs no further eigendecomposition. A second test stops once the best
objective stalls.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from ._arrays import as_index_array, as_square_matrix, eigh
from .errors import InputError, NumericalError
from .kernels import LabelVector, ideal_kernel

SIDE_KINDS = ("labels", "grouping")
CONVERGENCE_REASONS = ("grad_norm", "obj_rel", "max_iters")

# Relative slack for "the recorded objective may not increase".
_ACCEPT_SLACK = 1e-12
# Iterations over which the best objective must improve by obj_rel_tol.
_OBJ_WINDOW = 20
# Objectives the nonmonotone line search remembers, and its sufficient
# decrease factor.
_SPG_MEMORY = 10
_SPG_GAMMA = 1e-4


@dataclass(frozen=True)
class SideInformation:
    """Supervision for dictionary learning.

    kind "labels": ``indices`` selects the supervised rows of E and
    ``target`` is the 0/1 same-class kernel on those rows (``mask`` unused).

    kind "grouping": ``indices`` selects the constrained rows, ``mask``
    flags which pairs carry a constraint, and ``target`` is 1 on must-link
    pairs and 0 elsewhere, with support inside the mask.
    """

    kind: str
    indices: np.ndarray
    target: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SIDE_KINDS:
            raise InputError(f"unknown side-information kind {self.kind!r}")
        indices = as_index_array(self.indices)
        target = np.asarray(self.target, dtype=np.float64)
        l = indices.shape[0]
        if target.shape != (l, l):
            raise InputError(f"target must be {l}x{l}, got {target.shape}")
        if target.size:
            if not np.array_equal(target, target.T):
                raise InputError("target must be symmetric")
            if not np.all((target == 0.0) | (target == 1.0)):
                raise InputError("target entries must be 0 or 1")
        if self.kind == "labels":
            if self.mask is not None:
                raise InputError("label-kind side information takes no mask")
        else:
            if self.mask is None:
                raise InputError("grouping-kind side information requires a mask")
            mask = np.asarray(self.mask, dtype=np.float64)
            if mask.shape != (l, l):
                raise InputError(f"mask must be {l}x{l}, got {mask.shape}")
            if mask.size:
                if not np.array_equal(mask, mask.T):
                    raise InputError("mask must be symmetric")
                if not np.all((mask == 0.0) | (mask == 1.0)):
                    raise InputError("mask entries must be 0 or 1")
                if np.any(target > mask):
                    raise InputError("target support must lie inside the mask")
            object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "target", target)

    @classmethod
    def from_labels(cls, labels):
        """Build label-kind side information from a LabelVector."""
        if not isinstance(labels, LabelVector):
            raise InputError("from_labels expects a LabelVector")
        if len(labels) == 0:
            return cls(kind="labels", indices=np.empty(0, dtype=np.intp),
                       target=np.zeros((0, 0)))
        return cls(kind="labels", indices=labels.indices, target=ideal_kernel(labels))

    @classmethod
    def from_constraints(cls, must_link, cannot_link):
        """Build grouping-kind side information from pairs of sample indices.

        Both arguments are iterables of (i, j) pairs; i and j must differ and
        no pair may appear in both lists.
        """
        must = {tuple(sorted((int(a), int(b)))) for a, b in must_link}
        cannot = {tuple(sorted((int(a), int(b)))) for a, b in cannot_link}
        for a, b in must | cannot:
            if a == b:
                raise InputError(f"constraint pairs must involve distinct samples, got ({a}, {b})")
            if a < 0:
                raise InputError("constraint indices must be nonnegative")
        conflict = must & cannot
        if conflict:
            raise InputError(f"pairs marked both must-link and cannot-link: {sorted(conflict)}")
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
        return cls(kind="grouping", indices=np.asarray(involved, dtype=np.intp),
                   target=target, mask=mask)


@dataclass(frozen=True)
class LearnConfig:
    """Solver settings.

    The solver stops once the gradient-mapping norm is at most
    ``grad_norm_tol``, or once the best objective has improved by at most
    ``obj_rel_tol`` (relative) over the last 20 iterations, or after
    ``max_iters`` iterations. ``grad_norm_tol = None`` means
    1e-6 * (1 + ||2 El.T @ target @ El||_F), resolved at run time: relative
    to the pull of the data term on the gradient, which has the gradient's
    units, unlike ||S0||. ``obj_rel_tol = 0`` disables the objective
    test. ``lam = 0`` is legal (pure data fitting); the closed-form
    initializer then does not apply and fitting starts from the projected
    prior.
    """

    lam: float = 1.0
    max_iters: int = 2000
    grad_norm_tol: float | None = None
    obj_rel_tol: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise InputError(f"lam must be a nonnegative real, got {self.lam}")
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_norm_tol is not None and not self.grad_norm_tol >= 0:
            raise InputError("grad_norm_tol must be >= 0")
        if not self.obj_rel_tol >= 0:
            raise InputError("obj_rel_tol must be >= 0")


@dataclass(frozen=True)
class DictionaryState:
    """Learned inverse dictionary kernel alongside its prior.

    S must be symmetric to 1e-10 absolute and PSD up to a -1e-8 relative
    eigenvalue tolerance; violations raise at construction.
    """

    S: np.ndarray
    S0: np.ndarray

    def __post_init__(self):
        S = as_square_matrix(self.S, "S")
        S0 = as_square_matrix(self.S0, "S0")
        if S.shape != S0.shape:
            raise InputError("S and S0 must have equal shape")
        if S.size:
            if float(np.abs(S - S.T).max()) > 1e-10:
                raise InputError("S must be symmetric to 1e-10")
            vals = np.linalg.eigvalsh(0.5 * (S + S.T))
            lo, hi = float(vals[0]), float(vals[-1])
            if lo < -1e-8 * max(hi, 0.0):
                raise InputError(
                    f"S must be PSD: smallest eigenvalue {lo} below tolerance")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "S0", S0)


@dataclass(frozen=True)
class SolverReport:
    """What happened during fitting.

    ``objective_trace[0]`` is the objective at the initializer and one entry
    follows per iteration: the best objective among the PSD iterates so
    far, so the sequence never increases (``iterates``, when recorded, holds
    the matching matrices). ``final_grad_norm`` is the gradient-mapping norm
    L * ||S - P(S - grad J(S) / L)||_F at the returned S; a fit that stops
    at its initializer reports ||grad J||_F instead, which bounds it.
    ``converged_by`` is one of "grad_norm", "obj_rel", "max_iters" --
    stopping at the iteration cap is reported, not raised.
    """

    iterations: int
    objective_trace: np.ndarray
    final_grad_norm: float
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
        object.__setattr__(self, "objective_trace", trace)


@dataclass(frozen=True)
class FitResult:
    state: DictionaryState
    report: SolverReport


def _supervised_rows(core, side):
    if side.indices.size and int(side.indices.max()) >= core.E.shape[0]:
        raise InputError("side-information indices exceed the number of samples")
    return core.E[side.indices]


def _residual(S, core, side):
    El = _supervised_rows(core, side)
    recon = El @ S @ El.T
    if side.kind == "grouping":
        recon = side.mask * recon
    return recon - side.target


def objective(S, core, side, lam):
    """Penalized fit J(S) = lam * ||S - S0||_F^2 + ||residual(S)||_F^2."""
    S = as_square_matrix(S, "S")
    if S.shape != core.S0.shape:
        raise InputError(f"S must be {core.S0.shape}, got {S.shape}")
    if not (np.isfinite(lam) and lam >= 0):
        raise InputError(f"lam must be a nonnegative real, got {lam}")
    res = _residual(S, core, side)
    prior = S - core.S0
    return float(lam * np.sum(prior * prior) + np.sum(res * res))


def gradient(S, core, side, lam):
    """Analytic gradient of :func:`objective` at S.

    2*lam*(S - S0) + 2 * El.T @ residual @ El. For grouping-kind side
    information the target lives inside the mask, so mask*(recon) - target
    already equals the masked residual the chain rule requires. The result
    is symmetrized to remove floating-point asymmetry.
    """
    S = as_square_matrix(S, "S")
    if S.shape != core.S0.shape:
        raise InputError(f"S must be {core.S0.shape}, got {S.shape}")
    if not (np.isfinite(lam) and lam >= 0):
        raise InputError(f"lam must be a nonnegative real, got {lam}")
    El = _supervised_rows(core, side)
    res = _residual(S, core, side)
    grad = 2.0 * lam * (S - core.S0) + 2.0 * (El.T @ res @ El)
    return 0.5 * (grad + grad.T)


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


def init_closed_form(core, side, lam, project=True):
    """Closed-form start: the unconstrained stationary point, PSD-projected.

    Setting the gradient to zero gives the linear system S + P @ S @ P = Q
    with P = (El.T @ El) / sqrt(lam) and Q = S0 + (El.T @ target @ El) / lam.
    Diagonalizing P = U diag(v) U.T turns that into independent scalar
    equations: in the eigenbasis, S_ij = Q_ij / (1 + v_i * v_j). With no
    supervised rows this degenerates to S = S0.

    Defined for label-kind side information with lam > 0; grouping-kind
    callers fall back to the projected prior (see :func:`fit`). Pass
    ``project=False`` to get the raw solution of the linear system.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise InputError(f"closed-form initialization requires lam > 0, got {lam}")
    if side.kind != "labels":
        raise InputError("closed-form initialization applies to label-kind side information")
    El = _supervised_rows(core, side)
    S, _ = _closed_form(El, El.T @ side.target @ El, core.S0, lam)
    return psd_project(S) if project else S


def _closed_form(El, B, S0, lam):
    """Unprojected closed form for B = El.T @ target @ El, with the
    eigenpairs (c, V) of C = El.T @ El that the diagonalization of
    P = C / sqrt(lam) yields for free."""
    P = (El.T @ El) / np.sqrt(lam)
    Q = S0 + B / lam
    vals, U = eigh(0.5 * (P + P.T))
    q_tilde = U.T @ Q @ U
    s_tilde = q_tilde / (1.0 + np.outer(vals, vals))
    S = U @ s_tilde @ U.T
    return 0.5 * (S + S.T), (vals * np.sqrt(lam), U)


def fit(core, side, cfg, init="auto", record_iterates=False):
    """Minimize the penalized objective over the PSD cone.

    init:
      * "auto": closed form for label-kind side information with lam > 0,
        projected prior otherwise;
      * "prior": always psd_project(S0);
      * "closed_form": force the closed form; for grouping-kind side
        information this solves the unmasked system, a heuristic warm start.

    A start whose gradient norm is already at most grad_norm_tol is returned
    after 0 iterations. Otherwise label-kind side information runs ADMM and
    grouping-kind runs spectral projected gradient (see the module
    docstring), until the gradient-mapping norm falls below grad_norm_tol,
    the best objective stalls (obj_rel_tol), or max_iters; the stopping
    reason lands in the report's ``converged_by``.
    """
    if init not in ("auto", "prior", "closed_form"):
        raise InputError(f"unknown init scheme {init!r}")
    S0 = core.S0
    El = _supervised_rows(core, side)
    B = El.T @ side.target @ El
    use_closed = (init == "closed_form") or (
        init == "auto" and side.kind == "labels" and cfg.lam > 0
        and side.indices.size > 0)
    basis = None
    if use_closed:
        if cfg.lam <= 0:
            raise InputError("closed-form initialization requires lam > 0")
        S, basis = _closed_form(El, B, S0, cfg.lam)
        S = _project(S)
    else:
        S = psd_project(S0)

    grad_tol = cfg.grad_norm_tol
    if grad_tol is None:
        grad_tol = 1e-6 * (1.0 + 2.0 * float(np.linalg.norm(B)))

    value = objective(S, core, side, cfg.lam)
    grad = gradient(S, core, side, cfg.lam)
    trace = [value]
    iterates = [S] if record_iterates else None
    iterations = 0
    # ||grad|| bounds the gradient-mapping norm and needs no eigendecomposition.
    gnorm = float(np.linalg.norm(grad))
    converged_by = "grad_norm"
    if gnorm > grad_tol:
        c, V = basis if basis is not None else eigh(El.T @ El)
        basis = (np.maximum(c, 0.0), V)
        if side.kind == "labels":
            solver = _LabelADMM(S, grad, value, basis, cfg.lam)
        else:
            solver = _PairSPG(S, El, side, S0, cfg.lam, basis)
        best = solver.point
        converged_by = "max_iters"
        while iterations < cfg.max_iters:
            point, value, bound = solver.step()
            iterations += 1
            if not np.isfinite(value):
                raise NumericalError(f"solver diverged at iteration {iterations}")
            if value < trace[-1]:
                best = point
            trace.append(min(value, trace[-1]))
            if record_iterates:
                iterates.append(solver.matrix(best))
            if bound <= grad_tol:
                converged_by = "grad_norm"
                break
            # The best objective has stalled over the window, and the iterate
            # has settled on it (ADMM and the nonmonotone search may wander
            # above the best for a while before improving on it).
            slack = cfg.obj_rel_tol * max(1.0, abs(trace[-1]))
            if (cfg.obj_rel_tol > 0 and iterations >= _OBJ_WINDOW
                    and trace[-1 - _OBJ_WINDOW] - trace[-1] <= slack
                    and value - trace[-1] <= slack):
                converged_by = "obj_rel"
                break
        S = solver.matrix(best)
        gnorm = solver.lipschitz * float(np.linalg.norm(
            S - _project(S - gradient(S, core, side, cfg.lam) / solver.lipschitz)))
        if converged_by == "max_iters" and gnorm <= grad_tol:
            converged_by = "grad_norm"
    report = SolverReport(
        iterations=iterations,
        objective_trace=np.asarray(trace),
        final_grad_norm=gnorm,
        converged_by=converged_by,
        iterates=tuple(iterates) if record_iterates else None,
    )
    return FitResult(state=DictionaryState(S=S, S0=S0), report=report)


class _ScaledBasis:
    """Coordinates Z in which both step kinds run: S = V (DD * Z) V^T, with
    C = El.T @ El = V diag(c) V^T and DD = d d^T, d_i = 1 / sqrt(sqrt(lam) + c_i).

    The congruence by V diag(d) maps the PSD cone onto itself, so the
    projection is unchanged, while the Hessian of the label-kind J, diagonal
    in V with weights 2 * (lam + c_i c_j), gets weights of at most 2 (all 2
    at lam = 0). Without it, small lam leaves those weights spread over
    many orders of magnitude and first-order steps crawl along the flat
    directions.
    """

    def __init__(self, basis, lam):
        c, self.V = basis
        h = np.sqrt(lam) + c
        self.scale = 1.0 / np.sqrt(np.maximum(h, max(1e-12 * h.max(), np.finfo(float).tiny)))
        self.DD = np.outer(self.scale, self.scale)
        # Lipschitz constant of grad J in S, for the gradient mapping.
        self.lipschitz = 2.0 * lam + 2.0 * float(c.max(initial=0.0)) ** 2

    def coords(self, M):
        """Z coordinates of an S-space matrix."""
        return (self.V.T @ M @ self.V) / self.DD

    def matrix(self, Z):
        S = self.V @ (Z * self.DD) @ self.V.T
        return 0.5 * (S + S.T)

    def mapping_bound(self, residual):
        """||E|| in S for the Z-space KKT residual E_Z = DD * (V^T E V)."""
        return float(np.linalg.norm(residual / self.DD))


class _LabelADMM(_ScaledBasis):
    """ADMM for label-kind side information.

    In Z, J = J(Z0) + <G0, Z - Z0> + sum(Hs * (Z - Z0)**2) with
    Hs = (lam + c c^T) * DD**2, so the x-step of
    min J(X) + (rho/2) ||X - Y + U||^2 is elementwise and exact and the
    y-step Y = P(X + U) is the projection.
    """

    def __init__(self, S, grad, value, basis, lam):
        super().__init__(basis, lam)
        c = basis[0]
        self.Hs = (lam + np.outer(c, c)) * self.DD ** 2
        self.Y0 = self.coords(S)
        self.G0 = (self.V.T @ grad @ self.V) * self.DD
        self.J0 = value
        self.point = self.Y0
        self.U = np.zeros_like(self.Y0)
        self.rho = 2.0 * float(np.mean(self.Hs))

    def step(self):
        Hs, Y, rho = self.Hs, self.point, self.rho
        X = self.Y0 + (0.5 * rho * (Y - self.Y0 - self.U) - 0.5 * self.G0) / (Hs + 0.5 * rho)
        Y_next = _project(X + self.U)
        self.U += X - Y_next
        D = Y_next - self.Y0
        value = self.J0 + float(np.sum(self.G0 * D)) + float(np.sum(Hs * D * D))
        # -rho * U, with U the part the projection cut off, is PSD and
        # orthogonal to Y_next, so its distance to grad J(Y_next) bounds the
        # mapping norm at Y_next.
        bound = self.mapping_bound(self.G0 + 2.0 * Hs * D + rho * self.U)
        # Residual balancing (Boyd et al. 2011, section 3.4.1).
        primal = float(np.linalg.norm(X - Y_next))
        dual = rho * float(np.linalg.norm(Y_next - Y))
        if primal > 10.0 * dual:
            self.rho *= 2.0
            self.U /= 2.0
        elif dual > 10.0 * primal:
            self.rho /= 2.0
            self.U *= 2.0
        self.point = Y_next
        return Y_next, value, bound


class _PairSPG(_ScaledBasis):
    """Nonmonotone spectral projected gradient for grouping-kind side
    information, evaluated on the list of constrained pairs.

    The mask's nonzero upper-triangle entries (a, b) give the rows
    Fa = Et[a] and Fb = Et[b] of Et = El V diag(d), so every masked product
    costs O(p m^2) for p pairs instead of O(l^2 m). With
    d = P(Z - a * grad) - Z, J and its gradient along Z + t d are exact
    quadratics; t = 1 is kept when it passes a nonmonotone sufficient
    decrease test (Grippo, Lampariello & Lucidi 1986), else the exact
    minimizer along d is taken. Convex combinations of PSD matrices stay
    PSD, and the step length a is the Barzilai-Borwein ratio
    ||d||^2 / <d, H d>.
    """

    def __init__(self, S, El, side, S0, lam, basis):
        super().__init__(basis, lam)
        c = basis[0]
        Et = (El @ self.V) * self.scale
        a, b = np.nonzero(np.triu(side.mask))
        self.Fa, self.Fb = Et[a], Et[b]
        # A diagonal pair appears once in the mask, an off-diagonal one twice.
        self.weight = np.where(a == b, 0.5, 1.0)
        self.target = side.target[a, b]
        self.W = lam * self.DD ** 2
        self.Z0 = self.coords(S0)
        # Et.T @ Et = diag(c * d**2), so 1 / step_size bounds the Hessian in Z.
        self.step_size = 1.0 / (2.0 * float(self.W.max())
                                + 2.0 * float(np.max(c * self.scale ** 2, initial=0.0)) ** 2)
        self.max_step = 1e10 * self.step_size
        self.point = self.coords(S)
        self.value, self.grad = self._evaluate(self.point)
        self.recent = deque([self.value], maxlen=_SPG_MEMORY)

    def _at_pairs(self, M):
        """Entries of Et @ M @ Et.T at the constrained pairs."""
        return np.einsum("pi,pi->p", self.Fa @ M, self.Fb)

    def _spread(self, r):
        """Et.T @ R @ Et for the symmetric R that holds r at the pairs."""
        A = self.Fa.T @ ((self.weight * r)[:, None] * self.Fb)
        return A + A.T

    def _evaluate(self, Z):
        r = self._at_pairs(Z) - self.target
        prior = Z - self.Z0
        value = float(np.sum(self.W * prior * prior)) + 2.0 * float(np.sum(self.weight * r * r))
        return value, 2.0 * self.W * prior + 2.0 * self._spread(r)

    def hess(self, d):
        """Hessian of J in Z applied to d."""
        return 2.0 * self.W * d + 2.0 * self._spread(self._at_pairs(d))

    def step(self):
        Z, g, a = self.point, self.grad, self.step_size
        d = _project(Z - a * g) - Z
        Hd = self.hess(d)
        # g + d / a, the part the projection cut off over a, is PSD and
        # orthogonal to Z + d, so its distance to grad J(Z + d) = g + Hd
        # bounds the mapping norm at Z + d.
        bound = self.mapping_bound(Hd - d / a)
        dd = float(np.sum(d * d))
        if dd == 0.0:
            return Z, self.value, 0.0
        gd = float(np.sum(g * d))
        curv = float(np.sum(d * Hd))
        t = 1.0
        if self.value + gd + 0.5 * curv > max(self.recent) + _SPG_GAMMA * gd:
            t = min(1.0, -gd / curv)
        Z = Z + t * d
        Z = 0.5 * (Z + Z.T)
        self.point = Z
        self.value, self.grad = self._evaluate(Z)
        self.recent.append(self.value)
        self.step_size = min(dd / curv, self.max_step) if curv > 0 else self.max_step
        return Z, self.value, bound


def factorize(state, rel_tol=1e-12):
    """Factor S = L @ L.T over eigenvalues above rel_tol * largest.

    Accepts a DictionaryState or a bare PSD matrix; columns of L are ordered
    by decreasing eigenvalue. A zero matrix yields an (m, 0) factor.
    """
    S = state.S if isinstance(state, DictionaryState) else as_square_matrix(state, "S")
    if not 0 <= rel_tol < 1:
        raise InputError(f"rel_tol must lie in [0, 1), got {rel_tol}")
    vals, vecs = eigh(0.5 * (S + S.T))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    top = float(vals[0]) if vals.size else 0.0
    keep = vals > max(rel_tol * top, 0.0)
    return vecs[:, keep] * np.sqrt(vals[keep])
