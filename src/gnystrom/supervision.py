"""Side information and the compact forms of what fitting and selection
compute from it.

:class:`SideInformation` holds supervision for l rows of E as class codes
(labels) or as a list of constrained pairs, never as l x l arrays.
:class:`_Supervision` holds what every fit and alignment on one (core, side)
pair shares: B = El.T @ target @ El, the eigenpairs of El.T @ El, and the
factors from which J's data term, its gradient and the target alignment are
computed in O(l m + m^2) memory. It gives :mod:`dictlearn` the closed-form
start (labels only; pairs have none), J's data term and its pull at S, and,
for the ADMM loop, which runs in a rescaled eigenbasis, J's data term there
as a diagonal Hessian plus one :class:`_Pairs`, which holds the pair term
and the p x p system of the pair x-step (no pairs for labels). Only this
module knows how either kind of side information enters J; :class:`_Pairs`
is the one place that touches the pair list's rows.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dgeqrt, dpotrf, dpotrs

from ._arrays import as_index_array, eigh
from .errors import InputError, NumericalError
from .kernels import LabelVector, _centred_cosine

SIDE_KINDS = ("labels", "grouping")
# With pairs, the ADMM loop in dictlearn starts its penalty rho at this
# fraction of the start it takes for labels (see dictlearn._RHO_START).
# From the label start, residual balancing halved rho once or twice on each
# of the benchmark's fit-pairs fits (m = 60, 100 pairs) and two or three
# times on pair fits at m = 200 (tools/pair_sweep.py: 300 and 1,000 pairs),
# and each change cost a p x p factorization and Anderson's memory. Started
# at 2**-2.5 of it, balancing moved rho in none of 21 fit-pairs fits (at
# 2**-3 it doubled rho in 4), which took 30.8 instead of 48.8 iterations per
# fit, and the six m = 200 fits took 461 instead of 546 iterations and 8
# instead of 20 factorizations (one BLAS thread).
_PAIR_RHO_FACTOR = 2.0 ** -2.5


@dataclass(frozen=True)
class SideInformation:
    """Supervision for dictionary learning, held in O(l + p) memory for l
    supervised rows and p constrained pairs.

    ``indices`` selects the supervised rows of E.

    kind "labels": ``codes`` holds one nonnegative integer class code per
    row; the target is 1 on a pair of rows exactly when their codes agree.

    kind "grouping": ``pairs`` is a p x 2 array of row positions (a, b) with
    a <= b, each pair listed once and a = b allowed (it constrains a
    diagonal entry), and ``must`` flags its must-link pairs; the others are
    cannot-link. Pairs are kept in lexicographic order.

    ``target`` and ``mask`` build the dense l x l arrays on demand, for
    inspection; fitting, selection and alignment never call them.
    :meth:`from_dense` takes the dense form.
    """

    kind: str
    indices: np.ndarray
    codes: np.ndarray | None = None
    pairs: np.ndarray | None = None
    must: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SIDE_KINDS:
            raise InputError(f"unknown side-information kind {self.kind!r}")
        indices = as_index_array(self.indices)
        l = indices.shape[0]
        if self.kind == "labels":
            if self.pairs is not None or self.must is not None:
                raise InputError("label-kind side information takes no pairs")
            if self.codes is None:
                raise InputError("label-kind side information requires codes")
            codes = as_index_array(self.codes, "codes", distinct=False)
            if codes.shape != (l,):
                raise InputError(f"codes must hold {l} entries, got {codes.shape[0]}")
            object.__setattr__(self, "codes", codes)
        else:
            if self.codes is not None:
                raise InputError("grouping-kind side information takes no codes")
            if self.pairs is None or self.must is None:
                raise InputError("grouping-kind side information requires pairs and must")
            pairs = np.asarray(self.pairs)
            if pairs.size == 0:
                pairs = np.empty((0, 2), dtype=np.intp)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise InputError(f"pairs must be p x 2, got shape {pairs.shape}")
            pairs = as_index_array(pairs.ravel(), "pairs", distinct=False).reshape(-1, 2)
            must = np.asarray(self.must)
            if must.shape != (pairs.shape[0],):
                raise InputError(f"must must hold one flag per pair, got shape {must.shape}")
            if not np.all((must == 0) | (must == 1)):
                raise InputError("must entries must be 0 or 1")
            if pairs.size:
                if np.any(pairs[:, 0] > pairs[:, 1]):
                    raise InputError("pairs (a, b) must have a <= b")
                if int(pairs.max()) >= l:
                    raise InputError(f"pair rows must lie below {l}")
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs, must = pairs[order], must[order].astype(bool)
            if np.any(np.all(pairs[1:] == pairs[:-1], axis=1)):
                raise InputError("pairs must be distinct")
            object.__setattr__(self, "pairs", pairs)
            object.__setattr__(self, "must", must)
        object.__setattr__(self, "indices", indices)

    @property
    def target(self):
        """The dense l x l 0/1 target: 1 where two rows share a class, or on
        the must-link pairs."""
        if self.kind == "labels":
            return (self.codes[:, None] == self.codes[None, :]).astype(np.float64)
        return self._pair_matrix(self.must)

    @property
    def mask(self):
        """The dense l x l 0/1 mask of constrained pairs; None for labels."""
        if self.kind == "labels":
            return None
        return self._pair_matrix(np.ones(self.must.shape, dtype=bool))

    def _pair_matrix(self, flags):
        l = self.indices.shape[0]
        out = np.zeros((l, l))
        a, b = self.pairs[flags].T
        out[a, b] = out[b, a] = 1.0
        return out

    @classmethod
    def from_dense(cls, kind, indices, target, mask=None):
        """Side information from a dense l x l 0/1 ``target`` (and ``mask``
        for the grouping kind), both symmetric.

        A label target must be an equivalence relation with a unit diagonal
        (a same-class kernel). A grouping target must lie inside the mask;
        every nonzero of the mask's upper triangle, its diagonal included,
        becomes a pair.
        """
        if kind not in SIDE_KINDS:
            raise InputError(f"unknown side-information kind {kind!r}")
        indices = as_index_array(indices)
        target = np.asarray(target, dtype=np.float64)
        l = indices.shape[0]
        _check_dense(target, l, "target")
        if kind == "labels":
            if mask is not None:
                raise InputError("label-kind side information takes no mask")
            # Rows of an equivalence relation with a unit diagonal are equal
            # within a class and differ across classes.
            _, codes = np.unique(target, axis=0, return_inverse=True)
            codes = codes.ravel()
            if not np.array_equal(target, codes[:, None] == codes[None, :]):
                raise InputError("a label target must be an equivalence relation "
                                 "with a unit diagonal")
            return cls(kind=kind, indices=indices, codes=codes)
        if mask is None:
            raise InputError("grouping-kind side information requires a mask")
        mask = np.asarray(mask, dtype=np.float64)
        _check_dense(mask, l, "mask")
        if np.any(target > mask):
            raise InputError("target support must lie inside the mask")
        a, b = np.nonzero(np.triu(mask))
        return cls(kind=kind, indices=indices, pairs=np.column_stack([a, b]),
                   must=target[a, b] == 1.0)

    @classmethod
    def from_labels(cls, labels):
        """Build label-kind side information from a LabelVector."""
        if not isinstance(labels, LabelVector):
            raise InputError("from_labels expects a LabelVector")
        _, codes = np.unique(labels.labels, return_inverse=True)
        return cls(kind="labels", indices=labels.indices, codes=codes.ravel())

    @classmethod
    def from_constraints(cls, must_link, cannot_link):
        """Build grouping-kind side information from pairs of sample indices.

        Both arguments are iterables of (i, j) pairs of nonnegative integers
        below 2**63; i and j must differ and no pair may appear in both
        lists. A pair listed twice, in either order, counts once.
        """
        must, cannot = _sample_pairs(must_link), _sample_pairs(cannot_link)
        both = np.concatenate([must, cannot])
        if np.any(both[:, 0] == both[:, 1]):
            a, b = both[both[:, 0] == both[:, 1]][0]
            raise InputError(f"constraint pairs must involve distinct samples, got ({a}, {b})")
        # The rows are the ranks of the samples among the l involved. The map
        # is increasing, so a pair of rows (a, b) keeps a < b, and as the key
        # a * l + b, below l**2 <= (2 p)**2 for p pairs, it orders the pairs
        # lexicographically and decodes to its rows.
        involved, rows = np.unique(both, return_inverse=True)
        l = max(involved.size, 1)
        rows = rows.reshape(-1, 2)
        keys = rows[:, 0] * l + rows[:, 1]
        must, cannot = np.unique(keys[:must.shape[0]]), np.unique(keys[must.shape[0]:])
        conflict = np.intersect1d(must, cannot)
        if conflict.size:
            pairs = [(int(involved[k // l]), int(involved[k % l])) for k in conflict]
            raise InputError(f"pairs marked both must-link and cannot-link: {pairs}")
        keys = np.concatenate([must, cannot])
        order = np.argsort(keys)
        return cls(kind="grouping", indices=involved,
                   pairs=np.column_stack(np.divmod(keys[order], l)), must=order < must.size)


def _check_dense(M, l, name):
    if M.shape != (l, l):
        raise InputError(f"{name} must be {l}x{l}, got {M.shape}")
    if not np.array_equal(M, M.T):
        raise InputError(f"{name} must be symmetric")
    if not np.all((M == 0.0) | (M == 1.0)):
        raise InputError(f"{name} entries must be 0 or 1")


def _sample_pairs(pairs):
    """An iterable of (i, j) sample pairs as a k x 2 array of indices, each
    row sorted."""
    arr = np.asarray(list(pairs))
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError(f"constraints must be (i, j) pairs, got shape {arr.shape}")
    arr = as_index_array(arr.ravel(), "constraint indices", distinct=False)
    return np.sort(arr.reshape(-1, 2), axis=1)


class _Supervision:
    """What every fit and alignment on (core, side) shares, whatever lam,
    held in O(l m + m^2) memory (plus O(l k) for k classes): no l x l array.

    ``B`` = El.T @ target @ El for the supervised rows El, and
    ``eigenpairs`` (c, V) of C = El.T @ El, computed on first use (fitting
    needs them; J, its gradient and the alignment do not). The data term
    ||residual||_F^2 of J and its gradient come from a residual:

    * labels: the target is Y Y^T for the l x k one-hot code matrix Y, so
      B = (El.T Y)(El.T Y)^T. With the thin QR El = Q R and A = Q^T Y, the
      residual is F S F^T - A A^T for F = R (r x r, r = min(l, m)), the data
      term is its squared norm plus ||target||^2 - ||A A^T||^2 = tr(D N) +
      <A^T A, D> for N = Y^T Y and D = Y^T (I - Q Q^T) Y, and the gradient's
      data term is 2 F^T residual F. One Householder QR of [El, Y] yields R,
      A and the triangle whose Gram matrix is D, so the constant is a sum of
      nonnegative k x k terms, free of the cancellation in
      ||target||^2 - ||A A^T||^2 (or in tr(SCSC) - 2 tr(SB) + sum n_k^2),
      which swamps J near 0.
    * pairs: the residual is the 2 x p entries of F S F^T - target at (a, b)
      and at (b, a) (equal for symmetric S) for F = El, the data term
      sum(weight * r^2) and the gradient's data term twice the residual
      spread over the pairs, all through :class:`_Pairs` in O(p m^2).

    :meth:`term` gives the data term and its pull F^T residual F at S,
    :meth:`closed_form` the unconstrained minimizer of J for labels (None for
    pairs), and :meth:`in_basis` the data term in the coordinates of the ADMM
    loop in :mod:`dictlearn`, for the factor F V diag(d): its pull at the
    start, its Hessian where that is diagonal, and the :class:`_Pairs` of the
    rest.
    """

    def __init__(self, core, side):
        if side.indices.size and int(side.indices.max()) >= core.E.shape[0]:
            raise InputError("side-information indices exceed the number of samples")
        El = core.E[side.indices]
        self.kind, self.El = side.kind, El
        if side.kind == "labels":
            # One column per class present, however far apart the codes are.
            self.Y = (side.codes[:, None] == np.unique(side.codes)).astype(np.float64)
            ElY = El.T @ self.Y
            self.B = ElY @ ElY.T
            self.F, A, D = _qr_parts(El, self.Y)
            self.K = A @ A.T
            counts = self.Y.sum(axis=0)
            self.constant = float(counts @ np.diag(D) + np.sum((A.T @ A) * D))
            # ||target||_F, for the alignment's zero test.
            self.target_norm = float(np.sqrt(counts @ counts))
        else:
            self.F, self.pair_rows = El, side.pairs.T
            self.weight = np.where(side.pairs[:, 0] == side.pairs[:, 1], 0.5, 1.0)
            self.pair_target = side.must.astype(np.float64)
            self.B = self._pairs().spread(self.pair_target)

    @cached_property
    def eigenpairs(self):
        return eigh(self.El.T @ self.El)

    def in_basis(self, V, d, S):
        """The data term in the coordinates Z of the ADMM loop, with
        S = V diag(d) Z diag(d) V^T, as (pull, diagonal, pairs): the
        :meth:`pull` at S through the factor F V diag(d); the weights of its
        Hessian where that is diagonal in the eigenbasis V of C (c c^T for
        labels, 0.0 for pairs); and the :class:`_Pairs` of that factor, which
        holds the rest (no pairs for labels)."""
        res, F = self.residual(S), (self.F @ V) * d
        if self.kind == "labels":
            c = np.maximum(self.eigenpairs[0], 0.0)
            return F.T @ res @ F, np.outer(c, c), _Pairs(F, np.empty((2, 0), int), np.empty(0))
        # The loop needs F only at the pairs.
        pairs = _Pairs(F, self.pair_rows, self.weight)
        return pairs.spread(0.5 * (res[0] + res[1])), 0.0, pairs

    def _pairs(self):
        """The pair operator of F, gathered for this call, so that no
        O(p m) array outlives a call on S."""
        return _Pairs(self.F, self.pair_rows, self.weight)

    def residual(self, S):
        if self.kind == "labels":
            return self.F @ S @ self.F.T - self.K
        return self._pairs().entries(S) - self.pair_target

    def term(self, S):
        """J's data term at S and its pull F^T Res F, half the data term of
        grad J (the residual symmetrized for pairs), from one residual; the
        pair rows are gathered once."""
        if self.kind == "labels":
            res = self.residual(S)
            return float(np.sum(res * res)) + self.constant, self.F.T @ res @ self.F
        pairs = self._pairs()
        res = pairs.entries(S) - self.pair_target
        return float(np.sum(self.weight * res * res)), pairs.spread(0.5 * (res[0] + res[1]))

    def closed_form(self, S0, lam):
        """The unconstrained minimizer of J for lam > 0, unprojected, or None
        for pairs, which have no closed form here.

        For labels, setting grad J to zero gives S + P S P = Q with
        P = C / sqrt(lam) and Q = S0 + B / lam. P has the eigenvectors V of
        C and eigenvalues c / sqrt(lam), so in that basis the system is
        elementwise, S_ij = Q_ij / (1 + c_i c_j / lam). A tiny lam overflows
        it to non-finite entries, without a warning; the callers test for
        them. With no supervised rows it reduces to S0."""
        if self.kind != "labels":
            return None
        c, V = self.eigenpairs
        with np.errstate(over="ignore", invalid="ignore"):
            q_tilde = V.T @ (S0 + self.B / lam) @ V
            S = V @ (q_tilde / (1.0 + np.outer(c, c) / lam)) @ V.T
            return 0.5 * (S + S.T)

    def alignment(self, S):
        """nka_score(El @ S @ El.T, target) (masked for pairs), the
        centred cosine, without an l x l array."""
        if self.kind == "labels":
            Rc, Kc, centred_target = self._centred
            Mc = Rc @ S @ Rc.T
            raw = float(np.linalg.norm(self.F @ S @ self.F.T))
            return _centred_cosine(float(np.sum(Mc * Kc)), float(np.linalg.norm(Mc)),
                                   centred_target, raw, self.target_norm)
        x = self._pairs().entries(S)
        t = np.broadcast_to(self.pair_target, x.shape)
        return _centred_cosine(
            self._centred_inner(x, t), np.sqrt(max(self._centred_inner(x, x), 0.0)),
            np.sqrt(max(self._centred_inner(t, t), 0.0)),
            np.sqrt(np.sum(self.weight * x * x)), np.sqrt(np.sum(self.weight * t * t)))

    @cached_property
    def _centred(self):
        """For labels, (Rc, Ac Ac^T, ||H target H||_F) with H = I - 11^T / l:
        H El = Qc Rc is a thin QR and Ac = Qc^T H Y, so that H El S El.T H =
        Qc (Rc S Rc^T) Qc^T and <H El S El.T H, H target H> =
        <Rc S Rc^T, Ac Ac^T>. Built on the first alignment and shared by the
        rest."""
        l = self.El.shape[0]
        Ec = self.El - self.El.sum(axis=0) / max(l, 1)
        Yc = self.Y - self.Y.sum(axis=0) / max(l, 1)
        Rc, Ac, _ = _qr_parts(Ec, Yc)
        return Rc, Ac @ Ac.T, float(np.linalg.norm(Yc.T @ Yc))

    def _centred_inner(self, x, y):
        """<H X H, H Y H> for the l x l matrices X and Y that hold x and y
        (2 x p, as from :meth:`_Pairs.entries`) at the pairs, H = I - 11^T / l, in
        O(p + l): with row sums r, column sums c and total s,
        <X, Y> - (r_X . r_Y + c_X . c_Y) / l + s_X s_Y / l^2."""
        l = max(self.El.shape[0], 1)
        (rx, cx), (ry, cy) = self._sums(x), self._sums(y)
        return float(np.sum(self.weight * x * y) - (rx @ ry + cx @ cy) / l
                     + rx.sum() * ry.sum() / l ** 2)

    def _sums(self, x):
        """Row and column sums of the matrix that holds x at the pairs."""
        a, b = self.pair_rows
        l = self.El.shape[0]
        # A diagonal pair holds one entry, counted once.
        off = np.where(a == b, 0.0, x[1])
        return (np.bincount(a, x[0], l) + np.bincount(b, off, l),
                np.bincount(b, x[0], l) + np.bincount(a, off, l))


class _Pairs:
    """The rows Fa = F[a] and Fb = F[b] of a factor F at p constrained pairs
    (a, b), with each pair's weight: 1/2 on a diagonal pair, which the l x l
    mask holds once, and 1 elsewhere.

    :meth:`at` gives the entries of F M F^T at the pairs and :meth:`spread`
    gives F^T R F for the symmetric R that holds weight * r at (a, b) and at
    (b, a), each in O(p m^2); neither forms an l x l or a p x m^2 array.

    In the ADMM loop's basis it is the part of J's data term that couples
    the entries: :meth:`term`, its :meth:`hessian_trace`, the x-step's
    p x p system (:meth:`factor`, :meth:`solve`) and the factor
    :meth:`rho_factor` by which the loop scales its start for the penalty
    rho. With no pairs (labels) the term is 0, the x-step elementwise and
    that factor 1.
    """

    def __init__(self, F, rows, weight):
        self.Fa, self.Fb, self.weight = F[rows[0]], F[rows[1]], weight

    def at(self, M):
        return np.einsum("pi,pi->p", self.Fa @ M, self.Fb)

    def entries(self, S):
        """The entries of F S F^T at the pairs (a, b), and at (b, a)."""
        return np.stack([self.at(S), self.at(S.T)])

    def spread(self, r):
        A = self.Fa.T @ ((self.weight * r)[:, None] * self.Fb)
        return A + A.T

    def term(self, D):
        """J's pair term 2 * sum(weight * r^2), r = at(D), and its gradient,
        at the symmetric D. The ADMM loop calls it only when there are
        pairs."""
        r = self.at(D)
        return 2.0 * float(np.sum(self.weight * r * r)), 2.0 * self.spread(r)

    def hessian_trace(self):
        """The trace of the Hessian of :meth:`term` over symmetric matrices,
        2 * sum(weight * (|fa|^2 |fb|^2 + (fa . fb)^2)); 0.0 with no pairs."""
        aabb = np.sum(self.Fa ** 2, axis=1) * np.sum(self.Fb ** 2, axis=1)
        fab = np.einsum("pi,pi->p", self.Fa, self.Fb)
        return 2.0 * float(np.sum(self.weight * (aabb + fab ** 2)))

    def rho_factor(self):
        """The fraction of the label-kind start at which the ADMM loop starts
        rho: ``_PAIR_RHO_FACTOR`` with pairs, where residual balancing
        settles below that start, and 1.0 with none."""
        return _PAIR_RHO_FACTOR if self.weight.size else 1.0

    def factor(self, Dg):
        """Cholesky factor of I + 2 W K W with W = diag(sqrt(w)) and
        K = at diag(1 / Dg) at^T (see :meth:`solve`); None with no pairs,
        where the x-step is elementwise.

        K[q, s] = <g_q, g_s / Dg> with g_q = sym(fa_q fb_q^T), a sum over the
        entries i <= j of Dg (twice off the diagonal). Row i adds one
        rank-(m - i) update in place, so besides the p x p factor nothing
        larger than p x m is held.
        """
        p, m = self.Fa.shape
        if not p:
            return None
        root = np.sqrt(self.weight)[:, None]
        # G below holds 2 g; with the system's factor 2, entry (i, j) weighs
        # 1 / Dg off the diagonal (where it counts twice) and 1 / (2 Dg) on it.
        scale = 1.0 / np.sqrt(Dg + np.diag(np.diag(Dg)))
        M = np.eye(p, order="F")
        for i in range(m):
            G = self.Fa[:, i, None] * self.Fb[:, i:]
            G += self.Fb[:, i, None] * self.Fa[:, i:]
            G *= root * scale[i, i:]
            M = dsyrk(1.0, G.T, beta=1.0, c=M, trans=1, lower=1, overwrite_c=1)
        factor, info = dpotrf(M, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise NumericalError(f"pair system factorization failed: dpotrf info={info}")
        return factor

    def solve(self, factor, N, Dg):
        """The D with Dg * D + (the gradient of :meth:`term` at D) / 2 = N,
        that is Dg * D + spread(at(D)) = N, through the ``factor``
        :meth:`factor` built for Dg. By Woodbury, y = at(D) solves
        (I + 2 K diag(w)) y = at(N / Dg), as spread = 2 at^T diag(w), and
        D = (N - spread(y)) / Dg."""
        if factor is None:
            return N / Dg
        root = np.sqrt(self.weight)
        z, info = dpotrs(factor, root * self.at(N / Dg), lower=1)
        if info != 0:
            raise NumericalError(f"pair system solve failed: dpotrs info={info}")
        return (N - self.spread(z / root)) / Dg


def _qr_parts(F, Y):
    """(R, A, D) from the Householder QR of [F, Y]: F = Q R is a thin QR
    (R is r x m, r = min(l, m) for l x m F), A = Q^T Y, and
    D = Y^T (I - Q Q^T) Y.

    LAPACK's dgeqrt (block size 32) on a Fortran-ordered copy takes about
    0.55 ms for 200 x 204 on one core, where numpy's qr takes 1.2 ms and two
    200 x 200 products 0.65 ms."""
    (l, m), k = F.shape, Y.shape[1]
    r = min(l, m)
    T = np.empty((l, m + k), order="F")
    T[:, :m], T[:, m:] = F, Y
    if T.size:
        T, _, info = dgeqrt(min(32, *T.shape), T, overwrite_a=1)
        if info != 0:
            raise NumericalError(f"QR factorization failed: dgeqrt info={info}")
    # Below the diagonal dgeqrt leaves the Householder vectors; A lies
    # wholly above it.
    R22 = np.triu(T[r:min(l, m + k), m:])
    return np.triu(T[:r, :m]), T[:r, m:], R22.T @ R22
