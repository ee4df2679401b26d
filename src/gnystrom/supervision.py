"""Side information and the compact forms of what fitting and selection
compute from it.

:class:`SideInformation` holds supervision for l rows of E as class codes
(labels) or as a list of constrained pairs, never as l x l arrays.
:class:`_Supervision` holds what every fit and alignment on one (core, side)
pair shares: B = El.T @ target @ El, the eigenpairs of El.T @ El, and the
factors from which J's data term, its gradient and the target alignment are
computed in O(l m + m^2) memory.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgeqrt
from scipy.sparse import coo_matrix

from ._arrays import as_index_array, eigh
from .errors import InputError, NumericalError
from .kernels import LabelVector, _centred_cosine

SIDE_KINDS = ("labels", "grouping")


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

        Both arguments are iterables of (i, j) pairs; i and j must differ and
        no pair may appear in both lists. A pair listed twice, in either
        order, counts once.
        """
        must, cannot = _sample_pairs(must_link), _sample_pairs(cannot_link)
        both = np.concatenate([must, cannot])
        if np.any(both[:, 0] == both[:, 1]):
            a, b = both[both[:, 0] == both[:, 1]][0]
            raise InputError(f"constraint pairs must involve distinct samples, got ({a}, {b})")
        if both.size and both.min() < 0:
            raise InputError("constraint indices must be nonnegative")
        # A pair (a, b), a < b, as the key a * n + b: ordering the keys orders
        # the pairs lexicographically.
        n = int(both.max()) + 1 if both.size else 1
        must, cannot = (np.unique(p[:, 0] * n + p[:, 1]) for p in (must, cannot))
        conflict = np.intersect1d(must, cannot)
        if conflict.size:
            pairs = [(int(k) // n, int(k) % n) for k in conflict]
            raise InputError(f"pairs marked both must-link and cannot-link: {pairs}")
        keys = np.concatenate([must, cannot])
        order = np.argsort(keys)
        # The map from samples to rows is increasing, so the rows keep a < b
        # and the order.
        involved, rows = np.unique(np.divmod(keys[order], n), return_inverse=True)
        return cls(kind="grouping", indices=involved, pairs=rows.reshape(2, -1).T,
                   must=order < must.size)


def _check_dense(M, l, name):
    if M.shape != (l, l):
        raise InputError(f"{name} must be {l}x{l}, got {M.shape}")
    if not np.array_equal(M, M.T):
        raise InputError(f"{name} must be symmetric")
    if not np.all((M == 0.0) | (M == 1.0)):
        raise InputError(f"{name} entries must be 0 or 1")


def _sample_pairs(pairs):
    """An iterable of (i, j) sample pairs as a k x 2 integer array, each row
    sorted."""
    arr = np.asarray(list(pairs))
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError(f"constraints must be (i, j) pairs, got shape {arr.shape}")
    return np.sort(arr.astype(np.intp), axis=1)


def _supervised_rows(core, side):
    if side.indices.size and int(side.indices.max()) >= core.E.shape[0]:
        raise InputError("side-information indices exceed the number of samples")
    return core.E[side.indices]


class _Supervision:
    """What every fit and alignment on (core, side) shares, whatever lam,
    held in O(l m + m^2) memory (plus O(l k) for k classes): no l x l array.

    ``B`` = El.T @ target @ El for the supervised rows El, and
    ``eigenpairs`` (c, V) of C = El.T @ El, computed on first use (fitting
    needs them; J, its gradient and the alignment do not). The data term ||residual||_F^2 of J and its
    gradient come from a factor F and a residual:

    * labels: the target is Y Y^T for the l x k one-hot code matrix Y, so
      B = (El.T Y)(El.T Y)^T. With the thin QR El = Q R and A = Q^T Y, the
      residual is R S R^T - A A^T (r x r, r = min(l, m)), the data term is
      its squared norm plus ||target||^2 - ||A A^T||^2 = tr(D N) + <A^T A, D>
      for N = Y^T Y and D = Y^T (I - Q Q^T) Y, and the gradient's data term
      is 2 R^T residual R; F = R. One Householder QR of [El, Y] yields R, A
      and the triangle whose Gram matrix is D, so the constant is a sum of
      nonnegative k x k terms, free of the cancellation in
      ||target||^2 - ||A A^T||^2 (or in tr(SCSC) - 2 tr(SB) + sum n_k^2),
      which swamps J near 0.
    * pairs: the residual is the 2 x p entries of El S El.T - target at
      (a, b) and at (b, a) (equal for symmetric S), the data term
      sum(weight * r^2) and the gradient's data term twice the residual
      spread over the pairs, in O(l m^2 + p m); F = El.
    """

    def __init__(self, core, side):
        El = _supervised_rows(core, side)
        self.kind, self.El = side.kind, El
        l = El.shape[0]
        if side.kind == "labels":
            k = int(side.codes.max()) + 1 if l else 0
            self.Y = np.zeros((l, k))
            self.Y[np.arange(l), side.codes] = 1.0
            ElY = El.T @ self.Y
            self.B = ElY @ ElY.T
            self.F, A, D = _qr_parts(El, self.Y)
            self.K = A @ A.T
            counts = self.Y.sum(axis=0)
            self.constant = float(counts @ np.diag(D) + np.sum((A.T @ A) * D))
            # ||target||_F, for the alignment's zero test.
            self.target_norm = float(np.sqrt(counts @ counts))
        else:
            self.pair_rows = side.pairs.T
            self.F = El
            self.weight = np.where(side.pairs[:, 0] == side.pairs[:, 1], 0.5, 1.0)
            self.pair_target = side.must.astype(np.float64)
            self.B = self.pull(np.stack([self.pair_target, self.pair_target]))

    @cached_property
    def eigenpairs(self):
        return eigh(self.El.T @ self.El)

    def residual(self, S):
        if self.kind == "labels":
            return self.F @ S @ self.F.T - self.K
        return self._entries(S) - self.pair_target

    def _entries(self, S):
        """The entries of El S El.T at the pairs (a, b), and at (b, a)."""
        a, b = self.pair_rows
        FS = self.F @ S
        return np.stack([np.einsum("pi,pi->p", FS[a], self.F[b]),
                         np.einsum("pi,pi->p", FS[b], self.F[a])])

    def loss(self, res):
        """The data term of J, from :meth:`residual`."""
        if self.kind == "labels":
            return float(np.sum(res * res)) + self.constant
        return float(np.sum(self.weight * res * res))

    def pull(self, res, F=None):
        """El.T @ Res @ El, half the data term of grad J, for the residual
        ``res``; ``F``, the factor taken through a change of basis
        (``self.F @ T``), gives T^T El.T @ Res @ El T instead."""
        F = self.F if F is None else F
        if self.kind == "labels":
            return F.T @ res @ F
        # Res as a sparse l x l matrix; a diagonal pair's two entries add up.
        a, b = self.pair_rows
        l = self.El.shape[0]
        Res = coo_matrix(((self.weight * res).ravel(), (np.r_[a, b], np.r_[b, a])),
                         shape=(l, l)).tocsr()
        return F.T @ (Res @ F)

    def alignment(self, S):
        """nka_score(El @ S @ El.T, target) (masked for pairs), the
        centred cosine, without an l x l array."""
        if self.kind == "labels":
            Rc, Kc, centred_target = self._centred
            Mc = Rc @ S @ Rc.T
            raw = float(np.linalg.norm(self.F @ S @ self.F.T))
            return _centred_cosine(float(np.sum(Mc * Kc)), float(np.linalg.norm(Mc)),
                                   centred_target, raw, self.target_norm)
        x = self._entries(S)
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
        (2 x p, as from :meth:`_entries`) at the pairs, H = I - 11^T / l, in
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
