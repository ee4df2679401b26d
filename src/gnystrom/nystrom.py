"""Low-rank kernel extrapolation from a landmark set.

Given samples X and landmarks Z, the two kernel blocks E = k(X, Z) and
W = k(Z, Z) extrapolate the full Gram matrix as E @ pinv(W) @ E.T without
ever forming it. ``extrapolation_bound`` evaluates a per-entry error bound
for that extrapolation in terms of the distance of each sample to its
nearest landmark.
"""

from dataclasses import dataclass

import numpy as np

from ._arrays import _truncate, as_data_matrix, eigh
from .errors import InputError
from .kernels import _squared_distances, kernel_matrix
from .landmarks import LandmarkSet

# Distances per row block of rbf_lipschitz_constant's diameter (512 KiB).
_DIAMETER_BLOCK = 1 << 16
# Eigenvalues of W at or below this fraction of the largest one count as 0
# in the prior S0 = pinv(W).
_PINV_RTOL = 1e-10


def _landmark_points(Z):
    if isinstance(Z, LandmarkSet):
        return Z.points
    return as_data_matrix(Z, "Z")


@dataclass(frozen=True)
class NystromCore:
    """Kernel blocks E (samples vs landmarks), W (landmarks vs landmarks),
    and S0, the pseudo-inverse of W on its ``pinv_rank`` leading
    eigenvalues (the ones above :func:`build_core`'s relative cutoff)."""

    E: np.ndarray
    W: np.ndarray
    S0: np.ndarray
    pinv_rank: int

    def __post_init__(self):
        E = np.asarray(self.E, dtype=np.float64)
        W = np.asarray(self.W, dtype=np.float64)
        S0 = np.asarray(self.S0, dtype=np.float64)
        if E.ndim != 2:
            raise InputError("E must be 2-D")
        m = E.shape[1]
        if W.shape != (m, m) or S0.shape != (m, m):
            raise InputError("W and S0 must be m-by-m with m matching E's columns")
        if not 0 <= self.pinv_rank <= m:
            raise InputError("pinv_rank out of range")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "S0", S0)

    @property
    def n(self):
        return int(self.E.shape[0])

    @property
    def m(self):
        return int(self.E.shape[1])


@dataclass(frozen=True)
class LandmarkEigensystem:
    """Retained eigenpairs of W: orthonormal columns, eigenvalues positive
    and sorted descending."""

    eigvecs: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.eigvecs, dtype=np.float64)
        vals = np.asarray(self.eigvals, dtype=np.float64)
        if vecs.ndim != 2 or vals.ndim != 1 or vecs.shape[1] != vals.shape[0]:
            raise InputError("eigvecs must be (m, r) with r matching eigvals")
        if vals.size:
            if not np.all(vals > 0):
                raise InputError("retained eigenvalues must be positive")
            if np.any(np.diff(vals) > 0):
                raise InputError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigvecs", vecs)
        object.__setattr__(self, "eigvals", vals)


def build_core(X, Z, params):
    """Assemble E, W and S0 = pinv(W).

    Both blocks come from :func:`kernels.kernel_matrix`. W is pairwise in
    every row, so it is exactly symmetric with a unit diagonal, and a row of
    E whose sample coincides with a landmark is pairwise too: it equals W's
    row bit for bit. Every other entry of E agrees with its pairwise value to
    about 1e-15.

    Eigenvalues of W at or below 1e-10 times the largest one are
    treated as zero; the retained count is recorded as ``pinv_rank``. The
    result satisfies W @ S0 @ W == W on the retained subspace.
    """
    X = as_data_matrix(X)
    Zp = _landmark_points(Z)
    if X.shape[1] != Zp.shape[1]:
        raise InputError("samples and landmarks must share a feature dimension")
    E = kernel_matrix(X, Zp, params)
    W = kernel_matrix(Zp, Zp, params)
    vals, vecs = _truncate(*eigh(W), _PINV_RTOL)
    S0 = (vecs / vals) @ vecs.T
    S0 = 0.5 * (S0 + S0.T)
    return NystromCore(E=E, W=W, S0=S0, pinv_rank=vals.size)


def landmark_eigensystem(core):
    """Eigendecompose core.W, keeping its ``core.pinv_rank`` largest
    eigenpairs: the ones S0 inverts."""
    vals, vecs = eigh(core.W)
    r = core.pinv_rank
    return LandmarkEigensystem(eigvecs=vecs[:, ::-1][:, :r], eigvals=vals[::-1][:r])


def reconstruct_entry(core, i, j):
    """Extrapolated kernel value between samples i and j: E_i . S0 . E_j."""
    n = core.n
    for name, idx in (("i", i), ("j", j)):
        if not 0 <= idx < n:
            raise InputError(f"index {name}={idx} out of range for {n} samples")
    return float(core.E[i] @ core.S0 @ core.E[j])


def extrapolate_eigenvectors(core, eig, X, Z, params):
    """Evaluate the landmark eigenvectors at new points.

    Column i of the result is (1/eigval_i) * (1/m) * sum_j k(x, z_j) *
    eigvec_i(z_j) for each row x of X. Evaluated at the landmarks themselves
    this reduces to eigvecs / m, a consistent rescaling of the landmark
    eigensystem. The landmark coordinates are needed to evaluate k(x, z_j),
    so Z is taken explicitly.
    """
    X = as_data_matrix(X)
    Zp = _landmark_points(Z)
    m = core.m
    if Zp.shape[0] != m:
        raise InputError(f"expected {m} landmarks, got {Zp.shape[0]}")
    if eig.eigvals.size == 0:
        raise InputError("eigensystem retains no eigenpairs")
    E_new = kernel_matrix(X, Zp, params)
    return (E_new @ eig.eigvecs) / (m * eig.eigvals)


@dataclass(frozen=True)
class BoundCheck:
    """Both sides of the per-entry extrapolation bound."""

    lhs: float
    rhs: float


def rbf_lipschitz_constant(X, Z, params):
    """Lipschitz bound for the Gaussian kernel over the given points.

    The gradient norm of k(x, .) is at most (2/b) * D * max k with D the
    diameter of the evaluated point set and max k = 1, so that value is a
    valid (if loose) Lipschitz constant on the data domain.

    The diameter is taken over blocks of rows, each against itself and the
    rows after it, so a call holds about 2**16 distances at a time instead
    of all (n + m)**2. A distance rounds the same either way round, so the
    result equals the maximum of the full distance matrix bit for bit.
    """
    pts = np.vstack([as_data_matrix(X), _landmark_points(Z)])
    total = pts.shape[0]
    rows = max(1, _DIAMETER_BLOCK // total)
    diameter = max(float(np.sqrt(_squared_distances(pts[a:a + rows], pts[a:]).max()))
                   for a in range(0, total, rows))
    return 2.0 * diameter / params.bandwidth


def extrapolation_bound(core, X, Z, params, eta_lip, i, j):
    """Evaluate both sides of the per-entry extrapolation error bound.

    lhs is |reconstructed K_ij - W_pq| where z_p and z_q are the landmarks
    nearest to samples i and j. rhs is
    sqrt(m) * eta * (c*d_p + c*d_q + sqrt(m)*eta*d_p*d_q) * ||S0||_F
    with c = m * max k (max k = 1 for the Gaussian family), d_p = ||x_i -
    z_p|| and d_q = ||x_j - z_q||, and eta a Lipschitz constant of the
    kernel; see :func:`rbf_lipschitz_constant` for a usable default.
    """
    X = as_data_matrix(X)
    Zp = _landmark_points(Z)
    n, m = core.E.shape
    if X.shape[0] != n or Zp.shape[0] != m:
        raise InputError("X and Z must match the core's dimensions")
    if not (np.isfinite(eta_lip) and eta_lip >= 0):
        raise InputError(f"eta_lip must be a nonnegative real, got {eta_lip}")
    # reconstruct_entry range-checks i and j before X is indexed by them.
    entry = reconstruct_entry(core, i, j)
    dist_i = np.sqrt(_squared_distances(X[[i]], Zp)).ravel()
    dist_j = np.sqrt(_squared_distances(X[[j]], Zp)).ravel()
    p = int(dist_i.argmin())
    q = int(dist_j.argmin())
    d_p = float(dist_i[p])
    d_q = float(dist_j[q])
    lhs = abs(entry - float(core.W[p, q]))
    c = m * 1.0
    root_m_eta = np.sqrt(m) * eta_lip
    rhs = root_m_eta * (c * d_p + c * d_q + root_m_eta * d_p * d_q)
    rhs *= float(np.linalg.norm(core.S0))
    return BoundCheck(lhs=float(lhs), rhs=float(rhs))
