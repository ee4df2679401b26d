"""Low-rank kernel extrapolation from a landmark set.

Given samples X and landmarks Z, the two kernel blocks E = k(X, Z) and
W = k(Z, Z) extrapolate the full Gram matrix as E @ pinv(W) @ E.T without
ever forming it. :func:`build_core` eigendecomposes W once and keeps the
factor R of pinv(W) = R @ R.T, so the prior and its embedding k(x, Z) @ R
need no further decomposition. ``extrapolation_bound`` evaluates a
per-entry error bound for that extrapolation in terms of the distance of
each sample to its nearest landmark.
"""

from dataclasses import dataclass, field

import numpy as np

from ._arrays import _truncate, as_data_matrix, as_index_array, as_real, eigh
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
    """Kernel blocks E (samples vs landmarks) and W (landmarks vs
    landmarks), and R, an m x r factor of the prior: S0 = R @ R.T.

    :func:`build_core` takes R = U diag(1 / sqrt(w)) over the eigenpairs
    (w, U) of W above its relative cutoff, so S0 is the pseudo-inverse of W
    on its ``pinv_rank`` = r leading eigenvalues, and R is the factor a fit
    starting from the prior and the baseline's embedding k(x, Z) @ R use.
    S0 is formed here, once, by BLAS syrk (NumPy's product of a matrix with
    its own transpose), so it is symmetric bit for bit. R must be finite,
    with m rows and at most m columns.
    """

    E: np.ndarray
    W: np.ndarray
    R: np.ndarray
    S0: np.ndarray = field(init=False)

    def __post_init__(self):
        E = np.asarray(self.E, dtype=np.float64)
        W = np.asarray(self.W, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        if E.ndim != 2:
            raise InputError("E must be 2-D")
        m = E.shape[1]
        if W.shape != (m, m):
            raise InputError("W must be m-by-m with m matching E's columns")
        if R.ndim != 2 or R.shape[0] != m or R.shape[1] > m or not np.all(np.isfinite(R)):
            raise InputError(f"R must be a finite {m} x r matrix with r <= {m}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "S0", R @ R.T)

    @property
    def n(self):
        return int(self.E.shape[0])

    @property
    def m(self):
        return int(self.E.shape[1])

    @property
    def pinv_rank(self):
        """The number of W's eigenvalues S0 inverts: R's width."""
        return int(self.R.shape[1])


def build_core(X, Z, params):
    """Assemble E, W and the prior's factor R, with S0 = R @ R.T = pinv(W).

    Both blocks come from :func:`kernels.kernel_matrix`. W is pairwise in
    every row, so it is exactly symmetric with a unit diagonal, and a row of
    E whose sample coincides with a landmark is pairwise too: it equals W's
    row bit for bit. Every other entry of E agrees with its pairwise value to
    about 1e-15.

    W is eigendecomposed once, here. Eigenvalues of W at or below 1e-10
    times the largest one are treated as zero; R = U diag(1 / sqrt(w)) over
    the others, in ascending order of w, so R's columns come in descending
    order of S0's eigenvalues 1 / w, and their count is ``pinv_rank``. The
    result satisfies W @ S0 @ W == W on the retained subspace.
    """
    X = as_data_matrix(X)
    Zp = _landmark_points(Z)
    if X.shape[1] != Zp.shape[1]:
        raise InputError("samples and landmarks must share a feature dimension")
    E = kernel_matrix(X, Zp, params)
    W = kernel_matrix(Zp, Zp, params)
    vals, vecs = _truncate(*eigh(W), _PINV_RTOL)
    return NystromCore(E=E, W=W, R=vecs / np.sqrt(vals))


def reconstruct_entry(core, i, j):
    """Extrapolated kernel value between samples i and j: (E_i R) . (E_j R),
    which is E_i . S0 . E_j, taken through the factor. i and j must be
    nonnegative integers below n; a float or a bool raises InputError."""
    n = core.n
    for name, idx in (("i", i), ("j", j)):
        (idx,) = as_index_array([idx], f"index {name}")
        if idx >= n:
            raise InputError(f"index {name}={idx} out of range for {n} samples")
    return float((core.E[i] @ core.R) @ (core.E[j] @ core.R))


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
    eta_lip = as_real(eta_lip, "eta_lip")
    # reconstruct_entry checks i and j before X is indexed by them.
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
