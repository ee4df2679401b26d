"""Deployable model: landmarks plus a learned dictionary embed new samples.

A fitted model keeps the landmark coordinates Z, the kernel parameters and
a factor L of the learned PSD matrix S = L @ L.T; S itself is not stored.
New samples embed as k(X, Z) @ L, so inner products of embeddings reproduce
the learned similarity k(x, Z) @ S @ k(y, Z).T. Every factor with the same
L @ L.T defines the same model, so the model keeps the lower-trapezoidal
one with a nonnegative diagonal (Cholesky form): its leading r x r block is
a triangle, and embedding through it costs about half the multiply flops of
a dense m x r factor.

Serialization uses a self-describing little-endian binary container:

    offset  size          field
    0       4             magic "GNYM"
    4       4             format version, uint32 (currently 2)
    8       4             m, landmark count, uint32
    12      4             d, feature dimension, uint32
    16      4             r, factor rank, uint32
    20      8             kernel bandwidth, float64
    28      8             kernel family, always "rbf" padded with NUL
    36      4             metadata byte length, uint32
    40      meta          metadata, UTF-8 JSON object
    ...     m*d*8         Z, row-major float64
    ...     m*r*8         L, row-major float64

A file of any other version or kernel family is rejected. Every load
re-validates the model invariants, so a corrupt or truncated file raises
:class:`ModelFormatError` rather than producing a bad model. A file
holding a general, non-triangular L loads with L triangularized: its
embedding columns rotate, while the Gram matrix of embeddings,
:func:`similarity` and the predictions of a linear classifier trained on
the embeddings stay the same.
"""

import json
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.linalg.blas import dtrmm

from ._arrays import as_data_matrix, as_vector
from .dictlearn import factorize
from .errors import InputError, ModelFormatError
from .kernels import KernelParams, _rbf_block, kernel_matrix
from .landmarks import LandmarkSet

_MAGIC = b"GNYM"
_VERSION = 2
_HEADER_FMT = "<4sIIIId8sI"
# The Gaussian is the only kernel; the header's family field always names it.
_FAMILY = b"rbf".ljust(8, b"\0")


@dataclass(frozen=True)
class InductiveModel:
    """Everything needed to score samples never seen during fitting."""

    landmarks: np.ndarray
    kernel: KernelParams
    L: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        # Arrays are normalized to C order so scoring a model gives bit-equal
        # results whether it came from fitting or from a file: BLAS products
        # round differently per memory layout.
        Z = np.ascontiguousarray(as_data_matrix(self.landmarks, "landmarks"))
        L = np.asarray(self.L, dtype=np.float64)
        m = Z.shape[0]
        if L.ndim != 2 or L.shape[0] != m:
            raise InputError(f"L must have {m} rows, got {L.shape}")
        if L.shape[1] > m:
            raise InputError("factor rank cannot exceed the landmark count")
        if not isinstance(self.metadata, dict):
            raise InputError("metadata must be a dict")
        # L.T = Q @ R gives L @ L.T = R.T @ R; flipping the rows of R with a
        # negative diagonal keeps that product. Householder QR leaves an
        # upper-trapezoidal input unchanged bit for bit, so a factor already
        # in this form, as every saved one is, stays exactly as it is.
        R = np.linalg.qr(L.T, mode="r")
        R[np.diag(R) < 0] *= -1.0
        # Checked after the QR, which turns a non-finite L, or a finite one
        # whose row norms overflow, into a non-finite R.
        if not np.all(np.isfinite(R)):
            raise InputError("L and its triangular form must be finite")
        object.__setattr__(self, "landmarks", Z)
        object.__setattr__(self, "L", np.ascontiguousarray(R.T))

    @classmethod
    def from_state(cls, landmarks, kernel, state, lam=None, report=None):
        """Package a fit: factorizes S (a DictionaryState or a PSD matrix),
        which the constructor brings to lower-trapezoidal form, and records
        fitting context."""
        Z = landmarks.points if isinstance(landmarks, LandmarkSet) else landmarks
        L = factorize(state)
        metadata = {
            "lambda": None if lam is None else float(lam),
            "created": datetime.now(timezone.utc).isoformat(),
        }
        if report is not None:
            metadata["solver"] = {
                "iterations": int(report.iterations),
                "converged_by": report.converged_by,
                "final_grad_norm": float(report.final_grad_norm),
                "final_objective": float(report.final_objective),
            }
        return cls(landmarks=Z, kernel=kernel, L=L, metadata=metadata)

    @property
    def m(self):
        return int(self.landmarks.shape[0])

    @property
    def rank(self):
        return int(self.L.shape[1])


def embed(model, Xnew):
    """Low-rank features for new samples: k(Xnew, Z) @ L.

    Inner products of the returned rows reproduce the learned similarity.
    The kernel block K comes from one n x (d+2) by (d+2) x m matrix product
    on landmark-centred copies, with the exponential taken in place
    (:func:`kernels._rbf_block`). At full rank L is an m x m lower
    triangle, and K @ L goes through BLAS ``dtrmm``, about half the multiply
    flops of a dense product, in place on the F-ordered K.T: a call holds
    one n x m block, which it returns. Below full rank, one dense product
    writes the n x rank result next to K. Matches
    ``kernel_matrix(Xnew, Z) @ L`` to about 1e-15 relative to ``L``.
    """
    Xnew = as_data_matrix(Xnew, "Xnew")
    if Xnew.shape[1] != model.landmarks.shape[1]:
        raise InputError(
            f"expected {model.landmarks.shape[1]} features, got {Xnew.shape[1]}")
    K = _rbf_block(Xnew, model.landmarks, model.kernel.bandwidth)
    if model.rank < model.m:
        return K @ model.L
    # dtrmm computes op(A) @ B in Fortran terms: (T.T) @ (K.T), the
    # transpose of K @ T.
    return dtrmm(1.0, model.L.T, K.T, overwrite_b=1).T


def similarity(model, x, y):
    """Learned similarity k(x, Z) @ S @ k(y, Z).T for a single pair.

    Evaluated as the sum of the elementwise product of the two feature rows
    k(., Z) @ L, so swapping the arguments returns the identical float and
    the self-similarity of a point, a sum of squares, is nonnegative.
    """
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    d = model.landmarks.shape[1]
    if x.shape[0] != d or y.shape[0] != d:
        raise InputError(f"points must have {d} features")
    gx = kernel_matrix(x[None, :], model.landmarks, model.kernel)[0] @ model.L
    gy = kernel_matrix(y[None, :], model.landmarks, model.kernel)[0] @ model.L
    return float(np.sum(gx * gy))


def save(model, path):
    """Write the model in the binary container format documented above."""
    meta_bytes = json.dumps(model.metadata, sort_keys=True).encode("utf-8")
    m, d = model.landmarks.shape
    r = model.L.shape[1]
    header = struct.pack(_HEADER_FMT, _MAGIC, _VERSION, m, d, r,
                         float(model.kernel.bandwidth), _FAMILY,
                         len(meta_bytes))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(meta_bytes)
        fh.write(np.ascontiguousarray(model.landmarks, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.L, dtype="<f8").tobytes())


def load(path):
    """Read a model written by :func:`save`, re-validating its invariants."""
    data = Path(path).read_bytes()
    header_size = struct.calcsize(_HEADER_FMT)
    if len(data) < header_size:
        raise ModelFormatError(f"{path}: file too short for a model header")
    magic, version, m, d, r, bandwidth, family, meta_len = struct.unpack_from(
        _HEADER_FMT, data)
    if magic != _MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    if version != _VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    if family != _FAMILY:
        raise ModelFormatError(f"{path}: unsupported kernel family {family!r}")
    offset = header_size
    if len(data) < offset + meta_len:
        raise ModelFormatError(f"{path}: truncated metadata block")
    try:
        metadata = json.loads(data[offset:offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable metadata block") from exc
    if not isinstance(metadata, dict):
        raise ModelFormatError(f"{path}: metadata must be a JSON object")
    offset += meta_len
    expected = (m * d + m * r) * 8
    if len(data) != offset + expected:
        raise ModelFormatError(
            f"{path}: expected {offset + expected} bytes, found {len(data)}")

    def take(rows, cols):
        nonlocal offset
        count = rows * cols
        block = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        return block.reshape(rows, cols).copy()

    Z = take(m, d)
    L = take(m, r)
    try:
        params = KernelParams(bandwidth=bandwidth)
        return InductiveModel(landmarks=Z, kernel=params, L=L, metadata=metadata)
    except InputError as exc:
        raise ModelFormatError(f"{path}: model invariants violated: {exc}") from exc
