"""Small 3-D vector helpers on top of numpy.

The library represents points and directions as plain numpy arrays of
shape ``(3,)`` (single) or ``(n, 3)`` (batch).  These helpers keep the
broadcasting conventions in one place; all geometry is axis-aligned so
no general transform machinery is needed.

Geometry canonical unit: **nanometre**.  Axes: ``x``/``y`` span the die
plane, ``z`` points up out of the wafer (``z = 0`` at the top surface of
the buried oxide, fins extend to positive ``z``).
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError


def as_vec3(value) -> np.ndarray:
    """Coerce a length-3 sequence to a float64 ``(3,)`` array."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def as_vec3_batch(value) -> np.ndarray:
    """Coerce to a float64 ``(n, 3)`` batch, promoting a single vector."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GeometryError(f"expected an (n, 3) batch, got shape {arr.shape}")
    return arr


def norm(vectors: np.ndarray) -> np.ndarray:
    """Norm along the last axis of 3-vectors; bit for bit np.linalg.norm."""
    arr = np.asarray(vectors, dtype=np.float64)
    x, y, z = arr[..., 0], arr[..., 1], arr[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def normalize(vectors: np.ndarray) -> np.ndarray:
    """Return unit vectors; raises on (near-)zero input."""
    arr = np.asarray(vectors, dtype=np.float64)
    lengths = norm(arr)
    if np.any(lengths < 1e-300):
        raise GeometryError("cannot normalize a zero-length direction")
    return arr / lengths[..., np.newaxis]


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product along the last axis."""
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)
