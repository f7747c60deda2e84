"""Axis-aligned boxes and vectorized ray/box chord computation.

The device world (fins, BOX layer, substrate slab, cell footprints) is
entirely axis-aligned, so the classic slab method gives exact chord
lengths.  Two entry points are provided:

* :meth:`Aabb.chord` -- one ray against one box;
* :func:`chord_lengths` -- an ``(n_rays, n_boxes)`` matrix of chord
  lengths, used by the device-level transport (a few volumes per
  world) and as the reference for the sparse
  :class:`~repro.geometry.grid.BoxGrid` of the array-level Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .ray import Ray, RayBatch
from .vec import as_vec3


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box, corners in nm.

    ``lo`` and ``hi`` are the minimum / maximum corners; every extent
    must be strictly positive (no degenerate boxes -- a zero-thickness
    box can never be struck and indicates a construction bug).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = as_vec3(lo)
        hi = as_vec3(hi)
        if np.any(hi <= lo):
            raise GeometryError(
                f"degenerate box: lo={lo.tolist()} hi={hi.tolist()}"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def size(self) -> np.ndarray:
        """Edge lengths [nm]."""
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        """Geometric centre [nm]."""
        return 0.5 * (self.lo + self.hi)

    @property
    def volume_nm3(self) -> float:
        """Volume [nm^3]."""
        return float(np.prod(self.size))

    @property
    def diagonal_nm(self) -> float:
        """Length of the main diagonal -- an upper bound on any chord."""
        return float(np.linalg.norm(self.size))

    def contains(self, points) -> np.ndarray:
        """Element-wise containment test for ``(..., 3)`` points."""
        pts = np.asarray(points, dtype=np.float64)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)

    def translated(self, offset) -> "Aabb":
        """A copy shifted by ``offset`` [nm]."""
        off = as_vec3(offset)
        return Aabb(self.lo + off, self.hi + off)

    def intersect_interval(self, ray: Ray):
        """Entry/exit parameters ``(t_near, t_far)`` or ``None`` if missed.

        Parameters are distances along the ray (which may be negative if
        the origin lies past the box).  A hit requires
        ``t_far > max(t_near, 0)`` when the ray is interpreted as a
        half-line; callers wanting the infinite-line chord use the raw
        interval.
        """
        t_near, t_far = _slab_interval(
            ray.origin, ray.direction, self.lo, self.hi
        )
        if t_far <= t_near:
            return None
        return float(t_near), float(t_far)

    def chord(self, ray: Ray) -> float:
        """Chord length [nm] of the forward half-line through this box."""
        interval = self.intersect_interval(ray)
        if interval is None:
            return 0.0
        t_near, t_far = interval
        entry = max(t_near, 0.0)
        return max(t_far - entry, 0.0)


def _slab_interval(origins, directions, lo, hi):
    """Vectorized slab intersection over broadcastable ray/box arrays.

    Parameters
    ----------
    origins, directions:
        ``(..., 3)`` ray data.
    lo, hi:
        ``(..., 3)`` box corners.

    The leading shapes broadcast against each other: ``(n, 1, 3)`` rays
    against ``(m, 3)`` boxes give the ``(n, m)`` matrix, ``(k, 3)``
    against ``(k, 3)`` give ``k`` ray/box pairs.  Every element runs
    the same arithmetic in the same order, so a pair's interval is
    bit-identical to its entry in the matrix.

    Returns
    -------
    (t_near, t_far):
        Arrays of the broadcast leading shape; a miss is encoded as
        ``t_far <= t_near``.
    """
    # One axis at a time, in arrays of the result shape: (..., 3)
    # temporaries would dominate the array-MC runtime.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / directions  # inf where parallel
    t_near, t_far = -np.inf, np.inf
    for axis in range(3):
        axis_lo, axis_hi = _axis_interval(
            origins[..., axis], inv[..., axis], lo[..., axis], hi[..., axis]
        )
        t_near = np.maximum(t_near, axis_lo)
        t_far = np.minimum(t_far, axis_hi)
    return t_near, t_far


def _axis_interval(o, inv, lo, hi):
    """One axis of the slab method: its ``(axis_lo, axis_hi)`` interval.

    ``o`` (origin coordinate), ``inv`` (``1.0 / direction``) and the
    slab bounds ``lo``/``hi`` broadcast.  A ray parallel to the slab
    either always or never satisfies it; a subnormal component
    overflows its inverse to inf just like an exact zero, so both count
    as parallel (the interval arithmetic would otherwise hit
    0 * inf = nan on a ray touching the plane).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = (lo - o) * inv
        t2 = (hi - o) * inv
    axis_lo = np.minimum(t1, t2)
    axis_hi = np.maximum(t1, t2)
    parallel = ~np.isfinite(inv)
    if np.any(parallel):
        # Large finite sentinel: +/- inf would turn into nan under the
        # interval arithmetic (inf - inf) when a parallel-outside slab
        # meets another infinite bound.
        big = 1.0e30
        inside = (o >= lo) & (o <= hi)
        axis_lo = np.where(parallel, np.where(inside, -big, big), axis_lo)
        axis_hi = np.where(parallel, np.where(inside, big, -big), axis_hi)
    return axis_lo, axis_hi


def chord_lengths(rays: RayBatch, boxes, forward_only: bool = True):
    """Chord length matrix for a ray batch against a box collection.

    Parameters
    ----------
    rays:
        Batch of ``n`` rays.
    boxes:
        Sequence of :class:`Aabb` (or a pre-stacked ``(m, 6)`` array of
        ``[lo, hi]`` rows from :func:`stack_boxes`).
    forward_only:
        Clip the chord to the forward half-line (particle travels from
        its origin in its direction; matter behind it is not traversed).

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` chord lengths [nm]; 0 where a box is missed.
    """
    lo, hi = _boxes_to_arrays(boxes)
    t_near, t_far = _slab_interval(
        rays.origins[:, np.newaxis, :],
        rays.directions[:, np.newaxis, :],
        lo,
        hi,
    )
    if forward_only:
        t_near = np.maximum(t_near, 0.0)
    lengths = t_far - t_near
    return np.where(lengths > 0.0, lengths, 0.0)


def stack_boxes(boxes) -> np.ndarray:
    """Pack a sequence of :class:`Aabb` into an ``(m, 6)`` array."""
    if len(boxes) == 0:
        raise GeometryError("cannot stack an empty box collection")
    return np.array(
        [np.concatenate([box.lo, box.hi]) for box in boxes], dtype=np.float64
    )


def _boxes_to_arrays(boxes):
    """Accept either Aabb sequences or packed ``(m, 6)`` arrays."""
    if isinstance(boxes, np.ndarray):
        if boxes.ndim != 2 or boxes.shape[1] != 6:
            raise GeometryError(
                f"packed boxes must be (m, 6), got {boxes.shape}"
            )
        return boxes[:, :3], boxes[:, 3:]
    packed = stack_boxes(boxes)
    return packed[:, :3], packed[:, 3:]
