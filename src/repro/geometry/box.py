"""Axis-aligned boxes and vectorized ray/box chord computation.

The device world (fins, BOX layer, substrate slab, cell footprints) is
entirely axis-aligned, so the classic slab method gives exact chord
lengths.  Two entry points are provided:

* :meth:`Aabb.chord` -- one ray against one box;
* :func:`chord_lengths` -- an ``(n_rays, n_boxes)`` matrix of chord
  lengths, the kernel of the array-level Monte Carlo.
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
            ray.origin[np.newaxis, :],
            ray.direction[np.newaxis, :],
            self.lo[np.newaxis, :],
            self.hi[np.newaxis, :],
        )
        if t_far[0, 0] <= t_near[0, 0]:
            return None
        return float(t_near[0, 0]), float(t_far[0, 0])

    def chord(self, ray: Ray) -> float:
        """Chord length [nm] of the forward half-line through this box."""
        interval = self.intersect_interval(ray)
        if interval is None:
            return 0.0
        t_near, t_far = interval
        entry = max(t_near, 0.0)
        return max(t_far - entry, 0.0)


def _slab_interval(origins, directions, lo, hi):
    """Vectorized slab intersection.

    Parameters
    ----------
    origins, directions:
        ``(n, 3)`` ray data.
    lo, hi:
        ``(m, 3)`` box corners.

    Returns
    -------
    (t_near, t_far):
        ``(n, m)`` arrays; a miss is encoded as ``t_far <= t_near``.
    """
    # Accumulate the slab interval one axis at a time with (n, m)
    # scratch arrays -- avoids (n, m, 3) temporaries, which dominate
    # the array-MC runtime.  Guard zero direction components: a ray
    # parallel to a slab either always or never satisfies it.  A
    # subnormal component overflows its inverse to inf just like an
    # exact zero, so both count as parallel (the interval arithmetic
    # would otherwise hit 0 * inf = nan on a ray touching the plane).
    n = origins.shape[0]
    m = lo.shape[0]
    t_near = np.full((n, m), -np.inf, dtype=np.float64)
    t_far = np.full((n, m), np.inf, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_all = 1.0 / directions  # (n, 3); inf where parallel
    # Large finite sentinel: +/- inf would turn into nan under the
    # interval arithmetic (inf - inf) when a parallel-outside slab
    # meets another infinite bound.
    big = 1.0e30
    for axis in range(3):
        o = origins[:, axis][:, np.newaxis]  # (n, 1)
        inv = inv_all[:, axis][:, np.newaxis]
        # 0 * inf -> nan is possible when a parallel ray origin touches
        # a slab plane; the parallel branch below overwrites those rows.
        with np.errstate(over="ignore", invalid="ignore"):
            t1 = (lo[np.newaxis, :, axis] - o) * inv
            t2 = (hi[np.newaxis, :, axis] - o) * inv
        axis_lo = np.minimum(t1, t2)
        axis_hi = np.maximum(t1, t2)
        parallel = ~np.isfinite(inv_all[:, axis])
        if np.any(parallel):
            # A ray parallel to this slab pair either satisfies it for
            # all t (origin inside the slab) or for no t (outside).
            inside = (o >= lo[np.newaxis, :, axis]) & (
                o <= hi[np.newaxis, :, axis]
            )
            rows = parallel[:, np.newaxis]
            axis_lo = np.where(rows, np.where(inside, -big, big), axis_lo)
            axis_hi = np.where(rows, np.where(inside, big, -big), axis_hi)
        np.maximum(t_near, axis_lo, out=t_near)
        np.minimum(t_far, axis_hi, out=t_far)
    return t_near, t_far


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
    t_near, t_far = _slab_interval(rays.origins, rays.directions, lo, hi)
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
