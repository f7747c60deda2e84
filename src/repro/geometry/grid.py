"""Broad-phase index: sparse forward chords of rays through many boxes.

A track crosses a handful of the hundreds of sensitive fins in an SRAM
array, so slab-testing every ray against every fin
(:func:`~repro.geometry.box.chord_lengths`) spends almost all of its
work on misses.  :class:`BoxGrid` indexes the fins by their few distinct
x- and y-slabs and slab-tests a ray only against the fins on the slabs
its forward segment crosses, with the dense matrix's own arithmetic
(:func:`~repro.geometry.box._axis_interval`), so every chord is
bit-identical to its ``chord_lengths`` entry.  Extra candidates only
cost time; a missing one would be a wrong answer, so every bound of the
broad phase is rounded outwards.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from .box import _axis_interval, _boxes_to_arrays, _slab_interval
from .ray import RayBatch

#: Relative slack of the footprint bounds.  Covers the rounding of the
#: segment end points and of the narrow phase's slab parameters, both
#: a few ulps of the coordinates involved.
_REL_SLACK = 1.0e-9


def _expand(counts: np.ndarray):
    """``(owner, rank)`` of a ragged expansion: ``counts[i]`` items each."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


class BoxGrid:
    """Slab index over a packed box set.

    Holds the distinct x-slabs and y-slabs ``(lo, hi)``, each sorted by
    ``lo``, the widest slab of each axis, and the boxes sorted stably by
    (x-slab, y-slab).  The boxes of one x-slab on a range of y-slabs are
    one run of that order, found in a table of ``n_x * n_y + 1`` offsets:
    487 on the 9x9 array, 1,537 on 16x16, at most ``m**2 + 1`` for ``m``
    boxes.  Everything else is linear in the box count.
    """

    def __init__(self, boxes):
        lo, hi = _boxes_to_arrays(boxes)
        if len(lo) == 0:
            raise GeometryError("cannot index an empty box collection")
        self.n_boxes = len(lo)
        self._union_lo = lo.min(axis=0)
        self._union_hi = hi.max(axis=0)
        # the footprint coordinates' own magnitude, for the slack
        self._scale = float(
            np.abs(np.concatenate([self._union_lo, self._union_hi])).max()
        )
        # per axis x, y: (lo, hi, widest) of the distinct slabs; rows
        # viewed as complex ``lo + i hi``, which np.unique sorts by lo
        self._slabs, slab_of = [], []
        for axis in (0, 1):
            pairs = np.column_stack([lo[:, axis], hi[:, axis]])
            slabs, index = np.unique(
                pairs.view(np.complex128)[:, 0], return_inverse=True
            )
            width = np.max(slabs.imag - slabs.real)
            self._slabs.append((slabs.real.copy(), slabs.imag.copy(), width))
            slab_of.append(index)
        n_x, self._n_y = (len(slabs[0]) for slabs in self._slabs)
        key = slab_of[0] * self._n_y + slab_of[1]
        self._order = np.argsort(key, kind="stable")
        self._starts = np.searchsorted(
            key[self._order], np.arange(n_x * self._n_y + 1)
        )
        # one contiguous row per axis of the sorted boxes' bounds
        self._lo = lo.take(self._order, axis=0).T.copy()
        self._hi = hi.take(self._order, axis=0).T.copy()

    def chords(self, rays: RayBatch):
        """Nonzero forward chords as a sparse ``(ray, box, chord)`` list.

        Equal, element for element and bit for bit, to::

            matrix = chord_lengths(rays, boxes)
            ray, box = np.nonzero(matrix > 0.0)
            chord = matrix[ray, box]

        without the ``(n_rays, n_boxes)`` matrix: ray-major, boxes
        ascending within a ray.
        """
        ray, pos, t_near, t_far = self._candidates(rays)
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / rays.directions.take(ray, axis=0).T
        for axis in (1, 2):
            axis_lo, axis_hi = _axis_interval(
                rays.origins[:, axis].take(ray),
                inv[axis],
                self._lo[axis].take(pos),
                self._hi[axis].take(pos),
            )
            np.maximum(t_near, axis_lo, out=t_near)
            np.minimum(t_far, axis_hi, out=t_far)
        lengths = t_far - np.maximum(t_near, 0.0)
        hit = lengths > 0.0
        ray, lengths = ray[hit], lengths[hit]
        box = self._order.take(pos[hit])
        # distinct keys, already ray-major: a stable sort is the fastest
        order = np.argsort(ray * self.n_boxes + box, kind="stable")
        return ray[order], box[order], lengths[order]

    def _candidates(self, rays: RayBatch):
        """Narrow-phase candidates ``(ray, pos, t_near, t_far)``: ``pos``
        indexes the slab-sorted boxes, ``t_near``/``t_far`` is its x-slab's
        slab interval."""
        t_near, t_far = _slab_interval(
            rays.origins, rays.directions, self._union_lo, self._union_hi
        )
        t0 = np.maximum(t_near, 0.0)
        live = np.flatnonzero(t_far > t0)
        t0, t1 = t0[live], t_far[live]
        o = rays.origins.take(live, axis=0).T
        d = rays.directions.take(live, axis=0).T
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv_x = 1.0 / d[0]
            scale = np.maximum(np.abs(o[0]), np.abs(o[1])) + t1 + self._scale
        slack = _REL_SLACK * np.where(np.isfinite(scale), scale, 0.0)

        # one row per (ray, x-slab) under the segment's x footprint
        first, stop = self._slab_range(0, o[0], d[0], t0, t1, slack)
        row, rank = _expand(stop - first)
        slab = first[row] + rank
        slab_lo, slab_hi, _ = self._slabs[0]
        x_near, x_far = _axis_interval(
            o[0].take(row), inv_x.take(row), slab_lo[slab], slab_hi[slab]
        )
        # Each box's axis interval lies inside the union's (subtraction
        # and multiplication round monotonically), so a row whose window
        # inside the union is empty holds no hit.
        w_near = np.maximum(x_near, t0.take(row))
        w_far = np.minimum(x_far, t1.take(row))
        keep = np.flatnonzero(w_far > w_near)
        row, near, far = row[keep], w_near[keep], w_far[keep]
        y_o, y_d = o[1].take(row), d[1].take(row)
        first, stop = self._slab_range(1, y_o, y_d, near, far, slack.take(row))
        # the row's x-slab on y-slabs first..stop is one run of boxes
        cell = slab[keep] * self._n_y
        start = self._starts.take(cell + first)
        pair, rank = _expand(self._starts.take(cell + stop) - start)
        keep = keep[pair]
        return live[row[pair]], start[pair] + rank, x_near[keep], x_far[keep]

    def _slab_range(self, axis, o, d, t_a, t_b, slack):
        """Index range of the ``axis`` slabs that segment ``o + t * d``,
        ``t`` from ``t_a`` to ``t_b``, may meet: ``lo`` in the padded
        footprint or at most the widest slab below it.  A non-finite
        footprint gets every slab."""
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = o + t_a * d, o + t_b * d
        slab_lo, _, widest = self._slabs[axis]
        first = np.searchsorted(slab_lo, np.minimum(a, b) - slack - widest)
        stop = np.searchsorted(slab_lo, np.maximum(a, b) + slack, "right")
        wide = ~(np.isfinite(a) & np.isfinite(b))
        first[wide], stop[wide] = 0, len(slab_lo)
        return first, stop
