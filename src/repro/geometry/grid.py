"""Broad-phase index: sparse forward chords of rays through many boxes.

A particle track crosses a handful of the hundreds of sensitive fins in
an SRAM array, so slab-testing every ray against every fin
(:func:`~repro.geometry.box.chord_lengths`) spends almost all of its
work on misses.  :class:`BoxGrid` bins a box set by centre on a uniform
x/y grid.  For each ray it walks the grid columns under the forward
segment inside the union of the boxes, padded by the largest box
half-extent, and slab-tests only the boxes binned there.

The narrow phase is :func:`~repro.geometry.box._slab_interval`, the
same elementwise arithmetic that fills the dense matrix, so every
returned chord is bit-identical to its ``chord_lengths`` entry; the
hits come out in ``np.nonzero`` order.  Extra candidates only cost
time (the narrow phase rejects them); a missing one would be a wrong
answer, so every bound of the broad phase is rounded outwards.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from .box import _boxes_to_arrays, _slab_interval
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
    """Uniform x/y bin index over a packed box set.

    Boxes are binned by centre on about one box per bin over the
    union's x/y extent.  Bins are numbered column-major, so the bins a
    ray segment reaches in one column hold one contiguous run of the
    bin-sorted boxes.
    """

    def __init__(self, boxes):
        lo, hi = _boxes_to_arrays(boxes)
        if len(lo) == 0:
            raise GeometryError("cannot index an empty box collection")
        self._lo = np.ascontiguousarray(lo)
        self._hi = np.ascontiguousarray(hi)
        self.n_boxes = len(lo)
        self._union_lo = lo.min(axis=0)
        self._union_hi = hi.max(axis=0)
        extent = self._union_hi[:2] - self._union_lo[:2]
        side = float(np.sqrt(extent[0] * extent[1] / self.n_boxes))
        self._shape = tuple(max(1, int(round(e / side))) for e in extent)
        self._bin_size = extent / np.array(self._shape)
        self._half = 0.5 * (hi[:, :2] - lo[:, :2]).max(axis=0)
        # the footprint coordinates' own magnitude, for the slack
        self._scale = float(
            np.abs(np.concatenate([self._union_lo, self._union_hi])).max()
        )

        centre = 0.5 * (lo[:, :2] + hi[:, :2])
        n_y = self._shape[1]
        column = self._cell(0, centre[:, 0])
        bin_of = column * n_y + self._cell(1, centre[:, 1])
        # boxes sorted by bin (stable: ascending index within a bin)
        self._order = np.argsort(bin_of, kind="stable")
        self._starts = np.searchsorted(
            bin_of[self._order], np.arange(self._shape[0] * n_y + 1)
        )

    def _cell(self, axis: int, values):
        """Bin index of finite coordinates along x (0) or y (1), clamped."""
        with np.errstate(over="ignore"):
            offset = (values - self._union_lo[axis]) / self._bin_size[axis]
        top = self._shape[axis] - 1
        return np.floor(np.clip(offset, 0, top)).astype(np.intp)

    def chords(self, rays: RayBatch):
        """Nonzero forward chords as a sparse ``(ray, box, chord)`` list.

        Equal, element for element and bit for bit, to::

            matrix = chord_lengths(rays, boxes)
            ray, box = np.nonzero(matrix > 0.0)
            chord = matrix[ray, box]

        without the ``(n_rays, n_boxes)`` matrix: ray-major, boxes
        ascending within a ray.
        """
        ray, box = self._candidates(rays)
        # row gathers by ``take``: several times faster than ``a[idx]``
        # for these narrow rows, and the same copied values
        t_near, t_far = _slab_interval(
            rays.origins.take(ray, axis=0),
            rays.directions.take(ray, axis=0),
            self._lo.take(box, axis=0),
            self._hi.take(box, axis=0),
        )
        lengths = t_far - np.maximum(t_near, 0.0)
        hit = lengths > 0.0
        ray, box, lengths = ray[hit], box[hit], lengths[hit]
        order = np.argsort(ray * self.n_boxes + box)
        return ray[order], box[order], lengths[order]

    def _candidates(self, rays: RayBatch):
        """``(ray, box)`` pairs whose box may meet the ray's segment."""
        t_near, t_far = _slab_interval(
            rays.origins, rays.directions, self._union_lo, self._union_hi
        )
        t0 = np.maximum(t_near, 0.0)
        live = np.flatnonzero(t_far > t0)
        t0, t1 = t0[live], t_far[live]
        o = rays.origins.take(live, axis=0)[:, :2]
        d = rays.directions.take(live, axis=0)[:, :2]
        # x/y end points of the forward segment inside the union
        with np.errstate(over="ignore", invalid="ignore"):
            start = o + t0[:, np.newaxis] * d
            end = o + t1[:, np.newaxis] * d
        # a non-finite footprint covers the whole grid
        wide = ~np.all(np.isfinite(start) & np.isfinite(end), axis=1)
        start[wide] = 0.0
        end[wide] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.abs(o).max(axis=1) + t1 + self._scale
        slack = _REL_SLACK * np.where(np.isfinite(scale), scale, 0.0)
        pad_x = self._half[0] + slack
        pad_y = self._half[1] + slack

        n_x, n_y = self._shape
        c0 = self._cell(0, np.minimum(start[:, 0], end[:, 0]) - pad_x)
        c1 = self._cell(0, np.maximum(start[:, 0], end[:, 0]) + pad_x)
        c0[wide] = 0
        c1[wide] = n_x - 1

        # one row per (ray, column) under the padded segment
        owner, rank = _expand(c1 - c0 + 1)
        col = c0[owner] + rank
        x_a = start[:, 0].take(owner)
        y_a = start[:, 1].take(owner)
        dx = end[:, 0].take(owner) - x_a
        dy = end[:, 1].take(owner) - y_a
        pad_x, pad_y = pad_x[owner], pad_y[owner]
        left = self._union_lo[0] + col * self._bin_size[0] - pad_x
        right = left + self._bin_size[0] + 2.0 * pad_x
        # segment parameters of the column window's edges, clipped to
        # the segment; a segment without x extent lies in every window
        # it was listed for
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s_a = (left - x_a) / dx
            s_b = (right - x_a) / dx
        flat = dx == 0.0
        s_lo = np.clip(np.where(flat, 0.0, np.minimum(s_a, s_b)), 0.0, 1.0)
        s_hi = np.clip(np.where(flat, 1.0, np.maximum(s_a, s_b)), 0.0, 1.0)
        y_0 = y_a + s_lo * dy
        y_1 = y_a + s_hi * dy
        r0 = self._cell(1, np.minimum(y_0, y_1) - pad_y)
        r1 = self._cell(1, np.maximum(y_0, y_1) + pad_y)
        full = wide[owner]
        r0[full] = 0
        r1[full] = n_y - 1

        # the column's bins r0..r1 are one run of the sorted boxes
        first = self._starts[col * n_y + r0]
        count = self._starts[col * n_y + r1 + 1] - first
        pair, rank = _expand(count)
        return live[owner[pair]], self._order[first[pair] + rank]
