"""Axis-aligned 3-D geometry: vectors, rays, boxes, SOI fin worlds."""

from .box import Aabb, chord_lengths, stack_boxes
from .fin import FinGeometry, SoiFinWorld, SoiStack, Volume
from .grid import BoxGrid
from .ray import Ray, RayBatch
from .vec import as_vec3, as_vec3_batch, dot, norm, normalize

__all__ = [
    "Aabb",
    "BoxGrid",
    "chord_lengths",
    "stack_boxes",
    "FinGeometry",
    "SoiStack",
    "SoiFinWorld",
    "Volume",
    "Ray",
    "RayBatch",
    "as_vec3",
    "as_vec3_batch",
    "dot",
    "norm",
    "normalize",
]
