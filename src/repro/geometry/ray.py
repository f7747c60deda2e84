"""Rays (particle tracks) through the device geometry.

A particle track is modeled as an infinite straight line with an origin
and a unit direction -- adequate because at the energies of interest
(0.1-100 MeV) multiple scattering over the <100 nm scales of the fin
stack deflects the track by far less than a fin width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .vec import as_vec3, normalize


@dataclass(frozen=True)
class Ray:
    """A single straight particle track.

    Attributes
    ----------
    origin:
        Starting point [nm], shape ``(3,)``.
    direction:
        Unit direction, shape ``(3,)``.
    """

    origin: np.ndarray
    direction: np.ndarray

    def __init__(self, origin, direction):
        object.__setattr__(self, "origin", as_vec3(origin))
        object.__setattr__(self, "direction", normalize(as_vec3(direction)))

    def point_at(self, distance):
        """Point ``origin + distance * direction`` (distance in nm)."""
        distance = np.asarray(distance, dtype=np.float64)
        return self.origin + distance[..., np.newaxis] * self.direction


@dataclass(frozen=True)
class RayBatch:
    """A vectorized bundle of rays (shape ``(n, 3)`` origins/directions)."""

    origins: np.ndarray
    directions: np.ndarray

    def __init__(self, origins, directions):
        from .vec import as_vec3_batch

        origins = as_vec3_batch(origins)
        directions = normalize(as_vec3_batch(directions))
        if origins.shape != directions.shape:
            from ..errors import GeometryError

            raise GeometryError(
                f"origins {origins.shape} and directions {directions.shape} "
                "must have matching shapes"
            )
        object.__setattr__(self, "origins", origins)
        object.__setattr__(self, "directions", directions)

    @classmethod
    def concatenate(cls, batches) -> "RayBatch":
        """The rays of several batches, in order.

        Their directions are unit vectors already, so they are copied
        as they are: normalizing them again could move their last bits.
        """
        joined = object.__new__(cls)
        for name in ("origins", "directions"):
            rows = np.concatenate([getattr(batch, name) for batch in batches])
            object.__setattr__(joined, name, rows)
        return joined

    def __len__(self) -> int:
        return self.origins.shape[0]

    def __getitem__(self, index) -> Ray:
        return Ray(self.origins[index], self.directions[index])
