"""SOI FinFET fin geometry and the single-fin simulation world.

The device-level Monte Carlo (paper Section 3) fires particles at the
3-D structure of a *single fin* sitting on the buried oxide (Fig. 3(a)).
:class:`FinGeometry` holds the fin dimensions (defaults follow the
14 nm-node SOI FinFET of Wang et al. [28], the paper's device
reference); :class:`SoiFinWorld` assembles the fin + BOX + substrate
stack used as the Geant4 target.

Axis convention (see :mod:`repro.geometry.vec`): ``x`` is the
source-drain transport direction (fin length), ``y`` crosses the fin
(fin width), ``z`` is vertical with the fin occupying ``0 <= z <= h``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import ConfigError
from ..materials import (
    SILICON,
    SILICON_DIOXIDE,
    SUBSTRATE_SILICON,
    Material,
)
from .box import Aabb


@dataclass(frozen=True)
class FinGeometry:
    """Dimensions of a single fin [nm].

    Defaults are the 14 nm SOI FinFET device of the paper's reference
    [28] (Wang et al.): ~20 nm gate length, ~10 nm fin width, ~25 nm
    fin height.

    Attributes
    ----------
    length_nm:
        Source-to-drain extent L_fin (the ``L`` of the paper's transit
        time formula, eq. 2).
    width_nm:
        Fin width w_fin (the ``w`` of the particle passage time, eq. 1).
    height_nm:
        Fin height above the BOX.
    """

    length_nm: float = 20.0
    width_nm: float = 10.0
    height_nm: float = 25.0

    def __post_init__(self):
        for name in ("length_nm", "width_nm", "height_nm"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"fin {name} must be positive")

    @property
    def volume_nm3(self) -> float:
        """Fin volume [nm^3]."""
        return self.length_nm * self.width_nm * self.height_nm

    @property
    def footprint_nm2(self) -> float:
        """Top-down footprint area [nm^2]."""
        return self.length_nm * self.width_nm

    def box_at(self, center_x: float, center_y: float) -> Aabb:
        """The fin body as an :class:`Aabb` centred at (x, y) on the BOX."""
        half_l = 0.5 * self.length_nm
        half_w = 0.5 * self.width_nm
        return Aabb(
            (center_x - half_l, center_y - half_w, 0.0),
            (center_x + half_l, center_y + half_w, self.height_nm),
        )


@dataclass(frozen=True)
class SoiStack:
    """Vertical layer thicknesses of the SOI stack [nm]."""

    box_thickness_nm: float = 145.0
    substrate_thickness_nm: float = 500.0
    beol_thickness_nm: float = 0.0

    def __post_init__(self):
        if self.box_thickness_nm <= 0:
            raise ConfigError("BOX thickness must be positive")
        if self.substrate_thickness_nm <= 0:
            raise ConfigError("substrate thickness must be positive")
        if self.beol_thickness_nm < 0:
            raise ConfigError("BEOL thickness cannot be negative")


@dataclass(frozen=True)
class Volume:
    """A named, material-tagged axis-aligned volume in a world."""

    name: str
    box: Aabb
    material: Material


class SoiFinWorld:
    """The single-fin Geant4-substitute target: fin + BOX + substrate.

    The world is laterally bounded by ``margin_nm`` of free space around
    the fin so that particles can be launched from outside the solid
    geometry with random positions and directions (paper Section 3.2).
    """

    def __init__(
        self,
        fin: FinGeometry = None,
        stack: SoiStack = None,
        margin_nm: float = 50.0,
    ):
        self.fin = fin if fin is not None else FinGeometry()
        self.stack = stack if stack is not None else SoiStack()
        if margin_nm <= 0:
            raise ConfigError("world margin must be positive")
        self.margin_nm = float(margin_nm)
        self._volumes = self._build_volumes()

    def _build_volumes(self) -> List[Volume]:
        fin_box = self.fin.box_at(0.0, 0.0)
        half_x = 0.5 * self.fin.length_nm + self.margin_nm
        half_y = 0.5 * self.fin.width_nm + self.margin_nm
        box_layer = Aabb(
            (-half_x, -half_y, -self.stack.box_thickness_nm),
            (half_x, half_y, 0.0),
        )
        substrate = Aabb(
            (
                -half_x,
                -half_y,
                -self.stack.box_thickness_nm - self.stack.substrate_thickness_nm,
            ),
            (half_x, half_y, -self.stack.box_thickness_nm),
        )
        volumes = [
            Volume("fin", fin_box, SILICON),
            Volume("box", box_layer, SILICON_DIOXIDE),
            Volume("substrate", substrate, SUBSTRATE_SILICON),
        ]
        if self.stack.beol_thickness_nm > 0:
            from ..materials import BEOL_DIELECTRIC

            beol = Aabb(
                (-half_x, -half_y, self.fin.height_nm),
                (half_x, half_y, self.fin.height_nm + self.stack.beol_thickness_nm),
            )
            volumes.append(Volume("beol", beol, BEOL_DIELECTRIC))
        return volumes

    @property
    def volumes(self) -> List[Volume]:
        """All material volumes, fin first."""
        return list(self._volumes)

    def bounds(self) -> Aabb:
        """World bounding box enclosing every volume plus the top margin."""
        lo = np.min([v.box.lo for v in self._volumes], axis=0)
        hi = np.max([v.box.hi for v in self._volumes], axis=0)
        hi = hi.copy()
        hi[2] += self.margin_nm
        return Aabb(lo, hi)

    def launch_plane_z(self) -> float:
        """Height of the plane from which downward particles are launched."""
        return float(self.bounds().hi[2])
