"""Parametric physical layout of the 6T thin cell (paper Fig. 5(b)).

The standard FinFET thin cell places the six transistors on four fin
tracks (fins run along y, the bit-line direction) crossed by two gate
rows: the pass-gate/pull-down pair share the outer fins, the pull-ups
sit on the inner fins.  Exact mask dimensions of the paper's IBM cell
are proprietary; this parametric layout preserves what the array-level
analysis consumes -- per-transistor fin positions, inter-fin pitches,
and cell tiling adjacency (which set the MBU geometry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigError
from ..geometry import Aabb, FinGeometry
from ..sram.cell import ROLES


@dataclass(frozen=True)
class CellLayout:
    """Fin placement of one 6T cell.

    Coordinates are cell-local nanometres, origin at the cell's lower
    left corner; fins run along y (channel current flows along y).

    Attributes
    ----------
    fin:
        Fin body dimensions.
    width_nm / height_nm:
        Cell pitch in x (4 fin tracks) and y (2 gate rows).
    fin_positions:
        Role -> (x_center, y_center) of the device's channel region.
    """

    fin: FinGeometry = field(
        default_factory=lambda: FinGeometry(
            length_nm=20.0, width_nm=10.0, height_nm=30.0
        )
    )
    #: Length [nm] of the charge-collecting fin segment drawn for each
    #: device.  The physical fin is continuous through the gate; the
    #: reverse-biased drain extension collects drift charge beyond the
    #: channel, so the sensitive volume is longer than ``fin.length_nm``
    #: (see :class:`repro.devices.TechnologyCard.collection_length_nm`).
    collection_length_nm: float = 60.0
    #: Pitch between the fins of one multi-fin device [nm].
    device_fin_pitch_nm: float = 24.0
    width_nm: float = 150.0
    height_nm: float = 100.0
    fin_positions: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: {
            # column 1 (x = 8): pass-gate / pull-down left.  The outer
            # columns hug the cell boundary, so under mirrored tiling
            # neighbouring cells' outer fins sit ~16 nm apart -- the
            # adjacency that makes grazing tracks multi-cell events.
            "pg_l": (8.0, 30.0),
            "pd_l": (8.0, 70.0),
            # column 2: pull-up left
            "pu_l": (56.0, 70.0),
            # column 3: pull-up right
            "pu_r": (94.0, 30.0),
            # column 4 (x = 142): pull-down / pass-gate right
            "pd_r": (142.0, 30.0),
            "pg_r": (142.0, 70.0),
        }
    )

    def __post_init__(self):
        if self.width_nm <= 0 or self.height_nm <= 0:
            raise ConfigError("cell pitches must be positive")
        if self.collection_length_nm < self.fin.length_nm:
            raise ConfigError(
                "collection length cannot be shorter than the channel"
            )
        missing = set(ROLES) - set(self.fin_positions)
        if missing:
            raise ConfigError(f"layout is missing roles: {sorted(missing)}")
        half_w = 0.5 * self.fin.width_nm
        half_l = 0.5 * self.collection_length_nm
        if 2 * half_l > self.height_nm or 2 * half_w > self.width_nm:
            raise ConfigError(
                "collection volume does not fit inside the cell pitch"
            )
        # Re-centre positions whose collection volume would stick out of
        # the cell: the diffusion cannot extend past the cell boundary
        # without merging into the neighbour, so the volume is pushed
        # inward instead (keeps user layouts valid under parameter
        # sweeps of the collection length).
        adjusted = {}
        for role, (x, y) in self.fin_positions.items():
            if not (half_w <= x <= self.width_nm - half_w):
                raise ConfigError(f"{role}: fin x-position outside the cell")
            adjusted[role] = (
                x,
                float(np.clip(y, half_l, self.height_nm - half_l)),
            )
        object.__setattr__(self, "fin_positions", adjusted)

    def fin_box(self, role: str, mirror_x: bool = False, mirror_y: bool = False) -> Aabb:
        """Cell-local fin body box of a role, with optional mirroring.

        Fins run along y: the box spans the fin width in x, the
        charge-collection length in y, and the fin height in z.
        """
        return self.fin_boxes(role, 1, mirror_x, mirror_y)[0]

    def fin_boxes(
        self,
        role: str,
        nfin: int = 1,
        mirror_x: bool = False,
        mirror_y: bool = False,
    ) -> list:
        """All fin body boxes of an ``nfin``-fin device.

        Multi-fin devices place their fins side by side at
        ``device_fin_pitch_nm``, centred on the role's position; each
        fin is an independent charge-collection volume feeding the same
        transistor (a track through any of them contributes to the same
        strike current).
        """
        if nfin < 1:
            raise ConfigError("nfin must be >= 1")
        try:
            x, y = self.fin_positions[role]
        except KeyError:
            raise ConfigError(f"unknown role {role!r}") from None
        if mirror_x:
            x = self.width_nm - x
        if mirror_y:
            y = self.height_nm - y
        half_w = 0.5 * self.fin.width_nm
        half_l = 0.5 * self.collection_length_nm
        boxes = []
        for index in range(nfin):
            offset = (index - 0.5 * (nfin - 1)) * self.device_fin_pitch_nm
            cx = float(np.clip(x + offset, half_w, self.width_nm - half_w))
            boxes.append(
                Aabb(
                    (cx - half_w, y - half_l, 0.0),
                    (cx + half_w, y + half_l, self.fin.height_nm),
                )
            )
        return boxes
