"""SRAM memory-array layout: tiled, mirrored 6T cells with a fin index.

The array-level Monte Carlo (paper Section 5) needs, for every fin in
the array: its 3-D box, which cell it belongs to, which device role it
implements, and -- given the stored data pattern -- whether it is
sensitive and which strike current (I1/I2/I3) a hit contributes to.
:class:`SramArrayLayout` precomputes all of that as flat numpy arrays
so the ray-casting kernel is a single vectorized slab test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..geometry import Aabb, stack_boxes
from ..sram.cell import ROLES
from ..units import nm_to_cm
from .celllayout import CellLayout

#: Sensitive roles and their strike indices for a cell storing q=1.
_SENSITIVE_Q1 = {"pd_l": 0, "pu_r": 1, "pg_r": 2}
#: Mirror-image sensitivity for a cell storing q=0.
_SENSITIVE_Q0 = {"pd_r": 0, "pu_l": 1, "pg_l": 2}

DATA_PATTERNS = ("uniform", "checkerboard")


@dataclass
class SramArrayLayout:
    """An n_rows x n_cols array of mirrored 6T cells.

    Physical tiling follows standard practice: cells are mirrored in x
    on odd columns and in y on odd rows so neighbouring cells share
    well/contact structure.  The paper evaluates a 9x9 array ("large
    enough to obtain a realistic ratio for MBU vs. SEU").

    Attributes
    ----------
    n_rows / n_cols:
        Array dimensions in cells.
    cell:
        The cell layout being tiled.
    data_pattern:
        ``"uniform"`` (every cell stores q=1) or ``"checkerboard"``.
    """

    n_rows: int = 9
    n_cols: int = 9
    cell: CellLayout = field(default_factory=CellLayout)
    data_pattern: str = "uniform"
    #: Fin count per device role (defaults to one fin everywhere --
    #: the high-density cell); multi-fin devices draw one collection
    #: volume per fin, all feeding the same strike current.
    nfins: Optional[dict] = None

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ConfigError("array must have at least one cell")
        if self.data_pattern not in DATA_PATTERNS:
            raise ConfigError(
                f"unknown data pattern {self.data_pattern!r}; "
                f"expected one of {DATA_PATTERNS}"
            )
        if self.nfins is not None:
            unknown = set(self.nfins) - set(ROLES)
            if unknown:
                raise ConfigError(f"unknown roles in nfins: {sorted(unknown)}")
        self._build()

    def _build(self):
        # Cells are numbered row-major; a cell's fins follow ROLES order,
        # each role's fins side by side.  The four mirror variants of one
        # cell are built once and tiled onto every cell origin: adding
        # the origin is the same float64 sum ``Aabb.translated`` does.
        nfins = [(self.nfins or {}).get(role, 1) for role in ROLES]
        variants = np.stack(
            [
                stack_boxes(
                    [
                        box
                        for role, nfin in zip(ROLES, nfins)
                        for box in self.cell.fin_boxes(
                            role, nfin, mirror_x, mirror_y
                        )
                    ]
                )
                for mirror_y in (False, True)
                for mirror_x in (False, True)
            ]
        )
        rows, cols = np.divmod(np.arange(self.n_cells), self.n_cols)
        origins = np.zeros((self.n_cells, 1, 6))
        origins[:, 0, 0] = origins[:, 0, 3] = cols * self.cell.width_nm
        origins[:, 0, 1] = origins[:, 0, 4] = rows * self.cell.height_nm
        variant = 2 * (rows % 2) + cols % 2
        self.packed_boxes = (variants[variant] + origins).reshape(-1, 6)

        fins_per_cell = sum(nfins)
        strikes = np.array(
            [
                np.repeat(
                    [sensitivity.get(role, -1) for role in ROLES], nfins
                )
                for sensitivity in (_SENSITIVE_Q0, _SENSITIVE_Q1)
            ],
            dtype=np.int64,
        )
        stored = [self.stored_bit(row, col) for row, col in zip(rows, cols)]
        self.fin_cell = np.repeat(
            np.arange(self.n_cells, dtype=np.int64), fins_per_cell
        )
        self.fin_role = np.tile(
            np.repeat(np.arange(len(ROLES), dtype=np.int64), nfins),
            self.n_cells,
        )
        self.fin_strike = strikes[stored].reshape(-1)

    # -- data pattern ----------------------------------------------------------

    def stored_bit(self, row: int, col: int) -> int:
        """Stored value of a cell under the configured pattern."""
        if self.data_pattern == "uniform":
            return 1
        return 1 if (row + col) % 2 == 0 else 0

    # -- derived geometry -----------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Total cell count."""
        return self.n_rows * self.n_cols

    @property
    def n_fins(self) -> int:
        """Total fin count (6 per cell)."""
        return self.fin_cell.size

    @property
    def width_nm(self) -> float:
        """Array extent along x (the paper's Lx)."""
        return self.n_cols * self.cell.width_nm

    @property
    def height_nm(self) -> float:
        """Array extent along y (the paper's Ly)."""
        return self.n_rows * self.cell.height_nm

    def bounding_box(self) -> Aabb:
        """Tight box around all cells (fin height in z)."""
        return Aabb(
            (0.0, 0.0, 0.0),
            (self.width_nm, self.height_nm, self.cell.fin.height_nm),
        )

    def launch_window(self, margin_nm: float = 100.0):
        """``(x_range, y_range, z, area_cm2)`` of the MC launch plane.

        The margin admits oblique tracks that enter the array from the
        side -- exactly the tracks that produce multi-cell upsets.
        """
        if margin_nm < 0:
            raise ConfigError("margin cannot be negative")
        x_range = (-margin_nm, self.width_nm + margin_nm)
        y_range = (-margin_nm, self.height_nm + margin_nm)
        z = self.cell.fin.height_nm + margin_nm
        width_cm = nm_to_cm(x_range[1] - x_range[0])
        height_cm = nm_to_cm(y_range[1] - y_range[0])
        return x_range, y_range, z, width_cm * height_cm

    def area_cm2(self) -> float:
        """Array footprint Lx * Ly [cm^2] (paper eq. 7)."""
        return nm_to_cm(self.width_nm) * nm_to_cm(self.height_nm)

    def sensitive_fin_count(self) -> int:
        """Number of fins that are strike-sensitive under the pattern."""
        return int(np.sum(self.fin_strike >= 0))
