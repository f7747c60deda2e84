"""Physical layout: 6T thin cell and tiled SRAM arrays."""

from .array import DATA_PATTERNS, SramArrayLayout
from .celllayout import CellLayout

__all__ = [
    "CellLayout",
    "SramArrayLayout",
    "DATA_PATTERNS",
]
