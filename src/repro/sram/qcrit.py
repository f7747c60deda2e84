"""Critical-charge extraction (the classic cell-level SER metric).

The paper's circuit-level related work ([14]) characterizes cells by
their critical charge Qcrit -- the smallest collected charge that flips
the cell.  These helpers extract Qcrit from the fast cell model:
nominal values, Vdd sweeps, and full distributions under process
variation (whose spread is what turns the paper's binary POFs into
probabilities).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..devices import VariationModel
from ..errors import ConfigError
from .cell import SramCellDesign
from .fastcell import FastCell

#: Canonical single-strike direction: all charge into I1 (the
#: pull-down of the '1' node -- the classic SRAM-upset path).
I1_DIRECTION = np.array([1.0, 0.0, 0.0])


def nominal_critical_charge_c(
    design: SramCellDesign,
    vdd_v: float,
    direction: Sequence[float] = I1_DIRECTION,
) -> float:
    """Qcrit [C] of the variation-free cell along a strike direction."""
    cell = FastCell(design, vdd_v)
    shifts = np.zeros((1, 6))
    return float(
        cell.critical_charge_c(np.asarray(direction, dtype=np.float64), shifts)[0]
    )


def critical_charge_vs_vdd(
    design: SramCellDesign,
    vdd_values: Sequence[float],
    direction: Sequence[float] = I1_DIRECTION,
) -> np.ndarray:
    """Nominal Qcrit [C] at each supply voltage (monotone increasing)."""
    if not len(vdd_values):
        raise ConfigError("need at least one Vdd value")
    return np.array(
        [nominal_critical_charge_c(design, v, direction) for v in vdd_values]
    )


def critical_charge_samples_c(
    design: SramCellDesign,
    vdd_v: float,
    n_samples: int,
    rng: np.random.Generator,
    direction: Sequence[float] = I1_DIRECTION,
    variation: Optional[VariationModel] = None,
) -> np.ndarray:
    """Qcrit distribution [C] under threshold-voltage variation.

    Returns one Qcrit per variation sample (vectorized log-bisection).
    """
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    variation = (
        variation
        if variation is not None
        else VariationModel(sigma_vth_v=design.tech.sigma_vth_v)
    )
    shifts = variation.sample_shifts(n_samples, design.nfins(), rng)
    cell = FastCell(design, vdd_v)
    return cell.critical_charge_c(
        np.asarray(direction, dtype=np.float64), shifts
    )


def critical_charge_statistics(
    design: SramCellDesign,
    vdd_v: float,
    n_samples: int,
    rng: np.random.Generator,
    direction: Sequence[float] = I1_DIRECTION,
) -> Tuple[float, float]:
    """``(mean, std)`` of the Qcrit distribution [C]."""
    samples = critical_charge_samples_c(
        design, vdd_v, n_samples, rng, direction
    )
    return float(np.mean(samples)), float(np.std(samples))
