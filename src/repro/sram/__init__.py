"""6T SRAM cell modeling: netlists, fast strike simulation, POF
characterization, and critical-charge extraction."""

from .access import (
    AccessTimingConfig,
    read_disturb_analysis,
    write_analysis,
)
from .cell import ROLES, SENSITIVE_ROLES, STRIKE_TARGETS, SramCellDesign
from .characterize import CharacterizationConfig, characterize_cell
from .fastcell import FastCell
from .ivtab import IVTables
from .pof_lut import PofTable
from .qcrit import (
    critical_charge_samples_c,
    critical_charge_statistics,
    critical_charge_vs_vdd,
    nominal_critical_charge_c,
)
from .snm import snm_vs_vdd, static_noise_margin_v
from .strike import ALL_COMBOS, StrikeScenario, combo_label, combo_of_charges

__all__ = [
    "SramCellDesign",
    "ROLES",
    "SENSITIVE_ROLES",
    "STRIKE_TARGETS",
    "FastCell",
    "IVTables",
    "CharacterizationConfig",
    "characterize_cell",
    "PofTable",
    "AccessTimingConfig",
    "read_disturb_analysis",
    "write_analysis",
    "static_noise_margin_v",
    "snm_vs_vdd",
    "StrikeScenario",
    "ALL_COMBOS",
    "combo_label",
    "combo_of_charges",
    "nominal_critical_charge_c",
    "critical_charge_vs_vdd",
    "critical_charge_samples_c",
    "critical_charge_statistics",
]
