"""Per-figure series generation and shape analysis of results."""

from .convergence import (
    BinBudgetState,
    ConvergenceEstimate,
    StratumState,
    allocate_blocks,
    build_energy_tilt,
    estimate_pof_error,
    split_blocks_across_strata,
)
from .export import export_figures
from .figures import (
    Series,
    fig2a_proton_spectrum,
    fig2b_alpha_spectrum,
    fig4_electron_yield,
    fig8_pof_vs_energy,
    fig9_fit_vs_vdd,
    fig10_mbu_seu,
    fig11_process_variation,
)
from .sensitivity import (
    SENSITIVITY_PARAMETERS,
    SensitivityResult,
    perturb_technology,
    ser_sensitivities,
)
from .normalize import (
    decades_of_decrease,
    dominance_factor,
    is_monotone_decreasing,
    is_monotone_increasing,
    normalized,
)

__all__ = [
    "Series",
    "export_figures",
    "ConvergenceEstimate",
    "estimate_pof_error",
    "BinBudgetState",
    "StratumState",
    "allocate_blocks",
    "split_blocks_across_strata",
    "build_energy_tilt",
    "ser_sensitivities",
    "SensitivityResult",
    "SENSITIVITY_PARAMETERS",
    "perturb_technology",
    "fig2a_proton_spectrum",
    "fig2b_alpha_spectrum",
    "fig4_electron_yield",
    "fig8_pof_vs_energy",
    "fig9_fit_vs_vdd",
    "fig10_mbu_seu",
    "fig11_process_variation",
    "normalized",
    "is_monotone_decreasing",
    "is_monotone_increasing",
    "dominance_factor",
    "decades_of_decrease",
]
