"""Array-level SER estimation: Monte Carlo, POF combination, FIT."""

from .clusters import PairOffsetStatistics, collect_pair_offsets
from .heavy_ion import (
    CrossSectionPoint,
    HeavyIonCampaign,
    WeibullFit,
    fit_weibull,
)
from .fit import FitResult, fit_from_spectrum_run, integrate_fit
from .fusion import BatchPlan, CampaignPoint
from .mc import (
    DEFAULT_DIRECTION_LAWS,
    DEPOSITION_MODES,
    ArrayMcConfig,
    ArrayPofResult,
    ArraySerSimulator,
)
from .results import SerSweep
from .adaptive import (
    AdaptiveBin,
    AdaptiveCampaignController,
    AdaptiveConfig,
    AdaptiveReport,
    AdaptiveRoundRecord,
    energy_strata,
    position_strata,
)

__all__ = [
    "AdaptiveBin",
    "AdaptiveCampaignController",
    "AdaptiveConfig",
    "AdaptiveReport",
    "AdaptiveRoundRecord",
    "position_strata",
    "energy_strata",
    "ArrayMcConfig",
    "ArrayPofResult",
    "ArraySerSimulator",
    "BatchPlan",
    "CampaignPoint",
    "DEPOSITION_MODES",
    "DEFAULT_DIRECTION_LAWS",
    "FitResult",
    "integrate_fit",
    "fit_from_spectrum_run",
    "HeavyIonCampaign",
    "CrossSectionPoint",
    "WeibullFit",
    "fit_weibull",
    "PairOffsetStatistics",
    "collect_pair_offsets",
    "SerSweep",
]
