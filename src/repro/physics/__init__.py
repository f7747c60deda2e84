"""Particle physics: kinematics, stopping power, straggling, ionization,
angular sampling, and ground-level flux spectra."""

from .ionization import (
    charge_to_pairs,
    mean_pairs,
    pairs_to_charge_coulomb,
    sample_pairs,
)
from .particle import ALPHA, PROTON, ParticleType, get_particle
from .sampling import (
    DIRECTION_LAWS,
    sample_directions,
    sample_positions_on_plane,
    sample_rays,
)
from .spectra import (
    ALPHA_EMISSION_RATE_PER_CM2_H,
    AlphaEmissionSpectrum,
    EnergyBins,
    SeaLevelProtonSpectrum,
    spectrum_for,
)
from .stopping import (
    bragg_peak_energy_mev,
    effective_charge,
    let_kev_per_nm,
    linear_stopping_power_mev_cm,
    mass_stopping_power,
    mean_chord_deposit_kev,
    proton_bethe_mev_cm2_g,
)
from .straggling import bohr_variance_mev2, sample_deposits_kev

__all__ = [
    "ParticleType",
    "PROTON",
    "ALPHA",
    "get_particle",
    "mass_stopping_power",
    "linear_stopping_power_mev_cm",
    "let_kev_per_nm",
    "proton_bethe_mev_cm2_g",
    "effective_charge",
    "bragg_peak_energy_mev",
    "mean_chord_deposit_kev",
    "bohr_variance_mev2",
    "sample_deposits_kev",
    "mean_pairs",
    "sample_pairs",
    "pairs_to_charge_coulomb",
    "charge_to_pairs",
    "sample_directions",
    "sample_positions_on_plane",
    "sample_rays",
    "DIRECTION_LAWS",
    "SeaLevelProtonSpectrum",
    "AlphaEmissionSpectrum",
    "EnergyBins",
    "spectrum_for",
    "ALPHA_EMISSION_RATE_PER_CM2_H",
]
