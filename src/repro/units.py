"""Unit conventions and conversion helpers.

The library uses a small set of canonical units chosen to keep numbers
near unity in each domain:

========================  =======================================
Quantity                  Canonical unit
========================  =======================================
Particle kinetic energy   MeV
Microscopic deposit       eV (pair creation), keV (chord deposits)
Device geometry           nanometre (nm)
Bulk path length          centimetre (cm)
Mass stopping power       MeV cm^2 / g
Linear stopping power     MeV / cm   (helpers for keV/nm)
Charge                    coulomb (C); femtocoulomb helpers
Time                      second (s); ns/ps/fs helpers
Flux                      1 / (cm^2 s)  [differential: per MeV]
SER                       FIT (failures per 1e9 device hours)
========================  =======================================

Only plain ``float``/``numpy`` values are passed around -- no unit
wrapper objects -- so these helpers are the single place conversions
live.  Every function is trivially invertible and round-trip tested.
"""

from __future__ import annotations

# --- energy -----------------------------------------------------------

EV_PER_MEV = 1.0e6
EV_PER_KEV = 1.0e3
KEV_PER_MEV = 1.0e3


def mev_to_ev(energy_mev):
    """Convert MeV to eV."""
    return energy_mev * EV_PER_MEV


def ev_to_mev(energy_ev):
    """Convert eV to MeV."""
    return energy_ev / EV_PER_MEV


def mev_to_kev(energy_mev):
    """Convert MeV to keV."""
    return energy_mev * KEV_PER_MEV


def kev_to_mev(energy_kev):
    """Convert keV to MeV."""
    return energy_kev / KEV_PER_MEV


# --- length -----------------------------------------------------------

NM_PER_CM = 1.0e7
NM_PER_UM = 1.0e3
CM_PER_M = 1.0e2


def nm_to_cm(length_nm):
    """Convert nanometres to centimetres."""
    return length_nm / NM_PER_CM


def cm_to_nm(length_cm):
    """Convert centimetres to nanometres."""
    return length_cm * NM_PER_CM


def um_to_nm(length_um):
    """Convert micrometres to nanometres."""
    return length_um * NM_PER_UM


def m2_to_cm2(area_m2):
    """Convert square metres to square centimetres."""
    return area_m2 * CM_PER_M * CM_PER_M


def cm2_to_m2(area_cm2):
    """Convert square centimetres to square metres."""
    return area_cm2 / (CM_PER_M * CM_PER_M)


# --- stopping power ---------------------------------------------------


def mass_to_linear_stopping(mass_stopping_mev_cm2_g, density_g_cm3):
    """Convert mass stopping power [MeV cm^2/g] to linear [MeV/cm]."""
    return mass_stopping_mev_cm2_g * density_g_cm3


def linear_stopping_to_kev_per_nm(linear_stopping_mev_cm):
    """Convert linear stopping power [MeV/cm] to [keV/nm]."""
    return linear_stopping_mev_cm * KEV_PER_MEV / NM_PER_CM


def kev_per_nm_to_mev_per_cm(stopping_kev_nm):
    """Convert linear stopping power [keV/nm] to [MeV/cm]."""
    return stopping_kev_nm / KEV_PER_MEV * NM_PER_CM


# --- charge -----------------------------------------------------------

FC_PER_C = 1.0e15


def coulomb_to_fc(charge_c):
    """Convert coulomb to femtocoulomb."""
    return charge_c * FC_PER_C


def fc_to_coulomb(charge_fc):
    """Convert femtocoulomb to coulomb."""
    return charge_fc / FC_PER_C


# --- time -------------------------------------------------------------

S_PER_NS = 1.0e-9
S_PER_PS = 1.0e-12
S_PER_FS = 1.0e-15


def ns_to_s(time_ns):
    """Convert nanoseconds to seconds."""
    return time_ns * S_PER_NS


def s_to_ns(time_s):
    """Convert seconds to nanoseconds."""
    return time_s / S_PER_NS


def ps_to_s(time_ps):
    """Convert picoseconds to seconds."""
    return time_ps * S_PER_PS


def fs_to_s(time_fs):
    """Convert femtoseconds to seconds."""
    return time_fs * S_PER_FS


# --- rates ------------------------------------------------------------

SECONDS_PER_HOUR = 3600.0


def per_hour_to_per_second(rate_per_hour):
    """Convert a rate per hour to per second."""
    return rate_per_hour / SECONDS_PER_HOUR


def per_second_to_fit(rate_per_second):
    """Convert an event rate [1/s] to FIT (events per 1e9 hours)."""
    return rate_per_second * SECONDS_PER_HOUR * 1.0e9


def fit_to_per_second(rate_fit):
    """Convert FIT to an event rate [1/s]."""
    return rate_fit / (SECONDS_PER_HOUR * 1.0e9)
