"""Neutron-induced SER of the array (the paper's future work).

Reuses the array layout, POF tables and FIT machinery of the main flow
but replaces the charge-deposition step: a neutron crossing a fin
deposits nothing unless a nuclear reaction occurs inside it
(probability ``n_Si * sigma(E) * chord`` ~ 1e-7 per crossing); a
reaction produces a charged secondary whose local energy deposit is
``min(LET_secondary * collection chord, E_secondary)``.

Because the reaction probability per crossing is tiny while secondary
LETs are huge (a Si recoil deposits tens of fC over a fin -- far above
Qcrit), the neutron SER of an SOI FinFET array is reaction-rate
limited: nearly every reaction flips the struck cell, and the FIT rate
is essentially flux x sensitive volume x cross section.  The MC below
importance-samples the reaction (every crossing is forced to react,
weighted by its reaction probability) so a laptop-scale run resolves
the ~1e-7 events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..constants import ELEMENTARY_CHARGE_C, SILICON_PAIR_ENERGY_EV
from ..errors import ConfigError
from ..geometry import BoxGrid, RayBatch
from ..layout import SramArrayLayout
from ..physics import sample_rays
from ..physics.neutron import NeutronInteractionModel, SeaLevelNeutronSpectrum
from ..sram import PofTable
from ..units import per_second_to_fit
from .mc import ArrayPofResult


@dataclass(frozen=True)
class NeutronMcConfig:
    """Knobs of the neutron array Monte Carlo."""

    margin_nm: float = 100.0
    chunk_size: int = 8192
    direction_law: str = "cosine"

    def __post_init__(self):
        if self.margin_nm < 0:
            raise ConfigError("margin cannot be negative")
        if self.chunk_size < 1:
            raise ConfigError("chunk size must be positive")


class NeutronSerSimulator:
    """Indirect-ionization SER of an SRAM array."""

    def __init__(
        self,
        layout: SramArrayLayout,
        pof_table: PofTable,
        interaction: Optional[NeutronInteractionModel] = None,
        config: Optional[NeutronMcConfig] = None,
    ):
        self.layout = layout
        self.pof_table = pof_table
        self.interaction = (
            interaction if interaction is not None else NeutronInteractionModel()
        )
        self.config = config if config is not None else NeutronMcConfig()
        sensitive = self.layout.fin_strike >= 0
        self._fin_grid = BoxGrid(self.layout.packed_boxes[sensitive])
        self._sens_strike = self.layout.fin_strike[sensitive]

    def run(
        self,
        energy_mev: float,
        vdd_v: float,
        n_neutrons: int,
        rng: np.random.Generator,
    ) -> ArrayPofResult:
        """Importance-sampled POF of one (energy, vdd) point.

        Every fin crossing is forced to undergo a reaction; the event's
        POF contribution is weighted by the physical reaction
        probability.  The returned POFs are per *launched* neutron, so
        they plug into :func:`repro.ser.fit.integrate_fit` unchanged.
        """
        if energy_mev <= 0:
            raise ConfigError("energy must be positive")
        if n_neutrons < 1:
            raise ConfigError("need at least one neutron")

        x_range, y_range, z, launch_area = self.layout.launch_window(
            self.config.margin_nm
        )

        sum_total = sum_seu = sum_mbu = 0.0
        n_strikes = 0
        remaining = n_neutrons
        while remaining > 0:
            batch = min(remaining, self.config.chunk_size)
            remaining -= batch
            rays = sample_rays(
                batch, rng, x_range, y_range, z, self.config.direction_law
            )
            totals, seus, mbus, strikes = self._process_batch(
                energy_mev, vdd_v, rays, rng
            )
            sum_total += totals
            sum_seu += seus
            sum_mbu += mbus
            n_strikes += strikes

        return ArrayPofResult(
            particle_name="neutron",
            energy_mev=float(energy_mev),
            vdd_v=float(vdd_v),
            n_particles=n_neutrons,
            n_array_hits=n_strikes,  # crossings of sensitive fins
            n_fin_strikes=n_strikes,
            pof_total=sum_total / n_neutrons,
            pof_seu=sum_seu / n_neutrons,
            pof_mbu=sum_mbu / n_neutrons,
            launch_area_cm2=launch_area,
        )

    def _process_batch(self, energy_mev, vdd_v, rays: RayBatch, rng):
        _, fin_idx, chord_vals = self._fin_grid.chords(rays)
        n_strikes = len(fin_idx)
        if n_strikes == 0:
            return 0.0, 0.0, 0.0, 0

        # importance sampling: force a reaction in each crossed fin,
        # carry the physical probability as a weight
        weights = self.interaction.reaction_probability(
            energy_mev, chord_vals
        )
        species, sec_energy = self.interaction.sample_secondaries(
            energy_mev, n_strikes, rng
        )
        let = self.interaction.secondary_let_kev_per_nm(species, sec_energy)
        # the secondary is born inside the fin: it can at most deposit
        # its full energy, and at most LET x the local chord (the track
        # continues out of the fin otherwise)
        deposit_kev = np.minimum(let * chord_vals, sec_energy * 1.0e3)
        charges = (
            deposit_kev * 1.0e3 / SILICON_PAIR_ENERGY_EV
        ) * ELEMENTARY_CHARGE_C

        strike_of = self._sens_strike[fin_idx]
        # reactions are rare; double reactions on one track are
        # negligible, so each strike is its own weighted event (a
        # single secondary cannot span cells in this model, so MBU
        # requires the track to react in two fins: probability ~ w^2,
        # ignored).  Evaluate POF per strike independently, weighted.
        pof_values = self.pof_table.query(
            vdd_v,
            np.stack(
                [
                    np.where(strike_of == 0, charges, 0.0),
                    np.where(strike_of == 1, charges, 0.0),
                    np.where(strike_of == 2, charges, 0.0),
                ],
                axis=1,
            ),
        )
        weighted = pof_values * weights
        # single-reaction events: everything is SEU (double reactions
        # carry weight^2 ~ 1e-14 and are dropped -- documented above)
        total = float(np.sum(weighted))
        return total, total, 0.0, n_strikes


def neutron_fit(
    layout: SramArrayLayout,
    pof_table: PofTable,
    vdd_v: float,
    n_neutrons_per_bin: int,
    rng: np.random.Generator,
    n_bins: int = 6,
    interaction: Optional[NeutronInteractionModel] = None,
    config: Optional[NeutronMcConfig] = None,
):
    """Neutron FIT rate via eq. 8 over the sea-level neutron spectrum."""
    from .fit import integrate_fit

    spectrum = SeaLevelNeutronSpectrum()
    bins = spectrum.make_bins(n_bins, 1.0, 1000.0)
    simulator = NeutronSerSimulator(layout, pof_table, interaction, config)
    results = [
        simulator.run(float(e), vdd_v, n_neutrons_per_bin, rng)
        for e in bins.representative_mev
    ]
    return integrate_fit("neutron", vdd_v, bins, results)
