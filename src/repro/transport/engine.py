"""Monte Carlo transport of particles through the single-fin world.

This is the library's substitute for the paper's Geant4 step (Section
3.2): particles with random positions and directions are fired at the
3-D SOI fin structure; the energy each track deposits in the fin is
computed from the electronic stopping power with Bohr straggling, after
degrading the kinetic energy through any overburden volumes crossed
first; deposits convert to electron-hole pair counts at 3.6 eV/pair
with Fano statistics.

Straight-line tracks are exact at these energies over <1 um of
material; nuclear reactions are negligible for *direct* ionization
(DESIGN.md Section 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..geometry import RayBatch, SoiFinWorld, chord_lengths, stack_boxes
from ..obs import get_logger, get_registry, kv
from ..physics import (
    ParticleType,
    sample_deposits_kev,
    sample_pairs,
    sample_rays,
)
from .events import TransportResult

_log = get_logger(__name__)


@dataclass(frozen=True)
class TransportConfig:
    """Knobs of the device-level Monte Carlo.

    Attributes
    ----------
    direction_law:
        Angular law for launch directions (see
        :mod:`repro.physics.sampling`).
    straggling:
        Sample Bohr straggling (True) or use mean chord deposits.
    fano:
        Sample Fano pair-count statistics (True) or use mean counts.
    degrade_energy:
        Account for energy lost in volumes crossed before the fin.
    """

    direction_law: str = "isotropic"
    straggling: bool = True
    straggling_model: str = "bohr"
    fano: bool = True
    degrade_energy: bool = True


class TransportEngine:
    """Fires particle batches at a :class:`~repro.geometry.SoiFinWorld`."""

    def __init__(self, world: Optional[SoiFinWorld] = None, config: Optional[TransportConfig] = None):
        self.world = world if world is not None else SoiFinWorld()
        self.config = config if config is not None else TransportConfig()
        self._volumes = self.world.volumes
        self._packed_boxes = stack_boxes([v.box for v in self._volumes])
        self._fin_index = next(
            i for i, v in enumerate(self._volumes) if v.material.collects_charge
        )

    def launch(
        self,
        particle: ParticleType,
        energy_mev: float,
        n_particles: int,
        rng: np.random.Generator,
    ) -> TransportResult:
        """Launch ``n_particles`` at kinetic energy ``energy_mev`` [MeV]."""
        if energy_mev <= 0:
            raise ConfigError("launch energy must be positive")
        if n_particles < 1:
            raise ConfigError("need at least one particle")

        bounds = self.world.bounds()
        rays = sample_rays(
            n_particles,
            rng,
            (bounds.lo[0], bounds.hi[0]),
            (bounds.lo[1], bounds.hi[1]),
            self.world.launch_plane_z(),
            law=self.config.direction_law,
        )
        metrics = get_registry()
        if not metrics.enabled:
            return self.transport(particle, energy_mev, rays, rng)
        t0 = time.perf_counter()
        result = self.transport(particle, energy_mev, rays, rng)
        elapsed = time.perf_counter() - t0
        metrics.counter("transport.launches").inc()
        metrics.counter("transport.trials").inc(n_particles)
        metrics.counter("transport.fin_hits").inc(int(np.sum(result.hit_mask)))
        metrics.timer("transport.launch").observe(elapsed)
        _log.debug(
            "transport launch %s",
            kv(
                particle=particle.name,
                energy_mev=float(energy_mev),
                trials=n_particles,
                hit_fraction=result.hit_fraction,
                trials_per_s=n_particles / elapsed if elapsed > 0 else 0.0,
            ),
        )
        return result

    def transport(
        self,
        particle: ParticleType,
        energy_mev: float,
        rays: RayBatch,
        rng: np.random.Generator,
    ) -> TransportResult:
        """Transport an explicit ray batch (used by tests and the LUT)."""
        n = len(rays)
        chords = chord_lengths(rays, self._packed_boxes)  # (n, n_volumes)
        fin_chords = chords[:, self._fin_index]

        if self.config.degrade_energy:
            energy_at_fin = self._energy_at_fin(
                particle, energy_mev, rays, chords, rng
            )
        else:
            energy_at_fin = np.full(n, energy_mev, dtype=np.float64)

        deposits = np.zeros(n, dtype=np.float64)
        active = (fin_chords > 0.0) & (energy_at_fin > 0.0)
        if np.any(active):
            if self.config.straggling:
                deposits[active] = sample_deposits_kev(
                    particle,
                    energy_at_fin[active],
                    fin_chords[active],
                    rng,
                    self._volumes[self._fin_index].material,
                    model=self.config.straggling_model,
                )
            else:
                from ..physics import mean_chord_deposit_kev

                deposits[active] = mean_chord_deposit_kev(
                    particle,
                    energy_at_fin[active],
                    fin_chords[active],
                    self._volumes[self._fin_index].material,
                )

        pairs = np.zeros(n, dtype=np.float64)
        if np.any(active):
            if self.config.fano:
                pairs[active] = sample_pairs(
                    deposits[active],
                    rng,
                    self._volumes[self._fin_index].material,
                )
            else:
                from ..physics import mean_pairs

                pairs[active] = mean_pairs(
                    deposits[active], self._volumes[self._fin_index].material
                )

        return TransportResult(
            particle_name=particle.name,
            energy_mev=float(energy_mev),
            fin_chord_nm=fin_chords,
            fin_deposit_kev=deposits,
            fin_pairs=pairs,
        )

    def _energy_at_fin(
        self,
        particle: ParticleType,
        energy_mev: float,
        rays: RayBatch,
        chords: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Kinetic energy remaining when each track reaches the fin.

        Volumes crossed strictly before the fin (smaller entry parameter
        along the track) degrade the energy by their mean chord deposit.
        For the default world the fin is topmost so this is a no-op; it
        matters when a BEOL overburden is configured or for oblique
        tracks entering through the BOX sidewall.
        """
        from ..geometry.box import _slab_interval
        from ..physics import mean_chord_deposit_kev

        lo = self._packed_boxes[:, :3]
        hi = self._packed_boxes[:, 3:]
        t_near, t_far = _slab_interval(
            rays.origins[:, np.newaxis, :],
            rays.directions[:, np.newaxis, :],
            lo,
            hi,
        )
        t_entry = np.maximum(t_near, 0.0)
        hit = (t_far > t_entry) & (chords > 0.0)
        fin_entry = np.where(
            hit[:, self._fin_index], t_entry[:, self._fin_index], np.inf
        )

        energy = np.full(len(rays), energy_mev, dtype=np.float64)
        for index, volume in enumerate(self._volumes):
            if index == self._fin_index:
                continue
            before_fin = hit[:, index] & (t_entry[:, index] < fin_entry)
            if not np.any(before_fin):
                continue
            loss_kev = mean_chord_deposit_kev(
                particle,
                np.maximum(energy[before_fin], 1e-6),
                chords[before_fin, index],
                volume.material,
            )
            energy[before_fin] = np.maximum(
                energy[before_fin] - loss_kev * 1.0e-3, 0.0
            )
        return energy
