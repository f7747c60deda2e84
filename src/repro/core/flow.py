"""The cross-layer SER estimation flow (paper Fig. 6).

:class:`SerFlow` wires the three levels together exactly as the paper
describes:

1. **Device level** -- build per-particle electron-yield LUTs with the
   Monte Carlo transport engine (Geant4 substitute, Section 3).
2. **Cell level** -- characterize the 6T cell into POF LUTs with the
   vectorized SPICE-substitute, including Vth-variation MC (Section 4).
3. **Array level** -- run the 3-D layout Monte Carlo per spectrum
   energy bin and fold with the particle flux into FIT rates
   (Section 5, eqs. 4-8).

Expensive artifacts (both LUT kinds) are cached on disk keyed by their
configuration hash; "the simulations have to be performed only once to
build up LUTs" is honored across process restarts.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..io import ArtifactCache, config_hash
from ..layout import DATA_PATTERNS, CellLayout, SramArrayLayout
from ..obs import span
from ..parallel import (
    PackedPayload,
    RetryPolicy,
    ShardJournal,
    pack_payload,
    resolve_jobs,
)
from ..physics import EnergyBins, get_particle, spectrum_for
from ..sram import (
    CharacterizationConfig,
    PofTable,
    SramCellDesign,
    characterize_cell,
)
from ..sram.characterize import (
    characterize_shard_decode,
    characterize_shard_encode,
)
from ..ser import (
    AdaptiveBin,
    AdaptiveCampaignController,
    AdaptiveConfig,
    ArrayMcConfig,
    ArraySerSimulator,
    BatchPlan,
    CampaignPoint,
    FitResult,
    SerSweep,
    integrate_fit,
)
from ..ser.mc import array_shard_decode, array_shard_encode
from ..transport import ElectronYieldLUT, TransportEngine
from ..transport.lut import (
    MIN_TRIALS_PER_ENERGY,
    lut_shard_decode,
    lut_shard_encode,
)


#: Energy range [MeV] folded into the FIT integral per particle.  The
#: published proton spectrum (Fig. 2(a)) spans 1-1e7 MeV; direct-
#: ionization POF is negligible beyond ~100 MeV (Fig. 8 stops there),
#: so higher bins would only add zeros.  Set ``energy_ranges`` in
#: :class:`FlowConfig` to e.g. ``{"proton": (0.1, 100.0)}`` to fold in
#: the sub-MeV extrapolation of the spectrum (the Bragg-peak protons
#: the low-energy direct-ionization literature emphasizes).
DEFAULT_ENERGY_RANGES = {
    # Protons below ~0.4 MeV range out in the back-end-of-line stack
    # before reaching the fins, so the FIT integral starts there; the
    # spectrum extrapolates Fig. 2(a) below its published 1 MeV edge
    # (the low-energy direct-ionization protons of refs. [20-22]).
    "proton": (0.4, 100.0),
    "alpha": (0.5, 10.0),
}

#: Spectrum binnings a process keeps: every particle at every bin count
#: and range its flows ask for, with room to spare.
_ENERGY_BINS_CACHED = 64


@functools.lru_cache(maxsize=_ENERGY_BINS_CACHED)
def _energy_bins(
    particle_name: str, n_bins: int, e_lo: float, e_hi: float
) -> EnergyBins:
    """The eq. 8 bins of one particle's spectrum, built once per process.

    Every flow that bins the same particle over the same range reads
    the same object, so its arrays are read-only.
    """
    bins = spectrum_for(particle_name).make_bins(n_bins, e_lo, e_hi)
    for array in (
        bins.edges_mev,
        bins.representative_mev,
        bins.integral_flux_per_cm2_s,
    ):
        array.flags.writeable = False
    return bins


@dataclass(frozen=True)
class FlowConfig:
    """Configuration of the end-to-end flow.

    The defaults are a laptop-scale version of the paper's campaign
    (which used 1e7 trials per LUT energy and per array-MC point);
    raise ``yield_trials_per_energy`` / ``mc_particles_per_bin`` to
    tighten MC noise.
    """

    particles: Tuple[str, ...] = ("alpha", "proton")
    vdd_list: Tuple[float, ...] = (0.7, 0.8, 0.9, 1.0, 1.1)
    # device level
    yield_energy_points: int = 13
    yield_trials_per_energy: int = 20000
    # cell level; the flow writes its own ``vdd_list`` and
    # ``process_variation`` into this config
    characterization: CharacterizationConfig = field(
        default_factory=CharacterizationConfig
    )
    process_variation: bool = True
    # array level
    array_rows: int = 9
    array_cols: int = 9
    data_pattern: str = "uniform"
    n_energy_bins: int = 8
    mc_particles_per_bin: int = 100000
    deposition_mode: str = "lut"
    seed: int = 2014
    #: Per-particle (e_min, e_max) folded into the FIT integral; None
    #: selects :data:`DEFAULT_ENERGY_RANGES`.
    energy_ranges: Optional[Dict[str, Tuple[float, float]]] = None
    #: Adaptive trial allocation for the FIT campaigns (None = the
    #: historical uniform ``mc_particles_per_bin`` budget).  Unlike the
    #: execution knobs on :class:`SerFlow` this *changes results*
    #: (per-bin trial counts, stratified estimator), so it lives on the
    #: config and perturbs cache keys.  ``max_trials=None`` inherits
    #: ``mc_particles_per_bin`` as the per-bin ceiling.
    adaptive: Optional[AdaptiveConfig] = None

    def __post_init__(self):
        if not 0 < len(self.particles) == len(set(self.particles)):
            raise ConfigError("need one or more particles, none repeated")
        for name in self.particles:
            get_particle(name)  # validates
        if self.n_energy_bins < 1:
            raise ConfigError("need at least one energy bin")
        if self.mc_particles_per_bin < 1:
            raise ConfigError("need at least one MC particle per bin")
        if self.yield_energy_points < 2:
            raise ConfigError("need at least two yield energy points")
        if self.yield_trials_per_energy < MIN_TRIALS_PER_ENERGY:
            raise ConfigError(
                f"need >= {MIN_TRIALS_PER_ENERGY} yield trials per energy"
            )
        if self.array_rows < 1 or self.array_cols < 1:
            raise ConfigError("array must have at least one cell")
        if self.data_pattern not in DATA_PATTERNS:
            raise ConfigError(f"unknown data pattern {self.data_pattern!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        object.__setattr__(
            self,
            "characterization",
            replace(
                self.characterization,
                vdd_list=tuple(self.vdd_list),
                process_variation=self.process_variation,
            ),
        )

    def energy_range_for(self, particle_name: str) -> Tuple[float, float]:
        """FIT integration energy range [MeV] for a particle."""
        ranges = self.energy_ranges or DEFAULT_ENERGY_RANGES
        try:
            return ranges[particle_name]
        except KeyError:
            raise ConfigError(
                f"no energy range configured for {particle_name!r}"
            ) from None


class SerFlow:
    """End-to-end SER estimation for one cell design + array geometry.

    ``n_jobs`` selects the worker-process count of every Monte Carlo
    stage (1 = inline, 0 = one per CPU).  It deliberately lives on the
    flow object, not on :class:`FlowConfig`: results are bit-identical
    for any worker count, so the execution width must not perturb the
    cache keys derived from the config.  The same reasoning puts the
    fault-tolerance knobs here: ``retry`` (a
    :class:`~repro.parallel.RetryPolicy`, or ``None`` for historical
    fail-fast behavior) governs transient worker loss in every stage,
    and ``resume`` (on by default, needs a ``cache_dir``) checkpoints
    every campaign into a :class:`~repro.parallel.ShardJournal` so an
    interrupted run resumes bit-identically.

    With ``n_jobs > 1`` every stage runs on the warm leased pools and
    shared-memory payload plane of :mod:`repro.parallel`: the flow's
    campaigns reuse warm workers and ship their static inputs (layout
    boxes, POF grids, yield LUTs) once instead of per map.

    Every uniform array-MC scan -- :meth:`fit`, :meth:`sweep` and
    :meth:`pof_vs_energy` -- runs as one
    :class:`~repro.ser.fusion.BatchPlan` over its campaigns (see
    :meth:`_run_plan`); under adaptive allocation each round is one
    plan over its (bin, stratum) points.
    """

    def __init__(
        self,
        config: Optional[FlowConfig] = None,
        design: Optional[SramCellDesign] = None,
        cache_dir: Optional[str] = None,
        n_jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
        resume: bool = True,
    ):
        self.config = config if config is not None else FlowConfig()
        self.design = design if design is not None else SramCellDesign()
        self.cache = ArtifactCache(cache_dir) if cache_dir else None
        self.n_jobs = n_jobs
        self.retry = retry
        self.resume = resume
        self._yield_luts: Optional[Dict[str, ElectronYieldLUT]] = None
        self._pof_table: Optional[PofTable] = None
        self._layout: Optional[SramArrayLayout] = None
        self._simulator: Optional[ArraySerSimulator] = None
        self._campaign_pack: Optional[PackedPayload] = None

    def _journal_for(self, name: str, encode, decode, *config_objects):
        """A shard journal under the cache dir, or ``None``.

        Journals need a durable home (the artifact cache directory) and
        are pointless when resume is off, so either condition disables
        checkpointing -- the campaigns still run, just without partial
        credit across process restarts.
        """
        if self.cache is None or not self.resume:
            return None
        key = config_hash(*config_objects)
        return ShardJournal(
            self.cache.journal_path(name, key),
            key,
            encode=encode,
            decode=decode,
        )

    def _campaign_seed(self, *key_parts) -> np.random.SeedSequence:
        """Deterministic child seed for one named campaign.

        A pure function of ``config.seed`` and the campaign key, so
        every campaign's stream is independent of call order and cache
        warmth -- a cold-cache `fit` and a warm-cache one see the same
        random numbers.
        """
        key = "/".join(str(part) for part in key_parts)
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        words = [
            int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
        ]
        return np.random.SeedSequence([self.config.seed, *words])

    def _campaign_rng(self, *key_parts) -> np.random.Generator:
        return np.random.default_rng(self._campaign_seed(*key_parts))

    # -- stage 1: device level ------------------------------------------------

    def yield_luts(self) -> Dict[str, ElectronYieldLUT]:
        """Electron-yield LUTs per particle (built once, cached)."""
        if self._yield_luts is None:
            with span(
                "yield-luts", particles=",".join(self.config.particles)
            ):
                self._yield_luts = self._build_yield_luts()
        return self._yield_luts

    def _yield_lut_key(self, name: str) -> dict:
        """Artifact-cache key of one particle's electron-yield LUT.

        The LUT covers the full Fig. 4/8 display range (0.1 - 100 MeV)
        even when the FIT integral folds a narrower band: POF-vs-energy
        scans query beyond the FIT bins, and a clamped LUT would
        flatten them.
        """
        e_lo, e_hi = self.config.energy_range_for(name)
        return {
            "trials": self.config.yield_trials_per_energy,
            "points": self.config.yield_energy_points,
            "range": (min(e_lo, 0.1), max(e_hi, 100.0)),
            "fin": self.design.tech.fin,
            "seed": self.config.seed,
        }

    def _build_yield_luts(self) -> Dict[str, ElectronYieldLUT]:
        from ..geometry import SoiFinWorld

        # The transport target is the full charge-collecting fin
        # segment (channel + drain extension), matching the
        # sensitive volumes the array layout draws.
        from ..geometry import FinGeometry

        tech = self.design.tech
        collection_fin = FinGeometry(
            length_nm=tech.collection_length_nm,
            width_nm=tech.fin.width_nm,
            height_nm=tech.fin.height_nm,
        )
        engine = TransportEngine(world=SoiFinWorld(fin=collection_fin))
        luts = {}
        for name in self.config.particles:
            particle = get_particle(name)
            cache_key = self._yield_lut_key(name)
            e_lo, e_hi = cache_key["range"]
            energies = np.logspace(
                np.log10(e_lo), np.log10(e_hi), cache_key["points"]
            )
            journal = self._journal_for(
                f"yield-{name}",
                lut_shard_encode,
                lut_shard_decode,
                cache_key,
            )

            def build(
                particle=particle, energies=energies, journal=journal
            ):
                return ElectronYieldLUT.build(
                    particle,
                    energies,
                    self.config.yield_trials_per_energy,
                    self._campaign_rng("yield-lut", particle.name),
                    engine=engine,
                    n_jobs=self.n_jobs,
                    retry=self.retry,
                    journal=journal,
                )

            if self.cache is not None:
                luts[name] = self.cache.get_or_build(
                    f"yield-{name}", build, cache_key
                )
            else:
                luts[name] = build()
        return luts

    # -- stage 2: cell level -----------------------------------------------------

    def _pof_key(self) -> tuple:
        """``(char_config, tech)``: the POF table's artifact-cache key."""
        return self.config.characterization, self.design.tech

    def pof_table(self) -> PofTable:
        """Cell POF LUTs (built once, cached)."""
        if self._pof_table is None:
            char_config, tech = self._pof_key()
            journal = self._journal_for(
                "pof",
                characterize_shard_encode,
                characterize_shard_decode,
                char_config,
                tech,
            )

            def build():
                return characterize_cell(
                    self.design,
                    char_config,
                    n_jobs=self.n_jobs,
                    retry=self.retry,
                    journal=journal,
                )

            with span(
                "pof-table",
                vdds=len(char_config.vdd_list),
                samples=char_config.n_samples,
            ):
                if self.cache is not None:
                    self._pof_table = self.cache.get_or_build(
                        "pof", build, char_config, tech
                    )
                else:
                    self._pof_table = build()
        return self._pof_table

    # -- stage 3: array level -----------------------------------------------------

    def _layout_inputs(self) -> dict:
        """Keyword arguments of the tiled :class:`SramArrayLayout`."""
        return dict(
            n_rows=self.config.array_rows,
            n_cols=self.config.array_cols,
            cell=CellLayout(
                fin=self.design.tech.fin,
                collection_length_nm=self.design.tech.collection_length_nm,
            ),
            data_pattern=self.config.data_pattern,
            nfins={
                "pu_l": self.design.nfin_pu,
                "pu_r": self.design.nfin_pu,
                "pd_l": self.design.nfin_pd,
                "pd_r": self.design.nfin_pd,
                "pg_l": self.design.nfin_pg,
                "pg_r": self.design.nfin_pg,
            },
        )

    def _mc_config(self) -> ArrayMcConfig:
        return ArrayMcConfig(deposition_mode=self.config.deposition_mode)

    def model_key(self) -> str:
        """Content address of the array model this flow builds.

        The ``config_hash`` of what the simulator is built from: each
        yield LUT's and the POF table's artifact-cache keys, the layout
        inputs and the array-MC config, plus ``config.seed``, from
        which :meth:`pair_offsets` derives its streams.  Flows with
        equal keys build byte-identical simulators; the Monte Carlo
        budgets, the energy binning and the adaptive settings do not
        enter it.
        """
        return config_hash(
            [
                (name, self._yield_lut_key(name))
                for name in self.config.particles
            ],
            *self._pof_key(),
            self._layout_inputs(),
            self._mc_config(),
            self.config.seed,
        )

    def built_model(
        self,
    ) -> Optional[Tuple[ArraySerSimulator, Optional[PackedPayload]]]:
        """``(simulator, packed payload)`` if this flow built its model.

        Packs the payload now for pooled flows; inline flows ship
        nothing and return ``None`` for it.  ``None`` when no stage has
        needed the simulator yet.
        """
        if self._simulator is None:
            return None
        self._campaign_payload()
        return self._simulator, self._campaign_pack

    def adopt_model(
        self, simulator: ArraySerSimulator, pack: Optional[PackedPayload]
    ) -> None:
        """Serve this flow's campaigns from an equal-keyed flow's model.

        ``simulator`` and ``pack`` come from :meth:`built_model` of a
        flow whose :meth:`model_key` equals this one's, so the flow
        tiles no layout, decodes no artifact and pickles nothing.  The
        pack stays owned by whoever built it.
        """
        self._layout = simulator.layout
        self._pof_table = simulator.pof_table
        self._yield_luts = simulator.yield_luts
        self._simulator = simulator
        self._campaign_pack = pack

    def layout(self) -> SramArrayLayout:
        """The tiled array layout."""
        if self._layout is None:
            self._layout = SramArrayLayout(**self._layout_inputs())
        return self._layout

    def simulator(self) -> ArraySerSimulator:
        """The array Monte Carlo simulator (lazy)."""
        if self._simulator is None:
            self._simulator = ArraySerSimulator(
                self.layout(),
                self.pof_table(),
                yield_luts=self.yield_luts(),
                config=self._mc_config(),
            )
        return self._simulator

    def pof_vs_energy(
        self,
        particle_name: str,
        vdd_v: float,
        energies_mev: Sequence[float],
        n_particles: Optional[int] = None,
    ) -> list:
        """Array POF at explicit energies (the paper's Fig. 8 scan)."""
        get_particle(particle_name)  # validates
        n = n_particles if n_particles is not None else self.config.mc_particles_per_bin
        energies = [float(e) for e in energies_mev]
        with span(
            "pof-vs-energy",
            particle=particle_name,
            vdd=vdd_v,
            energies=len(energies),
        ):
            (results,) = self._run_plan(
                f"pof-vs-energy-{particle_name}",
                "pof-vs-energy",
                [(particle_name, vdd_v, energies)],
                n,
            )
            return results

    def _campaign_payload(self):
        """The campaign fan-out payload, packed once per flow.

        Every flow-level scan ships the same simulator, so the flow
        pre-packs it a single time (see
        :class:`~repro.parallel.shm.PackedPayload`): repeat fan-outs
        skip per-map pickling entirely, warm workers recognize the
        fingerprint and keep the payload they already rebuilt, and
        per-task IPC shrinks to shared-memory references.  Inline
        execution (``n_jobs <= 1``) has no transport cost, so it keeps
        the plain dict.
        """
        if resolve_jobs(self.n_jobs) <= 1:
            return {"simulator": self.simulator()}
        if self._campaign_pack is None:
            self._campaign_pack = pack_payload({"simulator": self.simulator()})
        return self._campaign_pack

    def _run_plan(self, name, stage, cases, n_particles):
        """Uniform array-MC campaigns of several cases, as one plan.

        ``cases`` is a sequence of ``(particle_name, vdd_v, energies)``;
        the result is one list of :class:`~repro.ser.ArrayPofResult`
        per case, one entry per energy, in order.  Every campaign draws
        from its own :meth:`_campaign_seed` stream keyed on ``stage``,
        so each result is a pure function of the flow seed --
        independent of execution order, worker count, and which other
        campaigns share the plan.  All draw blocks of all cases run as
        one :class:`~repro.ser.fusion.BatchPlan` map over the flow's
        packed payload.

        Completed pool tasks are journaled under ``name`` so an
        interrupted scan resumes bit-identically; the plan runs under
        ``retry.strict()``, since :func:`~repro.ser.fit.integrate_fit`
        needs every bin's full result.  The journal key names the task
        layout (whole blocks filled to ``TASK_PARTICLES``), so a journal
        written under another layout is never loaded.
        """
        points = [
            CampaignPoint.uniform(
                particle_name,
                energy,
                vdd_v,
                n_particles,
                self._campaign_seed(
                    stage, particle_name, f"{vdd_v:g}", f"{energy:.9g}"
                ),
            )
            for particle_name, vdd_v, energies in cases
            for energy in energies
        ]
        journal = self._journal_for(
            name,
            array_shard_encode,
            array_shard_decode,
            self.config,
            self.design.tech,
            {
                "stage": stage,
                "cases": [
                    [
                        particle_name,
                        f"{vdd_v:g}",
                        [f"{energy:.9g}" for energy in energies],
                    ]
                    for particle_name, vdd_v, energies in cases
                ],
                "n_particles": int(n_particles),
                "layout": "blocks-filled-to-chunk-size",
            },
        )
        results = BatchPlan(
            self.simulator(),
            points,
            n_jobs=self.n_jobs,
            retry=self.retry.strict() if self.retry is not None else None,
            journal=journal,
            payload=self._campaign_payload(),
        ).execute()
        if journal is not None:
            journal.clear()
        merged = iter(results)
        return [[next(merged) for _ in energies] for _, _, energies in cases]

    def pair_offsets(
        self,
        particle_name: str,
        vdd_v: float,
        energy_mev: float,
        n_particles: int,
    ):
        """Failing-pair offset statistics of one array campaign.

        The ECC/interleave analysis input (see
        :mod:`repro.reliability.ecc`), exposed on the flow so service
        queries and notebooks draw from the same deterministic
        campaign-seed streams as every other stage.
        """
        from ..ser.clusters import collect_pair_offsets

        particle = get_particle(particle_name)
        with span(
            "pair-offsets",
            particle=particle_name,
            vdd=vdd_v,
            energy=energy_mev,
        ):
            return collect_pair_offsets(
                self.simulator(),
                particle,
                float(energy_mev),
                float(vdd_v),
                int(n_particles),
                self._campaign_rng(
                    "pair-offsets",
                    particle_name,
                    f"{vdd_v:g}",
                    f"{energy_mev:.9g}",
                ),
            )

    def _fit_bins(self, particle_name: str) -> EnergyBins:
        """The FIT energy bins of one particle (eq. 8 discretization).

        They depend only on the particle, the bin count and the energy
        range, so every flow of the process shares one build
        (:func:`_energy_bins`).
        """
        e_lo, e_hi = self.config.energy_range_for(particle_name)
        return _energy_bins(
            particle_name, self.config.n_energy_bins, e_lo, e_hi
        )

    def _integrate(self, particle_name, vdd_v, bins, results) -> FitResult:
        """Fold the bins into a FIT.

        A FIT whose campaigns drew their pair counts from a degraded
        yield LUT is degraded too, so no cache or memo keeps it.
        """
        simulator = self.simulator()
        lut = simulator.yield_luts.get(particle_name)
        degraded = simulator.config.deposition_mode == "lut" and (
            lut is not None and lut.degraded
        )
        return integrate_fit(
            particle_name, vdd_v, bins, results, degraded=degraded
        )

    def fit(self, particle_name: str, vdd_v: float) -> FitResult:
        """FIT rate of one (particle, vdd) case (eqs. 7-8)."""
        particle = get_particle(particle_name)
        bins = self._fit_bins(particle_name)
        with span("fit", particle=particle_name, vdd=vdd_v, bins=len(bins)):
            energies = [float(energy) for energy in bins.representative_mev]
            if self.config.adaptive is not None:
                results = self._run_campaigns_adaptive(
                    "fit", particle, vdd_v, energies
                )
            else:
                (results,) = self._run_plan(
                    f"fit-{particle_name}",
                    "fit",
                    [(particle_name, vdd_v, energies)],
                    self.config.mc_particles_per_bin,
                )
            return self._integrate(particle_name, vdd_v, bins, results)

    def _run_campaigns_adaptive(self, stage, particle, vdd_v, energies):
        """Adaptive counterpart of :meth:`_run_plan` for one case (one
        result per energy, in order).

        One :class:`~repro.ser.AdaptiveCampaignController` drives all
        energy bins of the (particle, vdd) case together, so rounds
        compete for draw blocks across the whole scan.  It shares the
        flow's packed payload (warm pool + shm plane reuse across
        rounds), derives each bin's root seed from
        :meth:`_campaign_seed` (pure function of the flow seed), and
        journals every round under the cache dir so ``--resume``
        replays the identical allocation sequence.  The round journal
        key names the task layout (pool tasks span (bin, stratum)
        points), so a journal of the per-stratum layout never loads.
        """
        bins = [
            AdaptiveBin(particle.name, energy, float(vdd_v))
            for energy in energies
        ]

        def seed_for(bin_):
            return self._campaign_seed(
                "adaptive",
                stage,
                bin_.particle_name,
                f"{bin_.vdd_v:g}",
                f"{bin_.energy_mev:.9g}",
            )

        def journal_factory(round_index):
            return self._journal_for(
                f"{stage}-{particle.name}-adaptive-r{round_index:04d}",
                array_shard_encode,
                array_shard_decode,
                self.config,
                self.design.tech,
                {
                    "stage": stage,
                    "particle": particle.name,
                    "vdd": f"{vdd_v:g}",
                    "energies": [f"{energy:.9g}" for energy in energies],
                    "round": int(round_index),
                    "layout": "plan",
                },
            )

        controller = AdaptiveCampaignController(
            self.simulator(),
            self.config.adaptive,
            n_jobs=self.n_jobs,
            retry=self.retry,
            payload=self._campaign_payload(),
            journal_factory=journal_factory,
            stage=f"adaptive-{stage}",
            default_max_trials=self.config.mc_particles_per_bin,
        )
        report = controller.run(bins, seed_for)
        return report.results

    def sweep(
        self,
        particles: Optional[Sequence[str]] = None,
        vdd_list: Optional[Sequence[float]] = None,
    ) -> SerSweep:
        """The full evaluation sweep behind Figs. 9 and 10.

        With a cache directory configured, the sweep result itself is
        cached (keyed by the full flow configuration), so repeated
        analysis/example runs skip the Monte Carlo entirely.

        Every (particle, Vdd, energy-bin) campaign of the sweep runs in
        one :meth:`_run_plan` with the ``"fit"`` seed keys, so each case
        is bit-identical to :meth:`fit`.  Adaptive allocation does its
        own cross-bin scheduling, so it keeps the per-case path.
        """
        particles = list(particles or self.config.particles)
        vdd_list = list(vdd_list or self.config.vdd_list)

        def build():
            sweep = SerSweep()
            if self.config.adaptive is not None:
                for particle_name in particles:
                    for vdd in vdd_list:
                        sweep.add(self.fit(particle_name, float(vdd)))
                return sweep
            cases = [
                (particle_name, float(vdd), self._fit_bins(particle_name))
                for particle_name in particles
                for vdd in vdd_list
            ]
            per_case = self._run_plan(
                "sweep",
                "fit",
                [
                    (particle_name, vdd, [float(e) for e in bins.representative_mev])
                    for particle_name, vdd, bins in cases
                ],
                self.config.mc_particles_per_bin,
            )
            for (particle_name, vdd, bins), results in zip(cases, per_case):
                sweep.add(self._integrate(particle_name, vdd, bins, results))
            return sweep

        with span(
            "sweep",
            particles=",".join(particles),
            vdds=len(vdd_list),
        ):
            if self.cache is not None:
                return self.cache.get_or_build(
                    "sweep",
                    build,
                    self.config,
                    self.design.tech,
                    {"particles": particles, "vdds": vdd_list},
                )
            return build()
