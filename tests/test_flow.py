"""End-to-end flow orchestration (scaled-down integration tests)."""

import dataclasses

import numpy as np
import pytest

from repro import FlowConfig, SerFlow
from repro.errors import ConfigError
from repro.sram import CharacterizationConfig


def small_config(**overrides):
    base = dict(
        particles=("alpha",),
        vdd_list=(0.7, 0.9),
        yield_energy_points=4,
        yield_trials_per_energy=2000,
        characterization=CharacterizationConfig(
            vdd_list=(0.7, 0.9),
            n_charge_points=13,
            n_samples=30,
            max_pair_points=4,
            max_triple_points=3,
        ),
        array_rows=4,
        array_cols=4,
        n_energy_bins=3,
        mc_particles_per_bin=8000,
        seed=99,
    )
    base.update(overrides)
    return FlowConfig(**base)


@pytest.fixture(scope="module")
def flow():
    return SerFlow(small_config())


class TestFlowStages:
    def test_yield_luts_built_per_particle(self, flow):
        luts = flow.yield_luts()
        assert set(luts) == {"alpha"}
        assert luts["alpha"].trials_per_energy == 2000

    def test_pof_table_respects_flow_settings(self, flow):
        table = flow.pof_table()
        assert np.allclose(table.vdd_list, [0.7, 0.9])
        assert table.process_variation

    def test_layout_dimensions(self, flow):
        layout = flow.layout()
        assert layout.n_cells == 16

    def test_stages_are_cached_in_memory(self, flow):
        assert flow.yield_luts() is flow.yield_luts()
        assert flow.pof_table() is flow.pof_table()
        assert flow.simulator() is flow.simulator()


class TestFitAndSweep:
    def test_fit_result_fields(self, flow):
        result = flow.fit("alpha", 0.7)
        assert result.particle_name == "alpha"
        assert result.fit_total >= result.fit_seu >= 0.0
        assert result.fit_total > 0.0
        assert len(result.bins) == 3

    def test_sweep_covers_grid(self, flow):
        sweep = flow.sweep()
        assert sweep.particles() == ["alpha"]
        assert list(sweep.vdd_values("alpha")) == [0.7, 0.9]

    def test_ser_rises_at_low_vdd(self, flow):
        sweep = flow.sweep()
        low = sweep.get("alpha", 0.7).fit_total
        high = sweep.get("alpha", 0.9).fit_total
        assert low > high

    def test_pof_vs_energy(self, flow):
        results = flow.pof_vs_energy("alpha", 0.7, [1.0, 10.0], 5000)
        assert len(results) == 2
        assert results[0].energy_mev == 1.0

    def test_unknown_particle_rejected(self, flow):
        from repro.errors import PhysicsError

        with pytest.raises(PhysicsError):
            flow.fit("neutron", 0.7)


class TestDiskCache:
    def test_luts_cached_across_flows(self, tmp_path):
        config = small_config()
        flow1 = SerFlow(config, cache_dir=str(tmp_path))
        flow1.yield_luts()
        flow1.pof_table()
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 2  # one yield LUT + one POF table

        flow2 = SerFlow(config, cache_dir=str(tmp_path))
        luts = flow2.yield_luts()
        assert np.allclose(
            luts["alpha"].mean_pairs, flow1.yield_luts()["alpha"].mean_pairs
        )

    def test_config_change_invalidates(self, tmp_path):
        flow1 = SerFlow(small_config(), cache_dir=str(tmp_path))
        flow1.pof_table()
        changed = small_config(
            characterization=CharacterizationConfig(
                vdd_list=(0.7, 0.9),
                n_charge_points=13,
                n_samples=31,  # different
                max_pair_points=4,
                max_triple_points=3,
            )
        )
        flow2 = SerFlow(changed, cache_dir=str(tmp_path))
        flow2.pof_table()
        assert len(list(tmp_path.glob("pof-*.json"))) == 2


class TestConfigValidation:
    def test_empty_particles(self):
        with pytest.raises(ConfigError):
            FlowConfig(particles=())

    def test_bad_particle_name(self):
        from repro.errors import PhysicsError

        with pytest.raises(PhysicsError):
            FlowConfig(particles=("neutron",))

    def test_energy_range_override(self):
        config = FlowConfig(energy_ranges={"proton": (2.0, 50.0), "alpha": (1.0, 9.0)})
        assert config.energy_range_for("proton") == (2.0, 50.0)

    def test_energy_range_missing_particle(self):
        config = FlowConfig(energy_ranges={"alpha": (1.0, 9.0)})
        with pytest.raises(ConfigError):
            config.energy_range_for("proton")

    def test_process_variation_override_propagates(self):
        config = FlowConfig(process_variation=False)
        assert not config.characterization.process_variation


class TestSweepCache:
    def test_sweep_cached_on_disk(self, tmp_path):
        config = small_config()
        flow1 = SerFlow(config, cache_dir=str(tmp_path))
        sweep1 = flow1.sweep()
        assert any(tmp_path.glob("sweep-*.json"))

        flow2 = SerFlow(config, cache_dir=str(tmp_path))
        sweep2 = flow2.sweep()
        assert sweep2.get("alpha", 0.7).fit_total == pytest.approx(
            sweep1.get("alpha", 0.7).fit_total
        )
