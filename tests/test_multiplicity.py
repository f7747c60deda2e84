"""Failure-multiplicity (cluster size) analysis."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError

from .array_oracle import combine, multiplicity_pmf

pof_rows = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6)


def brute_pmf(pofs, max_k):
    pmf = np.zeros(max_k + 1)
    n = len(pofs)
    for outcome in itertools.product([0, 1], repeat=n):
        prob = 1.0
        for bit, p in zip(outcome, pofs):
            prob *= p if bit else (1.0 - p)
        k = min(sum(outcome), max_k)
        pmf[k] += prob
    return pmf


class TestMultiplicityPmf:
    @given(pof_rows)
    @settings(max_examples=100, deadline=None)
    def test_matches_enumeration(self, pofs):
        pmf = multiplicity_pmf(np.array([pofs]), max_k=4)[0]
        expected = brute_pmf(pofs, 4)
        assert np.allclose(pmf, expected, atol=1e-9)

    @given(pof_rows)
    @settings(max_examples=80, deadline=None)
    def test_consistent_with_eqs_4_to_6(self, pofs):
        row = np.array([pofs])
        pmf = multiplicity_pmf(row, max_k=len(pofs) + 1)[0]
        total, seu, mbu = combine(row)
        assert np.sum(pmf) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - pmf[0] == pytest.approx(total[0], abs=1e-9)
        assert pmf[1] == pytest.approx(seu[0], abs=1e-9)
        assert np.sum(pmf[2:]) == pytest.approx(mbu[0], abs=1e-9)

    def test_overflow_bin_absorbs(self):
        row = np.ones((1, 5))  # five certain failures
        pmf = multiplicity_pmf(row, max_k=3)[0]
        assert pmf[3] == pytest.approx(1.0)
        assert np.sum(pmf[:3]) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_max_k(self):
        with pytest.raises(ConfigError):
            multiplicity_pmf(np.array([[0.5]]), max_k=0)


class TestSimulatorMultiplicity:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.layout import SramArrayLayout
        from repro.physics import ALPHA
        from repro.ser import ArraySerSimulator
        from repro.sram import (
            CharacterizationConfig,
            SramCellDesign,
            characterize_cell,
        )
        from repro.transport import ElectronYieldLUT, TransportEngine
        from repro.geometry import FinGeometry, SoiFinWorld

        design = SramCellDesign()
        table = characterize_cell(
            design,
            CharacterizationConfig(
                vdd_list=(0.7,),
                n_charge_points=15,
                n_samples=40,
                max_pair_points=4,
                max_triple_points=3,
            ),
        )
        fin = FinGeometry(
            design.tech.collection_length_nm,
            design.tech.fin.width_nm,
            design.tech.fin.height_nm,
        )
        engine = TransportEngine(SoiFinWorld(fin=fin))
        lut = ElectronYieldLUT.build(
            ALPHA, np.logspace(-1, 2, 5), 4000, np.random.default_rng(0),
            engine=engine,
        )
        sim = ArraySerSimulator(
            SramArrayLayout(), table, yield_luts={"alpha": lut}
        )
        return sim.run(ALPHA, 2.0, 0.7, 50000, np.random.default_rng(1))

    def test_pmf_attached(self, result):
        assert result.multiplicity_pmf is not None
        assert len(result.multiplicity_pmf) == 9

    def test_pmf_consistent_with_pofs(self, result):
        pmf = result.multiplicity_pmf
        assert np.sum(pmf[1:]) == pytest.approx(result.pof_total, rel=1e-9)
        assert pmf[1] == pytest.approx(result.pof_seu, rel=1e-9)
        assert np.sum(pmf[2:]) == pytest.approx(result.pof_mbu, rel=1e-9)

    def test_cluster_sizes_decay(self, result):
        pmf = result.multiplicity_pmf
        # single-cell upsets dominate; probability decays with k
        assert pmf[1] > pmf[2] > pmf[3]

    def test_mean_cluster_size(self, result):
        mean = result.mean_cluster_size()
        # slightly above 1: most upsets are single-cell
        assert 1.0 < mean < 1.5
