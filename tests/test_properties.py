"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import Aabb, RayBatch, chord_lengths
from repro.layout import CellLayout, SramArrayLayout
from repro.layout.array import DATA_PATTERNS
from repro.physics import ALPHA, PROTON, mass_stopping_power
from repro.sram.cell import ROLES

from .array_oracle import combine_seu, combine_total, tiled_layout_loop


class TestGeometryProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_boxes=st.integers(1, 4),
    )
    def test_chords_additive_under_box_splitting(self, data, n_boxes):
        """Splitting one box into slabs preserves the total chord."""
        # one big box [0,30]^3 split into n z-slabs
        edges = np.linspace(0.0, 30.0, n_boxes + 1)
        slabs = [
            Aabb((0.0, 0.0, edges[i]), (30.0, 30.0, edges[i + 1]))
            for i in range(n_boxes)
        ]
        whole = Aabb((0, 0, 0), (30, 30, 30))
        ox = data.draw(st.floats(-10, 40))
        oy = data.draw(st.floats(-10, 40))
        dx = data.draw(st.floats(-1, 1))
        dy = data.draw(st.floats(-1, 1))
        dz = data.draw(st.floats(-1, -0.05))
        rays = RayBatch(np.array([[ox, oy, 50.0]]), np.array([[dx, dy, dz]]))
        total = chord_lengths(rays, [whole])[0, 0]
        parts = chord_lengths(rays, slabs)[0, :].sum()
        assert parts == pytest.approx(total, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        shift=st.floats(-100, 100),
    )
    def test_chords_translation_invariant(self, shift):
        box = Aabb((0, 0, 0), (20, 10, 30))
        moved = box.translated((shift, 0.0, 0.0))
        rays_a = RayBatch(
            np.array([[5.0, 5.0, 50.0]]), np.array([[0.2, 0.1, -1.0]])
        )
        rays_b = RayBatch(
            np.array([[5.0 + shift, 5.0, 50.0]]),
            np.array([[0.2, 0.1, -1.0]]),
        )
        a = chord_lengths(rays_a, [box])[0, 0]
        b = chord_lengths(rays_b, [moved])[0, 0]
        assert a == pytest.approx(b, abs=1e-6)


class TestLayoutProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n_rows=st.integers(1, 17),
        n_cols=st.integers(1, 17),
        data_pattern=st.sampled_from(DATA_PATTERNS),
        nfins=st.lists(st.integers(1, 3), min_size=6, max_size=6),
        collection_length_nm=st.floats(20.0, 100.0),
        device_fin_pitch_nm=st.floats(10.0, 40.0),
    )
    def test_broadcast_tiling_matches_cell_loop(
        self,
        n_rows,
        n_cols,
        data_pattern,
        nfins,
        collection_length_nm,
        device_fin_pitch_nm,
    ):
        """The broadcast build is bit-identical to per-cell tiling."""
        layout = SramArrayLayout(
            n_rows=n_rows,
            n_cols=n_cols,
            cell=CellLayout(
                collection_length_nm=collection_length_nm,
                device_fin_pitch_nm=device_fin_pitch_nm,
            ),
            data_pattern=data_pattern,
            nfins=dict(zip(ROLES, nfins)),
        )
        expected = tiled_layout_loop(layout)
        built = (
            layout.packed_boxes,
            layout.fin_cell,
            layout.fin_role,
            layout.fin_strike,
        )
        for want, got in zip(expected, built):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert layout.n_fins == len(expected[1])


class TestPhysicsProperties:
    @settings(max_examples=60, deadline=None)
    @given(energy=st.floats(0.01, 500.0))
    def test_stopping_power_positive(self, energy):
        assert mass_stopping_power(PROTON, energy) > 0
        assert mass_stopping_power(ALPHA, energy) > 0

    @settings(max_examples=40, deadline=None)
    @given(energy=st.floats(1.0, 100.0))
    def test_alpha_dominates_above_mev(self, energy):
        assert mass_stopping_power(ALPHA, energy) > mass_stopping_power(
            PROTON, energy
        )


class TestPofProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        pofs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        extra=st.floats(0.0, 1.0),
    )
    def test_total_monotone_in_cells(self, pofs, extra):
        """Adding a cell can only increase the total failure probability."""
        base = combine_total(np.array([pofs]))[0]
        augmented = combine_total(np.array([pofs + [extra]]))[0]
        assert augmented >= base - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        pofs=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
        scale=st.floats(0.0, 1.0),
    )
    def test_total_monotone_in_pof(self, pofs, scale):
        """Scaling every cell POF down cannot raise the total."""
        row = np.array([pofs])
        scaled = combine_total(row * scale)[0]
        full = combine_total(row)[0]
        assert scaled <= full + 1e-12


class TestLutProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_yield_lut_samples_within_support(self, seed):
        from repro.transport import ElectronYieldLUT

        rng = np.random.default_rng(123)
        lut = ElectronYieldLUT.build(
            ALPHA, np.array([1.0, 10.0]), 1500, rng
        )
        sample_rng = np.random.default_rng(seed)
        samples = lut.sample_pairs(3.0, 100, sample_rng)
        hi = max(lut.quantiles[0, -1], lut.quantiles[1, -1])
        assert np.all(samples >= 0.0)
        assert np.all(samples <= hi + 1e-9)
