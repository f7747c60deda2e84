"""Geometry: vectors, rays, slab intersections, fin worlds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    Aabb,
    FinGeometry,
    Ray,
    RayBatch,
    SoiFinWorld,
    SoiStack,
    chord_lengths,
    normalize,
    stack_boxes,
)


class TestVec:
    def test_normalize_unit(self):
        v = normalize(np.array([3.0, 4.0, 0.0]))
        assert np.allclose(v, [0.6, 0.8, 0.0])

    def test_normalize_zero_raises(self):
        with pytest.raises(GeometryError):
            normalize(np.zeros(3))

    def test_normalize_batch(self):
        batch = normalize(np.array([[2.0, 0, 0], [0, 0, -5.0]]))
        assert np.allclose(batch, [[1, 0, 0], [0, 0, -1]])


class TestRay:
    def test_direction_normalized(self):
        ray = Ray((0, 0, 0), (0, 0, -2.0))
        assert np.allclose(ray.direction, [0, 0, -1])

    def test_point_at(self):
        ray = Ray((1.0, 2.0, 3.0), (1.0, 0, 0))
        assert np.allclose(ray.point_at(np.array(5.0)), [6.0, 2.0, 3.0])

    def test_batch_shape_mismatch(self):
        with pytest.raises(GeometryError):
            RayBatch(np.zeros((2, 3)), np.ones((3, 3)))

    def test_batch_indexing(self):
        batch = RayBatch(np.zeros((2, 3)), np.array([[1, 0, 0], [0, 1, 0.0]]))
        assert len(batch) == 2
        assert np.allclose(batch[1].direction, [0, 1, 0])


class TestAabb:
    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Aabb((0, 0, 0), (1, 0, 1))

    def test_size_and_volume(self):
        box = Aabb((0, 0, 0), (2, 3, 4))
        assert np.allclose(box.size, [2, 3, 4])
        assert box.volume_nm3 == 24.0

    def test_contains(self):
        box = Aabb((0, 0, 0), (1, 1, 1))
        assert box.contains((0.5, 0.5, 0.5))
        assert not box.contains((1.5, 0.5, 0.5))

    def test_axis_aligned_chord(self):
        box = Aabb((0, 0, 0), (10, 10, 10))
        ray = Ray((5, 5, 20), (0, 0, -1))
        assert box.chord(ray) == pytest.approx(10.0)

    def test_oblique_chord(self):
        # 45-degree diagonal through a unit cube face pair
        box = Aabb((0, 0, 0), (1, 1, 1))
        d = np.array([1.0, 0.0, -1.0])
        ray = Ray((-0.5, 0.5, 1.5), d)
        # enters at (0, .5, 1), exits at (1, .5, 0): length sqrt(2)
        assert box.chord(ray) == pytest.approx(np.sqrt(2.0))

    def test_miss_returns_zero(self):
        box = Aabb((0, 0, 0), (1, 1, 1))
        ray = Ray((5, 5, 5), (0, 0, -1))
        assert box.chord(ray) == 0.0

    def test_forward_only_clipping(self):
        # origin inside the box: only the forward part counts
        box = Aabb((0, 0, 0), (10, 10, 10))
        ray = Ray((5, 5, 4), (0, 0, -1))
        assert box.chord(ray) == pytest.approx(4.0)

    def test_parallel_ray_inside_slab(self):
        box = Aabb((0, 0, 0), (10, 10, 10))
        ray = Ray((5, 5, 5), (1, 0, 0))  # parallel to z-slabs, inside
        assert box.chord(ray) == pytest.approx(5.0)

    def test_parallel_ray_outside_slab(self):
        box = Aabb((0, 0, 0), (10, 10, 10))
        ray = Ray((5, 5, 20), (1, 0, 0))  # parallel, above the box
        assert box.chord(ray) == 0.0

    def test_translated(self):
        box = Aabb((0, 0, 0), (1, 1, 1)).translated((10, 0, 0))
        assert np.allclose(box.lo, [10, 0, 0])


class TestChordLengthsVectorized:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        boxes = [
            Aabb((0, 0, 0), (10, 20, 30)),
            Aabb((15, 0, 0), (25, 20, 30)),
            Aabb((0, 30, 0), (10, 50, 30)),
        ]
        origins = rng.uniform(-5, 30, size=(50, 3))
        origins[:, 2] = 40.0
        directions = rng.normal(size=(50, 3))
        directions[:, 2] = -np.abs(directions[:, 2]) - 0.1
        batch = RayBatch(origins, directions)
        matrix = chord_lengths(batch, boxes)
        for i in range(len(batch)):
            for j, box in enumerate(boxes):
                assert matrix[i, j] == pytest.approx(
                    box.chord(batch[i]), abs=1e-9
                )

    @settings(max_examples=50, deadline=None)
    @given(
        ox=st.floats(-50, 50),
        oy=st.floats(-50, 50),
        dx=st.floats(-1, 1),
        dy=st.floats(-1, 1),
        dz=st.floats(-1, -0.01),
    )
    def test_chord_bounded_by_diagonal(self, ox, oy, dx, dy, dz):
        box = Aabb((0, 0, 0), (10, 20, 30))
        batch = RayBatch(
            np.array([[ox, oy, 40.0]]), np.array([[dx, dy, dz]])
        )
        chord = chord_lengths(batch, [box])[0, 0]
        assert 0.0 <= chord <= box.diagonal_nm + 1e-9

    @pytest.mark.parametrize("face_y", [0.0, 10.0])
    @pytest.mark.parametrize("dy", [0.0, 1e-310, -1e-310])
    def test_subnormal_component_on_face_is_parallel(self, face_y, dy):
        """A subnormal direction component chords like an exact zero.

        ``1 / 1e-310`` overflows to inf, so a ray starting on the
        ``y`` slab plane used to hit ``0 * inf = nan`` and miss.
        """
        box = Aabb((0, 0, 0), (10, 10, 10))
        batch = RayBatch(
            np.array([[5.0, face_y, 20.0]]), np.array([[0.0, dy, -1.0]])
        )
        assert chord_lengths(batch, [box])[0, 0] == 10.0
        assert box.chord(batch[0]) == 10.0

    def test_empty_boxes_rejected(self):
        with pytest.raises(GeometryError):
            stack_boxes([])


class TestFinGeometry:
    def test_default_dimensions(self):
        fin = FinGeometry()
        assert fin.length_nm == 20.0
        assert fin.width_nm == 10.0

    def test_volume(self):
        fin = FinGeometry(20, 10, 30)
        assert fin.volume_nm3 == 6000.0

    def test_box_at(self):
        fin = FinGeometry(20, 10, 30)
        box = fin.box_at(100.0, 50.0)
        assert np.allclose(box.lo, [90, 45, 0])
        assert np.allclose(box.hi, [110, 55, 30])

    def test_invalid_dimension(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            FinGeometry(length_nm=-1)


class TestSoiFinWorld:
    def test_volumes_present(self):
        world = SoiFinWorld()
        names = [v.name for v in world.volumes]
        assert names == ["fin", "box", "substrate"]

    def test_only_fin_collects(self):
        world = SoiFinWorld()
        collecting = [v for v in world.volumes if v.material.collects_charge]
        assert len(collecting) == 1
        assert collecting[0].name == "fin"

    def test_stack_is_contiguous(self):
        world = SoiFinWorld()
        fin = world.volumes[0].box
        box = world.volumes[1].box
        substrate = world.volumes[2].box
        assert fin.lo[2] == pytest.approx(box.hi[2])
        assert box.lo[2] == pytest.approx(substrate.hi[2])

    def test_beol_layer_optional(self):
        world = SoiFinWorld(stack=SoiStack(beol_thickness_nm=50.0))
        names = [v.name for v in world.volumes]
        assert "beol" in names

    def test_launch_plane_above_everything(self):
        world = SoiFinWorld()
        z = world.launch_plane_z()
        for volume in world.volumes:
            assert z > volume.box.hi[2]
