"""Geometry: vectors, rays, slab intersections, fin worlds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    Aabb,
    BoxGrid,
    FinGeometry,
    Ray,
    RayBatch,
    SoiFinWorld,
    SoiStack,
    chord_lengths,
    norm,
    normalize,
    stack_boxes,
)
from repro.layout import SramArrayLayout
from repro.physics import sample_rays
from repro.physics.sampling import sample_directions


#: Components where the squares underflow to subnormals or zero
#: (|x| < 1.5e-154) or overflow to inf (|x| > 1.3e154).
EXTREME_COMPONENTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1e154, -1.3e154]
    ),
    st.floats(1e-156, 1e-152),
    st.floats(1e152, 1e156),
    st.floats(-1e156, -1e152),
)


class TestVec:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[EXTREME_COMPONENTS] * 3), min_size=1, max_size=16
        )
    )
    def test_norm_is_bit_identical_to_linalg_norm(self, rows):
        batch = np.array(rows, dtype=np.float64)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = np.linalg.norm(batch, axis=-1)
            assert norm(batch).tobytes() == want.tobytes()
            for row, value in zip(batch, want):
                assert norm(row).tobytes() == value.tobytes()

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


# -- broad phase: sparse chords against the dense oracle ------------------------

#: Arrays whose sensitive fins the property test indexes.
GRID_LAYOUTS = {
    "9x9": SramArrayLayout(n_rows=9, n_cols=9),
    "16x16": SramArrayLayout(n_rows=16, n_cols=16),
    "9x9-checkerboard": SramArrayLayout(
        n_rows=9, n_cols=9, data_pattern="checkerboard"
    ),
    "16x16-checkerboard-multifin": SramArrayLayout(
        n_rows=16,
        n_cols=16,
        data_pattern="checkerboard",
        nfins={"pd_l": 2, "pu_r": 3, "pg_r": 2, "pd_r": 2},
    ),
}

#: Direction components the slab arithmetic treats specially: exact
#: zeros, subnormals (inverse overflows: parallel), and components
#: near 1e-300 (finite inverse, overflowing slab parameters).
TINY_COMPONENTS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    -1e-310,
    1e-300,
    -1e-300,
    3e-300,
)


def _sensitive_boxes(name):
    layout = GRID_LAYOUTS[name]
    return layout.packed_boxes[layout.fin_strike >= 0]


def _random_boxes(specs):
    return stack_boxes(
        [Aabb(lo, np.add(lo, size)) for lo, size in specs]
    )


#: Shared slabs of the lattice box sets.  x: [0, 10] and [10, 20]
#: touch, [30, 40] and [35, 55] overlap at two widths.  y: overlapping
#: slabs of different widths like the 9x9 layout's [0, 60] and
#: [40, 100], and faces that touch.  z: two disjoint ranges.
LATTICE_SLABS = (
    ((0.0, 10.0), (10.0, 20.0), (30.0, 40.0), (35.0, 55.0), (-20.0, -10.0)),
    ((0.0, 60.0), (40.0, 100.0), (100.0, 160.0), (-30.0, 0.0), (0.0, 30.0)),
    ((0.0, 30.0), (30.0, 45.0), (60.0, 90.0)),
)


@st.composite
def lattice_boxes(draw):
    """Boxes on a few shared x-, y- and z-slabs, shifted and scaled.

    Duplicates, touching faces and single-box sets come up, and one
    x-slab may hold boxes at two z ranges.
    """
    cells = draw(
        st.lists(
            st.tuples(*[st.integers(0, len(s) - 1) for s in LATTICE_SLABS]),
            min_size=1,
            max_size=12,
        )
    )
    if draw(st.booleans()):
        cells.append(cells[0])  # a duplicate box
    if draw(st.booleans()):
        x, y, z = cells[-1]
        cells.append((x, y, 0 if z == 2 else 2))  # another z range
    shift = np.array(draw(st.tuples(*[st.floats(-500.0, 500.0)] * 3)))
    scale = draw(st.sampled_from([1.0, 0.37, 3.0]))
    bounds = np.array(
        [[LATTICE_SLABS[axis][i] for axis, i in enumerate(c)] for c in cells]
    )  # (n, axis, lo/hi)
    return np.hstack(
        [shift + scale * bounds[:, :, 0], shift + scale * bounds[:, :, 1]]
    )


box_sets = st.one_of(
    st.sampled_from(sorted(GRID_LAYOUTS)).map(_sensitive_boxes),
    st.lists(
        st.tuples(
            st.tuples(*[st.floats(-60.0, 60.0)] * 3),
            st.tuples(*[st.floats(0.5, 40.0)] * 3),
        ),
        min_size=1,
        max_size=12,
    ).map(_random_boxes),
    lattice_boxes(),
)


@st.composite
def ray_batches(draw, boxes):
    """Launch-law, grazing, in-box and upward rays, some degenerate."""
    lo, hi = boxes[:, :3], boxes[:, 3:]
    u_lo, u_hi = lo.min(axis=0), hi.max(axis=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 64))
    kind = draw(
        st.sampled_from(
            ["isotropic", "cosine", "beam:1.0", "grazing", "inside", "upward"]
        )
    )
    margin = 100.0
    x_range = (u_lo[0] - margin, u_hi[0] + margin)
    y_range = (u_lo[1] - margin, u_hi[1] + margin)
    if kind in ("isotropic", "cosine", "beam:1.0"):
        rays = sample_rays(n, rng, x_range, y_range, u_hi[2] + margin, kind)
        origins, directions = rays.origins.copy(), rays.directions.copy()
    elif kind == "grazing":
        # from outside the union, through a point inside it, almost
        # level: the footprint spans the array
        origins = np.column_stack(
            [
                rng.uniform(*x_range, n),
                rng.uniform(*y_range, n),
                rng.uniform(u_lo[2] - 1.0, u_hi[2] + 1.0, n),
            ]
        )
        targets = u_lo + rng.random((n, 3)) * (u_hi - u_lo)
        directions = targets - origins
        directions[:, :2] += (np.abs(directions[:, :2]) < 1e-6) * 1.0
        directions[:, 2] = np.where(
            rng.random(n) < 0.2,
            0.0,
            np.sign(directions[:, 2]) * 10.0 ** rng.uniform(-9, -1, n),
        )
    elif kind == "inside":
        pick = rng.integers(len(boxes), size=n)
        origins = lo[pick] + rng.random((n, 3)) * (hi[pick] - lo[pick])
        directions = sample_directions(n, rng, "isotropic")
        directions[rng.random(n) < 0.5, 2] *= -1.0
    else:  # upward, from below the union
        origins = np.column_stack(
            [
                rng.uniform(*x_range, n),
                rng.uniform(*y_range, n),
                u_lo[2] - rng.uniform(0.0, margin, n),
            ]
        )
        directions = sample_directions(n, rng, "isotropic")
        directions[:, 2] *= -1.0
    # degenerate components on some rays, with origins on box faces
    for row in np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0))):
        keep = int(np.argmax(np.abs(directions[row])))
        for axis in range(3):
            if axis != keep and rng.random() < 0.7:
                directions[row, axis] = rng.choice(TINY_COMPONENTS)
                if rng.random() < 0.5:
                    face = (lo, hi)[int(rng.integers(2))]
                    origins[row, axis] = face[rng.integers(len(boxes)), axis]
    return RayBatch(origins, directions)


def _dense_nonzero(rays, boxes):
    matrix = chord_lengths(rays, boxes)
    ray, box = np.nonzero(matrix > 0.0)
    return ray, box, matrix[ray, box]


def _assert_same_list(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()  # bit for bit, in order


class TestBoxGrid:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), boxes=box_sets)
    def test_sparse_equals_dense_oracle(self, data, boxes):
        rays = data.draw(ray_batches(boxes))
        _assert_same_list(
            BoxGrid(boxes).chords(rays), _dense_nonzero(rays, boxes)
        )

    @pytest.mark.parametrize("name", sorted(GRID_LAYOUTS))
    @pytest.mark.parametrize("law", ["isotropic", "cosine", "beam:1.0"])
    def test_launch_window_campaign_block(self, name, law):
        """A full draw block over the launch window, every array."""
        boxes = _sensitive_boxes(name)
        x_range, y_range, z, _ = GRID_LAYOUTS[name].launch_window(100.0)
        rays = sample_rays(
            4096, np.random.default_rng(11), x_range, y_range, z, law
        )
        sparse = BoxGrid(boxes).chords(rays)
        assert len(sparse[0]) > 0
        _assert_same_list(sparse, _dense_nonzero(rays, boxes))

    def test_non_finite_footprint_covers_the_grid(self):
        """NaN directions inside boxes still find every box they chord."""
        boxes = _sensitive_boxes("9x9")
        centres = 0.5 * (boxes[:5, :3] + boxes[:5, 3:])
        origins = np.vstack([centres, [[np.inf, 10.0, 10.0]]])
        directions = np.full(origins.shape, np.nan)
        directions[-1] = (0.0, 0.0, -1.0)
        rays = RayBatch(origins, directions)
        sparse = BoxGrid(boxes).chords(rays)
        assert sparse[1].tolist() == [0, 1, 2, 3, 4]
        _assert_same_list(sparse, _dense_nonzero(rays, boxes))

    def test_all_misses_give_empty_lists(self):
        boxes = _sensitive_boxes("9x9")
        rays = RayBatch(
            np.array([[-500.0, -500.0, 130.0]]), np.array([[0, 0, -1.0]])
        )
        ray, box, chord = BoxGrid(boxes).chords(rays)
        assert len(ray) == len(box) == len(chord) == 0
        _assert_same_list((ray, box, chord), _dense_nonzero(rays, boxes))

    def test_empty_box_set_rejected(self):
        with pytest.raises(GeometryError):
            BoxGrid(np.zeros((0, 6)))


class TestBoxGridTightness:
    @pytest.mark.parametrize("name", ["9x9", "16x16"])
    def test_narrow_phase_tests_about_one_box_per_chord(self, name):
        """The slab index is tight: few candidates miss on a campaign block."""
        boxes = _sensitive_boxes(name)
        grid = BoxGrid(boxes)
        x_range, y_range, z, _ = GRID_LAYOUTS[name].launch_window(100.0)
        tests = chords = 0
        for law in ("isotropic", "cosine", "beam:1.0"):
            rays = sample_rays(
                4096, np.random.default_rng(11), x_range, y_range, z, law
            )
            tests += len(grid._candidates(rays)[0])
            chords += len(grid.chords(rays)[0])
        assert chords > 0
        assert tests <= 1.1 * chords


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
