"""The numpy POF lookup kernel, with scipy's interpolator as the oracle.

``repro.sram.pof_lut`` answers every POF lookup with a private numpy
multilinear kernel (``_cell`` and ``_blend``) that repeats the
arithmetic of scipy's linear ``RegularGridInterpolator`` term for
term.  scipy stays a test dependency: the interpolator, built on a
writeable float64 grid, is the oracle here, and every comparison is
exact (``view(np.int64)``, so even a signed zero counts).

The module also pins what the kernel fixed and what it removed: a
table read back from shared memory (read-only grids) answers exactly
like its writeable original, so pair POFs no longer depend on the
worker count; and neither the CLI, the daemon nor their workers
import scipy.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from repro import FlowConfig, SerFlow
from repro.errors import ConfigError
from repro.parallel import get_lease, get_pack, pack_payload
from repro.parallel.shm import ENV_DISABLE, load_packed, release_packed
from repro.sram import ALL_COMBOS, CharacterizationConfig, PofTable
from repro.sram.characterize import _enforce_monotone, _resample_to_axis
from repro.sram.pof_lut import _blend, _cell, _group_codes

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Axis lengths of the shipped grids: the decimated triple (6) and pair
#: (9) axes, the default shared axis (21) and a fine one (48) whose
#: two-Vdd pair stack is large enough for a shared-memory segment.
AXIS_LENGTHS = (6, 9, 21, 48)


def assert_bits_equal(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    mismatched = np.flatnonzero(
        actual.view(np.int64) != expected.view(np.int64)
    )
    assert mismatched.size == 0, (
        f"{mismatched.size} of {actual.size} values differ, first at "
        f"{mismatched[0]}: {actual.flat[mismatched[0]]!r} != "
        f"{expected.flat[mismatched[0]]!r}"
    )


def rgi(grid, log_axis, points):
    """The oracle: scipy's linear interpolator on a writeable grid."""
    values = np.array(grid, dtype=np.float64)  # a writeable copy
    return RegularGridInterpolator(
        (log_axis,) * values.ndim,
        values,
        method="linear",
        bounds_error=False,
        fill_value=None,
    )(points)


def rgi_query(table, vdd_v, charges):
    """``PofTable.query`` as it was built on the interpolator."""
    charges = np.atleast_2d(np.asarray(charges, dtype=np.float64))
    active = (charges > 0.0).astype(np.int64)
    codes = active[:, 0] + 2 * active[:, 1] + 4 * active[:, 2]
    lo, hi, weight = table._vdd_bracket(vdd_v)
    axis = table.charge_axis_c
    result = np.zeros(len(charges))
    for code, rows in _group_codes(codes):
        if code == 0:
            continue
        combo = tuple(i for i in range(3) if code & (1 << i))
        points = np.log(
            np.clip(charges[rows][:, list(combo)], axis[0], axis[-1])
        )
        pof_lo, pof_hi = (
            rgi(table.pof[combo][index], np.log(axis), points)
            for index in (lo, hi)
        )
        result[rows] = (
            pof_lo if hi == lo else (1.0 - weight) * pof_lo + weight * pof_hi
        )
    return np.clip(result, 0.0, 1.0)


def pof_like(rng, shape):
    """Random grid values with POF-like runs of exact zeros and ones."""
    draw = rng.random(shape)
    values = np.where(draw > 0.7, 1.0, rng.random(shape))
    return np.where(draw < 0.3, 0.0, values)


def random_table(rng, n_q, vdd_list):
    return PofTable(
        vdd_list=vdd_list,
        charge_axis_c=np.logspace(-17.0, -15.0, n_q),
        pof={
            combo: pof_like(rng, (len(vdd_list),) + (n_q,) * len(combo))
            for combo in ALL_COMBOS
        },
    )


def mixed_charges(rng, n, axis):
    """Mixed-combo charge rows: zeros, grid nodes, in-between values
    and values beyond both ends of the axis (which clamp)."""
    span = np.log(axis[-1] / axis[0])
    inside = np.exp(rng.uniform(np.log(axis[0]), np.log(axis[-1]), (n, 3)))
    outside = axis[0] * np.exp(rng.uniform(-0.5, 1.5, (n, 3)) * span)
    nodes = axis[rng.integers(0, len(axis), (n, 3))]
    kind = rng.integers(0, 4, (n, 3))
    return np.choose(kind, [np.zeros((n, 3)), nodes, inside, outside])


class TestKernelOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        rank=st.integers(1, 3),
        n=st.sampled_from(AXIS_LENGTHS),
        seed=st.integers(0, 2**32 - 1),
        log_spaced=st.booleans(),
        signed=st.booleans(),
    )
    def test_matches_rgi_bit_for_bit(self, rank, n, seed, log_spaced, signed):
        """Every node, both endpoints, in-between and out-of-range
        points (the interpolator extrapolates) on a random grid.

        ``signed`` flips random signs, zeros included: only a grid with
        ``-0.0`` or negative values shows that the corner sum starts
        from ``0.0``.
        """
        rng = np.random.default_rng(seed)
        if log_spaced:
            low = rng.uniform(-19.0, -16.0)
            axis = np.log(np.logspace(low, low + rng.uniform(0.5, 3.0), n))
        else:
            axis = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.uniform(-5, 5)
        grid = pof_like(rng, (n,) * rank)
        if signed:
            grid *= rng.choice((-1.0, 1.0), grid.shape)
        span = axis[-1] - axis[0]
        coords = np.concatenate(
            [
                axis,
                axis[0] - span * rng.uniform(1e-3, 0.5, 2),
                axis[-1] + span * rng.uniform(1e-3, 0.5, 2),
                rng.uniform(axis[0], axis[-1], 8),
            ]
        )
        nodes = np.stack(
            [m.ravel() for m in np.meshgrid(*([axis] * rank), indexing="ij")],
            axis=-1,
        )
        mixed = coords[rng.integers(0, len(coords), (2000, rank))]
        points = np.concatenate([nodes, mixed])

        cells, fracs = _cell(axis, points.T)
        (blend,) = _blend(grid.reshape(-1), n, cells, fracs)
        assert_bits_equal(blend, rgi(grid, axis, points))

    @settings(max_examples=25, deadline=None)
    @given(
        n_q=st.sampled_from(AXIS_LENGTHS),
        n_vdd=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_query_matches_rgi_query(self, n_q, n_vdd, seed):
        """Mixed-combo batches at tabulated, in-between and
        out-of-range supply voltages."""
        rng = np.random.default_rng(seed)
        vdd_list = tuple(np.round(0.7 + 0.1 * np.arange(n_vdd), 2))
        table = random_table(rng, n_q, vdd_list)
        charges = mixed_charges(rng, 500, table.charge_axis_c)
        vdds = (
            vdd_list
            + (vdd_list[0] - 0.05, vdd_list[-1] + 0.05)
            + tuple(rng.uniform(vdd_list[0], vdd_list[-1], 2))
        )
        for vdd in vdds:
            assert_bits_equal(
                table.query(vdd, charges), rgi_query(table, vdd, charges)
            )

    @pytest.mark.parametrize(
        "combo", [(0, 1), (0, 1, 2)], ids=["pair", "triple"]
    )
    def test_resample_matches_rgi(self, combo):
        """The decimated 9x9 pair and 6x6x6 triple grids onto the
        default 21-point shared axis."""
        config = CharacterizationConfig()
        shared = config.charge_axis_c()
        axis = config.axis_for_combo(combo)
        assert len(axis) == {2: 9, 3: 6}[len(combo)] < len(shared)
        rng = np.random.default_rng(len(combo))
        grid = _enforce_monotone(pof_like(rng, (len(axis),) * len(combo)))

        mesh = np.meshgrid(*([np.log(shared)] * len(combo)), indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        expected = np.clip(
            rgi(grid, np.log(axis), points).reshape(mesh[0].shape), 0.0, 1.0
        )
        assert_bits_equal(_resample_to_axis(grid, axis, shared), expected)

    def test_one_point_axis_rejected(self):
        """The kernel blends within a cell, so a table needs two nodes."""
        with pytest.raises(ConfigError):
            PofTable(
                vdd_list=(0.7,),
                charge_axis_c=(1e-16,),
                pof={(0,): np.zeros((1, 1))},
            )


class TestWorkerCountInvariance:
    """Read-only grids used to take the interpolator's other sum order."""

    def test_shared_memory_table_answers_like_the_original(
        self, monkeypatch
    ):
        monkeypatch.delenv(ENV_DISABLE, raising=False)
        if not get_pack().available():
            pytest.skip("no shared memory on this host")
        rng = np.random.default_rng(11)
        table = random_table(rng, 48, (0.7, 0.8))
        packed = pack_payload(table)
        try:
            loaded = load_packed(packed)
            # the pair stack (2 x 48 x 48 float64 = 36,864 B) really
            # came back as a read-only view of a shared segment
            assert not loaded.pof[(0, 1)].flags.writeable
            charges = mixed_charges(rng, 50_000, table.charge_axis_c)
            assert_bits_equal(
                loaded.query(0.7, charges), table.query(0.7, charges)
            )
        finally:
            release_packed(packed)

    def test_pair_pofs_do_not_depend_on_worker_count(self):
        config = FlowConfig(
            particles=("alpha",),
            vdd_list=(0.7, 0.8),
            yield_energy_points=5,
            yield_trials_per_energy=500,
            characterization=CharacterizationConfig(
                vdd_list=(0.7, 0.8), n_charge_points=48, n_samples=16
            ),
            n_energy_bins=4,
            mc_particles_per_bin=20000,
            seed=3,
        )
        try:
            inline = SerFlow(config, n_jobs=1).fit("alpha", 0.7)
            pooled = SerFlow(config, n_jobs=2).fit("alpha", 0.7)
        finally:
            get_lease().shutdown_all()
            get_pack().release_all()
        assert (pooled.fit_total, pooled.fit_seu, pooled.fit_mbu) == (
            inline.fit_total,
            inline.fit_seu,
            inline.fit_mbu,
        )


class TestImportGuard:
    def test_cli_daemon_and_workers_never_import_scipy(self, tmp_path):
        """A finder that refuses scipy, inherited by the forked workers
        of a pooled characterization and array Monte Carlo."""
        script = tmp_path / "no_scipy.py"
        script.write_text(
            textwrap.dedent(
                """
                import runpy, sys

                class RefuseScipy:
                    def find_spec(self, name, path=None, target=None):
                        if name.split(".")[0] == "scipy":
                            raise ImportError(f"scipy imported: {name}")
                        return None

                sys.meta_path.insert(0, RefuseScipy())
                import repro.cli
                import repro.service
                runpy.run_module("repro", run_name="__main__")
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env.pop(ENV_DISABLE, None)
        proc = subprocess.run(
            [
                sys.executable,
                str(script),
                "sweep",
                "--particles", "alpha",
                "--vdd-list", "0.7,0.9",
                "--samples", "8",
                "--yield-trials", "200",
                "--yield-points", "3",
                "--mc-particles", "2000",
                "--seed", "3",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--log-level", "debug",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert "SER (norm)" in proc.stdout, proc.stdout
        # both stages really ran on the pool, not inline
        for label in ("characterize", "array_mc"):
            assert f"parallel map label={label}" in proc.stderr, label
