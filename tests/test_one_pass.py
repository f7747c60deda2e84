"""One strike pass per pool task, held to the per-block oracle.

``ArraySerSimulator._run_task`` runs a pool task's draw blocks through
the strike stages together.  Every block's result must equal, bit for
bit (``to_dict()``), the per-block kernel kept as
``tests/array_oracle.py::run_block``, whichever blocks share its task:
the groupings below put 1, 2, 3, 7 and all blocks to a task.  The
blocks mix mono-energetic, spectrum, stratum-rect and LET points,
supply voltages on, between and beyond the POF table's, and blocks
that miss the array or cross it without a fin strike.

Also covered: the task layout of ``BatchPlan.run_blocks``, whole blocks
filled to ``TASK_PARTICLES`` (the layout its journal key still names
``blocks-filled-to-chunk-size``).
"""

import numpy as np
import pytest

from repro.layout import SramArrayLayout
from repro.physics import (
    ALPHA,
    PROTON,
    AlphaEmissionSpectrum,
    SeaLevelProtonSpectrum,
)
from repro.ser import ArrayMcConfig, ArraySerSimulator, CampaignPoint
from repro.ser.fusion import _fill_tasks
from repro.ser.mc import DRAW_BLOCK_SIZE
from repro.sram import PofTable
from repro.sram.strike import ALL_COMBOS
from repro.transport import ElectronYieldLUT

from .array_oracle import run_block

GROUPINGS = (1, 2, 3, 7, None)  # None: every block in one task


@pytest.fixture(scope="module")
def pof_table():
    """Tiny hand-built POF table at 0.7 and 0.9 V."""
    vdds = (0.7, 0.9)
    n_q = 5
    base = np.linspace(0.0, 1.0, n_q)
    pof = {}
    for combo in ALL_COMBOS:
        grids = []
        for i_vdd in range(len(vdds)):
            grid = base * (1.0 - 0.2 * i_vdd)
            for _ in range(len(combo) - 1):
                grid = np.add.outer(grid, base * (1.0 - 0.2 * i_vdd)) / 2.0
            grids.append(grid)
        pof[combo] = np.stack(grids, axis=0)
    return PofTable(
        vdd_list=vdds,
        charge_axis_c=np.logspace(-16, -14, n_q),
        pof=pof,
        process_variation=False,
        n_samples=1,
    )


@pytest.fixture(scope="module")
def yield_luts():
    rng = np.random.default_rng(3)
    return {
        "alpha": ElectronYieldLUT.build(ALPHA, np.logspace(-1, 1, 4), 2000, rng),
        "proton": ElectronYieldLUT.build(
            PROTON, np.logspace(0, 2, 4), 2000, rng
        ),
    }


def _fin_free_spot(layout):
    """An (x, y) inside the array at least 2 nm from every sensitive fin."""
    sensitive = layout.packed_boxes[layout.fin_strike >= 0]
    for x in np.linspace(1.0, layout.width_nm - 1.0, 97):
        for y in np.linspace(1.0, layout.height_nm - 1.0, 97):
            clear = (
                (x < sensitive[:, 0] - 2.0)
                | (x > sensitive[:, 3] + 2.0)
                | (y < sensitive[:, 1] - 2.0)
                | (y > sensitive[:, 4] + 2.0)
            )
            if np.all(clear):
                return float(x), float(y)
    raise AssertionError("no fin-free spot on the array")


def _units(layout):
    """The ``(point, size, seed)`` blocks of every kind, in task order."""
    seeds = iter(np.random.SeedSequence(2014).spawn(64))

    def blocks(point, *sizes):
        return [(point, size, next(seeds)) for size in sizes]

    def point(particle, energy, vdd, **fields):
        # shipped to a task as BatchPlan ships it: without its blocks
        return CampaignPoint(particle, energy, vdd, (), **fields)

    width, height = layout.width_nm, layout.height_nm
    x, y = _fin_free_spot(layout)
    core = [[0.25 * width, 0.75 * width, 0.25 * height, 0.75 * height]]
    units = []
    # mono-energetic, on and between the table's Vdds
    units += blocks(point("alpha", 5.0, 0.7), DRAW_BLOCK_SIZE, 904)
    units += blocks(point("proton", 20.0, 0.8), 1500, 7)
    # spectra, beyond the table's Vdds on both sides
    units += blocks(
        point(
            "alpha",
            2.0,
            1.0,
            spectrum=AlphaEmissionSpectrum(),
            e_range=(0.5, 8.0),
        ),
        3000,
    )
    units += blocks(
        point(
            "proton",
            10.0,
            0.6,
            spectrum=SeaLevelProtonSpectrum(),
            e_range=(1.0, 100.0),
        ),
        2000,
    )
    # position and energy strata
    units += blocks(
        point(
            "alpha",
            2.0,
            0.9,
            stratum={"name": "core", "weight": 0.25, "rects": core},
        ),
        2500,
        1,
    )
    units += blocks(
        point(
            "alpha",
            2.0,
            0.75,
            spectrum=AlphaEmissionSpectrum(),
            e_range=(0.5, 8.0),
            stratum={"name": "band-1", "weight": 0.5, "e_range": (1.0, 3.0)},
        ),
        1200,
    )
    # LET beams
    units += blocks(
        point(
            "heavy-ion",
            0.5,
            0.9,
            let_kev_per_nm=0.5,
            direction_law="beam:1.0",
        ),
        2000,
    )
    units += blocks(
        point("heavy-ion", 0.1, 0.7, let_kev_per_nm=0.1), 800
    )
    # a vertical beam beside the array: no track crosses it
    units += blocks(
        point(
            "alpha",
            5.0,
            0.7,
            direction_law="beam:1.0",
            stratum={
                "name": "outside",
                "weight": 1.0,
                "rects": [[-90.0, -10.0, 0.0, height]],
            },
        ),
        300,
    )
    # a vertical beam between fins: every track crosses, none strikes
    units += blocks(
        point(
            "alpha",
            5.0,
            0.8,
            direction_law="beam:1.0",
            stratum={
                "name": "gap",
                "weight": 1.0,
                "rects": [[x - 0.5, x + 0.5, y - 0.5, y + 0.5]],
            },
        ),
        200,
    )
    units += blocks(point("alpha", 1.0, 0.7), 3)
    return units


@pytest.mark.parametrize("mode", ["lut", "direct"])
@pytest.mark.parametrize(
    "array", [(9, 9), (16, 16)], ids=["9x9", "16x16"]
)
def test_every_grouping_matches_per_block_oracle(
    pof_table, yield_luts, mode, array
):
    layout = SramArrayLayout(n_rows=array[0], n_cols=array[1])
    simulator = ArraySerSimulator(
        layout,
        pof_table,
        yield_luts=yield_luts,
        config=ArrayMcConfig(deposition_mode=mode),
    )
    units = _units(layout)
    oracle = [run_block(simulator, *unit).to_dict() for unit in units]

    by_stratum = {entry["stratum"]: entry for entry in oracle}
    assert by_stratum["outside"]["n_array_hits"] == 0
    gap = by_stratum["gap"]
    assert gap["n_array_hits"] == 200 and gap["n_fin_strikes"] == 0
    assert sum(entry["pof_total"] > 0 for entry in oracle) >= 7

    for grouping in GROUPINGS:
        size = grouping or len(units)
        got = []
        for start in range(0, len(units), size):
            got += simulator._run_task(units[start : start + size])
        assert [result.to_dict() for result in got] == oracle, grouping


class TestTaskLayout:
    @staticmethod
    def _layout(sizes):
        units = [(None, size, None) for size in sizes]
        return [[size for _, size, _ in task] for task in _fill_tasks(units)]

    def test_small_blocks_fill_to_chunk_size(self):
        """serbench's 4000-, 2000- and 1000-particle blocks: 3, 5, 9."""
        assert self._layout([4000] * 7) == [[4000] * 3, [4000] * 3, [4000]]
        assert self._layout([2000] * 11) == [[2000] * 5, [2000] * 5, [2000]]
        assert self._layout([1000] * 9) == [[1000] * 9]

    def test_full_blocks_keep_their_layout(self):
        """A one-point plan chunks as it always has."""
        full = DRAW_BLOCK_SIZE
        assert self._layout([full] * 5 + [808]) == [
            [full, full],
            [full, full],
            [full, 808],
        ]
