"""Runtime benchmark (paper Section 6 runtime note).

The paper quotes ~2 hours for 10 million array-MC iterations on a 9x9
array.  This bench measures our vectorized kernel's throughput and
extrapolates the 10 M cost, plus the scaling of the per-batch cost with
array size (the slab test is O(n_rays x n_sensitive_fins)).
"""

import numpy as np
import pytest

from repro import get_particle
from repro.layout import CellLayout, SramArrayLayout
from repro.ser import ArrayMcConfig, ArraySerSimulator


@pytest.fixture(scope="module")
def alpha():
    return get_particle("alpha")


def test_array_mc_throughput(flow, alpha, benchmark):
    simulator = flow.simulator()
    rng = np.random.default_rng(0)
    n = 20000

    result = benchmark(simulator.run, alpha, 2.0, 0.7, n, rng)
    assert result.n_particles == n

    if benchmark.stats is None:  # --benchmark-disable: ran once, untimed
        return
    per_particle = benchmark.stats["mean"] / n
    ten_million_minutes = per_particle * 1.0e7 / 60.0
    print(
        f"\nRuntime note: {1.0 / per_particle:,.0f} particles/s -> "
        f"10M iterations in ~{ten_million_minutes:.1f} min "
        "(paper: ~2 h on their stack)"
    )


@pytest.mark.parametrize("size", [3, 9, 18])
def test_array_mc_scaling_with_array_size(flow, alpha, size, benchmark):
    layout = SramArrayLayout(
        size,
        size,
        CellLayout(
            fin=flow.design.tech.fin,
            collection_length_nm=flow.design.tech.collection_length_nm,
        ),
    )
    simulator = ArraySerSimulator(
        layout, flow.pof_table(), flow.yield_luts(), ArrayMcConfig()
    )
    rng = np.random.default_rng(1)
    result = benchmark(simulator.run, alpha, 2.0, 0.7, 10000, rng)
    assert result.n_particles == 10000


def test_characterization_cost(benchmark):
    """One Vdd's seven POF grids -- the cell-level kernel."""
    from repro.sram import (
        CharacterizationConfig,
        SramCellDesign,
        characterize_cell,
    )

    design = SramCellDesign()
    config = CharacterizationConfig(
        vdd_list=(0.8,),
        n_charge_points=15,
        n_samples=60,
        max_pair_points=5,
        max_triple_points=4,
    )
    table = benchmark.pedantic(
        characterize_cell, args=(design, config), rounds=1, iterations=1
    )
    assert len(table.pof) == 7
