"""Reference array-level kernels, kept as test oracles.

The shipped array Monte Carlo runs one vectorized path per job.  The
implementations these paths replaced live on here so tests can hold
the shipped code to them:

* :func:`process_batch_dense` -- the dense ``(n_events, n_cells, 3)``
  charge-tensor kernel behind
  :meth:`~repro.ser.ArraySerSimulator._process_batch` (sparse);
* :func:`accumulate_pairs_loop` -- the per-event nested pair loop
  behind :func:`repro.ser.clusters._pair_streams`;
* :func:`group_codes_loop` -- the per-code rescans behind
  :func:`repro.sram.pof_lut._group_codes`.
"""

import numpy as np

from repro.ser.pof import combine, multiplicity_pmf


def process_batch_dense(simulator, particle, energy_mev, vdd_v, rays, rng):
    """Reference kernel materializing the dense charge tensor.

    Same strikes as the shipped kernel (both start from
    ``simulator._gather_strikes``), same return tuple; allocates
    ``(n_events, n_cells, 3)`` per batch, which the sparse
    ``_process_batch`` exists to avoid.
    """
    n_hits, n_strikes, n_events, strikes = simulator._gather_strikes(
        particle, energy_mev, rays, rng
    )
    if strikes is None:
        return 0.0, 0.0, 0.0, n_hits, n_strikes, simulator._empty_pmf.copy()
    ray_idx, cell_of, strike_of, charges = strikes

    charge_tensor = np.zeros(
        (n_events, simulator.layout.n_cells, 3), dtype=np.float64
    )
    np.add.at(charge_tensor, (ray_idx, cell_of, strike_of), charges)

    cell_mask = np.any(charge_tensor > 0.0, axis=2)
    ev_i, cell_i = np.nonzero(cell_mask)
    pof_cells = np.zeros(
        (n_events, simulator.layout.n_cells), dtype=np.float64
    )
    if len(ev_i):
        pof_values = simulator.pof_table.query(
            vdd_v, charge_tensor[ev_i, cell_i, :]
        )
        pof_cells[ev_i, cell_i] = pof_values

    total, seu, mbu = combine(pof_cells)
    pmf = multiplicity_pmf(
        pof_cells, max_k=simulator.config.max_multiplicity
    ).sum(axis=0)
    pmf[0] = 0.0
    return (
        float(np.sum(total)),
        float(np.sum(seu)),
        float(np.sum(mbu)),
        n_hits,
        n_strikes,
        pmf,
    )


def accumulate_pairs_loop(pof_cells, n_cols: int, offsets) -> None:
    """The pre-vectorization per-event pair loop, verbatim."""
    event_idx, cell_idx = np.nonzero(pof_cells)
    for event in np.unique(event_idx):
        cells = cell_idx[event_idx == event]
        if len(cells) < 2:
            continue
        probs = pof_cells[event, cells]
        rows, cols = cells // n_cols, cells % n_cols
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                key = (
                    int(abs(rows[a] - rows[b])),
                    int(abs(cols[a] - cols[b])),
                )
                offsets[key] = offsets.get(key, 0.0) + float(
                    probs[a] * probs[b]
                )


def group_codes_loop(codes: np.ndarray):
    """The pre-vectorization grouping, verbatim."""
    return [
        (int(code), np.nonzero(codes == code)[0]) for code in np.unique(codes)
    ]
