"""Spatial structure of multi-cell upsets.

The MBU *rate* (paper Fig. 10) says how often two or more cells fail
together; protecting a memory additionally needs the failing cells'
*relative positions* -- bit interleaving only defeats an MBU whose
members land in the same logical word.  This module extracts the
expected count of jointly-failing cell pairs by (|delta_row|,
|delta_col|) offset from an array Monte Carlo campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..layout import SramArrayLayout
from ..physics import ParticleType, sample_rays
from .mc import ArraySerSimulator


@dataclass
class PairOffsetStatistics:
    """Expected jointly-failing pair counts by relative offset.

    Attributes
    ----------
    expected_pairs:
        Map ``(|d_row|, |d_col|)`` -> expected number of unordered
        failing pairs with that offset, per launched particle.
    n_particles:
        Campaign size the expectation is normalized by.
    """

    expected_pairs: Dict[Tuple[int, int], float] = field(default_factory=dict)
    n_particles: int = 0

    @property
    def total_pair_rate(self) -> float:
        """Expected failing pairs per launched particle (any offset)."""
        return float(sum(self.expected_pairs.values()))

    def same_row_rate(self) -> float:
        """Pairs with d_row = 0 (the word-interleaving-relevant ones)."""
        return float(
            sum(v for (dr, _), v in self.expected_pairs.items() if dr == 0)
        )

    def same_column_rate(self) -> float:
        """Pairs with d_col = 0."""
        return float(
            sum(v for (_, dc), v in self.expected_pairs.items() if dc == 0)
        )

    def max_column_extent(self) -> int:
        """Largest |d_col| with appreciable pair mass (>= 1% of total)."""
        total = self.total_pair_rate
        if total <= 0:
            return 0
        return max(
            (dc for (_, dc), v in self.expected_pairs.items() if v >= 0.01 * total),
            default=0,
        )


def collect_pair_offsets(
    simulator: ArraySerSimulator,
    particle: ParticleType,
    energy_mev: float,
    vdd_v: float,
    n_particles: int,
    rng: np.random.Generator,
) -> PairOffsetStatistics:
    """Run a campaign and accumulate failing-pair offset expectations.

    For each MC event with per-cell failure probabilities ``p_i``, every
    unordered cell pair contributes ``p_i * p_j`` expected joint
    failures (independence across cells given the deposit, as in the
    paper's eqs. 4-6).
    """
    if n_particles < 1:
        raise ConfigError("need at least one particle")
    layout = simulator.layout
    n_cols = layout.n_cols

    x_range, y_range, z, _ = layout.launch_window(simulator.config.margin_nm)
    law = simulator.config.law_for(particle.name)

    code_parts = []
    value_parts = []
    remaining = n_particles
    while remaining > 0:
        batch = min(remaining, simulator.config.chunk_size)
        remaining -= batch
        rays = sample_rays(batch, rng, x_range, y_range, z, law)
        pof_cells = _event_cell_pofs(simulator, particle, energy_mev, vdd_v, rays, rng)
        if pof_cells is None:
            continue
        stream = _pair_streams(pof_cells, n_cols)
        if stream is not None:
            code_parts.append(stream[0])
            value_parts.append(stream[1])

    if not code_parts:
        return PairOffsetStatistics({}, n_particles)
    # one unbuffered scatter-add over the concatenated streams: adds
    # land per key in encounter order, so every offset's accumulated
    # float is bit-identical to the historical dict loop's
    codes = np.concatenate(code_parts)
    values = np.concatenate(value_parts)
    unique_codes, first_pos, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    acc = np.zeros(len(unique_codes), dtype=np.float64)
    np.add.at(acc, inverse, values)
    normalized = {
        (int(unique_codes[i] // n_cols), int(unique_codes[i] % n_cols)): float(
            acc[i]
        )
        / n_particles
        for i in np.argsort(first_pos, kind="stable")
    }
    return PairOffsetStatistics(normalized, n_particles)


def _pair_streams(pof_cells, n_cols: int):
    """Offset codes and joint probabilities of one batch's failing pairs.

    Returns ``(codes, values)`` where ``codes[i] = |d_row| * n_cols +
    |d_col|`` and ``values[i] = p_a * p_b`` for the ``i``-th unordered
    pair, or ``None`` when the batch has no multi-cell event.  Pairs
    come out in the exact order of the historical per-event nested
    loop -- events ascending, then ``a``-major / ``b``-ascending
    within each event (``np.nonzero`` is row-major, so its flat
    element order *is* that order) -- which is what keeps the
    vectorized accumulation bit-identical (see
    ``tests/test_fusion.py``).
    """
    event_idx, cell_idx = np.nonzero(pof_cells)
    n_el = len(event_idx)
    if n_el == 0:
        return None
    # segmented a<b pair expansion over the per-event runs
    seg_starts = np.flatnonzero(np.r_[True, event_idx[1:] != event_idx[:-1]])
    sizes = np.diff(np.append(seg_starts, n_el))
    seg_of = np.repeat(np.arange(len(seg_starts)), sizes)
    local = np.arange(n_el) - seg_starts[seg_of]
    partners = sizes[seg_of] - 1 - local
    n_pairs = int(partners.sum())
    if n_pairs == 0:
        return None
    a_idx = np.repeat(np.arange(n_el), partners)
    run_starts = np.cumsum(partners) - partners
    b_idx = a_idx + 1 + (np.arange(n_pairs) - np.repeat(run_starts, partners))

    probs = pof_cells[event_idx, cell_idx]
    rows = cell_idx // n_cols
    cols = cell_idx % n_cols
    d_row = np.abs(rows[a_idx] - rows[b_idx])
    d_col = np.abs(cols[a_idx] - cols[b_idx])
    return d_row * n_cols + d_col, probs[a_idx] * probs[b_idx]


def _accumulate_pairs_loop(pof_cells, n_cols: int, offsets) -> None:
    """The pre-vectorization per-event pair loop, verbatim.

    Kept as the reference implementation for the bit-identity
    regression test of :func:`_pair_streams`; not used on any hot
    path.
    """
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


def _event_cell_pofs(simulator, particle, energy_mev, vdd_v, rays, rng):
    """Per-event per-cell POF matrix for a ray batch (or None).

    Mirrors :meth:`ArraySerSimulator._process_batch` up to the POF
    matrix; kept separate so the hot main path stays lean.
    """
    from ..constants import ELEMENTARY_CHARGE_C
    from ..geometry import chord_lengths

    chords = chord_lengths(rays, simulator._sensitive_boxes)
    event_rows = np.nonzero(np.any(chords > 0.0, axis=1))[0]
    if len(event_rows) == 0:
        return None
    sub = chords[event_rows] > 0.0
    ray_idx, fin_idx = np.nonzero(sub)
    chord_vals = chords[event_rows][ray_idx, fin_idx]

    strike_energies = np.full_like(chord_vals, energy_mev)
    pairs = simulator._pairs_for_strikes(
        particle, strike_energies, chord_vals, rng
    )
    charges = pairs * ELEMENTARY_CHARGE_C

    n_events = len(event_rows)
    cell_of = simulator._sens_cell[fin_idx]
    strike_of = simulator._sens_strike[fin_idx]
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
        pof_cells[ev_i, cell_i] = simulator.pof_table.query(
            vdd_v, charge_tensor[ev_i, cell_i, :]
        )
    return pof_cells
