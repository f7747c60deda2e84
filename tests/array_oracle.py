"""Reference array-level kernels, kept as test oracles.

The shipped array Monte Carlo runs one vectorized path per job.  The
implementations these paths replaced live on here so tests can hold
the shipped code to them:

* :func:`run_block` -- the per-block kernel behind
  :meth:`~repro.ser.ArraySerSimulator._run_task` (which runs a pool
  task's draw blocks as one strike pass): one draw block sampled,
  struck and combined on its own, through :func:`gather_strikes`,
  :func:`touched_pofs` and :func:`process_batch`;
* :func:`gather_strikes_dense` -- the dense ``(n_rays, n_fins)``
  chord-matrix strike gather behind :func:`gather_strikes` and
  :meth:`~repro.ser.ArraySerSimulator._gather` (which ask a
  :class:`~repro.geometry.BoxGrid` for the sparse chord list);
* :func:`process_batch_dense` -- the dense ``(n_events, n_cells, 3)``
  charge-tensor kernel behind :func:`process_batch` and the shipped
  ``_touched`` / ``_combine`` stages (sparse);
* :func:`event_cell_pofs_dense` -- the pair-offset campaign's own
  recast-and-redraw strike path behind
  :func:`repro.ser.clusters._event_cell_pofs` (which scatters the
  simulator's ``_touched`` rows);
* :func:`accumulate_pairs_loop` -- the per-event nested pair loop
  behind :func:`repro.ser.clusters._pair_streams`;
* :func:`group_codes_loop` -- the per-code rescans behind
  :func:`repro.sram.pof_lut._group_codes`;
* :func:`tiled_layout_loop` -- the cell-by-cell, box-by-box tiling
  behind :meth:`repro.layout.SramArrayLayout._build` (broadcast);
* :func:`sample_pairs_blend_rows` -- the whole-row quantile blend
  behind :meth:`repro.transport.ElectronYieldLUT.sample_pairs_many`
  (which gathers the four entries each query reads, then blends);
* :func:`combine` (eqs. 4-6 on a dense ``(events, cells)`` POF matrix,
  also as :func:`combine_total` / :func:`combine_seu` /
  :func:`combine_mbu`) and :func:`multiplicity_pmf` -- the dense
  combination behind the segmented reductions of
  :meth:`~repro.ser.ArraySerSimulator._combine` and
  :meth:`~repro.ser.ArraySerSimulator._sparse_multiplicity`.
"""

from typing import Tuple

import numpy as np

from repro.constants import ELEMENTARY_CHARGE_C
from repro.errors import ConfigError, LookupError_
from repro.geometry import RayBatch, chord_lengths, stack_boxes
from repro.layout.array import _SENSITIVE_Q0, _SENSITIVE_Q1
from repro.physics import get_particle, sample_rays
from repro.sram.cell import ROLES
from repro.ser.mc import _ONE_MINUS_EPS, ArrayPofResult, _sample_stratum_rays


# -- POF combination across cells (paper eqs. 4-6) -----------------------------
#
# Given per-cell failure probabilities for one particle event,
#
# * ``POF_tot = 1 - prod_i (1 - POF_i)``              (eq. 4)
# * ``POF_SEU = sum_i POF_i * prod_{j != i} (1 - POF_j)``  (eq. 5)
# * ``POF_MBU = POF_tot - POF_SEU``                   (eq. 6)
#
# All functions are vectorized along a leading batch axis (one row per
# Monte Carlo event).


def _validate(pofs) -> np.ndarray:
    pofs = np.atleast_2d(np.asarray(pofs, dtype=np.float64))
    if np.any((pofs < 0.0) | (pofs > 1.0)):
        raise ConfigError("cell POFs must lie in [0, 1]")
    return pofs


def combine_total(pofs) -> np.ndarray:
    """Eq. 4: probability at least one cell fails, per event row."""
    pofs = _validate(pofs)
    return 1.0 - np.prod(1.0 - pofs, axis=-1)


def combine_seu(pofs) -> np.ndarray:
    """Eq. 5: probability exactly one cell fails, per event row."""
    pofs = np.minimum(_validate(pofs), _ONE_MINUS_EPS)
    survive = 1.0 - pofs
    total_survive = np.prod(survive, axis=-1)
    odds = pofs / survive
    return total_survive * np.sum(odds, axis=-1)


def combine_mbu(pofs) -> np.ndarray:
    """Eq. 6: probability two or more cells fail, per event row."""
    return np.maximum(combine_total(pofs) - combine_seu(pofs), 0.0)


def combine(pofs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(total, seu, mbu)`` per event row in one pass."""
    total = combine_total(pofs)
    seu = combine_seu(pofs)
    mbu = np.maximum(total - seu, 0.0)
    return total, seu, mbu


def multiplicity_pmf(pofs, max_k: int = 8) -> np.ndarray:
    """Failure-count distribution per event (Poisson binomial).

    Generalizes eqs. 4-6: ``pmf[:, k]`` is the probability that exactly
    ``k`` cells fail in the event (``k = 0 .. max_k``, with the final
    bin absorbing ``>= max_k`` failures).  The cluster-size view is what
    an ECC architect needs: single-error-correcting codes survive
    ``k = 1`` but not ``k >= 2`` within a word.

    Vectorized dynamic program over the event batch: each cell updates
    ``pmf <- pmf * (1 - p) + shift(pmf) * p``.
    """
    pofs = _validate(pofs)
    if max_k < 1:
        raise ConfigError("need max_k >= 1")
    n_events = pofs.shape[0]
    pmf = np.zeros((n_events, max_k + 1), dtype=np.float64)
    pmf[:, 0] = 1.0
    for j in range(pofs.shape[1]):
        p = pofs[:, j][:, np.newaxis]
        shifted = np.zeros_like(pmf)
        shifted[:, 1:] = pmf[:, :-1]
        # the top bin absorbs overflow (k >= max_k stays in place)
        shifted[:, -1] += pmf[:, -1]
        pmf = pmf * (1.0 - p) + shifted * p
    return pmf


# -- array-MC kernels ----------------------------------------------------------


def run_block(simulator, point, block_size, seed):
    """The per-block kernel, verbatim: one draw block on its own stream.

    Samples the block's spectrum energies and rays, then strikes and
    combines them in a pass of its own (:func:`process_batch`).
    """
    rng = np.random.default_rng(seed)
    x_range, y_range, z, launch_area = simulator._window
    law = point.direction_law or simulator.config.law_for(point.particle_name)
    stratum = point.stratum
    if point.let_kev_per_nm is not None:
        particle, energy = None, point.let_kev_per_nm
    else:
        particle = get_particle(point.particle_name)
        energy = point.energy_mev
        if point.spectrum is not None:
            e_min, e_max = point.e_range
            if stratum is not None and stratum.get("e_range") is not None:
                e_min, e_max = stratum["e_range"]
            energy = point.spectrum.sample_energies(
                block_size, rng, e_min_mev=e_min, e_max_mev=e_max
            )
    if stratum is not None and stratum.get("rects") is not None:
        rays = _sample_stratum_rays(block_size, rng, stratum["rects"], z, law)
    else:
        rays = sample_rays(block_size, rng, x_range, y_range, z, law)
    totals, seus, mbus, hits, strikes, pmf = process_batch(
        simulator, particle, energy, point.vdd_v, rays, rng
    )
    return ArrayPofResult(
        particle_name=point.particle_name,
        energy_mev=point.energy_mev,
        vdd_v=point.vdd_v,
        n_particles=block_size,
        n_array_hits=hits,
        n_fin_strikes=strikes,
        pof_total=totals / block_size,
        pof_seu=seus / block_size,
        pof_mbu=mbus / block_size,
        launch_area_cm2=launch_area,
        multiplicity_pmf=pmf / block_size,
        weight=(1.0 if stratum is None else float(stratum["weight"])),
        stratum=(None if stratum is None else stratum["name"]),
    )


def gather_strikes(simulator, particle, energy_mev, rays, rng):
    """The per-block sparse strike gather, verbatim.

    Returns ``(n_hits, n_strikes, n_events, strikes)`` where
    ``strikes`` is ``(event_idx, cell_of, strike_of, charges)`` or
    ``None`` when the batch produced no fin strikes.
    """
    array_hits = chord_lengths(rays, simulator._bbox_packed)[:, 0] > 0.0
    n_hits = int(np.sum(array_hits))
    if n_hits == 0:
        return 0, 0, 0, None

    hit_rays = RayBatch(
        rays.origins.compress(array_hits, axis=0),
        rays.directions.compress(array_hits, axis=0),
    )
    per_ray_energy = np.broadcast_to(
        np.asarray(energy_mev, dtype=np.float64), (len(rays),)
    )[array_hits]
    ray_idx, fin_idx, chord_vals = simulator._fin_grid.chords(hit_rays)
    if len(fin_idx) == 0:
        return n_hits, 0, 0, None

    struck, event_idx = np.unique(ray_idx, return_inverse=True)
    strike_energies = per_ray_energy[ray_idx]

    pairs = simulator._pairs_for_strikes(
        particle, strike_energies, chord_vals, rng
    )
    charges = pairs * ELEMENTARY_CHARGE_C
    strikes = (
        event_idx,
        simulator._sens_cell[fin_idx],
        simulator._sens_strike[fin_idx],
        charges,
    )
    return n_hits, len(fin_idx), len(struck), strikes


def touched_pofs(simulator, particle, energy_mev, vdd_v, rays, rng):
    """The per-block (event, cell) fold and POF query, verbatim.

    Returns ``(n_hits, n_strikes, n_events, touched)`` where
    ``touched`` is ``(event_of, cell_of, pof)`` or ``None``.
    """
    n_hits, n_strikes, n_events, strikes = gather_strikes(
        simulator, particle, energy_mev, rays, rng
    )
    if strikes is None:
        return n_hits, n_strikes, n_events, None
    ray_idx, cell_of, strike_of, charges = strikes

    n_cells = simulator.layout.n_cells
    key = ray_idx.astype(np.int64) * n_cells + cell_of
    unique_keys, inverse = np.unique(key, return_inverse=True)
    cell_charges = np.zeros((len(unique_keys), 3), dtype=np.float64)
    np.add.at(cell_charges, (inverse, strike_of), charges)

    touched = np.any(cell_charges > 0.0, axis=1)
    if not np.any(touched):
        return n_hits, n_strikes, n_events, None
    pof = simulator.pof_table.query(
        vdd_v, cell_charges.compress(touched, axis=0)
    )
    keys = unique_keys[touched]
    rows = (keys // n_cells, keys % n_cells, pof)
    return n_hits, n_strikes, n_events, rows


def process_batch(simulator, particle, energy_mev, vdd_v, rays, rng):
    """The per-block segmented eqs. 4-6 and multiplicity PMF, verbatim.

    Returns ``(total, seu, mbu, n_hits, n_strikes, pmf)``: the block's
    summed probabilities and summed PMF (k=0 bin zeroed).
    """
    n_hits, n_strikes, _, touched = touched_pofs(
        simulator, particle, energy_mev, vdd_v, rays, rng
    )
    empty_pmf = np.zeros(simulator.config.max_multiplicity + 1)
    if touched is None:
        return 0.0, 0.0, 0.0, n_hits, n_strikes, empty_pmf
    event_of, _, pof = touched

    starts = np.flatnonzero(np.r_[True, event_of[1:] != event_of[:-1]])
    total = 1.0 - np.multiply.reduceat(1.0 - pof, starts)
    clipped = np.minimum(pof, _ONE_MINUS_EPS)
    survive = 1.0 - clipped
    seu = np.multiply.reduceat(survive, starts) * np.add.reduceat(
        clipped / survive, starts
    )
    mbu = np.maximum(total - seu, 0.0)

    pmf = sparse_multiplicity(
        pof, starts, simulator.config.max_multiplicity
    )
    pmf[0] = 0.0
    return (
        float(np.sum(total)),
        float(np.sum(seu)),
        float(np.sum(mbu)),
        n_hits,
        n_strikes,
        pmf,
    )


def sparse_multiplicity(pof, starts, max_k):
    """The per-block rank-by-rank PMF, verbatim: summed over groups."""
    n_groups = len(starts)
    sizes = np.diff(np.append(starts, len(pof)))
    group_of = np.repeat(np.arange(n_groups), sizes)
    rank = np.arange(len(pof)) - starts[group_of]

    pmf = np.zeros((n_groups, max_k + 1), dtype=np.float64)
    pmf[:, 0] = 1.0
    for r in range(int(sizes.max())):
        selected = rank == r
        rows = group_of[selected]
        p = pof[selected][:, np.newaxis]
        block = pmf[rows]
        shifted = np.zeros_like(block)
        shifted[:, 1:] = block[:, :-1]
        shifted[:, -1] += block[:, -1]
        pmf[rows] = block * (1.0 - p) + shifted * p
    return pmf.sum(axis=0)


def gather_strikes_dense(simulator, particle, energy_mev, rays, rng):
    """Reference strike gather through the dense chord matrix.

    Same return tuple as :func:`gather_strikes`; slab-tests every
    array-crossing ray against every sensitive fin.
    """
    # Cheap prefilter: only tracks crossing the array bounding box
    # can strike a fin; run the expensive per-fin test on those.
    array_hits = chord_lengths(rays, simulator._bbox_packed)[:, 0] > 0.0
    n_hits = int(np.sum(array_hits))
    if n_hits == 0:
        return 0, 0, 0, None

    hit_rays = RayBatch(
        rays.origins[array_hits], rays.directions[array_hits]
    )
    per_ray_energy = np.broadcast_to(
        np.asarray(energy_mev, dtype=np.float64), (len(rays),)
    )[array_hits]
    chords = chord_lengths(hit_rays, simulator._sensitive_boxes)

    event_rows = np.nonzero(np.any(chords > 0.0, axis=1))[0]
    if len(event_rows) == 0:
        return n_hits, 0, 0, None

    sub_chords = chords[event_rows]
    ray_idx, fin_idx = np.nonzero(sub_chords > 0.0)
    chord_vals = sub_chords[ray_idx, fin_idx]
    strike_energies = per_ray_energy[event_rows][ray_idx]

    pairs = simulator._pairs_for_strikes(
        particle, strike_energies, chord_vals, rng
    )
    charges = pairs * ELEMENTARY_CHARGE_C
    strikes = (
        ray_idx,
        simulator._sens_cell[fin_idx],
        simulator._sens_strike[fin_idx],
        charges,
    )
    return n_hits, len(fin_idx), len(event_rows), strikes


def process_batch_dense(simulator, particle, energy_mev, vdd_v, rays, rng):
    """Reference kernel materializing the dense charge tensor.

    Same strikes as the sparse kernels (it starts from
    :func:`gather_strikes`), same return tuple as :func:`process_batch`;
    allocates ``(n_events, n_cells, 3)`` per batch, which the sparse
    kernels exist to avoid.
    """
    n_hits, n_strikes, n_events, strikes = gather_strikes(
        simulator, particle, energy_mev, rays, rng
    )
    if strikes is None:
        empty_pmf = np.zeros(simulator.config.max_multiplicity + 1)
        return 0.0, 0.0, 0.0, n_hits, n_strikes, empty_pmf
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


def event_cell_pofs_dense(simulator, particle, energy_mev, vdd_v, rays, rng):
    """Reference per-event per-cell POF matrix of a ray batch (or None).

    Casts chords on every ray (no array bounding-box prefilter), draws
    the pairs itself and builds the dense ``(n_events, n_cells, 3)``
    charge tensor.
    """
    ray_idx, fin_idx, chord_vals = simulator._fin_grid.chords(rays)
    if len(fin_idx) == 0:
        return None
    struck, event_idx = np.unique(ray_idx, return_inverse=True)

    strike_energies = np.full_like(chord_vals, energy_mev)
    pairs = simulator._pairs_for_strikes(
        particle, strike_energies, chord_vals, rng
    )
    charges = pairs * ELEMENTARY_CHARGE_C

    n_events = len(struck)
    cell_of = simulator._sens_cell[fin_idx]
    strike_of = simulator._sens_strike[fin_idx]
    charge_tensor = np.zeros(
        (n_events, simulator.layout.n_cells, 3), dtype=np.float64
    )
    np.add.at(charge_tensor, (event_idx, cell_of, strike_of), charges)

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


def tiled_layout_loop(layout):
    """The pre-broadcast array tiling, verbatim.

    Returns ``(packed_boxes, fin_cell, fin_role, fin_strike)`` of
    ``layout``'s geometry, built one cell and one :class:`Aabb` at a
    time.
    """
    boxes = []
    fin_cell = []
    fin_role = []
    fin_strike = []
    for row in range(layout.n_rows):
        for col in range(layout.n_cols):
            cell_index = row * layout.n_cols + col
            mirror_x = col % 2 == 1
            mirror_y = row % 2 == 1
            origin = np.array(
                [col * layout.cell.width_nm, row * layout.cell.height_nm, 0.0]
            )
            stored_one = layout.stored_bit(row, col) == 1
            sensitivity = _SENSITIVE_Q1 if stored_one else _SENSITIVE_Q0
            for role in ROLES:
                nfin = (layout.nfins or {}).get(role, 1)
                for box in layout.cell.fin_boxes(
                    role, nfin, mirror_x, mirror_y
                ):
                    boxes.append(box.translated(origin))
                    fin_cell.append(cell_index)
                    fin_role.append(ROLES.index(role))
                    fin_strike.append(sensitivity.get(role, -1))
    return (
        stack_boxes(boxes),
        np.array(fin_cell, dtype=np.int64),
        np.array(fin_role, dtype=np.int64),
        np.array(fin_strike, dtype=np.int64),
    )


def sample_pairs_blend_rows(lut, energies_mev, rng):
    """The pre-gather LUT sampler, verbatim.

    Blends both bracketing quantile rows of every query into an
    ``(n, n_quantiles)`` matrix, then reads two entries of each row.
    Empty-row snapping matches the shipped sampler, except that no
    warning is logged.
    """
    energies = np.atleast_1d(np.asarray(energies_mev, dtype=np.float64))
    if np.any(energies <= 0):
        raise LookupError_("LUT energy query must be positive")
    grid = lut.energies_mev
    clipped = np.clip(energies, grid[0], grid[-1])
    hi = np.clip(np.searchsorted(grid, clipped), 1, len(grid) - 1)
    lo = hi - 1
    weight = (np.log(clipped) - np.log(grid[lo])) / (
        np.log(grid[hi]) - np.log(grid[lo])
    )
    populated = lut.hit_fraction > 0.0
    bad = ~(populated[lo] & populated[hi])
    if np.any(bad):
        candidates = np.flatnonzero(populated)
        if len(candidates) == 0:
            raise LookupError_("LUT has no populated energy rows")
        snap = np.where(populated[lo], lo, hi)
        both_empty = bad & ~populated[lo] & ~populated[hi]
        if np.any(both_empty):
            position = lo[both_empty] + weight[both_empty]
            snap[both_empty] = candidates[
                np.argmin(
                    np.abs(
                        candidates[np.newaxis, :] - position[:, np.newaxis]
                    ),
                    axis=1,
                )
            ]
        lo = np.where(bad, snap, lo)
        hi = np.where(bad, snap, hi)
        weight = np.where(bad, 0.0, weight)
    rows = (
        (1.0 - weight)[:, np.newaxis] * lut.quantiles[lo]
        + weight[:, np.newaxis] * lut.quantiles[hi]
    )
    u = rng.uniform(0.0, 1.0, size=len(energies))
    positions = u * (rows.shape[1] - 1)
    lower = np.floor(positions).astype(int)
    upper = np.minimum(lower + 1, rows.shape[1] - 1)
    frac = positions - lower
    idx = np.arange(len(energies))
    return rows[idx, lower] * (1.0 - frac) + rows[idx, upper] * frac
