"""Probability-Of-Failure look-up tables (paper Section 4).

A :class:`PofTable` stores, for every supply voltage and every
combination of the I1/I2/I3 strike currents, the cell flip probability
on a log-spaced charge grid: 1-D for single strikes, 2-D for pairs,
3-D for the triple.  Queries interpolate multilinearly in log-charge
and linearly in Vdd; charges outside the grid clamp to the edges
(the grid is built wide enough that the edges are POF ~ 0 and ~ 1).
The multilinear kernel (:func:`_cell`, :func:`_blend`) is plain numpy
that repeats the linear ``RegularGridInterpolator``'s arithmetic term
for term, so tables and FITs are bit-identical to the interpolator's.

With process variation disabled the stored values are the paper's
"deterministic binary" POFs; with it enabled they are MC probabilities
in [0, 1].
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigError, LookupError_
from .strike import ALL_COMBOS, combo_label


def _group_codes(codes: np.ndarray):
    """Rows of each distinct code, codes ascending, rows ascending.

    One stable argsort replaces the historical per-code
    ``np.nonzero(codes == code)`` rescans (O(n log n) instead of
    O(k n)); stability keeps each group's rows in original order, so
    the grouping -- and every downstream gather/scatter -- is
    identical to the loop it replaced (kept as the regression oracle
    ``group_codes_loop`` in ``tests/array_oracle.py``).
    """
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    if len(sorted_codes) == 0:
        return []
    bounds = np.append(
        np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]),
        len(sorted_codes),
    )
    return [
        (int(sorted_codes[start]), order[start:end])
        for start, end in zip(bounds[:-1], bounds[1:])
    ]


def _cell(axis: np.ndarray, x: np.ndarray):
    """Grid cell of each ``x`` on ``axis`` and its upper node's weight.

    As ``RegularGridInterpolator``'s ``find_indices``: ``i`` is the
    interval with ``axis[i] <= x < axis[i + 1]``, the last node
    closing the last cell, and points beyond either end take the end
    cell (the blend then extrapolates linearly); the weight is
    ``(x - axis[i]) / (axis[i + 1] - axis[i])``.
    """
    i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2)
    return i, (x - axis[i]) / (axis[i + 1] - axis[i])


def _blend(flat: np.ndarray, n_q: int, cells, fracs, slices=(0,)):
    """Multilinear blends on a raveled grid with ``n_q`` nodes per axis.

    ``cells`` and ``fracs`` hold each of the ``d`` interpolated axes'
    cells and upper-node weights (:func:`_cell`), which address the
    trailing ``d`` axes of ``flat``; ``slices`` picks the leading-axis
    slices to read the same cells from (a POF stack's Vdd rows).
    Returns one blend per slice.

    The arithmetic is ``RegularGridInterpolator(method="linear")``'s
    term for term, so each blend equals it bit for bit (the tests keep
    the interpolator as the oracle): corners are summed from ``0.0`` in
    ``itertools.product`` order, lower node first and the last axis
    fastest; a rank-2 term is ``(v * w0) * w1``, as the interpolator's
    Cython ``evaluate_linear_2d`` on a writeable grid, and any other
    rank multiplies the weights first, ``v * ((w0 * w1) * w2)``, as its
    ``_evaluate_linear``.
    """
    ndim = len(cells)
    strides = [n_q ** (ndim - 1 - k) for k in range(ndim)]
    bases = [
        sum(cell * step for cell, step in zip(cells, strides))
        + n_q**ndim * index
        for index in slices
    ]
    lower = [1.0 - y for y in fracs]
    totals = [0.0] * len(bases)
    for corner in itertools.product((0, 1), repeat=ndim):
        weights = [y if up else w for y, w, up in zip(fracs, lower, corner)]
        if ndim != 2:
            weights = [functools.reduce(operator.mul, weights)]
        shift = sum(step for step, up in zip(strides, corner) if up)
        for j, base in enumerate(bases):
            term = flat.take(base + shift)
            for weight in weights:
                term = term * weight
            totals[j] = totals[j] + term
    return totals


@dataclass
class PofTable:
    """POF over (Vdd, strike combination, charge grid).

    Attributes
    ----------
    vdd_list:
        Sorted supply voltages [V], shape ``(n_vdd,)``.
    charge_axis_c:
        Shared log-spaced charge axis [C], shape ``(n_q,)``.
    pof:
        Map combo -> array of shape ``(n_vdd,) + (n_q,) * len(combo)``.
    process_variation:
        Whether the table was built with variation MC.
    n_samples:
        Variation samples per grid point (1 when nominal).
    """

    vdd_list: np.ndarray
    charge_axis_c: np.ndarray
    pof: Dict[Tuple[int, ...], np.ndarray]
    process_variation: bool = True
    n_samples: int = 0

    def __post_init__(self):
        self.vdd_list = np.asarray(self.vdd_list, dtype=np.float64)
        self.charge_axis_c = np.asarray(self.charge_axis_c, dtype=np.float64)
        if np.any(np.diff(self.vdd_list) <= 0):
            raise ConfigError("vdd_list must be strictly increasing")
        if (
            len(self.charge_axis_c) < 2
            or np.any(np.diff(self.charge_axis_c) <= 0)
            or np.any(self.charge_axis_c <= 0)
        ):
            raise ConfigError(
                "charge axis must have >= 2 positive, increasing points"
            )
        n_q = len(self.charge_axis_c)
        for combo, grid in self.pof.items():
            expected = (len(self.vdd_list),) + (n_q,) * len(combo)
            if grid.shape != expected:
                raise ConfigError(
                    f"POF grid for {combo_label(combo)} has shape "
                    f"{grid.shape}, expected {expected}"
                )

    # -- queries -----------------------------------------------------------

    def query(self, vdd_v: float, charges_c) -> np.ndarray:
        """POF for a batch of charge triples at one supply voltage.

        Parameters
        ----------
        vdd_v:
            Supply voltage; clamped to the tabulated range, linear
            interpolation between tabulated values.
        charges_c:
            ``(n, 3)`` charges [C] for (I1, I2, I3); rows with all
            zeros return POF 0.

        Returns
        -------
        numpy.ndarray
            POF in [0, 1], shape ``(n,)``.
        """
        charges = np.atleast_2d(np.asarray(charges_c, dtype=np.float64))
        if charges.shape[1] != 3:
            raise ConfigError("charges must have shape (n, 3)")
        if np.any(charges < 0):
            raise ConfigError("charges cannot be negative")

        result = np.zeros(charges.shape[0], dtype=np.float64)
        active = charges > 0.0
        # group rows by combination key via a bitmask code (vectorized;
        # int8 codes let the stable argsort use its radix sort)
        bits = active.view(np.int8)
        codes = bits[:, 0] + 2 * bits[:, 1] + 4 * bits[:, 2]
        lo_idx, hi_idx, weight = self._vdd_bracket(vdd_v)
        # the cell and weight of every struck charge on the log-charge
        # axis, once per call; each combo then gathers its corners
        axis = self.charge_axis_c
        struck = np.flatnonzero(active)
        log_q = np.log(np.clip(charges.take(struck), axis[0], axis[-1]))
        cell, frac = _cell(np.log(axis), log_q)
        cells = np.zeros(charges.shape, dtype=np.intp)
        fracs = np.zeros(charges.shape)
        np.put(cells, struck, cell)
        np.put(fracs, struck, frac)
        for code, rows in _group_codes(codes):
            if code == 0:
                continue
            combo = tuple(i for i in range(3) if code & (1 << i))
            if combo not in self.pof:
                raise LookupError_(
                    f"table has no grid for combination {combo_label(combo)}"
                )
            pofs = _blend(
                self.pof[combo].reshape(-1),
                len(axis),
                [cells[rows, i] for i in combo],
                [fracs[rows, i] for i in combo],
                slices=(lo_idx,) if hi_idx == lo_idx else (lo_idx, hi_idx),
            )
            if hi_idx == lo_idx:
                result[rows] = pofs[0]
            else:
                result[rows] = (1.0 - weight) * pofs[0] + weight * pofs[1]
        return np.clip(result, 0.0, 1.0)

    def query_scenario(self, vdd_v: float, scenario) -> float:
        """POF of a single :class:`~repro.sram.strike.StrikeScenario`."""
        return float(self.query(vdd_v, scenario.charges[np.newaxis, :])[0])

    def _vdd_bracket(self, vdd_v: float):
        vdds = self.vdd_list
        if vdd_v <= vdds[0]:
            return 0, 0, 0.0
        if vdd_v >= vdds[-1]:
            last = len(vdds) - 1
            return last, last, 0.0
        hi = int(np.searchsorted(vdds, vdd_v))
        lo = hi - 1
        weight = (vdd_v - vdds[lo]) / (vdds[hi] - vdds[lo])
        return lo, hi, float(weight)

    # -- inspection -----------------------------------------------------------

    def single_strike_curve(self, vdd_v: float, strike_index: int):
        """``(charge_axis, POF)`` for one single-strike combination."""
        combo = (int(strike_index),)
        charges = np.zeros((len(self.charge_axis_c), 3))
        charges[:, strike_index] = self.charge_axis_c
        return self.charge_axis_c.copy(), self.query(vdd_v, charges)

    def critical_charge_c(
        self, vdd_v: float, strike_index: int = 0, level: float = 0.5
    ) -> float:
        """Charge where the single-strike POF crosses ``level``."""
        axis, pof = self.single_strike_curve(vdd_v, strike_index)
        above = np.nonzero(pof >= level)[0]
        if len(above) == 0:
            raise LookupError_(
                f"POF never reaches {level} on the tabulated charge range"
            )
        i = int(above[0])
        if i == 0:
            return float(axis[0])
        # log-linear inverse interpolation between the bracketing points
        q0, q1 = axis[i - 1], axis[i]
        p0, p1 = pof[i - 1], pof[i]
        if p1 == p0:
            return float(q1)
        t = (level - p0) / (p1 - p0)
        return float(np.exp(np.log(q0) + t * (np.log(q1) - np.log(q0))))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-python payload for :mod:`repro.io.lutio`."""
        return {
            "kind": "pof_table",
            "vdd_list": self.vdd_list.tolist(),
            "charge_axis_c": self.charge_axis_c.tolist(),
            "process_variation": self.process_variation,
            "n_samples": self.n_samples,
            "pof": {
                ",".join(map(str, combo)): grid.tolist()
                for combo, grid in self.pof.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PofTable":
        """Inverse of :meth:`to_dict`."""
        if payload.get("kind") != "pof_table":
            raise ConfigError("payload is not a POF table")
        pof = {
            tuple(int(x) for x in key.split(",")): np.array(grid)
            for key, grid in payload["pof"].items()
        }
        return cls(
            vdd_list=np.array(payload["vdd_list"]),
            charge_axis_c=np.array(payload["charge_axis_c"]),
            pof=pof,
            process_variation=bool(payload["process_variation"]),
            n_samples=int(payload["n_samples"]),
        )
