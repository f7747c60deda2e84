"""The 6T SOI FinFET SRAM cell (paper Fig. 5(a)).

Node/state convention used throughout the library: storage node ``q``
holds '1' (at Vdd) and ``qb`` holds '0'; word line low (hold state);
both bit lines precharged to Vdd.  Under this bias exactly three
transistors are OFF with |Vds| = Vdd and therefore sensitive to strikes
(the paper's red-bold devices):

==========  =========================  ====================================
Strike      Device (role)              Effect of collected charge
==========  =========================  ====================================
``I1``      left pull-down  (pd_l)     pulls ``q``  ('1') down toward 0
``I2``      right pull-up   (pu_r)     pulls ``qb`` ('0') up toward Vdd
``I3``      right pass-gate (pg_r)     pulls ``qb`` ('0') up (from BLB)
==========  =========================  ====================================

All three reinforce the same flip direction, matching the paper's
treatment of arbitrary combinations of I1/I2/I3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuit import Circuit, Waveform
from ..devices import TechnologyCard, default_tech
from ..errors import ConfigError

#: Fixed role order; Vth-shift vectors follow this order everywhere.
ROLES = ("pu_l", "pd_l", "pg_l", "pu_r", "pd_r", "pg_r")

#: Roles sensitive in the canonical hold state, in strike-index order
#: (I1, I2, I3).
SENSITIVE_ROLES = ("pd_l", "pu_r", "pg_r")

#: Map strike index (0=I1, 1=I2, 2=I3) to the storage node it perturbs
#: and the perturbation sign (+1 pushes the node up, -1 down).
STRIKE_TARGETS = (("q", -1), ("qb", +1), ("qb", +1))


@dataclass(frozen=True)
class SramCellDesign:
    """A 6T cell: technology card plus per-role fin counts.

    The default single-fin-per-device cell matches the high-density 6T
    bitcell of the paper's 14 nm reference [28].
    """

    tech: TechnologyCard = field(default_factory=default_tech)
    nfin_pu: int = 1
    nfin_pd: int = 1
    nfin_pg: int = 1

    def __post_init__(self):
        if min(self.nfin_pu, self.nfin_pd, self.nfin_pg) < 1:
            raise ConfigError("fin counts must be >= 1")

    # -- role metadata ------------------------------------------------------

    def nfin_of(self, role: str) -> int:
        """Fin count of a device role."""
        if role.startswith("pu"):
            return self.nfin_pu
        if role.startswith("pd"):
            return self.nfin_pd
        if role.startswith("pg"):
            return self.nfin_pg
        raise ConfigError(f"unknown role {role!r}")

    def nfins(self) -> list:
        """Fin counts in :data:`ROLES` order (for variation sampling)."""
        return [self.nfin_of(role) for role in ROLES]

    def model_of(self, role: str):
        """Compact model of a device role."""
        return self.tech.pmos if role.startswith("pu") else self.tech.nmos

    def role_index(self, role: str) -> int:
        """Index of a role in the canonical order."""
        try:
            return ROLES.index(role)
        except ValueError:
            raise ConfigError(f"unknown role {role!r}") from None

    # -- netlist construction -------------------------------------------------

    def build_circuit(
        self,
        vdd_v: float,
        vth_shifts_v: Optional[Sequence[float]] = None,
        strike_waveforms: Optional[Dict[int, Waveform]] = None,
    ) -> Circuit:
        """Build the hold-state cell netlist for the MNA engine.

        Parameters
        ----------
        vdd_v:
            Supply voltage.
        vth_shifts_v:
            Six per-role threshold shifts in :data:`ROLES` order
            (default all-zero).
        strike_waveforms:
            Map of strike index (0=I1, 1=I2, 2=I3) to a current
            :class:`~repro.circuit.Waveform`; each is wired with the
            correct polarity per :data:`STRIKE_TARGETS`.

        Returns
        -------
        Circuit
            Nodes: ``vdd q qb bl blb wl`` (+ ground).  Storage nodes
            carry the lumped ``tech.node_cap_f`` capacitance.
        """
        if vdd_v <= 0:
            raise ConfigError("Vdd must be positive")
        shifts = (
            np.zeros(len(ROLES))
            if vth_shifts_v is None
            else np.asarray(vth_shifts_v, dtype=np.float64)
        )
        if shifts.shape != (len(ROLES),):
            raise ConfigError(f"need {len(ROLES)} Vth shifts in ROLES order")

        cell = Circuit("sram6t")
        cell.add_vsource("vvdd", "vdd", "0", vdd_v)
        cell.add_vsource("vwl", "wl", "0", 0.0)
        cell.add_vsource("vbl", "bl", "0", vdd_v)
        cell.add_vsource("vblb", "blb", "0", vdd_v)

        def shift(role):
            return float(shifts[self.role_index(role)])

        cell.add_finfet("pu_l", "q", "qb", "vdd", self.tech.pmos, self.nfin_pu, shift("pu_l"))
        cell.add_finfet("pd_l", "q", "qb", "0", self.tech.nmos, self.nfin_pd, shift("pd_l"))
        cell.add_finfet("pg_l", "bl", "wl", "q", self.tech.nmos, self.nfin_pg, shift("pg_l"))
        cell.add_finfet("pu_r", "qb", "q", "vdd", self.tech.pmos, self.nfin_pu, shift("pu_r"))
        cell.add_finfet("pd_r", "qb", "q", "0", self.tech.nmos, self.nfin_pd, shift("pd_r"))
        cell.add_finfet("pg_r", "blb", "wl", "qb", self.tech.nmos, self.nfin_pg, shift("pg_r"))

        cell.add_capacitor("cq", "q", "0", self.tech.node_cap_f)
        cell.add_capacitor("cqb", "qb", "0", self.tech.node_cap_f)

        if strike_waveforms:
            for strike_index, waveform in strike_waveforms.items():
                node, sign = STRIKE_TARGETS[strike_index]
                name = f"istrike{strike_index + 1}"
                if sign < 0:
                    # charge collected by an NMOS drain: current q -> gnd
                    cell.add_isource(name, node, "0", waveform)
                else:
                    # charge pushed into the node from the rail / bitline
                    source = "vdd" if strike_index == 1 else "blb"
                    cell.add_isource(name, source, node, waveform)
        return cell

    def hold_state_guess(self, vdd_v: float) -> Dict[str, float]:
        """Nodeset steering DC toward the canonical q=1 state."""
        return {"vdd": vdd_v, "q": vdd_v, "qb": 0.0, "bl": vdd_v, "blb": vdd_v, "wl": 0.0}
