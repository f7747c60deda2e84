"""A compact SPICE-substitute: netlists, MNA, DC and transient analysis."""

from .dc import DcSolution, solve_dc
from .elements import (
    GROUND,
    Capacitor,
    CurrentSource,
    FinFET,
    Resistor,
    VoltageSource,
)
from .mna import MnaSystem
from .netlist import Circuit, CompiledCircuit
from .transient import (
    TransientResult,
    make_strike_time_grid,
    make_time_grid,
    run_transient,
)
from .waveform import (
    Dc,
    DoubleExponential,
    Pwl,
    RectPulse,
    TriangularPulse,
    Waveform,
    pulse_from_charge,
)

__all__ = [
    "Circuit",
    "CompiledCircuit",
    "MnaSystem",
    "solve_dc",
    "DcSolution",
    "run_transient",
    "TransientResult",
    "make_time_grid",
    "make_strike_time_grid",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "FinFET",
    "GROUND",
    "Waveform",
    "Dc",
    "RectPulse",
    "TriangularPulse",
    "DoubleExponential",
    "Pwl",
    "pulse_from_charge",
]
