"""A small nonlinear transient circuit simulator.

This subpackage stands in for the Cadence Spectre runs of the paper.  It
implements nodal analysis over grounded voltage sources with backward-Euler
integration and damped Newton iteration, which is sufficient for the
TD-AM circuits: inverter chains, precharge/discharge dynamics of the match
node, and the variable-capacitance delay stages.

- :mod:`~repro.spice.netlist` -- circuit container and node bookkeeping.
- :mod:`~repro.spice.elements` -- R, C, grounded sources (PWL / pulse),
  MOSFET and FeFET elements with local Jacobian contributions.
- :mod:`~repro.spice.transient` -- the solver.
- :mod:`~repro.spice.waveform` -- waveform containers and delay/crossing
  measurements.
- :mod:`~repro.spice.montecarlo` -- seeded Monte Carlo harness.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Circuit": "netlist",
    "Resistor": "elements",
    "Capacitor": "elements",
    "CurrentSource": "elements",
    "VoltageSource": "elements",
    "MOSFETElement": "elements",
    "FeFETElement": "elements",
    "PWLWaveform": "elements",
    "PulseWaveform": "elements",
    "StepWaveform": "elements",
    "TransientResult": "transient",
    "simulate": "transient",
    "Waveform": "waveform",
    "MonteCarloResult": "montecarlo",
    "run_monte_carlo": "montecarlo",
    "trial_generators": "montecarlo",
    "solve_dc": "dc",
    "sweep_dc": "dc",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
