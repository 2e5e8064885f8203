"""Behavioral device models: multi-domain FeFET, MOSFET, variation.

This subpackage replaces the proprietary substrate of the paper (Cadence
Spectre, the UMC 40 nm PDK, and the experimentally calibrated Preisach
FeFET compact model of Ni et al., VLSI'18) with behavioral equivalents:

- :class:`~repro.devices.preisach.PreisachModel` -- an ensemble of
  elementary hysterons with a distributed coercive-voltage spectrum, giving
  the FeFET its partial-polarization (multi-level) behaviour.
- :class:`~repro.devices.fefet.FeFET` -- a polarization-dependent threshold
  voltage on top of a square-law transistor, with write/erase pulses.
- :class:`~repro.devices.mosfet.MOSFET` -- 40 nm-class behavioral NMOS and
  PMOS models (square-law saturation/triode + subthreshold exponential).
- :mod:`~repro.devices.variation` -- device-to-device V_TH variation with
  the per-state sigmas the paper extracted from measured data
  (7.1 / 35 / 45 / 40 mV for V_TH0..V_TH3).
- :mod:`~repro.devices.write` -- write-pulse schemes programming the four
  V_TH states (erase-then-partial-program, after Reis et al. [36]).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FeFET": "fefet",
    "FeFETParams": "fefet",
    "MOSFET": "mosfet",
    "MOSFETParams": "mosfet",
    "nmos": "mosfet",
    "pmos": "mosfet",
    "TechnologyParams": "params",
    "UMC40_LIKE": "params",
    "Hysteron": "preisach",
    "PreisachModel": "preisach",
    "MEASURED_VTH_SIGMA_MV": "variation",
    "DeviceEnsemble": "variation",
    "VariationModel": "variation",
    "WritePulse": "write",
    "WriteScheme": "write",
    "RetentionModel": "nonideal",
    "EnduranceModel": "nonideal",
    "DisturbModel": "nonideal",
    "aged_match_margin": "nonideal",
    "compensated_vsl_levels": "nonideal",
    "retention_limited_lifetime_s": "nonideal",
    "technology_at": "temperature",
    "delay_temperature_sensitivity": "temperature",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
