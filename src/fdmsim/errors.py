"""Exception types shared across the simulator, and its finiteness check.

The CLI maps ConfigError to exit code 2 and InfeasiblePlanError to exit
code 3; everything else is a plain failure.
"""

import math


class FdmSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FdmSimError):
    """Invalid chip description, parameter out of range, or mismatched metadata."""


class InfeasiblePlanError(FdmSimError):
    """Requested channel plan cannot fit the available bandwidth."""


class NyquistError(FdmSimError):
    """A requested tone lies outside the representable baseband."""


class LoMismatchError(FdmSimError):
    """Receive local oscillator differs from the transmit carrier (homodyne only)."""


class UnknownDeviceError(FdmSimError):
    """Device id not present on the chip or in the plan."""


class TraceFormatError(FdmSimError):
    """Binary trace file is corrupt or has an unsupported version."""


def _check_finite(**values: float) -> None:
    """ConfigError naming the first of the given values that is NaN or
    infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
