"""Exception types shared across the simulator, and its finiteness check.

The CLI exits with code 3 for InfeasiblePlanError and with code 2 for
every other FdmSimError and for an OSError.
"""

import math


class FdmSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FdmSimError):
    """Invalid chip description, parameter out of range, or mismatched metadata."""


class InfeasiblePlanError(FdmSimError):
    """Requested channel plan cannot fit the available bandwidth."""


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


def _check_count(name: str, value) -> int:
    """int(value) of an integral count >= 1 (4.0 gives 4); ConfigError otherwise, and for a bool."""
    if isinstance(value, bool) or not (value >= 1 and float(value).is_integer()):
        raise ConfigError(f"need an integral {name} >= 1, got {value}")
    return int(value)
