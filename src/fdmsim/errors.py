"""Exception types shared across the simulator, and its number rules.

The CLI exits with code 3 for InfeasiblePlanError and with code 2 for
every other FdmSimError and for an OSError.

Every module checks its numbers with the rules here: _check_finite, and
_check_positive or _check_non_negative for a finite number > 0 or >= 0,
and _check_count for an integral count >= 1.  Each raises ConfigError
naming the first value that breaks its rule.  The last three refuse a
bool or numpy bool (_BOOLS): True would pass as 1, and numpy's bool
refuses arithmetic such as negation.
"""

import math

import numpy as np


_BOOLS = (bool, np.bool_)


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


def _check_finite(**values) -> None:
    """ConfigError naming the first of the given scalars or arrays that
    holds NaN or inf; math.isfinite checks a scalar, at a scalar's cost."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite")
        elif not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def _check_positive(**values: float) -> None:
    """ConfigError naming the first of the given scalars not finite and > 0."""
    for name, value in values.items():
        if isinstance(value, _BOOLS) or not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value}")


def _check_non_negative(**values: float) -> None:
    """ConfigError naming the first of the given scalars not finite and >= 0."""
    for name, value in values.items():
        if isinstance(value, _BOOLS) or not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def _check_count(name: str, value) -> int:
    """int(value) of an integral count >= 1 (4.0 gives 4); ConfigError otherwise."""
    if isinstance(value, _BOOLS) or not (value >= 1 and float(value).is_integer()):
        raise ConfigError(f"need an integral {name} >= 1, got {value}")
    return int(value)
