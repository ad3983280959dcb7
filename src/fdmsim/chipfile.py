"""Chip description files.

A chip file is INI-style UTF-8 text parsed with :mod:`configparser`,
without interpolation (a '%' in a value is a plain character):

    [chip]
    name = chip7

    [defaults]            ; optional, applies to every device
    kappa_over_2pi_hz = 10.0e6

    [device 1]            ; one section per device, id in the header
    resonator_frequency_hz = 9.30e9
    ...

Recognized device keys (all floats):

    resonator_frequency_hz          bare notch center, Hz
    kappa_over_2pi_hz               total linewidth / 2pi, Hz
    kappa_ext_over_2pi_hz           feedline coupling / 2pi, Hz (<= kappa)
    coupling_g_hz                   qubit-resonator coupling, Hz
    qubit_gap_hz                    minimum qubit splitting, Hz
    flux_sensitivity_hz_per_phi0    energy-bias slope, Hz per flux quantum
    symmetry_flux_phi0              symmetry-point offset, flux quanta
    relaxation_rate_over_2pi_hz     qubit energy relaxation / 2pi, Hz

Linewidths and rates are stored as cycles-per-second values in the file
and converted to angular units on load.  Unknown keys are rejected so
typos fail loudly rather than silently falling back to defaults.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from importlib import resources
from pathlib import Path

from .device import Chip, DeviceRecord, QubitParams, ResonatorParams
from .errors import ConfigError
from .traceio import _read_utf8

_DEVICE_KEYS = {
    "resonator_frequency_hz",
    "kappa_over_2pi_hz",
    "kappa_ext_over_2pi_hz",
    "coupling_g_hz",
    "qubit_gap_hz",
    "flux_sensitivity_hz_per_phi0",
    "symmetry_flux_phi0",
    "relaxation_rate_over_2pi_hz",
}

_DEVICE_SECTION = re.compile(r"^device\s+(\d+)$")


def builtin_chip_path(name: str = "chip7") -> Path:
    """Path of a chip file shipped inside the package."""
    return Path(resources.files("fdmsim.data") / f"{name}.cfg")


def config_hash(path: str | Path) -> str:
    """sha256 hex digest of the chip file bytes, recorded in every output."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _get_float(section: dict[str, str], key: str, context: str) -> float:
    if key not in section:
        raise ConfigError(f"{context}: missing required key {key!r}")
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{context}: key {key!r} is not a number: {section[key]!r}") from exc


def load_chip(path: str | Path) -> Chip:
    """Parse a chip description file into a Chip.

    Raises ConfigError for missing files, a byte that is not UTF-8,
    malformed syntax, unknown keys, missing values, or parameter values
    that violate device invariants.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"chip file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_file(_read_utf8(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse chip file {path}: {exc}") from exc

    name = parser.get("chip", "name", fallback=path.stem)
    defaults: dict[str, str] = dict(parser["defaults"]) if parser.has_section("defaults") else {}
    for key in defaults:
        if key not in _DEVICE_KEYS:
            raise ConfigError(f"{path} [defaults]: unknown key {key!r}")

    devices = []
    for section_name in parser.sections():
        if section_name in ("chip", "defaults"):
            continue
        m = _DEVICE_SECTION.match(section_name)
        if not m:
            raise ConfigError(f"{path}: unexpected section [{section_name}]")
        device_id = int(m.group(1))
        section = {**defaults, **parser[section_name]}
        for key in section:
            if key not in _DEVICE_KEYS:
                raise ConfigError(f"{path} [{section_name}]: unknown key {key!r}")
        context = f"{path} [{section_name}]"
        two_pi = 2 * math.pi
        try:
            resonator = ResonatorParams(
                bare_frequency=_get_float(section, "resonator_frequency_hz", context),
                total_linewidth_kappa=two_pi * _get_float(section, "kappa_over_2pi_hz", context),
                external_linewidth=two_pi * _get_float(section, "kappa_ext_over_2pi_hz", context),
                coupling_g=two_pi * _get_float(section, "coupling_g_hz", context),
            )
            qubit = QubitParams(
                gap_delta=_get_float(section, "qubit_gap_hz", context),
                flux_sensitivity=_get_float(section, "flux_sensitivity_hz_per_phi0", context),
                symmetry_flux=_get_float(section, "symmetry_flux_phi0", context),
                relaxation_rate_gamma=two_pi
                * _get_float(section, "relaxation_rate_over_2pi_hz", context),
            )
        except ConfigError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
        devices.append(DeviceRecord(device_id=device_id, qubit=qubit, resonator=resonator))

    if not devices:
        raise ConfigError(f"{path}: no [device N] sections found")
    devices.sort(key=lambda d: d.device_id)
    try:
        return Chip(name=name, devices=tuple(devices))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
