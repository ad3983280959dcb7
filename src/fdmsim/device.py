"""Qubit-loaded notch resonators on a shared feedline.

Units convention used throughout the package: plain frequencies
(resonator centers, qubit gaps, couplings) are in Hz; linewidths, decay
rates and dispersive shifts are angular (rad/s).  Functions state which
they take.  Flux is in units of the flux quantum.

The flux qubit is modeled by its two-level spectrum

    f_q(flux) = sqrt(gap_delta**2 + eps**2),
    eps = flux_sensitivity * (flux - symmetry_flux)

and each resonator by a notch-type transmission dip

    S21(w) = 1 - (kappa_ext/2) / (i*(w - w_r - shift) + kappa/2)

whose center is pulled by the qubit state.  The pull is the exact
normal-mode shift of the two-level Jaynes-Cummings doublet at every
detuning: finite across the anticrossing, where it is the vacuum-Rabi
splitting, and equal to the second-order dispersive shift
g~^2/Delta * sigma_z to O((g~/Delta)^3) far from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, UnknownDeviceError, _check_finite, _check_non_negative,
                     _check_positive)

_TWO_PI = 2 * math.pi

# Scratch budget of one notch pass in s21_feedline: a short call takes
# every device in one pass, and from 5 462 points on a pass takes one
# device, so a long spectrum's scratch does not grow with the chip.
_SCRATCH_BYTES = 256 * 1024


class QubitStateLabel(enum.IntEnum):
    """Qubit energy eigenstate as a sigma_z eigenvalue."""

    GROUND = -1
    EXCITED = +1


@dataclass(frozen=True)
class QubitParams:
    """Flux qubit two-level parameters.

    gap_delta: Hz, minimum splitting at the symmetry point.
    flux_sensitivity: Hz per flux quantum, slope of the energy bias.
    symmetry_flux: flux quantum units, location of the symmetry point.
    relaxation_rate_gamma: rad/s, energy relaxation rate.
    """

    gap_delta: float
    flux_sensitivity: float
    symmetry_flux: float
    relaxation_rate_gamma: float

    def __post_init__(self):
        _check_finite(flux_sensitivity=self.flux_sensitivity, symmetry_flux=self.symmetry_flux)
        _check_non_negative(gap_delta=self.gap_delta,
                            relaxation_rate_gamma=self.relaxation_rate_gamma)


@dataclass(frozen=True)
class ResonatorParams:
    """Notch resonator parameters.

    bare_frequency: Hz.  total_linewidth_kappa, external_linewidth and
    coupling_g (qubit-resonator coupling): rad/s, with 0 < external <=
    total.
    """

    bare_frequency: float
    total_linewidth_kappa: float
    external_linewidth: float
    coupling_g: float

    def __post_init__(self):
        _check_positive(bare_frequency=self.bare_frequency,
                        total_linewidth_kappa=self.total_linewidth_kappa)
        _check_finite(external_linewidth=self.external_linewidth)
        _check_non_negative(coupling_g=self.coupling_g)
        if not 0 < self.external_linewidth <= self.total_linewidth_kappa:
            raise ConfigError(
                "external_linewidth must satisfy 0 < ext <= kappa, got "
                f"ext={self.external_linewidth}, kappa={self.total_linewidth_kappa}"
            )


@dataclass(frozen=True)
class DeviceRecord:
    """One qubit-resonator pair hanging off the shared feedline."""

    device_id: int
    qubit: QubitParams
    resonator: ResonatorParams


@dataclass(frozen=True)
class Chip:
    """Ordered collection of devices sharing one feedline."""

    name: str
    devices: tuple[DeviceRecord, ...]

    def __post_init__(self):
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate device ids in chip {self.name!r}: {ids}")
        # The devices' parameters along a device axis, in chip order, for
        # s21_feedline; the ids in chip order (device_ids) and each id's
        # position among them (_position), for lookups by id.  Not fields:
        # equality, hash and repr are unchanged.
        object.__setattr__(self, "_axis", _DeviceAxis.of(self.devices))
        object.__setattr__(self, "device_ids", tuple(ids))
        object.__setattr__(self, "_position", {dev_id: i for i, dev_id in enumerate(ids)})

    def device(self, device_id: int) -> DeviceRecord:
        return self.devices[self._index(device_id)]

    def _index(self, device_id: int) -> int:
        """The position of device_id in chip order; UnknownDeviceError if
        no device has that id."""
        try:
            return self._position[device_id]
        except (KeyError, TypeError):
            raise UnknownDeviceError(f"no device {device_id} on chip {self.name!r}") from None


class _DeviceAxis(NamedTuple):
    """Read-only per-device parameter arrays, one entry per device."""

    gap: np.ndarray  # Hz
    slope: np.ndarray  # Hz per flux quantum
    symmetry_flux: np.ndarray
    coupling: np.ndarray  # rad/s
    bare_frequency: np.ndarray  # Hz
    omega_r: np.ndarray  # bare resonator frequency, rad/s
    half_kappa: np.ndarray  # rad/s
    half_ext: np.ndarray  # rad/s

    @classmethod
    def of(cls, devices) -> "_DeviceAxis":
        rows = [(d.qubit.gap_delta, d.qubit.flux_sensitivity, d.qubit.symmetry_flux,
                 d.resonator.coupling_g, d.resonator.bare_frequency,
                 _TWO_PI * d.resonator.bare_frequency,
                 d.resonator.total_linewidth_kappa / 2.0, d.resonator.external_linewidth / 2.0)
                for d in devices]
        table = np.array(rows, dtype=float).reshape(len(rows), len(cls._fields)).T.copy()
        table.flags.writeable = False
        return cls(*table)


def _qubit_frequency(gap, slope, symmetry_flux, flux):
    """Qubit transition frequency in Hz, elementwise."""
    return np.hypot(gap, slope * (flux - symmetry_flux))


def _pull(omega_r, coupling, omega_q, state):
    """Exact normal-mode pull in rad/s, elementwise (see
    state_dependent_shift); exactly zero where the coupling is zero."""
    detuning = omega_q - omega_r
    sign = np.where(detuning >= 0, 1.0, -1.0)
    numerator = state * sign * (2 * coupling * coupling)
    denominator = np.hypot(detuning, 2 * coupling) + np.abs(detuning)
    out = np.zeros(np.broadcast_shapes(numerator.shape, denominator.shape))
    return np.divide(numerator, denominator, out=out, where=coupling != 0.0)


def _notch(probe, omega_r, half_kappa, half_ext, shift, out, detuning):
    """One notch's S21 at angular probe frequencies, written into the
    complex array out; detuning is float scratch of out's shape."""
    np.subtract(probe, omega_r, out=detuning)
    np.subtract(detuning, shift, out=detuning)
    out.real = half_kappa
    out.imag = detuning
    np.divide(half_ext, out, out=out)
    return np.subtract(1.0, out, out=out)


def qubit_frequency(qubit: QubitParams, flux):
    """Transition frequency in Hz at the given applied flux (flux quanta).

    Even in flux about the symmetry point and never below gap_delta.
    Accepts scalars or arrays; NaN or inf flux, and a flux so large that
    the frequency overflows, raise ConfigError.
    """
    flux_arr = np.asarray(flux, dtype=float)
    _check_finite(flux=flux_arr)
    with np.errstate(over="ignore"):
        f = _qubit_frequency(qubit.gap_delta, qubit.flux_sensitivity, qubit.symmetry_flux,
                             flux_arr)
    _check_finite(**{"qubit frequency": f})
    return float(f) if np.isscalar(flux) else f


def state_dependent_shift(resonator: ResonatorParams, omega_q, state):
    """Resonator pull from the exact two-level normal modes, rad/s.

    omega_q is the angular qubit frequency; state is the sigma_z value
    (+1 excited, -1 ground; intermediate values represent ensemble
    averages and scale the shift linearly).  Diagonalizing the
    one-excitation doublet gives modes at (w_r + w_q)/2 +-
    sqrt(detuning^2 + 4 g~^2)/2.  The branch with predominant resonator
    character sits (sqrt(..) - |detuning|)/2 away from the bare
    frequency, on the side away from the qubit; that distance is written
    without cancellation as 2 g~^2 / (sqrt(..) + |detuning|).  The pull
    is odd in sigma_z, at most g~ in magnitude, and within
    g~ (g~/detuning)^3 of the dispersive g~^2/detuning * sigma_z.  At zero
    detuning the two states map onto the vacuum-Rabi doublet w_r -+ g~
    (ground state on the lower branch by convention).  Zero coupling
    gives zero shift regardless of detuning.

    omega_q and state may be arrays (broadcast together) and are taken
    elementwise.  NaN or inf in either, and values so large that the
    pull overflows, raise ConfigError.
    """
    omega_q, state = np.broadcast_arrays(
        np.asarray(omega_q, dtype=float), np.asarray(state, dtype=float)
    )
    _check_finite(omega_q=omega_q, state=state)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = _pull(_TWO_PI * resonator.bare_frequency, resonator.coupling_g, omega_q, state)
    _check_finite(shift=shift)
    return float(shift) if shift.ndim == 0 else shift


def s21_single(resonator: ResonatorParams, probe_omega, shift: float = 0.0):
    """Complex notch transmission at angular probe frequency probe_omega.

    shift (rad/s) displaces the resonance from its bare position.
    Accepts scalar or array probe_omega and shift, broadcast together;
    |S21| <= 1 everywhere.  The result is a complex when probe_omega is
    a scalar and shift has no dimensions, and an array otherwise.  NaN
    or inf in probe_omega or shift, and values so large that the notch
    overflows, raise ConfigError.
    """
    probe = np.asarray(probe_omega, dtype=float)
    shift = np.asarray(shift, dtype=float)
    _check_finite(probe_omega=probe, shift=shift)
    shape = np.broadcast_shapes(probe.shape, shift.shape)
    try:
        with np.errstate(over="raise"):
            s = _notch(probe, _TWO_PI * resonator.bare_frequency,
                       resonator.total_linewidth_kappa / 2.0, resonator.external_linewidth / 2.0,
                       shift, np.empty(shape, dtype=complex), np.empty(shape))
    except FloatingPointError as exc:
        raise ConfigError(f"S21 must be finite ({exc})") from None
    return complex(s) if np.isscalar(probe_omega) and s.ndim == 0 else s


def s21_feedline(chip: Chip, probe_omega, states, fluxes) -> np.ndarray | complex:
    """Composite feedline transmission: product of all device notches.

    states: one sigma_z value per device, in chip order.
    fluxes: one applied flux per device, or a single scalar applied to all.
    Each device's resonance is pulled by its own state-dependent shift.
    With all couplings zero the result is flux-independent.

    A batch of points is accepted too: states of shape (n_points,
    n_devices) with fluxes of shape (n_points,) (one flux for every
    device) or (n_points, n_devices).  The result then has shape
    (n_points,) + shape(probe_omega), and row i equals the call for
    states[i] and fluxes[i] bit for bit.  NaN or inf in states, fluxes
    or probe_omega, and values so large that a qubit frequency, a pull
    or a notch overflows, raise ConfigError.

    The work runs along a device axis: every point's qubit frequency and
    pull are computed for all devices in one array pass, from parameter
    arrays the Chip builds once.  Then the notches are computed a block
    of devices per pass, as many as keep the pass's complex and float
    scratch under 256 KiB and at least one, and multiplied in place
    into the product in chip order.  The arithmetic per element and the
    product order are those of the per-device product s *=
    s21_single(resonator_j, probe_omega, state_dependent_shift(
    resonator_j, 2 pi qubit_frequency(qubit_j, flux_j), state_j)) over
    j, which the result equals bit for bit.
    """
    n = len(chip.devices)
    states = np.asarray(states, dtype=float)
    if states.ndim not in (1, 2) or states.shape[-1] != n:
        raise ConfigError(f"expected {n} states per point, got shape {states.shape}")
    flux_arr = np.asarray(fluxes, dtype=float)
    if flux_arr.ndim == states.ndim - 1:
        flux_arr = flux_arr[..., None]
    try:
        flux_arr = np.broadcast_to(flux_arr, states.shape)
    except ValueError:
        raise ConfigError(
            f"fluxes of shape {np.shape(fluxes)} do not fit states of shape {states.shape}"
        ) from None
    probe = np.asarray(probe_omega, dtype=float)
    _check_finite(**{"states": states, "fluxes": flux_arr, "probe frequencies": probe})
    axis = chip._axis
    with np.errstate(over="ignore", invalid="ignore"):
        omega_q = _TWO_PI * _qubit_frequency(axis.gap, axis.slope, axis.symmetry_flux, flux_arr)
        pulls = _pull(axis.omega_r, axis.coupling, omega_q, states)
    _check_finite(**{"qubit frequency": omega_q, "shift": pulls})
    # Per-point pulls line up with the batch axis, ahead of the probe
    # axes, and the device parameters with the block axis.
    lead = states.shape[:-1] + (1,) * probe.ndim
    shape = states.shape[:-1] + probe.shape
    shifts = pulls.T.reshape((n,) + lead)
    column = (n,) + (1,) * len(shape)
    omega_r, half_kappa, half_ext = (
        a.reshape(column) for a in (axis.omega_r, axis.half_kappa, axis.half_ext)
    )
    s = np.ones(shape, dtype=complex)
    # Devices per pass: as many as keep the complex notch and float
    # detuning scratch, 16 + 8 bytes per element each, under _SCRATCH_BYTES.
    block = max(1, min(n, _SCRATCH_BYTES // (max(s.size, 1) * (16 + 8))))
    notch = np.empty((block,) + shape, dtype=complex)
    detuning = np.empty((block,) + shape)
    # notch[j, ...] stays an array when s has no dimensions, where
    # notch[j] would be a numpy scalar with a product of its own.
    try:
        with np.errstate(over="raise"):
            for first in range(0, n, block):
                m = min(block, n - first)
                rows = slice(first, first + m)
                _notch(probe, omega_r[rows], half_kappa[rows], half_ext[rows], shifts[rows],
                       notch[:m], detuning[:m])
                for j in range(m):
                    np.multiply(s, notch[j, ...], out=s)
    except FloatingPointError as exc:
        raise ConfigError(f"S21 must be finite ({exc})") from None
    return complex(s) if s.ndim == 0 else s


def _dressed_resonances(chip: Chip, device_ids, state) -> list[float]:
    """dressed_resonance(chip.device(d), its symmetry flux, state) for
    each id d of device_ids, bit for bit, from one array pass over the
    chip's device axis.  An unknown id raises UnknownDeviceError; NaN or
    inf state, and a resonance whose qubit frequency or pull overflows,
    raise ConfigError."""
    index = [chip._index(dev_id) for dev_id in device_ids]
    state = float(state)
    _check_finite(state=state)
    axis = chip._axis
    with np.errstate(over="ignore", invalid="ignore"):
        omega_q = _TWO_PI * _qubit_frequency(axis.gap, axis.slope, axis.symmetry_flux,
                                             axis.symmetry_flux)
        shift = _pull(axis.omega_r, axis.coupling, omega_q, state)
    omega_q, shift = omega_q[index], shift[index]
    _check_finite(omega_q=omega_q, shift=shift)
    return (axis.bare_frequency[index] + shift / _TWO_PI).tolist()


def dressed_resonance(dev: DeviceRecord, flux: float, state: float = QubitStateLabel.GROUND) -> float:
    """State-pulled resonator center in Hz at the given applied flux.

    NaN or inf flux or state, and a flux so large that the qubit's
    angular frequency overflows, raise ConfigError.
    """
    with np.errstate(over="ignore"):
        omega_q = _TWO_PI * qubit_frequency(dev.qubit, flux)
    shift = state_dependent_shift(dev.resonator, omega_q, float(state))
    return dev.resonator.bare_frequency + shift / _TWO_PI
