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

import numpy as np

from .errors import ConfigError, _check_finite


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
        _check_finite(gap_delta=self.gap_delta, flux_sensitivity=self.flux_sensitivity,
                      symmetry_flux=self.symmetry_flux,
                      relaxation_rate_gamma=self.relaxation_rate_gamma)
        if self.gap_delta < 0:
            raise ConfigError(f"gap_delta must be >= 0, got {self.gap_delta}")
        if self.relaxation_rate_gamma < 0:
            raise ConfigError(
                f"relaxation_rate_gamma must be >= 0, got {self.relaxation_rate_gamma}"
            )


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
        _check_finite(bare_frequency=self.bare_frequency,
                      total_linewidth_kappa=self.total_linewidth_kappa,
                      external_linewidth=self.external_linewidth, coupling_g=self.coupling_g)
        if self.bare_frequency <= 0:
            raise ConfigError(f"bare_frequency must be > 0, got {self.bare_frequency}")
        if self.total_linewidth_kappa <= 0:
            raise ConfigError(
                f"total_linewidth_kappa must be > 0, got {self.total_linewidth_kappa}"
            )
        if not 0 < self.external_linewidth <= self.total_linewidth_kappa:
            raise ConfigError(
                "external_linewidth must satisfy 0 < ext <= kappa, got "
                f"ext={self.external_linewidth}, kappa={self.total_linewidth_kappa}"
            )
        if self.coupling_g < 0:
            raise ConfigError(f"coupling_g must be >= 0, got {self.coupling_g}")


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

    def device(self, device_id: int) -> DeviceRecord:
        for d in self.devices:
            if d.device_id == device_id:
                return d
        from .errors import UnknownDeviceError

        raise UnknownDeviceError(f"no device {device_id} on chip {self.name!r}")

    @property
    def device_ids(self) -> tuple[int, ...]:
        return tuple(d.device_id for d in self.devices)


def qubit_frequency(qubit: QubitParams, flux):
    """Transition frequency in Hz at the given applied flux (flux quanta).

    Even in flux about the symmetry point and never below gap_delta.
    Accepts scalars or arrays.
    """
    eps = qubit.flux_sensitivity * (np.asarray(flux, dtype=float) - qubit.symmetry_flux)
    f = np.hypot(qubit.gap_delta, eps)
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
    elementwise.
    """
    g = resonator.coupling_g
    omega_q, state = np.broadcast_arrays(
        np.asarray(omega_q, dtype=float), np.asarray(state, dtype=float)
    )
    if g == 0.0:
        shift = np.zeros(omega_q.shape)
    else:
        detuning = omega_q - 2 * math.pi * resonator.bare_frequency
        sign = np.where(detuning >= 0, 1.0, -1.0)
        shift = state * sign * (2 * g * g) / (np.hypot(detuning, 2 * g) + np.abs(detuning))
    return float(shift) if shift.ndim == 0 else shift


def s21_single(resonator: ResonatorParams, probe_omega, shift: float = 0.0):
    """Complex notch transmission at angular probe frequency probe_omega.

    shift (rad/s) displaces the resonance from its bare position.
    Accepts scalar or array probe_omega; |S21| <= 1 everywhere.
    """
    omega_r = 2 * math.pi * resonator.bare_frequency
    kappa = resonator.total_linewidth_kappa
    ext = resonator.external_linewidth
    delta = np.asarray(probe_omega, dtype=float) - omega_r - shift
    s = 1.0 - (ext / 2.0) / (1j * delta + kappa / 2.0)
    return complex(s) if np.isscalar(probe_omega) else s


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
    states[i] and fluxes[i] bit for bit: the arithmetic per element and
    the product order over devices are the same.  NaN or inf in states,
    fluxes or probe_omega raises ConfigError.
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
    for name, values in (("states", states), ("fluxes", flux_arr), ("probe frequencies", probe)):
        if not np.isfinite(values).all():
            raise ConfigError(f"{name} must be finite")
    # Per-point shifts line up with the batch axis, ahead of the probe axes.
    lead = states.shape[:-1] + (1,) * probe.ndim
    s = np.ones(states.shape[:-1] + probe.shape, dtype=complex)
    for j, dev in enumerate(chip.devices):
        omega_q = 2 * math.pi * qubit_frequency(dev.qubit, flux_arr[..., j])
        shift = state_dependent_shift(dev.resonator, omega_q, states[..., j])
        s = s * s21_single(dev.resonator, probe, np.reshape(shift, lead))
    return complex(s) if s.ndim == 0 else s


def dressed_resonance(dev: DeviceRecord, flux: float, state: float = QubitStateLabel.GROUND) -> float:
    """State-pulled resonator center in Hz at the given applied flux."""
    omega_q = 2 * math.pi * qubit_frequency(dev.qubit, flux)
    shift = state_dependent_shift(dev.resonator, omega_q, float(state))
    return dev.resonator.bare_frequency + shift / (2 * math.pi)
