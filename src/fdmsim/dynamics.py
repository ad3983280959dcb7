"""Two-level dynamics in the drive rotating frame.

Bloch equations with drive along x, detuning delta and rates in rad/s:

    dx/dt = -delta * y - G2 * x
    dy/dt = +delta * x - W * z - G2 * y
    dz/dt = +W * y - gamma * (z + 1)

where W = 2*pi * rabi_rate_per_unit_amplitude * amplitude,
G2 = gamma/2 + gamma_phi, and relaxation drives z toward -1 (ground).
From the ground state on resonance this gives the excited population
P_e(t) = sin^2(pi * f_rabi * t).

Under a constant drive the equations are linear and affine in (x, y, z),
so on the homogeneous vector (x, y, z, 1) they read dr/dt = A r and the
exact solution is r(t) = exp(A t) r(0) (Torrey, Phys. Rev. 76, 1059,
1949).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .seeding import derive_rng

# Samples held by one chunk of telegraph trajectories; also the ceiling on
# the length of a single trajectory.
TELEGRAPH_CHUNK_SAMPLES = 2_000_000


@dataclass(frozen=True)
class BlochState:
    """Bloch vector; |r| must be finite and may not exceed 1 (beyond
    numerical slack)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if not norm <= 1 + 1e-9:
            raise ConfigError(f"Bloch vector norm {norm} must be finite and <= 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    @property
    def excited_population(self) -> float:
        return 0.5 * (1.0 + self.z)


GROUND = BlochState(0.0, 0.0, -1.0)


@dataclass(frozen=True)
class DriveSpec:
    """Resonant-frame drive: rabi_rate_per_unit_amplitude (Hz per unit
    drive amplitude), amplitude (dimensionless), detuning (Hz, drive
    minus qubit)."""

    rabi_rate_per_unit_amplitude: float
    amplitude: float
    detuning: float = 0.0

    def __post_init__(self):
        for name in ("rabi_rate_per_unit_amplitude", "amplitude", "detuning"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rabi_rate_per_unit_amplitude < 0:
            raise ConfigError(
                f"rabi_rate_per_unit_amplitude must be >= 0, got {self.rabi_rate_per_unit_amplitude}"
            )
        if self.amplitude < 0:
            raise ConfigError(f"amplitude must be >= 0, got {self.amplitude}")


def rabi_frequency(drive: DriveSpec) -> float:
    """Generalized Rabi frequency in Hz: hypot(rate * amplitude, detuning).

    Linear in drive amplitude on resonance.
    """
    return math.hypot(drive.rabi_rate_per_unit_amplitude * drive.amplitude, drive.detuning)


def _check_rates(gamma: float, gamma_phi: float) -> None:
    for name, value in (("gamma", gamma), ("gamma_phi", gamma_phi)):
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring.

    m is scaled by 2**-s to a 1-norm <= 0.25, where the degree-12 Taylor
    series is truncated after terms below 0.25**13 / 13! ~ 2e-18, and
    the result is squared s times.
    """
    s = max(0, math.frexp(float(np.abs(m).sum(axis=0).max()) / 0.25)[1])
    m = m * 2.0**-s
    eye = np.eye(len(m))
    out = eye
    for k in range(12, 0, -1):
        out = eye + (m @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def evolve_for(
    state: BlochState,
    drive: DriveSpec,
    gamma: float,
    gamma_phi: float,
    duration: float,
) -> BlochState:
    """Exact evolution for duration seconds under a constant drive.

    gamma: energy relaxation rate (rad/s); gamma_phi: pure dephasing
    (rad/s).  Applies exp(A * duration) once to (x, y, z, 1), where A is
    the Bloch generator, so no step size is involved.
    """
    _check_rates(gamma, gamma_phi)
    if not 0 <= duration < math.inf:
        raise ConfigError(f"duration must be finite and >= 0, got {duration}")
    w = 2 * math.pi * drive.rabi_rate_per_unit_amplitude * drive.amplitude
    delta = 2 * math.pi * drive.detuning
    g2 = gamma / 2.0 + gamma_phi
    generator = np.array([
        [-g2, -delta, 0.0, 0.0],
        [delta, -g2, -w, 0.0],
        [0.0, w, -gamma, -gamma],
        [0.0, 0.0, 0.0, 0.0],
    ])
    x, y, z, _ = (_expm(generator * duration) @ (state.x, state.y, state.z, 1.0)).tolist()
    return BlochState(x, y, z)


def evolve(
    state: BlochState,
    drive: DriveSpec,
    gamma: float,
    gamma_phi: float,
    dt: float,
) -> BlochState:
    """One step of length dt > 0 seconds; the same exact propagator as
    evolve_for."""
    if dt <= 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    return evolve_for(state, drive, gamma, gamma_phi, dt)


def steady_state_excited(drive: DriveSpec, gamma: float, gamma_phi: float) -> float:
    """Steady-state excited population under continuous drive.

    Saturation solution of the Bloch equations:

        P_e = (s/2) / (1 + (delta/G2)^2 + s),   s = W^2 / (gamma * G2)

    with W the resonant Rabi rate and G2 = gamma/2 + gamma_phi.  Requires
    gamma > 0 (without relaxation there is no steady state).
    """
    _check_rates(gamma, gamma_phi)
    if gamma == 0:
        raise ConfigError("steady state requires gamma > 0")
    g2 = gamma / 2.0 + gamma_phi
    omega = 2 * math.pi * drive.rabi_rate_per_unit_amplitude * drive.amplitude
    delta = 2 * math.pi * drive.detuning
    s = omega * omega / (gamma * g2)
    return 0.5 * s / (1.0 + (delta / g2) ** 2 + s)


@dataclass(frozen=True)
class TelegraphSpectrum:
    """Averaged spectrum of a telegraph-modulated carrier.

    frequencies: Hz, one-sided (power at +-f folded together).
    power: normalized to unit total.
    carson_bandwidth: rad/s, full width 2*(shift + 2*gamma).
    out_of_band_fraction: spectral power outside |f| <= carson/2.
    """

    frequencies: np.ndarray
    power: np.ndarray
    carson_bandwidth: float
    out_of_band_fraction: float
    n_trajectories: int


def relaxation_telegraph_spectrum(
    gamma: float,
    shift: float,
    duration: float,
    n_trajectories: int,
    seed: int = 0,
    sample_rate: float | None = None,
) -> TelegraphSpectrum:
    """Monte-Carlo spectrum of a carrier frequency-modulated by qubit jumps.

    The resonator frequency hops by 2*shift (rad/s) whenever the qubit
    state flips.  Flip times are Poisson with rate gamma/2 per trajectory,
    so the state autocorrelation decays at the energy relaxation rate
    gamma; initial states are drawn +-1 with equal probability.  Each
    trajectory contributes |FFT(exp(i*phi(t)))|^2 with
    phi(t) = integral of sigma_z(t') * shift dt'.

    On the sample grid phi_k = S_k * (shift*dt), where S_k, the running
    sum of sigma_z, is an integer in [-n, n].  The walk is therefore kept
    in integers and the carrier read from one table of the 2n+1 values
    exp(1j * (j * (shift*dt))).  The table is exact, not an
    approximation: float(S_k) * (shift*dt) is the same IEEE product as
    the float running sum times (shift*dt), so each sample, and the
    spectrum, equals the per-sample exponential bit for bit.

    Returns the folded one-sided spectrum and the fraction of power
    outside the Carson band of full width 2*(shift + 2*gamma) centered on
    the carrier.  Non-finite rates or times, a duration <= 0, a
    non-integer trajectory count and a trajectory longer than
    TELEGRAPH_CHUNK_SAMPLES samples raise ConfigError.
    """
    for name, value in (("gamma", gamma), ("shift", shift), ("duration", duration),
                        ("sample_rate", sample_rate)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    if shift < 0:
        raise ConfigError(f"shift must be >= 0, got {shift}")
    if duration <= 0:
        raise ConfigError(f"duration must be > 0, got {duration}")
    if not isinstance(n_trajectories, numbers.Integral) or n_trajectories < 1:
        raise ConfigError(f"n_trajectories must be an integer >= 1, got {n_trajectories!r}")
    half_width_hz = (shift + 2 * gamma) / (2 * math.pi)
    if sample_rate is None:
        sample_rate = 16.0 * max(half_width_hz, 1.0 / duration)
    samples = duration * sample_rate
    if samples > TELEGRAPH_CHUNK_SAMPLES:
        raise ConfigError(
            f"one trajectory needs {samples:.3g} samples, more than the "
            f"{TELEGRAPH_CHUNK_SAMPLES} of one chunk"
        )
    n = int(round(samples))
    if n < 16:
        raise ConfigError("duration too short for the requested resolution")
    dt = 1.0 / sample_rate

    rng = derive_rng(seed)
    flip_rate = gamma / 2.0
    carrier = np.exp(1j * (np.arange(-n, n + 1, dtype=float) * (shift * dt)))
    psd = np.zeros(n)
    chunk = max(1, min(n_trajectories, TELEGRAPH_CHUNK_SAMPLES // n))
    remaining = n_trajectories
    while remaining > 0:
        m = min(chunk, remaining)
        # Parity of Poisson flip counts gives the exact state on the grid;
        # the walk turns, in place, into sigma and then into S_k + n.
        walk = rng.poisson(flip_rate * dt, size=(m, n))
        start = rng.choice((-1, 1), size=(m, 1))
        np.cumsum(walk, axis=1, out=walk)
        walk &= 1
        walk *= -2
        walk += 1
        walk *= start
        np.cumsum(walk, axis=1, out=walk)
        walk += n
        signal = carrier[walk]
        del walk
        power = np.abs(np.fft.fft(signal, axis=1, out=signal))
        del signal
        power **= 2
        psd += np.sum(power, axis=0)
        del power
        remaining -= m
    psd /= psd.sum()

    freqs = np.fft.fftfreq(n, d=dt)
    in_band = np.abs(freqs) <= half_width_hz
    out_fraction = float(1.0 - psd[in_band].sum())

    # Fold bin -j onto bin +j (bin n/2 of an even-length FFT is its own mirror).
    half = n // 2
    f_one = np.arange(half + 1) * (sample_rate / n)
    p_one = np.zeros(half + 1)
    p_one[0] = psd[0]
    j = np.arange(1, half + 1)
    mirror = n - j
    p_one[1:] = psd[j] + psd[mirror] * (mirror != j)
    return TelegraphSpectrum(
        frequencies=f_one,
        power=p_one,
        carson_bandwidth=2.0 * (shift + 2.0 * gamma),
        out_of_band_fraction=out_fraction,
        n_trajectories=n_trajectories,
    )
