"""Receive chain: homodyne down-conversion, ADC, DFT channelizer.

The receiver is homodyne: it reuses the transmit LO, so down-conversion
is a carrier-tag removal plus one fixed phase rotation.  All noise in
the chain is lumped into a single additive white Gaussian stage at the
ADC input; the amplifier chain is a pure scalar gain applied by the
caller.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .device import Chip
from .errors import ConfigError, LoMismatchError, NyquistError, UnknownDeviceError
from .seeding import derive_rng
from .txchain import IQTrace, ToneSpec, synthesize_multitone, upconvert_ssb

logger = logging.getLogger(__name__)

# Off-channel bins within this many bins of a channel are excluded from
# the noise estimate (covers the hann main lobe).
NOISE_GUARD_BINS = 3


@dataclass(frozen=True)
class AdcSpec:
    """Digitizer model: sample_rate (S/s), bits, full_scale (per quadrature),
    optional analog_bandwidth (Hz, one-sided brick wall before sampling)."""

    sample_rate: float
    bits: int
    full_scale: float
    analog_bandwidth: float | None = None

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ConfigError(f"ADC sample_rate must be > 0, got {self.sample_rate}")
        if not 1 <= int(self.bits) <= 32:
            raise ConfigError(f"ADC bits must be in [1, 32], got {self.bits}")
        if self.full_scale <= 0:
            raise ConfigError(f"ADC full_scale must be > 0, got {self.full_scale}")

    @property
    def step(self) -> float:
        """Quantization step: full scale spans 2^bits steps per polarity pair."""
        return 2.0 * self.full_scale / (2 ** int(self.bits))


@dataclass(frozen=True)
class ToneMeasurement:
    """Demodulated tone: channel_frequency (Hz, baseband), amplitude >= 0,
    phase in (-pi, pi], and the per-quadrature noise estimate noise_std."""

    channel_frequency: float
    amplitude: float
    phase: float
    noise_std: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ConfigError(f"amplitude must be >= 0, got {self.amplitude}")
        if not -math.pi < self.phase <= math.pi + 1e-12:
            raise ConfigError(f"phase must lie in (-pi, pi], got {self.phase}")

    @property
    def complex_amplitude(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))


def downconvert(rf: IQTrace, lo_frequency: float, phase_offset: float = 0.0,
                lo_tolerance: float = 1e-3) -> IQTrace:
    """Mix an up-converted trace back to baseband (homodyne).

    The receive LO must match the transmit carrier within lo_tolerance Hz;
    anything else raises LoMismatchError, since intermediate-frequency
    operation is not supported.  The fixed receiver phase rotates every
    sample by exp(-i * phase_offset).
    """
    if rf.carrier_frequency is None:
        raise LoMismatchError("trace is not up-converted; nothing to mix down")
    if abs(rf.carrier_frequency - lo_frequency) > lo_tolerance:
        raise LoMismatchError(
            f"receive LO {lo_frequency:.6g} Hz differs from carrier "
            f"{rf.carrier_frequency:.6g} Hz (homodyne only)"
        )
    samples = rf.samples * np.exp(-1j * phase_offset)
    return replace(rf, samples=samples, carrier_frequency=None)


def add_awgn(trace: IQTrace, noise_std: float, seed: int) -> IQTrace:
    """Add seeded white Gaussian noise of the given std to each quadrature."""
    if noise_std < 0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    if noise_std == 0:
        return trace
    rng = derive_rng(seed)
    noise = rng.normal(0.0, noise_std, size=(trace.n_samples, 2))
    return replace(trace, samples=trace.samples + noise[:, 0] + 1j * noise[:, 1])


def adc_quantize(trace: IQTrace, adc: AdcSpec, noise_std: float = 0.0, seed: int = 0) -> IQTrace:
    """Digitize a baseband trace: add noise, clip, quantize.

    Per quadrature: optional brick-wall analog band limit, seeded white
    Gaussian noise of std noise_std (noise_std = 0 draws nothing, so the
    seed is then irrelevant), hard clip at +-full_scale, then mid-tread
    rounding with step 2*full_scale/2^bits (integer codes
    -2^(bits-1)..+2^(bits-1), so both rails and zero are exact codes).
    Clipped samples are counted and logged; rail_fraction() recovers the
    count from the output.
    """
    if abs(trace.sample_rate - adc.sample_rate) > 1e-6 * adc.sample_rate:
        raise ConfigError(
            f"trace rate {trace.sample_rate:.6g} != ADC rate {adc.sample_rate:.6g}"
        )
    samples = trace.samples
    if adc.analog_bandwidth is not None and adc.analog_bandwidth < trace.sample_rate / 2:
        spectrum = np.fft.fft(samples)
        freqs = np.fft.fftfreq(samples.size, d=1.0 / trace.sample_rate)
        spectrum[np.abs(freqs) > adc.analog_bandwidth] = 0.0
        samples = np.fft.ifft(spectrum)
    quad = np.column_stack([samples.real, samples.imag])
    if noise_std > 0:
        rng = derive_rng(seed)
        quad = quad + rng.normal(0.0, noise_std, size=quad.shape)
    elif noise_std < 0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    n_clipped = int(np.count_nonzero(np.abs(quad) > adc.full_scale))
    clipped = np.clip(quad, -adc.full_scale, adc.full_scale)
    half_codes = 2 ** (int(adc.bits) - 1)
    codes = np.clip(np.round(clipped / adc.step), -half_codes, half_codes)
    quantized = codes * adc.step
    if n_clipped:
        logger.warning(
            "ADC clipped %d of %d quadrature samples", n_clipped, quad.size
        )
    return replace(trace, samples=quantized[:, 0] + 1j * quantized[:, 1])


def rail_fraction(trace: IQTrace, adc: AdcSpec) -> float:
    """Fraction of quadrature samples sitting at the converter rails."""
    quad = np.concatenate([trace.samples.real, trace.samples.imag])
    return float(np.mean(np.abs(quad) >= adc.full_scale - adc.step / 2))


WINDOWS = ("rectangular", "rect", "hann")


def _window(name: str, n: int) -> np.ndarray:
    if name not in WINDOWS:
        raise ConfigError(f"unknown window {name!r} (use 'rectangular' or 'hann')")
    if name == "hann":
        # Periodic (DFT-even) hann: exact unity gain for bin-centered tones.
        return 0.5 * (1 - np.cos(2 * np.pi * np.arange(n) / n))
    return np.ones(n)


@dataclass(frozen=True)
class _ChannelPlan:
    """What channelize derives from its key alone; arrays are read-only."""

    window: np.ndarray
    window_sum: float
    kernel: np.ndarray
    noise_mask: np.ndarray


@lru_cache(maxsize=16)
def _channel_plan(
    freqs: tuple[float, ...], n: int, sample_rate: float, window: str
) -> _ChannelPlan:
    w = _window(window, n)
    t_rel = np.arange(n) / sample_rate
    kernel = np.exp(-2j * np.pi * np.outer(np.array(freqs), t_rel))
    grid = np.fft.fftfreq(n, d=1.0 / sample_rate)
    nyquist = sample_rate / 2
    bin_width = sample_rate / n
    mask = np.ones(n, dtype=bool)
    for f in freqs:
        mask &= np.abs((grid - f + nyquist) % sample_rate - nyquist) > \
            NOISE_GUARD_BINS * bin_width - bin_width / 2
    for a in (w, kernel, mask):
        a.flags.writeable = False
    return _ChannelPlan(window=w, window_sum=float(w.sum()), kernel=kernel, noise_mask=mask)


def channelize(
    trace: IQTrace,
    channel_frequencies: Sequence[float],
    window: str = "rectangular",
) -> list[ToneMeasurement]:
    """Windowed DFT projections at the given baseband channel frequencies.

    Amplitudes are normalized by the window sum, so a unit bin-centered
    tone reports amplitude 1 under either window.  Phases are referenced
    to the first sample of the trace; shifting the trace start time by m
    samples rotates channel phases by 2*pi*f*m/sample_rate.

    noise_std is estimated from DFT-grid bins more than NOISE_GUARD_BINS
    away from every channel: rms of their amplitudes divided by sqrt(2),
    i.e. the one-sigma uncertainty per quadrature of each channel
    amplitude under white noise.

    The window, projection kernel and noise mask depend only on
    (channel frequencies, n_samples, sample_rate, window); they are built
    once per such key and reused from a small cache.
    """
    if trace.carrier_frequency is not None:
        raise ConfigError("channelize expects a baseband trace; downconvert first")
    freqs = tuple(float(f) for f in channel_frequencies)
    if not freqs:
        raise ConfigError("need at least one channel frequency")
    nyquist = trace.sample_rate / 2
    for f in freqs:
        if abs(f) > nyquist:
            raise NyquistError(f"channel at {f:+.6g} Hz exceeds Nyquist {nyquist:.6g} Hz")
    plan = _channel_plan(freqs, trace.n_samples, float(trace.sample_rate), window)
    wx = plan.window * trace.samples
    amplitudes = plan.kernel @ wx / plan.window_sum

    # Noise from the off-channel part of the DFT grid, same normalization.
    if plan.noise_mask.any():
        spectrum = np.fft.fft(wx) / plan.window_sum
        noise_std = float(np.sqrt(np.mean(np.abs(spectrum[plan.noise_mask]) ** 2) / 2))
    else:
        noise_std = float("nan")

    return [
        ToneMeasurement(
            channel_frequency=f,
            amplitude=float(np.abs(a)),
            phase=float(np.angle(a)),
            noise_std=noise_std,
        )
        for f, a in zip(freqs, amplitudes)
    ]


def apply_feedline(rf: IQTrace, chip: Chip, states: Sequence[float], fluxes) -> IQTrace:
    """Pass an up-converted trace through the chip's composite feedline.

    The trace is treated as one period of a circular signal: its DFT bins
    are multiplied by S21 evaluated at carrier + bin frequency.  Exact
    for tones on the DFT grid; for pulsed envelopes this is the standard
    quasi-static frequency-domain filter (qubit states frozen during the
    window).  Because of that exactness a noiseless, ADC-free acquisition
    of a ReadoutSetup needs no trace at all: experiments.acquire and the
    sweep drivers then return amplitude * S21(channel frequency) in
    closed form, and this full filter serves as their oracle.
    """
    from .device import s21_feedline

    if rf.carrier_frequency is None:
        raise ConfigError("apply_feedline expects an up-converted trace")
    spectrum = np.fft.fft(rf.samples)
    freqs = rf.carrier_frequency + np.fft.fftfreq(rf.n_samples, d=1.0 / rf.sample_rate)
    s21 = s21_feedline(chip, 2 * np.pi * freqs, states, fluxes)
    return replace(rf, samples=np.fft.ifft(spectrum * s21))


CROSSTALK_FLOOR_DB = -200.0


def measure_crosstalk(
    chip: Chip,
    plan,
    toggled_device: int,
    *,
    lo_frequency: float | None = None,
    sample_rate: float = 4e9,
    n_samples: int = 4000,
    amplitude: float = 1.0,
    window: str = "rectangular",
    adc: AdcSpec | None = None,
    noise_std: float = 0.0,
    seed: int = 0,
) -> dict[int, float]:
    """Readout crosstalk of a chip, measured through the full chain.

    Runs tx -> feedline -> rx twice, once with every qubit in the ground
    state and once with the toggled device's sigma_z flipped, and records
    each channel's complex amplitude change between the runs (the
    IQ-plane displacement that carries the state information).  Returns
    {device_id: 20*log10(|delta_ch| / |delta_toggled|)} for every
    non-toggled channel, floored at CROSSTALK_FLOOR_DB when a change
    underflows (e.g. all couplings zero).

    Channel frequencies must sit on the DFT grid relative to the LO for
    an exact measurement; the default LO is the channel mean snapped to
    that grid.
    """
    channels = dict(plan.channels)
    if toggled_device not in channels:
        raise UnknownDeviceError(f"device {toggled_device} not in the plan")
    chip.device(toggled_device)  # raises UnknownDeviceError if absent
    device_ids = list(channels)
    freqs_rf = np.array([channels[d] for d in device_ids])
    if lo_frequency is None:
        grid = sample_rate / n_samples
        lo_frequency = grid * round(float(freqs_rf.mean()) / grid)
    baseband = freqs_rf - lo_frequency

    tones = [ToneSpec(baseband_frequency=f, amplitude=amplitude) for f in baseband]
    probe = upconvert_ssb(
        synthesize_multitone(tones, n_samples, sample_rate), lo_frequency
    )
    fluxes = [d.qubit.symmetry_flux for d in chip.devices]

    def run(toggled_state: float) -> np.ndarray:
        states = [
            toggled_state if d.device_id == toggled_device else -1.0
            for d in chip.devices
        ]
        rx = downconvert(apply_feedline(probe, chip, states, fluxes), lo_frequency)
        if noise_std > 0 and adc is None:
            rx = add_awgn(rx, noise_std, seed)
        if adc is not None:
            rx = adc_quantize(rx, adc, noise_std=noise_std, seed=seed)
        meas = channelize(rx, baseband, window=window)
        return np.array([m.complex_amplitude for m in meas])

    delta = run(+1.0) - run(-1.0)
    own = np.abs(delta[device_ids.index(toggled_device)])
    scale = max(float(np.max(np.abs(delta))), amplitude)
    out: dict[int, float] = {}
    for idx, dev in enumerate(device_ids):
        if dev == toggled_device:
            continue
        other = np.abs(delta[idx])
        if own <= 1e-14 * scale or other <= 1e-14 * own:
            out[dev] = CROSSTALK_FLOOR_DB
        else:
            out[dev] = max(20.0 * math.log10(other / own), CROSSTALK_FLOOR_DB)
    return out


def write_measurements_csv(
    path: str | Path,
    measurements: Sequence[ToneMeasurement],
    metadata: dict[str, object] | None = None,
) -> None:
    """Write tone measurements as CSV with a '#' metadata header block."""
    lines = ["# fdmsim tone measurements v1"]
    for key in sorted(metadata or {}):
        lines.append(f"# {key}: {metadata[key]}")
    lines.append("channel_hz,amplitude,phase_rad,noise_std")
    for m in measurements:
        lines.append(
            f"{m.channel_frequency!r},{m.amplitude!r},{m.phase!r},{m.noise_std!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
