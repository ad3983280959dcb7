"""Receive chain: homodyne down-conversion, ADC, DFT channelizer.

The receiver is homodyne: it reuses the transmit LO, so down-conversion
is a carrier-tag removal and leaves the samples as they are.  All noise in
the chain is lumped into a single additive white Gaussian stage at the
ADC input; the amplifier chain is a pure scalar gain applied by the
caller.

This module also owns the one acquisition core: a ReadoutSetup,
_acquire, which computes every shot's closed-form channel amplitudes,
and its shot loop, _receive, which turns them into measured ones.
acquire, the sweep drivers in experiments and measure_crosstalk all run
through it; the public stages (synthesize_multitone through channelize)
serve the tests as its oracle.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import device
from .device import Chip
from .errors import (ConfigError, UnknownDeviceError, _check_count, _check_finite,
                     _check_non_negative, _check_positive)
from .lanes import lane_count as _lane_count, one_blas_thread as _one_blas_thread, run as _run_lanes
from .planner import _grid_offset
from .seeding import _check_seed, _set_state, derive_rng
from .txchain import IQTrace, _finite, synthesize_multitone, upconvert_ssb

# synthesize_multitone and upconvert_ssb are not called in this module.
# They stay bound here because perfbench/tracer.py wraps each stage by
# its attribute in this namespace.

logger = logging.getLogger(__name__)

# Off-channel bins within this many bins of a channel are excluded from
# the noise estimate (covers the hann main lobe).
NOISE_GUARD_BINS = 3

# Samples per block of shots: 4 rows at the default n = 4000, 256 kB a
# block.  The noisy shot loop holds one block per lane and a one-row
# trace, 576 kB on 2 lanes.  Measured as below: one-row blocks were 70 %
# slower with noise (two shots in flight) and 40 % slower without, 8-row
# blocks 4 % faster with noise for 512 kB more.
_SHOT_BLOCK_SAMPLES = 1 << 14

# Largest offset, in bins per bin index, at which a ReadoutSetup channel
# still counts as on the DFT grid.
GRID_TOLERANCE = 1e-14


@dataclass(frozen=True)
class AdcSpec:
    """Digitizer model: sample_rate (S/s), bits, full_scale (per quadrature),
    optional analog_bandwidth (Hz, one-sided brick wall before sampling).

    Raises ConfigError for a field that is NaN or infinite, bits that are
    not an integral count (errors._check_count; 12.0 is kept as 12) in
    [1, 32], and a sample_rate, full_scale or analog_bandwidth that is
    not > 0."""

    sample_rate: float
    bits: int
    full_scale: float
    analog_bandwidth: float | None = None

    def __post_init__(self):
        _check_positive(sample_rate=self.sample_rate, full_scale=self.full_scale)
        if self.analog_bandwidth is not None:
            _check_positive(analog_bandwidth=self.analog_bandwidth)
        bits = _check_count("bits", self.bits)
        if bits > 32:
            raise ConfigError(f"ADC bits must be an integer in [1, 32], got {self.bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def step(self) -> float:
        """Quantization step 2 * full_scale / 2^bits, with no overflow at 2 * full_scale."""
        return self.full_scale / (2 ** (self.bits - 1))


@dataclass(frozen=True)
class ToneMeasurement:
    """Demodulated tone: channel_frequency (Hz, baseband), amplitude >= 0,
    phase in (-pi, pi], and the per-quadrature noise estimate noise_std."""

    channel_frequency: float
    amplitude: float
    phase: float
    noise_std: float

    def __post_init__(self):
        _check_non_negative(amplitude=self.amplitude)
        if not -math.pi < self.phase <= math.pi + 1e-12:
            raise ConfigError(f"phase must lie in (-pi, pi], got {self.phase}")

    @property
    def complex_amplitude(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))


def downconvert(rf: IQTrace) -> IQTrace:
    """Mix an up-converted trace back to baseband.

    The receiver is homodyne: it reuses the transmit LO, so this drops the
    carrier tag and keeps the samples.  ConfigError for a trace that was
    never up-converted or holds a NaN or inf.
    """
    if rf.carrier_frequency is None:
        raise ConfigError("downconvert expects an up-converted trace")
    return replace(rf, samples=_finite(rf.samples, "downconvert"), carrier_frequency=None)


def add_awgn(trace: IQTrace, noise_std: float, seed: int) -> IQTrace:
    """Add seeded white Gaussian noise of the given std to each quadrature;
    a NaN or inf in the result (or the trace) raises ConfigError."""
    _check_non_negative(noise_std=noise_std)
    samples = trace.samples.copy()
    if noise_std > 0:
        _add_noise(_quadratures(samples), noise_std, seed)
    return replace(trace, samples=_finite(samples, "add_awgn"))


def _check_noise(noise_std: float, seed: int) -> None:
    """Raise ConfigError unless noise_std is finite and >= 0 and seed is
    an integer root seed in [0, 2**128).  The acquisitions check both
    whether or not they draw noise, so that what they record names a run
    that could have been made."""
    _check_non_negative(noise_std=noise_std)
    _check_seed(seed)


def _quadratures(samples: np.ndarray) -> np.ndarray:
    """(n, 2) float64 view of a contiguous complex128 trace: re, im per row."""
    return samples.view(np.float64).reshape(-1, 2)


def _add_noise(quad: np.ndarray, noise_std: float, seed: int) -> None:
    """Add seeded white Gaussian noise to quadratures in place (an overflow gives inf)."""
    with np.errstate(over="ignore"):
        quad += derive_rng(seed).normal(0.0, noise_std, size=quad.shape)


def _check_adc_rate(sample_rate: float, adc: AdcSpec) -> None:
    """Raise ConfigError unless a trace's rate matches the ADC's."""
    if abs(sample_rate - adc.sample_rate) > 1e-6 * adc.sample_rate:
        raise ConfigError(
            f"trace rate {sample_rate:.6g} != ADC rate {adc.sample_rate:.6g}"
        )


class _Quantizer(NamedTuple):
    """What the quantizer derives from one AdcSpec (see _quantize)."""

    step: float
    rail: float
    scale: np.ufunc
    factor: float
    bounded: bool


@lru_cache(maxsize=16)
def _quantizer(adc: AdcSpec) -> _Quantizer:
    """The quantizer's constants for one converter, worked out once.

    rail is the rail code rint(full_scale / step) capped at 2^(bits-1).
    scale(quad, factor) gives the unrounded codes: when the step is a
    power of two whose reciprocal is finite (a 12-bit converter at
    full_scale 1.0 has step 2^-11), a multiplication by that reciprocal,
    else a division by the step.  bounded says that full_scale itself
    scales to at most the rail; scaling and rounding are monotone, so
    then no sample within +-full_scale gives a code beyond the rail or
    an overflow.  That holds for every power-of-two step with a finite
    reciprocal, where full_scale scales to 2^(bits-1) exactly.
    """
    fs, step = adc.full_scale, adc.step
    rail = min(float(np.rint(fs / step)), float(2 ** (adc.bits - 1)))
    reciprocal = 1.0 / step
    if math.frexp(step)[0] == 0.5 and math.isfinite(reciprocal):
        scale, factor = np.multiply, reciprocal
    else:
        scale, factor = np.divide, step
    return _Quantizer(step, rail, scale, factor, bool(scale(fs, factor) <= rail))


def _quantize(quad: np.ndarray, adc: AdcSpec) -> np.ndarray:
    """Clip and round quadratures in place (see adc_quantize); returns
    the count of clipped samples in each row of the 2-D quad.

    The one clip acts on the codes, at the rail code (see _quantizer).
    Scaling and rounding are monotone, so this gives the same codes as
    clipping to +-full_scale first.  A sample is scaled to its unrounded
    code by a multiplication with the exact reciprocal of a power-of-two
    step, else by a division by the step.  Both operations round the
    same real number x / step, and IEEE 754 rounds it correctly either
    way: the codes are the same bits, overflow and subnormals included.

    The block's extremes rule out clipping in one pass; only a block
    they do not (a NaN fails both tests) is counted row by row.  A block
    within +-full_scale of a bounded converter skips the clip, which
    could not bind, and the overflow guard, which could not trip.
    """
    q = _quantizer(adc)
    fs = adc.full_scale
    inside = bool(quad.max() <= fs and quad.min() >= -fs)
    if inside:
        n_clipped = np.zeros(quad.shape[0], dtype=np.int64)
    else:
        n_clipped = np.count_nonzero(quad > fs, axis=1) + np.count_nonzero(quad < -fs, axis=1)
    if inside and q.bounded:
        q.scale(quad, q.factor, out=quad)
        np.rint(quad, out=quad)
    else:
        with np.errstate(over="ignore"):  # an overflow to inf clips to the rail
            q.scale(quad, q.factor, out=quad)
        np.rint(quad, out=quad)
        np.clip(quad, -q.rail, q.rail, out=quad)  # keeps NaN and -0.0
    np.multiply(quad, q.step, out=quad)
    return n_clipped


def _band_limit(sample_rate: float, adc: AdcSpec | None) -> float | None:
    """The ADC's analog band when it cuts below Nyquist at sample_rate;
    None without an ADC, a band limit, or one below Nyquist."""
    if adc is None or adc.analog_bandwidth is None or adc.analog_bandwidth >= sample_rate / 2:
        return None
    return adc.analog_bandwidth


def _warn_clipped(n_clipped: int, size: int) -> None:
    """Log the ADC clipping of one trace of size quadrature samples."""
    logger.warning("ADC clipped %d of %d quadrature samples", n_clipped, size)


def adc_quantize(trace: IQTrace, adc: AdcSpec, noise_std: float = 0.0, seed: int = 0) -> IQTrace:
    """Digitize a baseband trace: add noise, clip, quantize.

    Per quadrature: optional brick-wall analog band limit, seeded white
    Gaussian noise of std noise_std (noise_std = 0 draws nothing, so the
    seed is then irrelevant), hard clip at +-full_scale, then mid-tread
    rounding with step 2*full_scale/2^bits (integer codes
    -2^(bits-1)..+2^(bits-1), so both rails and zero are exact codes).
    Clipped samples are counted and logged.  The noise, clip and rounding
    work in place on a copy of the trace (or on the band-limited trace),
    the same private steps _receive runs on each shot's trace; a NaN or
    inf in either raises ConfigError.
    """
    _check_adc_rate(trace.sample_rate, adc)
    _check_non_negative(noise_std=noise_std)
    samples = _finite(trace.samples, "adc_quantize").copy()
    limit = _band_limit(trace.sample_rate, adc)
    if limit is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum = np.fft.fft(samples)
            spectrum[np.abs(np.fft.fftfreq(samples.size, d=1.0 / trace.sample_rate)) > limit] = 0.0
            samples = _finite(np.fft.ifft(spectrum), "adc_quantize's analog band limit")
    if noise_std > 0:
        _add_noise(_quadratures(samples), noise_std, seed)
    n_clipped = int(_quantize(samples.view(np.float64).reshape(1, -1), adc)[0])
    if n_clipped:
        _warn_clipped(n_clipped, 2 * samples.size)
    return replace(trace, samples=samples)


WINDOWS = ("rectangular", "hann")


def _check_window(name: str, n: int) -> None:
    """Raise ConfigError for an unknown window, or for a hann window over
    fewer than 2 samples: the periodic hann of length 1 is [0], whose
    sum, the amplitude normalization, is 0."""
    if name not in WINDOWS:
        raise ConfigError(f"unknown window {name!r} (use one of {WINDOWS})")
    if name == "hann" and n < 2:
        raise ConfigError(f"a hann window needs n_samples >= 2, got {n}")


def _window(name: str, n: int) -> np.ndarray:
    _check_window(name, n)
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
    unit_window: bool

    @cached_property
    def tones(self) -> np.ndarray:
        """conj(kernel): each channel's unit tone, which _receive builds
        its shots from.  Made on first use, so a plan that only
        channelizes does not hold it."""
        tones = self.kernel.conj()
        tones.flags.writeable = False
        return tones


# Every perfbench workload and CLI command channelizes with one key per
# process.  A plan holds 32 * channels * n bytes with its tones: 77 MB at
# 300 channels and n = 8000, so the cache holds at most 154 MB.
@lru_cache(maxsize=2)
def _channel_plan(
    freqs: tuple[float, ...], n: int, sample_rate: float, window: str
) -> _ChannelPlan:
    w = _window(window, n)
    t_rel = np.arange(n) / sample_rate
    # One complex temporary: the phases are exponentiated in place.
    kernel = -2j * np.pi * np.outer(np.array(freqs), t_rel)
    np.exp(kernel, out=kernel)
    grid = np.fft.fftfreq(n, d=1.0 / sample_rate)
    nyquist = sample_rate / 2
    bin_width = sample_rate / n
    mask = np.ones(n, dtype=bool)
    for f in freqs:
        mask &= np.abs((grid - f + nyquist) % sample_rate - nyquist) > \
            NOISE_GUARD_BINS * bin_width - bin_width / 2
    for a in (w, kernel, mask):
        a.flags.writeable = False
    return _ChannelPlan(window=w, window_sum=float(w.sum()), kernel=kernel,
                        noise_mask=mask, unit_window=bool(np.all(w == 1)))


def _project(plan: _ChannelPlan, samples: np.ndarray,
             out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Complex channel amplitudes kernel @ (window * x) / window_sum, and
    the windowed trace.  An all-ones window's product is skipped; it
    could change only the sign of a zero sample.

    samples is one trace or a 2-D block of traces, one per row; each
    trace is taken as a column of one (stacked) product with the kernel,
    so a block row's amplitudes equal those of that row alone bit for
    bit.  The amplitudes are written into out when it is given."""
    wx = samples if plan.unit_window else plan.window * samples
    amplitudes = np.matmul(plan.kernel, wx[..., None],
                           out=None if out is None else out[..., None])[..., 0]
    np.divide(amplitudes, plan.window_sum, out=amplitudes)
    return amplitudes, wx


def _noise_std(plan: _ChannelPlan, wx: np.ndarray) -> float:
    """Per-quadrature noise from the off-channel bins of a windowed trace."""
    if not plan.noise_mask.any():
        return float("nan")
    spectrum = np.fft.fft(wx) / plan.window_sum
    return float(np.sqrt(np.mean(np.abs(spectrum[plan.noise_mask]) ** 2) / 2))


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

    An unknown window, or a hann window over fewer than 2 samples, raises
    ConfigError, as in ReadoutSetup.  So does a trace with NaN or
    infinite samples, or with samples so large that the channel sums or
    the noise estimate overflow.

    The window, projection kernel and noise mask depend only on
    (channel frequencies, n_samples, sample_rate, window); they are built
    once per such key and reused from a small cache.  The projection is
    the private projector that _receive also runs on each shot; it
    computes the FFT noise estimate only for acquire, whose
    ToneMeasurements report it.
    """
    if trace.carrier_frequency is not None:
        raise ConfigError("channelize expects a baseband trace; downconvert first")
    freqs = tuple(float(f) for f in channel_frequencies)
    if not freqs:
        raise ConfigError("need at least one channel frequency")
    nyquist = trace.sample_rate / 2
    for f in freqs:
        _check_finite(channel_frequency=f)
        if abs(f) > nyquist:
            raise ConfigError(f"channel at {f:+.6g} Hz exceeds Nyquist {nyquist:.6g} Hz")
    plan = _channel_plan(freqs, trace.n_samples, float(trace.sample_rate), window)
    # The results show a bad sample, so the samples get no pass of their
    # own, here or in _receive's shot loop.
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes, wx = _project(plan, trace.samples)
        noise_std = _noise_std(plan, wx)
    if not (np.isfinite(amplitudes).all()
            and (math.isfinite(noise_std) or not plan.noise_mask.any())):
        samples = _finite(trace.samples, "channelize")
        peak = max(np.abs(samples.real).max(), np.abs(samples.imag).max())
        raise ConfigError(f"trace samples reach {peak:.3g} in I or Q, "
                          "and channelize's sums overflow")

    return [
        ToneMeasurement(
            channel_frequency=f,
            amplitude=float(np.abs(a)),
            phase=float(np.angle(a)),
            noise_std=noise_std,
        )
        for f, a in zip(freqs, amplitudes)
    ]


@dataclass(frozen=True)
class ReadoutSetup:
    """Frozen front-end configuration for multiplexed acquisition.

    Construction rejects, with ConfigError, duplicate device ids, a NaN
    or infinite frequency, rate or amplitude, a negative amplitude, an
    n_samples that is a bool or not an integral count >= 1 (4000.0 is
    kept as 4000), a channel off the acquisition DFT grid (sample_rate /
    n_samples), a channel outside the grid's baseband range
    [-sample_rate/2, sample_rate/2), two channels fewer than
    NOISE_GUARD_BINS bins apart, an unknown window, and a hann window
    over fewer than 2 samples.  Every setup it accepts therefore
    channelizes exactly, and a noiseless, ADC-free acquisition of it is
    computed in closed form as amplitude * S21(channel frequency) (see
    _receive).
    """

    device_ids: tuple[int, ...]
    lo_frequency: float
    baseband_frequencies: tuple[float, ...]
    sample_rate: float = 1e9
    n_samples: int = 4000
    amplitude: float = 0.1
    window: str = "rectangular"

    def __post_init__(self):
        if not self.device_ids:
            raise ConfigError("need at least one device to read out")
        if len(set(self.device_ids)) != len(self.device_ids):
            raise ConfigError(f"duplicate device ids in {tuple(self.device_ids)}")
        if len(self.baseband_frequencies) != len(self.device_ids):
            raise ConfigError(
                f"got {len(self.baseband_frequencies)} channel frequencies for "
                f"{len(self.device_ids)} devices"
            )
        _check_finite(lo_frequency=self.lo_frequency)
        _check_non_negative(amplitude=self.amplitude)
        grid = _acquisition_grid(self.sample_rate, self.n_samples)
        # An integral float count such as 4000.0 is kept as the int it names.
        object.__setattr__(self, "n_samples", int(self.n_samples))
        _check_window(self.window, self.n_samples)
        nyquist = self.sample_rate / 2
        bins = []
        for f in self.baseband_frequencies:
            _check_finite(baseband_frequency=f)
            if not -nyquist <= f < nyquist:
                raise ConfigError(
                    f"channel {f:+.6g} Hz from the LO is beyond Nyquist "
                    f"{nyquist:.6g} Hz; raise sample_rate or move the LO"
                )
            k = round(f / grid)
            if abs(f / grid - k) > GRID_TOLERANCE * max(1, abs(k)):
                raise ConfigError(
                    f"channel {f:+.9g} Hz is off the {grid:.6g} Hz DFT grid"
                )
            bins.append(k)
        # Kept beside the fields, as Chip keeps _axis, for _beyond_band.
        object.__setattr__(self, "_bins", tuple(bins))
        # The closest two channels on the circle of n_samples bins are
        # neighbours in bin order, the last bin's neighbour being the first.
        order = sorted(range(len(bins)), key=bins.__getitem__)
        wrap = order[:1] if len(order) > 1 else []
        for a, b in zip(order, order[1:] + wrap):
            apart = (bins[b] - bins[a]) % self.n_samples
            if apart < NOISE_GUARD_BINS:
                a, b = sorted((a, b))
                raise ConfigError(
                    f"channels {self.baseband_frequencies[a]:+.9g} and "
                    f"{self.baseband_frequencies[b]:+.9g} Hz are {apart} bins "
                    f"apart, fewer than NOISE_GUARD_BINS = {NOISE_GUARD_BINS}"
                )

    @property
    def channel_frequencies(self) -> tuple[float, ...]:
        return tuple(self.lo_frequency + f for f in self.baseband_frequencies)


def _acquisition_grid(sample_rate: float, n_samples: int) -> float:
    """The DFT grid sample_rate / n_samples, after errors._check_count
    checks the count and _check_positive the sample_rate."""
    n_samples = _check_count("n_samples", n_samples)
    _check_positive(sample_rate=sample_rate)
    return sample_rate / n_samples


def _default_lo(frequencies, grid: float) -> float:
    """The default LO: the mean channel frequency snapped to the DFT grid."""
    return float(_grid_offset(float(np.mean(frequencies)), 0.0, grid))


def _beyond_band(setup: ReadoutSetup, adc: AdcSpec | None) -> np.ndarray:
    """Mask of the setup's channels whose DFT bin lies beyond the ADC's
    analog band (none without an ADC or an analog band below Nyquist).
    Bin k's frequency is k * (1.0 / (n * (1.0 / fs))), as np.fft.fftfreq
    computes it, so the mask is adc_quantize's band limit at the channels' bins."""
    fs = float(setup.sample_rate)
    limit = _band_limit(fs, adc)
    step = 1.0 / (setup.n_samples * (1.0 / fs))
    return np.array([limit is not None and abs(k * step) > limit for k in setup._bins])


def _acquire(chip: Chip, setup: ReadoutSetup, states, fluxes, *, adc: AdcSpec | None,
             noise_std: float, streams: Sequence[tuple[int, int]] | None,
             estimate_noise: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The acquisition core: one multiplexed shot per point.

    states[i] holds every chip device's sigma_z at point i (chip order)
    and fluxes[i] is a scalar or one flux per device.  A setup id that
    is not on the chip raises UnknownDeviceError.  One s21_feedline
    call gives every point's channel amplitudes, c = setup.amplitude *
    S21(channel frequencies), and _receive turns them into measured
    ones, with shot i's noise from streams[i], and returns what it
    returns.  s21_feedline is looked up in the device module at call
    time, so that a wrapper put on it (perfbench/tracer.py) sees the
    call.
    """
    for dev_id in setup.device_ids:
        chip._index(dev_id)
    with np.errstate(over="ignore"):  # s21_feedline refuses an infinite probe
        omega = 2 * np.pi * np.array(setup.channel_frequencies)
    c = setup.amplitude * device.s21_feedline(chip, omega, states, fluxes)
    return _receive(setup, c, adc=adc, noise_std=noise_std, streams=streams,
                    estimate_noise=estimate_noise)


def _receive(
    setup: ReadoutSetup,
    c: np.ndarray,
    *,
    adc: AdcSpec | None,
    noise_std: float,
    streams: Sequence[tuple[int, int]] | None,
    estimate_noise: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The receive path of every acquisition: one multiplexed shot per row.

    c[i, k] is the complex amplitude at which channel k of shot i
    arrives, setup.amplitude * S21(channel frequency k).  Every probe
    sits on the DFT grid (ReadoutSetup enforces it) and the chain before
    the noise is linear, so that closed form is exact.  Returns the
    measured complex channel amplitudes, shaped like c, and, only with
    estimate_noise=True, each shot's noise estimate, (n_points,); else
    None.

    Without noise and ADC, c is the result: no trace is built, no
    stream is read, and the noise estimate is 0.0.  Otherwise shot i is
    the received baseband trace sum_k c[i, k] * exp(2 pi i f_k t), built
    from the channelizer's own tones.  An ADC's analog brick wall passes
    such a trace except for the channels whose DFT bin lies beyond it,
    so those are zeroed in c (in place) and the converter runs without
    its FFT band limit.  Noise from the PCG64 stream that starts at
    streams[i], a (state, inc) pair such as seeding._child_states gives
    (streams is read only when noise_std > 0, and may be None
    otherwise), and the ADC's clip and rounding then work in place on
    that trace, the same private steps as add_awgn and adc_quantize, and
    the channelizer's private projector turns it into complex
    amplitudes.  Shot i's trace is c[i] @ tones (the plan keeps the
    tones), and a block of shots is projected by one stacked product
    straight into the result; a stacked product equals the per-row
    products bit for bit.  The tests check this against the composed
    chain synthesize_multitone, upconvert_ssb, apply_feedline,
    downconvert, add_awgn or adc_quantize, channelize.

    The shots run in blocks of a few rows (_SHOT_BLOCK_SAMPLES samples),
    block b on lane b % L of one lanes.run call, and each lane fills a
    block buffer of its own.  Without noise L is 1, and the calling
    thread builds each block's traces by one stacked product, then
    quantizes and projects them.  With noise L is lanes.lane_count(), at
    most the block count:
      - job(lane, b) sets the lane's own Generator to each shot's stream
        in turn and draws the shot's 2n normals into its row of the
        lane's buffer;
      - finish(b), which lanes.run calls on the same lane once block
        b - 1 is finished, scales the block by noise_std in place, adds
        each row's trace (built in a one-row scratch), and quantizes and
        projects the block.  noise_std * z + trace equals trace +
        noise_std * z bit for bit, since IEEE addition commutes.
    So the vector stages run one block at a time, in block order, on the
    lane that drew the block, while the other lanes draw.  The draws
    release the GIL.  On a 2-vCPU VM they ran 1.96 times as fast on two
    threads, and the vector stages 0.98-1.11 times, so those run on one
    lane at a time.  The buffers take 256 kB a lane at n = 4000, so
    512 kB on 2 lanes and 1 MB on 4, and the trace 64 kB.
    A lane that raises ends every other lane's wait, and lanes.run
    raises its failure once every lane has ended.  While more than one
    lane runs, OpenBLAS runs one thread (lanes.one_blas_thread), so that
    its own threads do not compete with the lanes for the cores.  A
    shot's result depends only on its own row and stream, so it is the
    same bit for bit for every lane count and BLAS thread count; the
    clip warnings are logged by the calling thread, one per clipping
    shot, in shot order.

    Shots whose noise or amplitude overflow the float range, and an
    n_samples that numpy cannot allocate, raise ConfigError.
    """
    n_points = c.shape[0]
    noise = np.zeros(n_points) if estimate_noise else None
    if noise_std == 0 and adc is None:
        return c, noise

    n, fs = setup.n_samples, float(setup.sample_rate)
    freqs = tuple(float(f) for f in setup.baseband_frequencies)
    if adc is not None:
        _check_adc_rate(fs, adc)
    if noise_std == 0:
        streams = None
    elif len(streams) != n_points:
        raise ValueError(f"{len(streams)} streams for {n_points} shots")
    rows = max(1, min(n_points, _SHOT_BLOCK_SAMPLES // n))
    n_blocks = -(-n_points // rows)
    # One lane is the calling thread alone, which keeps the caller's BLAS.
    lanes = 1 if streams is None else max(1, min(_lane_count(), n_blocks))
    iq = np.empty_like(c)
    clipped = np.zeros(n_points, dtype=np.int64)
    try:
        plan = _channel_plan(freqs, n, fs, setup.window)
        tones = plan.tones
        c[:, _beyond_band(setup, adc)] = 0.0
        buffers = np.empty((lanes, rows, n), dtype=complex)
        trace = np.empty(n, dtype=complex) if streams is not None else None
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot allocate n_samples = {n}: {exc}") from None
    if streams is not None:
        draws = [list(buffer.view(np.float64).reshape(rows, n, 2)) for buffer in buffers]
        generators = [np.random.Generator(np.random.PCG64(0)) for _ in range(lanes)]

    def fill(lane: int, b: int) -> None:
        """Block b into the lane's buffer: its traces without noise, its
        shots' noise with it."""
        start = b * rows
        k = min(rows, n_points - start)
        if streams is None:
            # An overflow shows in the result, which is checked below.
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(c[start:start + k, None, :], tones, out=buffers[lane, :k, None, :])
            return
        generator, rows_out = generators[lane], draws[lane]
        for r in range(k):
            _set_state(generator, streams[start + r])
            generator.standard_normal(out=rows_out[r])

    def finish(b: int) -> None:
        """Block b, in block order: noise and traces, ADC, projection."""
        start = b * rows
        k = min(rows, n_points - start)
        shots = buffers[b % lanes, :k]
        with np.errstate(over="ignore", invalid="ignore"):
            if streams is not None:
                quad = shots.view(np.float64)
                np.multiply(quad, noise_std, out=quad)
                for r in range(k):
                    np.matmul(c[start + r], tones, out=trace)
                    np.add(trace, shots[r], out=shots[r])
            if adc is not None:
                clipped[start:start + k] = _quantize(shots.view(np.float64), adc)
            _, wx = _project(plan, shots, iq[start:start + k])
            if estimate_noise:
                for r in range(k):
                    noise[start + r] = _noise_std(plan, wx[r])

    with _one_blas_thread() if lanes > 1 else contextlib.nullcontext():
        _run_lanes(fill, finish, n_blocks, lanes)
    if not np.isfinite(iq).all() or (estimate_noise and plan.noise_mask.any()
                                      and not np.isfinite(noise).all()):
        raise ConfigError(f"noise_std {noise_std:g} and amplitude {setup.amplitude:g} take "
                          "the received shots beyond the float range")
    for i in np.flatnonzero(clipped):
        _warn_clipped(int(clipped[i]), 2 * n)
    return iq, noise


def apply_feedline(rf: IQTrace, chip: Chip, states: Sequence[float], fluxes) -> IQTrace:
    """Pass an up-converted trace through the chip's composite feedline.

    The trace is treated as one period of a circular signal: its DFT bins
    are multiplied by S21 evaluated at carrier + bin frequency, with the
    qubit states frozen during the window.  Exact for tones on the DFT
    grid (for any other trace it is the quasi-static filter), so no
    acquisition calls it: they take amplitude * S21(channel frequency)
    in closed form (see _receive), and the tests use this filter, with
    downconvert and the ADC's FFT band limit, as its oracle.
    s21_feedline refuses an infinite probe frequency, and a NaN or inf
    in the result (from the trace or an overflow) raises ConfigError.
    """
    if rf.carrier_frequency is None:
        raise ConfigError("apply_feedline expects an up-converted trace")
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.fft(rf.samples)
        freqs = rf.carrier_frequency + np.fft.fftfreq(rf.n_samples, d=1.0 / rf.sample_rate)
        s21 = device.s21_feedline(chip, 2 * np.pi * freqs, states, fluxes)
        return replace(rf, samples=_finite(np.fft.ifft(spectrum * s21), "apply_feedline"))


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
    """Readout crosstalk of a chip, measured through the receive path.

    Reads the plan's channels out twice, once with every qubit in the
    ground state and once with the toggled device's sigma_z flipped, and
    records each channel's complex amplitude change between the runs
    (the IQ-plane displacement that carries the state information).
    Returns {device_id: 20*log10(|delta_ch| / |delta_toggled|)} for
    every non-toggled channel, floored at CROSSTALK_FLOOR_DB when a
    change underflows (e.g. all couplings zero).

    Both runs go through _acquire, the acquisition core of acquire and
    the sweep drivers, as one batch of two points; both draw their noise
    from the same stream, derive_rng(seed), so noise common to the runs
    cancels in the change.
    The default LO is the channel mean snapped to the DFT grid
    (sample_rate / n_samples).
    The channels and LO must form a valid ReadoutSetup: a channel off
    the grid, beyond Nyquist, or fewer than NOISE_GUARD_BINS bins from
    another raises ConfigError, as does a negative or non-finite
    noise_std, with or without an ADC, a seed that is not an integer in
    [0, 2**128), with or without noise, and a channel beyond the ADC's
    analog band (the receiver never sees it, so its level would be noise
    over noise, or the floor without noise).  A plan id that is not on
    the chip raises UnknownDeviceError.
    """
    _check_noise(noise_std, seed)
    channels = dict(plan.channels)
    if toggled_device not in channels:
        raise UnknownDeviceError(f"device {toggled_device} not in the plan")
    toggled = chip._index(toggled_device)  # raises UnknownDeviceError if absent
    device_ids = tuple(channels)
    freqs_rf = [channels[d] for d in device_ids]
    if lo_frequency is None:
        lo_frequency = _default_lo(freqs_rf, _acquisition_grid(sample_rate, n_samples))
    setup = ReadoutSetup(
        device_ids=device_ids,
        lo_frequency=float(lo_frequency),
        baseband_frequencies=tuple(f - lo_frequency for f in freqs_rf),
        sample_rate=sample_rate,
        n_samples=n_samples,
        amplitude=amplitude,
        window=window,
    )
    cut = _beyond_band(setup, adc)
    if cut.any():
        names = ", ".join(
            f"device {d} at {f:+.6g} Hz"
            for d, f, out in zip(device_ids, setup.baseband_frequencies, cut) if out
        )
        raise ConfigError(
            f"the ADC's {adc.analog_bandwidth:.6g} Hz analog band removes the channel "
            f"of {names} from the LO; crosstalk cannot be measured there"
        )
    # Row 0 has the toggled device excited, row 1 is all ground.
    states = np.full((2, len(chip.devices)), -1.0)
    states[0, toggled] = 1.0
    streams = None
    if noise_std > 0:  # both rows draw from the root stream
        root = derive_rng(seed).bit_generator.state["state"]
        streams = [(root["state"], root["inc"])] * 2
    iq, _ = _acquire(chip, setup, states, [chip._axis.symmetry_flux] * 2, adc=adc,
                     noise_std=noise_std, streams=streams)
    changes = np.abs(iq[0] - iq[1]).tolist()
    own = changes[device_ids.index(toggled_device)]
    scale = max(max(changes), amplitude)
    out: dict[int, float] = {}
    for dev, other in zip(device_ids, changes):
        if dev == toggled_device:
            continue
        if own <= 1e-14 * scale or other <= 1e-14 * own:
            out[dev] = CROSSTALK_FLOOR_DB
        else:
            out[dev] = max(20.0 * math.log10(other / own), CROSSTALK_FLOOR_DB)
    return out
