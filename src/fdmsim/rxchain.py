"""Receive chain: homodyne down-conversion, ADC, DFT channelizer.

The receiver is homodyne: it reuses the transmit LO, so down-conversion
is a carrier-tag removal plus one fixed phase rotation.  All noise in
the chain is lumped into a single additive white Gaussian stage at the
ADC input; the amplifier chain is a pure scalar gain applied by the
caller.

This module also owns the one receive path of every acquisition: a
ReadoutSetup and its shot loop, _receive, which turns a table of
closed-form channel amplitudes into measured ones.  The sweep drivers
in experiments and measure_crosstalk both run through it; the public
stages (synthesize_multitone through channelize) serve the tests as its
oracle.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .device import Chip
from .errors import ConfigError, LoMismatchError, NyquistError, UnknownDeviceError, _check_finite
from .lanes import lane_count as _lane_count, one_blas_thread as _one_blas_thread, run as _run_lanes
from .planner import _grid_offset
from .seeding import _check_root_seed, _set_state, derive_rng
from .txchain import IQTrace, synthesize_multitone, upconvert_ssb

# synthesize_multitone and upconvert_ssb are not called in this module.
# They stay bound here because perfbench/tracer.py wraps each stage by
# its attribute in this namespace.

logger = logging.getLogger(__name__)

# Off-channel bins within this many bins of a channel are excluded from
# the noise estimate (covers the hann main lobe).
NOISE_GUARD_BINS = 3

# Samples per block of noisy shots: 4 rows at the default n = 4000, 256 kB
# per lane.  One-row blocks were 30 % slower on two lanes, 8-row blocks
# 5 % faster for 1 MB more memory.
_SHOT_BLOCK_SAMPLES = 1 << 14

# Largest offset, in bins per bin index, at which a ReadoutSetup channel
# still counts as on the DFT grid.
GRID_TOLERANCE = 1e-14


@dataclass(frozen=True)
class AdcSpec:
    """Digitizer model: sample_rate (S/s), bits, full_scale (per quadrature),
    optional analog_bandwidth (Hz, one-sided brick wall before sampling).

    Raises ConfigError for a field that is NaN or infinite, bits that are
    a bool or not an integer in [1, 32], and a sample_rate, full_scale or
    analog_bandwidth that is not > 0."""

    sample_rate: float
    bits: int
    full_scale: float
    analog_bandwidth: float | None = None

    def __post_init__(self):
        _check_finite(sample_rate=self.sample_rate, bits=self.bits,
                      full_scale=self.full_scale)
        if self.analog_bandwidth is not None:
            _check_finite(analog_bandwidth=self.analog_bandwidth)
            if self.analog_bandwidth <= 0:
                raise ConfigError(
                    f"ADC analog_bandwidth must be > 0, got {self.analog_bandwidth}"
                )
        if self.sample_rate <= 0:
            raise ConfigError(f"ADC sample_rate must be > 0, got {self.sample_rate}")
        # bool is an int; True would build a 1-bit converter.
        if isinstance(self.bits, bool) or self.bits != int(self.bits) \
                or not 1 <= self.bits <= 32:
            raise ConfigError(f"ADC bits must be an integer in [1, 32], got {self.bits}")
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
    _check_noise_std(noise_std)
    if noise_std == 0:
        return trace
    samples = trace.samples.copy()
    _add_noise(_quadratures(samples), noise_std, seed)
    return replace(trace, samples=samples)


def _check_noise_std(noise_std: float) -> None:
    """Raise ConfigError unless noise_std is finite and >= 0."""
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ConfigError(f"noise_std must be finite and >= 0, got {noise_std}")


def _check_noise(noise_std: float, seed: int) -> None:
    """Raise ConfigError unless noise_std is finite and >= 0 and seed is
    an integer root seed in [0, 2**128).  The acquisitions check both
    whether or not they draw noise, so that what they record names a run
    that could have been made."""
    _check_noise_std(noise_std)
    _check_root_seed(seed)


def _quadratures(samples: np.ndarray) -> np.ndarray:
    """(n, 2) float64 view of a contiguous complex128 trace: re, im per row."""
    return samples.view(np.float64).reshape(-1, 2)


def _add_noise(quad: np.ndarray, noise_std: float, seed: int) -> None:
    """Add seeded white Gaussian noise to interleaved quadratures in place."""
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
    rail = min(float(np.rint(fs / step)), float(2 ** (int(adc.bits) - 1)))
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
    Clipped samples are counted and logged.  The input trace is left as
    it is: its samples are copied once (or band-limited into a fresh
    array) and the noise, clip and rounding then work in place on that
    copy, the same private steps _receive runs on each shot's trace.
    """
    _check_adc_rate(trace.sample_rate, adc)
    _check_noise_std(noise_std)
    samples = trace.samples
    if adc.analog_bandwidth is not None and adc.analog_bandwidth < trace.sample_rate / 2:
        spectrum = np.fft.fft(samples)
        freqs = np.fft.fftfreq(samples.size, d=1.0 / trace.sample_rate)
        spectrum[np.abs(freqs) > adc.analog_bandwidth] = 0.0
        samples = np.fft.ifft(spectrum)
    else:
        samples = samples.copy()
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
        if abs(f) > nyquist:
            raise NyquistError(f"channel at {f:+.6g} Hz exceeds Nyquist {nyquist:.6g} Hz")
    plan = _channel_plan(freqs, trace.n_samples, float(trace.sample_rate), window)
    # The results show a bad sample, so the samples get no pass of their
    # own, here or in _receive's shot loop.
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes, wx = _project(plan, trace.samples)
        noise_std = _noise_std(plan, wx)
    if not (np.isfinite(amplitudes).all()
            and (math.isfinite(noise_std) or not plan.noise_mask.any())):
        samples = trace.samples
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise ConfigError(f"trace has {bad.size} non-finite (NaN or inf) sample(s), "
                              f"the first at index {bad[0]}")
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
    n_samples that is not an integral count >= 1 (4000.0 is kept as
    4000), a channel off the acquisition DFT grid (sample_rate /
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
        _check_finite(lo_frequency=self.lo_frequency, sample_rate=self.sample_rate,
                      amplitude=self.amplitude)
        if not self.sample_rate > 0:
            raise ConfigError(f"need sample_rate > 0, got {self.sample_rate}")
        if self.amplitude < 0:
            raise ConfigError(f"amplitude must be >= 0, got {self.amplitude}")
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
    """The DFT grid sample_rate / n_samples, after checking the count:
    fewer than one sample, or a count that is not integral (4000.5, NaN,
    inf), raises ConfigError; an integral float such as 4000.0 passes.
    A bad sample_rate gives a bad grid, which _grid_offset and
    ReadoutSetup reject."""
    if not (n_samples >= 1 and float(n_samples).is_integer()):
        raise ConfigError(f"need an integral n_samples >= 1, got {n_samples}")
    return sample_rate / n_samples


def _default_lo(frequencies, grid: float) -> float:
    """The default LO: the mean channel frequency snapped to the DFT grid."""
    return float(_grid_offset(float(np.mean(frequencies)), 0.0, grid))


def _beyond_band(setup: ReadoutSetup, adc: AdcSpec | None) -> np.ndarray:
    """Mask of the setup's channels whose DFT bin lies beyond the ADC's
    analog band (none without an ADC or an analog band below Nyquist)."""
    n, fs = setup.n_samples, float(setup.sample_rate)
    if adc is None or adc.analog_bandwidth is None or adc.analog_bandwidth >= fs / 2:
        return np.zeros(len(setup.baseband_frequencies), dtype=bool)
    grid = np.fft.fftfreq(n, d=1.0 / fs)
    bins = [round(f / (fs / n)) % n for f in setup.baseband_frequencies]
    return np.abs(grid[bins]) > adc.analog_bandwidth


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
    amplitudes.  A block's traces are built by one stacked product,
    c[i] @ tones for each of its rows (the plan keeps the tones), and
    projected by one stacked product straight into the result; both
    equal the per-row products bit for bit.  The tests
    check this against the composed chain synthesize_multitone,
    upconvert_ssb, apply_feedline, downconvert, add_awgn or
    adc_quantize, channelize.

    The shots run in blocks of a few rows (_SHOT_BLOCK_SAMPLES samples)
    on up to lanes.lane_count() lanes, scheduled by lanes.run.  The
    calling thread allocates every buffer, and each row's quadrature
    view, before a lane starts: each lane owns one block, one draw
    scratch and one Generator, set to a shot's state before its draw.
    The draws, products, quantizer and projector release the GIL, so the
    lanes overlap.  While more than one lane runs, OpenBLAS runs one
    thread (lanes.one_blas_thread), so that its own threads do not
    compete with the lanes for the cores.  A shot's result depends only
    on its own row and stream, so it is the same bit for bit for every
    lane count and BLAS thread count; the clip warnings are logged by
    the calling thread, one per clipping shot, in shot order.
    """
    _check_noise_std(noise_std)
    n_points = c.shape[0]
    noise = np.zeros(n_points) if estimate_noise else None
    if noise_std == 0 and adc is None:
        return c, noise

    n, fs = setup.n_samples, float(setup.sample_rate)
    freqs = tuple(float(f) for f in setup.baseband_frequencies)
    if adc is not None:
        _check_adc_rate(fs, adc)
    plan = _channel_plan(freqs, n, fs, setup.window)
    tones = plan.tones
    c[:, _beyond_band(setup, adc)] = 0.0
    if noise_std == 0:
        streams = None
    elif len(streams) != n_points:
        raise ValueError(f"{len(streams)} streams for {n_points} shots")
    rows = max(1, min(n_points, _SHOT_BLOCK_SAMPLES // n))
    n_blocks = -(-n_points // rows)
    lanes = max(1, min(_lane_count(), n_blocks))
    iq = np.empty_like(c)
    clipped = np.zeros(n_points, dtype=np.int64)
    blocks = [np.empty((rows, n), dtype=complex) for _ in range(lanes)]
    quads = [list(block.view(np.float64).reshape(rows, n, 2)) for block in blocks]
    draws = [np.empty((n, 2)) for _ in range(lanes)]
    generators = [np.random.Generator(np.random.PCG64(0)) for _ in range(lanes)]

    def run_block(lane: int, i: int) -> None:
        block, draw, generator = blocks[lane], draws[lane], generators[lane]
        start = i * rows
        k = min(rows, n_points - start)
        np.matmul(c[start:start + k, None, :], tones, out=block[:k, None, :])
        if streams is not None:
            for state, quad in zip(streams[start:start + k], quads[lane]):
                _set_state(generator, state)
                generator.standard_normal(out=draw)
                # Generator.normal(0.0, std) draws 0.0 + std * z.
                np.multiply(draw, noise_std, out=draw)
                np.add(draw, 0.0, out=draw)
                np.add(quad, draw, out=quad)
        if adc is not None:
            clipped[start:start + k] = _quantize(block[:k].view(np.float64), adc)
        _, wx = _project(plan, block[:k], iq[start:start + k])
        if estimate_noise:
            for r in range(k):
                noise[start + r] = _noise_std(plan, wx[r])

    # One lane is the calling thread alone, which keeps the caller's BLAS.
    with _one_blas_thread() if lanes > 1 else contextlib.nullcontext():
        _run_lanes(run_block, n_blocks, lanes)
    for i in np.flatnonzero(clipped):
        _warn_clipped(int(clipped[i]), 2 * n)
    return iq, noise


def apply_feedline(rf: IQTrace, chip: Chip, states: Sequence[float], fluxes) -> IQTrace:
    """Pass an up-converted trace through the chip's composite feedline.

    The trace is treated as one period of a circular signal: its DFT bins
    are multiplied by S21 evaluated at carrier + bin frequency, with the
    qubit states frozen during the window.  Exact for tones on the DFT
    grid; for any other trace it is the quasi-static frequency-domain
    filter.  Because of that exactness no acquisition calls this
    filter: acquire, the sweep drivers and measure_crosstalk take
    amplitude * S21(channel frequency) in closed form, as the result of
    a noiseless, ADC-free shot and as the tone amplitudes of the
    received trace that noise or the ADC act on (see _receive).  This
    full filter, with downconvert and the ADC's FFT band limit, serves
    the tests as the oracle of both.
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
    """Readout crosstalk of a chip, measured through the receive path.

    Reads the plan's channels out twice, once with every qubit in the
    ground state and once with the toggled device's sigma_z flipped, and
    records each channel's complex amplitude change between the runs
    (the IQ-plane displacement that carries the state information).
    Returns {device_id: 20*log10(|delta_ch| / |delta_toggled|)} for
    every non-toggled channel, floored at CROSSTALK_FLOOR_DB when a
    change underflows (e.g. all couplings zero).

    Both runs come from one batched s21_feedline call at the channel
    frequencies and go through _receive, the receive path of acquire and
    the sweep drivers; both draw their noise from the same stream,
    derive_rng(seed), so noise common to the runs cancels in the change.
    The default LO is the channel mean snapped to the DFT grid
    (sample_rate / n_samples).
    The channels and LO must form a valid ReadoutSetup: a channel off
    the grid, beyond Nyquist, or fewer than NOISE_GUARD_BINS bins from
    another raises ConfigError, as does a negative or non-finite
    noise_std, with or without an ADC, a seed that is not an integer in
    [0, 2**128), with or without noise, and a channel beyond the ADC's
    analog band (the receiver never sees it, so its level would be noise
    over noise, or the floor without noise).
    """
    # Looked up at call time, as in apply_feedline, so that a wrapper put
    # on device.s21_feedline (perfbench/tracer.py) sees the call.
    from .device import s21_feedline

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
    omega = 2 * np.pi * np.array(setup.channel_frequencies)
    c = amplitude * s21_feedline(chip, omega, states, [chip._axis.symmetry_flux] * 2)
    streams = None
    if noise_std > 0:  # both rows draw from the root stream
        root = derive_rng(seed).bit_generator.state["state"]
        streams = [(root["state"], root["inc"])] * 2
    iq, _ = _receive(setup, c, adc=adc, noise_std=noise_std, streams=streams)
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
