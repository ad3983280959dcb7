"""Multi-tone synthesis and single-sideband up-conversion.

Signals are complex baseband envelopes.  Up-conversion never resamples
to the carrier rate: it only tags the trace with its carrier frequency,
since the complex envelope already encodes the single sideband exactly
(a tone at +f maps to carrier+f and nothing appears at carrier-f).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, NyquistError, TraceMismatchError, _check_finite


class EnvelopeShape(enum.Enum):
    RECTANGULAR = "rectangular"
    RAISED_COSINE = "raised-cosine-edges"


DEFAULT_SAMPLE_RATE = 1e9  # complex samples per second
DEFAULT_REPETITION_PERIOD = 10e-6  # readout pulses fire every 10 us
DEFAULT_EDGE_TIME = 20e-9


@dataclass(frozen=True)
class ToneSpec:
    """One baseband tone: signed frequency (Hz), amplitude, phase (rad)."""

    baseband_frequency: float
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        _check_finite(baseband_frequency=self.baseband_frequency, amplitude=self.amplitude,
                      phase=self.phase)
        if self.amplitude < 0:
            raise ConfigError(f"tone amplitude must be >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class PulseEnvelope:
    """Periodic pulse envelope: flat top with optional raised-cosine edges.

    duration: seconds of nonzero envelope per period.
    edge_time: rise/fall time, 0 <= edge_time <= duration/2 (ignored for
    rectangular pulses).  repetition_period >= duration.
    """

    shape: EnvelopeShape = EnvelopeShape.RECTANGULAR
    duration: float = 4e-6
    edge_time: float = DEFAULT_EDGE_TIME
    repetition_period: float = DEFAULT_REPETITION_PERIOD

    def __post_init__(self):
        _check_finite(duration=self.duration, edge_time=self.edge_time,
                      repetition_period=self.repetition_period)
        if self.duration <= 0:
            raise ConfigError(f"envelope duration must be > 0, got {self.duration}")
        if not 0 <= self.edge_time <= self.duration / 2:
            raise ConfigError(
                f"edge_time must lie in [0, duration/2], got {self.edge_time}"
            )
        if self.repetition_period < self.duration:
            raise ConfigError(
                f"repetition_period {self.repetition_period} < duration {self.duration}"
            )

    def evaluate(self, t) -> np.ndarray:
        """Envelope value at time(s) t (seconds), periodic in the repetition period."""
        tau = np.asarray(t, dtype=float) % self.repetition_period
        env = np.zeros_like(tau)
        inside = tau < self.duration
        if self.shape is EnvelopeShape.RECTANGULAR or self.edge_time == 0:
            env[inside] = 1.0
            return env
        te = self.edge_time
        rising = inside & (tau < te)
        falling = inside & (tau > self.duration - te)
        flat = inside & ~rising & ~falling
        env[flat] = 1.0
        env[rising] = 0.5 * (1 - np.cos(np.pi * tau[rising] / te))
        env[falling] = 0.5 * (1 - np.cos(np.pi * (self.duration - tau[falling]) / te))
        return env


@dataclass(frozen=True)
class IQTrace:
    """Complex envelope samples at a fixed rate.

    carrier_frequency is None for baseband traces and set (Hz) once the
    trace has been up-converted.
    """

    samples: np.ndarray
    sample_rate: float
    start_time: float = 0.0
    carrier_frequency: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigError("IQTrace needs a non-empty 1-d sample array")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be > 0, got {self.sample_rate}")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.n_samples) / self.sample_rate


def synthesize_multitone(
    tones: Sequence[ToneSpec],
    n_samples: int,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    envelope: PulseEnvelope | None = None,
    start_time: float = 0.0,
) -> IQTrace:
    """Sum of complex tones under a common envelope.

    sample[n] = env(t_n) * sum_k a_k exp(i (2 pi f_k t_n + phi_k)),
    t_n = start_time + n / sample_rate.

    Raises NyquistError naming the first offending tone whose |frequency|
    exceeds sample_rate / 2.
    """
    if n_samples <= 0:
        raise ConfigError(f"n_samples must be > 0, got {n_samples}")
    for k, tone in enumerate(tones):
        if abs(tone.baseband_frequency) > sample_rate / 2:
            raise NyquistError(
                f"tone {k} at {tone.baseband_frequency:+.6g} Hz exceeds the "
                f"Nyquist limit {sample_rate / 2:.6g} Hz"
            )
    t = start_time + np.arange(n_samples) / sample_rate
    acc = np.zeros(n_samples, dtype=complex)
    for tone in tones:
        acc += tone.amplitude * np.exp(1j * (2 * np.pi * tone.baseband_frequency * t + tone.phase))
    if envelope is not None:
        acc *= envelope.evaluate(t)
    return IQTrace(samples=acc, sample_rate=sample_rate, start_time=start_time)


def upconvert_ssb(baseband: IQTrace, lo_frequency: float) -> IQTrace:
    """Tag a baseband trace with its carrier (ideal single-sideband mixer).

    The complex envelope is unchanged: a tone at +f becomes the single
    spectral line at lo+f, with no image at lo-f.  Requires a baseband
    input and an LO above the representable baseband span, so every tone
    lands at a positive physical frequency.
    """
    if baseband.carrier_frequency is not None:
        raise TraceMismatchError("trace is already up-converted")
    if lo_frequency <= baseband.sample_rate / 2:
        raise ConfigError(
            f"lo_frequency {lo_frequency:.6g} Hz must exceed the baseband "
            f"Nyquist span {baseband.sample_rate / 2:.6g} Hz"
        )
    return replace(baseband, carrier_frequency=lo_frequency)


def combine(traces: Sequence[IQTrace], gains: Sequence[float] | None = None) -> IQTrace:
    """Pointwise sum of traces with optional per-input scalar gains.

    All traces must share sample rate, length, start time and carrier;
    anything else raises TraceMismatchError.
    """
    if not traces:
        raise ConfigError("combine needs at least one trace")
    if gains is None:
        gains = [1.0] * len(traces)
    if len(gains) != len(traces):
        raise ConfigError(f"got {len(gains)} gains for {len(traces)} traces")
    head = traces[0]
    for tr in traces[1:]:
        if tr.sample_rate != head.sample_rate:
            raise TraceMismatchError(
                f"sample rate mismatch: {tr.sample_rate} vs {head.sample_rate}"
            )
        if tr.n_samples != head.n_samples:
            raise TraceMismatchError(f"length mismatch: {tr.n_samples} vs {head.n_samples}")
        if tr.start_time != head.start_time:
            raise TraceMismatchError(f"start time mismatch: {tr.start_time} vs {head.start_time}")
        if tr.carrier_frequency != head.carrier_frequency:
            raise TraceMismatchError(
                f"carrier mismatch: {tr.carrier_frequency} vs {head.carrier_frequency}"
            )
    acc = np.zeros(head.n_samples, dtype=complex)
    for gain, tr in zip(gains, traces):
        acc += gain * tr.samples
    return replace(head, samples=acc)


def trace_energy(trace: IQTrace) -> float:
    """Sum of |sample|^2 (discrete energy, Parseval-comparable)."""
    return float(np.sum(np.abs(trace.samples) ** 2))
