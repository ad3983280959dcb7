"""Multi-tone synthesis and single-sideband up-conversion.

The transmit side of the readout: a comb of constant tones, one per
channel, summed into one trace and read over one window.  Acquisitions
compute what such a comb gives in closed form (see rxchain._receive);
these stages build the trace that the tests pass through the full chain
as the oracle of that closed form.

Signals are complex baseband envelopes.  Up-conversion never resamples
to the carrier rate: it only tags the trace with its carrier frequency,
since the complex envelope already encodes the single sideband exactly
(a tone at +f maps to carrier+f and nothing appears at carrier-f).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, NyquistError, _check_finite


DEFAULT_SAMPLE_RATE = 1e9  # complex samples per second


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
        _check_finite(sample_rate=self.sample_rate)
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
    start_time: float = 0.0,
) -> IQTrace:
    """Sum of constant complex tones.

    sample[n] = sum_k a_k exp(i (2 pi f_k t_n + phi_k)),
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
    return IQTrace(samples=acc, sample_rate=sample_rate, start_time=start_time)


def upconvert_ssb(baseband: IQTrace, lo_frequency: float) -> IQTrace:
    """Tag a baseband trace with its carrier (ideal single-sideband mixer).

    The complex envelope is unchanged: a tone at +f becomes the single
    spectral line at lo+f, with no image at lo-f.  Requires a baseband
    input and an LO above the representable baseband span, so every tone
    lands at a positive physical frequency.
    """
    if baseband.carrier_frequency is not None:
        raise ConfigError("upconvert_ssb expects a baseband trace; it is already up-converted")
    if lo_frequency <= baseband.sample_rate / 2:
        raise ConfigError(
            f"lo_frequency {lo_frequency:.6g} Hz must exceed the baseband "
            f"Nyquist span {baseband.sample_rate / 2:.6g} Hz"
        )
    return replace(baseband, carrier_frequency=lo_frequency)


def trace_energy(trace: IQTrace) -> float:
    """Sum of |sample|^2 (discrete energy, Parseval-comparable)."""
    return float(np.sum(np.abs(trace.samples) ** 2))
