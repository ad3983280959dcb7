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

from .errors import ConfigError, _check_count, _check_finite, _check_non_negative, _check_positive


DEFAULT_SAMPLE_RATE = 1e9  # complex samples per second


@dataclass(frozen=True)
class ToneSpec:
    """One baseband tone: signed frequency (Hz), amplitude, phase (rad)."""

    baseband_frequency: float
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        _check_finite(baseband_frequency=self.baseband_frequency, phase=self.phase)
        _check_non_negative(amplitude=self.amplitude)


@dataclass(frozen=True)
class IQTrace:
    """Complex envelope samples at a fixed rate.

    carrier_frequency is None for baseband traces and set (Hz) once the
    trace has been up-converted.
    """

    samples: np.ndarray
    sample_rate: float
    carrier_frequency: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigError("IQTrace needs a non-empty 1-d sample array")
        _check_positive(sample_rate=self.sample_rate)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)


def _finite(samples: np.ndarray, stage: str) -> np.ndarray:
    """The samples, after a ConfigError naming the stage, the count of NaN
    or infinite samples and the first of them, if there are any."""
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ConfigError(f"{stage}: {bad.size} non-finite sample(s), the first at index {bad[0]}")
    return samples


def synthesize_multitone(tones: Sequence[ToneSpec], n_samples: int,
                         sample_rate: float = DEFAULT_SAMPLE_RATE) -> IQTrace:
    """Sum of constant complex tones.

    sample[n] = sum_k a_k exp(i (2 pi f_k n / sample_rate + phi_k)).

    ConfigError for an n_samples that is a bool, not an integral count
    >= 1 (64.0 is kept as 64) or too large to allocate, a sample_rate
    that is not finite and > 0, tone amplitudes whose sum overflows, and
    (naming the first) a tone whose |frequency| exceeds sample_rate / 2.
    """
    n_samples = _check_count("n_samples", n_samples)
    _check_positive(sample_rate=sample_rate)
    _check_finite(amplitude_sum=sum(tone.amplitude for tone in tones))
    for k, tone in enumerate(tones):
        if abs(tone.baseband_frequency) > sample_rate / 2:
            raise ConfigError(f"tone {k} at {tone.baseband_frequency:+.6g} Hz exceeds the "
                              f"Nyquist limit {sample_rate / 2:.6g} Hz")
    try:
        t = np.arange(n_samples) / sample_rate
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot allocate n_samples = {n_samples}: {exc}") from None
    acc = np.zeros(n_samples, dtype=complex)
    for tone in tones:
        acc += tone.amplitude * np.exp(1j * (2 * np.pi * tone.baseband_frequency * t + tone.phase))
    return IQTrace(samples=acc, sample_rate=sample_rate)


def upconvert_ssb(baseband: IQTrace, lo_frequency: float) -> IQTrace:
    """Tag a baseband trace with its carrier (ideal single-sideband mixer).

    The complex envelope is unchanged: a tone at +f becomes the single
    spectral line at lo+f, with no image at lo-f.  Requires a baseband
    input and an LO above the representable baseband span, so every tone
    lands at a positive physical frequency, and finite samples.
    """
    if baseband.carrier_frequency is not None:
        raise ConfigError("upconvert_ssb expects a baseband trace; it is already up-converted")
    _check_finite(lo_frequency=lo_frequency)
    if lo_frequency <= baseband.sample_rate / 2:
        raise ConfigError(
            f"lo_frequency {lo_frequency:.6g} Hz must exceed the baseband "
            f"Nyquist span {baseband.sample_rate / 2:.6g} Hz"
        )
    return replace(baseband, samples=_finite(baseband.samples, "upconvert_ssb"),
                   carrier_frequency=lo_frequency)


def trace_energy(trace: IQTrace) -> float:
    """Sum of |sample|^2 (discrete energy, Parseval-comparable); a sum
    that is not finite (a NaN or inf sample, or an overflow) raises
    ConfigError."""
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(np.sum(np.abs(trace.samples) ** 2))
    _check_finite(trace_energy=energy)
    return energy
