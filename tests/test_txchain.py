"""Transmit chain: multi-tone synthesis and SSB tagging."""

import math

import numpy as np
import pytest

from fdmsim import (
    ConfigError,
    IQTrace,
    ToneSpec,
    synthesize_multitone,
    trace_energy,
    upconvert_ssb,
)


def test_single_tone_matches_manual_sum():
    tone = ToneSpec(baseband_frequency=12.5e6, amplitude=0.7, phase=0.3)
    trace = synthesize_multitone([tone], 256, sample_rate=1e9)
    t = np.arange(256) / 1e9
    manual = 0.7 * np.exp(1j * (2 * np.pi * 12.5e6 * t + 0.3))
    np.testing.assert_allclose(trace.samples, manual, rtol=1e-13)
    assert trace.sample_rate == 1e9
    assert trace.carrier_frequency is None


def test_multitone_is_linear_superposition():
    tones = [
        ToneSpec(baseband_frequency=-40e6, amplitude=0.2, phase=1.0),
        ToneSpec(baseband_frequency=10e6, amplitude=0.5),
        ToneSpec(baseband_frequency=110e6, amplitude=0.1, phase=-2.0),
    ]
    combined = synthesize_multitone(tones, 512, sample_rate=1e9)
    total = np.zeros(512, dtype=complex)
    for tone in tones:
        total += synthesize_multitone([tone], 512, sample_rate=1e9).samples
    np.testing.assert_allclose(combined.samples, total, rtol=1e-13)


def test_nyquist_violation_names_the_tone():
    tones = [
        ToneSpec(baseband_frequency=10e6),
        ToneSpec(baseband_frequency=600e6),
    ]
    with pytest.raises(ConfigError, match="tone 1"):
        synthesize_multitone(tones, 64, sample_rate=1e9)


def test_negative_frequencies_allowed_up_to_nyquist():
    trace = synthesize_multitone(
        [ToneSpec(baseband_frequency=-499e6)], 64, sample_rate=1e9
    )
    assert trace.n_samples == 64


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["baseband_frequency", "amplitude", "phase"])
def test_tone_spec_rejects_non_finite_fields(field, bad):
    fields = {**dict(baseband_frequency=12.5e6, amplitude=0.5, phase=0.1), field: bad}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ToneSpec(**fields)


def test_upconvert_tags_carrier_without_touching_samples():
    base = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9)
    rf = upconvert_ssb(base, 9.6e9)
    assert rf.carrier_frequency == 9.6e9
    np.testing.assert_array_equal(rf.samples, base.samples)


def test_upconvert_rejects_double_conversion_and_low_lo():
    base = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9)
    rf = upconvert_ssb(base, 9.6e9)
    with pytest.raises(ConfigError, match="already up-converted"):
        upconvert_ssb(rf, 9.7e9)
    with pytest.raises(ConfigError):
        upconvert_ssb(base, 400e6)  # below the baseband Nyquist span


def test_trace_energy_is_sum_of_squared_magnitudes():
    trace = IQTrace(samples=np.array([1 + 1j, 2.0, -1j]), sample_rate=2.0)
    assert trace_energy(trace) == pytest.approx(2 + 4 + 1)


def test_trace_validation():
    with pytest.raises(ConfigError):
        IQTrace(samples=np.zeros((2, 2), dtype=complex), sample_rate=1e9)
    with pytest.raises(ConfigError):
        IQTrace(samples=np.array([], dtype=complex), sample_rate=1e9)
    with pytest.raises(ConfigError):
        IQTrace(samples=np.array([1j]), sample_rate=0.0)
    for rate in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="sample_rate must be finite"):
            IQTrace(samples=np.array([1j]), sample_rate=rate)
    with pytest.raises(ConfigError):
        ToneSpec(baseband_frequency=1e6, amplitude=-0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo", [math.nan, math.inf, -math.inf])
def test_upconvert_refuses_a_non_finite_lo(lo):
    base = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9)
    with pytest.raises(ConfigError, match="lo_frequency must be finite"):
        upconvert_ssb(base, lo)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_samples", [100.5, True, 0, math.nan, 1e308])
def test_synthesize_refuses_a_count_it_cannot_build(n_samples):
    with pytest.raises(ConfigError, match="n_samples"):
        synthesize_multitone([ToneSpec(baseband_frequency=10e6)], n_samples, 1e9)


def test_synthesize_keeps_an_integral_float_count():
    tones = [ToneSpec(baseband_frequency=10e6)]
    np.testing.assert_array_equal(synthesize_multitone(tones, 64.0, 1e9).samples,
                                  synthesize_multitone(tones, 64, 1e9).samples)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sample", [1e200, math.nan, math.inf])
def test_trace_energy_refuses_a_sum_that_is_not_finite(sample):
    with pytest.raises(ConfigError, match="trace_energy must be finite"):
        trace_energy(IQTrace(samples=np.array([1.0, sample]), sample_rate=1e9))
