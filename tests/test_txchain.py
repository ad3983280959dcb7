"""Transmit chain: multi-tone synthesis, envelopes, SSB tagging, combining."""

import math

import numpy as np
import pytest

from fdmsim import (
    ConfigError,
    EnvelopeShape,
    IQTrace,
    NyquistError,
    PulseEnvelope,
    ToneSpec,
    TraceMismatchError,
    combine,
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
    with pytest.raises(NyquistError, match="tone 1"):
        synthesize_multitone(tones, 64, sample_rate=1e9)


def test_negative_frequencies_allowed_up_to_nyquist():
    trace = synthesize_multitone(
        [ToneSpec(baseband_frequency=-499e6)], 64, sample_rate=1e9
    )
    assert trace.n_samples == 64


def test_start_time_offsets_the_phase():
    tone = ToneSpec(baseband_frequency=25e6)
    shifted = synthesize_multitone([tone], 128, sample_rate=1e9, start_time=1e-6)
    base = synthesize_multitone([tone], 128, sample_rate=1e9)
    rotation = np.exp(1j * 2 * np.pi * 25e6 * 1e-6)
    np.testing.assert_allclose(shifted.samples, base.samples * rotation, rtol=1e-12)


def test_rectangular_envelope_gates_the_pulse():
    env = PulseEnvelope(
        shape=EnvelopeShape.RECTANGULAR,
        duration=1e-6,
        edge_time=0.0,
        repetition_period=4e-6,
    )
    t = np.array([0.0, 0.5e-6, 0.99e-6, 1.5e-6, 3.9e-6, 4.2e-6])
    np.testing.assert_allclose(env.evaluate(t), [1, 1, 1, 0, 0, 1])


def test_raised_cosine_edges_are_smooth_and_bounded():
    env = PulseEnvelope(
        shape=EnvelopeShape.RAISED_COSINE,
        duration=1e-6,
        edge_time=100e-9,
        repetition_period=4e-6,
    )
    t = np.linspace(0, 4e-6, 4001)
    v = env.evaluate(t)
    assert np.all(v >= 0) and np.all(v <= 1 + 1e-12)
    # half amplitude at the middle of each edge
    assert env.evaluate(np.array([50e-9]))[0] == pytest.approx(0.5, abs=1e-9)
    assert env.evaluate(np.array([1e-6 - 50e-9]))[0] == pytest.approx(0.5, abs=1e-9)
    # flat top between the edges
    assert env.evaluate(np.array([0.5e-6]))[0] == pytest.approx(1.0, abs=1e-12)


def test_envelope_validation():
    with pytest.raises(ConfigError):
        PulseEnvelope(
            shape=EnvelopeShape.RAISED_COSINE,
            duration=1e-6,
            edge_time=0.6e-6,  # edges overlap
            repetition_period=4e-6,
        )
    with pytest.raises(ConfigError):
        PulseEnvelope(
            shape=EnvelopeShape.RECTANGULAR,
            duration=5e-6,
            edge_time=0.0,
            repetition_period=4e-6,  # shorter than the pulse
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["baseband_frequency", "amplitude", "phase"])
def test_tone_spec_rejects_non_finite_fields(field, bad):
    fields = {**dict(baseband_frequency=12.5e6, amplitude=0.5, phase=0.1), field: bad}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ToneSpec(**fields)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["duration", "edge_time", "repetition_period"])
def test_pulse_envelope_rejects_non_finite_fields(field, bad):
    fields = {**dict(duration=1e-6, edge_time=0.1e-6, repetition_period=4e-6), field: bad}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        PulseEnvelope(shape=EnvelopeShape.RAISED_COSINE, **fields)


def test_upconvert_tags_carrier_without_touching_samples():
    base = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9)
    rf = upconvert_ssb(base, 9.6e9)
    assert rf.carrier_frequency == 9.6e9
    np.testing.assert_array_equal(rf.samples, base.samples)


def test_upconvert_rejects_double_conversion_and_low_lo():
    base = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9)
    rf = upconvert_ssb(base, 9.6e9)
    with pytest.raises(TraceMismatchError):
        upconvert_ssb(rf, 9.7e9)
    with pytest.raises(ConfigError):
        upconvert_ssb(base, 400e6)  # below the baseband Nyquist span


def test_combine_sums_with_gains():
    a = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9)
    b = synthesize_multitone([ToneSpec(baseband_frequency=20e6)], 64, 1e9)
    out = combine([a, b], gains=[0.5, 2.0])
    np.testing.assert_allclose(out.samples, 0.5 * a.samples + 2.0 * b.samples, rtol=1e-13)


def test_combine_rejects_mismatched_traces():
    a = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9)
    b = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 128, 1e9)
    with pytest.raises(TraceMismatchError):
        combine([a, b])
    c = synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 2e9)
    with pytest.raises(TraceMismatchError):
        combine([a, c])
    d = upconvert_ssb(synthesize_multitone([ToneSpec(baseband_frequency=10e6)], 64, 1e9), 9e9)
    with pytest.raises(TraceMismatchError):
        combine([a, d])


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
    with pytest.raises(ConfigError):
        ToneSpec(baseband_frequency=1e6, amplitude=-0.5)
