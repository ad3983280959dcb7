"""Receive chain: mixing, noise, quantization, channelization, crosstalk."""

import logging
import math
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdmsim.device
import fdmsim.lanes
import fdmsim.rxchain
from fdmsim import (
    AdcSpec,
    Chip,
    ConfigError,
    DeviceRecord,
    FrequencyPlan,
    IQTrace,
    QubitParams,
    ResonatorParams,
    ToneSpec,
    UnknownDeviceError,
    adc_quantize,
    add_awgn,
    adjacent_crosstalk,
    apply_feedline,
    builtin_chip_path,
    channelize,
    downconvert,
    load_chip,
    make_readout_setup,
    measure_crosstalk,
    plan_for_chip,
    s21_feedline,
    synthesize_multitone,
    upconvert_ssb,
)
from fdmsim.rxchain import CROSSTALK_FLOOR_DB, NOISE_GUARD_BINS, ReadoutSetup
from fdmsim.seeding import _child_states, child_seed, derive_rng

TWO_PI = 2 * math.pi


def tone_trace(freqs, amps=None, phases=None, n=4000, fs=1e9):
    amps = amps or [1.0] * len(freqs)
    phases = phases or [0.0] * len(freqs)
    tones = [
        ToneSpec(baseband_frequency=f, amplitude=a, phase=p)
        for f, a, p in zip(freqs, amps, phases)
    ]
    return synthesize_multitone(tones, n, fs)


# --------------------------------------------------------------------------
# down-conversion


def test_downconvert_undoes_upconvert():
    base = tone_trace([10e6, -35e6], n=256)
    rx = downconvert(upconvert_ssb(base, 9.6e9))
    np.testing.assert_allclose(rx.samples, base.samples, rtol=1e-13)
    assert rx.carrier_frequency is None


# derandomize: the same examples on every run, so the suite stays
# deterministic.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    samples=st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                        allow_infinity=False), min_size=1, max_size=64),
    fs=st.floats(1e6, 1e10),
    lo_over_nyquist=st.floats(1.0, 1e3, exclude_min=True),
)
def test_ssb_round_trip_is_identity_property(samples, fs, lo_over_nyquist):
    base = IQTrace(samples=np.array(samples, dtype=complex), sample_rate=fs)
    lo = lo_over_nyquist * fs / 2
    rx = downconvert(upconvert_ssb(base, lo))
    np.testing.assert_array_equal(rx.samples, base.samples)
    assert rx.carrier_frequency is None
    assert rx.sample_rate == base.sample_rate


def test_downconvert_requires_an_upconverted_trace():
    with pytest.raises(ConfigError, match="expects an up-converted trace"):
        downconvert(tone_trace([10e6], n=64))


# --------------------------------------------------------------------------
# noise and ADC


def test_add_awgn_is_seeded_and_scales():
    base = tone_trace([10e6], n=4096)
    a = add_awgn(base, 0.01, seed=5)
    b = add_awgn(base, 0.01, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = add_awgn(base, 0.01, seed=6)
    assert np.any(c.samples != a.samples)
    resid = a.samples - base.samples
    for quad in (resid.real, resid.imag):
        assert np.std(quad) == pytest.approx(0.01, rel=0.1)


def test_adc_quantize_is_mid_tread_with_exact_rails():
    adc = AdcSpec(sample_rate=1e9, bits=3, full_scale=1.0)
    assert adc.step == pytest.approx(2 / 8)
    levels = np.array([0.0, 0.1, 0.13, -0.13, 1.0, -1.0, 2.0])
    trace = IQTrace(samples=levels + 0j, sample_rate=1e9)
    out = adc_quantize(trace, adc)
    np.testing.assert_allclose(
        out.samples.real, [0.0, 0.0, 0.25, -0.25, 1.0, -1.0, 1.0], atol=1e-15
    )
    # quantization error bounded by half a step inside the range
    x = np.linspace(-0.999, 0.999, 1001)
    out = adc_quantize(IQTrace(samples=x + 0j, sample_rate=1e9), adc)
    assert np.max(np.abs(out.samples.real - x)) <= adc.step / 2 + 1e-15


@pytest.mark.parametrize("bandwidth", [None, 100e6])
@pytest.mark.parametrize("noise_std", [0.0, 0.05])
def test_adc_quantize_leaves_input_samples_unchanged(bandwidth, noise_std):
    adc = AdcSpec(sample_rate=1e9, bits=6, full_scale=0.5, analog_bandwidth=bandwidth)
    trace = tone_trace([50e6, 400e6], amps=[0.4, 0.3], n=1000)
    before = trace.samples.copy()
    out = adc_quantize(trace, adc, noise_std=noise_std, seed=4)
    np.testing.assert_array_equal(trace.samples, before)
    assert not np.shares_memory(out.samples, trace.samples)
    assert np.any(out.samples != before)


@pytest.mark.parametrize("bits, full_scale", [
    (8, 0.5), (12, 1.0), (1, 3.0),
    # subnormal steps: rounded down, so full_scale / step exceeds
    # 2^(bits-1), and rounded up, so it falls short of it
    (32, 1e-305), (12, 1.6 * 2048 * 5e-324),
])
def test_adc_codes_equal_clip_then_round(bits, full_scale):
    # the one clip on the codes gives the codes of a clip to +-full_scale
    # before rounding, capped at +-2^(bits-1)
    adc = AdcSpec(sample_rate=1e9, bits=bits, full_scale=full_scale)
    rng = np.random.default_rng(bits)
    x = np.concatenate([full_scale * rng.uniform(-3, 3, 200),
                        [0.0, full_scale, -full_scale, 1e300, -1e300]])
    out = adc_quantize(IQTrace(samples=x + 1j * x[::-1], sample_rate=1e9), adc)
    half = 2 ** (bits - 1)
    expected = np.clip(np.round(np.clip(x, -full_scale, full_scale) / adc.step), -half, half)
    np.testing.assert_array_equal(out.samples.real, expected * adc.step)
    np.testing.assert_array_equal(out.samples.imag, expected[::-1] * adc.step)


def two_pass_quantize(quad, adc):
    """The quantizer with the clip as np.minimum, then np.maximum."""
    fs = adc.full_scale
    n_clipped = np.count_nonzero(quad > fs, axis=1) + np.count_nonzero(quad < -fs, axis=1)
    rail = min(float(np.rint(fs / adc.step)), float(2 ** (adc.bits - 1)))
    with np.errstate(over="ignore"):
        codes = np.rint(quad / adc.step)
    np.minimum(codes, rail, out=codes)
    np.maximum(codes, -rail, out=codes)
    return codes * adc.step, n_clipped


@pytest.mark.parametrize("bits, full_scale", [(4, 1.0), (12, 0.4), (32, 1e-305)])
def test_quantize_one_pass_clip_equals_minimum_then_maximum(bits, full_scale):
    adc = AdcSpec(sample_rate=1e9, bits=bits, full_scale=full_scale)
    fs, step = full_scale, adc.step
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, fs, -fs,
               np.nextafter(fs, math.inf), np.nextafter(-fs, -math.inf),
               fs + step / 2, -fs - step / 2, 1e308, -1e308, -step / 4]
    rng = np.random.default_rng(bits)
    quad = np.stack([
        np.resize(special, 64),
        fs * rng.uniform(-0.9, 0.9, 64),
        fs * rng.uniform(-3, 3, 64),
        np.resize([-0.0, math.nan, -fs, fs], 64),
    ])
    expected, expected_clipped = two_pass_quantize(quad, adc)
    clipped = fdmsim.rxchain._quantize(quad, adc)
    # the same bits: NaN stays NaN, -0.0 keeps its sign
    assert np.array_equal(quad.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(clipped, expected_clipped)
    assert clipped[0] > 0 and clipped[1] == 0


@pytest.mark.parametrize("bits, full_scale", [
    (12, 1.0),              # chip7's converter: step 2**-11, multiplied by 2**11
    (4, 0.5),               # step 2**-4
    (1, 2.0**1000),         # step 2**1000: the reciprocal is 2**-1000, subnormal codes
    (12, 0.3),              # step not a power of two: divided
    (12, 0.1),              # divided; a rounded reciprocal would move some codes
    (12, 2.0**-1060),       # step 2**-1071: its reciprocal overflows, so divided
])
def test_quantize_equals_the_divide_path_bit_for_bit(bits, full_scale):
    adc = AdcSpec(sample_rate=1e9, bits=bits, full_scale=full_scale)
    fs, step = full_scale, adc.step
    # samples at and next to the midpoints between codes, where the
    # rounding of the scaled sample decides the code
    half = (np.arange(-2 ** (bits - 1), 2 ** (bits - 1)) + 0.5) * step
    midpoints = np.concatenate([half, np.nextafter(half, math.inf),
                                np.nextafter(half, -math.inf)])
    tiny = np.finfo(float).smallest_subnormal
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, fs, -fs,
               np.nextafter(fs, math.inf), np.nextafter(-fs, -math.inf),
               1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
               tiny, -tiny, 2.0**-1030, -3 * 2.0**-1070, step / 2, -step / 2,
               fs - step / 2, np.nextafter(fs - step / 2, 0.0)]
    rng = np.random.default_rng(bits)
    rows = [
        np.resize(special, 64),
        fs * rng.uniform(-1, 1, 64),          # inside: no clip
        fs * rng.uniform(-3, 3, 64),          # some clip
        np.resize([-0.0, tiny, -tiny], 64),   # inside, all subnormal or zero
        np.resize([math.nan, 0.0], 64),       # a NaN fails the block test, clips nothing
    ]
    below = [0.0, np.nextafter(-fs, -math.inf), -fs]  # clips only below -full_scale
    width = max(64, midpoints.size)
    blocks = [rows + [midpoints], [rows[1], rows[3], midpoints], [rows[1], below]]
    counts = []
    for block in blocks:
        block = np.stack([np.resize(row, width) for row in block])
        expected, expected_clipped = two_pass_quantize(block, adc)
        quad = block.copy()
        clipped = fdmsim.rxchain._quantize(quad, adc)
        assert quad.tobytes() == expected.tobytes()
        assert clipped.tobytes() == expected_clipped.astype(clipped.dtype).tobytes()
        counts.append(clipped.tolist())
    assert counts[1] == [0, 0, 0]
    assert counts[2] == [0, (width + 1) // 3]
    if full_scale == 0.1:
        # the test can tell a divide from a multiply by the rounded reciprocal
        with np.errstate(over="ignore"):
            assert np.any(np.rint(midpoints * (1.0 / step)) != np.rint(midpoints / step))


@pytest.mark.parametrize("bits, full_scale, bounded", [
    (12, 1.0, True), (4, 0.5, True), (1, 2.0**1000, True), (12, 0.3, True),
    (12, 0.1, True), (12, 2.0**-1060, True),
    # subnormal steps rounded down: full_scale scales beyond the rail
    (32, 1e-305, False), (12, 1.6 * 2048 * 5e-324, False),
])
def test_quantize_blocks_at_and_beyond_the_rails(bits, full_scale, bounded):
    # Blocks whose extremes are exactly +-full_scale skip the clip when
    # the converter is bounded; one ulp beyond, a NaN, or a converter
    # that is not bounded takes the clipping path.  Each gives the
    # two-pass codes.
    adc = AdcSpec(sample_rate=1e9, bits=bits, full_scale=full_scale)
    fs = full_scale
    q = fdmsim.rxchain._quantizer(adc)
    assert q.bounded is bounded
    if q.scale is np.multiply:
        # a power-of-two step: full_scale scales to 2^(bits-1), the rail
        assert q.rail == 2.0 ** (bits - 1) and fs * q.factor == q.rail
    rng = np.random.default_rng(bits)
    inside = fs * rng.uniform(-1, 1, (3, 64))
    blocks = {}
    for name, extremes in [("at", (fs, -fs)),
                           ("ulp-above", (np.nextafter(fs, math.inf), -fs)),
                           ("ulp-below", (fs, np.nextafter(-fs, -math.inf))),
                           ("nan", (math.nan, fs))]:
        block = inside.copy()
        block[0, :2] = extremes
        block[2, -2:] = extremes[::-1]
        blocks[name] = block
    for name, block in blocks.items():
        expected, expected_clipped = two_pass_quantize(block, adc)
        quad = block.copy()
        clipped = fdmsim.rxchain._quantize(quad, adc)
        assert quad.tobytes() == expected.tobytes(), name
        assert clipped.tolist() == expected_clipped.tolist(), name
        assert clipped.tolist() == ([0, 0, 0] if name in ("at", "nan") else [1, 0, 1]), name


def test_adc_rejects_rate_mismatch():
    adc = AdcSpec(sample_rate=1e9, bits=8, full_scale=1.0)
    with pytest.raises(ConfigError):
        adc_quantize(IQTrace(samples=np.zeros(4) + 0j, sample_rate=2e9), adc)


VALID_FIELDS = {
    AdcSpec: dict(sample_rate=1e9, bits=12, full_scale=1.0, analog_bandwidth=100e6),
    ReadoutSetup: dict(device_ids=(1, 2), lo_frequency=5e9, baseband_frequencies=(0.0, 10e6)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, field", [
    (AdcSpec, "sample_rate"),
    (AdcSpec, "full_scale"),
    (AdcSpec, "analog_bandwidth"),
    (ReadoutSetup, "lo_frequency"),
    (ReadoutSetup, "amplitude"),
    (ReadoutSetup, "sample_rate"),
    (ReadoutSetup, "baseband_frequencies"),
], ids=lambda value: getattr(value, "__name__", value))
def test_adc_and_setup_reject_non_finite_fields(cls, field, bad):
    fields = dict(VALID_FIELDS[cls])
    if field == "baseband_frequencies":
        fields[field], field = (0.0, bad), "baseband_frequency"
    else:
        fields[field] = bad
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        cls(**fields)


@pytest.mark.parametrize("field, bad, match", [
    ("bits", math.nan, "bits must be finite"),
    ("bits", math.inf, "bits must be finite"),
    ("bits", 12.5, "bits must be an integer"),
    ("bits", 0, "bits must be an integer in"),
    ("bits", 33, "bits must be an integer in"),
    ("analog_bandwidth", -1.0, "analog_bandwidth must be finite and > 0"),
    ("analog_bandwidth", 0.0, "analog_bandwidth must be finite and > 0"),
    ("bits", True, "bits must be an integer in"),  # bool is an int: a 1-bit converter
])
def test_adc_rejects_bad_bits_and_band(field, bad, match):
    fields = {**VALID_FIELDS[AdcSpec], field: bad}
    with pytest.raises(ConfigError, match=match):
        AdcSpec(**fields)


def test_adc_accepts_integral_float_bits():
    assert AdcSpec(1e9, 12.0, 1.0).step == AdcSpec(1e9, 12, 1.0).step


def test_adc_analog_bandwidth_removes_fast_tone():
    adc = AdcSpec(sample_rate=1e9, bits=16, full_scale=1.0, analog_bandwidth=100e6)
    trace = tone_trace([50e6, 400e6], amps=[0.3, 0.3], n=1000)
    out = adc_quantize(trace, adc)
    meas = channelize(out, [50e6, 400e6])
    assert meas[0].amplitude == pytest.approx(0.3, rel=1e-3)
    assert meas[1].amplitude < 1e-3


def test_adc_snr_follows_bit_depth():
    # standard quantization SNR for a full-scale tone: 6.02 b + 1.76 dB
    n, k, fs = 8192, 131, 1e9
    t = np.arange(n) / fs
    tone = np.exp(2j * np.pi * (k * fs / n) * t)
    for bits in (8, 12, 16):
        adc = AdcSpec(sample_rate=fs, bits=bits, full_scale=1.0)
        out = adc_quantize(IQTrace(samples=tone, sample_rate=fs), adc)
        spectrum = np.fft.fft(out.samples) / n
        signal = abs(spectrum[k]) ** 2
        noise = np.sum(np.abs(spectrum) ** 2) - signal
        snr_db = 10 * np.log10(signal / noise)
        assert snr_db == pytest.approx(6.02 * bits + 1.76, abs=0.5)


# --------------------------------------------------------------------------
# channelization


def test_channelize_matches_direct_dft_sum():
    # independent oracle: plain projection sum, no fft
    fs, n = 1e9, 2000
    freqs = [2e6, 7.5e6, -40e6]
    amps = [0.5, 1.2, 0.25]
    phases = [0.3, -1.0, 2.2]
    trace = tone_trace(freqs, amps, phases, n=n, fs=fs)
    t = np.arange(n) / fs
    for m, f in zip(channelize(trace, freqs), freqs):
        proj = np.sum(trace.samples * np.exp(-2j * np.pi * f * t)) / n
        assert m.complex_amplitude == pytest.approx(proj, rel=1e-12)


def test_channelize_recovers_bin_centered_tones_exactly():
    fs, n = 1e9, 4000
    grid = fs / n
    freqs = [4 * grid, 40 * grid, -123 * grid]
    amps = [1.0, 0.01, 0.77]
    phases = [0.0, 1.5, -2.5]
    trace = tone_trace(freqs, amps, phases, n=n, fs=fs)
    for window in ("rectangular", "hann"):
        meas = channelize(trace, freqs, window=window)
        for m, a, p in zip(meas, amps, phases):
            assert m.amplitude == pytest.approx(a, rel=1e-12, abs=1e-12)
            assert m.phase == pytest.approx(p, abs=1e-9)


def test_hann_window_needs_two_samples():
    # The periodic hann of length 1 is [0]: its sum, the amplitude
    # normalization, is 0.  Setup and channelize refuse it by one rule.
    with pytest.raises(ConfigError, match="hann window needs n_samples >= 2"):
        ReadoutSetup(device_ids=(1,), lo_frequency=9.3e9, baseband_frequencies=(0.0,),
                     n_samples=1, window="hann")
    with pytest.raises(ConfigError, match="hann window needs n_samples >= 2"):
        channelize(IQTrace(np.ones(1), 1e9), [0.0], window="hann")
    # Length 2 is [0, 1]; one sample stays fine under the rectangular window.
    assert channelize(IQTrace(np.ones(2), 1e9), [0.0], window="hann")[0].amplitude == 1.0
    assert channelize(IQTrace(np.ones(1), 1e9), [0.0])[0].amplitude == 1.0
    ReadoutSetup(device_ids=(1,), lo_frequency=9.3e9, baseband_frequencies=(0.0,),
                 n_samples=2, window="hann")


def test_channelize_orthogonality_error_floor():
    # neighbors on the DFT grid must not leak above 1e-12
    fs, n = 1e9, 4000
    grid = fs / n
    trace = tone_trace([100 * grid], n=n, fs=fs)
    meas = channelize(trace, [101 * grid, 250 * grid, -100 * grid])
    for m in meas:
        assert m.amplitude < 1e-12


def test_channelize_hann_leakage_matches_dirichlet_oracle():
    # off-grid tone under a periodic hann window: the response is the
    # combination -0.25, 0.5, -0.25 of neighboring rectangular kernels,
    # each a Dirichlet sum evaluated in closed form.
    fs, n = 1e9, 1024
    grid = fs / n
    delta = 0.37  # bins away from channel center
    f_tone = (200 + delta) * grid
    trace = tone_trace([f_tone], n=n, fs=fs)

    def dirichlet(offset_bins):
        # sum_m exp(2i pi offset m / n) / n
        m = np.arange(n)
        return np.sum(np.exp(2j * np.pi * offset_bins * m / n)) / n

    got = channelize(trace, [200 * grid], window="hann")[0]
    expected = 0.5 * dirichlet(delta) - 0.25 * dirichlet(delta + 1) - 0.25 * dirichlet(delta - 1)
    # hann normalization: window sum is n/2
    expected = expected * n / np.sum(0.5 * (1 - np.cos(2 * np.pi * np.arange(n) / n))) * (n / 2) * 2 / n
    assert got.complex_amplitude == pytest.approx(expected, rel=1e-10)


def test_channelize_phase_referenced_to_first_sample():
    fs, n = 1e9, 1000
    grid = fs / n
    f = 50 * grid
    base = tone_trace([f], phases=[0.7], n=n, fs=fs)
    m = channelize(base, [f])[0]
    assert m.phase == pytest.approx(0.7, abs=1e-12)


def test_channelize_noise_estimate_tracks_injected_noise():
    fs, n = 1e9, 8192
    grid = fs / n
    trace = tone_trace([100 * grid], amps=[0.5], n=n, fs=fs)
    noisy = add_awgn(trace, 0.02, seed=3)
    m = channelize(noisy, [100 * grid])[0]
    # tone-level noise std for white noise of std s per quadrature is
    # s / sqrt(n) per quadrature of the projected amplitude
    assert m.noise_std == pytest.approx(0.02 / math.sqrt(n), rel=0.15)
    assert m.amplitude == pytest.approx(0.5, rel=0.01)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(16, 512),
    bins=st.lists(st.floats(-0.5, 0.5, exclude_max=True), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    a=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    window=st.sampled_from(["rectangular", "hann"]),
)
def test_channelize_is_linear_property(n, bins, seed, a, b, window):
    # any channel frequencies, on the grid or not: the projection is linear
    fs = 1e9
    freqs = [x * fs for x in bins]
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, 2, n))
    x, y = re + 1j * im

    def project(samples):
        meas = channelize(IQTrace(samples=samples, sample_rate=fs), freqs, window=window)
        return np.array([m.complex_amplitude for m in meas])

    got = project(a * x + b * y)
    expected = a * project(x) + b * project(y)
    # a window-normalized projection is at most the largest sample
    scale = abs(a) * np.max(np.abs(x)) + abs(b) * np.max(np.abs(y))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@st.composite
def grid_tones(draw):
    """n samples and up to 5 tones on distinct DFT bins, NOISE_GUARD_BINS
    or more apart (circularly), so the hann main lobes do not overlap."""
    n = draw(st.integers(32, 2048))
    picked: list[int] = []
    for k in draw(st.lists(st.integers(-(n // 2), (n - 1) // 2), min_size=1, max_size=5)):
        if all(min(abs(k - j), n - abs(k - j)) >= NOISE_GUARD_BINS for j in picked):
            picked.append(k)
    amps = draw(st.lists(st.floats(1e-3, 10.0), min_size=len(picked), max_size=len(picked)))
    phases = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(picked), max_size=len(picked)))
    return n, picked, amps, phases


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tones=grid_tones(), window=st.sampled_from(["rectangular", "hann"]))
def test_channelize_is_exact_on_grid_property(tones, window):
    n, picked, amps, phases = tones
    fs = 1e9
    freqs = [k * fs / n for k in picked]
    trace = tone_trace(freqs, amps, phases, n=n, fs=fs)
    meas = channelize(trace, freqs, window=window)
    got = np.array([m.complex_amplitude for m in meas])
    expected = np.array(amps) * np.exp(1j * np.array(phases))
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(amps)


def test_channelize_rejects_carried_trace_and_off_nyquist():
    rf = upconvert_ssb(tone_trace([10e6], n=64), 9.6e9)
    with pytest.raises(ConfigError):
        channelize(rf, [10e6])
    base = tone_trace([10e6], n=64)
    with pytest.raises(ConfigError, match="exceeds Nyquist"):
        channelize(base, [600e6])


@pytest.mark.parametrize("window", ["rectangular", "hann"])
@pytest.mark.parametrize(
    "samples, reason",
    [
        (np.full(8, complex(math.nan, 0.0)), "8 non-finite .* first at index 0"),
        (np.array([0, 0, 0, complex(1.0, -math.inf)] * 2), "2 non-finite .* first at index 3"),
        # the channel sums overflow
        (np.full(8, 1e308 + 0j), "reach 1e\\+308 in I or Q"),
        # the channel sum does not, the noise estimate's |X|^2 does
        (np.resize([0.0, 1e200], 64).astype(complex), "reach 1e\\+200 in I or Q"),
    ],
)
def test_channelize_names_non_finite_and_overflowing_samples(samples, reason, window):
    trace = IQTrace(samples=samples, sample_rate=1e9)
    with pytest.raises(ConfigError, match=reason):
        channelize(trace, [0.0], window=window)


def reference_projection(trace, freqs, window):
    """Channel projections built from scratch on every call, no plan cache."""
    n = trace.n_samples
    if window == "hann":
        w = 0.5 * (1 - np.cos(2 * np.pi * np.arange(n) / n))
    else:
        w = np.ones(n)
    t_rel = np.arange(n) / trace.sample_rate
    kernel = np.exp(-2j * np.pi * np.outer(np.asarray(freqs, dtype=float), t_rel))
    return kernel @ (w * trace.samples) / w.sum()


def test_channelize_is_bit_identical_across_alternating_plans():
    rng = np.random.default_rng(4)
    keys = [
        ([2e6, 7.5e6, -40e6], 2000, "rectangular"),
        ([2e6, 7.5e6, -40e6], 2000, "hann"),
        ([3e6, -11e6], 1000, "rectangular"),
        ([2e6, 7.5e6, -40e6], 4000, "hann"),
    ]
    traces = {}
    for freqs, n, _ in keys:
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        traces[n] = IQTrace(samples=samples, sample_rate=1e9)
    first = {}
    for _ in range(3):
        for freqs, n, window in keys:
            meas = channelize(traces[n], freqs, window=window)
            got = np.array([(m.amplitude, m.phase, m.noise_std) for m in meas])
            key = (tuple(freqs), n, window)
            if key in first:
                np.testing.assert_array_equal(got, first[key])
            else:
                first[key] = got
                ref = reference_projection(traces[n], freqs, window)
                np.testing.assert_array_equal(got[:, 0], np.abs(ref))
                np.testing.assert_array_equal(got[:, 1], np.angle(ref))


def test_channelize_plan_arrays_are_read_only():
    from fdmsim.rxchain import _channel_plan

    plan = _channel_plan((2e6, -40e6), 2000, 1e9, "hann")
    for array in (plan.window, plan.kernel, plan.noise_mask):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("n", [64, 1000, 4000])
@pytest.mark.parametrize("n_channels", [1, 3, 7])
@pytest.mark.parametrize("window", ["rectangular", "hann"])
def test_block_projection_equals_the_per_row_projections(window, n_channels, n):
    rx = fdmsim.rxchain
    fs = 1e9
    freqs = tuple(float(b * fs / n) for b in range(-10, 5 * n_channels - 10, 5))
    plan = rx._channel_plan(freqs, n, fs, window)
    rng = np.random.default_rng(n_channels)
    buffer = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    for block in (buffer, buffer[:3], buffer[:1]):
        iq, wx = rx._project(plan, block)
        assert iq.shape == (len(block), n_channels)
        for r, row in enumerate(block):
            row_iq, row_wx = rx._project(plan, row)
            assert np.array_equal(iq[r].view(np.uint64), row_iq.view(np.uint64))
            assert np.array_equal(wx[r], row_wx)


# --------------------------------------------------------------------------
# feedline filtering and crosstalk


def two_device_chip(spacing_hz, kappa=TWO_PI * 10e6):
    """Toggled qubit parked at its anticrossing (big, clean IQ swing);
    spectator nearly decoupled so its channel sees only the tail."""
    toggled = DeviceRecord(
        device_id=1,
        qubit=QubitParams(gap_delta=6.0e9, flux_sensitivity=500e9,
                          symmetry_flux=0.0, relaxation_rate_gamma=TWO_PI * 0.1e6),
        resonator=ResonatorParams(bare_frequency=6.0e9, total_linewidth_kappa=kappa,
                                  external_linewidth=0.95 * kappa,
                                  coupling_g=TWO_PI * 1.5e9),
    )
    spectator = DeviceRecord(
        device_id=2,
        qubit=QubitParams(gap_delta=4.0e9, flux_sensitivity=500e9,
                          symmetry_flux=0.0, relaxation_rate_gamma=TWO_PI * 0.1e6),
        resonator=ResonatorParams(bare_frequency=8.5e9, total_linewidth_kappa=kappa,
                                  external_linewidth=1e-4 * kappa, coupling_g=0.0),
    )
    chip = Chip(name="xtalk", devices=(toggled, spectator))
    f0 = 4.5e9  # ground-dressed notch of the toggled device
    plan = FrequencyPlan(
        band_start=f0 - 0.1e9,
        band_stop=f0 + 0.2e9,
        channels=((1, f0), (2, f0 + spacing_hz)),
    )
    return chip, plan


def test_apply_feedline_scales_grid_tones_by_s21():
    chip, _ = two_device_chip(15e6)
    fs, n = 4e9, 4000
    lo = 4.508e9
    freqs = [-8e6, 7e6]
    rf = upconvert_ssb(tone_trace(freqs, n=n, fs=fs), lo)
    out = apply_feedline(rf, chip, [-1.0, -1.0], [0.0, 0.0])
    rx = downconvert(out)
    meas = channelize(rx, freqs)
    fluxes = [0.0, 0.0]
    for m, f in zip(meas, freqs):
        expected = s21_feedline(chip, TWO_PI * (lo + f), [-1.0, -1.0], fluxes)
        assert m.complex_amplitude == pytest.approx(expected, rel=1e-10)


def test_apply_feedline_requires_carrier():
    chip, _ = two_device_chip(15e6)
    with pytest.raises(ConfigError):
        apply_feedline(tone_trace([10e6], n=64), chip, [-1.0, -1.0], 0.0)


@pytest.mark.parametrize("mult,tol_db", [(1.0, 0.5), (1.5, 0.5), (5.0, 0.5), (10.0, 0.5)])
def test_measured_crosstalk_tracks_analytic_tail(mult, tol_db):
    kappa = TWO_PI * 10e6
    chip, plan = two_device_chip(mult * kappa / TWO_PI, kappa)
    got = measure_crosstalk(chip, plan, 1)
    assert set(got) == {2}
    assert got[2] == pytest.approx(adjacent_crosstalk(mult * kappa, kappa), abs=tol_db)


def test_measure_crosstalk_unknown_device_raises():
    chip, plan = two_device_chip(15e6)
    with pytest.raises(UnknownDeviceError):
        measure_crosstalk(chip, plan, 3)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_measure_crosstalk_rejects_out_of_range_seeds_without_noise(seed):
    chip, plan = two_device_chip(15e6)
    with pytest.raises(ConfigError, match="root seed"):
        measure_crosstalk(chip, plan, plan.device_ids[0], seed=seed)


@pytest.mark.parametrize("sample_rate", [0, -4e9, math.nan], ids=repr)
def test_measure_crosstalk_names_a_sample_rate_that_is_not_positive(sample_rate):
    # The default LO's grid check read "grid must be finite and > 0,
    # got 0.0", a value never passed.
    chip, plan = two_device_chip(50e6)
    with pytest.raises(ConfigError, match=f"sample_rate must be finite and > 0, got {sample_rate}"):
        measure_crosstalk(chip, plan, 1, sample_rate=sample_rate)


def test_measure_crosstalk_deterministic_under_noise():
    chip, plan = two_device_chip(50e6)
    a = measure_crosstalk(chip, plan, 1, noise_std=1e-4, seed=9)
    b = measure_crosstalk(chip, plan, 1, noise_std=1e-4, seed=9)
    assert a == b


@pytest.mark.parametrize("adc", [None, AdcSpec(sample_rate=4e9, bits=12, full_scale=4.0)])
def test_measure_crosstalk_rejects_negative_noise(adc):
    chip, plan = two_device_chip(50e6)
    with pytest.raises(ConfigError, match="noise_std"):
        measure_crosstalk(chip, plan, 1, adc=adc, noise_std=-1.0)


@pytest.mark.parametrize("noise_std", [math.nan, math.inf])
@pytest.mark.parametrize("adc", [None, AdcSpec(sample_rate=4e9, bits=12, full_scale=4.0)])
def test_measure_crosstalk_rejects_non_finite_noise(adc, noise_std):
    chip, plan = two_device_chip(50e6)
    with pytest.raises(ConfigError, match="noise_std"):
        measure_crosstalk(chip, plan, 1, adc=adc, noise_std=noise_std)


@pytest.mark.parametrize("noise_std", [-1e-3, math.nan, math.inf])
def test_noise_stages_reject_bad_noise_std(noise_std):
    trace = tone_trace([10e6], n=64)
    with pytest.raises(ConfigError, match="noise_std"):
        add_awgn(trace, noise_std, seed=1)
    with pytest.raises(ConfigError, match="noise_std"):
        adc_quantize(trace, AdcSpec(trace.sample_rate, 12, 1.0), noise_std=noise_std)


def full_chain_crosstalk(chip, plan, toggled_device, *, lo_frequency=None, sample_rate=4e9,
                         n_samples=4000, amplitude=1.0, window="rectangular", adc=None,
                         noise_std=0.0, seed=0):
    """Crosstalk composed from the public stages: tx -> FFT feedline ->
    downconvert -> noise or ADC -> channelize, twice, with the same noise
    seed for both runs."""
    channels = dict(plan.channels)
    device_ids = list(channels)
    freqs_rf = np.array([channels[d] for d in device_ids])
    if lo_frequency is None:
        grid = sample_rate / n_samples
        lo_frequency = grid * round(float(freqs_rf.mean()) / grid)
    baseband = freqs_rf - lo_frequency
    tones = [ToneSpec(baseband_frequency=f, amplitude=amplitude) for f in baseband]
    probe = upconvert_ssb(synthesize_multitone(tones, n_samples, sample_rate), lo_frequency)
    fluxes = [d.qubit.symmetry_flux for d in chip.devices]

    def run(toggled_state):
        states = [toggled_state if d.device_id == toggled_device else -1.0
                  for d in chip.devices]
        rx = downconvert(apply_feedline(probe, chip, states, fluxes))
        if noise_std > 0 and adc is None:
            rx = add_awgn(rx, noise_std, seed)
        if adc is not None:
            rx = adc_quantize(rx, adc, noise_std=noise_std, seed=seed)
        meas = channelize(rx, baseband, window=window)
        return np.array([m.complex_amplitude for m in meas])

    delta = run(+1.0) - run(-1.0)
    own = np.abs(delta[device_ids.index(toggled_device)])
    scale = max(float(np.max(np.abs(delta))), amplitude)
    out = {}
    for idx, dev in enumerate(device_ids):
        if dev == toggled_device:
            continue
        other = np.abs(delta[idx])
        if own <= 1e-14 * scale or other <= 1e-14 * own:
            out[dev] = CROSSTALK_FLOOR_DB
        else:
            out[dev] = max(20.0 * math.log10(other / own), CROSSTALK_FLOOR_DB)
    return out


# chip7's seven channels lie within +-450 MHz of the default LO: the
# 460 MHz analog band passes them all (a narrower one is refused, see
# below); 8.0 full scale holds the seven-tone peak without clipping.
CROSSTALK_MODES = {
    "noiseless": {},
    "awgn": dict(noise_std=1e-3, seed=3),
    "adc": dict(adc=AdcSpec(sample_rate=4e9, bits=12, full_scale=8.0),
                noise_std=1e-3, seed=4),
    "adc-band-limited": dict(adc=AdcSpec(sample_rate=4e9, bits=12, full_scale=8.0,
                                         analog_bandwidth=460e6)),
    "hann": dict(window="hann", noise_std=1e-3, seed=6),
}


@pytest.fixture(scope="module")
def chip7():
    chip = load_chip(builtin_chip_path())
    return chip, plan_for_chip(chip, grid=4e9 / 4000)


@pytest.mark.parametrize("mode", list(CROSSTALK_MODES))
def test_crosstalk_matches_full_chain_on_every_toggle(chip7, mode):
    chip, plan = chip7
    kwargs = CROSSTALK_MODES[mode]
    floored = 0
    for dev in chip.device_ids:
        got = measure_crosstalk(chip, plan, dev, **kwargs)
        ref = full_chain_crosstalk(chip, plan, dev, **kwargs)
        assert got.keys() == ref.keys() == set(chip.device_ids) - {dev}
        for other in got:
            assert abs(got[other] - ref[other]) <= 1e-8
            floored += ref[other] == CROSSTALK_FLOOR_DB
    assert floored == 0


@pytest.mark.parametrize("noise_std", [0.0, 1e-3])
@pytest.mark.parametrize("toggled", [1, 4])
def test_crosstalk_refuses_channels_beyond_the_analog_band(chip7, noise_std, toggled):
    # The 400 MHz band removes the channels of devices 1 (-450 MHz) and 7
    # (+450 MHz).  Measured anyway, device 1's toggle read about +7 dB
    # with noise (noise over noise) and the -200 dB floor without.
    chip, plan = chip7
    adc = AdcSpec(sample_rate=4e9, bits=12, full_scale=8.0, analog_bandwidth=400e6)
    with pytest.raises(ConfigError, match=r"device 1 at -4\.5e\+08 Hz, device 7 at \+4"):
        measure_crosstalk(chip, plan, toggled, adc=adc, noise_std=noise_std, seed=4)


@pytest.mark.parametrize("n, bins", [
    (4000, (-2000, -1000, -3, 0, 3, 1000, 1997)),
    (4001, (-2000, -1000, 0, 1000, 1997)),
    (12, (-6, -3, 0, 3)),
    (13, (-6, -3, 0, 3)),
])
def test_beyond_band_reads_each_channel_as_the_fft_bins_do(n, bins):
    # _beyond_band takes each channel's frequency from its bin alone; it
    # must cut the channels that the mask of all n FFT bins cuts, with
    # band limits at, and one ulp below, every channel's bin frequency.
    fs = 1e9
    grid = np.fft.fftfreq(n, d=1.0 / fs)
    setup = ReadoutSetup(tuple(range(len(bins))), 5e9, tuple(float(k * fs / n) for k in bins),
                         sample_rate=fs, n_samples=n)
    assert setup._bins == bins
    on_bins = np.abs(grid[[k % n for k in bins]])
    limits = [b for f in on_bins if f > 0 for b in (f, np.nextafter(f, 0.0))]
    for limit in limits + [fs / 2, fs]:
        adc = AdcSpec(sample_rate=fs, bits=12, full_scale=1.0, analog_bandwidth=limit)
        expected = on_bins > limit if limit < fs / 2 else np.zeros(len(bins), dtype=bool)
        np.testing.assert_array_equal(fdmsim.rxchain._beyond_band(setup, adc), expected)
    np.testing.assert_array_equal(fdmsim.rxchain._beyond_band(setup, None),
                                  np.zeros(len(bins), dtype=bool))


def counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_crosstalk_evaluates_s21_once_and_builds_no_chain(chip7, monkeypatch):
    chip, plan = chip7
    calls = Counter()
    for module, name in ((fdmsim.device, "s21_feedline"),
                         (fdmsim.rxchain, "apply_feedline"),
                         (fdmsim.rxchain, "downconvert"),
                         (fdmsim.rxchain, "channelize"),
                         (np.fft, "fft")):
        monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
    for mode in ("noiseless", "awgn", "adc", "adc-band-limited"):
        calls.clear()
        measure_crosstalk(chip, plan, 4, **CROSSTALK_MODES[mode])
        assert calls == {"s21_feedline": 1}, mode


@pytest.mark.parametrize("n_samples", [0, -4000])
def test_measure_crosstalk_checks_the_count_before_the_grid(chip7, n_samples):
    chip, plan = chip7
    with pytest.raises(ConfigError, match="n_samples >= 1"):
        measure_crosstalk(chip, plan, 1, n_samples=n_samples)


@pytest.mark.parametrize("n_samples", [4000.5, math.nan, math.inf, True])
def test_setup_and_crosstalk_reject_a_non_integral_count(chip7, n_samples):
    chip, plan = chip7
    with pytest.raises(ConfigError, match="integral n_samples >= 1"):
        ReadoutSetup(**VALID_FIELDS[ReadoutSetup], n_samples=n_samples)
    with pytest.raises(ConfigError, match="integral n_samples >= 1"):
        measure_crosstalk(chip, plan, 1, n_samples=n_samples)
    with pytest.raises(ConfigError, match="integral n_samples >= 1"):
        measure_crosstalk(chip, plan, 1, n_samples=n_samples, lo_frequency=8e9)


def test_setup_rejects_a_negative_amplitude(chip7):
    # A negative amplitude would invert every tone, a phase error of pi.
    chip, plan = chip7
    with pytest.raises(ConfigError, match="amplitude must be finite and >= 0"):
        ReadoutSetup(**VALID_FIELDS[ReadoutSetup], amplitude=-0.1)
    with pytest.raises(ConfigError, match="amplitude must be finite and >= 0"):
        make_readout_setup(chip, (1, 2), amplitude=-0.1)
    with pytest.raises(ConfigError, match="amplitude must be finite and >= 0"):
        measure_crosstalk(chip, plan, 1, amplitude=-1.0)
    assert ReadoutSetup(**VALID_FIELDS[ReadoutSetup], amplitude=0.0).amplitude == 0.0


def test_setup_keeps_an_integral_float_count_as_an_int(chip7):
    chip, plan = chip7
    setup = ReadoutSetup(**VALID_FIELDS[ReadoutSetup], n_samples=4000.0)
    assert setup.n_samples == 4000 and type(setup.n_samples) is int
    noisy = dict(adc=CROSSTALK_MODES["adc"]["adc"], noise_std=1e-3, seed=3)
    assert measure_crosstalk(chip, plan, 2, n_samples=4000.0, **noisy) == \
        measure_crosstalk(chip, plan, 2, n_samples=4000, **noisy)


@pytest.mark.parametrize("spacing, kwargs, match", [
    (15.5e6, {}, "off the"),
    ((NOISE_GUARD_BINS - 1) * 1e6, {}, "bins apart"),
    (15e6, dict(sample_rate=10e6, n_samples=10), "Nyquist"),
], ids=["off-grid", "too-close", "beyond-nyquist"])
def test_crosstalk_rejects_plans_it_cannot_measure_exactly(spacing, kwargs, match):
    # a 1 MHz grid (4 GS/s, 4000 samples) unless kwargs say otherwise
    chip, plan = two_device_chip(spacing)
    with pytest.raises(ConfigError, match=match):
        measure_crosstalk(chip, plan, 1, **kwargs)


# --------------------------------------------------------------------------
# the shot loop: blocks of rows on lanes against one shot at a time


def receive_reference(setup, c, *, adc, noise_std, seeds):
    """The shot loop one shot at a time, on the calling thread: a fresh
    trace c[i] @ tones, noise from a Generator built per shot by
    derive_rng(seeds[i]), adc_quantize without its FFT band limit (the
    channels beyond the band are zeroed instead), then the projector."""
    c = c.copy()
    rx = fdmsim.rxchain
    plan = rx._channel_plan(tuple(setup.baseband_frequencies), setup.n_samples,
                            float(setup.sample_rate), setup.window)
    tones = plan.kernel.conj()
    c[:, rx._beyond_band(setup, adc)] = 0.0
    iq = np.empty_like(c)
    for i in range(c.shape[0]):
        trace = c[i] @ tones
        if noise_std > 0:
            quad = trace.view(np.float64).reshape(-1, 2)
            quad += derive_rng(seeds[i]).normal(0.0, noise_std, size=quad.shape)
        if adc is not None:
            trace = adc_quantize(IQTrace(trace, setup.sample_rate),
                                 replace(adc, analog_bandwidth=None)).samples
        iq[i], _ = rx._project(plan, trace)
    return iq


SHOT_SETUP = ReadoutSetup(device_ids=(1, 2, 3), lo_frequency=5e9,
                          baseband_frequencies=(-20e6, 3e6, 15e6),
                          sample_rate=64e6, n_samples=64)
# 12 MHz of analog band removes the channels at -20 and +15 MHz.
SHOT_CASES = {
    "noise": dict(adc=None, noise_std=0.05),
    "noise-hann": dict(adc=None, noise_std=0.05, window="hann"),
    "adc": dict(adc=AdcSpec(64e6, 8, full_scale=1.0), noise_std=0.0),
    "noise-adc": dict(adc=AdcSpec(64e6, 8, full_scale=1.0), noise_std=0.05),
    "noise-band-limited-adc": dict(adc=AdcSpec(64e6, 8, full_scale=0.4,
                                               analog_bandwidth=12e6), noise_std=0.05),
}


def shot_table(n_points):
    """Channel amplitudes whose peaks grow from 0.06 to 1.8 over the
    shots, so that a unit full scale clips some shots and not others."""
    rng = np.random.default_rng(n_points)
    scale = np.linspace(0.02, 0.6, n_points)[:, None]
    return scale * np.exp(2j * np.pi * rng.uniform(size=(n_points, 3)))


def recording(monkeypatch, name, record):
    """Replace rxchain's name by a wrapper that calls record(*args)
    first; returns the original."""
    original = getattr(fdmsim.rxchain, name)

    def wrapper(*args):
        record(*args)
        return original(*args)

    monkeypatch.setattr(fdmsim.rxchain, name, wrapper)
    return original


@pytest.mark.parametrize("case", list(SHOT_CASES))
@pytest.mark.parametrize(
    "n_points, rows",
    [
        (10, 3),  # 4 blocks, the last one partly full
        (12, 1),  # 12 one-row blocks: each lane's buffer is reused
        (2, 1),  # fewer shots than 3 and 4 lanes
        (7, 16),  # one block
    ],
)
def test_receive_equals_the_per_shot_loop_for_every_lane_count(case, n_points, rows,
                                                                monkeypatch, caplog):
    rx = fdmsim.rxchain
    kwargs = dict(SHOT_CASES[case])
    setup = replace(SHOT_SETUP, window=kwargs.pop("window", "rectangular"))
    monkeypatch.setattr(rx, "_SHOT_BLOCK_SAMPLES", rows * setup.n_samples)
    c = shot_table(n_points)
    noisy = kwargs["noise_std"] > 0
    seeds = [child_seed(11, i) for i in range(n_points)] if noisy else ()
    streams = _child_states(11, n_points) if noisy else None
    with caplog.at_level(logging.WARNING, logger="fdmsim.rxchain"):
        expected = receive_reference(setup, c, seeds=seeds, **kwargs)
        expected_clips = [r.getMessage() for r in caplog.records]
    if kwargs["adc"] is not None and n_points == 10:
        assert 0 < len(expected_clips) < n_points

    guard = threading.Lock()
    drawing, drawn, projected = set(), [], []
    projecting = [0, 0]  # running now, most at once
    project = rx._project

    def ordered_project(plan, samples, out):
        # out is the block's rows of the result
        with guard:
            projecting[0] += 1
            projecting[1] = max(projecting)
            projected.append((out.ctypes.data - out.base.ctypes.data) // out.strides[0])
        try:
            return project(plan, samples, out)
        finally:
            with guard:
                projecting[0] -= 1

    def record_draw(generator, state):
        with guard:
            drawing.add(threading.current_thread())
            drawn.append(state)

    monkeypatch.setattr(rx, "_project", ordered_project)
    recording(monkeypatch, "_set_state", record_draw)
    # Switch threads often, so that a lost update or a buffer reused too
    # early would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for lanes in (1, 2, 3, 4):
            monkeypatch.setattr(rx, "_lane_count", lambda lanes=lanes: lanes)
            projecting[1] = 0
            drawing.clear()
            drawn.clear()
            projected.clear()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="fdmsim.rxchain"):
                iq, noise = rx._receive(setup, c.copy(), streams=streams, **kwargs)
            assert noise is None
            assert np.array_equal(iq, expected)
            # one warning per clipping shot, in shot order
            assert [r.getMessage() for r in caplog.records] == expected_clips
            # the blocks are projected one at a time, in block order
            assert projecting[1] == 1
            assert projected == list(range(0, n_points, min(rows, n_points)))
            # every shot is drawn once, from its own stream, on at most
            # one lane per shot
            assert sorted(drawn) == sorted(streams or [])
            assert len(drawing) <= min(lanes, n_points)
    finally:
        sys.setswitchinterval(interval)


def test_a_noiseless_adc_run_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    rx = fdmsim.rxchain
    monkeypatch.setattr(fdmsim.lanes.threading, "Thread", no_thread)
    monkeypatch.setattr(rx, "_lane_count", lambda: 4)
    monkeypatch.setattr(rx, "_SHOT_BLOCK_SAMPLES", SHOT_SETUP.n_samples)
    kwargs = SHOT_CASES["adc"]
    c = shot_table(9)
    expected = receive_reference(SHOT_SETUP, c, seeds=(), **kwargs)
    iq, _ = rx._receive(SHOT_SETUP, c.copy(), streams=None, **kwargs)
    assert np.array_equal(iq, expected)


def run_bounded(call, timeout=30.0):
    """Run call() on a daemon thread of its own, joined with a timeout;
    returns the exception call raised, or None."""
    failure = []

    def target():
        try:
            call()
        except Exception as exc:
            failure.append(exc)

    runner = threading.Thread(target=target, name="shot-loop-caller", daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the shot loop hangs after a lane failed"
    return (failure or [None])[0]


@pytest.mark.parametrize("failing", ["drawing lane", "calling thread"])
def test_receive_raises_a_lane_failure_after_every_lane_ends(failing, monkeypatch):
    # One-row blocks on 3 lanes: a lane that has drawn its block waits
    # for its turn to project while another lane projects.
    rx = fdmsim.rxchain
    monkeypatch.setattr(rx, "_lane_count", lambda: 3)
    monkeypatch.setattr(rx, "_SHOT_BLOCK_SAMPLES", SHOT_SETUP.n_samples)
    callers = []
    a_lane_drew = threading.Event()

    def fail_on_a_lane(generator, state):
        # The caller waits here until another lane draws, which then
        # fails, so the failure comes from a drawing lane.
        if threading.current_thread() in callers:
            a_lane_drew.wait(10.0)
        else:
            a_lane_drew.set()
            raise RuntimeError("lane failed")

    def fail_on_the_caller(*args):
        if threading.current_thread() in callers:
            raise RuntimeError("lane failed")

    if failing == "drawing lane":
        recording(monkeypatch, "_set_state", fail_on_a_lane)
    else:
        recording(monkeypatch, "_project", fail_on_the_caller)

    def call():
        callers.append(threading.current_thread())
        rx._receive(SHOT_SETUP, shot_table(9), adc=None, noise_std=0.05,
                    streams=_child_states(1, 9))

    before = threading.active_count()
    failure = run_bounded(call)
    assert isinstance(failure, RuntimeError) and str(failure) == "lane failed"
    assert threading.active_count() == before


def test_receive_runs_its_lanes_on_one_blas_thread(monkeypatch):
    # Through numpy's own OpenBLAS handle: with BLAS forced to 2 threads,
    # the lanes run on one, the result is the one-thread result bit for
    # bit, and the caller's 2 threads are back after a normal return and
    # after the calling thread raises.
    rx = fdmsim.rxchain
    with fdmsim.lanes._blas_lock:
        blas = fdmsim.lanes._blas_functions()
    if not blas:
        pytest.skip("numpy's core module reaches no OpenBLAS thread count")
    get, set_count = blas
    caller_count = get()
    counts = []

    def fail(*args):
        raise RuntimeError("lane failed")

    monkeypatch.setattr(rx, "_SHOT_BLOCK_SAMPLES", 2 * SHOT_SETUP.n_samples)
    kwargs = dict(SHOT_CASES["noise-adc"])
    c = shot_table(10)
    streams = _child_states(11, 10)
    try:
        set_count(1)
        monkeypatch.setattr(rx, "_lane_count", lambda: 1)
        one_thread, _ = rx._receive(SHOT_SETUP, c.copy(), streams=streams, **kwargs)
        set_count(2)
        if get() != 2:
            pytest.skip("OpenBLAS does not take a second thread here")
        project = recording(monkeypatch, "_project", lambda *args: counts.append(get()))
        for lanes in (1, 2):
            monkeypatch.setattr(rx, "_lane_count", lambda lanes=lanes: lanes)
            counts.clear()
            iq, _ = rx._receive(SHOT_SETUP, c.copy(), streams=streams, **kwargs)
            assert iq.tobytes() == one_thread.tobytes()
            # one lane runs on the calling thread and pins nothing
            assert set(counts) == {1 if lanes > 1 else 2}
            assert get() == 2
        monkeypatch.setattr(rx, "_project", project)
        recording(monkeypatch, "_project", fail)
        with pytest.raises(RuntimeError, match="lane failed"):
            rx._receive(SHOT_SETUP, c.copy(), streams=streams, **kwargs)
        assert get() == 2
    finally:
        set_count(caller_count)
