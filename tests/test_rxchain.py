"""Receive chain: mixing, noise, quantization, channelization, crosstalk."""

import math

import numpy as np
import pytest

from fdmsim import (
    AdcSpec,
    Chip,
    ConfigError,
    DeviceRecord,
    FrequencyPlan,
    IQTrace,
    LoMismatchError,
    QubitParams,
    ResonatorParams,
    ToneSpec,
    adc_quantize,
    add_awgn,
    adjacent_crosstalk,
    apply_feedline,
    channelize,
    downconvert,
    measure_crosstalk,
    rail_fraction,
    s21_feedline,
    synthesize_multitone,
    upconvert_ssb,
)

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
    rx = downconvert(upconvert_ssb(base, 9.6e9), 9.6e9)
    np.testing.assert_allclose(rx.samples, base.samples, rtol=1e-13)
    assert rx.carrier_frequency is None


def test_downconvert_phase_offset_rotates():
    base = tone_trace([10e6], n=64)
    rx = downconvert(upconvert_ssb(base, 9.6e9), 9.6e9, phase_offset=0.5)
    np.testing.assert_allclose(rx.samples, base.samples * np.exp(-0.5j), rtol=1e-12)


def test_downconvert_requires_matching_lo():
    rf = upconvert_ssb(tone_trace([10e6], n=64), 9.6e9)
    with pytest.raises(LoMismatchError):
        downconvert(rf, 9.7e9)
    with pytest.raises(LoMismatchError):
        downconvert(tone_trace([10e6], n=64), 9.6e9)  # never up-converted


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


def test_adc_rail_fraction_counts_clipping():
    adc = AdcSpec(sample_rate=1e9, bits=8, full_scale=0.5)
    x = np.array([0.0, 0.2, 0.9, -0.8])
    out = adc_quantize(IQTrace(samples=x + 0j, sample_rate=1e9), adc)
    # imaginary quadrature is all zeros: 2 of 8 quadrature samples railed
    assert rail_fraction(out, adc) == pytest.approx(2 / 8)


def test_adc_rejects_rate_mismatch():
    adc = AdcSpec(sample_rate=1e9, bits=8, full_scale=1.0)
    with pytest.raises(ConfigError):
        adc_quantize(IQTrace(samples=np.zeros(4) + 0j, sample_rate=2e9), adc)


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


def test_channelize_rejects_carried_trace_and_off_nyquist():
    from fdmsim import NyquistError

    rf = upconvert_ssb(tone_trace([10e6], n=64), 9.6e9)
    with pytest.raises(ConfigError):
        channelize(rf, [10e6])
    base = tone_trace([10e6], n=64)
    with pytest.raises(NyquistError):
        channelize(base, [600e6])


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
    rx = downconvert(out, lo)
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
    from fdmsim import UnknownDeviceError

    with pytest.raises(UnknownDeviceError):
        measure_crosstalk(chip, plan, 3)


def test_measure_crosstalk_deterministic_under_noise():
    chip, plan = two_device_chip(50e6)
    a = measure_crosstalk(chip, plan, 1, noise_std=1e-4, seed=9)
    b = measure_crosstalk(chip, plan, 1, noise_std=1e-4, seed=9)
    assert a == b
