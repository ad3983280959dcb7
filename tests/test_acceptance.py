"""Acceptance gate: nine end-to-end checks, one line printed each.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
pass/fail lines; the print() calls add the measured numbers under -s.
"""

import math
import time

import numpy as np
import pytest
import scipy.optimize
import scipy.signal
import scipy.stats

from fdmsim import (
    AdcSpec,
    Chip,
    DeviceRecord,
    FrequencyPlan,
    IQTrace,
    QubitParams,
    ResonatorParams,
    QubitStateLabel,
    ToneSpec,
    adc_quantize,
    adjacent_crosstalk,
    builtin_chip_path,
    carson_bandwidth,
    channelize,
    detect_flux_features,
    downconvert,
    dressed_resonance,
    fit_damped_sinusoid,
    load_chip,
    make_readout_setup,
    max_channels,
    measure_crosstalk,
    plan_for_chip,
    qubit_frequency,
    relaxation_telegraph_spectrum,
    run_flux_sweep,
    run_rabi,
    run_spectroscopy,
    synthesize_multitone,
    trace_energy,
    upconvert_ssb,
    write_sweep_csv,
    CapacityQuery,
)

from comb import make_comb
from test_dynamics import expected_inband_fraction

TWO_PI = 2 * math.pi
KAPPA = TWO_PI * 10e6


@pytest.fixture(scope="module")
def chip():
    return load_chip(builtin_chip_path())


def two_device_chip(spacing_hz):
    """Toggled qubit parked at its anticrossing so the notch fully clears
    the probe; spectator decoupled so its channel sees only the tail."""
    toggled = DeviceRecord(
        device_id=1,
        qubit=QubitParams(gap_delta=6.0e9, flux_sensitivity=500e9,
                          symmetry_flux=0.0, relaxation_rate_gamma=TWO_PI * 0.1e6),
        resonator=ResonatorParams(bare_frequency=6.0e9, total_linewidth_kappa=KAPPA,
                                  external_linewidth=0.95 * KAPPA,
                                  coupling_g=TWO_PI * 1.5e9),
    )
    spectator = DeviceRecord(
        device_id=2,
        qubit=QubitParams(gap_delta=4.0e9, flux_sensitivity=500e9,
                          symmetry_flux=0.0, relaxation_rate_gamma=TWO_PI * 0.1e6),
        resonator=ResonatorParams(bare_frequency=8.5e9, total_linewidth_kappa=KAPPA,
                                  external_linewidth=1e-4 * KAPPA, coupling_g=0.0),
    )
    chip = Chip(name="xtalk", devices=(toggled, spectator))
    f0 = 4.5e9
    plan = FrequencyPlan(
        band_start=f0 - 0.1e9, band_stop=f0 + 0.2e9,
        channels=((1, f0), (2, f0 + spacing_hz)),
    )
    return chip, plan


def test_criterion_1_crosstalk_anchors():
    t0 = time.perf_counter()
    assert adjacent_crosstalk(1.5 * KAPPA, KAPPA) == pytest.approx(-10.0, abs=0.1)
    assert adjacent_crosstalk(5.0 * KAPPA, KAPPA) == pytest.approx(-20.0, abs=0.1)
    worst = 0.0
    for mult in (1.5, 5.0):
        spacing = mult * KAPPA
        chip, plan = two_device_chip(spacing / TWO_PI)
        measured = measure_crosstalk(chip, plan, 1)[2]
        analytic = adjacent_crosstalk(spacing, KAPPA)
        worst = max(worst, abs(measured - analytic))
        assert measured == pytest.approx(analytic, abs=1.5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: PASS - anchors -10/-20 dB, end-to-end within "
          f"{worst:.2f} dB of analytic, {elapsed:.1f} s")


def test_criterion_2_capacity_anchors():
    t0 = time.perf_counter()

    def query(limit_db):
        return CapacityQuery(
            bandwidth=1e9, kappa=KAPPA, gamma=TWO_PI * 0.1e6,
            dispersive_shift=TWO_PI * 0.3e6, crosstalk_limit_db=limit_db,
        )

    tight = max_channels(query(-20.0))
    assert tight.count == 20
    loose = max_channels(query(-10.0))
    assert 54 <= loose.count <= 66
    note = " ".join(loose.notes)
    assert "66" in note and "60" in note
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS - 20 at -20 dB, {loose.count} at -10 dB with "
          f"de-rating note, {elapsed:.2f} s")


def test_criterion_3_carson_and_telegraph():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(100):
        shift = rng.uniform(0, TWO_PI * 5e6)
        gamma = rng.uniform(0, TWO_PI * 0.5e6)
        assert carson_bandwidth(shift, gamma) == 2 * (shift + 2 * gamma)

    spectrum = relaxation_telegraph_spectrum(
        gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6,
        duration=100e-6, n_trajectories=10_000, seed=1,
    )
    in_band = 1.0 - spectrum.out_of_band_fraction
    assert in_band >= 0.90
    # the exact expected fraction, from the motional-narrowing lineshape
    exact = expected_inband_fraction(
        gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=100e-6
    )
    assert exact >= 0.90
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3: PASS - Carson exact on grid, {100 * in_band:.1f}% "
          f"in-band over 1e4 trajectories ({100 * exact:.2f}% exact), {elapsed:.1f} s")


def test_criterion_4_seven_resonator_spectrum(chip):
    t0 = time.perf_counter()
    freqs = np.linspace(9.25e9, 10.35e9, 22001)
    result = run_spectroscopy(chip, freqs)
    amp = result.column("s21_amplitude", "feedline")
    dips, _ = scipy.signal.find_peaks(-amp, prominence=0.1 * (amp.max() - amp.min()))
    assert len(dips) == 7
    configured = sorted(d.resonator.bare_frequency for d in chip.devices)
    worst = 0.0
    for f_dip, f_cfg in zip(freqs[dips], configured):
        worst = max(worst, abs(f_dip - f_cfg))
        assert abs(f_dip - f_cfg) < 0.5e6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 4: PASS - 7 minima, worst offset {worst / 1e3:.0f} kHz "
          f"from configured, {elapsed:.1f} s")


def test_criterion_5_six_channel_flux_sweep(chip):
    t0 = time.perf_counter()
    ids = (1, 2, 3, 4, 5, 6)
    flux = np.linspace(-0.025, 0.025, 500)
    step = flux[1] - flux[0]
    setup = make_readout_setup(chip, ids)
    multi = run_flux_sweep(chip, flux, setup=setup)

    features = detect_flux_features(multi)
    worst_steps = 0.0
    for j, dev_id in enumerate(ids):
        found = np.sort(features[dev_id])
        assert len(found) == 2

        dev = chip.device(dev_id)

        def gap(phi):
            return qubit_frequency(dev.qubit, phi) - dev.resonator.bare_frequency

        oracle = sorted((scipy.optimize.brentq(gap, -0.025, dev.qubit.symmetry_flux),
                         scipy.optimize.brentq(gap, dev.qubit.symmetry_flux, 0.025)))
        for f_found, f_oracle in zip(found, oracle):
            worst_steps = max(worst_steps, abs(f_found - f_oracle) / step)
            assert abs(f_found - f_oracle) <= step

        # flat baseline: the central half of the inter-feature region is
        # quiet compared to the feature height
        col = multi.tables["amplitude"][:, j]
        inner = (flux > found[0] + 0.25 * (found[1] - found[0])) & (
            flux < found[1] - 0.25 * (found[1] - found[0]))
        ripple = col[inner].max() - col[inner].min()
        assert ripple < 0.05 * (col.max() - col.min())

    # multiplex equivalence: each channel alone reads the same values
    worst_rel = 0.0
    for j, dev_id in enumerate(ids):
        solo_setup = make_readout_setup(
            chip, (dev_id,), lo_frequency=setup.lo_frequency)
        solo = run_flux_sweep(chip, flux, setup=solo_setup)
        for table in ("amplitude", "phase"):
            a = multi.tables[table][:, j]
            b = solo.tables[table][:, 0]
            worst_rel = max(worst_rel, np.max(np.abs(a - b) / np.abs(b)))
            np.testing.assert_allclose(a, b, rtol=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 5: PASS - 2 features/device within {worst_steps:.2f} "
          f"steps of root-find, multiplex equivalence {worst_rel:.1e}, "
          f"{elapsed:.1f} s")


def test_criterion_6_simultaneous_rabi(chip):
    t0 = time.perf_counter()
    ids = (2, 4, 6)
    durations = np.linspace(5e-9, 1.2e-6, 200)
    scales = (0.6, 0.8, 1.0, 1.2, 1.4)

    fitted = {dev_id: [] for dev_id in ids}
    for scale in scales:
        result = run_rabi(chip, durations, setup=make_readout_setup(chip, ids),
                          amplitude_scales=[scale] * 3)
        for dev_id in ids:
            fit = fit_damped_sinusoid(
                durations, result.column("iq_amplitude", dev_id))
            assert fit.valid
            assert fit.r_squared > 0.9
            fitted[dev_id].append(fit.frequency)

    worst_r2 = 1.0
    for dev_id in ids:
        lin = scipy.stats.linregress(scales, fitted[dev_id])
        worst_r2 = min(worst_r2, lin.rvalue ** 2)
        assert lin.rvalue ** 2 > 0.999

    ideal = run_rabi(chip, durations, setup=make_readout_setup(chip, ids),
                     gamma=0.0, readout=False)
    expected = np.sin(np.pi * 5e6 * durations) ** 2
    worst_pop = 0.0
    for dev_id in ids:
        pop = ideal.column("excited_population", dev_id)
        worst_pop = max(worst_pop, np.max(np.abs(pop - expected)))
        np.testing.assert_allclose(pop, expected, atol=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 6: PASS - frequency vs amplitude R^2 >= {worst_r2:.6f}, "
          f"ideal population within {worst_pop:.1e} of sin^2, {elapsed:.1f} s")


def test_criterion_7_dsp_property_suite():
    t0 = time.perf_counter()
    fs, n = 1e9, 4000
    grid = fs / n

    # channelizer orthogonality: bin-centered tones recover exactly
    tones = [
        ToneSpec(baseband_frequency=13 * grid, amplitude=0.8, phase=0.4),
        ToneSpec(baseband_frequency=-41 * grid, amplitude=0.3, phase=-1.1),
    ]
    trace = synthesize_multitone(tones, n, fs)
    probes = [13 * grid, -41 * grid, 27 * grid]
    meas = channelize(trace, probes)
    assert abs(meas[0].complex_amplitude - 0.8 * np.exp(0.4j)) < 1e-12
    assert abs(meas[1].complex_amplitude - 0.3 * np.exp(-1.1j)) < 1e-12
    assert meas[2].amplitude < 1e-12  # empty bin sees nothing

    # SSB round trip is the identity
    rf = upconvert_ssb(trace, 9.6e9)
    back = downconvert(rf)
    assert np.max(np.abs(back.samples - trace.samples)) < 1e-12

    # Parseval: time-domain energy equals spectral energy
    energy_t = trace_energy(trace)
    energy_f = float(np.sum(np.abs(np.fft.fft(trace.samples)) ** 2) / n)
    assert energy_t == pytest.approx(energy_f, rel=1e-12)

    # ADC SNR follows 6.02 b + 1.76 dB for a full-scale tone
    n2, k = 8192, 131
    t = np.arange(n2) / fs
    tone = np.exp(2j * np.pi * (k * fs / n2) * t)
    worst_snr = 0.0
    for bits in (8, 12, 16):
        adc = AdcSpec(sample_rate=fs, bits=bits, full_scale=1.0)
        out = adc_quantize(IQTrace(samples=tone, sample_rate=fs), adc)
        spectrum = np.fft.fft(out.samples) / n2
        signal = abs(spectrum[k]) ** 2
        noise = np.sum(np.abs(spectrum) ** 2) - signal
        snr_db = 10 * np.log10(signal / noise)
        worst_snr = max(worst_snr, abs(snr_db - (6.02 * bits + 1.76)))
        assert snr_db == pytest.approx(6.02 * bits + 1.76, abs=0.5)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 7: PASS - orthogonality/SSB/Parseval exact, ADC SNR "
          f"within {worst_snr:.2f} dB of 6.02b+1.76, {elapsed:.1f} s")


def test_criterion_8_deterministic_csv(chip, tmp_path):
    flux = np.linspace(-0.02, 0.02, 40)
    pairs = []
    for name in ("a", "b"):
        sweep = run_flux_sweep(chip, flux, setup=make_readout_setup(chip, (1, 2, 3)),
                               noise_std=2e-4, seed=42, config_hash="fixed")
        path = tmp_path / f"sweep_{name}.csv"
        write_sweep_csv(path, sweep)
        pairs.append(path.read_bytes())
    assert pairs[0] == pairs[1]

    durations = np.linspace(1e-8, 4e-7, 25)
    pairs = []
    for name in ("a", "b"):
        rabi = run_rabi(chip, durations, setup=make_readout_setup(chip, (4,)), noise_std=2e-4,
                        seed=7, config_hash="fixed")
        path = tmp_path / f"rabi_{name}.csv"
        write_sweep_csv(path, rabi)
        pairs.append(path.read_bytes())
    assert pairs[0] == pairs[1]
    print("criterion 8: PASS - noisy sweep and rabi CSVs byte-identical "
          "across reruns")


def test_criterion_9_hundreds_of_channels():
    """The abstract's "hundreds of qubits on a chip": 300 channels of
    make_comb(300), read at 2 GS/s with n = 8000 samples.

    Part 1, checked here: the capacity arithmetic admits 300 channels in
    the comb's 1.5 GHz at -20 dB, at the 5 MHz (5 kappa) spacing of the
    crosstalk rule, and plan_for_chip places all 300 on the DFT grid,
    strictly increasing and 5 MHz apart.

    Parts 2-5 land with ROADMAP items 9, 1 and 2: a noisy 12-bit readout
    of all 300 channels that clips no sample (item 9), a noisy flux
    sweep that finds every crossing (item 1), the closed-form crosstalk
    matrix against measure_crosstalk (item 2), and then a time bound.
    The comb's 1.5 GHz fits one LO and one sample rate; a plan over
    several LOs, which 300 channels at chip7's 10 MHz linewidth would
    need, is a later step.
    """
    t0 = time.perf_counter()
    comb = make_comb(300)
    dev = comb.devices[0]
    ground = dressed_resonance(dev, 0.0, QubitStateLabel.GROUND)
    excited = dressed_resonance(dev, 0.0, QubitStateLabel.EXCITED)
    capacity = max_channels(CapacityQuery(
        bandwidth=1.5e9, kappa=dev.resonator.total_linewidth_kappa,
        gamma=dev.qubit.relaxation_rate_gamma,
        dispersive_shift=TWO_PI * abs(ground - excited) / 2, crosstalk_limit_db=-20.0,
    ))
    assert capacity.count == 300
    assert capacity.spacing == pytest.approx(5e6, rel=1e-12)
    assert capacity.crosstalk_spacing == capacity.spacing

    grid = 2e9 / 8000
    plan = plan_for_chip(comb, grid=grid)
    assert plan.device_ids == comb.device_ids
    assert all((f / grid).is_integer() for f in plan.frequencies)
    np.testing.assert_array_equal(plan.spacings(), 5e6)
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: PASS (part 1) - {capacity.count} channels at "
          f"{capacity.spacing:.6g} Hz, all 300 planned on the {grid:.6g} Hz grid, "
          f"{elapsed:.2f} s")
