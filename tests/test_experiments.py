"""Sweep drivers, feature detection, Rabi fits, and result serialization."""

import dataclasses
import json
import logging
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdmsim.device
import fdmsim.dynamics
import fdmsim.experiments
import fdmsim.planner
import fdmsim.rxchain
from fdmsim import (
    GROUND,
    AdcSpec,
    ConfigError,
    DriveSpec,
    QubitStateLabel,
    ReadoutSetup,
    SweepResult,
    ToneSpec,
    UnknownDeviceError,
    acquire,
    adc_quantize,
    add_awgn,
    apply_feedline,
    builtin_chip_path,
    channelize,
    child_seed,
    downconvert,
    detect_flux_features,
    dressed_resonance,
    evolve_for,
    fit_damped_sinusoid,
    load_chip,
    make_readout_setup,
    measure_crosstalk,
    plan_for_chip,
    qubit_frequency,
    read_sweep_csv,
    relaxation_telegraph_spectrum,
    run_flux_sweep,
    run_rabi,
    run_spectroscopy,
    s21_feedline,
    synthesize_multitone,
    upconvert_ssb,
    write_sweep_csv,
    write_sweep_json,
)

from comb import make_comb

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def chip():
    return load_chip(builtin_chip_path())


def make_result(n=5, device_ids=(1, 2), **meta):
    axis = np.linspace(0.0, 1.0, n)
    return SweepResult(
        kind="flux_sweep",
        axis_name="flux_phi0",
        axis_values=axis,
        tables={"amplitude": np.zeros((n, len(device_ids)))},
        device_ids=device_ids,
        metadata=meta,
    )


# --------------------------------------------------------------------------
# result container


def test_sweep_result_rejects_shape_mismatch():
    with pytest.raises(ConfigError, match="shape"):
        SweepResult(
            kind="x", axis_name="t", axis_values=np.arange(4.0),
            tables={"y": np.zeros((4, 3))}, device_ids=(1, 2),
        )


def test_sweep_result_rejects_repeated_device_ids():
    # The second dev3 column could not be reached by its label.
    with pytest.raises(ConfigError, match=r"duplicate device ids in \(3, 3\)"):
        SweepResult(kind="x", axis_name="t", axis_values=np.arange(4.0),
                    tables={"y": np.zeros((4, 2))}, device_ids=(3, 3))


def test_sweep_result_rejects_empty_axis():
    with pytest.raises(ConfigError):
        SweepResult(kind="x", axis_name="t", axis_values=np.array([]), tables={})


def test_column_lookup_by_device_id_and_label():
    result = make_result()
    result.tables["amplitude"][:, 1] = 0.5
    np.testing.assert_array_equal(result.column("amplitude", 2), 0.5)
    np.testing.assert_array_equal(result.column("amplitude", "dev2"), 0.5)
    with pytest.raises(ConfigError, match="no column"):
        result.column("amplitude", 9)


# --------------------------------------------------------------------------
# readout setup


def test_setup_snaps_channels_to_dft_grid(chip):
    setup = make_readout_setup(chip, sample_rate=4e9, n_samples=4000)
    grid = 4e9 / 4000
    for f in setup.baseband_frequencies:
        assert f / grid == pytest.approx(round(f / grid), abs=1e-9)
    # snapped channel lands within half a bin of the dressed resonance
    for dev_id, f_ch in zip(setup.device_ids, setup.channel_frequencies):
        dev = chip.device(dev_id)
        target = dressed_resonance(dev, dev.qubit.symmetry_flux)
        assert abs(f_ch - target) <= grid / 2 + 1e-6


def setup_device_by_device(chip, sample_rate, n_samples):
    """make_readout_setup built from one public dressed_resonance call per device."""
    targets = [dressed_resonance(d, d.qubit.symmetry_flux) for d in chip.devices]
    grid = fdmsim.rxchain._acquisition_grid(sample_rate, n_samples)
    lo = fdmsim.rxchain._default_lo(targets, grid)
    return ReadoutSetup(
        device_ids=chip.device_ids,
        lo_frequency=lo,
        baseband_frequencies=tuple(fdmsim.planner._grid_offset(f, lo, grid) for f in targets),
        sample_rate=sample_rate,
        n_samples=n_samples,
    )


def test_setup_equals_the_device_by_device_setup(chip):
    comb = make_comb(100, zero_coupling=(0, 37, 99))
    for c, rate, n in ((chip, 1e9, 4000), (chip, 4e9, 4000), (comb, 2e9, 8000)):
        setup = make_readout_setup(c, sample_rate=rate, n_samples=n)
        assert setup == setup_device_by_device(c, rate, n)


def test_setup_default_lo_is_mean_snapped(chip):
    setup = make_readout_setup(chip, sample_rate=4e9, n_samples=4000)
    targets = [
        dressed_resonance(d, d.qubit.symmetry_flux) for d in chip.devices
    ]
    grid = 4e9 / 4000
    assert setup.lo_frequency == pytest.approx(
        grid * round(np.mean(targets) / grid)
    )


@pytest.mark.parametrize("n_samples", [0, -1])
def test_setup_checks_the_count_before_the_grid(chip, n_samples):
    with pytest.raises(ConfigError, match="n_samples >= 1"):
        make_readout_setup(chip, n_samples=n_samples)


@pytest.mark.parametrize("n_samples", [4000.5, math.nan, math.inf])
def test_setup_rejects_a_non_integral_count(chip, n_samples):
    with pytest.raises(ConfigError, match="integral n_samples >= 1"):
        make_readout_setup(chip, n_samples=n_samples)


def test_setup_with_an_integral_float_count_reads_out_as_with_the_int(chip):
    setups = [make_readout_setup(chip, n_samples=n) for n in (4000.0, 4000)]
    assert setups[0] == setups[1] and type(setups[0].n_samples) is int
    fluxes = np.linspace(-0.02, 0.02, 5)
    sweeps = [run_flux_sweep(chip, fluxes, setup=setup, adc=BAND_LIMITED_ADC,
                             noise_std=1e-3, seed=5) for setup in setups]
    for name in ("amplitude", "phase"):
        np.testing.assert_array_equal(sweeps[0].tables[name], sweeps[1].tables[name])


def test_setup_device_subset(chip):
    setup = make_readout_setup(chip, (3, 5))
    assert setup.device_ids == (3, 5)
    assert len(setup.baseband_frequencies) == 2


def test_setup_rejects_band_beyond_nyquist(chip):
    # chip spans ~0.9 GHz; +-0.45 GHz from the LO needs fs > 0.9 GHz
    with pytest.raises(ConfigError, match="Nyquist"):
        make_readout_setup(chip, sample_rate=0.5e9)


def test_setup_rejects_duplicate_device_ids(chip):
    with pytest.raises(ConfigError, match="duplicate"):
        make_readout_setup(chip, (1, 1))


@pytest.mark.parametrize("noise_std", [0.0, 1e-3])
def test_setups_with_ids_off_the_chip_are_refused_by_every_entry_point(chip, noise_std):
    # A valid channel comb whose label names no chip device: the output
    # would be labelled dev99.
    setup = dataclasses.replace(make_readout_setup(chip, (1,)), device_ids=(99,))
    ground = [-1.0] * len(chip.devices)
    with pytest.raises(UnknownDeviceError, match="99"):
        run_flux_sweep(chip, [0.0, 0.001], setup=setup, noise_std=noise_std)
    with pytest.raises(UnknownDeviceError, match="99"):
        acquire(chip, setup, ground, 0.0, noise_std=noise_std)
    with pytest.raises(UnknownDeviceError, match="99"):
        run_rabi(chip, [0.0, 1e-8], setup=setup, noise_std=noise_std)


def test_setup_rejects_channels_snapping_to_one_bin(chip):
    # a 500 MHz grid puts devices 1 and 2 (150 MHz apart) in the same bin
    with pytest.raises(ConfigError, match="bins apart"):
        make_readout_setup(chip, (1, 2), sample_rate=1e9, n_samples=2)


GRID = 1e9 / 4000


@pytest.mark.parametrize(
    "baseband, match",
    [
        ((10.3 * GRID,), "off the"),
        ((0.0, 1e-6 * GRID), "off the"),
        ((0.5e9,), "Nyquist"),
        ((-0.5e9 - GRID,), "Nyquist"),
        ((0.0, 2 * GRID), "bins apart"),
        ((-0.5e9, 0.5e9 - GRID), "bins apart"),
    ],
)
def test_hand_built_setup_is_validated(baseband, match):
    with pytest.raises(ConfigError, match=match):
        ReadoutSetup(
            device_ids=tuple(range(1, len(baseband) + 1)),
            lo_frequency=9.6e9,
            baseband_frequencies=baseband,
        )


@pytest.mark.parametrize(
    "baseband, pair",
    [
        # the closest channels are first and last in input order: apart in
        # bins, and across the wrap from the top bin to the bottom one
        ((0.0, 10 * GRID, GRID), r"\+0 and \+250000 Hz are 1 bins"),
        ((-0.5e9, 0.0, 0.5e9 - GRID), r"-500000000 and \+499750000 Hz are 1 bins"),
    ],
)
def test_hand_built_setup_names_the_closest_channels(baseband, pair):
    with pytest.raises(ConfigError, match=pair):
        ReadoutSetup(device_ids=(1, 2, 3), lo_frequency=9.6e9, baseband_frequencies=baseband)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(sample_rate=math.nan), "sample_rate must be finite"),
        (dict(sample_rate=math.inf), "sample_rate must be finite"),
        (dict(sample_rate=-1e9), r"sample_rate must be finite and > 0, got -1000000000\.0"),
        (dict(sample_rate=1e-300), "grid_steps must be finite"),
        (dict(lo_frequency=math.nan), "reference must be finite"),
        (dict(lo_frequency=-math.inf), "reference must be finite"),
    ],
)
def test_setup_rejects_a_grid_or_lo_it_cannot_snap_to(chip, kwargs, match):
    with pytest.raises(ConfigError, match=match):
        make_readout_setup(chip, **kwargs)


def test_hand_built_setup_accepts_grid_channels_at_the_guard():
    setup = ReadoutSetup(
        device_ids=(1, 2, 3),
        lo_frequency=9.6e9,
        baseband_frequencies=(-0.5e9, 0.0, 3 * GRID),
        window="hann",
    )
    assert setup.channel_frequencies[1] == 9.6e9
    with pytest.raises(ConfigError, match="window"):
        ReadoutSetup(device_ids=(1,), lo_frequency=9.6e9,
                     baseband_frequencies=(0.0,), window="kaiser")


# --------------------------------------------------------------------------
# acquisition core: closed form against the full chain


def full_chain_shot(chip, setup, states, flux, *, adc=None, noise_std=0.0, seed=0, point=0):
    """One shot composed explicitly from the public stages: channel
    amplitudes, phases and the noise estimate.  Noise, if any, comes from
    child_seed(seed, point), the stream of that sweep point; an ADC
    applies its own FFT band limit."""
    tones = [ToneSpec(baseband_frequency=f, amplitude=setup.amplitude)
             for f in setup.baseband_frequencies]
    probe = upconvert_ssb(
        synthesize_multitone(tones, setup.n_samples, setup.sample_rate),
        setup.lo_frequency,
    )
    rx = downconvert(apply_feedline(probe, chip, states, flux))
    if adc is not None:
        rx = adc_quantize(rx, adc, noise_std=noise_std, seed=child_seed(seed, point))
    elif noise_std > 0:
        rx = add_awgn(rx, noise_std, child_seed(seed, point))
    meas = channelize(rx, setup.baseband_frequencies, window=setup.window)
    return (np.array([m.amplitude for m in meas]), np.array([m.phase for m in meas]),
            meas[0].noise_std)


@pytest.mark.parametrize("window", ["rectangular", "hann"])
def test_closed_form_acquisition_matches_full_chain(chip, window):
    ids = (1, 2, 3, 4, 5, 6)
    setup = make_readout_setup(chip, ids, window=window)
    crossings = [f for d in ids for f in crossing_fluxes(chip.device(d))]
    fluxes = np.concatenate([np.linspace(-0.025, 0.025, 9), crossings])
    rng = np.random.default_rng(21)
    worst_amp = worst_phase = 0.0
    for flux in fluxes:
        states = rng.uniform(-1.0, 1.0, len(chip.devices))
        meas = acquire(chip, setup, states, flux)
        amp = np.array([m.amplitude for m in meas])
        phase = np.array([m.phase for m in meas])
        ref_amp, ref_phase, _ = full_chain_shot(chip, setup, states, flux)
        worst_amp = max(worst_amp, np.max(np.abs(amp - ref_amp) / ref_amp))
        d_phase = np.abs((phase - ref_phase + np.pi) % (2 * np.pi) - np.pi)
        worst_phase = max(worst_phase, np.max(d_phase))
        assert all(m.noise_std == 0.0 for m in meas)
    assert worst_amp <= 1e-12
    assert worst_phase <= 1e-11


# The noisy core builds each received trace from the closed form; the
# composed chain (with apply_feedline, downconvert and the ADC's FFT band
# limit) is its oracle.  The LO sits 50 MHz above the default, so the
# channels lie at -425 ... +325 MHz and only the -425 MHz one is beyond
# the 400 MHz analog band.
NOISY_LO_SHIFT = 50e6
BAND_LIMITED_ADC = AdcSpec(sample_rate=1e9, bits=12, full_scale=1.0, analog_bandwidth=400e6)


def noisy_setup(chip, window):
    ids = (1, 2, 3, 4, 5, 6)
    lo = make_readout_setup(chip, ids).lo_frequency + NOISY_LO_SHIFT
    return make_readout_setup(chip, ids, lo_frequency=lo, window=window)


def check_noisy_shot(chip, setup, states, flux, adc, noise_std, seed):
    meas = acquire(chip, setup, states, flux, adc=adc, noise_std=noise_std, seed=seed)
    amp = np.array([m.amplitude for m in meas])
    phase = np.array([m.phase for m in meas])
    ref_amp, ref_phase, ref_noise = full_chain_shot(
        chip, setup, states, flux, adc=adc, noise_std=noise_std, seed=seed)
    if adc is not None:
        np.testing.assert_array_equal(amp, ref_amp)
        np.testing.assert_array_equal(phase, ref_phase)
        assert meas[0].noise_std == ref_noise
    else:
        assert np.max(np.abs(amp - ref_amp) / ref_amp) <= 1e-12
        assert np.max(np.abs((phase - ref_phase + np.pi) % (2 * np.pi) - np.pi)) <= 1e-11
        assert meas[0].noise_std == pytest.approx(ref_noise, rel=1e-9)
    return amp, meas[0].noise_std


@pytest.mark.parametrize("window", ["rectangular", "hann"])
@pytest.mark.parametrize("adc", [None, BAND_LIMITED_ADC], ids=["awgn", "adc"])
def test_noisy_acquisition_matches_full_chain(chip, window, adc):
    setup = noisy_setup(chip, window)
    assert sum(abs(f) > 400e6 for f in setup.baseband_frequencies) == 1
    out = [abs(f) > 400e6 for f in setup.baseband_frequencies].index(True)
    fluxes = [-0.02, 0.0, crossing_fluxes(chip.device(3))[1]]
    rng = np.random.default_rng(33)
    for seed in (0, 7, 2**40 + 3):
        for flux in fluxes:
            for states in (np.full(len(chip.devices), -1.0),
                           rng.uniform(-1.0, 1.0, len(chip.devices))):
                amp, noise = check_noisy_shot(chip, setup, states, flux, adc, 2e-3, seed)
                if adc is not None:
                    # the band limit removed the tone: only noise is left
                    assert amp[out] < 6 * noise < 0.05 * np.min(np.delete(amp, out))


def test_noisy_sweep_point_i_is_the_chain_with_child_seed_i(chip, monkeypatch):
    # Five points in blocks of two rows: three blocks, the last partly
    # full, on one and on two lanes.
    setup = noisy_setup(chip, "rectangular")
    monkeypatch.setattr(fdmsim.rxchain, "_SHOT_BLOCK_SAMPLES", 2 * setup.n_samples)
    fluxes = np.linspace(-0.02, 0.02, 5)
    states = [-1.0] * len(chip.devices)
    seed = 2**70 + 9
    ref = [full_chain_shot(chip, setup, states, flux, adc=BAND_LIMITED_ADC,
                           noise_std=2e-3, seed=seed, point=i)
           for i, flux in enumerate(fluxes)]
    for lanes in (1, 2):
        monkeypatch.setattr(fdmsim.rxchain, "_lane_count", lambda lanes=lanes: lanes)
        sweep = run_flux_sweep(chip, fluxes, setup=setup, adc=BAND_LIMITED_ADC,
                               noise_std=2e-3, seed=seed)
        for i, (amp, phase, _) in enumerate(ref):
            np.testing.assert_array_equal(sweep.tables["amplitude"][i], amp)
            np.testing.assert_array_equal(sweep.tables["phase"][i], phase)


# derandomize: the same 30 examples on every run, so the suite stays
# deterministic.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    states=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
    flux=st.floats(-0.025, 0.025),
    seed=st.integers(0, 2**63 - 1),
    window=st.sampled_from(["rectangular", "hann"]),
    adc=st.sampled_from([None, BAND_LIMITED_ADC]),
    noise_std=st.sampled_from([1e-4, 2e-3]),
)
def test_noisy_acquisition_matches_full_chain_property(states, flux, seed, window, adc, noise_std):
    chip = load_chip(builtin_chip_path())
    check_noisy_shot(chip, noisy_setup(chip, window), states, flux, adc, noise_std, seed)


def counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_noisy_sweep_evaluates_s21_once_and_builds_no_feedline_trace(chip, monkeypatch):
    calls = Counter()
    for module, name in ((fdmsim.experiments, "apply_feedline"),
                         (fdmsim.rxchain, "apply_feedline"),
                         (fdmsim.experiments, "downconvert"),
                         (fdmsim.experiments, "s21_feedline"),
                         (fdmsim.device, "s21_feedline")):
        monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
    fluxes = np.linspace(-0.02, 0.02, 50)
    for adc in (None, BAND_LIMITED_ADC):
        calls.clear()
        run_flux_sweep(chip, fluxes, setup=noisy_setup(chip, "hann"), adc=adc,
                       noise_std=2e-3, seed=5)
        assert calls == {"s21_feedline": 1}


def test_only_acquire_pays_for_the_noise_estimate(chip, monkeypatch):
    # the sweep drivers record no noise estimate, so no shot runs an FFT
    calls = Counter()
    monkeypatch.setattr(np.fft, "fft", counting(calls, "fft", np.fft.fft))
    setup = noisy_setup(chip, "hann")
    for adc in (None, BAND_LIMITED_ADC):
        run_flux_sweep(chip, np.linspace(-0.02, 0.02, 20), setup=setup, adc=adc,
                       noise_std=2e-3, seed=5)
    run_rabi(chip, np.linspace(5e-9, 6e-7, 20), setup=make_readout_setup(chip, (2, 4, 6)),
             adc=AdcSpec(sample_rate=1e9, bits=12, full_scale=1.0), noise_std=2e-3, seed=5)
    assert calls["fft"] == 0
    ground = [-1.0] * len(chip.devices)
    meas = acquire(chip, setup, ground, 0.0, adc=BAND_LIMITED_ADC, noise_std=2e-3, seed=5)
    assert calls["fft"] == 1
    assert meas[0].noise_std > 0


def test_core_rejects_an_adc_at_another_rate(chip):
    # the shot loop quantizes without adc_quantize, so it checks the rate itself
    adc = AdcSpec(sample_rate=2e9, bits=12, full_scale=1.0)
    setup = make_readout_setup(chip, (1, 2))
    with pytest.raises(ConfigError, match="ADC rate"):
        acquire(chip, setup, [-1.0] * len(chip.devices), 0.0, adc=adc)
    with pytest.raises(ConfigError, match="ADC rate"):
        run_flux_sweep(chip, np.linspace(-0.01, 0.01, 3), setup=setup, adc=adc,
                       noise_std=1e-3)
    with pytest.raises(ConfigError, match="ADC rate"):
        run_rabi(chip, np.linspace(5e-9, 5e-8, 3), setup=make_readout_setup(chip, (2,)), adc=adc)


def clip_counts(caplog):
    return [r.args[0] for r in caplog.records
            if r.name == "fdmsim.rxchain" and r.getMessage().startswith("ADC clipped")]


def test_clipping_shot_logs_the_count_of_adc_quantize(chip, caplog):
    # six tones of about 5e-3 in their dips sum to peaks near 0.03, so a
    # 0.02 full scale clips some samples and not others
    setup = make_readout_setup(chip, (1, 2, 3, 4, 5, 6))
    adc = AdcSpec(sample_rate=1e9, bits=12, full_scale=0.02)
    states = [-1.0] * len(chip.devices)
    with caplog.at_level(logging.WARNING, logger="fdmsim.rxchain"):
        acquire(chip, setup, states, 0.0, adc=adc, noise_std=2e-3, seed=8)
        core = clip_counts(caplog)
        caplog.clear()
        full_chain_shot(chip, setup, states, 0.0, adc=adc, noise_std=2e-3, seed=8)
        chain = clip_counts(caplog)
    assert len(core) == 1
    assert 0 < core[0] < 2 * setup.n_samples
    assert core == chain


def counting_matrices(calls, fn):
    """Counts the calls of _expm as "calls" and the matrices of their
    stacks as "expm"."""
    def counted(m):
        calls["calls"] += 1
        calls["expm"] += m.size // (m.shape[-1] * m.shape[-2])
        return fn(m)

    return counted


def test_rabi_builds_one_propagator_per_distinct_step(chip, monkeypatch):
    calls = Counter()
    monkeypatch.setattr(fdmsim.dynamics, "_expm",
                        counting_matrices(calls, fdmsim.dynamics._expm))
    durations = np.linspace(5e-9, 1.2e-6, 200)
    steps = np.diff(durations, prepend=0.0)
    ids = (2, 4, 6)
    result = run_rabi(chip, durations, setup=make_readout_setup(chip, ids), readout=False)
    assert calls["expm"] <= len(set(steps.tolist())) * len(ids)
    assert calls["expm"] < durations.size
    # the reused propagators give the step-by-step evolution bit for bit
    dev = chip.device(4)
    d = DriveSpec(5e6, 1.0)
    state, z = GROUND, []
    for step in steps:
        state = evolve_for(state, d, dev.qubit.relaxation_rate_gamma, 0.0, step)
        z.append(state.z)
    np.testing.assert_array_equal(result.column("excited_population", 4),
                                  (np.array(z) + 1.0) / 2.0)


@pytest.mark.parametrize("scales, n_trajectories", [
    ([1.0, 1.0, 1.0], 1),
    ([0.6, 0.6, 1.2], 2),
])
def test_rabi_computes_one_trajectory_per_distinct_drive(chip, monkeypatch, scales,
                                                         n_trajectories):
    calls = Counter()
    monkeypatch.setattr(fdmsim.dynamics, "_expm",
                        counting_matrices(calls, fdmsim.dynamics._expm))
    durations = np.linspace(5e-9, 1.2e-6, 200)
    steps = np.diff(durations, prepend=0.0).tolist()
    ids = (2, 4, 6)
    # chip7's devices share one relaxation rate, so equal scales mean equal drives
    assert len({chip.device(d).qubit.relaxation_rate_gamma for d in ids}) == 1
    result = run_rabi(chip, durations, setup=make_readout_setup(chip, ids),
                      amplitude_scales=scales,
                      readout=False)
    assert calls["expm"] == len(set(steps)) * n_trajectories
    # each trajectory exponentiates all its distinct steps in one stack
    assert calls["calls"] == n_trajectories
    # every column, shared or not, is the step-by-step evolution bit for bit
    for dev_id, scale in zip(ids, scales):
        drive = DriveSpec(5e6, scale)
        gamma = chip.device(dev_id).qubit.relaxation_rate_gamma
        state, z = GROUND, []
        for step in steps:
            state = evolve_for(state, drive, gamma, 0.0, step)
            z.append(state.z)
        np.testing.assert_array_equal(result.column("excited_population", dev_id),
                                      (np.array(z) + 1.0) / 2.0)


@pytest.mark.parametrize("gamma, gamma_phi, detuning", [
    (None, 0.0, 0.0),                 # lossy: chip7's own relaxation
    (0.0, 0.0, 0.0),                  # lossless: the norm is kept
    (TWO_PI * 0.2e6, 1e5, 3e6),       # detuned, with dephasing
])
def test_rabi_populations_equal_the_evolve_for_chain(chip, gamma, gamma_phi, detuning):
    # uneven steps: several propagators, each reused
    durations = np.cumsum(np.tile([4e-9, 7e-9, 4e-9, 1e-8], 50))
    scales = [0.6, 1.0, 1.4]
    ids = (2, 4, 6)
    result = run_rabi(chip, durations, setup=make_readout_setup(chip, ids),
                      amplitude_scales=scales,
                      detuning=detuning, gamma=gamma, gamma_phi=gamma_phi, readout=False)
    for dev_id, scale in zip(ids, scales):
        drive = DriveSpec(5e6, scale, detuning)
        g = chip.device(dev_id).qubit.relaxation_rate_gamma if gamma is None else gamma
        state, populations, prev = GROUND, [], 0.0
        for t in durations.tolist():
            state = evolve_for(state, drive, g, gamma_phi, t - prev)
            populations.append(state.excited_population)
            prev = t
        assert np.array_equal(result.column("excited_population", dev_id), populations)


def test_rabi_rejects_a_trajectory_that_leaves_the_bloch_ball(chip, monkeypatch):
    # the trajectory builds its propagators from one _expm stack
    monkeypatch.setattr(fdmsim.dynamics, "_expm", lambda m: np.full(m.shape, np.nan))
    with pytest.raises(ConfigError, match="Bloch vector norm nan"):
        evolve_for(GROUND, DriveSpec(5e6, 1.0), 0.0, 0.0, 1e-8)
    with pytest.raises(ConfigError, match="Bloch vector norm nan"):
        run_rabi(chip, [1e-8, 2e-8], setup=make_readout_setup(chip, (2,)), readout=False)


def test_noisy_reruns_are_byte_identical(chip, tmp_path):
    durations = np.linspace(5e-9, 6e-7, 40)
    fluxes = np.linspace(-0.02, 0.02, 30)
    files = []
    for run in range(2):
        for adc in (None, BAND_LIMITED_ADC):
            rabi = run_rabi(chip, durations, setup=make_readout_setup(chip, (2, 4, 6)), adc=adc,
                            noise_std=2e-3, seed=17)
            sweep = run_flux_sweep(chip, fluxes, setup=noisy_setup(chip, "rectangular"),
                                   adc=adc, noise_std=2e-3, seed=17)
            for name, result in (("rabi", rabi), ("sweep", sweep)):
                path = tmp_path / f"{name}_{adc is None}_{run}.csv"
                write_sweep_csv(path, result)
                files.append(path.read_bytes())
    assert files[:4] == files[4:]


def test_sweep_points_equal_single_shots(chip):
    setup = make_readout_setup(chip, (2, 5))
    fluxes = np.linspace(-0.02, 0.02, 5)
    for noise_std in (0.0, 1e-3):
        sweep = run_flux_sweep(chip, fluxes, setup=setup, noise_std=noise_std, seed=9)
        ground = [float(QubitStateLabel.GROUND)] * len(chip.devices)
        first = acquire(chip, setup, ground, fluxes[0], noise_std=noise_std, seed=9)
        np.testing.assert_array_equal(
            sweep.tables["amplitude"][0], [m.amplitude for m in first])
        np.testing.assert_array_equal(
            sweep.tables["phase"][0], [m.phase for m in first])
        assert (first[0].noise_std > 0) == (noise_std > 0)


@pytest.mark.parametrize("noise_std", [0.0, 2e-3])
@pytest.mark.parametrize("adc", [None, BAND_LIMITED_ADC], ids=["no-adc", "adc"])
def test_acquire_is_point_0_of_a_sweep_with_its_seed(chip, adc, noise_std):
    # acquire draws from child_seed(seed, 0), the stream of a sweep's point 0
    setup = noisy_setup(chip, "hann")
    states = np.random.default_rng(4).uniform(-1.0, 1.0, len(chip.devices))
    fluxes = np.linspace(0.01, -0.02, 4)
    for seed in (0, 11, 2**90 + 5):
        sweep = run_flux_sweep(chip, fluxes, setup=setup, states=states, adc=adc,
                               noise_std=noise_std, seed=seed)
        shot = acquire(chip, setup, states, fluxes[0], adc=adc, noise_std=noise_std,
                       seed=seed)
        assert np.array_equal(sweep.tables["amplitude"][0], [m.amplitude for m in shot])
        assert np.array_equal(sweep.tables["phase"][0], [m.phase for m in shot])


def test_acquisition_rejects_negative_noise(chip):
    setup = make_readout_setup(chip, (1,))
    with pytest.raises(ConfigError, match="noise_std"):
        run_flux_sweep(chip, [0.0], setup=setup, noise_std=-1e-3)


@pytest.mark.parametrize("noise_std", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("adc", [None, AdcSpec(4e9, 12, full_scale=8.0)])
def test_acquisition_rejects_non_finite_noise(chip, noise_std, adc):
    setup = make_readout_setup(chip, (1, 2))
    with pytest.raises(ConfigError, match="noise_std"):
        run_flux_sweep(chip, [0.0], setup=setup, adc=adc, noise_std=noise_std)
    with pytest.raises(ConfigError, match="noise_std"):
        run_rabi(chip, [0.0, 1e-8], setup=setup, adc=adc, noise_std=noise_std)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise_std, amplitude", [(1e308, 0.1), (1e-3, 1e308)],
                         ids=["noise_std", "amplitude"])
def test_shots_that_overflow_name_the_noise_and_the_amplitude(chip, noise_std, amplitude):
    # These returned NaN tables, after a numpy overflow warning.
    setup = ReadoutSetup((1, 2, 3), 9.45e9, (-1.5e8, 0.0, 1.5e8), n_samples=100,
                         amplitude=amplitude)
    match = "noise_std .* and amplitude .* beyond the float range"
    with pytest.raises(ConfigError, match=match):
        run_flux_sweep(chip, [0.0, 0.01], setup=setup, noise_std=noise_std)
    with pytest.raises(ConfigError, match=match):
        run_rabi(chip, [0.0, 1e-8], setup=setup, noise_std=noise_std)
    with pytest.raises(ConfigError, match=match):
        # This raised "phase must lie in (-pi, pi], got nan".
        acquire(chip, setup, [-1.0] * 7, 0.0, noise_std=noise_std)
    plan = plan_for_chip(chip, lo_frequency=9.75e9, grid=1e6)
    with pytest.raises(ConfigError, match=match):
        measure_crosstalk(chip, plan, 2, lo_frequency=9.75e9, amplitude=amplitude,
                          noise_std=noise_std)


@pytest.mark.filterwarnings("error")
def test_noisy_acquire_names_an_n_samples_it_cannot_allocate(chip):
    # The setup is valid, and its noiseless acquisition needs no trace;
    # the noisy one raised a bare ValueError from numpy.
    setup = ReadoutSetup((1, 2, 3), 9.45e9, (-1.5e8, 0.0, 1.5e8), n_samples=1e308)
    assert len(acquire(chip, setup, [-1.0] * 7, 0.0)) == 3
    with pytest.raises(ConfigError, match="cannot allocate n_samples"):
        acquire(chip, setup, [-1.0] * 7, 0.0, noise_std=1e-3)


@pytest.mark.parametrize("noise_std", [math.nan, math.inf, -1.0])
def test_rabi_without_readout_rejects_bad_noise_std(chip, noise_std):
    # No noise is drawn, but the metadata would record the value.
    with pytest.raises(ConfigError, match="noise_std"):
        run_rabi(chip, [0.0, 1e-8], setup=make_readout_setup(chip, (2,)),
                 readout=False, noise_std=noise_std)


@pytest.mark.parametrize("seed", [-5, 2**128, 1.5])
def test_noiseless_runs_reject_out_of_range_seeds(chip, seed):
    setup = make_readout_setup(chip, (1, 2))
    states = [-1.0] * len(chip.devices)
    adc = AdcSpec(1e9, 12, full_scale=1.0)
    calls = [
        lambda: run_rabi(chip, [0.0, 1e-8], setup=setup, readout=False, seed=seed),
        lambda: run_rabi(chip, [0.0, 1e-8], setup=setup, seed=seed),
        lambda: run_rabi(chip, [0.0, 1e-8], setup=setup, adc=adc, seed=seed),
        lambda: run_flux_sweep(chip, [0.0], setup=setup, seed=seed),
        lambda: acquire(chip, setup, states, 0.0, seed=seed),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="root seed"):
            call()


@pytest.mark.parametrize("seed", [True, False, np.True_], ids=repr)
@pytest.mark.parametrize("call", ["noisy sweep", "noiseless sweep", "crosstalk", "telegraph"])
def test_a_bool_is_not_a_seed(chip, call, seed):
    # True ran as seed 1, and a sweep's CSV header then read seed=True.
    # (derive_rng and child_seed: test_seeding.test_out_of_range_keys_are_rejected)
    calls = {
        "noisy sweep": lambda: run_flux_sweep(chip, [0.0, 0.01], noise_std=1e-3, seed=seed),
        "noiseless sweep": lambda: run_flux_sweep(chip, [0.0, 0.01], seed=seed),
        "crosstalk": lambda: measure_crosstalk(chip, plan_for_chip(chip, grid=1e6), 2,
                                               seed=seed),
        "telegraph": lambda: relaxation_telegraph_spectrum(6.3e5, 1.6e7, 1e-6, 2, seed=seed),
    }
    with pytest.raises(ConfigError, match="root seed must be an integer"):
        calls[call]()


@pytest.mark.parametrize("flux", [math.nan, math.inf])
def test_flux_sweep_rejects_non_finite_flux(chip, flux):
    with pytest.raises(ConfigError, match="finite"):
        run_flux_sweep(chip, [0.0, flux])


# --------------------------------------------------------------------------
# flux sweep and feature detection


def test_flux_sweep_shapes_and_metadata(chip):
    fluxes = np.linspace(-0.01, 0.01, 21)
    result = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1, 2)), seed=7)
    assert result.kind == "flux_sweep"
    assert result.axis_name == "flux_phi0"
    assert set(result.tables) == {"amplitude", "phase"}
    assert result.tables["amplitude"].shape == (21, 2)
    assert result.device_ids == (1, 2)
    assert result.columns == ("dev1", "dev2")
    assert result.metadata["seed"] == 7
    assert not {"kind", "device_ids"} & set(result.metadata)


def test_flux_sweep_rejects_empty_axis(chip):
    with pytest.raises(ConfigError):
        run_flux_sweep(chip, np.array([]))


def test_flux_sweep_noise_is_seed_deterministic(chip):
    fluxes = np.linspace(-0.002, 0.002, 5)
    setup = make_readout_setup(chip, (1,))
    a = run_flux_sweep(chip, fluxes, setup=setup, noise_std=1e-3, seed=11)
    b = run_flux_sweep(chip, fluxes, setup=setup, noise_std=1e-3, seed=11)
    c = run_flux_sweep(chip, fluxes, setup=setup, noise_std=1e-3, seed=12)
    np.testing.assert_array_equal(a.tables["amplitude"], b.tables["amplitude"])
    assert np.any(a.tables["amplitude"] != c.tables["amplitude"])


@pytest.mark.parametrize("run", [run_flux_sweep, run_rabi], ids=["flux_sweep", "rabi"])
def test_drivers_take_their_devices_from_the_setup(chip, run):
    result = run(chip, [0.0, 1e-8], setup=make_readout_setup(chip, (3, 4)))
    assert result.device_ids == (3, 4) and result.columns == ("dev3", "dev4")
    assert run(chip, [0.0, 1e-8]).device_ids == chip.device_ids


READOUT_KEYS = {"lo_frequency_hz", "sample_rate_hz", "n_samples", "probe_amplitude", "window"}
ADC_KEYS = {"adc_bits", "adc_full_scale", "adc_analog_bandwidth_hz"}


@pytest.mark.parametrize("adc", [None, AdcSpec(1e9, 12, full_scale=1.0),
                                 AdcSpec(1e9, 12, full_scale=1.0, analog_bandwidth=480e6)],
                         ids=["no-adc", "adc", "band-limited-adc"])
def test_rabi_and_flux_sweep_record_the_same_readout_block(tmp_path, chip, adc):
    setup = make_readout_setup(chip, (2, 4, 6), window="hann")
    results = {
        "sweep": run_flux_sweep(chip, [0.0, 1e-3], setup=setup, adc=adc),
        "rabi": run_rabi(chip, [0.0, 1e-8], setup=setup, adc=adc),
        "ideal": run_rabi(chip, [0.0, 1e-8], setup=setup, adc=adc, readout=False),
    }
    blocks = {}
    for name, result in results.items():
        write_sweep_csv(tmp_path / f"{name}.csv", result)
        metadata = read_sweep_csv(tmp_path / f"{name}.csv").metadata
        blocks[name] = {k: v for k, v in metadata.items() if k in READOUT_KEYS | ADC_KEYS}
    expected = {"lo_frequency_hz": repr(setup.lo_frequency), "sample_rate_hz": "1000000000.0",
                "n_samples": "4000", "probe_amplitude": "0.1", "window": "hann"}
    if adc is not None:
        expected.update(adc_bits="12", adc_full_scale="1.0")
    if adc is not None and adc.analog_bandwidth is not None:
        expected["adc_analog_bandwidth_hz"] = "480000000.0"
    assert blocks["sweep"] == blocks["rabi"] == expected
    assert blocks["ideal"] == {}


def test_integral_float_bits_write_the_header_of_the_int(tmp_path, chip):
    # AdcSpec kept 12.0, which run_rabi wrote as '# adc_bits=12.0'.
    setup = make_readout_setup(chip, (2,))
    for bits in (12, 12.0):
        result = run_rabi(chip, [0.0, 1e-8], setup=setup, adc=AdcSpec(1e9, bits, 1.0))
        write_sweep_csv(tmp_path / f"{bits!r}.csv", result)
    assert "# adc_bits=12\n" in (tmp_path / "12.csv").read_text()
    assert (tmp_path / "12.0.csv").read_bytes() == (tmp_path / "12.csv").read_bytes()


def crossing_fluxes(dev):
    """Fluxes where the qubit runs through its resonator (brentq on each side)."""

    def gap(phi):
        return qubit_frequency(dev.qubit, phi) - dev.resonator.bare_frequency

    lo = scipy.optimize.brentq(gap, -0.025, 0.0)
    hi = scipy.optimize.brentq(gap, 0.0, 0.025)
    return lo, hi


def test_detected_features_match_root_find(chip):
    fluxes = np.linspace(-0.025, 0.025, 161)
    step = fluxes[1] - fluxes[0]
    result = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1, 4)))
    features = detect_flux_features(result)
    for dev_id in (1, 4):
        found = features[dev_id]
        assert len(found) == 2
        expected = crossing_fluxes(chip.device(dev_id))
        for f, e in zip(sorted(found), sorted(expected)):
            assert abs(f - e) <= step


def test_detect_features_validates_arguments(chip):
    result = make_result()
    with pytest.raises(ConfigError, match="no table"):
        detect_flux_features(result, table="missing")
    with pytest.raises(ConfigError, match="prominence"):
        detect_flux_features(result, prominence=1.5)
    # flat columns yield no features rather than dividing by zero
    assert len(detect_flux_features(result)[1]) == 0


@st.composite
def peak_problems(draw):
    """An (m, n) array and one prominence per row.  Small-integer rows
    make plateaus, ties and edge plateaus common."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 3))
    rows = []
    for _ in range(m):
        if draw(st.booleans()):
            sample = st.integers(0, 3).map(float)
        else:
            sample = st.floats(allow_nan=False, allow_infinity=False)
        rows.append(draw(st.lists(sample, min_size=n, max_size=n)))
    prominence = draw(st.lists(
        st.one_of(st.integers(0, 4).map(float), st.floats(0, 4),
                  st.floats(min_value=0, allow_infinity=False)),
        min_size=m, max_size=m,
    ))
    return np.array(rows, dtype=float), np.array(prominence)


def one_row(row, prominence):
    return np.array([row], dtype=float), np.array([prominence])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=peak_problems())
@example(problem=one_row([0, 1, 1, 1, 0], 0.0))  # flat peak: its midpoint
@example(problem=one_row([0, 1, 1, 0], 0.0))  # even plateau: (left + right) // 2
@example(problem=one_row([1, 1, 0, 2, 2], 0.0))  # edge plateaus are no peaks
@example(problem=one_row([0, 3, 1, 2, 0, 3, 0], 1.0))  # the 2 has prominence 1
@example(problem=one_row([0, 3, 1, 2, 0, 3, 0], 1.5))
@example(problem=one_row([5.0], 0.0))
def test_find_peaks_matches_scipy_property(problem):
    rows, prominence = problem
    got = fdmsim.experiments._find_peaks(rows, prominence)
    assert len(got) == rows.shape[0]
    for row, p, peaks in zip(rows, prominence, got):
        expected, _ = scipy.signal.find_peaks(row, prominence=p)
        np.testing.assert_array_equal(peaks, expected)


# --------------------------------------------------------------------------
# spectroscopy


def test_spectroscopy_matches_closed_form(chip):
    freqs = np.linspace(9.25e9, 10.35e9, 501)
    result = run_spectroscopy(chip, freqs)
    states = [float(QubitStateLabel.GROUND)] * len(chip.devices)
    fluxes = [d.qubit.symmetry_flux for d in chip.devices]
    expected = s21_feedline(chip, TWO_PI * freqs, states, fluxes)
    np.testing.assert_allclose(
        result.column("s21_amplitude", "feedline"), np.abs(expected), rtol=1e-12
    )
    np.testing.assert_allclose(
        result.column("s21_phase", "feedline"), np.angle(expected), rtol=1e-12
    )


def test_spectroscopy_finds_every_dip_of_a_100_device_comb():
    comb = make_comb(100)
    centers = np.array([dressed_resonance(d, d.qubit.symmetry_flux) for d in comb.devices])
    step = 50e3
    freqs = np.arange(centers[0] - 5e6, centers[-1] + 5e6, step)
    amp = run_spectroscopy(comb, freqs).column("s21_amplitude", "feedline")
    interior = (amp[1:-1] < amp[:-2]) & (amp[1:-1] <= amp[2:]) & (amp[1:-1] < 0.5)
    dips = freqs[1:-1][interior]
    assert dips.size == len(comb.devices)
    assert np.all(np.abs(dips - centers) <= step)


def test_spectroscopy_state_moves_the_notch(chip):
    freqs = np.linspace(9.28e9, 9.32e9, 2001)
    ground = run_spectroscopy(chip, freqs)
    states = [float(QubitStateLabel.GROUND)] * len(chip.devices)
    states[0] = float(QubitStateLabel.EXCITED)
    excited = run_spectroscopy(chip, freqs, states=states)
    f_g = freqs[np.argmin(ground.column("s21_amplitude", "feedline"))]
    f_e = freqs[np.argmin(excited.column("s21_amplitude", "feedline"))]
    assert f_e != f_g


# --------------------------------------------------------------------------
# Rabi


def test_rabi_ideal_population_is_sin_squared(chip):
    durations = np.linspace(1e-8, 1e-6, 50)
    result = run_rabi(
        chip, durations, setup=make_readout_setup(chip, (2,)), rabi_rate_per_unit_amplitude=5e6,
        gamma=0.0, readout=False,
    )
    expected = np.sin(np.pi * 5e6 * durations) ** 2
    np.testing.assert_allclose(
        result.column("excited_population", 2), expected, atol=1e-6
    )
    assert "iq_amplitude" not in result.tables


def test_rabi_amplitude_scale_scales_frequency(chip):
    durations = np.linspace(1e-8, 4e-7, 40)
    result = run_rabi(
        chip, durations, setup=make_readout_setup(chip, (1, 2)), amplitude_scales=[1.0, 2.0],
        gamma=0.0, readout=False,
    )
    f1 = fit_damped_sinusoid(durations, result.column("excited_population", 1))
    f2 = fit_damped_sinusoid(durations, result.column("excited_population", 2))
    assert f2.frequency == pytest.approx(2 * f1.frequency, rel=1e-3)


def test_rabi_readout_amplitude_swings_with_population(chip):
    durations = np.linspace(2e-8, 4e-7, 20)
    result = run_rabi(chip, durations, setup=make_readout_setup(chip, (3,)), gamma=0.0)
    order = np.argsort(result.column("excited_population", 3))
    amp = result.column("iq_amplitude", 3)[order]
    pop = result.column("excited_population", 3)[order]
    # grid snapping parks the probe slightly off the ground notch, so the
    # response may dip just above pop 0; beyond that it rises monotonically
    keep = pop > 0.1
    d_amp = np.diff(amp[keep])
    d_pop = np.diff(pop[keep])
    assert np.all(d_amp[d_pop > 1e-6] > 0)
    assert amp[-1] > 2 * amp[0]


def test_rabi_validates_durations_and_scales(chip):
    with pytest.raises(ConfigError, match="increasing"):
        run_rabi(chip, [1e-7, 1e-7], setup=make_readout_setup(chip, (1,)))
    with pytest.raises(ConfigError, match="increasing"):
        run_rabi(chip, [-1e-7, 1e-7], setup=make_readout_setup(chip, (1,)))
    with pytest.raises(ConfigError, match="amplitude scales"):
        run_rabi(chip, [0.0, 1e-7], setup=make_readout_setup(chip, (1,)),
                 amplitude_scales=[1.0, 2.0])


# --------------------------------------------------------------------------
# damped-sinusoid fitting


def synth(t, amplitude, decay, freq, phase, offset):
    return offset + amplitude * np.exp(-decay * t) * np.cos(
        2 * np.pi * freq * t + phase
    )


def test_fit_recovers_exact_parameters():
    t = np.linspace(0.0, 2e-6, 200)
    y = synth(t, 0.5, 8e5, 4.8e6, 0.9, 0.5)
    fit = fit_damped_sinusoid(t, y)
    assert fit.valid
    assert fit.frequency == pytest.approx(4.8e6, rel=1e-6)
    assert fit.decay_rate == pytest.approx(8e5, rel=1e-5)
    assert fit.amplitude == pytest.approx(0.5, rel=1e-6)
    assert fit.offset == pytest.approx(0.5, rel=1e-6)
    assert math.cos(fit.phase) == pytest.approx(math.cos(0.9), abs=1e-6)
    assert fit.r_squared > 1 - 1e-12
    np.testing.assert_allclose(fit.evaluate(t), y, atol=1e-9)


def test_fit_handles_noise():
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 2e-6, 400)
    y = synth(t, 0.5, 4e5, 3.1e6, -0.4, 0.5) + rng.normal(0, 0.01, t.size)
    fit = fit_damped_sinusoid(t, y)
    assert fit.valid
    assert fit.frequency == pytest.approx(3.1e6, rel=1e-3)
    assert fit.r_squared > 0.99


def test_fit_undamped_tone():
    t = np.linspace(0.0, 1e-6, 100)
    y = synth(t, 1.0, 0.0, 7e6, 0.0, 0.0)
    fit = fit_damped_sinusoid(t, y)
    assert fit.frequency == pytest.approx(7e6, rel=1e-6)
    assert fit.decay_rate == pytest.approx(0.0, abs=1.0)


def test_fit_rejects_bad_grids():
    y = np.zeros(8)
    with pytest.raises(ConfigError, match="uniform"):
        fit_damped_sinusoid([0, 1, 2, 3, 4, 5, 6, 8.5], y)
    with pytest.raises(ConfigError, match="8 samples"):
        fit_damped_sinusoid([0, 1, 2], [0, 1, 2])
    with pytest.raises(ConfigError, match="uniform"):
        fit_damped_sinusoid([0, 1, 2, 3, 3, 5, 6, 7], y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["1e154", "1e200", "1e308", "-1e308", "one sample"])
def test_fit_refuses_values_whose_sums_of_squares_overflow(case):
    # These leaked numpy overflow warnings from the mean, the squares, the
    # rfft and the seed amplitude.
    t = np.linspace(0.0, 1e-6, 50)
    y = np.cos(2 * np.pi * 5e6 * t)
    if case == "one sample":
        y[7] = 1e308
    else:
        y *= float(case)
    peak = f"{np.abs(y).max():.6g}"
    with pytest.raises(ConfigError, match=f"values reach {re.escape(peak)} in magnitude"):
        fit_damped_sinusoid(t, y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step, peak", [(1e200, 1.0), (1e300, 1.0), (1e152, 1.0),
                                        (1e60, 1e100), (1e170, 0.0)])
def test_fit_refuses_times_whose_jacobian_would_overflow(step, peak):
    # Steps of 1e200 and 1e300 leaked "invalid value encountered in
    # multiply" from the step test, where a Jacobian column norm had
    # overflowed to inf; so did 1e152, and 1e60 with values of 1e100.
    t = np.arange(50) * step
    y = peak * np.cos(0.2 * np.pi * np.arange(50))
    reach = f"{t[-1]:.6g}"
    with pytest.raises(ConfigError, match=f"times reach {re.escape(reach)} in magnitude"):
        fit_damped_sinusoid(t, y)


@pytest.mark.filterwarnings("error")
def test_fit_on_a_long_but_safe_time_axis_scales_with_it():
    # Steps of 1e140 s over 50 samples are below the bound; the fit is
    # that of the unit step, its rates scaled
    t = np.arange(50.0)
    y = np.cos(0.2 * np.pi * t) * np.exp(-0.02 * t)
    small, large = fit_damped_sinusoid(t, y), fit_damped_sinusoid(t * 1e140, y)
    assert large.valid and small.valid
    assert large.frequency == pytest.approx(small.frequency / 1e140, rel=1e-9)
    assert large.decay_rate == pytest.approx(small.decay_rate / 1e140, rel=1e-9)
    assert large.amplitude == pytest.approx(small.amplitude, rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_fit_of_a_large_but_safe_trace_scales_with_it():
    # 1e152 over 50 samples is below the bound; the fit is that of the
    # unit trace, scaled
    t = np.linspace(0.0, 1e-6, 50)
    y = np.cos(2 * np.pi * 5e6 * t)
    small, large = fit_damped_sinusoid(t, y), fit_damped_sinusoid(t, 1e152 * y)
    assert large.valid and small.valid
    assert large.amplitude == pytest.approx(1e152 * small.amplitude, rel=1e-9)
    assert large.frequency == pytest.approx(small.frequency, rel=1e-9)


def test_fit_constant_trace_reports_zero_r_squared():
    t = np.linspace(0.0, 1e-6, 50)
    fit = fit_damped_sinusoid(t, np.full(50, 0.3))
    # rounding noise in the mean must not blow up the variance ratio
    assert fit.r_squared in (0.0, 1.0)
    assert fit.offset == pytest.approx(0.3, abs=1e-6)


def curve_fit_reference(t, y):
    """The fit by scipy.optimize.curve_fit from the same seed and bounds:
    (amplitude, decay_rate, frequency, phase, offset), valid."""
    step = float(np.mean(np.diff(t)))
    p0 = fdmsim.experiments._seed_parameters(t, y, step)
    bounds = ([0.0, 0.0, 0.0, -2 * np.pi, -np.inf],
              [np.inf, np.inf, 0.5 / step, 2 * np.pi, np.inf])
    try:
        popt, _ = scipy.optimize.curve_fit(
            fdmsim.experiments._sinusoid_model, t, y, p0=p0, bounds=bounds, maxfev=20000
        )
    except (RuntimeError, ValueError):
        return p0, False
    return popt, True


def r_squared(t, y, params):
    model = fdmsim.experiments._sinusoid_model(t, *params)
    return 1.0 - np.sum((y - model) ** 2) / np.sum((y - y.mean()) ** 2)


@pytest.fixture(scope="module")
def fit_traces(chip):
    """Traces set up as in the rabi_noisy benchmark (12-bit ADC with a
    480 MHz band, noise 2e-3, devices 2, 4, 6 at five drive scales) for
    two noise seeds, and the synthetic traces of the tests above but the
    constant one, whose frequency no fit determines."""
    t = np.linspace(5e-9, 1.2e-6, 200)
    setup = make_readout_setup(chip, (2, 4, 6))
    adc = AdcSpec(sample_rate=1e9, bits=12, full_scale=1.0, analog_bandwidth=480e6)
    traces = []
    for seed in (0, 1):
        for j, scale in enumerate((0.6, 0.8, 1.0, 1.2, 1.4)):
            result = run_rabi(chip, t, setup=setup, rabi_rate_per_unit_amplitude=5e6,
                              amplitude_scales=[scale] * 3, adc=adc, noise_std=2e-3,
                              seed=child_seed(seed, j))
            traces += [(t, result.column("iq_amplitude", d)) for d in (2, 4, 6)]
    rng = np.random.default_rng(5)
    t1, t2, t3 = (np.linspace(0.0, 2e-6, 200), np.linspace(0.0, 2e-6, 400),
                  np.linspace(0.0, 1e-6, 100))
    traces += [
        (t1, synth(t1, 0.5, 8e5, 4.8e6, 0.9, 0.5)),
        (t2, synth(t2, 0.5, 4e5, 3.1e6, -0.4, 0.5) + rng.normal(0, 0.01, t2.size)),
        (t3, synth(t3, 1.0, 0.0, 7e6, 0.0, 0.0)),
    ]
    durations = np.linspace(1e-8, 4e-7, 40)
    pops = run_rabi(chip, durations, setup=make_readout_setup(chip, (1, 2)),
                    amplitude_scales=[1.0, 2.0],
                    gamma=0.0, readout=False)
    traces += [(durations, pops.column("excited_population", d)) for d in (1, 2)]
    return traces


def test_fit_matches_curve_fit(fit_traces):
    for t, y in fit_traces:
        fit = fit_damped_sinusoid(t, y)
        ref, ref_valid = curve_fit_reference(t, y)
        assert fit.valid == ref_valid
        assert fit.frequency == pytest.approx(ref[2], rel=1e-6)
        assert fit.r_squared >= r_squared(t, y, ref) - 1e-9


def test_fit_failure_returns_finite_seed(monkeypatch):
    # One iteration cannot converge from a DFT-bin seed: the fit reports
    # failure and hands back that seed, not a partial step.
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 2e-6, 400)
    y = synth(t, 0.5, 4e5, 3.1e6, -0.4, 0.5) + rng.normal(0, 0.01, t.size)
    seed = fdmsim.experiments._seed_parameters(t, y, float(np.mean(np.diff(t))))
    monkeypatch.setattr(fdmsim.experiments, "FIT_MAX_ITER", 1)
    fit = fit_damped_sinusoid(t, y)
    assert not fit.valid
    got = [fit.amplitude, fit.decay_rate, fit.frequency, fit.phase, fit.offset]
    assert np.all(np.isfinite(got)) and math.isfinite(fit.r_squared)
    np.testing.assert_array_equal(got, seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", ["features-table", "fit-values", "fit-times"])
def test_non_finite_input_raises(chip, target, bad):
    if target == "features-table":
        result = run_flux_sweep(chip, np.linspace(-0.025, 0.025, 41),
                                setup=make_readout_setup(chip, (1, 2)))
        result.tables["amplitude"][7, 1] = bad
        with pytest.raises(ConfigError, match="NaN or inf"):
            detect_flux_features(result)
        return
    t = np.linspace(0.0, 1e-6, 50)
    y = synth(t, 0.5, 1e5, 5e6, 0.0, 0.5)
    if target == "fit-values":
        y[10] = bad
    else:
        t[10] = bad
    with pytest.raises(ConfigError, match="NaN or inf"):
        fit_damped_sinusoid(t, y)


# --------------------------------------------------------------------------
# serialization


def test_csv_round_trip(tmp_path, chip):
    fluxes = np.linspace(-0.01, 0.01, 9)
    result = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1, 2)),
                            config_hash="abc")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    back = read_sweep_csv(path)
    assert back.kind == result.kind
    assert back.axis_name == result.axis_name
    assert back.columns == result.columns
    assert back.device_ids == result.device_ids
    np.testing.assert_array_equal(back.axis_values, result.axis_values)
    for name in result.tables:
        np.testing.assert_array_equal(back.tables[name], result.tables[name])
    assert back.metadata["config_hash"] == "abc"


names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
cells = st.floats(allow_nan=True, allow_infinity=True)
# any text: the writer must refuse what its header cannot keep as written
meta_keys = st.one_of(names, st.text(max_size=8))
meta_values = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(2**70), 2**70),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    st.text(max_size=20),
)


def header_keeps(key, text):
    """Whether a '# key=text' header line reads back as (key, text)."""
    return ("=" not in key and "\n" not in key + text and "\r" not in key + text
            and key == key.strip() and text == text.strip())


@st.composite
def sweep_results(draw):
    """SweepResults as the drivers build them: columns dev<id>, or the
    one composite feedline column without device ids."""
    n_rows = draw(st.integers(1, 6))
    device_ids = tuple(draw(st.lists(st.integers(0, 999), unique=True, max_size=4)))
    columns = tuple(f"dev{d}" for d in device_ids) or ("feedline",)
    table_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    tables = {
        name: np.array(draw(st.lists(st.lists(cells, min_size=len(columns),
                                              max_size=len(columns)),
                                     min_size=n_rows, max_size=n_rows)))
        for name in table_names
    }
    metadata = draw(st.dictionaries(
        meta_keys.filter(lambda k: k not in ("kind", "device_ids")), meta_values, max_size=5
    ))
    return SweepResult(
        kind=draw(names),
        axis_name=draw(names),
        axis_values=draw(st.lists(cells, min_size=n_rows, max_size=n_rows)),
        tables=tables,
        device_ids=device_ids,
        metadata=metadata,
    )


# derandomize: the same examples on every run, so the suite stays
# deterministic.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(result=sweep_results())
def test_csv_round_trip_property(tmp_path_factory, result):
    path = tmp_path_factory.mktemp("csv") / "sweep.csv"
    text = {k: repr(v) if isinstance(v, float) else str(v) for k, v in result.metadata.items()}
    try:
        write_sweep_csv(path, result)
    except ConfigError:
        # refused before a byte is written, and only for a reason
        assert not path.exists()
        assert not all(header_keeps(k, v) for k, v in text.items())
        text = {k: v for k, v in text.items() if header_keeps(k, v)}
        result.metadata = {k: v for k, v in result.metadata.items() if k in text}
        write_sweep_csv(path, result)
    back = read_sweep_csv(path)
    assert back.kind == result.kind
    assert back.axis_name == result.axis_name
    assert back.columns == result.columns
    assert back.device_ids == result.device_ids
    np.testing.assert_array_equal(back.axis_values, result.axis_values)
    assert back.tables.keys() == result.tables.keys()
    for name in result.tables:
        np.testing.assert_array_equal(back.tables[name], result.tables[name])
    # metadata the writer accepts comes back as text, unchanged: repr for
    # floats, str otherwise
    assert back.metadata == text
    # the reader inverts the writer byte for byte
    again = path.with_name("again.csv")
    write_sweep_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_csv_repeat_runs_are_byte_identical(tmp_path, chip):
    fluxes = np.linspace(-0.005, 0.005, 7)
    paths = []
    for name in ("a.csv", "b.csv"):
        result = run_flux_sweep(
            chip, fluxes, setup=make_readout_setup(chip, (1,)), noise_std=1e-3, seed=3
        )
        p = tmp_path / name
        write_sweep_csv(p, result)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_append_requires_matching_hash(tmp_path, chip):
    fluxes = np.linspace(-0.002, 0.002, 3)
    first = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1,)), config_hash="h1")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, first)
    more = run_flux_sweep(chip, fluxes + 0.01, setup=make_readout_setup(chip, (1,)),
                          config_hash="h1")
    write_sweep_csv(path, more, append=True)
    combined = read_sweep_csv(path)
    assert combined.axis_values.size == 6

    other = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1,)), config_hash="h2")
    with pytest.raises(ConfigError, match="config_hash"):
        write_sweep_csv(path, other, append=True)


def test_csv_append_refuses_other_kind_or_columns(tmp_path, chip):
    fluxes = np.linspace(-0.002, 0.002, 3)
    first = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1,)), config_hash="h1")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, first)
    before = path.read_bytes()
    rabi = run_rabi(chip, np.linspace(0.0, 1e-7, 3), setup=make_readout_setup(chip, (1,)),
                    readout=False, config_hash="h1")
    with pytest.raises(ConfigError, match="kind"):
        write_sweep_csv(path, rabi, append=True)
    relabelled = dataclasses.replace(first, kind="spectroscopy")
    with pytest.raises(ConfigError, match="kind"):
        write_sweep_csv(path, relabelled, append=True)
    wider = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1, 2)), config_hash="h1")
    with pytest.raises(ConfigError, match="column"):
        write_sweep_csv(path, wider, append=True)
    assert path.read_bytes() == before


def test_csv_append_without_hash_is_refused(tmp_path, chip):
    fluxes = np.linspace(-0.002, 0.002, 3)
    result = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1,)))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    with pytest.raises(ConfigError, match="config_hash"):
        write_sweep_csv(path, result, append=True)


# Each of these would read back changed: {"a=b": 1} as {"a": "b=1"}, and
# outer whitespace stripped.
@pytest.mark.parametrize("metadata, match", [
    ({"note": "a\nb"}, "line break"), ({"note": "a\rb"}, "line break"),
    ({"a\nb": 1}, "line break"), ({"a=b": 1}, "holds '='"),
    ({"pad": " v "}, "whitespace"), ({"pad": "v\t"}, "whitespace"),
    ({" pad": "v"}, "whitespace"), ({"pad\x0c": "v"}, "whitespace"),
    ({1: "x", "1": "y"}, "both written as '1'"),
    ({0.5: "x", "0.5": "y"}, "both written as '0.5'"),
], ids=["lf-value", "cr-value", "lf-key", "eq-key", "blank-value", "tab-value",
        "blank-key", "formfeed-key", "int-str-key", "float-str-key"])
def test_csv_writers_refuse_line_breaks_in_metadata(tmp_path, chip, metadata, match):
    fluxes = np.linspace(-0.002, 0.002, 3)
    good = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1,)), config_hash="h1")
    bad = dataclasses.replace(good, metadata={**good.metadata, **metadata})
    path = tmp_path / "sweep.csv"
    with pytest.raises(ConfigError, match=match):
        write_sweep_csv(path, bad)
    assert not path.exists()
    write_sweep_csv(path, good)
    before = path.read_bytes()
    with pytest.raises(ConfigError, match=match):
        write_sweep_csv(path, bad, append=True)
    assert path.read_bytes() == before


def test_writers_sort_mixed_type_metadata_keys_by_text(tmp_path, chip):
    result = run_flux_sweep(chip, np.linspace(-0.002, 0.002, 3),
                            setup=make_readout_setup(chip, (1,)))
    result.metadata.update({1: "x", 2.5: "y"})
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    back = read_sweep_csv(path)
    assert back.metadata["1"] == "x" and back.metadata["2.5"] == "y"
    keys = [line[2:].partition("=")[0] for line in path.read_text().splitlines()[1:]
            if line.startswith("# ")]
    assert keys == sorted(str(k) for k in [*result.metadata, "kind", "device_ids"])
    write_sweep_json(tmp_path / "sweep.json", result)
    assert json.loads((tmp_path / "sweep.json").read_text())["metadata"]["1"] == "x"


def test_writers_format_numpy_metadata_as_python_numbers(tmp_path, chip):
    # np.float64 is a float whose numpy 2 repr is 'np.float64(0.3)'.
    numbers = {"x": np.float64(0.3), "y": np.float32(0.1), "z": np.int64(7)}
    text = {"x": "0.3", "y": "0.10000000149011612", "z": "7"}
    result = run_flux_sweep(chip, np.linspace(-0.002, 0.002, 3),
                            setup=make_readout_setup(chip, (1,)))
    result.metadata.update(numbers)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    assert {k: read_sweep_csv(path).metadata[k] for k in text} == text
    write_sweep_json(tmp_path / "sweep.json", result)
    assert {k: json.loads((tmp_path / "sweep.json").read_text())["metadata"][k]
            for k in text} == text


CSV_HEAD = "# fdmsim-sweep-v1\n# kind=flux_sweep\n# device_ids=1 2\n"
COLUMN_ROW = "flux_phi0,amplitude_dev1,amplitude_dev2\n"


@pytest.mark.parametrize("text, match", [
    (CSV_HEAD + COLUMN_ROW + "0.0,1.0,2.0\n0.1,1.5\n", r"line 6: 2 cells, but the column row has 3"),
    (CSV_HEAD + COLUMN_ROW + "0.0,abc,2.0\n", r"line 5: could not convert string to float: 'abc'"),
    (CSV_HEAD.replace("=1 2", "=1 x") + COLUMN_ROW + "0.0,1.0,2.0\n",
     r"'# device_ids=1 x' does not list integer device ids"),
    (CSV_HEAD.replace("=1 2", "=1 1") + "flux_phi0,amplitude_dev1,amplitude_dev1\n"
     "0.0,0.25,0.75\n", r"'# device_ids=1 1' repeats a device id"),
    ("# fdmsim-sweep-v1\n# kind=flux_sweep\nflux_phi0\n0.0\n",
     r"column row 'flux_phi0' names no data column"),
], ids=["short-row", "text-cell", "device-ids", "repeated-device-id", "axis-only"])
def test_read_names_the_file_and_line_it_cannot_read(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match) as info:
        read_sweep_csv(path)
    assert str(path) in str(info.value)


# Column rows that are not the writer's layout for device_ids 1 2, each
# with the first column that differs from it: these used to read back
# with tables mislabelled, swapped or lost.
@pytest.mark.parametrize("names, match", [
    ("amplitude_dev1,amplitude_dev2,phase_dev1", r"column 5 .* is missing, .* 'phase_dev2'"),
    ("amplitude_dev1,phase_dev2,phase_dev1,amplitude_dev2",
     r"column 3 .* is 'phase_dev2', .* 'amplitude_dev2'"),
    ("amplitude_dev2,amplitude_dev1", r"column 2 .* is 'amplitude_dev2', .* 'amplitude_dev1'"),
    ("amplitude_dev1,amplitude_dev1", r"column 3 .* is 'amplitude_dev1', .* 'amplitude_dev2'"),
], ids=["lost-column", "mislabelled-tables", "swapped-devices", "repeated-column"])
def test_read_refuses_a_column_row_off_the_layout(tmp_path, names, match):
    path = tmp_path / "bad.csv"
    n = names.count(",") + 1
    path.write_text(CSV_HEAD + f"flux_phi0,{names}\n"
                    + ",".join(["0.0"] + [str(k) for k in range(1, n + 1)]) + "\n")
    with pytest.raises(ConfigError, match=match) as info:
        read_sweep_csv(path)
    assert str(info.value).startswith(f"{path}: ")


def composite(**changes):
    """A one-column sweep without device ids, as run_spectroscopy builds
    them, with the given fields changed."""
    fields = dict(kind="t", axis_name="probe_hz", axis_values=[1.0, 2.0],
                  tables={"s21": None}, metadata={"config_hash": "h1"})
    fields.update(changes)
    n_columns = len(fields.get("device_ids", ())) or 1
    fields["tables"] = {name: np.zeros((2, n_columns)) for name in fields["tables"]}
    return SweepResult(**fields)


# Each of these used to be written, and then read back changed or not at
# all: a ',' or a line break splits a name, and a device id is read back
# as an integer.
@pytest.mark.parametrize("result", [
    composite(axis_name="probe,hz"), composite(tables={"s21,amp": None}),
    composite(axis_name="probe\nhz"), composite(tables={"s21\ramp": None}),
    composite(device_ids=("a",)), composite(device_ids=(1.5,)),
], ids=["comma-axis", "comma-table", "lf-axis", "cr-table", "text-id", "float-id"])
def test_csv_writer_refuses_a_layout_that_would_not_read_back(tmp_path, result):
    path = tmp_path / "sweep.csv"
    with pytest.raises(ConfigError, match=f"refusing to write {re.escape(str(path))}: "):
        write_sweep_csv(path, result)
    assert not path.exists()
    write_sweep_csv(path, composite())
    before = path.read_bytes()
    with pytest.raises(ConfigError, match="refusing to write"):
        write_sweep_csv(path, result, append=True)
    assert path.read_bytes() == before


# The kind and the device ids are fields; the writers put them in the
# header, and a metadata key of either name would be a second copy.
@pytest.mark.parametrize("metadata", [{"kind": "rabi"}, {"device_ids": "1 2"}],
                         ids=["kind", "device_ids"])
def test_sweep_writers_refuse_a_field_in_the_metadata(tmp_path, metadata):
    result = composite(metadata={"config_hash": "h1", **metadata})
    key = next(iter(metadata))
    for write in (write_sweep_csv, write_sweep_json):
        path = tmp_path / f"sweep.{write.__name__}"
        with pytest.raises(ConfigError, match=f"metadata key '{key}' is a field of the sweep"):
            write(path, result)
        assert not path.exists()


def test_sweep_files_write_kind_and_device_ids_from_the_fields(tmp_path):
    result = composite(kind="rabi", device_ids=(3, 1))
    write_sweep_csv(tmp_path / "sweep.csv", result)
    header = (tmp_path / "sweep.csv").read_text().splitlines()[:4]
    assert header == ["# fdmsim-sweep-v1", "# config_hash=h1", "# device_ids=3 1", "# kind=rabi"]
    back = read_sweep_csv(tmp_path / "sweep.csv")
    assert (back.kind, back.device_ids, back.metadata) == ("rabi", (3, 1), {"config_hash": "h1"})
    write_sweep_json(tmp_path / "sweep.json", result)
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload["metadata"] == {"config_hash": "h1", "device_ids": "3 1", "kind": "rabi"}
    assert payload["columns"] == ["dev3", "dev1"]


def test_read_and_append_refuse_a_file_without_the_format_tag(tmp_path, chip):
    # A file without the tag used to read back as a sweep of kind
    # 'unknown', or whatever its '#' lines said.
    sweep = run_flux_sweep(chip, np.linspace(-0.002, 0.002, 3),
                           setup=make_readout_setup(chip, (1, 2)),
                           config_hash="h1")
    path = tmp_path / "untagged.csv"
    write_sweep_csv(path, sweep)
    path.write_text("\n" + path.read_text().partition("\n")[2])
    before = path.read_bytes()
    tag = r": the file does not begin with the format tag line '# fdmsim-sweep-v1'"
    with pytest.raises(ConfigError, match=re.escape(str(path)) + tag):
        read_sweep_csv(path)
    with pytest.raises(ConfigError, match=f"refusing to append to {re.escape(str(path))}{tag}"):
        write_sweep_csv(path, sweep, append=True)
    assert path.read_bytes() == before


def test_append_refuses_a_file_the_reader_refuses(tmp_path, chip):
    # The column row matches the new rows, but not the file's device_ids.
    fluxes = np.linspace(-0.002, 0.002, 3)
    sweep = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1, 2)), config_hash="h1")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep)
    path.write_text(path.read_text().replace("# device_ids=1 2", "# device_ids=2 1"))
    before = path.read_bytes()
    match = "column 2 of the column row is 'amplitude_dev1'"
    with pytest.raises(ConfigError, match=match):
        read_sweep_csv(path)
    with pytest.raises(ConfigError, match=f"refusing to append to .*: {match}"):
        write_sweep_csv(path, sweep, append=True)
    assert path.read_bytes() == before


def test_append_reads_the_header_as_read_sweep_csv_does(tmp_path, chip):
    # A blank line before the column row, and blank lines among the rows.
    fluxes = np.linspace(-0.002, 0.002, 3)
    first = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1, 2)), config_hash="h1")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, first)
    lines = path.read_text().splitlines(keepends=True)
    column = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    path.write_text("".join(lines[:column] + ["\n"] + lines[column:] + ["\n"]))
    assert read_sweep_csv(path).axis_values.size == 3
    more = run_flux_sweep(chip, fluxes + 0.01, setup=make_readout_setup(chip, (1, 2)),
                          config_hash="h1")
    write_sweep_csv(path, more, append=True)
    back = read_sweep_csv(path)
    np.testing.assert_array_equal(back.axis_values, np.concatenate([fluxes, fluxes + 0.01]))
    np.testing.assert_array_equal(back.tables["amplitude"],
                                  np.vstack([first.tables["amplitude"], more.tables["amplitude"]]))


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# fdmsim-sweep-v1\n")
    with pytest.raises(ConfigError, match="no sweep data"):
        read_sweep_csv(path)


def test_json_writer_is_loadable(tmp_path, chip):
    fluxes = np.linspace(-0.002, 0.002, 3)
    result = run_flux_sweep(chip, fluxes, setup=make_readout_setup(chip, (1, 2)))
    path = tmp_path / "sweep.json"
    write_sweep_json(path, result)
    payload = json.loads(path.read_text())
    assert payload["format"] == "fdmsim-sweep-v1"
    assert payload["columns"] == ["dev1", "dev2"]
    assert len(payload["tables"]["amplitude"]) == 3
