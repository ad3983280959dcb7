"""The public entry points, one numeric argument at a time set to a bad
value: each call gives a finite result or raises an FdmSimError, never a
numpy warning or a bare Python error.

CALLS holds one valid baseline call per entry point, a function of a
scratch directory.  Each of its keyword arguments is a number that the
test may replace, and the baseline passes it on as it is: it does no
arithmetic of its own on it.  The trace arguments are a unit 10 MHz tone
whose first sample is `sample`.  The readout setups read devices 1-3 of
chip7 from an LO at 9.45 GHz, 100 samples at 1 GS/s (a 10 MHz grid);
the drivers draw noise, so that noise_std and the setup amplitude reach
the shot loop.

Every name in fdmsim.__all__ has a row in CALLS (a key names one or
more entry points, split at "/") or an entry in EXEMPT, which says why
it has none.
"""

import dataclasses
import enum
import inspect
import math
import re

import numpy as np
import pytest

import fdmsim
from fdmsim import (
    GROUND,
    AdcSpec,
    BlochState,
    CapacityQuery,
    ConfigError,
    DriveSpec,
    FdmSimError,
    FrequencyPlan,
    IQTrace,
    QubitParams,
    ReadoutSetup,
    ResonatorParams,
    SweepResult,
    ToneSpec,
    UnknownDeviceError,
    acquire,
    adc_quantize,
    add_awgn,
    adjacent_crosstalk,
    apply_feedline,
    builtin_chip_path,
    carson_bandwidth,
    channelize,
    child_seed,
    crosstalk_limited_spacing,
    derive_rng,
    detect_flux_features,
    downconvert,
    dressed_resonance,
    evolve,
    evolve_for,
    fit_damped_sinusoid,
    format_plan_report,
    generate_plan,
    load_chip,
    make_readout_setup,
    max_channels,
    measure_crosstalk,
    plan_for_chip,
    propagator,
    qubit_frequency,
    rabi_frequency,
    read_trace,
    relaxation_telegraph_spectrum,
    run_flux_sweep,
    run_rabi,
    run_spectroscopy,
    s21_feedline,
    s21_single,
    state_dependent_shift,
    steady_state_excited,
    synthesize_multitone,
    trace_energy,
    upconvert_ssb,
    write_trace,
)

BAD = (math.nan, math.inf, -math.inf, 0, -1, 1e308, True, np.True_)

N = 64
CHIP = load_chip(builtin_chip_path())
DEVICE = CHIP.devices[0]
OTHERS = [-1.0] * (len(CHIP.devices) - 1)
# measure_crosstalk reads every chip7 channel on a 1 MHz grid, 4000
# samples at 4 GS/s from an LO at 9.75 GHz.
CROSSTALK_PLAN = plan_for_chip(CHIP, lo_frequency=9.75e9, grid=1e6)


def trace(sample=0.5, sample_rate=1e9):
    samples = np.exp(2j * np.pi * 10e6 * np.arange(N) / 1e9)
    samples[0] = sample
    return IQTrace(samples, sample_rate)


def synthesize(tmp, n_samples=N, sample_rate=1e9, frequency=10e6, amplitude=0.5, phase=0.3):
    tones = [ToneSpec(frequency, amplitude, phase), ToneSpec(-20e6, 0.5)]
    return synthesize_multitone(tones, n_samples, sample_rate)


def upconvert(tmp, lo_frequency=9.6e9, sample=0.5, sample_rate=1e9):
    return upconvert_ssb(trace(sample, sample_rate), lo_frequency)


def round_trip(tmp, lo_frequency=9.6e9, sample=0.5, sample_rate=1e9):
    return downconvert(upconvert_ssb(trace(sample, sample_rate), lo_frequency))


def feedline(tmp, lo_frequency=4.5e9, state=1.0, flux=0.01, sample=0.5, sample_rate=1e9):
    states = [state] + [-1.0] * (len(CHIP.devices) - 1)
    fluxes = [flux] + [d.qubit.symmetry_flux for d in CHIP.devices[1:]]
    return apply_feedline(upconvert_ssb(trace(sample, sample_rate), lo_frequency),
                          CHIP, states, fluxes)


def awgn(tmp, noise_std=1e-3, seed=3, sample=0.5, sample_rate=1e9):
    return add_awgn(trace(sample, sample_rate), noise_std, seed)


def quantize(tmp, noise_std=1e-3, seed=3, bits=12, full_scale=1.0, analog_bandwidth=200e6,
             sample=0.5, sample_rate=1e9):
    adc = AdcSpec(sample_rate=1e9, bits=bits, full_scale=full_scale,
                  analog_bandwidth=analog_bandwidth)
    return adc_quantize(trace(sample, sample_rate), adc, noise_std=noise_std, seed=seed)


def project(tmp, frequency=10e6, sample=0.5, sample_rate=1e9):
    return channelize(trace(sample, sample_rate), [frequency, -20e6], window="hann")


def energy(tmp, sample=0.5, sample_rate=1e9):
    return trace_energy(trace(sample, sample_rate))


def trace_file(tmp, sample=0.5, sample_rate=1e9):
    write_trace(tmp / "t.bin", trace(sample, sample_rate))
    return read_trace(tmp / "t.bin")


def qubit(tmp, gap_delta=4.05e9, flux_sensitivity=480e9, symmetry_flux=0.0,
          relaxation_rate_gamma=6.3e5):
    return QubitParams(gap_delta, flux_sensitivity, symmetry_flux, relaxation_rate_gamma)


def resonator(tmp, bare_frequency=9.3e9, total_linewidth_kappa=6.3e7, external_linewidth=6e7,
              coupling_g=2.5e8):
    return ResonatorParams(bare_frequency, total_linewidth_kappa, external_linewidth, coupling_g)


def frequency_of_qubit(tmp, flux=0.01):
    return qubit_frequency(DEVICE.qubit, flux)


def pull(tmp, omega_q=2.5e10, state=1.0):
    return state_dependent_shift(DEVICE.resonator, omega_q, state)


def notch(tmp, probe_omega=5.8e10, shift=1e6):
    return s21_single(DEVICE.resonator, probe_omega, shift)


def product(tmp, probe_omega=5.8e10, state=1.0, flux=0.01):
    return s21_feedline(CHIP, probe_omega, [state] + OTHERS, [flux] * len(CHIP.devices))


def resonance(tmp, flux=0.01, state=1.0):
    return dressed_resonance(DEVICE, flux, state)


def drive(tmp, rabi_rate_per_unit_amplitude=5e6, amplitude=1.0, detuning=1e5):
    return DriveSpec(rabi_rate_per_unit_amplitude, amplitude, detuning)


def evolution(tmp, z=-1.0, rabi_rate_per_unit_amplitude=5e6, amplitude=1.0, detuning=1e5,
              gamma=6.3e5, gamma_phi=1e4, duration=7e-8):
    return evolve_for(BlochState(0.0, 0.0, z),
                      DriveSpec(rabi_rate_per_unit_amplitude, amplitude, detuning),
                      gamma, gamma_phi, duration)


def step(tmp, dt=7e-8, gamma=6.3e5, gamma_phi=1e4):
    return evolve(GROUND, DriveSpec(5e6, 1.0), gamma, gamma_phi, dt)


def steady_state(tmp, rabi_rate_per_unit_amplitude=5e6, amplitude=1.0, detuning=1e5,
                 gamma=6.3e5, gamma_phi=1e4):
    return steady_state_excited(DriveSpec(rabi_rate_per_unit_amplitude, amplitude, detuning),
                                gamma, gamma_phi)


def rabi(tmp, rabi_rate_per_unit_amplitude=5e6, amplitude=1.0, detuning=1e5):
    return rabi_frequency(DriveSpec(rabi_rate_per_unit_amplitude, amplitude, detuning))


def segment(tmp, rabi_rate_per_unit_amplitude=5e6, amplitude=1.0, detuning=1e5, gamma=6.3e5,
            gamma_phi=1e4, duration=7e-8):
    return propagator(DriveSpec(rabi_rate_per_unit_amplitude, amplitude, detuning), gamma,
                      gamma_phi, duration)


def stream(tmp, seed=3, path=1):
    return derive_rng(seed, path).normal()


def seed_of(tmp, seed=3, path=1):
    return child_seed(seed, path)


def telegraph(tmp, gamma=6.3e5, shift=1.6e7, duration=1e-6, n_trajectories=2, seed=0,
              sample_rate=64e6):
    return relaxation_telegraph_spectrum(gamma, shift, duration, n_trajectories, seed,
                                         sample_rate)


def carson(tmp, dispersive_shift=3e6, gamma=6.3e5):
    return carson_bandwidth(dispersive_shift, gamma)


def crosstalk_db(tmp, spacing=3e8, kappa=6.3e7):
    return adjacent_crosstalk(spacing, kappa)


def crosstalk_spacing(tmp, kappa=6.3e7, crosstalk_limit_db=-20.0):
    return crosstalk_limited_spacing(kappa, crosstalk_limit_db)


def capacity(tmp, bandwidth=1e9, kappa=6.3e7, gamma=6.3e5, dispersive_shift=3e6,
             crosstalk_limit_db=-20.0):
    return max_channels(CapacityQuery(bandwidth, kappa, gamma, dispersive_shift,
                                      crosstalk_limit_db))


def uniform_plan(tmp, n_channels=3, band_start=9e9, band_stop=10e9, spacing=2e8, kappa=6.3e7,
                 crosstalk_limit_db=-20.0, guard=1e7):
    return generate_plan(n_channels, band_start, band_stop, spacing=spacing, kappa=kappa,
                         crosstalk_limit_db=crosstalk_limit_db, guard=guard)


def chip_plan(tmp, lo_frequency=9.45e9, grid=1e7, state=-1.0, margin=5e6):
    return plan_for_chip(CHIP, lo_frequency=lo_frequency, grid=grid, state=state, margin=margin)


def plan_report(tmp, kappa=6.3e7, gamma=6.3e5, dispersive_shift=3e6):
    return format_plan_report(CROSSTALK_PLAN, kappa=kappa, gamma=gamma,
                              dispersive_shift=dispersive_shift)


def adc_spec(tmp, sample_rate=1e9, bits=12, full_scale=1.0, analog_bandwidth=4e8):
    return AdcSpec(sample_rate, bits, full_scale, analog_bandwidth)


def setup(lo_frequency=9.45e9, frequency=1.5e8, sample_rate=1e9, n_samples=100, amplitude=0.1):
    return ReadoutSetup((1, 2, 3), lo_frequency, (-1.5e8, 0.0, frequency), sample_rate,
                        n_samples, amplitude)


def readout_setup(tmp, lo_frequency=9.45e9, frequency=1.5e8, sample_rate=1e9, n_samples=100,
                  amplitude=0.1):
    return setup(lo_frequency, frequency, sample_rate, n_samples, amplitude)


def made_setup(tmp, lo_frequency=9.45e9, sample_rate=1e9, n_samples=100, amplitude=0.1):
    return make_readout_setup(CHIP, (1, 2, 3), lo_frequency=lo_frequency,
                              sample_rate=sample_rate, n_samples=n_samples, amplitude=amplitude)


def shot(tmp, state=1.0, flux=0.01, noise_std=1e-3, seed=5, lo_frequency=9.45e9, amplitude=0.1,
         n_samples=100):
    return acquire(CHIP, setup(lo_frequency, amplitude=amplitude, n_samples=n_samples),
                   [state] + OTHERS, flux, noise_std=noise_std, seed=seed)


def flux_sweep(tmp, flux=0.02, state=1.0, noise_std=1e-3, seed=5, amplitude=0.1,
               n_samples=100):
    return run_flux_sweep(CHIP, [-0.01, 0.0, flux], setup=setup(amplitude=amplitude,
                                                                  n_samples=n_samples),
                          states=[state] + OTHERS, noise_std=noise_std, seed=seed)


def spectroscopy(tmp, probe_frequency=9.5e9, state=1.0, flux=0.01):
    return run_spectroscopy(CHIP, [9.3e9, 9.4e9, probe_frequency], states=[state] + OTHERS,
                            fluxes=flux)


def rabi_readout(tmp, duration=2e-8, rabi_rate_per_unit_amplitude=5e6, amplitude_scale=1.0,
                 detuning=1e5, gamma=6.3e5, gamma_phi=1e4, noise_std=1e-3, seed=5,
                 amplitude=0.1, n_samples=100):
    return run_rabi(CHIP, [0.0, 1e-8, duration], setup=setup(amplitude=amplitude,
                                                              n_samples=n_samples),
                    rabi_rate_per_unit_amplitude=rabi_rate_per_unit_amplitude,
                    amplitude_scales=[amplitude_scale] * 3, detuning=detuning, gamma=gamma,
                    gamma_phi=gamma_phi, noise_std=noise_std, seed=seed)


def features(tmp, value=0.9, prominence=0.3):
    # one peak per column: device 1 at index 3, device 2 at index 5
    table = np.array([[0.1, 0.2], [0.2, 0.2], [0.5, 0.1], [0.9, 0.3], [0.4, 0.2],
                      [0.3, 0.8], [0.2, 0.4], [0.1, 0.1]])
    table[3, 0] = value
    result = SweepResult("flux_sweep", "flux_phi0", np.linspace(-0.02, 0.02, 8),
                         {"amplitude": table}, (1, 2))
    return detect_flux_features(result, prominence=prominence)


def fit(tmp, time=1.2e-6, value=0.5):
    times = np.linspace(0.0, 1.2e-6, 50)
    times[-1] = time
    values = np.cos(2 * np.pi * 5e6 * np.linspace(0.0, 1.2e-6, 50))
    values[10] = value
    return fit_damped_sinusoid(times, values)


def crosstalk(tmp, lo_frequency=9.75e9, sample_rate=4e9, n_samples=4000, amplitude=1.0,
              noise_std=1e-3, seed=5):
    return measure_crosstalk(CHIP, CROSSTALK_PLAN, 2, lo_frequency=lo_frequency,
                             sample_rate=sample_rate, n_samples=n_samples, amplitude=amplitude,
                             noise_std=noise_std, seed=seed)


def band_limited_crosstalk(tmp, n_samples=4000, bits=12, full_scale=8.0,
                           analog_bandwidth=1.9e9):
    adc = AdcSpec(4e9, bits, full_scale, analog_bandwidth)
    return measure_crosstalk(CHIP, CROSSTALK_PLAN, 2, lo_frequency=9.75e9, n_samples=n_samples,
                             adc=adc)


CALLS = {
    "synthesize_multitone": synthesize,
    "upconvert_ssb": upconvert,
    "downconvert": round_trip,
    "apply_feedline": feedline,
    "add_awgn": awgn,
    "adc_quantize": quantize,
    "channelize": project,
    "trace_energy": energy,
    "write_trace/read_trace": trace_file,
    "QubitParams": qubit,
    "ResonatorParams": resonator,
    "qubit_frequency": frequency_of_qubit,
    "state_dependent_shift": pull,
    "s21_single": notch,
    "s21_feedline": product,
    "dressed_resonance": resonance,
    "DriveSpec": drive,
    "evolve_for": evolution,
    "evolve": step,
    "steady_state_excited": steady_state,
    "rabi_frequency": rabi,
    "propagator": segment,
    "derive_rng": stream,
    "child_seed": seed_of,
    "relaxation_telegraph_spectrum": telegraph,
    "carson_bandwidth": carson,
    "adjacent_crosstalk": crosstalk_db,
    "crosstalk_limited_spacing": crosstalk_spacing,
    "CapacityQuery/max_channels": capacity,
    "generate_plan": uniform_plan,
    "plan_for_chip": chip_plan,
    "format_plan_report": plan_report,
    "AdcSpec": adc_spec,
    "ReadoutSetup": readout_setup,
    "make_readout_setup": made_setup,
    "acquire": shot,
    "run_flux_sweep": flux_sweep,
    "run_spectroscopy": spectroscopy,
    "run_rabi": rabi_readout,
    "measure_crosstalk": crosstalk,
    "AdcSpec/measure_crosstalk": band_limited_crosstalk,
    "detect_flux_features": features,
    "fit_damped_sinusoid": fit,
}

# Public names without a row of their own, and why.
EXEMPT = {
    "BlochState": "its z is an argument of the evolve_for row",
    "CapacityResult": "the result of max_channels, which has a row",
    "Chip": "holds device records and ids, no number of its own",
    "ConfigError": "an error type",
    "DampedSinusoidFit": "the result of fit_damped_sinusoid, which has a row",
    "DeviceRecord": "holds an id and the parameters of two rows, QubitParams and ResonatorParams",
    "FdmSimError": "an error type",
    "FrequencyPlan": "the result of generate_plan and plan_for_chip, which have rows",
    "GROUND": "a constant BlochState",
    "IQTrace": "accepts NaN samples on purpose; each stage refuses them in its result",
    "InfeasiblePlanError": "an error type",
    "Propagator": "the result of propagator, which has a row",
    "QubitStateLabel": "an enum of the two sigma_z values",
    "SweepResult": "a table container; the detect_flux_features row puts a value in one",
    "TelegraphSpectrum": "the result of relaxation_telegraph_spectrum, which has a row",
    "ToneMeasurement": "the result of channelize and acquire, which have rows",
    "ToneSpec": "its numbers are arguments of the synthesize_multitone row",
    "TraceFormatError": "an error type",
    "UnknownDeviceError": "an error type",
    "builtin_chip_path": "takes no argument",
    "config_hash": "hashes a file's bytes",
    "load_chip": "reads its numbers from a file; test_file_readers feeds it mutated bytes "
                 "in test_load_chip_gives_a_chip_or_a_named_error_on_mutated_bytes",
    "read_sweep_csv": "reads its numbers from a file; test_file_readers feeds it mutated bytes in "
                      "test_read_sweep_csv_gives_a_sweep_or_a_named_error_on_mutated_bytes",
    "write_measurements_csv": "writes ToneMeasurements, whose numbers are checked on construction",
    "write_sweep_csv": "writes a SweepResult's tables as text; test_file_readers writes back "
                       "every mutant that reads in "
                       "test_read_sweep_csv_gives_a_sweep_or_a_named_error_on_mutated_bytes",
    "write_sweep_json": "writes a SweepResult's tables as text; test_file_readers writes back "
                        "every mutant that reads in "
                        "test_read_sweep_csv_gives_a_sweep_or_a_named_error_on_mutated_bytes",
}

ARGUMENTS = [(name, argument) for name, call in CALLS.items()
             for argument in list(inspect.signature(call).parameters)[1:]]


def finite(result) -> bool:
    """True when every number the result holds is finite: in its arrays,
    fields, list items, dict values and text."""
    if isinstance(result, str):
        return re.search(r"\b(nan|inf)\b", result, re.IGNORECASE) is None
    if result is None or isinstance(result, (int, enum.Enum)):
        return True
    if dataclasses.is_dataclass(result):
        return all(finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, dict):
        return all(finite(value) for value in result.values())
    if isinstance(result, (list, tuple)):
        return all(finite(item) for item in result)
    return bool(np.isfinite(result).all())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", CALLS)
def test_every_baseline_call_is_finite(name, tmp_path):
    assert finite(CALLS[name](tmp_path))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name, argument", ARGUMENTS)
def test_a_bad_number_gives_a_finite_result_or_a_named_error(name, argument, bad, tmp_path):
    try:
        result = CALLS[name](tmp_path, **{argument: bad})
    except FdmSimError:
        return
    assert finite(result), f"{name}({argument}={bad!r}) returned {result!r}"


def test_every_public_name_has_a_row_or_a_reason():
    rows = {name for key in CALLS for name in key.split("/")}
    public = set(fdmsim.__all__)
    assert rows <= public
    assert set(EXEMPT) <= public
    assert not rows & set(EXEMPT)
    assert public - rows - set(EXEMPT) == set()


def test_crosstalk_refuses_a_plan_id_that_is_not_on_the_chip():
    # The plan below gives device 1's channel to id 99, which chip7 does
    # not have; the level of device 1's channel came back under 99.
    channels = ((99, CROSSTALK_PLAN.channels[0][1]),) + CROSSTALK_PLAN.channels[1:]
    plan = FrequencyPlan(CROSSTALK_PLAN.band_start, CROSSTALK_PLAN.band_stop, channels)
    with pytest.raises(UnknownDeviceError, match="99"):
        measure_crosstalk(CHIP, plan, 2)


def test_band_limited_crosstalk_names_an_n_samples_it_cannot_allocate():
    # The analog band check built all n_samples FFT bins, and numpy's
    # "Maximum allowed dimension exceeded" ValueError came out bare.
    with pytest.raises(ConfigError, match="cannot allocate n_samples = "):
        band_limited_crosstalk(None, n_samples=1e308)


@pytest.mark.parametrize("bad", [True, np.True_], ids=repr)
@pytest.mark.parametrize("call", [
    lambda bad: make_readout_setup(CHIP, (1,), n_samples=bad),
    lambda bad: synthesize_multitone([ToneSpec(0.0, 0.5)], bad, 1e9),
    lambda bad: AdcSpec(1e9, bad, 1.0),
    lambda bad: AdcSpec(1e9, 12, bad),
    lambda bad: evolve(BlochState(0.0, 0.0, -1.0), DriveSpec(5e6, 1.0), bad, 0.0, 1e-9),
], ids=["n_samples", "synthesis count", "bits", "full_scale", "gamma"])
def test_a_bool_is_not_a_number(call, bad):
    # np.True_ built a 1-sample setup and trace and a converter whose bits
    # read True, and numpy's bool, which refuses negation, raised TypeError
    # from evolve and from a converter's full scale.
    with pytest.raises(ConfigError, match="got True"):
        call(bad)
