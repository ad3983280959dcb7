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
"""

import dataclasses
import enum
import inspect
import math
import re

import numpy as np
import pytest

from fdmsim import (
    GROUND,
    AdcSpec,
    BlochState,
    CapacityQuery,
    DriveSpec,
    FdmSimError,
    IQTrace,
    QubitParams,
    ReadoutSetup,
    ResonatorParams,
    SpacingRule,
    ToneSpec,
    acquire,
    adc_quantize,
    add_awgn,
    adjacent_crosstalk,
    apply_feedline,
    builtin_chip_path,
    carson_bandwidth,
    channelize,
    crosstalk_limited_spacing,
    downconvert,
    dressed_resonance,
    evolve,
    evolve_for,
    format_plan_report,
    generate_plan,
    load_chip,
    make_readout_setup,
    max_channels,
    measure_crosstalk,
    plan_for_chip,
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

BAD = (math.nan, math.inf, -math.inf, 0, -1, 1e308, True)

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
    return generate_plan(n_channels, band_start, band_stop, SpacingRule.FIXED_SPACING,
                         spacing=spacing, kappa=kappa, crosstalk_limit_db=crosstalk_limit_db,
                         guard=guard)


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


def crosstalk(tmp, lo_frequency=9.75e9, sample_rate=4e9, n_samples=4000, amplitude=1.0,
              noise_std=1e-3, seed=5):
    return measure_crosstalk(CHIP, CROSSTALK_PLAN, 2, lo_frequency=lo_frequency,
                             sample_rate=sample_rate, n_samples=n_samples, amplitude=amplitude,
                             noise_std=noise_std, seed=seed)


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
