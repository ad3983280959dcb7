"""The staged chain's public entry points, one numeric argument at a time
set to a bad value: each call gives a finite result or raises an
FdmSimError, never a numpy warning or a bare Python error.

CALLS holds one valid baseline call per entry point, a function of a
scratch directory.  Each of its keyword arguments is a number that the
test may replace; the trace arguments are a unit 10 MHz tone whose
first sample is `sample`.
"""

import inspect
import math

import numpy as np
import pytest

from fdmsim import (
    AdcSpec,
    FdmSimError,
    IQTrace,
    ToneMeasurement,
    ToneSpec,
    adc_quantize,
    add_awgn,
    apply_feedline,
    builtin_chip_path,
    channelize,
    downconvert,
    load_chip,
    read_trace,
    synthesize_multitone,
    trace_energy,
    upconvert_ssb,
    write_trace,
)

BAD = (math.nan, math.inf, -math.inf, 0, -1, 1e308, True)

N = 64
CHIP = load_chip(builtin_chip_path())


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
}

ARGUMENTS = [(name, argument) for name, call in CALLS.items()
             for argument in list(inspect.signature(call).parameters)[1:]]


def finite(result) -> bool:
    if isinstance(result, IQTrace):
        carrier = result.carrier_frequency
        return bool(np.isfinite(result.samples).all()) and math.isfinite(result.sample_rate) \
            and (carrier is None or math.isfinite(carrier))
    if isinstance(result, list):
        return all(isinstance(m, ToneMeasurement) and math.isfinite(m.amplitude)
                   and math.isfinite(m.phase) and math.isfinite(m.noise_std) for m in result)
    return math.isfinite(result)


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
