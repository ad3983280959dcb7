"""Bloch dynamics and the relaxation-telegraph carrier spectrum."""

import math

import numpy as np
import pytest

from fdmsim import (
    GROUND,
    BlochState,
    ConfigError,
    DriveSpec,
    evolve,
    evolve_for,
    propagator,
    rabi_frequency,
    relaxation_telegraph_spectrum,
    steady_state_excited,
)
from fdmsim.seeding import derive_rng

TWO_PI = 2 * math.pi


def drive(rate=5e6, amp=1.0, detuning=0.0):
    return DriveSpec(
        rabi_rate_per_unit_amplitude=rate, amplitude=amp, detuning=detuning
    )


def test_rabi_frequency_includes_detuning():
    assert rabi_frequency(drive(5e6, 1.0)) == pytest.approx(5e6)
    assert rabi_frequency(drive(5e6, 0.5)) == pytest.approx(2.5e6)
    assert rabi_frequency(drive(3e6, 1.0, detuning=4e6)) == pytest.approx(5e6)


def test_resonant_lossless_evolution_is_sin_squared():
    d = drive(5e6)
    state = GROUND
    dt = 1e-9
    for k in range(1, 401):
        state = evolve(state, d, gamma=0.0, gamma_phi=0.0, dt=dt)
        expected = math.sin(math.pi * 5e6 * k * dt) ** 2
        assert state.excited_population == pytest.approx(expected, abs=1e-12)
    # norm preserved without damping
    assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_pi_pulse_inverts_population():
    d = drive(5e6)
    state = evolve_for(GROUND, d, gamma=0.0, gamma_phi=0.0, duration=1e-7)
    assert state.excited_population == pytest.approx(1.0, abs=1e-8)


def test_detuned_lossless_evolution_matches_closed_form():
    # P_e = (W / Omega)^2 sin^2(Omega t / 2), Omega = hypot(W, delta)
    d = drive(3e6, detuning=4e6)
    w = TWO_PI * 3e6
    omega = TWO_PI * 5e6
    state = GROUND
    for k in range(1, 301):
        state = evolve_for(state, d, 0.0, 0.0, 1e-9)
        expected = (w / omega) ** 2 * math.sin(omega * k * 1e-9 / 2) ** 2
        assert state.excited_population == pytest.approx(expected, abs=1e-12)


def test_detuned_drive_reduced_contrast():
    # max excited population off resonance is (W/W_eff)^2
    d = drive(5e6, detuning=5e6)
    best = 0.0
    state = GROUND
    for _ in range(400):
        state = evolve_for(state, d, 0.0, 0.0, 1e-9)
        best = max(best, state.excited_population)
    assert best == pytest.approx(0.5, abs=0.01)


def test_free_decay_is_exponential():
    gamma = TWO_PI * 0.2e6
    silent = drive(rate=0.0, amp=0.0)
    state = BlochState(0.0, 0.0, 1.0)
    t = 2e-6
    state = evolve_for(state, silent, gamma, 0.0, t)
    expected = 2.0 * math.exp(-gamma * t) - 1.0  # z decays to -1 at rate gamma
    assert state.z == pytest.approx(expected, abs=1e-12)


def test_transverse_decoherence_rate():
    gamma = TWO_PI * 0.1e6
    gamma_phi = TWO_PI * 0.05e6
    g2 = gamma / 2 + gamma_phi
    silent = drive(rate=0.0, amp=0.0)
    state = BlochState(1.0, 0.0, 0.0)  # equator: pure transverse coherence
    t = 1e-6
    out = evolve_for(state, silent, gamma, gamma_phi, t)
    assert out.x == pytest.approx(math.exp(-g2 * t), rel=1e-12)


def test_steady_state_matches_long_evolution():
    gamma = TWO_PI * 0.3e6
    gamma_phi = TWO_PI * 0.1e6
    d = drive(0.4e6, 1.0, detuning=0.2e6)
    predicted = steady_state_excited(d, gamma, gamma_phi)
    state = GROUND
    state = evolve_for(state, d, gamma, gamma_phi, 40e-6)
    assert state.excited_population == pytest.approx(predicted, abs=1e-9)


def test_steady_state_saturates_to_half():
    gamma = TWO_PI * 0.1e6
    strong = drive(50e6, 1.0)
    assert steady_state_excited(strong, gamma, 0.0) == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(ConfigError):
        steady_state_excited(strong, 0.0, 0.0)


def test_single_long_step_is_exact():
    # 50 Rabi periods in one step: no step-size limit applies.
    state = evolve(GROUND, drive(50e6), 0.0, 0.0, dt=1e-6)
    expected = math.sin(math.pi * 50e6 * 1e-6) ** 2
    assert state.excited_population == pytest.approx(expected, abs=1e-12)


def test_evolution_composes_as_a_semigroup():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = drive(rng.uniform(0.0, 20e6), rng.uniform(0.0, 1.5), rng.uniform(-10e6, 10e6))
        gamma, gamma_phi = TWO_PI * rng.uniform(0.0, 1e6, size=2)
        t1, t2 = rng.uniform(0.0, 2e-6, size=2)
        direction = rng.normal(size=3)
        start = BlochState(*(rng.uniform(0.0, 1.0) * direction / np.linalg.norm(direction)))
        whole = evolve_for(start, d, gamma, gamma_phi, t1 + t2)
        split = evolve_for(evolve_for(start, d, gamma, gamma_phi, t1), d, gamma, gamma_phi, t2)
        for a, b in zip((whole.x, whole.y, whole.z), (split.x, split.y, split.z)):
            assert a == pytest.approx(b, abs=1e-12)


# 50 detuned lossless segments of 1 ms to 10 s: at these lengths the
# squarings in the matrix exponential used to push 16 of them past the
# Bloch norm's 1e-9 slack, so that evolve_for raised ConfigError.
@pytest.mark.parametrize("duration", np.geomspace(1e-3, 10.0, 50).tolist())
def test_long_lossless_segment_keeps_the_norm(duration):
    state = evolve_for(GROUND, drive(50e6, 1.0, 3e6), 0.0, 0.0, duration)
    assert state.norm == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("duration", [0.1, 1.0, 10.0])
def test_long_nearly_lossless_segment_stays_in_the_bloch_ball(duration):
    state = evolve_for(GROUND, drive(50e6, 1.0, 3e6), 1e-12, 0.0, duration)
    assert state.norm <= 1.0


def test_propagator_is_reusable_and_equals_evolve_for():
    d = drive(7e6, 0.9, 2e6)
    step = propagator(d, TWO_PI * 1e5, TWO_PI * 2e4, 3e-8)
    a = b = GROUND
    for _ in range(20):
        a = step.apply(a)
        b = evolve_for(b, d, TWO_PI * 1e5, TWO_PI * 2e4, 3e-8)
        assert a == b
    assert not step.lossless
    assert propagator(d, 0.0, 0.0, 3e-8).lossless
    with pytest.raises(ValueError):
        step.matrix[0, 0] = 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: DriveSpec(math.nan, 1.0),
        lambda: DriveSpec(5e6, math.inf),
        lambda: DriveSpec(5e6, 1.0, detuning=math.nan),
        lambda: BlochState(math.nan, 0.0, 0.0),
        lambda: evolve_for(GROUND, drive(), math.nan, 0.0, 1e-6),
        lambda: evolve_for(GROUND, drive(), -1.0, 0.0, 1e-6),
        lambda: evolve_for(GROUND, drive(), 1e5, math.inf, 1e-6),
        lambda: evolve_for(GROUND, drive(), 1e5, -1.0, 1e-6),
        lambda: evolve_for(GROUND, drive(), 1e5, 0.0, math.inf),
        lambda: evolve_for(GROUND, drive(), 1e5, 0.0, math.nan),
        lambda: evolve_for(GROUND, drive(), 1e5, 0.0, -1e-9),
        lambda: evolve(GROUND, drive(), 1e5, 0.0, 0.0),
        lambda: steady_state_excited(drive(), 1e5, math.nan),
        lambda: steady_state_excited(drive(), 1e5, -1.0),
        lambda: steady_state_excited(drive(), math.inf, 0.0),
    ],
)
def test_bloch_rejects_bad_input(call):
    with pytest.raises(ConfigError):
        call()


def test_bloch_state_validation():
    with pytest.raises(ConfigError):
        BlochState(1.0, 1.0, 1.0)  # norm sqrt(3) > 1


# --------------------------------------------------------------------------
# telegraph spectrum


def exact_inband_fraction(depth, flip_rate, half_width):
    """Two-site exchange lineshape integrated over the band, vs pi total.

    S(w) = 4 nu D^2 / [(D^2 - w^2)^2 + 4 nu^2 w^2]; one-sided integral
    over all w is pi for a unit-power process.
    """
    from scipy.integrate import quad

    def spectrum(w):
        return 4 * flip_rate * depth**2 / (
            (depth**2 - w**2) ** 2 + 4 * flip_rate**2 * w**2
        )

    inband, _ = quad(spectrum, 0, half_width, limit=800, points=[depth])
    return inband / math.pi


def test_carson_band_and_normalization():
    gamma = TWO_PI * 0.1e6
    shift = TWO_PI * 2.5e6
    spectrum = relaxation_telegraph_spectrum(
        gamma, shift, duration=50e-6, n_trajectories=200, seed=1
    )
    assert spectrum.carson_bandwidth == pytest.approx(2 * (shift + 2 * gamma), rel=1e-12)
    assert np.sum(spectrum.power) == pytest.approx(1.0, rel=1e-9)
    assert spectrum.frequencies[0] == 0.0
    assert spectrum.n_trajectories == 200


def test_telegraph_inband_fraction_matches_exchange_lineshape():
    gamma = TWO_PI * 0.1e6
    shift = TWO_PI * 2.5e6
    spectrum = relaxation_telegraph_spectrum(
        gamma, shift, duration=100e-6, n_trajectories=3000, seed=12
    )
    simulated = 1.0 - spectrum.out_of_band_fraction
    # sigma_z correlation decays at gamma, so the telegraph flips at
    # gamma/2; the exact in-band fraction then follows from the
    # exchange lineshape.
    exact = exact_inband_fraction(shift, gamma / 2, shift + 2 * gamma)
    assert simulated == pytest.approx(exact, abs=0.01)


def test_telegraph_spectrum_is_seeded():
    gamma = TWO_PI * 0.1e6
    shift = TWO_PI * 1e6
    a = relaxation_telegraph_spectrum(gamma, shift, 20e-6, 50, seed=4)
    b = relaxation_telegraph_spectrum(gamma, shift, 20e-6, 50, seed=4)
    np.testing.assert_array_equal(a.power, b.power)
    c = relaxation_telegraph_spectrum(gamma, shift, 20e-6, 50, seed=5)
    assert np.any(c.power != a.power)


def test_telegraph_spectrum_peaks_near_the_shift():
    # slow flipping concentrates power into lines at +-shift
    gamma = TWO_PI * 0.02e6
    shift = TWO_PI * 2e6
    spectrum = relaxation_telegraph_spectrum(gamma, shift, 200e-6, 400, seed=8)
    peak = spectrum.frequencies[np.argmax(spectrum.power[1:]) + 1]
    assert peak == pytest.approx(shift / TWO_PI, rel=0.05)


def reference_telegraph(gamma, shift, duration, n_trajectories, seed=0, sample_rate=None):
    """The per-sample kernel: float walk, one complex exp per sample.

    Returns (folded power, out-of-band fraction) for the same draws as
    relaxation_telegraph_spectrum.
    """
    half_width_hz = (shift + 2 * gamma) / (2 * math.pi)
    if sample_rate is None:
        sample_rate = 16.0 * max(half_width_hz, 1.0 / duration)
    n = int(round(duration * sample_rate))
    dt = 1.0 / sample_rate
    rng = derive_rng(seed)
    psd = np.zeros(n)
    chunk = max(1, min(n_trajectories, 2_000_000 // n))
    remaining = n_trajectories
    while remaining > 0:
        m = min(chunk, remaining)
        counts = rng.poisson(gamma / 2.0 * dt, size=(m, n))
        start = rng.choice((-1.0, 1.0), size=(m, 1))
        sigma = start * (1.0 - 2.0 * (np.cumsum(counts, axis=1) % 2))
        phase = np.cumsum(sigma, axis=1) * (shift * dt)
        signal = np.exp(1j * phase)
        psd += np.sum(np.abs(np.fft.fft(signal, axis=1)) ** 2, axis=0)
        remaining -= m
    psd /= psd.sum()
    freqs = np.fft.fftfreq(n, d=dt)
    out_fraction = float(1.0 - psd[np.abs(freqs) <= half_width_hz].sum())
    half = n // 2
    p_one = np.zeros(half + 1)
    p_one[0] = psd[0]
    for j in range(1, half + 1):
        p_one[j] = psd[j] + (psd[n - j] if n - j != j else 0.0)
    return p_one, out_fraction


@pytest.mark.parametrize(
    "kwargs",
    [
        # n = 41 (odd, from the sample_rate override): 100000 trajectories
        # exceed the 2_000_000 // 41 = 48780 per chunk, so three chunks run.
        dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
             n_trajectories=100_000, seed=3, sample_rate=41e6),
        dict(gamma=TWO_PI * 0.3e6, shift=0.0, duration=20e-6, n_trajectories=300, seed=4),
        dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=20e-6,
             n_trajectories=500, seed=5),
    ],
)
def test_telegraph_matches_per_sample_reference(kwargs):
    power, out_fraction = reference_telegraph(**kwargs)
    spectrum = relaxation_telegraph_spectrum(**kwargs)
    assert np.array_equal(spectrum.power, power)
    assert spectrum.out_of_band_fraction == out_fraction


@pytest.mark.parametrize(
    "bad",
    [
        dict(duration=0.0),
        dict(gamma=math.nan),
        dict(shift=math.nan),
        dict(duration=math.nan),
        dict(gamma=math.inf),
        dict(shift=math.inf),
        dict(duration=math.inf),
        dict(sample_rate=math.inf),
        dict(sample_rate=math.nan),
        dict(n_trajectories=2.5),
        # n = 16 000 320 samples, beyond TELEGRAPH_CHUNK_SAMPLES
        dict(shift=TWO_PI * 1e10, duration=100e-6),
    ],
)
def test_telegraph_rejects_bad_input(bad):
    kwargs = dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 1e6, duration=20e-6,
                  n_trajectories=10, seed=1)
    with pytest.raises(ConfigError):
        relaxation_telegraph_spectrum(**{**kwargs, **bad})

