"""Bloch dynamics and the relaxation-telegraph carrier spectrum."""

import cmath
import math
import sys
import threading

import numpy as np
import pytest

import fdmsim.dynamics
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
from fdmsim.dynamics import _lay_out_chunk, _telegraph_block, _telegraph_flips
from fdmsim.seeding import child_seed, derive_rng

TWO_PI = 2 * math.pi


def drive(rate=5e6, amp=1.0, detuning=0.0):
    return DriveSpec(
        rabi_rate_per_unit_amplitude=rate, amplitude=amp, detuning=detuning
    )


def test_rabi_frequency_includes_detuning():
    assert rabi_frequency(drive(5e6, 1.0)) == pytest.approx(5e6)
    assert rabi_frequency(drive(5e6, 0.5)) == pytest.approx(2.5e6)
    assert rabi_frequency(drive(3e6, 1.0, detuning=4e6)) == pytest.approx(5e6)


def test_rabi_frequency_beyond_the_float_range_is_refused():
    # This returned inf.
    with pytest.raises(ConfigError, match="rabi_frequency must be finite"):
        rabi_frequency(drive(5e6, 1e308))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("drive_spec, gamma", [
    (DriveSpec(1e300, 1e10), 1e-300),  # gamma * G2 underflows to 0
    (DriveSpec(1e6, 1.0, detuning=1e10), 1e-200),  # (delta / G2)^2 overflows
])
def test_steady_state_beyond_the_float_range_is_refused(drive_spec, gamma):
    with pytest.raises(ConfigError, match="steady state .* beyond the float range"):
        steady_state_excited(drive_spec, gamma, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("duration", [1e300, 1e303])
def test_an_overflowing_propagator_is_refused(duration):
    # 1e300 s overflows in the squarings, 1e303 s already in A * duration.
    with pytest.raises(ConfigError, match="duration is too long"):
        evolve_for(GROUND, DriveSpec(1e6, 1.0), 0.0, 0.0, duration)


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


@pytest.mark.parametrize("duration", [3e-8, 1e-3, 10.0])
@pytest.mark.parametrize("start", [BlochState(0.0, 0.0, -0.25), BlochState(0.3, -0.2, 0.6)])
def test_lossless_segment_keeps_the_norm_of_a_state_inside_the_ball(start, duration):
    state = evolve_for(start, drive(50e6, 1.0, 3e6), 0.0, 0.0, duration)
    assert state.norm == pytest.approx(start.norm, abs=1e-15)
    assert state != start


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


def expm_alone(m):
    """exp(m) of one matrix by the scaling and squaring of _expm, written
    for a single 2-D matrix."""
    s = max(0, math.frexp(float(np.abs(m).sum(axis=0).max()) / 0.25)[1])
    m = m * 2.0**-s
    eye = np.eye(len(m))
    out = eye
    for k in range(12, 0, -1):
        out = eye + (m @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def bloch_generators(steps, gamma, detuning=2e6):
    w, delta, g2 = TWO_PI * 5e6, TWO_PI * detuning, gamma / 2.0
    a = np.array([
        [-g2, -delta, 0.0, 0.0],
        [delta, -g2, -w, 0.0],
        [0.0, w, -gamma, -gamma],
        [0.0, 0.0, 0.0, 0.0],
    ])
    return a * np.asarray(steps, dtype=float)[:, None, None]


@pytest.mark.parametrize("gamma", [0.0, TWO_PI * 1e5])
def test_stacked_expm_equals_each_matrix_alone(gamma):
    # steps from 1 ps to 10 us need from 0 to about 9 squarings, shuffled
    # so that the groups of one squaring count interleave
    steps = np.random.default_rng(5).permutation(np.geomspace(1e-12, 1e-5, 29))
    stack = bloch_generators(steps, gamma)
    counts = {max(0, math.frexp(float(np.abs(m).sum(axis=0).max()) / 0.25)[1]) for m in stack}
    assert len(counts) > 4
    out = fdmsim.dynamics._expm(stack)
    assert out.shape == stack.shape
    for m, got in zip(stack, out):
        alone = fdmsim.dynamics._expm(m)
        assert alone.shape == (4, 4)
        assert np.array_equal(got, alone)
        assert np.array_equal(got, expm_alone(m))
    # a stack of stacks keeps its leading axes
    nested = fdmsim.dynamics._expm(stack[:28].reshape(7, 4, 4, 4))
    assert np.array_equal(nested.reshape(28, 4, 4), out[:28])


@pytest.mark.parametrize("gamma, gamma_phi", [(0.0, 0.0), (TWO_PI * 1e5, 0.0),
                                              (TWO_PI * 1e5, TWO_PI * 3e4)])
@pytest.mark.parametrize("times", [
    np.linspace(5e-9, 1.2e-6, 200),       # rabi_noisy's grid: 11 distinct steps
    np.geomspace(1e-10, 3e-6, 120),       # every step distinct, many squaring counts
])
def test_ground_trajectory_equals_the_apply_chain(times, gamma, gamma_phi):
    d = drive(5e6, 1.2, 1e6)
    z = fdmsim.dynamics._ground_trajectory(d, gamma, gamma_phi, times.tolist())
    state, expected, prev = GROUND, [], 0.0
    for t in times.tolist():
        state = propagator(d, gamma, gamma_phi, t - prev).apply(state)
        expected.append(state.z)
        prev = t
    assert z == expected


def test_ground_trajectory_rejects_a_bad_step_before_any_work():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="duration must be finite"):
            fdmsim.dynamics._ground_trajectory(drive(), 0.0, 0.0, [1e-9, 2e-9, bad])


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


def telegraph_grid(gamma, shift, duration, sample_rate=None):
    """(n, dt, in-band mask over the FFT bins) as
    relaxation_telegraph_spectrum sets them: bin j is in the Carson band
    when its distance from the carrier, min(j, n - j) * sample_rate / n,
    is at most the half-width, compared as products."""
    half_width_hz = (shift + 2 * gamma) / (2 * math.pi)
    if sample_rate is None:
        sample_rate = 16.0 * max(half_width_hz, 1.0 / duration)
    n = int(round(duration * sample_rate))
    bins = np.arange(n)
    in_band = np.minimum(bins, n - bins) * sample_rate <= half_width_hz * n
    return n, 1.0 / sample_rate, in_band


def fold(psd):
    """Bin -j onto bin +j of an n-point spectrum in FFT order."""
    n = psd.size
    p_one = np.zeros(n // 2 + 1)
    p_one[0] = psd[0]
    for j in range(1, n // 2 + 1):
        p_one[j] = psd[j] + (psd[n - j] if n - j != j else 0.0)
    return p_one


def reference_telegraph(gamma, shift, duration, n_trajectories, seed=0, sample_rate=None):
    """The per-sample kernel: dense flips, parity and float walks, one
    complex exp per sample and one FFT over each chunk.

    Chunk c of at most 2_000_000 samples, and one of at least four when
    there are four trajectories, draws its flips from
    derive_rng(child_seed(seed, c)).  The power of a bin is re^2 + im^2:
    each chunk's squared real parts and squared imaginary parts are
    summed over its rows in order, then the chunks are added in order,
    the re^2 sums and then the im^2 sums.  Returns (folded power,
    out-of-band fraction) for the same draws as
    relaxation_telegraph_spectrum.
    """
    n, dt, in_band = telegraph_grid(gamma, shift, duration, sample_rate)
    p = -math.expm1(-gamma * dt) / 2.0
    chunk = max(1, min(2_000_000 // n, -(-n_trajectories // 4)))
    psd = np.zeros(n)
    for c, first in enumerate(range(0, n_trajectories, chunk)):
        m = min(chunk, n_trajectories - first)
        flips, start = _telegraph_flips(derive_rng(child_seed(seed, c)), p, m, n)
        flipped = np.zeros(m * n, dtype=np.int64)
        flipped[flips] = 1
        parity = np.cumsum(flipped.reshape(m, n), axis=1) % 2
        sigma = start[:, None] * (1.0 - 2.0 * parity)
        phase = np.cumsum(sigma, axis=1) * (shift * dt)
        signal = np.exp(1j * phase)
        spectrum = np.fft.fft(signal, axis=1)
        psd += np.sum(spectrum.real ** 2, axis=0)
        psd += np.sum(spectrum.imag ** 2, axis=0)
    psd /= psd.sum()
    out_fraction = float(1.0 - psd[in_band].sum())
    return fold(psd), out_fraction


def expected_telegraph_psd(gamma, shift, n, dt):
    """Exact expected spectrum of one trajectory, unit total, FFT order.

    sigma is a symmetric two-state Markov chain that flips with
    p = (1 - exp(-gamma*dt))/2 per sample and is +-1 with equal
    probability at every sample.  With x_k = exp(i*theta*S_k) and
    theta = shift*dt, the lag-k correlation E[x_{j+k} conj(x_j)] is
    R(k) = 1^T (D P)^k v0, D = diag(e^{i theta}, e^{-i theta}), P the
    flip matrix, v0 = (1/2, 1/2): the discrete motional-narrowing
    lineshape of Anderson (J. Phys. Soc. Jpn. 9, 316, 1954) and Kubo
    (ibid. 935).  Then E|X_q|^2 = sum_k (n - |k|) R(k) e^{-2 pi i q k/n}
    over |k| < n, with R(-k) = conj(R(k)), and the total is n^2.
    """
    p = -math.expm1(-gamma * dt) / 2.0
    up, down = cmath.exp(1j * shift * dt), cmath.exp(-1j * shift * dt)
    plus = minus = 0.5
    r = [1.0 + 0j]
    for _ in range(1, n):
        plus, minus = (up * ((1 - p) * plus + p * minus),
                       down * (p * plus + (1 - p) * minus))
        r.append(plus + minus)
    r = np.array(r)
    lags = np.arange(n)
    folded = (n - lags) * r
    folded[1:] += lags[1:] * np.conj(r[:0:-1])
    return np.fft.fft(folded).real / n**2


def expected_inband_fraction(gamma, shift, duration, sample_rate=None):
    n, dt, in_band = telegraph_grid(gamma, shift, duration, sample_rate)
    return float(expected_telegraph_psd(gamma, shift, n, dt)[in_band].sum())


def test_expected_telegraph_psd_limits():
    # no flips: a pure tone at shift, on a grid bin
    n, dt = 320, 1 / 16e6
    shift = TWO_PI * 1e6
    psd = expected_telegraph_psd(1e-20, shift, n, dt)
    assert psd.sum() == pytest.approx(1.0, abs=1e-12)
    assert fold(psd)[20] == pytest.approx(1.0, abs=1e-9)
    # p = 1/2: sigma is white, so x_k is a random walk in phase with
    # R(k) = cos(theta)**k, against the brute-force sum over lags
    theta = 0.3
    psd = expected_telegraph_psd(1e9, theta / 1e-3, 40, 1e-3)
    lags = np.arange(-39, 40)
    r = np.cos(theta) ** np.abs(lags)
    q = np.arange(40)[:, None]
    brute = ((40 - np.abs(lags)) * r * np.exp(-2j * np.pi * q * lags / 40)).sum(axis=1)
    np.testing.assert_allclose(psd, brute.real / 40**2, rtol=0, atol=1e-14)
    assert np.all(psd > 0)


def test_telegraph_agrees_with_exact_expected_spectrum():
    """The Monte Carlo against the exact lineshape, at a bound taken from
    batch means over independent seeds.

    Every trajectory has total power n**2, so each returned spectrum is
    the plain mean of its trajectories' normalised spectra, and the
    in-band fraction the mean of their in-band fractions: batch means
    over seeds are independent estimates of the exact values.
    """
    from scipy.stats import t as student_t

    gamma, shift, duration = TWO_PI * 0.1e6, TWO_PI * 2.5e6, 100e-6
    n, dt, _ = telegraph_grid(gamma, shift, duration)
    seeds = range(100, 120)
    runs = [relaxation_telegraph_spectrum(gamma, shift, duration, 200, seed=s)
            for s in seeds]
    k = len(runs)
    alpha = 1e-4

    in_band = np.array([1.0 - s.out_of_band_fraction for s in runs])
    exact = expected_inband_fraction(gamma, shift, duration)
    bound = student_t.ppf(1 - alpha / 2, k - 1) * in_band.std(ddof=1) / math.sqrt(k)
    assert abs(in_band.mean() - exact) <= bound

    # every folded bin, Bonferroni over the bins
    power = np.array([s.power for s in runs])
    exact_power = fold(expected_telegraph_psd(gamma, shift, n, dt))
    quantile = student_t.ppf(1 - alpha / (2 * exact_power.size), k - 1)
    bounds = quantile * power.std(axis=0, ddof=1) / math.sqrt(k)
    assert np.all(np.abs(power.mean(axis=0) - exact_power) <= bounds)


def test_telegraph_flip_draws():
    rng = np.random.default_rng(0)
    # p ~ 1e-300 draws gaps near 2**63: no wrap, no flips
    for p in (0.0, 1e-300, 1e-20):
        flips, start = _telegraph_flips(rng, p, 7, 100)
        assert flips.size == 0
        assert start.shape == (7,) and set(start.tolist()) <= {-1, 1}
    for p in (1e-4, 0.01, 0.3, 0.5):
        m, n = 50, 4000
        flips, _ = _telegraph_flips(rng, p, m, n)
        assert np.all(np.diff(flips) > 0)
        assert flips.size == 0 or (flips[0] >= 0 and flips[-1] < m * n)
        # one Bernoulli(p) per sample: the count within 5 sigma
        assert abs(flips.size - p * m * n) <= 5 * math.sqrt(m * n * p * (1 - p))


@pytest.mark.parametrize(
    "p, m, n",
    [
        (0.0, 5, 320),
        # p ~ 1e-27: no flips
        (1e-27, 5, 320),
        # p = 1/2: about half the rows flip on their first sample, which
        # leaves a run of length 0 before the flip
        (0.5, 60, 100),
        # odd n
        (0.05, 300, 41),
        # criterion 3's grid: 43.2 MS/s over 100 us
        (-math.expm1(-TWO_PI * 0.1e6 / 43.2e6) / 2, 30, 4320),
    ],
)
def test_telegraph_layout_reads_the_running_sum(p, m, n):
    """Each sample's entry of the two-way table, from the run starts, is
    the carrier at the running sum of sigma over its row."""
    layout_rng, flips_rng = (derive_rng(child_seed(11, 0)) for _ in range(2))
    edges, lengths, starts = _lay_out_chunk(layout_rng, p, m, n)
    flips, start = _telegraph_flips(flips_rng, p, m, n)
    flipped = np.zeros(m * n, dtype=np.int64)
    flipped[flips] = 1
    parity = np.cumsum(flipped.reshape(m, n), axis=1) % 2
    walk = np.cumsum(start[:, None] * (1 - 2 * parity), axis=1)

    assert starts.dtype == np.int32
    assert edges[0] == 0 and edges[-1] == lengths.size == starts.size
    assert np.array_equal(np.add.reduceat(lengths, edges[:-1]), np.full(m, n))
    index = np.repeat(starts, lengths).reshape(m, n) + np.arange(n)
    # np.take(mode="clip") would clamp an index off the table silently
    assert index.min() >= 0 and index.max() < 2 * (2 * n + 1)
    carrier = np.exp(1j * (np.arange(-n, n + 1) * 0.37))
    table = np.concatenate((carrier, carrier[::-1]))
    assert np.array_equal(table[index], carrier[walk + n])
    # the same entry, not only an equal value
    assert np.array_equal(np.where(index <= 2 * n, index, 4 * n + 1 - index), walk + n)
    if p == 0.5:
        assert np.any(lengths == 0)


def test_telegraph_block_power_is_the_squared_magnitude():
    """A block adds re^2 and im^2 of each row's FFT, interleaved, to the
    running sum in row 0 of its signal buffer.  Summed, they are |FFT|^2
    as np.abs gives it within a few ulp; and one block of every row adds
    them up as blocks of one row each do, bit for bit."""
    # criterion 3's grid: 43.2 MS/s over 100 us
    p, m, n = -math.expm1(-TWO_PI * 0.1e6 / 43.2e6) / 2, 6, 4320
    edges, lengths, starts = _lay_out_chunk(derive_rng(child_seed(11, 0)), p, m, n)
    carrier = np.exp(1j * (np.arange(-n, n + 1) * 0.37))
    table = np.concatenate((carrier, carrier[::-1]))
    ramp = np.arange(n, dtype=np.int32)
    gathered = table[np.repeat(starts, lengths).reshape(m, n) + ramp]
    spectra = np.fft.fft(gathered, axis=1)

    signal = np.empty((m + 1, n), dtype=complex)
    index = np.empty(m * n, dtype=np.int64)
    sums = signal[0].view(float)
    running = np.zeros(2 * n)
    for r in range(m):
        sums[:] = 0.0
        _telegraph_block(table, starts[edges[r]:edges[r + 1]], lengths[edges[r]:edges[r + 1]],
                         ramp, signal, index)
        np.testing.assert_array_max_ulp(sums[0::2] + sums[1::2], np.abs(spectra[r]) ** 2,
                                        maxulp=8)
        running += sums
    sums[:] = 0.0
    _telegraph_block(table, starts, lengths, ramp, signal, index)
    assert np.array_equal(sums, running)


@pytest.mark.parametrize(
    "kwargs",
    [
        # tiny gamma: p underflows to about 1e-27, so no flips
        dict(gamma=1e-20, shift=TWO_PI * 1e6, duration=20e-6, n_trajectories=5),
        # p = 1/2 through a sample_rate override: gamma*dt = 1e6
        dict(gamma=1e9, shift=TWO_PI * 100.0, duration=0.1, n_trajectories=50,
             sample_rate=1e3),
        dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=100e-6,
             n_trajectories=1),
        # odd n = 41
        dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
             n_trajectories=30, sample_rate=41e6),
        # n = 41: four chunks of 12197, 12197, 12197 and 12196 trajectories
        dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
             n_trajectories=48_787, sample_rate=41e6),
        # n = 41: four full chunks of 2_000_000 // 41 = 48780 trajectories
        # and a remainder of 7
        dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
             n_trajectories=195_127, sample_rate=41e6),
    ],
)
def test_telegraph_extremes_are_finite_and_normalised(kwargs):
    spectrum = relaxation_telegraph_spectrum(**kwargs, seed=6)
    assert np.all(np.isfinite(spectrum.power)) and np.all(spectrum.power >= 0)
    assert np.sum(spectrum.power) == pytest.approx(1.0, rel=1e-12)
    assert -1e-12 <= spectrum.out_of_band_fraction <= 1.0


def test_telegraph_without_flips_is_a_line_at_the_shift():
    spectrum = relaxation_telegraph_spectrum(1e-20, TWO_PI * 1e6, 20e-6, 5, seed=2)
    # 16 MS/s over 20 us: shift is bin 20 of n = 320
    assert spectrum.frequencies[20] == 1e6
    assert spectrum.power[20] == pytest.approx(1.0, abs=1e-12)
    # the Carson half-width is the shift, so the line is on the band edge,
    # bin n/16, and in the band
    assert spectrum.out_of_band_fraction == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        # n = 41 (odd, from the sample_rate override): four chunks of 25000
        # trajectories, each from its own stream.
        dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
             n_trajectories=100_000, seed=3, sample_rate=41e6),
        dict(gamma=TWO_PI * 0.3e6, shift=0.0, duration=20e-6, n_trajectories=300, seed=4),
        dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=20e-6,
             n_trajectories=500, seed=5),
        # p = 1/2 and p ~ 1e-27
        dict(gamma=1e9, shift=TWO_PI * 100.0, duration=0.1, n_trajectories=50,
             seed=6, sample_rate=1e3),
        dict(gamma=1e-20, shift=TWO_PI * 1e6, duration=20e-6, n_trajectories=3, seed=7),
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
        dict(sample_rate=0.0),
        dict(sample_rate=-1e9),
        # a bool is an Integral, but not a trajectory count
        dict(n_trajectories=True),
    ],
)
def test_telegraph_rejects_bad_input(bad):
    kwargs = dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 1e6, duration=20e-6,
                  n_trajectories=10, seed=1)
    with pytest.raises(ConfigError) as info:
        relaxation_telegraph_spectrum(**{**kwargs, **bad})
    if set(bad) == {"sample_rate"}:
        assert "sample_rate" in str(info.value)


@pytest.mark.parametrize(
    "kwargs",
    [
        # n = 41: four chunks of 25000 trajectories
        dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
             n_trajectories=100_000, seed=3, sample_rate=41e6),
        # fewer trajectories than lanes: chunks of one row
        dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=20e-6,
             n_trajectories=1, seed=4),
        dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=20e-6,
             n_trajectories=2, seed=4),
        # n = 864: chunks of 122, 122, 122 and 121 rows, run in blocks of
        # 121, 60 or 39 rows on 1, 2 or 3 lanes, some of them partly full
        dict(gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=20e-6,
             n_trajectories=487, seed=5),
    ],
)
def test_telegraph_is_the_same_for_every_lane_count(kwargs, monkeypatch):
    block = fdmsim.dynamics._telegraph_block
    threads = set()

    def recording_block(*args):
        # By name, as lanes.run names its threads.
        threads.add(threading.current_thread().name)
        return block(*args)

    monkeypatch.setattr(fdmsim.dynamics, "_telegraph_block", recording_block)
    results = {}
    # Switch threads often, so that a lane writing a buffer still in use
    # would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for lanes in (1, 2, 3):
            monkeypatch.setattr(fdmsim.dynamics, "_lane_count", lambda lanes=lanes: lanes)
            threads.clear()
            results[lanes] = relaxation_telegraph_spectrum(**kwargs)
            # lane 0 runs on the calling thread, more lanes on other threads
            used = min(lanes, kwargs["n_trajectories"])
            caller = threading.current_thread().name
            assert caller in threads
            assert (threads == {caller}) == (used == 1)
            assert len(threads) <= used
    finally:
        sys.setswitchinterval(interval)
    for lanes in (2, 3):
        assert np.array_equal(results[lanes].power, results[1].power)
        assert results[lanes].out_of_band_fraction == results[1].out_of_band_fraction

