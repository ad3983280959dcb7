"""Two-level dynamics in the drive rotating frame.

Bloch equations with drive along x, detuning delta and rates in rad/s:

    dx/dt = -delta * y - G2 * x
    dy/dt = +delta * x - W * z - G2 * y
    dz/dt = +W * y - gamma * (z + 1)

where W = 2*pi * rabi_rate_per_unit_amplitude * amplitude,
G2 = gamma/2 + gamma_phi, and relaxation drives z toward -1 (ground).
From the ground state on resonance this gives the excited population
P_e(t) = sin^2(pi * f_rabi * t).

Under a constant drive the equations are linear and affine in (x, y, z),
so on the homogeneous vector (x, y, z, 1) they read dr/dt = A r and the
exact solution is r(t) = exp(A t) r(0) (Torrey, Phys. Rev. 76, 1059,
1949).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_finite, _check_non_negative, _check_positive
from .lanes import MAX_LANES, lane_count as _lane_count, run as _run_lanes
from .planner import carson_bandwidth
from .seeding import _child_states, _set_state

# Most samples in one chunk of telegraph trajectories: chunk c of a
# spectrum draws its flips in one call from its own stream,
# derive_rng(child_seed(seed, c)), so this and the trajectory count fix
# which stream each trajectory comes from.  Also the ceiling on the
# length of a single trajectory.
TELEGRAPH_CHUNK_SAMPLES = 2_000_000
# Samples per block of the walk, carrier gather, FFT and power sum: 30 rows
# at n = 4320, with about 3 MB of buffers, split among the lanes.
_BLOCK_SAMPLES = 1 << 17


@dataclass(frozen=True)
class BlochState:
    """Bloch vector; |r| must be finite and may not exceed 1 (beyond
    numerical slack)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _checked_norm(self.x, self.y, self.z)

    @property
    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    @property
    def excited_population(self) -> float:
        return 0.5 * (1.0 + self.z)


def _checked_norm(x: float, y: float, z: float) -> float:
    """The norm of (x, y, z); ConfigError unless it is finite and <= 1
    (beyond numerical slack)."""
    try:
        norm = math.sqrt(x**2 + y**2 + z**2)
    except OverflowError:  # a float's ** raises where * gives inf
        norm = math.inf
    if not norm <= 1 + 1e-9:
        raise ConfigError(f"Bloch vector norm {norm} must be finite and <= 1")
    return norm


GROUND = BlochState(0.0, 0.0, -1.0)


@dataclass(frozen=True)
class DriveSpec:
    """Resonant-frame drive: rabi_rate_per_unit_amplitude (Hz per unit
    drive amplitude), amplitude (dimensionless), detuning (Hz, drive
    minus qubit)."""

    rabi_rate_per_unit_amplitude: float
    amplitude: float
    detuning: float = 0.0

    def __post_init__(self):
        _check_non_negative(rabi_rate_per_unit_amplitude=self.rabi_rate_per_unit_amplitude,
                            amplitude=self.amplitude)
        _check_finite(detuning=self.detuning)


def rabi_frequency(drive: DriveSpec) -> float:
    """Generalized Rabi frequency in Hz: hypot(rate * amplitude, detuning).

    Linear in drive amplitude on resonance.  A frequency beyond the
    float range raises ConfigError.
    """
    frequency = math.hypot(drive.rabi_rate_per_unit_amplitude * drive.amplitude, drive.detuning)
    _check_finite(rabi_frequency=frequency)
    return frequency


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring, for one square matrix or a stack
    of them, (..., n, n).

    Each matrix is scaled by 2**-s to a 1-norm <= 0.25, where the
    degree-12 Taylor series is truncated after terms below 0.25**13 / 13!
    ~ 2e-18, and the result is squared s times.  The matrices that share
    a squaring count s run as one stack through the same products, which
    equal the products of each matrix alone: every matrix of a stack gets
    the bits it would get by itself (Moler and Van Loan, SIAM Rev. 45, 3,
    2003, on scaling and squaring).  A result that is not finite raises
    ConfigError.
    """
    stack = m.reshape(-1, *m.shape[-2:])
    # Squaring counts matrix by matrix and groups as index lists: np.frexp
    # over the stack and boolean-mask groups raised a noisy Rabi run's
    # peak RSS by about 0.1 MB, numpy's cost of their first use.
    groups: dict[int, list[int]] = {}
    for i, matrix in enumerate(stack):
        s = max(0, math.frexp(float(np.abs(matrix).sum(axis=0).max()) / 0.25)[1])
        groups.setdefault(s, []).append(i)
    eye = np.eye(m.shape[-1])
    result = np.empty_like(stack)
    for s, members in groups.items():
        scaled = stack[members] * 2.0**-s
        out = eye
        for k in range(12, 0, -1):
            out = eye + (scaled @ out) / k
        for _ in range(s):
            out = out @ out
        result[members] = out
    if not np.isfinite(result).all():
        raise ConfigError("a propagator overflows the float range: "
                          "the duration is too long for the drive and rates")
    return result.reshape(m.shape)


@dataclass(frozen=True)
class Propagator:
    """The exact map of one constant drive segment: matrix is exp(A *
    duration) on (x, y, z, 1), and lossless says that A has no relaxation
    or dephasing, so that the map is a rotation."""

    matrix: np.ndarray
    lossless: bool

    def apply(self, state: BlochState) -> BlochState:
        return BlochState(*self._step((state.x, state.y, state.z, 1.0), state.norm))

    def _step(self, vector, norm: float) -> tuple[float, float, float]:
        """(x, y, z) after the segment, from vector = (x, y, z, 1) of the
        given norm; unchecked against the Bloch ball."""
        x, y, z, _ = np.matmul(self.matrix, vector).tolist()
        # The exact map is a rotation when lossless and never leaves the
        # Bloch ball otherwise, but the squarings in _expm let the norm
        # drift by about eps * 2**s (4e-9 after 0.1 s at 50 MHz): put it back.
        new_norm = math.sqrt(x**2 + y**2 + z**2)
        target = norm if self.lossless else min(new_norm, 1.0)
        if new_norm > 0 and new_norm != target:
            scale = target / new_norm
            x, y, z = x * scale, y * scale, z * scale
        return x, y, z


def propagator(
    drive: DriveSpec, gamma: float, gamma_phi: float, duration: float
) -> Propagator:
    """exp(A * duration) for the Bloch generator A of a constant drive.

    gamma: energy relaxation rate (rad/s); gamma_phi: pure dephasing
    (rad/s).  One propagator serves every segment of the same drive,
    rates and duration.
    """
    return _propagators(drive, gamma, gamma_phi, [duration])[0]


def _propagators(
    drive: DriveSpec, gamma: float, gamma_phi: float, durations: list[float]
) -> list[Propagator]:
    """propagator(drive, gamma, gamma_phi, d) for each d of durations, bit
    for bit, from one _expm call over the stack of generators A * d.

    A duration so long that A * d or the squarings of _expm overflow
    raises ConfigError there; numpy's overflow warnings on the way are
    silenced, since that error names the cause."""
    _check_non_negative(gamma=gamma, gamma_phi=gamma_phi)
    for duration in durations:
        _check_non_negative(duration=duration)
    w = 2 * math.pi * drive.rabi_rate_per_unit_amplitude * drive.amplitude
    delta = 2 * math.pi * drive.detuning
    g2 = gamma / 2.0 + gamma_phi
    generator = np.array([
        [-g2, -delta, 0.0, 0.0],
        [delta, -g2, -w, 0.0],
        [0.0, w, -gamma, -gamma],
        [0.0, 0.0, 0.0, 0.0],
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = _expm(generator * np.array(durations, dtype=float)[:, None, None])
    matrices.flags.writeable = False
    lossless = gamma == 0 and gamma_phi == 0
    return [Propagator(matrix, lossless) for matrix in matrices]


def evolve_for(
    state: BlochState,
    drive: DriveSpec,
    gamma: float,
    gamma_phi: float,
    duration: float,
) -> BlochState:
    """Exact evolution for duration seconds under a constant drive.

    gamma: energy relaxation rate (rad/s); gamma_phi: pure dephasing
    (rad/s).  Applies exp(A * duration) once to (x, y, z, 1), where A is
    the Bloch generator, so no step size is involved.  Without
    relaxation and dephasing the result keeps the norm of the input
    state, however long the segment.
    """
    return propagator(drive, gamma, gamma_phi, duration).apply(state)


def _ground_trajectory(
    drive: DriveSpec, gamma: float, gamma_phi: float, times: list[float]
) -> list[float]:
    """Bloch z at each of the increasing times >= 0, from the ground state
    at t = 0.

    Equal to chaining Propagator.apply from GROUND over the steps between
    the times, bit for bit, but with no BlochState per step: each step
    reads a preallocated (x, y, z, 1) vector.  One propagator is built
    per distinct step length, all of them in one _propagators call, and
    reused for every step of that length.
    """
    steps = [t - prev for t, prev in zip(times, [0.0, *times])]
    distinct = list(dict.fromkeys(steps))
    props = dict(zip(distinct, _propagators(drive, gamma, gamma_phi, distinct)))
    vector = np.array([GROUND.x, GROUND.y, GROUND.z, 1.0])
    norm = GROUND.norm
    z_at = []
    for step in steps:
        x, y, z = props[step]._step(vector, norm)
        norm = _checked_norm(x, y, z)
        vector[0] = x
        vector[1] = y
        vector[2] = z
        z_at.append(z)
    return z_at


def evolve(
    state: BlochState,
    drive: DriveSpec,
    gamma: float,
    gamma_phi: float,
    dt: float,
) -> BlochState:
    """One step of length dt > 0 seconds; the same exact propagator as
    evolve_for."""
    _check_positive(dt=dt)
    return evolve_for(state, drive, gamma, gamma_phi, dt)


def steady_state_excited(drive: DriveSpec, gamma: float, gamma_phi: float) -> float:
    """Steady-state excited population under continuous drive.

    Saturation solution of the Bloch equations:

        P_e = (s/2) / (1 + (delta/G2)^2 + s),   s = W^2 / (gamma * G2)

    with W the resonant Rabi rate and G2 = gamma/2 + gamma_phi.  Requires
    gamma > 0 (without relaxation there is no steady state).  Rates and a
    drive so far apart that the formula overflows or divides by an
    underflowed zero raise ConfigError.
    """
    _check_positive(gamma=gamma)
    _check_non_negative(gamma_phi=gamma_phi)
    g2 = gamma / 2.0 + gamma_phi
    omega = 2 * math.pi * drive.rabi_rate_per_unit_amplitude * drive.amplitude
    delta = 2 * math.pi * drive.detuning
    try:
        s = omega * omega / (gamma * g2)
        excited = 0.5 * s / (1.0 + (delta / g2) ** 2 + s)
    except (OverflowError, ZeroDivisionError):
        excited = math.nan
    if not math.isfinite(excited):
        raise ConfigError(
            f"the steady state of {drive} at gamma {gamma:g}, gamma_phi {gamma_phi:g} "
            "is beyond the float range"
        )
    return excited


@dataclass(frozen=True)
class TelegraphSpectrum:
    """Averaged spectrum of a telegraph-modulated carrier.

    frequencies: Hz, one-sided (power at +-f folded together).
    power: normalized to unit total.
    carson_bandwidth: rad/s, full width 2*(shift + 2*gamma).
    out_of_band_fraction: spectral power outside |f| <= carson/2.
    """

    frequencies: np.ndarray
    power: np.ndarray
    carson_bandwidth: float
    out_of_band_fraction: float
    n_trajectories: int


def _telegraph_flips(
    rng: np.random.Generator, p: float, m: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flips of m telegraph trajectories of n samples each.

    Every sample flips the state with probability p, independently, so
    along the m*n samples read row after row the gaps between flips are
    geometric(p).  Returns the flat indices of the flips, increasing, and
    the +-1 state of each row before its first sample.
    """
    total = m * n
    parts = [np.empty(0, dtype=np.int64)]
    last = -1
    while p > 0 and last < total:
        # Enough gaps to pass the end at once but for a 4-sigma shortfall,
        # which another round makes up.
        expected = p * (total - last)
        gaps = rng.geometric(p, size=int(expected + 4 * math.sqrt(expected)) + 8)
        # A gap is near 2**63 for p ~ 1e-300.  One of total + 1 already
        # ends past the last sample, so clip there: the running sum cannot
        # wrap.
        np.minimum(gaps, total + 1, out=gaps)
        positions = np.cumsum(gaps)
        positions += last
        parts.append(positions)
        last = int(positions[-1])
    flips = np.concatenate(parts)
    flips = flips[: np.searchsorted(flips, total)]
    start = rng.choice((-1, 1), size=m)
    return flips, start


def _lay_out_chunk(
    rng: np.random.Generator, p: float, m: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws the flips of m trajectories of n samples and lays them out
    as runs of constant sigma.

    Returns (edges, lengths, starts): lengths and starts are the runs of
    all rows in order, and row r's runs are lengths[edges[r]:edges[r + 1]].
    Sample q of a row (q from 0), in a run with start s, is entry s + q
    of the two-way table concatenate((carrier, carrier[::-1])), where
    carrier[j] is the phase factor of the walk S = j - n.  Every position,
    walk and start lies within m * n + 3n + 2 of 0, far inside int32 for
    m * n up to TELEGRAPH_CHUNK_SAMPLES, so the layout is worked out in
    int32, and each intermediate is let go once it is used.
    """
    flips, start = _telegraph_flips(rng, p, m, n)
    flips, start = flips.astype(np.int32), start.astype(np.int32)
    # After the j-th flip of a row (j from 0) sigma is -start * (-1)**j;
    # for flip i of the chunk, (-1)**j = (-1)**i * (-1)**(flips in the
    # rows before).
    counts = np.bincount(flips // n, minlength=m).astype(np.int32)
    before = np.cumsum(counts, dtype=np.int32) - counts
    # Runs of constant sigma begin at each row start and each flip; a
    # row start goes before a flip on its first sample, leaving a run
    # of length 0.  Row r's runs begin at index edges[r].
    edges = np.append(before, np.int32(flips.size)) + np.arange(m + 1, dtype=np.int32)
    begins = np.insert(flips, before, np.arange(0, m * n, n, dtype=np.int32))
    del flips
    after = np.repeat(start * (2 * (before & 1) - 1), counts)
    after[1::2] *= -1
    levels = np.insert(after, before, start)
    del after, before
    lengths = np.diff(begins, append=np.int32(m * n))
    # Each run's start follows from the walk S over its row before the
    # run and the run's first sample b in the row.  The walk steps by
    # sigma, so sample b + t of a rising run is carrier[n + S + 1 + t],
    # entry (n + S + 1 - b) + (b + t) of the table, and of a falling run
    # carrier[n + S - 1 - t], entry (3n + 2 - S - b) + (b + t).
    steps = levels * lengths
    starts = np.cumsum(steps, dtype=np.int32)
    starts -= steps
    del steps
    starts -= np.repeat(starts[edges[:-1]], counts + 1)
    starts *= levels
    begins %= n
    starts -= begins
    del begins
    starts += np.where(levels > 0, np.int32(n + 1), np.int32(3 * n + 2))
    return edges, lengths, starts


def _telegraph_block(
    table: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    ramp: np.ndarray,
    signal: np.ndarray,
    index: np.ndarray,
) -> None:
    """Adds the power spectra of k whole rows, given as runs of constant
    sigma, to a running sum.

    starts and lengths are the rows' runs in order, as _lay_out_chunk
    gives them: sample q of a row, in a run with start s, is table[s + q],
    and ramp is the int32 arange(n) of the q.  signal is a complex
    (rows + 1, n) buffer whose row 0, read as 2n floats, is the running
    sum of re^2 and im^2 of each bin, interleaved.  The k rows' carriers
    are gathered into signal[1:k+1] and transformed and squared there,
    then added to row 0 one row at a time, in order, so the sum does not
    depend on how the rows are split into blocks.  index is int64 scratch
    of at least max(k, 2) * n entries.  Every pass over the samples but
    the repeat releases the GIL, so blocks on their own buffers can run
    on separate threads.
    """
    n = ramp.size
    runs = np.repeat(starts, lengths)
    k = runs.size // n
    # Adding in int32 and widening on the way out beats an int64 sum.
    walk = index[:k * n].reshape(k, n)
    np.add(runs.reshape(k, n), ramp, out=walk)
    sig = signal[1:k + 1]
    # mode="clip" gathers straight into sig; "raise" buffers it.
    np.take(table, walk, out=sig, mode="clip")
    np.fft.fft(sig, axis=1, out=sig)
    parts = signal[:k + 1].view(float)
    np.square(parts[1:], out=parts[1:])
    # A sum written onto its own input would copy the input first, so it
    # goes to the index bytes, free once the gather is done.
    total = index[:2 * n].view(float)
    np.add.reduce(parts, axis=0, out=total)
    parts[0] = total


def relaxation_telegraph_spectrum(
    gamma: float,
    shift: float,
    duration: float,
    n_trajectories: int,
    seed: int = 0,
    sample_rate: float | None = None,
) -> TelegraphSpectrum:
    """Monte-Carlo spectrum of a carrier frequency-modulated by qubit jumps.

    The resonator frequency hops by 2*shift (rad/s) whenever the qubit
    state flips.  Flip times are Poisson with rate gamma/2 per trajectory,
    so the state autocorrelation decays at the energy relaxation rate
    gamma; initial states are drawn +-1 with equal probability.  Each
    trajectory contributes |FFT(exp(i*phi(t)))|^2 with
    phi(t) = integral of sigma_z(t') * shift dt'.

    On the sample grid of step dt the state changes between two samples
    when an odd number of Poisson flips falls between them, so each
    sample flips it independently with probability

        p = (1 - exp(-gamma * dt)) / 2.

    The flips of a chunk of trajectories, read row after row, are drawn
    as geometric(p) gaps, about p draws per sample in place of one, and
    sigma_z is laid out run by run between them.  The phase is
    phi_k = S_k * (shift*dt), where S_k, the running sum of sigma_z, is
    an integer in [-n, n], so the carrier takes one of the 2n+1 values
    exp(1j * (j * (shift*dt))), j = -n..n.  These are exact, not an
    approximation: float(S_k) * (shift*dt) is the same IEEE product as
    the float running sum times (shift*dt), so each sample equals the
    per-sample exponential bit for bit.  No running sum is taken over
    the samples: inside a run of constant sigma_z the walk moves by one
    per sample, so the run reads a stretch of the carrier values, forward
    when sigma_z = +1 and backward when it is -1.  The values are kept
    twice, as the two-way table (carrier, carrier reversed), in which
    both directions read forward, and each run needs only its start in
    that table, worked out once per chunk from the runs alone.

    The trajectories are split into chunks of at most
    TELEGRAPH_CHUNK_SAMPLES samples, and into at least lanes.MAX_LANES
    chunks when there are that many trajectories, whatever the lane
    count.  Chunk c draws its flips from its own stream,
    derive_rng(child_seed(seed, c)), the per-unit contract of the noisy
    shots.  The chunks run on up to L lanes in one lanes.run call, chunk
    c on lane c % L: L is lanes.lane_count(), at most the chunk count.  A
    lane sets its one Generator to the chunk's stream, lays out the runs
    and their starts, and takes the table indices, gather, FFT and power
    through blocks of one row fewer than 1/L of a block's rows (at least
    one): the lane's share also holds the chunk's running sum, and the
    buffers together hold one block whatever L is.  The power of a bin is
    |X|^2 = re^2 + im^2, with no hypot: each block squares its FFT output
    in place, read as 2n floats, and adds the rows in order to the
    chunk's running sums of re^2 and of im^2.  That is the chunk's job;
    its finish, which lanes.run runs on the same lane once chunk c - 1
    is finished, adds to the spectrum the chunk's re^2 sums and then its
    im^2 sums, so the result is the same bit for bit for every lane
    count.

    Returns the folded one-sided spectrum and the fraction of power
    outside the Carson band of full width 2*(shift + 2*gamma) centered on
    the carrier.  Non-finite rates or times, a duration or sample_rate
    <= 0, a Carson width beyond the float range, a trajectory count that
    is not an integer >= 1 (a bool is not one) and a trajectory longer
    than TELEGRAPH_CHUNK_SAMPLES samples raise ConfigError.
    """
    _check_positive(gamma=gamma, duration=duration)
    _check_non_negative(shift=shift)
    if sample_rate is not None:
        _check_positive(sample_rate=sample_rate)
    # bool is an Integral; True would run one trajectory.
    if (isinstance(n_trajectories, bool) or not isinstance(n_trajectories, numbers.Integral)
            or n_trajectories < 1):
        raise ConfigError(f"n_trajectories must be an integer >= 1, got {n_trajectories!r}")
    carson = carson_bandwidth(shift, gamma)
    half_width_hz = carson / 2.0 / (2 * math.pi)
    if sample_rate is None:
        sample_rate = 16.0 * max(half_width_hz, 1.0 / duration)
    samples = duration * sample_rate
    if samples > TELEGRAPH_CHUNK_SAMPLES:
        raise ConfigError(
            f"one trajectory needs {samples:.3g} samples, more than the "
            f"{TELEGRAPH_CHUNK_SAMPLES} of one chunk"
        )
    n = int(round(samples))
    if n < 16:
        raise ConfigError("duration too short for the requested resolution")
    dt = 1.0 / sample_rate

    flip_p = -math.expm1(-gamma * dt) / 2.0
    carrier = np.exp(1j * (np.arange(-n, n + 1, dtype=float) * (shift * dt)))
    table = np.concatenate((carrier, carrier[::-1]))
    ramp = np.arange(n, dtype=np.int32)
    chunk = max(1, min(TELEGRAPH_CHUNK_SAMPLES // n, -(-n_trajectories // MAX_LANES)))
    chunks = -(-n_trajectories // chunk)
    states = _child_states(seed, chunks)
    block = max(1, min(chunk, _BLOCK_SAMPLES // n))
    lanes = min(_lane_count(), chunks)
    # A lane's signal holds its share of a block, whose row 0 carries the
    # chunk's running sum, so that one sum over axis 0 adds the
    # trajectories to it one at a time, in order, whatever the block size.
    share = max(2, block // lanes)
    rows = share - 1
    signals = [np.empty((share, n), dtype=complex) for _ in range(lanes)]
    indices = [np.empty(max(rows, 2) * n, dtype=np.int64) for _ in range(lanes)]
    generators = [np.random.Generator(np.random.PCG64(0)) for _ in range(lanes)]
    psd = np.zeros(n)

    def run_chunk(lane: int, c: int) -> None:
        signal, generator = signals[lane], generators[lane]
        _set_state(generator, states[c])
        m = min(chunk, n_trajectories - c * chunk)
        edges, lengths, starts = _lay_out_chunk(generator, flip_p, m, n)
        signal[0] = 0.0
        for b in range(0, m, rows):
            runs = slice(edges[b], edges[min(b + rows, m)])
            _telegraph_block(table, starts[runs], lengths[runs], ramp, signal, indices[lane])

    def add_chunk(c: int) -> None:
        sums = signals[c % lanes][0].view(float)
        np.add(psd, sums[0::2], out=psd)
        np.add(psd, sums[1::2], out=psd)

    _run_lanes(run_chunk, add_chunk, chunks, lanes)
    psd /= psd.sum()

    # Bin j lies min(j, n - j) * sample_rate / n from the carrier.  The
    # products compare without fftfreq's rounded quotient, which put a
    # band edge on a bin (bin n/16 of the default grid) in or out by its
    # last bit.
    bins = np.arange(n)
    in_band = np.minimum(bins, n - bins) * sample_rate <= half_width_hz * n
    out_fraction = float(1.0 - psd[in_band].sum())

    # Fold bin -j onto bin +j (bin n/2 of an even-length FFT is its own mirror).
    half = n // 2
    f_one = np.arange(half + 1) * (sample_rate / n)
    p_one = np.zeros(half + 1)
    p_one[0] = psd[0]
    j = np.arange(1, half + 1)
    mirror = n - j
    p_one[1:] = psd[j] + psd[mirror] * (mirror != j)
    return TelegraphSpectrum(
        frequencies=f_one,
        power=p_one,
        carson_bandwidth=carson,
        out_of_band_fraction=out_fraction,
        n_trajectories=n_trajectories,
    )
