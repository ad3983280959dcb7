"""Canned experiments: flux sweeps, spectroscopy, Rabi readout.

Each experiment returns a SweepResult, a small table container with one
independent axis, named per-device (or composite) columns, and metadata
that rides along into the CSV/JSON writers of traceio.  Output files
are deterministic: same chip, same seed, byte-identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .device import Chip, QubitStateLabel, _dressed_resonances, s21_feedline
from .dynamics import DriveSpec, _ground_trajectory, evolve_for, rabi_frequency
from .errors import ConfigError
from .planner import _grid_offset
from .rxchain import (
    AdcSpec,
    ReadoutSetup,
    ToneMeasurement,
    _acquire,
    _acquisition_grid,
    _check_noise,
    _default_lo,
    add_awgn,
    adc_quantize,
    apply_feedline,
    channelize,
    downconvert,
)
from .seeding import _child_states, child_seed
from .traceio import SweepResult, write_sweep_csv
from .txchain import synthesize_multitone, upconvert_ssb

# evolve_for, add_awgn, adc_quantize, apply_feedline, channelize,
# downconvert, child_seed, synthesize_multitone and upconvert_ssb are not
# called in this module.  They stay bound here because perfbench/tracer.py
# wraps each stage by its attribute in this namespace.  The same holds
# for write_sweep_csv, which lives in traceio: the tracer wraps
# experiments.write_sweep_csv, and the perfbench workloads call it there.
# They also name experiments.ReadoutSetup, so it must stay bound here too.


# ---------------------------------------------------------------------------
# multiplexed acquisition


def make_readout_setup(
    chip: Chip,
    device_ids: Sequence[int] | None = None,
    *,
    lo_frequency: float | None = None,
    sample_rate: float = 1e9,
    n_samples: int = 4000,
    amplitude: float = 0.1,
    window: str = "rectangular",
) -> ReadoutSetup:
    """Probe tones at each device's ground-state dressed resonance.

    Each qubit is taken at its own symmetry flux.  The default LO is the
    mean channel frequency snapped to the DFT grid; channels are then
    snapped to LO + k * grid (a shift of at most half a bin, well inside
    any practical linewidth).  Raises ConfigError where ReadoutSetup
    does, e.g. when two devices snap to the same bin.
    """
    if device_ids is None:
        device_ids = chip.device_ids
    device_ids = tuple(int(d) for d in device_ids)
    if not device_ids:
        raise ConfigError("need at least one device to read out")
    targets = _dressed_resonances(chip, device_ids, QubitStateLabel.GROUND)
    grid = _acquisition_grid(sample_rate, n_samples)
    if lo_frequency is None:
        lo_frequency = _default_lo(targets, grid)
    baseband = tuple(_grid_offset(f, lo_frequency, grid) for f in targets)
    return ReadoutSetup(
        device_ids=device_ids,
        lo_frequency=float(lo_frequency),
        baseband_frequencies=baseband,
        sample_rate=sample_rate,
        n_samples=n_samples,
        amplitude=amplitude,
        window=window,
    )


def acquire(
    chip: Chip,
    setup: ReadoutSetup,
    states: Sequence[float],
    fluxes,
    *,
    adc: AdcSpec | None = None,
    noise_std: float = 0.0,
    seed: int = 0,
) -> list[ToneMeasurement]:
    """One multiplexed shot, one ToneMeasurement per channel.

    states and fluxes describe every device on the chip (chip order);
    fluxes may be a scalar.  Without noise and ADC the shot is computed
    in closed form, amplitude * S21(channel frequency), and noise_std is
    reported as exactly 0.0.  Otherwise the received trace is built from
    that closed form, gets its noise or ADC and is channelized, with
    noise from the stream child_seed(seed, 0): the same draw as point 0
    of a sweep run with this seed.  noise_std is channelize's off-channel
    estimate of that trace.  A negative or non-finite noise_std, or a
    seed that is not an integer in [0, 2**128), raises ConfigError,
    noise or not.
    """
    _check_noise(noise_std, seed)
    iq, noise = _acquire(
        chip, setup, [states], [fluxes], adc=adc, noise_std=noise_std,
        streams=_child_states(seed, 1) if noise_std > 0 else None, estimate_noise=True,
    )
    return [
        ToneMeasurement(
            channel_frequency=f,
            amplitude=float(a),
            phase=float(p),
            noise_std=float(noise[0]),
        )
        for f, a, p in zip(setup.baseband_frequencies, np.abs(iq[0]), np.angle(iq[0]))
    ]


def _axis(values, name: str) -> np.ndarray:
    """values as a float array; ConfigError unless it is 1-d and non-empty."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ConfigError(f"{name} must be a non-empty 1-d array")
    return values


def _sweep_result(kind: str, chip: Chip, axis_name: str, axis_values, tables, keys: dict, *,
                  device_ids=(), setup: ReadoutSetup | None = None,
                  adc: AdcSpec | None = None, config_hash: str | None = None) -> SweepResult:
    """A driver's SweepResult, with the metadata every driver writes: chip,
    the driver's own keys and config_hash when given.  setup is given
    when a readout ran: its LO, rate, sample count, probe amplitude and
    window are recorded, and the ADC's bits, full scale and analog band.
    The kind and the device ids (columns dev<id>; without ids one
    composite feedline column) are the result's fields.
    """
    metadata = {"chip": chip.name, **keys}
    if setup is not None:
        metadata.update(lo_frequency_hz=setup.lo_frequency, sample_rate_hz=setup.sample_rate,
                        n_samples=setup.n_samples, probe_amplitude=setup.amplitude,
                        window=setup.window)
        if adc is not None:
            metadata.update(adc_bits=adc.bits, adc_full_scale=adc.full_scale)
            if adc.analog_bandwidth is not None:
                metadata["adc_analog_bandwidth_hz"] = adc.analog_bandwidth
    if config_hash is not None:
        metadata["config_hash"] = config_hash
    return SweepResult(kind, axis_name, axis_values, tables, device_ids, metadata)


# ---------------------------------------------------------------------------
# flux sweep


def run_flux_sweep(
    chip: Chip,
    flux_values,
    *,
    setup: ReadoutSetup | None = None,
    states: Sequence[float] | None = None,
    adc: AdcSpec | None = None,
    noise_std: float = 0.0,
    seed: int = 0,
    config_hash: str | None = None,
) -> SweepResult:
    """Sweep a common applied flux and record every channel's response.

    setup chooses the channels (default: make_readout_setup(chip), every
    device of the chip).  The probe comb stays fixed at the
    symmetry-point channels while the sweep moves each qubit through its
    resonator crossing, where the level repulsion throws the notch off
    the probe and the channel amplitude rises toward unity.  S21 is
    evaluated once for the whole sweep.  Without noise and ADC every
    point is computed in closed form, amplitude * S21(channel
    frequency), and no seed is drawn.  Otherwise each point's received
    trace is built from that closed form and draws its noise from the
    independent child stream child_seed(seed, i).  A negative or
    non-finite noise_std, or a seed that is not an integer in
    [0, 2**128), raises ConfigError, noise or not.
    """
    _check_noise(noise_std, seed)
    flux_values = _axis(flux_values, "flux_values")
    if setup is None:
        setup = make_readout_setup(chip)
    if states is None:
        states = [float(QubitStateLabel.GROUND)] * len(chip.devices)
    states = np.asarray(states, dtype=float)
    iq, _ = _acquire(
        chip, setup, np.broadcast_to(states, flux_values.shape + states.shape), flux_values,
        adc=adc, noise_std=noise_std,
        streams=_child_states(seed, flux_values.size) if noise_std > 0 else None,
    )
    return _sweep_result(
        "flux_sweep", chip, "flux_phi0", flux_values,
        {"amplitude": np.abs(iq), "phase": np.angle(iq)},
        {"seed": seed, "noise_std": noise_std},
        device_ids=setup.device_ids, setup=setup, adc=adc, config_hash=config_hash,
    )


def detect_flux_features(
    result: SweepResult,
    *,
    table: str = "amplitude",
    prominence: float = 0.3,
) -> dict[int, np.ndarray]:
    """Flux values where each channel's response peaks.

    Peaks in channel amplitude mark qubit-resonator crossings (the notch
    is repelled off the probe, lifting the channel toward full
    transmission).  prominence is a fraction of each column's full range,
    so detection is independent of probe drive units.  Flat-topped peaks
    report their midpoints.  Returns {device_id: sorted flux values}.
    A NaN or infinite entry in the table raises ConfigError.
    """
    if table not in result.tables:
        raise ConfigError(f"result has no table {table!r}")
    if not result.device_ids:
        raise ConfigError("result carries no device ids")
    if not 0 < prominence < 1:
        raise ConfigError(f"prominence must lie in (0, 1), got {prominence}")
    rows = np.ascontiguousarray(result.tables[table].T)  # one row per column
    lo, hi = rows.min(axis=1), rows.max(axis=1)  # NaN or inf if any entry is
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ConfigError(f"table {table!r} holds NaN or infinite values")
    peaks = _find_peaks(rows, prominence * (hi - lo))
    return {dev_id: result.axis_values[p] for dev_id, p in zip(result.device_ids, peaks)}


def _find_peaks(rows: np.ndarray, prominence: np.ndarray) -> list[np.ndarray]:
    """Indices of the peaks of each row of a finite (m, n) array whose
    prominence is at least prominence[j] (sorted, one array per row).

    A peak is a local maximum of the row with runs of equal samples
    merged; a flat peak reports its midpoint (left + right) // 2, and a
    run touching either end of the row is not a peak.  Its prominence
    is its height minus the higher of its two bases, each base the
    lowest sample between the peak and the nearest strictly higher
    sample on that side (or that end of the row).  These are the
    definitions of scipy.signal.find_peaks(row, prominence=p), which
    the tests hold this function to index for index.

    The rows are laid end to end with a +inf sample before, between
    and after them, so that no search crosses a row edge.  After
    merging runs, the samples turn alternately at tops (the +inf
    separators among them) and bottoms.  The nearest strictly higher top
    on each side of every peak is found for all peaks at once by binary
    lifting over block maxima of the tops, and each base is the lowest
    bottom in between.
    """
    m, n = rows.shape
    stride = n + 1
    z = np.full(m * stride + 1, np.inf)
    z[:-1].reshape(m, stride)[:, 1:] = rows
    starts = (z[1:] != z[:-1]).nonzero()[0] + 1  # run r is z[starts[r-1]:starts[r]]
    v = z[np.concatenate(([0], starts))]
    rising = v[1:] > v[:-1]
    turn = (rising[:-1] != rising[1:]).nonzero()[0] + 1
    tops = np.concatenate(([0], turn[1::2], [v.size - 1]))
    h = v[tops]
    low = np.append(v[turn[::2]], np.inf)  # low[i] lies between tops i and i + 1
    q = (h[1:-1] < np.inf).nonzero()[0] + 1  # the finite tops: the peaks
    nq = q.size
    # table[k][i] = max(g[i : i + 2**k]).  A search to the left is a
    # search to the right in the reversed copy; the +inf tail keeps every
    # block inside the tables.
    levels = max(int(h.size - 1).bit_length(), 1)
    g = np.concatenate((h, h[::-1], np.full(1 << (levels - 1), np.inf)))
    table = [g]
    for k in range(levels - 1):
        table.append(np.maximum(table[-1][:-(1 << k)], table[-1][1 << k:]))
    last = 2 * h.size - 1
    b = np.concatenate((q + 1, last + 1 - q))
    hq = h[q]
    hh = np.concatenate((hq, hq))
    for k in range(levels - 1, -1, -1):
        np.add(b, 1 << k, out=b, where=table[k][b] <= hh)
    # b[:nq] and last - b[nq:] are the nearest higher tops, right and left
    edges = np.empty(4 * nq, dtype=np.intp)
    edges[0::4] = last - b[nq:]
    edges[1::4] = edges[2::4] = q
    edges[3::4] = b[:nq]
    base = np.minimum.reduceat(low, edges)
    with np.errstate(over="ignore"):  # e.g. 1e308 over -1e308: inf, as it should
        prom = hq - np.maximum(base[0::4], base[2::4])
    run = tops[q]
    mid = (starts[run - 1] + starts[run] - 1) // 2
    col = mid // stride
    keep = prom >= np.asarray(prominence, dtype=float)[col]
    index, col = mid[keep] - col[keep] * stride - 1, col[keep]
    bounds = np.searchsorted(col, np.arange(m + 1)).tolist()
    return [index[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# spectroscopy


def run_spectroscopy(
    chip: Chip,
    probe_frequencies,
    *,
    states: Sequence[float] | None = None,
    fluxes=None,
    config_hash: str | None = None,
) -> SweepResult:
    """Feedline transmission versus probe frequency, evaluated directly.

    No SDR chain: each grid point is the closed-form composite S21 for
    the frozen states and fluxes (defaults: all ground, each qubit at its
    own symmetry flux).
    """
    probe_frequencies = _axis(probe_frequencies, "probe_frequencies")
    if states is None:
        states = [float(QubitStateLabel.GROUND)] * len(chip.devices)
    if fluxes is None:
        fluxes = chip._axis.symmetry_flux
    with np.errstate(over="ignore"):  # s21_feedline refuses an infinite probe
        s21 = s21_feedline(chip, 2 * np.pi * probe_frequencies, states, fluxes)
    return _sweep_result(
        "spectroscopy", chip, "probe_hz", probe_frequencies,
        {"s21_amplitude": np.abs(s21)[:, None], "s21_phase": np.angle(s21)[:, None]},
        {"states": " ".join(repr(float(s)) for s in states)},
        config_hash=config_hash,
    )


# ---------------------------------------------------------------------------
# Rabi


def run_rabi(
    chip: Chip,
    durations,
    *,
    rabi_rate_per_unit_amplitude: float = 5e6,
    amplitude_scales: Sequence[float] | None = None,
    detuning: float = 0.0,
    gamma: float | None = None,
    gamma_phi: float = 0.0,
    readout: bool = True,
    setup: ReadoutSetup | None = None,
    adc: AdcSpec | None = None,
    noise_std: float = 0.0,
    seed: int = 0,
    config_hash: str | None = None,
) -> SweepResult:
    """Drive each qubit for a grid of durations and read the result out.

    setup chooses the devices and their readout channels (default:
    make_readout_setup(chip), every device of the chip).  Every selected
    device starts in the ground state and is driven resonantly (or at
    the given detuning, Hz) with its own drive amplitude
    amplitude_scales[j]; the Rabi rate is rabi_rate_per_unit_amplitude *
    scale, in Hz per unit amplitude.
    Populations come from the exact Bloch propagator applied
    incrementally from one duration to the next, so durations must be
    non-negative and strictly increasing.  Devices with the same drive
    and gamma share one trajectory, computed once.  One propagator is
    built per trajectory and distinct step length (a uniform grid has
    one or a few such lengths) and reused for every step of that length.

    gamma overrides every device's relaxation rate (rad/s) when given;
    gamma=0 yields the ideal P_e = sin^2(pi * f_rabi * t).

    With readout=True each duration is read out through the multiplexed
    acquisition core, with the feedline evaluated at the instantaneous
    Bloch z of each qubit (the resonator adiabatically tracks the mean
    qubit polarization, valid for shifts well inside the linewidth).
    Unselected chip devices stay in the ground state.  Without noise and
    ADC each readout is computed in closed form, amplitude * S21(channel
    frequency), and no seed is drawn; otherwise each duration's received
    trace is built from that closed form and gets its noise from
    child_seed(seed, i).  A negative or non-finite noise_std, or a seed
    that is not an integer in [0, 2**128), raises ConfigError before any
    work, with or without readout.
    """
    _check_noise(noise_std, seed)
    durations = _axis(durations, "durations")
    if durations[0] < 0 or np.any(np.diff(durations) <= 0):
        raise ConfigError("durations must be non-negative and strictly increasing")
    if setup is None:
        setup = make_readout_setup(chip)
    ids = setup.device_ids
    if amplitude_scales is None:
        amplitude_scales = [1.0] * len(ids)
    if len(amplitude_scales) != len(ids):
        raise ConfigError(
            f"got {len(amplitude_scales)} amplitude scales for {len(ids)} devices"
        )

    z = np.empty((durations.size, len(ids)))
    rabi_hz = []
    # The column of the first device with each (drive, gamma).
    trajectories: dict[tuple[DriveSpec, float], int] = {}
    for j, dev_id in enumerate(ids):
        dev = chip.device(dev_id)
        g = dev.qubit.relaxation_rate_gamma if gamma is None else float(gamma)
        drive = DriveSpec(
            rabi_rate_per_unit_amplitude=rabi_rate_per_unit_amplitude,
            amplitude=float(amplitude_scales[j]),
            detuning=detuning,
        )
        rabi_hz.append(rabi_frequency(drive))
        if (drive, g) in trajectories:
            z[:, j] = z[:, trajectories[drive, g]]
            continue
        trajectories[drive, g] = j
        z[:, j] = _ground_trajectory(drive, g, gamma_phi, durations.tolist())

    tables = {"excited_population": (z + 1.0) / 2.0}
    if readout:
        states = np.full((durations.size, len(chip.devices)), float(QubitStateLabel.GROUND))
        for j, dev_id in enumerate(ids):
            states[:, chip._index(dev_id)] = z[:, j]
        iq, _ = _acquire(
            chip, setup, states, np.broadcast_to(chip._axis.symmetry_flux, states.shape),
            adc=adc, noise_std=noise_std,
            streams=_child_states(seed, durations.size) if noise_std > 0 else None,
        )
        tables["iq_amplitude"] = np.abs(iq)
        tables["iq_phase"] = np.angle(iq)

    keys = {
        "seed": seed,
        "noise_std": noise_std,
        "rabi_rate_per_unit_amplitude_hz": rabi_rate_per_unit_amplitude,
        "amplitude_scales": " ".join(repr(float(a)) for a in amplitude_scales),
        "detuning_hz": detuning,
        "rabi_frequencies_hz": " ".join(repr(float(f)) for f in rabi_hz),
        "readout": int(readout),
    }
    return _sweep_result("rabi", chip, "duration_s", durations, tables, keys, device_ids=ids,
                         setup=setup if readout else None, adc=adc, config_hash=config_hash)


# ---------------------------------------------------------------------------
# damped-sinusoid fitting


@dataclass(frozen=True)
class DampedSinusoidFit:
    """y(t) = offset + amplitude * exp(-decay_rate t) * cos(2 pi frequency t + phase)"""

    frequency: float
    decay_rate: float
    amplitude: float
    phase: float
    offset: float
    r_squared: float
    valid: bool

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.offset + self.amplitude * np.exp(-self.decay_rate * t) * np.cos(
            2 * np.pi * self.frequency * t + self.phase
        )


def _sinusoid_model(t, amplitude, decay_rate, frequency, phase, offset):
    return _sinusoid_terms(t, amplitude, decay_rate, frequency, phase, offset)[0]


def _sinusoid_terms(t, amplitude, decay_rate, frequency, phase, offset):
    """_sinusoid_model at t, with the envelope exp(-decay_rate t), the
    angle 2 pi frequency t + phase and its cosine it was built from."""
    envelope = np.exp(-decay_rate * t)
    angle = 2 * np.pi * frequency * t + phase
    cosine = np.cos(angle)
    return offset + amplitude * envelope * cosine, envelope, angle, cosine


def _sinusoid_jacobian(t, amplitude, envelope, angle, cosine):
    """(n, 5) derivatives of _sinusoid_model by its five parameters, from
    the terms _sinusoid_terms returned for them."""
    c = envelope * cosine
    s = amplitude * envelope * np.sin(angle)
    return np.stack(
        [c, -amplitude * t * c, -2 * np.pi * t * s, -s, np.ones_like(t)], axis=1
    )


# The bounded Levenberg-Marquardt fit stops when its step moves the model
# by at most FIT_XTOL of the data's spread about its mean; a fit that has
# not stopped after FIT_MAX_ITER iterations is not valid.
FIT_XTOL = 1e-10
FIT_MAX_ITER = 200


def _levenberg_marquardt(t, y, p0, lower, upper) -> tuple[np.ndarray, bool]:
    """Bounded Levenberg-Marquardt fit of _sinusoid_model from p0.

    Each step solves (A + lam I) d = -g in column-normalized coordinates
    (A and g from the analytic Jacobian) and is clipped to the bounds
    box.  A step that lowers the cost is taken and lam falls tenfold;
    otherwise lam rises tenfold and the step is solved again.  The fit
    has converged when the step, taken or not, moves the model by at most
    FIT_XTOL of the data's spread: at a minimum, only steps below
    rounding are left.  Returns (p0, False) when the cost is not finite,
    when no step lowers the cost before lam overflows, or after
    FIT_MAX_ITER iterations without convergence.
    """
    spread = float(np.linalg.norm(y - y.mean()))
    tol = FIT_XTOL * max(spread, np.finfo(float).eps * float(np.linalg.norm(y)),
                         np.finfo(float).tiny)
    p = p0
    model, *terms = _sinusoid_terms(t, *p)
    r = model - y
    cost = float(r @ r)
    if not np.isfinite(cost):
        return p0, False
    lam = 1e-3
    for _ in range(FIT_MAX_ITER):
        jac = _sinusoid_jacobian(t, p[0], *terms)
        norms = np.sqrt(np.einsum("ij,ij->j", jac, jac))
        norms[norms == 0] = 1.0
        jac /= norms
        a = jac.T @ jac
        grad = jac.T @ r
        while True:
            if lam > 1e30:
                return p0, False
            step = np.linalg.solve(a + lam * np.eye(5), -grad) / norms
            trial = np.clip(p + step, lower, upper)
            if np.linalg.norm((trial - p) * norms) <= tol:
                return p, True
            model, *trial_terms = _sinusoid_terms(t, *trial)
            r_trial = model - y
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                break
            lam *= 10.0
        p, r, cost, terms = trial, r_trial, cost_trial, trial_terms
        lam = max(lam / 10.0, 1e-12)
    return p0, False


def _seed_parameters(t: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """The fit's start (amplitude, decay_rate, frequency, phase, offset):
    the largest non-DC DFT bin of the trace, a decay from the rms of its
    two halves, and its mean."""
    n = t.size
    offset0 = float(y.mean())
    resid = y - offset0
    spectrum = np.fft.rfft(resid)
    k = 1 + int(np.argmax(np.abs(spectrum[1:])))
    freq0 = k / (n * step)
    amp0 = 2.0 * abs(spectrum[k]) / n
    phase0 = float(np.angle(spectrum[k]) - 2 * np.pi * freq0 * t[0])
    phase0 = math.remainder(phase0, 2 * math.pi)
    half = n // 2
    rms1 = float(np.sqrt(np.mean(resid[:half] ** 2)))
    rms2 = float(np.sqrt(np.mean(resid[half:] ** 2)))
    span = t[-1] - t[0]
    decay0 = 2.0 / span * math.log(rms1 / rms2) if rms1 > 0 and rms2 > 0 else 0.0
    decay0 = min(max(decay0, 0.0), 10.0 / span)
    return np.array([max(amp0, 1e-12), decay0, freq0, phase0, offset0])


def fit_damped_sinusoid(times, values) -> DampedSinusoidFit:
    """Least-squares damped-cosine fit with a DFT-seeded start.

    The start frequency is the largest non-DC DFT magnitude (first such
    bin on ties, i.e. the lowest frequency).  Requires a uniform time
    grid of at least 8 points and finite values; anything else raises
    ConfigError, as do values so large that n residuals of 8 times the
    largest |value| would overflow the fit's sums of squares, and times
    so large that the Jacobian's sums of squares would overflow for a
    model of 8 times the largest |value| (at least 1e-12, the start
    amplitude's floor): 2 pi max|t| 8 max|value| beyond
    sqrt(float max / n).  The fit
    is a bounded Levenberg-Marquardt iteration with the model's analytic
    Jacobian (see _levenberg_marquardt).  Never raises on fit failure:
    falls back to the seed parameters with valid=False, so batch callers
    can fit many traces and inspect the flags afterwards.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or t.size < 8:
        raise ConfigError("need matching 1-d arrays of at least 8 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ConfigError("times and values must be finite (no NaN or inf)")
    peak = float(np.abs(y).max())
    limit = math.sqrt(np.finfo(float).max / y.size)
    if peak > limit / 8:
        raise ConfigError(f"values reach {peak:.6g} in magnitude, and the fit's sums of "
                          f"squares over {y.size} samples would overflow")
    reach = float(np.abs(t).max())
    if 2 * math.pi * reach * 8 * max(peak, 1e-12) > limit:
        raise ConfigError(f"times reach {reach:.6g} in magnitude, and the fit's Jacobian "
                          f"sums of squares over {y.size} samples would overflow")
    dt = np.diff(t)
    if dt.min() <= 0 or (dt.max() - dt.min()) > 1e-6 * dt.mean():
        raise ConfigError("time grid must be uniform and increasing")
    step = float(dt.mean())
    p0 = _seed_parameters(t, y, step)
    lower = np.array([0.0, 0.0, 0.0, -2 * np.pi, -np.inf])
    upper = np.array([np.inf, np.inf, 0.5 / step, 2 * np.pi, np.inf])
    popt, valid = _levenberg_marquardt(t, y, p0, lower, upper)
    model = _sinusoid_model(t, *popt)
    ss_res = float(np.sum((y - model) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # constant traces leave ss_tot at rounding-noise level, not exactly 0
    floor = y.size * (1e-12 * max(float(np.max(np.abs(y))), 1e-30)) ** 2
    if ss_tot > floor:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= floor else 0.0
    return DampedSinusoidFit(
        frequency=float(popt[2]),
        decay_rate=float(popt[1]),
        amplitude=float(popt[0]),
        phase=float(popt[3]),
        offset=float(popt[4]),
        r_squared=r2,
        valid=valid,
    )
