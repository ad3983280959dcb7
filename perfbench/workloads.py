"""The benchmark workloads: inputs, timed bodies, output checks, fingerprints.

Each workload is split so that only `run` is timed.  `prepare` turns the
workload seed into the program's inputs, `run` calls the program, and
`check` compares every output with an analytic oracle and returns the
operations attempted and failed.  `corrupt` damages a result on purpose;
the worker checks it to prove that the checks can fail.

`run` reaches the program only through module attributes
(`experiments.run_flux_sweep`, not a name bound at import), so that the
traced run's wrappers see every call.  The checks use the functions
bound below, at import, before any wrapper is installed.

The model has no measured-hardware reference.  The oracles that stand in
for one are analytic: the closed-form feedline transmission
amplitude * S21(channel frequency) for every noiseless sweep point, the
configured resonator frequencies for the spectroscopy dips, the
crossing flux phi0 +- sqrt(f_r^2 - gap^2) / slope for the flux features,
the -20 dB crosstalk design limit, sin^2(pi f_rabi t) for the ideal Rabi
populations, linearity of Rabi frequency in drive amplitude, and the
Carson band for the telegraph spectrum.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fdmsim import dynamics, experiments, planner, rxchain
from fdmsim.device import Chip, dressed_resonance, s21_feedline

@dataclass
class Context:
    """What the worker's set-up hands to every iteration."""

    chip: Chip
    chash: str
    readout: experiments.ReadoutSetup
    workdir: Path


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: str
    deviations: dict


@dataclass(frozen=True)
class Workload:
    name: str
    readout_devices: tuple[int, ...] | None
    prepare: Callable[[Context, int], dict]
    run: Callable[[Context, dict], dict]
    check: Callable[[Context, dict, dict], Outcome]
    corrupt: Callable[[dict], dict]


def digest(*parts) -> str:
    """SHA-256 over arrays, numbers, strings, bytes and nested containers."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            a = np.ascontiguousarray(x, dtype=np.result_type(x, np.float64))
            h.update(f"a{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        elif isinstance(x, (bytes, bytearray)):
            h.update(b"b%d:" % len(x))
            h.update(x)
        elif isinstance(x, dict):
            h.update(b"d%d" % len(x))
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"l%d" % len(x))
            for v in x:
                feed(v)
        elif isinstance(x, (bool, np.bool_)):
            h.update(b"T" if x else b"F")
        elif isinstance(x, (int, np.integer)):
            h.update(b"i%d" % int(x))
        elif isinstance(x, (float, np.floating)):
            h.update(b"f" + float(x).hex().encode())
        elif isinstance(x, str):
            h.update(b"s" + x.encode())
        else:
            raise TypeError(f"cannot fingerprint {type(x).__name__}")

    for p in parts:
        feed(p)
    return h.hexdigest()


def _wrap(phase: np.ndarray) -> np.ndarray:
    return np.abs((phase + np.pi) % (2 * np.pi) - np.pi)


# ---------------------------------------------------------------------------
# bringup: plan, spectroscopy, crosstalk, flux sweep, features, CSV


BRINGUP_PROBE_HZ = (9.25e9, 10.35e9, 22001)
BRINGUP_FLUX = (-0.025, 0.025, 500)
CROSSTALK_GRID_HZ = 4e9 / 4000
CROSSTALK_LIMIT_DB = -20.0


def _bringup_prepare(ctx: Context, seed: int) -> dict:
    chip = ctx.chip
    # Largest symmetry-point pull on the chip, rad/s: the Carson rule's shift.
    pulls = [
        2 * math.pi * abs(
            dressed_resonance(d, d.qubit.symmetry_flux, 1.0)
            - dressed_resonance(d, d.qubit.symmetry_flux, -1.0)
        ) / 2
        for d in chip.devices
    ]
    return {
        "seed": seed,
        "probe_hz": np.linspace(*BRINGUP_PROBE_HZ),
        "flux": np.linspace(*BRINGUP_FLUX),
        "kappa": max(d.resonator.total_linewidth_kappa for d in chip.devices),
        "gamma": max(d.qubit.relaxation_rate_gamma for d in chip.devices),
        "shift": max(pulls),
    }


def _bringup_run(ctx: Context, inp: dict) -> dict:
    chip = ctx.chip
    plan = planner.plan_for_chip(chip)
    capacity = planner.max_channels(planner.CapacityQuery(
        bandwidth=plan.band_stop - plan.band_start,
        kappa=inp["kappa"],
        gamma=inp["gamma"],
        dispersive_shift=inp["shift"],
        crosstalk_limit_db=CROSSTALK_LIMIT_DB,
    ))
    spectrum = experiments.run_spectroscopy(chip, inp["probe_hz"], config_hash=ctx.chash)
    xt_plan = planner.plan_for_chip(chip, grid=CROSSTALK_GRID_HZ)
    crosstalk = {
        d: rxchain.measure_crosstalk(chip, xt_plan, d) for d in chip.device_ids
    }
    sweep = experiments.run_flux_sweep(
        chip, inp["flux"], setup=ctx.readout, seed=inp["seed"], config_hash=ctx.chash
    )
    features = experiments.detect_flux_features(sweep)
    path = ctx.workdir / "bringup_sweep.csv"
    experiments.write_sweep_csv(path, sweep)
    return {
        "plan": plan,
        "capacity": capacity,
        "spectrum": spectrum,
        "crosstalk": crosstalk,
        "sweep": sweep,
        "features": features,
        "csv": path,
    }


def _crossings(dev) -> list[float]:
    q, f_r = dev.qubit, dev.resonator.bare_frequency
    half = math.sqrt(f_r**2 - q.gap_delta**2) / q.flux_sensitivity
    return [q.symmetry_flux - half, q.symmetry_flux + half]


def _bringup_check(ctx: Context, inp: dict, res: dict) -> Outcome:
    chip = ctx.chip
    attempted = failed = 0
    deviations = {}

    # plan and capacity: one operation
    attempted += 1
    plan, capacity = res["plan"], res["capacity"]
    failed += not (len(plan.channels) == len(chip.devices) and capacity.count >= len(plan.channels))

    # spectroscopy: one operation, exactly 7 dips within 0.5 MHz of configured
    attempted += 1
    amp = res["spectrum"].tables["s21_amplitude"][:, 0]
    f = res["spectrum"].axis_values
    interior = (amp[1:-1] < amp[:-2]) & (amp[1:-1] <= amp[2:]) & (amp[1:-1] < 0.5)
    dips = f[1:-1][interior]
    configured = sorted(d.resonator.bare_frequency for d in chip.devices)
    ok = bool(np.all(np.isfinite(amp))) and len(dips) == len(configured)
    if ok:
        offsets = np.abs(dips - np.array(configured))
        deviations["dip_offset_hz_max"] = float(offsets.max())
        ok = bool(np.all(offsets < 0.5e6))
    failed += not ok

    # crosstalk: one operation per toggled device
    worst_xt = -math.inf
    for toggled in chip.device_ids:
        attempted += 1
        levels = res["crosstalk"].get(toggled, {})
        vals = np.array(list(levels.values()), dtype=float)
        ok = (set(levels) == set(chip.device_ids) - {toggled}
              and bool(np.all(np.isfinite(vals))) and bool(np.all(vals <= CROSSTALK_LIMIT_DB)))
        if vals.size:
            worst_xt = max(worst_xt, float(vals.max()))
        failed += not ok
    deviations["crosstalk_db_max"] = worst_xt

    # flux sweep: one operation per shot, against amplitude * S21 in closed form
    sweep = res["sweep"]
    setup = ctx.readout
    omega = 2 * np.pi * np.array(setup.channel_frequencies)
    ground = [-1.0] * len(chip.devices)
    expected = np.array(
        [setup.amplitude * s21_feedline(chip, omega, ground, float(phi)) for phi in inp["flux"]]
    )
    a, p = sweep.tables["amplitude"], sweep.tables["phase"]
    rel_amp = np.abs(a - np.abs(expected)) / np.abs(expected)
    d_phase = _wrap(p - np.angle(expected))
    shot_ok = (np.all(np.isfinite(a) & np.isfinite(p), axis=1)
               & np.all(rel_amp <= 1e-9, axis=1) & np.all(d_phase <= 1e-9, axis=1))
    attempted += shot_ok.size
    failed += int(np.count_nonzero(~shot_ok))
    deviations["sweep_rel_amp_max"] = float(np.max(rel_amp))
    deviations["sweep_phase_rad_max"] = float(np.max(d_phase))

    # features: one operation per device, 2 crossings within one flux step
    step = float(inp["flux"][1] - inp["flux"][0])
    worst_steps = 0.0
    for dev_id in setup.device_ids:
        attempted += 1
        found = np.sort(res["features"].get(dev_id, np.array([])))
        oracle = _crossings(chip.device(dev_id))
        ok = found.size == 2
        if ok:
            off = np.abs(found - oracle) / step
            worst_steps = max(worst_steps, float(off.max()))
            ok = bool(np.all(off <= 1.0))
        failed += not ok
    deviations["feature_offset_steps_max"] = worst_steps

    # CSV write: one operation
    attempted += 1
    written = res["csv"].read_bytes()
    failed += not written
    fingerprint = digest(
        capacity.count, [list(c) for c in plan.channels],
        res["spectrum"].tables, res["crosstalk"],
        {k: v for k, v in res["features"].items()}, written,
    )
    return Outcome(attempted, failed, fingerprint, deviations)


def _bringup_corrupt(res: dict) -> dict:
    """Shift one sweep point by 1e-6 relative: must fail one shot."""
    sweep = res["sweep"]
    amp = sweep.tables["amplitude"].copy()
    amp[amp.shape[0] // 2, 0] *= 1 + 1e-6
    tables = dict(sweep.tables, amplitude=amp)
    return dict(res, sweep=dataclasses.replace(sweep, tables=tables))


# ---------------------------------------------------------------------------
# rabi_noisy: acceptance criterion 6 read out through a noisy 12-bit ADC


RABI_DEVICES = (2, 4, 6)
RABI_SCALES = (0.6, 0.8, 1.0, 1.2, 1.4)
RABI_RATE_HZ = 5e6
RABI_NOISE_STD = 2e-3


def _rabi_prepare(ctx: Context, seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "durations": np.linspace(5e-9, 1.2e-6, 200),
        "noise_seeds": [rng.randrange(2**32) for _ in RABI_SCALES],
        "adc": rxchain.AdcSpec(
            sample_rate=1e9, bits=12, full_scale=1.0, analog_bandwidth=480e6
        ),
    }


def _rabi_run(ctx: Context, inp: dict) -> dict:
    t = inp["durations"]
    noisy, fits = [], []
    for scale, seed in zip(RABI_SCALES, inp["noise_seeds"]):
        result = experiments.run_rabi(
            ctx.chip, t, setup=ctx.readout,
            rabi_rate_per_unit_amplitude=RABI_RATE_HZ,
            amplitude_scales=[scale] * len(RABI_DEVICES),
            readout=True, adc=inp["adc"], noise_std=RABI_NOISE_STD,
            seed=seed, config_hash=ctx.chash,
        )
        noisy.append(result)
        fits.append([
            experiments.fit_damped_sinusoid(t, result.column("iq_amplitude", d))
            for d in RABI_DEVICES
        ])
    ideal = experiments.run_rabi(
        ctx.chip, t, setup=ctx.readout, rabi_rate_per_unit_amplitude=RABI_RATE_HZ,
        gamma=0.0, readout=False, config_hash=ctx.chash,
    )
    path = ctx.workdir / "rabi_ideal.csv"
    experiments.write_sweep_csv(path, ideal)
    return {"noisy": noisy, "fits": fits, "ideal": ideal, "csv": path}


def _r_squared(x, y) -> float:
    r = np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1]
    return float(r * r)


def _rabi_check(ctx: Context, inp: dict, res: dict) -> Outcome:
    t = inp["durations"]
    attempted = failed = 0
    deviations = {}

    # shots: finite amplitude and phase on every channel
    for result in res["noisy"]:
        a, p = result.tables["iq_amplitude"], result.tables["iq_phase"]
        ok = np.all(np.isfinite(a) & np.isfinite(p), axis=1)
        attempted += ok.size
        failed += int(np.count_nonzero(~ok))

    # fits: valid with R^2 > 0.9
    worst_fit = 1.0
    for row in res["fits"]:
        for fit in row:
            attempted += 1
            worst_fit = min(worst_fit, fit.r_squared)
            failed += not (fit.valid and fit.r_squared > 0.9
                           and math.isfinite(fit.frequency))
    deviations["fit_r2_min"] = worst_fit

    # fitted frequency linear in drive amplitude: one operation per device
    worst_lin = 1.0
    for j in range(len(RABI_DEVICES)):
        attempted += 1
        freqs = [row[j].frequency for row in res["fits"]]
        r2 = _r_squared(RABI_SCALES, freqs) if np.all(np.isfinite(freqs)) else 0.0
        worst_lin = min(worst_lin, r2)
        failed += not r2 > 0.999
    deviations["linearity_r2_min"] = worst_lin

    # ideal populations: one operation per device
    expected = np.sin(np.pi * RABI_RATE_HZ * t) ** 2
    pop = res["ideal"].tables["excited_population"]
    err = np.abs(pop - expected[:, None])
    attempted += pop.shape[1]
    failed += int(np.count_nonzero(~np.all(err <= 1e-6, axis=0)))
    deviations["ideal_pop_err_max"] = float(np.max(err))

    attempted += 1
    written = res["csv"].read_bytes()
    failed += not written
    fingerprint = digest(
        [r.tables for r in res["noisy"]],
        [[dataclasses.astuple(f) for f in row] for row in res["fits"]],
        res["ideal"].tables, written,
    )
    return Outcome(attempted, failed, fingerprint, deviations)


def _rabi_corrupt(res: dict) -> dict:
    """Mark one fit invalid: must fail one fit."""
    fits = [list(row) for row in res["fits"]]
    fits[0][0] = dataclasses.replace(fits[0][0], valid=False)
    return dict(res, fits=fits)


# ---------------------------------------------------------------------------
# telegraph: acceptance criterion 3's Monte-Carlo spectrum


TELEGRAPH = {
    "gamma": 2 * math.pi * 0.1e6,
    "shift": 2 * math.pi * 2.5e6,
    "duration": 100e-6,
    "n_trajectories": 10_000,
}


def _telegraph_prepare(ctx: Context, seed: int) -> dict:
    return dict(TELEGRAPH, seed=seed)


def _telegraph_run(ctx: Context, inp: dict) -> dict:
    return {"spectrum": dynamics.relaxation_telegraph_spectrum(**inp)}


def _telegraph_check(ctx: Context, inp: dict, res: dict) -> Outcome:
    s = res["spectrum"]
    in_band = 1.0 - s.out_of_band_fraction
    ok = (bool(np.all(np.isfinite(s.power))) and abs(float(s.power.sum()) - 1.0) < 1e-9
          and in_band >= 0.90)
    fingerprint = digest(s.frequencies, s.power, s.out_of_band_fraction, s.carson_bandwidth)
    return Outcome(1, int(not ok), fingerprint, {"in_band_fraction": in_band})


def _telegraph_corrupt(res: dict) -> dict:
    """Push the in-band fraction to 0.89: must fail the spectrum."""
    return {"spectrum": dataclasses.replace(res["spectrum"], out_of_band_fraction=0.11)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bringup", (1, 2, 3, 4, 5, 6), _bringup_prepare, _bringup_run,
                 _bringup_check, _bringup_corrupt),
        Workload("rabi_noisy", RABI_DEVICES, _rabi_prepare, _rabi_run,
                 _rabi_check, _rabi_corrupt),
        Workload("telegraph", None, _telegraph_prepare, _telegraph_run,
                 _telegraph_check, _telegraph_corrupt),
    )
}
