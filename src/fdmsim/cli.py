"""Command-line front end.

Subcommands cover the common workflows: `plan` (channel capacity and
frequency plans), `sweep` (flux sweep through the full chain),
`spectroscopy` (closed-form feedline response), `rabi` (driven qubits
read out through the chain), `crosstalk` (measured channel isolation),
and `channelize` (offline DFT readout of a recorded trace).

Exit codes: 0 success, 2 bad configuration or usage, 3 infeasible plan.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chipfile import builtin_chip_path, config_hash, load_chip
from .errors import FdmSimError, InfeasiblePlanError
from .experiments import (
    detect_flux_features,
    fit_damped_sinusoid,
    make_readout_setup,
    run_flux_sweep,
    run_rabi,
    run_spectroscopy,
)
from .planner import (
    CapacityQuery,
    format_plan_report,
    generate_plan,
    max_channels,
    plan_for_chip,
)
from .rxchain import _acquisition_grid, measure_crosstalk
from .rxchain import channelize as channelize_trace
from .traceio import (
    SweepResult,
    _csv_columns,
    _write_file,
    read_trace,
    write_measurements_csv,
    write_sweep_csv,
    write_sweep_json,
)

TWO_PI = 2.0 * np.pi


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _count(text: str) -> int:
    """An integer >= 1; anything else is a usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdmsim",
        description="frequency-multiplexed dispersive readout simulator",
    )
    parser.add_argument("--version", action="version", version=f"fdmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chip_arg(p):
        p.add_argument(
            "--config",
            default=None,
            help="chip description file (default: the built-in seven-device chip)",
        )

    def add_output_args(p):
        p.add_argument("--out", default=None, help="output file (default: stdout summary only)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--emit-gnuplot",
            action="store_true",
            help="also write <out>.gp, a gnuplot script for the CSV",
        )

    p = sub.add_parser("plan", help="channel capacity and frequency plans")
    p.add_argument("--bandwidth", type=float, default=1e9, help="usable bandwidth, Hz")
    p.add_argument("--kappa-over-2pi", type=float, default=10e6, help="resonator linewidth, Hz")
    p.add_argument("--gamma-over-2pi", type=float, default=0.1e6, help="qubit relaxation rate, Hz")
    p.add_argument("--shift-over-2pi", type=float, default=0.3e6, help="dispersive shift, Hz")
    p.add_argument("--crosstalk-limit-db", type=float, default=-20.0)
    p.add_argument("--channels", type=int, default=None, help="also lay out this many channels")
    p.add_argument("--band-start", type=float, default=9.3e9, help="Hz")
    p.add_argument("--band-stop", type=float, default=None, help="Hz (default start+bandwidth)")
    p.add_argument("--spacing", type=float, default=None, help="fixed channel spacing, Hz")
    p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("sweep", help="flux sweep through the full chain")
    add_chip_arg(p)
    p.add_argument("--flux-start", type=float, default=-0.025, help="Phi0")
    p.add_argument("--flux-stop", type=float, default=0.025, help="Phi0")
    p.add_argument("--points", type=_count, default=500)
    p.add_argument("--devices", type=_int_list, default=None, help="e.g. 1,2,3")
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--features", action="store_true", help="print detected crossings")
    p.add_argument("--append", action="store_true", help="append rows to an existing CSV")
    add_output_args(p)

    p = sub.add_parser("spectroscopy", help="closed-form feedline response")
    add_chip_arg(p)
    p.add_argument("--start", type=float, default=9.25e9, help="Hz")
    p.add_argument("--stop", type=float, default=10.25e9, help="Hz")
    p.add_argument("--points", type=_count, default=2001)
    p.add_argument("--excite", type=_int_list, default=[], help="devices in the excited state")
    p.add_argument("--flux", type=float, default=None, help="common flux, Phi0")
    add_output_args(p)

    p = sub.add_parser("rabi", help="driven qubits read out through the chain")
    add_chip_arg(p)
    p.add_argument("--devices", type=_int_list, default=None)
    p.add_argument("--duration", type=float, default=2e-6, help="longest drive, s")
    p.add_argument("--points", type=_count, default=400)
    p.add_argument("--rate", type=float, default=5e6, help="Rabi rate per unit amplitude, Hz")
    p.add_argument("--amplitudes", type=_float_list, default=None, help="per-device drive scales")
    p.add_argument("--detuning", type=float, default=0.0, help="Hz")
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit", action="store_true", help="fit each readout trace")
    add_output_args(p)

    p = sub.add_parser("crosstalk", help="measured channel isolation, dB")
    add_chip_arg(p)
    p.add_argument("--toggle", type=int, required=True, help="device whose state flips")
    p.add_argument("--sample-rate", type=float, default=4e9)
    p.add_argument("--n-samples", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("channelize", help="DFT readout of a recorded baseband trace")
    p.add_argument("--trace", required=True, help="binary trace file")
    p.add_argument("--channels", type=_float_list, required=True, help="baseband Hz, e.g. 1e6,2e6")
    p.add_argument("--window", choices=("rectangular", "hann"), default="rectangular")
    p.add_argument("--out", default=None)

    return parser


def _load(args) -> tuple:
    path = Path(args.config) if args.config else builtin_chip_path()
    return load_chip(path), config_hash(path)


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _gnuplot_script(csv_path: Path, result: SweepResult) -> str:
    lines = [
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{result.axis_name}'",
        "set key outside",
    ]
    plots = [
        f"'{csv_path.name}' using 1:{col} with lines title '{table} {result.columns[j]}'"
        for col, (table, j, _) in enumerate(_csv_columns(result.tables, result.columns), 2)
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return "\n".join(lines) + "\n"


def _emit_outputs(args, result: SweepResult) -> None:
    if args.out is None:
        return
    out = Path(args.out)
    if args.format == "json":
        write_sweep_json(out, result)
    else:
        write_sweep_csv(out, result, append=getattr(args, "append", False))
        if args.emit_gnuplot:
            _write_file(out.with_suffix(out.suffix + ".gp"), _gnuplot_script(out, result))


def _cmd_plan(args) -> int:
    kappa = TWO_PI * args.kappa_over_2pi
    gamma = TWO_PI * args.gamma_over_2pi
    shift = TWO_PI * args.shift_over_2pi
    capacity = max_channels(CapacityQuery(args.bandwidth, kappa, gamma, shift,
                                          args.crosstalk_limit_db))
    lines = [
        f"bandwidth {args.bandwidth:.9g} Hz, kappa/2pi {args.kappa_over_2pi:.9g} Hz, "
        f"crosstalk limit {args.crosstalk_limit_db:g} dB",
        f"channel spacing {capacity.spacing:.9g} Hz "
        f"(crosstalk-limited {capacity.crosstalk_spacing:.9g} Hz, "
        f"carson {capacity.carson_bandwidth:.9g} Hz)",
        f"max channels: {capacity.count}",
    ]
    for note in capacity.notes:
        lines.append(f"note: {note}")
    text = "\n".join(lines) + "\n"
    if args.channels is not None:
        band_stop = args.band_stop
        if band_stop is None:
            band_stop = args.band_start + args.bandwidth
        # Without --spacing, the comb sits at the crosstalk-limited
        # spacing, crosstalk_limited_spacing(kappa, limit) / (2 pi).
        spacing = capacity.crosstalk_spacing if args.spacing is None else args.spacing
        plan = generate_plan(args.channels, args.band_start, band_stop, spacing=spacing,
                             kappa=kappa, crosstalk_limit_db=args.crosstalk_limit_db)
        text += "\n" + format_plan_report(plan, kappa=kappa, gamma=gamma,
                                          dispersive_shift=shift)
    _write_text(args.out, text)
    return 0


def _cmd_sweep(args) -> int:
    chip, chash = _load(args)
    flux = np.linspace(args.flux_start, args.flux_stop, args.points)
    result = run_flux_sweep(
        chip,
        flux,
        setup=make_readout_setup(chip, args.devices),
        noise_std=args.noise_std,
        seed=args.seed,
        config_hash=chash,
    )
    _emit_outputs(args, result)
    print(
        f"flux sweep: {args.points} points in [{args.flux_start:g}, {args.flux_stop:g}] "
        f"Phi0, {len(result.device_ids)} channels"
        + (f" -> {args.out}" if args.out else "")
    )
    if args.features:
        for dev_id, found in sorted(detect_flux_features(result).items()):
            where = ", ".join(f"{f:+.6f}" for f in found)
            print(f"device {dev_id}: {len(found)} crossings at {where} Phi0")
    return 0


def _cmd_spectroscopy(args) -> int:
    chip, chash = _load(args)
    for dev_id in args.excite:
        chip.device(dev_id)  # raises UnknownDeviceError early
    states = [1.0 if d.device_id in args.excite else -1.0 for d in chip.devices]
    fluxes = args.flux  # scalar, or None for per-device symmetry flux
    probe = np.linspace(args.start, args.stop, args.points)
    result = run_spectroscopy(
        chip, probe, states=states, fluxes=fluxes, config_hash=chash
    )
    _emit_outputs(args, result)
    amp = result.tables["s21_amplitude"][:, 0]
    print(
        f"spectroscopy: {args.points} points in [{args.start:.9g}, {args.stop:.9g}] Hz, "
        f"min |S21| {amp.min():.4f} at {probe[amp.argmin()]:.9g} Hz"
        + (f" -> {args.out}" if args.out else "")
    )
    return 0


def _cmd_rabi(args) -> int:
    chip, chash = _load(args)
    durations = np.linspace(0.0, args.duration, args.points)
    result = run_rabi(
        chip,
        durations,
        setup=make_readout_setup(chip, args.devices),
        rabi_rate_per_unit_amplitude=args.rate,
        amplitude_scales=args.amplitudes,
        detuning=args.detuning,
        noise_std=args.noise_std,
        seed=args.seed,
        config_hash=chash,
    )
    _emit_outputs(args, result)
    print(
        f"rabi: {args.points} durations to {args.duration:g} s, "
        f"{len(result.device_ids)} devices"
        + (f" -> {args.out}" if args.out else "")
    )
    if args.fit:
        for dev_id in result.device_ids:
            fit = fit_damped_sinusoid(
                result.axis_values, result.column("iq_amplitude", dev_id)
            )
            flag = "" if fit.valid else "  [fit did not converge]"
            print(
                f"device {dev_id}: f = {fit.frequency:.6g} Hz, "
                f"decay = {fit.decay_rate:.4g} 1/s, R^2 = {fit.r_squared:.6f}{flag}"
            )
    return 0


def _cmd_crosstalk(args) -> int:
    chip, _ = _load(args)
    plan = plan_for_chip(chip, grid=_acquisition_grid(args.sample_rate, args.n_samples))
    isolation = measure_crosstalk(
        chip,
        plan,
        args.toggle,
        sample_rate=args.sample_rate,
        n_samples=args.n_samples,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    lines = [f"crosstalk from toggling device {args.toggle} (dB):"]
    for dev_id, level in sorted(isolation.items()):
        lines.append(f"  device {dev_id}: {level:8.2f}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_channelize(args) -> int:
    trace = read_trace(args.trace)
    measurements = channelize_trace(trace, args.channels, window=args.window)
    if args.out is not None:
        write_measurements_csv(
            args.out, measurements, {"source": Path(args.trace).name, "window": args.window}
        )
        print(f"{len(measurements)} channels -> {args.out}")
    else:
        for m in measurements:
            print(
                f"{m.channel_frequency:.9g} Hz: amplitude {m.amplitude:.6g}, "
                f"phase {m.phase:+.6f} rad, noise_std {m.noise_std:.3g}"
            )
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "sweep": _cmd_sweep,
    "spectroscopy": _cmd_spectroscopy,
    "rabi": _cmd_rabi,
    "crosstalk": _cmd_crosstalk,
    "channelize": _cmd_channelize,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) == "json" and (getattr(args, "append", False)
                                                    or args.emit_gnuplot):
        parser.error("--append and --emit-gnuplot write CSV; they need --format csv")
    try:
        return _COMMANDS[args.command](args)
    except InfeasiblePlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FdmSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
