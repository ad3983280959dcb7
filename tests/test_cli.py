"""Command-line interface: exit codes, outputs, and file side effects."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

import fdmsim
import fdmsim.cli
from fdmsim import (ToneSpec, builtin_chip_path, read_sweep_csv, synthesize_multitone,
                    write_sweep_csv, write_trace)
from fdmsim.cli import main


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fdmsim" in capsys.readouterr().out


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "fdmsim.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


# --------------------------------------------------------------------------
# plan


def test_plan_default_reports_20_channels(capsys):
    assert main(["plan"]) == 0
    out = capsys.readouterr().out
    assert "max channels: 20" in out
    assert "spacing 5e+07 Hz" in out or "50000000" in out


def test_plan_minus_10db_reports_derating_note(capsys):
    assert main(["plan", "--crosstalk-limit-db", "-10"]) == 0
    out = capsys.readouterr().out
    assert "max channels: 66" in out
    assert "note:" in out
    assert "60" in out


def test_plan_lays_out_requested_channels(capsys, tmp_path):
    out_file = tmp_path / "plan.txt"
    code = main([
        "plan", "--channels", "7", "--band-start", "9.3e9",
        "--band-stop", "10.2e9", "--spacing", "150e6", "--out", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    assert "7 channels" in text
    assert "9.3e+09" in text or "9300000000" in text


def test_plan_infeasible_exits_3(capsys):
    code = main([
        "plan", "--channels", "8", "--band-start", "9.3e9",
        "--band-stop", "9.4e9", "--spacing", "150e6",
    ])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_plan_with_band_edges_out_of_order_names_band_stop(capsys):
    assert main(["plan", "--channels", "3", "--band-start", "9e9", "--band-stop", "8e9"]) == 2
    assert "band_stop" in capsys.readouterr().err


@pytest.mark.parametrize("spacing", ["0", "-1e6", "nan"])
def test_plan_rejects_a_spacing_that_is_not_positive(capsys, spacing):
    # --spacing=0 once fell through to the crosstalk-limited spacing and exited 0.
    assert main(["plan", "--channels", "3", f"--spacing={spacing}"]) == 2
    assert "spacing must be finite and > 0" in capsys.readouterr().err


def test_plan_names_rates_whose_carson_width_overflows(capsys):
    # This exited 3 with "required spacing inf Hz exceeds bandwidth".
    assert main(["plan", "--shift-over-2pi", "1e307", "--gamma-over-2pi", "1e307"]) == 2
    assert re.search("dispersive_shift .* and gamma", capsys.readouterr().err)


@pytest.mark.filterwarnings("error")
def test_sweep_with_overflowing_noise_is_a_usage_error(capsys, tmp_path):
    # This exited 0 and wrote a table of NaN.
    out = tmp_path / "s.csv"
    assert main(["sweep", "--noise-std", "1e308", "--points", "5", "--out", str(out)]) == 2
    assert "noise_std" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "rabi", "spectroscopy"])
@pytest.mark.parametrize("points", ["-1", "0"])
def test_points_below_one_are_a_usage_error(capsys, command, points):
    with pytest.raises(SystemExit) as exc:
        main([command, "--points", points])
    assert exc.value.code == 2
    assert "argument --points" in capsys.readouterr().err


# --------------------------------------------------------------------------
# sweep


def sweep_args(tmp_path, *extra):
    return [
        "sweep", "--points", "11", "--flux-start", "-0.01",
        "--flux-stop", "0.01", "--devices", "1",
        "--out", str(tmp_path / "sweep.csv"), *extra,
    ]


def test_sweep_writes_csv(tmp_path, capsys):
    assert main(sweep_args(tmp_path)) == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.startswith("# fdmsim-sweep-v1")
    assert "flux sweep: 11 points" in capsys.readouterr().out


def test_sweep_features_prints_crossings(tmp_path, capsys):
    code = main([
        "sweep", "--points", "81", "--flux-start", "-0.025",
        "--flux-stop", "0.025", "--devices", "1", "--features",
    ])
    assert code == 0
    assert "device 1: 2 crossings" in capsys.readouterr().out


def test_sweep_emit_gnuplot(tmp_path, capsys):
    assert main(sweep_args(tmp_path, "--emit-gnuplot")) == 0
    script = (tmp_path / "sweep.csv.gp").read_text()
    assert "plot" in script
    assert "sweep.csv" in script


def test_sweep_json_output(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main([
        "sweep", "--points", "5", "--flux-start", "-0.01", "--flux-stop", "0.01",
        "--devices", "1,2", "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["dev1", "dev2"]


def test_sweep_append_same_config(tmp_path, capsys):
    assert main(sweep_args(tmp_path)) == 0
    assert main(sweep_args(tmp_path, "--append")) == 0
    rows = [
        line for line in (tmp_path / "sweep.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line[0].isalpha()
    ]
    assert len(rows) == 22


def test_a_shorter_sweep_rewrites_the_csv_and_an_append_extends_it(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--out", out]) == 0
    assert main(["sweep", "--points", "50", "--out", out]) == 0
    assert read_sweep_csv(out).axis_values.size == 50
    assert main(["sweep", "--points", "50", "--append", "--out", out]) == 0
    assert read_sweep_csv(out).axis_values.size == 100


@pytest.mark.parametrize("argv", [["sweep"], ["spectroscopy"], ["rabi", "--points", "50"]])
def test_a_csv_read_back_writes_the_same_bytes(tmp_path, capsys, argv):
    out, again = tmp_path / "out.csv", tmp_path / "again.csv"
    assert main([*argv, "--out", str(out)]) == 0
    write_sweep_csv(again, read_sweep_csv(out))
    assert again.read_bytes() == out.read_bytes()
    # the readout runs record their readout block; spectroscopy has none
    assert ("\n# lo_frequency_hz=" in out.read_text()) == (argv[0] != "spectroscopy")


@pytest.mark.parametrize("command, flag", [
    ("sweep", "--append"), ("sweep", "--emit-gnuplot"),
    ("spectroscopy", "--emit-gnuplot"), ("rabi", "--emit-gnuplot"),
])
def test_csv_only_flags_with_json_are_a_usage_error(tmp_path, capsys, monkeypatch,
                                                    command, flag):
    # --append and --emit-gnuplot act on CSV files.  With --format json the
    # append overwrote the file and the script was skipped, both with exit 0.
    out = tmp_path / "j.json"
    assert main(["sweep", "--points", "5", "--format", "json", "--out", str(out)]) == 0
    before = out.read_bytes()
    for name in ("run_flux_sweep", "run_spectroscopy", "run_rabi"):
        monkeypatch.setattr(fdmsim.cli, name, lambda *a, **k: pytest.fail("work was done"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--points", "7", "--format", "json", flag, "--out", str(out)])
    assert exc.value.code == 2
    assert "need --format csv" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.json"]


def test_sweep_append_config_mismatch_exits_2(tmp_path, capsys):
    assert main(sweep_args(tmp_path)) == 0
    altered = tmp_path / "altered.cfg"
    altered.write_text(
        builtin_chip_path().read_text().replace("40.0e6", "41.0e6")
    )
    code = main(sweep_args(tmp_path, "--append", "--config", str(altered)))
    assert code == 2
    assert "config_hash" in capsys.readouterr().err


def test_sweep_unknown_device_exits_2(capsys):
    code = main(["sweep", "--points", "3", "--devices", "42"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    code = main(["sweep", "--points", "3", "--config", "/nonexistent.cfg"])
    assert code == 2


def test_negative_seed_exits_2(capsys):
    code = main(["sweep", "--points", "3", "--noise-std", "1e-3", "--seed", "-1"])
    assert code == 2
    assert "root seed" in capsys.readouterr().err


# --------------------------------------------------------------------------
# spectroscopy


def test_spectroscopy_reports_minimum(tmp_path, capsys):
    out = tmp_path / "spectro.csv"
    code = main([
        "spectroscopy", "--start", "9.28e9", "--stop", "9.32e9",
        "--points", "401", "--out", str(out),
    ])
    assert code == 0
    assert "min |S21|" in capsys.readouterr().out
    assert out.exists()


def test_spectroscopy_bad_excite_exits_2(capsys):
    assert main(["spectroscopy", "--points", "11", "--excite", "99"]) == 2


# --------------------------------------------------------------------------
# rabi


def test_rabi_fit_prints_frequency(capsys):
    code = main([
        "rabi", "--devices", "2", "--points", "60",
        "--duration", "6e-7", "--fit",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rabi: 60 durations" in out
    assert "device 2: f = " in out
    # resonant drive at the default 5 MHz per unit amplitude
    fitted = float(out.split("device 2: f = ")[1].split(" Hz")[0])
    assert fitted == pytest.approx(5e6, rel=0.02)


# --------------------------------------------------------------------------
# crosstalk


def test_crosstalk_table_covers_spectators(capsys):
    assert main(["crosstalk", "--toggle", "1"]) == 0
    out = capsys.readouterr().out
    assert "toggling device 1" in out
    for dev_id in range(2, 8):
        assert f"device {dev_id}:" in out
    assert "device 1:" not in out  # the toggled channel is not its own victim
    # isolation improves with distance from the toggled notch
    levels = [float(line.split(":")[1]) for line in out.splitlines()[1:]]
    assert all(b < a for a, b in zip(levels, levels[1:]))


def test_same_seed_noisy_crosstalk_files_are_byte_identical(tmp_path, capsys):
    # Both rows draw from the root stream derive_rng(seed).
    outs = [tmp_path / "x.txt", tmp_path / "y.txt"]
    for out in outs:
        assert main(["crosstalk", "--toggle", "2", "--noise-std", "1e-3", "--seed", "5",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_crosstalk_unknown_toggle_exits_2(capsys):
    assert main(["crosstalk", "--toggle", "42"]) == 2


def test_crosstalk_zero_samples_exits_2(capsys):
    assert main(["crosstalk", "--toggle", "1", "--n-samples", "0"]) == 2
    assert "n_samples >= 1" in capsys.readouterr().err


def test_crosstalk_zero_sample_rate_names_it(capsys):
    # The error read "grid must be finite and > 0, got 0.0".
    assert main(["crosstalk", "--toggle", "1", "--sample-rate", "0"]) == 2
    assert "sample_rate must be finite and > 0, got 0.0" in capsys.readouterr().err


# --------------------------------------------------------------------------
# channelize


def test_channelize_reads_trace_file(tmp_path, capsys):
    tones = [
        ToneSpec(baseband_frequency=10e6, amplitude=0.5),
        ToneSpec(baseband_frequency=-35e6, amplitude=0.25),
    ]
    trace = synthesize_multitone(tones, 4000, 1e9)
    path = tmp_path / "trace.bin"
    write_trace(path, trace)

    code = main(["channelize", "--trace", str(path), "--channels", "10e6,-35e6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "10000000 Hz: amplitude 0.5" in out

    out_csv = tmp_path / "channels.csv"
    code = main([
        "channelize", "--trace", str(path),
        "--channels", "10e6", "--out", str(out_csv),
    ])
    assert code == 0
    assert out_csv.exists()
    assert "amplitude" in out_csv.read_text()


@pytest.mark.parametrize("window", ["rectangular", "hann"])
def test_channelize_out_reads_back_as_a_sweep(tmp_path, capsys, window):
    trace = synthesize_multitone([ToneSpec(10e6, 0.5, 0.3), ToneSpec(-35e6, 0.25)], 4000, 1e9)
    path = tmp_path / "trace.bin"
    write_trace(path, trace)
    out = tmp_path / "channels.csv"
    channels = [10e6, -35e6, 120e6]
    assert main(["channelize", "--trace", str(path), "--channels", "10e6,-35e6,120e6",
                 "--window", window, "--out", str(out)]) == 0
    measurements = fdmsim.channelize(trace, channels, window=window)
    back = read_sweep_csv(out)
    assert (back.kind, back.axis_name, back.columns) == ("channelize", "channel_hz",
                                                         ("feedline",))
    assert back.axis_values.tolist() == channels
    assert repr(back.column("amplitude", "feedline").tolist()) == repr(
        [m.amplitude for m in measurements])
    assert repr(back.column("phase", "feedline").tolist()) == repr(
        [m.phase for m in measurements])
    assert back.metadata == {"source": "trace.bin", "window": window,
                             "sample_rate_hz": "1000000000.0", "n_samples": "4000",
                             "noise_std_estimate": repr(measurements[0].noise_std)}


def test_channelize_missing_trace_exits_2(tmp_path, capsys):
    code = main([
        "channelize", "--trace", str(tmp_path / "nope.bin"), "--channels", "1e6",
    ])
    assert code == 2
