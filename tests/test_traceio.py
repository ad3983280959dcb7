"""Binary trace files: round trip and format rejection; the in-place
writer behind every file the package writes."""

import builtins
import dataclasses
import io
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

import fdmsim.cli
import fdmsim.traceio
from fdmsim import (
    ConfigError,
    IQTrace,
    ToneSpec,
    TraceFormatError,
    builtin_chip_path,
    load_chip,
    make_readout_setup,
    read_sweep_csv,
    read_trace,
    run_flux_sweep,
    synthesize_multitone,
    write_sweep_csv,
    write_sweep_json,
    write_trace,
)
from fdmsim.cli import main


def test_round_trip_preserves_samples_and_rate(tmp_path):
    trace = synthesize_multitone(
        [ToneSpec(baseband_frequency=12.5e6, amplitude=0.3, phase=1.1)], 333, 1e9
    )
    path = tmp_path / "t.trc"
    write_trace(path, trace)
    back = read_trace(path)
    np.testing.assert_array_equal(back.samples, trace.samples)
    assert back.sample_rate == trace.sample_rate
    assert back.n_samples == 333


def test_file_size_is_header_plus_payload(tmp_path):
    trace = IQTrace(samples=np.ones(100, dtype=complex), sample_rate=2e9)
    path = tmp_path / "t.trc"
    write_trace(path, trace)
    assert path.stat().st_size == 32 + 100 * 2 * 8


def test_write_trace_holds_the_payload_once(tmp_path):
    n = 200_000
    rng = np.random.default_rng(8)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    big, tiny = np.finfo(float).max, np.finfo(float).smallest_subnormal
    samples[:3] = [complex(-0.0, tiny), complex(big, -big), 0j]
    trace = IQTrace(samples=samples, sample_rate=1e9 / 3)
    path = tmp_path / "big.trc"
    tracemalloc.start()
    try:
        write_trace(path, trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * n
    # the documented layout: header, then (I, Q) pairs as little-endian float64
    interleaved = np.column_stack([samples.real, samples.imag]).astype("<f8")
    header = struct.pack("<8sIIdQ", b"FDMTRACE", 1, 0, 1e9 / 3, n)
    assert path.read_bytes() == header + interleaved.tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.trc"
    path.write_bytes(b"NOTMAGIC" + bytes(24) + bytes(16))
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_bad_version_rejected(tmp_path):
    header = struct.pack("<8sIIdQ", b"FDMTRACE", 99, 0, 1e9, 1)
    path = tmp_path / "v.trc"
    path.write_bytes(header + bytes(16))
    with pytest.raises(TraceFormatError):
        read_trace(path)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1e9])
def test_header_rate_that_is_not_finite_and_positive_rejected(tmp_path, rate, capsys):
    header = struct.pack("<8sIIdQ", b"FDMTRACE", 1, 0, rate, 2)
    path = tmp_path / "rate.trc"
    path.write_bytes(header + bytes(32))
    with pytest.raises(TraceFormatError, match="header sample_rate"):
        read_trace(path)
    # The CLI names the file's fault and exits 2, with no traceback.
    assert main(["channelize", "--trace", str(path), "--channels", "0"]) == 2
    assert "header sample_rate" in capsys.readouterr().err


def test_header_without_samples_rejected(tmp_path, capsys):
    path = tmp_path / "empty.trc"
    path.write_bytes(struct.pack("<8sIIdQ", b"FDMTRACE", 1, 0, 1e9, 0))
    with pytest.raises(TraceFormatError, match="n_samples is 0"):
        read_trace(path)
    assert main(["channelize", "--trace", str(path), "--channels", "0"]) == 2
    assert f"{path}: header n_samples is 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", [0, 1], ids=["I", "Q"])
def test_non_finite_payload_rejected(tmp_path, value, part, capsys):
    payload = np.zeros((4, 2))
    payload[2, part] = value
    path = tmp_path / "bad.trc"
    path.write_bytes(struct.pack("<8sIIdQ", b"FDMTRACE", 1, 0, 1e9, 4)
                     + payload.astype("<f8").tobytes())
    with pytest.raises(TraceFormatError, match="non-finite"):
        read_trace(path)
    assert main(["channelize", "--trace", str(path), "--channels", "0"]) == 2
    assert f"{path}: payload holds a non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("sample", [complex(float("nan"), 0.0), complex(0.0, float("inf")),
                                    complex(float("-inf"), 1.0)])
def test_write_trace_refuses_non_finite_samples(tmp_path, sample):
    samples = np.ones(6, dtype=complex)
    samples[4] = sample
    path = tmp_path / "t.trc"
    with pytest.raises(ConfigError, match="non-finite"):
        write_trace(path, IQTrace(samples=samples, sample_rate=1e9))
    assert not path.exists()


def test_truncated_payload_rejected(tmp_path):
    trace = IQTrace(samples=np.ones(10, dtype=complex), sample_rate=1e9)
    path = tmp_path / "cut.trc"
    write_trace(path, trace)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TraceFormatError):
        read_trace(path)


# --------------------------------------------------------------------------
# the writer: every output is rewritten in place, never truncated to zero


@pytest.fixture(scope="module")
def chip():
    return load_chip(builtin_chip_path())


def sweep(chip, n, **kwargs):
    return run_flux_sweep(chip, np.linspace(-0.002, 0.002, n),
                          setup=make_readout_setup(chip, (1, 2)),
                          config_hash="h1", **kwargs)


def channelize_to(chip, path, n):
    """`fdmsim channelize --out path` of n channels of a trace that it
    first writes next to path."""
    trace = path.parent / "in.trc"
    write_trace(trace, IQTrace(samples=np.arange(64) * (1 + 0.5j), sample_rate=64e6))
    main(["channelize", "--trace", str(trace), "--channels",
          ",".join(str(1e6 * k) for k in range(1, n + 1)), "--out", str(path)])


# Each writer of the package, as write(chip, path, n): n sets the size of
# what it writes, so a smaller n gives a shorter file.
WRITERS = {
    "sweep-csv": lambda chip, path, n: write_sweep_csv(path, sweep(chip, n)),
    "sweep-json": lambda chip, path, n: write_sweep_json(path, sweep(chip, n)),
    "cli-channelize": channelize_to,
    "trace": lambda chip, path, n: write_trace(
        path, IQTrace(samples=np.arange(n) * (1 + 0.5j), sample_rate=1e9)),
    "cli-text": lambda chip, path, n: main([
        "plan", "--channels", str(n), "--band-start", "9.3e9", "--band-stop", "10.2e9",
        "--spacing", "150e6", "--out", str(path)]),
    # the script lands next to the CSV, at <csv>.gp
    "cli-gnuplot": lambda chip, path, n: main([
        "sweep", "--points", "3", "--devices", ",".join(map(str, range(1, n + 1))),
        "--out", str(path.with_suffix("")), "--emit-gnuplot"]),
}
WRITER_MODULES = (fdmsim.traceio, fdmsim.cli)


def truncating_write(path, data):
    """The reference: a plain open(path, "w") or open(path, "wb") write,
    which truncates the file to zero first."""
    if isinstance(data, str):
        with open(path, "w", newline="\n") as fh:
            fh.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def write_truncating(monkeypatch, write, chip, path, n):
    with monkeypatch.context() as patch:
        for module in WRITER_MODULES:
            patch.setattr(module, "_write_file", truncating_write)
        write(chip, path, n)


@pytest.mark.parametrize("name", WRITERS)
def test_rewrite_gives_the_bytes_of_a_truncating_write(chip, tmp_path, monkeypatch, name,
                                                       capsys):
    write = WRITERS[name]
    expected = tmp_path / "expected" / "out.csv.gp"
    expected.parent.mkdir()
    write_truncating(monkeypatch, write, chip, expected, 2)
    path = tmp_path / "out.csv.gp"
    write(chip, path, 5)
    longer = path.read_bytes()
    write(chip, path, 2)
    assert len(path.read_bytes()) < len(longer)
    assert path.read_bytes() == expected.read_bytes()


def test_json_bytes_match_a_streamed_json_dump(chip, tmp_path):
    # The JSON writer used to stream json.dump into the file and add "\n".
    path = tmp_path / "sweep.json"
    write_sweep_json(path, sweep(chip, 4, noise_std=1e-3, seed=3))
    streamed = io.StringIO()
    json.dump(json.loads(path.read_text()), streamed, indent=2, sort_keys=True)
    assert path.read_text() == streamed.getvalue() + "\n"


def strict_json(text):
    """json.loads refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("where", ["axis", "table"])
def test_json_writer_refuses_a_value_json_cannot_hold(chip, tmp_path, where, bad):
    # A sweep with NaN or infinite cells was written as NaN and Infinity,
    # which a strict JSON reader refuses.
    good = sweep(chip, 2)
    path = tmp_path / "sweep.json"
    write_sweep_json(path, good)
    assert strict_json(path.read_text())["axis_values"] == good.axis_values.tolist()
    before = path.read_bytes()
    if where == "axis":
        result = dataclasses.replace(good, axis_values=[0.0, bad])
        named = "axis 'flux_phi0'"
    else:
        tables = {**good.tables, "phase": good.tables["phase"].copy()}
        tables["phase"][1, 0] = bad
        result = dataclasses.replace(good, tables=tables)
        named = "table 'phase'"
    with pytest.raises(ConfigError, match=f"refusing to write .*: {named} holds NaN or inf"):
        write_sweep_json(path, result)
    assert path.read_bytes() == before


def test_shorter_sweep_leaves_no_stale_rows(chip, tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep(chip, 9))
    short = sweep(chip, 3)
    write_sweep_csv(path, short)
    back = read_sweep_csv(path)
    np.testing.assert_array_equal(back.axis_values, short.axis_values)
    np.testing.assert_array_equal(back.tables["amplitude"], short.tables["amplitude"])


def test_shorter_trace_leaves_no_stale_samples(tmp_path):
    path = tmp_path / "t.trc"
    write_trace(path, IQTrace(samples=np.ones(50, dtype=complex), sample_rate=1e9))
    short = IQTrace(samples=np.arange(7) * 1j, sample_rate=2e9)
    write_trace(path, short)
    back = read_trace(path)
    np.testing.assert_array_equal(back.samples, short.samples)
    assert back.sample_rate == 2e9


@pytest.mark.parametrize("name", WRITERS)
def test_writer_creates_a_fresh_path(chip, tmp_path, name, capsys):
    path = tmp_path / "new.csv.gp"
    WRITERS[name](chip, path, 2)
    assert path.is_file() and path.stat().st_size > 0


def test_writing_through_a_symlink_updates_the_target(chip, tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("stale\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    result = sweep(chip, 3)
    write_sweep_csv(link, result)
    assert link.is_symlink()
    np.testing.assert_array_equal(read_sweep_csv(target).axis_values, result.axis_values)


def test_writer_streams_to_a_character_device():
    # /dev/null cannot be truncated; the writer only cuts regular files.
    fdmsim.traceio._write_file(os.devnull, "x\n")
    fdmsim.traceio._write_file(os.devnull, b"x")


def test_refused_writes_leave_the_file_unchanged(chip, tmp_path):
    path = tmp_path / "sweep.csv"
    good = sweep(chip, 5)
    write_sweep_csv(path, good)
    before = path.read_bytes()
    bad = dataclasses.replace(good, metadata={**good.metadata, "note": "a\nb"})
    with pytest.raises(ConfigError, match="line break"):
        write_sweep_csv(path, bad)
    clash = dataclasses.replace(good, metadata={**good.metadata, 1: "x", "1": "y"})
    with pytest.raises(ConfigError, match="both written as '1'"):
        write_sweep_json(path, clash)
    other = dataclasses.replace(good, metadata={**good.metadata, "config_hash": "h2"})
    with pytest.raises(ConfigError, match="config_hash"):
        write_sweep_csv(path, other, append=True)
    assert path.read_bytes() == before


@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-file"])
def test_text_the_encoding_cannot_hold_leaves_the_path_as_it_was(chip, tmp_path, existing):
    # A lone surrogate has no encoding: the text is refused before the
    # file is opened, so no empty file is left and no byte changes.  (The
    # JSON writer escapes it, as json.dumps does.)
    path = tmp_path / "sweep.csv"
    good = sweep(chip, 3)
    if existing:
        write_sweep_csv(path, good)
        before = path.read_bytes()
    refused = [
        lambda: write_sweep_csv(path, dataclasses.replace(good, axis_name="flux\udc80")),
        lambda: write_sweep_csv(path, dataclasses.replace(good, metadata={"note": "a\udc80"})),
        lambda: fdmsim.traceio._write_file(path, "\udc80\n"),
    ]
    for write in refused:
        with pytest.raises(ConfigError, match=f"refusing to write {path}: .*surrogate"):
            write()
        if existing:
            assert path.read_bytes() == before
        else:
            assert not path.exists()


def test_no_writer_opens_a_path_truncating(chip, tmp_path, monkeypatch, capsys):
    """Every output goes through the in-place writer: os.open never gets
    O_TRUNC, and no path (as opposed to a file descriptor) is opened in
    a truncating mode, through open, io.open or pathlib."""
    flags, modes = [], []
    real_os_open, real_open = os.open, builtins.open

    def recording_os_open(path, flag, *args, **kwargs):
        flags.append((path, flag))
        return real_os_open(path, flag, *args, **kwargs)

    def recording_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            modes.append((file, mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    for name, write in WRITERS.items():
        path = tmp_path / f"{name}.csv.gp"
        write(chip, path, 3)
        write(chip, path, 2)
    write_sweep_csv(tmp_path / "sweep-csv.csv.gp", sweep(chip, 2), append=True)
    written = {str(path) for path, _ in flags}
    # the gnuplot case also writes its CSV, the channelize case its trace
    assert len(written) == len(WRITERS) + 2
    assert not [path for path, flag in flags if flag & os.O_TRUNC]
    assert not [(path, mode) for path, mode in modes if "w" in mode]
