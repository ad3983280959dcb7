"""Every text file the package reads: a result or a named error, whatever
its bytes."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmsim import (ConfigError, FdmSimError, ToneSpec, builtin_chip_path, load_chip,
                    read_sweep_csv, run_flux_sweep, synthesize_multitone, write_sweep_csv,
                    write_sweep_json, write_trace)
from fdmsim.cli import main

CHIP = builtin_chip_path().read_bytes()

# Replaced or inserted; the empty token deletes a span.
TOKENS = [b"nan", b"inf", b"1e308", b"True", b"=", b"#", b"%", b"\xff", b""]


def not_utf8(path, offset):
    return re.escape(f"{path}: the byte 0xff at offset {offset} is not UTF-8")


def test_load_chip_names_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "chip.cfg"
    path.write_bytes(CHIP.replace(b"name = chip7", b"name = chip\xff7"))
    with pytest.raises(ConfigError, match=not_utf8(path, CHIP.index(b"chip7") + 4)):
        load_chip(path)
    assert main(["sweep", "--points", "3", "--config", str(path)]) == 2
    assert "is not UTF-8" in capsys.readouterr().err


@pytest.fixture
def bad_csv(tmp_path):
    """A sweep CSV whose last byte but one is 0xff, and its offset."""
    path = tmp_path / "s.csv"
    assert main(["sweep", "--points", "5", "--out", str(path)]) == 0
    data = path.read_bytes()
    path.write_bytes(data[:-2] + b"\xff\n")
    return path, len(data) - 2


def test_read_sweep_csv_names_a_byte_that_is_not_utf8(bad_csv):
    path, offset = bad_csv
    with pytest.raises(ConfigError, match=not_utf8(path, offset)):
        read_sweep_csv(path)


def test_append_refuses_a_file_with_a_byte_that_is_not_utf8(bad_csv, capsys):
    path, offset = bad_csv
    before = path.read_bytes()
    assert main(["sweep", "--points", "5", "--append", "--out", str(path)]) == 2
    assert re.search(not_utf8(path, offset), capsys.readouterr().err)
    assert path.read_bytes() == before


@pytest.mark.parametrize("name", ["chip%7", "chip%%7", "%(x)s"])
def test_a_percent_in_a_chip_file_is_a_plain_character(tmp_path, name):
    path = tmp_path / "chip.cfg"
    path.write_bytes(CHIP.replace(b"name = chip7", f"name = {name}".encode()))
    assert load_chip(path).name == name


@st.composite
def mutants(draw, data):
    """data with one to three spans replaced by a token of TOKENS."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(start + 40, len(data))))
        data = data[:start] + draw(st.sampled_from(TOKENS)) + data[stop:]
    return data


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


def read_or_refuse(read, path, data):
    """read(path) of a file holding data, with warnings as errors: the
    result, or None when it raises an FdmSimError."""
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(path)
        except FdmSimError:
            return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_chip_gives_a_chip_or_a_named_error_on_mutated_bytes(mutant_dir, data):
    read_or_refuse(load_chip, mutant_dir / "chip.cfg", data.draw(mutants(CHIP)))


@pytest.fixture(scope="module")
def sweep_bytes(mutant_dir):
    path = mutant_dir / "sweep.csv"
    write_sweep_csv(path, run_flux_sweep(load_chip(builtin_chip_path()),
                                         np.linspace(-0.01, 0.01, 5), config_hash="h"))
    return path.read_bytes()


def write_or_refuse(write, path, result) -> bool:
    """write(path, result) with warnings as errors: True when it wrote a
    file, False when it raised an FdmSimError and left no file."""
    path.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            write(path, result)
        except FdmSimError:
            assert not path.exists()
            return False
    assert path.is_file()
    return True


def assert_same_sweep(back, result):
    assert (back.kind, back.axis_name, back.device_ids, back.metadata) == (
        result.kind, result.axis_name, result.device_ids, result.metadata)
    # bit for bit, NaN included, and -0.0 is not 0.0
    assert back.axis_values.tobytes() == result.axis_values.tobytes()
    assert back.tables.keys() == result.tables.keys()
    for name, table in result.tables.items():
        assert back.tables[name].tobytes() == table.tobytes(), name


@pytest.fixture(scope="module")
def channelize_bytes(mutant_dir):
    """The sweep CSV of `fdmsim channelize --out`."""
    trace = mutant_dir / "trace.bin"
    write_trace(trace, synthesize_multitone([ToneSpec(10e6, 0.5)], 400, 1e9))
    path = mutant_dir / "channels.csv"
    assert main(["channelize", "--trace", str(trace), "--channels", "10e6,-30e6",
                 "--window", "hann", "--out", str(path)]) == 0
    return path.read_bytes()


def check_mutant(mutant_dir, data):
    """A mutant that reads is written back by both writers, each giving a
    file or a named error (the JSON writer refuses NaN and inf).  What the
    reader gives the CSV writer keeps: the CSV written reads back as the
    first read, and writing that again gives the same bytes."""
    result = read_or_refuse(read_sweep_csv, mutant_dir / "mutant.csv", data)
    if result is None:
        return
    write_or_refuse(write_sweep_json, mutant_dir / "written.json", result)
    written = mutant_dir / "written.csv"
    assert write_or_refuse(write_sweep_csv, written, result)
    back = read_or_refuse(read_sweep_csv, written, written.read_bytes())
    assert back is not None
    assert_same_sweep(back, result)
    again = mutant_dir / "again.csv"
    assert write_or_refuse(write_sweep_csv, again, back)
    assert again.read_bytes() == written.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_read_sweep_csv_gives_a_sweep_or_a_named_error_on_mutated_bytes(mutant_dir, sweep_bytes,
                                                                        data):
    check_mutant(mutant_dir, data.draw(mutants(sweep_bytes)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_read_sweep_csv_gives_a_sweep_or_a_named_error_on_a_mutated_channelize_file(
        mutant_dir, channelize_bytes, data):
    check_mutant(mutant_dir, data.draw(mutants(channelize_bytes)))
