"""Every file format of the package, and the one writer behind them.

Sweep CSV and JSON (write_sweep_csv, read_sweep_csv, write_sweep_json),
tone measurement CSV (write_measurements_csv) and binary IQ traces
(write_trace, read_trace) are written and read here, and every file
goes through _write_file.  The '#' header helpers are shared by both
CSV formats, and _csv_columns is the one column layout of a sweep CSV.

IQ trace layout (all little-endian):

    offset  size  field
    0       8     magic, the ASCII bytes b"FDMTRACE"
    8       4     format version, uint32, currently 1
    12      4     reserved, uint32, written as 0
    16      8     sample_rate, float64, samples per second
    24      8     n_samples, uint64
    32      -     payload: n_samples pairs of float64 (I, Q), interleaved

The payload is the baseband complex envelope only; the carrier frequency
is not persisted.

Every text file is UTF-8: the writers encode it, and the readers refuse
a byte that is not UTF-8 with a ConfigError naming the file and the
byte's offset (_read_utf8).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, TraceFormatError
from .txchain import IQTrace

if TYPE_CHECKING:
    from .rxchain import ToneMeasurement

MAGIC = b"FDMTRACE"
VERSION = 1
_HEADER = struct.Struct("<8sIIdQ")
assert _HEADER.size == 32

CSV_FORMAT_TAG = "fdmsim-sweep-v1"


def _write_file(path: str | Path, data) -> None:
    """Write data, a str or any bytes-like object, to path, creating the
    file or rewriting it in place.

    The bytes are those of open(path, "w", encoding="utf-8", newline="\n")
    for text and open(path, "wb") for bytes, but the file is not
    opened with O_TRUNC: ext4 (auto_da_alloc) flushes a file truncated to
    zero when it is closed, which costs tens of milliseconds per rewrite.
    The file is cut at the end of the new bytes instead, if it is a
    regular file (a FIFO or device cannot be truncated).  Like "w", this
    follows symlinks, honours the umask, and is not atomic: a process
    killed mid-write can leave a damaged file.

    Text is encoded before the file is opened: text that UTF-8 cannot
    hold, such as a lone surrogate in a name, raises ConfigError and
    leaves the path as it was.
    """
    if isinstance(data, str):
        encoder = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
        try:
            encoder.write(data)
            encoder.flush()
        except UnicodeEncodeError as exc:
            raise ConfigError(f"refusing to write {path}: {exc}") from None
        data = encoder.buffer.getvalue()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _read_utf8(path: str | Path) -> io.StringIO:
    """The text of the file at path, decoded as UTF-8, as a text stream
    that splits lines as open(path) does.  A byte that is not UTF-8
    raises ConfigError naming the file and the byte's offset."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: the byte 0x{data[exc.start]:02x} at offset {exc.start} "
                          "is not UTF-8") from None
    return io.StringIO(text, newline=None)


def write_trace(path: str | Path, trace: IQTrace) -> None:
    """Write a trace in the documented binary layout.

    The header and the interleaved samples are filled into one buffer of
    the file's size, which is written as it is: the trace's payload is
    held once, not copied again on its way to the file.  A trace with a
    NaN or infinite sample raises ConfigError before anything is written,
    as read_trace would refuse the file."""
    if not np.isfinite(trace.samples).all():
        raise ConfigError("refusing to write a trace with non-finite (NaN or inf) samples")
    data = np.empty(_HEADER.size + 16 * trace.n_samples, dtype=np.uint8)
    _HEADER.pack_into(data, 0, MAGIC, VERSION, 0, float(trace.sample_rate), trace.n_samples)
    payload = data[_HEADER.size:].view("<f8").reshape(-1, 2)
    payload[:, 0] = trace.samples.real
    payload[:, 1] = trace.samples.imag
    _write_file(path, data)


def read_trace(path: str | Path) -> IQTrace:
    """Read a trace written by write_trace.

    Raises TraceFormatError on bad magic, unsupported version, a header
    sample rate that is not finite and > 0, a header sample count of 0,
    a payload whose length disagrees with the header, or a NaN or
    infinite sample.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TraceFormatError(f"{path}: file shorter than the 32-byte header")
    magic, version, _reserved, sample_rate, n_samples = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    if not 0 < sample_rate < math.inf:
        raise TraceFormatError(f"{path}: header sample_rate {sample_rate} is not finite and > 0")
    if n_samples == 0:
        raise TraceFormatError(f"{path}: header n_samples is 0; a trace needs a sample")
    expected = _HEADER.size + 16 * n_samples
    if len(blob) != expected:
        raise TraceFormatError(
            f"{path}: payload length {len(blob) - _HEADER.size} does not match "
            f"header n_samples {n_samples}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise TraceFormatError(f"{path}: payload holds a non-finite (NaN or inf) sample")
    samples = flat[0::2] + 1j * flat[1::2]
    return IQTrace(samples=samples, sample_rate=sample_rate)


# ---------------------------------------------------------------------------
# sweep CSV and JSON


@dataclass
class SweepResult:
    """One independent axis, several named tables of shape (n_axis,
    n_columns).  The columns are derived from device_ids: dev<id> for each
    id, or the one composite column feedline when there are none.  A
    repeated device id, whose second column no label could reach, raises
    ConfigError."""

    kind: str
    axis_name: str
    axis_values: np.ndarray
    tables: dict[str, np.ndarray]
    device_ids: tuple[int, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axis_values = np.asarray(self.axis_values, dtype=float)
        if self.axis_values.ndim != 1 or self.axis_values.size == 0:
            raise ConfigError("axis_values must be a non-empty 1-d array")
        if len(set(self.device_ids)) < len(self.device_ids):
            raise ConfigError(f"duplicate device ids in {tuple(self.device_ids)}")
        shape = (self.axis_values.size, len(self.columns))
        for name, table in self.tables.items():
            table = np.asarray(table, dtype=float)
            if table.shape != shape:
                raise ConfigError(
                    f"table {name!r} has shape {table.shape}, expected {shape}"
                )
            self.tables[name] = table

    @property
    def columns(self) -> tuple[str, ...]:
        return _columns(self.device_ids)

    def column(self, table: str, label: str | int) -> np.ndarray:
        """One column as a 1-d array; an int label means a device id."""
        if isinstance(label, int):
            label = f"dev{label}"
        try:
            j = self.columns.index(label)
        except ValueError:
            raise ConfigError(f"no column {label!r}; have {self.columns}") from None
        return self.tables[table][:, j]


def _columns(device_ids) -> tuple[str, ...]:
    """The columns of a sweep: dev<id> for each device id, else feedline."""
    return tuple(f"dev{d}" for d in device_ids) or ("feedline",)


def _header(result: SweepResult) -> dict:
    """The header of a sweep file: its metadata, its kind and, when it
    has any, its device ids, as the CSV header lines and the JSON
    metadata block write them.  Metadata holding a kind or device_ids
    key raises ConfigError: those facts are the result's fields."""
    clash = sorted({"kind", "device_ids"} & {str(key) for key in result.metadata})
    if clash:
        raise ConfigError(f"metadata key {clash[0]!r} is a field of the sweep; "
                          "set the field, not the metadata")
    header = {**result.metadata, "kind": result.kind}
    if result.device_ids:
        header["device_ids"] = " ".join(str(d) for d in result.device_ids)
    return header


def _format_value(v) -> str:
    """A metadata value as header text: repr of its Python value for a
    float or a numpy number, str for anything else.  (np.float64 is a
    float, and numpy 2 gives it the repr 'np.float64(0.5)'.)"""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return repr(int(v))
    return str(v)


def _csv_columns(tables, columns) -> list[tuple[str, int, str]]:
    """The data columns of a sweep CSV in file order, the one layout rule
    of the format: (table, j, "<table>_<columns[j]>") for each table in
    sorted order and each of its columns j in turn.  Entry i is the
    file's column i + 2, the axis being column 1."""
    return [
        (table, j, f"{table}_{col}")
        for table in sorted(tables)
        for j, col in enumerate(columns)
    ]


def _csv_column_row(result: SweepResult) -> str:
    layout = _csv_columns(result.tables, result.columns)
    return ",".join([result.axis_name] + [name for _, _, name in layout])


def _csv_header_lines(result: SweepResult) -> list[str]:
    lines = [f"# {CSV_FORMAT_TAG}"]
    lines += [f"# {key}={text}" for key, text in _header_items(_header(result))]
    lines.append(_csv_column_row(result))
    return lines


def _csv_data_lines(result: SweepResult) -> list[str]:
    layout = _csv_columns(result.tables, result.columns)
    rows = np.column_stack(
        [result.axis_values] + [result.tables[table][:, j] for table, j, _ in layout]
    )
    return [",".join(map(repr, row)) for row in rows.tolist()]


def write_sweep_csv(path: str | Path, result: SweepResult, append: bool = False) -> None:
    """Write a sweep as CSV with '#' metadata header lines.

    Floats are serialized with repr() so re-runs are byte-identical.
    The header (see _header) must read back as written, so it is first
    read as read_sweep_csv would read it.  A result whose axis name,
    device ids or table names would come back otherwise is refused
    before a byte is written: a ',' or a line break in a name, or a
    device id that is not an integer.  So is metadata that would not
    read back as written: a kind or device_ids key, a line break in a
    key or value, an '=' in a key, or outer whitespace around either.
    With append=True and an existing file, the new rows must come from
    the same configuration and layout: the file must be UTF-8 and begin
    with the format tag line, its header must pass the reader's layout check, and
    its config_hash and kind headers and its column row must match the
    result's; any mismatch is refused before a byte is written.  Without
    append, an existing file is rewritten in place, not truncated first
    (_write_file).
    """
    path = Path(path)
    header = _csv_header_lines(result)
    where = f"refusing to write {path}"
    # The lines as a file splits them: a name may hold a line break.
    written = io.StringIO("\n".join(header), newline=None)
    metadata, column_row, _ = _read_csv_header(written, where)
    read_back = _csv_layout(where, metadata, column_row)
    ours = (result.axis_name, tuple(result.device_ids), sorted(result.tables))
    if read_back != ours:
        raise ConfigError(f"{where}: axis name, device ids and tables {ours} "
                          f"would read back as {read_back}")
    if append and path.exists():
        where = f"refusing to append to {path}"
        existing, column_row, _ = _read_csv_header(_read_utf8(path), where)
        _csv_layout(where, existing, column_row)
        checks = (
            ("config_hash", existing.get("config_hash"), result.metadata.get("config_hash")),
            ("kind", existing.get("kind"), result.kind),
            ("column row", column_row, _csv_column_row(result)),
        )
        for what, theirs, ours in checks:
            if ours is None or theirs is None or str(ours) != str(theirs):
                raise ConfigError(f"{where}: {what} {theirs!r} does not match {ours!r}")
        body = "\n".join(_csv_data_lines(result)) + "\n"
        with open(path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
        return
    _write_file(path, "\n".join(header + _csv_data_lines(result)) + "\n")


def _read_csv_header(fh, where) -> tuple[dict[str, str], str | None, int]:
    """The '#' metadata of a sweep CSV, its column row (None if absent)
    and the number of the last line read, reading the open file fh up to
    and including the column row.  Blank lines are skipped.  The first
    line that is not blank must be the format tag line,
    '# fdmsim-sweep-v1'; otherwise raises ConfigError beginning with
    where (the file, for the reader)."""
    number, text = 0, ""
    for number, line in enumerate(fh, 1):
        text = line.strip()
        if text:
            break
    if text != f"# {CSV_FORMAT_TAG}":
        raise ConfigError(f"{where}: the file does not begin with the format tag line "
                          f"'# {CSV_FORMAT_TAG}'")
    metadata = {}
    for number, line in enumerate(fh, number + 1):
        text = line.strip()
        if text.startswith("#"):
            key, eq, value = text[1:].partition("=")
            if eq:
                metadata[key.strip()] = value.strip()
        elif text:
            return metadata, text, number
    return metadata, None, number


def _csv_layout(where, metadata: dict[str, str], column_row: str | None):
    """The axis name, device ids and sorted table names that a sweep
    CSV's header metadata and column row describe.

    The columns are those of the device_ids header (see _columns).  Each
    data column name is <table>_<column>, split at its last '_'.  The
    column row must then be the one _csv_columns lays out for these
    tables and columns.  Otherwise, and for a column row without data
    columns or a device_ids header that is not a list of distinct
    integers, raises ConfigError beginning with where (the file, for the
    reader)."""
    names = (column_row or "").split(",")
    if len(names) < 2:
        raise ConfigError(f"{where}: column row {column_row!r} names no data column")
    try:
        device_ids = tuple(int(tok) for tok in metadata.get("device_ids", "").split())
    except ValueError:
        raise ConfigError(f"{where}: header line '# device_ids={metadata['device_ids']}' "
                          f"does not list integer device ids") from None
    if len(set(device_ids)) < len(device_ids):
        raise ConfigError(f"{where}: header line '# device_ids={metadata['device_ids']}' "
                          "repeats a device id")
    columns = _columns(device_ids)
    tables = sorted({name.rpartition("_")[0] for name in names[1:]})
    expected = names[:1] + [name for _, _, name in _csv_columns(tables, columns)]
    for i, (got, want) in enumerate(itertools.zip_longest(names, expected), 1):
        if got != want:
            raise ConfigError(
                f"{where}: column {i} of the column row is "
                f"{'missing' if got is None else repr(got)}, but tables {tables} "
                f"over columns {list(columns)} put {'none' if want is None else repr(want)} "
                "there"
            )
    return names[0], device_ids, tables


def read_sweep_csv(path: str | Path) -> SweepResult:
    """Inverse of write_sweep_csv.  The kind and device_ids headers give
    the result's fields (kind "unknown" where it is missing), and the
    other headers its metadata, as strings.  A byte that is not UTF-8, a
    data row with the wrong cell count or a non-number, no data, or a
    header that _csv_layout refuses (a column row that is not the
    layout of its tables and device ids) raises ConfigError naming the
    file (and the line or column)."""
    path = Path(path)
    rows: list[list[float]] = []
    with _read_utf8(path) as fh:
        metadata, column_row, number = _read_csv_header(fh, path)
        n_cells = len((column_row or "").split(","))
        for number, line in enumerate(fh, number + 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            cells = text.split(",")
            if len(cells) != n_cells:
                raise ConfigError(f"{path}, line {number}: {len(cells)} cells, but the "
                                  f"column row has {n_cells}")
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                raise ConfigError(f"{path}, line {number}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path} holds no sweep data")
    axis_name, device_ids, tables = _csv_layout(path, metadata, column_row)
    metadata.pop("device_ids", None)
    data = np.array(rows)
    layout = list(enumerate(_csv_columns(tables, _columns(device_ids)), 1))
    return SweepResult(
        kind=metadata.pop("kind", "unknown"),
        axis_name=axis_name,
        axis_values=data[:, 0],
        tables={t: data[:, [i for i, (u, _, _) in layout if u == t]] for t in tables},
        device_ids=device_ids,
        metadata=metadata,
    )


def write_sweep_json(path: str | Path, result: SweepResult) -> None:
    """JSON twin of the CSV writer (sorted keys, lists for arrays).  Its
    metadata block is the CSV's header (see _header).  A NaN or infinite
    value in the axis or a table, which JSON cannot hold, raises
    ConfigError naming it before a byte is written."""
    arrays = {f"axis {result.axis_name!r}": result.axis_values,
              **{f"table {name!r}": table for name, table in result.tables.items()}}
    for what, values in arrays.items():
        if not np.isfinite(values).all():
            raise ConfigError(f"refusing to write {path}: {what} holds NaN or inf, "
                              "which JSON cannot hold")
    header = _header(result)
    payload = {
        "format": CSV_FORMAT_TAG,
        "kind": result.kind,
        "axis_name": result.axis_name,
        "axis_values": [float(x) for x in result.axis_values],
        "columns": list(result.columns),
        "device_ids": list(result.device_ids),
        "tables": {
            name: [[float(v) for v in row] for row in table]
            for name, table in sorted(result.tables.items())
        },
        "metadata": {text: _format_value(header[key]) for text, key in _text_keys(header)},
    }
    _write_file(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# tone measurements and the '#' header block


def write_measurements_csv(
    path: str | Path,
    measurements: Sequence[ToneMeasurement],
    metadata: dict[str, object] | None = None,
) -> None:
    """Write tone measurements as CSV with a '#' metadata header block.

    Metadata that would not read back as written (a line break, an '='
    in a key, outer whitespace; see _header_items) raises ConfigError
    before anything is written.
    """
    lines = ["# fdmsim tone measurements v1"]
    lines += [f"# {key}: {text}" for key, text in _header_items(metadata or {})]
    lines.append("channel_hz,amplitude,phase_rad,noise_std")
    for m in measurements:
        lines.append(
            f"{m.channel_frequency!r},{m.amplitude!r},{m.phase!r},{m.noise_std!r}"
        )
    _write_file(path, "\n".join(lines) + "\n")


def _text_keys(metadata: dict) -> list[tuple[str, object]]:
    """(str(key), key) for every metadata key, sorted by str(key), so that
    keys of mixed types sort.  Two keys with one text, such as 1 and "1",
    would be written as one: ConfigError."""
    keys = sorted(((str(key), key) for key in metadata), key=lambda pair: pair[0])
    for (text, a), (other, b) in zip(keys, keys[1:]):
        if text == other:
            raise ConfigError(f"metadata keys {a!r} and {b!r} are both written as {text!r}")
    return keys


def _header_items(metadata: dict) -> list[tuple[str, str]]:
    """(str(key), _format_value(value)) pairs of a '#' header block,
    sorted by key text.

    Every pair must read back as written, so ConfigError is raised for
    two keys with the same text (see _text_keys), a line break in a key
    or value (it would split its header line and the reader would take
    the rest for data), an '=' in a key (the sweep reader splits a header
    line at its first '='), and leading or trailing whitespace in a key
    or value (the readers strip it).
    """
    items = [(text, _format_value(metadata[key])) for text, key in _text_keys(metadata)]
    for key, text in items:
        if any(brk in key or brk in text for brk in "\r\n"):
            raise ConfigError(
                f"metadata {key!r} = {text!r} holds a line break; "
                "header lines must be single lines"
            )
        if "=" in key:
            raise ConfigError(f"metadata key {key!r} holds '=', which ends a header key")
        if key != key.strip() or text != text.strip():
            raise ConfigError(
                f"metadata {key!r} = {text!r} has outer whitespace, "
                "which the reader strips"
            )
    return items
