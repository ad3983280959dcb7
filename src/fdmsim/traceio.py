"""Binary IQ trace files, and the one writer behind every file the package writes.

Layout (all little-endian):

    offset  size  field
    0       8     magic, the ASCII bytes b"FDMTRACE"
    8       4     format version, uint32, currently 1
    12      4     reserved, uint32, written as 0
    16      8     sample_rate, float64, samples per second
    24      8     n_samples, uint64
    32      -     payload: n_samples pairs of float64 (I, Q), interleaved

The payload is the baseband complex envelope only; carrier frequency and
start time are not persisted.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import TraceFormatError
from .txchain import IQTrace

MAGIC = b"FDMTRACE"
VERSION = 1
_HEADER = struct.Struct("<8sIIdQ")
assert _HEADER.size == 32


def _write_file(path: str | Path, data) -> None:
    """Write data, a str or any bytes-like object, to path, creating the
    file or rewriting it in place.

    The bytes are those of open(path, "w", newline="\n") for text (in the
    default encoding) and open(path, "wb") for bytes, but the file is not
    opened with O_TRUNC: ext4 (auto_da_alloc) flushes a file truncated to
    zero when it is closed, which costs tens of milliseconds per rewrite.
    The file is cut at the end of the new bytes instead, if it is a
    regular file (a FIFO or device cannot be truncated).  Like "w", this
    follows symlinks, honours the umask, and is not atomic: a process
    killed mid-write can leave a damaged file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline="\n") if isinstance(data, str) else open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_trace(path: str | Path, trace: IQTrace) -> None:
    """Write a trace in the documented binary layout.

    The header and the interleaved samples are filled into one buffer of
    the file's size, which is written as it is: the trace's payload is
    held once, not copied again on its way to the file."""
    data = np.empty(_HEADER.size + 16 * trace.n_samples, dtype=np.uint8)
    _HEADER.pack_into(data, 0, MAGIC, VERSION, 0, float(trace.sample_rate), trace.n_samples)
    payload = data[_HEADER.size:].view("<f8").reshape(-1, 2)
    payload[:, 0] = trace.samples.real
    payload[:, 1] = trace.samples.imag
    _write_file(path, data)


def read_trace(path: str | Path) -> IQTrace:
    """Read a trace written by write_trace.

    Raises TraceFormatError on bad magic, unsupported version, or a
    payload whose length disagrees with the header.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise TraceFormatError(f"{path}: file shorter than the 32-byte header")
    magic, version, _reserved, sample_rate, n_samples = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 16 * n_samples
    if len(blob) != expected:
        raise TraceFormatError(
            f"{path}: payload length {len(blob) - _HEADER.size} does not match "
            f"header n_samples {n_samples}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    samples = flat[0::2] + 1j * flat[1::2]
    return IQTrace(samples=samples, sample_rate=sample_rate)
