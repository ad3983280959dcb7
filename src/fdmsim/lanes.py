"""Lanes: the threads the row-block kernels run on.

The telegraph spectrum (dynamics) and the noisy shots of the acquisition
core (rxchain._receive) run their work with run(job, blocks, lanes), on
at most lane_count() lanes, in one call each, so the threads start once
per call.  Block i runs on lane i % lanes.  In the telegraph spectrum a
block is a whole chunk, drawn from its own stream, and each lane has
buffers and a Generator of its own.  The shot loop runs each lane once
(blocks = lanes) as a pipeline: every lane draws the noise of the shot
it claims next into a shared ring, and only lane 0 builds, quantizes
and projects the shots.  Lane 0 is the calling thread and the others
are plain threads: threading is loaded with numpy, where
concurrent.futures would add 0.6 MB.  Each module binds lane_count as
_lane_count and looks it up at call time, so one module's lane count
can be set on its own.

Lanes whose blocks call BLAS run inside one_blas_thread: OpenBLAS starts
threads of its own by default, and those would compete with the lanes
for the same cores.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Iterator

# Most threads a kernel runs its blocks on.
MAX_LANES = 4

# OpenBLAS's thread-count symbols: numpy's bundled scipy-openblas
# build, then a plain OpenBLAS.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# The (get, set) pair, () where none is found, None before the lookup;
# and the count of one_blas_thread bodies running and the thread count
# the first of them found, both guarded by _blas_lock.
_blas: tuple | None = None
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 1


def lane_count() -> int:
    """The cores this process may run on, at most MAX_LANES."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, MAX_LANES))


def run(job: Callable[[int, int], None], blocks: int, lanes: int) -> None:
    """Call job(lane, i) for each block i in range(blocks), on lane i % lanes.

    Starts min(lanes, blocks) - 1 threads.  A lane that raises runs no
    further block.  Every lane is joined, then the first failure is
    raised again."""
    failures: list[Exception] = []

    def run_lane(lane: int) -> None:
        try:
            for i in range(lane, blocks, lanes):
                job(lane, i)
        except Exception as exc:  # raised again on the calling thread
            failures.append(exc)

    others = [threading.Thread(target=run_lane, args=(lane,), name=f"lane-{lane}")
              for lane in range(1, min(lanes, blocks))]
    for thread in others:
        thread.start()
    try:
        run_lane(0)
    finally:
        for thread in others:
            thread.join()
    if failures:
        raise failures[0]


def _blas_functions() -> tuple:
    """OpenBLAS's get and set thread-count functions, or () where numpy's
    core extension module reaches neither pair.  Looked up on the first
    call, never at import; the caller holds _blas_lock."""
    global _blas
    if _blas is None:
        import ctypes

        import numpy

        _blas = ()
        try:
            library = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        except (AttributeError, OSError):
            return _blas
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                _blas = (get, set_)
                break
    return _blas


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Runs the body with OpenBLAS on one thread, then puts the caller's
    thread count back, also when the body raises.  The count is
    process-wide, so bodies running at once on several threads share one
    pin: the first to enter saves the count and the last to leave
    restores it.  Does nothing where OpenBLAS is not found."""
    global _blas_users, _blas_saved
    with _blas_lock:
        blas = _blas_functions()
        if blas and _blas_users == 0:
            _blas_saved = blas[0]()
            if _blas_saved != 1:
                blas[1](1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if blas and _blas_users == 0 and _blas_saved != 1:
                blas[1](_blas_saved)
