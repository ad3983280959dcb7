"""Lanes: the threads the row-block kernels run on.

The telegraph spectrum (dynamics) and the noisy shots of the acquisition
core (rxchain._receive) run their blocks of rows with run(job, blocks,
lanes), on at most lane_count() lanes, in one call each: the telegraph
spectrum numbers the blocks of all its chunks in one sequence, and its
job lays out each chunk's flips as the lanes reach it, so the threads
start once per spectrum.  Block i runs on lane i % lanes, and each lane
has buffers of its own.  Lane 0 is the calling thread and
the others are plain threads: threading is loaded with numpy, where
concurrent.futures would add 0.6 MB.  Each module binds lane_count as
_lane_count and looks it up at call time, so one module's lane count can
be set on its own.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

# Most threads a kernel runs its blocks on.
MAX_LANES = 4


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
