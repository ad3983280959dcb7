"""How many threads ("lanes") the row-block kernels run on.

The telegraph spectrum (dynamics) and the noisy shots of the acquisition
core (rxchain._receive) run blocks of rows on up to lane_count() threads.
Each module binds it as _lane_count and looks it up at call time, so one
module's lane count can be set on its own.
"""

from __future__ import annotations

import os

# Most threads a kernel runs its blocks on.
MAX_LANES = 4


def lane_count() -> int:
    """The cores this process may run on, at most MAX_LANES."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, MAX_LANES))
