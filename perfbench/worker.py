"""One benchmark worker: a fresh interpreter that sets up, then runs one
workload in a closed loop until its deadline.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T \
        --deadline T --trace 0|1 --workdir DIR --out FILE

--spawned and --deadline are CLOCK_MONOTONIC readings taken by the
parent, so set-up time runs from just before this interpreter started.
Only the workload body is timed; checks, fingerprints and the self-test
run between iterations.  The yardstick is timed after set-up and after
every iteration.  The result is written to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Yardstick:
    """A fixed task that no change to fdmsim can speed up, timed next to
    every measurement so that the parent can scale out the machine's own
    speed changes.

    It mixes what the workloads do: an interpreter loop, small FFTs, and
    cumsum, exp and FFT over arrays larger than the cache.  The buffers
    are allocated once, so the yardstick adds a constant to peak RSS.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.random(4000) + 1j
        self.big = rng.random((64, 4320))
        self.work = np.empty_like(self.big)
        self.cwork = np.empty(self.big.shape, complex)
        self.out = np.empty_like(self.cwork)

    def time(self) -> float:
        np = self.np
        t0 = perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        for _ in range(60):
            np.fft.ifft(np.fft.fft(self.small))
        for _ in range(2):
            np.cumsum(self.big, axis=1, out=self.work)
            np.multiply(self.work, 1j, out=self.cwork)
            np.exp(self.cwork, out=self.cwork)
            np.fft.fft(self.cwork, axis=1, out=self.out)
        return perf_counter() - t0


class ClipCounter(logging.Handler):
    """Counts the ADC clipping warnings of fdmsim.rxchain."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("ADC clipped"):
            self.count += 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    # set-up: the start-up a CLI user pays
    sys.path.insert(0, str(SRC))
    import fdmsim.cli  # noqa: F401
    from fdmsim import chipfile, experiments

    if Path(fdmsim.__file__).resolve().parent != SRC / "fdmsim":
        print(f"fdmsim imported from {fdmsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    t0 = perf_counter()
    chip_path = chipfile.builtin_chip_path()
    chip = chipfile.load_chip(chip_path)
    chash = chipfile.config_hash(chip_path)
    chip_load_s = perf_counter() - t0

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(
        chip=chip,
        chash=chash,
        readout=experiments.make_readout_setup(chip, workload.readout_devices),
        workdir=args.workdir,
    )
    setup_s = _now() - args.spawned
    yardstick = Yardstick()
    yardstick_s = [yardstick.time()]

    clips = ClipCounter()
    logging.getLogger("fdmsim.rxchain").addHandler(clips)
    trace = tracer.Tracer() if args.trace else None
    switch = tracer.instrument(trace) if trace is not None else None

    inputs = workload.prepare(ctx, args.seed)
    iterations = []
    selftest_ok = None
    while True:
        # In a traced run every other iteration is traced, so the two
        # kinds share the process and the machine's state.
        traced = switch is not None and len(iterations) % 2 == 1
        if switch is not None:
            switch(traced)
            trace.run_id = len(iterations)
        clips.count = 0
        t0 = perf_counter()
        try:
            result = workload.run(ctx, inputs)
        except Exception:
            traceback.print_exc()
            result = None
        wall_s = perf_counter() - t0
        yardstick_s.append(yardstick.time())
        try:
            outcome = None if result is None else workload.check(ctx, inputs, result)
        except Exception:  # output the checks cannot read, e.g. of the wrong shape
            traceback.print_exc()
            outcome = None
        if outcome is None:
            iterations.append({"wall_s": wall_s, "traced": traced, "attempted": 1,
                               "failed": 1, "digest": "raised", "deviations": {},
                               "clip_events": clips.count})
            break
        iterations.append({
            "wall_s": wall_s,
            "traced": traced,
            "attempted": outcome.attempted,
            "failed": outcome.failed + clips.count,
            "digest": outcome.digest,
            "deviations": outcome.deviations,
            "clip_events": clips.count,
        })
        if selftest_ok is None:
            selftest_ok = workload.check(ctx, inputs, workload.corrupt(result)).failed > 0
        del result
        enough = len(iterations) >= (2 if switch is not None else 1)
        if enough and _now() + (perf_counter() - t0) > args.deadline:
            break

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans_file = None
    if trace is not None:
        spans_file = args.out.with_suffix(".spans.json")
        trace.dump(spans_file)
    args.out.write_text(json.dumps({
        "setup_s": setup_s,
        "chip_load_s": chip_load_s,
        "yardstick_s": yardstick_s,
        "peak_rss_kb": peak_rss_kb,
        "selftest_ok": bool(selftest_ok),
        "iterations": iterations,
        "spans_file": str(spans_file) if spans_file else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
