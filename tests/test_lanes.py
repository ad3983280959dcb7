"""The lane runner: block schedule, threads and failures, and the
telegraph turnstile's behaviour when a lane fails."""

import math
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

import fdmsim.dynamics
import fdmsim.lanes
from fdmsim.lanes import run

TWO_PI = 2 * math.pi


def record_run(blocks, lanes):
    """Run a job that records (lane, block, thread); returns the records."""
    records = []
    guard = threading.Lock()

    def job(lane, i):
        with guard:
            records.append((lane, i, threading.current_thread()))

    run(job, blocks, lanes)
    return records


@pytest.mark.parametrize("blocks", [1, 2, 7, 12])
@pytest.mark.parametrize("lanes", [1, 2, 3, 4])
def test_run_runs_block_i_on_lane_i_mod_lanes(blocks, lanes):
    records = record_run(blocks, lanes)
    assert sorted(i for _, i, _ in records) == list(range(blocks))
    assert all(lane == i % lanes for lane, i, _ in records)
    # a lane runs its blocks in turn, on one thread of its own
    for lane in range(lanes):
        mine = [(i, thread) for on, i, thread in records if on == lane]
        assert [i for i, _ in mine] == list(range(lane, blocks, lanes))
        assert len({thread for _, thread in mine}) <= 1
    lane_threads = {lane: thread for lane, _, thread in records}
    assert len(set(lane_threads.values())) == len(lane_threads) == min(blocks, lanes)
    assert lane_threads[0] is threading.current_thread()


@pytest.mark.parametrize("blocks, lanes", [(5, 1), (1, 3)])
def test_run_starts_no_thread_for_one_lane_or_one_block(blocks, lanes, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(fdmsim.lanes.threading, "Thread", no_thread)
    records = record_run(blocks, lanes)
    assert [i for _, i, _ in records] == list(range(blocks))
    assert {thread for _, _, thread in records} == {threading.current_thread()}


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_run_raises_a_lane_failure_after_every_lane_ends(failing):
    ran = []
    guard = threading.Lock()

    def job(lane, i):
        if lane == failing:
            raise RuntimeError(f"lane {lane} failed")
        # slow enough that a lane left running at the raise would show
        time.sleep(0.01)
        with guard:
            ran.append(i)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"lane {failing} failed"):
        run(job, 9, 3)
    assert threading.active_count() == before
    # the failing lane runs no further block, the others run all of theirs
    assert sorted(ran) == [i for i in range(9) if i % 3 != failing]


def call_under_watchdog(fn, timeout=60.0):
    """fn(caller) on a thread of its own, caller being that thread; the
    exception it raises.  Fails the test if fn is still running after
    timeout seconds, so that a deadlock cannot stall the suite."""
    outcome = {}

    def target():
        try:
            fn(threading.current_thread())
        except BaseException as exc:  # handed to the test thread
            outcome["error"] = exc

    watched = threading.Thread(target=target, daemon=True)
    watched.start()
    watched.join(timeout)
    assert not watched.is_alive(), "the call did not return: deadlock"
    return outcome.get("error")


@pytest.mark.parametrize("on_caller", [False, True], ids=["worker-lane", "caller-lane"])
@pytest.mark.parametrize("lanes", [2, 3])
def test_telegraph_raises_a_failed_block_rather_than_hang(lanes, on_caller, monkeypatch):
    block = fdmsim.dynamics._telegraph_block

    def spectrum(caller):
        def failing_block(*args):
            if (threading.current_thread() is caller) == on_caller:
                raise RuntimeError("block failed")
            return block(*args)

        monkeypatch.setattr(fdmsim.dynamics, "_telegraph_block", failing_block)
        # n = 864, 151 rows a block: 3 or more blocks to each lane
        fdmsim.dynamics.relaxation_telegraph_spectrum(
            gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=20e-6,
            n_trajectories=487, seed=5)

    monkeypatch.setattr(fdmsim.dynamics, "_lane_count", lambda: lanes)
    before = threading.active_count()
    error = call_under_watchdog(spectrum)
    assert isinstance(error, RuntimeError) and str(error) == "block failed"
    assert threading.active_count() == before


# n = 41 samples a trajectory: 100 000 trajectories make three chunks of
# 48780, 48780 and 2440 rows, run in 31 + 31 + 2 blocks of 1598 rows on
# two lanes and 46 + 46 + 3 blocks of 1065 rows on three.
MULTI_CHUNK = dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
                   n_trajectories=100_000, seed=3, sample_rate=41e6)
CHUNK_ROWS = [48780, 48780, 2440]


class ScheduleProbe:
    """Wraps the telegraph helpers to watch one spectrum's schedule.

    Records the rows of each flip draw, in order; for each draw, the
    chunks whose layout was alive and the blocks computed before it
    began; the chunk and thread of every block; the most layouts alive
    while a block ran; and the _run_lanes calls.  Layouts are held only
    through weak references, so one that is alive is held by the
    spectrum.  failing_draw is the number of a draw (from 1) that
    raises; failing_block = (chunk, caller, on_caller) makes that
    chunk's blocks raise on the caller's thread, or on the others'."""

    def __init__(self, monkeypatch, failing_draw=None, failing_block=None):
        self.draw_rows = []
        self.alive_at_draw = []
        self.done_at_draw = []
        self.blocks = []
        self.most_alive = 0
        self.runs = 0
        self.layouts = []
        self.guard = threading.Lock()
        drawing = threading.Lock()
        flips = fdmsim.dynamics._telegraph_flips
        lay_out = fdmsim.dynamics._lay_out_chunk
        block = fdmsim.dynamics._telegraph_block
        run_lanes = fdmsim.dynamics._run_lanes

        def probe_flips(rng, p, m, n):
            assert drawing.acquire(blocking=False), "two draws at once"
            try:
                self.draw_rows.append(m)
                if len(self.draw_rows) == failing_draw:
                    raise RuntimeError("draw failed")
                return flips(rng, p, m, n)
            finally:
                drawing.release()

        def probe_lay_out(rng, p, m, n):
            with self.guard:
                self.alive_at_draw.append(self.alive())
                self.done_at_draw.append([c for c, _ in self.blocks])
            layout = lay_out(rng, p, m, n)
            with self.guard:
                # the totals array lives exactly as long as its layout
                self.layouts.append(weakref.ref(layout[3]))
            return layout

        def probe_block(carrier, levels, lengths, totals, signal, power):
            with self.guard:
                chunk = next(c for c, ref in enumerate(self.layouts)
                             if ref() is not None and totals.base is ref())
                self.most_alive = max(self.most_alive, len(self.alive()))
            if failing_block is not None:
                failing_chunk, caller, on_caller = failing_block
                if chunk == failing_chunk and (threading.current_thread() is caller) == on_caller:
                    raise RuntimeError("block failed")
            block(carrier, levels, lengths, totals, signal, power)
            with self.guard:
                self.blocks.append((chunk, threading.current_thread()))

        def probe_run_lanes(job, blocks, lanes):
            self.runs += 1
            return run_lanes(job, blocks, lanes)

        monkeypatch.setattr(fdmsim.dynamics, "_telegraph_flips", probe_flips)
        monkeypatch.setattr(fdmsim.dynamics, "_lay_out_chunk", probe_lay_out)
        monkeypatch.setattr(fdmsim.dynamics, "_telegraph_block", probe_block)
        monkeypatch.setattr(fdmsim.dynamics, "_run_lanes", probe_run_lanes)

    def alive(self):
        return [c for c, ref in enumerate(self.layouts) if ref() is not None]


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_telegraph_runs_every_chunk_in_one_lane_session(lanes, monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(fdmsim.lanes.threading, "Thread", CountedThread)
    monkeypatch.setattr(fdmsim.dynamics, "_lane_count", lambda: 1)
    alone = fdmsim.dynamics.relaxation_telegraph_spectrum(**MULTI_CHUNK)
    assert started == []
    monkeypatch.setattr(fdmsim.dynamics, "_lane_count", lambda: lanes)
    probe = ScheduleProbe(monkeypatch)
    results = []

    def spectrum(caller):
        results.append(fdmsim.dynamics.relaxation_telegraph_spectrum(**MULTI_CHUNK))
        results.append(caller)

    # Switch threads often, so that a lane running ahead would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert call_under_watchdog(spectrum) is None
    finally:
        sys.setswitchinterval(interval)
    spectrum, caller = results
    assert np.array_equal(spectrum.power, alone.power)
    assert spectrum.out_of_band_fraction == alone.out_of_band_fraction
    # threads start once per spectrum, not once per chunk
    assert probe.runs == 1
    lanes_started = [thread for thread in started if thread.name.startswith("lane-")]
    assert len(lanes_started) == lanes - 1
    assert {thread for _, thread in probe.blocks} == {caller, *lanes_started}
    # the chunks are drawn one at a time, in chunk order, each once
    assert probe.draw_rows == CHUNK_ROWS
    rows = 3196 // lanes
    per_chunk = [-(-m // rows) for m in CHUNK_ROWS]
    assert Counter(c for c, _ in probe.blocks) == dict(enumerate(per_chunk))
    # a draw starts only once every block two chunks back is added (its
    # layout is dropped only then), so at most two layouts are alive
    for d, (alive, done) in enumerate(zip(probe.alive_at_draw, probe.done_at_draw)):
        assert all(c >= d - 1 for c in alive)
        assert Counter(c for c in done if c <= d - 2) == {
            c: per_chunk[c] for c in range(max(0, d - 1))}
    assert 1 <= probe.most_alive <= 2
    # each lane runs its blocks in order
    for thread in {thread for _, thread in probe.blocks}:
        mine = [c for c, on in probe.blocks if on is thread]
        assert mine == sorted(mine)
    assert probe.alive() == []


@pytest.mark.parametrize("on_caller", [False, True], ids=["worker-lane", "caller-lane"])
@pytest.mark.parametrize("lanes", [2, 3])
def test_telegraph_raises_a_block_failed_in_the_second_chunk(lanes, on_caller, monkeypatch):
    probes = []

    def spectrum(caller):
        probes.append(ScheduleProbe(monkeypatch, failing_block=(1, caller, on_caller)))
        fdmsim.dynamics.relaxation_telegraph_spectrum(**MULTI_CHUNK)

    monkeypatch.setattr(fdmsim.dynamics, "_lane_count", lambda: lanes)
    before = threading.active_count()
    error = call_under_watchdog(spectrum)
    assert isinstance(error, RuntimeError) and str(error) == "block failed"
    assert threading.active_count() == before
    # chunk 1's first block may be added before the failure, and the
    # last chunk drawn after it; no block of the last chunk runs
    assert probes[0].draw_rows in (CHUNK_ROWS[:2], CHUNK_ROWS)
    assert {c for c, _ in probes[0].blocks} <= {0, 1}


@pytest.mark.parametrize("lanes", [2, 3])
def test_telegraph_raises_a_failed_look_ahead_draw(lanes, monkeypatch):
    probes = []

    def spectrum(caller):
        # the second draw is the next chunk's, made by the lane that adds
        # the first chunk's first block
        probes.append(ScheduleProbe(monkeypatch, failing_draw=2))
        fdmsim.dynamics.relaxation_telegraph_spectrum(**MULTI_CHUNK)

    monkeypatch.setattr(fdmsim.dynamics, "_lane_count", lambda: lanes)
    before = threading.active_count()
    error = call_under_watchdog(spectrum)
    assert isinstance(error, RuntimeError) and str(error) == "draw failed"
    assert threading.active_count() == before
    # no lane draws again after the failure
    assert probes[0].draw_rows == CHUNK_ROWS[:2]
    assert {c for c, _ in probes[0].blocks} == {0}
