"""The lane runner: block schedule, threads and failures, and the
telegraph turnstile's behaviour when a lane fails."""

import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import fdmsim.dynamics
import fdmsim.lanes
from fdmsim.lanes import run
from fdmsim.seeding import child_seed, derive_rng

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
        # n = 864: four chunks of at most 122 rows, in blocks of 61 or
        # 40 rows
        fdmsim.dynamics.relaxation_telegraph_spectrum(
            gamma=TWO_PI * 0.1e6, shift=TWO_PI * 2.5e6, duration=20e-6,
            n_trajectories=487, seed=5)

    monkeypatch.setattr(fdmsim.dynamics, "_lane_count", lambda: lanes)
    before = threading.active_count()
    error = call_under_watchdog(spectrum)
    assert isinstance(error, RuntimeError) and str(error) == "block failed"
    assert threading.active_count() == before


# n = 41 samples a trajectory: 250 000 trajectories make six chunks of
# 48780, 48780, 48780, 48780, 48780 and 6100 rows.
MULTI_CHUNK = dict(gamma=TWO_PI * 1e6, shift=TWO_PI * 0.5e6, duration=1e-6,
                   n_trajectories=250_000, seed=3, sample_rate=41e6)
CHUNK_ROWS = [48780] * 5 + [6100]


def lane_of(chunk, lanes, caller):
    """The thread name lanes.run gives the lane that runs chunk."""
    lane = chunk % lanes
    return caller.name if lane == 0 else f"lane-{lane}"


class ChunkProbe:
    """Wraps the telegraph helpers to watch one spectrum's chunks.

    Tells each chunk by the state of the generator its flips are drawn
    from, which must be derive_rng(child_seed(seed, c)) for some chunk c.
    Records each draw as (chunk, rows, thread name); the most layouts
    alive at once and whether two of them ever belonged to one thread
    (each is watched through a weak reference to its totals array); and
    the _run_lanes calls.  failing = (stage, chunk) makes that chunk's
    "draw" or "block" raise."""

    def __init__(self, monkeypatch, seed, chunks, failing=(None, None)):
        self.chunk_of = {
            derive_rng(child_seed(seed, c)).bit_generator.state["state"]["state"]: c
            for c in range(chunks)}
        self.draws = []
        self.layouts = []
        self.most_alive = 0
        self.shared_lane = False
        self.runs = 0
        self.guard = threading.Lock()
        self.current = {}
        stage, failing_chunk = failing
        flips = fdmsim.dynamics._telegraph_flips
        lay_out = fdmsim.dynamics._lay_out_chunk
        block = fdmsim.dynamics._telegraph_block
        run_lanes = fdmsim.dynamics._run_lanes

        def probe_flips(rng, p, m, n):
            chunk = self.chunk_of[rng.bit_generator.state["state"]["state"]]
            name = threading.current_thread().name
            with self.guard:
                self.draws.append((chunk, m, name))
                self.current[name] = chunk
            if (stage, failing_chunk) == ("draw", chunk):
                raise RuntimeError("draw failed")
            return flips(rng, p, m, n)

        def probe_lay_out(rng, p, m, n):
            layout = lay_out(rng, p, m, n)
            with self.guard:
                self.layouts.append((weakref.ref(layout[3]), threading.current_thread().name))
                self.check_alive()
            return layout

        def probe_block(*args):
            name = threading.current_thread().name
            with self.guard:
                self.check_alive()
                failed = (stage, failing_chunk) == ("block", self.current[name])
            if failed:
                raise RuntimeError("block failed")
            return block(*args)

        def probe_run_lanes(job, blocks, lanes):
            self.runs += 1
            return run_lanes(job, blocks, lanes)

        monkeypatch.setattr(fdmsim.dynamics, "_telegraph_flips", probe_flips)
        monkeypatch.setattr(fdmsim.dynamics, "_lay_out_chunk", probe_lay_out)
        monkeypatch.setattr(fdmsim.dynamics, "_telegraph_block", probe_block)
        monkeypatch.setattr(fdmsim.dynamics, "_run_lanes", probe_run_lanes)

    def alive(self):
        return [name for ref, name in self.layouts if ref() is not None]

    def check_alive(self):
        owners = self.alive()
        self.most_alive = max(self.most_alive, len(owners))
        self.shared_lane |= len(set(owners)) < len(owners)


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
    probe = ChunkProbe(monkeypatch, MULTI_CHUNK["seed"], len(CHUNK_ROWS))
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
    # chunk c is drawn once, from its own stream, with its rows, on lane
    # c % lanes
    assert sorted(probe.draws) == [
        (c, m, lane_of(c, lanes, caller)) for c, m in enumerate(CHUNK_ROWS)]
    # threads start once per spectrum
    assert probe.runs == 1
    assert len([t for t in started if t.name.startswith("lane-")]) == lanes - 1
    # each lane holds at most its own chunk's layout, and none outlives the call
    assert 1 <= probe.most_alive <= lanes
    assert not probe.shared_lane
    assert probe.alive() == []


def check_failed_chunk(monkeypatch, lanes, stage, failing_chunk):
    """The spectrum on lanes lanes, with the draw or a block of
    failing_chunk raising: the call raises that error rather than hang,
    leaves no thread running, draws no chunk twice, and the failed lane
    runs no further chunk.  No chunk after the failed one can be added,
    so another lane draws at most one more: it then waits at the
    turnstile until the failure opens it."""
    callers = []

    def spectrum(caller):
        callers.append(caller)
        fdmsim.dynamics.relaxation_telegraph_spectrum(**MULTI_CHUNK)

    with monkeypatch.context() as patch:
        patch.setattr(fdmsim.dynamics, "_lane_count", lambda: lanes)
        probe = ChunkProbe(patch, MULTI_CHUNK["seed"], len(CHUNK_ROWS),
                           failing=(stage, failing_chunk))
        before = threading.active_count()
        error = call_under_watchdog(spectrum)
    assert isinstance(error, RuntimeError) and str(error) == f"{stage} failed"
    assert threading.active_count() == before
    draws = probe.draws
    assert len({c for c, _, _ in draws}) == len(draws)
    failed_lane = lane_of(failing_chunk, lanes, callers[0])
    assert max(c for c, _, name in draws if name == failed_lane) == failing_chunk
    for lane in range(lanes):
        name = lane_of(lane, lanes, callers[0])
        assert len([c for c, _, on in draws if on == name and c > failing_chunk]) <= 1


@pytest.mark.parametrize("on_caller", [False, True], ids=["worker-lane", "caller-lane"])
@pytest.mark.parametrize("lanes", [2, 3])
def test_telegraph_raises_a_block_failed_in_the_second_chunk(lanes, on_caller, monkeypatch):
    # The second chunk of a lane, after it has added its first: chunk
    # lanes on the caller's lane, chunk lanes + 1 on lane 1.
    check_failed_chunk(monkeypatch, lanes, "block", lanes + (0 if on_caller else 1))


@pytest.mark.parametrize("lanes", [2, 3])
def test_telegraph_raises_a_failed_draw(lanes, monkeypatch):
    # The first chunk (the caller's lane), the second (lane 1) and the
    # last one
    for failing_chunk in (0, 1, len(CHUNK_ROWS) - 1):
        check_failed_chunk(monkeypatch, lanes, "draw", failing_chunk)
