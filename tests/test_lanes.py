"""The lane runner: block schedule, threads, the ordered finish and
failures, the telegraph's behaviour when a lane fails, and the one BLAS
thread the noisy shot loop's lanes run with."""

import math
import subprocess
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
# Bound at import, so that the watchdog still starts its thread in a test
# that patches threading.Thread.
WATCHDOG_THREAD = threading.Thread


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

    watched = WATCHDOG_THREAD(target=target, daemon=True)
    watched.start()
    watched.join(timeout)
    assert not watched.is_alive(), "the call did not return: deadlock"
    return outcome.get("error")


def record_run(blocks, lanes):
    """Run a job and a finish that record each call as (stage, lane,
    block, thread), in the order the calls happen: ("job", lane, i, ...)
    for job(lane, i), and ("finish", None, i, ...) when finish(i) starts
    and ("done", None, i, ...) when it returns.  Switches threads often,
    and a finish sleeps, so that finishes running at once would show.
    Returns the records and the thread that called run."""
    records = []
    guard = threading.Lock()

    def job(lane, i):
        with guard:
            records.append(("job", lane, i, threading.current_thread()))

    def finish(i):
        with guard:
            records.append(("finish", None, i, threading.current_thread()))
        time.sleep(1e-4)
        with guard:
            records.append(("done", None, i, threading.current_thread()))

    callers = []

    def call(caller):
        callers.append(caller)
        run(job, finish, blocks, lanes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert call_under_watchdog(call) is None
    finally:
        sys.setswitchinterval(interval)
    return records, callers[0]


@pytest.mark.parametrize("blocks", [1, 2, 7, 12])
@pytest.mark.parametrize("lanes", [1, 2, 3, 4])
def test_run_runs_block_i_on_lane_i_mod_lanes(blocks, lanes):
    records, caller = record_run(blocks, lanes)
    records = [(lane, i, thread) for stage, lane, i, thread in records if stage == "job"]
    assert sorted(i for _, i, _ in records) == list(range(blocks))
    assert all(lane == i % lanes for lane, i, _ in records)
    # a lane runs its blocks in turn, on one thread of its own
    for lane in range(lanes):
        mine = [(i, thread) for on, i, thread in records if on == lane]
        assert [i for i, _ in mine] == list(range(lane, blocks, lanes))
        assert len({thread for _, thread in mine}) <= 1
    lane_threads = {lane: thread for lane, _, thread in records}
    assert len(set(lane_threads.values())) == len(lane_threads) == min(blocks, lanes)
    assert lane_threads[0] is caller
    assert all(thread.name == f"lane-{lane}" for lane, thread in lane_threads.items() if lane)


@pytest.mark.parametrize("blocks", [1, 2, 7, 12])
@pytest.mark.parametrize("lanes", [1, 2, 3, 4])
def test_run_finishes_each_block_after_its_job_on_its_lane_in_block_order(blocks, lanes):
    records, _ = record_run(blocks, lanes)
    # the finishes run one at a time, in block order
    finishes = [(stage, i) for stage, _, i, _ in records if stage != "job"]
    assert finishes == [(stage, i) for i in range(blocks) for stage in ("finish", "done")]
    for i in range(blocks):
        (job_at, job_thread), = [(at, thread) for at, (stage, _, j, thread) in enumerate(records)
                                 if (stage, j) == ("job", i)]
        (finish_at, finish_thread), = [(at, thread)
                                       for at, (stage, _, j, thread) in enumerate(records)
                                       if (stage, j) == ("finish", i)]
        # after the block's job, on the thread that ran it
        assert job_at < finish_at
        assert finish_thread is job_thread


@pytest.mark.parametrize("blocks, lanes", [(5, 1), (1, 3)])
def test_run_starts_no_thread_for_one_lane_or_one_block(blocks, lanes, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(fdmsim.lanes.threading, "Thread", no_thread)
    records, caller = record_run(blocks, lanes)
    assert [(stage, i) for stage, _, i, _ in records] == [
        (stage, i) for i in range(blocks) for stage in ("job", "finish", "done")]
    assert {thread for _, _, _, thread in records} == {caller}


@pytest.mark.parametrize("stage", ["job", "finish"])
@pytest.mark.parametrize("failing_lane", [0, 1], ids=["caller-lane", "worker-lane"])
def test_run_raises_a_failed_job_or_finish_and_finishes_no_block_after_it(stage,
                                                                          failing_lane):
    # 12 blocks on 3 lanes; the second block of the failing lane fails,
    # while the other lanes run their jobs or wait for their finish.
    failing = 3 + failing_lane
    records = []
    guard = threading.Lock()

    def job(lane, i):
        with guard:
            records.append(("job", i, threading.current_thread()))
        if (stage, i) == ("job", failing):
            raise RuntimeError("job failed")
        # slow enough that a lane left running at the raise would show
        time.sleep(0.002)

    def finish(i):
        with guard:
            records.append(("finish", i, threading.current_thread()))
        if (stage, i) == ("finish", failing):
            raise RuntimeError("finish failed")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    before = threading.active_count()
    try:
        error = call_under_watchdog(lambda caller: run(job, finish, 12, 3))
    finally:
        sys.setswitchinterval(interval)
    assert isinstance(error, RuntimeError) and str(error) == f"{stage} failed"
    assert threading.active_count() == before
    finished = [i for recorded, i, _ in records if recorded == "finish"]
    # in block order, and none after the failed block
    assert finished == list(range(len(finished)))
    assert max(finished, default=-1) <= failing - (stage == "job")
    # the failing lane runs no further block
    (failed_on,) = {thread for recorded, i, thread in records if (recorded, i) == (stage, failing)}
    assert max(i for _, i, thread in records if thread is failed_on) == failing


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
        # n = 864: four chunks of at most 122 rows, in blocks of 60 or
        # 39 rows
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
    (each is watched through a weak reference to its starts array); and
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
                self.layouts.append((weakref.ref(layout[2]), threading.current_thread().name))
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

        def probe_run_lanes(job, finish, blocks, lanes):
            self.runs += 1
            return run_lanes(job, finish, blocks, lanes)

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
    so another lane draws at most one more: it then waits for its
    finish until the failure ends the wait."""
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


# --------------------------------------------------------------------------
# one BLAS thread while lanes run


@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in for OpenBLAS's thread count, starting at 3; records
    every count set."""
    count, sets = [3], []

    def set_count(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(fdmsim.lanes, "_blas", (lambda: count[0], set_count))
    return count, sets


def test_one_blas_thread_pins_once_for_overlapping_uses(fake_blas):
    # The first use to enter saves the count and the last to leave
    # restores it, also when they do not nest.
    count, sets = fake_blas
    first, second = fdmsim.lanes.one_blas_thread(), fdmsim.lanes.one_blas_thread()
    first.__enter__()
    assert count == [1]
    second.__enter__()
    first.__exit__(None, None, None)
    assert count == [1]
    second.__exit__(None, None, None)
    assert count == [3] and sets == [1, 3]


def test_one_blas_thread_restores_the_count_when_the_body_raises(fake_blas):
    count, sets = fake_blas
    with pytest.raises(RuntimeError, match="lane failed"):
        with fdmsim.lanes.one_blas_thread():
            assert count == [1]
            raise RuntimeError("lane failed")
    assert count == [3] and sets == [1, 3]


def test_one_blas_thread_restores_the_count_after_concurrent_callers(fake_blas):
    # More callers than cores, switching often: every body runs on one
    # thread, and the count is back once all have left.
    count, sets = fake_blas
    inside = threading.Barrier(8, timeout=10)
    seen = []

    def caller():
        for _ in range(20):
            with fdmsim.lanes.one_blas_thread():
                seen.append(count[0])
        with fdmsim.lanes.one_blas_thread():
            inside.wait()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * 160
    assert count == [3] and sets[-1] == 3 and fdmsim.lanes._blas_users == 0


def test_one_blas_thread_sets_nothing_on_one_thread_or_without_openblas(fake_blas, monkeypatch):
    count, sets = fake_blas
    count[0] = 1
    with fdmsim.lanes.one_blas_thread():
        pass
    assert sets == []
    monkeypatch.setattr(fdmsim.lanes, "_blas", ())
    with fdmsim.lanes.one_blas_thread():
        pass
    assert sets == [] and fdmsim.lanes._blas_users == 0


def test_import_does_not_look_up_openblas():
    # The lookup waits for the first noisy shot loop on lanes.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fdmsim.cli, fdmsim.lanes\n"
         "sys.exit(fdmsim.lanes._blas is not None)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
