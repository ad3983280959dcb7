"""The lane runner: block schedule, threads and failures, and the
telegraph turnstile's behaviour when a lane fails."""

import math
import threading
import time

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
