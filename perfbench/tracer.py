"""Span recorder and the wrappers that put it around each fdmsim layer.

No file of the program changes: `instrument` replaces module attributes
with wrappers, in the namespace where the calling code looks each name
up, and can put the originals back.  `experiments.acquire` calls `channelize` from the `experiments`
namespace, `measure_crosstalk` calls it from `rxchain`, and
`apply_feedline` imports `s21_feedline` from `device` at call time, so
each of those namespaces is patched.

A span is (name, start, end, parent, run id).  Spans stay in memory and
are written out when the worker ends; `self_times` turns them into
per-layer self time (duration minus the time its child spans cover).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Span name -> the (module, attribute) pairs it wraps.  `experiments.driver`
# covers the two sweep drivers whose per-point loops call `acquire`.
SPANS = {
    "txchain.synth": [("experiments", "synthesize_multitone"), ("experiments", "upconvert_ssb"),
                      ("rxchain", "synthesize_multitone"), ("rxchain", "upconvert_ssb")],
    "device.s21": [("experiments", "s21_feedline"), ("device", "s21_feedline")],
    "rxchain.feedline": [("experiments", "apply_feedline"), ("rxchain", "apply_feedline")],
    "rxchain.downconvert": [("experiments", "downconvert"), ("rxchain", "downconvert")],
    "rxchain.noise_adc": [("experiments", "add_awgn"), ("experiments", "adc_quantize"),
                          ("rxchain", "add_awgn"), ("rxchain", "adc_quantize")],
    "rxchain.channelize": [("experiments", "channelize"), ("rxchain", "channelize")],
    "rxchain.crosstalk": [("rxchain", "measure_crosstalk")],
    "seeding.child_seed": [("experiments", "child_seed")],
    "dynamics.evolve": [("experiments", "evolve_for")],
    "dynamics.telegraph": [("dynamics", "relaxation_telegraph_spectrum")],
    "planner.plan": [("planner", "plan_for_chip"), ("planner", "max_channels")],
    "experiments.acquire": [("experiments", "acquire")],
    "experiments.driver": [("experiments", "run_flux_sweep"), ("experiments", "run_rabi")],
    "experiments.spectroscopy": [("experiments", "run_spectroscopy")],
    "experiments.features": [("experiments", "detect_flux_features")],
    "experiments.fit": [("experiments", "fit_damped_sinusoid")],
    "experiments.write": [("experiments", "write_sweep_csv")],
}

# Per-layer metric name for each span's self time.
SELF_METRICS = {
    "experiments.acquire": "experiments.acquire_self_s",
    "experiments.driver": "experiments.driver_self_s",
    "device.s21": "device.s21_s",
}

# Per-layer call counts, by span name.
CALL_METRICS = {
    "txchain.synth": "txchain.calls",
    "device.s21": "device.s21_calls",
    "rxchain.channelize": "rxchain.channelize_calls",
    "rxchain.noise_adc": "rxchain.noise_adc_calls",
    "seeding.child_seed": "seeding.child_seed_calls",
    "dynamics.evolve": "dynamics.evolve_calls",
}


def self_metric(span: str) -> str:
    return SELF_METRICS.get(span, span + "_s")


class Tracer:
    """Collects spans and counters for one worker; a run id per iteration."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def _count_s21(counts, args, kwargs):
    chip = args[0] if args else kwargs["chip"]
    probe = args[1] if len(args) > 1 else kwargs["probe_omega"]
    counts["device.s21_evals"] += int(np.size(probe)) * len(chip.devices)


def _count_bytes(counts, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counts["experiments.bytes_written"] += Path(path).stat().st_size


COUNTERS = {"device.s21": _count_s21, "experiments.write": _count_bytes}


def instrument(tracer: Tracer):
    """Prepare wrappers for every layer boundary of the imported fdmsim
    modules.  Returns switch(on): on puts the wrappers in, off puts the
    original functions back, so traced and untraced iterations can
    alternate in one process."""
    import fdmsim.device as device
    import fdmsim.dynamics as dynamics
    import fdmsim.experiments as experiments
    import fdmsim.planner as planner
    import fdmsim.rxchain as rxchain

    modules = {"device": device, "dynamics": dynamics, "experiments": experiments,
               "planner": planner, "rxchain": rxchain}
    patches = []
    for name, targets in SPANS.items():
        for mod, attr in targets:
            fn = getattr(modules[mod], attr)
            patches.append((modules[mod], attr, fn, tracer.wrap(name, fn, COUNTERS.get(name))))
    # One RK4 step is about 6 us: count the steps, do not time them.
    patches.append((dynamics, "evolve", dynamics.evolve,
                    tracer.counter("dynamics.rk4_steps", dynamics.evolve)))

    def switch(on: bool) -> None:
        for module, attr, original, wrapped in patches:
            setattr(module, attr, wrapped if on else original)

    return switch


def self_times(spans: list) -> tuple[dict, dict, dict]:
    """Per-run self time by span name, calls by span name, and per-run
    time covered by top-level spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = {}
    calls: Counter = Counter()
    covered: Counter = Counter()
    for i, (name, start, end, parent, run) in enumerate(spans):
        by_run = self_s.setdefault(run, Counter())
        by_run[name] += (end - start) - child[i]
        calls[name] += 1
        if parent < 0:
            covered[run] += end - start
    return self_s, calls, covered
