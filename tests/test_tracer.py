"""The benchmark's tracer (perfbench/tracer.py) wraps fdmsim functions by
their module attribute names.  A name that disappears from the package
would make `python perfbench/run.py --trace 1` die with an AttributeError;
this test names it first."""

from pathlib import Path

import fdmsim.device
import fdmsim.dynamics
import fdmsim.experiments
import fdmsim.planner
import fdmsim.rxchain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"device": fdmsim.device, "dynamics": fdmsim.dynamics,
           "experiments": fdmsim.experiments, "planner": fdmsim.planner,
           "rxchain": fdmsim.rxchain}


def test_the_tracer_wraps_every_name_it_binds_and_puts_it_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    # Every (module, attribute) of a span, and the RK4 step counter.
    bound = sorted({target for targets in tracer.SPANS.values() for target in targets}
                   | {("dynamics", "evolve")})
    missing = [(mod, attr) for mod, attr in bound if not hasattr(MODULES[mod], attr)]
    assert not missing, f"the tracer binds names the package no longer has: {missing}"
    originals = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr in bound}
    switch = tracer.instrument(tracer.Tracer())
    switch(True)
    try:
        for (mod, attr), original in originals.items():
            assert getattr(MODULES[mod], attr).__wrapped__ is original, (mod, attr)
    finally:
        switch(False)
    for (mod, attr), original in originals.items():
        assert getattr(MODULES[mod], attr) is original, (mod, attr)
