"""Checks that need a process of their own: the lane kernels' bits on
one core, on every core and with 2 BLAS threads, and the package on
numpy alone."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fdmsim

SRC = str(Path(fdmsim.__file__).parents[1])
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")

# The criterion-3 spectrum runs 22 chunks of 462 trajectories and the
# 200-trajectory call 4 chunks of 50; the n = 41 call runs 4 chunks of
# 25000 short odd-length rows; the p = 1/2 call flips about every other
# sample.  Then rabi_noisy's readout: 200 shots of 3 channels through the
# 12-bit ADC, drawn and projected block by block on every lane; 203
# noisy shots (a partly full last block); 200 noiseless shots (the calling
# thread alone).  Each call prints the sha256 of its result's bytes.
HASHES = """
import hashlib
from math import tau
import numpy as np
from fdmsim import (AdcSpec, builtin_chip_path, load_chip, make_readout_setup,
                    relaxation_telegraph_spectrum, run_rabi)

def digest(*arrays):
    print(hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())

for kwargs in [
    dict(gamma=tau * 0.1e6, shift=tau * 2.5e6, duration=100e-6, n_trajectories=10_000, seed=0),
    dict(gamma=tau * 0.1e6, shift=tau * 2.5e6, duration=100e-6, n_trajectories=200, seed=0),
    dict(gamma=tau * 1e6, shift=tau * 0.5e6, duration=1e-6, n_trajectories=100_000,
         sample_rate=41e6, seed=3),
    dict(gamma=1e9, shift=tau * 100, duration=0.1, n_trajectories=50, sample_rate=1e3, seed=6),
]:
    s = relaxation_telegraph_spectrum(**kwargs)
    digest(s.power, np.float64(s.out_of_band_fraction))
chip = load_chip(builtin_chip_path())
adc = AdcSpec(sample_rate=1e9, bits=12, full_scale=1.0, analog_bandwidth=480e6)
for points, noise_std in ((200, 2e-3), (203, 2e-3), (200, 0.0)):
    r = run_rabi(chip, np.linspace(5e-9, 1.2e-6, points),
                 setup=make_readout_setup(chip, (2, 4, 6)),
                 rabi_rate_per_unit_amplitude=5e6, amplitude_scales=[1.0] * 3,
                 adc=adc, noise_std=noise_std, seed=0)
    digest(r.tables["iq_amplitude"], r.tables["iq_phase"])
"""

# A finder ahead of every other refuses scipy and its submodules.
NUMPY_ONLY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused: the package runs on numpy alone")

sys.meta_path.insert(0, RefuseScipy())
import numpy as np
import fdmsim
from fdmsim.cli import main

commands = [["sweep", "--features"], ["rabi", "--fit", "--points", "200"], ["spectroscopy"]]
commands += [["crosstalk", "--toggle", str(device)] for device in range(1, 8)]
for argv in commands:
    assert main(argv) == 0, argv
chip = fdmsim.load_chip(fdmsim.builtin_chip_path())
t = np.linspace(5e-9, 1e-6, 20)
rabi = fdmsim.run_rabi(chip, t, readout=False)
fit = fdmsim.fit_damped_sinusoid(t, rabi.column("excited_population", 1))
features = fdmsim.detect_flux_features(fdmsim.run_flux_sweep(chip, np.linspace(-0.025, 0.025, 101)))
assert fit.valid and all(len(f) == 2 for f in features.values())
assert "scipy" not in sys.modules
"""


def run_child(code, *flags, **env):
    """Run code in a fresh interpreter that imports this fdmsim, with the
    BLAS thread variables removed and env added; return its stdout."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS} | env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no os.sched_setaffinity to pin a child to one core")
def test_lane_kernels_give_the_same_bits_on_one_core_every_core_and_two_blas_threads():
    # Pinned before numpy loads, OpenBLAS sizes its pool from the mask (one
    # thread) and lanes.run runs every block on the calling thread.
    pin = f"import os\nos.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
    one_core = run_child(pin + HASHES)
    every_core = run_child(HASHES)
    two_blas_threads = run_child(HASHES, OPENBLAS_NUM_THREADS="2")
    hashes = one_core.split()
    assert len(hashes) == 7 and all(re.fullmatch("[0-9a-f]{64}", h) for h in hashes)
    assert one_core == every_core == two_blas_threads


def test_cli_and_drivers_run_without_scipy():
    run_child(NUMPY_ONLY, "-W", "error::RuntimeWarning")


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library "
                                  "from Python 3.11 on")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    names = [re.match(r"[\w.-]+", dep)[0] for dep in pyproject["project"]["dependencies"]]
    assert names == ["numpy"]
