"""The comb chip shared by the device, experiment, planner and acceptance
tests: a chip of n devices evenly spaced in frequency, for checks of how
the simulator scales towards hundreds of channels."""

import math

from fdmsim import Chip, DeviceRecord, QubitParams, ResonatorParams

TWO_PI = 2 * math.pi


def make_comb(n, zero_coupling=()):
    """An n-device comb: resonators every 5 MHz (5 kappa) from 6 GHz with
    kappa/2pi = 1 MHz and kappa_ext = 0.95 kappa, g/2pi = 4 MHz, and each
    qubit 1.2 GHz below its resonator at 480 GHz/Phi0 with
    gamma/2pi = 10 kHz.  Devices whose index is in zero_coupling get g = 0."""
    kappa = TWO_PI * 1e6
    devices = []
    for i in range(n):
        bare = 6e9 + i * 5e6
        devices.append(DeviceRecord(
            device_id=i + 1,
            qubit=QubitParams(gap_delta=bare - 1.2e9, flux_sensitivity=480e9,
                              symmetry_flux=0.0, relaxation_rate_gamma=TWO_PI * 10e3),
            resonator=ResonatorParams(bare_frequency=bare, total_linewidth_kappa=kappa,
                                      external_linewidth=0.95 * kappa,
                                      coupling_g=0.0 if i in zero_coupling else TWO_PI * 4e6),
        ))
    return Chip(name=f"comb{n}", devices=tuple(devices))
