"""Channel capacity and frequency-plan arithmetic.

How many readout channels fit a given bandwidth is set by two limits:

* adjacent-channel crosstalk through the Lorentzian tail of each notch,
  20*log10[(kappa/2) / sqrt(spacing^2 + (kappa/2)^2)], which crosses
  -10 dB at 1.5*kappa and -20 dB at 5*kappa;
* the spectral width a relaxing qubit imprints on its carrier, estimated
  by the Carson rule as 2*(dispersive_shift + 2*gamma).

The channel spacing is the larger of the two, with the crosstalk-limited
spacing snapped up to the half-kappa grid so the familiar 1.5x and 5x
multipliers come out exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .device import Chip, QubitStateLabel, _dressed_resonances
from .errors import (ConfigError, InfeasiblePlanError, _check_count, _check_finite,
                     _check_non_negative, _check_positive)


@dataclass(frozen=True)
class FrequencyPlan:
    """Ordered channel map: (device_id, center frequency in Hz) pairs,
    strictly increasing in frequency and contained in the band."""

    band_start: float
    band_stop: float
    channels: tuple[tuple[int, float], ...]
    guard: float = 0.0

    def __post_init__(self):
        _check_band(self.band_start, self.band_stop, self.guard)
        if not self.channels:
            raise ConfigError("plan needs at least one channel")
        freqs = [f for _, f in self.channels]
        tol = 1e-6  # Hz of slack for band-edge placement arithmetic
        for f in freqs:
            if not self.band_start - tol <= f <= self.band_stop + tol:
                raise ConfigError(f"channel at {f} Hz outside [{self.band_start}, {self.band_stop}]")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ConfigError("channel frequencies must be strictly increasing")
        ids = [d for d, _ in self.channels]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate device ids in plan: {ids}")

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(f for _, f in self.channels)

    @property
    def device_ids(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.channels)

    def spacings(self) -> tuple[float, ...]:
        f = self.frequencies
        return tuple(b - a for a, b in zip(f, f[1:]))


def _check_band(band_start: float, band_stop: float, guard: float) -> None:
    """ConfigError unless the band edges, their difference and the guard
    are finite, band_stop exceeds band_start and guard >= 0."""
    _check_finite(band_start=band_start, band_stop=band_stop, band_width=band_stop - band_start)
    _check_non_negative(guard=guard)
    if band_stop <= band_start:
        raise ConfigError(f"band_stop {band_stop} must exceed band_start {band_start}")


@dataclass(frozen=True)
class CapacityQuery:
    """bandwidth: Hz.  kappa, gamma, dispersive_shift: rad/s.
    crosstalk_limit_db: maximum tolerated adjacent-channel crosstalk, < 0.
    Every field must be finite."""

    bandwidth: float
    kappa: float
    gamma: float
    dispersive_shift: float
    crosstalk_limit_db: float

    def __post_init__(self):
        _check_positive(bandwidth=self.bandwidth, kappa=self.kappa)
        _check_non_negative(gamma=self.gamma, dispersive_shift=self.dispersive_shift)
        _check_finite(crosstalk_limit_db=self.crosstalk_limit_db)
        if self.crosstalk_limit_db >= 0:
            raise ConfigError(
                f"crosstalk_limit_db must be < 0, got {self.crosstalk_limit_db}"
            )


@dataclass(frozen=True)
class CapacityResult:
    count: int
    spacing: float  # Hz
    crosstalk_spacing: float  # Hz, spacing demanded by the crosstalk limit
    carson_bandwidth: float  # Hz, spacing demanded by the Carson rule
    notes: tuple[str, ...] = field(default=())


def carson_bandwidth(dispersive_shift: float, gamma: float) -> float:
    """Full spectral width 2*(shift + 2*gamma) of a relaxing qubit's
    carrier, rad/s in and out; both rates must be finite and >= 0, and a
    width beyond the float range raises ConfigError."""
    _check_non_negative(dispersive_shift=dispersive_shift, gamma=gamma)
    width = 2.0 * (dispersive_shift + 2.0 * gamma)
    if width == math.inf:
        raise ConfigError(f"dispersive_shift {dispersive_shift:g} and gamma {gamma:g} rad/s "
                          "give a Carson width beyond the float range")
    return width


def adjacent_crosstalk(spacing: float, kappa: float) -> float:
    """Crosstalk in dB between channels spaced `spacing` rad/s apart.

    Lorentzian amplitude tail of a notch of total linewidth kappa:
    zero spacing gives 0 dB, large spacing falls off as 1/spacing.
    Both arguments must be finite, spacing >= 0 and kappa / 2 > 0.
    """
    _check_non_negative(spacing=spacing)
    _check_positive(kappa=kappa)
    half = kappa / 2.0
    if half == 0:
        raise ConfigError(f"kappa {kappa} is so small that kappa / 2 underflows to 0")
    ratio = half / math.hypot(spacing, half)
    if ratio >= sys.float_info.min:
        return 20.0 * math.log10(ratio)
    # The ratio underflows, or the hypot overflows: the halved hypot does
    # not, and a difference of logs takes the place of the quotient.
    return 20.0 * (math.log10(half) - math.log10(2.0)
                   - math.log10(math.hypot(spacing / 2.0, half / 2.0)))


def crosstalk_limited_spacing(kappa: float, crosstalk_limit_db: float) -> float:
    """Smallest half-kappa multiple whose crosstalk meets the limit, rad/s.

    The exact solution is (kappa/2)*sqrt(10^(-limit/10) - 1); it is
    rounded up to the half-kappa grid (1.5*kappa for -10 dB, 5*kappa for
    -20 dB).  Both arguments must be finite and kappa > 0, and the
    spacing must be a float > 0: a limit or kappa so large or small that
    it is not raises ConfigError.
    """
    _check_positive(kappa=kappa)
    _check_finite(crosstalk_limit_db=crosstalk_limit_db)
    if crosstalk_limit_db >= 0:
        raise ConfigError(f"crosstalk_limit_db must be < 0, got {crosstalk_limit_db}")
    try:
        exact = math.sqrt(10.0 ** (-crosstalk_limit_db / 10.0) - 1.0)  # in units of kappa/2
        spacing = math.ceil(exact - 1e-9) * kappa / 2.0
    except OverflowError:
        spacing = math.inf
    if not 0 < spacing < math.inf:
        raise ConfigError(
            f"crosstalk_limit_db {crosstalk_limit_db:g} at kappa {kappa:g} rad/s gives a "
            f"spacing of {spacing:g} rad/s, beyond the float range"
        )
    return spacing


# De-rated capacity figure quoted in deployment guidance for aggressive
# (-10 dB) plans, in channels per GHz; the exact tail bound admits more.
DERATED_CHANNELS_PER_GHZ_10DB = 60


def max_channels(query: CapacityQuery) -> CapacityResult:
    """Channel count for the band: floor(bandwidth / spacing), where the
    spacing is the larger of the crosstalk-limited spacing and the Carson
    bandwidth.

    Raises InfeasiblePlanError when even a single spacing exceeds the
    band, and ConfigError when the count is beyond the float range.  The
    result notes which limit binds; for aggressive plans
    (spacing below 2*kappa) a note records that the exact bound exceeds
    the de-rated figure quoted in deployment guidance.
    """
    two_pi = 2.0 * math.pi
    crosstalk_hz = crosstalk_limited_spacing(query.kappa, query.crosstalk_limit_db) / two_pi
    carson_hz = carson_bandwidth(query.dispersive_shift, query.gamma) / two_pi
    spacing = max(crosstalk_hz, carson_hz)
    if spacing > query.bandwidth:
        raise InfeasiblePlanError(
            f"required spacing {spacing:.6g} Hz exceeds bandwidth {query.bandwidth:.6g} Hz"
        )
    ratio = query.bandwidth / spacing
    if ratio == math.inf:
        raise ConfigError(
            f"bandwidth {query.bandwidth:g} Hz over a spacing of {spacing:g} Hz "
            "gives a channel count beyond the float range"
        )
    count = int(math.floor(ratio + 1e-9))
    notes = []
    if crosstalk_hz >= carson_hz:
        notes.append(
            f"spacing set by the {query.crosstalk_limit_db:g} dB crosstalk limit "
            f"({two_pi * spacing / query.kappa:g} x kappa); Carson width "
            f"{carson_hz:.6g} Hz is not binding"
        )
    else:
        notes.append(
            f"spacing set by the Carson width {carson_hz:.6g} Hz; the crosstalk "
            f"limit alone would allow {crosstalk_hz:.6g} Hz"
        )
    if crosstalk_hz >= carson_hz and crosstalk_hz < 2.0 * query.kappa / two_pi:
        per_ghz = count / (query.bandwidth / 1e9)
        notes.append(
            f"aggressive spacing: the exact tail bound admits {per_ghz:.0f} "
            f"channels/GHz, versus the de-rated {DERATED_CHANNELS_PER_GHZ_10DB} "
            f"channels/GHz quoted in deployment guidance; treat the difference "
            f"as design margin"
        )
    return CapacityResult(
        count=count,
        spacing=spacing,
        crosstalk_spacing=crosstalk_hz,
        carson_bandwidth=carson_hz,
        notes=tuple(notes),
    )


def generate_plan(
    n_channels: int,
    band_start: float,
    band_stop: float,
    *,
    spacing: float | None = None,
    kappa: float | None = None,
    crosstalk_limit_db: float = -20.0,
    guard: float = 0.0,
    device_ids: Sequence[int] | None = None,
) -> FrequencyPlan:
    """Uniformly spaced plan inside [band_start, band_stop].

    With spacing=None the comb fills the usable band edge to edge (n
    channels, n-1 equal gaps); with a spacing the comb is centered in the
    band.  The crosstalk-limited comb is
    spacing=crosstalk_limited_spacing(kappa, limit) / (2 pi).  A single
    channel sits at band center.

    Raises InfeasiblePlanError when the comb does not fit the usable
    band (band minus guard on each edge).  When kappa is given the
    finished plan is audited against the crosstalk limit.  Raises
    ConfigError, checking the band first, for band edges or a guard that
    are not finite and in order (band_start < band_stop, guard >= 0), an
    n_channels that is a bool or not an integral count >= 1, and a
    spacing that is not finite and > 0.
    """
    _check_band(band_start, band_stop, guard)
    n_channels = _check_count("n_channels", n_channels)
    if spacing is not None:
        _check_positive(spacing=spacing)
    usable = band_stop - band_start - 2.0 * guard
    if usable <= 0:
        raise ConfigError("guard bands leave no usable bandwidth")
    if n_channels == 1:
        freqs = [band_start + (band_stop - band_start) / 2.0]
    elif spacing is None:
        step = usable / (n_channels - 1)
        freqs = [band_start + guard + k * step for k in range(n_channels)]
    else:
        span = (n_channels - 1) * spacing
        if span > usable * (1 + 1e-12):
            raise InfeasiblePlanError(
                f"{n_channels} channels at {spacing:.6g} Hz span {span:.6g} Hz, "
                f"more than the usable {usable:.6g} Hz"
            )
        first = band_start + guard + (usable - span) / 2.0
        freqs = [first + k * spacing for k in range(n_channels)]
    if device_ids is None:
        device_ids = range(1, n_channels + 1)
    device_ids = list(device_ids)
    if len(device_ids) != n_channels:
        raise ConfigError(f"got {len(device_ids)} device ids for {n_channels} channels")
    plan = FrequencyPlan(
        band_start=band_start,
        band_stop=band_stop,
        channels=tuple(zip(device_ids, freqs)),
        guard=guard,
    )
    if kappa is not None:
        for gap in plan.spacings():
            xt = adjacent_crosstalk(2.0 * math.pi * gap, kappa)
            if xt > crosstalk_limit_db + 1e-9:
                raise InfeasiblePlanError(
                    f"spacing {gap:.6g} Hz gives {xt:.2f} dB crosstalk, above the "
                    f"{crosstalk_limit_db:g} dB limit"
                )
    return plan


def _grid_offset(frequency: float, reference: float, grid: float) -> float:
    """The offset from reference of the grid point nearest frequency, the
    snapping rule of plan_for_chip, make_readout_setup and the default LO.
    ConfigError for a NaN or infinite input, a grid <= 0, or an offset of
    more grid steps than a float holds."""
    _check_positive(grid=grid)
    steps = (frequency - reference) / grid
    _check_finite(frequency=frequency, reference=reference, grid_steps=steps)
    return grid * round(steps)


def plan_for_chip(
    chip: Chip,
    *,
    device_ids: Sequence[int] | None = None,
    lo_frequency: float | None = None,
    grid: float | None = None,
    state: float = QubitStateLabel.GROUND,
    margin: float | None = None,
) -> FrequencyPlan:
    """Readout plan probing each device at its pulled (dressed) resonance.

    Each qubit sits at its own symmetry point.  With grid and
    lo_frequency given, channels are snapped to lo + k*grid so that they
    land on DFT bins of the acquisition window.  margin widens the band
    beyond the outermost channels (defaults to one mean spacing).
    """
    device_ids = chip.device_ids if device_ids is None else tuple(device_ids)
    pairs = []
    for dev_id, f in zip(device_ids, _dressed_resonances(chip, device_ids, state)):
        if grid is not None:
            ref = lo_frequency if lo_frequency is not None else 0.0
            f = ref + _grid_offset(f, ref, grid)
        pairs.append((dev_id, f))
    pairs.sort(key=lambda p: p[1])
    freqs = [f for _, f in pairs]
    if margin is None:
        margin = (freqs[-1] - freqs[0]) / max(len(freqs) - 1, 1) / 2.0 or 1e6
    return FrequencyPlan(
        band_start=freqs[0] - margin,
        band_stop=freqs[-1] + margin,
        channels=tuple(pairs),
        guard=0.0,
    )


def format_plan_report(
    plan: FrequencyPlan,
    *,
    kappa: float | None = None,
    gamma: float | None = None,
    dispersive_shift: float | None = None,
) -> str:
    """Human-readable plan summary: channels, spacings, per-pair crosstalk
    audit, and Carson margin when the rates are supplied (rad/s)."""
    lines = [
        f"frequency plan: {len(plan.channels)} channels in "
        f"[{plan.band_start:.9g}, {plan.band_stop:.9g}] Hz",
        f"  guard: {plan.guard:.9g} Hz",
        "",
        f"  {'device':>6}  {'center_hz':>15}  {'to_next_hz':>13}  {'crosstalk_db':>12}",
    ]
    spacings = plan.spacings()
    for i, (dev, f) in enumerate(plan.channels):
        if i < len(spacings):
            gap = f"{spacings[i]:>13.6g}"
            xt = (
                f"{adjacent_crosstalk(2 * math.pi * spacings[i], kappa):>12.2f}"
                if kappa is not None
                else f"{'-':>12}"
            )
        else:
            gap, xt = f"{'-':>13}", f"{'-':>12}"
        lines.append(f"  {dev:>6}  {f:>15.9g}  {gap}  {xt}")
    if gamma is not None and dispersive_shift is not None:
        carson_hz = carson_bandwidth(dispersive_shift, gamma) / (2 * math.pi)
        min_gap = min(spacings) if spacings else float("inf")
        lines.append("")
        lines.append(
            f"  carson bandwidth: {carson_hz:.6g} Hz; smallest spacing "
            f"{min_gap:.6g} Hz -> margin {min_gap - carson_hz:.6g} Hz"
        )
    return "\n".join(lines) + "\n"
