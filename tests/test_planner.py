"""Capacity arithmetic and frequency-plan generation."""

import math

import numpy as np
import pytest

from fdmsim import (
    CapacityQuery,
    ConfigError,
    FrequencyPlan,
    InfeasiblePlanError,
    SpacingRule,
    UnknownDeviceError,
    adjacent_crosstalk,
    builtin_chip_path,
    carson_bandwidth,
    crosstalk_limited_spacing,
    dressed_resonance,
    format_plan_report,
    generate_plan,
    load_chip,
    max_channels,
    plan_for_chip,
)
from fdmsim.planner import _grid_offset

from test_device import make_comb

TWO_PI = 2 * math.pi
KAPPA = TWO_PI * 10e6


def test_carson_bandwidth_formula_on_grid():
    rng = np.random.default_rng(2)
    for _ in range(50):
        shift = rng.uniform(0, 1e7)
        gamma = rng.uniform(0, 1e6)
        assert carson_bandwidth(shift, gamma) == 2 * (shift + 2 * gamma)


def test_adjacent_crosstalk_anchor_points():
    assert adjacent_crosstalk(1.5 * KAPPA, KAPPA) == pytest.approx(-10.0, abs=0.001)
    assert adjacent_crosstalk(5.0 * KAPPA, KAPPA) == pytest.approx(-20.043, abs=0.001)
    assert adjacent_crosstalk(0.0, KAPPA) == 0.0
    # monotone decreasing in spacing
    s = np.linspace(0, 10, 50) * KAPPA
    vals = [adjacent_crosstalk(x, KAPPA) for x in s]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_adjacent_crosstalk_takes_logs_only_where_the_ratio_is_not_normal():
    # These raised a bare ValueError (log10 of an underflowed 0), and the
    # second an overflowing hypot.
    assert adjacent_crosstalk(1e308, 1e-308) == pytest.approx(20 * (math.log10(5e-309) - 308))
    assert adjacent_crosstalk(1.7e308, 1.7e308) == pytest.approx(20 * math.log10(1 / math.sqrt(5)))
    rng = np.random.default_rng(4)
    for spacing, kappa in zip(rng.uniform(0, 1e9, 50), rng.uniform(1e5, 1e8, 50)):
        half = kappa / 2.0
        assert adjacent_crosstalk(spacing, kappa) == 20.0 * math.log10(half / math.hypot(spacing,
                                                                                         half))


def test_adjacent_crosstalk_refuses_a_kappa_whose_half_underflows():
    # This divided 0 by 0.
    with pytest.raises(ConfigError, match="kappa / 2 underflows"):
        adjacent_crosstalk(0.0, 5e-324)
    assert adjacent_crosstalk(0.0, 1e-323) == 0.0


def test_carson_width_beyond_the_float_range_names_the_rates():
    with pytest.raises(ConfigError, match="dispersive_shift .* and gamma .* float range"):
        carson_bandwidth(1e308, 1e308)
    # max_channels raised InfeasiblePlanError for a spacing of inf Hz.
    with pytest.raises(ConfigError, match="dispersive_shift .* and gamma .* float range"):
        max_channels(CapacityQuery(1e9, 1e6, 1e308, 1e308, -20.0))


@pytest.mark.parametrize("kappa", [0.0, -KAPPA])
def test_crosstalk_limited_spacing_rejects_non_positive_kappa(kappa):
    # it used to return a spacing of 0 or -5 kappa
    with pytest.raises(ConfigError, match="kappa"):
        crosstalk_limited_spacing(kappa, -20.0)


def test_crosstalk_limited_spacing_half_kappa_grid():
    assert crosstalk_limited_spacing(KAPPA, -10.0) == pytest.approx(1.5 * KAPPA)
    assert crosstalk_limited_spacing(KAPPA, -20.0) == pytest.approx(5.0 * KAPPA)
    # the snapped spacing always meets the limit
    for limit in (-6.0, -13.0, -17.5, -25.0, -30.0):
        spacing = crosstalk_limited_spacing(KAPPA, limit)
        assert adjacent_crosstalk(spacing, KAPPA) <= limit + 1e-9
        steps = spacing / (KAPPA / 2)
        assert steps == pytest.approx(round(steps), abs=1e-9)


def query(limit_db, bandwidth=1e9):
    return CapacityQuery(
        bandwidth=bandwidth,
        kappa=KAPPA,
        gamma=TWO_PI * 0.1e6,
        dispersive_shift=TWO_PI * 0.3e6,
        crosstalk_limit_db=limit_db,
    )


def test_max_channels_20_at_minus_20db():
    result = max_channels(query(-20.0))
    assert result.count == 20
    assert result.spacing == pytest.approx(50e6)
    assert result.crosstalk_spacing == pytest.approx(50e6)


def test_max_channels_66_at_minus_10db_with_derating_note():
    result = max_channels(query(-10.0))
    assert result.count == 66
    assert 54 <= result.count <= 66
    assert result.spacing == pytest.approx(15e6)
    assert any("60" in note for note in result.notes)


def test_max_channels_carson_limited():
    q = CapacityQuery(
        bandwidth=100e6,
        kappa=TWO_PI * 0.1e6,  # narrow resonator: crosstalk allows tight packing
        gamma=TWO_PI * 0.5e6,
        dispersive_shift=TWO_PI * 2e6,
        crosstalk_limit_db=-20.0,
    )
    result = max_channels(q)
    assert result.carson_bandwidth > result.crosstalk_spacing
    assert result.spacing == pytest.approx(result.carson_bandwidth)
    assert result.count == int(100e6 // result.spacing)
    assert "Carson" in result.notes[0] or "carson" in result.notes[0].lower()


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_rate_functions_reject_non_finite_input(bad):
    for call in (
        lambda: carson_bandwidth(bad, 0.0),
        lambda: carson_bandwidth(0.0, bad),
        lambda: adjacent_crosstalk(bad, 1.0),
        lambda: adjacent_crosstalk(1.0, bad),
        lambda: crosstalk_limited_spacing(bad, -20.0),
        lambda: crosstalk_limited_spacing(KAPPA, bad),
    ):
        with pytest.raises(ConfigError, match="finite"):
            call()


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "field", ["bandwidth", "kappa", "gamma", "dispersive_shift", "crosstalk_limit_db"]
)
def test_capacity_query_rejects_non_finite_fields(field, bad):
    fields = dict(bandwidth=1e9, kappa=KAPPA, gamma=TWO_PI * 0.1e6,
                  dispersive_shift=TWO_PI * 0.3e6, crosstalk_limit_db=-20.0)
    fields[field] = bad
    with pytest.raises(ConfigError, match=field):
        CapacityQuery(**fields)


def test_max_channels_infeasible_band():
    with pytest.raises(InfeasiblePlanError):
        max_channels(query(-20.0, bandwidth=30e6))


def test_generate_plan_edge_to_edge_spacings():
    plan = generate_plan(7, 9.3e9, 10.2e9)
    assert plan.frequencies[0] == pytest.approx(9.3e9)
    assert plan.frequencies[-1] == pytest.approx(10.2e9)
    np.testing.assert_allclose(plan.spacings(), [150e6] * 6, rtol=1e-12)


def test_generate_plan_fixed_spacing_is_centered():
    plan = generate_plan(6, 9.3e9, 10.3e9, spacing=150e6)
    np.testing.assert_allclose(plan.spacings(), [150e6] * 5, rtol=1e-12)
    # symmetric margins
    low = plan.frequencies[0] - 9.3e9
    high = 10.3e9 - plan.frequencies[-1]
    assert low == pytest.approx(high, rel=1e-9)


def test_generate_plan_infeasible_span():
    with pytest.raises(InfeasiblePlanError):
        generate_plan(6, 9.5e9, 10.0e9, spacing=150e6)


def test_generate_plan_kappa_multiple_rule():
    plan = generate_plan(
        5, 9.0e9, 10.0e9, SpacingRule.KAPPA_MULTIPLE, kappa=KAPPA,
        crosstalk_limit_db=-20.0,
    )
    np.testing.assert_allclose(plan.spacings(), [50e6] * 4, rtol=1e-12)


def test_generate_plan_audits_crosstalk_limit():
    with pytest.raises(InfeasiblePlanError):
        generate_plan(10, 9.0e9, 9.1e9, kappa=KAPPA, crosstalk_limit_db=-20.0)


@pytest.mark.parametrize("n_channels", [1, 3])
@pytest.mark.parametrize("spacing", [0.0, -1e6, math.nan, math.inf])
def test_generate_plan_rejects_a_spacing_that_is_not_positive(n_channels, spacing):
    with pytest.raises(ConfigError, match="spacing must be finite and > 0"):
        generate_plan(n_channels, 9.0e9, 10.0e9, spacing=spacing)


@pytest.mark.parametrize("kwargs, match", [
    (dict(band_start=9e9, band_stop=8e9, spacing=1e6), "band_stop 8000000000.0 must exceed band_start"),
    (dict(band_start=9e9, band_stop=9e9), "band_stop .* must exceed band_start"),
    (dict(band_start=math.nan, band_stop=10e9), "band_start must be finite"),
    (dict(band_start=9e9, band_stop=math.inf), "band_stop must be finite"),
    (dict(band_start=-1e308, band_stop=1e308), "band_width must be finite"),
    (dict(band_start=9e9, band_stop=10e9, guard=math.nan), "guard must be finite"),
    (dict(band_start=9e9, band_stop=10e9, guard=-1.0), "guard must be finite and >= 0"),
])
def test_generate_plan_checks_the_band_first(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        generate_plan(3, **kwargs)
    with pytest.raises(ConfigError, match=match):  # before a bad count
        generate_plan(0, **kwargs)


@pytest.mark.parametrize("n_channels", [True, 3.5, math.nan, math.inf, 0, -1])
def test_generate_plan_refuses_a_count_that_is_not_an_integer(n_channels):
    with pytest.raises(ConfigError, match="integral n_channels >= 1"):
        generate_plan(n_channels, 9e9, 10e9)


def test_generate_plan_keeps_an_integral_float_count():
    assert generate_plan(3.0, 9e9, 10e9) == generate_plan(3, 9e9, 10e9)


def test_generate_plan_refuses_a_spacing_with_the_kappa_rule():
    with pytest.raises(ConfigError, match="pass no spacing"):
        generate_plan(3, 9e9, 10e9, SpacingRule.KAPPA_MULTIPLE, spacing=1e6, kappa=KAPPA)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, match", [
    (lambda: crosstalk_limited_spacing(1.0, -1e5), "crosstalk_limit_db -100000"),
    (lambda: crosstalk_limited_spacing(1e308, -20.0), "kappa 1e[+]308"),
    (lambda: crosstalk_limited_spacing(5e-324, -1.0), "spacing of 0 rad/s"),
    (lambda: max_channels(CapacityQuery(1e308, 1e-300, 0.0, 0.0, -20.0)), "bandwidth 1e[+]308"),
])
def test_capacity_beyond_the_float_range_is_refused(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


def test_generate_plan_single_channel_at_center():
    plan = generate_plan(1, 9.0e9, 10.0e9)
    assert plan.frequencies == (9.5e9,)


def test_generate_plan_guard_respected():
    plan = generate_plan(3, 9.0e9, 10.0e9, guard=100e6)
    assert plan.frequencies[0] >= 9.1e9 - 1e-3
    assert plan.frequencies[-1] <= 9.9e9 + 1e-3


def test_frequency_plan_validation():
    with pytest.raises(ConfigError):
        FrequencyPlan(band_start=9e9, band_stop=10e9,
                      channels=((1, 9.5e9), (2, 9.4e9)))  # not increasing
    with pytest.raises(ConfigError):
        FrequencyPlan(band_start=9e9, band_stop=10e9,
                      channels=((1, 9.3e9), (1, 9.5e9)))  # duplicate id
    with pytest.raises(ConfigError):
        FrequencyPlan(band_start=9e9, band_stop=10e9,
                      channels=((1, 10.5e9),))  # outside band


def test_plan_for_chip_tracks_dressed_resonances():
    from fdmsim import builtin_chip_path, dressed_resonance, load_chip

    chip = load_chip(builtin_chip_path())
    plan = plan_for_chip(chip)
    assert plan.device_ids == chip.device_ids
    for dev_id, freq in plan.channels:
        dev = chip.device(dev_id)
        assert freq == pytest.approx(
            dressed_resonance(dev, dev.qubit.symmetry_flux), abs=1.0
        )
    # grid snapping lands channels on lo + k * grid
    snapped = plan_for_chip(chip, lo_frequency=9.75e9, grid=250e3)
    for _, freq in snapped.channels:
        assert (freq - 9.75e9) / 250e3 == pytest.approx(round((freq - 9.75e9) / 250e3), abs=1e-9)


def plan_device_by_device(chip, device_ids=None, lo_frequency=None, grid=None, state=-1.0):
    """plan_for_chip built from one public dressed_resonance call per device."""
    pairs = []
    for dev_id in chip.device_ids if device_ids is None else device_ids:
        dev = chip.device(dev_id)
        f = dressed_resonance(dev, dev.qubit.symmetry_flux, state)
        if grid is not None:
            ref = lo_frequency if lo_frequency is not None else 0.0
            f = ref + _grid_offset(f, ref, grid)
        pairs.append((dev_id, f))
    pairs.sort(key=lambda p: p[1])
    freqs = [f for _, f in pairs]
    margin = (freqs[-1] - freqs[0]) / max(len(freqs) - 1, 1) / 2.0 or 1e6
    return FrequencyPlan(band_start=freqs[0] - margin, band_stop=freqs[-1] + margin,
                         channels=tuple(pairs))


@pytest.mark.parametrize("which", ["chip7", "comb"])
@pytest.mark.parametrize("kwargs", [
    {},
    dict(state=1.0),
    dict(grid=1e6),
    dict(grid=250e3, lo_frequency=6.1e9),
])
def test_plan_for_chip_equals_the_device_by_device_plan(which, kwargs):
    chip = (load_chip(builtin_chip_path()) if which == "chip7"
            else make_comb(100, zero_coupling=(0, 37, 99)))
    assert plan_for_chip(chip, **kwargs) == plan_device_by_device(chip, **kwargs)
    # a subset in any order
    ids = [int(i) for i in np.random.default_rng(3).permutation(chip.device_ids)[:5]]
    got = plan_for_chip(chip, device_ids=ids, **kwargs)
    assert got == plan_device_by_device(chip, device_ids=ids, **kwargs)
    assert sorted(got.device_ids) == sorted(ids)
    assert plan_for_chip(chip, device_ids=iter(ids), **kwargs) == got
    with pytest.raises(UnknownDeviceError):
        plan_for_chip(chip, device_ids=ids + [1000], **kwargs)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(grid=0.0), "grid must be finite and > 0"),
        (dict(grid=-250e3), "grid must be finite and > 0"),
        (dict(grid=math.nan), "grid must be finite"),
        (dict(grid=math.inf), "grid must be finite"),
        (dict(grid=250e3, lo_frequency=math.nan), "reference must be finite"),
        (dict(grid=250e3, lo_frequency=math.inf), "reference must be finite"),
    ],
)
def test_plan_for_chip_rejects_a_grid_or_lo_it_cannot_snap_to(kwargs, match):
    from fdmsim import builtin_chip_path, load_chip

    with pytest.raises(ConfigError, match=match):
        plan_for_chip(load_chip(builtin_chip_path()), **kwargs)


def test_format_plan_report_mentions_channels_and_margin():
    plan = generate_plan(3, 9.0e9, 9.3e9)
    text = format_plan_report(
        plan, kappa=KAPPA, gamma=TWO_PI * 0.1e6, dispersive_shift=TWO_PI * 0.3e6
    )
    assert "3 channels" in text
    assert "carson" in text.lower()
    for _, freq in plan.channels:
        assert f"{freq:.9g}" in text
