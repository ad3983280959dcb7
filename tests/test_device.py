"""Device physics: qubit dispersion, resonator pulls, notch transmission."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdmsim.device
from fdmsim import (
    Chip,
    ConfigError,
    DeviceRecord,
    QubitParams,
    QubitStateLabel,
    ResonatorParams,
    UnknownDeviceError,
    builtin_chip_path,
    dressed_resonance,
    load_chip,
    qubit_frequency,
    run_flux_sweep,
    s21_feedline,
    s21_single,
    state_dependent_shift,
)
from fdmsim.device import _SCRATCH_BYTES, _dressed_resonances

TWO_PI = 2 * math.pi


def make_qubit(gap=4.2e9, sens=500e9, sym=0.0, gamma=TWO_PI * 0.1e6):
    return QubitParams(
        gap_delta=gap,
        flux_sensitivity=sens,
        symmetry_flux=sym,
        relaxation_rate_gamma=gamma,
    )


def make_resonator(bare=9.6e9, kappa=TWO_PI * 10e6, ext=TWO_PI * 9.5e6, g=TWO_PI * 40e6):
    return ResonatorParams(
        bare_frequency=bare,
        total_linewidth_kappa=kappa,
        external_linewidth=ext,
        coupling_g=g,
    )


def make_chip(n=2):
    devices = tuple(
        DeviceRecord(
            device_id=i + 1,
            qubit=make_qubit(gap=4.0e9 + i * 0.1e9, sym=i * 1e-3),
            resonator=make_resonator(bare=9.3e9 + i * 0.15e9),
        )
        for i in range(n)
    )
    return Chip(name="test", devices=devices)


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
            qubit=make_qubit(gap=bare - 1.2e9, sens=480e9, gamma=TWO_PI * 10e3),
            resonator=make_resonator(bare=bare, kappa=kappa, ext=0.95 * kappa,
                                     g=0.0 if i in zero_coupling else TWO_PI * 4e6),
        ))
    return Chip(name=f"comb{n}", devices=tuple(devices))


def per_device_product(chip, probe_omega, states, fluxes):
    """The feedline device by device: each qubit's frequency and pull from
    the public helpers, and s *= s21_single(...) in chip order."""
    states = np.asarray(states, dtype=float)
    fluxes = np.asarray(fluxes, dtype=float)
    if fluxes.ndim == states.ndim - 1:
        fluxes = fluxes[..., None]
    fluxes = np.broadcast_to(fluxes, states.shape)
    probe = np.asarray(probe_omega, dtype=float)
    lead = states.shape[:-1] + (1,) * probe.ndim
    s = np.ones(states.shape[:-1] + probe.shape, dtype=complex)
    for j, dev in enumerate(chip.devices):
        omega_q = TWO_PI * qubit_frequency(dev.qubit, fluxes[..., j])
        shift = state_dependent_shift(dev.resonator, omega_q, states[..., j])
        s *= s21_single(dev.resonator, probe, np.reshape(shift, lead))
    return s


QUBIT_FIELDS = ("gap_delta", "flux_sensitivity", "symmetry_flux", "relaxation_rate_gamma")
RESONATOR_FIELDS = ("bare_frequency", "total_linewidth_kappa", "external_linewidth",
                    "coupling_g")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", QUBIT_FIELDS)
def test_qubit_params_reject_non_finite_fields(field, bad):
    fields = {**dict(zip(QUBIT_FIELDS, (4.2e9, 500e9, 0.0, 1e5))), field: bad}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        QubitParams(**fields)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", RESONATOR_FIELDS)
def test_resonator_params_reject_non_finite_fields(field, bad):
    fields = {**dict(zip(RESONATOR_FIELDS, (9.6e9, 6e7, 5.9e7, 2.5e8))), field: bad}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ResonatorParams(**fields)


def test_qubit_frequency_at_symmetry_equals_gap():
    q = make_qubit(gap=4.2e9, sym=1.5e-3)
    assert qubit_frequency(q, 1.5e-3) == pytest.approx(4.2e9, rel=1e-15)


def test_qubit_frequency_even_about_symmetry_and_above_gap():
    q = make_qubit(gap=4.2e9, sens=480e9, sym=0.5e-3)
    rng = np.random.default_rng(11)
    for df in rng.uniform(0, 0.03, size=40):
        up = qubit_frequency(q, q.symmetry_flux + df)
        dn = qubit_frequency(q, q.symmetry_flux - df)
        assert up == pytest.approx(dn, rel=1e-14)
        assert up >= q.gap_delta
        # hypotenuse formula, checked directly
        assert up == pytest.approx(math.hypot(4.2e9, 480e9 * df), rel=1e-14)


def test_qubit_frequency_accepts_arrays():
    q = make_qubit()
    flux = np.linspace(-0.02, 0.02, 7)
    f = qubit_frequency(q, flux)
    assert f.shape == flux.shape
    assert f[0] == pytest.approx(qubit_frequency(q, flux[0]))


def test_dispersive_shift_closed_form_and_sign():
    # far from the crossing the exact pull is the dispersive g^2/detuning,
    # short of it by at most g (g/detuning)^3
    r = make_resonator(bare=9.6e9, g=TWO_PI * 40e6)
    omega_q = TWO_PI * 4.2e9  # qubit far below: detuning < 0
    detuning = omega_q - TWO_PI * 9.6e9
    g = TWO_PI * 40e6
    expected = g**2 / detuning
    bound = g * abs(g / detuning) ** 3
    for state in (+1.0, -1.0):
        got = state_dependent_shift(r, omega_q, state)
        assert abs(got - state * expected) <= bound
        assert abs(got) < abs(expected)
    # qubit below the resonator pushes the ground-state notch up
    assert state_dependent_shift(r, omega_q, -1.0) > 0


def test_exact_shift_matches_two_level_eigenvalue_oracle():
    # One-excitation block [[w_q, g], [g, w_r]]: the pull of the
    # photon-like branch must equal state_dependent_shift for the ground
    # state, and the excited shift is its mirror image.
    rng = np.random.default_rng(4)
    for _ in range(60):
        bare = rng.uniform(4e9, 12e9)
        g = TWO_PI * rng.uniform(1e6, 2e9)
        detuning = rng.uniform(-3, 3) * g
        if abs(detuning) < 1e-3 * g:
            continue
        r = make_resonator(bare=bare, g=g)
        omega_r = TWO_PI * bare
        omega_q = omega_r + detuning
        h = np.array([[omega_q, g], [g, omega_r]])
        evals = np.linalg.eigvalsh(h)
        # photon-like branch: the eigenvalue on the far side of the
        # resonator from the qubit (level repulsion)
        photon = evals[1] if detuning < 0 else evals[0]
        pull = photon - omega_r
        got = state_dependent_shift(r, omega_q, float(QubitStateLabel.GROUND))
        assert got == pytest.approx(pull, rel=1e-12, abs=1e-3)
        assert state_dependent_shift(r, omega_q, 1.0) == pytest.approx(-pull, rel=1e-12, abs=1e-3)


def test_exact_shift_at_zero_detuning_is_vacuum_rabi():
    r = make_resonator(bare=6.0e9, g=TWO_PI * 1.5e9)
    omega_q = TWO_PI * 6.0e9
    assert state_dependent_shift(r, omega_q, -1.0) == pytest.approx(-TWO_PI * 1.5e9, rel=1e-14)
    assert state_dependent_shift(r, omega_q, +1.0) == pytest.approx(+TWO_PI * 1.5e9, rel=1e-14)


def test_state_dependent_shift_branch_seam_is_small():
    # |detuning| = 5 g was the seam between a dispersive and an exact
    # branch, where the pull jumped by about 4 % (0.008 g); one formula
    # leaves no seam.  Across 2e-6 g the slope there, 0.036, moves it 7e-8 g.
    r = make_resonator(bare=9.6e9, g=TWO_PI * 40e6)
    g = r.coupling_g
    for side in (+1, -1):
        edge = TWO_PI * 9.6e9 + side * 5 * g
        below = state_dependent_shift(r, edge - side * 1e-6 * g, -1.0)
        above = state_dependent_shift(r, edge + side * 1e-6 * g, -1.0)
        assert abs(above - below) <= 1e-7 * g


def test_weak_coupling_near_the_crossing_is_finite():
    # g/2pi = 1 kHz, detuning/2pi = 7 kHz at 9.3 GHz: the detuning is below
    # 1e-6 of the resonator frequency, where a perturbative pull diverges
    g = TWO_PI * 1e3
    r = make_resonator(bare=9.3e9, g=g)
    omega_q = TWO_PI * (9.3e9 + 7e3)
    shift = state_dependent_shift(r, omega_q, -1.0)
    detuning = omega_q - TWO_PI * 9.3e9  # about 2 pi 7 kHz
    assert shift == pytest.approx(-2 * g**2 / (math.hypot(detuning, 2 * g) + detuning), rel=1e-12)
    assert round(shift) == -880
    dev = DeviceRecord(device_id=1, qubit=make_qubit(gap=9.3e9 + 7e3, sens=480e9), resonator=r)
    sweep = run_flux_sweep(Chip(name="weak", devices=(dev,)), np.linspace(-1e-6, 1e-6, 5))
    assert np.all(np.isfinite(sweep.tables["amplitude"]))


# derandomize: the same examples on every run, so the suite stays
# deterministic.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    bare=st.floats(4e9, 12e9),
    g_hz=st.floats(1e3, 2e9),
    # detuning in units of g: around the old 5 g seam, or anywhere
    ratio=st.one_of(st.floats(4.9, 5.1), st.floats(1e-3, 1e3)),
    side=st.sampled_from([-1.0, 1.0]),
    state=st.floats(-1.0, 1.0),
    stretch=st.floats(-0.01, 0.01),
)
def test_exact_pull_properties(bare, g_hz, ratio, side, state, stretch):
    r = make_resonator(bare=bare, g=TWO_PI * g_hz)
    g = r.coupling_g
    detuning = side * ratio * g
    omega_q = TWO_PI * bare + detuning
    pull = state_dependent_shift(r, omega_q, state)
    # odd in sigma_z, and never beyond the vacuum-Rabi splitting
    assert state_dependent_shift(r, omega_q, -state) == -pull
    assert abs(pull) <= g * abs(state) * (1 + 1e-15)
    # continuous on each side of the crossing: the slope's magnitude,
    # |state| (1 - |d| / hypot(d, 2 g)) / 2, falls with |d|, so it is
    # largest at the detuning nearer the crossing (mean value theorem);
    # rounding of omega_q costs about 1e-16 of it.  The old 5 g seam
    # jumped by about 0.008 |state| g, far above this bound.
    nearby = state_dependent_shift(r, TWO_PI * bare + detuning * (1 + stretch), state)
    near = ratio * min(1.0, 1.0 + stretch)
    slope = abs(state) * (1 - near / math.hypot(near, 2.0)) / 2
    assert abs(nearby - pull) <= slope * abs(stretch * detuning) * (1 + 1e-6) \
        + 1e-15 * abs(omega_q)
    if ratio >= 10:
        # the dispersive limit, to O((g/detuning)^3)
        true_detuning = omega_q - TWO_PI * bare
        dispersive = state * g**2 / true_detuning
        assert abs(pull - dispersive) <= (abs(state) * g * (g / true_detuning) ** 2
                                          * abs(g / true_detuning) + 1e-12 * abs(dispersive))


@st.composite
def random_chips(draw):
    """One to three devices with any linewidths and couplings."""
    devices = []
    for i in range(draw(st.integers(1, 3))):
        kappa = TWO_PI * draw(st.floats(1e4, 1e8))
        devices.append(DeviceRecord(
            device_id=i,
            qubit=make_qubit(gap=draw(st.floats(0.0, 12e9)), sens=draw(st.floats(0.0, 1e12)),
                             sym=draw(st.floats(-0.01, 0.01))),
            resonator=make_resonator(
                bare=draw(st.floats(4e9, 12e9)), kappa=kappa,
                ext=kappa * draw(st.floats(1e-3, 1.0)), g=TWO_PI * draw(st.floats(0.0, 2e9))),
        ))
    return Chip(name="random", devices=tuple(devices))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chip=random_chips(), data=st.data())
def test_feedline_transmission_is_passive_property(chip, data):
    n = len(chip.devices)
    states = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    fluxes = data.draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n))
    # probes around every dressed resonance and across the band
    centers = [dressed_resonance(d, f, s) for d, f, s in zip(chip.devices, fluxes, states)]
    probe = TWO_PI * np.concatenate([
        np.add.outer(centers, np.linspace(-50e6, 50e6, 41)).ravel(),
        np.linspace(3e9, 15e9, 201),
    ])
    s21 = s21_feedline(chip, probe, states, fluxes)
    assert np.all(np.isfinite(s21))
    assert np.max(np.abs(s21)) <= 1 + 1e-12


def test_zero_coupling_gives_zero_shift_even_on_resonance():
    r = make_resonator(g=0.0)
    assert state_dependent_shift(r, TWO_PI * r.bare_frequency, -1.0) == 0.0
    assert state_dependent_shift(r, TWO_PI * r.bare_frequency, +1.0) == 0.0


def test_s21_single_dip_depth_and_limits():
    r = make_resonator(kappa=TWO_PI * 10e6, ext=TWO_PI * 9.5e6)
    center = TWO_PI * r.bare_frequency
    assert abs(s21_single(r, center)) == pytest.approx(1 - 9.5 / 10, rel=1e-12)
    far = center + TWO_PI * 5e9
    assert abs(s21_single(r, far)) == pytest.approx(1.0, abs=1e-3)
    probe = center + np.linspace(-1, 1, 101) * TWO_PI * 50e6
    assert np.all(np.abs(s21_single(r, probe)) <= 1 + 1e-12)


def test_s21_single_half_linewidth_point():
    # At one half-linewidth detuning the notch term is ext/2 / (kappa/2)
    # rotated by 45 degrees.
    kappa = TWO_PI * 10e6
    r = make_resonator(kappa=kappa, ext=0.95 * kappa)
    probe = TWO_PI * r.bare_frequency + kappa / 2
    expected = 1 - 0.95 / (1 + 1j)
    got = s21_single(r, probe)
    assert got == pytest.approx(expected, rel=1e-12)


def test_s21_single_shift_moves_the_dip():
    r = make_resonator()
    shift = TWO_PI * 3e6
    moved = s21_single(r, TWO_PI * r.bare_frequency + shift, shift=shift)
    assert abs(moved) == pytest.approx(abs(s21_single(r, TWO_PI * r.bare_frequency)), rel=1e-12)


@pytest.mark.parametrize("shift", [np.array([1.0, 2.0]), np.array([[0.0], [3e6], [-3e6]])])
def test_s21_single_broadcasts_a_scalar_probe_over_an_array_shift(shift):
    r = make_resonator()
    probe = TWO_PI * r.bare_frequency
    got = s21_single(r, probe, shift=shift)
    assert isinstance(got, np.ndarray) and got.shape == shift.shape
    for index, value in np.ndenumerate(shift):
        single = s21_single(r, probe, shift=float(value))
        assert isinstance(single, complex)
        assert got[index] == single


def test_s21_single_returns_a_complex_only_for_scalar_probe_and_shift():
    r = make_resonator()
    probe = TWO_PI * r.bare_frequency
    assert isinstance(s21_single(r, probe), complex)
    assert isinstance(s21_single(r, probe, shift=np.float64(2e6)), complex)
    # array probes are arrays, also with one element
    for probes in (np.array([probe]), np.array([probe, probe + 1e6])):
        got = s21_single(r, probes, shift=2e6)
        assert isinstance(got, np.ndarray) and got.shape == probes.shape
    both = s21_single(r, np.array([probe, probe + 1e6]), shift=np.array([2e6, -2e6]))
    assert both.shape == (2,)
    assert both[1] == s21_single(r, probe + 1e6, shift=-2e6)


def test_s21_feedline_is_product_of_singles():
    chip = make_chip(3)
    probe = TWO_PI * np.linspace(9.2e9, 9.8e9, 401)
    fluxes = [d.qubit.symmetry_flux for d in chip.devices]
    states = [-1.0, 1.0, -1.0]
    combined = s21_feedline(chip, probe, states, fluxes)
    manual = np.ones_like(probe, dtype=complex)
    for dev, st, fl in zip(chip.devices, states, fluxes):
        omega_q = TWO_PI * qubit_frequency(dev.qubit, fl)
        shift = state_dependent_shift(dev.resonator, omega_q, st)
        manual *= s21_single(dev.resonator, probe, shift)
    np.testing.assert_allclose(combined, manual, rtol=1e-13)


def test_s21_feedline_scalar_flux_broadcasts():
    chip = make_chip(3)
    probe = TWO_PI * 9.45e9
    a = s21_feedline(chip, probe, [-1.0] * 3, 0.004)
    b = s21_feedline(chip, probe, [-1.0] * 3, [0.004] * 3)
    assert a == pytest.approx(b, rel=1e-15)


def test_s21_feedline_wrong_state_count_raises():
    chip = make_chip(2)
    with pytest.raises(ConfigError):
        s21_feedline(chip, TWO_PI * 9.4e9, [-1.0], 0.0)


def test_state_dependent_shift_takes_arrays_elementwise():
    r = make_resonator(bare=9.6e9, g=TWO_PI * 40e6)
    # from far off the crossing to inside 5 g of it
    omega_q = TWO_PI * (9.6e9 + np.linspace(-2e9, 2e9, 401))
    states = np.linspace(-1.0, 1.0, 401)
    got = state_dependent_shift(r, omega_q, states)
    expected = [state_dependent_shift(r, w, s) for w, s in zip(omega_q, states)]
    np.testing.assert_array_equal(got, expected)
    assert np.count_nonzero(np.abs(omega_q - TWO_PI * 9.6e9) < 5 * r.coupling_g) > 10
    np.testing.assert_array_equal(
        state_dependent_shift(make_resonator(g=0.0), omega_q, states), 0.0)


def test_s21_feedline_batch_rows_equal_single_calls():
    chip = make_chip(3)
    probe = TWO_PI * np.linspace(9.2e9, 9.8e9, 7)
    rng = np.random.default_rng(5)
    states = rng.uniform(-1.0, 1.0, (300, 3))
    per_point = rng.uniform(-0.03, 0.03, 300)
    per_device = rng.uniform(-0.03, 0.03, (300, 3))
    # some points sit within 5 g of a device's crossing
    dev = chip.devices[0]
    detuning = TWO_PI * (qubit_frequency(dev.qubit, per_device[:, 0])
                         - dev.resonator.bare_frequency)
    assert np.any(np.abs(detuning) < 5 * dev.resonator.coupling_g)
    for fluxes in (per_point, per_device):
        batch = s21_feedline(chip, probe, states, fluxes)
        assert batch.shape == (300, 7)
        rows = [s21_feedline(chip, probe, list(st), fl) for st, fl in zip(states, fluxes)]
        np.testing.assert_array_equal(batch, rows)
        scalar_probe = s21_feedline(chip, probe[3], states, fluxes)
        np.testing.assert_array_equal(scalar_probe, batch[:, 3])


COMB_N = 100


@pytest.fixture(scope="module")
def comb():
    return make_comb(COMB_N)


def comb_probe(chip, n_points):
    """Angular probe frequencies across the whole comb and 10 MHz beyond."""
    bare = [d.resonator.bare_frequency for d in chip.devices]
    return TWO_PI * np.linspace(min(bare) - 10e6, max(bare) + 10e6, n_points)


def assert_bitwise_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype == complex
    assert got.tobytes() == expected.tobytes()


# 2001 points make a 32 KB product; 20001 make 320 KB, above the 256 KB
# from which numpy reuses the temporary notch of s = s * s21_single(...)
# and multiplies it as notch * s.
@pytest.mark.parametrize("n_points", [2001, 20001])
def test_s21_feedline_comb_equals_per_device_product_1d(comb, n_points):
    probe = comb_probe(comb, n_points)
    rng = np.random.default_rng(21)
    states = rng.choice([-1.0, 1.0], COMB_N)
    fluxes = rng.uniform(-0.03, 0.03, COMB_N)
    got = s21_feedline(comb, probe, states, fluxes)
    assert_bitwise_equal(got, per_device_product(comb, probe, states, fluxes))
    # every notch is in the product: each one's dip reaches below 0.5
    assert np.min(np.abs(got)) < 0.5


def test_s21_feedline_comb_equals_per_device_product_batch(comb):
    probe = TWO_PI * np.array([d.resonator.bare_frequency for d in comb.devices[::9]])
    rng = np.random.default_rng(22)
    states = rng.uniform(-1.0, 1.0, (40, COMB_N))
    per_point = rng.uniform(-0.03, 0.03, 40)
    per_device = rng.uniform(-0.03, 0.03, (40, COMB_N))
    for fluxes in (per_point, per_device):
        got = s21_feedline(comb, probe, states, fluxes)
        assert got.shape == (40, probe.size)
        assert_bitwise_equal(got, per_device_product(comb, probe, states, fluxes))


def test_s21_feedline_comb_scalar_probe_and_flux(comb):
    probe = TWO_PI * comb.devices[50].resonator.bare_frequency
    states = np.full(COMB_N, -1.0)
    states[50] = 1.0
    got = s21_feedline(comb, probe, states, 0.004)
    assert isinstance(got, complex)
    assert_bitwise_equal(got, per_device_product(comb, probe, states, 0.004))
    # a scalar call is the one-point array call, bit for bit
    assert_bitwise_equal(got, s21_feedline(comb, np.array([probe]), states, [0.004] * COMB_N)[0])
    # one-element products too, where numpy's complex product depends on
    # whether its output aliases an input
    for rows in (1, 3):
        batch = np.tile(states, (rows, 1))
        got = s21_feedline(comb, probe, batch, 0.004)
        assert got.shape == (rows,)
        assert_bitwise_equal(got, per_device_product(comb, probe, batch, 0.004))


def test_s21_feedline_comb_with_a_zero_coupling_device():
    chip = make_comb(COMB_N, zero_coupling=(37,))
    dev = chip.devices[37]
    probe = comb_probe(chip, 2001)
    states = np.full(COMB_N, 1.0)
    # device 37's qubit sits on its resonator, where a coupled device
    # would be pulled by a full vacuum-Rabi g
    crossing = dev.qubit.symmetry_flux + math.sqrt(
        dev.resonator.bare_frequency**2 - dev.qubit.gap_delta**2) / dev.qubit.flux_sensitivity
    fluxes = np.zeros(COMB_N)
    fluxes[37] = crossing
    got = s21_feedline(chip, probe, states, fluxes)
    assert_bitwise_equal(got, per_device_product(chip, probe, states, fluxes))
    assert dressed_resonance(dev, crossing, 1.0) == dev.resonator.bare_frequency
    alone = s21_feedline(Chip(name="one", devices=(dev,)), probe, [1.0], [crossing])
    assert_bitwise_equal(alone, s21_single(dev.resonator, probe))


@pytest.fixture(scope="module")
def chip7():
    return load_chip(builtin_chip_path())


def recorded_passes(monkeypatch):
    """Record (devices, scratch bytes) of every notch pass s21_feedline makes."""
    passes = []
    notch = fdmsim.device._notch

    def recording(probe, omega_r, half_kappa, half_ext, shift, out, detuning):
        passes.append((len(out), out.nbytes + detuning.nbytes))
        return notch(probe, omega_r, half_kappa, half_ext, shift, out, detuning)

    monkeypatch.setattr(fdmsim.device, "_notch", recording)
    return passes


def channel_probe(chip, devices=None):
    """Angular probe frequencies at the bare resonances of the given devices."""
    return TWO_PI * np.array([d.resonator.bare_frequency for d in chip.devices[:devices]])


# Each notch pass takes as many devices as keep its complex notch and
# float detuning scratch (24 bytes per element and device) under
# _SCRATCH_BYTES, and at least one.
@pytest.mark.parametrize("case, passes", [
    # a crosstalk toggle: 2 x 7 elements, every device in one pass
    ("toggle", [7]),
    # the bringup flux sweep: 500 x 6 elements, 72 kB per device
    ("sweep", [3, 3, 1]),
    # a toggle on a 300-device comb: 2 x 300 elements, 14.4 kB per device
    ("comb toggle", [18] * 16 + [12]),
    # the bringup spectrum: 22 001 elements, one device per pass
    ("spectrum", [1] * 7),
    # 1-d states with a short probe, and the fully scalar call
    ("one point", [7]),
    ("scalar", [7]),
    # a scalar probe over a batch
    ("scalar probe", [7]),
])
def test_s21_feedline_block_passes_equal_the_per_device_product(chip7, monkeypatch, case,
                                                                passes):
    rng = np.random.default_rng(31)
    chip = make_comb(300) if case == "comb toggle" else chip7
    n = len(chip.devices)
    states = np.full((2, n), -1.0)
    states[0, n // 2] = 1.0
    fluxes = np.tile([d.qubit.symmetry_flux for d in chip.devices], (2, 1))
    probe = channel_probe(chip)
    if case == "sweep":
        states = rng.choice([-1.0, 1.0], (500, n))
        fluxes = np.linspace(-0.025, 0.025, 500)
        probe = channel_probe(chip, 6)
    elif case == "spectrum":
        states, fluxes = states[1], fluxes[1]
        probe = TWO_PI * np.linspace(9.25e9, 10.35e9, 22001)
    elif case == "one point":
        states, fluxes = states[0], 0.004
    elif case == "scalar":
        states, fluxes, probe = states[0], 0.004, probe[n // 2]
    elif case == "scalar probe":
        states = rng.choice([-1.0, 1.0], (500, n))
        fluxes, probe = rng.uniform(-0.03, 0.03, (500, n)), probe[0]
    expected = per_device_product(chip, probe, states, fluxes)
    recorded = recorded_passes(monkeypatch)
    got = s21_feedline(chip, probe, states, fluxes)
    assert [m for m, _ in recorded] == passes
    assert all(m == 1 or nbytes <= _SCRATCH_BYTES for m, nbytes in recorded)
    assert isinstance(got, complex) == (case == "scalar")
    assert_bitwise_equal(got, expected)
    if case == "scalar":
        # a fully scalar call equals the one-point call, bit for bit
        assert_bitwise_equal(got, s21_feedline(chip, np.array([probe]), states, [0.004] * n)[0])


@pytest.mark.parametrize("state", [QubitStateLabel.GROUND, QubitStateLabel.EXCITED])
@pytest.mark.parametrize("which", ["chip7", "comb"])
def test_dressed_resonances_equal_the_public_helper(chip7, which, state):
    chip = chip7 if which == "chip7" else make_comb(COMB_N, zero_coupling=(0, 37, 99))
    expected = [dressed_resonance(d, d.qubit.symmetry_flux, state) for d in chip.devices]
    got = _dressed_resonances(chip, chip.device_ids, state)
    assert all(type(f) is float for f in got)
    assert [f.hex() for f in got] == [f.hex() for f in expected]
    # a subset in any order, with repeats, comes back in its own order
    rng = np.random.default_rng(7)
    ids = [int(i) for i in rng.permutation(chip.device_ids)[: len(chip.devices) // 2]]
    ids.append(ids[0])
    by_id = dict(zip(chip.device_ids, expected))
    assert _dressed_resonances(chip, ids, float(state)) == [by_id[i] for i in ids]
    if which == "comb":
        # zero coupling: the bare frequency, in both states
        assert got[37] == chip.devices[37].resonator.bare_frequency


def test_dressed_resonances_reject_what_the_public_helper_rejects(chip7):
    dev = chip7.devices[0]
    with pytest.raises(UnknownDeviceError, match="no device 99"):
        _dressed_resonances(chip7, [1, 99], -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state, match in ((math.nan, "state must be finite"),
                             (math.inf, "state must be finite"),
                             (1e308, "shift must be finite")):
            with pytest.raises(ConfigError, match=match):
                dressed_resonance(dev, dev.qubit.symmetry_flux, state)
            with pytest.raises(ConfigError, match=match):
                _dressed_resonances(chip7, chip7.device_ids, state)


def test_dressed_resonances_check_only_the_devices_asked_for():
    # 2 pi gap overflows for device 2 alone
    base = make_chip(2)
    huge = DeviceRecord(device_id=2, qubit=make_qubit(gap=1e308),
                        resonator=base.devices[1].resonator)
    chip = Chip(name="huge", devices=(base.devices[0], huge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="omega_q must be finite"):
            dressed_resonance(huge, huge.qubit.symmetry_flux)
        with pytest.raises(ConfigError, match="omega_q must be finite"):
            _dressed_resonances(chip, [1, 2], -1.0)
        dev = base.devices[0]
        assert _dressed_resonances(chip, [1], -1.0) == [
            dressed_resonance(dev, dev.qubit.symmetry_flux)]


@pytest.mark.parametrize("states, fluxes, match", [
    # the qubit frequency overflows
    ([-1.0] * 7, 1e300, "qubit frequency must be finite"),
    # the pull overflows
    ([1e308] * 7, 0.0, "shift must be finite"),
    # probe - omega_r - pull overflows in the notch
    ([1e290] * 7, 0.0, "S21 must be finite"),
])
@pytest.mark.parametrize("batch", [False, True])
def test_s21_feedline_rejects_an_overflow(chip7, states, fluxes, match, batch):
    probe = np.finfo(float).max if match == "S21 must be finite" else TWO_PI * 9.3e9
    if batch:
        states = np.array([[-1.0] * 7, states])
        fluxes = [0.0, fluxes]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=match):
            s21_feedline(chip7, probe, states, fluxes)


def test_s21_feedline_keeps_a_finite_result_whose_pull_denominator_overflows(chip7):
    # qubits near 2e307 Hz: 2 pi f is finite, but |detuning| + hypot(...)
    # overflows, so every pull is zero and the per-device product finite
    fluxes = np.array([2e307 / d.qubit.flux_sensitivity for d in chip7.devices])
    probe = channel_probe(chip7)
    states = np.full(7, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = s21_feedline(chip7, probe, states, fluxes)
        assert_bitwise_equal(got, per_device_product(chip7, probe, states, fluxes))
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("probe, shift", [
    (1.7e308, -1.7e308),
    (np.array([TWO_PI * 9.6e9, 1.7e308]), -1.7e308),
    (-np.finfo(float).max, 1e300),
])
def test_s21_single_rejects_an_overflowing_detuning(probe, shift):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="S21 must be finite"):
            s21_single(make_resonator(), probe, shift)


def test_s21_single_keeps_finite_results_at_huge_probes():
    r = make_resonator()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probe, shift in ((np.finfo(float).max, 0.0), (1e308, 1e308), (-1e308, -1e308)):
            assert math.isfinite(abs(s21_single(r, probe, shift)))


def test_chip_device_axis_is_private_and_read_only():
    chip = make_chip(3)
    twin = Chip(name="test", devices=chip.devices)
    assert chip == twin and hash(chip) == hash(twin)
    assert repr(chip) == f"Chip(name='test', devices={chip.devices!r})"
    axis = chip._axis
    np.testing.assert_array_equal(axis.omega_r,
                                  [TWO_PI * d.resonator.bare_frequency for d in chip.devices])
    with pytest.raises(ValueError):
        axis.gap[0] = 0.0
    empty = Chip(name="empty", devices=())
    assert s21_feedline(empty, TWO_PI * 9e9, [], 0.0) == 1.0


def test_qubit_frequency_rejects_non_finite_flux():
    q = make_qubit()
    for bad in (math.nan, math.inf, -math.inf, np.array([0.0, math.nan])):
        with pytest.raises(ConfigError, match="flux must be finite"):
            qubit_frequency(q, bad)


@pytest.mark.parametrize("where", ["omega_q", "state"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_dependent_shift_rejects_non_finite_input(where, bad):
    r = make_resonator()
    args = {"omega_q": TWO_PI * 4.2e9, "state": -1.0, where: bad}
    with pytest.raises(ConfigError, match=f"{where} must be finite"):
        state_dependent_shift(r, args["omega_q"], args["state"])
    with pytest.raises(ConfigError, match="must be finite"):
        state_dependent_shift(make_resonator(g=0.0), args["omega_q"], args["state"])


@pytest.mark.parametrize("where", ["probe_omega", "shift"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_s21_single_rejects_non_finite_input(where, bad):
    r = make_resonator()
    args = {"probe_omega": TWO_PI * 9.6e9, "shift": 0.0, where: bad}
    with pytest.raises(ConfigError, match=f"{where} must be finite"):
        s21_single(r, args["probe_omega"], args["shift"])


@pytest.mark.parametrize("where", ["flux", "state"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dressed_resonance_rejects_non_finite_input(where, bad):
    dev = make_chip(1).devices[0]
    args = {"flux": 0.0, "state": -1.0, where: bad}
    with pytest.raises(ConfigError, match=f"{where} must be finite"):
        dressed_resonance(dev, args["flux"], args["state"])


@pytest.mark.parametrize("flux", [1e300, -1e300, np.array([0.0, 1e300]), np.array(1e300)])
def test_qubit_frequency_rejects_an_overflowing_flux(flux):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="qubit frequency must be finite"):
            qubit_frequency(make_qubit(), flux)


@pytest.mark.parametrize("omega_q, state", [
    (1e308, 1e308),
    (-1e308, 1e308),
    (np.array([TWO_PI * 4.2e9, 1e308]), 1e308),
    (TWO_PI * 4.2e9, 1e308),
])
def test_state_dependent_shift_rejects_an_overflowing_pull(omega_q, state):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="shift must be finite"):
            state_dependent_shift(make_resonator(), omega_q, state)


def test_dressed_resonance_rejects_an_overflowing_flux():
    dev = make_chip(1).devices[0]
    # qubit_frequency is finite here, 2 pi times it is not
    huge = 1.7e308 / dev.qubit.flux_sensitivity
    assert math.isfinite(qubit_frequency(dev.qubit, huge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flux in (1e300, huge, np.array(huge)):
            with pytest.raises(ConfigError, match="finite"):
                dressed_resonance(dev, flux)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["states", "fluxes", "probe"])
def test_s21_feedline_rejects_non_finite_input(where, bad):
    chip = make_chip(3)
    args = {"probe": TWO_PI * np.array([9.3e9, 9.4e9]),
            "states": np.full((2, 3), -1.0), "fluxes": np.zeros(2)}
    args[where] = args[where].copy()
    args[where][-1] = bad
    with pytest.raises(ConfigError, match="finite"):
        s21_feedline(chip, args["probe"], args["states"], args["fluxes"])


def test_s21_feedline_batch_rejects_mismatched_shapes():
    chip = make_chip(3)
    probe = TWO_PI * 9.4e9
    with pytest.raises(ConfigError):
        s21_feedline(chip, probe, np.full((4, 2), -1.0), 0.0)
    with pytest.raises(ConfigError):
        s21_feedline(chip, probe, np.full((4, 3), -1.0), np.zeros(5))
    with pytest.raises(ConfigError):
        s21_feedline(chip, probe, np.full((2, 4, 3), -1.0), 0.0)


def test_dressed_resonance_matches_shift():
    chip = make_chip(1)
    dev = chip.device(1)
    flux = dev.qubit.symmetry_flux
    omega_q = TWO_PI * qubit_frequency(dev.qubit, flux)
    shift = state_dependent_shift(dev.resonator, omega_q, -1.0)
    expected = dev.resonator.bare_frequency + shift / TWO_PI
    assert dressed_resonance(dev, flux) == pytest.approx(expected, rel=1e-15)


def test_chip_device_lookup_and_unknown_id():
    chip = make_chip(2)
    assert chip.device(2).device_id == 2
    assert chip.device_ids == (1, 2)
    with pytest.raises(UnknownDeviceError):
        chip.device(9)


def test_chip_lookup_by_id_on_a_300_device_comb():
    comb = make_comb(300)
    # the ids in chip order, and each id's record as a scan would find it
    assert comb.device_ids == tuple(d.device_id for d in comb.devices)
    for dev in comb.devices:
        assert comb.device(dev.device_id) is dev
        assert comb.device(np.int64(dev.device_id)) is dev
    assert _dressed_resonances(comb, [300, 1, 150], -1.0) == [
        dressed_resonance(comb.device(d), comb.device(d).qubit.symmetry_flux) for d in (300, 1, 150)
    ]
    for unknown in (0, 301, -1, 1.5, "1", None, [1]):
        with pytest.raises(UnknownDeviceError):
            comb.device(unknown)
        with pytest.raises(UnknownDeviceError):
            _dressed_resonances(comb, [1, unknown], -1.0)
    # the lookup table is not a field: equality, hash and repr are the
    # devices' alone
    twin = Chip(name=comb.name, devices=comb.devices)
    assert twin == comb and hash(twin) == hash(comb) and repr(twin) == repr(comb)
    assert "_position" not in repr(comb)


def test_chip_rejects_duplicate_ids():
    dev = make_chip(1).devices[0]
    with pytest.raises(ConfigError):
        Chip(name="dup", devices=(dev, dev))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(bare_frequency=-1.0),
        dict(total_linewidth_kappa=0.0),
        dict(external_linewidth=0.0),
        dict(external_linewidth=TWO_PI * 11e6),  # exceeds kappa
        dict(coupling_g=-1.0),
    ],
)
def test_resonator_params_validation(kwargs):
    base = dict(
        bare_frequency=9.6e9,
        total_linewidth_kappa=TWO_PI * 10e6,
        external_linewidth=TWO_PI * 9.5e6,
        coupling_g=TWO_PI * 40e6,
    )
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ResonatorParams(**base)


def test_qubit_params_validation():
    with pytest.raises(ConfigError):
        QubitParams(gap_delta=-1.0, flux_sensitivity=1.0, symmetry_flux=0.0,
                    relaxation_rate_gamma=0.0)
    with pytest.raises(ConfigError):
        QubitParams(gap_delta=4e9, flux_sensitivity=1.0, symmetry_flux=0.0,
                    relaxation_rate_gamma=-1.0)
