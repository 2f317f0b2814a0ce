import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasergrav import (CONSTANTS, DetunedContext, InteractionParams,
                       border_atom_number, f_factor, interference_rate,
                       lifetime_bound, loss_report, plasma_frequency_direct,
                       plasma_frequency_scaled, polarizability_volume,
                       rabi_frequency, rayleigh_rate,
                       rayleigh_rate_from_coupling, recoil_energy,
                       repulsion_coupling, saturation_at_threshold,
                       saturation_general, threshold_intensity)

LAM = 589e-9


def test_rayleigh_reference_value(na):
    i0 = threshold_intensity(na, use_detuned=True)
    gamma = rayleigh_rate(1.5 * i0, na, LAM, use_detuned=True)
    assert gamma == pytest.approx(1.58e4, rel=0.05)


def test_rayleigh_zero_intensity(na):
    assert rayleigh_rate(0.0, na, LAM, use_detuned=True) == 0.0


@settings(derandomize=True, max_examples=100)
@given(intensity=st.floats(1e-3, 1e14), lam=st.floats(2e-7, 2e-5))
def test_rayleigh_formulas_identical(intensity, lam):
    from lasergrav import catalog_lookup

    na = catalog_lookup("Na")
    direct = rayleigh_rate(intensity, na, lam, use_detuned=True)
    u = InteractionParams.from_intensity(na, intensity, lam,
                                         use_detuned=True).coupling
    via_coupling = rayleigh_rate_from_coupling(u, lam)
    assert abs(direct - via_coupling) <= 1e-10 * direct


def test_lifetime_bound_values():
    assert lifetime_bound(2.0e4, 1.0, 1.0) == pytest.approx(5e-5)
    tau1 = lifetime_bound(2.0e4, 1.0e7, 2.0e-7)
    tau2 = lifetime_bound(2.0e4, 1.0e7, 1.0e-7)
    assert tau2 == pytest.approx(4.0 * tau1, rel=1e-12)
    with pytest.raises(ValueError):
        lifetime_bound(0.0, 1.0, 1.0)


def test_lifetime_suppression_identity(na):
    gamma = 1.58e4
    q = 2 * math.pi / LAM
    r_rms = 0.43 * LAM
    tau = lifetime_bound(gamma, q, r_rms)
    assert tau * gamma * (q * r_rms) ** 2 == pytest.approx(1.0, rel=1e-12)
    # Lamb-Dicke factor (2 pi 0.43)^-2 sets the lifetime gain over 1/Gamma
    assert tau * gamma == pytest.approx((2 * math.pi * 0.43) ** -2, rel=1e-12)


def test_recoil_energy_reference(na):
    e_r = recoil_energy(na, LAM)
    assert e_r / CONSTANTS.hbar == pytest.approx(1.57e5, rel=0.01)


def test_plasma_direct_scalings(na):
    u = 1.7e-37
    w1 = plasma_frequency_direct(u, 1e20, na)
    w2 = plasma_frequency_direct(u, 4e20, na)
    assert w2 == pytest.approx(2.0 * w1, rel=1e-12)
    assert plasma_frequency_direct(0.0, 1e20, na) == 0.0


def test_plasma_scaled_reference_point(na):
    i0 = threshold_intensity(na, use_detuned=True)
    gamma = rayleigh_rate(1.5 * i0, na, LAM, use_detuned=True)
    u = InteractionParams.from_intensity(na, 1.5 * i0, LAM,
                                         use_detuned=True).coupling
    n_b = border_atom_number(u, na)
    omega = plasma_frequency_scaled(40.0, gamma, recoil_energy(na, LAM), n_b)
    assert omega / gamma == pytest.approx(20.0, rel=0.40)


def test_plasma_scaled_quadratic_in_n_deep_in_gravity_regime(na):
    gamma, e_r, n_b = 1.58e4, recoil_energy(na, LAM), 1e6
    w1 = plasma_frequency_scaled(10.0, gamma, e_r, n_b)
    w2 = plasma_frequency_scaled(20.0, gamma, e_r, n_b)
    assert w2 / w1 == pytest.approx(4.0, rel=1e-4)


def test_interference_reference_point(na):
    i0 = threshold_intensity(na, use_detuned=True)
    gamma = rayleigh_rate(1.5 * i0, na, LAM, use_detuned=True)
    u = InteractionParams.from_intensity(na, 1.5 * i0, LAM,
                                         use_detuned=True).coupling
    n_b = border_atom_number(u, na)
    e_r = recoil_energy(na, LAM)
    omega_p = plasma_frequency_scaled(40.0, gamma, e_r, n_b)
    g_int = interference_rate(40.0, gamma, e_r, omega_p, f_factor(40.0, n_b))
    assert 1.0 <= g_int / gamma <= 20.0


def test_interference_scalings(na):
    e_r = recoil_energy(na, LAM)
    base = interference_rate(10.0, 1e4, e_r, 1e5, 1.3)
    doubled = interference_rate(20.0, 1e4, e_r, 1e5, 1.3)
    assert doubled == pytest.approx(16.0 * base, rel=1e-12)
    assert interference_rate(10.0, 0.0, e_r, 1e5, 1.3) == 0.0
    with pytest.raises(ValueError):
        interference_rate(10.0, 1e4, e_r, 0.0, 1.3)


def test_saturation_reference_value(na):
    s, ok = saturation_at_threshold(na)
    assert ok
    assert 1.5e-4 <= s <= 6e-4  # 3e-4 within a factor two
    assert s == pytest.approx(3e-4, rel=1.0)


def test_saturation_threshold_form_is_detuning_independent(na):
    # realize two detunings with the matching two-level polarizability and
    # evaluate the general form at each threshold intensity
    d = na.detuned.dipole_moment
    values = []
    for delta in (2 * math.pi * 1.7e9, 2 * math.pi * 8.5e9):
        alpha_si = d**2 / (CONSTANTS.hbar * delta)
        ctx = DetunedContext(transition_wavelength=LAM, detuning=delta,
                             linewidth=na.detuned.linewidth, dipole_moment=d,
                             polarizability_volume=polarizability_volume(alpha_si))
        species = replace(na, detuned=ctx)
        i0 = threshold_intensity(species, use_detuned=True)
        values.append(saturation_general(i0, d, delta))
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    s_threshold, _ = saturation_at_threshold(na)
    assert values[0] == pytest.approx(s_threshold, rel=1e-10)


def test_saturation_linear_in_intensity(na):
    d = na.detuned.dipole_moment
    delta = na.detuned.detuning
    assert saturation_general(2.0, d, delta) == \
        pytest.approx(2.0 * saturation_general(1.0, d, delta), rel=1e-15)


def test_saturation_predicate_flags_small_detuning(na):
    ctx = replace(na.detuned, detuning=2.0 * na.detuned.linewidth)
    species = replace(na, detuned=ctx)
    s, ok = saturation_at_threshold(species)
    assert not ok
    assert s == pytest.approx(saturation_at_threshold(na)[0], rel=1e-12)


def test_saturation_requires_dipole_moment(rb):
    with pytest.raises(ValueError, match="dipole"):
        saturation_at_threshold(rb)


def test_repulsion_coupling(na):
    assert repulsion_coupling(0.0, 1e-37) == (0.0, True)
    k, negligible = repulsion_coupling(3.46e-4, 1e-37)
    assert k == pytest.approx(3.46e-41)
    assert negligible
    k, negligible = repulsion_coupling(1.0, 1e-37)
    assert k == pytest.approx(1e-37)
    assert not negligible


def test_rabi_frequency_scaling(na):
    d = na.detuned.dipole_moment
    assert rabi_frequency(4.0, d) == pytest.approx(2.0 * rabi_frequency(1.0, d),
                                                   rel=1e-12)


def test_loss_report_reference_point(na):
    report = loss_report(na, 1.5, 40.0, LAM)
    assert report.gamma_ray == pytest.approx(1.58e4, rel=0.05)
    assert report.recoil_energy / CONSTANTS.hbar == pytest.approx(1.57e5,
                                                                  rel=0.01)
    assert report.omega_p_scaled / report.gamma_ray == pytest.approx(20.0,
                                                                     rel=0.40)
    # the two plasma-frequency routes agree within a factor two
    ratio = report.omega_p_scaled / report.omega_p_direct
    assert 0.5 <= ratio <= 2.0
    assert 1.0 <= report.gamma_interf / report.gamma_ray <= 20.0
    # collective dynamics beats the scattering rate; the oscillations-within-
    # lifetime figure is reportable (the lifetime lower bound carries the
    # (q R)^2 > 1 factor at this radius, so the bound itself is conservative)
    assert report.omega_p_scaled / report.gamma_ray > 1.0
    oscillations = report.omega_p_scaled * report.tau_ray_lower_bound / (2 * math.pi)
    assert math.isfinite(oscillations) and oscillations > 0.0
    for field in ("gamma_ray", "tau_ray_lower_bound", "omega_p_direct",
                  "omega_p_scaled", "gamma_interf", "saturation", "repulsion",
                  "recoil_energy"):
        assert getattr(report, field) >= 0.0


def test_loss_report_lifetime_identity(na):
    report = loss_report(na, 1.5, 40.0, LAM)
    q = 2 * math.pi / LAM
    # reconstruct R_rms from the identity tau Gamma (q R)^2 = 1
    r_rms = 1.0 / math.sqrt(report.tau_ray_lower_bound * report.gamma_ray) / q
    assert r_rms / LAM == pytest.approx(0.43, rel=0.05)
