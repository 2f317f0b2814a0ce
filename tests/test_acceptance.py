"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line per checked item (run pytest with -s to
see them live; they also appear in captured output on failure).
"""

import math
import time

import numpy as np

from lasergrav import (CONSTANTS, InteractionParams, border_atom_number,
                       config_at_ratio, critical_intensity_ratio, f_factor,
                       hartree_potential, intensity_in, interference_rate,
                       kernel_shape, minimize_width, oscillation_onset,
                       pair_potential, plasma_frequency_scaled, rayleigh_rate,
                       rayleigh_rate_from_coupling, recoil_energy,
                       repulsion_coupling, saturation_at_threshold,
                       threshold_intensity)
from lasergrav.gpe import RadialGrid
from lasergrav.regimes import atom_capacity
from lasergrav.variational import pair_energy
from quadrature_oracle import pair_interaction_integral

NA_LAM = 589e-9


def _check(results, name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    results.append((name, ok, detail))


def _finish(results):
    failed = [f"{name}: {detail}" for name, ok, detail in results if not ok]
    assert not failed, "failed items:\n" + "\n".join(failed)


def test_criterion_1_threshold_intensities(na, rb):
    results = []
    i_na = intensity_in(threshold_intensity(na), "W/cm^2")
    _check(results, "1a threshold Na static", abs(i_na / 5.65e9 - 1) < 0.03,
           f"I0 = {i_na:.4g} W/cm^2 vs 5.65e9 (3%)")
    i_rb = intensity_in(threshold_intensity(rb), "W/cm^2")
    _check(results, "1b threshold Rb87 static", abs(i_rb / 8.19e8 - 1) < 0.03,
           f"I0 = {i_rb:.4g} W/cm^2 vs 8.19e8 (3%)")
    i_det = intensity_in(threshold_intensity(na, use_detuned=True), "mW/cm^2")
    _check(results, "1c threshold Na detuned", abs(i_det / 262.0 - 1) < 0.10,
           f"I0 = {i_det:.4g} mW/cm^2 vs 262 (10%)")
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        threshold_intensity(na)
        threshold_intensity(rb)
        threshold_intensity(na, use_detuned=True)
    per_call = (time.perf_counter() - t0) / (3 * reps)
    _check(results, "1d threshold runtime", per_call < 1e-3,
           f"{per_call * 1e6:.2f} us per evaluation (< 1 ms)")
    _finish(results)


def test_criterion_2_self_binding_transition(na):
    results = []
    t0 = time.perf_counter()
    ratio = critical_intensity_ratio(na, NA_LAM, use_detuned=True)
    elapsed = time.perf_counter() - t0
    _check(results, "2a critical ratio", abs(ratio - 1.0) < 0.05,
           f"I_c/I0 = {ratio:.4f} vs 1.00 (5%)")
    other_n = critical_intensity_ratio(na, NA_LAM, n_atoms=1e5,
                                       use_detuned=True)
    _check(results, "2b independent of N", abs(other_n / ratio - 1) < 1e-3,
           f"N=1 vs N=1e5: {ratio:.6f} vs {other_n:.6f}")
    other_lam = critical_intensity_ratio(na, 1.064e-6, use_detuned=True)
    _check(results, "2c independent of wavelength",
           abs(other_lam / ratio - 1) < 1e-3,
           f"589 nm vs 1.064 um: {ratio:.6f} vs {other_lam:.6f}")
    _check(results, "2d critical ratio runtime", elapsed < 1.0,
           f"{elapsed:.2f} s (< 1 s)")
    _finish(results)


def test_criterion_3_condensate_size(tf_width_15, gpe_full_1024):
    results = []
    r_var = tf_width_15.r_rms / NA_LAM
    _check(results, "3a variational radius", abs(r_var / 0.43 - 1) < 0.05,
           f"R_rms = {r_var:.4f} lam vs 0.43 (5%)")
    state, elapsed = gpe_full_1024
    rel = abs(state.r_rms / tf_width_15.r_rms - 1)
    _check(results, "3b PDE cross-check", rel < 0.10,
           f"PDE R_rms = {state.r_rms / NA_LAM:.4f} lam, "
           f"{100 * rel:.1f}% from variational (10%)")
    _check(results, "3c PDE runtime n=1024", elapsed < 2.0,
           f"{elapsed:.2f} s (< 2 s)")
    _finish(results)


def test_criterion_4_inverse_sqrt_intensity_tail(na):
    results = []
    ratios = np.logspace(1.0, 2.0, 7)
    radii = []
    for ratio in ratios:
        cfg = config_at_ratio(na, float(ratio), NA_LAM, use_detuned=True,
                              tf_limit=True)
        radii.append(minimize_width(cfg).r_rms)
    slope = np.polyfit(np.log10(ratios), np.log10(radii), 1)[0]
    _check(results, "4 asymptotic slope", abs(slope + 0.5) < 0.05,
           f"d log R / d log I = {slope:.4f} vs -0.5 (0.05)")
    _finish(results)


def test_criterion_5_atom_capacity(na):
    results = []
    n_co2 = atom_capacity(10.6e-6, 1e22, 1.5, na, use_detuned=True)
    _check(results, "5a capacity CO2 10.6 um", 3e5 <= n_co2 <= 3e6,
           f"N = {n_co2:.3g} in [3e5, 3e6]")
    n_yag = atom_capacity(1.064e-6, 1e22, 1.5, na, use_detuned=True)
    _check(results, "5b capacity Nd:YAG 1.064 um", 3e2 <= n_yag <= 3e3,
           f"N = {n_yag:.3g} in [3e2, 3e3]")
    n_na = atom_capacity(NA_LAM, 1e21, 1.5, na, use_detuned=True)
    _check(results, "5c capacity Na 589 nm", abs(n_na / 40.0 - 1) < 0.5,
           f"N = {n_na:.3g} vs 40 (50%)")
    _finish(results)


def test_criterion_6_loss_budget(na, tf_width_15):
    results = []
    i0 = threshold_intensity(na, use_detuned=True)
    gamma = rayleigh_rate(1.5 * i0, na, NA_LAM, use_detuned=True)
    _check(results, "6a Rayleigh rate", abs(gamma / 1.58e4 - 1) < 0.05,
           f"Gamma = {gamma:.4g} /s vs 1.58e4 (5%)")
    e_r = recoil_energy(na, NA_LAM)
    _check(results, "6b recoil energy",
           abs(e_r / CONSTANTS.hbar / 1.57e5 - 1) < 0.01,
           f"E_R/hbar = {e_r / CONSTANTS.hbar:.4g} /s vs 1.57e5 (1%)")
    u = InteractionParams.from_intensity(na, 1.5 * i0, NA_LAM,
                                         use_detuned=True).coupling
    n_b = border_atom_number(u, na)
    omega_p = plasma_frequency_scaled(40.0, gamma, e_r, n_b)
    _check(results, "6c plasma over Rayleigh",
           abs(omega_p / gamma / 20.0 - 1) < 0.40,
           f"omega_p/Gamma = {omega_p / gamma:.2f} vs 20 (40%)")
    g_int = interference_rate(40.0, gamma, e_r, omega_p, f_factor(40.0, n_b))
    _check(results, "6d interference over Rayleigh",
           1.0 <= g_int / gamma <= 20.0,
           f"Gamma_interf/Gamma = {g_int / gamma:.2f} in [1, 20]")
    _finish(results)


def test_criterion_7_saturation_and_repulsion(na):
    results = []
    s, premises_ok = saturation_at_threshold(na)
    _check(results, "7a saturation at threshold",
           1.5e-4 <= s <= 6e-4 and premises_ok,
           f"s = {s:.3g} vs 3e-4 (factor 2), far-detuned premises "
           f"{'hold' if premises_ok else 'violated'}")
    i0 = threshold_intensity(na, use_detuned=True)
    u = InteractionParams.from_intensity(na, i0, NA_LAM,
                                         use_detuned=True).coupling
    k, negligible = repulsion_coupling(s, u)
    _check(results, "7b repulsion negligible", negligible,
           f"K/u = {k / u:.3g} (< 1e-2)")
    _finish(results)


def test_criterion_8_property_suite(na):
    results = []

    # near-zone limit of the pair potential: with x = 2 pi r/lam the series
    # of the closed form is U r/(-u) = (15/22) x f(x)
    # = 1 - (46/77) x^2 + (86/693) x^4 - ..., so dev = U r/u + 1 must follow
    # (46/77) x^2 to within x^4/4, and stays below 1e-3 up to the edge where
    # (46/77) x^2 = 1e-3
    r = np.logspace(-4, -2, 200)
    x = 2.0 * math.pi * r
    deviation = kernel_shape(r) * r + 1.0
    residual = float(np.max(np.abs(deviation - (46 / 77) * x**2) / x**4))
    edge = math.sqrt(1e-3 / (46 / 77)) / (2.0 * math.pi)
    inner = float(np.max(np.abs(deviation[r <= edge])))
    _check(results, "8a near-zone limit", residual <= 1 / 4 and inner < 1e-3,
           f"sup |dev - (46/77) x^2| / x^4 = {residual:.3f} on r/lam in "
           f"[1e-4, 1e-2] (<= 1/4); sup |U r/(-u) - 1| = {inner:.3e} on "
           f"r/lam in [1e-4, {edge:.3e}] (< 1e-3)")

    onset = oscillation_onset()
    _check(results, "8b oscillation onset", abs(onset - 0.36) <= 0.02,
           f"r*/lam = {onset:.4f} vs 0.36 (0.02)")

    # harmonic-oscillator exactness of the PDE solver
    from dataclasses import replace

    from lasergrav import AnsatzConfig, InteractionParams, solve_ground
    species = replace(na, scattering_length=0.0, detuned=None)
    omega0 = 2 * math.pi * 100.0
    l0 = math.sqrt(CONSTANTS.hbar / (species.mass * omega0))
    params = InteractionParams(intensity=0.0, wavelength=NA_LAM, coupling=0.0,
                               alpha_si=species.alpha_si())
    cfg = AnsatzConfig(n_atoms=100.0, species=species, interaction=params,
                       trap_frequency=omega0)
    grid = RadialGrid(n_points=512, r_max=8.0 * math.sqrt(1.5) * l0)
    state = solve_ground(cfg, grid)
    mu_err = abs(state.mu / (1.5 * CONSTANTS.hbar * omega0) - 1)
    r_err = abs(state.r_rms / (math.sqrt(1.5) * l0) - 1)
    _check(results, "8c harmonic-oscillator exactness",
           mu_err < 1e-4 and r_err < 1e-4,
           f"mu off by {mu_err:.2e}, R_rms off by {r_err:.2e} (< 1e-4)")

    # Newtonian Hartree oracle for a Gaussian source
    from scipy.special import erf
    b = 0.35 * NA_LAM
    grid = RadialGrid(n_points=512, r_max=3.5 * NA_LAM)
    rho = 500.0 * np.exp(-(grid.nodes / b) ** 2) / (math.pi * b * b) ** 1.5
    phi = hartree_potential(rho, grid, 1.7e-37, NA_LAM, kernel="near_zone")
    exact = -1.7e-37 * 500.0 * erf(grid.nodes / b) / grid.nodes
    hartree_err = float(np.max(np.abs(phi - exact) / np.abs(exact)))
    _check(results, "8d Newtonian Hartree oracle", hartree_err < 1e-2,
           f"max relative error {hartree_err:.2e} (< 1e-2)")

    # Monte-Carlo agreement of the closed-form pair energy and its
    # quadrature oracle
    w = 0.3
    closed = pair_energy(w)
    quad = pair_interaction_integral(w)
    rng = np.random.default_rng(7)
    s = np.linalg.norm(rng.normal(scale=w, size=(1_000_000, 3)), axis=1)
    samples = pair_potential(s, 1.0, 1.0)
    mc = float(np.mean(samples))
    sem = float(np.std(samples, ddof=1)) / math.sqrt(len(s))
    _check(results, "8e Monte-Carlo pair energy",
           abs(closed - mc) < 3.0 * sem and abs(quad - mc) < 3.0 * sem,
           f"closed form {closed:.6f}, quadrature {quad:.6f} vs sampling "
           f"{mc:.6f} +- {sem:.1e} (3 sigma)")

    # the two Rayleigh forms are one identity
    worst = 0.0
    for intensity, lam in ((1.0e3, 589e-9), (2.6e3, 1.064e-6), (5e13, 1.06e-5)):
        direct = rayleigh_rate(intensity, na, lam, use_detuned=True)
        u = InteractionParams.from_intensity(na, intensity, lam,
                                             use_detuned=True).coupling
        worst = max(worst, abs(direct / rayleigh_rate_from_coupling(u, lam) - 1))
    _check(results, "8f Rayleigh identity", worst < 1e-10,
           f"worst relative spread {worst:.2e} (< 1e-10)")

    golden = (1 + math.sqrt(5.0)) / 2.0
    f_err = abs(f_factor(123.0, 123.0) - golden)
    _check(results, "8g f at the border", f_err < 1e-12,
           f"|f - golden ratio| = {f_err:.2e} (< 1e-12)")

    _finish(results)
