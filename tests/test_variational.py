import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lasergrav import (CONSTANTS, AnsatzConfig, InteractionParams,
                       config_at_ratio, critical_intensity_ratio,
                       energy_breakdown, energy_gradient_parts, mfa_validity,
                       minimize_width, pair_potential, peak_density,
                       threshold_intensity, total_energy, width_vs_intensity)
from lasergrav import variational
from lasergrav.errors import NumericsError
from lasergrav.variational import (CONTACT_AT_THRESHOLD, W_ASYMPTOTIC, W_MAX, W_MIN,
                                   W_SWITCH, _brent_root, _reduced, pair_energy,
                                   tf_energy_unit)
from quadrature_oracle import pair_interaction_integral
from scan_oracle import scanned_minima

LAM = 589e-9


def _gaussian_pairs(rng, w, n_samples):
    """Pair separations (units of lam) for two draws from the trial cloud."""
    # per-axis variance of each position is w^2/2, of the separation w^2
    delta = rng.normal(scale=w, size=(n_samples, 3))
    return np.linalg.norm(delta, axis=1)


def test_pair_density_integral_is_normalized():
    # the integrator reproduces <1/s> for the Maxwell separation law
    for w in (0.05, 0.3, 2.0):
        mean_inv = pair_interaction_integral(w, kernel="near_zone")
        assert mean_inv == pytest.approx(-2.0 / (math.sqrt(2 * math.pi) * w),
                                         rel=1e-9)


def test_near_zone_mean_by_monte_carlo():
    # 1e6-sample check of <1/s> against the closed form, 0.5% tolerance
    rng = np.random.default_rng(42)
    w = 0.3
    s = _gaussian_pairs(rng, w, 1_000_000)
    mc = float(np.mean(-1.0 / s))
    exact = -2.0 / (math.sqrt(2 * math.pi) * w)
    assert mc == pytest.approx(exact, rel=5e-3)


def test_gravitational_energy_matches_monte_carlo(na):
    # full kernel at (w=0.3, I=1.5 I0): quadrature within 3 sigma of sampling
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=1000.0, use_detuned=True,
                          tf_limit=True)
    w = 0.3
    breakdown = energy_breakdown(w, cfg)
    rng = np.random.default_rng(7)
    s = _gaussian_pairs(rng, w, 1_000_000)
    u_vals = pair_potential(s, cfg.interaction.coupling, LAM)
    mc_mean = 0.5 * cfg.n_atoms * float(np.mean(u_vals))
    mc_sem = 0.5 * cfg.n_atoms * float(np.std(u_vals, ddof=1)) / math.sqrt(len(s))
    assert abs(breakdown.gravitational - mc_mean) < 3.0 * mc_sem


def test_swave_and_trap_terms_by_monte_carlo(na):
    # contact term ~ mean density, trap term ~ mean square radius
    params = InteractionParams.from_intensity(na, 0.0, LAM, use_detuned=True)
    cfg = AnsatzConfig(n_atoms=500.0, species=na, interaction=params,
                       trap_frequency=2 * math.pi * 150.0)
    w = 0.8
    b = w * LAM
    breakdown = energy_breakdown(w, cfg)
    rng = np.random.default_rng(11)
    pos = rng.normal(scale=b / math.sqrt(2.0), size=(400_000, 3))
    r2 = np.sum(pos**2, axis=1)
    density_one = np.exp(-r2 / b**2) / (math.pi * b * b) ** 1.5
    swave_mc = 0.5 * na.contact_coupling * cfg.n_atoms * float(np.mean(density_one))
    trap_mc = 0.5 * na.mass * cfg.trap_frequency**2 * float(np.mean(r2))
    assert breakdown.swave == pytest.approx(swave_mc, rel=5e-3, abs=0.0)
    assert breakdown.trap == pytest.approx(trap_mc, rel=5e-3, abs=0.0)


def test_term_switch_off_leaves_pure_contact_scaling(na):
    params = InteractionParams.from_intensity(na, 0.0, LAM, use_detuned=True)
    cfg = AnsatzConfig(n_atoms=100.0, species=na, interaction=params,
                       tf_limit=True)
    for w in (0.2, 0.5, 1.0, 3.0):
        breakdown = energy_breakdown(w, cfg)
        assert breakdown.kinetic == 0.0
        assert breakdown.trap == 0.0
        assert breakdown.gravitational == 0.0
        assert breakdown.total == breakdown.swave
        assert breakdown.total * w**3 == pytest.approx(
            energy_breakdown(1.0, cfg).total, rel=1e-12, abs=0.0)


def test_pure_gravity_minimizer_matches_calculus_oracle(na):
    # -u/r kernel, kinetic on, contact off: b* = 3 sqrt(2 pi) hbar^2/(2 m u N)
    n_atoms = 1000.0
    intensity = threshold_intensity(na, use_detuned=True)
    params = InteractionParams.from_intensity(na, intensity, LAM,
                                              use_detuned=True)
    cfg = AnsatzConfig(n_atoms=n_atoms, species=na.replace(scattering_length=0.0),
                       interaction=params, kernel="near_zone")
    result = minimize_width(cfg)
    b_star = 3.0 * math.sqrt(2 * math.pi) * CONSTANTS.hbar**2 / (
        2.0 * na.mass * params.coupling * n_atoms)
    assert result.bound_local and result.bound_global
    assert result.w_star == pytest.approx(b_star / LAM, rel=1e-9)
    e_oracle = 3 * CONSTANTS.hbar**2 / (4 * na.mass * b_star**2) \
        - params.coupling * n_atoms / (math.sqrt(2 * math.pi) * b_star)
    assert result.breakdown.total == pytest.approx(e_oracle, rel=1e-8, abs=0.0)


def test_tf_width_at_reference_intensity(tf_width_15):
    assert tf_width_15.bound_local and tf_width_15.bound_global
    assert tf_width_15.r_rms / LAM == pytest.approx(0.43, rel=0.05)


def test_unbound_below_threshold(na):
    cfg = config_at_ratio(na, 0.5, LAM, use_detuned=True, tf_limit=True)
    result = minimize_width(cfg)
    assert not result.bound_local
    assert not result.bound_global
    assert math.isnan(result.w_star)
    assert result.breakdown is None


def test_width_decreases_with_intensity(na):
    cfg = config_at_ratio(na, 1.0, LAM, use_detuned=True, tf_limit=True)
    rows = width_vs_intensity(cfg, [1.1, 1.5, 3.0, 10.0])
    widths = [row.w_star for row in rows]
    assert all(row.bound_local for row in rows)
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))


def test_width_sweep_tags_unbound_entries(na):
    cfg = config_at_ratio(na, 1.0, LAM, use_detuned=True, tf_limit=True)
    rows = width_vs_intensity(cfg, [0.9, 1.5])
    assert rows[0].bound_local is False
    assert math.isnan(rows[0].w_star)
    assert rows[1].bound_local is True


def test_critical_ratio_near_unity(na):
    ratio = critical_intensity_ratio(na, LAM, use_detuned=True)
    assert ratio == pytest.approx(1.0, rel=0.05)


def test_critical_ratio_is_unity_to_scan_accuracy(na):
    # h(w) rises to its supremum S_c as w -> infinity, so I_c/I0 = S/S_c is
    # 1 to the rounding of the contact and coupling products
    ratio = critical_intensity_ratio(na, LAM, use_detuned=True)
    assert abs(ratio - 1.0) < 1e-4
    assert abs(ratio - 1.0) < 1e-12


def test_far_field_slope_rises_below_contact_coefficient():
    # h(w) = w^4 g'(w)/6 increases monotonically towards S_c from below:
    # the premise that h(w) = S_c/r has exactly one root for r > 1 and none
    # for r <= 1, the root tf_width takes
    h = np.array([w**4 * pair_energy(w, d_dw=True) / 6.0
                  for w in np.logspace(-6.0, 3.0, 181).tolist()])
    assert np.all(np.diff(h) > 0.0)
    assert np.all(h < CONTACT_AT_THRESHOLD)
    assert h[-1] / CONTACT_AT_THRESHOLD == pytest.approx(1.0, abs=1e-7)


def test_tf_bound_beyond_the_default_scan(na):
    # I/I0 = 1e4 puts w* below 1e-2; 1 + 1e-4 puts it far out, where h(w)
    # is within 1e-4 of S_c
    for ratio, lo, hi in ((1e4, 1e-3, 1e-2), (1.0 + 1e-4, 10.0, 100.0)):
        cfg = config_at_ratio(na, ratio, LAM, use_detuned=True, tf_limit=True)
        result = minimize_width(cfg)
        assert result.bound_local and result.bound_global
        assert lo < result.w_star < hi
        closed, grav = energy_gradient_parts(result.w_star, cfg)
        assert abs(closed + grav) < 1e-9 * abs(closed)


def test_minima_without_light_is_the_oscillator_width(na):
    # zero coupling takes the kinetic 3 hbar^2/(4 m lam^2) as the energy unit
    # and drops h; with no contact term the one minimum is w* = l0/lam
    # (acceptance 8c's cloud)
    species = na.replace(scattering_length=0.0, detuned=None)
    omega0 = 2 * math.pi * 100.0
    l0 = math.sqrt(CONSTANTS.hbar / (species.mass * omega0))
    params = InteractionParams(intensity=0.0, wavelength=LAM, coupling=0.0,
                               alpha_si=species.alpha_si())
    cfg = AnsatzConfig(n_atoms=100.0, species=species, interaction=params,
                       trap_frequency=omega0)
    assert variational._minima(_reduced(cfg)) == [pytest.approx(l0 / LAM, rel=1e-12, abs=0.0)]
    assert minimize_width(cfg).w_star == pytest.approx(l0 / LAM, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ratio, n_atoms", [(1.5, 1e3), (3.0, 10.0), (1.01, 1e6),
                                            (0.5, 100.0)])
def test_minima_of_the_trap_free_near_zone_kernel_is_its_quadratic_root(na, ratio,
                                                                          n_atoms):
    # the -u/r kernel's h is sqrt(2/pi) w^2/6, so its slope sigma is the
    # quadratic sqrt(2/pi) w^2/6 - (2/3) kappa w - b with one positive root
    cfg = config_at_ratio(na, ratio, LAM, n_atoms, use_detuned=True).replace(
        kernel="near_zone")
    # in units of N u/lam: kappa = 3 hbar^2/(4 m lam N u), b = g/(2 (2 pi)^1.5 lam^2 u)
    u, hbar = cfg.interaction.coupling, CONSTANTS.hbar
    g = 4 * math.pi * hbar**2 * na.scattering_length / na.mass
    kappa = 3 * hbar**2 / (4 * na.mass * LAM * n_atoms * u)
    b = g / (2 * (2 * math.pi) ** 1.5 * LAM**2 * u)
    c0 = math.sqrt(2.0 / math.pi) / 6.0
    root = (2 * kappa / 3 + math.sqrt(4 * kappa**2 / 9 + 4 * c0 * b)) / (2 * c0)
    assert variational._minima(_reduced(cfg)) == [pytest.approx(root, rel=1e-12, abs=0.0)]


def _assert_minima_match_the_scan(cfg):
    scan = scanned_minima(cfg)
    roots = variational._minima(_reduced(cfg))
    assert len(roots) == len(scan)
    for root, (w, lo, hi) in zip(roots, scan):
        assert lo * (1 - 1e-12) <= root <= hi * (1 + 1e-12)
        assert root == pytest.approx(w, rel=1e-9, abs=0.0)
    return roots


def test_minima_lists_both_branches_of_the_trapped_transition(na):
    # 30 Hz, 1e3 atoms, I/I0 = 1.34: a compact and a trapped minimum, and
    # minimize_width keeps the deeper, trapped one
    cfg = config_at_ratio(na, 1.34, LAM, n_atoms=1e3, use_detuned=True,
                          trap_frequency=188.49555921538757)
    roots = _assert_minima_match_the_scan(cfg)
    assert roots == pytest.approx([0.5874053, 6.1366339], rel=1e-7, abs=0.0)
    assert minimize_width(cfg).w_star == roots[1]


@pytest.mark.parametrize("ratio, n_atoms, bound", [(1e12, 1.0, True),
                                                   (1.0 + 1e-9, 1e15, False)])
def test_minima_where_the_old_width_grid_failed(na, ratio, n_atoms, bound):
    # once "width minimum outside [1e-6, 1e3] wavelengths": w* = 2.5e-7 at
    # I/I0 = 1e12, and a cloud near threshold whose kinetic term unbinds it
    cfg = config_at_ratio(na, ratio, LAM, n_atoms, use_detuned=True)
    assert len(_assert_minima_match_the_scan(cfg)) == bound
    assert minimize_width(cfg).bound_local == bound


@pytest.mark.parametrize("ratio, n_atoms, kernel", [(1e-90, 1.0, "near_zone"),
                                                    (1e200, 1.0, "full")])
def test_minimum_past_the_width_domain_is_numerical_failure(na, ratio, n_atoms, kernel):
    # the -u/r minimum sits near 1e91 wavelengths when the light is this weak,
    # the TF one near 2.5e-101 when it is this strong: past [W_MIN, W_MAX]
    cfg = config_at_ratio(na, ratio, LAM, n_atoms, use_detuned=True).replace(kernel=kernel)
    with pytest.raises(NumericsError, match=r"lies past \[1e-76, 1e\+40\] wavelengths"):
        minimize_width(cfg)


def test_tf_tail_follows_inverse_sqrt_intensity(na):
    ratios = np.logspace(1.0, 4.0, 7)
    widths = [minimize_width(config_at_ratio(na, float(r), LAM,
                                             use_detuned=True,
                                             tf_limit=True)).w_star
              for r in ratios]
    local = np.diff(np.log(widths)) / np.diff(np.log(ratios))
    assert np.all(np.abs(local + 0.5) < 0.05)


def _mpmath_g(x):
    """g at mpmath's working precision, in the form derived from the kernel's
    Fourier transform, in w; F(z) = sqrt(pi)/2 e^(-z^2) erfi(z)."""
    import mpmath as mp
    pi, r2 = mp.pi, mp.sqrt(2)
    z = 2 * r2 * pi * x
    f = mp.sqrt(pi) / 2 * mp.exp(-z * z) * mp.erfi(z)
    return (-5 * ((48 * pi**4 * x**4 + 12 * pi**2 * x**2 + 3) * f
                  + 8 * r2 * pi**3 * x**3 - 6 * r2 * pi * x)
            / (352 * pi**(mp.mpf(11) / 2) * x**6))


def _mpmath_pair_energy(w, digits=50):
    """g(w) and g'(w) at ``digits`` digits."""
    import mpmath as mp
    with mp.workdps(digits):
        x = mp.mpf(w)
        return float(_mpmath_g(x)), float(mp.diff(_mpmath_g, x))


def test_pair_energy_matches_mpmath():
    # both sides of the series/Dawson switch and of W_ASYMPTOTIC (z = 6), where
    # the asymptotic deficit takes over; measured worst cases 1.1e-15 (g) and
    # 8.6e-15 (g', Dawson form just below z = 6)
    widths = np.concatenate([np.logspace(-6.0, 4.0, 101),
                             [W_SWITCH * (1 - 1e-9), W_SWITCH,
                              W_ASYMPTOTIC * (1 - 1e-9),
                              W_ASYMPTOTIC * (1 + 1e-9)]])
    for w in widths.tolist():
        exact, exact_slope = _mpmath_pair_energy(w)
        assert abs(pair_energy(w) / exact - 1.0) < 3e-15, w
        assert abs(pair_energy(w, d_dw=True) / exact_slope - 1.0) < 1.5e-14, w


def test_tf_deficit_matches_mpmath():
    # D = g/2 + S_c/w^3 and q = 1 - w^4 g'/(6 S_c) from just above z = 6 to
    # w = 1e30 (measured worst 6.7e-16 and 6.0e-15).  At z = 6 itself the
    # asymptotic series' truncation leaves q off by 2.9e-14 of itself, 3.4e-15
    # of h, which the g' pin above covers.  Past 1e30 the mpmath reference
    # needs more than 250 digits.
    import mpmath as mp
    for w in [W_ASYMPTOTIC * 1.01] + np.logspace(math.log10(0.69), 30.0, 31).tolist():
        d, q = variational._tf_deficit(w)
        with mp.workdps(250):
            x = mp.mpf(w)
            contact = 35 / (88 * mp.pi * (2 * mp.pi) ** mp.mpf(1.5))
            exact_d = float(_mpmath_g(x) / 2 + contact / x**3)
            exact_q = float(1 - x**4 * mp.diff(_mpmath_g, x) / (6 * contact))
        assert d == pytest.approx(exact_d, rel=2e-15, abs=0.0), w
        assert q == pytest.approx(exact_q, rel=1e-14, abs=0.0), w


@pytest.mark.parametrize("ratio, atoms, trap, tf_limit", [
    (1 + 2.2e-16, 1e30, 0.0, False), (1 + 8.8e-16, 1e2, 0.0, True),
    (1 + 1e-15, 1e25, 0.0, False), (1 + 1e-12, 1e8, 0.0, True),
    (1 + 1e-9, 1e15, 1.0, True), (1 + 1e-7, 1e10, 1.0, False),
    (1 + 1e-6, 1e12, 0.0, False), (1 + 1e-4, 1e4, 100.0, False),
    (1 + 1e-3, 1e20, 1.0, False), (1 + 1e-2, 1e25, 100.0, True)])
def test_bound_totals_near_threshold_match_mpmath(na, ratio, atoms, trap, tf_limit):
    # contact and attraction cancel to O(w^-5) near threshold: summed in
    # joules the total once read +1.8e-40 J for -4.1e-41 J at 1 + 2.2e-16
    # (1e30 atoms, --no-tf), and off by 100% at 1 + 1e-12.  The reference
    # takes kinetic, trap and unit from SI (measured worst 1.6e-15).
    import mpmath as mp
    cfg = config_at_ratio(na, 1.0, LAM, n_atoms=atoms, use_detuned=True,
                          trap_frequency=trap, tf_limit=tf_limit)
    result, = width_vs_intensity(cfg, [ratio])
    coupling = config_at_ratio(na, ratio, LAM, use_detuned=True).interaction.coupling
    with mp.workdps(150):
        x, m, lam = mp.mpf(result.w_star), mp.mpf(na.mass), mp.mpf(LAM)
        contact = 35 / (88 * mp.pi * (2 * mp.pi) ** mp.mpf(1.5))
        kinetic = 0 if tf_limit else 3 * mp.mpf(CONSTANTS.hbar) ** 2 / (4 * m * (lam * x) ** 2)
        exact = float(kinetic + 3 * m * (mp.mpf(trap) * lam * x) ** 2 / 4 + atoms
                      * mp.mpf(coupling) / lam * (contact / (ratio * x**3) + _mpmath_g(x) / 2))
    assert result.breakdown.total == pytest.approx(exact, rel=5e-15, abs=0.0)


def test_pair_energy_keeps_its_digits_over_the_width_domain(na):
    # W_MIN against mpmath, at 400 digits since the closed form cancels as
    # w^-4; W_MAX against the far law g = -(70 sqrt(pi)/11)/z^3, whose next
    # term is 1e-82 smaller there.  Past the domain g' once read 0.0 from
    # w = 1e44, g -0.0 from 1e51 and both NaN from 1e76.
    exact, exact_slope = _mpmath_pair_energy(W_MIN, digits=400)
    assert pair_energy(W_MIN) == pytest.approx(exact, rel=3e-15, abs=0.0)
    assert pair_energy(W_MIN, d_dw=True) == pytest.approx(exact_slope, rel=3e-15,
                                                          abs=0.0)
    far = 70.0 * math.sqrt(math.pi) / 11.0 / (2.0 * math.sqrt(2.0) * math.pi * W_MAX)**3
    assert pair_energy(W_MAX) == pytest.approx(-far, rel=3e-15, abs=0.0)
    assert pair_energy(W_MAX, d_dw=True) == pytest.approx(3.0 * far / W_MAX,
                                                          rel=3e-15, abs=0.0)
    cfg = config_at_ratio(na, 1.5, LAM, use_detuned=True, tf_limit=True)
    for w in (math.nextafter(W_MIN, 0.0), math.nextafter(W_MAX, math.inf),
              1e51, 1e76, math.inf, math.nan):
        for value in (lambda: pair_energy(w), lambda: pair_energy(w, d_dw=True),
                      lambda: energy_breakdown(w, cfg)):
            with pytest.raises(ValueError, match=r"^width must lie in \[1e-76, 1e\+40\]"):
                value()


def test_pair_energy_matches_quadrature_oracle():
    for w in np.logspace(-2.0, math.log10(300.0), 25):
        for d_dw in (False, True):
            assert pair_energy(float(w), d_dw=d_dw) == pytest.approx(
                pair_interaction_integral(float(w), d_dw=d_dw), rel=1e-10, abs=0.0)


def test_near_zone_pair_energy_is_exact():
    for w in (1e-6, 0.05, 0.3, 2.0, 1e3):
        assert pair_energy(w, kernel="near_zone") == \
            -math.sqrt(2.0 / math.pi) / w
        assert pair_energy(w, kernel="near_zone", d_dw=True) == \
            math.sqrt(2.0 / math.pi) / w**2


@pytest.mark.parametrize("kernel", ["newton", "Full", ""])
def test_pair_energy_rejects_an_unknown_kernel(kernel):
    # "newton" is the CLI's name for the -u/r kernel; it once fell through to
    # the full kernel (-0.1141 at w = 0.5 instead of -1.5958)
    for d_dw in (False, True):
        with pytest.raises(ValueError, match=rf"^unknown kernel '{kernel}'$"):
            pair_energy(0.5, kernel=kernel, d_dw=d_dw)


def test_unbound_at_and_below_threshold(na):
    # TF at I = I0 exactly: h < S_c = S/r everywhere; the rounding of the
    # two coefficients must not read as a root beyond the grid
    cfgs = [config_at_ratio(species, 1.0, lam, n_atoms=n,
                            use_detuned=detuned, tf_limit=True)
            for species, lam, detuned in ((na, LAM, True), (na, LAM, False),
                                          (na, 780e-9, False),
                                          (na, 1.064e-6, True))
            for n in (1.0, 1e5)]
    cfgs += [config_at_ratio(na, r, LAM, use_detuned=True, tf_limit=True)
             for r in (0.5, 0.9)]
    # --no-tf at N = 100: no root beyond w = 3 S_c (1 - 1/r) / (2K) ~ 0.07
    cfgs.append(config_at_ratio(na, 1.2, LAM, n_atoms=100.0,
                                use_detuned=True))
    for cfg in cfgs:
        result = minimize_width(cfg)
        assert not result.bound_local and math.isnan(result.w_star)


def _mpmath_tf_width(ratio):
    """Root of h(w) = S_c/r at 60 digits, h from the mpmath g above."""
    import mpmath as mp
    with mp.workdps(60):
        contact = 35 / (88 * mp.pi * (2 * mp.pi) ** mp.mpf(1.5))
        target = contact / mp.mpf(ratio)
        # start from the asymptotes of h, not from the code under test
        guess = max(mp.mpf("0.2459") / mp.sqrt(ratio),
                    mp.mpf("0.22306") / mp.sqrt(mp.mpf(ratio) - 1))
        return mp.findroot(lambda w: w**4 * mp.diff(_mpmath_g, w) / 6 - target,
                           guess)


def test_tf_width_matches_mpmath_root():
    # 1 + 1e-1 puts w* at z = 6.5, where the deficit series is shortest;
    # 2 and 4.4 put it on either side of W_SWITCH, 18.25 at w = 0.055 on the
    # series (measured worst 1.1e-15)
    ratios = [1.0 + e for e in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0)]
    for ratio in ratios + [4.4, 10.0, 18.25, 1e2, 1e6, 1e12]:
        exact = _mpmath_tf_width(ratio)
        assert abs(variational.tf_width(ratio) / exact - 1.0) < 2e-15, ratio


@pytest.mark.parametrize("w", [0.7, 2.0, 1000.0, 1e39])
@pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-9, 1.0 - 1e-9])
def test_tf_energies_keep_their_digits_where_the_terms_cancel(w, ratio):
    # S_c/(r w^3) and g/2 cancel to O(w^-5) at r = 1: their plain sum once read
    # 2.3997271966e-19 for 2.3997271389e-19 at w = 1000, and 3.4e-136 for
    # 1.9e-200 at w = 1.67e39.  400 digits hold g's own cancellation at 1e39
    import mpmath as mp
    with mp.workdps(400):
        x = mp.mpf(w)
        contact = 35 / (88 * mp.pi * (2 * mp.pi) ** mp.mpf(1.5))
        exact = float(contact / (mp.mpf(ratio) * x**3) + _mpmath_g(x) / 2)
    assert variational._tf_energies(w, [ratio]) == [pytest.approx(exact, rel=1e-15,
                                                                  abs=0.0)]


def test_tf_width_is_nan_at_and_below_threshold():
    for ratio in (0.0, 1.0 - 1e-15, 1.0):
        assert math.isnan(variational.tf_width(ratio))
    # far above, w* ~ 0.2459/sqrt(r) falls out of double range
    assert variational.tf_width(1e150) > 0.0
    for ratio in (1e151, math.inf):
        with pytest.raises(NumericsError, match="below 1e-75"):
            variational.tf_width(ratio)


def test_near_threshold_width_law(na):
    # h(w) = S_c - c2/w^2 + ... from the large-z Dawson series, with
    # c2 = 25 sqrt2/(512 pi^(9/2)), so w* sqrt(r - 1) -> sqrt(c2/S_c)
    law = math.sqrt(385.0) / (28.0 * math.pi)
    cfg = config_at_ratio(na, 1.0, LAM, use_detuned=True, tf_limit=True)
    ratios = [1.0 + e for e in (1e-4, 1e-6, 1e-7, 1e-9, 1e-12)]
    for ratio, result in zip(ratios, width_vs_intensity(cfg, ratios)):
        excess = ratio - 1.0  # exact: the excess the float ratio carries
        assert result.bound_local and result.bound_global
        assert abs(result.w_star * math.sqrt(excess) / law - 1.0) < excess


def test_critical_ratio_independent_of_atom_number_and_wavelength(na):
    base = critical_intensity_ratio(na, LAM, n_atoms=1.0, use_detuned=True)
    other_n = critical_intensity_ratio(na, LAM, n_atoms=1e5, use_detuned=True)
    other_lam = critical_intensity_ratio(na, 1.064e-6, use_detuned=True)
    assert other_n == pytest.approx(base, rel=1e-3)
    assert other_lam == pytest.approx(base, rel=1e-3)


def test_minimizer_location_independent_of_species_in_tf_units(na, rb):
    # equal I/I0 gives the same reduced energy curve for any species
    cfg_na = config_at_ratio(na, 1.5, LAM, tf_limit=True)
    cfg_rb = config_at_ratio(rb, 1.5, 780e-9, tf_limit=True)
    ratios = [1.0 + 1e-9, 1.5, 3.0, 1e4]
    w_na = [res.w_star for res in width_vs_intensity(cfg_na, ratios)]
    w_rb = [res.w_star for res in width_vs_intensity(cfg_rb, ratios)]
    assert w_rb == w_na
    for w in (0.2, 0.35, 0.8):
        e_na = total_energy(w, cfg_na) / tf_energy_unit(cfg_na)
        e_rb = total_energy(w, cfg_rb) / tf_energy_unit(cfg_rb)
        assert e_rb == pytest.approx(e_na, rel=1e-9)


def test_gradient_closed_forms_match_finite_difference(na):
    # coupling off isolates the closed-form terms
    params = InteractionParams.from_intensity(na, 0.0, LAM, use_detuned=True)
    cfg = AnsatzConfig(n_atoms=200.0, species=na, interaction=params,
                       trap_frequency=2 * math.pi * 80.0)
    w = 0.7
    closed, grav = energy_gradient_parts(w, cfg)
    assert grav == 0.0
    dw = 1e-6 * w
    fd = (total_energy(w + dw, cfg) - total_energy(w - dw, cfg)) / (2 * dw)
    assert closed == pytest.approx(fd, rel=1e-6, abs=0.0)


def test_gradient_with_attraction_matches_finite_difference(na):
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=500.0, use_detuned=True)
    for w in (0.25, 0.4, 0.9):
        closed, grav = energy_gradient_parts(w, cfg)
        dw = 1e-5 * w
        fd = (total_energy(w + dw, cfg) - total_energy(w - dw, cfg)) / (2 * dw)
        assert closed + grav == pytest.approx(fd, rel=1e-4, abs=0.0)


def test_mfa_validity_at_bound_solution(na, tf_width_15):
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=40.0, use_detuned=True,
                          tf_limit=True)
    rho = peak_density(40.0, tf_width_15.w_star, LAM)
    report = mfa_validity(rho, na, cfg.interaction.coupling)
    assert report["rho_a3"] < 1e-2
    assert report["rho_astar3"] > 1e2
    assert report["dilute_ok"] and report["long_range_ok"]


def test_invalid_inputs(na):
    cfg = config_at_ratio(na, 1.5, LAM, use_detuned=True)
    with pytest.raises(ValueError):
        energy_breakdown(0.0, cfg)
    with pytest.raises(ValueError):
        width_vs_intensity(cfg, [1.0, -2.0])
    with pytest.raises(ValueError):
        AnsatzConfig(n_atoms=0.5, species=na, interaction=cfg.interaction)
    with pytest.raises(ValueError, match="trap frequency must be non-negative"):
        AnsatzConfig(n_atoms=1.0, species=na, interaction=cfg.interaction,
                     trap_frequency=-1.0)
    with pytest.raises(ValueError, match=r"width must lie in \[1e-76, 1e\+40\], got 0.0"):
        pair_energy(0.0)
    with pytest.raises(ValueError, match="intensity must be non-negative, got -1.0"):
        InteractionParams.from_alpha(-1.0, LAM, cfg.interaction.alpha_si)
    with pytest.raises(ValueError):
        cfg.replace(kernel="yukawa")
    with pytest.raises(ValueError, match="non-positive scattering length"):
        threshold_intensity(na.replace(scattering_length=-1e-9))


def test_breakdown_total_is_sum_of_parts(na):
    # below W_ASYMPTOTIC the total is the plain sum; above it contact and
    # attraction are summed as S_c (1 - r)/(r w^3) + D, which keeps the digits
    # that their cancellation near threshold takes from a plain sum
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=50.0, use_detuned=True,
                          trap_frequency=2 * math.pi * 50.0)
    assert 0.4 < W_ASYMPTOTIC
    b = energy_breakdown(0.4, cfg)
    assert b.total == b.kinetic + b.trap + b.swave + b.gravitational
    assert b.kinetic >= 0.0 and b.trap >= 0.0 and b.swave >= 0.0


def _counted(f):
    """``f`` with a list of the abscissae it was called at."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def _assert_brent_matches_scipy(f, a, b, xtol, rtol):
    # same root to the bit and the same evaluations: the same step sequence
    ours, our_calls = _counted(f)
    theirs, their_calls = _counted(f)
    root = _brent_root(ours, a, b, xtol, rtol)
    assert type(root) is float
    assert root == brentq(theirs, a, b, xtol=xtol, rtol=rtol)
    assert our_calls == their_calls


@pytest.mark.parametrize("f, brackets", [
    (lambda x: x**3 - 2.0, [(0.0, 2.0), (-1.0, 5.0), (1.2, 1.3)]),
    (lambda x: math.cos(x) - x, [(0.0, 1.0), (-2.0, 3.0), (0.7, 0.8)]),
])
def test_brent_root_matches_scipy_brentq_bitwise(f, brackets):
    for a, b in brackets:
        for xtol, rtol in ((2e-12, 4.0 * np.finfo(float).eps), (1e-12, 1e-12),
                           (1e-4, 1e-6)):
            _assert_brent_matches_scipy(f, a, b, xtol, rtol)


def test_minimizer_brackets_give_scipy_roots_bitwise(na, monkeypatch):
    seen = []
    inner = variational._brent_root

    def recorded(f, a, b, xtol, rtol):
        seen.append((f, a, b, xtol, rtol))
        return inner(f, a, b, xtol, rtol)

    monkeypatch.setattr(variational, "_brent_root", recorded)
    cfgs = [config_at_ratio(na, r, LAM, use_detuned=True, tf_limit=True)
            for r in (1.0 + 1e-9, 1.0 + 1e-4, 1.01, 1.5, 10.0, 300.0, 1e4,
                      1e12)]
    cfgs += [config_at_ratio(na, r, LAM, n_atoms=n, use_detuned=True)
             for r, n in ((1.5, 1e4), (56.3, 3.2e4), (1e3, 1e5))]
    for cfg in cfgs:
        assert minimize_width(cfg).bound_local
    assert len(seen) >= len(cfgs)
    for f, a, b, xtol, rtol in seen:
        assert type(a) is float and type(b) is float
        _assert_brent_matches_scipy(f, a, b, xtol, rtol)


def test_brent_root_returns_exact_zero_endpoint():
    for a, b in ((1.0, 3.0), (-1.0, 1.0)):
        f, calls = _counted(lambda x: x - 1.0)
        assert _brent_root(f, a, b, 1e-12, 1e-12) == 1.0
        assert calls == [a, b]
        assert brentq(lambda x: x - 1.0, a, b) == 1.0


def test_brent_root_failures_raise():
    with pytest.raises(NumericsError, match="same sign"):
        _brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)
    # a sign jump at 1/3 bracketed by [0, 1e300]: about a thousand halvings
    # to reach the tolerance, so both give up after 100 iterations
    step = lambda x: -1.0 if x < 1.0 / 3.0 else 1.0
    rtol = 4.0 * np.finfo(float).eps
    with pytest.raises(NumericsError, match="100 iterations"):
        _brent_root(step, 0.0, 1e300, 1e-300, rtol)
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, 0.0, 1e300, xtol=1e-300, rtol=rtol)


def test_minimizer_returns_python_scalars(na):
    # numpy scalars would leak into the CLI output (np.bool_ is not bool)
    for tf_limit, n_atoms in ((True, 1.0), (False, 1e4)):
        cfg = config_at_ratio(na, 1.5, LAM, n_atoms=n_atoms, use_detuned=True,
                              tf_limit=tf_limit)
        result = minimize_width(cfg)
        assert type(result.w_star) is float and type(result.r_rms) is float
        assert type(result.bound_local) is bool
        assert type(result.bound_global) is bool
