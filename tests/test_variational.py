import math
from dataclasses import replace

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
from lasergrav.variational import (CONTACT_AT_THRESHOLD, W_SWITCH,
                                   _brent_root, pair_energy, tf_energy_unit)
from quadrature_oracle import pair_interaction_integral

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
    assert breakdown.swave == pytest.approx(swave_mc, rel=5e-3)
    assert breakdown.trap == pytest.approx(trap_mc, rel=5e-3)


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
            energy_breakdown(1.0, cfg).total, rel=1e-12)


def test_pure_gravity_minimizer_matches_calculus_oracle(na):
    # -u/r kernel, kinetic on, contact off: b* = 3 sqrt(2 pi) hbar^2/(2 m u N)
    n_atoms = 1000.0
    intensity = threshold_intensity(na, use_detuned=True)
    params = InteractionParams.from_intensity(na, intensity, LAM,
                                              use_detuned=True)
    cfg = AnsatzConfig(n_atoms=n_atoms, species=replace(na, scattering_length=0.0),
                       interaction=params, kernel="near_zone")
    result = minimize_width(cfg)
    b_star = 3.0 * math.sqrt(2 * math.pi) * CONSTANTS.hbar**2 / (
        2.0 * na.mass * params.coupling * n_atoms)
    assert result.bound_local and result.bound_global
    assert result.w_star == pytest.approx(b_star / LAM, rel=1e-9)
    e_oracle = 3 * CONSTANTS.hbar**2 / (4 * na.mass * b_star**2) \
        - params.coupling * n_atoms / (math.sqrt(2 * math.pi) * b_star)
    assert result.breakdown.total == pytest.approx(e_oracle, rel=1e-8)


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
    # I/I0 = 1e4 puts w* below the scan floor 1e-2; 1 + 1e-4 puts it far out
    # where h(w) is within 1e-4 of S_c
    for ratio, lo, hi in ((1e4, 1e-3, 1e-2), (1.0 + 1e-4, 10.0, 100.0)):
        cfg = config_at_ratio(na, ratio, LAM, use_detuned=True, tf_limit=True)
        result = minimize_width(cfg)
        assert result.bound_local and result.bound_global
        assert lo < result.w_star < hi
        closed, grav = energy_gradient_parts(result.w_star, cfg)
        assert abs(closed + grav) < 1e-9 * abs(closed)


def test_tf_tail_follows_inverse_sqrt_intensity(na):
    ratios = np.logspace(1.0, 4.0, 7)
    widths = [minimize_width(config_at_ratio(na, float(r), LAM,
                                             use_detuned=True,
                                             tf_limit=True)).w_star
              for r in ratios]
    local = np.diff(np.log(widths)) / np.diff(np.log(ratios))
    assert np.all(np.abs(local + 0.5) < 0.05)


def _mpmath_pair_energy(w):
    """g(w) and g'(w) at 50 digits; F(z) = sqrt(pi)/2 e^(-z^2) erfi(z)."""
    import mpmath as mp

    def g(x):
        # the form derived from the kernel's Fourier transform, in w
        pi, r2 = mp.pi, mp.sqrt(2)
        z = 2 * r2 * pi * x
        f = mp.sqrt(pi) / 2 * mp.exp(-z * z) * mp.erfi(z)
        return (-5 * ((48 * pi**4 * x**4 + 12 * pi**2 * x**2 + 3) * f
                      + 8 * r2 * pi**3 * x**3 - 6 * r2 * pi * x)
                / (352 * pi**(mp.mpf(11) / 2) * x**6))

    with mp.workdps(50):
        x = mp.mpf(w)
        return float(g(x)), float(mp.diff(g, x))


def test_pair_energy_matches_mpmath():
    # both sides of the series/Dawson switch in w and of z = 6 in Dawson's F;
    # measured worst cases 1.1e-15 (g) and 8.6e-15 (g', Dawson form near w = 0.5)
    dawson_switch = 6.0 / (2.0 * math.sqrt(2.0) * math.pi)
    widths = np.concatenate([np.logspace(-6.0, 4.0, 101),
                             [W_SWITCH * (1 - 1e-9), W_SWITCH,
                              dawson_switch * (1 - 1e-9),
                              dawson_switch * (1 + 1e-9)]])
    for w in widths.tolist():
        exact, exact_slope = _mpmath_pair_energy(w)
        assert abs(pair_energy(w) / exact - 1.0) < 3e-15, w
        assert abs(pair_energy(w, d_dw=True) / exact_slope - 1.0) < 1.5e-14, w


def test_pair_energy_matches_quadrature_oracle():
    for w in np.logspace(-2.0, math.log10(300.0), 25):
        for d_dw in (False, True):
            assert pair_energy(float(w), d_dw=d_dw) == pytest.approx(
                pair_interaction_integral(float(w), d_dw=d_dw), rel=1e-10)


def test_near_zone_pair_energy_is_exact():
    for w in (1e-6, 0.05, 0.3, 2.0, 1e3):
        assert pair_energy(w, kernel="near_zone") == \
            -math.sqrt(2.0 / math.pi) / w
        assert pair_energy(w, kernel="near_zone", d_dw=True) == \
            math.sqrt(2.0 / math.pi) / w**2


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

    def g(x):
        pi, r2 = mp.pi, mp.sqrt(2)
        z = 2 * r2 * pi * x
        f = mp.sqrt(pi) / 2 * mp.exp(-z * z) * mp.erfi(z)
        return (-5 * ((48 * pi**4 * x**4 + 12 * pi**2 * x**2 + 3) * f
                      + 8 * r2 * pi**3 * x**3 - 6 * r2 * pi * x)
                / (352 * pi**(mp.mpf(11) / 2) * x**6))

    with mp.workdps(60):
        contact = 35 / (88 * mp.pi * (2 * mp.pi) ** mp.mpf(1.5))
        target = contact / mp.mpf(ratio)
        # start from the asymptotes of h, not from the code under test
        guess = max(mp.mpf("0.2459") / mp.sqrt(ratio),
                    mp.mpf("0.22306") / mp.sqrt(mp.mpf(ratio) - 1))
        return mp.findroot(lambda w: w**4 * mp.diff(g, w) / 6 - target,
                           guess)


def test_tf_width_matches_mpmath_root():
    # 1 + 1e-1 puts w* at z = 6.5, where the deficit series is shortest;
    # 2 and 4.4 put it on either side of W_SWITCH, 18.25 at w = 0.055 on the
    # series (measured worst 1.1e-15)
    ratios = [1.0 + e for e in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0)]
    for ratio in ratios + [4.4, 10.0, 18.25, 1e2, 1e6, 1e12]:
        exact = _mpmath_tf_width(ratio)
        assert abs(variational.tf_width(ratio) / exact - 1.0) < 2e-15, ratio


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
    assert closed == pytest.approx(fd, rel=1e-6)


def test_gradient_with_attraction_matches_finite_difference(na):
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=500.0, use_detuned=True)
    for w in (0.25, 0.4, 0.9):
        closed, grav = energy_gradient_parts(w, cfg)
        dw = 1e-5 * w
        fd = (total_energy(w + dw, cfg) - total_energy(w - dw, cfg)) / (2 * dw)
        assert closed + grav == pytest.approx(fd, rel=1e-4)


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
    with pytest.raises(ValueError):
        replace(cfg, kernel="yukawa")
    with pytest.raises(ValueError, match="non-positive scattering length"):
        threshold_intensity(replace(na, scattering_length=-1e-9))


def test_breakdown_total_is_sum_of_parts(na):
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=50.0, use_detuned=True,
                          trap_frequency=2 * math.pi * 50.0)
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
