import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasergrav import (CONSTANTS, InteractionParams, beam_budget,
                       kernel_shape, kernel_slope, oscillation_onset,
                       pair_potential, threshold_intensity)
from lasergrav.interaction import X_SWITCH, _f_direct, _f_series


def test_coupling_zero_intensity(na):
    assert InteractionParams.from_intensity(na, 0.0, 589e-9,
                                            use_detuned=True).coupling == 0.0


def test_coupling_linear_in_intensity(na):
    u1 = InteractionParams.from_intensity(na, 1.0e3, 589e-9,
                                          use_detuned=True).coupling
    u2 = InteractionParams.from_intensity(na, 2.0e3, 589e-9,
                                          use_detuned=True).coupling
    assert u2 == pytest.approx(2.0 * u1, rel=1e-15)


def test_coupling_at_threshold_matches_closed_form(na):
    # at I = I0 the coupling collapses to (176 pi^2 / 35) hbar^2 a / (m lam^2)
    lam = 589e-9
    i0 = threshold_intensity(na, use_detuned=True)
    u = InteractionParams.from_intensity(na, i0, lam,
                                         use_detuned=True).coupling
    u_closed = (176 * math.pi**2 / 35) * CONSTANTS.hbar**2 * \
        na.scattering_length / (na.mass * lam**2)
    assert u == pytest.approx(u_closed, rel=1e-10)
    assert u == pytest.approx(1.15e-37, rel=0.02)


def test_coupling_requires_detuned_context(rb):
    with pytest.raises(ValueError, match="no detuned context"):
        InteractionParams.from_intensity(rb, 1.0, 1e-6,
                                         use_detuned=True).coupling


def test_near_zone_property_on_stated_range():
    """Approach to -u/r on r/lam in [1e-4, 1e-2] at the exact quadratic rate.

    With x = 2 pi r/lam, the series of the closed form gives
    U r/(-u) = (15/22) x f(x) = 1 - (46/77) x^2 + (86/693) x^4 - ..., so the
    deviation dev = U r/u + 1 must equal (46/77) x^2 to within x^4/4 on the
    whole range.  The uniform 1e-3 bound against -u/r is checked where the
    law allows it, up to (46/77) x^2 = 1e-3, i.e. r/lam = 6.5e-3.
    """
    r = np.logspace(-4, -2, 200)
    x = 2.0 * math.pi * r
    deviation = kernel_shape(r) * r + 1.0
    residual = np.abs(deviation - (46 / 77) * x**2) / x**4
    assert residual.max() <= 1 / 4, (
        f"sup |dev - (46/77) x^2| / x^4 = {residual.max():.3f} at r/lam = "
        f"{r[int(np.argmax(residual))]:.3e} (> 1/4)")
    edge = math.sqrt(1e-3 / (46 / 77)) / (2.0 * math.pi)
    inner = np.abs(deviation[r <= edge])
    assert inner.max() < 1e-3, (
        f"sup |U r/(-u) - 1| = {inner.max():.3e} on r/lam in "
        f"[1e-4, {edge:.3e}] (>= 1e-3)")


def test_near_zone_example_point():
    # at r/lam = 1e-3 the -u/r form holds to 1e-4
    assert abs(kernel_shape(1e-3) * 1e-3 + 1.0) < 1e-4


def test_branch_continuity_around_switch():
    # series and closed form agree to rounding on a band around the switch
    # x = 1 (3.0e-15 relative measured)
    x = np.linspace(0.8 * X_SWITCH, 1.25 * X_SWITCH, 101)
    series = _f_series(x)
    direct = _f_direct(x)
    rel = np.abs(series - direct) / np.abs(direct)
    assert rel.max() < 1e-14


def test_kernel_slope_matches_finite_difference():
    for r in (0.003, 0.02, 0.2, 0.5, 1.7):
        fd = (kernel_shape(r + 1e-7) - kernel_shape(r - 1e-7)) / 2e-7
        assert kernel_slope(r) == pytest.approx(fd, rel=1e-5)


@settings(derandomize=True, max_examples=50)
@given(r=st.floats(1e-4, 3.0), u=st.floats(1e-40, 1e-30))
def test_scale_covariance(r, u):
    lam = 589e-9
    assert pair_potential(r, 2 * u, lam) == \
        pytest.approx(2 * pair_potential(r, u, lam), rel=1e-12)


def test_oscillation_onset_location():
    onset = oscillation_onset()
    assert onset == pytest.approx(0.36, abs=0.02)


def test_oscillation_onset_brackets_force_sign_change():
    onset = oscillation_onset(tol=1e-8)
    eps = 1e-4
    assert kernel_slope(onset - eps) > 0.0  # still attractive
    assert kernel_slope(onset + eps) < 0.0  # now repulsive


def _first_value_zero():
    lo, hi = 0.05, 0.32
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if kernel_shape(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_sign_landmarks():
    # attractive everywhere inside the first zero crossing of the value
    z1 = _first_value_zero()
    assert 0.25 < z1 < oscillation_onset()
    r = np.linspace(1e-3, z1 * 0.999, 400)
    assert np.all(kernel_shape(r) < 0.0)
    # at least three further sign changes out to r = 3 lam
    r = np.arange(z1 + 1e-3, 3.0, 5e-4)
    signs = np.sign(kernel_shape(r))
    changes = int(np.sum(signs[1:] != signs[:-1]))
    assert changes >= 3


def test_envelope_decay_at_large_separation():
    # |U| stays under the leading 1/(2 pi r)^2 term's envelope and tends to 0
    r = np.linspace(5.0, 50.0, 500)
    values = np.abs(kernel_shape(r))
    envelope = (15 * math.pi / 11) / (2 * math.pi * r) ** 2
    assert np.all(values <= envelope * 1.0000001)
    assert values[-1] < 1e-4


def test_kernel_rejects_non_positive_separation():
    for kernel in (kernel_shape, kernel_slope):
        for r in (-0.1, 0.0):
            with pytest.raises(ValueError, match="separation must be positive"):
                kernel(r)


def test_pair_potential_approaches_near_zone(na):
    lam = 589e-9
    u = 1.7e-37
    for r_tilde in (1e-5, 1e-4):
        full = pair_potential(r_tilde, u, lam)
        limit = -u / (r_tilde * lam)
        assert full == pytest.approx(limit, rel=1e-6)


def test_beam_budget_triad():
    beams = beam_budget(9.0, "triad")
    assert len(beams) == 3
    assert beams[0] == pytest.approx(3.0)
    assert math.fsum(beams) == 9.0


def test_beam_budget_six_triads():
    total = 4.511e13
    beams = beam_budget(total, "six_triads")
    assert len(beams) == 18
    assert beams[0] == pytest.approx(total / 15, rel=1e-12)
    assert beams[-1] == pytest.approx(total / 30, rel=1e-9)
    assert math.fsum(beams) == total


def test_beam_budget_zero_and_errors():
    assert beam_budget(0.0, "triad") == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="unknown geometry"):
        beam_budget(1.0, "rings")
    with pytest.raises(ValueError):
        beam_budget(-1.0, "triad")
