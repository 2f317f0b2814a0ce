import math

import numpy as np
import pytest

from lasergrav import (InteractionParams, UnboundError, atom_capacity,
                       border_atom_number, capacity_band, classify,
                       config_at_ratio, f_factor, minimize_width, phase_map,
                       threshold_intensity, trap_relevance)

LAM = 589e-9
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _coupling_at_ratio(na, ratio):
    i0 = threshold_intensity(na, use_detuned=True)
    return InteractionParams.from_intensity(na, ratio * i0, LAM,
                                            use_detuned=True).coupling


def test_border_atom_number_reference_point(na):
    u = _coupling_at_ratio(na, 1.5)
    assert border_atom_number(u, na) == pytest.approx(54.0, rel=0.10)


def test_border_scaling_with_coupling(na):
    u = _coupling_at_ratio(na, 1.5)
    assert border_atom_number(4 * u, na) == \
        pytest.approx(border_atom_number(u, na) / 2.0, rel=1e-12)


def test_border_rejects_bad_inputs(na, rb):
    with pytest.raises(ValueError):
        border_atom_number(0.0, na)


def test_f_factor_at_border_is_golden_ratio():
    assert f_factor(100.0, 100.0) == pytest.approx(GOLDEN, rel=1e-12, abs=0.0)


def test_f_factor_limits():
    assert f_factor(1e-3 * 500, 500) == pytest.approx(1.0, rel=1e-3)
    assert f_factor(1e3 * 500, 500) == pytest.approx(1e3, rel=1e-3)


def test_f_factor_monotone_increasing():
    n = np.logspace(-2, 4, 200)
    values = np.array([f_factor(v, 100.0) for v in n])
    assert np.all(np.diff(values) > 0.0)
    assert np.all(values >= 1.0)


def test_classify_near_border_point(na):
    i0 = threshold_intensity(na, use_detuned=True)
    point = classify(40.0, 1.5 * i0, na, LAM, use_detuned=True)
    # forty atoms sits close to the G / TF-G border
    assert 0.5 < 40.0 / point.n_border < 1.5
    assert point.y == pytest.approx(math.log10(1.5), rel=1e-9)
    assert point.x == pytest.approx(
        math.log10(LAM / (40.0 * na.scattering_length)), rel=1e-9)


def test_classify_below_threshold_is_unbound(na):
    i0 = threshold_intensity(na, use_detuned=True)
    # many atoms: lam/(N a) << 1, kinetic correction irrelevant
    point = classify(1e6, 0.5 * i0, na, LAM, use_detuned=True)
    assert point.label == "Unbound"


def test_classify_gravity_window(na):
    # lam/(N a) = 10 and I/I0 = 30 lies inside [10, 100]
    n_atoms = 50.0
    lam = 10.0 * n_atoms * na.scattering_length
    i0 = threshold_intensity(na, use_detuned=True)
    point = classify(n_atoms, 30.0 * i0, na, lam, use_detuned=True)
    assert point.label == "G"


def test_classify_contact_dominated(na):
    i0 = threshold_intensity(na, use_detuned=True)
    point = classify(1e6, 1.5 * i0, na, LAM, use_detuned=True)
    assert point.label == "TFG"
    assert 1e6 > point.n_border


def test_classify_scale_consistency(na):
    i0 = threshold_intensity(na, use_detuned=True)
    for scale in (3.0, 17.0, 210.0):
        a = classify(50.0, 2.5 * i0, na, 40.0 * na.scattering_length * 50.0,
                     use_detuned=True)
        b = classify(50.0 * scale, 2.5 * i0, na,
                     40.0 * na.scattering_length * 50.0 * scale,
                     use_detuned=True)
        assert a.label == b.label
        assert b.x == pytest.approx(a.x, abs=1e-12)


def test_trap_relevance_values(na):
    omega0 = 2 * math.pi * 100.0
    rho = 1e21
    parameter, negligible = trap_relevance(rho, omega0, LAM, na)
    l0 = math.sqrt(1.054571817e-34 / (na.mass * omega0))
    assert parameter == pytest.approx(rho * l0 * LAM * na.scattering_length,
                                      rel=1e-12)
    assert negligible == (parameter > 10.0)

    zero, flag = trap_relevance(0.0, omega0, LAM, na)
    assert zero == 0.0 and flag is False

    p1, _ = trap_relevance(rho, omega0, LAM, na)
    p4, _ = trap_relevance(rho, 4.0 * omega0, LAM, na)
    assert p4 == pytest.approx(p1 / 2.0, rel=1e-12)

    with pytest.raises(ValueError):
        trap_relevance(rho, 0.0, LAM, na)


def test_atom_capacity_reference_points(na):
    # detuned sodium at 1e15 cm^-3 holds about forty atoms
    n_na = atom_capacity(LAM, 1e21, 1.5, na, use_detuned=True)
    assert 20.0 <= n_na <= 60.0
    # infrared thresholds at 1e16 cm^-3: millions (CO2) down to thousands (Nd:YAG)
    n_co2 = atom_capacity(10.6e-6, 1e22, 1.5, na, use_detuned=True)
    n_yag = atom_capacity(1.064e-6, 1e22, 1.5, na, use_detuned=True)
    assert 3e5 <= n_co2 <= 3e6
    assert 3e2 <= n_yag <= 3e3


def test_atom_capacity_monotonicity(na):
    base = atom_capacity(LAM, 1e21, 1.5, na, use_detuned=True)
    denser = atom_capacity(LAM, 2e21, 1.5, na, use_detuned=True)
    longer = atom_capacity(2 * LAM, 1e21, 1.5, na, use_detuned=True)
    assert denser == pytest.approx(2.0 * base, rel=1e-9)
    assert longer == pytest.approx(8.0 * base, rel=1e-6)


def test_atom_capacity_unbound_ratio(na):
    with pytest.raises(UnboundError):
        atom_capacity(LAM, 1e21, 0.9, na, use_detuned=True)


def test_atom_capacity_self_consistent_large_cloud(na):
    # kinetic correction is negligible for millions of atoms
    tf = atom_capacity(10.6e-6, 1e22, 1.5, na, use_detuned=True)
    sc = atom_capacity(10.6e-6, 1e22, 1.5, na, use_detuned=True,
                       self_consistent=True)
    assert sc == pytest.approx(tf, rel=1e-2)


def test_atom_capacity_self_consistent_small_cloud_unbinds(na):
    # at tens of atoms the kinetic pressure removes the bound state
    with pytest.raises(UnboundError):
        atom_capacity(LAM, 1e21, 1.5, na, use_detuned=True,
                      self_consistent=True)


def test_capacity_band_rows(na):
    rows = capacity_band([1.064e-6, 10.6e-6], 1e21, 1e22, 1.5, na,
                         use_detuned=True)
    assert [r["lambda_m"] for r in rows] == [1.064e-6, 10.6e-6]
    for row in rows:
        assert row["N_low"] < row["N_high"]


def test_phase_map_contains_all_regimes(na):
    rows = phase_map(na, nx=21, ny=17, use_detuned=True)
    labels = {row["label"] for row in rows}
    assert labels == {"Unbound", "G", "TFG"}
    assert len(rows) == 21 * 17


def test_labels_match_dominant_pressure_at_the_minimum(na):
    # G names zero-point kinetic pressure, TF-G contact pressure: at the
    # --no-tf variational minimum the named term is the larger one wherever
    # the label holds for 0.75 decade of I/I0 either way.  The boundaries
    # are soft, so 0.25 decade from one the two can disagree.  Points are
    # realized as in phase_map: N = 10, wavelength from x.
    n_atoms = 10.0
    i0 = threshold_intensity(na)

    def label(x, y):
        lam = 10.0**x * n_atoms * na.scattering_length
        return classify(n_atoms, 10.0**y * i0, na, lam).label

    checked = {"G": 0, "TFG": 0}
    for x in np.arange(-1.0, 3.01, 0.5):
        for y in np.arange(0.0, 6.01, 0.25):
            here = label(x, y)
            if here == "Unbound" or {label(x, y - 0.75),
                                     label(x, y + 0.75)} != {here}:
                continue
            lam = 10.0**x * n_atoms * na.scattering_length
            result = minimize_width(config_at_ratio(na, 10.0**y, lam,
                                                    n_atoms=n_atoms))
            assert result.bound_local, (x, y)
            kinetic, swave = result.breakdown.kinetic, result.breakdown.swave
            assert (kinetic > swave) == (here == "G"), (x, y, kinetic / swave)
            checked[here] += 1
    assert min(checked.values()) >= 10
