import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from lasergrav import (CONSTANTS, InteractionParams, UnboundError, atom_capacity,
                       border_atom_number, capacity_band, catalog_lookup,
                       classify, config_at_ratio, f_factor, minimize_width,
                       phase_map, regimes, threshold_intensity, trap_relevance,
                       variational)
from lasergrav.cli import run
from lasergrav.errors import NumericsError

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
    u = _coupling_at_ratio(na, 1.5)
    with pytest.raises(ValueError, match="scattering length must be positive"):
        border_atom_number(u, na.replace(scattering_length=0.0))
    i0 = threshold_intensity(na, use_detuned=True)
    with pytest.raises(ValueError, match="need at least one atom"):
        classify(0.5, 1.5 * i0, na, LAM, use_detuned=True)
    with pytest.raises(ValueError, match="intensity must be positive"):
        classify(40.0, 0.0, na, LAM, use_detuned=True)
    with pytest.raises(ValueError, match="peak density must be positive"):
        atom_capacity(LAM, 0.0, 1.5, na, use_detuned=True)


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


def test_atom_capacity_rejects_a_width_that_is_not_the_deepest_minimum(
        na, monkeypatch, capsys):
    # the root is a stationary width at its N; where the minimization of a
    # cloud of that N finds its deepest minimum elsewhere, the cloud does
    # not hold N at that density
    monkeypatch.setattr(regimes, "minimize_width",
                        lambda cfg: minimize_width(cfg.replace(n_atoms=2 * cfg.n_atoms)))
    with pytest.raises(UnboundError, match="unbinds the cloud near N = 2.83e"):
        atom_capacity(10.6e-6, 1e22, 1.5, na, use_detuned=True,
                      self_consistent=True)
    assert run(["atom-count", "--wavelength", "10.6e-6", "--rho-peak", "1e22",
                "--self-consistent"]) == 1
    assert capsys.readouterr() == (
        "", "lasergrav: kinetic pressure unbinds the cloud near N = 2.83e+06; "
            "no self-consistent capacity at I/I0 = 1.5\n")


def _fixed_point_capacity(lam, rho, ratio, species):
    """Independent oracle: N = F(N) = rho pi^(3/2) (w*(N) lam)^3 by scipy's
    brentq in log N, w*(N) the deepest minimum at N, bracketed from the
    first bound N above the TF capacity (F falls to the TF value)."""
    def gap(log_n):
        res = minimize_width(config_at_ratio(species, ratio, lam, n_atoms=math.exp(log_n),
                                             use_detuned=True))
        return math.log(rho * math.pi**1.5 * (res.w_star * lam) ** 3) - log_n

    log_tf = math.log(atom_capacity(lam, rho, ratio, species, use_detuned=True))
    lo = next(x for x in np.arange(log_tf, log_tf + 5.0, 0.01) if gap(x) > 0.0)
    return math.exp(brentq(gap, lo, log_tf + 5.0, xtol=1e-14))


@pytest.mark.parametrize("lam, rho, ratio", [
    (589e-9, 1e22, 1.5), (1e-6, 1e22, 3.0), (5e-6, 1e20, 1.5),
    (1.2e-5, 1e20, 3.0), (1e-6, 1e22, 1.2), (589e-9, 1e22, 1.000000000001)])
def test_self_consistent_capacity_is_the_fixed_point(na, lam, rho, ratio, monkeypatch):
    # one Brent root and one verifying minimization against a root of
    # F(N) - N; the first three once read "unbinds" or "did not settle", and
    # the last, whose w* = 2.7e5 lay past a fixed width grid, failed
    oracle = _fixed_point_capacity(lam, rho, ratio, na)
    calls = {"minimize_width": 0, "_brent_root": 0}
    for name in calls:
        def counted(*args, _real=getattr(regimes, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(regimes, name, counted)
    n = atom_capacity(lam, rho, ratio, na, use_detuned=True, self_consistent=True)
    assert n == pytest.approx(oracle, rel=1e-10, abs=0.0)
    assert calls == {"minimize_width": 1, "_brent_root": 1}


@pytest.mark.parametrize("ratio", [12.97, 21.62, 36.02])
def test_self_consistent_capacity_below_rounding_is_numerical(na, ratio):
    # at 1e40 m^-3 the kinetic term c falls below the rounding of h - S_c/r
    # at the TF width, so no width of this density can be told from it
    with pytest.raises(NumericsError, match=(
            rf"capacity at rho = 1e\+40 m\^-3, I/I0 = {ratio}: c = \S+ is below "
            r"the rounding of h - S_c/r$")):
        atom_capacity(LAM, 1e40, ratio, na, use_detuned=True, self_consistent=True)


def test_self_consistent_capacity_past_the_width_domain_is_numerical(na):
    # at 1e-300 m^-3 a width of that density lies past W_MAX
    with pytest.raises(NumericsError, match=r"I/I0 = 1.5: w lies past 1e\+40$"):
        atom_capacity(LAM, 1e-300, 1.5, na, use_detuned=True, self_consistent=True)


@pytest.mark.parametrize("name, detuned, lam, rho, ratio", [
    ("Na", True, 589e-9, 1e22, 1.5), ("Na", False, 1e-6, 1e22, 3.0),
    ("Rb87", False, 780e-9, 1e21, 2.0)])
def test_capacity_constant_is_the_kinetic_closed_form(name, detuned, lam, rho, ratio,
                                                       monkeypatch):
    # w^2 (h(w) - S_c/r) = c: the code's 35/(352 pi^(7/2) r a rho lam^2),
    # read back from the function it roots, is hbar^2/(2 pi^(3/2) m u rho lam^4)
    species = catalog_lookup(name)
    roots, real = [], regimes._brent_root

    def spy(f, a, *args):
        roots.append((f, a))
        return real(f, a, *args)
    monkeypatch.setattr(regimes, "_brent_root", spy)
    atom_capacity(lam, rho, ratio, species, use_detuned=detuned, self_consistent=True)
    (f, w_tf), = roots
    c = w_tf * w_tf * variational._tf_slope(w_tf, ratio) - f(w_tf)
    u = config_at_ratio(species, ratio, lam, use_detuned=detuned).interaction.coupling
    kinetic = CONSTANTS.hbar**2 / (2 * math.pi**1.5 * species.mass * u * rho * lam**4)
    assert c == pytest.approx(kinetic, rel=2e-15, abs=0.0)


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


def _exact_label(x: Fraction, y: Fraction) -> str:
    """The portrait's rule on exact coordinates."""
    if y <= max(0, x):
        return "Unbound"
    return "G" if 0 <= x <= y <= 2 * x else "TFG"


@pytest.mark.parametrize("nx, ny", [(51, 41), (101, 81), (2, 2), (7, 60), (59, 3)])
def test_phase_map_labels_are_the_rule_in_exact_arithmetic(na, nx, ny):
    # each coordinate is its grid value rounded once, and each label is the
    # rule applied to the exact grid value: on y = x and y = 2x too
    rows = phase_map(na, nx=nx, ny=ny)
    assert len(rows) == nx * ny
    for ix in range(nx):
        x = Fraction(5 * ix, nx - 1) - 2
        for iy in range(ny):
            y = Fraction(4 * iy, ny - 1) - 1
            assert rows[ix * ny + iy] == {"x": float(x), "y": float(y),
                                          "label": _exact_label(x, y)}, (ix, iy)


def test_phase_map_builds_no_physical_point(na, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("phase_map realized a physical point")

    monkeypatch.setattr(regimes, "classify", must_not_run)
    monkeypatch.setattr(InteractionParams, "from_intensity", must_not_run)
    assert len(phase_map(na)) == 51 * 41


def test_phase_map_is_one_map_for_every_species(tmp_path, capsys):
    # the labels depend on the coordinates alone; through a physical cloud
    # per point, rounding once moved 12, 14 and 9 boundary labels for these
    # routes
    species = tmp_path / "species.txt"
    species.write_text("name = K39\nmass_kg = 6.4697e-26\na_m = 2e-9\n"
                       "alpha_v_m3 = 42.9e-30\n")
    maps = []
    for argv in ([], ["--static"], ["--species", "Rb87", "--static"],
                 ["--species", "K39", "--species-file", str(species), "--static"]):
        assert run(["phase-map", *argv]) == 0
        maps.append(capsys.readouterr().out)
    assert maps[1:] == maps[:1] * 3


def test_classify_label_agrees_with_its_own_coordinates(na, rb):
    # clouds realized on the lines y = 0, y = x and y = 2x, where a label
    # read from the ratios can disagree with the logs it returns
    n_atoms = 10.0
    for species, detuned in ((na, True), (na, False), (rb, False)):
        i0 = threshold_intensity(species, detuned)
        for k in range(-20, 31):
            x = k / 10
            lam = 10.0**x * n_atoms * species.scattering_length
            for y in (0.0, x, 2 * x):
                point = classify(n_atoms, 10.0**y * i0, species, lam, detuned)
                assert point.label == _exact_label(Fraction(point.x),
                                                   Fraction(point.y)), (x, y)


def test_labels_match_dominant_pressure_at_the_minimum(na):
    # G names zero-point kinetic pressure, TF-G contact pressure: at the
    # --no-tf variational minimum the named term is the larger one wherever
    # the label holds for 0.75 decade of I/I0 either way.  The boundaries
    # are soft, so 0.25 decade from one the two can disagree.  Each (x, y)
    # is realized as a cloud of N = 10 atoms, the wavelength solved from x
    # and the intensity from y, and labelled by classify.
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
