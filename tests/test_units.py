import math

import pytest

from lasergrav import (CONSTANTS, SpeciesFileError, catalog_lookup,
                       intensity_in, intensity_si, parse_species_file,
                       polarizability_si, polarizability_volume,
                       threshold_intensity)
from lasergrav.species import SpeciesTable


def test_h_is_two_pi_hbar():
    assert CONSTANTS.h == 2.0 * math.pi * CONSTANTS.hbar


def test_polarizability_zero_maps_to_zero():
    assert polarizability_si(0.0) == 0.0


def test_polarizability_reference_value():
    # 3.534e-18 cm^3 -> about 3.93e-34 C m^2/V
    alpha = polarizability_si(3.534e-24)
    assert alpha == pytest.approx(3.93e-34, rel=1e-2, abs=0.0)


@pytest.mark.parametrize("volume", [1e-30, 24.1e-30, 3.534e-24, 7.7e-10])
def test_polarizability_round_trip(volume):
    assert polarizability_volume(polarizability_si(volume)) == \
        pytest.approx(volume, rel=4e-16, abs=0.0)


def test_intensity_conversions():
    assert intensity_si(262.0, "mW/cm^2") == pytest.approx(2620.0, rel=1e-15)
    assert intensity_si(5.65e9, "W/cm^2") == pytest.approx(5.65e13, rel=1e-15)
    assert intensity_si(0.0, "W/cm^2") == 0.0
    assert intensity_si(1.25, "W/m^2") == 1.25


def test_intensity_round_trip():
    value = 371.25
    for unit in ("W/m^2", "W/cm^2", "mW/cm^2"):
        assert intensity_in(intensity_si(value, unit), unit) == \
            pytest.approx(value, rel=4e-16, abs=0.0)


def test_intensity_rejects_unknown_unit_and_negative():
    with pytest.raises(ValueError, match="unknown intensity unit"):
        intensity_si(1.0, "kW/cm^2")
    with pytest.raises(ValueError, match="non-negative"):
        intensity_si(-1.0, "W/m^2")


def test_catalog_unknown_species():
    with pytest.raises(ValueError, match="unknown species"):
        catalog_lookup("Cs")


def test_catalog_reproduces_reference_thresholds():
    # the catalog constants must keep the published threshold intensities
    na = catalog_lookup("Na")
    rb = catalog_lookup("Rb87")
    assert intensity_in(threshold_intensity(na), "W/cm^2") == \
        pytest.approx(5.65e9, rel=0.03)
    assert intensity_in(threshold_intensity(rb), "W/cm^2") == \
        pytest.approx(8.19e8, rel=0.03)
    assert intensity_in(threshold_intensity(na, use_detuned=True),
                        "mW/cm^2") == pytest.approx(262.0, rel=0.10)


def test_catalog_detuned_enhancement():
    na = catalog_lookup("Na")
    ratio = na.detuned.polarizability_volume / na.polarizability_volume
    assert ratio == pytest.approx(1.5e5, rel=0.05)


def test_contact_coupling_accessor():
    na = catalog_lookup("Na")
    expected = 4 * math.pi * na.scattering_length * CONSTANTS.hbar**2 / na.mass
    assert na.contact_coupling == pytest.approx(expected, rel=1e-15, abs=0.0)


SPECIES_TEXT = """\
# toy species
name = X
mass_kg = 3.8175e-26
a_m = 2.75e-9
alpha_v_m3 = 24.1e-30

name = Y
mass_kg = 1.0e-25
a_m = 5.0e-9
alpha_v_m3 = 40e-30
detuned_transition_wavelength_m = 600e-9
detuned_delta_rad_s = 1e10
detuned_gamma_rad_s = 6e7
detuned_d_Cm = 2e-29
detuned_alpha_v_m3 = 3e-24
"""


def test_species_file_parses_records():
    table = parse_species_file(SPECIES_TEXT, source="toy")
    assert set(table) == {"X", "Y"}
    assert table["X"].scattering_length == 2.75e-9
    assert table["X"].detuned is None
    assert table["Y"].detuned.detuning == 1e10


_X = "name = X\nmass_kg = 1e-26\na_m = 1e-9\nalpha_v_m3 = 1e-29\n"


def _x_detuned(**values):
    """Species X with a detuned block, ``values`` replacing its entries."""
    block = {"detuned_transition_wavelength_m": "600e-9", "detuned_delta_rad_s": "1e10",
             "detuned_gamma_rad_s": "6e7", "detuned_d_Cm": "2e-29",
             "detuned_alpha_v_m3": "3e-24", **values}
    return _X + "".join(f"{key} = {value}\n" for key, value in block.items())


def test_species_file_errors_name_the_line():
    with pytest.raises(SpeciesFileError, match="line 2"):
        parse_species_file("name = X\nmass_kg : 1e-26\n", source="bad")
    with pytest.raises(SpeciesFileError, match="line 2.*not a number"):
        parse_species_file("name = X\nmass_kg = heavy\n", source="bad")
    with pytest.raises(SpeciesFileError, match="unknown key"):
        parse_species_file("name = X\ncolour = blue\n", source="bad")
    with pytest.raises(SpeciesFileError, match="missing keys"):
        parse_species_file("name = X\nmass_kg = 1e-26\n", source="bad")
    with pytest.raises(SpeciesFileError, match="incomplete detuned"):
        parse_species_file(
            "name = X\nmass_kg = 1e-26\na_m = 1e-9\nalpha_v_m3 = 1e-29\n"
            "detuned_delta_rad_s = 1e10\n", source="bad")
    # a second record of one name would silently replace the first
    with pytest.raises(SpeciesFileError, match=r"^bad, line 6: species 'X' is defined twice$"):
        parse_species_file(f"{_X}\n{_X}", source="bad")
    # a value is checked where it is read: a non-finite one names its line and
    # key, one the species rejects names its record
    for line, key, old, value in [(2, "mass_kg", "1e-26", "inf"), (3, "a_m", "1e-9", "nan"),
                                  (4, "alpha_v_m3", "1e-29", "-inf")]:
        with pytest.raises(SpeciesFileError, match=rf"^bad, line {line}: value for '{key}' "
                                                   rf"must be finite, got {value}$"):
            parse_species_file(_X.replace(old, value), source="bad")
    with pytest.raises(SpeciesFileError,
                       match=r"^bad, record ending at line 4: mass must be positive, got 0.0$"):
        parse_species_file(_X.replace("1e-26", "0"), source="bad")
    with pytest.raises(SpeciesFileError, match=r"^bad, record ending at line 4: "
                                               r"polarizability volume must be positive"):
        parse_species_file(_X.replace("1e-29", "-1e-29"), source="bad")
    # a finite negative scattering length stays allowed: it is tunable
    assert parse_species_file(_X.replace("1e-9", "-1e-9"))["X"].scattering_length == -1e-9
    # the detuned block is checked as well, and names its record
    for key, value, message in [
            ("detuned_transition_wavelength_m", "-6e-7",
             "detuned transition wavelength must be positive, got -6e-07"),
            ("detuned_gamma_rad_s", "-6e7", "detuned linewidth must be positive, got -60000000.0"),
            ("detuned_d_Cm", "0", "detuned dipole moment must be positive, got 0.0"),
            ("detuned_alpha_v_m3", "0",
             "detuned polarizability volume must be non-zero, got 0.0")]:
        with pytest.raises(SpeciesFileError,
                           match=rf"^bad, record ending at line 9: {message}$"):
            parse_species_file(_x_detuned(**{key: value}), source="bad")
    # the detuning and the detuned polarizability keep either sign: red or blue
    blue = parse_species_file(_x_detuned(detuned_delta_rad_s="-1e10",
                                         detuned_alpha_v_m3="-3e-24"))["X"].detuned
    assert blue.detuning == -1e10 and blue.polarizability_volume == -3e-24


def test_species_file_comments_do_not_end_a_record():
    # only a blank line ends a record; a # line anywhere is skipped
    table = parse_species_file("name = X\n# mass from NIST\nmass_kg = 1e-26\n"
                               "  # indented\na_m = 1e-9\nalpha_v_m3 = 1e-29\n# end\n")
    assert table == parse_species_file(_X)
    assert table["X"].mass == 1e-26


def test_species_table_file_entry_replaces_catalog_entry(tmp_path):
    path = tmp_path / "species.txt"
    path.write_text(_X.replace("name = X", "name = Na"))
    table = SpeciesTable(str(path))
    assert list(table) == ["Na", "Rb87"]
    assert table["Na"].mass == 1e-26 and table["Rb87"] == catalog_lookup("Rb87")
    with pytest.raises(ValueError, match=r"^unknown species 'X'; known species: \['Na', 'Rb87'\]$"):
        table["X"]
