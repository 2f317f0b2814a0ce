import pickle

import pytest

from lasergrav import (CONSTANTS, AnsatzConfig, AtomSpecies, DetunedContext,
                       EnergyBreakdown, PhysicalConstants, catalog_lookup,
                       config_at_ratio)


def _species(**changes):
    fields = dict(name="X", mass=1e-26, scattering_length=3e-9,
                  polarizability_volume=2e-29)
    return AtomSpecies(**{**fields, **changes})


def test_fields_are_the_annotations_in_order_with_class_defaults():
    assert AtomSpecies._fields == ("name", "mass", "scattering_length",
                                   "polarizability_volume", "detuned")
    assert _species().detuned is None
    assert AtomSpecies("X", 1e-26, 3e-9, 2e-29) == _species()
    assert PhysicalConstants() == CONSTANTS
    assert repr(EnergyBreakdown(1.0, 2.0, 3.0, 4.0, 10.0)) == \
        "EnergyBreakdown(kinetic=1.0, trap=2.0, swave=3.0, gravitational=4.0, total=10.0)"


def test_fields_cannot_be_assigned_or_deleted(na):
    with pytest.raises(AttributeError):
        na.mass = 1.0
    with pytest.raises(AttributeError):
        del na.mass
    with pytest.raises(AttributeError):
        CONSTANTS.hbar = 1.0
    assert na == catalog_lookup("Na") and na.mass == 3.8175e-26


def test_equal_fields_give_equal_records_and_hashes():
    a, b = _species(), _species()
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, _species(mass=2e-26)}) == 2
    assert a != _species(name="Y")
    ctx = (589e-9, 1e10, 6e7, 2e-29, 3e-24)
    assert DetunedContext(*ctx) == DetunedContext(*ctx)
    # a record equals neither a plain tuple of its values nor a record of
    # another type that holds the same values
    assert DetunedContext(*ctx) != ctx
    assert DetunedContext(*ctx) != EnergyBreakdown(*ctx)


@pytest.mark.parametrize("args, kwargs", [
    pytest.param(("X", 1e-26, 3e-9), {}, id="missing"),
    pytest.param(("X", 1e-26, 3e-9, 2e-29), {"charge": 1.0}, id="unknown"),
    pytest.param(("X", 1e-26, 3e-9, 2e-29), {"mass": 2e-26}, id="repeated"),
    pytest.param(("X", 1e-26, 3e-9, 2e-29, None, 1.0), {}, id="too many"),
])
def test_missing_unknown_or_repeated_fields_are_type_errors(args, kwargs):
    with pytest.raises(TypeError):
        AtomSpecies(*args, **kwargs)


def test_replace_copies_and_revalidates(na):
    heavier = na.replace(mass=2 * na.mass)
    assert heavier.mass == 2 * na.mass and na.mass == 3.8175e-26
    assert heavier.replace(mass=na.mass) == na
    with pytest.raises(ValueError):
        na.replace(mass=0.0)
    cfg = config_at_ratio(na, 1.5, 589e-9)
    assert isinstance(cfg, AnsatzConfig)
    with pytest.raises(ValueError):
        cfg.replace(kernel="yukawa")
    with pytest.raises(TypeError):
        na.replace(charge=1.0)


def test_asdict_nests_records(na):
    data = na.asdict()
    assert list(data) == list(AtomSpecies._fields)
    assert data["detuned"] == na.detuned.asdict()
    assert data["detuned"]["transition_wavelength"] == 589e-9
    assert catalog_lookup("Rb87").asdict()["detuned"] is None


def test_records_survive_pickling(na):
    assert pickle.loads(pickle.dumps(na)) == na
