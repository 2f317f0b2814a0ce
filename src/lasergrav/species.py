"""Atomic species catalog.

The built-in entries carry standard mass / scattering-length / polarizability
values; they were chosen so that the self-binding threshold intensities they
imply land on the published reference numbers (the test suite re-validates
this, so a catalog edit that breaks the thresholds fails loudly).
"""

from __future__ import annotations

import math

from ._record import Record
from .constants import CONSTANTS, polarizability_si
from .errors import SpeciesFileError


class DetunedContext(Record):
    """Near-resonant driving data for a species.

    ``detuning`` and ``linewidth`` are angular frequencies (rad/s);
    ``dipole_moment`` is the transition dipole matrix element (C m);
    ``polarizability_volume`` is the Gaussian-convention volume (m^3) at this
    detuning.
    """

    transition_wavelength: float
    detuning: float
    linewidth: float
    dipole_moment: float
    polarizability_volume: float

    def _check(self):
        # the detuning keeps either sign: red or blue of the transition
        for name in ("transition_wavelength", "linewidth", "dipole_moment"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"detuned {name.replace('_', ' ')} must be positive, "
                                 f"got {value}")
        if not abs(self.polarizability_volume) > 0.0:
            raise ValueError("detuned polarizability volume must be non-zero, "
                             f"got {self.polarizability_volume}")

    def far_detuned(self) -> bool:
        """True when |detuning| exceeds ten linewidths."""
        return abs(self.detuning) > 10.0 * self.linewidth


class AtomSpecies(Record):
    """Mass, s-wave scattering length and polarizability of one atom.

    ``polarizability_volume`` is the static Gaussian-convention volume in m^3.
    The scattering length may be any real number (it is tunable in
    experiments); operations that require ``a > 0`` enforce that themselves.
    """

    name: str
    mass: float
    scattering_length: float
    polarizability_volume: float
    detuned: DetunedContext | None = None

    def _check(self):
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not self.polarizability_volume > 0.0:
            raise ValueError(
                f"polarizability volume must be positive, got {self.polarizability_volume}"
            )

    @property
    def contact_coupling(self) -> float:
        """Mean-field contact coupling g = 4 pi a hbar^2 / m (J m^3)."""
        return 4.0 * math.pi * self.scattering_length * CONSTANTS.hbar**2 / self.mass

    def alpha_si(self, use_detuned: bool = False) -> float:
        """Polarizability in SI units (C m^2/V), static or at the catalog detuning."""
        if use_detuned:
            if self.detuned is None:
                raise ValueError(f"species {self.name!r} has no detuned context")
            return polarizability_si(self.detuned.polarizability_volume)
        return polarizability_si(self.polarizability_volume)

    def laser_wavelength(self, use_detuned: bool) -> float:
        """Default laser wavelength (m): the transition wavelength, on the
        detuned route of a species that has one (else ``ValueError``)."""
        if use_detuned and self.detuned is not None:
            return self.detuned.transition_wavelength
        why = "has no detuned context" if use_detuned else "is on the static route"
        raise ValueError(f"no wavelength given and {self.name} {why}: only the detuned "
                         "route defaults to the transition wavelength; pass --wavelength")


_CATALOG = {
    "Na": AtomSpecies(
        name="Na",
        mass=3.8175e-26,
        scattering_length=2.75e-9,
        polarizability_volume=24.1e-30,
        detuned=DetunedContext(
            transition_wavelength=589e-9,
            detuning=2.0 * math.pi * 1.7e9,
            linewidth=2.0 * math.pi * 9.79e6,
            dipole_moment=2.1e-29,
            polarizability_volume=3.534e-24,
        ),
    ),
    "Rb87": AtomSpecies(
        name="Rb87",
        mass=1.4431e-25,
        scattering_length=5.77e-9,
        polarizability_volume=47.3e-30,
    ),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


class SpeciesTable(dict):
    """Name -> species: the catalog plus the species of the file at ``path``,
    a file entry replacing the catalog entry of the same name.  Looking up a
    name the table does not hold is the one "unknown species" error."""

    def __init__(self, path: str | None = None):
        super().__init__(_CATALOG)
        if path:
            self.update(load_species_file(path))

    def __missing__(self, name):
        raise ValueError(f"unknown species {name!r}; known species: {sorted(self)}")


def catalog_lookup(name: str) -> AtomSpecies:
    """Return the catalog species called ``name`` (``Na`` or ``Rb87``)."""
    return SpeciesTable()[name]


# species-file key -> field; the detuned_* keys fill a DetunedContext
_BASE_KEYS = {"name": "name", "mass_kg": "mass", "a_m": "scattering_length",
              "alpha_v_m3": "polarizability_volume"}
_DETUNED_KEYS = {"detuned_transition_wavelength_m": "transition_wavelength",
                 "detuned_delta_rad_s": "detuning", "detuned_gamma_rad_s": "linewidth",
                 "detuned_d_Cm": "dipole_moment",
                 "detuned_alpha_v_m3": "polarizability_volume"}


def parse_species_file(text: str, source: str = "<species file>") -> dict[str, AtomSpecies]:
    """Parse key=value species records separated by blank lines; a ``#`` line
    is a comment, also inside a record.

    Returns a name -> species mapping.  Raises :class:`SpeciesFileError`
    naming the offending line on any malformed input, a name given to two
    records, a non-finite value and a value the species rejects included.
    """
    species: dict[str, AtomSpecies] = {}
    record: dict[str, str | float] = {}
    lines = text.splitlines()
    # a blank line past the end closes the last record
    for lineno, raw in enumerate([*lines, ""], start=1):
        line = raw.strip()
        if line.startswith("#") or not (line or record):
            continue
        if not line:  # a blank line ends the record
            where = f"{source}, record ending at line {min(lineno, len(lines))}"
            missing = _BASE_KEYS.keys() - record.keys()
            if missing:
                raise SpeciesFileError(f"{where}: missing keys {sorted(missing)}")
            missing = _DETUNED_KEYS.keys() - record.keys()
            if 0 < len(missing) < len(_DETUNED_KEYS):
                raise SpeciesFileError(
                    f"{where}: incomplete detuned block, missing {sorted(missing)}")
            try:
                detuned = None if missing else DetunedContext(
                    **{field: record[key] for key, field in _DETUNED_KEYS.items()})
                species[record["name"]] = AtomSpecies(
                    **{field: record[key] for key, field in _BASE_KEYS.items()},
                    detuned=detuned)
            except ValueError as exc:
                raise SpeciesFileError(f"{where}: {exc}") from None
            record = {}
            continue
        if "=" not in line:
            raise SpeciesFileError(f"{source}, line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _BASE_KEYS and key not in _DETUNED_KEYS:
            raise SpeciesFileError(f"{source}, line {lineno}: unknown key {key!r}")
        if key in record:
            raise SpeciesFileError(f"{source}, line {lineno}: duplicate key {key!r}")
        if key == "name" and value in species:
            raise SpeciesFileError(f"{source}, line {lineno}: species {value!r} is defined twice")
        if key != "name":
            try:
                value = float(value)
            except ValueError:
                raise SpeciesFileError(
                    f"{source}, line {lineno}: value for {key!r} is not a number: {value!r}"
                ) from None
            if not math.isfinite(value):
                raise SpeciesFileError(
                    f"{source}, line {lineno}: value for {key!r} must be finite, got {value}")
        record[key] = value
    return species


def load_species_file(path: str) -> dict[str, AtomSpecies]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_species_file(fh.read(), source=path)
