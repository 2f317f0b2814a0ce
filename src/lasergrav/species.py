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


def catalog_lookup(name: str) -> AtomSpecies:
    """Return the catalog species called ``name`` (``Na`` or ``Rb87``)."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown species {name!r}; catalog has {catalog_names()}"
        ) from None


# keys accepted in a species file; detuned_* lines populate a DetunedContext
_BASE_KEYS = {"name", "mass_kg", "a_m", "alpha_v_m3"}
_DETUNED_KEYS = {
    "detuned_transition_wavelength_m",
    "detuned_delta_rad_s",
    "detuned_gamma_rad_s",
    "detuned_d_Cm",
    "detuned_alpha_v_m3",
}


def parse_species_file(text: str, source: str = "<species file>") -> dict[str, AtomSpecies]:
    """Parse key=value species records separated by blank lines.

    Returns a name -> species mapping.  Raises :class:`SpeciesFileError`
    naming the offending line on any malformed input.
    """
    species: dict[str, AtomSpecies] = {}
    record: dict[str, str] = {}

    def flush(end_line: int):
        nonlocal record
        if not record:
            return
        missing = _BASE_KEYS - set(record)
        if missing:
            raise SpeciesFileError(
                f"{source}, record ending at line {end_line}: missing keys {sorted(missing)}"
            )
        detuned_present = set(record) & _DETUNED_KEYS
        detuned = None
        if detuned_present:
            missing_d = _DETUNED_KEYS - set(record)
            if missing_d:
                raise SpeciesFileError(
                    f"{source}, record ending at line {end_line}: incomplete detuned "
                    f"block, missing {sorted(missing_d)}"
                )
            detuned = DetunedContext(
                transition_wavelength=float(record["detuned_transition_wavelength_m"]),
                detuning=float(record["detuned_delta_rad_s"]),
                linewidth=float(record["detuned_gamma_rad_s"]),
                dipole_moment=float(record["detuned_d_Cm"]),
                polarizability_volume=float(record["detuned_alpha_v_m3"]),
            )
        sp = AtomSpecies(
            name=record["name"],
            mass=float(record["mass_kg"]),
            scattering_length=float(record["a_m"]),
            polarizability_volume=float(record["alpha_v_m3"]),
            detuned=detuned,
        )
        species[sp.name] = sp
        record = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            flush(lineno)
            continue
        if "=" not in line:
            raise SpeciesFileError(f"{source}, line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _BASE_KEYS | _DETUNED_KEYS:
            raise SpeciesFileError(f"{source}, line {lineno}: unknown key {key!r}")
        if key in record:
            raise SpeciesFileError(f"{source}, line {lineno}: duplicate key {key!r}")
        if key != "name":
            try:
                float(value)
            except ValueError:
                raise SpeciesFileError(
                    f"{source}, line {lineno}: value for {key!r} is not a number: {value!r}"
                ) from None
        record[key] = value
    flush(lineno if text else 0)
    return species


def load_species_file(path: str) -> dict[str, AtomSpecies]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_species_file(fh.read(), source=path)
