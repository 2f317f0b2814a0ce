"""Regime classification of the self-bound cloud and atom-capacity limits.

The map lives in the plane x = log10(lam / (N a)), y = log10(I / I0): x
measures zero-point kinetic pressure against contact repulsion, y the
attraction strength against the TF self-binding threshold.
"""

from __future__ import annotations

import math

from ._record import Record
from .constants import CONSTANTS
from .errors import NumericsError, UnboundError
from .interaction import InteractionParams, _brent_root
from .species import AtomSpecies
from .variational import (W_MAX, _tf_slope, config_at_ratio, minimize_width,
                          tf_width, threshold_intensity)

# reading of the "much greater than one" trap-irrelevance condition
TRAP_NEGLIGIBLE_CUTOFF = 10.0


class RegimePoint(Record):
    """One point of the phase portrait."""

    x: float        # log10(lam / (N a))
    y: float        # log10(I / I0)
    n_border: float
    f: float
    label = property(lambda self: _label(self.x, self.y))  # "Unbound", "G" or "TFG"


def border_atom_number(coupling: float, species: AtomSpecies) -> float:
    """Atom number sqrt(3 pi hbar^2 / (2 m u a)) separating the
    kinetic-pressure (G) and contact-pressure (TF-G) self-bound regimes."""
    if not coupling > 0.0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    a = species.scattering_length
    if not a > 0.0:
        raise ValueError(f"scattering length must be positive, got {a}")
    return math.sqrt(3.0 * math.pi * CONSTANTS.hbar**2
                     / (2.0 * species.mass * coupling * a))


def f_factor(n_atoms: float, n_border: float) -> float:
    """Interpolation factor 1/2 + sqrt(1/4 + N^2/N_border^2); 1 deep in the
    G regime, N/N_border deep in the TF-G regime.  The trap-free -u/r cloud
    has r_rms = X(q) hbar^2/(m u N), q = N/N_border, and X/f lies between the
    TF-G limit 4.2703 and 4.668 (4.6566, 4.4094, 4.2962 at q = 1, 10, 100)."""
    ratio = n_atoms / n_border
    return 0.5 + math.sqrt(0.25 + ratio * ratio)


def _label(x: float, y: float) -> str:
    """The portrait's rule in the log plane: Unbound for y <= max(0, x), G
    for 0 <= x <= y <= 2x, TFG otherwise."""
    if y <= max(0.0, x):
        return "Unbound"
    return "G" if 0.0 <= x <= y <= 2.0 * x else "TFG"


def classify(n_atoms: float, intensity: float, species: AtomSpecies,
             wavelength: float, use_detuned: bool = False) -> RegimePoint:
    """Label a parameter point Unbound / G / TFG by the portrait's rule
    applied to its own x = log10(lam/(N a)) and y = log10(I/I0).

    Unbound when I/I0 does not exceed the kinetic-corrected threshold
    max(1, lam/(N a)); G when lam/(N a) >= 1 and lam/(N a) <= I/I0 <=
    (lam/(N a))^2; everything else is TFG (which then automatically has
    I/I0 > 1 and N > N_border).
    """
    if not n_atoms >= 1.0:
        raise ValueError("need at least one atom")
    if not intensity > 0.0:
        raise ValueError("intensity must be positive")
    ratio_x = wavelength / (n_atoms * species.scattering_length)
    ratio_y = intensity / threshold_intensity(species, use_detuned)
    u = InteractionParams.from_intensity(species, intensity, wavelength,
                                         use_detuned).coupling
    n_b = border_atom_number(u, species)
    x, y = math.log10(ratio_x), math.log10(ratio_y)
    return RegimePoint(x=x, y=y, n_border=n_b, f=f_factor(n_atoms, n_b))


def trap_relevance(rho: float, trap_frequency: float, wavelength: float,
                   species: AtomSpecies) -> tuple[float, bool]:
    """Trap-irrelevance parameter rho l0 lam a with l0 = sqrt(hbar/(m omega0)).

    Returns the raw parameter and whether it clears the documented cutoff
    (>10) for "the external trap is negligible"; apply a different cutoff to
    the raw value if preferred.
    """
    if not trap_frequency > 0.0:
        raise ValueError(f"trap frequency must be positive, got {trap_frequency}")
    l0 = math.sqrt(CONSTANTS.hbar / (species.mass * trap_frequency))
    parameter = rho * l0 * wavelength * species.scattering_length
    return parameter, parameter > TRAP_NEGLIGIBLE_CUTOFF


def atom_capacity(wavelength: float, rho_peak: float, ratio: float,
                  species: AtomSpecies, use_detuned: bool = False,
                  self_consistent: bool = False) -> float:
    """Atom number N = rho_peak pi^(3/2) (w lam)^3 at which the cloud at I/I0
    = ``ratio`` reaches ``rho_peak`` (m^-3) central density.

    The TF limit (the default) takes w = :func:`tf_width`.  ``self_consistent``
    keeps the kinetic term: w is the one root above it of w^2 (h - S_c/r) = c =
    hbar^2/(2 pi^(3/2) m u rho lam^4), whose left side rises from 0 there, and
    :class:`UnboundError` unless w is the deepest minimum at N >= 1.
    """
    if not rho_peak > 0.0:
        raise ValueError("peak density must be positive")
    threshold_intensity(species, use_detuned)  # ValueError where I0 is undefined
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    w = tf_width(ratio)
    if math.isnan(w):
        raise UnboundError(f"no bound TF solution at I/I0 = {ratio}")
    if self_consistent:  # c with u = r u0 from the threshold formula
        c = 35.0 / (352.0 * math.pi**3.5 * ratio * species.scattering_length
                    * rho_peak * wavelength**2)

        def excess(x):
            return x * x * _tf_slope(x, ratio) - c
        hi = 2.0 * w
        while hi < W_MAX and excess(hi) < 0.0:
            hi = min(2.0 * hi, W_MAX)
        if excess(w) > 0.0 or excess(hi) < 0.0:
            raise NumericsError(f"no self-consistent capacity at rho = {rho_peak:g} m^-3, "
                                f"I/I0 = {ratio}: " + (f"c = {c:.3g} is below the rounding "
                                "of h - S_c/r" if excess(w) > 0.0 else f"w lies past {W_MAX:g}"))
        w = _brent_root(excess, w, hi, 1e-15 * w, 1e-15)
    n = rho_peak * math.pi**1.5 * (w * wavelength) ** 3
    if self_consistent and not (n >= 1.0 and abs(minimize_width(config_at_ratio(
            species, ratio, wavelength, n, use_detuned)).w_star - w) <= 1e-9 * w):
        raise UnboundError(
            f"kinetic pressure unbinds the cloud near N = {n:.3g}; "
            f"no self-consistent capacity at I/I0 = {ratio}")
    return n


def capacity_band(wavelengths, rho_low: float, rho_high: float, ratio: float,
                  species: AtomSpecies, use_detuned: bool = False) -> list[dict]:
    """Capacity range (N at rho_low .. N at rho_high) per wavelength."""
    return [{"lambda_m": lam,
             "N_low": atom_capacity(lam, rho_low, ratio, species, use_detuned),
             "N_high": atom_capacity(lam, rho_high, ratio, species, use_detuned)}
            for lam in wavelengths]


def phase_map(species: AtomSpecies, nx: int = 51, ny: int = 41,
              use_detuned: bool = False) -> list[dict]:
    """Grid of regime labels over the portrait plane, ``nx`` points of x
    over [-2, 3] by ``ny`` points of y over [-1, 3], ends included.

    Each coordinate is one rounded quotient of integers, labelled by the
    rule of :func:`classify` applied to the coordinates themselves: exact on
    the lines, and one map for every species, which only needs a threshold.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2 points per axis, got {nx} x {ny}")
    threshold_intensity(species, use_detuned)  # ValueError where I0 is undefined
    xs = [(5 * ix - 2 * (nx - 1)) / (nx - 1) for ix in range(nx)]
    ys = [(4 * iy - (ny - 1)) / (ny - 1) for iy in range(ny)]
    return [{"x": x, "y": y, "label": _label(x, y)} for x in xs for y in ys]
