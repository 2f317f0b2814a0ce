"""Regime classification of the self-bound cloud and atom-capacity limits.

The map lives in the plane x = log10(lam / (N a)), y = log10(I / I0): x
measures zero-point kinetic pressure against contact repulsion, y the
attraction strength against the TF self-binding threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .errors import UnboundError
from .interaction import InteractionParams
from .species import AtomSpecies
from .variational import (config_at_ratio, minimize_width, tf_width,
                          threshold_intensity)

# reading of the "much greater than one" trap-irrelevance condition
TRAP_NEGLIGIBLE_CUTOFF = 10.0


@dataclass(frozen=True)
class RegimePoint:
    """One point of the phase portrait."""

    x: float        # log10(lam / (N a))
    y: float        # log10(I / I0)
    n_border: float
    f: float
    label: str      # "Unbound", "G" or "TFG"


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
    G regime, N/N_border deep in the TF-G regime."""
    ratio = n_atoms / n_border
    return 0.5 + math.sqrt(0.25 + ratio * ratio)


def classify(n_atoms: float, intensity: float, species: AtomSpecies,
             wavelength: float, use_detuned: bool = False) -> RegimePoint:
    """Label a parameter point Unbound / G / TFG.

    Deterministic reading of the soft boundaries, applied in this order:
    unbound when I/I0 does not exceed the kinetic-corrected threshold
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
    f = f_factor(n_atoms, n_b)
    if ratio_y <= max(1.0, ratio_x):
        label = "Unbound"
    elif ratio_x >= 1.0 and ratio_x <= ratio_y <= ratio_x**2:
        label = "G"
    else:
        label = "TFG"
    return RegimePoint(x=math.log10(ratio_x), y=math.log10(ratio_y),
                       n_border=n_b, f=f, label=label)


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
    """Atom number at which the cloud at I/I0 = ``ratio`` reaches
    ``rho_peak`` (m^-3) central density.

    Solves rho_peak = N / (pi^(3/2) (w* lam)^3) with the TF-limit width
    :func:`tf_width` of ``ratio`` (N-independent).  With ``self_consistent``
    the kinetic term is retained and the equation is iterated to a fixed
    point over N; that variant raises :class:`UnboundError` when the
    kinetic pressure unbinds the cloud along the way (small capacities), so
    the TF form is the default.
    """
    if not rho_peak > 0.0:
        raise ValueError("peak density must be positive")
    threshold_intensity(species, use_detuned)  # ValueError where I0 is undefined
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    w_star = tf_width(ratio)
    if math.isnan(w_star):
        raise UnboundError(f"no bound TF solution at I/I0 = {ratio}")
    n = rho_peak * math.pi**1.5 * (w_star * wavelength) ** 3
    if not self_consistent:
        return n
    for _ in range(200):
        cfg = config_at_ratio(species, ratio, wavelength, n_atoms=max(n, 1.0),
                              use_detuned=use_detuned, tf_limit=False)
        trial = minimize_width(cfg)
        if not trial.bound_local:
            raise UnboundError(
                f"kinetic pressure unbinds the cloud near N = {n:.3g}; "
                f"no self-consistent capacity at I/I0 = {ratio}")
        n_new = rho_peak * math.pi**1.5 * (trial.w_star * wavelength) ** 3
        if abs(n_new - n) <= 1e-6 * n:
            return n_new
        n = n_new
    raise UnboundError("atom-capacity fixed point did not settle")


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

    The labels depend only on the two coordinates, so each (x, y) pair is
    realized at a fixed atom number with the wavelength solved from x.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2 points per axis, got {nx} x {ny}")
    i0 = threshold_intensity(species, use_detuned)
    n_atoms = 10.0
    rows = []
    for ix in range(nx):
        x = -2.0 + 5.0 * ix / (nx - 1)
        wavelength = 10.0**x * n_atoms * species.scattering_length
        for iy in range(ny):
            y = -1.0 + 4.0 * iy / (ny - 1)
            point = classify(n_atoms, 10.0**y * i0, species, wavelength,
                             use_detuned)
            rows.append({"x": x, "y": y, "label": point.label})
    return rows
