"""Gaussian-ansatz energy functional and width minimization.

The trial state is an isotropic Gaussian of dimensionless width ``w`` (in
units of the laser wavelength), density N |phi|^2 with per-axis variance
(w lam)^2 / 2.  Per particle the four energy contributions are

    kinetic       3 hbar^2 / (4 m (w lam)^2)        (dropped in the TF limit)
    trap          (3/4) m omega0^2 (w lam)^2
    s-wave        g N / (2 (2 pi)^(3/2) (w lam)^3)
    attraction    (N u / 2 lam) g(w),   g(w) = <U lam/u> = Int P(s; w) U(s) ds lam/u

where P(s; w) is the pair-separation density of two independent draws from
the trial cloud: a Maxwell law with per-axis variance (w lam)^2.  Averaging
the kernel's Fourier transform over the Gaussian gives g in closed form
through Dawson's integral F,

    g(w) = -(20 sqrt(pi)/11) [3 (z^4 + 2 z^2 + 4) F(z) + 2 z^3 - 12 z] / z^6,

with z = 2 sqrt(2) pi w.  The bracket cancels as w^-4 towards w -> 0, so
below ``W_SWITCH`` the Maxwell moments of the kernel's near-zone series are
summed instead.  For the -u/r kernel g = -sqrt(2/pi)/w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .constants import CONSTANTS
from .errors import NumericsError
from .interaction import (InteractionParams, _brent_root, _horner,
                          _series_coefficients)
from .species import AtomSpecies

# w below which g is summed from the kernel's series (the closed form
# cancels as w^-4); the 24-term moment sum keeps its digits up to w = 0.16
W_SWITCH = 0.15
# g = Sum_n _G_SERIES[n] w^(2n-1): the series coefficients F_n of the kernel
# times (2 pi)^(2n-1) and the Maxwell moments <s^(2n-1)> = w^(2n-1)
# 2^(n+1/2) n!/sqrt(pi)
_G_SERIES = tuple(-(15.0 / 11.0) * math.sqrt(math.pi) * c
                  * (2.0 * math.pi) ** (2 * n - 1) * 2.0 ** (n + 0.5)
                  * math.factorial(n) for n, c in enumerate(_series_coefficients(24)))
_G_PRIME_SERIES = tuple((2 * n - 1) * c for n, c in enumerate(_G_SERIES))

# Dawson's integral: the positive Taylor series exp(-z^2) Sum z^(2n+1)/(n!
# (2n+1)) below _DAWSON_SWITCH, with terms below 1e-17 of the sum at z = 6
# after 100; above it the asymptotic series (1/2z) Sum (2n-1)!!/(2z^2)^n,
# whose terms bottom out at 3e-16 near n = 36 for z = 6.
_DAWSON_SWITCH = 6.0
_DAWSON_TAYLOR = tuple(1.0 / (math.factorial(n) * (2 * n + 1))
                       for n in range(100))
_DAWSON_ASYMPTOTIC = tuple(float(math.prod(range(1, 2 * n, 2)))
                           for n in range(1, 37))

# 181 widths, 20 per decade over the hard limits [1e-6, 1e3] wavelengths
_WIDTHS = tuple(10.0 ** (k / 20) for k in range(-120, 61))
_ROOT_RTOL = 1e-12

# S_c: contact coefficient of the TF energy S_c/(r w^3) at I = I0 (r = I/I0,
# units of N u/lam); also the w -> infinity limit, approached from below, of
# the full kernel's h(w) = w^4 g'(w)/6.  The threshold formula states this.
CONTACT_AT_THRESHOLD = 35.0 / (88.0 * math.pi * (2.0 * math.pi) ** 1.5)


@dataclass(frozen=True)
class AnsatzConfig:
    """Inputs of the variational problem.

    ``kernel`` selects the full oscillatory pair potential or its -u/r
    near-zone limit (the latter mainly serves as an analytic oracle).  The
    contact term follows the species: a zero scattering length switches it
    off exactly.
    """

    n_atoms: float
    species: AtomSpecies
    interaction: InteractionParams
    trap_frequency: float = 0.0
    tf_limit: bool = False
    kernel: str = "full"

    def __post_init__(self):
        if not self.n_atoms >= 1.0:
            raise ValueError(f"need at least one atom, got {self.n_atoms}")
        if not self.trap_frequency >= 0.0:
            raise ValueError("trap frequency must be non-negative")
        if self.kernel not in ("full", "near_zone"):
            raise ValueError(f"unknown kernel {self.kernel!r}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-particle energies (J) of the four contributions and their sum."""

    kinetic: float
    trap: float
    swave: float
    gravitational: float
    total: float


@dataclass(frozen=True)
class VariationalResult:
    """Equilibrium width and self-binding verdict.

    ``bound_local``: a finite-w local minimum exists.  ``bound_global``: its
    energy lies below the w -> infinity dissociation value (zero without a
    trap).  When unbound, ``w_star`` and ``r_rms`` are NaN and ``breakdown``
    is None.
    """

    w_star: float
    r_rms: float
    breakdown: Optional[EnergyBreakdown]
    bound_local: bool
    bound_global: bool


def _dawson(z: float) -> tuple[float, float]:
    """Dawson's integral F(z) and its derivative F'(z) = 1 - 2 z F."""
    if z < _DAWSON_SWITCH:
        f = z * math.exp(-z * z) * _horner(z * z, _DAWSON_TAYLOR)
        return f, 1.0 - 2.0 * z * f
    # 1 - 2zF cancels to F' ~ -1/(2z^2): sum F' = -Sum_{n>=1} (2n-1)!!/(2z^2)^n
    # directly so that g' keeps its digits far out, where minimum roots sit
    x = 0.5 / (z * z)
    fp = -x * _horner(x, _DAWSON_ASYMPTOTIC)
    return (1.0 - fp) / (2.0 * z), fp


def _g_series(w: float, d_dw: bool) -> float:
    w2 = w * w
    if d_dw:
        return _horner(w2, _G_PRIME_SERIES) / w2
    return _horner(w2, _G_SERIES) / w


def _g_dawson(w: float, d_dw: bool) -> float:
    z = 2.0 * math.sqrt(2.0) * math.pi * w
    z2 = z * z
    f, fp = _dawson(z)
    if d_dw:
        return (-(120.0 * math.sqrt(2.0) * math.pi ** 1.5 / 11.0)
                * (z * (z2 * z2 + 2.0 * z2 + 4.0) * fp
                   - 2.0 * (z2 * z2 + 4.0 * z2 + 12.0) * f
                   - 2.0 * z2 * z + 20.0 * z) / (z2 * z2 * z2 * z))
    return (-(20.0 * math.sqrt(math.pi) / 11.0)
            * (3.0 * (z2 * z2 + 2.0 * z2 + 4.0) * f + 2.0 * z2 * z - 12.0 * z)
            / (z2 * z2 * z2))


def pair_energy(w: float, kernel: str = "full", d_dw: bool = False) -> float:
    """Mean dimensionless pair energy g(w) = <U lam/u> over P(s; w), or with
    ``d_dw`` its width derivative g'(w), in closed form (module docstring).

    Takes one width; the -u/r kernel gives -sqrt(2/pi)/w.
    """
    if not w > 0.0:
        raise ValueError(f"width must be positive, got {w}")
    if kernel == "near_zone":
        return math.sqrt(2.0 / math.pi) / (w * w if d_dw else -w)
    return _g_series(w, d_dw) if w < W_SWITCH else _g_dawson(w, d_dw)


def energy_breakdown(w: float, cfg: AnsatzConfig) -> EnergyBreakdown:
    """Per-particle energy terms of the Gaussian trial state at width ``w``."""
    if not w > 0.0:
        raise ValueError(f"width must be positive, got {w}")
    k, t, s = _closed_coefficients(cfg)
    grav = 0.0
    if cfg.interaction.coupling != 0.0:
        grav = 0.5 * tf_energy_unit(cfg) * pair_energy(w, cfg.kernel)
    kinetic, trap, swave = k / w**2, t * w**2, s / w**3
    return EnergyBreakdown(kinetic, trap, swave, grav, kinetic + trap + swave + grav)


def _closed_coefficients(cfg: AnsatzConfig) -> tuple[float, float, float]:
    """(k, t, s) such that kinetic + trap + s-wave = k/w^2 + t w^2 + s/w^3 (J)."""
    lam = cfg.interaction.wavelength
    m = cfg.species.mass
    k = 0.0 if cfg.tf_limit else 3.0 * CONSTANTS.hbar**2 / (4.0 * m * lam * lam)
    t = 0.75 * m * cfg.trap_frequency**2 * lam * lam
    s = (cfg.species.contact_coupling * cfg.n_atoms
         / (2.0 * (2.0 * math.pi) ** 1.5 * lam**3))
    return k, t, s


def energy_gradient_parts(w: float, cfg: AnsatzConfig) -> tuple[float, float]:
    """(dE/dw of kinetic+trap+swave, dE/dw of the attraction term), both
    closed form and per particle in J per unit w."""
    k, t, s = _closed_coefficients(cfg)
    grav = 0.5 * tf_energy_unit(cfg) * pair_energy(w, cfg.kernel, d_dw=True)
    return -2.0 * k / w**3 + 2.0 * t * w - 3.0 * s / w**4, grav


def total_energy(w: float, cfg: AnsatzConfig) -> float:
    return energy_breakdown(w, cfg).total


def tf_energy_unit(cfg: AnsatzConfig) -> float:
    """Natural per-particle energy scale N u / lam of the TF problem (J)."""
    return cfg.n_atoms * cfg.interaction.coupling / cfg.interaction.wavelength


def tf_width(ratio: float) -> float:
    """Width w* of the trap-free TF cloud at I/I0 = ``ratio`` for any species,
    wavelength and N: the one root of the rising h(w) = S_c/r.  NaN (no
    minimum) for 0 <= r <= 1, ``ValueError`` for r < 0 or NaN and
    :class:`NumericsError` past r = 1e150.  Above z = 6 it solves
    S_c (r - 1)/r = S_c - h, the deficit summed from the asymptotic F and F'
    so that the root keeps its digits as r -> 1.
    """
    if not ratio >= 0.0:
        raise ValueError("intensity ratios must be non-negative")
    if ratio > 1e150:
        raise NumericsError(f"I/I0 = {ratio:g} puts w* below 1e-75 wavelengths")
    if not ratio > 1.0:
        return math.nan

    def slope(w):  # h(w) - S_c/r
        x = 1.0 / (16.0 * (math.pi * w) ** 2)  # 1/(2 z^2)
        if x > 0.5 / _DAWSON_SWITCH**2:
            return w**4 * pair_energy(w, d_dw=True) / 6.0 - CONTACT_AT_THRESHOLD / ratio
        tail = _horner(x, _DAWSON_ASYMPTOTIC[1:])  # Sum_(n>1) (2n-1)!! x^(n-2)
        lead = (3.0 + 16.0 * x + 48.0 * x * x) * (1.0 + x * tail)
        return CONTACT_AT_THRESHOLD * ((ratio - 1.0) / ratio
                                       - x / 3.5 * (32.0 - 48.0 * x - tail / 2 - lead))

    # w* is within 12% of the larger root of h's two asymptotes
    guess = max(0.2459 / math.sqrt(ratio), 0.22306 / math.sqrt(ratio - 1.0))
    return _brent_root(slope, 0.8 * guess, 1.25 * guess, 1e-15 * guess, 1e-15)


def minimize_width(cfg: AnsatzConfig) -> VariationalResult:
    """Locate the lowest finite-width local energy minimum.

    Trap-free TF with the full kernel and contact repulsion: :func:`tf_width`
    at r = I/I0.  Else dE/dw on a log grid of widths over [1e-6, 1e3], every
    - to + sign change refined with Brent's method on
    :func:`energy_gradient_parts`, and the deepest minimum.  Raises
    :class:`NumericsError` when a root can lie outside the grid: below it
    while dE/dw > 0 at the bottom and a kinetic or contact term will outgrow
    the attraction; above it while dE/dw < 0 at the top, with a trap or the
    -u/r kernel (its slope falls off only as 1/w^2) always, else only below
    w = 3A/(2k): h(w) < S_c bounds dE/dw < -2k/w^3 + 3A/w^4 with
    A = S_c N u/lam - s.  Unbound (NaN width) means no minimum.
    """
    return _minimum(cfg, None)


def _minimum(cfg: AnsatzConfig, ratio: Optional[float]) -> VariationalResult:
    k, t, s = _closed_coefficients(cfg)
    if k == t == 0.0 and s > 0.0 and cfg.kernel == "full":
        p = cfg.interaction
        w_star = tf_width(p.intensity / _threshold_at(cfg.species, p.alpha_si)
                          if ratio is None else ratio)
        roots = [] if math.isnan(w_star) else [w_star]
    else:
        w = _WIDTHS
        slope = [sum(energy_gradient_parts(x, cfg)) for x in w]
        far = CONTACT_AT_THRESHOLD * tf_energy_unit(cfg) - s
        rises = t > 0.0 or (cfg.kernel == "near_zone" and cfg.interaction.coupling > 0.0)
        room = rises or (far > 0.0 and w[-1] < 1.5 * far / k)
        if (slope[0] > 0.0 and (k > 0.0 or s > 0.0)) or (slope[-1] < 0.0 and room):
            raise NumericsError("width minimum outside [1e-6, 1e3] wavelengths")
        roots = [_brent_root(lambda x: sum(energy_gradient_parts(x, cfg)),
                             w[i], w[i + 1], xtol=_ROOT_RTOL * w[i], rtol=_ROOT_RTOL)
                 for i in range(len(w) - 1) if slope[i] < 0.0 <= slope[i + 1]]
    if not roots:
        return VariationalResult(math.nan, math.nan, None, False, False)
    best, w_star = min(((energy_breakdown(x, cfg), x) for x in roots),
                       key=lambda pair: pair[0].total)
    r_rms = math.sqrt(1.5) * w_star * cfg.interaction.wavelength
    return VariationalResult(w_star, r_rms, best, bound_local=True,
                             bound_global=best.total < 0.0)


def threshold_intensity(species: AtomSpecies, use_detuned: bool = False) -> float:
    """Total intensity (W/m^2) above which the TF cloud self-binds:
    (48 pi / 7) hbar^2 c eps0^2 a / (m alpha^2)."""
    return _threshold_at(species, species.alpha_si(use_detuned))


def _threshold_at(species: AtomSpecies, alpha: float) -> float:
    a = species.scattering_length
    if not a > 0.0:
        raise ValueError(
            f"threshold undefined for non-positive scattering length a={a}")
    return (48.0 * math.pi / 7.0) * CONSTANTS.hbar**2 * CONSTANTS.c \
        * CONSTANTS.eps0**2 * a / (species.mass * alpha**2)


def config_at_ratio(species: AtomSpecies, ratio: float, wavelength: float,
                    n_atoms: float = 1.0, use_detuned: bool = False,
                    trap_frequency: float = 0.0, tf_limit: bool = False) -> AnsatzConfig:
    """AnsatzConfig with total intensity ``ratio`` times the species threshold."""
    intensity = ratio * threshold_intensity(species, use_detuned)
    params = InteractionParams.from_intensity(species, intensity, wavelength,
                                              use_detuned)
    return AnsatzConfig(n_atoms=n_atoms, species=species, interaction=params,
                        trap_frequency=trap_frequency, tf_limit=tf_limit)


def width_vs_intensity(cfg: AnsatzConfig,
                       ratios: Sequence[float]) -> list[VariationalResult]:
    """:func:`minimize_width` at each I/I0 in ``ratios`` (trap-free TF: its
    :func:`tf_width` as given), changing only the intensity of ``cfg``.
    A negative or NaN ratio raises ``ValueError``; I/I0 = 0 reads unbound."""
    if any(not r >= 0.0 for r in ratios):
        raise ValueError("intensity ratios must be non-negative")
    alpha, lam = cfg.interaction.alpha_si, cfg.interaction.wavelength
    i0 = _threshold_at(cfg.species, alpha)
    return [_minimum(replace(
                cfg, interaction=InteractionParams.from_alpha(r * i0, lam, alpha)), r)
            for r in ratios]


def critical_intensity_ratio(species: AtomSpecies, wavelength: float,
                             n_atoms: float = 1.0,
                             use_detuned: bool = False) -> float:
    """I_c/I0 = S/S_c above which a TF cloud self-binds: 1 to rounding.

    Without a trap dE/dw = 3 (h(w) - S/r)/w^4 in units of N u/lam, with
    h = w^4 g'/6 rising to S_c and S the contact coefficient at I0, which
    the threshold formula makes S_c; :func:`tf_width` takes it as exact.
    """
    cfg = config_at_ratio(species, 1.0, wavelength, n_atoms, use_detuned,
                          tf_limit=True)
    return _closed_coefficients(cfg)[2] / tf_energy_unit(cfg) / CONTACT_AT_THRESHOLD


def mfa_validity(rho_peak: float, species: AtomSpecies,
                 coupling: float) -> dict:
    """Both mean-field validity numbers at peak density.

    ``rho_a3`` (= rho a^3) must be small for the contact interaction,
    ``rho_astar3`` (= rho (h^2/(m u))^3) must be large for the long-range
    attraction.  The flags use documented cutoffs 1e-2 and 1e2.
    """
    a3 = species.scattering_length**3
    astar = CONSTANTS.h**2 / (species.mass * coupling)
    rho_a3 = rho_peak * a3
    rho_astar3 = rho_peak * astar**3
    return {
        "rho_a3": rho_a3,
        "rho_astar3": rho_astar3,
        "dilute_ok": rho_a3 < 1e-2,
        "long_range_ok": rho_astar3 > 1e2,
    }


def peak_density(n_atoms: float, w: float, wavelength: float) -> float:
    """Central density N / (pi^(3/2) (w lam)^3) of the Gaussian cloud (m^-3)."""
    return n_atoms / (math.pi ** 1.5 * (w * wavelength) ** 3)
