"""Gaussian-ansatz energy functional and width minimization.

The trial state is an isotropic Gaussian of dimensionless width ``w`` (in
units of the laser wavelength), density N |phi|^2 with per-axis variance
(w lam)^2 / 2.  Per particle the four energy contributions are

    kinetic       3 hbar^2 / (4 m (w lam)^2)        (dropped in the TF limit)
    trap          (3/4) m omega0^2 (w lam)^2
    s-wave        g N / (2 (2 pi)^(3/2) (w lam)^3)
    attraction    (N/2) Int P(s; w) U(s) ds

where P(s; w) is the pair-separation density of two independent draws from
the trial cloud: a Maxwell law with per-axis variance (w lam)^2.  The
attraction integral has an oscillatory integrand beyond r ~ 0.36 lam and is
integrated on half-period panels with an error-estimating Gauss rule; the
s -> 0 end is regular because P ~ s^2 cancels the -u/s of the kernel (the
series branch of the kernel keeps that product accurate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import CONSTANTS
from .errors import NumericsError
from .interaction import InteractionParams, kernel_shape
from .species import AtomSpecies

# half-period of the kernel oscillation in units of the wavelength
_PANEL_WIDTH = 0.25
# Gaussian pair-separation weight drops below 1e-22 of its peak at 10 sigma
_RANGE_SIGMAS = 10.0
_GL_LO = leggauss(16)
_GL_HI = leggauss(32)
_QUAD_RTOL = 1e-9

# The attraction slope g'(w) = d<U lam/u>/dw depends on the kernel alone, so
# it is computed once per process at widths 10^(k/_SCAN_DENSITY), cached by
# (kernel, k); a configuration only adds its closed-form terms.  The scan
# spans _SCAN_DECADES and widens by decades up to the hard _WIDEN_LIMITS.
_SCAN_DENSITY = 20
_SCAN_DECADES = (-2, 2)
_WIDEN_LIMITS = (-6, 3)
_ROOT_RTOL = 1e-12
_ROOT_MAXITER = 100
_SLOPES: dict[tuple[str, int], float] = {}

# S_c: contact coefficient of the TF energy S_c/(r w^3) at I = I0 (r = I/I0,
# units of N u/lam); also the w -> infinity limit, approached from below, of
# the full kernel's h(w) = w^4 g'(w)/6.  The threshold formula states this.
CONTACT_AT_THRESHOLD = 35.0 / (88.0 * math.pi * (2.0 * math.pi) ** 1.5)


@dataclass(frozen=True)
class AnsatzConfig:
    """Inputs of the variational problem.

    ``kernel`` selects the full oscillatory pair potential or its -u/r
    near-zone limit (the latter mainly serves as an analytic oracle);
    ``include_swave`` switches the contact term for the same purpose.
    """

    n_atoms: float
    species: AtomSpecies
    interaction: InteractionParams
    trap_frequency: float = 0.0
    tf_limit: bool = False
    kernel: str = "full"
    include_swave: bool = True

    def __post_init__(self):
        if self.n_atoms < 1.0:
            raise ValueError(f"need at least one atom, got {self.n_atoms}")
        if self.trap_frequency < 0.0:
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

    @classmethod
    def from_parts(cls, kinetic, trap, swave, gravitational):
        return cls(kinetic, trap, swave, gravitational,
                   kinetic + trap + swave + gravitational)


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


def _pair_density(s: np.ndarray, w: float) -> np.ndarray:
    return (4.0 * math.pi * s * s * np.exp(-s * s / (2.0 * w * w))
            / (2.0 * math.pi * w * w) ** 1.5)


def _kernel_values(s: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "near_zone":
        return -1.0 / s
    return kernel_shape(s)


def pair_interaction_integral(w: float, kernel: str = "full",
                              d_dw: bool = False) -> float:
    """Mean dimensionless pair energy <U lam / u> over P(s; w).

    With ``d_dw`` the integrand is differentiated under the integral sign
    (dP/dw = P (s^2/w^3 - 3/w)), giving the width derivative of the mean.
    Panels are refined once where the embedded 16/32-point Gauss pair
    disagrees; persistent disagreement raises :class:`NumericsError`.
    """
    if w <= 0.0:
        raise ValueError(f"width must be positive, got {w}")
    s_max = _RANGE_SIGMAS * w
    edges = np.arange(0.0, s_max, _PANEL_WIDTH)
    edges = np.append(edges, s_max)

    def integrand(s):
        p = _pair_density(s, w)
        if d_dw:
            p = p * (s * s / w**3 - 3.0 / w)
        return p * _kernel_values(s, kernel)

    def panel_pair(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        lo = np.sum(half[:, None] * _GL_LO[1] * integrand(
            (mid[:, None] + half[:, None] * _GL_LO[0]).ravel()).reshape(len(a), -1), axis=1)
        hi = np.sum(half[:, None] * _GL_HI[1] * integrand(
            (mid[:, None] + half[:, None] * _GL_HI[0]).ravel()).reshape(len(a), -1), axis=1)
        return lo, hi

    a, b = edges[:-1], edges[1:]
    lo, hi = panel_pair(a, b)
    err = np.abs(hi - lo)
    scale = max(np.sum(np.abs(hi)), abs(np.sum(hi)), 1e-300)
    bad = err > _QUAD_RTOL * scale / max(len(a), 1)
    if np.any(bad):
        # one refinement round: split offending panels in half
        a2 = np.concatenate([a[bad], 0.5 * (a[bad] + b[bad])])
        b2 = np.concatenate([0.5 * (a[bad] + b[bad]), b[bad]])
        lo2, hi2 = panel_pair(a2, b2)
        if np.sum(np.abs(hi2 - lo2)) > 10.0 * _QUAD_RTOL * scale:
            raise NumericsError(
                f"pair-energy quadrature did not converge at w={w:g} "
                f"(residual {np.sum(np.abs(hi2 - lo2)):.3e})")
        total = float(np.sum(hi[~bad]) + np.sum(hi2))
    else:
        total = float(np.sum(hi))
    if not math.isfinite(total):
        raise NumericsError(f"pair-energy quadrature returned {total} at w={w:g}")
    return total


def energy_breakdown(w: float, cfg: AnsatzConfig) -> EnergyBreakdown:
    """Per-particle energy terms of the Gaussian trial state at width ``w``."""
    if w <= 0.0:
        raise ValueError(f"width must be positive, got {w}")
    lam = cfg.interaction.wavelength
    b = w * lam
    m = cfg.species.mass
    hbar = CONSTANTS.hbar
    kinetic = 0.0 if cfg.tf_limit else 3.0 * hbar**2 / (4.0 * m * b * b)
    trap = 0.75 * m * cfg.trap_frequency**2 * b * b
    swave = 0.0
    if cfg.include_swave:
        swave = (cfg.species.contact_coupling * cfg.n_atoms
                 / (2.0 * (2.0 * math.pi) ** 1.5 * b**3))
    grav = 0.0
    if cfg.interaction.coupling != 0.0:
        grav = 0.5 * tf_energy_unit(cfg) * pair_interaction_integral(w, cfg.kernel)
    return EnergyBreakdown.from_parts(kinetic, trap, swave, grav)


def _closed_coefficients(cfg: AnsatzConfig) -> tuple[float, float, float]:
    """(k, t, s) such that kinetic + trap + s-wave = k/w^2 + t w^2 + s/w^3 (J)."""
    lam = cfg.interaction.wavelength
    m = cfg.species.mass
    k = 0.0 if cfg.tf_limit else 3.0 * CONSTANTS.hbar**2 / (4.0 * m * lam * lam)
    t = 0.75 * m * cfg.trap_frequency**2 * lam * lam
    s = 0.0
    if cfg.include_swave:
        s = (cfg.species.contact_coupling * cfg.n_atoms
             / (2.0 * (2.0 * math.pi) ** 1.5 * lam**3))
    return k, t, s


def _closed_gradient(w, cfg: AnsatzConfig):
    k, t, s = _closed_coefficients(cfg)
    return -2.0 * k / w**3 + 2.0 * t * w - 3.0 * s / w**4


def energy_gradient_parts(w: float, cfg: AnsatzConfig) -> tuple[float, float]:
    """(closed-form dE/dw of kinetic+trap+swave, quadrature dE/dw of the
    attraction term), both per particle in J per unit w."""
    grav = 0.5 * tf_energy_unit(cfg) * pair_interaction_integral(w, cfg.kernel, d_dw=True)
    return float(_closed_gradient(w, cfg)), grav


def total_energy(w: float, cfg: AnsatzConfig) -> float:
    return energy_breakdown(w, cfg).total


def tf_energy_unit(cfg: AnsatzConfig) -> float:
    """Natural per-particle energy scale N u / lam of the TF problem (J)."""
    return cfg.n_atoms * cfg.interaction.coupling / cfg.interaction.wavelength


def slope_scan(kernel: str, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Widths 10^(k/_SCAN_DENSITY) over the decades [10^lo, 10^hi] and the
    attraction slope g'(w) there, each quadrature done once per process."""
    ks = range(lo * _SCAN_DENSITY, hi * _SCAN_DENSITY + 1)
    widths = [10.0 ** (k / _SCAN_DENSITY) for k in ks]
    for k, w in zip(ks, widths):
        if (kernel, k) not in _SLOPES:
            _SLOPES[kernel, k] = pair_interaction_integral(w, kernel, d_dw=True)
    return np.array(widths), np.array([_SLOPES[kernel, k] for k in ks])


def _brent_root(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    Step for step the algorithm of ``scipy.optimize.brentq``, which it
    replaces so that importing the package does not load scipy.optimize:
    ``f(a)`` and ``f(b)`` must differ in sign, an endpoint where ``f`` is
    exactly 0 is returned as given, and the iterate ``b`` is accepted once
    the bracket's half-width is below (xtol + rtol |b|)/2.  Raises
    :class:`NumericsError` without a bracket or after ``_ROOT_MAXITER``
    steps.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericsError(f"f({a:g}) and f({b:g}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best estimate in xcur, the contrapoint in xblk
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NumericsError(f"Brent root in [{a:g}, {b:g}] not converged "
                        f"after {_ROOT_MAXITER} iterations")


def minimize_width(cfg: AnsatzConfig) -> VariationalResult:
    """Locate the lowest finite-width local energy minimum.

    Forms dE/dw on the cached slope scan, refines every - to + sign change
    with Brent's method on :func:`energy_gradient_parts` and returns the
    deepest minimum.  The scan widens by decades, up to hard limits
    (:class:`NumericsError`), while a root can lie beyond it: downward while
    dE/dw > 0 at the bottom and a kinetic or contact term will outgrow the
    attraction; upward while dE/dw < 0 at the top, with a trap or the -u/r
    kernel (its slope falls off only as 1/w^2) always, else only below
    w = 3A/(2k): for the full kernel h(w) < S_c bounds dE/dw < -2k/w^3 +
    3A/w^4 with A = S_c N u/lam - s.  Unbound (NaN width) means no minimum.
    """
    k, t, s = _closed_coefficients(cfg)
    far = CONTACT_AT_THRESHOLD * tf_energy_unit(cfg) - s
    rises = t > 0.0 or (cfg.kernel == "near_zone" and cfg.interaction.coupling > 0.0)
    lo, hi = _SCAN_DECADES
    while True:
        w, slope = slope_scan(cfg.kernel, lo, hi)
        slope = _closed_gradient(w, cfg) + 0.5 * tf_energy_unit(cfg) * slope
        room = rises or (far > 0.0 and (k == 0.0 or w[-1] < 1.5 * far / k))
        down = bool(slope[0] > 0.0 and (k > 0.0 or s > 0.0))
        up = bool(slope[-1] < 0.0 and room)
        if not (down or up):
            break
        lo, hi = lo - down, hi + up
        if lo < _WIDEN_LIMITS[0] or hi > _WIDEN_LIMITS[1]:
            raise NumericsError(f"width minimum outside [1e{_WIDEN_LIMITS[0]}, "
                                f"1e{_WIDEN_LIMITS[1]}] wavelengths")
    roots = [_brent_root(lambda x: sum(energy_gradient_parts(x, cfg)),
                         float(w[i]), float(w[i + 1]),
                         xtol=_ROOT_RTOL * float(w[i]), rtol=_ROOT_RTOL)
             for i in np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] >= 0.0))]
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
    if a <= 0.0:
        raise ValueError(
            f"threshold undefined for non-positive scattering length a={a}")
    return (48.0 * math.pi / 7.0) * CONSTANTS.hbar**2 * CONSTANTS.c \
        * CONSTANTS.eps0**2 * a / (species.mass * alpha**2)


def config_at_ratio(species: AtomSpecies, ratio: float, wavelength: float,
                    n_atoms: float = 1.0, use_detuned: bool = False,
                    trap_frequency: float = 0.0, tf_limit: bool = False,
                    kernel: str = "full") -> AnsatzConfig:
    """AnsatzConfig with total intensity ``ratio`` times the species threshold."""
    intensity = ratio * threshold_intensity(species, use_detuned)
    params = InteractionParams.from_intensity(species, intensity, wavelength,
                                              use_detuned)
    return AnsatzConfig(n_atoms=n_atoms, species=species, interaction=params,
                        trap_frequency=trap_frequency, tf_limit=tf_limit,
                        kernel=kernel)


def width_vs_intensity(cfg: AnsatzConfig, ratios: Sequence[float]) -> list[dict]:
    """Equilibrium width for each intensity ratio I/I0.

    The intensity of ``cfg`` is rescaled per entry (same polarizability
    route); unbound entries are tagged with ``bound=False`` and NaN width.
    """
    if any(r <= 0.0 for r in ratios):
        raise ValueError("intensity ratios must be positive")
    alpha, lam = cfg.interaction.alpha_si, cfg.interaction.wavelength
    i0 = _threshold_at(cfg.species, alpha)
    rows = []
    for ratio in ratios:
        params = InteractionParams.from_alpha(ratio * i0, lam, alpha)
        result = minimize_width(replace(cfg, interaction=params))
        rows.append({"ratio": ratio, "w_star": result.w_star,
                     "r_rms": result.r_rms, "bound": result.bound_local})
    return rows


def critical_intensity_ratio(species: AtomSpecies, wavelength: float,
                             n_atoms: float = 1.0,
                             use_detuned: bool = False) -> float:
    """I_c/I0 above which a TF cloud self-binds, from the shared slope scan.

    Without a trap, dE/dw = 3 (h(w) - S/r) / w^4 in units of N u/lam, with
    h(w) = w^4 g'(w)/6 and S the contact coefficient at I0; a minimum exists
    iff r > S / max h.
    """
    cfg = config_at_ratio(species, 1.0, wavelength, n_atoms, use_detuned,
                          tf_limit=True)
    contact = _closed_coefficients(cfg)[2] / tf_energy_unit(cfg)
    w, slope = slope_scan("full", *_SCAN_DECADES)
    return contact / float(np.max(w**4 * slope / 6.0))


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
