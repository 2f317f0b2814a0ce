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
from collections import namedtuple
from collections.abc import Sequence

from ._record import Record
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

# Dawson's F(z), z = 2 sqrt(2) pi w: the Taylor series exp(-z^2) Sum z^(2n+1)/(n! (2n+1))
# below W_ASYMPTOTIC (z = 6), terms under 1e-17 of the sum there after 100; above it
# (1/2z) Sum (2n-1)!!/(2z^2)^n, whose terms bottom out at 3e-16 near n = 36 at z = 6.
W_ASYMPTOTIC = 6.0 / (2.0 * math.sqrt(2.0) * math.pi)
_DAWSON_TAYLOR = tuple(1.0 / (math.factorial(n) * (2 * n + 1))
                       for n in range(100))
_DAWSON_ASYMPTOTIC = tuple(float(math.prod(range(1, 2 * n, 2)))
                           for n in range(1, 37))

# widths g, g' and the energy take: a scan finds g and g' on their far and
# near laws (to 1.1e-15, 4.8e-15) and w^4 normal from 1.3e-77 until _tf_deficit's
# z^6 overflows at 2.7e50; hold tf_width's range and every minimum _minima finds
W_MIN, W_MAX = 1e-76, 1e40
# h = w^4 g'/6 <= _H_CAP w^2 (h/w^2 peaks at 0.1539291 at w = 0.0895); -u/r: _H_NEAR w^2
_H_CAP, _H_NEAR = 0.15393, math.sqrt(2.0 / math.pi) / 6.0

# S_c: contact coefficient of the TF energy S_c/(r w^3) at I = I0 (r = I/I0,
# units of N u/lam); also the w -> infinity limit, approached from below, of
# the full kernel's h(w) = w^4 g'(w)/6.  The threshold formula states this.
CONTACT_AT_THRESHOLD = 35.0 / (88.0 * math.pi * (2.0 * math.pi) ** 1.5)

_Reduced = namedtuple("_Reduced", "unit lam c kappa tau b r kernel")


class AnsatzConfig(Record):
    """Inputs of the variational problem.  ``kernel`` selects the full
    oscillatory pair potential or its -u/r near-zone limit (mainly an
    analytic oracle); a zero scattering length switches the contact off."""

    n_atoms: float
    species: AtomSpecies
    interaction: InteractionParams
    trap_frequency: float = 0.0
    tf_limit: bool = False
    kernel: str = "full"

    def _check(self):
        if not self.n_atoms >= 1.0:
            raise ValueError(f"need at least one atom, got {self.n_atoms}")
        if not self.trap_frequency >= 0.0:
            raise ValueError("trap frequency must be non-negative")
        if self.kernel not in ("full", "near_zone"):
            raise ValueError(f"unknown kernel {self.kernel!r}")


class EnergyBreakdown(Record):
    """Per-particle energies (J) of the four contributions and their sum; a
    :class:`~lasergrav.gpe.GroundState` holds the totals for all N atoms."""

    kinetic: float
    trap: float
    swave: float
    gravitational: float
    total: float


class VariationalResult(Record):
    """Equilibrium width and self-binding verdict, read off ``breakdown``.
    ``bound_local``: a finite-w minimum exists (else ``breakdown`` is None and
    ``w_star``, ``r_rms`` NaN).  ``bound_global``: also E < 0, its w -> infinity value
    without a trap; a trap makes that infinite, so then it is no dissociation test."""

    w_star: float
    r_rms: float
    breakdown: EnergyBreakdown | None
    bound_local = property(lambda self: self.breakdown is not None)
    bound_global = property(lambda self: self.bound_local and self.breakdown.total < 0.0)


def _g_series(w: float, d_dw: bool) -> float:
    w2 = w * w
    if d_dw:
        return _horner(w2, _G_PRIME_SERIES) / w2
    return _horner(w2, _G_SERIES) / w


def _g_dawson(w: float, d_dw: bool) -> float:
    if w >= W_ASYMPTOTIC:
        d, q = _tf_deficit(w)
        return 6.0 * CONTACT_AT_THRESHOLD * (1.0 - q) / w**4 if d_dw \
            else 2.0 * (d - CONTACT_AT_THRESHOLD / w**3)
    z = 2.0 * math.sqrt(2.0) * math.pi * w
    z2 = z * z
    f = z * math.exp(-z2) * _horner(z2, _DAWSON_TAYLOR)
    if d_dw:
        return (-(120.0 * math.sqrt(2.0) * math.pi ** 1.5 / 11.0)
                * (z * (z2 * z2 + 2.0 * z2 + 4.0) * (1.0 - 2.0 * z * f)
                   - 2.0 * (z2 * z2 + 4.0 * z2 + 12.0) * f
                   - 2.0 * z2 * z + 20.0 * z) / (z2 * z2 * z2 * z))
    return (-(20.0 * math.sqrt(math.pi) / 11.0)
            * (3.0 * (z2 * z2 + 2.0 * z2 + 4.0) * f + 2.0 * z2 * z - 12.0 * z)
            / (z2 * z2 * z2))


def _tf_deficit(w: float) -> tuple[float, float]:
    """D = g/2 + S_c/w^3 and q = (S_c - h)/S_c, h = w^4 g'/6, at w >= W_ASYMPTOTIC,
    their cancelling terms dropped from the asymptotic F = (1 + x A(x))/(2z)."""
    x = 1.0 / (16.0 * (math.pi * w) ** 2)
    tail = _horner(x, _DAWSON_ASYMPTOTIC[1:])  # A(x) = 1 + x tail
    a, z = 1.0 + x * tail, 2.0 * math.sqrt(2.0) * math.pi * w
    d = (-(10.0 * math.sqrt(math.pi) / 11.0)
         * (-9.0 * z + 6.0 / z + 0.75 * a * (z + 2.0 / z + 4.0 / z**3)) / z**6)
    return d, x / 3.5 * (32.0 - 48.0 * x - tail / 2 - (3.0 + 16.0 * x + 48.0 * x * x) * a)


def pair_energy(w: float, kernel: str = "full", d_dw: bool = False) -> float:
    """Mean dimensionless pair energy g(w) = <U lam/u> over P(s; w), or with
    ``d_dw`` its width derivative g'(w), in closed form (module docstring),
    at one width in [W_MIN, W_MAX]; the -u/r kernel gives -sqrt(2/pi)/w."""
    if not W_MIN <= w <= W_MAX:
        raise ValueError(f"width must lie in [{W_MIN:g}, {W_MAX:g}], got {w}")
    if kernel == "near_zone":
        return math.sqrt(2.0 / math.pi) / (w * w if d_dw else -w)
    if kernel != "full":
        raise ValueError(f"unknown kernel {kernel!r}")
    return _g_series(w, d_dw) if w < W_SWITCH else _g_dawson(w, d_dw)


def energy_breakdown(w: float, cfg: AnsatzConfig) -> EnergyBreakdown:
    """Per-particle energy terms of the Gaussian trial state at width ``w``."""
    return _breakdown(w, _reduced(cfg))


def _breakdown(w: float, p: _Reduced) -> EnergyBreakdown:
    if not W_MIN <= w <= W_MAX:
        raise ValueError(f"width must lie in [{W_MIN:g}, {W_MAX:g}], got {w}")
    u = p.unit
    kinetic, trap, swave = u * p.kappa / w**2, u * p.tau * w**2, u * p.b / w**3
    grav = 0.5 * u * p.c * pair_energy(w, p.kernel) if p.c else 0.0
    total = kinetic + trap + swave + grav
    if _tf_law(p) and w >= W_ASYMPTOTIC:  # swave + grav cancel near threshold
        total = kinetic + trap + u * _tf_energies(w, [p.r])[0]
    return EnergyBreakdown(kinetic, trap, swave, grav, total)


def _tf_law(p: _Reduced) -> bool:
    """Whether E is S_c/(r w^3) + g/2 plus kinetic and trap: full kernel, c > 0, b > 0."""
    return p.kernel == "full" and p.b > 0.0 and p.c > 0.0


def _reduced(cfg: AnsatzConfig) -> _Reduced:
    """The one map from SI: E per particle = unit (kappa/w^2 + tau w^2 + b/w^3 +
    c g/2), kappa = 0 where tf_limit; unit = N u/lam (c = 1, b = S_c/r to rounding)
    or, without coupling, 3 hbar^2/(4 m lam^2) (c = 0); r = I/I0 where a > 0, else NaN."""
    i, lam, m = cfg.interaction, cfg.interaction.wavelength, cfg.species.mass
    k, e = 3.0 * CONSTANTS.hbar**2 / (4.0 * m * lam * lam), tf_energy_unit(cfg)
    unit, kappa = e or k, 0.0 if cfg.tf_limit else k
    t = 0.75 * m * cfg.trap_frequency**2 * lam * lam
    s = cfg.species.contact_coupling * cfg.n_atoms / (2.0 * (2.0 * math.pi) ** 1.5 * lam**3)
    r = i.intensity / _threshold_at(cfg.species, i.alpha_si) if s > 0.0 else math.nan
    return _Reduced(unit, lam, *(x / unit for x in (e, kappa, t, s)), r, cfg.kernel)


def energy_gradient_parts(w: float, cfg: AnsatzConfig) -> tuple[float, float]:
    """(dE/dw of kinetic+trap+swave, dE/dw of the attraction term), both
    closed form and per particle in J per unit w."""
    p = _reduced(cfg)
    parts = _breakdown(w, p)
    grav = 0.5 * p.unit * p.c * pair_energy(w, p.kernel, d_dw=True)
    return (2.0 * (parts.trap - parts.kinetic) - 3.0 * parts.swave) / w, grav


def total_energy(w: float, cfg: AnsatzConfig) -> float:
    return energy_breakdown(w, cfg).total


def tf_energy_unit(cfg: AnsatzConfig) -> float:
    """Natural per-particle energy scale N u / lam of the TF problem (J)."""
    return cfg.n_atoms * cfg.interaction.coupling / cfg.interaction.wavelength


def tf_width(ratio: float) -> float:
    """Width w* of the trap-free TF cloud at I/I0 = ``ratio`` for any species,
    wavelength and N: the one root of the rising h(w) = S_c/r.  NaN (no
    minimum) for 0 <= r <= 1, ``ValueError`` for r < 0 or NaN and
    :class:`NumericsError` past r = 1e150.  Above W_ASYMPTOTIC it solves (r - 1)/r
    = q (:func:`_tf_deficit`), so that the root keeps its digits as r -> 1."""
    if not ratio >= 0.0:
        raise ValueError("intensity ratios must be non-negative")
    if ratio > 1e150:
        raise NumericsError(f"I/I0 = {ratio:g} puts w* below 1e-75 wavelengths")
    if not ratio > 1.0:
        return math.nan
    # w* is within 12% of the larger root of h's two asymptotes
    guess = max(0.2459 / math.sqrt(ratio), 0.22306 / math.sqrt(ratio - 1.0))
    return _brent_root(lambda w: _tf_slope(w, ratio), 0.8 * guess, 1.25 * guess,
                       1e-15 * guess, 1e-15)


def _tf_slope(w: float, ratio: float) -> float:  # h(w) - S_c/r
    if w < W_ASYMPTOTIC:
        return w**4 * pair_energy(w, d_dw=True) / 6.0 - CONTACT_AT_THRESHOLD / ratio
    return CONTACT_AT_THRESHOLD * ((ratio - 1.0) / ratio - _tf_deficit(w)[1])


def _tf_energies(w: float, ratios: Sequence[float]) -> list[float]:
    """TF energy per particle S_c/(r w^3) + g(w)/2, in units of N u/lam, at
    width ``w`` for each r = I/I0 in ``ratios``.  The two terms cancel to O(w^-5)
    at r = 1, so above W_ASYMPTOTIC it sums S_c (1 - r)/(r w^3) + D (:func:`_tf_deficit`)."""
    if w < W_ASYMPTOTIC:
        half_g = pair_energy(w) / 2
        return [CONTACT_AT_THRESHOLD / (r * w**3) + half_g for r in ratios]
    contact, d = CONTACT_AT_THRESHOLD / w**3, _tf_deficit(w)[0]  # r w^3 overflows at huge r
    return [contact * (1.0 - r) / r + d for r in ratios]


def minimize_width(cfg: AnsatzConfig) -> VariationalResult:
    """Locate the deepest of the finite-width local energy minima that
    :func:`_minima` finds at any width; unbound (NaN width) means none."""
    return _minimum(_reduced(cfg))


def _minimum(p: _Reduced) -> VariationalResult:
    roots = _minima(p)
    if not roots:
        return VariationalResult(math.nan, math.nan, None)
    best, w_star = min(((_breakdown(x, p), x) for x in roots),
                       key=lambda pair: pair[0].total)
    return VariationalResult(w_star, math.sqrt(1.5) * w_star * p.lam, best)


def _minima(p: _Reduced) -> list[float]:
    """Every finite-width minimum, ascending (trap-free TF: :func:`tf_width`):
    the - to + sign changes of sigma = dE/dw w^4/(3 unit) = c h - b - (2/3)
    kappa w + (2/3) tau w^5 (:func:`_reduced`), at 20 widths per decade
    between ends past which sigma keeps one sign, refined by Brent's method:
    below, < 0 (b >= 0: h <= _H_CAP w^2) or > 0 (w < 3|b|/(2 kappa)); above,
    > 0 (a trap or the -u/r h) or < 0 (past 3 (S_c - b)/(2 kappa): h < S_c)."""
    c, kappa, tau, b, full = p.c, p.kappa, p.tau, p.b, p.kernel == "full"
    exact, gap = _tf_law(p), CONTACT_AT_THRESHOLD - b
    if exact and kappa == tau == 0.0:
        return [w for w in (tf_width(p.r),) if not math.isnan(w)]
    if c == tau == 0.0 or not (kappa > 0.0 or b > 0.0):
        return []  # nothing holds the cloud, or sigma > 0 collapses it
    if exact:  # h - b from _tf_slope, which keeps the digits of r - 1
        b, gap = CONTACT_AT_THRESHOLD / p.r, CONTACT_AT_THRESHOLD * (p.r - 1.0) / p.r

    def sigma(w):
        hb = _tf_slope(w, p.r) if exact else c * w**4 * pair_energy(w, p.kernel, True) / 6 - b
        return hb + 2.0 * (tau * w**5 - kappa * w) / 3.0
    neg, trap = ((max(b, 0.0), 0), (2.0 * kappa / 3.0, 1)), (2.0 * tau / 3.0, 5)
    lo = _span_end(((c * _H_CAP, 2), trap), neg, False) if b >= 0.0 else 1.5 * -b / kappa
    rises = tau > 0.0 or not full
    hi = _span_end(((0.0 if full else c * _H_NEAR, 2), trap), neg, True) if rises \
        else 1.5 * gap / kappa
    lo, hi = min(max(lo, W_MIN), W_MAX), max(min(hi, W_MAX), W_MIN)
    n = max(0, math.ceil(20.0 * math.log10(hi / lo)))  # 0: ends overlap, no root
    w = [lo * (hi / lo) ** (i / n) for i in range(n)] + [hi]
    y = [sigma(x) for x in w]
    if (b >= 0.0 and y[0] > 0.0) or (rises and y[-1] < 0.0):
        raise NumericsError(f"a width minimum lies past [{W_MIN:g}, {W_MAX:g}] wavelengths")
    return [_brent_root(sigma, w[i], w[i + 1], xtol=1e-12 * w[i], rtol=1e-12)
            for i in range(n) if y[i] < 0.0 <= y[i + 1]]


def _span_end(pos, neg, upper: bool) -> float:
    """Width above which Sum a w^p (``pos``) - Sum c w^q (``neg``), every p
    above every q, stays positive (``upper``: one a w^p tops each c w^q
    thrice) or below which it stays negative (each under a third of one)."""
    ends = [[(3.0 * c / a if upper else c / a / 3.0) ** (1.0 / (p - q))
             for c, q in neg if c > 0.0] for a, p in pos if a > 0.0]
    if upper:
        return min((max(row, default=0.0) for row in ends), default=math.inf)
    return max(map(min, zip(*ends)), default=0.0)


def threshold_intensity(species: AtomSpecies, use_detuned: bool = False) -> float:
    """Total intensity (W/m^2) above which the TF cloud self-binds:
    (48 pi / 7) hbar^2 c eps0^2 a / (m alpha^2)."""
    return _threshold_at(species, species.alpha_si(use_detuned))


def _threshold_at(species: AtomSpecies, alpha: float) -> float:
    a = species.scattering_length
    if not a > 0.0:
        raise ValueError(f"threshold undefined for non-positive scattering length a={a}")
    return (48.0 * math.pi / 7.0) * CONSTANTS.hbar**2 * CONSTANTS.c \
        * CONSTANTS.eps0**2 * a / (species.mass * alpha**2)


def config_at_ratio(species: AtomSpecies, ratio: float, wavelength: float,
                    n_atoms: float = 1.0, use_detuned: bool = False,
                    trap_frequency: float = 0.0, tf_limit: bool = False) -> AnsatzConfig:
    """AnsatzConfig with total intensity ``ratio`` times the species threshold."""
    intensity = ratio * threshold_intensity(species, use_detuned)
    params = InteractionParams.from_intensity(species, intensity, wavelength, use_detuned)
    return AnsatzConfig(n_atoms=n_atoms, species=species, interaction=params,
                        trap_frequency=trap_frequency, tf_limit=tf_limit)


def width_vs_intensity(cfg: AnsatzConfig,
                       ratios: Sequence[float]) -> list[VariationalResult]:
    """:func:`minimize_width` at each I/I0 in ``ratios`` (trap-free TF: its
    :func:`tf_width` as given), changing only the intensity of ``cfg``.
    A negative or NaN ratio raises ``ValueError``; I/I0 = 0 reads unbound."""
    if any(not r >= 0.0 for r in ratios):
        raise ValueError("intensity ratios must be non-negative")
    i0 = _threshold_at(cfg.species, cfg.interaction.alpha_si)
    return [_minimum(_reduced(cfg.replace(interaction=cfg.interaction.replace(
        intensity=r * i0)))._replace(r=r)) for r in ratios]


def critical_intensity_ratio(species: AtomSpecies, wavelength: float,
                             n_atoms: float = 1.0,
                             use_detuned: bool = False) -> float:
    """I_c/I0 = S/S_c above which a TF cloud self-binds: 1 to rounding.
    Without a trap dE/dw = 3 (h(w) - S/r)/w^4 in units of N u/lam, with h =
    w^4 g'/6 rising to S_c and S the contact coefficient at I0, which the
    threshold formula makes S_c; :func:`tf_width` takes it as exact.  An SI
    check: S comes from ``contact_coupling`` and ``coupling``, not :func:`_reduced`."""
    cfg = config_at_ratio(species, 1.0, wavelength, n_atoms, use_detuned)
    s = species.contact_coupling * cfg.n_atoms / (2.0 * (2.0 * math.pi) ** 1.5 * wavelength**3)
    return s / tf_energy_unit(cfg) / CONTACT_AT_THRESHOLD


def mfa_validity(rho_peak: float, species: AtomSpecies, coupling: float) -> dict:
    """Both mean-field validity numbers at peak density: ``rho_a3`` (= rho
    a^3) must be small for the contact interaction, ``rho_astar3`` (= rho
    (h^2/(m u))^3) large for the long-range attraction, with cutoffs 1e-2
    and 1e2 for the flags."""
    rho_a3 = rho_peak * species.scattering_length**3
    rho_astar3 = rho_peak * (CONSTANTS.h**2 / (species.mass * coupling))**3
    return {"rho_a3": rho_a3, "rho_astar3": rho_astar3,
            "dilute_ok": rho_a3 < 1e-2, "long_range_ok": rho_astar3 > 1e2}


def peak_density(n_atoms: float, w: float, wavelength: float) -> float:
    """Central density N / (pi^(3/2) (w lam)^3) of the Gaussian cloud (m^-3)."""
    return n_atoms / (math.pi ** 1.5 * (w * wavelength) ** 3)
