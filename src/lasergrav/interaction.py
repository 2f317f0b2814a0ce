"""Rotationally averaged laser-induced pair potential and its coupling.

The potential between two atoms a distance ``r`` apart, driven by isotropic
triads of beams of total intensity ``I`` and wavelength ``lam``, is

    U(r) = -(15 pi u / 11 lam) * f(x),   x = 2 pi r / lam,

    f(x) = sin(2x)/x^2 + 2 cos(2x)/x^3 - 5 sin(2x)/x^4
           - 6 cos(2x)/x^5 + 3 sin(2x)/x^6,

with coupling ``u = (11 pi / 15) I alpha^2 / (c eps0^2 lam^2)``.  The five
terms of ``f`` individually blow up as x -> 0 while their sum behaves as
(22/15)/x, so U(r) -> -u/r in the near zone; direct evaluation there loses
roughly x^-4 relative digits to cancellation.  Below ``X_SWITCH`` we therefore
evaluate a precomputed power series instead of the closed form.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .constants import CONSTANTS
from .errors import NumericsError
from .species import AtomSpecies

# x = 2*pi*r/lam below which the series branch is used: the 12 terms hold
# rounding accuracy up to x = 1, where the closed form still cancels digits
X_SWITCH = 1.0
SERIES_TERMS = 12
_ROOT_MAXITER = 100


def _series_coefficients(n_terms: int) -> tuple[float, ...]:
    # sin/cos Taylor coefficients of f collected per power of x; the x^-5 and
    # x^-3 orders cancel identically, leaving odd powers from x^-1 upward
    def a(j):  # sin(2x) = sum a_j x^(2j+1)
        return (-1) ** j * 2.0 ** (2 * j + 1) / math.factorial(2 * j + 1)

    def b(j):  # cos(2x) = sum b_j x^(2j)
        return (-1) ** j * 2.0 ** (2 * j) / math.factorial(2 * j)

    return tuple(
        a(n) + 2 * b(n + 1) - 5 * a(n + 1) - 6 * b(n + 2) + 3 * a(n + 2)
        for n in range(n_terms)
    )


# leading coefficient is 22/15; the full prefactor then reduces to -u/r
_F_COEFFS = _series_coefficients(SERIES_TERMS)
_FPRIME_COEFFS = tuple((2 * n - 1) * c for n, c in enumerate(_F_COEFFS))[1:]


def _f_direct(x, sin, cos):
    s, c = sin(2.0 * x), cos(2.0 * x)
    x2 = x * x
    x3 = x2 * x
    return (s / x2 + 2.0 * c / x3 - 5.0 * s / (x2 * x2)
            - 6.0 * c / (x2 * x3) + 3.0 * s / (x3 * x3))


def _horner(x, coeffs: tuple[float, ...]):
    """Sum coeffs[n] x^n, in the order of numpy's ``polyval``."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _f_series(x):
    # Horner in x^2 on the coefficients of x^1, x^3, ... then add the 1/x term
    return _F_COEFFS[0] / x + _horner(x * x, _F_COEFFS[1:]) * x


def _fprime_direct(x, sin, cos):
    s, c = sin(2.0 * x), cos(2.0 * x)
    x2 = x * x
    x3 = x2 * x
    return (2.0 * c / x2 - 6.0 * s / x3 - 16.0 * c / (x2 * x2)
            + 32.0 * s / (x2 * x3) + 36.0 * c / (x3 * x3)
            - 18.0 * s / (x3 * x3 * x))


def _fprime_series(x):
    x2 = x * x
    return -_F_COEFFS[0] / x2 + _horner(x2, _FPRIME_COEFFS)


def _kernel_branches(r_tilde, series, direct, scale):
    if isinstance(r_tilde, (int, float)):  # math's sin/cos: no numpy
        if not r_tilde > 0.0:
            raise ValueError("separation must be positive")
        x = 2.0 * math.pi * float(r_tilde)
        return (series(x) if x < X_SWITCH else direct(x, math.sin, math.cos)) * scale
    import numpy as np
    x = 2.0 * math.pi * np.asarray(r_tilde, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("separation must be positive")
    out = np.empty_like(x)
    lo = x < X_SWITCH
    out[lo] = series(x[lo])
    out[~lo] = direct(x[~lo], np.sin, np.cos)
    return out * scale


def kernel_shape(r_tilde):
    """Pair potential in units of u/lam as a function of r/lam.

    Uses the series branch below ``X_SWITCH`` (in x = 2 pi r/lam) and the
    closed form above it.  Tends to -1/r_tilde as r_tilde -> 0 at the exact
    rate of the closed form's series,
    -1/r_tilde * (1 - (46/77) (2 pi r_tilde)^2 + O(r_tilde^4)).
    """
    return _kernel_branches(r_tilde, _f_series, _f_direct,
                            -(15.0 * math.pi / 11.0))


def kernel_slope(r_tilde):
    """d/d(r/lam) of :func:`kernel_shape`; positive slope means the pair
    force is still attractive."""
    return _kernel_branches(r_tilde, _fprime_series, _fprime_direct,
                            -(15.0 * math.pi / 11.0) * 2.0 * math.pi)


def _brent_root(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    Step for step the algorithm of SciPy's ``brentq``, which it replaces
    so that the package needs no scipy:
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


class InteractionParams(Record):
    """Total beam intensity, wavelength and SI polarizability; ``coupling``
    is computed from them, so a copy with a new intensity has its own."""

    intensity: float
    wavelength: float
    alpha_si: float

    def _check(self):
        if not self.intensity >= 0.0:
            raise ValueError(f"intensity must be non-negative, got {self.intensity}")
        if not self.wavelength > 0.0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def coupling(self) -> float:
        """u = (11 pi/15) I alpha^2 / (c eps0^2 lam^2) in J m; linear in I."""
        return (11.0 * math.pi / 15.0) * self.intensity * self.alpha_si**2 / (
            CONSTANTS.c * CONSTANTS.eps0**2 * self.wavelength**2)

    @classmethod
    def from_intensity(cls, species: AtomSpecies, intensity: float,
                       wavelength: float, use_detuned: bool = False) -> "InteractionParams":
        return cls(intensity, wavelength, species.alpha_si(use_detuned))


def pair_potential(r_tilde, coupling: float, wavelength: float):
    """U(r) in joules at separation r = r_tilde * wavelength."""
    return kernel_shape(r_tilde) * (coupling / wavelength)


def oscillation_onset(tol: float = 1e-6) -> float:
    """Smallest r/lam where the pair interaction turns repulsive.

    Inside this radius the force is everywhere attractive (the potential
    climbs monotonically out of its -u/r well, through its first zero);
    beyond it the force alternates sign with the potential oscillation.  The
    location is the first stationary point of the potential, the one sign
    change of the slope on [0.05, 0.5], found by Brent's method to ``tol``.
    The coupling only scales the potential, so the result is a pure number
    near 0.35.
    """
    return _brent_root(kernel_slope, 0.05, 0.5, xtol=tol,
                       rtol=4.0 * sys.float_info.epsilon)


def beam_budget(intensity_total: float, geometry: str) -> list[float]:
    """Per-beam intensities for the standard beam arrangements.

    ``triad``: three beams at I/3.  ``six_triads``: 12 beams at I/15 plus 6
    at I/30.  The returned list sums to the total exactly.
    """
    if not intensity_total >= 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity_total}")
    if geometry == "triad":
        beams = [intensity_total / 3.0] * 3
    elif geometry == "six_triads":
        beams = [intensity_total / 15.0] * 12 + [intensity_total / 30.0] * 6
    else:
        raise ValueError(f"unknown geometry {geometry!r}; expected 'triad' or 'six_triads'")
    # absorb the last rounding ulp so the list sums back to the total exactly
    beams[-1] = intensity_total - math.fsum(beams[:-1])
    return beams
