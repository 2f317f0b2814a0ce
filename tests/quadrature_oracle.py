"""Panel quadrature of the mean pair energy, kept as an independent oracle.

``lasergrav.variational.pair_energy`` evaluates g(w) = <U lam/u> and its
width derivative in closed form.  This module integrates the same mean
directly over the Maxwell pair-separation density P(s; w) (per-axis variance
w^2), on half-period panels of the kernel oscillation with an embedded
16/32-point Gauss-Legendre pair for error control; the s -> 0 end is regular
because P ~ s^2 cancels the -1/s of the kernel.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from lasergrav.errors import NumericsError
from lasergrav.interaction import kernel_shape

# half-period of the kernel oscillation in units of the wavelength
_PANEL_WIDTH = 0.25
# Gaussian pair-separation weight drops below 1e-22 of its peak at 10 sigma
_RANGE_SIGMAS = 10.0
_GL_LO = leggauss(16)
_GL_HI = leggauss(32)
_QUAD_RTOL = 1e-9


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
