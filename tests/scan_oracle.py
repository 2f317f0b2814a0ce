"""Dense-scan oracle for the Gaussian width minima.

Samples dE/dw in joules, from ``energy_gradient_parts``, at 400 widths per
decade over [1e-60, 1e35] wavelengths and refines every - to + sign change
with scipy's ``brentq``.  It shares neither the scan ends, the grid nor the
slope's form with ``variational._minima``, which works on the universal
slope between computed ends at 20 widths per decade.
"""

from scipy.optimize import brentq

from lasergrav.variational import energy_gradient_parts

_WIDTHS = [10.0 ** (k / 400) for k in range(-24000, 14001)]


def scanned_minima(cfg):
    """Every width minimum of ``cfg`` that the scan sees, ascending, each
    with its bracket: a list of (w, lo, hi)."""
    def slope(w):
        return sum(energy_gradient_parts(w, cfg))
    values = [slope(w) for w in _WIDTHS]
    return [(brentq(slope, lo, hi, xtol=1e-300, rtol=1e-14), lo, hi)
            for lo, hi, a, b in zip(_WIDTHS, _WIDTHS[1:], values, values[1:])
            if a < 0.0 <= b]
