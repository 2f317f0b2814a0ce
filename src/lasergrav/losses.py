"""Loss rates and timescales of the laser-bound cloud: Rayleigh scattering,
the Lamb-Dicke-suppressed lifetime bound, the collective oscillation
("plasma") frequency, multi-beam interference loss, saturation and the
real-photon repulsion."""

from __future__ import annotations

import math

from ._record import Record
from .constants import CONSTANTS
from .errors import UnboundError
from .interaction import InteractionParams
from .regimes import border_atom_number, f_factor
from .species import AtomSpecies
from .variational import peak_density, tf_width, threshold_intensity

# K/u below this counts as a negligible repulsive correction
REPULSION_NEGLIGIBLE = 1e-2


class LossReport(Record):
    """Collected loss/timescale numbers (SI, all non-negative)."""

    gamma_ray: float            # 1/s
    tau_ray_lower_bound: float  # s
    omega_p_direct: float       # rad/s
    omega_p_scaled: float       # rad/s
    gamma_interf: float         # 1/s
    saturation: float
    repulsion: float            # J m
    recoil_energy: float        # J


def rayleigh_rate(intensity: float, species: AtomSpecies, wavelength: float,
                  use_detuned: bool = False) -> float:
    """Single-atom Rayleigh scattering rate I q^3 alpha^2 / (3 h eps0^2 c).

    Algebraically identical to (20 pi / 11) u / (hbar lam) through the
    coupling definition; the test suite pins that identity.
    """
    if not intensity >= 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    alpha = species.alpha_si(use_detuned)
    q = 2.0 * math.pi / wavelength
    return intensity * q**3 * alpha**2 / (
        3.0 * CONSTANTS.h * CONSTANTS.eps0**2 * CONSTANTS.c)


def rayleigh_rate_from_coupling(coupling: float, wavelength: float) -> float:
    """The same rate expressed through the pair-attraction coupling."""
    return (20.0 * math.pi / 11.0) * coupling / (CONSTANTS.hbar * wavelength)


def lifetime_bound(gamma_ray: float, q: float, r_rms: float) -> float:
    """Lower bound on the cloud lifetime, (Gamma (q R_rms)^2)^-1.

    Inelastic scattering off a sample smaller than the wavelength is
    suppressed by (q R_rms)^2, so Rayleigh depletion alone cannot act faster
    than this."""
    if not (gamma_ray > 0.0 and q > 0.0 and r_rms > 0.0):
        raise ValueError("rate, wavevector and radius must all be positive")
    return 1.0 / (gamma_ray * (q * r_rms) ** 2)


def recoil_energy(species: AtomSpecies, wavelength: float) -> float:
    """Photon recoil energy hbar^2 q^2 / (2 m) in J."""
    q = 2.0 * math.pi / wavelength
    return CONSTANTS.hbar**2 * q**2 / (2.0 * species.mass)


def plasma_frequency_direct(coupling: float, rho_peak: float,
                            species: AtomSpecies) -> float:
    """Collective oscillation frequency sqrt(4 pi u rho_peak / m)."""
    if not (coupling >= 0.0 and rho_peak >= 0.0):
        raise ValueError("coupling and density must be non-negative")
    return math.sqrt(4.0 * math.pi * coupling * rho_peak / species.mass)


def plasma_frequency_scaled(n_atoms: float, gamma_ray: float,
                            e_recoil: float, n_border: float) -> float:
    """Plasma frequency via the recoil/scattering-rate form:
    0.25 (hbar Gamma^2 / E_R) N^2 f^(-3/2)."""
    if min(n_atoms, gamma_ray, e_recoil, n_border) <= 0.0:
        raise ValueError("all arguments must be positive")
    f = f_factor(n_atoms, n_border)
    return 0.25 * CONSTANTS.hbar * gamma_ray**2 / e_recoil * n_atoms**2 * f**-1.5


def interference_rate(n_atoms: float, gamma_ray: float, e_recoil: float,
                      omega_triad: float, f: float) -> float:
    """Loss rate from multi-beam interference:
    0.05 (hbar Gamma N / E_R)^4 sqrt(hbar Omega / E_R) Gamma f^-3.

    ``omega_triad`` is the relative detuning between the beams of a triad
    (not a Rabi frequency)."""
    if not omega_triad > 0.0:
        raise ValueError("triad detuning must be positive")
    hbar = CONSTANTS.hbar
    return (0.05 * (hbar * gamma_ray * n_atoms / e_recoil) ** 4
            * math.sqrt(hbar * omega_triad / e_recoil) * gamma_ray / f**3)


def saturation_general(intensity: float, dipole_moment: float,
                       detuning: float) -> float:
    """Saturation parameter s = I d^2 / (eps0 c hbar^2 delta^2)."""
    return intensity * dipole_moment**2 / (
        CONSTANTS.eps0 * CONSTANTS.c * CONSTANTS.hbar**2 * detuning**2)


def rabi_frequency(intensity: float, dipole_moment: float) -> float:
    """d E / hbar with the field amplitude from I = (1/2) c eps0 E^2."""
    field = math.sqrt(2.0 * intensity / (CONSTANTS.c * CONSTANTS.eps0))
    return dipole_moment * field / CONSTANTS.hbar


def saturation_at_threshold(species: AtomSpecies) -> tuple[float, bool]:
    """Saturation at the self-binding threshold, (48 pi/7) a eps0 hbar^2/(m d^2).

    The threshold intensity scales as 1/alpha^2 ~ delta^2 while s scales as
    I/delta^2, so this value is detuning-independent.  Returns (s, ok) where
    ``ok`` records whether the far-detuned premises |delta| >> gamma and
    |delta| >> Rabi frequency hold at threshold; the value is returned
    either way."""
    ctx = species.detuned
    if ctx is None:
        raise ValueError(
            f"species {species.name!r} has no dipole matrix element on record")
    a = species.scattering_length
    if not a > 0.0:
        raise ValueError("saturation at threshold requires a > 0")
    s = (48.0 * math.pi / 7.0) * a * CONSTANTS.eps0 * CONSTANTS.hbar**2 / (
        species.mass * ctx.dipole_moment**2)
    # validity of the far-detuned two-level formula at the threshold intensity
    i0 = threshold_intensity(species, use_detuned=True)
    rabi = rabi_frequency(i0, ctx.dipole_moment)
    ok = ctx.far_detuned() and abs(ctx.detuning) > 10.0 * rabi
    return s, ok


def repulsion_coupling(saturation: float, coupling: float) -> tuple[float, bool]:
    """Real-photon repulsion strength K = s u and whether it is negligible
    (K/u below 1e-2)."""
    if not (saturation >= 0.0 and coupling >= 0.0):
        raise ValueError("saturation and coupling must be non-negative")
    k = saturation * coupling
    negligible = (k / coupling < REPULSION_NEGLIGIBLE) if coupling > 0.0 else True
    return k, negligible


def loss_report(species: AtomSpecies, ratio: float, n_atoms: float,
                wavelength: float, use_detuned: bool = True,
                omega_triad: float | None = None) -> LossReport:
    """Full loss budget at intensity ``ratio`` times the threshold.

    The peak density entering the direct plasma frequency comes from the
    TF-limit variational cloud at ``ratio`` as given; ``omega_triad``
    defaults to the scaled plasma frequency.  Raises :class:`UnboundError`
    when no bound TF cloud exists at ``ratio``."""
    intensity = ratio * threshold_intensity(species, use_detuned)
    gamma_ray = rayleigh_rate(intensity, species, wavelength, use_detuned)
    e_r = recoil_energy(species, wavelength)
    q = 2.0 * math.pi / wavelength

    coupling = InteractionParams.from_intensity(species, intensity, wavelength,
                                                use_detuned).coupling
    if not n_atoms >= 1.0:
        raise ValueError(f"need at least one atom, got {n_atoms}")
    w_star = tf_width(ratio)
    if math.isnan(w_star):
        raise UnboundError(f"no bound TF solution at I/I0 = {ratio}")
    rho_peak = peak_density(n_atoms, w_star, wavelength)

    n_b = border_atom_number(coupling, species)
    f = f_factor(n_atoms, n_b)
    omega_scaled = plasma_frequency_scaled(n_atoms, gamma_ray, e_r, n_b)
    omega_direct = plasma_frequency_direct(coupling, rho_peak, species)
    if omega_triad is None:
        omega_triad = omega_scaled
    gamma_int = interference_rate(n_atoms, gamma_ray, e_r, omega_triad, f)

    if species.detuned is not None:
        saturation, _ = saturation_at_threshold(species)
        saturation *= ratio  # linear in intensity above threshold
    else:
        saturation = 0.0
    repulsion, _ = repulsion_coupling(saturation, coupling)

    return LossReport(
        gamma_ray=gamma_ray,
        tau_ray_lower_bound=lifetime_bound(gamma_ray, q,
                                           math.sqrt(1.5) * w_star * wavelength),
        omega_p_direct=omega_direct,
        omega_p_scaled=omega_scaled,
        gamma_interf=gamma_int,
        saturation=saturation,
        repulsion=repulsion,
        recoil_energy=e_r,
    )
