"""Self-binding of Bose condensates under a laser-induced 1/r attraction.

Numerical library and CLI covering the pair potential, the Gaussian
variational ground state and its self-binding threshold, a radial mean-field
PDE cross-check, the regime map with atom-capacity limits, and the loss-rate
budget.
"""

from .constants import (CONSTANTS, PhysicalConstants, intensity_in,
                        intensity_si, polarizability_si, polarizability_volume)
from .errors import (CollapseError, ConvergenceError, LaserGravError,
                     NumericsError, SpeciesFileError, UnboundError)
from .interaction import (InteractionParams, beam_budget, kernel_shape,
                          kernel_slope, oscillation_onset, pair_potential)
from .losses import (LossReport, interference_rate, lifetime_bound,
                     loss_report, plasma_frequency_direct,
                     plasma_frequency_scaled, rabi_frequency, rayleigh_rate,
                     rayleigh_rate_from_coupling, recoil_energy,
                     repulsion_coupling, saturation_at_threshold,
                     saturation_general)
from .regimes import (RegimePoint, atom_capacity, border_atom_number,
                      capacity_band, classify, f_factor, phase_map,
                      trap_relevance)
from .species import (AtomSpecies, DetunedContext, catalog_lookup,
                      catalog_names, load_species_file, parse_species_file)
from .variational import (AnsatzConfig, EnergyBreakdown, VariationalResult,
                          config_at_ratio, critical_intensity_ratio,
                          energy_breakdown, energy_gradient_parts,
                          mfa_validity, minimize_width, peak_density,
                          tf_width, threshold_intensity, total_energy,
                          width_vs_intensity)

__version__ = "0.1.0"

_GPE_NAMES = ("GroundState", "RadialGrid", "hartree_potential", "solve_ground")


def __getattr__(name):
    # the PDE solver is the one layer built on numpy arrays: load it on first
    # use so that the scalar commands start without numpy
    if name in _GPE_NAMES:
        from . import gpe
        return getattr(gpe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
