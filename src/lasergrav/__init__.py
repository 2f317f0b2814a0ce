"""Self-binding of Bose condensates under a laser-induced 1/r attraction.

Numerical library and CLI covering the pair potential, the Gaussian
variational ground state and its self-binding threshold, a radial mean-field
PDE cross-check, the regime map with atom-capacity limits, and the loss-rate
budget.
"""

import importlib

__version__ = "0.1.0"

# public name -> home module, imported on first access (PEP 562): a process
# loads only the modules it uses, and only the PDE solver (gpe) loads numpy
_HOMES = {name: module for module, names in {
    "constants": ("CONSTANTS", "PhysicalConstants", "intensity_in", "intensity_si",
                  "polarizability_si", "polarizability_volume"),
    "errors": ("CollapseError", "ConvergenceError", "LaserGravError", "NumericsError",
               "SpeciesFileError", "UnboundError"),
    "interaction": ("InteractionParams", "beam_budget", "kernel_shape", "kernel_slope",
                    "oscillation_onset", "pair_potential"),
    "losses": ("LossReport", "interference_rate", "lifetime_bound", "loss_report",
               "plasma_frequency_direct", "plasma_frequency_scaled", "rabi_frequency",
               "rayleigh_rate", "rayleigh_rate_from_coupling", "recoil_energy",
               "repulsion_coupling", "saturation_at_threshold", "saturation_general"),
    "regimes": ("RegimePoint", "atom_capacity", "border_atom_number", "capacity_band",
                "classify", "f_factor", "phase_map", "trap_relevance"),
    "species": ("AtomSpecies", "DetunedContext", "catalog_lookup", "catalog_names",
                "load_species_file", "parse_species_file"),
    "variational": ("AnsatzConfig", "EnergyBreakdown", "VariationalResult",
                    "config_at_ratio", "critical_intensity_ratio", "energy_breakdown",
                    "energy_gradient_parts", "mfa_validity", "minimize_width",
                    "peak_density", "tf_width", "threshold_intensity", "total_energy",
                    "width_vs_intensity"),
    "gpe": ("GroundState", "RadialGrid", "hartree_potential", "solve_ground"),
}.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _HOMES.values():  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
