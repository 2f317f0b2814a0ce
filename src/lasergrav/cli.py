"""Command-line front end: reproducible figure/table datasets and reports.

Every subcommand is deterministic for fixed arguments, CSV cells are written
in scientific notation with 12 significant digits and JSON keys keep a fixed
order, so repeated runs produce byte-identical files.  Exit codes: 0 success,
1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

from . import losses, regimes, variational
from .constants import intensity_in, intensity_si
from .errors import LaserGravError, NumericsError, UnboundError
from .interaction import InteractionParams, kernel_shape
from .species import catalog_lookup, catalog_names, load_species_file

SPECIES_FILE_ENV = "LASERGRAV_SPECIES_FILE"

_FLOAT_FORMAT = "{:.12e}"
_NO_LIGHT = "intensity must be non-zero: without light nothing binds"

PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Minimal plotting companion: point it at a CSV produced by the lasergrav CLI.
import csv, sys
import matplotlib.pyplot as plt

path = sys.argv[1]
with open(path) as fh:
    rows = list(csv.DictReader(fh))
cols = rows[0].keys()
xcol = next(iter(cols))
for ycol in list(cols)[1:]:
    try:
        xs = [float(r[xcol]) for r in rows]
        ys = [float(r[ycol]) for r in rows]
    except ValueError:
        continue
    plt.plot(xs, ys, label=ycol)
plt.xlabel(xcol)
plt.legend()
plt.show()
"""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FORMAT.format(value)
    return str(value)


def emit_csv(rows: list[dict], path: str | None):
    """Write dict rows as CSV under the first row's keys; every command
    yields at least one row."""
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    _write("\n".join(lines) + "\n", path)


def emit_json(obj, path: str | None):
    _write(json.dumps(obj, indent=2) + "\n", path)


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _get_species(args):
    path = args.species_file or os.environ.get(SPECIES_FILE_ENV)
    if path:
        table = load_species_file(path)
        if args.species in table:
            return table[args.species]
    return catalog_lookup(args.species)


def _resolve_wavelength(args, species) -> float:
    if args.wavelength is not None:
        return args.wavelength
    return species.laser_wavelength(args.detuned)


def _resolve_intensity(args, species) -> tuple[float, float]:
    """(intensity W/m^2, ratio I/I0) from --ratio or --intensity/--unit."""
    if args.ratio is None and args.intensity is None:
        raise ValueError("exactly one of --ratio or --intensity is required")
    if args.ratio == 0.0 or args.intensity == 0.0:
        raise ValueError(_NO_LIGHT)
    i0 = variational.threshold_intensity(species, use_detuned=args.detuned)
    if args.ratio is not None:
        return args.ratio * i0, args.ratio
    value = intensity_si(args.intensity, args.unit)
    return value, value / i0


def _parse_ratio_spec(text: str) -> list[float]:
    """Either comma-separated values or start:stop:step (inclusive stop)."""
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if not step > 0.0:
            raise ValueError("ratio step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"ratio range {text!r} holds no value")
        return [start + i * step for i in range(count)]
    return [float(p) for p in text.split(",")]


def _positive_int(text: str) -> int:
    """argparse type for sample counts: an empty sweep is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_species_options(p):
    p.add_argument("--species", default="Na",
                   help=f"species name (catalog: {', '.join(catalog_names())})")
    p.add_argument("--species-file",
                   help=f"key=value species file (or ${SPECIES_FILE_ENV})")
    # plain flags on one dest so a later flag overrides an earlier one
    # (needed for config-file preloading)
    p.add_argument("--detuned", action="store_true", default=True,
                   help="use the near-resonant polarizability (default)")
    p.add_argument("--static", dest="detuned", action="store_false",
                   help="use the static polarizability")


def _add_common(p):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for any stochastic auxiliary (outputs are "
                        "deterministic either way)")
    p.add_argument("--plot-script", default=None,
                   help="also write a small matplotlib companion script here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lasergrav",
        description="Self-bound condensates under laser-induced 1/r attraction: "
                    "datasets and reports")
    parser.add_argument("--config", default=None,
                        help="key=value file preloading any long option; "
                             "explicit flags win")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # every subcommand shows its defaults in --help
    add_parser = functools.partial(
        subparsers.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = add_parser("catalog", help="dump species data")
    p.add_argument("--species", default=None, help="single species (default: all)")
    p.add_argument("--species-file")
    _add_common(p)

    p = add_parser("potential", help="pair potential samples (CSV)")
    p.add_argument("--rmin", type=float, default=1e-3)
    p.add_argument("--rmax", type=float, default=3.0)
    p.add_argument("--samples", type=_positive_int, default=600)
    p.add_argument("--linear", action="store_true",
                   help="linear instead of log spacing in r/lam")
    _add_common(p)

    p = add_parser("threshold", help="self-binding threshold intensity (JSON)")
    _add_species_options(p)
    _add_common(p)

    p = add_parser("fig1a", help="TF energy curves E/N vs width (CSV)")
    _add_species_options(p)
    p.add_argument("--ratios", default="0.5,0.8,1.0,1.2,1.5,2.0",
                   help="comma list or start:stop:step of I/I0")
    p.add_argument("--wmin", type=float, default=0.05,
                   help="smallest trial width w")
    p.add_argument("--wmax", type=float, default=2.0,
                   help="largest trial width w")
    p.add_argument("--samples", type=_positive_int, default=200,
                   help="number of width samples")
    p.add_argument("--wavelength", type=float, default=None,
                   help="laser wavelength in m (default: transition wavelength)")
    _add_common(p)

    p = add_parser("fig1b", help="equilibrium width vs I/I0 (CSV)")
    _add_species_options(p)
    p.add_argument("--ratios", default="1.1:5:0.1",
                   help="comma list or start:stop:step of I/I0")
    p.add_argument("--wavelength", type=float, default=None,
                   help="laser wavelength in m (default: transition wavelength)")
    _add_common(p)
    # the width-sweep of one trap-free TF atom, cut to three columns
    p.set_defaults(atoms=1.0, trap=0.0, tf_limit=True)

    p = add_parser("width-sweep", help="full variational sweep (CSV)")
    _add_species_options(p)
    p.add_argument("--ratios", default="1.1:5:0.1",
                   help="comma list or start:stop:step of I/I0")
    p.add_argument("--wavelength", type=float, default=None,
                   help="laser wavelength in m (default: transition wavelength)")
    p.add_argument("--atoms", type=float, default=1e4,
                   help="atom number N")
    p.add_argument("--trap", type=float, default=0.0,
                   help="trap angular frequency omega0 (rad/s)")
    p.add_argument("--no-tf", dest="tf_limit", action="store_false",
                   help="retain the kinetic term")
    _add_common(p)

    p = add_parser("phase-map", help="regime label grid (CSV)")
    _add_species_options(p)
    p.add_argument("--nx", type=int, default=51)
    p.add_argument("--ny", type=int, default=41)
    _add_common(p)

    p = add_parser("fig2", help="atom capacity band vs wavelength (CSV)")
    _add_species_options(p)
    p.add_argument("--ratio", type=float, default=1.5)
    p.add_argument("--rho-low", type=float, default=1e21,
                   help="lower peak density (m^-3)")
    p.add_argument("--rho-high", type=float, default=1e22,
                   help="upper peak density (m^-3)")
    p.add_argument("--lambda-min", type=float, default=0.4e-6)
    p.add_argument("--lambda-max", type=float, default=20e-6)
    p.add_argument("--points", type=_positive_int, default=20)
    _add_common(p)

    p = add_parser("gpe", help="mean-field ground state (JSON + CSV profile)")
    _add_species_options(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--ratio", type=float, help="intensity as I/I0")
    g.add_argument("--intensity", type=float, help="absolute total intensity")
    p.add_argument("--unit", default="W/m^2",
                   choices=["W/m^2", "W/cm^2", "mW/cm^2"],
                   help="unit of --intensity (default W/m^2)")
    p.add_argument("--wavelength", type=float, default=None,
                   help="laser wavelength in m (default: transition wavelength)")
    p.add_argument("--atoms", type=float, default=1e4,
                   help="atom number N")
    p.add_argument("--kernel", default="full", choices=["full", "newton"],
                   help="pair interaction: full oscillatory or pure -u/r")
    p.add_argument("--n", type=int, default=512, help="grid points")
    p.add_argument("--rmax", type=float, default=None,
                   help="grid extent in m (default 8x expected radius)")
    p.add_argument("--trap", type=float, default=0.0)
    p.add_argument("--profile", default=None,
                   help="write the radial profile CSV here")
    _add_common(p)

    p = add_parser("losses", help="loss-rate budget (JSON)")
    _add_species_options(p)
    p.add_argument("--ratio", type=float, default=1.5, help="I/I0")
    p.add_argument("--n", type=float, default=40.0, help="atom number")
    p.add_argument("--wavelength", type=float, default=None,
                   help="laser wavelength in m (default: transition wavelength)")
    p.add_argument("--omega-triad", type=float, default=None,
                   help="triad relative detuning (default: plasma frequency)")
    _add_common(p)

    p = add_parser("atom-count", help="capacity at one wavelength (JSON)")
    _add_species_options(p)
    p.add_argument("--wavelength", type=float, required=True)
    p.add_argument("--rho-peak", type=float, required=True,
                   help="peak density (m^-3)")
    p.add_argument("--ratio", type=float, default=1.5)
    p.add_argument("--self-consistent", action="store_true")
    _add_common(p)

    return parser


def _apply_config_file(parser, argv):
    """Pre-scan for --config and splice its key=value lines in as options."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, rest = probe.parse_known_args(argv)
    if not known.config:
        return argv
    extra = []
    with open(known.config, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                parser.error(f"{known.config}, line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            value = value.strip()
            if value.lower() in ("true", "yes"):
                extra.append(flag)
            else:
                extra.extend([flag, value])
    if not rest:
        parser.error("--config given without a subcommand")
    # config-derived options right after the subcommand so explicit flags,
    # which come later, override them
    return rest[0:1] + extra + rest[1:]


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except OSError as exc:
        print(f"lasergrav: {exc}", file=sys.stderr)
        return 2

    try:
        _dispatch(args)
    except (NumericsError, ArithmeticError) as exc:
        print(f"lasergrav: numerical failure: {exc}", file=sys.stderr)
        return 1
    except LaserGravError as exc:
        print(f"lasergrav: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"lasergrav: {exc}", file=sys.stderr)
        return 2
    if args.plot_script:
        _write(PLOT_SCRIPT, args.plot_script)
    return 0


def _dispatch(args):
    cmd = args.command
    if cmd == "catalog":
        table = {}
        for name in [args.species] if args.species else catalog_names():
            sp = _get_species(argparse.Namespace(species=name,
                                                 species_file=args.species_file))
            table[name] = {**asdict(sp), "contact_coupling_J_m3": sp.contact_coupling}
        emit_json(table, args.out)

    elif cmd == "potential":
        import numpy as np
        if args.linear:
            r = np.linspace(args.rmin, args.rmax, args.samples)
        else:
            r = np.logspace(math.log10(args.rmin), math.log10(args.rmax),
                            args.samples)
        shape = kernel_shape(r)
        rows = [{"r_over_lambda": float(ri), "U_over_u_per_lambda": float(si)}
                for ri, si in zip(r, shape)]
        emit_csv(rows, args.out)

    elif cmd == "threshold":
        species = _get_species(args)
        i0 = variational.threshold_intensity(species, use_detuned=args.detuned)
        emit_json({
            "species": species.name,
            "polarizability": "detuned" if args.detuned else "static",
            "I0_W_per_m2": i0,
            "I0_W_per_cm2": intensity_in(i0, "W/cm^2"),
        }, args.out)

    elif cmd == "fig1a":
        species = _get_species(args)
        lam = _resolve_wavelength(args, species)
        ratios = _parse_ratio_spec(args.ratios)
        if 0.0 in ratios:  # the curves are in units of N u/lam
            raise ValueError(_NO_LIGHT)
        # numpy's linspace arithmetic: i * step + wmin, ending on wmax itself
        last = args.samples - 1
        step = (args.wmax - args.wmin) / max(last, 1)
        widths = [i * step + args.wmin for i in range(last)] + [
            args.wmax if last else args.wmin]
        # one single-atom TF config per ratio, shared by every width
        curves = {f"E_over_N_tf_units_ratio_{ratio:g}": variational.config_at_ratio(
                      species, ratio, lam, use_detuned=args.detuned, tf_limit=True)
                  for ratio in ratios}
        rows = []
        for w in widths:
            row = {"w": w}
            for key, cfg in curves.items():
                e = variational.total_energy(w, cfg)
                row[key] = e / variational.tf_energy_unit(cfg)
            rows.append(row)
        emit_csv(rows, args.out)

    elif cmd in ("fig1b", "width-sweep"):
        species = _get_species(args)
        lam = _resolve_wavelength(args, species)
        ratios = _parse_ratio_spec(args.ratios)
        cfg = variational.config_at_ratio(
            species, 1.0, lam, n_atoms=args.atoms, use_detuned=args.detuned,
            trap_frequency=args.trap, tf_limit=args.tf_limit)
        rows = []
        for ratio, res in zip(ratios, variational.width_vs_intensity(cfg, ratios)):
            row = {"ratio": ratio, "w_star": res.w_star, "r_rms_m": res.r_rms,
                   "bound_local": res.bound_local,
                   "bound_global": res.bound_global}
            parts = asdict(res.breakdown) if res.breakdown else {}
            row.update({f"{k}_J": parts.get(k, math.nan) for k in (
                "kinetic", "trap", "swave", "gravitational", "total")})
            rows.append(row)
        if cmd == "fig1b":
            rows = [{"ratio": r["ratio"], "w_star": r["w_star"],
                     "bound": r["bound_local"]} for r in rows]
        emit_csv(rows, args.out)

    elif cmd == "phase-map":
        species = _get_species(args)
        rows = regimes.phase_map(species, nx=args.nx, ny=args.ny,
                                 use_detuned=args.detuned)
        emit_csv(rows, args.out)

    elif cmd == "fig2":
        import numpy as np
        species = _get_species(args)
        lams = np.logspace(math.log10(args.lambda_min),
                           math.log10(args.lambda_max), args.points)
        rows = regimes.capacity_band(
            [float(l) for l in lams], args.rho_low, args.rho_high,
            args.ratio, species, use_detuned=args.detuned)
        emit_csv(rows, args.out)

    elif cmd == "gpe":
        from . import gpe
        species = _get_species(args)
        lam = _resolve_wavelength(args, species)
        intensity, ratio = _resolve_intensity(args, species)
        params = InteractionParams.from_intensity(species, intensity, lam,
                                                  use_detuned=args.detuned)
        cfg = variational.AnsatzConfig(
            n_atoms=args.atoms, species=species, interaction=params,
            trap_frequency=args.trap,
            kernel="full" if args.kernel == "full" else "near_zone")
        trial = variational.minimize_width(cfg)
        if not trial.bound_local and args.rmax is None:
            raise UnboundError(f"no bound state at I/I0 = {ratio:g}; pass "
                               "--rmax to solve in an explicit box")
        r_max = args.rmax if args.rmax is not None else 8.0 * trial.r_rms
        grid = gpe.RadialGrid(n_points=args.n, r_max=r_max)
        state = gpe.solve_ground(
            cfg, grid, w_init=trial.w_star if trial.bound_local else 1.0)
        rho_peak = float(state.density[0])
        summary = {
            "species": species.name,
            "ratio": ratio,
            "atoms": args.atoms,
            "kernel": args.kernel,
            "n_points": grid.n_points,
            "r_max_m": grid.r_max,
            "mu_J": state.mu,
            "r_rms_m": state.r_rms,
            "iterations": state.iterations,
            "residual": state.residual,
            "rho_peak_m3": rho_peak,
            "energies_J": state.energies,
            "mfa_validity": variational.mfa_validity(rho_peak, species,
                                                     params.coupling),
        }
        emit_json(summary, args.out)
        if args.profile:
            rows = [{"R_m": float(r), "psi": float(p), "rho_m3": float(d),
                     "phi_J": float(ph)}
                    for r, p, d, ph in zip(grid.nodes, state.psi,
                                           state.density, state.potential)]
            emit_csv(rows, args.profile)

    elif cmd == "losses":
        species = _get_species(args)
        report = losses.loss_report(
            species, args.ratio, args.n, _resolve_wavelength(args, species),
            use_detuned=args.detuned, omega_triad=args.omega_triad)
        payload = asdict(report)
        payload["omega_p_over_gamma_ray"] = report.omega_p_scaled / report.gamma_ray
        payload["gamma_interf_over_gamma_ray"] = \
            report.gamma_interf / report.gamma_ray
        payload["oscillations_within_lifetime"] = \
            report.omega_p_scaled * report.tau_ray_lower_bound / (2 * math.pi)
        payload["repulsion_negligible"] = \
            losses.repulsion_coupling(report.saturation, 1.0)[1]
        emit_json(payload, args.out)

    elif cmd == "atom-count":
        species = _get_species(args)
        n = regimes.atom_capacity(args.wavelength, args.rho_peak, args.ratio,
                                  species, use_detuned=args.detuned,
                                  self_consistent=args.self_consistent)
        emit_json({
            "species": species.name,
            "wavelength_m": args.wavelength,
            "rho_peak_m3": args.rho_peak,
            "ratio": args.ratio,
            "N": n,
        }, args.out)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
