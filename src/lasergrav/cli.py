"""Command-line front end: reproducible figure/table datasets and reports.

Every subcommand is deterministic for fixed arguments, CSV cells are written
in scientific notation with 12 significant digits and JSON keys keep a fixed
order, so repeated runs produce byte-identical files.  Exit codes: 0 success,
1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import variational
from .constants import intensity_in, intensity_si
from .errors import LaserGravError, NumericsError, UnboundError
from .interaction import InteractionParams, kernel_shape
from .species import SpeciesTable, catalog_names

SPECIES_FILE_ENV = "LASERGRAV_SPECIES_FILE"

_FLOAT_FORMAT = "{:.12e}"
_NO_LIGHT = "intensity must be non-zero: without light nothing binds"
_LENGTHS = ("rmin", "rmax", "wmin", "wmax", "lambda_min", "lambda_max")  # must be > 0

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


def emit_csv(rows, path: str | None):
    """Write an iterable of dict rows as CSV under the first row's keys, one
    line per row as it comes, so a generator is never held whole; every
    command yields at least one row."""
    _write(_csv_lines(rows), path)


def _csv_lines(rows):
    header = None
    for row in rows:
        if header is None:
            header = list(row)
            yield ",".join(header) + "\n"
        yield ",".join(_fmt(row[k]) for k in header) + "\n"


def emit_json(obj, path: str | None):
    import json
    _write((json.dumps(obj, indent=2) + "\n",), path)


def _write(chunks, path: str | None):
    """Write an iterable of strings to ``path``, or to stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


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


# most values of a --ratios range, rows of phase-map and fig2, and gpe grid
# points: at 1.3 KB and 0.08 ms per fig1b row, 150 MB and 8 s, and a gpe
# solve 72 MB and 1.6 s; a slip in a step (1:1e9:1e-9) would ask for 1e18
_MAX_VALUES = 100_000


def _parse_ratio_spec(text: str) -> list[float]:
    """Either comma-separated values or start:stop:step (inclusive stop)."""
    try:
        values = [float(p) for p in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ValueError(f"--ratios must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--ratios must be finite, got {text!r}")
    if ":" in text:
        if len(values) != 3:
            raise ValueError(f"ratio range {text!r} must be start:stop:step")
        start, stop, step = values
        if not step > 0.0:
            raise ValueError("ratio step must be positive")
        span = (stop - start) / step + 1e-9
        if span < 0.0:
            raise ValueError(f"ratio range {text!r} holds no value")
        if not span < _MAX_VALUES:
            raise ValueError(f"--ratios range {text!r} holds {span + 1:.6g} values, "
                             f"more than {_MAX_VALUES:,}")
        return [start + i * step for i in range(int(span) + 1)]
    return values


def _linspace(start: float, stop: float, num: int):
    """Yield ``numpy.linspace`` on Python floats: ``i * step + start``, then stop."""
    step = (stop - start) / max(num - 1, 1)
    for i in range(num):
        yield stop if 0 < i == num - 1 else i * step + start


def _positive_int(text: str) -> int:
    """argparse type for sample counts: an empty sweep is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _DefaultsHelp(argparse.ArgumentDefaultsHelpFormatter):
    """Appends a value option's default; the help of a flag, or of an option
    whose default is None, states its own rule."""

    def _get_help_string(self, action):
        if action.default is None or isinstance(action.default, bool):
            return action.help
        return super()._get_help_string(action)


# options that several subcommands share, each declared once: flag ->
# add_argument keywords
_SHARED = {
    "--species-file": dict(help=f"key=value species file (or ${SPECIES_FILE_ENV})"),
    "--ratio": dict(type=float, default=1.5, help="I/I0"),
    "--ratios": dict(default="1.1:5:0.1", help="comma list or start:stop:step of I/I0"),
    "--wavelength": dict(type=float, default=None,
                         help="laser wavelength in m (default: transition wavelength)"),
    "--atoms": dict(type=float, default=1e4, help="atom number N"),
    "--trap": dict(type=float, default=0.0, help="trap angular frequency omega0 (rad/s)"),
    "--out": dict(default=None, help="output path (default: stdout)"),
    "--seed": dict(type=int, default=0, help="seed for any stochastic auxiliary "
                                            "(outputs are deterministic either way)"),
    "--plot-script": dict(default=None,
                          help="also write a small matplotlib companion script here"),
}


def _add(p, *names, **overrides):
    """Attach the shared options ``--<name>``; ``overrides`` replace their keywords."""
    for flag in ("--" + name for name in names):
        p.add_argument(flag, **{**_SHARED[flag], **overrides})


def _add_species_options(p):
    p.add_argument("--species", default="Na",
                   help=f"species name (catalog: {', '.join(catalog_names())})")
    _add(p, "species-file")
    # plain flags on one dest so a later flag overrides an earlier one
    # (needed for config-file preloading)
    p.add_argument("--detuned", action="store_true", default=True,
                   help="use the near-resonant polarizability (default)")
    p.add_argument("--static", dest="detuned", action="store_false",
                   help="use the static polarizability")


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
    add_parser = functools.partial(subparsers.add_parser, formatter_class=_DefaultsHelp)

    p = add_parser("catalog", help="dump species data")
    p.add_argument("--species", default=None, help="single species (default: all)")
    _add(p, "species-file")

    p = add_parser("potential", help="pair potential samples (CSV)")
    p.add_argument("--rmin", type=float, default=1e-3, help="smallest r/lam")
    p.add_argument("--rmax", type=float, default=3.0, help="largest r/lam")
    p.add_argument("--samples", type=_positive_int, default=600,
                   help="number of r samples")
    p.add_argument("--linear", action="store_true",
                   help="linear instead of log spacing in r/lam")

    p = add_parser("threshold", help="self-binding threshold intensity (JSON)")
    _add_species_options(p)

    p = add_parser("fig1a", help="TF energy curves E/N vs width (CSV)")
    _add_species_options(p)
    _add(p, "ratios", default="0.5,0.8,1.0,1.2,1.5,2.0")
    p.add_argument("--wmin", type=float, default=0.05,
                   help="smallest trial width w")
    p.add_argument("--wmax", type=float, default=2.0,
                   help="largest trial width w")
    p.add_argument("--samples", type=_positive_int, default=200,
                   help="number of width samples")
    _add(p, "wavelength")

    p = add_parser("fig1b", help="equilibrium width vs I/I0 (CSV)")
    _add_species_options(p)
    _add(p, "ratios", "wavelength")
    # the width-sweep of one trap-free TF atom, cut to three columns
    p.set_defaults(atoms=1.0, trap=0.0, tf_limit=True)

    p = add_parser("width-sweep", help="full variational sweep (CSV)")
    _add_species_options(p)
    _add(p, "ratios", "wavelength", "atoms", "trap")
    p.add_argument("--no-tf", dest="tf_limit", action="store_false",
                   help="retain the kinetic term")

    p = add_parser("phase-map", help="regime label grid (CSV)")
    _add_species_options(p)
    p.add_argument("--nx", type=int, default=51, help="points of x over [-2, 3]")
    p.add_argument("--ny", type=int, default=41, help="points of y over [-1, 3]")

    p = add_parser("fig2", help="atom capacity band vs wavelength (CSV)")
    _add_species_options(p)
    _add(p, "ratio")
    p.add_argument("--rho-low", type=float, default=1e21,
                   help="lower peak density (m^-3)")
    p.add_argument("--rho-high", type=float, default=1e22,
                   help="upper peak density (m^-3)")
    p.add_argument("--lambda-min", type=float, default=0.4e-6,
                   help="shortest laser wavelength in m")
    p.add_argument("--lambda-max", type=float, default=20e-6,
                   help="longest laser wavelength in m")
    p.add_argument("--points", type=_positive_int, default=20,
                   help="number of wavelengths, log-spaced")

    p = add_parser("gpe", help="mean-field ground state (JSON + CSV profile)")
    _add_species_options(p)
    g = p.add_mutually_exclusive_group()
    _add(g, "ratio", default=None, help="intensity as I/I0")
    g.add_argument("--intensity", type=float, help="absolute total intensity")
    p.add_argument("--unit", default="W/m^2",
                   choices=["W/m^2", "W/cm^2", "mW/cm^2"],
                   help="unit of --intensity")
    _add(p, "wavelength", "atoms")
    p.add_argument("--kernel", default="full", choices=["full", "newton"],
                   help="pair interaction: full oscillatory or pure -u/r")
    p.add_argument("--n", type=int, default=None,
                   help="grid points, at least 256 (default: 512, or up to 65536 "
                        "where the full kernel needs a spacing of lam/40)")
    p.add_argument("--rmax", type=float, default=None,
                   help="grid extent in m (default: 8x expected radius)")
    _add(p, "trap")
    p.add_argument("--profile", default=None,
                   help="write the radial profile CSV here")

    p = add_parser("losses", help="loss-rate budget (JSON)")
    _add_species_options(p)
    _add(p, "ratio")
    p.add_argument("--n", type=float, default=40.0, help="atom number")
    _add(p, "wavelength")
    p.add_argument("--omega-triad", type=float, default=None,
                   help="triad relative detuning (default: plasma frequency)")

    p = add_parser("atom-count", help="capacity at one wavelength (JSON)")
    _add_species_options(p)
    _add(p, "wavelength", required=True, help="laser wavelength in m")
    p.add_argument("--rho-peak", type=float, required=True,
                   help="peak density (m^-3)")
    _add(p, "ratio")
    p.add_argument("--self-consistent", action="store_true",
                   help="keep the kinetic term: the width is the one root of "
                        "w^2 (h(w) - S_c/r) = c, if it is the deepest minimum at N")

    for p in subparsers.choices.values():  # every subcommand ends with these
        _add(p, "out", "seed", "plot-script")
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
    except (ValueError, OSError) as exc:  # a SpeciesFileError included
        print(f"lasergrav: {exc}", file=sys.stderr)
        return 2
    except LaserGravError as exc:
        print(f"lasergrav: {exc}", file=sys.stderr)
        return 1
    if args.plot_script:
        _write((PLOT_SCRIPT,), args.plot_script)
    return 0


def _dispatch(args):
    cmd = args.command
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        if name in _LENGTHS and not (value is None or value > 0.0):
            raise ValueError(f"--{name.replace('_', '-')} must be positive, got {value:g}")
    if hasattr(args, "species_file"):  # every command but potential
        table = SpeciesTable(args.species_file or os.environ.get(SPECIES_FILE_ENV))
        species = table[args.species] if args.species else None
    if cmd == "catalog":
        chosen = {args.species: species} if species else dict(sorted(table.items()))
        emit_json({name: {**sp.asdict(), "contact_coupling_J_m3": sp.contact_coupling}
                   for name, sp in chosen.items()}, args.out)

    elif cmd == "potential":
        r = (_linspace(args.rmin, args.rmax, args.samples) if args.linear
             else (10.0 ** y for y in _linspace(
                 math.log10(args.rmin), math.log10(args.rmax), args.samples)))
        emit_csv(({"r_over_lambda": ri, "U_over_u_per_lambda": kernel_shape(ri)}
                  for ri in r), args.out)

    elif cmd == "threshold":
        i0 = variational.threshold_intensity(species, use_detuned=args.detuned)
        emit_json({
            "species": species.name,
            "polarizability": "detuned" if args.detuned else "static",
            "I0_W_per_m2": i0,
            "I0_W_per_cm2": intensity_in(i0, "W/cm^2"),
        }, args.out)

    elif cmd == "fig1a":
        for name, w in (("wmin", args.wmin), ("wmax", args.wmax)):
            if not variational.W_MIN <= w <= variational.W_MAX:
                raise ValueError(f"--{name} must lie in [{variational.W_MIN:g}, "
                                 f"{variational.W_MAX:g}], got {w:g}")
        lam = _resolve_wavelength(args, species)
        ratios = _parse_ratio_spec(args.ratios)
        if min(ratios) <= 0.0:  # the curves are in units of N u/lam
            raise ValueError(_NO_LIGHT if 0.0 in ratios
                             else "intensity ratios must be non-negative")
        # every species draws the same curve, but only with a threshold and a wavelength
        variational.config_at_ratio(species, 1.0, lam, use_detuned=args.detuned)
        curves = {f"E_over_N_tf_units_ratio_{r:g}": r for r in ratios}

        def row(w):
            cells = variational._tf_energies(w, curves.values())
            return {"w": w, **dict(zip(curves, cells))}
        for w in (args.wmin, args.wmax):  # g is finite: only S_c/(r w^3) can overflow
            try:
                finite = all(map(math.isfinite, row(w).values()))
            except ZeroDivisionError:  # r w^3 underflows to 0
                finite = False
            if not finite:
                raise NumericsError(f"the contact term S_c/(r w^3) overflows at w = {w:g}")
        emit_csv(map(row, _linspace(args.wmin, args.wmax, args.samples)), args.out)

    elif cmd in ("fig1b", "width-sweep"):
        lam = _resolve_wavelength(args, species)
        ratios = _parse_ratio_spec(args.ratios)
        cfg = variational.config_at_ratio(
            species, 1.0, lam, n_atoms=args.atoms, use_detuned=args.detuned,
            trap_frequency=args.trap, tf_limit=args.tf_limit)

        def row(ratio, res):
            parts = res.breakdown.asdict() if res.breakdown else {}
            return {"ratio": ratio, "w_star": res.w_star, "r_rms_m": res.r_rms,
                    "bound_local": res.bound_local, "bound_global": res.bound_global,
                    **{f"{k}_J": parts.get(k, math.nan) for k in (
                        "kinetic", "trap", "swave", "gravitational", "total")}}
        rows = map(row, ratios, variational.width_vs_intensity(cfg, ratios))
        if cmd == "fig1b":  # each full row cut to three columns as it passes
            rows = ({"ratio": r["ratio"], "w_star": r["w_star"],
                     "bound": r["bound_local"]} for r in rows)
        emit_csv(rows, args.out)

    elif cmd == "phase-map":
        from . import regimes
        points = args.nx * args.ny
        if min(args.nx, args.ny) > 0 and points > _MAX_VALUES:
            raise ValueError(f"--nx {args.nx} by --ny {args.ny} is {points:,} "
                             f"points, more than {_MAX_VALUES:,}")
        emit_csv(regimes.phase_map(species, nx=args.nx, ny=args.ny,
                                   use_detuned=args.detuned), args.out)

    elif cmd == "fig2":
        from . import regimes
        if args.points > _MAX_VALUES:
            raise ValueError(f"--points {args.points} is more than {_MAX_VALUES:,}")
        ys = _linspace(math.log10(args.lambda_min), math.log10(args.lambda_max),
                       args.points)
        emit_csv(regimes.capacity_band([10.0 ** y for y in ys], args.rho_low,
                                       args.rho_high, args.ratio, species,
                                       use_detuned=args.detuned), args.out)

    elif cmd == "gpe":
        from . import gpe
        if args.n is not None and args.n < gpe.MIN_POINTS:
            raise ValueError(f"--n must be at least {gpe.MIN_POINTS}, got {args.n}")
        if args.n is not None and args.n > _MAX_VALUES:
            raise ValueError(f"--n {args.n} is more than {_MAX_VALUES:,}")
        lam = _resolve_wavelength(args, species)
        intensity, ratio = _resolve_intensity(args, species)
        params = InteractionParams.from_intensity(species, intensity, lam,
                                                  use_detuned=args.detuned)
        cfg = variational.AnsatzConfig(
            n_atoms=args.atoms, species=species, interaction=params,
            trap_frequency=args.trap,
            kernel="full" if args.kernel == "full" else "near_zone")
        try:
            state = gpe.solve_ground(cfg, args.n, args.rmax)
        except UnboundError:
            raise UnboundError(f"no bound state at I/I0 = {ratio:g}; pass "
                               "--rmax to solve in an explicit box") from None
        rho_peak = float(state.density[0])
        emit_json({
            "species": species.name,
            "ratio": ratio,
            "atoms": args.atoms,
            "kernel": args.kernel,
            "n_points": state.grid.n_points,
            "r_max_m": state.grid.r_max,
            "mu_J": state.mu,
            "r_rms_m": state.r_rms,
            "iterations": state.iterations,
            "residual": state.residual,
            "rho_peak_m3": rho_peak,
            "energies_J": state.energies.asdict(),
            "mfa_validity": variational.mfa_validity(rho_peak, species,
                                                     params.coupling),
        }, args.out)
        if args.profile:
            emit_csv(({"R_m": float(r), "psi": float(p), "rho_m3": float(d),
                       "phi_J": float(ph)}
                      for r, p, d, ph in zip(state.grid.nodes, state.psi,
                                             state.density, state.potential)),
                     args.profile)

    elif cmd == "losses":
        from . import losses
        report = losses.loss_report(
            species, args.ratio, args.n, _resolve_wavelength(args, species),
            use_detuned=args.detuned, omega_triad=args.omega_triad)
        emit_json({**report.asdict(),
            "omega_p_over_gamma_ray": report.omega_p_scaled / report.gamma_ray,
            "gamma_interf_over_gamma_ray": report.gamma_interf / report.gamma_ray,
            "oscillations_within_lifetime":
                report.omega_p_scaled * report.tau_ray_lower_bound / (2 * math.pi),
            # K/u is the saturation
            "repulsion_negligible": report.saturation < losses.REPULSION_NEGLIGIBLE,
        }, args.out)

    elif cmd == "atom-count":
        from . import regimes
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
    status = run(sys.argv[1:])
    # the interpreter's exit runs full collections over every object left,
    # about 11 ms once numpy is loaded; they skip frozen objects, and the
    # streams are still flushed and the files are closed by then
    import gc
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
