"""Seeded workload generator.

A workload is a list of ops that one client runs one after another (closed
loop, one client).  Each op is a fresh process: ``python -m lasergrav.cli
ARGV`` as a user would type it, or, for the library-only critical ratio,
``perfbench/runop.py critical-ratio ...``.  The program sees only the
generated argv.  The same (workload, seed) always gives the same argv, and
the draws are stratified or kept in narrow ranges so that the work done
(minimisations, quadratures, solver iterations) changes little between
seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("var_sweep", "gpe_solve", "cli_quick")
# Whole passes an untraced run makes at least, whatever --seconds says.  A
# var_sweep pass takes about 30 s and holds one sample of each op, so a slow
# stretch of the host during it moved a one-pass time by a fifth between
# runs; two passes average it out.  The other passes take 10-15 s.
MIN_PASSES = {"var_sweep": 2, "gpe_solve": 1, "cli_quick": 1}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``argv`` is the lasergrav CLI argv (``kind == "cli"``) or the
    ``runop.py`` argv (``kind == "lib"``).  ``params`` holds the generated
    inputs the oracle needs, parsed back from the argv strings so both see
    the same numbers.
    """

    name: str
    argv: tuple[str, ...]
    kind: str = "cli"
    params: dict = field(default_factory=dict, compare=False)


def _num(x: float, digits: int = 7) -> str:
    return f"{x:.{digits}g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def var_sweep(rng: random.Random, out: str) -> list[Op]:
    """Variational minimisation: multi-ratio fig1b, width-sweep --no-tf,
    fig2 over two wavelengths and the critical ratio.

    One ratio per decade of I/I0 - 1 over [1e-3, 1e4].  The top decades reach
    I/I0 >= 500, where the fixed [1e-2, 1e2] width grid of the minimizer
    reports a bound TF state as unbound (ROADMAP item 2); those ops count
    as failed and are not sized out.
    """
    ratios = [_num(1.0 + 10.0 ** (k + rng.random())) for k in range(-3, 4)]
    # width-sweep takes one bound fig1b ratio, so its row can be checked
    # against the fig1b row at the same ratio; one keeps the pass short
    # enough for a run to make two
    sweep_ratios = [ratios[4]]
    atoms = _num(10.0 ** rng.uniform(4.0, 5.0), 4)
    lam_lo = _num(_log_uniform(rng, 0.5e-6, 1.5e-6), 4)
    lam_hi = _num(_log_uniform(rng, 5e-6, 15e-6), 4)
    crit_lam = _num(_log_uniform(rng, 0.5e-6, 2e-6), 4)
    crit_atoms = _num(10.0 ** rng.uniform(0.0, 5.0), 4)
    return [
        Op("fig1b", ("fig1b", "--species", "Na", "--ratios", ",".join(ratios),
                     "--out", f"{out}/fig1b.csv"),
           params={"ratios": [float(r) for r in ratios],
                   "out": f"{out}/fig1b.csv"}),
        Op("width_sweep_notf",
           ("width-sweep", "--species", "Na", "--no-tf", "--atoms", atoms,
            "--ratios", ",".join(sweep_ratios),
            "--out", f"{out}/width_sweep_notf.csv"),
           params={"ratios": [float(r) for r in sweep_ratios],
                   "atoms": float(atoms), "wavelength": 589e-9,
                   "out": f"{out}/width_sweep_notf.csv"}),
        Op("fig2", ("fig2", "--species", "Na", "--points", "2",
                    "--lambda-min", lam_lo, "--lambda-max", lam_hi,
                    "--out", f"{out}/fig2.csv"),
           params={"wavelengths": [float(lam_lo), float(lam_hi)],
                   "out": f"{out}/fig2.csv"}),
        Op("critical_ratio",
           ("critical-ratio", "--species", "Na", "--wavelength", crit_lam,
            "--atoms", crit_atoms, "--out", f"{out}/critical_ratio.json"),
           kind="lib", params={"out": f"{out}/critical_ratio.json"}),
    ]


def gpe_solve(rng: random.Random, out: str) -> list[Op]:
    """Imaginary-time PDE: full kernel at n=512 and n=1024 with --profile,
    one --kernel newton solve at n=512, and the one-minimisation
    variational reference the PDE radius is checked against.

    Ratio and atom number come from a narrow band where the state is bound,
    the default grid resolves the kernel and the solver iteration count
    changes by only a few percent between draws.
    """
    ratio = _num(rng.uniform(1.9, 2.0), 4)
    atoms = _num(rng.uniform(0.95e5, 1.05e5), 4)
    common = ("--species", "Na", "--ratio", ratio, "--atoms", atoms)
    ops = [Op("variational_ref",
              ("width-sweep", "--species", "Na", "--no-tf", "--ratios", ratio,
               "--atoms", atoms, "--out", f"{out}/variational_ref.csv"),
              params={"ratios": [float(ratio)], "atoms": float(atoms),
                      "wavelength": 589e-9,
                      "out": f"{out}/variational_ref.csv"})]
    for n in (512, 1024):
        ops.append(Op(f"gpe_full_n{n}",
                      ("gpe", *common, "--n", str(n),
                       "--out", f"{out}/gpe_full_n{n}.json",
                       "--profile", f"{out}/gpe_full_n{n}.csv"),
                      params={"n": n, "kernel": "full",
                              "out": f"{out}/gpe_full_n{n}.json",
                              "profile": f"{out}/gpe_full_n{n}.csv"}))
    ops.append(Op("gpe_newton_n512",
                  ("gpe", *common, "--kernel", "newton", "--n", "512",
                   "--out", f"{out}/gpe_newton_n512.json"),
                  params={"n": 512, "kernel": "newton",
                          "out": f"{out}/gpe_newton_n512.json"}))
    return ops


def cli_quick(rng: random.Random, out: str) -> list[Op]:
    """Single-answer commands, each paying a full interpreter start and at
    most one minimisation; fig1a evaluates energies at fixed widths."""
    rmin = _num(_log_uniform(rng, 1e-4, 1e-3), 4)
    rmax = _num(rng.uniform(2.0, 4.0), 4)
    samples = str(rng.randint(500, 700))
    nx, ny = str(rng.randint(9, 15)), str(rng.randint(7, 13))
    lo, hi = _num(rng.uniform(0.5, 0.9), 4), _num(rng.uniform(1.2, 2.0), 4)
    fig1a_samples = str(rng.randint(150, 250))
    loss_ratio = _num(rng.uniform(1.2, 3.0), 4)
    count_lam = _num(_log_uniform(rng, 0.5e-6, 12e-6), 4)
    count_rho = _num(_log_uniform(rng, 1e21, 1e22), 4)
    sweep_ratio = _num(rng.uniform(1.2, 3.0), 4)

    def op(name, *argv, **params):
        path = f"{out}/{name}.{params.pop('ext', 'json')}"
        return Op(name, (*argv, "--out", path), params={"out": path, **params})

    return [
        op("threshold_na_static", "threshold", "--species", "Na", "--static",
           check="1a"),
        op("threshold_rb_static", "threshold", "--species", "Rb87", "--static",
           check="1b"),
        op("threshold_na_detuned", "threshold", "--species", "Na", check="1c"),
        op("catalog", "catalog"),
        op("catalog_rb", "catalog", "--species", "Rb87"),
        op("potential", "potential", "--rmin", rmin, "--rmax", rmax,
           "--samples", samples, ext="csv", rmin=float(rmin),
           rmax=float(rmax), samples=int(samples)),
        op("phase_map", "phase-map", "--species", "Na", "--nx", nx,
           "--ny", ny, ext="csv", nx=int(nx), ny=int(ny)),
        op("fig1a", "fig1a", "--species", "Na", "--ratios", f"{lo},{hi}",
           "--samples", fig1a_samples, ext="csv",
           ratios=[lo, hi], samples=int(fig1a_samples)),
        op("losses", "losses", "--species", "Na", "--ratio", loss_ratio,
           "--n", "40", ratio=float(loss_ratio)),
        op("atom_count", "atom-count", "--species", "Na",
           "--wavelength", count_lam, "--rho-peak", count_rho,
           "--ratio", "1.5", wavelength=float(count_lam),
           rho=float(count_rho)),
        op("width_sweep_single", "width-sweep", "--species", "Na",
           "--ratios", sweep_ratio, ext="csv", ratios=[float(sweep_ratio)],
           wavelength=589e-9),
    ]


_GENERATORS = {"var_sweep": var_sweep, "gpe_solve": gpe_solve,
               "cli_quick": cli_quick}


def generate(workload: str, seed: int, out: str) -> list[Op]:
    """Ops of one pass of ``workload``; outputs go under ``out``."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, out)
