"""Untimed output checks behind ``fail_frac``.

Every check compares parsed values against the reference values and
tolerances the test suite already pins, never byte hashes, so a correct
change to iteration counts or last digits does not count as a failure.

A check returns a list of :class:`Problem`.  A problem whose ``defect`` is
set is a known ROADMAP defect: the op still counts as failed, and the
result lists it by defect.  A problem with ``defect=None`` is unexpected
and makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# ROADMAP item 2: for I/I0 >~ 500 the TF minimum w* falls below the
# minimizer's fixed [1e-2, 1e2] width grid and is reported unbound, exit 0.
ROADMAP_2 = "ROADMAP-2"
KNOWN_GRID_FLOOR_RATIO = 500.0
# Below this TF width the kinetic energy of N >= 1e4 sodium atoms is under
# 2% of the contact energy, so keeping it cannot unbind the cloud.
KINETIC_NEGLIGIBLE_W = 0.5
NA_LAMBDA = 589e-9
RHO_LOW, RHO_HIGH = 1e21, 1e22   # fig2 defaults

# thresholds 1a-1c: (reference, unit factor from W/cm^2, relative tolerance)
THRESHOLDS = {"1a": (5.65e9, 1.0, 0.03), "1b": (8.19e8, 1.0, 0.03),
              "1c": (262.0, 1e3, 0.10)}


@dataclass(frozen=True)
class Problem:
    defect: str | None
    message: str


def _fail(message: str) -> Problem:
    return Problem(None, message)


def _read_csv(root: Path, path: str) -> list[dict]:
    with open(root / path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(root: Path, path: str):
    return json.loads((root / path).read_text(encoding="utf-8"))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _unbound(ratio: float, what: str) -> Problem:
    message = f"{what} unbound at I/I0 = {ratio:g}"
    if ratio >= KNOWN_GRID_FLOOR_RATIO:
        return Problem(ROADMAP_2, message)
    return _fail(message + "; a TF state is bound for every I/I0 >= 1.001")


def _r_rms_over_lambda(n_atoms: float, rho_peak: float, lam: float) -> float:
    """R_rms / lam of the Gaussian cloud holding n_atoms at peak density."""
    w = (n_atoms / (rho_peak * math.pi**1.5)) ** (1.0 / 3.0) / lam
    return math.sqrt(1.5) * w


def _condensate_size(r_over_lam: float, where: str) -> list[Problem]:
    if abs(r_over_lam / 0.43 - 1.0) < 0.05:
        return []
    return [_fail(f"{where}: R_rms(1.5 I0) = {r_over_lam:.4f} lam vs 0.43 (5%)")]


def fig1b(op, root, ctx) -> list[Problem]:
    rows = _read_csv(root, op.params["out"])
    ratios = [float(r["ratio"]) for r in rows]
    if len(ratios) != len(op.params["ratios"]) or any(
            _rel(a, b) > 1e-9 for a, b in zip(ratios, op.params["ratios"])):
        return [_fail("ratio column does not match the requested ratios")]
    problems, widths = [], {}
    for row, ratio in zip(rows, ratios):
        w = float(row["w_star"])
        if row["bound"] == "true" and math.isfinite(w) and w > 0.0:
            widths[ratio] = w
        else:
            problems.append(_unbound(ratio, "fig1b TF state"))
    ctx["tf_width"] = widths
    ordered = [widths[r] for r in sorted(widths)]
    if any(b >= a for a, b in zip(ordered, ordered[1:])):
        problems.append(_fail("TF width does not decrease with I/I0"))
    tail = sorted(r for r in widths if r >= 10.0)
    if len(tail) >= 2:
        lo, hi = tail[0], tail[-1]
        slope = math.log(widths[hi] / widths[lo]) / math.log(hi / lo)
        if abs(slope + 0.5) >= 0.05:
            problems.append(_fail(
                f"tail slope d log R / d log I = {slope:.4f} vs -0.5 (0.05)"))
    return problems


def width_sweep(op, root, ctx) -> list[Problem]:
    """Rows of ``width-sweep``: internal consistency, bound verdicts, and for
    a --no-tf sweep, a width no smaller than the TF width at the same ratio
    (kinetic pressure only widens the cloud)."""
    rows = _read_csv(root, op.params["out"])
    if len(rows) != len(op.params["ratios"]):
        return [_fail(f"expected {len(op.params['ratios'])} rows, got {len(rows)}")]
    tf_width = ctx.get("tf_width")
    lam = op.params["wavelength"]
    problems, radii = [], {}
    for row in rows:
        ratio = float(row["ratio"])
        if row["bound_local"] != "true":
            if ratio >= KNOWN_GRID_FLOOR_RATIO:
                problems.append(_unbound(ratio, f"{op.name} state"))
            elif tf_width is None or tf_width.get(ratio, 0.0) <= KINETIC_NEGLIGIBLE_W:
                problems.append(_fail(f"{op.name} unbound at I/I0 = {ratio:g}"))
            continue
        w, r_rms = float(row["w_star"]), float(row["r_rms_m"])
        radii[ratio] = r_rms
        if _rel(r_rms, math.sqrt(1.5) * w * lam) > 1e-9:
            problems.append(_fail(f"r_rms_m != sqrt(1.5) w* lam at I/I0 = {ratio:g}"))
        parts = [float(row[k]) for k in ("kinetic_J", "trap_J", "swave_J",
                                         "gravitational_J")]
        total = float(row["total_J"])
        if abs(sum(parts) - total) > 1e-9 * max(abs(p) for p in parts):
            problems.append(_fail(f"total_J != sum of parts at I/I0 = {ratio:g}"))
        if (row["bound_global"] == "true") != (total < 0.0):
            problems.append(_fail(
                f"bound_global disagrees with total_J at I/I0 = {ratio:g}"))
        tf = (tf_width or {}).get(ratio)
        if tf is not None and w < tf * (1.0 - 1e-5):
            problems.append(_fail(f"--no-tf width {w:.6g} below the TF width "
                                  f"{tf:.6g} at I/I0 = {ratio:g}"))
    ctx[op.name] = radii
    return problems


def fig2(op, root, ctx) -> list[Problem]:
    """Capacity band: N_high/N_low = rho_high/rho_low, the TF radius at
    1.5 I0, and the capacity ranges 5a-5c scaled from N ~ rho lam^3."""
    rows = _read_csv(root, op.params["out"])
    lams = [float(r["lambda_m"]) for r in rows]
    wanted = op.params["wavelengths"]
    if len(lams) != 2 or any(_rel(a, b) > 1e-6 for a, b in zip(lams, wanted)):
        return [_fail("wavelength column does not match the requested range")]
    problems = []
    for row, lam in zip(rows, lams):
        n_lo, n_hi = float(row["N_low"]), float(row["N_high"])
        if _rel(n_hi / n_lo, RHO_HIGH / RHO_LOW) > 1e-9:
            problems.append(_fail(f"N_high/N_low = {n_hi / n_lo:.6g} at lam = {lam:g}"))
        problems += _condensate_size(_r_rms_over_lambda(n_lo, RHO_LOW, lam),
                                     f"fig2 at lam = {lam:g}")
        n_co2 = n_hi * (10.6e-6 / lam) ** 3
        n_yag = n_hi * (1.064e-6 / lam) ** 3
        n_na = n_lo * (NA_LAMBDA / lam) ** 3
        if not (3e5 <= n_co2 <= 3e6):
            problems.append(_fail(
                f"5a capacity at 10.6 um = {n_co2:.3g} not in [3e5, 3e6]"))
        if not (3e2 <= n_yag <= 3e3):
            problems.append(_fail(
                f"5b capacity at 1.064 um = {n_yag:.3g} not in [3e2, 3e3]"))
        if abs(n_na / 40.0 - 1.0) >= 0.5:
            problems.append(_fail(f"5c capacity at 589 nm = {n_na:.3g} vs 40 (50%)"))
    return problems


def critical_ratio(op, root, ctx) -> list[Problem]:
    ratio = _read_json(root, op.params["out"])["ratio"]
    if abs(ratio - 1.0) < 0.05:
        return []
    return [_fail(f"critical ratio I_c/I0 = {ratio:.4f} vs 1.00 (5%)")]


def gpe(op, root, ctx) -> list[Problem]:
    """PDE ground state: energy bookkeeping, profile, R_rms within 10% of
    the variational value (full kernel), grid convergence between n=512 and
    n=1024, and a tighter cloud under the pure -u/r kernel."""
    data = _read_json(root, op.params["out"])
    problems = []
    if data["n_points"] != op.params["n"] or data["iterations"] < 1:
        problems.append(_fail("grid size or iteration count missing"))
    e = data["energies_J"]
    parts = [e[k] for k in ("kinetic", "trap", "swave", "gravitational")]
    if abs(sum(parts) - e["total"]) > 1e-9 * max(abs(p) for p in parts):
        problems.append(_fail("energies_J total != sum of parts"))
    r_rms = data["r_rms_m"]
    if op.params["kernel"] == "full":
        ref = next(iter(ctx.get("variational_ref", {}).values()), None)
        if ref is None:
            problems.append(_fail("no bound variational reference to compare with"))
        elif _rel(r_rms, ref) >= 0.10:
            problems.append(_fail(
                f"PDE R_rms {r_rms:.4e} m is {100 * _rel(r_rms, ref):.1f}% "
                f"from variational {ref:.4e} m (10%)"))
        if op.params["n"] == 1024 and "gpe_full_n512" in ctx \
                and _rel(r_rms, ctx["gpe_full_n512"]) >= 1e-3:
            problems.append(_fail("R_rms at n=1024 and n=512 differ by 1e-3 or more"))
        ctx[op.name] = r_rms
    elif "gpe_full_n512" in ctx and not r_rms < ctx["gpe_full_n512"]:
        problems.append(_fail(
            "-u/r kernel cloud not tighter than the full-kernel cloud"))
    if "profile" in op.params:
        rows = _read_csv(root, op.params["profile"])
        rho = [float(r["rho_m3"]) for r in rows]
        phi0 = float(rows[0]["phi_J"]) if rows else math.nan
        if len(rows) != op.params["n"] or not all(
                math.isfinite(x) and x >= 0.0 for x in rho):
            problems.append(_fail(
                "profile rows missing or density not finite and >= 0"))
        elif _rel(rho[0], data["rho_peak_m3"]) > 1e-9 or not phi0 < 0.0:
            problems.append(_fail("profile disagrees with rho_peak or has phi(0) >= 0"))
    return problems


def threshold(op, root, ctx) -> list[Problem]:
    ref, factor, tol = THRESHOLDS[op.params["check"]]
    value = _read_json(root, op.params["out"])["I0_W_per_cm2"] * factor
    if abs(value / ref - 1.0) < tol:
        return []
    return [_fail(f"{op.params['check']} threshold {value:.4g} vs {ref:g} ({tol:.0%})")]


def catalog(op, root, ctx) -> list[Problem]:
    data = _read_json(root, op.params["out"])
    expected = {"Na", "Rb87"} if "--species" not in op.argv else {"Rb87"}
    if set(data) != expected:
        return [_fail(f"catalog lists {sorted(data)}, expected {sorted(expected)}")]
    if "Na" in data and data["Na"]["detuned"]["dipole_moment"] != 2.1e-29:
        return [_fail("Na dipole moment changed")]
    return []


def potential(op, root, ctx) -> list[Problem]:
    """Log-spaced samples, and the -u/r near-zone limit to 1e-3 where the
    quadratic correction allows it (r/lam < 6.5e-3)."""
    rows = _read_csv(root, op.params["out"])
    r = [float(x["r_over_lambda"]) for x in rows]
    u = [float(x["U_over_u_per_lambda"]) for x in rows]
    if len(r) != op.params["samples"] or _rel(r[0], op.params["rmin"]) > 1e-9 \
            or _rel(r[-1], op.params["rmax"]) > 1e-9:
        return [_fail("potential samples do not span the requested range")]
    if not all(math.isfinite(x) for x in u):
        return [_fail("non-finite potential sample")]
    worst = max(abs(ui * ri + 1.0) for ri, ui in zip(r, u) if ri < 6.5e-3)
    if worst >= 1e-3:
        return [_fail(f"near-zone |U r/(-u) - 1| = {worst:.3e} (< 1e-3)")]
    return []


def phase_map(op, root, ctx) -> list[Problem]:
    """Labels against the documented rule in log coordinates: Unbound when
    y <= max(0, x); G when x >= 0 and x <= y <= 2x; TFG otherwise."""
    rows = _read_csv(root, op.params["out"])
    if len(rows) != op.params["nx"] * op.params["ny"]:
        return [_fail(f"phase map has {len(rows)} rows")]
    for row in rows:
        x, y = float(row["x"]), float(row["y"])
        edges = (y - max(0.0, x), x, y - x, 2.0 * x - y)
        if min(abs(e) for e in edges) < 1e-9:
            continue  # on a boundary; printed digits cannot decide it
        if y <= max(0.0, x):
            label = "Unbound"
        elif x >= 0.0 and x <= y <= 2.0 * x:
            label = "G"
        else:
            label = "TFG"
        if row["label"] != label:
            return [_fail(f"label {row['label']} at x={x:g}, y={y:g}, "
                          f"expected {label}")]
    return []


def fig1a(op, root, ctx) -> list[Problem]:
    """TF energy curves: positive everywhere below threshold, negative at
    the widest sample above it."""
    rows = _read_csv(root, op.params["out"])
    if len(rows) != op.params["samples"]:
        return [_fail(f"fig1a has {len(rows)} rows")]
    lo, hi = (f"E_over_N_tf_units_ratio_{float(r):g}" for r in op.params["ratios"])
    if not all(float(row[lo]) > 0.0 for row in rows):
        return [_fail("energy below threshold is not positive at every width")]
    if not float(rows[-1][hi]) < 0.0:
        return [_fail("energy above threshold is not negative at the widest sample")]
    return []


def losses(op, root, ctx) -> list[Problem]:
    data = _read_json(root, op.params["out"])
    ref = 1.58e4 * op.params["ratio"] / 1.5   # 6a, linear in intensity
    problems = []
    if abs(data["gamma_ray"] / ref - 1.0) >= 0.05:
        problems.append(_fail(
            f"6a Rayleigh rate {data['gamma_ray']:.4g} vs {ref:.4g} (5%)"))
    if data["repulsion_negligible"] is not True:
        problems.append(_fail("7b repulsion not negligible"))
    return problems


def atom_count(op, root, ctx) -> list[Problem]:
    n = _read_json(root, op.params["out"])["N"]
    return _condensate_size(
        _r_rms_over_lambda(n, op.params["rho"], op.params["wavelength"]),
        "atom-count")


CHECKS = {
    "fig1b": fig1b, "width_sweep_notf": width_sweep, "fig2": fig2,
    "critical_ratio": critical_ratio, "variational_ref": width_sweep,
    "gpe_full_n512": gpe, "gpe_full_n1024": gpe, "gpe_newton_n512": gpe,
    "threshold_na_static": threshold, "threshold_rb_static": threshold,
    "threshold_na_detuned": threshold, "catalog": catalog,
    "catalog_rb": catalog, "potential": potential, "phase_map": phase_map,
    "fig1a": fig1a, "losses": losses, "atom_count": atom_count,
    "width_sweep_single": width_sweep,
}


def check(op, returncode: int, root: Path, ctx: dict) -> list[Problem]:
    """All problems of one finished op; ``ctx`` carries parsed results to
    later ops of the same pass."""
    if returncode != 0:
        return [_fail(f"exit code {returncode}")]
    try:
        return CHECKS[op.name](op, root, ctx)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            ZeroDivisionError) as exc:
        return [_fail(f"unreadable output: {type(exc).__name__}: {exc}")]
