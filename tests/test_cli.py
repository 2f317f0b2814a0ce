import argparse
import json
import math
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lasergrav import gpe, regimes, variational
from lasergrav.cli import (_SHARED, _linspace, _parse_ratio_spec,
                           _resolve_intensity, build_parser, emit_csv, run)
from lasergrav.species import SpeciesTable, catalog_names
from scan_oracle import scanned_minima

def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "lasergrav.cli", *argv],
                          capture_output=True, text=True)


def test_no_arguments_is_usage_error():
    proc = _run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_is_usage_error():
    proc = _run_cli("frobnicate")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["gpe", "--species", "Na", "--ratio", "1.5", "--n", "512", "--out", "-"],
    ["threshold", "--out", "-"]], ids=" ".join)
def test_process_exit_flushes_what_run_writes(argv, tmp_path, capsys):
    # main() freezes the collector before it exits; the process still
    # prints run()'s bytes and closes its files
    extra = ["--profile", str(tmp_path / "main.csv")] if argv[0] == "gpe" else []
    proc = _run_cli(*argv, *extra)
    assert (proc.returncode, proc.stderr) == (0, "")
    extra = ["--profile", str(tmp_path / "run.csv")] if extra else []
    assert run([*argv, *extra]) == 0
    assert proc.stdout == capsys.readouterr().out
    if extra:
        profile = (tmp_path / "main.csv").read_text()
        assert profile == (tmp_path / "run.csv").read_text()
        assert len(profile.splitlines()) == 512 + 1


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["gpe", "--n", "10"], 2, "--n must be at least 256, got 10",
                 id="usage error"),
    pytest.param(["fig1a", "--ratios", "1e-308"], 1, "numerical failure: the "
                 "contact term S_c/(r w^3) overflows at w = 0.05",
                 id="numerical failure")])
def test_process_exit_keeps_error_codes(argv, code, message):
    proc = _run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"lasergrav: {message}\n")


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, lasergrav.cli; print({_SCIPY_LOADED})"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gpe_loads_no_scipy(tmp_path):
    # the PDE solves, full kernel and -u/r, were the last users of scipy;
    # the tests keep it only as an oracle
    script = (
        "import sys\n"
        "from lasergrav.cli import run\n"
        "out = sys.argv[1]\n"
        "codes = [run(['gpe', '--species', 'Na', '--ratio', '1.5', '--atoms',\n"
        "              '1e4', '--n', '256', '--out', f'{out}/full.json',\n"
        "              '--profile', f'{out}/profile.csv']),\n"
        "         run(['gpe', '--species', 'Na', '--ratio', '1.5', '--atoms',\n"
        "              '1e4', '--n', '256', '--kernel', 'newton',\n"
        "              '--out', f'{out}/newton.json'])]\n"
        f"print(codes, {_SCIPY_LOADED})\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def _modules_after(commands, prefix, tmp_path):
    """Exit codes of ``commands``, then the critical ratio and the
    oscillation onset, all run in one fresh process, and the modules named
    ``prefix*`` loaded after them."""
    script = (
        "import json, sys\n"
        "from lasergrav.cli import run\n"
        "from lasergrav.interaction import oscillation_onset\n"
        "from lasergrav.species import catalog_lookup\n"
        "from lasergrav.variational import critical_intensity_ratio\n"
        "codes = [run(argv + ['--out', f'{sys.argv[1]}/{i}.out'])\n"
        "         for i, argv in enumerate(json.loads(sys.argv[2]))]\n"
        "critical_intensity_ratio(catalog_lookup('Na'), 589e-9)\n"
        "oscillation_onset()\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.startswith(sys.argv[3]))]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), json.dumps(commands),
         prefix], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(commands)
    return loaded


def test_commands_without_pde_do_not_load_scipy(tmp_path):
    commands = [
        ["catalog"],
        ["potential", "--samples", "8"],
        ["threshold"],
        ["fig1a", "--ratios", "0.5,1.5", "--samples", "4"],
        ["fig1b", "--ratios", "0.9,1.5"],
        ["width-sweep", "--ratios", "1.5", "--no-tf"],
        ["phase-map", "--nx", "3", "--ny", "3"],
        ["fig2", "--points", "2"],
        ["losses"],
        ["atom-count", "--wavelength", "589e-9", "--rho-peak", "1e21"],
    ]
    assert _modules_after(commands, "scipy", tmp_path) == []


# every command but gpe, the PDE
_SCALAR_COMMANDS = [
    ["catalog"],
    ["potential", "--samples", "8"],
    ["potential", "--samples", "8", "--linear"],
    ["threshold"],
    ["fig1a", "--ratios", "0.5,1.5", "--samples", "4"],
    ["fig1b", "--ratios", "0.9,1.5"],
    ["width-sweep", "--ratios", "1.5"],
    ["width-sweep", "--ratios", "1.5", "--no-tf"],
    ["phase-map", "--nx", "3", "--ny", "3"],
    ["fig2", "--points", "2"],
    ["losses"],
    ["atom-count", "--wavelength", "589e-9", "--rho-peak", "1e21"],
]


def test_scalar_commands_do_not_load_numpy(tmp_path):
    # only the PDE (gpe) needs numpy; every other command, the import of
    # lasergrav.cli included, runs on Python floats
    assert _modules_after(_SCALAR_COMMANDS, "numpy", tmp_path) == []


def test_scalar_commands_do_not_load_dataclasses_or_inspect(tmp_path):
    # the value types are records: importing dataclasses (and inspect with
    # it) and building its methods cost every process about 28 ms
    loaded = _modules_after(_SCALAR_COMMANDS, "", tmp_path)
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_gpe_does_not_load_numpy_polynomial(tmp_path):
    # the J-table quadrature rule is stored, not computed by leggauss
    gpe_command = ["gpe", "--ratio", "1.5", "--n", "256"]
    assert _modules_after([gpe_command], "numpy.polynomial", tmp_path) == []


def test_cli_import_loads_only_the_shared_modules():
    # losses, regimes, gpe and json load in the branches that use them
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "before = set(sys.modules)\n"
         "import lasergrav.cli\n"
         "print(json.dumps(sorted(set(sys.modules) - before)))\n"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    for name in ("numpy", "lasergrav.losses", "lasergrav.regimes", "lasergrav.gpe",
                 "dataclasses", "inspect", "typing"):
        assert name not in loaded


def test_package_still_exports_the_pde_names():
    # the gpe names resolve on first access, loading numpy only then
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lasergrav\n"
         "assert 'numpy' not in sys.modules\n"
         "from lasergrav import solve_ground, RadialGrid\n"
         "from lasergrav.gpe import solve_ground as direct\n"
         "assert solve_ground is direct and 'numpy' in sys.modules\n"
         "print(RadialGrid.__name__)\n"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "RadialGrid"


def test_every_exported_name_resolves_to_its_home_module():
    import importlib

    import lasergrav
    assert len(lasergrav.__all__) == len(set(lasergrav.__all__)) == 63
    for name in lasergrav.__all__:
        home = importlib.import_module(f"lasergrav.{lasergrav._HOMES[name]}")
        value = getattr(lasergrav, name)
        assert value is getattr(home, name) and name in dir(lasergrav)
        assert getattr(value, "__module__", home.__name__) == home.__name__
    with pytest.raises(AttributeError):
        getattr(lasergrav, "no_such_name")


def test_threshold_static_sodium(tmp_path):
    out = tmp_path / "t.json"
    assert run(["threshold", "--species", "Na", "--static",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["I0_W_per_cm2"] == pytest.approx(5.65e9, rel=0.03)
    assert list(data) == ["species", "polarizability", "I0_W_per_m2",
                          "I0_W_per_cm2"]


def test_threshold_detuned_sodium(tmp_path):
    out = tmp_path / "t.json"
    assert run(["threshold", "--species", "Na", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["I0_W_per_m2"] == pytest.approx(2620.0, rel=0.10)


def test_catalog_lists_species(tmp_path):
    out = tmp_path / "catalog.json"
    assert run(["catalog", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"Na", "Rb87"}
    assert data["Na"]["detuned"]["dipole_moment"] == 2.1e-29


def test_potential_csv_format(tmp_path):
    out = tmp_path / "u.csv"
    assert run(["potential", "--samples", "50", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r_over_lambda,U_over_u_per_lambda"
    assert len(lines) == 51
    # scientific notation with 12 digits after the point
    first = lines[1].split(",")
    for cell in first:
        mantissa = cell.split("e")[0]
        assert len(mantissa.split(".")[1]) == 12


def _rows(count):
    return ({"i": i, "x": 0.5 * i, "even": i % 2 == 0} for i in range(count))


def test_emit_csv_writes_the_same_bytes_from_a_generator(tmp_path, capsys):
    listed, streamed = tmp_path / "list.csv", tmp_path / "stream.csv"
    emit_csv(list(_rows(1000)), str(listed))
    emit_csv(_rows(1000), str(streamed))
    assert streamed.read_bytes() == listed.read_bytes()
    assert listed.read_text().startswith("i,x,even\n0,0.000000000000e+00,true\n"
                                         "1,5.000000000000e-01,false\n")
    for path in (None, "-"):
        emit_csv(list(_rows(1000)), path)
        from_list = capsys.readouterr().out
        emit_csv(_rows(1000), path)
        assert capsys.readouterr().out == from_list == listed.read_text()


def test_emit_csv_holds_one_row_at_a_time(tmp_path):
    # rows, lines and the joined text of 1e5 rows, all held at once, took
    # tens of MB; written as they come they take the file buffer
    tracemalloc.start()
    try:
        emit_csv(_rows(100_000), str(tmp_path / "big.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert len((tmp_path / "big.csv").read_text().splitlines()) == 100_001


_EVERY_COMMAND = [
    ["catalog"],
    ["potential", "--samples", "64"],
    ["threshold"],
    ["fig1a", "--samples", "20"],
    ["fig1b", "--ratios", "1.1:1.5:0.2"],
    ["width-sweep", "--no-tf", "--ratios", "0.9,1.5"],
    ["phase-map", "--nx", "5", "--ny", "4"],
    ["fig2", "--points", "3"],
    ["gpe", "--ratio", "1.5", "--n", "256", "--profile", "profile.csv"],
    ["losses"],
    ["atom-count", "--wavelength", "589e-9", "--rho-peak", "1e21"],
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_outputs_are_byte_identical(tmp_path, monkeypatch, argv):
    # every file a command writes, gpe's profile included, comes out the
    # same on a second run
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run([*argv, "--out", "out"]) == 0
        runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert runs[0] == runs[1]
    assert len(runs[0]) == (2 if "--profile" in argv else 1)


def test_fig1b_width_column_decreases(tmp_path):
    out = tmp_path / "fig1b.csv"
    assert run(["fig1b", "--species", "Na", "--ratios", "1.1:2.0:0.3",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,w_star,bound"
    widths = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert all(line.split(",")[2] == "true" for line in lines[1:])


def test_fig1b_tags_unbound(tmp_path):
    out = tmp_path / "fig1b.csv"
    assert run(["fig1b", "--species", "Na", "--ratios", "0.9,1.5",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    first = lines[1].split(",")
    assert first[1] == "nan"
    assert first[2] == "false"


def test_exact_threshold_reads_unbound(tmp_path):
    # at I = I0 no TF state is bound; rounding must not make it an error
    fig1b, sweep = tmp_path / "fig1b.csv", tmp_path / "sweep.csv"
    assert run(["fig1b", "--ratios", "1,1.5", "--out", str(fig1b)]) == 0
    assert run(["width-sweep", "--ratios", "1", "--out", str(sweep)]) == 0
    rows = [line.split(",") for line in fig1b.read_text().splitlines()[1:]]
    assert rows[0][1:] == ["nan", "false"] and rows[1][2] == "true"
    row = sweep.read_text().splitlines()[1].split(",")
    assert row[1] == "nan" and row[3] == "false"


def test_fig1a_columns(tmp_path):
    out = tmp_path / "fig1a.csv"
    assert run(["fig1a", "--species", "Na", "--ratios", "0.5,1.5",
                "--samples", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("w,E_over_N_tf_units_ratio_0.5,"
                        "E_over_N_tf_units_ratio_1.5")
    assert len(lines) == 21


class _OneRowPipe:
    """A stdout that takes the header and one data row, then closes."""

    def __init__(self):
        self.lines = []

    def writelines(self, lines):
        for line in lines:
            self.lines.append(line)
            if len(self.lines) == 2:
                raise BrokenPipeError("pipe closed")


def test_fig1a_streams_its_rows(monkeypatch, capsys):
    # a row is computed as the sink asks for it: after the two end rows,
    # evaluated up front, only the first row is computed before the stop
    calls = []

    def counted(w, ratios):
        calls.append(w)
        return tf_energies(w, ratios)

    tf_energies = variational._tf_energies
    monkeypatch.setattr(variational, "_tf_energies", counted)
    pipe = _OneRowPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    assert run(["fig1a", "--ratios", "1.5", "--wmin", "0.1", "--wmax", "2",
                "--samples", "50"]) == 2
    assert pipe.lines[0] == "w,E_over_N_tf_units_ratio_1.5\n"
    assert calls[:2] == [0.1, 2.0] and len(calls) < 50
    assert capsys.readouterr().err == "lasergrav: pipe closed\n"


_DOMAIN = "must lie in [1e-76, 1e+40], got"


@pytest.mark.parametrize("argv, code, message", [pytest.param(*case, id=" ".join(case[0])) for case in (
    # a width outside variational's domain names its option, whatever --samples
    (["--wmin", "1e-120"], 2, f"--wmin {_DOMAIN} 1e-120"),
    (["--wmax", "1e200"], 2, f"--wmax {_DOMAIN} 1e+200"),
    (["--wmin", "1e200", "--wmax", "1e-120"], 2, f"--wmin {_DOMAIN} 1e+200"),
    (["--wmin", "2", "--wmax", "1e-120"], 2, f"--wmax {_DOMAIN} 1e-120"),
    (["--samples", "1", "--wmax", "1e200"], 2, f"--wmax {_DOMAIN} 1e+200"),
    # these once exited 0 with a wrong-signed row at 1e60 and a nan row
    (["--wmin", "1e45", "--wmax", "1e60", "--samples", "2"], 2, f"--wmin {_DOMAIN} 1e+45"),
    (["--wmax", "1e80"], 2, f"--wmax {_DOMAIN} 1e+80"),
    # a contact term S_c/(r w^3) that overflows fails at the smaller end,
    # evaluated before the file is opened; --ratios 1e-300 is finite there
    (["--ratios", "1e-308"], 1,
     "numerical failure: the contact term S_c/(r w^3) overflows at w = 0.05"),
    (["--ratios", "1e-308", "--wmin", "2", "--wmax", "0.05"], 1,
     "numerical failure: the contact term S_c/(r w^3) overflows at w = 0.05"),
    # r w^3 that underflows to 0 once failed as a bare "float division by zero"
    (["--ratios", "1e-300", "--wmin", "1e-9", "--samples", "2"], 1,
     "numerical failure: the contact term S_c/(r w^3) overflows at w = 1e-09"))])
def test_fig1a_end_row_failure_writes_nothing(argv, code, message, tmp_path,
                                              capsys):
    out = tmp_path / "fig1a.csv"
    assert run(["fig1a", "--ratios", "1.5", *argv, "--out", str(out)]) == code
    assert capsys.readouterr().err == f"lasergrav: {message}\n"
    assert not out.exists()


# routes to the one TF curve: every species, polarizability and wavelength
# prints the same bytes; K39 comes from a species file
_FIG1A_ROUTES = {
    "Na": [],
    "Na static 589 nm": ["--static", "--wavelength", "589e-9"],
    "Rb87 static 780 nm": ["--species", "Rb87", "--static", "--wavelength", "780e-9"],
    "Na 1064 nm": ["--wavelength", "1064e-9"],
    "K39 static 767 nm": ["--species", "K39", "--static", "--wavelength", "767e-9"],
}


@pytest.fixture
def k39_file(tmp_path, monkeypatch):
    species = tmp_path / "species.txt"
    species.write_text(
        "name = K39\nmass_kg = 6.4697e-26\na_m = 2e-9\nalpha_v_m3 = 42.9e-30\n")
    monkeypatch.setenv("LASERGRAV_SPECIES_FILE", str(species))
    return species


def _fig1a(tmp_path, *argv):
    """The fig1a CSV of ``argv``: the ratios of its columns, and its rows as floats."""
    out = tmp_path / "fig1a.csv"
    assert run(["fig1a", *argv, "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    ratios = [float(key.rsplit("_", 1)[1]) for key in header.split(",")[1:]]
    return ratios, [[float(cell) for cell in line.split(",")] for line in lines]


def test_fig1a_prints_one_curve_for_every_species(tmp_path, k39_file):
    files = set()
    for name, route in _FIG1A_ROUTES.items():
        out = tmp_path / f"{name}.csv"
        assert run(["fig1a", *route, "--out", str(out)]) == 0
        files.add(out.read_bytes())
    assert len(files) == 1


@pytest.mark.parametrize("route", ["Na", "Rb87 static 780 nm", "K39 static 767 nm"])
def test_fig1a_matches_the_joule_route(route, tmp_path, k39_file):
    # the curve in TF units against E/N in joules over N u/lam, per species
    argv = _FIG1A_ROUTES[route]
    args = build_parser().parse_args(["fig1a", *argv])
    species = SpeciesTable(str(k39_file))[args.species]
    lam = args.wavelength or species.laser_wavelength(args.detuned)
    ratios, rows = _fig1a(tmp_path, *argv)
    for r, column in zip(ratios, list(zip(*rows))[1:]):
        cfg = variational.config_at_ratio(species, r, lam, use_detuned=args.detuned,
                                          tf_limit=True)
        joules = [variational.total_energy(w, cfg) / variational.tf_energy_unit(cfg)
                  for w in _linspace(0.05, 2.0, 200)]
        assert list(column) == pytest.approx(joules, rel=2e-12, abs=0.0)


@pytest.mark.parametrize("ratio, wmin, samples, quoted", [
    # the coupling r I0 overflowed to inf and every cell read nan
    ("1e306", 0.05, 2, {}),
    # the energy in joules overflowed to -inf at w = 1e-76
    ("1e300", 1e-76, 2, {1e-76: -3.989422804014e+75}),
    # the coupling underflowed to 0 and the run failed
    ("1e-300", 0.05, 200, {0.05: 6.430662008789e+301, 2.0: 1.004790938873e+297})])
def test_fig1a_cells_are_the_formula_at_extreme_ratios(ratio, wmin, samples, quoted,
                                                       tmp_path):
    (r,), rows = _fig1a(tmp_path, "--ratios", ratio, "--wmin", str(wmin),
                        "--samples", str(samples))
    widths = list(_linspace(wmin, 2.0, samples))
    assert [row[0] for row in rows] == [float(f"{w:.12e}") for w in widths]
    for w, (_, cell) in zip(widths, rows):
        formula = (variational.CONTACT_AT_THRESHOLD / (r * w**3)
                   + variational.pair_energy(w) / 2)
        assert math.isfinite(cell) and f"{cell:.12e}" == f"{formula:.12e}"
        if w in quoted:
            assert cell == pytest.approx(quoted[w], rel=1e-12, abs=0.0)


def test_fig1a_needs_no_energy_in_joules(tmp_path, monkeypatch):
    monkeypatch.setattr(variational, "total_energy", _must_not_run)
    monkeypatch.setattr(variational, "tf_energy_unit", _must_not_run)
    ratios, rows = _fig1a(tmp_path)
    assert ratios == [0.5, 0.8, 1.0, 1.2, 1.5, 2.0] and len(rows) == 200


def test_fig1a_minimum_is_the_fig1b_width(tmp_path):
    # on a grid of step 5e-4 the lowest sample of each bound curve sits within
    # a step of fig1b's w*; without a minimum (r <= 1) the curve falls to wmax
    ratios, rows = _fig1a(tmp_path, "--ratios", "0.8,1,1.1,1.5,2,5,20",
                          "--wmin", "0.04", "--wmax", "1.5", "--samples", "2921")
    fig1b = tmp_path / "fig1b.csv"
    assert run(["fig1b", "--ratios", "0.8,1,1.1,1.5,2,5,20", "--out", str(fig1b)]) == 0
    w_star = [float(line.split(",")[1]) for line in fig1b.read_text().splitlines()[1:]]
    for k, (r, w) in enumerate(zip(ratios, w_star), start=1):
        lowest = min(rows, key=lambda row: row[k])[0]
        if r > 1.0:
            assert abs(lowest - w) <= 5e-4, r
        else:
            assert math.isnan(w) and lowest == 1.5, r


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every `lasergrav ...` line of README's CLI block, one per subcommand at
    # least, exits 0; files they write land in tmp_path
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text[text.index("## CLI"):].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("lasergrav ")]
    assert {argv[0] for argv in examples} == set(_SUBCOMMANDS)
    monkeypatch.chdir(tmp_path)
    failed = [argv for argv in examples if run(argv) != 0]
    assert failed == [], capsys.readouterr().err


def test_fig2_schema(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run(["fig2", "--species", "Na", "--points", "3",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda_m,N_low,N_high"
    assert len(lines) == 4


def test_phase_map_runs(tmp_path):
    out = tmp_path / "map.csv"
    assert run(["phase-map", "--species", "Na", "--nx", "9", "--ny", "7",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,label"
    assert len(lines) == 1 + 9 * 7


def test_losses_json(tmp_path):
    out = tmp_path / "losses.json"
    assert run(["losses", "--species", "Na", "--ratio", "1.5", "--n", "40",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["gamma_ray"] == pytest.approx(1.58e4, rel=0.05)
    assert data["repulsion_negligible"] is True
    assert data["omega_p_over_gamma_ray"] == pytest.approx(20.0, rel=0.4)


def test_atom_count(tmp_path):
    out = tmp_path / "n.json"
    assert run(["atom-count", "--species", "Na", "--wavelength", "589e-9",
                "--rho-peak", "1e21", "--ratio", "1.5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert 20.0 <= data["N"] <= 60.0


@pytest.mark.parametrize("wavelength, rho, ratio, n_atoms", [
    ("589e-9", "1e22", "1.5", 863.53896484), ("1e-6", "1e22", "3", 293.78669644),
    ("5e-6", "1e20", "1.5", 6202.9700041),
    ("589e-9", "1e22", "1.000000000001", 2.2599460350e20)])
def test_atom_count_self_consistent(wavelength, rho, ratio, n_atoms, tmp_path):
    # bound clouds of this peak density the fixed-point iteration missed; the
    # last, near threshold, once failed in the verifying minimization
    out = tmp_path / "n.json"
    assert run(["atom-count", "--species", "Na", "--wavelength", wavelength,
                "--rho-peak", rho, "--ratio", ratio, "--self-consistent",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["N"] == pytest.approx(n_atoms, rel=1e-10, abs=0.0)


def test_atom_count_self_consistent_unbinds(capsys):
    assert run(["atom-count", "--species", "Na", "--wavelength", "589e-9",
                "--rho-peak", "1e21", "--ratio", "1.5", "--self-consistent"]) == 1
    assert capsys.readouterr().err == (
        "lasergrav: kinetic pressure unbinds the cloud near N = 551; "
        "no self-consistent capacity at I/I0 = 1.5\n")


def test_atom_count_self_consistent_past_the_width_domain(capsys):
    assert run(["atom-count", "--species", "Na", "--wavelength", "589e-9",
                "--rho-peak", "1e-300", "--ratio", "1.5", "--self-consistent"]) == 1
    assert capsys.readouterr().err == (
        "lasergrav: numerical failure: no self-consistent capacity at rho = 1e-300 m^-3, "
        "I/I0 = 1.5: w lies past 1e+40\n")


def test_atom_count_unbound_is_numerical_failure(tmp_path):
    proc = _run_cli("atom-count", "--species", "Na", "--wavelength", "589e-9",
                    "--rho-peak", "1e21", "--ratio", "0.5")
    assert proc.returncode == 1
    assert "no bound" in proc.stderr


def test_losses_unbound_is_numerical_failure():
    proc = _run_cli("losses", "--species", "Na", "--ratio", "0.5")
    assert proc.returncode == 1
    assert "no bound" in proc.stderr


_CAPACITY = ["atom-count", "--wavelength", "589e-9", "--rho-peak", "1e21"]


@pytest.mark.parametrize("argv, message", [
    ([*_CAPACITY, "--ratio", "-1"], "intensity ratios must be non-negative"),
    ([*_CAPACITY, "--wavelength=-5e-7"], "wavelength must be positive, got -5e-07"),
    ([*_CAPACITY, "--species", "Rb87"], "species 'Rb87' has no detuned context"),
    (["losses", "--n", "0.5"], "need at least one atom, got 0.5"),
    (["losses", "--wavelength=-5e-7"], "wavelength must be positive, got -5e-07"),
])
def test_tf_capacity_and_losses_reject_invalid_inputs(argv, message, capsys):
    # usage errors (exit 2), not an unbound cloud or a capacity of any sign
    assert run(argv) == 2
    assert capsys.readouterr().err == f"lasergrav: {message}\n"


def test_atom_count_needs_a_threshold(tmp_path, capsys):
    # I/I0 has no meaning without contact repulsion
    species = tmp_path / "species.txt"
    species.write_text("name = Free\nmass_kg = 3.8175e-26\na_m = 0\n"
                       "alpha_v_m3 = 24.1e-30\n")
    assert run(["atom-count", "--species", "Free", "--species-file", str(species),
                "--static", "--wavelength", "589e-9", "--rho-peak", "1e21"]) == 2
    assert "non-positive scattering length" in capsys.readouterr().err


_K39 = "name = K39\nmass_kg = 6.4697e-26\na_m = 2e-9\nalpha_v_m3 = 42.9e-30\n"
_K39_DETUNED = (f"{_K39}detuned_transition_wavelength_m = 766.7e-9\n"
                "detuned_delta_rad_s = 1e10\ndetuned_gamma_rad_s = 3.8e7\n"
                "detuned_d_Cm = 2.1e-29\ndetuned_alpha_v_m3 = 3e-24\n")


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    (f"{_K39}\n{_K39}", "line 6: species 'K39' is defined twice"),
    ("name = K39\nmass_kg = heavy\n", "line 2: value for 'mass_kg' is not a number"),
    (_K39.replace("6.4697e-26", "inf"), "line 2: value for 'mass_kg' must be finite, got inf"),
    (_K39.replace("6.4697e-26", "0"), "record ending at line 4: mass must be positive"),
    (_K39_DETUNED.replace("3e-24", "0"), "record ending at line 9: detuned "
                                         "polarizability volume must be non-zero, got 0.0"),
    (_K39_DETUNED.replace("766.7e-9", "-6e-7"), "record ending at line 9: detuned "
                                                "transition wavelength must be positive, "
                                                "got -6e-07"),
    (_K39.replace("a_m", "mass_kg = 1e-25\na_m"), "line 3: duplicate key 'mass_kg'")],
    ids=["missing", "duplicate name", "malformed", "infinite", "out of range",
         "detuned zero polarizability", "detuned negative wavelength", "duplicate key"])
@pytest.mark.parametrize("via", ["option", "environment"])
def test_bad_species_files_are_usage_errors(tmp_path, capsys, monkeypatch, text,
                                            message, via):
    species = tmp_path / "species.txt"
    if text is not None:
        species.write_text(text)
    argv = ["threshold", "--species", "K39", "--static"]
    if via == "option":
        argv += ["--species-file", str(species)]
    else:
        monkeypatch.setenv("LASERGRAV_SPECIES_FILE", str(species))
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("lasergrav: ") and message in err
    assert str(species) in err


def test_unknown_species_lists_the_whole_table(tmp_path, capsys):
    species = tmp_path / "species.txt"
    species.write_text(_K39)
    assert run(["threshold", "--species", "K40", "--species-file", str(species)]) == 2
    assert capsys.readouterr().err == (
        "lasergrav: unknown species 'K40'; known species: ['K39', 'Na', 'Rb87']\n")


@pytest.mark.parametrize("argv", [["catalog"], ["catalog", "--species", "K39"],
                                  ["threshold", "--species", "K39", "--static"]],
                         ids=" ".join)
def test_species_file_is_read_once_per_run(tmp_path, monkeypatch, argv):
    species = tmp_path / "species.txt"
    species.write_text(_K39)
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert run([*argv, "--species-file", str(species),
                "--out", str(tmp_path / "out.json")]) == 0
    assert opened.count(str(species)) == 1


def test_gpe_missing_intensity_is_usage_error():
    proc = _run_cli("gpe", "--species", "Na")
    assert proc.returncode == 2
    assert "--ratio or --intensity" in proc.stderr


@pytest.mark.parametrize("route", [["--static"], ["--species", "Rb87"]],
                         ids=" ".join)
@pytest.mark.parametrize("command", [["fig1a"], ["fig1b"], ["width-sweep"],
                                     ["gpe", "--ratio", "1.5"], ["losses"]],
                         ids=lambda argv: argv[0])
def test_missing_wavelength_is_usage_error(command, route, capsys):
    # only the detuned route of a species with a transition wavelength has a
    # default wavelength; every command reports the gap the same way
    assert run([*command, *route]) == 2
    assert "--wavelength" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started on a rejected input")


def test_gpe_below_threshold_without_box_is_numerical_failure(capsys,
                                                              monkeypatch):
    # no bound variational state gives no radius to size the grid by; the
    # solve would only find the cloud the Dirichlet wall holds
    monkeypatch.setattr(gpe, "_MeanField", _must_not_run)
    assert run(["gpe", "--species", "Na", "--ratio", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "no bound" in err and "--rmax" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0])) for case in (
    (["gpe", "--ratio", "0"], None),
    (["gpe", "--intensity", "0"], None),
    (["phase-map", "--nx", "1"], None),
    (["phase-map", "--ny", "1"], None),
    # NaN fails every range check: no nan rows and no false "unbound"
    (["fig1a", "--ratios", "nan"], None),
    (["fig1b", "--ratios", "nan"], None),
    (["width-sweep", "--no-tf", "--atoms", "nan"], None),
    (["potential", "--rmin", "nan"], None),
    ([*_CAPACITY, "--ratio", "nan"], None),
    (["gpe", "--ratio", "1.5", "--trap", "nan"], None),
    (["gpe", "--ratio", "nan"], None),
    (["losses", "--ratio", "nan"], None),
    (["fig2", "--ratio", "nan"], None),
    (["fig2", "--rho-low", "nan"], None),
    # the ends of a log axis are named, not reported as a math domain error
    (["potential", "--rmin", "0"], "--rmin must be positive, got 0"),
    (["potential", "--rmax=-3"], "--rmax must be positive, got -3"),
    (["potential", "--linear", "--rmin", "0"], "--rmin must be positive, got 0"),
    (["fig2", "--lambda-min", "0"], "--lambda-min must be positive, got 0"),
    (["fig2", "--lambda-max=-1"], "--lambda-max must be positive, got -1"),
    (["fig1a", "--wmin", "0"], "--wmin must be positive, got 0"),
    (["fig1a", "--wmin", "1", "--wmax=-1", "--samples", "3"],
     "--wmax must be positive, got -1"),
    (["fig1b", "--ratios", "2:1:0.1"], "ratio range '2:1:0.1' holds no value"),
    (["fig1b", "--ratios", "1:2"], "ratio range '1:2' must be start:stop:step"),
    (["fig1b", "--ratios", "1:2:3:4"], "ratio range '1:2:3:4' must be start:stop:step"),
    # a field that is no number, or none at all, names the option
    (["fig1b", "--ratios", "abc"], "--ratios must be numbers, got 'abc'"),
    (["fig1b", "--ratios", "1::0.1"], "--ratios must be numbers, got '1::0.1'"),
    (["fig1a", "--ratios", "1.5,"], "--ratios must be numbers, got '1.5,'"),
    # ratios that print one column name once shared it, the later curve kept
    (["fig1a", "--ratios", "1,1.000000001"],
     "--ratios must differ in their first 6 significant digits"),
    (["fig1a", "--ratios", "1.5,1.5"],
     "--ratios must differ in their first 6 significant digits"),
    (["gpe", "--ratio", "1.5", "--n", "100"], "--n must be at least 256, got 100"))])
def test_degenerate_inputs_are_usage_errors(argv, message, capsys, monkeypatch):
    # rejected before the solve or the first classification starts
    monkeypatch.setattr(gpe, "solve_ground", _must_not_run)
    monkeypatch.setattr(regimes, "classify", _must_not_run)
    monkeypatch.setattr(regimes, "atom_capacity", _must_not_run)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lasergrav: ") and "Traceback" not in err
    if message is not None:
        assert err == f"lasergrav: {message}\n"


@pytest.mark.parametrize("argv, option", [pytest.param(*case, id=" ".join(case[0])) for case in (
    (["atom-count", "--wavelength", "1e-6", "--rho-peak", "inf"], "--rho-peak"),
    (["width-sweep", "--no-tf", "--atoms", "inf", "--ratios", "1.5"], "--atoms"),
    (["gpe", "--ratio", "1.5", "--atoms", "inf"], "--atoms"),
    (["gpe", "--ratio", "1.5", "--rmax", "inf"], "--rmax"),
    (["fig1b", "--ratios", "1:inf:0.1"], "--ratios"),
    (["fig1b", "--ratios", "1:nan:0.1"], "--ratios"),
    (["fig1b", "--ratios", "1.5,inf"], "--ratios"),
    (["losses", "--n", "inf"], "--n"))])
def test_non_finite_inputs_are_usage_errors(argv, option, capsys, monkeypatch):
    # no Infinity in the JSON, no nan rows, no false "unbound" and no raw
    # conversion message: the option is named before any work starts
    monkeypatch.setattr(gpe, "solve_ground", _must_not_run)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"lasergrav: {option} must be finite") and "Traceback" not in err


def test_fig1a_without_light_is_usage_error(capsys):
    # the curves are in units of N u/lam, which vanish at I/I0 = 0
    assert run(["fig1a", "--ratios", "0,1.5"]) == 2
    assert capsys.readouterr() == (
        "", "lasergrav: intensity must be non-zero: without light nothing binds\n")


@pytest.mark.parametrize("argv", [["fig1b", "--ratios", "1:0:0.1"],
                                  ["fig2", "--points", "0"],
                                  ["potential", "--samples", "0"],
                                  ["fig1a", "--samples", "-1"]], ids=" ".join)
def test_empty_sweeps_are_usage_errors(argv, tmp_path):
    # a sweep with no rows would leave a CSV without even a header
    out = tmp_path / "empty.csv"
    proc = _run_cli(*argv, "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_fig1b_is_a_projection_of_width_sweep(tmp_path):
    ratios = "0,1,1.0001,1.5,1000"
    fig1b, sweep = tmp_path / "fig1b.csv", tmp_path / "sweep.csv"
    assert run(["fig1b", "--ratios", ratios, "--out", str(fig1b)]) == 0
    assert run(["width-sweep", "--atoms", "1", "--ratios", ratios,
                "--out", str(sweep)]) == 0
    rows = [line.split(",") for line in sweep.read_text().splitlines()]
    cols = [rows[0].index(k) for k in ("ratio", "w_star", "bound_local")]
    projected = [",".join(row[i] for i in cols) for row in rows[1:]]
    assert fig1b.read_text().splitlines()[1:] == projected
    assert [row.split(",")[2] for row in projected] == \
        ["false", "false", "true", "true", "true"]

    zero = tmp_path / "zero.csv"
    assert run(["fig1b", "--ratios", "0", "--out", str(zero)]) == 0
    assert zero.read_text().splitlines()[1] == "0.000000000000e+00,nan,false"
    for command in ("fig1b", "width-sweep"):
        assert run([command, "--ratios", "1.5,-1"]) == 2


def test_tf_sweeps_reach_the_edges_of_the_ratio_axis(tmp_path):
    # w* ~ 2231 wavelengths just above threshold, ~8e-7 at 1e11: one bound
    # TF root each, with no width grid to fall off
    ratios = "1.00000001,1e10,1e11"
    fig1b, sweep = tmp_path / "fig1b.csv", tmp_path / "sweep.csv"
    assert run(["fig1b", "--ratios", ratios, "--out", str(fig1b)]) == 0
    assert run(["width-sweep", "--ratios", ratios, "--out", str(sweep)]) == 0
    rows = [line.split(",") for line in fig1b.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == ["true"] * 3
    widths = [float(row[1]) for row in rows]
    assert widths == sorted(widths, reverse=True) and widths[-1] > 0.0
    lines = sweep.read_text().splitlines()
    bound = lines[0].split(",").index("bound_local")
    assert [line.split(",")[bound] for line in lines[1:]] == ["true"] * 3


def test_ratios_past_double_range_are_numerical_failures(capsys):
    # w* ~ 0.2459/sqrt(r) leaves double range, and the loss rates overflow
    # long before that; either way the answer is a failure, not a traceback
    assert run(["fig1b", "--ratios", "1e200"]) == 1
    assert run(["losses", "--ratio", "1e100"]) == 1
    assert capsys.readouterr().err.count("numerical failure") == 2


def test_fig1b_widths_are_the_same_for_every_species(tmp_path):
    # in TF units the width depends on I/I0 alone
    na, rb = tmp_path / "na.csv", tmp_path / "rb.csv"
    assert run(["fig1b", "--out", str(na)]) == 0
    assert run(["fig1b", "--species", "Rb87", "--static", "--wavelength",
                "780e-9", "--out", str(rb)]) == 0
    w_star = [[line.split(",")[1]
               for line in path.read_text().splitlines()[1:]]
              for path in (na, rb)]
    assert len(w_star[0]) == 40
    assert w_star[0] == w_star[1]


def test_config_file_preloads_flags(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("species = Na\nstatic = true\n")
    out = tmp_path / "t.json"
    assert run(["--config", str(config), "threshold", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["polarizability"] == "static"
    # explicit flags override the config file
    assert run(["--config", str(config), "threshold", "--detuned",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["polarizability"] == "detuned"


@pytest.mark.parametrize("lines, argv, message", [
    ("species = Na\nstatic\n", ["threshold"], "line 2: expected key=value"),
    # the comment line is skipped, so the bad line is the third
    ("# no key here\nspecies = Na\nstatic\n", ["threshold"], "line 3: expected key=value"),
    ("species = Na\n", [], "--config given without a subcommand")],
    ids=["line without =", "comment line", "no subcommand"])
def test_config_file_errors_are_usage_errors(tmp_path, capsys, lines, argv,
                                             message):
    config = tmp_path / "run.cfg"
    config.write_text(lines)
    with pytest.raises(SystemExit) as exit_info:
        run(["--config", str(config), *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    config = tmp_path / "absent.cfg"
    assert run(["--config", str(config), "threshold"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(config) in err and "Traceback" not in err


def test_species_file_from_environment(tmp_path, monkeypatch):
    species = tmp_path / "species.txt"
    species.write_text(
        "name = Custom\nmass_kg = 3.8175e-26\na_m = 2.75e-9\n"
        "alpha_v_m3 = 24.1e-30\n")
    monkeypatch.setenv("LASERGRAV_SPECIES_FILE", str(species))
    out = tmp_path / "t.json"
    assert run(["threshold", "--species", "Custom", "--static",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    # same constants as catalog sodium, so the same threshold
    assert data["I0_W_per_cm2"] == pytest.approx(5.65e9, rel=0.03)


def test_catalog_reads_species_file_from_environment(tmp_path, monkeypatch):
    # catalog looks species up the way every other command does
    species = tmp_path / "species.txt"
    species.write_text(
        "name = K39\nmass_kg = 6.4697e-26\na_m = 2e-9\nalpha_v_m3 = 42.9e-30\n")
    monkeypatch.setenv("LASERGRAV_SPECIES_FILE", str(species))
    out = tmp_path / "c.json"
    assert run(["catalog", "--species", "K39", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["K39"]["mass"] == 6.4697e-26
    assert run(["threshold", "--species", "K39", "--static",
                "--out", str(tmp_path / "t.json")]) == 0
    # and lists it with the catalog's own species
    assert run(["catalog", "--out", str(out)]) == 0
    listed = json.loads(out.read_text())
    assert list(listed) == ["K39", "Na", "Rb87"]
    assert listed["K39"]["mass"] == 6.4697e-26


def test_subcommand_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["fig1b", "--help"])
    assert exit_info.value.code == 0
    assert "(default: 1.1:5:0.1)" in " ".join(capsys.readouterr().out.split())


_SUBCOMMANDS = build_parser()._subparsers._group_actions[0].choices


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_every_option_has_help_stating_its_default_once(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--help"])
    assert exit_info.value.code == 0
    options = capsys.readouterr().out.split("options:\n")[1]
    # one entry per option: its first line starts "  -", the rest indent deeper
    entries = [" ".join(e.split()) for e in re.split(r"\n(?=  -)", options)]
    subparser = _SUBCOMMANDS[command]
    assert all(action.help for action in subparser._actions), command
    assert len(entries) == len(subparser._actions)
    for entry in entries:
        assert entry.count("default") <= 1, f"{command} {entry}"
        for wrong in ("(default: None)", "(default: True)", "(default: False)"):
            assert wrong not in entry, f"{command} {entry}"
    if command == "gpe":  # the grid's floor is the solver's own
        assert f"grid points, at least {gpe.MIN_POINTS} " in " ".join(entries)


# the only places where a subcommand's shared option differs from the table
_SHARED_OVERRIDES = {
    ("fig1a", "--ratios"): {"default": "0.5,0.8,1.0,1.2,1.5,2.0"},
    ("atom-count", "--wavelength"): {"required": True, "help": "laser wavelength in m"},
    ("gpe", "--ratio"): {"default": None, "help": "intensity as I/I0"},
}


def test_shared_options_match_their_one_declaration():
    # a second declaration of a shared option would drift from the table
    takers = {flag: [] for flag in _SHARED}
    for command, subparser in _SUBCOMMANDS.items():
        for action in subparser._actions:
            flag = action.option_strings[0]
            if flag not in _SHARED:
                continue
            takers[flag].append(command)
            expected = {"type": None, "default": None, "required": False,
                        **_SHARED[flag], **_SHARED_OVERRIDES.get((command, flag), {})}
            assert {key: getattr(action, key) for key in expected} == expected, \
                f"{command} {flag}"
    assert all(len(commands) > 1 for commands in takers.values()), takers
    for flag in ("--out", "--seed", "--plot-script"):
        assert takers[flag] == list(_SUBCOMMANDS)
    assert all(command in takers[flag] for command, flag in _SHARED_OVERRIDES)


# the commands that take the species group: the species, its file and the
# polarizability route
_SPECIES_COMMANDS = ("threshold", "fig1a", "fig1b", "width-sweep", "phase-map", "fig2",
                     "gpe", "losses", "atom-count")


def test_species_group_is_on_exactly_the_species_commands():
    # one declaration of the group: the same dest, default and help on each
    # command that takes it, and on no other; catalog lists every species
    # unless one is named
    expected = {
        "--species": {"dest": "species", "default": "Na",
                      "help": f"species name (catalog: {', '.join(catalog_names())})"},
        "--species-file": {"dest": "species_file", "default": None,
                           "help": _SHARED["--species-file"]["help"]},
        "--detuned": {"dest": "detuned", "default": True, "const": True,
                      "help": "use the near-resonant polarizability (default)"},
        "--static": {"dest": "detuned", "default": True, "const": False,
                     "help": "use the static polarizability"},
    }
    assert set(_SPECIES_COMMANDS) < set(_SUBCOMMANDS)
    for command, subparser in _SUBCOMMANDS.items():
        actions = {action.option_strings[0]: action for action in subparser._actions}
        if command == "catalog":
            species = actions["--species"]
            assert (species.dest, species.default) == ("species", None)
            assert "--detuned" not in actions and "--static" not in actions
            continue
        taken = [flag for flag in expected if flag in actions]
        assert taken == (list(expected) if command in _SPECIES_COMMANDS else []), command
        for flag in taken:
            assert {key: getattr(actions[flag], key) for key in expected[flag]} \
                == expected[flag], f"{command} {flag}"


def test_width_sweep_answers_where_the_minimum_lies_past_the_old_grid(tmp_path):
    # a trap this weak puts the kinetic-trap balance at 2.8e3 wavelengths,
    # past the fixed [1e-6, 1e3] grid that once failed here: a bound row at
    # the minimum of a dense dE/dw scan
    out = tmp_path / "sweep.csv"
    assert run(["width-sweep", "--species", "Na", "--no-tf", "--trap", "1e-3",
                "--ratios", "0.5", "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    row = dict(zip(header, row))
    assert row["bound_local"] == "true"
    cfg = variational.config_at_ratio(SpeciesTable()["Na"], 0.5, 589e-9, n_atoms=1e4,
                                      use_detuned=True, trap_frequency=1e-3)
    (w_scan, _, _), = scanned_minima(cfg)
    assert float(row["w_star"]) == pytest.approx(w_scan, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("ratio, atoms, bound", [("1e12", "1", "true"),
                                                 ("1.000000001", "1e15", "false")])
def test_width_sweep_no_tf_answers_at_both_ends_of_the_old_grid(ratio, atoms, bound, capsys):
    # each once exited 1 with "width minimum outside [1e-6, 1e3] wavelengths"
    assert run(["width-sweep", "--species", "Na", "--no-tf", "--ratios", ratio,
                "--atoms", atoms]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1].split(",")[3] == bound


@pytest.mark.parametrize("argv, total", [
    (["--no-tf", "--ratios", "1.0000000000000002", "--atoms", "1e30"], -4.14127290157023e-41),
    (["--ratios", "1.000000000001", "--atoms", "1e8"], -5.63844409328843e-54)])
def test_width_sweep_total_keeps_its_digits_near_threshold(argv, total, capsys):
    # swave_J and gravitational_J cancel to O(w^-5); summed in joules the
    # totals once read +1.836709923160e-40 (bound_global false) and
    # -5.630624050707e-54.  The references are 150-digit mpmath values.
    assert run(["width-sweep", *argv]) == 0
    header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
    row = dict(zip(header, row))
    assert row["bound_global"] == "true"
    assert float(row["total_J"]) == pytest.approx(total, rel=1e-12, abs=0.0)


def test_width_sweep_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["width-sweep", "--species", "Na", "--ratios", "0.9,1.5",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("ratio,w_star,r_rms_m,bound_local,bound_global")
    unbound = lines[1].split(",")
    assert unbound[3] == "false"
    assert unbound[5] == "nan"  # kinetic_J column for the unbound row
    bound = lines[2].split(",")
    assert bound[3] == "true" and bound[4] == "true"


def test_gpe_subcommand_with_profile(tmp_path):
    out = tmp_path / "gpe.json"
    profile = tmp_path / "profile.csv"
    assert run(["gpe", "--species", "Na", "--ratio", "1.5",
                "--atoms", "1e4", "--n", "256", "--out", str(out),
                "--profile", str(profile)]) == 0
    data = json.loads(out.read_text())
    assert data["r_rms_m"] / 589e-9 == pytest.approx(0.393, rel=0.05)
    # the solver's per-term energies as they are; mu is mu_J alone
    assert list(data["energies_J"]) == ["kinetic", "trap", "swave",
                                        "gravitational", "total"]
    assert data["energies_J"]["gravitational"] < 0.0
    assert data["mfa_validity"]["dilute_ok"] is True
    lines = profile.read_text().splitlines()
    assert lines[0] == "R_m,psi,rho_m3,phi_J"
    assert len(lines) == 257


def test_gpe_profile_builds_one_hartree_operator(tmp_path, monkeypatch):
    # the solve and the phi_J column of the profile share one Hartree
    # operator and the J table it is built from
    built = []

    class Counted(gpe._HartreeOperator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(gpe, "_HartreeOperator", Counted)
    assert run(["gpe", "--species", "Na", "--ratio", "1.5", "--atoms", "1e4",
                "--n", "256", "--out", str(tmp_path / "gpe.json"),
                "--profile", str(tmp_path / "profile.csv")]) == 0
    assert len(built) == 1


def test_gpe_profile_is_the_dict_row_csv_across_chunks(tmp_path, monkeypatch):
    # the profile formats 4,096-row chunks of its columns through one row
    # template; over two chunks, with a nan cell, it is the CSV that
    # emit_csv writes from one dict per row of the same state
    solve, solved = gpe.solve_ground, []

    def solve_ground(*args):
        state = solve(*args)
        potential = state.potential.copy()
        potential[4096] = math.nan  # the first row of the second chunk
        solved.append(state.replace(potential=potential))
        return solved[-1]

    monkeypatch.setattr(gpe, "solve_ground", solve_ground)
    profile, rows = tmp_path / "profile.csv", tmp_path / "rows.csv"
    assert run(["gpe", "--ratio", "1.5", "--n", "5000", "--out", str(tmp_path / "gpe.json"),
                "--profile", str(profile)]) == 0
    state, = solved
    emit_csv(({"R_m": float(r), "psi": float(p), "rho_m3": float(d), "phi_J": float(ph)}
              for r, p, d, ph in zip(state.grid.nodes, state.psi, state.density,
                                     state.potential)), str(rows))
    lines = profile.read_text().splitlines()
    assert len(lines) == 5000 + 1 and lines[4097].endswith(",nan")
    assert profile.read_bytes() == rows.read_bytes()


@pytest.mark.parametrize("argv, n_points", [pytest.param(*case, id=" ".join(case[0])) for case in (
    # every box that 512 points resolved keeps them
    (["--ratio", "1.5"], 512),
    (["--ratio", "1.5", "--kernel", "newton", "--rmax", "4e-5"], 512),
    # a wider box needs more points for a spacing of lam/40
    (["--ratio", "1.0", "--trap", "628", "--rmax", "2e-5"], 1359),
    (["--ratio", "1.5", "--n", "300"], 300))])
def test_gpe_default_grid_resolves_the_kernel(argv, n_points, monkeypatch):
    class Solved(Exception):
        pass

    def mean_field(problem, grid):
        raise Solved(grid.n_points)

    monkeypatch.setattr(gpe, "_MeanField", mean_field)
    with pytest.raises(Solved) as solved:
        run(["gpe", "--species", "Na", *argv])
    assert solved.value.args == (n_points,)


def test_gpe_runs_one_variational_solve(tmp_path, monkeypatch):
    # the one variational solve sizes the box and sets the solver's start:
    # every width minimization, by any entry point, runs _minima once
    calls = []
    minima = variational._minima

    def counted(problem):
        calls.append(problem)
        return minima(problem)

    monkeypatch.setattr(variational, "_minima", counted)
    assert run(["gpe", "--species", "Na", "--ratio", "1.5", "--atoms", "1e4",
                "--n", "256", "--out", str(tmp_path / "gpe.json")]) == 0
    assert len(calls) == 1


def test_gpe_default_grid_stops_growing(capsys):
    # a box that needs more than the default grid's 65,536 points (67,912
    # here) is a usage error, raised as the Hartree operator is built
    assert run(["gpe", "--species", "Na", "--ratio", "1.5", "--rmax", "1e-3"]) == 2
    assert "too coarse" in capsys.readouterr().err


def test_resolve_intensity_accepts_absolute_value(na):
    args = argparse.Namespace(ratio=None, intensity=262.0, unit="mW/cm^2",
                              detuned=True)
    intensity, ratio = _resolve_intensity(args, na)
    assert intensity == pytest.approx(2620.0, rel=1e-12)
    assert ratio == pytest.approx(1.0, rel=0.01)
    args = argparse.Namespace(ratio=1.5, intensity=None, unit="W/m^2",
                              detuned=True)
    intensity, ratio = _resolve_intensity(args, na)
    assert ratio == 1.5
    assert intensity == pytest.approx(1.5 * 2623.4, rel=0.01)


@pytest.mark.parametrize("start, stop, num", [
    (1e-3, 3.0, 600), (0.05, 2.0, 200), (-3.0, math.log10(3.0), 600),
    (math.log10(0.4e-6), math.log10(20e-6), 20), (0.1, 0.7, 7),
    (2.5, 2.5, 1), (2.5, 0.5, 1), (2.5, 2.5, 5), (3.0, -1.0, 9),
    (-2.0, -7.0, 101), (1e-300, 1e300, 3)])
def test_linspace_matches_numpy_bit_for_bit(start, stop, num):
    expected = np.linspace(start, stop, num)
    got = list(_linspace(start, stop, num))
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == expected.tobytes()


def test_parse_ratio_spec_forms():
    assert _parse_ratio_spec("1.1,2.5") == [1.1, 2.5]
    values = _parse_ratio_spec("1.0:2.0:0.5")
    assert values == pytest.approx([1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        _parse_ratio_spec("2.0:1.0:-0.5")
    # a range holds at most 100,000 values
    assert len(_parse_ratio_spec("0:99999:1")) == 100_000
    with pytest.raises(ValueError, match="holds 100001 values, more than 100,000"):
        _parse_ratio_spec("0:100000:1")


def _under_1gb(*argv):
    # the address-space limit makes a missing cap a MemoryError in the child
    # instead of exhausting the host
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "lasergrav.cli", *argv],
                          capture_output=True, text=True, preexec_fn=limit,
                          timeout=60)


def test_huge_ratio_range_is_refused_before_it_is_built():
    # a slip in the step asks for 1e18 ratios
    proc = _under_1gb("fig1b", "--ratios", "1:1e9:1e-9")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("lasergrav: --ratios range '1:1e9:1e-9' holds 1e+18 "
                           "values, more than 100,000\n")


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0])) for case in (
    (["phase-map", "--nx", "20000", "--ny", "20000"],
     "--nx 20000 by --ny 20000 is 400,000,000 points, more than 100,000"),
    (["fig2", "--points", "400000000"], "--points 400000000 is more than 100,000"),
    # the GMRES basis alone needs 931 MiB
    (["gpe", "--ratio", "1.5", "--atoms", "1e4", "--rmax", "1e-4", "--n", "2000000"],
     "--n 2000000 is more than 100,000"))])
def test_huge_grids_are_refused_before_they_are_built(argv, message):
    # phase-map and fig2 build their rows before the first byte, like a
    # --ratios range, and share its cap; so does gpe's grid
    proc = _under_1gb(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"lasergrav: {message}\n")


def test_fig1a_energy_values_in_reduced_units(tmp_path, na):
    # the ratio-1.5 TF curve has its bound minimum near w = 0.35 at about
    # -0.0225 in units of N u / lambda
    from lasergrav import config_at_ratio, total_energy
    from lasergrav.variational import tf_energy_unit
    out = tmp_path / "fig1a.csv"
    assert run(["fig1a", "--species", "Na", "--ratios", "1.5",
                "--wmin", "0.35", "--wmax", "0.4", "--samples", "2",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    w, value = (float(c) for c in lines[1].split(","))
    cfg = config_at_ratio(na, 1.5, 589e-9, use_detuned=True, tf_limit=True)
    assert value == pytest.approx(
        total_energy(w, cfg) / tf_energy_unit(cfg), rel=1e-12, abs=0.0)
    assert value == pytest.approx(-0.0225, abs=0.002)


def test_plot_script_artifact(tmp_path):
    out = tmp_path / "u.csv"
    script = tmp_path / "plot.py"
    assert run(["potential", "--samples", "16", "--out", str(out),
                "--plot-script", str(script)]) == 0
    assert script.read_text().startswith("#!/usr/bin/env python3")
