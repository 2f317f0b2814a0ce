import argparse
import json
import subprocess
import sys

import pytest

from lasergrav import gpe, regimes
from lasergrav.cli import _parse_ratio_spec, _resolve_intensity, run

def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "lasergrav.cli", *argv],
                          capture_output=True, text=True)


def test_no_arguments_is_usage_error():
    proc = _run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_is_usage_error():
    proc = _run_cli("frobnicate")
    assert proc.returncode == 2


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
    """Exit codes of ``commands`` and of the critical ratio, all run in one
    fresh process, and the modules named ``prefix*`` loaded after them."""
    script = (
        "import json, sys\n"
        "from lasergrav.cli import run\n"
        "from lasergrav.species import catalog_lookup\n"
        "from lasergrav.variational import critical_intensity_ratio\n"
        "codes = [run(argv + ['--out', f'{sys.argv[1]}/{i}.out'])\n"
        "         for i, argv in enumerate(json.loads(sys.argv[2]))]\n"
        "critical_intensity_ratio(catalog_lookup('Na'), 589e-9)\n"
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


def test_scalar_commands_do_not_load_numpy(tmp_path):
    # only the array commands (potential, fig2, gpe) need numpy; the rest,
    # the import of lasergrav.cli included, run on Python floats
    commands = [
        ["catalog"],
        ["threshold"],
        ["fig1a", "--ratios", "0.5,1.5", "--samples", "4"],
        ["fig1b", "--ratios", "0.9,1.5"],
        ["width-sweep", "--ratios", "1.5"],
        ["width-sweep", "--ratios", "1.5", "--no-tf"],
        ["phase-map", "--nx", "3", "--ny", "3"],
        ["losses"],
        ["atom-count", "--wavelength", "589e-9", "--rho-peak", "1e21"],
    ]
    assert _modules_after(commands, "numpy", tmp_path) == []


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


def test_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["potential", "--samples", "64", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


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
    monkeypatch.setattr(gpe, "solve_ground", _must_not_run)
    assert run(["gpe", "--species", "Na", "--ratio", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "no bound" in err and "--rmax" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["gpe", "--ratio", "0"],
                                  ["gpe", "--intensity", "0"],
                                  ["phase-map", "--nx", "1"],
                                  ["phase-map", "--ny", "1"],
                                  # NaN fails every range check: no nan rows
                                  # and no false "unbound"
                                  ["fig1a", "--ratios", "nan"],
                                  ["fig1b", "--ratios", "nan"],
                                  ["width-sweep", "--no-tf", "--atoms", "nan"],
                                  ["potential", "--rmin", "nan"],
                                  [*_CAPACITY, "--ratio", "nan"],
                                  ["gpe", "--ratio", "1.5", "--trap", "nan"],
                                  ["gpe", "--ratio", "nan"],
                                  ["losses", "--ratio", "nan"],
                                  ["fig2", "--ratio", "nan"],
                                  ["fig2", "--rho-low", "nan"]], ids=" ".join)
def test_degenerate_inputs_are_usage_errors(argv, capsys, monkeypatch):
    # rejected before the solve or the first classification starts
    monkeypatch.setattr(gpe, "solve_ground", _must_not_run)
    monkeypatch.setattr(regimes, "classify", _must_not_run)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lasergrav: ") and "Traceback" not in err


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


def test_subcommand_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["fig1b", "--help"])
    assert exit_info.value.code == 0
    assert "(default: 1.1:5:0.1)" in " ".join(capsys.readouterr().out.split())


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
    # the solve and the phi_J column of the profile share one dense matrix
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


def test_parse_ratio_spec_forms():
    assert _parse_ratio_spec("1.1,2.5") == [1.1, 2.5]
    values = _parse_ratio_spec("1.0:2.0:0.5")
    assert values == pytest.approx([1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        _parse_ratio_spec("2.0:1.0:-0.5")


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
        total_energy(w, cfg) / tf_energy_unit(cfg), rel=1e-12)
    assert value == pytest.approx(-0.0225, abs=0.002)


def test_plot_script_artifact(tmp_path):
    out = tmp_path / "u.csv"
    script = tmp_path / "plot.py"
    assert run(["potential", "--samples", "16", "--out", str(out),
                "--plot-script", str(script)]) == 0
    assert script.read_text().startswith("#!/usr/bin/env python3")
