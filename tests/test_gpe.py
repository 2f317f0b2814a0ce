import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.special import erf

from lasergrav import (CONSTANTS, AnsatzConfig, CollapseError,
                       ConvergenceError, InteractionParams, RadialGrid,
                       UnboundError, border_atom_number, config_at_ratio,
                       f_factor, hartree_potential, minimize_width,
                       pair_potential, solve_ground)
from lasergrav import gpe, variational
from lasergrav.cli import run
from lasergrav.gpe import (_KEPT_PRODUCTS, RESIDUAL_TOL, _back_substitute,
                           _gmres, _HartreeOperator, _j_table, _MeanField,
                           _Tridiagonal)
from lasergrav.interaction import X_SWITCH, kernel_shape
from lasergrav.variational import _reduced, pair_energy

LAM = 589e-9


def _interaction(species, coupling, intensity=1.0):
    """Interaction with an explicitly chosen coupling (for oracle setups)."""
    return InteractionParams(intensity=intensity, wavelength=LAM,
                             coupling=coupling,
                             alpha_si=species.alpha_si())


@pytest.fixture(scope="module")
def no_contact(na):
    """Sodium-mass species with the contact interaction switched off."""
    return na.replace(scattering_length=0.0, detuned=None)


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 256"):
        RadialGrid(n_points=128, r_max=1e-6)
    with pytest.raises(ValueError):
        RadialGrid(n_points=512, r_max=0.0)
    # a fractional count would put the last node past r_max
    for n_points in (512.5, 512.0):
        with pytest.raises(ValueError, match="integer"):
            RadialGrid(n_points=n_points, r_max=1e-6)
    grid = RadialGrid(n_points=512, r_max=1.024e-6)
    assert grid.spacing == pytest.approx(2e-9, abs=0.0)
    assert grid.nodes[0] == pytest.approx(grid.spacing, abs=0.0)
    assert grid.nodes[-1] == pytest.approx(grid.r_max)


def test_harmonic_oscillator_ground_state(no_contact):
    # u = 0, g = 0, isotropic trap: mu = (3/2) hbar w0, R_rms = sqrt(3 hbar/(2 m w0));
    # default initialization (variational width, exact here)
    omega0 = 2 * math.pi * 100.0
    l0 = math.sqrt(CONSTANTS.hbar / (no_contact.mass * omega0))
    r_rms_exact = math.sqrt(1.5) * l0
    cfg = AnsatzConfig(n_atoms=1000.0, species=no_contact,
                       interaction=_interaction(no_contact, 0.0, 0.0),
                       trap_frequency=omega0)
    state = solve_ground(cfg, 512, 8.0 * r_rms_exact)
    assert state.mu == pytest.approx(1.5 * CONSTANTS.hbar * omega0, rel=1e-4, abs=0.0)
    assert state.r_rms == pytest.approx(r_rms_exact, rel=1e-4)
    energies = state.energies
    assert energies.kinetic == pytest.approx(energies.trap, rel=1e-3, abs=0.0)
    # no pairwise terms: mu N equals the total energy
    assert state.mu * state.n_atoms == pytest.approx(energies.total,
                                                     rel=1e-10, abs=0.0)


def test_normalization_invariant(gpe_full_512):
    state, _ = gpe_full_512
    grid = state.grid
    total = 4 * math.pi * grid.spacing * float(np.sum(grid.nodes**2 * state.psi**2))
    assert total == pytest.approx(state.n_atoms, rel=1e-8)
    assert np.all(state.psi >= 0.0)


def test_ground_state_is_read_only_and_compares_by_identity(gpe_full_512):
    # a Record is immutable, but arrays have no single truth value or hash:
    # field-wise == raised ValueError, hash() TypeError, and psi took writes
    state, _ = gpe_full_512
    for array in (state.psi, state.density, state.potential):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    twin = state.replace(psi=state.psi.copy())
    assert state == state and state != twin and not twin.psi.flags.writeable
    assert len({state, twin, state}) == 2
    # the energies were a dict that took writes
    with pytest.raises(AttributeError, match="immutable"):
        state.energies.total = 0.0
    with pytest.raises(TypeError):
        state.energies["total"] = 0.0


def test_full_kernel_matches_variational_width(gpe_full_512, tf_width_15):
    state, _ = gpe_full_512
    assert state.r_rms == pytest.approx(tf_width_15.r_rms, rel=0.10)


def test_grid_refinement_convergence(gpe_full_512, gpe_full_1024):
    r512 = gpe_full_512[0].r_rms
    r1024 = gpe_full_1024[0].r_rms
    assert abs(r1024 - r512) / r512 < 5e-3


def _levels_below_mu(cfg, state):
    """Levels of the state's own mean-field Hamiltonian ``T + diag(V)`` below
    ``mu - 1e-6 |mu|`` and below ``mu + 1e-6 |mu|``: a ground state has (0, 1).

    Each count is the number of negative pivots of the tridiagonal
    ``LDL^T`` factorization at that shift (Sylvester's law of inertia; the
    Sturm count of Golub & Van Loan, Matrix Computations, section 8.4).
    """
    field = _MeanField(_reduced(cfg), state.grid)
    lam = cfg.interaction.wavelength
    v = field.x * state.psi * lam**1.5 / math.sqrt(state.n_atoms)
    evaluated = field.evaluate(v)
    local, mu = evaluated.local, evaluated.mu
    off_squared = (0.5 / field.h**2) ** 2
    counts = []
    for shift in (mu - 1e-6 * abs(mu), mu + 1e-6 * abs(mu)):
        negative, pivot = 0, math.inf
        for entry in (1.0 / field.h**2 + local - shift).tolist():
            pivot = entry - off_squared / pivot
            negative += pivot < 0.0
        counts.append(negative)
    return tuple(counts)


def test_ground_state_meets_residual_tolerance(gpe_full_512, gpe_full_1024):
    for state, _ in (gpe_full_512, gpe_full_1024):
        assert state.residual < RESIDUAL_TOL


def test_iteration_count_independent_of_grid(gpe_full_512, gpe_full_1024):
    # iteration counts do not depend on the machine, so they can be pinned
    it512 = gpe_full_512[0].iterations
    it1024 = gpe_full_1024[0].iterations
    assert it1024 <= 1000
    assert it1024 <= 1.5 * it512


# r_rms (m) and mu (J) of the two full-kernel solves below.  Under the
# O(h^4) Hartree rule they came from the gradient flow alone (each step once
# LAPACK's banded Cholesky, then the in-module elimination, which reproduced
# it) run on to an eigen-residual of 1e-12, in 301 and 307 steps, and the
# Newton solve reproduced them; under the O(h^6) rule (r_rms moved by 5.0e-8
# and 3.1e-9) they are the Newton solve's, which the bordered (v, mu) Newton
# step it replaced reproduces to 2e-15.  The iteration counts are the
# solver's: Newton steps from the start.
_BANDED_CHOLESKY_REFERENCE = {
    512: (6, 2.3170014623937957e-07, -1.4381615034465672e-28),
    1024: (6, 2.317018325954416e-07, -1.4381497974140169e-28),
}


def test_solve_reproduces_banded_cholesky_reference(gpe_full_512,
                                                    gpe_full_1024):
    for state, _ in (gpe_full_512, gpe_full_1024):
        iterations, r_rms, mu = \
            _BANDED_CHOLESKY_REFERENCE[state.grid.n_points]
        assert state.iterations == iterations
        # abs=0: approx's default absolute tolerance of 1e-12 would pass
        # any r_rms of order 1e-7 m and any mu of order 1e-28 J
        assert state.r_rms == pytest.approx(r_rms, rel=1e-12, abs=0.0)
        assert state.mu == pytest.approx(mu, rel=1e-12, abs=0.0)


def _field_setups(na):
    """(config, grid, starting width) for the full kernel, the -u/r kernel
    and a trapped cloud without light; sodium's contact term is on in all
    three."""
    full = config_at_ratio(na, 1.5, LAM, n_atoms=1e4, use_detuned=True)
    coupling = 30.0 * CONSTANTS.hbar**2 / (1000.0 * na.mass * LAM)
    near = AnsatzConfig(n_atoms=1000.0, species=na,
                        interaction=_interaction(na, coupling),
                        kernel="near_zone")
    omega0 = 2 * math.pi * 100.0
    l0 = math.sqrt(CONSTANTS.hbar / (na.mass * omega0))
    trapped = AnsatzConfig(n_atoms=1000.0, species=na,
                           interaction=_interaction(na, 0.0, 0.0),
                           trap_frequency=omega0)
    return {"full": (full, RadialGrid(512, 3.5 * LAM), 0.3),
            "near_zone": (near, RadialGrid(512, 3.0 * LAM), 0.4),
            "oscillator": (trapped, RadialGrid(512, 10.0 * l0), l0 / LAM)}


@pytest.mark.parametrize("setup", ["full", "near_zone", "oscillator"])
def test_jacobian_product_matches_finite_differences(na, setup):
    # the residual map (T + V[v] - mu) v at fixed mu is cubic in v, so a
    # central difference is off the exact product only by t^2/6 times the
    # third derivative, and by rounding; the product is its projection on
    # the tangent space of the norm constraint, v-perp
    cfg, grid, width = _field_setups(na)[setup]
    field = _MeanField(_reduced(cfg), grid)
    v = field.x * np.exp(-field.x**2 / (2.0 * width**2))
    v /= field.norm(v)
    evaluated = field.evaluate(v)
    mu = evaluated.mu

    def residual_map(vec):
        return field.kinetic(vec) + (field.evaluate(vec).local - mu) * vec

    def project(vec):
        return vec - (v @ vec) / (v @ v) * v

    direction = np.random.default_rng(7).standard_normal(v.size) * v
    t = 1e-5
    difference = project(residual_map(v + t * direction)
                         - residual_map(v - t * direction)) / (2 * t)
    product = field.jacobian(evaluated, 0.0)(direction)
    assert product.shape == v.shape
    assert np.linalg.norm(product - difference) < 1e-8 * np.linalg.norm(product)
    assert abs(v @ product) <= 1e-14 * np.linalg.norm(v) * np.linalg.norm(product)
    # the shift adds Q shift dv
    shift = 3.0 * abs(mu) + 1.0
    shifted = field.jacobian(evaluated, shift)(direction) - product
    expected = project(shift * direction)
    assert np.max(np.abs(shifted - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("setup", ["full", "near_zone", "oscillator"])
def test_newton_step_is_tangent_to_the_norm_sphere(na, setup):
    # the step solves Q J dv = -Q r on v-perp, so it has no part along v
    cfg, grid, width = _field_setups(na)[setup]
    field = _MeanField(_reduced(cfg), grid)
    v = field.x * np.exp(-field.x**2 / (2.0 * width**2))
    state = field.evaluate(v / field.norm(v))
    step = field.newton_update(state, 0.0) - state.v
    assert np.linalg.norm(step) > 0.0
    assert abs(state.v @ step) <= 1e-12 * np.linalg.norm(state.v) * np.linalg.norm(step)


@pytest.mark.parametrize("setup", ["trapped", "oscillator"])
def test_mean_field_couplings_match_their_si_forms(na, setup):
    # gamma = (3/4) c/kappa, g_sw = (3/2) (2 pi)^1.5 b/kappa and omega_t^2 =
    # tau/kappa of the reduced problem, in any unit, against u N m lam/hbar^2,
    # 4 pi N a/lam and m omega lam^2/hbar built from SI
    if setup == "trapped":
        cfg = config_at_ratio(na, 1.34, LAM, n_atoms=1e3, use_detuned=True,
                              trap_frequency=2 * math.pi * 30.0)
    else:
        cfg = _field_setups(na)["oscillator"][0]
    grid = RadialGrid(512, 3.0 * LAM)
    field = _MeanField(_reduced(cfg), grid)
    hbar, m, n = CONSTANTS.hbar, na.mass, cfg.n_atoms
    omega_t = m * cfg.trap_frequency * LAM**2 / hbar
    assert field.gamma == pytest.approx(cfg.interaction.coupling * n * m * LAM / hbar**2,
                                        rel=1e-15, abs=0.0)
    assert field.g_sw == pytest.approx(4 * math.pi * n * na.scattering_length / LAM,
                                       rel=1e-15, abs=0.0)
    np.testing.assert_allclose(field.v_trap, 0.5 * omega_t**2 * (grid.nodes / LAM) ** 2,
                               rtol=1e-15, atol=0.0)
    assert (field.gamma == 0.0) == (setup == "oscillator")


def _matched_clouds(na, rb, ratio):
    """Na detuned at 589 nm (1e3 atoms, 30 Hz) and Rb87 static at 780 nm with
    N a/lam and m^2 omega^2 lam^5/(a N) matched: the same reduced problem."""
    lam_rb, n_na, omega_na = 780e-9, 1e3, 2 * math.pi * 30.0
    n_rb = n_na * na.scattering_length / LAM * lam_rb / rb.scattering_length
    omega_rb = omega_na * math.sqrt(
        na.mass**2 * LAM**5 / (na.scattering_length * n_na)
        * rb.scattering_length * n_rb / (rb.mass**2 * lam_rb**5))
    return (config_at_ratio(na, ratio, LAM, n_na, use_detuned=True, trap_frequency=omega_na),
            config_at_ratio(rb, ratio, lam_rb, n_rb, trap_frequency=omega_rb))


def test_reduced_problem_is_species_invariant(na, rb):
    # metamorphic: species, wavelength, N and trap enter only through the
    # reduced problem, so matched clouds share their widths in wavelengths,
    # on both branches of the trapped transition at 1.34 and 1.5
    for ratio, branches in ((1.34, 2), (1.5, 2), (3.0, 1)):
        widths = [variational._minima(_reduced(cfg)) for cfg in _matched_clouds(na, rb, ratio)]
        assert len(widths[0]) == branches
        assert widths[1] == pytest.approx(widths[0], rel=1e-12, abs=0.0)
    cfg_na, cfg_rb = _matched_clouds(na, rb, 1.5)
    state_na = solve_ground(cfg_na)
    state_rb = solve_ground(cfg_rb, state_na.grid.n_points)
    assert state_rb.r_rms / 780e-9 == pytest.approx(state_na.r_rms / LAM, rel=1e-12, abs=0.0)


def test_solve_ignores_the_tf_flag(na):
    # the solve keeps the kinetic term, so its box and start are sized from
    # the kinetic minimum whatever tf_limit says (the TF radius once moved
    # r_rms by 2.5e-7 here)
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=1e4, use_detuned=True)
    plain, tf = solve_ground(cfg, 512), solve_ground(cfg.replace(tf_limit=True), 512)
    assert (tf.grid, tf.r_rms, tf.mu, tf.iterations, tf.energies) == \
        (plain.grid, plain.r_rms, plain.mu, plain.iterations, plain.energies)


def test_gmres_solves_a_nonsymmetric_system():
    rng = np.random.default_rng(11)
    n = 200
    matrix = np.diag(np.linspace(1.0, 10.0, n)) + rng.standard_normal((n, n)) / n
    rhs = rng.standard_normal(n)
    x = _gmres(lambda z: matrix @ z, lambda z: z / np.diag(matrix), rhs, 1e-12)
    assert np.linalg.norm(matrix @ x - rhs) < 1e-11 * np.linalg.norm(rhs)


def test_solve_allocates_no_n_by_n_array(na):
    # the Hartree operator keeps two transforms of about 2n points and the
    # Newton finish applies its Jacobian as products, so the traced peak of
    # a solve stays far below one n x n array of floats (4.4 MB measured)
    n = 4096
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=1e4, use_detuned=True)
    tracemalloc.start()
    try:
        solve_ground(cfg, n, 3.5 * LAM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 16


@pytest.mark.parametrize("argv", [
    ("--ratio", "100", "--atoms", "1e5", "--n", "512"),
    ("--ratio", "10", "--atoms", "1e6", "--n", "512"),
    ("--ratio", "1.001", "--atoms", "1e8")])
def test_no_step_raises_the_energy(monkeypatch, tmp_path, argv):
    # the Hartree operator is symmetric, so the zero of the eigen-residual
    # that Newton aims at is a stationary point of the energy, and its
    # accepted steps lower the energy down to rounding.  Deep in the bound
    # regime that is rounding of the energy itself; at threshold the terms
    # cancel, so the energy is small next to the rounding of their sum,
    # which the sum of their magnitudes bounds.
    energies = []
    solve = gpe.solve_ground

    def traced(cfg, n_points, r_max):
        return solve(cfg, n_points, r_max,
                     on_step=lambda it, energy, mu: energies.append(energy))

    monkeypatch.setattr(gpe, "solve_ground", traced)
    out = tmp_path / "gpe.json"
    assert run(["gpe", "--species", "Na", *argv, "--out", str(out)]) == 0
    energies = np.array(energies)
    if argv[1] == "1.001":
        terms = json.loads(out.read_text())["energies_J"]
        scale = sum(abs(terms[name]) for name in
                    ("kinetic", "trap", "swave", "gravitational"))
        assert np.max(np.diff(energies)) <= gpe._ENERGY_SLACK * scale
    else:
        assert np.max(np.diff(energies) / np.abs(energies[:-1])) <= 1e-14


@pytest.fixture(scope="module")
def gpe_solve(tmp_path_factory):
    """The gpe command run once per argument list: its JSON, and the
    configuration and ground state it solved for."""
    cache = {}

    def solve(*argv):
        if argv not in cache:
            solved = []

            def capture(cfg, n_points, r_max):
                state = solve_ground(cfg, n_points, r_max)
                solved.append((cfg, state))
                return state

            out = tmp_path_factory.mktemp("gpe") / "state.json"
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gpe, "solve_ground", capture)
                assert run(["gpe", "--species", "Na", *argv,
                            "--out", str(out)]) == 0
            cache[argv] = (json.loads(out.read_text()), *solved[0])
        return cache[argv]

    return solve


@pytest.fixture(scope="module")
def gpe_run(gpe_solve):
    """The gpe command's JSON for one argument list, solved once."""
    return lambda *argv: gpe_solve(*argv)[0]


_TRAPPED = ("--atoms", "1e4", "--trap", "628")
# the hard edges of the PDE (deep TF-G, near threshold, and the threshold
# edge with many atoms on its default grid and on twice that), the grid
# refinement of the standard case, and the trapped-to-self-bound crossover on
# the default grid, each with a bound on its steps
_CASE_MATRIX = [
    (("--ratio", "100", "--atoms", "1e5", "--n", "512"), 10),
    (("--ratio", "1.02", "--atoms", "1e6", "--n", "1024"), 10),
    *[(("--ratio", "1.001", "--atoms", atoms, *grid), 10)
      for atoms, n in (("1e7", "6238"), ("1e8", "5586"))
      for grid in ((), ("--n", n))],
    *[(("--ratio", "1.5", "--atoms", "1e4", "--n", str(n)), 10)
      for n in (512, 1024, 2048)],
    *[(("--ratio", ratio, *_TRAPPED), 10)
      for ratio in ("0.9", "1.0", "1.05", "1.1", "1.2")],
]


@pytest.mark.parametrize("argv, max_iterations", _CASE_MATRIX,
                         ids=[" ".join(argv) for argv, _ in _CASE_MATRIX])
def test_case_matrix_converges(na, gpe_solve, argv, max_iterations):
    state, solved_cfg, ground = gpe_solve(*argv)
    # under an energy scale that stays finite at threshold every case ends
    # at the rounding floor, far below RESIDUAL_TOL (1.6e-13 at most measured)
    assert state["residual"] < 1e-12
    assert state["iterations"] <= max_iterations
    assert _levels_below_mu(solved_cfg, ground) == (0, 1)
    options = dict(zip(argv[::2], argv[1::2]))
    cfg = config_at_ratio(na, float(options["--ratio"]), LAM,
                          n_atoms=float(options["--atoms"]), use_detuned=True,
                          trap_frequency=float(options.get("--trap", 0.0)))
    assert state["r_rms_m"] == pytest.approx(minimize_width(cfg).r_rms, rel=0.10)


_BOX = ("--ratio", "0.9", "--rmax", "5e-6")
# boxes the wall holds, with the ground state's r_rms (m).  Below threshold
# plain Newton from the start heads for a noded state of higher energy, and
# the shift turns the rejected steps into descent steps (12 steps measured);
# just above it, with the variational state unbound, mu crosses 0 on the way
# (13 and 6 steps measured)
_BOXES = {
    _BOX: 2.8635623322810715e-06,
    ("--ratio", "1.01", "--atoms", "1e5", "--rmax", "5e-6"): 2.3659922005390793e-06,
    ("--ratio", "1.05", "--atoms", "1e4", "--rmax", "5e-6"): 2.430903402185277e-06,
}


@pytest.mark.parametrize("argv", list(_BOXES), ids=" ".join)
def test_box_below_threshold_needs_few_shifted_steps(gpe_solve, argv):
    state, cfg, ground = gpe_solve(*argv)
    assert state["residual"] < RESIDUAL_TOL
    assert state["iterations"] <= 20
    assert state["r_rms_m"] == pytest.approx(_BOXES[argv], rel=1e-12, abs=0.0)
    assert _levels_below_mu(cfg, ground) == (0, 1)


def test_step_cap_raises_convergence_error(gpe_solve, monkeypatch):
    # the box takes 12 steps, so a cap of 3 is reached
    _, cfg, ground = gpe_solve(*_BOX)
    monkeypatch.setattr(gpe, "MAX_ITERATIONS", 3)
    with pytest.raises(ConvergenceError, match="no convergence after 3 iterations"):
        solve_ground(cfg, ground.grid.n_points, ground.grid.r_max)


def test_rejected_step_below_tolerance_ends_the_solve(na, monkeypatch):
    # a step rejected once the residual is below RESIDUAL_TOL ends the solve
    # on the last accepted state; a slack below 0 rejects a step that holds
    # the energy to rounding (-1e-13 rejects so many that it never converges)
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=1e4, use_detuned=True)
    plain = solve_ground(cfg, 512)
    monkeypatch.setattr(gpe, "_ENERGY_SLACK", -1e-14)
    accepted = []
    state = solve_ground(cfg, 512, on_step=lambda it, e, mu: accepted.append(it))
    # measured: 5 steps, the last rejected; residual 1.8e-13; r_rms 2.8e-13 off
    assert state.iterations == 5 and accepted == [1, 2, 3, 4]
    assert state.residual < RESIDUAL_TOL
    assert state.r_rms == pytest.approx(plain.r_rms, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ratio, atoms", [("1.01", "1e7"), ("1.001", "1e7"), ("1.001", "1e8")])
def test_near_threshold_radius_on_the_default_grid_is_converged(gpe_run, ratio, atoms):
    # near threshold the Hartree rule's error acts as a shift of the
    # threshold, r_rms error about delta/(2 (r - 1)); with the O(h^6) rule
    # the default grid reads 8.9e-7 (1.01/1e7) and 1.1e-6 (1.001/1e8) off
    # twice the grid, against 6.6e-5 and 6.3e-4 under the O(h^4) rule
    default = gpe_run("--ratio", ratio, "--atoms", atoms)
    fine = gpe_run("--ratio", ratio, "--atoms", atoms, "--n", str(2 * default["n_points"]))
    assert fine["r_max_m"] == default["r_max_m"]
    assert abs(default["r_rms_m"] / fine["r_rms_m"] - 1.0) < 1e-5


def test_trapped_cloud_binds_itself_past_threshold(gpe_run):
    # the paper's observable: crossing I/I0 = 1 the cloud stops being held
    # by the trap and contracts under its own attraction
    radii = [gpe_run("--ratio", ratio, *_TRAPPED)["r_rms_m"]
             for ratio in ("0.9", "1.0", "1.05", "1.1", "1.2")]
    assert radii == sorted(radii, reverse=True)
    assert radii[0] > 3.0 * radii[-1]


def test_radius_depends_on_the_trap_only_below_threshold(gpe_run):
    # past threshold the cloud holds itself and the trap does not set its
    # size (9e-7 spread measured); below it the trap does, and a weaker trap
    # holds a wider cloud, out to the 4,458-point default grid of 100 rad/s
    bound = [gpe_run("--ratio", "1.5", "--atoms", "1e4", "--trap", trap)["r_rms_m"]
             for trap in ("0", "100", "628")]
    assert max(bound) - min(bound) < 1e-5 * min(bound)
    trapped = [gpe_run("--ratio", "0.9", "--atoms", "1e4", "--trap", trap)["r_rms_m"]
               for trap in ("1256", "628", "300")]
    assert trapped[0] < trapped[1] < trapped[2]
    weak = gpe_run("--ratio", "0.5", "--atoms", "1e4", "--trap", "100")
    assert weak["n_points"] == 4458 and weak["residual"] < RESIDUAL_TOL


def test_solve_ground_sizes_its_own_grid(na, gpe_run):
    # without grid arguments the library applies the rule the gpe command
    # relies on, from the same variational solve
    state = gpe_run("--ratio", "1.5")
    ground = solve_ground(config_at_ratio(na, 1.5, LAM, n_atoms=1e4,
                                          use_detuned=True))
    assert (ground.grid.n_points, ground.grid.r_max, ground.r_rms) == \
        (state["n_points"], state["r_max_m"], state["r_rms_m"])
    # below threshold there is no radius to size the box by
    with pytest.raises(UnboundError, match="r_max"):
        solve_ground(config_at_ratio(na, 0.5, LAM, n_atoms=1e4,
                                     use_detuned=True))


def _solver_system(n, shift_h2):
    """Off-diagonal, diagonal and a right-hand side of the Newton step's
    preconditioner ``T + diag(V - min V + 2 g chi^2 + shift)``, with a trap
    plus a rough potential, a Gaussian contact term and
    ``shift = shift_h2 / h^2``."""
    rng = np.random.default_rng(n)
    h = 3.5 / n
    x = h * np.arange(1, n + 1)
    local = 50.0 * x**2 + 1e3 * rng.random(n)
    contact = 2.0 * 400.0 * np.exp(-x**2 / 0.18)
    off = -0.5 / h**2
    diag = 1.0 / h**2 + local - local.min() + contact + shift_h2 / h**2
    return off, diag, rng.standard_normal(n)


def _thomas(off, diag, rhs):
    """Pivots and solution of Thomas elimination, one entry at a time: the
    loop that the factored solver replaced."""
    pivots, y = diag.tolist(), rhs.tolist()
    for i in range(1, len(y)):
        ratio = off / pivots[i - 1]
        pivots[i] -= ratio * off
        y[i] -= ratio * y[i - 1]
    x = [0.0] * len(y)
    x_next = 0.0
    for i in range(len(y) - 1, -1, -1):
        x[i] = x_next = (y[i] - off * x_next) / pivots[i]
    return pivots, np.array(x)


@pytest.mark.parametrize("shift_h2",
                         [0.0, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e12])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 256, 512, 1000, 1024, 4458, 65536])
def test_solve_tridiagonal_matches_dense_and_banded(n, shift_h2):
    off, diag, rhs = _solver_system(n, shift_h2)
    x = _Tridiagonal(off, diag).solve(rhs)
    references = [_thomas(off, diag, rhs)[1]]
    # LAPACK's banded solve takes no 1 x 1 system
    if n > 1:
        references.append(solveh_banded(np.vstack((np.full(n, off), diag)), rhs))
    # a dense matrix of 65,536^2 entries would take 34 GB
    if n <= 1024:
        dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
        references.append(np.linalg.solve(dense, rhs))
    for reference in references:
        assert np.max(np.abs(x - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("shift_h2", [0.0, 0.1, 1.0, 1e2, 1e4, 1e6])
def test_solve_tridiagonal_pivots_stay_above_off(shift_h2):
    # diagonal dominance, diag >= 2|off| (V >= min V, shift >= 0), keeps
    # every pivot at or above |off|, so the elimination needs no pivoting;
    # the factorization's pivots are the elimination's, bit for bit
    off, diag, rhs = _solver_system(256, shift_h2)
    pivots = _Tridiagonal(off, diag).pivots
    assert pivots.tolist() == _thomas(off, diag, rhs)[0]
    assert min(pivots) >= abs(off)


def test_one_factorization_solves_many_right_hand_sides():
    # GMRES applies one factorization up to 61 times per Newton step, and
    # each solve must not depend on the ones before it
    off, diag, _ = _solver_system(1024, 1.0)
    factor = _Tridiagonal(off, diag)
    rng = np.random.default_rng(60)
    for rhs in rng.standard_normal((60, 1024)):
        kept = rhs.copy()
        x = factor.solve(rhs)
        assert np.array_equal(rhs, kept)
        assert x.tobytes() == _Tridiagonal(off, diag).solve(rhs).tobytes()


@pytest.mark.parametrize("n", [1024, 8192, 65536])
def test_factorization_keeps_its_levels_within_budget(n, monkeypatch):
    # every doubling level while they fit, so the grids of up to 8,192
    # points form none in a solve; at 65,536 points the first 2 of 16
    off, diag, rhs = _solver_system(n, 0.0)
    factor = _Tridiagonal(off, diag)
    assert sum(products.size for products in factor.levels) <= _KEPT_PRODUCTS
    assert len(factor.levels) == (2 if n == 65536 else (n - 1).bit_length())
    # a solve forms the other levels as the factorization would have kept them
    monkeypatch.setattr(gpe, "_KEPT_PRODUCTS", n * n)
    every = _Tridiagonal(off, diag)
    assert len(every.levels) == (n - 1).bit_length()
    assert [(stride, products.tobytes()) for stride, products in factor._passes()] \
        == [(1 << k, products.tobytes()) for k, products in enumerate(every.levels)]
    assert factor.solve(rhs).tobytes() == every.solve(rhs).tobytes()


@pytest.mark.parametrize("m", [1, 10, 60])
def test_back_substitution_matches_dense_solve(m):
    # GMRES's least-squares matrix after its Givens rotations: upper
    # triangular, at most _GMRES_MAX_STEPS square
    rng = np.random.default_rng(m)
    upper = np.diag(1.0 + rng.random(m)) + np.triu(rng.standard_normal((m, m)), 1) / m
    rhs = rng.standard_normal(m)
    reference = np.linalg.solve(upper, rhs)
    x = _back_substitute(upper, rhs)
    assert np.max(np.abs(x - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_solve_ground_makes_no_dense_solve(na, monkeypatch):
    # the Newton step solves its own small systems: no LAPACK call, whose
    # first use raises a process's peak RSS by about 0.43 MB
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    state = solve_ground(config_at_ratio(na, 1.5, LAM, n_atoms=1e4,
                                         use_detuned=True))
    assert state.residual < RESIDUAL_TOL


def test_bound_state_has_negative_attraction_energy(gpe_full_512):
    state, _ = gpe_full_512
    assert state.energies.gravitational < 0.0
    # peak density sits at the origin for the bound state
    assert np.argmax(state.density) == 0


def test_energy_monotone_along_imaginary_time(gpe_solve):
    # the box below threshold relaxes from its start through shifted steps
    # (11 accepted), and no accepted step raises the energy
    _, cfg, ground = gpe_solve(*_BOX)
    energies = []
    solve_ground(cfg, ground.grid.n_points, ground.grid.r_max,
                 on_step=lambda it, e, mu: energies.append(e))
    energies = np.array(energies)
    assert len(energies) > 5
    assert np.all(np.diff(energies) <= 1e-12 * np.abs(energies[:-1]))


def test_near_zone_solution_matches_calculus_oracle(no_contact):
    # pure -u/r with kinetic pressure: b* = 3 sqrt(2 pi) hbar^2 / (2 m u N)
    n_atoms = 1000.0
    gamma = 30.0  # dimensionless u N m lam / hbar^2
    coupling = gamma * CONSTANTS.hbar**2 / (n_atoms * no_contact.mass * LAM)
    cfg = AnsatzConfig(n_atoms=n_atoms, species=no_contact,
                       interaction=_interaction(no_contact, coupling),
                       kernel="near_zone")
    b_star = 3 * math.sqrt(2 * math.pi) * CONSTANTS.hbar**2 / (
        2 * no_contact.mass * coupling * n_atoms)
    state = solve_ground(cfg, 512, 8.0 * math.sqrt(1.5) * b_star)
    # width and total energy of the PDE ground state track the Gaussian oracle
    assert state.r_rms == pytest.approx(math.sqrt(1.5) * b_star, rel=0.10)
    e_oracle = n_atoms * (
        3 * CONSTANTS.hbar**2 / (4 * no_contact.mass * b_star**2)
        - coupling * n_atoms / (math.sqrt(2 * math.pi) * b_star))
    assert state.energies.total == pytest.approx(e_oracle, rel=0.10, abs=0.0)


def test_near_zone_energy_scaling_with_atom_number(no_contact):
    # E_min scales as -u^2 N^3 m / hbar^2 for the pure-attraction cloud
    results = []
    for gamma in (20.0, 40.0):
        n_atoms = 1000.0
        coupling = gamma * CONSTANTS.hbar**2 / (n_atoms * no_contact.mass * LAM)
        cfg = AnsatzConfig(n_atoms=n_atoms, species=no_contact,
                           interaction=_interaction(no_contact, coupling),
                           kernel="near_zone")
        b_star = 3 * math.sqrt(2 * math.pi) * CONSTANTS.hbar**2 / (
            2 * no_contact.mass * coupling * n_atoms)
        state = solve_ground(cfg, 512, 8.0 * math.sqrt(1.5) * b_star)
        results.append(state.energies.total)
    assert results[1] / results[0] == pytest.approx(4.0, rel=0.10)


def _tf_g_errors(na, n_atoms, n_points):
    """(r_rms/r_TF - 1, mu/mu_TF - 1) of the -u/r ground state at I/I0 = 1.5
    against the TF-G limit: without the kinetic term the mean-field equation
    is nabla^2 rho + k^2 rho = 0, so rho ~ sin(kr)/(kr) out to
    R = pi/k = pi sqrt(hbar^2 a/(m u)), with r_rms = R sqrt(1 - 6/pi^2) and
    mu = -u N/R."""
    cfg = config_at_ratio(na, 1.5, LAM, n_atoms=n_atoms,
                          use_detuned=True).replace(kernel="near_zone")
    u = cfg.interaction.coupling
    radius = math.pi * math.sqrt(CONSTANTS.hbar**2 * na.scattering_length / (na.mass * u))
    state = solve_ground(cfg, n_points, 5.4 * radius)
    return (state.r_rms / (radius * math.sqrt(1.0 - 6.0 / math.pi**2)) - 1.0,
            state.mu / (-u * n_atoms / radius) - 1.0)


def test_contact_pressure_limit_matches_tf_g_oracle(na):
    # the kinetic pressure fades as N grows: measured r_rms errors 6.4e-3,
    # 8.1e-4, 9.9e-5 and 1.0e-5, mu errors -3.8e-3 to -5.9e-6
    errors = [_tf_g_errors(na, n_atoms, 512) for n_atoms in (1e4, 1e5, 1e6, 1e7)]
    for (r_err, mu_err), (r_next, mu_next) in zip(errors, errors[1:]):
        assert r_err > r_next > 0.0 and mu_err < mu_next < 0.0
        assert 7.0 < r_err / r_next < 11.0 and 7.0 < mu_err / mu_next < 11.0
    assert abs(errors[-1][0]) < 2e-5
    # at 1e8 the grid sets the floor, and it falls with the grid: measured
    # 1.1e-5 on 512 points, 1.8e-6 on 1,024
    coarse, fine = (abs(_tf_g_errors(na, 1e8, n)[0]) for n in (512, 1024))
    assert fine < coarse / 3.0


def _schroedinger_newton_oracle():
    """(mu, E, r_rms) of the Schroedinger-Newton ground state with unit norm,
    in units hbar = m = u N = 1, by shooting on its radial ODE pair.

    With ``V = Phi - mu`` the state solves ``psi'' + 2 psi'/r = 2 V psi`` and
    ``V'' + 2 V'/r = 4 pi psi^2``.  From ``psi(0) = 1`` and ``V(0) = V0``,
    ``V0`` is bisected between shots that cross zero and shots that turn up;
    the last shot that turns up follows the decaying state to about 1e-9 of
    its peak.  ``(lam^2 psi(lam r), lam^2 V(lam r))`` solves the same pair,
    so ``lam = 1/norm`` scales the shot to unit norm.  Beyond the cloud
    ``Phi = -norm/r``, which gives ``mu``.  Alongside it integrates the norm,
    ``<r^2>``, the kinetic energy and ``<V>``.
    """
    from scipy.integrate import solve_ivp

    def shot(v0):
        # series start at r0: psi = 1 + V0 r^2/3, V = V0 + 2 pi r^2/3
        r0 = 1e-3
        start = [1.0 + v0 * r0**2 / 3.0, 2.0 * v0 * r0 / 3.0,
                 v0 + 2.0 * math.pi * r0**2 / 3.0, 4.0 * math.pi * r0 / 3.0,
                 4.0 * math.pi * r0**3 / 3.0, 0.0, 0.0,
                 4.0 * math.pi * v0 * r0**3 / 3.0]

        def rhs(r, y):
            psi, dpsi, v, dv = y[:4]
            shell = 4.0 * math.pi * r**2 * psi**2
            return [dpsi, 2.0 * v * psi - 2.0 * dpsi / r, dv,
                    4.0 * math.pi * psi**2 - 2.0 * dv / r,
                    shell, shell * r**2, 2.0 * math.pi * r**2 * dpsi**2, shell * v]

        def crosses(r, y):
            return y[0]

        def turns_up(r, y):
            return y[1]

        crosses.terminal = turns_up.terminal = True
        turns_up.direction = 1.0
        return solve_ivp(rhs, (r0, 100.0), start, method="DOP853", rtol=1e-13,
                         atol=1e-15, events=(crosses, turns_up))

    deep, shallow = -3.0, -0.1
    while shallow - deep > 1e-13:
        middle = 0.5 * (deep + shallow)
        if shot(middle).t_events[0].size:
            deep = middle
        else:
            shallow = middle
    last = shot(shallow)
    _, _, v, _, norm, moment, kinetic, potential = last.y[:, -1]
    mu_shot = -norm / last.t[-1] - v
    scale = 1.0 / norm
    energy = scale**3 * (kinetic + 0.5 * (potential + mu_shot * norm))
    return scale**2 * mu_shot, energy, math.sqrt(moment / norm) / scale


def test_kinetic_pressure_limit_matches_schroedinger_newton_oracle(no_contact):
    # no contact term and no trap: the -u/r ground state is the
    # Schroedinger-Newton state, mu about -0.163 m (u N)^2 / hbar^2 (Moroz,
    # Penrose & Tod, Class. Quantum Grav. 15, 2733 (1998)); the shooting
    # oracle gives -0.1627692
    mu_sn, e_sn, r_sn = _schroedinger_newton_oracle()
    assert mu_sn == pytest.approx(-0.163, rel=2e-3)
    # the ground state is virial: E = mu/3
    assert e_sn == pytest.approx(mu_sn / 3.0, rel=1e-10)
    gamma, n_atoms = 30.0, 1000.0
    coupling = gamma * CONSTANTS.hbar**2 / (n_atoms * no_contact.mass * LAM)
    cfg = AnsatzConfig(n_atoms=n_atoms, species=no_contact,
                       interaction=_interaction(no_contact, coupling),
                       kernel="near_zone")
    # natural units: energy m (u N)^2/hbar^2 = gamma^2 hbar^2/(m lam^2),
    # length hbar^2/(m u N) = lam/gamma
    energy_unit = gamma**2 * CONSTANTS.hbar**2 / (no_contact.mass * LAM**2)
    errors = []
    for n_points in (512, 1024):
        state = solve_ground(cfg, n_points)
        errors.append((state.mu / (energy_unit * mu_sn) - 1.0,
                       state.energies.total / (n_atoms * energy_unit * e_sn) - 1.0,
                       state.r_rms * gamma / (LAM * r_sn) - 1.0))
    # measured (mu, E, r_rms): (1.51e-4, 9.08e-5, -1.69e-4) on 512 points,
    # (3.78e-5, 2.27e-5, -4.22e-5) on 1,024, each falling 4.00 times: the
    # kinetic stencil's O(h^2)
    coarse, fine = errors
    assert max(map(abs, coarse)) < 2e-4
    for before, after in zip(coarse, fine):
        assert before / after == pytest.approx(4.0, rel=0.025)


@pytest.mark.parametrize("q, x_over_f", [(1.0, 4.6566), (10.0, 4.4094),
                                         (100.0, 4.2962)])
def test_near_zone_radius_is_one_curve_of_n_over_n_border(na, rb, q, x_over_f):
    # -u/r kernel, contact term, no trap: in units of hbar^2/(m u N) the
    # mean-field problem depends on q = N/N_border alone, and the box and
    # grid follow the variational width, so X = r_rms m u N/hbar^2 agrees to
    # rounding (3.3e-15 measured) across species, intensities, wavelengths
    # and polarizabilities; N_border is 4.17 for Rb87 at 100 I0, so N >= 1
    xs = []
    for species, lam, ratio, detuned in ((na, LAM, 1.5, True),
                                         (na, 1064e-9, 10.0, True),
                                         (rb, 780e-9, 100.0, False)):
        cfg = config_at_ratio(species, ratio, lam, use_detuned=detuned)
        u = cfg.interaction.coupling
        n_atoms = q * border_atom_number(u, species)
        state = solve_ground(cfg.replace(n_atoms=n_atoms, kernel="near_zone"))
        xs.append(state.r_rms * species.mass * u * n_atoms / CONSTANTS.hbar**2)
    assert max(xs) / min(xs) - 1.0 < 1e-13
    # the paper's f = 1/2 + sqrt(1/4 + q^2) tracks the radius: X/f falls
    # towards the TF-G limit pi sqrt(1 - 6/pi^2) sqrt(3 pi/2) = 4.2703 (the
    # oracle of _tf_g_errors); the 512-point grid error of X/f is 5.0e-5 at
    # q = 1 and 3.5e-6 at q = 100 (against 1,024 points)
    assert xs[0] / f_factor(q, 1.0) == pytest.approx(x_over_f, rel=1e-4)
    assert xs[0] / f_factor(q, 1.0) > math.pi * math.sqrt(
        (1.0 - 6.0 / math.pi**2) * 1.5 * math.pi)


def test_start_zero_on_the_grid_is_numerical_failure(capsys):
    # a variational width of 0.025 wavelengths, nodes 1.3 wavelengths apart
    assert run(["gpe", "--species", "Na", "--ratio", "100", "--atoms", "1e5",
                "--kernel", "newton", "--rmax", "2e-4", "--n", "256"]) == 1
    assert "zero on the grid" in capsys.readouterr().err


def test_collapse_detection(no_contact):
    # attraction strong enough that the equilibrium width sits below the
    # four-spacing resolution floor
    n_atoms = 1000.0
    gamma = 600.0
    coupling = gamma * CONSTANTS.hbar**2 / (n_atoms * no_contact.mass * LAM)
    cfg = AnsatzConfig(n_atoms=n_atoms, species=no_contact,
                       interaction=_interaction(no_contact, coupling),
                       kernel="near_zone")
    with pytest.raises(CollapseError):
        solve_ground(cfg, 256, 2.0 * LAM)


def test_ground_state_potential_is_hartree_of_its_density(na, no_contact,
                                                          gpe_full_512):
    full, _ = gpe_full_512
    coupling = config_at_ratio(na, 1.5, LAM, n_atoms=1e4,
                               use_detuned=True).interaction.coupling
    assert np.array_equal(full.potential, hartree_potential(
        full.density, full.grid, coupling, LAM, kernel="full"))

    coupling = 30.0 * CONSTANTS.hbar**2 / (1000.0 * no_contact.mass * LAM)
    cfg = AnsatzConfig(n_atoms=1000.0, species=no_contact,
                       interaction=_interaction(no_contact, coupling),
                       kernel="near_zone")
    near = solve_ground(cfg, 256, 2.0 * LAM)
    assert np.array_equal(near.potential, hartree_potential(
        near.density, near.grid, coupling, LAM, kernel="near_zone"))

    # u = 0: no Hartree term at all
    omega0 = 2 * math.pi * 100.0
    cfg = AnsatzConfig(n_atoms=1000.0, species=no_contact,
                       interaction=_interaction(no_contact, 0.0, 0.0),
                       trap_frequency=omega0)
    l0 = math.sqrt(CONSTANTS.hbar / (no_contact.mass * omega0))
    still = solve_ground(cfg, 256, 10.0 * l0)
    assert still.potential.shape == (256,) and not still.potential.any()


def _gaussian_density(grid, n_atoms, b):
    r = grid.nodes
    return n_atoms * np.exp(-(r / b) ** 2) / (math.pi * b * b) ** 1.5


def _newtonian_gaussian_error(n):
    """Max relative error over the nodes of the -u/r potential of a
    Gaussian source against Phi(R) = -u N erf(R/b) / R."""
    coupling = 1.7e-37
    n_atoms = 500.0
    b = 0.35 * LAM
    grid = RadialGrid(n_points=n, r_max=3.5 * LAM)
    rho = _gaussian_density(grid, n_atoms, b)
    phi = hartree_potential(rho, grid, coupling, LAM, kernel="near_zone")
    exact = -coupling * n_atoms * erf(grid.nodes / b) / grid.nodes
    return float(np.max(np.abs(phi - exact) / np.abs(exact)))


def test_hartree_newtonian_gaussian_oracle(na):
    # O(h^6) on every node, the innermost included: 2.2e-10, 3.4e-12 and
    # 6.4e-14 measured at n = 256, 512 and 1024, 64x less per doubling of
    # the grid down to rounding (the O(h^4) rule: 7.3e-9 at n = 512)
    errors = [_newtonian_gaussian_error(n) for n in (256, 512, 1024)]
    assert errors[1] < 1e-10
    assert errors[0] > 48.0 * errors[1] > 48.0 * 24.0 * errors[2]


def _attraction_error(kernel, w, per_wavelength):
    """Relative error of the discrete attraction energy per atom, in u/lam,
    of the density ``exp(-x^2/w^2)`` (x in wavelengths), normalized on a
    grid of ``per_wavelength`` nodes per wavelength out to 8 w, against the
    closed form ``pair_energy(w)/2``."""
    grid = RadialGrid(round(8 * w * per_wavelength), 8.0 * w)
    x, h = grid.nodes, grid.spacing
    rho = np.exp(-x**2 / w**2)
    rho /= 4.0 * math.pi * h * float(x**2 @ rho)
    phi = _HartreeOperator(grid, 1.0, kernel)(rho)
    return 2.0 * math.pi * h * float((x**2 * rho) @ phi) / (0.5 * pair_energy(w, kernel)) - 1.0


@pytest.mark.parametrize("kernel", ["full", "near_zone"])
def test_hartree_attraction_of_broad_gaussians_matches_pair_energy(kernel):
    # exact oracle for the corrected trapezoid rule: the two Euler-Maclaurin
    # terms at the kink make it O(h^6).  Measured for the full kernel
    # 1.9e-9 to 2.0e-9 at lam/40 (1.3e-6 with the h^2 term alone), 64 times
    # less at lam/80; the -u/r kernel is at rounding
    for w in (2.0, 5.0, 10.0):
        coarse, fine = (_attraction_error(kernel, w, per) for per in (40, 80))
        assert abs(coarse) < 1e-8 and abs(fine) < 1e-8
        if kernel == "full":
            assert abs(coarse) > 32.0 * abs(fine)


# J(t)/(u lam) = -t + _C3 t^3 + O(t^5) for the full kernel
_C3 = (46.0 / 77.0) * (2.0 * math.pi) ** 2 / 3.0


def _dense_product(j_tab, h, y, c3):
    """``(h (Hankel(J) - Toeplitz(J)) + (h^2/6 + c3 h^4/60) I - (h^2/120) D2) y``
    summed row block by row block straight from the J table, with ``D2`` the
    second difference with zero ends: the reference for the FFT product."""
    nodes = np.arange(1, y.size + 1)
    out = np.empty(y.size)
    for start in range(0, y.size, 256):
        i = nodes[start:start + 256, None]
        out[start:start + 256] = \
            h * ((j_tab[i + nodes] - j_tab[np.abs(i - nodes)]) @ y)
    second_difference = np.convolve(y, [1.0, -2.0, 1.0])[1:-1]
    return out + (h * h / 6.0 + c3 * h**4 / 60.0) * y - (h * h / 120.0) * second_difference


# 513: the FFT length must be 2048, as 2n - 1 = 1025 is one past 1024
@pytest.mark.parametrize("n", [256, 512, 513, 1024, 4096])
def test_hartree_fft_product_matches_dense(n):
    grid = RadialGrid(n, 3.5 * LAM)
    h = grid.spacing / LAM
    y = np.random.default_rng(n).random(n)
    dense = _dense_product(_j_table(n, h, "full"), h, y, _C3)
    product = _HartreeOperator(grid, LAM, "full").product(y)
    assert np.max(np.abs(product - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize("kernel", ["full", "near_zone"])
def test_hartree_operator_is_symmetric(kernel):
    operator = _HartreeOperator(RadialGrid(1024, 3.5 * LAM), LAM, kernel)
    rng = np.random.default_rng(5)
    y, z = rng.random(1024), rng.random(1024)
    lhs, rhs = z @ operator.product(y), y @ operator.product(z)
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_hartree_newtonian_monte_carlo(na):
    # 3-D sampling of the convolution at five radii, 1% tolerance
    coupling = 1.7e-37
    n_atoms = 500.0
    b = 0.35 * LAM
    grid = RadialGrid(n_points=512, r_max=3.5 * LAM)
    rho = _gaussian_density(grid, n_atoms, b)
    phi = hartree_potential(rho, grid, coupling, LAM, kernel="near_zone")
    rng = np.random.default_rng(3)
    points = rng.normal(scale=b / math.sqrt(2.0), size=(400_000, 3))
    for frac in (0.04, 0.1, 0.2, 0.35, 0.6):
        i = int(grid.n_points * frac)
        r_eval = grid.nodes[i]
        dist = np.sqrt(points[:, 0]**2 + points[:, 1]**2
                       + (points[:, 2] - r_eval)**2)
        mc = n_atoms * float(np.mean(-coupling / dist))
        assert phi[i] == pytest.approx(mc, rel=1e-2, abs=0.0)


def _field_point_quadrature(r_eval, b, coupling, n_atoms, lam, y_max):
    """Brute-force double integral of the convolution in spherical
    coordinates centred on the field point (no J table, no grid)."""
    from numpy.polynomial.legendre import leggauss

    glx, glw = leggauss(32)
    edges = np.arange(0.0, y_max, 0.125 * lam)
    edges = np.append(edges, y_max)
    total = 0.0
    for a, bb in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + bb), 0.5 * (bb - a)
        yy = mid + half * glx
        wy = half * glw
        kernel = pair_potential(yy / lam, coupling, lam)
        inner = np.empty_like(yy)
        for k, y in enumerate(yy):
            rr2 = r_eval**2 + y**2 + 2.0 * r_eval * y * glx
            gauss = np.exp(-rr2 / b**2) / (math.pi * b * b) ** 1.5
            inner[k] = float(np.sum(glw * gauss))
        total += float(np.sum(wy * 2 * math.pi * yy**2 * kernel * inner))
    return n_atoms * total


def test_hartree_full_kernel_against_double_integral(na):
    coupling = 1.7e-37
    n_atoms = 500.0
    b = 0.35 * LAM
    grid = RadialGrid(n_points=512, r_max=3.5 * LAM)
    rho = _gaussian_density(grid, n_atoms, b)
    phi = hartree_potential(rho, grid, coupling, LAM, kernel="full")
    for frac in (0.05, 0.15, 0.4):
        i = int(grid.n_points * frac)
        oracle = _field_point_quadrature(grid.nodes[i], b, coupling, n_atoms,
                                         LAM, y_max=8.0 * b)
        assert abs(phi[i] - oracle) / abs(oracle) < 1e-4


def _mpmath_j(t):
    """J(t)/(u lam) = -(15/(44 pi)) G(2 pi t) at 40 digits, with
    G(x) = Si(2x) + sin(2x)/x^2 + 3 cos(2x)/(2x^3) - 3 sin(2x)/(4x^4)."""
    import mpmath as mp

    with mp.workdps(40):
        x = 2 * mp.pi * mp.mpf(t)
        g = (mp.si(2 * x) + mp.sin(2 * x) / x**2
             + 3 * mp.cos(2 * x) / (2 * x**3) - 3 * mp.sin(2 * x) / (4 * x**4))
        return float(-15 * g / (44 * mp.pi))


@pytest.mark.parametrize("n, h", [(512, 0.025), (2048, 0.004)])
def test_j_table_matches_closed_form(n, h):
    # every node out to 15 past the kernel's series switch x = 2 pi t = 1,
    # then every 29th node out to the end of the table; both branches of the
    # kernel are at rounding accuracy, so the table is (5.6e-16 measured)
    first = math.ceil(X_SWITCH / (2.0 * math.pi * h)) + 15
    nodes = np.concatenate([np.arange(1, first), np.arange(first, 2 * n, 29), [2 * n]])
    table = _j_table(n, h, "full")
    assert table.shape == (2 * n + 1,) and table[0] == 0.0
    exact = np.array([_mpmath_j(k * h) for k in nodes])
    assert np.max(np.abs(table[nodes] - exact)) < 1e-15


@pytest.mark.parametrize("n", [256, 777, 1024, 4458])
def test_blocked_j_table_is_the_whole_table_bit_for_bit(n):
    # the table is built a block of cells at a time (777 and 4458 end on a
    # partial block); every value equals that of one kernel call on all cells
    nodes, weights = np.array(gpe._J_RULE_NODES), np.array(gpe._J_RULE_WEIGHTS)
    for h in (0.025, 0.004, 1e-4):
        t = h * (np.arange(2 * n)[:, None] + 0.5 * (nodes + 1.0))
        cells = (t * kernel_shape(t)) @ (0.5 * h * weights)
        whole = np.concatenate(([0.0], np.cumsum(cells)))
        assert np.array_equal(_j_table(n, h, "full"), whole)


def test_j_table_memory_follows_the_block():
    # one kernel call on all 2n x 6 nodes peaked at 70 MB at n = 65,536;
    # in blocks the node array itself sets the peak (9.4 MB measured)
    tracemalloc.start()
    try:
        _j_table(65536, 0.025, "full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_j_rule_is_numpys_gauss_legendre_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(6)
    assert np.array(gpe._J_RULE_NODES).tobytes() == nodes.tobytes()
    assert np.array(gpe._J_RULE_WEIGHTS).tobytes() == weights.tobytes()


def test_hartree_zero_density_and_linearity(na):
    coupling = 1.7e-37
    grid = RadialGrid(n_points=256, r_max=3.5 * LAM)
    zero = hartree_potential(np.zeros(256), grid, coupling, LAM)
    assert np.all(zero == 0.0)
    rho1 = _gaussian_density(grid, 300.0, 0.3 * LAM)
    rho2 = _gaussian_density(grid, 200.0, 0.6 * LAM)
    lhs = hartree_potential(rho1 + rho2, grid, coupling, LAM)
    rhs = hartree_potential(rho1, grid, coupling, LAM) \
        + hartree_potential(rho2, grid, coupling, LAM)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_hartree_input_validation(na):
    grid = RadialGrid(n_points=256, r_max=3.5 * LAM)
    with pytest.raises(ValueError, match="one sample per node"):
        hartree_potential(np.zeros(255), grid, 1e-37, LAM)
    bad = np.zeros(256)
    bad[10] = math.nan
    with pytest.raises(ValueError, match="finite"):
        hartree_potential(bad, grid, 1e-37, LAM)
    with pytest.raises(ValueError, match="too coarse"):
        # 256 points over 100 wavelengths: fewer than 20 per half-oscillation
        hartree_potential(np.zeros(256), RadialGrid(256, 100.0 * LAM),
                          1e-37, LAM, kernel="full")
    with pytest.raises(ValueError, match="unknown kernel"):
        hartree_potential(np.zeros(256), grid, 1e-37, LAM, kernel="bessel")
