import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.special import erf

from lasergrav import (CONSTANTS, AnsatzConfig, CollapseError,
                       InteractionParams, RadialGrid, config_at_ratio,
                       hartree_potential, pair_potential, solve_ground)
from lasergrav.gpe import RESIDUAL_TOL, _j_table, _solve_tridiagonal
from lasergrav.interaction import X_SWITCH

LAM = 589e-9


def _interaction(species, coupling, intensity=1.0):
    """Interaction with an explicitly chosen coupling (for oracle setups)."""
    return InteractionParams(intensity=intensity, wavelength=LAM,
                             coupling=coupling,
                             alpha_si=species.alpha_si())


@pytest.fixture(scope="module")
def no_contact(na):
    """Sodium-mass species with the contact interaction switched off."""
    return replace(na, scattering_length=0.0, detuned=None)


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 256"):
        RadialGrid(n_points=128, r_max=1e-6)
    with pytest.raises(ValueError):
        RadialGrid(n_points=512, r_max=0.0)
    grid = RadialGrid(n_points=512, r_max=1.024e-6)
    assert grid.spacing == pytest.approx(2e-9)
    assert grid.nodes[0] == pytest.approx(grid.spacing)
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
    grid = RadialGrid(n_points=512, r_max=8.0 * r_rms_exact)
    state = solve_ground(cfg, grid)
    assert state.mu == pytest.approx(1.5 * CONSTANTS.hbar * omega0, rel=1e-4)
    assert state.r_rms == pytest.approx(r_rms_exact, rel=1e-4)
    energies = state.energies
    assert energies["kinetic"] == pytest.approx(energies["trap"], rel=1e-3)
    # no pairwise terms: mu N equals the total energy
    assert state.mu * state.n_atoms == pytest.approx(energies["total"], rel=1e-10)


def test_harmonic_oscillator_relaxes_from_displaced_start(no_contact):
    # starting 1.7x too wide, the energy falls along the relaxation and the
    # eigen-residual stop lands on the exact oscillator ground state
    omega0 = 2 * math.pi * 100.0
    l0 = math.sqrt(CONSTANTS.hbar / (no_contact.mass * omega0))
    r_rms_exact = math.sqrt(1.5) * l0
    cfg = AnsatzConfig(n_atoms=1000.0, species=no_contact,
                       interaction=_interaction(no_contact, 0.0, 0.0),
                       trap_frequency=omega0)
    grid = RadialGrid(n_points=512, r_max=8.0 * r_rms_exact)
    energies = []
    state = solve_ground(cfg, grid, w_init=1.7 * l0 / LAM,
                         on_step=lambda it, e, mu: energies.append(e))
    assert energies[-1] < energies[0]
    assert state.mu == pytest.approx(1.5 * CONSTANTS.hbar * omega0, rel=1e-4)
    assert state.r_rms == pytest.approx(r_rms_exact, rel=1e-4)


def test_normalization_invariant(gpe_full_512):
    state, _ = gpe_full_512
    grid = state.grid
    total = 4 * math.pi * grid.spacing * float(np.sum(grid.nodes**2 * state.psi**2))
    assert total == pytest.approx(state.n_atoms, rel=1e-8)
    assert np.all(state.psi >= 0.0)


def test_full_kernel_matches_variational_width(gpe_full_512, tf_width_15):
    state, _ = gpe_full_512
    assert state.r_rms == pytest.approx(tf_width_15.r_rms, rel=0.10)


def test_grid_refinement_convergence(gpe_full_512, gpe_full_1024):
    r512 = gpe_full_512[0].r_rms
    r1024 = gpe_full_1024[0].r_rms
    assert abs(r1024 - r512) / r512 < 5e-3


def test_radius_independent_of_starting_width(gpe_full_512, tf_width_15,
                                              solve_full_512):
    # the eigen-residual stop leaves no trace of the starting profile
    r_ref = gpe_full_512[0].r_rms
    for factor in (0.5, 0.6, 2.0):
        state = solve_full_512(factor * tf_width_15.w_star)
        assert state.r_rms == pytest.approx(r_ref, rel=1e-6)


def test_ground_state_meets_residual_tolerance(gpe_full_512, gpe_full_1024):
    for state, _ in (gpe_full_512, gpe_full_1024):
        assert state.residual < RESIDUAL_TOL


def test_iteration_count_independent_of_grid(gpe_full_512, gpe_full_1024):
    # iteration counts do not depend on the machine, so they can be pinned
    it512 = gpe_full_512[0].iterations
    it1024 = gpe_full_1024[0].iterations
    assert it1024 <= 1000
    assert it1024 <= 1.5 * it512


# Iterations, r_rms (m) and mu (J) of the two full-kernel solves below, as
# recorded when each step still called scipy.linalg.solveh_banded (LAPACK
# banded Cholesky); the in-module elimination must reproduce them.
_BANDED_CHOLESKY_REFERENCE = {
    512: (191, 2.3170018980418935e-07, -1.4381607211513371e-28),
    1024: (198, 2.3170183664198944e-07, -1.4381497431114609e-28),
}


def test_solve_reproduces_banded_cholesky_reference(gpe_full_512,
                                                    gpe_full_1024):
    for state, _ in (gpe_full_512, gpe_full_1024):
        iterations, r_rms, mu = \
            _BANDED_CHOLESKY_REFERENCE[state.grid.n_points]
        assert state.iterations == iterations
        assert state.r_rms == pytest.approx(r_rms, rel=1e-12)
        assert state.mu == pytest.approx(mu, rel=1e-12)


def _solver_system(n, dtau_over_h2):
    """Off-diagonal, diagonal and a right-hand side in the solver's form
    ``1 + dtau (1/h^2 + V - min V)``, with a trap plus a rough potential."""
    rng = np.random.default_rng(n)
    h = 3.5 / n
    local = 50.0 * (h * np.arange(1, n + 1)) ** 2 + 1e3 * rng.random(n)
    off = -0.5 * dtau_over_h2
    diag = 1.0 + dtau_over_h2 * h * h * (1.0 / h**2 + local - local.min())
    return off, diag, rng.standard_normal(n)


@pytest.mark.parametrize("dtau_over_h2", [0.1, 1.0, 10.0, 1e2, 1e3, 1e4])
@pytest.mark.parametrize("n", [256, 512, 1024])
def test_solve_tridiagonal_matches_dense_and_banded(n, dtau_over_h2):
    off, diag, rhs = _solver_system(n, dtau_over_h2)
    x = _solve_tridiagonal(off, diag, rhs)
    dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    banded = np.vstack((np.full(n, off), diag))
    for reference in (np.linalg.solve(dense, rhs), solveh_banded(banded, rhs)):
        assert np.max(np.abs(x - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("dtau_over_h2", [0.1, 1.0, 1e2, 1e4])
def test_solve_tridiagonal_pivots_stay_above_one_plus_off(dtau_over_h2):
    # strict diagonal dominance, diag >= 1 + 2|off|, keeps every pivot at
    # or above 1 + |off|.  The leading k x k system with right-hand side e_k has
    # last component exactly 1/pivot_k, so the pivots are read off the
    # elimination itself.
    off, diag, _ = _solver_system(256, dtau_over_h2)
    pivots = [1.0 / _solve_tridiagonal(off, diag[:k], np.eye(k)[-1])[-1]
              for k in range(1, len(diag) + 1)]
    assert min(pivots) >= 1.0 + abs(off)


def test_bound_state_has_negative_attraction_energy(gpe_full_512):
    state, _ = gpe_full_512
    assert state.energies["gravitational"] < 0.0
    # peak density sits at the origin for the bound state
    assert np.argmax(state.density) == 0


def test_energy_monotone_along_imaginary_time(na, no_contact):
    omega0 = 2 * math.pi * 100.0
    l0 = math.sqrt(CONSTANTS.hbar / (no_contact.mass * omega0))
    cfg = AnsatzConfig(n_atoms=10.0, species=no_contact,
                       interaction=_interaction(no_contact, 0.0, 0.0),
                       trap_frequency=omega0)
    grid = RadialGrid(n_points=256, r_max=8.0 * math.sqrt(1.5) * l0)
    energies = []
    solve_ground(cfg, grid, w_init=2.0 * l0 / LAM,
                 on_step=lambda it, e, mu: energies.append(e))
    energies = np.array(energies)
    assert len(energies) > 10
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
    grid = RadialGrid(n_points=512, r_max=8.0 * math.sqrt(1.5) * b_star)
    state = solve_ground(cfg, grid)
    # width and total energy of the PDE ground state track the Gaussian oracle
    assert state.r_rms == pytest.approx(math.sqrt(1.5) * b_star, rel=0.10)
    e_oracle = n_atoms * (
        3 * CONSTANTS.hbar**2 / (4 * no_contact.mass * b_star**2)
        - coupling * n_atoms / (math.sqrt(2 * math.pi) * b_star))
    assert state.energies["total"] == pytest.approx(e_oracle, rel=0.10)


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
        grid = RadialGrid(n_points=512, r_max=8.0 * math.sqrt(1.5) * b_star)
        state = solve_ground(cfg, grid)
        results.append(state.energies["total"])
    assert results[1] / results[0] == pytest.approx(4.0, rel=0.10)


def test_collapse_detection(no_contact):
    # attraction strong enough that the equilibrium width sits below the
    # four-spacing resolution floor
    n_atoms = 1000.0
    gamma = 600.0
    coupling = gamma * CONSTANTS.hbar**2 / (n_atoms * no_contact.mass * LAM)
    cfg = AnsatzConfig(n_atoms=n_atoms, species=no_contact,
                       interaction=_interaction(no_contact, coupling),
                       kernel="near_zone")
    grid = RadialGrid(n_points=256, r_max=2.0 * LAM)
    with pytest.raises(CollapseError):
        solve_ground(cfg, grid, w_init=0.3)


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
    near = solve_ground(cfg, RadialGrid(n_points=256, r_max=2.0 * LAM))
    assert np.array_equal(near.potential, hartree_potential(
        near.density, near.grid, coupling, LAM, kernel="near_zone"))

    # u = 0: no Hartree term at all
    omega0 = 2 * math.pi * 100.0
    cfg = AnsatzConfig(n_atoms=1000.0, species=no_contact,
                       interaction=_interaction(no_contact, 0.0, 0.0),
                       trap_frequency=omega0)
    l0 = math.sqrt(CONSTANTS.hbar / (no_contact.mass * omega0))
    still = solve_ground(cfg, RadialGrid(n_points=256, r_max=10.0 * l0))
    assert still.potential.shape == (256,) and not still.potential.any()


def _gaussian_density(grid, n_atoms, b):
    r = grid.nodes
    return n_atoms * np.exp(-(r / b) ** 2) / (math.pi * b * b) ** 1.5


def test_hartree_newtonian_gaussian_oracle(na):
    # -u/r kernel and a Gaussian source: Phi(R) = -u N erf(R/b) / R
    coupling = 1.7e-37
    n_atoms = 500.0
    b = 0.35 * LAM
    grid = RadialGrid(n_points=512, r_max=3.5 * LAM)
    rho = _gaussian_density(grid, n_atoms, b)
    phi = hartree_potential(rho, grid, coupling, LAM, kernel="near_zone")
    exact = -coupling * n_atoms * erf(grid.nodes / b) / grid.nodes
    assert np.max(np.abs(phi - exact) / np.abs(exact)) < 1e-2
    # far tighter in practice away from the innermost node, where the
    # one-interval split piece degrades to trapezoid order
    assert np.max(np.abs(phi[4:] - exact[4:]) / np.abs(exact[4:])) < 1e-6


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
        assert phi[i] == pytest.approx(mc, rel=1e-2)


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
