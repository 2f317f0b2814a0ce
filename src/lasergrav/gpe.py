"""Radial imaginary-time ground-state solver for the nonlocal mean-field
equation; independent cross-check of the variational widths.

For an isotropic kernel and an isotropic density the mean-field potential
reduces to a one-dimensional integral

    Phi(R) = (2 pi / R) Int_0^inf s rho(s) [ J(R+s) - J(|R-s|) ] ds,

with J(t) = Int_0^t t' U(t') dt' finite at zero because t U(t) -> -u.  J is
tabulated once per solve on the nodes t_k = k h as a cumulative sum of one
fixed Gauss-Legendre rule per cell [t_k, t_k+1].  The integrand has a
derivative kink at s = R, so the quadrature uses composite Simpson weights
split at that node; the whole convolution is then a precomputed dense matrix
applied per iteration, O(n^2) with small constants.

The solver relaxes v = R * Psi (which makes the radial Laplacian
tridiagonal) by the normalized gradient flow with backward-Euler steps of
Bao & Du, SIAM J. Sci. Comput. 25, 1674 (2004): kinetic term, trap, contact
and the Hartree potential of the current state are all taken implicitly, so
each step is one tridiagonal elimination, followed by renormalization to N,
with Dirichlet boundaries v(0) = v(R_max) = 0.  The step grows while the
eigen-residual ||(H[rho] - mu) v|| / |mu| falls, and the solve stops when
that residual is small, so the iteration count does not grow with the grid
and the answer does not depend on the starting width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .errors import CollapseError, ConvergenceError, NumericsError
from .interaction import kernel_shape
from .variational import AnsatzConfig, minimize_width

# full kernel needs >= 20 grid points per lam/2 oscillation
_MIN_POINTS_PER_HALF_WAVE = 20
# Gauss-Legendre nodes per J-table cell.  The check above keeps a full-kernel
# cell at most lam/40 wide, 1/20 of the lam/2 period of t U(t); there the
# rule's truncation error is about 1e-17 of u lam (4 nodes: 5e-16), far
# below the rounding of the kernel values it sums.
_J_RULE_NODES = 6

# stop when ||(H[rho] - mu) v|| / |mu| falls below this
RESIDUAL_TOL = 1e-8
# step growth factor after an accepted step that lowered the residual
DTAU_GROWTH = 1.25
MAX_ITERATIONS = 400_000
_ENERGY_SLACK = 1e-12


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with nodes R_i = i h, i = 1..n."""

    n_points: int
    r_max: float

    def __post_init__(self):
        if self.n_points < 256:
            raise ValueError(f"need at least 256 points, got {self.n_points}")
        if not self.r_max > 0.0:
            raise ValueError("r_max must be positive")

    @property
    def spacing(self) -> float:
        return self.r_max / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class GroundState:
    """Converged order parameter and its diagnostics (all SI)."""

    grid: RadialGrid
    psi: np.ndarray          # m^(-3/2), nodeless and non-negative
    density: np.ndarray      # m^-3
    potential: np.ndarray    # J, Hartree potential of ``density``
    mu: float                # J
    r_rms: float             # m
    iterations: int
    residual: float          # eigen-residual ||(H[rho] - mu) v|| / |mu|
    n_atoms: float
    energies: dict = field(repr=False)  # per-term totals, J


def _simpson_weights(m: int, h: float) -> np.ndarray:
    """Composite Simpson weights over m uniform intervals (3/8 tail if odd)."""
    w = np.zeros(m + 1)
    if m == 0:
        return w
    if m == 1:
        w[:] = 0.5 * h
        return w
    if m % 2 == 0:
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
        return w
    k = m - 3
    if k > 0:
        w[0] = h / 3.0
        w[1:k:2] = 4.0 * h / 3.0
        w[2:k:2] = 2.0 * h / 3.0
        w[k] = h / 3.0
    w[k] += 3.0 * h / 8.0
    w[k + 1] += 9.0 * h / 8.0
    w[k + 2] += 9.0 * h / 8.0
    w[k + 3] += 3.0 * h / 8.0
    return w


def _kink_split_weights(n: int, h: float) -> np.ndarray:
    """Row i: s-quadrature weights over nodes 1..n, split at the kink s = R_i;
    node 0 is left out, as the integrand vanishes at s = 0."""
    w = np.zeros((n, n))
    for i in range(1, n + 1):
        w[i - 1, :i] += _simpson_weights(i, h)[1:]
        w[i - 1, i - 1:] += _simpson_weights(n - i, h)
    return w


def _j_table(n: int, h_dimless: float, kernel: str) -> np.ndarray:
    """J(t)/ (u lam) on t_k = k h, k = 0..2n, t in wavelength units."""
    if kernel == "near_zone":
        return -h_dimless * np.arange(0, 2 * n + 1)
    # the rule's nodes lie inside each cell, so t U(t) is never needed at 0
    nodes, weights = np.polynomial.legendre.leggauss(_J_RULE_NODES)
    t = h_dimless * (np.arange(2 * n)[:, None] + 0.5 * (nodes + 1.0))
    cells = (t * kernel_shape(t)) @ (0.5 * h_dimless * weights)
    return np.concatenate(([0.0], np.cumsum(cells)))


class _HartreeOperator:
    """Dense convolution matrix for one (grid, wavelength, kernel) triple.

    Maps density samples on the grid nodes to the mean-field potential in
    units of u/lam; linear in the density by construction.
    """

    def __init__(self, grid: RadialGrid, wavelength: float, kernel: str):
        if kernel not in ("full", "near_zone"):
            raise ValueError(f"unknown kernel {kernel!r}")
        n = grid.n_points
        h = grid.spacing / wavelength
        if kernel == "full" and h > 0.5 / _MIN_POINTS_PER_HALF_WAVE:
            raise ValueError(
                f"grid too coarse for the oscillatory kernel: spacing "
                f"{grid.spacing:.3e} m resolves fewer than "
                f"{_MIN_POINTS_PER_HALF_WAVE} points per half-oscillation")
        self._x = grid.nodes / wavelength
        j_tab = _j_table(n, h, kernel)
        # entry (i, j), nodes 1..n: J(t_{i+j}) - J(t_{|i-j|}), from strided
        # Hankel and Toeplitz views so that only the result is allocated
        windows = np.lib.stride_tricks.sliding_window_view
        sym = np.concatenate((j_tab[n - 1:0:-1], j_tab[:n]))  # J(t_|k|), |k| < n
        matrix = windows(j_tab[2:], n) - windows(sym, n)[:, ::-1]
        matrix *= _kink_split_weights(n, h)
        self._matrix = matrix

    def __call__(self, rho_dimless: np.ndarray) -> np.ndarray:
        """Potential in units of u/lam for density samples in units lam^-3."""
        return (2.0 * math.pi / self._x) * (self._matrix @ (self._x * rho_dimless))


def _solve_tridiagonal(off: float, diag: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system with diagonal ``diag`` and the
    constant off-diagonal ``off`` by Thomas elimination.

    Two plain-Python loops over list copies, since indexing Python floats
    costs several times less than indexing numpy elements one at a time.
    """
    pivots = diag.tolist()
    y = rhs.tolist()
    pivot, y_i = pivots[0], y[0]
    for i in range(1, len(y)):
        ratio = off / pivot
        pivot = pivots[i] - ratio * off
        y_i = y[i] - ratio * y_i
        pivots[i] = pivot
        y[i] = y_i
    x_i = 0.0
    for i in range(len(y) - 1, -1, -1):
        x_i = (y[i] - off * x_i) / pivots[i]
        y[i] = x_i
    return np.array(y)


def hartree_potential(rho: np.ndarray, grid: RadialGrid, coupling: float,
                      wavelength: float, kernel: str = "full") -> np.ndarray:
    """Mean-field potential (J) of an isotropic density (m^-3) on the grid."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n_points,):
        raise ValueError(
            f"density must have one sample per node, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density samples must be finite")
    op = _HartreeOperator(grid, wavelength, kernel)
    return (coupling / wavelength) * op(rho * wavelength**3)


def solve_ground(cfg: AnsatzConfig, grid: RadialGrid,
                 w_init: Optional[float] = None,
                 on_step=None) -> GroundState:
    """Relax to the mean-field ground state on ``grid``.

    The starting profile is a Gaussian of width ``w_init`` (in wavelength
    units); when omitted the variational equilibrium width is used if one
    exists, else 1.  Each step solves the backward-Euler system
    ``(1 + dtau (T + V - min V)) v_new = v`` with the whole local potential
    ``V`` (trap, contact and the Hartree term of the current state) taken
    implicitly, then renormalizes.  A step that raises the energy is
    rejected and retried at half ``dtau``; after an accepted step ``dtau``
    grows by ``DTAU_GROWTH`` while the eigen-residual falls and halves, not
    below ``0.1 h^2``, when it rises.  The solve stops once the
    eigen-residual ``||(H[rho] - mu) v|| / |mu|`` is below ``RESIDUAL_TOL``.
    Raises :class:`ConvergenceError` after ``MAX_ITERATIONS`` steps
    (accepted plus rejected) and :class:`CollapseError` when the cloud
    shrinks below four grid spacings.  The kinetic term is always retained
    (``cfg.tf_limit`` only affects the variational treatment).
    ``on_step(iteration, energy_J, mu_J)`` is invoked after every accepted
    step.  ``potential`` is :func:`hartree_potential` of the final density.
    """
    lam = cfg.interaction.wavelength
    m = cfg.species.mass
    hbar = CONSTANTS.hbar
    n = grid.n_points
    h = grid.spacing / lam            # dimensionless spacing
    x = grid.nodes / lam
    energy_unit = hbar**2 / (m * lam**2)

    # dimensionless couplings: contact 4 pi N a / lam, attraction u N m lam / hbar^2
    g_sw = 4.0 * math.pi * cfg.n_atoms * cfg.species.scattering_length / lam
    gamma = cfg.interaction.coupling * cfg.n_atoms * m * lam / hbar**2
    omega_t = m * cfg.trap_frequency * lam**2 / hbar
    v_trap = 0.5 * omega_t**2 * x**2

    # no coupling means no kernel resolution constraint on the grid
    hartree = _HartreeOperator(grid, lam, cfg.kernel) if gamma != 0.0 else None

    if w_init is None:
        trial = minimize_width(cfg)
        w_init = trial.w_star if trial.bound_local else 1.0

    v = x * np.exp(-x**2 / (2.0 * w_init**2))
    v /= math.sqrt(4.0 * math.pi * h * float(v @ v))

    # v = x Psi: kinetic operator is -(1/2) d^2/dx^2, Dirichlet at both ends
    dtau_floor = 0.1 * h * h
    dtau = dtau_floor

    def apply_kinetic(vec):
        out = 2.0 * vec.copy()
        out[:-1] -= vec[1:]
        out[1:] -= vec[:-1]
        return out * (0.5 / h**2)

    def evaluate(vec):
        """Local potential, energy terms, mu and eigen-residual of ``vec``."""
        chi2 = (vec / x) ** 2
        phi = gamma * hartree(chi2) if gamma != 0.0 else np.zeros(n)
        kin = apply_kinetic(vec)
        local = v_trap + g_sw * chi2 + phi
        e_kin = 4.0 * math.pi * h * float(vec @ kin)
        e_trap = 4.0 * math.pi * h * float((v_trap * vec) @ vec)
        e_sw = 4.0 * math.pi * h * 0.5 * g_sw * float((chi2 * vec) @ vec)
        e_grav = 4.0 * math.pi * h * 0.5 * float((phi * vec) @ vec)
        mu = e_kin + e_trap + 2.0 * e_sw + 2.0 * e_grav
        r = kin + local * vec - mu * vec
        residual = math.sqrt(4.0 * math.pi * h * float(r @ r)) / max(abs(mu), 1e-300)
        return local, (e_kin, e_trap, e_sw, e_grav), mu, residual

    local, terms, mu, residual = evaluate(v)
    energy_prev = sum(terms)
    iterations = 0

    while residual >= RESIDUAL_TOL:
        if iterations >= MAX_ITERATIONS:
            raise ConvergenceError(
                f"no convergence after {MAX_ITERATIONS} iterations "
                f"(eigen-residual {residual:.3e}, target {RESIDUAL_TOL:g})")
        iterations += 1
        # diag >= 1 + 2|off| since V >= min V: strictly diagonally dominant,
        # every pivot is at least 1 + |off|, so no pivoting is needed
        v_new = _solve_tridiagonal(
            -0.5 * dtau / h**2, 1.0 + dtau * (1.0 / h**2 + local - local.min()), v)
        norm = 4.0 * math.pi * h * float(v_new @ v_new)
        if not math.isfinite(norm) or norm <= 0.0:
            raise NumericsError("relaxation produced a non-normalizable state")
        v_new /= math.sqrt(norm)

        local_new, terms_new, mu_new, residual_new = evaluate(v_new)
        energy = sum(terms_new)
        if energy > energy_prev + _ENERGY_SLACK * abs(energy_prev):
            # reject the step; the potential still belongs to the accepted state
            dtau *= 0.5
            if dtau < 1e-8 * dtau_floor:
                raise ConvergenceError(
                    f"time step collapsed below {1e-8 * dtau_floor:g} without "
                    f"monotone energy descent")
            continue

        if residual_new < residual:
            dtau *= DTAU_GROWTH
        else:
            dtau = max(0.5 * dtau, dtau_floor)
        v, local, terms, mu, residual = v_new, local_new, terms_new, mu_new, residual_new
        energy_prev = energy
        if on_step is not None:
            on_step(iterations, cfg.n_atoms * energy * energy_unit,
                    mu * energy_unit)

        r_rms_dimless = math.sqrt(4.0 * math.pi * h * float((x**2 * v) @ v))
        if r_rms_dimless < 4.0 * h:
            raise CollapseError(
                f"cloud radius {r_rms_dimless * lam:.3e} m fell below four "
                f"grid spacings after {iterations} iterations")

    r_rms_dimless = math.sqrt(4.0 * math.pi * h * float((x**2 * v) @ v))
    e_kin, e_trap, e_sw, e_grav = terms
    chi = v / x
    psi = math.sqrt(cfg.n_atoms) / lam**1.5 * chi
    density = psi**2
    potential = np.zeros(n) if hartree is None else \
        (cfg.interaction.coupling / lam) * hartree(density * lam**3)
    energies = {
        "kinetic": cfg.n_atoms * e_kin * energy_unit,
        "trap": cfg.n_atoms * e_trap * energy_unit,
        "swave": cfg.n_atoms * e_sw * energy_unit,
        "gravitational": cfg.n_atoms * e_grav * energy_unit,
        "total": cfg.n_atoms * (e_kin + e_trap + e_sw + e_grav) * energy_unit,
    }
    return GroundState(
        grid=grid,
        psi=psi,
        density=density,
        potential=potential,
        mu=mu * energy_unit,
        r_rms=r_rms_dimless * lam,
        iterations=iterations,
        residual=residual,
        n_atoms=cfg.n_atoms,
        energies=energies,
    )

