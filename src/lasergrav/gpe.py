"""Radial imaginary-time ground-state solver for the nonlocal mean-field
equation; independent cross-check of the variational widths.

For an isotropic kernel and an isotropic density the mean-field potential
reduces to a one-dimensional integral

    Phi(R) = (2 pi / R) Int_0^inf s rho(s) [ J(R+s) - J(|R-s|) ] ds,

with J(t) = Int_0^t t' U(t') dt' finite at zero because t U(t) -> -u.  J is
tabulated once per solve on the nodes t_k = k h as a cumulative sum of one
fixed Gauss-Legendre rule per cell [t_k, t_k+1].  The s-integral is the
trapezoid rule plus two Euler-Maclaurin terms for the derivative kink at
s = R, a corrected trapezoid rule in the sense of Kapur & Rokhlin, SIAM J.
Numer. Anal. 34, 1331 (1997): a symmetric Hankel-minus-Toeplitz operator,
O(h^6), applied by FFT convolution in O(n log n) and never stored as a
matrix.

The solver takes Newton steps on the discrete eigenproblem
(H[rho] - mu) v = 0, |v| = 1 for v = R * Psi (which makes the radial
Laplacian tridiagonal), with Dirichlet ends v(0) = v(R_max) = 0.  Each step
solves its Jacobian system on v-perp, the tangent space of the norm, by GMRES
to a tenth of the eigen-residual ||(H[rho] - mu) v|| / sum |E_term| (inexact
Newton: Eisenstat & Walker, SIAM J. Sci. Comput. 17, 16 (1996)), with the
Jacobian applied as a product and preconditioned by its tridiagonal part on
v-perp, factored once per step and applied by recursive doubling.  GMRES's
small triangular system is solved by back substitution in the module, so the
solve makes no LAPACK call.  Where Newton heads for a noded state of higher
energy (in a box below threshold, where the wall holds the cloud), a
Levenberg-Marquardt shift on the Jacobian's diagonal (Marquardt, J. SIAM 11,
431 (1963)) turns the rejected step into a descent step, let go again as the
steps are accepted.  The iteration count does not grow with the grid.  A
solve without coupling takes the same path with a zero Hartree map.

One variational solve gives the start and, unless the caller fixes it, the
grid: 8 variational radii at a spacing of at most lam/40 for the full
kernel.  An unbound variational state gives no radius, so it needs a box.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from ._record import Record
from .constants import CONSTANTS
from .errors import CollapseError, ConvergenceError, NumericsError, UnboundError
from .interaction import kernel_shape
from .variational import AnsatzConfig, EnergyBreakdown, _minimum, _reduced

# 6-point Gauss-Legendre rule per J-table cell: numpy's leggauss(6) bit for bit,
# without loading numpy.polynomial.  A full-kernel cell is at most lam/40 wide,
# 1/20 of the lam/2 period of t U(t); there the rule's error is about 1e-17 of
# u lam (4 nodes: 5e-16), below the rounding of the values it sums.
_J_RULE_NODES = (-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                 0.2386191860831969, 0.6612093864662645, 0.9324695142031519)
_J_RULE_WEIGHTS = (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                   0.46791393457269104, 0.3607615730481387, 0.17132449237917027)
# J-table cells per kernel evaluation (6 nodes each): a grid of n <= 512
# takes one block
_J_BLOCK_CELLS = 1024

# fewest grid points a solve takes
MIN_POINTS = 256
# full kernel needs >= 20 grid points per lam/2 oscillation
_MIN_POINTS_PER_HALF_WAVE = 20
# most points solve_ground picks by itself: a solve at this size takes about
# 0.45 s and 61 MB on a 2-core host, so wider boxes need an explicit n_points
_MAX_DEFAULT_POINTS = 65_536
# stop when ||(H[rho] - mu) v|| / sum |E_term| falls below this
RESIDUAL_TOL = 1e-8
MAX_ITERATIONS = 100
# energy rise, over the residual's scale, that rejects a step
_ENERGY_SLACK = 1e-12
# Krylov steps at most per Newton step
_GMRES_MAX_STEPS = 60
# a preconditioner factorization keeps doubling levels while their products
# total at most this many floats (1 MiB), and its first level always:
# every level up to 8,192 points, the first 2 of 16 at 65,536, where all
# would take 7.5 MiB beside the GMRES basis
_KEPT_PRODUCTS = 1 << 17


class RadialGrid(Record):
    """Uniform radial grid with nodes R_i = i h, i = 1..n."""

    n_points: int
    r_max: float

    def _check(self):
        if not isinstance(self.n_points, int):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < MIN_POINTS:
            raise ValueError(f"n_points must be at least {MIN_POINTS}, got {self.n_points}")
        if not self.r_max > 0.0:
            raise ValueError("r_max must be positive")

    @property
    def spacing(self) -> float:
        return self.r_max / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_points + 1)


class GroundState(Record):
    """Converged order parameter and its diagnostics (all SI).  Its arrays are
    made read-only, and it compares and hashes by identity: arrays have no
    single truth value or hash."""

    grid: RadialGrid
    psi: np.ndarray          # m^(-3/2), nodeless and non-negative
    density: np.ndarray      # m^-3
    potential: np.ndarray    # J, Hartree potential of ``density``
    mu: float                # J
    r_rms: float             # m
    iterations: int
    residual: float          # eigen-residual ||(H[rho] - mu) v|| / sum |E_term|
    n_atoms: float
    energies: EnergyBreakdown  # totals for all N atoms, J

    def _check(self):
        for array in (self.psi, self.density, self.potential):
            array.flags.writeable = False

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _j_table(n: int, h_dimless: float, kernel: str) -> np.ndarray:
    """J(t)/ (u lam) on t_k = k h, k = 0..2n, t in wavelength units."""
    if kernel == "near_zone":
        return -h_dimless * np.arange(0, 2 * n + 1)
    # the rule's nodes lie inside each cell, so t U(t) is never needed at 0
    nodes, weights = np.array(_J_RULE_NODES), np.array(_J_RULE_WEIGHTS)
    t = h_dimless * (np.arange(2 * n)[:, None] + 0.5 * (nodes + 1.0))
    # t U(t) in place, one block of cells at a time, so that the kernel's
    # temporaries stay the size of a block, not of the table
    for start in range(0, 2 * n, _J_BLOCK_CELLS):
        block = t[start:start + _J_BLOCK_CELLS]
        block *= kernel_shape(block)
    cells = t @ (0.5 * h_dimless * weights)
    return np.concatenate(([0.0], np.cumsum(cells)))


class _HartreeOperator:
    """The mean-field convolution of one (grid, wavelength, kernel) triple.

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
        # h J plus product's kink terms at Toeplitz lags 0 and 1 (Hankel starts at 2)
        j_tab = h * _j_table(n, h, kernel)
        c3 = (46.0 / 77.0) * (2.0 * math.pi) ** 2 / 3.0 if kernel == "full" else 0.0
        j_tab[:2] += (-h**2 / 6.0 - h**2 / 60.0 - c3 * h**4 / 60.0, h**2 / 120.0)
        # circular convolutions of a power-of-two length of at least 2n - 1,
        # so that no lag -(n-1)..2n-2 of either kernel wraps onto another:
        # Toeplitz J(t_|k|) at lags -(n-1)..n-1, Hankel J(t_k+2) at 0..2n-2
        self._size = 1 << (2 * n - 2).bit_length()
        self._toeplitz = np.fft.rfft(np.concatenate(
            (j_tab[:n], np.zeros(self._size - 2 * n + 1), j_tab[n - 1:0:-1])))
        self._hankel = np.fft.rfft(j_tab[2:], self._size)

    def product(self, y: np.ndarray) -> np.ndarray:
        """``M y`` for the symmetric ``M = h (Hankel(J) - Toeplitz(J)) + (h^2/6 +
        c3 h^4/60) I - (h^2/120) D2``, entries ``J(t_i+j)`` and ``J(t_|i-j|)``
        over nodes i, j = 1..n, ``D2`` the second difference with zero ends.

        Applied to ``y = x rho`` this is the trapezoid rule, weight h on every node, for
        the s-integral of ``s rho(s) [J(R+s) - J(|R-s|)]``, even in s, so the end s = 0
        adds no error term.  As ``J(t) = -t + c3 t^3 + O(t^5)`` (``c3 = (46/77)
        (2 pi)^2/3``, 0 for ``-u/r``), at the kink s = R its slope jumps by ``2 y`` and
        its third derivative by ``6 y'' - 12 c3 y``; the Euler-Maclaurin terms,
        ``h^2/12`` and ``-h^4/720`` times these jumps, make the rule O(h^6).  The Hankel
        product is a convolution with the reversed ``y``, whose transform is the
        conjugate of that of ``y``.
        """
        f = np.fft.rfft(y, self._size)
        return np.fft.irfft(self._hankel * f.conj() - self._toeplitz * f, self._size)[:y.size]

    def __call__(self, rho_dimless: np.ndarray) -> np.ndarray:
        """Potential in units of u/lam for density samples in units lam^-3."""
        return (2.0 * math.pi / self._x) * self.product(self._x * rho_dimless)


class _Tridiagonal:
    """The symmetric tridiagonal matrix with diagonal ``diag`` and the
    constant off-diagonal ``off``, factored once for many solves.

    The pivots are the Thomas elimination's, in its order, ``p_0 = d_0``
    and ``p_i = d_i - (off / p_(i-1)) off``.  A solve is then two linear
    recurrences with the coefficients ``a_i = -off / p_(i-1)``: forward
    ``y_i = z_i + a_i y_(i-1)``, and backward ``x_i = y_i / p_i + a_(i+1)
    x_(i+1)``.  Each is taken by recursive doubling (Stone, J. ACM 20, 27
    (1973)), ``ceil(log2 n)`` whole-array passes at strides s = 1, 2, 4, ...,
    each adding to every entry the entry s away times the product of the s
    coefficients between them; both recurrences use the same products.
    Where every pivot is at least ``|off|`` (a diagonal of at least twice
    ``|off|``), every coefficient lies in (0, 1], so the products only
    shrink and nothing divides by them.
    """

    def __init__(self, off: float, diag: np.ndarray):
        n = diag.size
        self.pivots = np.array(list(itertools.accumulate(
            diag.tolist(), lambda pivot, d: d - off / pivot * off)))
        # the products of each doubling level, kept while they fit the
        # budget; a solve forms the levels past it from the last one kept
        self.levels = [-off / self.pivots[:-1]]
        kept, stride = n - 1, 1
        while 2 * stride < n and kept + n - 2 * stride <= _KEPT_PRODUCTS:
            last = self.levels[-1]
            self.levels.append(last[:-stride] * last[stride:])
            kept += n - 2 * stride
            stride *= 2

    def _passes(self):
        """(stride, products of ``stride`` consecutive coefficients) per
        doubling level, the i-th product spanning ``a_(i+1) .. a_(i+stride)``."""
        stride = 1
        for products in self.levels:
            yield stride, products
            stride *= 2
        while stride < self.pivots.size:
            half = stride // 2
            products = products[:-half] * products[half:]
            yield stride, products
            stride *= 2

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.array(rhs, dtype=float)
        for stride, products in self._passes():
            x[stride:] += products * x[:-stride]
        x /= self.pivots
        for stride, products in self._passes():
            x[:-stride] += products * x[stride:]
        return x


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


def _gmres(apply, precondition, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Solve ``apply(x) = rhs`` by right-preconditioned GMRES from x = 0
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856 (1986)).

    ``precondition`` applies an approximate inverse of ``apply``.  The Krylov
    basis is orthogonalized by classical Gram-Schmidt taken twice, and the
    least-squares problem is kept triangular by Givens rotations, so the
    residual norm is known at every step.  Stops once it is below
    ``tol ||rhs||``, or after ``_GMRES_MAX_STEPS`` steps.
    """
    beta = math.sqrt(float(rhs @ rhs))
    basis = np.empty((_GMRES_MAX_STEPS + 1, rhs.size))
    basis[0] = rhs / beta
    upper = np.zeros((_GMRES_MAX_STEPS + 1, _GMRES_MAX_STEPS))
    rotations = []
    target = np.zeros(_GMRES_MAX_STEPS + 1)
    target[0] = beta
    for k in range(_GMRES_MAX_STEPS):
        w = apply(precondition(basis[k]))
        for _ in range(2):
            coef = basis[:k + 1] @ w
            w -= coef @ basis[:k + 1]
            upper[:k + 1, k] += coef
        w_norm = math.sqrt(float(w @ w))
        column = upper[:, k]
        for j, (c, s) in enumerate(rotations):
            column[j], column[j + 1] = (c * column[j] + s * column[j + 1],
                                        c * column[j + 1] - s * column[j])
        d = math.hypot(column[k], w_norm)
        c, s = column[k] / d, w_norm / d
        rotations.append((c, s))
        column[k] = d
        target[k + 1] = -s * target[k]
        target[k] *= c
        if abs(target[k + 1]) <= tol * beta or w_norm == 0.0:
            break
        basis[k + 1] = w / w_norm
    m = len(rotations)
    y = _back_substitute(upper[:m, :m], target[:m])
    return precondition(y @ basis[:m])


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``x`` with ``upper @ x = rhs`` for a nonsingular upper-triangular
    ``upper``, by back substitution."""
    x = np.zeros(rhs.size)
    for i in range(rhs.size - 1, -1, -1):
        x[i] = (rhs[i] - upper[i, i + 1:] @ x[i + 1:]) / upper[i, i]
    return x


_State = namedtuple("_State", "v local terms mu r scale residual")


class _MeanField:
    """The reduced problem ``p`` (:func:`~lasergrav.variational._reduced`)
    on one grid: lengths in wavelengths, energies per atom in hbar^2/(m
    lam^2) = (4/3) kappa in any unit, so the attraction gamma = (3/4)
    c/kappa, the contact g_sw = (3/2) (2 pi)^1.5 b/kappa and the trap
    omega_t^2 = tau/kappa.  The state is v = x chi, chi = Psi lam^1.5/sqrt(N),
    on the nodes with the norm 4 pi h v.v = 1; v = x Psi makes T = -(1/2)
    d^2/dx^2 tridiagonal, with Dirichlet ends.  Without coupling the Hartree
    map is zero and every solve takes the same path."""

    def __init__(self, p, grid: RadialGrid):
        self.h = grid.spacing / p.lam
        self.x = grid.nodes / p.lam
        self.gamma = 0.75 * p.c / p.kappa
        self.g_sw = 1.5 * (2.0 * math.pi) ** 1.5 * p.b / p.kappa
        self.v_trap = 0.5 * (p.tau / p.kappa) * self.x**2
        # no coupling means no kernel resolution constraint on the grid
        self.hartree = _HartreeOperator(grid, p.lam, p.kernel) \
            if self.gamma != 0.0 else np.zeros_like

    def kinetic(self, vec: np.ndarray) -> np.ndarray:
        out = 2.0 * vec
        out[:-1] -= vec[1:]
        out[1:] -= vec[:-1]
        return out * (0.5 / self.h**2)

    def norm(self, vec: np.ndarray) -> float:
        return math.sqrt(4.0 * math.pi * self.h * float(vec @ vec))

    def r_rms(self, vec: np.ndarray) -> float:
        return math.sqrt(4.0 * math.pi * self.h * float((self.x**2 * vec) @ vec))

    def evaluate(self, vec: np.ndarray) -> _State:
        """``vec`` with its local potential V = trap + g chi^2 + gamma Phi[chi^2],
        the four energy terms per atom, mu, r = (T + V - mu) v, the energy scale
        sum |E_term| and the eigen-residual |r| / scale."""
        chi2 = (vec / self.x) ** 2
        phi = self.gamma * self.hartree(chi2)
        kin = self.kinetic(vec)
        local = self.v_trap + self.g_sw * chi2 + phi
        weight = 4.0 * math.pi * self.h
        e_kin = weight * float(vec @ kin)
        e_trap = weight * float((self.v_trap * vec) @ vec)
        e_sw = weight * 0.5 * self.g_sw * float((chi2 * vec) @ vec)
        e_grav = weight * 0.5 * float((phi * vec) @ vec)
        mu = e_kin + e_trap + 2.0 * e_sw + 2.0 * e_grav
        terms = (e_kin, e_trap, e_sw, e_grav)
        r = kin + local * vec - mu * vec
        scale = sum(map(abs, terms))
        return _State(vec, local, terms, mu, r, scale, self.norm(r) / scale)

    def jacobian(self, state: _State, shift: float):
        """Product with the Jacobian of ``(T + V[v] - mu) v`` in ``v`` at
        ``state``, shifted by ``shift`` and projected on v-perp, the tangent
        space of the norm: ``Q (T + diag(V + 2 g chi^2 - mu + shift) + K) dv``,
        ``K dv = gamma v Phi[2 chi dv/x]``, ``Q = I - v v^T/v.v``.  Maps
        n-vectors to n-vectors; never forms the matrix."""
        vec = state.v
        chi = vec / self.x
        diag = state.local + 2.0 * self.g_sw * chi**2 - state.mu + shift

        def product(dv: np.ndarray) -> np.ndarray:
            out = self.kinetic(dv) + diag * dv
            out += (self.gamma * vec) * self.hartree(2.0 * chi * dv / self.x)
            return out - float(vec @ out) / float(vec @ vec) * vec

        return product

    def newton_update(self, state: _State, shift: float) -> np.ndarray:
        """``state.v`` plus one Newton step on ``(T + V[v] - mu) v = 0`` on the
        sphere ``4 pi h v.v = 1``: ``Q J dv = -Q r`` for ``dv`` orthogonal to
        ``v`` (:meth:`jacobian`, ``shift >= 0`` on its diagonal), solved by
        GMRES to the forcing term, a tenth of ``state.residual``.

        The preconditioner is the constraint preconditioner ``P^-1 z - P^-1 v
        (v.P^-1 z)/(v.P^-1 v)`` (Gould, Hribar & Nocedal, SIAM J. Sci. Comput.
        23, 1376 (2001)) of ``P = T + diag(V - min V + 2 g chi^2 + shift)``:
        symmetric, with a diagonal of at least twice the off-diagonal and more
        in the first row, so irreducibly diagonally dominant and positive
        definite; its Thomas elimination, once per step, needs no pivoting.
        """
        vec, local = state.v, state.local
        pre = _Tridiagonal(-0.5 / self.h**2, 1.0 / self.h**2 + local - local.min()
                           + 2.0 * self.g_sw * (vec / self.x) ** 2 + shift)
        pre_v = pre.solve(vec)
        pre_v /= float(vec @ pre_v)

        def precondition(z: np.ndarray) -> np.ndarray:
            y = pre.solve(z)
            return y - float(vec @ y) * pre_v

        # r is orthogonal to v only to rounding, which GMRES on v-perp cannot cut
        rhs = float(vec @ state.r) / float(vec @ vec) * vec - state.r
        return vec + _gmres(self.jacobian(state, shift), precondition, rhs,
                            0.1 * state.residual)


def solve_ground(cfg: AnsatzConfig, n_points: int | None = None,
                 r_max: float | None = None, on_step=None) -> GroundState:
    """Relax to the mean-field ground state on a grid of ``n_points`` nodes
    out to ``r_max`` (m), returned as ``GroundState.grid``.

    One variational solve, of the reduced problem the solver takes, sizes
    the grid and sets the start.  ``r_max`` defaults to 8 times the
    variational ``r_rms``; where the variational state is unbound there is
    no radius to size the box by, and without an explicit ``r_max``
    :class:`UnboundError` is raised before any solve.
    ``n_points`` defaults to 512 for the ``-u/r`` kernel, and for the full
    kernel to as many as a spacing of ``lam/40`` needs over the box, at
    least 512 and at most ``_MAX_DEFAULT_POINTS``; past that cap the
    Hartree operator's "too coarse" ``ValueError`` asks for an explicit
    ``n_points``.

    The start is a Gaussian of the variational equilibrium width, or of one
    wavelength where the variational state is unbound.  Every step is one
    :meth:`_MeanField.newton_update`, renormalized, with a scalar ``shift``
    on the Jacobian's diagonal that starts at 0.  The eigen-residual is
    ``||(T + V - mu) v||`` over ``scale = sum |E_term|`` per atom, which
    bounds the energy's rounding and, as ``E_kin > 0``, does not vanish
    where ``mu`` and ``E`` cross 0.  A step that raises the energy by more
    than ``_ENERGY_SLACK scale`` is rejected and the shift raised to
    ``max(4 shift, scale)``; an accepted step quarters it, or sets it to 0
    once it is below ``1e-3 scale``.

    For a bound state from the variational start every step is unshifted
    and accepted (3-8 steps measured).  The shift is needed in a box below
    threshold, where the wall holds the cloud and plain Newton heads for a
    noded state of higher energy (12 steps at I/I0 = 0.9 in a 5 um box).
    The solve stops once an unshifted step lands below ``RESIDUAL_TOL``
    having cut the residual by less than a decade, or a step is rejected
    there, so a converging solve ends at the rounding floor.  The Hartree
    operator is symmetric, so the zero of the eigen-residual that Newton
    aims at is a stationary point of the energy on the grid.

    ``iterations`` counts the steps accepted plus rejected.  Raises
    :class:`ConvergenceError` after ``MAX_ITERATIONS`` of them,
    :class:`CollapseError` when the cloud shrinks below four grid spacings
    and :class:`NumericsError` when the starting Gaussian is zero on the
    grid.  The kinetic term is always retained: the solve, its box and its
    start take ``cfg`` with ``tf_limit`` off.  ``on_step(iteration, energy_J,
    mu_J)`` is invoked after every accepted step.  ``potential`` is
    :func:`hartree_potential` of the final density.
    """
    lam = cfg.interaction.wavelength
    reduced = _reduced(cfg.replace(tf_limit=False))
    trial = _minimum(reduced)
    if r_max is None and not trial.bound_local:
        raise UnboundError("no bound variational state to size the box; pass r_max")
    r_max = 8.0 * trial.r_rms if r_max is None else r_max
    if n_points is None:
        n_points = 512 if cfg.kernel == "near_zone" else min(max(
            512, math.ceil(2 * _MIN_POINTS_PER_HALF_WAVE * r_max / lam)),
            _MAX_DEFAULT_POINTS)
    grid = RadialGrid(n_points=n_points, r_max=r_max)
    problem = _MeanField(reduced, grid)
    energy_unit = CONSTANTS.hbar**2 / (cfg.species.mass * lam**2)

    width = trial.w_star if trial.bound_local else 1.0
    v = problem.x * np.exp(-problem.x**2 / (2.0 * width**2))
    norm = problem.norm(v)
    if norm == 0.0:
        raise NumericsError(f"a Gaussian of width {width:g} is zero on the grid")
    state = problem.evaluate(v / norm)
    iterations = 0
    shift = 0.0

    while True:
        if iterations >= MAX_ITERATIONS:
            raise ConvergenceError(
                f"no convergence after {MAX_ITERATIONS} iterations "
                f"(eigen-residual {state.residual:.3e}, target {RESIDUAL_TOL:g})")
        iterations += 1
        # the ground state is nodeless; entries far out in the tail, some
        # 1e-30 of the peak, can come out of a Newton step either sign
        # (a linear solve to a tenth of the residual keeps them quadratic)
        v = np.abs(problem.newton_update(state, shift))
        norm = problem.norm(v)
        if not math.isfinite(norm) or norm <= 0.0:
            raise NumericsError("relaxation produced a non-normalizable state")
        new = problem.evaluate(v / norm)
        if not sum(new.terms) <= sum(state.terms) + _ENERGY_SLACK * state.scale:
            # reject the step; the potential still belongs to the accepted state
            if state.residual < RESIDUAL_TOL:
                break
            shift = max(4.0 * shift, state.scale)
            continue
        done = shift == 0.0 and RESIDUAL_TOL > new.residual > 0.1 * state.residual
        shift = 0.0 if shift < 1e-3 * state.scale else 0.25 * shift

        state = new
        if on_step is not None:
            on_step(iterations, cfg.n_atoms * sum(state.terms) * energy_unit,
                    state.mu * energy_unit)

        r_rms = problem.r_rms(state.v)
        if r_rms < 4.0 * problem.h:
            raise CollapseError(
                f"cloud radius {r_rms * lam:.3e} m fell below four "
                f"grid spacings after {iterations} iterations")
        if done:
            break

    psi = math.sqrt(cfg.n_atoms) / lam**1.5 * (state.v / problem.x)
    density = psi**2
    return GroundState(
        grid=grid,
        psi=psi,
        density=density,
        potential=(cfg.interaction.coupling / lam) * problem.hartree(density * lam**3),
        mu=state.mu * energy_unit,
        r_rms=problem.r_rms(state.v) * lam,
        iterations=iterations,
        residual=state.residual,
        n_atoms=cfg.n_atoms,
        energies=EnergyBreakdown(*(cfg.n_atoms * e * energy_unit
                                   for e in (*state.terms, sum(state.terms)))),
    )
