import time

import pytest

from lasergrav import (catalog_lookup, config_at_ratio, minimize_width,
                       solve_ground)

NA_WAVELENGTH = 589e-9


@pytest.fixture(scope="session")
def na():
    return catalog_lookup("Na")


@pytest.fixture(scope="session")
def rb():
    return catalog_lookup("Rb87")


@pytest.fixture(scope="session")
def tf_width_15(na):
    """TF-limit variational solution at I = 1.5 I0 (detuned sodium)."""
    cfg = config_at_ratio(na, 1.5, NA_WAVELENGTH, n_atoms=1.0,
                          use_detuned=True, tf_limit=True)
    return minimize_width(cfg)


def _solve_full(na, n_points):
    cfg = config_at_ratio(na, 1.5, NA_WAVELENGTH, n_atoms=1e4,
                          use_detuned=True)
    t0 = time.perf_counter()
    state = solve_ground(cfg, n_points, 3.5 * NA_WAVELENGTH)
    return state, time.perf_counter() - t0


@pytest.fixture(scope="session")
def gpe_full_512(na):
    return _solve_full(na, 512)


@pytest.fixture(scope="session")
def gpe_full_1024(na):
    return _solve_full(na, 1024)
