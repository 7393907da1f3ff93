"""Shared fixtures: the standard desk geometry at a few resolutions, and a
count of the solver's factorizations."""

import numpy as np
import pytest

from viscowave import assemble_fraclap, build_grid, solver

BOX = (-1.0, 2.0)
OMEGA = (0.0, 1.0)
W1 = (-0.8, -0.2)
W2 = (1.2, 1.8)


def standard_grid(n_nodes):
    return build_grid(BOX, OMEGA, W1, W2, n_nodes)


@pytest.fixture(scope="session")
def grid31():
    return standard_grid(31)


@pytest.fixture(scope="session")
def op31(grid31):
    return assemble_fraclap(grid31, 0.5)


@pytest.fixture(scope="session")
def grid61():
    return standard_grid(61)


@pytest.fixture(scope="session")
def op61(grid61):
    return assemble_fraclap(grid61, 0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def grid101():
    return standard_grid(101)


@pytest.fixture(scope="session")
def op101(grid101):
    return assemble_fraclap(grid101, 0.5)


@pytest.fixture()
def counted_linalg(monkeypatch):
    """The number of lu_factor and np.linalg.solve calls, by name."""
    calls = {"lu_factor": 0, "solve": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "lu_factor", counting("lu_factor", solver.lu_factor))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    return calls
