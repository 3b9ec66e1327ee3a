import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lagrangas as lg

settings.register_profile(
    "suite", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def unit_params():
    return lg.PhysParams(beta=1.0)


@pytest.fixture
def grid64():
    return lg.build_grid(64)


@pytest.fixture
def equilibrium64(grid64):
    return lg.make_initial_data(lg.InitialSpec(kind="equilibrium"), grid64)


@pytest.fixture
def cosine64(grid64):
    return lg.make_initial_data(
        lg.InitialSpec(kind="cosine", a_v=0.1, a_u=0.1, a_theta=0.1), grid64)


def make_state(v, u, theta, t=0.0):
    """Assemble a state from plain lists/arrays (no invariant checks)."""
    return lg.State(t=t, v=np.asarray(v, float), u=np.asarray(u, float),
                    theta=np.asarray(theta, float))


def tridiag_breaking_after(calls):
    """Stand-in for ``solver._solve_spd_tridiag`` that solves the first
    ``calls`` systems and then reports a non-positive pivot."""
    from lagrangas import solver
    from lagrangas.errors import NumericalBreakdown

    solve = solver._solve_spd_tridiag
    done = []

    def breaking(diag, off, rhs):
        if len(done) >= calls:
            raise NumericalBreakdown("forced non-positive pivot")
        done.append(None)
        return solve(diag, off, rhs)

    return breaking
