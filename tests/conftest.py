import numpy as np
import pytest

from statecon import (Ball, Ellipse, LinearPotential, SmoothedBox, Trajectory,
                      quadratic_problem)
from statecon.penalty import _action_grad


@pytest.fixture
def disk():
    return Ball([0.0, 0.0], 1.0)


@pytest.fixture
def ellipse():
    return Ellipse([0.0, 0.0], [2.0, 1.0])


@pytest.fixture
def box():
    return SmoothedBox([0.0, 0.0], [1.0, 0.8], 0.25)


@pytest.fixture
def shapes(disk, ellipse, box):
    return {"disk": disk, "ellipse": ellipse, "box": box}


@pytest.fixture
def pull_problem():
    """Unit-disk problem whose minimizer lands on the boundary and rests."""
    return quadratic_problem(2, potential=LinearPotential([-3.0, 0.0]),
                             T=1.0, M=9.0, kappa=0.0)


def s1_exact(t):
    """Closed-form minimizer of the pull problem: accelerate, land, rest."""
    t = np.asarray(t, dtype=float)
    tstar = np.sqrt(2.0 / 3.0)
    free = np.sqrt(6.0) * t - 1.5 * t ** 2
    return np.stack([np.where(t < tstar, free, 1.0), np.zeros_like(t)],
                    axis=-1)


def fd_action_hessian(prob, gamma, h=1e-6):
    """Central differences of the discrete action gradient over the free
    knots 1..N, one column per coordinate."""
    N, n = gamma.N, gamma.dim
    cols = []
    for k in range(N * n):
        e = np.zeros(N * n)
        e[k] = h
        grads = []
        for sign in (1.0, -1.0):
            X = gamma.knots.copy()
            X[1:] += sign * e.reshape(N, n)
            traj = Trajectory(gamma.t0, gamma.t1, X)
            grads.append(_action_grad(prob, traj)[1:].ravel())
        cols.append((grads[0] - grads[1]) / (2.0 * h))
    return np.stack(cols, axis=1)
