import numpy as np
import pytest

from statecon import (Ball, Ellipse, LinearPotential, Problem, SmoothedBox,
                      Trajectory, quadratic_problem)
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


def drifting_problem():
    """Time-dependent problem f = |v|^2/2 + <c(t), v> + <a, x> with
    c(t) = 2 (sin 3t, cos 3t) and a = (-1.5, -3): v* = -p - c(t), so
    DptH = c'(t).  Returns the problem and c'."""
    a = np.array([-1.5, -3.0])

    def c(t):
        return 2.0 * np.stack([np.sin(3.0 * t), np.cos(3.0 * t)], axis=-1)

    def dc(t):
        return 6.0 * np.stack([np.cos(3.0 * t), -np.sin(3.0 * t)], axis=-1)

    def batch(t, x):
        x = np.atleast_2d(x)
        return np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1]), x

    def f(t, x, v):
        t, x = batch(t, x)
        v = np.atleast_2d(v)
        return (0.5 * np.sum(v * v, axis=1) + np.sum(c(t) * v, axis=1)
                + x @ a)

    def fx(t, x, v):
        return np.broadcast_to(a, np.atleast_2d(x).shape).copy()

    def fv(t, x, v):
        t, x = batch(t, x)
        return np.atleast_2d(v) + c(t)

    def fvv(t, x, v):
        return np.tile(np.eye(2), (np.atleast_2d(x).shape[0], 1, 1))

    def zero2(t, x, v):
        return np.zeros((np.atleast_2d(x).shape[0], 2, 2))

    def g(x):
        return np.zeros(np.atleast_2d(x).shape[0])

    def Dg(x):
        return np.zeros_like(np.atleast_2d(x))

    def D2g(x):
        return np.zeros((np.atleast_2d(x).shape[0], 2, 2))

    prob = Problem(f=f, fx=fx, fv=fv, fvv=fvv, fvx=zero2, g=g, Dg=Dg,
                   horizon=1.0, dim=2, mu=1.0, M=20.0, kappa=6.0,
                   fxx=zero2, D2g=D2g)
    return prob, dc


def mixed_problem(pull=(0.0, 0.0)):
    """f = |v|^2/2 + x0 x1 v0 + x1^2 v1 + |x|^4 / 4 and g = <pull, x>: a
    nonzero fxx and an unsymmetric fvx, hence a nonzero DpxH, which the
    quadratic family lacks."""
    pull = np.asarray(pull, dtype=float)

    def f(t, x, v):
        r2 = np.sum(x * x, axis=1)
        return (0.5 * np.sum(v * v, axis=1) + x[:, 0] * x[:, 1] * v[:, 0]
                + x[:, 1] ** 2 * v[:, 1] + 0.25 * r2 ** 2)

    def fx(t, x, v):
        r2 = np.sum(x * x, axis=1)
        return np.stack([x[:, 1] * v[:, 0] + r2 * x[:, 0],
                         x[:, 0] * v[:, 0] + 2.0 * x[:, 1] * v[:, 1]
                         + r2 * x[:, 1]], axis=1)

    def fv(t, x, v):
        return v + np.stack([x[:, 0] * x[:, 1], x[:, 1] ** 2], axis=1)

    def fvv(t, x, v):
        return np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()

    def fvx(t, x, v):
        zero = np.zeros(x.shape[0])
        return np.stack([np.stack([x[:, 1], x[:, 0]], axis=1),
                         np.stack([zero, 2.0 * x[:, 1]], axis=1)], axis=1)

    def fxx(t, x, v):
        r2 = np.sum(x * x, axis=1)
        off = v[:, 0] + 2.0 * x[:, 0] * x[:, 1]
        return np.stack([
            np.stack([r2 + 2.0 * x[:, 0] ** 2, off], axis=1),
            np.stack([off, 2.0 * v[:, 1] + r2 + 2.0 * x[:, 1] ** 2],
                     axis=1)], axis=1)

    def g(x):
        return np.atleast_2d(x) @ pull

    def Dg(x):
        return np.broadcast_to(pull, np.atleast_2d(x).shape).copy()

    def D2g(x):
        return np.zeros((np.atleast_2d(x).shape[0], 2, 2))

    return Problem(f=f, fx=fx, fv=fv, fvv=fvv, fvx=fvx, g=g, Dg=Dg,
                   horizon=1.0, dim=2, mu=1.0, M=1.0, kappa=0.0, fxx=fxx,
                   D2g=D2g)


def s1_exact(t):
    """Closed-form minimizer of the pull problem: accelerate, land, rest."""
    t = np.asarray(t, dtype=float)
    tstar = np.sqrt(2.0 / 3.0)
    free = np.sqrt(6.0) * t - 1.5 * t ** 2
    return np.stack([np.where(t < tstar, free, 1.0), np.zeros_like(t)],
                    axis=-1)


def dense_tridiag(D, U):
    """The dense symmetric matrix with diagonal blocks D (N, m, m) and upper
    blocks U (N - 1, m, m), as ``penalty._action_hessian`` returns them."""
    N, m = D.shape[:2]
    H = np.zeros((N, m, N, m))
    i = np.arange(N)
    H[i, :, i, :] = D
    H[i[:-1], :, i[1:], :] = U
    H[i[1:], :, i[:-1], :] = U.transpose(0, 2, 1)
    return H.reshape(N * m, N * m)


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
