from dataclasses import replace

import numpy as np
import pytest

from statecon import (Ball, LinearTerminal, Trajectory, compute_value,
                      dpp_check, lipschitz_report, quadratic_problem)
from statecon import value
from statecon.value import running_cost


@pytest.fixture(scope="module")
def drift_value():
    """Terminal cost <c, x> on the unit disk; away from the boundary the
    optimal arc is the straight line with velocity -c, giving

        u(t, x) = <c, x> - |c|^2 (T - t) / 2.
    """
    disk = Ball([0.0, 0.0], 1.0)
    c = np.array([-0.5, 0.0])
    prob = quadratic_problem(2, terminal=LinearTerminal(c), T=1.0, M=1.0,
                             kappa=0.0)
    times = np.array([0.0, 0.5, 1.0])
    points = np.array([[0.0, 0.0], [-0.3, 0.2], [0.1, -0.4], [0.4, 0.0]])
    vg = compute_value(prob, disk, times, points, N=32)
    return prob, disk, c, vg


def interior_closed_form(c, t, x, T=1.0):
    return float(x @ c - 0.5 * (c @ c) * (T - t))


class TestComputeValue:
    def test_no_failures(self, drift_value):
        _, _, _, vg = drift_value
        assert vg.failures == []
        assert np.all(np.isfinite(vg.values))

    def test_newton_alone_certifies_every_node(self, drift_value):
        # every node is warm-started (constant, then along the time axis);
        # (0.8, 0) drifts into the boundary and rests on it
        prob, disk, _, _ = drift_value
        vg = compute_value(prob, disk, [0.0, 0.5, 1.0],
                           [[0.0, 0.0], [-0.3, 0.2], [0.8, 0.0]], N=32)
        assert vg.failures == []
        assert np.max(disk.b_many(vg.trajectories[(0, 2)].knots)) > -1e-9

    def test_terminal_slice_is_terminal_cost(self, drift_value):
        prob, _, _, vg = drift_value
        assert np.allclose(vg.values[-1], prob.g(vg.points), atol=1e-14)

    def test_matches_interior_closed_form(self, drift_value):
        # every chosen node drifts to an endpoint inside the disk, so the
        # constraint never binds and the straight-line formula is exact
        _, _, c, vg = drift_value
        for i, t in enumerate(vg.times[:-1]):
            for j, x in enumerate(vg.points):
                want = interior_closed_form(c, t, x)
                assert vg.values[i, j] == pytest.approx(want, abs=1e-8)

    def test_optimal_arcs_are_straight(self, drift_value):
        _, _, c, vg = drift_value
        gamma = vg.trajectories[(0, 0)]
        exact = np.outer(gamma.times, -c)
        assert np.max(np.abs(gamma.knots - exact)) < 1e-6

    def test_time_grid_must_end_at_horizon(self, drift_value):
        prob, disk, _, _ = drift_value
        with pytest.raises(ValueError):
            compute_value(prob, disk, [0.0, 0.5], [[0.0, 0.0]], N=32)

    def test_points_must_lie_in_domain(self, drift_value):
        prob, disk, _, _ = drift_value
        with pytest.raises(ValueError):
            compute_value(prob, disk, [0.0, 1.0], [[1.5, 0.0]], N=32)


    def test_solver_failure_is_recorded(self, drift_value):
        prob, disk, _, _ = drift_value

        def f(t, x, v):
            return np.full(np.atleast_2d(x).shape[0], np.inf)

        vg = compute_value(replace(prob, f=f), disk, [0.0, 1.0],
                           [[0.0, 0.0]], N=32)
        assert len(vg.failures) == 1
        assert "NonFiniteCost" in vg.failures[0][2]
        assert np.isnan(vg.values[0, 0])

    def test_programming_error_propagates(self, drift_value):
        prob, disk, _, _ = drift_value

        def f(t, x, v):
            raise TypeError("bad running cost")

        with pytest.raises(TypeError, match="bad running cost"):
            compute_value(replace(prob, f=f), disk, [0.0, 1.0],
                          [[0.0, 0.0]], N=32)


class TestLipschitz:
    def test_measured_constants_match_formula(self, drift_value):
        # |Du| = |c| = 0.5 and |du/dt| = |c|^2/2 = 0.125 in the interior
        _, _, _, vg = drift_value
        Lx, Lt = lipschitz_report(vg)
        assert Lx == pytest.approx(0.5, rel=1e-9)
        assert Lt == pytest.approx(0.125, rel=1e-6)

    def test_needs_two_times_and_points(self, drift_value):
        _, _, _, vg = drift_value
        from statecon import ValueGrid
        small = ValueGrid(times=vg.times[:1], points=vg.points,
                          values=vg.values[:1], delta=vg.delta)
        with pytest.raises(ValueError):
            lipschitz_report(small)


class TestDPP:
    def test_two_stage_decomposition(self, drift_value):
        prob, disk, _, vg = drift_value
        gap = dpp_check(prob, disk, vg, samples=4,
                        rng=np.random.default_rng(1))
        assert gap < 1e-8


class TestEpsilonReuse:
    def test_each_solve_starts_at_its_neighbours_epsilon(
            self, disk, pull_problem, monkeypatch):
        # the pull problem's nodes certify below eps = 1; each longer solve
        # starts at the epsilon of the node that seeds it, and each DPP tail
        # at the epsilon of its node
        calls = []  # (eps0, certified eps) per member of each batch
        schedule = value.epsilon_schedule_batch

        def recording(*args, **kwargs):
            out = schedule(*args, **kwargs)
            eps0s = np.broadcast_to(kwargs["eps0s"], (len(out),))
            calls.extend((float(e0), params.epsilon)
                         for e0, (_, params) in zip(eps0s, out))
            return out

        monkeypatch.setattr(value, "epsilon_schedule_batch", recording)
        times = [0.0, 0.25, 0.5, 1.0]
        points = [[0.0, 0.0], [0.5, 0.0]]
        vg = value.compute_value(pull_problem, disk, times, points, N=32)
        assert vg.failures == [] and len(calls) == 6
        for j in range(2):  # solves run from t = 0.5 back to t = 0
            (a0, a), (b0, b), (c0, c) = calls[j::2]
            assert (a0, b0, c0) == (1.0, a, b)
            assert [vg.epsilons[(i, j)] for i in (1, 0)] == [b, c]
        assert min(eps for _, eps in calls) < 1.0
        calls.clear()
        value.dpp_check(pull_problem, disk, vg, samples=6, N=32)
        assert sorted(eps0 for eps0, _ in calls) == sorted(
            vg.epsilons.values())
        # the penalty is exact: the ladder from eps = 1 finds the same values
        monkeypatch.setattr(value, "epsilon_schedule_batch",
                            lambda *a, eps0s, **kw: schedule(*a, **kw))
        again = value.compute_value(pull_problem, disk, times, points, N=32)
        assert np.max(np.abs(again.values - vg.values)) < 1e-8


class TestRunningCost:
    def test_matches_naive_quadrature(self):
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        rng = np.random.default_rng(2)
        gamma = Trajectory(0.0, 1.0,
                           np.cumsum(rng.normal(scale=0.1, size=(17, 2)),
                                     axis=0))
        t, v, dt = gamma.times, gamma.velocities, gamma.dt
        total = 0.0
        for i in range(gamma.N):
            fl = float(prob.f(t[i:i + 1], gamma.knots[i][None], v[i][None])[0])
            fr = float(prob.f(t[i + 1:i + 2], gamma.knots[i + 1][None],
                              v[i][None])[0])
            total += 0.5 * dt * (fl + fr)
        assert running_cost(prob, gamma) == pytest.approx(total, rel=1e-12)

    def test_prefix_is_monotone_for_nonnegative_running_cost(self):
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        rng = np.random.default_rng(3)
        gamma = Trajectory(0.0, 1.0,
                           np.cumsum(rng.normal(scale=0.1, size=(17, 2)),
                                     axis=0))
        costs = [running_cost(prob, gamma, upto=m) for m in range(17)]
        assert costs[0] == 0.0
        assert np.all(np.diff(costs) >= 0.0)
