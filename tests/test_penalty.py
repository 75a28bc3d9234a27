import logging

import numpy as np
import pytest

from statecon import (Ball, Ellipse, LinearPotential, LinearTerminal,
                      PenaltyParams, Problem, Trajectory, delta_choice,
                      energy_bound,
                      energy_certificate, epsilon_schedule, extend_data,
                      feasibility_gap, holder_gap, minimize_penalized,
                      penalized_cost, quadratic_problem)
from statecon import penalty
from statecon.penalty import (Runaway, _action_hessian, _cost_and_grad,
                              _stationarity)

from conftest import fd_action_hessian, s1_exact


def naive_cost(prob, dom, params, gamma):
    """Independent trapezoid evaluation of the penalized functional."""
    t = gamma.times
    x = gamma.knots
    v = gamma.velocities
    dt = gamma.dt
    total = 0.0
    for i in range(gamma.N):
        vi = v[i][None]
        fl = float(prob.f(np.array([t[i]]), x[i][None], vi)[0])
        fr = float(prob.f(np.array([t[i + 1]]), x[i + 1][None], vi)[0])
        total += 0.5 * dt * (fl + fr)
    for i in range(gamma.N + 1):
        w = dt if 0 < i < gamma.N else dt / 2.0
        d = max(float(dom.b_many(x[i][None])[0]), 0.0)
        total += w * d / params.epsilon
    total += float(prob.g(x[-1][None])[0])
    total += max(float(dom.b_many(x[-1][None])[0]), 0.0) / params.delta
    return total


class TestTrajectory:
    def test_velocities_are_forward_differences(self):
        knots = np.cumsum(np.ones((17, 2)), axis=0)
        gamma = Trajectory(0.0, 2.0, knots)
        assert gamma.dt == pytest.approx(0.125)
        assert np.allclose(gamma.velocities, 8.0)

    def test_refine_preserves_knots(self):
        rng = np.random.default_rng(0)
        gamma = Trajectory(0.0, 1.0, rng.normal(size=(9, 2)))
        fine = gamma.refine()
        assert fine.N == 2 * gamma.N
        assert np.allclose(fine.knots[0::2], gamma.knots)
        assert np.allclose(fine.at(gamma.times), gamma.knots)

    def test_linear_interpolation(self):
        knots = np.linspace(0.0, 1.0, 11)[:, None] * np.array([[2.0, -1.0]])
        gamma = Trajectory(0.0, 1.0, knots)
        q = np.array([0.0, 0.137, 0.5, 0.93, 1.0])
        assert np.allclose(gamma.at(q), q[:, None] * [2.0, -1.0], atol=1e-14)

    def test_energy_of_straight_line(self):
        knots = np.linspace(0.0, 3.0, 25)[:, None] * np.array([[1.0, 0.0]])
        gamma = Trajectory(0.0, 2.0, knots)
        # constant speed 1.5 over horizon 2
        assert gamma.energy() == pytest.approx(4.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(0.0, 1.0, np.zeros((5, 2)))
        with pytest.raises(ValueError):
            Trajectory(1.0, 1.0, np.zeros((9, 2)))
        bad = np.zeros((9, 2))
        bad[3, 0] = np.nan
        with pytest.raises(ValueError):
            Trajectory(0.0, 1.0, bad)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PenaltyParams(epsilon=0.0, delta=0.5, rho=1.0, N=16)
        with pytest.raises(ValueError):
            PenaltyParams(epsilon=0.5, delta=2.0, rho=1.0, N=16)
        with pytest.raises(ValueError):
            PenaltyParams(epsilon=0.5, delta=0.5, rho=1.0, N=4)


class TestPenalizedCost:
    def test_matches_naive_oracle(self, disk, pull_problem):
        rng = np.random.default_rng(11)
        params = PenaltyParams(epsilon=0.25, delta=0.5, rho=disk.rho0, N=16)
        # wandering arc that leaves the disk so both penalties activate
        knots = np.cumsum(rng.normal(scale=0.12, size=(17, 2)), axis=0)
        gamma = Trajectory(0.0, 1.0, knots)
        got = penalized_cost(pull_problem, disk, params, gamma)
        want = naive_cost(pull_problem, disk, params, gamma)
        assert got == pytest.approx(want, rel=1e-12)

    def test_penalties_vanish_inside(self, disk):
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        params = PenaltyParams(epsilon=1e-6, delta=1e-6, rho=disk.rho0, N=16)
        knots = 0.3 * np.ones((17, 2)) * np.linspace(0, 1, 17)[:, None]
        gamma = Trajectory(0.0, 1.0, knots)
        # tiny epsilon would blow up any violation; cost stays the kinetic
        # integral because the arc never leaves the disk
        assert penalized_cost(prob, disk, params, gamma) == pytest.approx(
            0.5 * gamma.energy(), rel=1e-12)


class TestActionHessian:
    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(23)
        prob = quadratic_problem(2, A=[[2.0, 0.5], [0.5, 1.0]],
                                 potential=LinearPotential([1.0, -2.0]),
                                 terminal=LinearTerminal([0.3, 0.1]),
                                 T=1.0, M=9.0, kappa=0.0)
        for _ in range(3):
            gamma = Trajectory(0.0, 1.0, rng.uniform(-0.6, 0.6, (13, 2)))
            H = _action_hessian(prob, gamma)
            assert H.shape == (24, 24)
            want = fd_action_hessian(prob, gamma)
            assert np.max(np.abs(H.toarray() - want)) < 1e-6

    def test_mixed_terms_match_finite_differences(self):
        # f = |v|^2/2 + x0 x1 v0 + x1^2 v1 + |x|^4 / 4 has nonzero fxx and
        # an unsymmetric fvx, which the quadratic family lacks
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

        def zero(x):
            return np.zeros(np.atleast_2d(x).shape[0])

        def zero_grad(x):
            return np.zeros_like(np.atleast_2d(x))

        def zero_hess(x):
            return np.zeros((np.atleast_2d(x).shape[0], 2, 2))

        prob = Problem(f=f, fx=fx, fv=fv, fvv=fvv, fvx=fvx, g=zero,
                       Dg=zero_grad, horizon=1.0, dim=2, mu=1.0, M=1.0,
                       kappa=0.0, fxx=fxx, D2g=zero_hess)
        rng = np.random.default_rng(29)
        gamma = Trajectory(0.0, 1.0, rng.uniform(-0.6, 0.6, (13, 2)))
        H = _action_hessian(prob, gamma).toarray()
        assert np.max(np.abs(H - fd_action_hessian(prob, gamma))) < 1e-6

    def test_block_tridiagonal_and_symmetric(self):
        prob = quadratic_problem(2, A=[[2.0, 0.5], [0.5, 1.0]], M=1.0,
                                 kappa=0.0)
        gamma = Trajectory.constant(0.0, 1.0, np.zeros(2), 16)
        H = _action_hessian(prob, gamma).toarray()
        rows, cols = np.nonzero(H)
        assert np.max(np.abs(rows // 2 - cols // 2)) == 1
        assert np.array_equal(H, H.T)


class TestMinimize:
    def test_interior_problem_linear_solution(self):
        # without an active constraint the minimizer of
        # int 1/2 |v|^2 + <c, x(T)> is the straight line x0 - c t
        dom = Ball([0.0, 0.0], 3.0)
        c = np.array([0.3, -0.2])
        prob = quadratic_problem(2, terminal=LinearTerminal(c), T=1.0,
                                 M=2.0, kappa=0.0)
        params = PenaltyParams(epsilon=0.5, delta=0.5, rho=dom.rho0, N=32)
        gamma = minimize_penalized(prob, dom, params, np.zeros(2))
        exact = -np.outer(gamma.times, c)
        assert np.max(np.abs(gamma.knots - exact)) < 1e-6

    def test_x0_outside_rejected(self, disk, pull_problem):
        params = PenaltyParams(epsilon=0.5, delta=0.5, rho=disk.rho0, N=16)
        with pytest.raises(ValueError):
            minimize_penalized(pull_problem, disk, params, np.array([2.0, 0.0]))

    def test_certifies_infeasible_level(self, disk, pull_problem):
        # at eps = 1 the penalty cannot hold the arc on the disk, so the
        # minimizer leaves it and no knot sits on the kink of the penalty
        delta, _ = delta_choice(pull_problem, disk)
        params = PenaltyParams(epsilon=1.0, delta=delta, rho=disk.rho0, N=64)
        gamma = minimize_penalized(pull_problem, disk, params, np.zeros(2))
        cost, G, geo = _cost_and_grad(pull_problem, disk, params, gamma)
        assert np.sum(geo.b > disk.boundary_tol) == 16
        assert _stationarity(disk, params, gamma, G, geo) <= 1e-12 * (
            1.0 + abs(cost))

    def test_warm_start_at_stronger_penalty(self, disk, pull_problem):
        # from the eps = 1 minimizer (68 knots outside) L-BFGS-B stops at
        # once on the kinks, so the Newton finish alone moves the contact
        # set; without backtracking its groups cycle
        delta, _ = delta_choice(pull_problem, disk)
        gamma = None
        for eps in (1.0, 0.5):
            params = PenaltyParams(epsilon=eps, delta=delta, rho=disk.rho0,
                                   N=256)
            gamma = minimize_penalized(pull_problem, disk, params,
                                       np.zeros(2), init=gamma)
        cost, G, geo = _cost_and_grad(pull_problem, disk, params, gamma)
        assert _stationarity(disk, params, gamma, G, geo) <= 1e-12 * (
            1.0 + abs(cost))

    def test_weak_penalty_runs_away(self, disk):
        # the unconstrained minimizer of this pull ends at x = (10, 0), far
        # past the leash rho0 + diam = 3, and eps = 100 barely resists it
        prob = quadratic_problem(2, potential=LinearPotential([-20.0, 0.0]),
                                 T=1.0, M=400.0, kappa=0.0)
        params = PenaltyParams(epsilon=100.0, delta=1.0, rho=disk.rho0, N=32)
        with pytest.raises(Runaway):
            minimize_penalized(prob, disk, params, np.zeros(2))

    def test_warm_newton_past_the_leash_runs_away(self, disk, lbfgs_calls):
        # the same pull from a constant init: the Newton stage certifies the
        # penalized minimizer near x = (10, 0), and the leash rejects it
        prob = quadratic_problem(2, potential=LinearPotential([-20.0, 0.0]),
                                 T=1.0, M=400.0, kappa=0.0)
        params = PenaltyParams(epsilon=100.0, delta=1.0, rho=disk.rho0, N=32)
        init = Trajectory.constant(0.0, 1.0, np.zeros(2), 32)
        with pytest.raises(Runaway):
            minimize_penalized(prob, disk, params, np.zeros(2), init=init)
        assert lbfgs_calls[0] == 0

    def test_warm_start_at_ellipse_cusp(self, lbfgs_calls):
        # every free knot starts on the evolute cusp (1.5, 0) of the S3
        # ellipse, a focal point where D2b is inf/NaN; the Newton stage must
        # leave it without a non-finite step
        dom = Ellipse([0.0, 0.0], [2.0, 1.0])
        prob = quadratic_problem(2, potential=LinearPotential([-1.5, -3.0]),
                                 T=1.0, M=12.0, kappa=0.0)
        assert not np.all(np.isfinite(dom.eval([[1.5, 0.0]]).D2b))
        params = PenaltyParams(epsilon=0.25, delta=1.0, rho=dom.rho0, N=32)
        x0 = np.array([1.5, 0.0])
        knots = []
        for y in (0.0, 1e-9):
            init = Trajectory.constant(0.0, 1.0, [1.5, y], 32)
            gamma = minimize_penalized(prob, dom, params, x0, init=init)
            cost, G, geo = _cost_and_grad(prob, dom, params, gamma)
            assert _stationarity(dom, params, gamma, G, geo) <= 1e-8 * (
                1.0 + abs(cost))
            assert np.sum(np.abs(geo.b) <= dom.boundary_tol) > 0
            knots.append(gamma.knots)
        assert lbfgs_calls[0] == 0
        assert np.max(np.abs(knots[0] - knots[1])) < 1e-6

    def test_uncertified_warm_stage_falls_back(self, disk, pull_problem,
                                               monkeypatch, caplog,
                                               lbfgs_calls):
        # a Newton stage that does not move leaves the constant init
        # uncertified; the L-BFGS-B round and a second finish take over
        finish = penalty._newton_finish
        stalls = [1]

        def stall_once(prob, dom, params, traj, cost):
            if stalls[0]:
                stalls[0] -= 1
                return traj
            return finish(prob, dom, params, traj, cost)

        monkeypatch.setattr(penalty, "_newton_finish", stall_once)
        params = PenaltyParams(epsilon=0.5, delta=0.5, rho=disk.rho0, N=32)
        init = Trajectory.constant(0.0, 1.0, np.zeros(2), 32)
        with caplog.at_level(logging.INFO, logger="statecon"):
            gamma = minimize_penalized(pull_problem, disk, params,
                                       np.zeros(2), init=init)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "statecon" and r.levelno == logging.INFO]
        assert len(lines) == 1
        assert "eps=0.5" in lines[0] and "N=32" in lines[0]
        assert "stationarity" in lines[0]
        assert lbfgs_calls[0] == 1
        cost, G, geo = _cost_and_grad(pull_problem, disk, params, gamma)
        assert _stationarity(disk, params, gamma, G, geo) <= 1e-8 * (
            1.0 + abs(cost))
        monkeypatch.setattr(penalty, "_newton_finish", finish)
        direct = minimize_penalized(pull_problem, disk, params, np.zeros(2),
                                    init=init)
        assert np.max(np.abs(gamma.knots - direct.knots)) < 1e-8

    def test_init_grid_mismatch_rejected(self, disk, pull_problem):
        params = PenaltyParams(epsilon=0.5, delta=0.5, rho=disk.rho0, N=16)
        init = Trajectory.constant(0.0, 1.0, np.zeros(2), 32)
        with pytest.raises(ValueError):
            minimize_penalized(pull_problem, disk, params, np.zeros(2),
                               init=init)


@pytest.fixture(scope="module")
def solved():
    disk = Ball([0.0, 0.0], 1.0)
    prob = quadratic_problem(2, potential=LinearPotential([-3.0, 0.0]),
                             T=1.0, M=9.0, kappa=0.0)
    delta, _ = delta_choice(prob, disk)
    gamma, params = epsilon_schedule(prob, disk, np.zeros(2), delta, N=64)
    return prob, disk, gamma, params


class TestExtendedProblem:
    def test_solves_without_state_hessian(self, disk, pull_problem):
        # inside the closed disk the extension equals the base data
        ext = extend_data(pull_problem, disk, sigma=0.9)
        delta, _ = delta_choice(pull_problem, disk)
        gamma, params = epsilon_schedule(ext, disk, np.zeros(2), delta, N=32)
        base, base_params = epsilon_schedule(pull_problem, disk, np.zeros(2),
                                             delta, N=32)
        assert feasibility_gap(disk, gamma) <= 1e-6 * disk.diameter
        assert params.epsilon == base_params.epsilon
        assert np.max(np.abs(gamma.knots - base.knots)) < 1e-6


class TestSchedule:
    def test_matches_closed_form(self, solved):
        prob, disk, gamma, params = solved
        # landing time falls between grid points, so the discrete minimizer
        # carries an O(dt^2) junction error
        tol = 10.0 * gamma.dt ** 2
        assert np.max(np.abs(gamma.knots - s1_exact(gamma.times))) < tol

    def test_only_the_cold_first_level_runs_lbfgs(self, disk, pull_problem,
                                                   lbfgs_calls):
        # every later level is warm-started from the one before it, and the
        # Newton stage alone certifies it
        delta, _ = delta_choice(pull_problem, disk)
        _gamma, params = epsilon_schedule(pull_problem, disk, np.zeros(2),
                                          delta, N=64)
        assert params.epsilon < 1.0  # the ladder took more than one level
        assert lbfgs_calls[0] == 1

    def test_feasible(self, solved):
        prob, disk, gamma, params = solved
        assert feasibility_gap(disk, gamma) <= 1e-6 * disk.diameter

    def test_rest_phase_sits_on_boundary(self, solved):
        prob, disk, gamma, params = solved
        late = gamma.times > np.sqrt(2.0 / 3.0) + 2 * gamma.dt
        b = disk.b_many(gamma.knots[late])
        assert np.max(np.abs(b)) < 1e-9

    def test_energy_certificate(self, solved):
        prob, disk, gamma, params = solved
        K = energy_bound(prob, disk)
        assert energy_certificate(prob, disk, params, gamma, K)

    def test_holder_bound_holds(self, solved):
        prob, disk, gamma, params = solved
        K = energy_bound(prob, disk)
        assert holder_gap(prob, gamma, K) <= 0.0
        # an understated budget must be flagged as a violation
        assert holder_gap(prob, gamma, 1e-6) > 0.0


class TestDeltaChoice:
    def test_formula_for_linear_terminal(self):
        dom = Ball([0.0, 0.0], 1.0)
        c = np.array([0.6, 0.0])
        prob = quadratic_problem(2, terminal=LinearTerminal(c), T=1.0,
                                 M=1.0, kappa=0.0)
        # terminal drift speed is |A^{-1} c| = 0.6 everywhere, so
        # delta = 1 / (2 mu 0.6)
        delta, speed = delta_choice(prob, dom)
        assert speed == pytest.approx(0.6, rel=1e-12)
        assert delta == pytest.approx(1.0 / 1.2, rel=1e-12)

    def test_zero_terminal_gives_unit_delta(self, disk):
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        delta, speed = delta_choice(prob, disk)
        assert delta == 1.0
        assert speed == 0.0
