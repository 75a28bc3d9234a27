import logging

import numpy as np
import pytest

from statecon import (Ball, Ellipse, LinearPotential, LinearTerminal,
                      PenaltyParams, Problem, Trajectory, check_assumptions,
                      delta_choice, energy_certificate, epsilon_schedule,
                      feasibility_gap, holder_gap, minimize_penalized,
                      penalized_cost, quadratic_problem)
from statecon import GaussianKernelCoupling, penalty
from statecon.mfg import potential_problem
from statecon.penalty import (MaxIterations, Runaway, _action_hessian,
                              _cost_and_grad, _kkt_step, _newton_finish,
                              _stationarity, _tridiag_solve)

from conftest import (dense_tridiag, fd_action_hessian, mixed_problem,
                      s1_exact)


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
            PenaltyParams(epsilon=0.0, delta=0.5, N=16)
        with pytest.raises(ValueError):
            PenaltyParams(epsilon=0.5, delta=2.0, N=16)
        with pytest.raises(ValueError):
            PenaltyParams(epsilon=0.5, delta=0.5, N=4)


class TestPenalizedCost:
    def test_matches_naive_oracle(self, disk, pull_problem):
        rng = np.random.default_rng(11)
        params = PenaltyParams(epsilon=0.25, delta=0.5, N=16)
        # wandering arc that leaves the disk so both penalties activate
        knots = np.cumsum(rng.normal(scale=0.12, size=(17, 2)), axis=0)
        gamma = Trajectory(0.0, 1.0, knots)
        got = penalized_cost(pull_problem, disk, params, gamma)
        want = naive_cost(pull_problem, disk, params, gamma)
        assert got == pytest.approx(want, rel=1e-12)

    def test_penalties_vanish_inside(self, disk):
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        params = PenaltyParams(epsilon=1e-6, delta=1e-6, N=16)
        knots = 0.3 * np.ones((17, 2)) * np.linspace(0, 1, 17)[:, None]
        gamma = Trajectory(0.0, 1.0, knots)
        # tiny epsilon would blow up any violation; cost stays the kinetic
        # integral because the arc never leaves the disk
        v = gamma.velocities
        assert penalized_cost(prob, disk, params, gamma) == pytest.approx(
            0.5 * np.sum(v * v) * gamma.dt, rel=1e-12)


class TestActionHessian:
    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(23)
        prob = quadratic_problem(2, A=[[2.0, 0.5], [0.5, 1.0]],
                                 potential=LinearPotential([1.0, -2.0]),
                                 terminal=LinearTerminal([0.3, 0.1]),
                                 T=1.0, M=9.0, kappa=0.0)
        for _ in range(3):
            gamma = Trajectory(0.0, 1.0, rng.uniform(-0.6, 0.6, (13, 2)))
            H = dense_tridiag(*_action_hessian(prob, gamma))
            assert H.shape == (24, 24)
            want = fd_action_hessian(prob, gamma)
            assert np.max(np.abs(H - want)) < 1e-6

    def test_mixed_terms_match_finite_differences(self):
        prob = mixed_problem()
        rng = np.random.default_rng(29)
        gamma = Trajectory(0.0, 1.0, rng.uniform(-0.6, 0.6, (13, 2)))
        H = dense_tridiag(*_action_hessian(prob, gamma))
        assert np.max(np.abs(H - fd_action_hessian(prob, gamma))) < 1e-6

    def test_block_tridiagonal_and_symmetric(self):
        prob = quadratic_problem(2, A=[[2.0, 0.5], [0.5, 1.0]], M=1.0,
                                 kappa=0.0)
        gamma = Trajectory.constant(0.0, 1.0, np.zeros(2), 16)
        H = dense_tridiag(*_action_hessian(prob, gamma))
        rows, cols = np.nonzero(H)
        assert np.max(np.abs(rows // 2 - cols // 2)) == 1
        assert np.array_equal(H, H.T)


class TestTridiagSolve:
    @pytest.mark.parametrize("N", [8, 9, 63, 64])
    @pytest.mark.parametrize("m", [2, 6])
    @pytest.mark.parametrize("definite", [True, False])
    def test_matches_dense_solve(self, N, m, definite):
        rng = np.random.default_rng(100 * N + m)
        A = rng.standard_normal((N, m, m))
        D = A + A.transpose(0, 2, 1)
        # shift each diagonal block's spectrum away from 0, to one side
        # (positive definite) or to either side (indefinite)
        lam = np.linalg.eigvalsh(D)
        side = 1.0 if definite else np.where(rng.random(N) < 0.5, -1.0, 1.0)
        shift = np.where(side > 0, 3.0 - lam[:, 0], -3.0 - lam[:, -1])
        D += shift[:, None, None] * np.eye(m)
        U = 0.5 * rng.standard_normal((N - 1, m, m))
        r = rng.standard_normal((N, m))
        H = dense_tridiag(D, U)
        eigs = np.linalg.eigvalsh(H)
        assert (eigs[0] > 0) == definite
        want = np.linalg.solve(H, r.ravel())
        got = _tridiag_solve(D, U, r).ravel()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_kkt_step_without_rows_is_the_plain_solve(self):
        # no boundary row in the batch: dx solves H dx = -g and mu = 0; a
        # member whose H is singular gets a NaN step, the others their own
        rng = np.random.default_rng(7)
        B, N, m = 3, 9, 2
        A = rng.standard_normal((B, N, m, m))
        D = A + A.swapaxes(-1, -2) + 6.0 * np.eye(m)
        U = 0.5 * rng.standard_normal((B, N - 1, m, m))
        g = rng.standard_normal((B, N, m))
        Db = rng.standard_normal((B, N, m))
        b, act = rng.standard_normal((B, N)), np.zeros((B, N), bool)
        dx, mu = _kkt_step(D, U, g, Db, b, act)
        assert np.array_equal(mu, np.zeros((B, N)))
        for i in range(B):
            want = np.linalg.solve(dense_tridiag(D[i], U[i]), -g[i].ravel())
            assert np.linalg.norm(dx[i].ravel() - want) <= 1e-12 * (
                np.linalg.norm(want))
        D[1], U[1] = 0.0, 0.0
        dx2, mu2 = _kkt_step(D, U, g, Db, b, act)
        assert np.all(np.isnan(dx2[1])) and not np.any(mu2)
        assert np.array_equal(dx2[[0, 2]], dx[[0, 2]])

    def test_singular_pivot_stops_the_finish(self, disk):
        # f = <a, x> has no curvature at all, so every pivot block is zero:
        # the finish keeps its start and does not raise
        a = np.array([1.0, -2.0])

        def zero2(t, x, v):
            return np.zeros((np.atleast_2d(x).shape[0], 2, 2))

        prob = Problem(f=lambda t, x, v: np.atleast_2d(x) @ a,
                       fx=lambda t, x, v: np.tile(a, (len(np.atleast_2d(x)),
                                                      1)),
                       fv=lambda t, x, v: np.zeros_like(np.atleast_2d(v)),
                       fvv=zero2, fvx=zero2,
                       g=lambda x: np.zeros(len(np.atleast_2d(x))),
                       Dg=lambda x: np.zeros_like(np.atleast_2d(x)),
                       horizon=1.0, dim=2, mu=1.0, M=3.0, kappa=0.0,
                       fxx=zero2, D2g=lambda x: zero2(0.0, x, x))
        with pytest.raises(np.linalg.LinAlgError):
            _tridiag_solve(np.zeros((16, 2, 2)), np.zeros((15, 2, 2)),
                           np.ones((16, 2)))
        params = PenaltyParams(epsilon=0.5, delta=0.5, N=16)
        start = Trajectory.constant(0.0, 1.0, [0.1, 0.2], 16)
        traj = Trajectory(0.0, 1.0, start.knots[None].copy())  # batch of one
        out, steps = _newton_finish(prob, disk, params, traj,
                                    penalized_cost(prob, disk, params, traj))
        assert steps.tolist() == [0]
        assert np.array_equal(out.knots[0], start.knots)


class TestMinimize:
    def test_interior_problem_linear_solution(self):
        # without an active constraint the minimizer of
        # int 1/2 |v|^2 + <c, x(T)> is the straight line x0 - c t
        dom = Ball([0.0, 0.0], 3.0)
        c = np.array([0.3, -0.2])
        prob = quadratic_problem(2, terminal=LinearTerminal(c), T=1.0,
                                 M=2.0, kappa=0.0)
        params = PenaltyParams(epsilon=0.5, delta=0.5, N=32)
        gamma = minimize_penalized(prob, dom, params, np.zeros(2))
        exact = -np.outer(gamma.times, c)
        assert np.max(np.abs(gamma.knots - exact)) < 1e-6

    def test_x0_outside_rejected(self, disk, pull_problem):
        params = PenaltyParams(epsilon=0.5, delta=0.5, N=16)
        with pytest.raises(ValueError):
            minimize_penalized(pull_problem, disk, params, np.array([2.0, 0.0]))

    def test_certifies_infeasible_level(self, disk, pull_problem):
        # at eps = 1 the penalty cannot hold the arc on the disk, so the
        # minimizer leaves it and no knot sits on the kink of the penalty
        delta, _ = delta_choice(pull_problem, disk)
        params = PenaltyParams(epsilon=1.0, delta=delta, N=64)
        gamma = minimize_penalized(pull_problem, disk, params, np.zeros(2))
        cost, G, geo = _cost_and_grad(pull_problem, disk, params, gamma)
        assert np.sum(geo.b > disk.boundary_tol) == 16
        assert _stationarity(disk, params, gamma, G, geo) <= 1e-12 * (
            1.0 + abs(cost))

    def test_warm_start_at_stronger_penalty(self, disk, pull_problem):
        # from the eps = 1 minimizer (68 knots outside) the Newton finish
        # moves the contact set; without backtracking its groups cycle
        delta, _ = delta_choice(pull_problem, disk)
        gamma = None
        for eps in (1.0, 0.5):
            params = PenaltyParams(epsilon=eps, delta=delta, N=256)
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
        params = PenaltyParams(epsilon=100.0, delta=1.0, N=32)
        with pytest.raises(Runaway):
            minimize_penalized(prob, disk, params, np.zeros(2))

    def test_warm_newton_past_the_leash_runs_away(self, disk):
        # the same pull from a constant init: the Newton stage certifies the
        # penalized minimizer near x = (10, 0), and the leash rejects it
        prob = quadratic_problem(2, potential=LinearPotential([-20.0, 0.0]),
                                 T=1.0, M=400.0, kappa=0.0)
        params = PenaltyParams(epsilon=100.0, delta=1.0, N=32)
        init = Trajectory.constant(0.0, 1.0, np.zeros(2), 32)
        with pytest.raises(Runaway):
            minimize_penalized(prob, disk, params, np.zeros(2), init=init)

    def test_warm_start_at_ellipse_cusp(self):
        # every free knot starts on the evolute cusp (1.5, 0) of the S3
        # ellipse, a focal point where D2b is inf/NaN; the Newton stage must
        # leave it without a non-finite step
        dom = Ellipse([0.0, 0.0], [2.0, 1.0])
        prob = quadratic_problem(2, potential=LinearPotential([-1.5, -3.0]),
                                 T=1.0, M=12.0, kappa=0.0)
        assert not np.all(np.isfinite(dom.eval([[1.5, 0.0]]).D2b))
        params = PenaltyParams(epsilon=0.25, delta=1.0, N=32)
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
        assert np.max(np.abs(knots[0] - knots[1])) < 1e-6

    def test_uncertified_finish_halves_epsilon(self, disk, pull_problem,
                                               monkeypatch, caplog):
        # a Newton finish that does not move leaves the constant init
        # uncertified: the solve raises MaxIterations, and the epsilon
        # ladder recovers one level lower from the same start
        finish = penalty._newton_finish
        stalls = [1]

        def stall_once(prob, dom, params, traj, cost):
            if stalls[0]:
                stalls[0] -= 1
                return traj, np.zeros(len(traj.knots), int)
            return finish(prob, dom, params, traj, cost)

        monkeypatch.setattr(penalty, "_newton_finish", stall_once)
        params = PenaltyParams(epsilon=0.5, delta=0.5, N=32)
        init = Trajectory.constant(0.0, 1.0, np.zeros(2), 32)
        with pytest.raises(MaxIterations):
            minimize_penalized(pull_problem, disk, params, np.zeros(2),
                               init=init)
        stalls[0] = 1
        with caplog.at_level(logging.INFO, logger="statecon"):
            gamma, params = epsilon_schedule(pull_problem, disk, np.zeros(2),
                                             0.5, N=32, init=init, eps0=0.5)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "statecon" and r.levelno == logging.INFO]
        assert len(lines) == 1
        assert "MaxIterations" in lines[0] and "stationarity" in lines[0]
        assert "eps=0.5" in lines[0] and "N=32" in lines[0]
        assert params.epsilon == 0.25
        monkeypatch.setattr(penalty, "_newton_finish", finish)
        direct, _ = epsilon_schedule(pull_problem, disk, np.zeros(2), 0.5,
                                     N=32, init=init, eps0=0.5)
        assert np.max(np.abs(gamma.knots - direct.knots)) < 1e-8

    def test_several_points_per_knot_rejected(self, disk, pull_problem):
        # k points per knot need a knot of k times the domain's dimension
        params = PenaltyParams(epsilon=0.5, delta=0.5, N=16,
                               weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="does not hold 2 points"):
            minimize_penalized(pull_problem, disk, params, np.zeros(2))

    def test_init_grid_mismatch_rejected(self, disk, pull_problem):
        params = PenaltyParams(epsilon=0.5, delta=0.5, N=16)
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


class TestSchedule:
    def test_matches_closed_form(self, solved):
        prob, disk, gamma, params = solved
        # landing time falls between grid points, so the discrete minimizer
        # carries an O(dt^2) junction error
        tol = 10.0 * gamma.dt ** 2
        assert np.max(np.abs(gamma.knots - s1_exact(gamma.times))) < tol

    def test_mixed_terms_land_on_the_boundary(self, disk):
        # the one solve on data with a nonzero fvx, so a nonzero DpxH
        prob = mixed_problem(pull=(-3.0, 0.0))
        delta, _ = delta_choice(prob, disk)
        gamma, params = epsilon_schedule(prob, disk, np.array([0.2, 0.1]),
                                         delta, N=32)
        assert feasibility_gap(disk, gamma) <= 1e-6 * disk.diameter
        assert abs(disk.signed_distance(gamma.knots[-1])) <= 1e-10

    def test_the_cold_ladder_runs_no_lbfgs(self, disk, pull_problem,
                                           monkeypatch):
        # every level is a Newton finish: the first from the constant
        # trajectory, each later one warm from the level before it
        import scipy.optimize
        calls = []
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda *args, **kwargs: calls.append(args))
        delta, _ = delta_choice(pull_problem, disk)
        _gamma, params = epsilon_schedule(pull_problem, disk, np.zeros(2),
                                          delta, N=64)
        assert params.epsilon < 1.0  # the ladder took more than one level
        assert calls == []

    @pytest.mark.parametrize("shape, pull, M, N", [
        ("ellipse", [-1.5, -3.0], 12.0, 64),  # S3 at N = 64
        ("disk", [-3.0, 0.0], 9.0, 256)])  # S1
    def test_cold_level_newton_steps_are_bounded(self, shapes, caplog, shape,
                                                 pull, M, N):
        # the cold level's finish, from the constant trajectory, takes 13
        # (S3, N = 64) and 14 (S1, N = 256) Newton steps; the count grows
        # by some 2.5 steps per doubling of N (S1: 7 at N = 16, 26 at 2048)
        dom = shapes[shape]
        prob = quadratic_problem(2, potential=LinearPotential(pull), T=1.0,
                                 M=M, kappa=0.0)
        delta, _ = delta_choice(prob, dom)
        with caplog.at_level(logging.INFO, logger="statecon"):
            epsilon_schedule(prob, dom, np.zeros(2), delta, N=N)
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "statecon.ladder"
                   and r.getMessage().startswith("ladder round 0 ")]
        assert line.endswith(" Newton steps")
        assert int(line.rsplit(", ", 1)[1].split()[0]) <= 16

    def test_a_start_that_stalls_twice_ends_the_ladder(self, disk,
                                                        pull_problem,
                                                        monkeypatch):
        # a finish that accepts no step leaves each level at its start; the
        # second stall from that start ends the member with MaxIterations,
        # rather than 41 identical finishes
        starts = []

        def stall(prob, dom, params, traj, cost):
            starts.append(traj.knots.copy())
            return traj, np.zeros(len(traj.knots), int)

        monkeypatch.setattr(penalty, "_newton_finish", stall)
        delta, _ = delta_choice(pull_problem, disk)
        with pytest.raises(MaxIterations):
            epsilon_schedule(pull_problem, disk, np.zeros(2), delta, N=32)
        assert len(starts) == 2
        assert np.array_equal(starts[0], starts[1])

    @pytest.mark.parametrize("weights", [[1.0], [0.4, 0.6]],
                             ids=["single", "stacked"])
    def test_a_stall_that_moved_restarts_from_its_best_point(
            self, disk, pull_problem, monkeypatch, weights):
        # an uncertified finish that accepted steps hands its best point to
        # the next level, which starts there; also for the stacked state of
        # k = 2 agents of a joint solve
        finish, starts = penalty._newton_finish, []

        def moved_once(prob, dom, params, traj, cost):
            starts.append(traj.knots.copy())
            if len(starts) > 1:
                return finish(prob, dom, params, traj, cost)
            knots = traj.knots.copy()
            knots[..., 1:, 1] += 0.1
            return Trajectory(traj.t0, traj.t1, knots), np.ones(1, int)

        monkeypatch.setattr(penalty, "_newton_finish", moved_once)
        delta, _ = delta_choice(pull_problem, disk)
        k = len(weights)
        prob = pull_problem if k == 1 else potential_problem(
            pull_problem, GaussianKernelCoupling(amp=0.5, scale=0.5), weights)
        x0 = np.array([0.0, 0.0, 0.3, 0.2])[:2 * k]
        gamma, params = epsilon_schedule(prob, disk, x0, delta, N=32,
                                         weights=weights)
        assert np.array_equal(starts[1][..., 1:, 1],
                              np.full((1, 32), 0.1))
        assert params.weights.tolist() == weights
        assert feasibility_gap(disk, gamma) <= 1e-6 * disk.diameter

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
        K = check_assumptions(prob, disk).K
        assert energy_certificate(prob, disk, params, gamma, K)

    def test_holder_bound_holds(self, solved):
        prob, disk, gamma, params = solved
        K = check_assumptions(prob, disk).K
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

    def test_formula_for_linear_terminal_in_3d(self):
        # the drift speed |A^{-1} c| does not depend on x, so the grid's
        # sup is that speed
        ball = Ball([0.0, 0.0, 0.0], 1.5)
        A = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
        c = np.array([0.4, -0.7, 1.1])
        prob = quadratic_problem(3, A=A, terminal=LinearTerminal(c), T=1.0,
                                 M=2.0, kappa=0.0)
        delta, speed = delta_choice(prob, ball)
        want = np.linalg.norm(np.linalg.solve(A, c))
        assert speed == pytest.approx(want, rel=1e-12)
        assert delta == pytest.approx(1.0 / (2.0 * prob.mu * want),
                                      rel=1e-12)

    def test_zero_terminal_gives_unit_delta(self, disk):
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        delta, speed = delta_choice(prob, disk)
        assert delta == 1.0
        assert speed == 0.0
