import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from statecon import (Ball, DiscreteMeasure, GaussianKernelCoupling,
                      LinearPotential, PenaltyParams, TrajectoryMeasure,
                      Trajectory, UnbalancedMeasure, best_response,
                      constant_measure, delta_choice, epsilon_schedule,
                      evaluate_flow, fixed_point, kantorovich_d1, lip_flow,
                      minimize_penalized, monotonicity_check,
                      quadratic_problem)
from statecon.mfg import (_prune, coupled_problem, equilibrium_residual,
                          flow_speed_bound)
from statecon.penalty import _action_hessian, _cost_and_grad, _stationarity

from conftest import fd_action_hessian


RNG = np.random.default_rng(17)


def d1_quantile_oracle(a, b):
    """1-D Wasserstein distance as the L1 gap of the quantile functions,
    computed exactly on the merged cumulative-weight breakpoints."""
    xa, wa = a.points[:, 0], a.weights / a.mass
    xb, wb = b.points[:, 0], b.weights / b.mass
    ia, ib = np.argsort(xa), np.argsort(xb)
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    ca, cb = np.cumsum(wa), np.cumsum(wb)
    cuts = np.unique(np.concatenate([[0.0], ca, cb]))
    cuts[-1] = 1.0
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        u = 0.5 * (lo + hi)
        qa = xa[min(np.searchsorted(ca, u), ca.size - 1)]
        qb = xb[min(np.searchsorted(cb, u), cb.size - 1)]
        total += (hi - lo) * abs(qa - qb)
    return total * a.mass


def d1_assignment_oracle(a, b, q=20):
    """Transport cost via integer-weight refinement to equal atoms and an
    exact assignment solve."""
    ra = np.repeat(a.points, np.round(a.weights * q).astype(int), axis=0)
    rb = np.repeat(b.points, np.round(b.weights * q).astype(int), axis=0)
    assert ra.shape == rb.shape
    cost = np.linalg.norm(ra[:, None, :] - rb[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) * a.mass / ra.shape[0]


def random_measure(k, rng, one_d=False):
    pts = rng.uniform(-1.0, 1.0, (k, 2))
    if one_d:
        pts[:, 1] = 0.0
    w = rng.uniform(0.2, 1.0, k)
    return DiscreteMeasure(pts, w / w.sum())


class TestKantorovich:
    def test_matches_quantile_formula_in_1d(self):
        for _ in range(8):
            a = random_measure(RNG.integers(2, 6), RNG, one_d=True)
            b = random_measure(RNG.integers(2, 6), RNG, one_d=True)
            got = kantorovich_d1(a, b)
            assert got == pytest.approx(d1_quantile_oracle(a, b), abs=1e-9)

    def test_matches_assignment_oracle_in_2d(self):
        for _ in range(6):
            wa = RNG.integers(1, 5, 4)
            wb = RNG.integers(1, 5, 4)
            a = DiscreteMeasure(RNG.uniform(-1, 1, (4, 2)), wa / wa.sum())
            b = DiscreteMeasure(RNG.uniform(-1, 1, (4, 2)), wb / wb.sum())
            got = kantorovich_d1(a, b)
            want = d1_assignment_oracle(a, b, q=int(wa.sum() * wb.sum()))
            assert got == pytest.approx(want, abs=1e-9)

    def test_metric_axioms(self):
        ms = [random_measure(3, RNG) for _ in range(3)]
        for m in ms:
            assert kantorovich_d1(m, m) == pytest.approx(0.0, abs=1e-10)
        for a in ms:
            for b in ms:
                assert kantorovich_d1(a, b) == pytest.approx(
                    kantorovich_d1(b, a), abs=1e-9)
        d01 = kantorovich_d1(ms[0], ms[1])
        d12 = kantorovich_d1(ms[1], ms[2])
        d02 = kantorovich_d1(ms[0], ms[2])
        assert d02 <= d01 + d12 + 1e-9

    def test_translation_costs_shift_length(self):
        m = random_measure(5, RNG)
        v = np.array([0.3, -0.4])
        shifted = DiscreteMeasure(m.points + v, m.weights)
        assert kantorovich_d1(m, shifted) == pytest.approx(0.5, abs=1e-9)

    def test_unbalanced_rejected(self):
        a = DiscreteMeasure([[0.0, 0.0]], [1.0])
        b = DiscreteMeasure([[0.0, 0.0]], [0.5])
        with pytest.raises(UnbalancedMeasure):
            kantorovich_d1(a, b)


class TestMeasures:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0, 0.0]], [-0.5])
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0, 0.0]], [0.5, 0.5])
        tr = Trajectory.constant(0.0, 1.0, np.zeros(2), 16)
        with pytest.raises(ValueError):
            TrajectoryMeasure([tr], np.array([0.7]))

    def test_initial_measure_aggregates_duplicates(self):
        t1 = Trajectory.constant(0.0, 1.0, np.array([0.1, 0.2]), 16)
        t2 = Trajectory.constant(0.0, 1.0, np.array([0.1, 0.2]), 16)
        t3 = Trajectory.constant(0.0, 1.0, np.array([-0.3, 0.0]), 16)
        eta = TrajectoryMeasure([t1, t2, t3], np.array([0.25, 0.35, 0.4]))
        m0 = eta.initial_measure()
        assert m0.points.shape == (2, 2)
        assert m0.weights[0] == pytest.approx(0.6)

    def test_constant_measure_flow_is_static(self):
        pts = RNG.uniform(-0.5, 0.5, (4, 2))
        eta = constant_measure(pts, np.full(4, 0.25), T=1.0, N=16)
        flow = evaluate_flow(eta, np.linspace(0, 1, 5))
        for m in flow.measures:
            assert np.allclose(m.points, pts, atol=1e-14)
        assert lip_flow(flow) == pytest.approx(0.0, abs=1e-12)

    def test_flow_speed_bound_dominates_lip_flow(self):
        # straight-line particles with different velocities
        trajs = [Trajectory(0.0, 1.0,
                            np.linspace(0, 1, 17)[:, None] * v + [0.1, -0.2])
                 for v in (np.array([[0.5, 0.0]]), np.array([[-0.2, 0.4]]))]
        eta = TrajectoryMeasure(trajs, np.array([0.5, 0.5]))
        times = np.linspace(0.0, 1.0, 9)
        bound = flow_speed_bound(eta, times)
        lip = lip_flow(evaluate_flow(eta, times))
        assert bound >= lip - 1e-12
        # the bound is the weighted mean speed
        assert bound == pytest.approx(0.5 * 0.5 + 0.5 * np.hypot(0.2, 0.4),
                                      rel=1e-9)

    def test_prune_merges_identical_trajectories(self):
        t1 = Trajectory.constant(0.0, 1.0, np.array([0.1, 0.0]), 16)
        t2 = Trajectory.constant(0.0, 1.0, np.array([0.1, 0.0]), 16)
        eta = TrajectoryMeasure([t1, t2], np.array([0.4, 0.6]))
        pruned = _prune(eta)
        assert len(pruned.trajectories) == 1
        assert pruned.weights[0] == pytest.approx(1.0)


class TestCoupling:
    def test_value_matches_naive_sum(self):
        c = GaussianKernelCoupling(amp=0.7, scale=0.4)
        m = random_measure(5, RNG)
        X = RNG.uniform(-1, 1, (6, 2))
        want = np.zeros(6)
        for j in range(5):
            d2 = np.sum((X - m.points[j]) ** 2, axis=1)
            want += m.weights[j] * 0.7 * np.exp(-0.5 * d2 / 0.4 ** 2)
        assert np.allclose(c.F(X, m), want, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        c = GaussianKernelCoupling(amp=0.7, scale=0.4, terminal_amp=0.2)
        m = random_measure(4, RNG)
        x = np.array([[0.3, -0.1]])
        h = 1e-6
        for deriv, func in ((c.DxF, c.F), (c.DxG, c.G)):
            for k in range(2):
                e = np.zeros((1, 2))
                e[0, k] = h
                fd = (func(x + e, m) - func(x - e, m)) / (2 * h)
                assert deriv(x, m)[0, k] == pytest.approx(float(fd[0]),
                                                          abs=1e-6)

    def test_monotone_on_random_pairs(self):
        c = GaussianKernelCoupling(amp=1.0, scale=0.5)
        pairs = [(random_measure(4, RNG), random_measure(3, RNG))
                 for _ in range(10)]
        vals = monotonicity_check(c, pairs)
        assert all(v >= -1e-12 for v in vals)

    def test_config_round_trip(self):
        c = GaussianKernelCoupling(amp=0.5, scale=0.3, terminal_amp=0.1)
        c2 = GaussianKernelCoupling.from_config(c.to_config())
        assert (c2.amp, c2.scale, c2.terminal_amp) == (0.5, 0.3, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianKernelCoupling(amp=-1.0)
        with pytest.raises(ValueError):
            GaussianKernelCoupling(scale=0.0)


class TestCoupledProblem:
    def test_adds_kernel_to_running_cost(self):
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.6, scale=0.5)
        pts = np.array([[0.2, 0.1], [-0.3, 0.0]])
        eta = constant_measure(pts, np.array([0.5, 0.5]), T=1.0, N=16)
        single = coupled_problem(prob, disk, c, eta)
        t = np.array([0.3, 0.8])
        x = RNG.uniform(-0.5, 0.5, (2, 2))
        v = RNG.uniform(-1, 1, (2, 2))
        m = DiscreteMeasure(pts, np.array([0.5, 0.5]))
        want = prob.f(t, x, v) + c.F(x, m)
        assert np.allclose(single.f(t, x, v), want, atol=1e-12)

    def test_zero_coupling_recovers_base(self):
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.0, scale=0.5)
        eta = constant_measure([[0.1, 0.1]], [1.0], T=1.0, N=16)
        single = coupled_problem(prob, disk, c, eta)
        t = np.zeros(3)
        x = RNG.uniform(-0.5, 0.5, (3, 2))
        v = RNG.uniform(-1, 1, (3, 2))
        assert np.allclose(single.f(t, x, v), prob.f(t, x, v), atol=1e-14)
        assert single.kappa == 0.0


def pulled_crowd_problem(terminal_amp=0.3):
    """Coupled problem whose minimizer lands on the unit circle and rests
    there against a crowd of two moving particles."""
    disk = Ball([0.0, 0.0], 1.0)
    base = quadratic_problem(2, potential=LinearPotential([-3.0, 0.0]),
                             T=1.0, M=9.0, kappa=0.0)
    trajs = [Trajectory(0.0, 1.0, np.linspace(a, b, 33))
             for a, b in (([0.3, 0.1], [0.6, 0.4]), ([0.5, -0.2], [0.2, -0.6]))]
    eta = TrajectoryMeasure(trajs, np.array([0.4, 0.6]))
    c = GaussianKernelCoupling(amp=0.5, scale=0.5, terminal_amp=terminal_amp)
    return disk, coupled_problem(base, disk, c, eta)


class TestCoupledHessian:
    def test_fxx_matches_finite_differences_of_fx(self):
        disk, single = pulled_crowd_problem()
        t = RNG.uniform(0.0, 1.0, 5)
        x = RNG.uniform(-0.8, 0.8, (5, 2))
        v = RNG.uniform(-1.0, 1.0, (5, 2))
        h = 1e-6
        H = single.fxx(t, x, v)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (single.fx(t, x + e, v) - single.fx(t, x - e, v)) / (2 * h)
            assert np.max(np.abs(H[:, :, k] - fd)) < 1e-8

    def test_terminal_hessian_matches_finite_differences_of_Dg(self):
        disk, single = pulled_crowd_problem()
        x = RNG.uniform(-0.8, 0.8, (4, 2))
        h = 1e-6
        H = single.D2g(x)
        assert np.max(np.abs(H)) > 0.1  # terminal coupling is active
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (single.Dg(x + e) - single.Dg(x - e)) / (2 * h)
            assert np.max(np.abs(H[:, :, k] - fd)) < 1e-8

    def test_action_hessian_matches_finite_differences(self):
        disk, single = pulled_crowd_problem()
        for _ in range(3):
            gamma = Trajectory(0.0, 1.0, RNG.uniform(-0.6, 0.6, (13, 2)))
            H = _action_hessian(single, gamma).toarray()
            assert np.max(np.abs(H - fd_action_hessian(single, gamma))) < 1e-6

    def test_exact_penalty_minimizer_is_independent_of_epsilon(self):
        # below the exact-penalty threshold the penalized minimizer is the
        # constrained one, so two certified levels land on the same knots
        disk, single = pulled_crowd_problem()
        delta, _ = delta_choice(single, disk)
        knots = []
        for eps in (0.125, 0.0625):
            params = PenaltyParams(epsilon=eps, delta=delta, rho=disk.rho0,
                                   N=32)
            gamma = minimize_penalized(single, disk, params, np.zeros(2))
            cost, G, geo = _cost_and_grad(single, disk, params, gamma)
            stat = _stationarity(disk, params, gamma, G, geo)
            assert stat <= 1e-12 * (1.0 + abs(cost))
            assert np.sum(np.abs(geo.b) < 1e-9) >= 5
            knots.append(gamma.knots)
        assert np.max(np.abs(knots[0] - knots[1])) < 1e-8

    def test_line_search_trial_points_do_not_trip_the_leash(self):
        # from the constant start, L-BFGS-B line-search trial points reach
        # b = 6.5 against a leash of rho0 + diam = 3, while its accepted
        # iterates stay within b <= 0.03; only the latter may raise Runaway
        disk, single = pulled_crowd_problem()
        delta, _ = delta_choice(single, disk)
        params = PenaltyParams(epsilon=0.25, delta=delta, rho=disk.rho0,
                               N=32)
        gamma = minimize_penalized(single, disk, params, np.zeros(2))
        cost, G, geo = _cost_and_grad(single, disk, params, gamma)
        assert _stationarity(disk, params, gamma, G, geo) <= 1e-8 * (
            1.0 + abs(cost))
        assert np.max(geo.b) <= 1e-6 * disk.diameter


    def test_knot_stopping_on_the_kink_joins_the_boundary(self,
                                                          lbfgs_calls):
        # a mild-solution node of the S4 crowd (start x0, sub-horizon
        # [0.5, 1], N=32) against one particle resting at the centre: at
        # eps = 0.5 the last knot's backtracked step stops at b = -8e-14;
        # unless it joins the boundary group, every later line search is
        # cut short at the kink and the level stalls at 1.6e-3
        disk = Ball([0.0, 0.0], 1.0)
        base = quadratic_problem(2, M=1.0, kappa=0.0)
        eta = constant_measure([[0.0, 0.0]], [1.0], T=1.0, N=32)
        single = coupled_problem(base, disk,
                                 GaussianKernelCoupling(amp=2.0, scale=0.5),
                                 eta)
        x0 = np.array([-0.5693826, -0.67957593])
        delta, _ = delta_choice(single, disk)
        gamma, params = epsilon_schedule(
            single, disk, x0, delta, N=32,
            init=Trajectory.constant(0.5, 1.0, x0, 32))
        assert params.epsilon == 0.5
        assert lbfgs_calls[0] == 0
        cost, G, geo = _cost_and_grad(single, disk, params, gamma)
        assert _stationarity(disk, params, gamma, G, geo) <= 1e-8 * (
            1.0 + abs(cost))
        assert abs(geo.b[-1]) <= disk.boundary_tol


class TestFixedPoint:
    def test_zero_coupling_is_immediate_equilibrium(self):
        # with no coupling and no potential every particle rests, so the
        # stay-put measure is the equilibrium
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.0, scale=0.5)
        pts = np.array([[0.2, 0.0], [-0.1, 0.3]])
        eta0 = constant_measure(pts, np.array([0.5, 0.5]), T=1.0, N=32)
        eta, history = fixed_point(prob, disk, c, eta0, tol=1e-6, N=32,
                                   n_times=5)
        assert history[-1] <= 1e-6
        pos = eta.positions_at(np.linspace(0, 1, 5))
        assert np.max(np.abs(pos - pos[0])) < 1e-8

    def test_crowd_aversion_small_case(self):
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=2.0, kappa=1.0)
        c = GaussianKernelCoupling(amp=0.4, scale=0.5)
        pts = np.array([[0.05, 0.0], [-0.05, 0.05], [0.0, -0.08]])
        eta0 = constant_measure(pts, np.full(3, 1.0 / 3.0), T=1.0, N=32)
        eta, history = fixed_point(prob, disk, c, eta0, alpha=0.5, tol=1e-3,
                                   N=32, n_times=5)
        assert history[-1] <= 1e-3
        # initial marginal is preserved exactly
        m0 = eta.initial_measure()
        order = np.lexsort(m0.points.T)
        want = np.lexsort(pts.T)
        assert np.allclose(m0.points[order], pts[want], atol=1e-12)
        assert np.allclose(m0.weights, 1.0 / 3.0, atol=1e-12)
        # crowd aversion pushes the particles apart
        spread0 = np.mean(np.linalg.norm(pts - pts.mean(0), axis=1))
        posT = eta.positions_at(np.array([1.0]))[0]
        avgT = np.einsum("kn,k->n", posT, eta.weights)
        spreadT = float(np.linalg.norm(posT - avgT, axis=1) @ eta.weights)
        assert spreadT > spread0

    def test_residual_of_equilibrium_is_zero(self):
        eta = constant_measure([[0.1, 0.0]], [1.0], T=1.0, N=16)
        times = np.linspace(0, 1, 5)
        assert equilibrium_residual(eta, eta, times) == pytest.approx(0.0)

    def test_alpha_validation(self):
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.1)
        eta0 = constant_measure([[0.0, 0.0]], [1.0], T=1.0, N=16)
        with pytest.raises(ValueError):
            fixed_point(prob, disk, c, eta0, alpha=0.0)


class TestBestResponse:
    def test_free_particles_stay_put(self):
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.0, scale=0.5)
        eta = constant_measure([[0.3, -0.2]], [1.0], T=1.0, N=32)
        br = best_response(prob, disk, c, eta, N=32)
        assert np.max(np.abs(br.trajectories[0].knots - [0.3, -0.2])) < 1e-8
