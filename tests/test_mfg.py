import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

from statecon import (Ball, DiscreteMeasure, GaussianKernelCoupling,
                      PenaltyParams, TrajectoryMeasure, Trajectory,
                      UnbalancedMeasure, best_response, constant_measure,
                      delta_choice, epsilon_schedule, fixed_point,
                      kantorovich_d1, lip_flow, quadratic_problem)
from statecon import mfg, penalty
from statecon.cli import (build_coupling, build_domain, build_problem,
                          load_config)
from statecon.mfg import (_coupling_cost, _particle_speeds, _prune,
                          coupled_problem, potential_problem,
                          equilibrium_residual)
from statecon.penalty import (MaxIterations, ScheduleExhausted,
                              _action_hessian, _cost_and_grad)

from conftest import dense_tridiag, fd_action_hessian, solve_level


RNG = np.random.default_rng(17)
S4 = Path(__file__).resolve().parents[1] / "scenarios" / "S4.json"


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

    def test_constraints_match_row_loops(self, monkeypatch):
        # reference: one row per source, then one per target but the last
        def loop_rows(ka, kb):
            rows = []
            for i in range(ka):
                r = np.zeros((ka, kb))
                r[i, :] = 1.0
                rows.append(r.ravel())
            for j in range(kb - 1):
                c = np.zeros((ka, kb))
                c[:, j] = 1.0
                rows.append(c.ravel())
            return np.array(rows)

        seen = []
        linprog = mfg.linprog

        def recording(*args, **kwargs):
            seen.append(kwargs["A_eq"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(mfg, "linprog", recording)
        rng = np.random.default_rng(4)
        for ka, kb in ((1, 1), (3, 5), (8, 8), (13, 7)):
            a, b = random_measure(ka, rng), random_measure(kb, rng)
            got = kantorovich_d1(a, b)
            if ka == 1:
                # one point each: the only plan, with no LP
                assert not seen
                assert got == np.linalg.norm(a.points[0] - b.points[0])
                continue
            assert np.array_equal(seen[-1], loop_rows(ka, kb))

    def test_index_matched_plan_certifies(self, monkeypatch):
        # each point moves a little way along itself: that plan is optimal,
        # so no LP is solved and d1 is the plan's cost
        lps = counted(monkeypatch, mfg, "linprog")
        rng = np.random.default_rng(6)
        for k in (2, 5, 8, 16):
            a = random_measure(k, rng)
            b = DiscreteMeasure(a.points + 1e-3 * rng.standard_normal((k, 2)),
                                a.weights)
            cost = np.linalg.norm(a.points[:, None] - b.points[None], axis=2)
            ref = linprog(cost.ravel(),
                          A_eq=np.vstack([np.kron(np.eye(k), np.ones(k)),
                                          np.kron(np.ones(k), np.eye(k))]),
                          b_eq=np.concatenate([a.weights, b.weights]),
                          bounds=(0, None), method="highs")
            assert abs(kantorovich_d1(a, b) - ref.fun) <= 1e-12
        assert lps[0] == 0

    def test_crossing_pairs_solve_the_lp(self, monkeypatch):
        # index by index the points swap places, which the LP undoes
        lps = counted(monkeypatch, mfg, "linprog")
        a = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                            [0.3, 0.3, 0.4])
        b = DiscreteMeasure([[1.0, 0.0], [0.0, 0.0], [2.5, 0.0]],
                            [0.3, 0.3, 0.4])
        assert kantorovich_d1(a, b) == pytest.approx(0.2, abs=1e-12)
        assert kantorovich_d1(a, b) == pytest.approx(
            d1_quantile_oracle(a, b), abs=1e-12)
        assert lps[0] == 2

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

    def test_positions_at_matches_each_trajectory(self):
        # one stacked interpolation of the shared grid: the same floats as
        # Trajectory.at; a measure on mixed grids is refused
        rng = np.random.default_rng(12)
        t = np.concatenate([rng.uniform(-0.1, 1.1, 20),
                            np.linspace(0.0, 1.0, 17)])
        eta = TrajectoryMeasure(
            [Trajectory(0.0, 1.0, rng.normal(size=(17, 2)))
             for _ in range(3)], np.full(3, 1.0 / 3.0))
        want = np.stack([tr.at(t) for tr in eta.trajectories], axis=1)
        assert np.array_equal(eta.positions_at(t), want)
        with pytest.raises(ValueError, match="one grid"):
            TrajectoryMeasure(
                [Trajectory(0.0, 1.0, rng.normal(size=(n + 1, 2)))
                 for n in (16, 32, 16)], np.full(3, 1.0 / 3.0))

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
        times = np.linspace(0, 1, 5)
        for X in eta.positions_at(times):
            assert np.allclose(X, pts, atol=1e-14)
        assert lip_flow(eta, times) == pytest.approx(0.0, abs=1e-12)

    def test_flow_speed_bound_dominates_lip_flow(self):
        # straight-line particles with different velocities
        trajs = [Trajectory(0.0, 1.0,
                            np.linspace(0, 1, 17)[:, None] * v + [0.1, -0.2])
                 for v in (np.array([[0.5, 0.0]]), np.array([[-0.2, 0.4]]))]
        eta = TrajectoryMeasure(trajs, np.array([0.5, 0.5]))
        times = np.linspace(0.0, 1.0, 9)
        bound = np.max(_particle_speeds(eta.positions_at(times), eta.weights,
                                        times))
        lip = lip_flow(eta, times)
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


def monotonicity_check(coupling, pairs):
    """Values of the coupling monotonicity integral on measure pairs: the
    integral of (F(., m1) - F(., m2)) against (m1 - m2) per pair."""
    out = []
    for m1, m2 in pairs:
        f11 = coupling.F(m1.points, m1)
        f12 = coupling.F(m1.points, m2)
        f21 = coupling.F(m2.points, m1)
        f22 = coupling.F(m2.points, m2)
        val = (np.dot(f11 - f12, m1.weights)
               - np.dot(f21 - f22, m2.weights))
        out.append(float(val))
    return out


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
        # the bump's first order where the solver reads it: a coupled
        # problem's fx and Dg against differences of its f and g
        disk, single = pulled_crowd_problem(terminal_amp=0.3)
        t = RNG.uniform(0.0, 1.0, 6)
        x = RNG.uniform(-0.8, 0.8, (6, 2))
        v = RNG.uniform(-1.0, 1.0, (6, 2))
        assert np.max(np.abs(single.Dg(x))) > 0.05  # the base g is zero
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (single.f(t, x + e, v) - single.f(t, x - e, v)) / (2 * h)
            assert np.max(np.abs(single.fx(t, x, v)[:, k] - fd)) < 1e-8
            fd = (single.g(x + e) - single.g(x - e)) / (2 * h)
            assert np.max(np.abs(single.Dg(x)[:, k] - fd)) < 1e-8

    def test_monotone_on_random_pairs(self):
        c = GaussianKernelCoupling(amp=1.0, scale=0.5)
        pairs = [(random_measure(4, RNG), random_measure(3, RNG))
                 for _ in range(10)]
        vals = monotonicity_check(c, pairs)
        assert all(v >= -1e-12 for v in vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianKernelCoupling(amp=-1.0)
        with pytest.raises(ValueError):
            GaussianKernelCoupling(scale=0.0)

    @pytest.mark.parametrize("terminal_amp", [-1.0, -0.1])
    def test_negative_terminal_amp_is_refused(self, terminal_amp):
        # a negative terminal amplitude would lower kappa and break the
        # monotonicity of the terminal coupling
        with pytest.raises(ValueError, match="terminal_amp >= 0"):
            GaussianKernelCoupling(terminal_amp=terminal_amp)


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


    def test_replace_adds_V_once(self):
        base = quadratic_problem(2, T=1.0, M=3.0, kappa=0.0)
        eta = constant_measure([[0.1, 0.0], [-0.2, 0.1]], [0.5, 0.5],
                               T=1.0, N=16)
        cp = coupled_problem(base, Ball([0.0, 0.0], 1.0),
                             GaussianKernelCoupling(), eta)
        t, x, v = np.zeros(1), np.array([[0.1, 0.0]]), np.zeros((1, 2))
        want = cp.f(t, x, v)
        assert want[0] == pytest.approx(0.909, abs=1e-3)
        again = replace(cp, M=cp.M + 1.0)
        assert again.V is cp.V
        for a, b in zip((again.f, again.fx, again.fxx),
                        (cp.f, cp.fx, cp.fxx)):
            assert np.array_equal(a(t, x, v), b(t, x, v))
        assert again.rest == cp.rest
        assert again.rest[0](t, x, v)[0] == 0.0

    def test_flow_bound_reads_every_knot_interval(self):
        # at N = 128 the one particle moves 0.5 in one interval, a speed of
        # 64, which coarser slices would average down
        knots = np.zeros((129, 2))
        knots[65:, 0] = 0.5
        eta = TrajectoryMeasure([Trajectory(0.0, 1.0, knots)], [1.0])
        base = quadratic_problem(2, T=1.0, M=3.0, kappa=0.25)
        c = GaussianKernelCoupling(terminal_amp=1.0)
        cp = coupled_problem(base, Ball([0.0, 0.0], 1.0), c, eta)
        assert cp.kappa - base.kappa == pytest.approx(c.kappa * 64.0,
                                                      rel=1e-12)
        # m_T is the last knot: the terminal bump peaks there
        assert cp.g(np.array([[0.5, 0.0]]))[0] == 1.0


def pulled_crowd_problem(terminal_amp=0.3):
    """Coupled problem whose minimizer lands on the unit circle and rests
    there against a crowd of two moving particles."""
    disk = Ball([0.0, 0.0], 1.0)
    base = quadratic_problem(2, potential=[-3.0, 0.0], T=1.0, M=9.0, kappa=0.0)
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
            H = dense_tridiag(*_action_hessian(single, gamma))
            assert np.max(np.abs(H - fd_action_hessian(single, gamma))) < 1e-6

    def test_exact_penalty_minimizer_is_independent_of_epsilon(self):
        # below the exact-penalty threshold the penalized minimizer is the
        # constrained one, so two certified levels land on the same knots
        disk, single = pulled_crowd_problem()
        delta, _ = delta_choice(single, disk)
        knots = []
        for eps in (0.125, 0.0625):
            params = PenaltyParams(epsilon=eps, delta=delta)
            gamma = solve_level(single, disk, params, np.zeros(2),
                                Trajectory.constant(0.0, 1.0, np.zeros(2), 32))
            cost, _, geo = _cost_and_grad(single, disk, params, gamma)
            stat = penalty._certificate(single, disk, params, gamma)[0]
            assert stat <= 1e-12 * (1.0 + abs(cost))
            assert np.sum(np.abs(geo.b) < 1e-9) >= 5
            knots.append(gamma.knots)
        assert np.max(np.abs(knots[0] - knots[1])) < 1e-8

    def test_line_search_trial_points_do_not_trip_the_leash(self):
        # from the constant start, the Newton finish's line-search trial
        # points reach b = 1.5 while its minimizer lies in the disk; only
        # the minimizer is held to the leash rho0 + diam = 3
        disk, single = pulled_crowd_problem()
        delta, _ = delta_choice(single, disk)
        params = PenaltyParams(epsilon=0.25, delta=delta)
        gamma = solve_level(single, disk, params, np.zeros(2),
                            Trajectory.constant(0.0, 1.0, np.zeros(2), 32))
        cost, _, geo = _cost_and_grad(single, disk, params, gamma)
        stat = penalty._certificate(single, disk, params, gamma)[0]
        assert stat <= 1e-8 * (1.0 + abs(cost))
        assert np.max(geo.b) <= 1e-6 * disk.diameter


    def test_knot_stopping_on_the_kink_joins_the_boundary(self):
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
        cost, _, geo = _cost_and_grad(single, disk, params, gamma)
        stat = penalty._certificate(single, disk, params, gamma)[0]
        assert stat <= 1e-8 * (1.0 + abs(cost))
        assert abs(geo.b[-1]) <= disk.boundary_tol


def stacked_problem(N):
    """``potential_problem`` of ``TestJointEquilibrium`` and its stacked
    knots, as one trajectory."""
    base, c, X = TestJointEquilibrium().stacked(N)
    joint = potential_problem(base, c, TestJointEquilibrium.W)
    return joint, Trajectory(0.0, 1.0, X.reshape(N + 1, 6))


def close(a, b, rel=1e-13):
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


class TestStateOnlyCost:
    """The coupling as the state-only running cost V, evaluated once per
    knot, against the same problem with V folded into f, fx and fxx."""

    @pytest.mark.parametrize("joint", [False, True],
                             ids=["pulled-crowd", "stacked"])
    def test_knot_V_matches_V_folded_into_f(self, joint):
        disk = Ball([0.0, 0.0], 1.0)
        if joint:
            prob, gamma = stacked_problem(16)
            weights = TestJointEquilibrium.W
        else:
            prob = pulled_crowd_problem()[1]
            gamma = Trajectory(0.0, 1.0, RNG.uniform(-1.1, 1.1, (3, 17, 2)))
            weights = np.ones(1)
        # the full f, fx and fxx as the costs of a problem without V
        folded = replace(prob, f=prob.f, fx=prob.fx, fxx=prob.fxx, V=None)
        assert prob.V is not None and folded.V is None
        params = PenaltyParams(epsilon=0.5, delta=0.5, weights=weights)
        cost, G, _ = _cost_and_grad(prob, disk, params, gamma)
        cost_f, G_f, _ = _cost_and_grad(folded, disk, params, gamma)
        assert close(cost, cost_f) and close(G, G_f)
        for a, b in zip(_action_hessian(prob, gamma),
                        _action_hessian(folded, gamma)):
            assert close(a, b)

    def test_newton_finish_evaluates_V_once_per_step(self, monkeypatch):
        disk, single = pulled_crowd_problem()
        orders = []
        V = single.V
        monkeypatch.setattr(single, "V", lambda t, x, order: (
            orders.append(order) or V(t, x, order)))
        hessians = counted(monkeypatch, penalty, "_action_hessian")
        params = PenaltyParams(epsilon=0.25, delta=0.5)
        traj = Trajectory(0.0, 1.0, np.zeros((1, 33, 2)))  # a batch of one
        cost, _, _ = _cost_and_grad(single, disk, params, traj,
                                    need_grad=False)
        orders.clear()
        _, (steps,) = penalty._newton_finish(single, disk, params, traj, cost)
        # one order-2 evaluation per step, for its gradient and Hessian;
        # the line search evaluates V's value only
        assert orders.count(2) == hessians[0] >= steps > 0
        assert set(orders) == {0, 2}


class TestFixedPoint:
    def test_zero_coupling_is_immediate_equilibrium(self):
        # with no coupling and no potential every particle rests, so the
        # stay-put measure is the equilibrium
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.0, scale=0.5)
        pts = np.array([[0.2, 0.0], [-0.1, 0.3]])
        eta0 = constant_measure(pts, np.array([0.5, 0.5]), T=1.0, N=32)
        eta, history = fixed_point(prob, disk, c, eta0, tol=1e-6,
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
                                   n_times=5)
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

    def test_eta0_off_the_horizon_is_refused(self, monkeypatch):
        # the solves run on eta0's grid, which must span [0, T]; checked
        # before any solve, joint or best response
        calls = []
        monkeypatch.setattr(mfg, "epsilon_schedule",
                            lambda *a, **k: calls.append(a))
        monkeypatch.setattr(mfg, "epsilon_schedule_batch",
                            lambda *a, **k: calls.append(a))
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        for t0, t1 in ((0.0, 2.0), (0.5, 1.0)):
            eta0 = TrajectoryMeasure(
                [Trajectory.constant(t0, t1, [0.1, 0.0], 32)], [1.0])
            with pytest.raises(ValueError, match=r"not \[0, T\]"):
                fixed_point(prob, Ball([0.0, 0.0], 1.0),
                            GaussianKernelCoupling(amp=0.0, scale=0.5), eta0)
        assert calls == []

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

    def test_one_info_line_per_iteration(self, caplog):
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.4, scale=0.5)
        pts = np.array([[0.05, 0.0], [-0.05, 0.05]])
        eta0 = constant_measure(pts, np.full(2, 0.5), T=1.0, N=16)
        with caplog.at_level(logging.INFO, logger="statecon"):
            _, history = fixed_point(prob, disk, c, eta0, tol=1e-3,
                                     n_times=5)
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("mfg iteration")]
        assert len(lines) == len(history) >= 2
        assert lines[0] == (f"mfg iteration 0: residual {history[0]:.3e}, "
                            f"support 2, 1 of 5 transport LPs")


def s4_game(N=32):
    """S4's domain, problem, coupling and stay-put measure at grid N."""
    cfg = load_config(str(S4))
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    mc = cfg["mfg"]
    eta0 = constant_measure(np.asarray(mc["m0"]["points"]),
                            np.asarray(mc["m0"]["weights"]), prob.horizon,
                            N=N)
    return dom, prob, build_coupling(mc), eta0


def damped(eta, br, alpha=0.5):
    """The fixed-point iteration's next iterate."""
    return _prune(TrajectoryMeasure(
        list(eta.trajectories) + list(br.trajectories),
        np.concatenate([(1.0 - alpha) * eta.weights, alpha * br.weights])))


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; read
    ``calls[0]``."""
    calls = [0]
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counted_members(monkeypatch, module, name, arg):
    """Replace module.name, which solves a batch whose starts are its
    positional argument ``arg``, by a wrapper that counts the members it
    is called with; read ``calls[0]``."""
    calls = [0]
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += len(args[arg])
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestBestResponse:
    def test_free_particles_stay_put(self):
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.0, scale=0.5)
        eta = constant_measure([[0.3, -0.2]], [1.0], T=1.0, N=32)
        br = best_response(prob, disk, c, eta)
        assert np.max(np.abs(br.trajectories[0].knots - [0.3, -0.2])) < 1e-8

    def test_constant_starts_need_no_lbfgs(self):
        # no warm trajectory: every start's first level is a Newton solve
        # from the constant trajectory
        dom, prob, coupling, eta = s4_game()
        br = best_response(prob, dom, coupling, eta, warm=None)
        assert len(br.trajectories) == 8
        assert np.array_equal(br.weights, eta.weights)
        for tr, x0 in zip(br.trajectories, eta.initial_measure().points):
            assert np.array_equal(tr.knots[0], x0)
            b = dom.eval(tr.knots, hess=False).b
            assert np.max(b) <= 1e-6 * dom.diameter

    def test_warm_epsilon_skips_the_weak_levels(self, monkeypatch):
        # a crowd pulled onto the unit circle: each start certifies at
        # eps = 1/8, four levels down from eps = 1
        disk = Ball([0.0, 0.0], 1.0)
        base = quadratic_problem(2, potential=[-6.0, 0.0],
                                 T=1.0, M=36.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.5, scale=0.5)
        eta = constant_measure([[0.3, 0.1], [0.5, -0.2]], [0.4, 0.6],
                               T=1.0, N=32)
        # one count per member of each level of the batched ladder
        solves = counted_members(monkeypatch, penalty, "_solve_level", 3)
        warm = {}
        br = best_response(base, disk, c, eta, warm=warm)
        first = solves[0]
        assert [eps for _, eps in warm.values()] == [0.125, 0.125]
        assert all(np.max(disk.eval(tr.knots, hess=False).b) > -1e-9
                   for tr in br.trajectories)  # both reach the boundary
        eta = damped(eta, br)
        forgetful = {key: (tr, 1.0) for key, (tr, _) in warm.items()}
        solves[0] = 0
        again = best_response(base, disk, c, eta, warm=warm)
        assert solves[0] == 2 < first
        # the same trajectories without their epsilon walk the whole ladder
        # and land on the same minimizers: the penalty is exact
        solves[0] = 0
        slow = best_response(base, disk, c, eta, warm=forgetful)
        assert solves[0] > 2
        for a, b in zip(again.trajectories, slow.trajectories):
            assert np.max(np.abs(a.knots - b.knots)) < 1e-8


def slices(eta, times):
    """eta's time slices, one measure per time."""
    return [DiscreteMeasure(X, eta.weights) for X in eta.positions_at(times)]


def residual_all_slices(eta, br, times):
    """``equilibrium_residual`` with one exact d1 per slice (the
    reference)."""
    return max(kantorovich_d1(ma, mb)
               for ma, mb in zip(slices(eta, times), slices(br, times)))


def lip_all_slices(eta, times):
    """``lip_flow`` with one exact d1 per pair of slices (the
    reference)."""
    ms = slices(eta, times)
    worst = 0.0
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        worst = max(worst, kantorovich_d1(ms[i], ms[i + 1]) / dt)
    return worst


def wandering_pair(rng, n_starts, n_particles, step, N=16):
    """A measure of random walks from n_starts starts (each used at least
    once) and one shaped like its best response: one random walk per start,
    carrying that start's full weight.  Large steps make particles cross,
    which leaves coupling by start far from optimal."""
    starts = rng.uniform(-0.5, 0.5, (n_starts, 2))

    def walk(x0):
        steps = np.cumsum(rng.normal(0.0, step, (N + 1, 2)), axis=0)
        return Trajectory(0.0, 1.0, x0 + (steps - steps[0]))

    which = np.concatenate([np.arange(n_starts),
                            rng.integers(0, n_starts, n_particles - n_starts)])
    w = rng.uniform(0.2, 1.0, n_particles)
    eta = TrajectoryMeasure([walk(starts[j]) for j in which], w / w.sum())
    m0 = eta.initial_measure()
    return eta, TrajectoryMeasure([walk(x0) for x0 in m0.points], m0.weights)


def slice_d1(eta, br, times):
    return np.array([kantorovich_d1(ma, mb)
                     for ma, mb in zip(slices(eta, times), slices(br, times))])


@pytest.fixture(scope="module")
def s4_iterate():
    """S4's second fixed-point iterate at N = 32 (16 particles) and its best
    response."""
    dom, prob, coupling, eta = s4_game()
    warm = {}
    eta = damped(eta, best_response(prob, dom, coupling, eta,
                                    warm=warm))
    return eta, best_response(prob, dom, coupling, eta, warm=warm)


class TestTransportBounds:
    TIMES = np.linspace(0.0, 1.0, 17)

    def test_residual_equals_all_slices_on_random_pairs(self, monkeypatch):
        rng = np.random.default_rng(8)
        evals = counted(monkeypatch, mfg, "kantorovich_d1")
        loose = skipped = 0
        for n_starts, n_particles in ((1, 1), (2, 5), (4, 4), (5, 12),
                                      (8, 20)):
            for step in (0.02, 0.3):
                eta, br = wandering_pair(rng, n_starts, n_particles, step)
                evals[0] = 0
                got = equilibrium_residual(eta, br, self.TIMES)
                skipped += self.TIMES.size - evals[0]
                assert got == residual_all_slices(eta, br, self.TIMES)
                bound = _coupling_cost(eta, br, eta.positions_at(self.TIMES),
                                       br.positions_at(self.TIMES))
                d1 = slice_d1(eta, br, self.TIMES)
                # an optimal plan costs at most the coupling, up to the
                # rounding of the LP's own sum
                assert np.all(bound >= d1 - 1e-12)
                loose += int(np.sum(bound > d1 + 1e-2))
        assert loose > 0 and skipped > 0

    def test_other_pairs_solve_every_slice(self, monkeypatch):
        # br with two particles per start is no best response: coupling by
        # start is not a transport plan, so no slice may be skipped
        rng = np.random.default_rng(9)
        eta, _ = wandering_pair(rng, 3, 6, 0.3)
        other, _ = wandering_pair(rng, 3, 6, 0.3)
        other = TrajectoryMeasure(
            [Trajectory(0.0, 1.0, o.knots - o.knots[0] + e.knots[0])
             for o, e in zip(other.trajectories, eta.trajectories)],
            eta.weights)
        assert np.all(np.isinf(_coupling_cost(
            eta, other, eta.positions_at(self.TIMES),
            other.positions_at(self.TIMES))))
        d1s = counted(monkeypatch, mfg, "kantorovich_d1")
        got = equilibrium_residual(eta, other, self.TIMES)
        assert d1s[0] == self.TIMES.size
        assert got == residual_all_slices(eta, other, self.TIMES)
        # one particle per start, but not with the start's full weight
        eta, br = wandering_pair(rng, 2, 4, 0.3)
        br.weights = br.weights[::-1].copy()
        assert not np.array_equal(br.weights, br.weights[::-1])
        pos_a, pos_b = (eta.positions_at(self.TIMES),
                        br.positions_at(self.TIMES))
        assert np.all(np.isinf(_coupling_cost(eta, br, pos_a, pos_b)))
        lps = counted(monkeypatch, mfg, "linprog")
        got = equilibrium_residual(eta, br, self.TIMES)
        assert lps[0] == self.TIMES.size
        assert got == residual_all_slices(eta, br, self.TIMES)

    def test_s4_iterate_skips_slices(self, s4_iterate, monkeypatch):
        eta, br = s4_iterate
        assert len(eta.trajectories) == 16
        bound = _coupling_cost(eta, br, eta.positions_at(self.TIMES),
                               br.positions_at(self.TIMES))
        assert np.all(bound >= slice_d1(eta, br, self.TIMES) - 1e-12)
        want = residual_all_slices(eta, br, self.TIMES)
        lip_times = np.linspace(0.0, 1.0, 9)
        want_lip = lip_all_slices(eta, lip_times)
        d1s = counted(monkeypatch, mfg, "kantorovich_d1")
        assert equilibrium_residual(eta, br, self.TIMES) == want
        assert d1s[0] < self.TIMES.size
        d1s[0] = 0
        assert lip_flow(eta, lip_times) == want_lip
        assert d1s[0] < 8

    def test_lip_flow_equals_all_slices(self):
        rng = np.random.default_rng(10)
        for n_particles, step in ((1, 0.1), (4, 0.02), (6, 0.3), (12, 0.3)):
            eta, _ = wandering_pair(rng, 3 if n_particles > 3 else 1,
                                    n_particles, step)
            times = np.sort(rng.uniform(0.0, 1.0, 9))
            assert lip_flow(eta, times) == lip_all_slices(eta, times)
            # the particle coupling bounds every step's d1
            speed = np.linalg.norm(np.diff(eta.positions_at(times), axis=0),
                                   axis=2) @ eta.weights
            ms = slices(eta, times)
            for i in range(times.size - 1):
                d1 = kantorovich_d1(ms[i], ms[i + 1])
                assert speed[i] >= d1 - 1e-12


class TestJointEquilibrium:
    """The potential of the crowd game on the stacked state of k agents."""

    W = np.array([0.2, 0.3, 0.5])

    def stacked(self, N):
        # three agents pulled toward the unit circle; some knots outside,
        # one on the boundary band
        rng = np.random.default_rng(11)
        X = rng.uniform(-1.1, 1.1, (N + 1, 3, 2))
        X[3, 1] /= np.linalg.norm(X[3, 1])
        base = quadratic_problem(2, potential=[-3.0, 0.0],
                                 T=1.0, M=9.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.5, scale=0.5, terminal_amp=0.3)
        return base, c, X

    def test_gradient_is_weighted_own_gradient(self):
        disk = Ball([0.0, 0.0], 1.0)
        N = 16
        base, c, X = self.stacked(N)
        eta = TrajectoryMeasure([Trajectory(0.0, 1.0, X[:, i].copy())
                                 for i in range(3)], self.W)
        single = coupled_problem(base, disk, c, eta)
        params = PenaltyParams(epsilon=0.5, delta=0.5)
        joint = PenaltyParams(epsilon=0.5, delta=0.5, weights=self.W)
        G = _cost_and_grad(potential_problem(base, c, self.W), disk, joint,
                           Trajectory(0.0, 1.0, X.reshape(N + 1, 6)))[1]
        G = G.reshape(N + 1, 3, 2)
        for i in range(3):
            own = _cost_and_grad(single, disk, params,
                                 Trajectory(0.0, 1.0, X[:, i]))[1]
            want = self.W[i] * own
            assert np.max(np.abs(G[:, i] - want)) <= 1e-12 * np.max(
                np.abs(want))

    def test_action_hessian_matches_finite_differences(self):
        # the cross-agent blocks -w_i w_j D2phi(x_i - x_j) included
        N = 8
        base, c, X = self.stacked(N)
        joint = potential_problem(base, c, self.W)
        gamma = Trajectory(0.0, 1.0, X.reshape(N + 1, 6))
        H = dense_tridiag(*_action_hessian(joint, gamma))
        assert np.max(np.abs(H - fd_action_hessian(joint, gamma))) < 1e-6

    def test_kkt_step_matches_dense_solve(self, monkeypatch):
        # the first step of a joint finish, whose start has points outside
        # and one on the boundary band, against the dense KKT system
        N = 16
        base, c, X = self.stacked(N)
        joint = potential_problem(base, c, self.W)
        disk = Ball([0.0, 0.0], 1.0)
        params = PenaltyParams(epsilon=0.5, delta=0.5, weights=self.W)
        calls = []

        def recording(D, U, g, Db, b, act):
            out = penalty_kkt(D, U, g, Db, b, act)
            calls.append(((D, U, g, Db, b, act), out))
            return out

        penalty_kkt = penalty._kkt_step
        monkeypatch.setattr(penalty, "_kkt_step", recording)
        traj = Trajectory(0.0, 1.0, X.reshape(1, N + 1, 6))
        cost, _, _ = _cost_and_grad(joint, disk, params, traj,
                                    need_grad=False)
        penalty._newton_finish(joint, disk, params, traj, cost)
        (D, U, g, Db, b, mask), (dx, mu) = calls[0]
        # the joint solve is a batch of one: its member's system
        D, U, g, Db, b, dx = D[0], U[0], g[0], Db[0], b[0], dx[0]
        act, mu = np.flatnonzero(mask[0]), mu[0][mask[0]]
        assert act.size > 0 and np.any(b > 1e-5 * disk.diameter)
        H = dense_tridiag(D, U)
        C = np.zeros((act.size, g.size))
        for row, p in enumerate(act):
            C[row, 2 * p:2 * p + 2] = Db[p]
        K = np.block([[H, C.T], [C, np.zeros((act.size, act.size))]])
        want = np.linalg.solve(K, np.concatenate([-g.ravel(), -b[act]]))
        assert np.linalg.norm(dx.ravel() - want[:g.size]) <= 1e-12 * (
            np.linalg.norm(want[:g.size]))
        assert np.linalg.norm(mu - want[g.size:]) <= 1e-12 * (
            np.linalg.norm(want[g.size:]))

    def test_s4_seed_certifies_in_two_rounds(self, monkeypatch):
        dom, prob, coupling, eta0 = s4_game()
        times = np.linspace(0.0, 1.0, 17)
        tol = 1e-3
        # best responses, and apart from them the joint solve's one member
        solves = counted_members(monkeypatch, mfg, "epsilon_schedule_batch",
                                 2)
        joints = counted(monkeypatch, mfg, "epsilon_schedule")
        lps = counted(monkeypatch, mfg, "linprog")
        eta, history = fixed_point(prob, dom, coupling, eta0, tol=tol)
        assert len(history) <= 2 and history[-1] <= tol
        assert solves[0] <= 16 and joints[0] == 1 and lps[0] <= 20
        # the damped iteration from the stay-put measure to the same tol
        warm = {}
        ref = eta0
        br = best_response(prob, dom, coupling, ref, warm=warm)
        while equilibrium_residual(ref, br, times) > tol:
            ref = damped(ref, br)
            br = best_response(prob, dom, coupling, ref, warm=warm)
        assert np.max(slice_d1(eta, br, times)) <= tol

    def test_rejected_seed_starts_from_eta0(self, monkeypatch, caplog):
        # a joint solve that does not move leaves the crowd's stay-put
        # start, which is not stationary: its ladder ends at the second
        # stall, and the loop starts from eta0
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.4, scale=0.5)
        eta0 = constant_measure([[0.05, 0.0], [-0.05, 0.05]], np.full(2, 0.5),
                                T=1.0, N=16)
        finish = penalty._newton_finish

        def stay(prob, dom, params, traj, cost):  # the joint solve only
            if params.weights.size == 1:
                return finish(prob, dom, params, traj, cost)
            return traj, np.zeros(len(traj.knots), int)

        monkeypatch.setattr(penalty, "_newton_finish", stay)
        with caplog.at_level(logging.INFO, logger="statecon"):
            _, history = fixed_point(prob, disk, c, eta0, tol=1e-3,
                                     n_times=5)
        lines = [r.getMessage() for r in caplog.records]
        assert lines[0].startswith(
            "epsilon ladder restart after MaxIterations: stationarity ")
        assert lines[1:3] == [
            "ladder round 0 (N=16): 1 solved, 0 certified, 0 feasible, "
            "1 restarted, 0 Newton steps",
            "ladder round 1 (N=16): 1 solved, 0 certified, 0 feasible, "
            "0 restarted, 0 Newton steps"]
        assert lines[3].startswith("mfg joint Newton: seed rejected "
                                   "(MaxIterations: stationarity stalled")
        assert lines[3].endswith("), starting from eta0")
        assert sum("seed" in line for line in lines) == 1
        first = best_response(prob, disk, c, eta0)
        assert history[0] == equilibrium_residual(eta0, first,
                                                  np.linspace(0, 1, 5))
        assert history[-1] <= 1e-3

    @staticmethod
    def pull_crowd(M):
        # the crowd of test_warm_epsilon_skips_the_weak_levels: pulled onto
        # the unit circle, each best response certifies at eps = 1/8
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, potential=[-6.0, 0.0],
                                 T=1.0, M=M, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.5, scale=0.5)
        eta0 = constant_measure([[0.3, 0.1], [0.5, -0.2]], [0.4, 0.6],
                                T=1.0, N=32)
        return disk, prob, c, eta0

    def test_infeasible_seed_is_rejected(self, monkeypatch, caplog):
        # declared M = 1, so the joint solve starts at eps = 1, where the
        # crowd's critical point certifies but lies outside the disk; with
        # no halving left in the joint solve's ladder it must not seed the
        # loop
        disk, prob, c, eta0 = self.pull_crowd(M=1.0)
        schedule = mfg.epsilon_schedule

        def one_level(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(penalty, "MAX_HALVINGS", 0)
                return schedule(*args, **kwargs)

        monkeypatch.setattr(mfg, "epsilon_schedule", one_level)
        with caplog.at_level(logging.INFO, logger="statecon"):
            with pytest.raises(ScheduleExhausted) as failed:
                mfg.joint_equilibrium(prob, disk, c, eta0)
        # certified (stationary), but a point lies 0.01 outside
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith("ladder round 0 (N=32): 1 solved, 1 certified, "
                               "0 feasible, 0 restarted, ")
        assert float(str(failed.value).split()[1]) > 0.01
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="statecon"):
            _, history = fixed_point(prob, disk, c, eta0, tol=1e-3)
        lines = [r.getMessage() for r in caplog.records
                 if "seed" in r.getMessage()]
        assert len(lines) == 1
        assert lines[0].startswith("mfg joint Newton: seed rejected "
                                   "(ScheduleExhausted: feasibility ")
        assert lines[0].endswith("), starting from eta0")
        assert len(history) > 2 and history[-1] <= 1e-3

    def test_halvings_reach_a_feasible_seed(self, monkeypatch, caplog):
        # the same crowd with the halvings: the seed lies in the disk and
        # the loop returns in two rounds
        disk, prob, c, eta0 = self.pull_crowd(M=1.0)
        levels = counted(monkeypatch, penalty, "_newton_finish")
        seed = mfg.joint_equilibrium(prob, disk, c, eta0)
        assert levels[0] > 1
        assert max(np.max(disk.eval(tr.knots, hess=False).b)
                   for tr in seed.trajectories) <= 1e-6 * disk.diameter
        with caplog.at_level(logging.INFO, logger="statecon"):
            _, history = fixed_point(prob, disk, c, eta0, tol=1e-3)
        assert [r.getMessage() for r in caplog.records
                if r.name == "statecon"][0] == "mfg joint Newton: seed used"
        assert len(history) <= 2 and history[-1] <= 1e-3

    def test_declared_force_bound_sets_the_first_epsilon(self, monkeypatch):
        # M = 36 bounds the pull of 6: eps = 1/36 is strong enough, and one
        # Newton solve gives the feasible seed
        disk, prob, c, eta0 = self.pull_crowd(M=36.0)
        levels = counted(monkeypatch, penalty, "_newton_finish")
        mfg.joint_equilibrium(prob, disk, c, eta0)
        assert levels[0] == 1

    def test_uncertified_level_resumes_at_half_epsilon(self, monkeypatch):
        # a level that stops uncertified (here: does not move from the
        # stay-put start) hands its point to the next level at half the
        # epsilon; the second such level from the same start gives up
        disk, prob, c, eta0 = self.pull_crowd(M=36.0)
        finish = penalty._newton_finish
        levels = []

        def stall_first(prob, dom, params, traj, cost):
            levels.extend(params.epsilon)
            if len(levels) == 1:
                return traj, np.zeros(len(traj.knots), int)
            return finish(prob, dom, params, traj, cost)

        monkeypatch.setattr(penalty, "_newton_finish", stall_first)
        mfg.joint_equilibrium(prob, disk, c, eta0)
        assert levels == [1 / 36, 1 / 72]

        def stall(prob, dom, params, traj, cost):
            levels.extend(params.epsilon)
            return traj, np.zeros(len(traj.knots), int)

        levels.clear()
        monkeypatch.setattr(penalty, "_newton_finish", stall)
        with pytest.raises(MaxIterations) as failed:
            mfg.joint_equilibrium(prob, disk, c, eta0)
        # no step taken, so no best point
        assert failed.value.best is None and levels == [1 / 36, 1 / 72]

    def test_large_crowd_skips_the_joint_solve(self, monkeypatch, caplog):
        # two starts in the plane at N = 16: blocks of (17, 4, 4) entries
        disk = Ball([0.0, 0.0], 1.0)
        prob = quadratic_problem(2, M=1.0, kappa=0.0)
        c = GaussianKernelCoupling(amp=0.4, scale=0.5)
        eta0 = constant_measure([[0.05, 0.0], [-0.05, 0.05]], np.full(2, 0.5),
                                T=1.0, N=16)
        monkeypatch.setattr(mfg, "JOINT_MAX_BLOCK_ENTRIES", 17 * 16 - 1)
        monkeypatch.setattr(mfg, "joint_equilibrium", None)
        with caplog.at_level(logging.INFO, logger="statecon"):
            _, history = fixed_point(prob, disk, c, eta0, tol=1e-3,
                                     n_times=5)
        lines = [r.getMessage() for r in caplog.records]
        assert lines[0] == ("mfg joint Newton skipped: stacked state of "
                            "dimension 4 at N=16, starting from eta0")
        assert history[-1] <= 1e-3
