from pathlib import Path

import numpy as np
import pytest

from statecon import (Ball, Ellipse, Hamiltonian, LinearPotential,
                      NegativeMultiplier, Trajectory, check_assumptions,
                      check_extremal, compute_value, contact_mask,
                      delta_choice, dpp_check, epsilon_schedule,
                      feedback_lambda, feedback_lambda_many,
                      hamiltonian_drift, make_extremal,
                      measure_hamiltonian_constants,
                      multiplier_from_residual, quadratic_problem,
                      recover_adjoint, shoot, value, velocity_bound)
from statecon.cli import _node_grid, build_domain, build_problem, load_config
from statecon.pmp import grid_derivative, junction_clear_mask

from conftest import drifting_problem, s1_exact


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


TSTAR = np.sqrt(2.0 / 3.0)


def exact_pull(N=64):
    """Closed-form accelerate/land/rest arc sampled on a uniform grid."""
    prob = quadratic_problem(2, potential=LinearPotential([-3.0, 0.0]),
                             T=1.0, M=9.0, kappa=0.0)
    disk = Ball([0.0, 0.0], 1.0)
    t = np.linspace(0.0, 1.0, N + 1)
    return prob, disk, Trajectory(0.0, 1.0, s1_exact(t))


def lambda_oracle(ham, dom, t, x, p, h=1e-4):
    """Feedback multiplier by simulation: the value of lam for which the
    second time derivative of b along the flow

        xdot = -DpH,  pdot = DxH - lam Db

    vanishes.  The second derivative is linear in lam, so two probes and a
    secant step give the root; b is differentiated by central differences
    along short RK4 orbits, which advance t with the state."""
    def rhs(lam, s, y):
        d = ham.derivs_many(s, y[None, :2], y[None, 2:])
        xd = -d.DpH[0]
        pd = d.DxH[0] - lam * dom.grad_many(y[None, :2])[0]
        return np.concatenate([xd, pd])

    def second_diff(lam):
        bs = {}
        for sgn in (1.0, -1.0):
            y = np.concatenate([x, p])
            step = sgn * h
            k1 = rhs(lam, t, y)
            k2 = rhs(lam, t + 0.5 * step, y + 0.5 * step * k1)
            k3 = rhs(lam, t + 0.5 * step, y + 0.5 * step * k2)
            k4 = rhs(lam, t + step, y + step * k3)
            y = y + step * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            bs[sgn] = float(dom.b_many(y[None, :2])[0])
        b0 = float(dom.b_many(x[None])[0])
        return (bs[1.0] - 2.0 * b0 + bs[-1.0]) / h ** 2

    phi0 = second_diff(0.0)
    phi1 = second_diff(1.0)
    return -phi0 / (phi1 - phi0)


class TestGridDerivative:
    def test_exact_on_quadratics(self):
        t = np.linspace(0.0, 1.0, 33)
        Y = np.stack([1.0 + 2.0 * t - 3.0 * t ** 2, t ** 2], axis=1)
        D = grid_derivative(Y, t[1] - t[0])
        want = np.stack([2.0 - 6.0 * t, 2.0 * t], axis=1)
        assert np.max(np.abs(D - want)) < 1e-12

    def test_second_order_on_smooth_data(self):
        errs = []
        for N in (32, 64, 128):
            t = np.linspace(0.0, 1.0, N + 1)
            Y = np.sin(2.0 * t)[:, None]
            D = grid_derivative(Y, t[1] - t[0])
            errs.append(np.max(np.abs(D[:, 0] - 2.0 * np.cos(2.0 * t))))
        order = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(order > 1.9)

    def test_mask_blocks_junction_stencils(self):
        # kinked data: derivative stencils must not straddle the mask change
        t = np.linspace(0.0, 1.0, 17)
        Y = np.abs(t - 0.5)[:, None]
        mask = t >= 0.5
        D = grid_derivative(Y, t[1] - t[0], mask)
        assert np.max(np.abs(D[t < 0.5, 0] + 1.0)) < 1e-12
        assert np.max(np.abs(D[t > 0.5, 0] - 1.0)) < 1e-12


class TestJunctionMask:
    def test_clears_band_around_transitions(self):
        mask = np.array([0, 0, 0, 1, 1, 1, 1, 1, 0, 0], dtype=bool)
        keep = junction_clear_mask(mask)
        # transitions at 2->3 and 7->8 each knock out two knots on both sides
        assert list(np.flatnonzero(~keep)) == [1, 2, 3, 4, 6, 7, 8, 9]

    def test_constant_mask_keeps_everything(self):
        assert junction_clear_mask(np.zeros(12, dtype=bool)).all()
        assert junction_clear_mask(np.ones(12, dtype=bool)).all()


class TestAdjointRecovery:
    def test_costate_is_negative_momentum(self):
        prob, disk, gamma = exact_pull(256)
        p = recover_adjoint(prob, gamma, disk)
        t = gamma.times
        want = np.stack([np.where(t < TSTAR, 3.0 * t - np.sqrt(6.0), 0.0),
                         np.zeros_like(t)], axis=1)
        keep = junction_clear_mask(contact_mask(disk, gamma))
        assert np.max(np.abs(p[keep] - want[keep])) < 1e-8

    def test_multiplier_is_normal_pull(self):
        prob, disk, gamma = exact_pull(256)
        p = recover_adjoint(prob, gamma, disk)
        lam, nu, orth = multiplier_from_residual(prob, disk, gamma, p)
        mask = contact_mask(disk, gamma)
        sel = mask & junction_clear_mask(mask)
        # resting against the pull of strength 3 needs exactly that much
        # normal force
        assert np.max(np.abs(lam[sel] - 3.0)) < 1e-8
        assert np.max(orth[sel]) < 1e-8
        assert np.all(lam[~mask] == 0.0)

    def test_wrong_side_rest_is_rejected(self):
        # resting on the far side of the disk, away from the pull, would need
        # a negative normal force
        prob, disk, _ = exact_pull()
        t = np.linspace(0.0, 1.0, 65)
        knots = np.tile([-1.0, 0.0], (65, 1))
        gamma = Trajectory(0.0, 1.0, knots)
        p = recover_adjoint(prob, gamma, disk)
        with pytest.raises(NegativeMultiplier):
            multiplier_from_residual(prob, disk, gamma, p)

    def test_hamiltonian_constant_along_extremal(self):
        prob, disk, gamma = exact_pull(256)
        p = recover_adjoint(prob, gamma, disk)
        r = hamiltonian_drift(prob, disk, gamma, p)
        keep = junction_clear_mask(contact_mask(disk, gamma))
        # H = |p|^2/2 + 3 x_1 equals 3 on both phases
        assert np.max(np.abs(r[keep] - 3.0)) < 1e-8


class TestFeedbackLambda:
    def test_rest_contact_value(self):
        prob, disk, _ = exact_pull()
        ham = Hamiltonian(prob)
        lam = feedback_lambda(ham, disk, 0.9, np.array([1.0, 0.0]),
                              np.zeros(2))
        assert lam == pytest.approx(3.0, abs=1e-12)

    def test_matches_simulation_oracle_on_ellipse(self):
        dom = Ellipse([0.0, 0.0], [2.0, 1.0])
        prob = quadratic_problem(2, potential=LinearPotential([-1.5, -3.0]),
                                 T=1.0, M=12.0, kappa=0.0)
        ham = Hamiltonian(prob)
        rng = np.random.default_rng(8)
        for _ in range(6):
            ang = rng.uniform(0.1, np.pi / 2 - 0.1)
            x = np.array([2.0 * np.cos(ang), np.sin(ang)])
            p = rng.uniform(-1.0, 1.0, 2)
            got = feedback_lambda(ham, dom, 0.3, x, p)
            want = lambda_oracle(ham, dom, 0.3, x, p)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-6)

    def test_time_mixed_term_matches_oracle(self):
        # the drift c(t) makes DptH = c'(t) nonzero, so the <Db, DptH> term
        # of the formula counts
        dom = Ellipse([0.0, 0.0], [2.0, 1.0])
        prob, _ = drifting_problem()
        ham = Hamiltonian(prob)
        rng = np.random.default_rng(9)
        for _ in range(6):
            t = rng.uniform(0.0, 1.0)
            ang = rng.uniform(0.1, np.pi / 2 - 0.1)
            x = np.array([2.0 * np.cos(ang), np.sin(ang)])
            p = rng.uniform(-1.0, 1.0, 2)
            got = feedback_lambda(ham, dom, t, x, p)
            want = lambda_oracle(ham, dom, t, x, p)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-6)


class TestShooting:
    def test_free_arc_round_trip(self):
        prob, disk, gamma = exact_pull(512)
        ham = Hamiltonian(prob)
        p0 = np.array([-np.sqrt(6.0), 0.0])
        traj, P = shoot(ham, disk, np.zeros(2), p0, T=1.0, N=512)
        assert np.max(np.abs(traj.knots - gamma.knots)) < 1e-5
        p_exact = recover_adjoint(prob, gamma, disk)
        free = gamma.times < TSTAR - 2 * gamma.dt
        assert np.max(np.abs(P[free] - p_exact[free])) < 1e-4
        # on the rest arc the costate vanishes up to the contact resolution
        assert np.max(np.abs(P[gamma.times > TSTAR + 2 * gamma.dt])) < 1e-2

    def test_feedback_off_misses_rest_arc(self):
        # without the boundary force the orbit cannot stay at the rest point
        prob, disk, gamma = exact_pull(512)
        ham = Hamiltonian(prob)
        p0 = np.array([-np.sqrt(6.0), 0.0])
        traj, _ = shoot(ham, disk, np.zeros(2), p0, T=1.0, N=512,
                        feedback_on=False)
        assert np.max(np.abs(traj.knots - gamma.knots)) > 1e-2


@pytest.fixture(scope="module")
def pull_extremal():
    disk = Ball([0.0, 0.0], 1.0)
    prob = quadratic_problem(2, potential=LinearPotential([-3.0, 0.0]),
                             T=1.0, M=9.0, kappa=0.0)
    delta, _ = delta_choice(prob, disk)
    gamma, params = epsilon_schedule(prob, disk, np.zeros(2), delta, N=64)
    return prob, disk, make_extremal(prob, disk, gamma, params=params)


class TestCheckExtremal:
    def test_solved_problem_passes(self, pull_extremal):
        prob, disk, ex = pull_extremal
        rep = check_extremal(prob, disk, ex)
        assert rep.all_passed, rep.checks

    def test_residual_scales(self, pull_extremal):
        prob, disk, ex = pull_extremal
        rep = check_extremal(prob, disk, ex)
        assert rep.residuals["adjoint_ode"] < 1e-9
        assert rep.residuals["transversality"] < 1e-9

    def test_velocity_bound_covers_peak_speed(self, pull_extremal):
        prob, disk, ex = pull_extremal
        vmax = float(np.max(np.linalg.norm(ex.gamma.velocities, axis=1)))
        # forward differences miss the t = 0 peak by O(dt)
        assert vmax == pytest.approx(np.sqrt(6.0), abs=2.0 * ex.gamma.dt)
        assert ex.Lstar > vmax

    def test_multiplier_matches_feedback_on_contact(self, pull_extremal):
        prob, disk, ex = pull_extremal
        ham = Hamiltonian(prob)
        mask = contact_mask(disk, ex.gamma)
        sel = mask & junction_clear_mask(mask)
        Lam = feedback_lambda_many(ham, disk, ex.gamma.times[sel],
                                   ex.gamma.knots[sel], ex.p[sel])
        assert np.max(np.abs(Lam - ex.lam[sel])) < 1e-6


class TestDeterministicConstants:
    def test_s3_certificate_draws_no_random_numbers(self, monkeypatch):
        # K, C and L* are suprema over the tube grid, so the S3 chain from
        # delta to the PMP report runs with no random generator
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        cfg = load_config(str(SCENARIOS / "S3.json"))
        dom = build_domain(cfg)
        prob = build_problem(cfg, dom)
        delta, _ = delta_choice(prob, dom)
        gamma, params = epsilon_schedule(prob, dom, np.asarray(cfg["x0"]),
                                         delta, N=64)
        ex = make_extremal(prob, dom, gamma, params=params)
        rep = check_extremal(prob, dom, ex)
        assert rep.all_passed, rep.checks

    def test_bounds_repeat_exactly(self, ellipse):
        prob = quadratic_problem(2, potential=LinearPotential([-1.5, -3.0]),
                                 T=1.0, M=12.0, kappa=0.0)

        def bounds():
            rep = check_assumptions(prob, ellipse)
            _, C = measure_hamiltonian_constants(prob, ellipse)
            return rep.K, velocity_bound(prob, rep, C, 0.5)

        assert bounds() == bounds()

    def test_each_constant_has_one_source(self, monkeypatch):
        # a value grid hands its delta to its DPP check, which measures none
        calls = []

        def counted(prob, dom):
            calls.append(1)
            return delta_choice(prob, dom)

        monkeypatch.setattr(value, "delta_choice", counted)
        cfg = load_config(str(SCENARIOS / "S2.json"))
        dom = build_domain(cfg)
        prob = build_problem(cfg, dom)
        times, points = _node_grid(dom, prob.horizon, 5, 5)
        vg = compute_value(prob, dom, times, points, N=32)
        dpp_check(prob, dom, vg, samples=5, N=32)
        assert len(calls) == 1
        assert vg.delta == delta_choice(prob, dom)[0]
        # the extremal's K and L* are the assumption report's and the
        # Hamiltonian constants', to the last bit
        cfg = load_config(str(SCENARIOS / "S3.json"))
        dom = build_domain(cfg)
        prob = build_problem(cfg, dom)
        delta, _ = delta_choice(prob, dom)
        gamma, params = epsilon_schedule(prob, dom, np.asarray(cfg["x0"]),
                                         delta, N=64)
        ex = make_extremal(prob, dom, gamma, params=params)
        rep = check_assumptions(prob, dom)
        _, C = measure_hamiltonian_constants(prob, dom)
        assert ex.K == rep.K and ex.C == C
        assert ex.Lstar == velocity_bound(prob, rep, C, delta)
