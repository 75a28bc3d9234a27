"""Batched epsilon ladders: every member of a batch gets the floats of its
batch-of-one solve, whatever the other members are, and a member's
failure is its own."""

import logging
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from statecon import (NonFiniteCost, ScheduleExhausted, Trajectory,
                      constant_measure, delta_choice, epsilon_schedule_batch)
from statecon import penalty
from statecon.cli import (_node_grid, build_coupling, build_domain,
                          build_problem, load_config)
from statecon.mfg import coupled_problem, joint_equilibrium

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def scenario(name):
    cfg = load_config(str(SCENARIOS / f"{name}.json"))
    dom = build_domain(cfg)
    return cfg, dom, build_problem(cfg, dom)


def s2_slice():
    """The t = 0.5 slice of S2's value grid, every node from the constant
    trajectory: (problem, domain, starts, delta, N, inits)."""
    cfg, dom, prob = scenario("S2")
    vc = cfg["value"]
    _, points = _node_grid(dom, prob.horizon, vc["n_times"], vc["n_points"])
    inits = [Trajectory.constant(0.5, prob.horizon, x, vc["N"])
             for x in points]
    return prob, dom, points, delta_choice(prob, dom)[0], vc["N"], inits


def s4_round():
    """S4's first best-response round: every start against the flow of the
    joint seed, from the constant trajectory."""
    cfg, dom, prob = scenario("S4")
    mc = cfg["mfg"]
    N = mc["N"]
    coupling = build_coupling(mc)
    eta0 = constant_measure(mc["m0"]["points"], mc["m0"]["weights"],
                            prob.horizon, N=N)
    seed = joint_equilibrium(prob, dom, coupling, eta0)
    single = coupled_problem(prob, dom, coupling, seed)
    x0s = seed.initial_measure().points
    inits = [Trajectory.constant(0.0, prob.horizon, x, N) for x in x0s]
    return single, dom, x0s, delta_choice(single, dom)[0], N, inits


def s3_starts():
    """Eight starts in S3's ellipse at N = 32, from the constant trajectory:
    the ellipse projection iterates until each point has converged, and no
    point may take the steps of another."""
    _, dom, prob = scenario("S3")
    x0s = dom.sample_closure(np.random.default_rng(5), 8)
    inits = [Trajectory.constant(0.0, prob.horizon, x, 32) for x in x0s]
    return prob, dom, x0s, delta_choice(prob, dom)[0], 32, inits


def same_floats(a, b):
    (ga, pa), (gb, pb) = a, b
    return np.array_equal(ga.knots, gb.knots) and pa.epsilon == pb.epsilon


@pytest.mark.parametrize("case", [s2_slice, s4_round, s3_starts],
                         ids=["s2-slice", "s4-round", "s3-starts"])
def test_each_member_is_its_batch_of_one_solve(case):
    prob, dom, x0s, delta, N, inits = case()
    batch = epsilon_schedule_batch(prob, dom, x0s, delta, N=N, inits=inits)
    assert len(batch) == len(x0s) > 1
    for x0, init, res in zip(x0s, inits, batch):
        solo = epsilon_schedule_batch(prob, dom, [x0], delta, N=N,
                                      inits=[init])
        assert same_floats(res, solo[0])


def assert_unmoved(prob, dom, x0s, delta, N, inits, eps0s, extra):
    """Solve the batch, its reverse and the batch with the member ``extra``
    = (x0, init, eps0) inserted in the middle: every other member must get
    the same floats in all three.  Returns the extra member's result."""
    x0s, inits, eps0s = list(x0s), list(inits), list(eps0s)
    base = epsilon_schedule_batch(prob, dom, x0s, delta, N=N, inits=inits,
                                  eps0s=eps0s)
    flipped = epsilon_schedule_batch(prob, dom, x0s[::-1], delta, N=N,
                                     inits=inits[::-1], eps0s=eps0s[::-1])
    mid = len(x0s) // 2
    grown = epsilon_schedule_batch(
        prob, dom, x0s[:mid] + [extra[0]] + x0s[mid:], delta, N=N,
        inits=inits[:mid] + [extra[1]] + inits[mid:],
        eps0s=eps0s[:mid] + [extra[2]] + eps0s[mid:])
    result = grown.pop(mid)
    for a, b, c in zip(base, flipped[::-1], grown):
        assert same_floats(a, b) and same_floats(a, c)
    return result


def test_a_member_with_a_non_finite_start_fails_alone():
    # the running cost is infinite below y = -0.9, where no S2 arc of the
    # kept nodes goes; the extra member starts there
    prob, dom, x0s, delta, N, inits = s2_slice()
    f = prob.f

    def walled(t, x, v):
        return np.where(np.atleast_2d(x)[:, 1] < -0.9, np.inf, f(t, x, v))

    keep = x0s[:, 1] > -0.9
    x = np.array([0.0, -0.95])
    failure = assert_unmoved(
        replace(prob, f=walled), dom, x0s[keep], delta, N,
        [init for init, k in zip(inits, keep) if k], [1.0] * keep.sum(),
        (x, Trajectory.constant(0.5, 1.0, x, N), 1.0))
    assert isinstance(failure, NonFiniteCost)


def test_a_member_that_exhausts_its_ladder_fails_alone(
        monkeypatch, disk, pull_problem):
    # one level each: the certified members restart at their own epsilon,
    # while the extra one starts at eps = 1, whose minimizer leaves the disk
    delta, _ = delta_choice(pull_problem, disk)
    N = 32
    x0s = np.array([[0.0, 0.0], [0.3, 0.2], [-0.4, 0.1], [0.1, -0.5]])
    solved = epsilon_schedule_batch(
        pull_problem, disk, x0s, delta, N=N,
        inits=[Trajectory.constant(0.0, 1.0, x, N) for x in x0s])
    warm = [gamma for gamma, _ in solved]
    eps = [params.epsilon for _, params in solved]
    assert max(eps) < 1.0
    monkeypatch.setattr(penalty, "MAX_HALVINGS", 0)
    x = np.array([0.2, 0.0])
    failure = assert_unmoved(pull_problem, disk, x0s, delta, N, warm, eps,
                             (x, Trajectory.constant(0.0, 1.0, x, N), 1.0))
    assert isinstance(failure, ScheduleExhausted)


def test_one_info_line_per_ladder_round(caplog, disk, pull_problem):
    # the pull problem certifies below eps = 1, so the ladder takes rounds;
    # the per-member restart line stays on the ``statecon`` logger
    delta, _ = delta_choice(pull_problem, disk)
    x0s = np.array([[0.0, 0.0], [0.3, 0.2]])
    inits = [Trajectory.constant(0.0, 1.0, x, 32) for x in x0s]
    with caplog.at_level(logging.INFO, logger="statecon"):
        out = epsilon_schedule_batch(pull_problem, disk, x0s, delta, N=32,
                                     inits=inits)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "statecon.ladder"]
    pattern = re.compile(r"ladder round (\d+) \(N=32\): (\d+) solved, "
                         r"(\d+) certified, (\d+) feasible, (\d+) restarted, "
                         r"\d+ Newton steps")
    rounds = [tuple(map(int, pattern.fullmatch(ln).groups())) for ln in lines]
    assert [r[0] for r in rounds] == list(range(len(rounds))) and rounds
    assert rounds[0][1] == 2 and sum(r[3] for r in rounds) == 2
    last = max(params.epsilon for _, params in out)
    assert len(rounds) == 1 + round(np.log2(1.0 / last))
    assert not any(r.name == "statecon" for r in caplog.records)


def test_a_singular_member_gets_a_nan_step_alone():
    # member 0 has no curvature at all, member 1 a definite Hessian
    rng = np.random.default_rng(4)
    N, m = 16, 2
    A = rng.standard_normal((N, m, m))
    D = np.stack([np.zeros((N, m, m)),
                  A @ A.transpose(0, 2, 1) + 3.0 * np.eye(m)])
    U = np.stack([np.zeros((N - 1, m, m)),
                  0.3 * rng.standard_normal((N - 1, m, m))])
    g, Db = rng.standard_normal((2, 2, N, m))
    b, act = np.zeros((2, N)), np.zeros((2, N), dtype=bool)
    dx, mu = penalty._kkt_step(D, U, g, Db, b, act)
    assert np.all(np.isnan(dx[0])) and not np.any(mu[0])
    solo_dx, solo_mu = penalty._kkt_step(D[1:], U[1:], g[1:], Db[1:], b[1:],
                                         act[1:])
    assert np.all(np.isfinite(solo_dx))
    assert np.array_equal(dx[1:], solo_dx) and np.array_equal(mu[1:], solo_mu)
