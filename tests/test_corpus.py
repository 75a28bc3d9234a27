"""A seeded slice of the convex problem corpus.

On a convex domain with a convex action the discrete penalized cost is
convex (b and max(b, 0) are convex, the action is 1/2 v^T A v plus linear
terms), so the certified minimizer is unique: a cold solve and a warm solve
from a perturbed copy must agree.  The cases are drawn in order from one
seeded generator and none is skipped.
"""

import numpy as np
import pytest

from statecon import (Ball, Ellipse, LinearPotential, LinearTerminal,
                      MaxIterations, SmoothedBox, Trajectory, delta_choice,
                      epsilon_schedule, feasibility_gap,
                      multiplier_from_residual, quadratic_problem,
                      recover_adjoint)
from statecon import penalty

# per-case times on 2 shared vCPUs, every level a Newton finish: corpus B's
# cases 91 and 29 (below) 1.5 and 0.9 s, case 4 0.35 s, every other case
# below 0.25 s
CASES = 8


def draw_case(rng, pull=(0.5, 8.0), terminal=(0.0, 3.0), grids=(16, 32)):
    """One case: a ball, ellipse or smoothed box at the origin; A = L L^T +
    0.3 I with L standard normal; a linear pull N(0, I) U(pull) and a linear
    terminal cost N(0, I) U(terminal); T in [0.5, 2]; x0 in the domain."""
    kind = int(rng.integers(3))
    if kind == 0:
        dom = Ball([0.0, 0.0], rng.uniform(0.5, 2.0))
    elif kind == 1:
        dom = Ellipse([0.0, 0.0], [rng.uniform(1.0, 3.0),
                                   rng.uniform(0.4, 1.0)])
    else:
        half = rng.uniform(0.5, 1.5, 2)
        dom = SmoothedBox([0.0, 0.0], half, rng.uniform(0.2, 1.0) * half.min())
    L = rng.standard_normal((2, 2))
    b = rng.standard_normal(2) * rng.uniform(*pull)
    c = rng.standard_normal(2) * rng.uniform(*terminal)
    prob = quadratic_problem(2, A=L @ L.T + 0.3 * np.eye(2),
                             potential=LinearPotential(b),
                             terminal=LinearTerminal(c),
                             T=rng.uniform(0.5, 2.0),
                             M=float(np.linalg.norm(b)), kappa=0.0)
    N = int(rng.choice(grids))
    return dom, prob, dom.sample_closure(rng, 1)[0], N


_rng = np.random.default_rng(1)
SLICE = [draw_case(_rng) for _ in range(CASES)]
# corpus B: stronger pulls and terminal costs on finer grids, drawn in
# order; cases 29 (ball, N = 256) and 91 (ball, N = 512) have a knot that
# a step stops just inside the kink band, which stalls every level from the
# constant start unless it joins the boundary; the epsilons they certify at
_rng = np.random.default_rng(2)
CORPUS_B = [draw_case(_rng, pull=(5, 40), terminal=(0, 10),
                      grids=(16, 64, 256, 512)) for _ in range(92)]
BLOCKED = {29: 0.0625, 91: 0.015625}


@pytest.fixture
def stalls(monkeypatch):
    """The epsilons of the stages of the penalty solver that raise
    MaxIterations, in call order: one per member of a level of the batched
    epsilon ladder that stalls.  No case stalls: case 6 (a smoothed box,
    N = 32), whose first step at eps = 0.25 finds no decrease from the
    eps = 0.5 minimizer, certifies by the Newton finish's blocking rule."""
    found = []
    solve = penalty._solve_level

    def recorded(prob, dom, params, x0s, inits):
        out, steps = solve(prob, dom, params, x0s, inits)
        eps = np.broadcast_to(params.epsilon, (len(inits),))
        found.extend(float(e) for e, res in zip(eps, out)
                     if isinstance(res, MaxIterations))
        return out, steps

    monkeypatch.setattr(penalty, "_solve_level", recorded)
    return found


@pytest.mark.parametrize("case", range(CASES))
def test_corpus_case(case, stalls):
    dom, prob, x0, N = SLICE[case]
    delta, _ = delta_choice(prob, dom)
    gamma, params = epsilon_schedule(prob, dom, x0, delta, N=N)
    assert feasibility_gap(dom, gamma) <= 1e-6 * dom.diameter

    # the minimizer is unique: a warm schedule from a perturbed copy, at the
    # certified epsilon, lands on it again
    rng = np.random.default_rng(100 + case)
    knots = gamma.knots.copy()
    knots[1:] += 0.05 * dom.diameter * rng.standard_normal(knots[1:].shape)
    warm, warm_params = epsilon_schedule(
        prob, dom, x0, delta, N=N, init=Trajectory(0.0, prob.horizon, knots),
        eps0=params.epsilon)
    assert warm_params.epsilon == params.epsilon
    assert np.max(np.abs(warm.knots - gamma.knots)) < 1e-8

    # lambda >= 0 away from junctions (NegativeMultiplier otherwise)
    p = recover_adjoint(prob, gamma, dom)
    multiplier_from_residual(prob, dom, gamma, p)
    assert stalls == []


@pytest.mark.parametrize("case", sorted(BLOCKED))
def test_blocking_knot_case(case, stalls):
    dom, prob, x0, N = CORPUS_B[case]
    delta, _ = delta_choice(prob, dom)
    gamma, params = epsilon_schedule(prob, dom, x0, delta, N=N)
    assert feasibility_gap(dom, gamma) <= 1e-6 * dom.diameter
    assert params.epsilon == BLOCKED[case]
    assert stalls == []
