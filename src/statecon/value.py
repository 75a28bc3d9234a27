"""Value function of the constrained problem on a space-time grid.

Each node (t_i, x_j) is solved independently by the penalty pipeline on the
sub-horizon [t_i, T]; the terminal slice is the terminal cost itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain
from .model import Problem
from .penalty import (NonFiniteCost, ScheduleExhausted, Trajectory,
                      delta_choice, epsilon_schedule)


@dataclass
class ValueGrid:
    times: np.ndarray                 # (nt,), uniform, ends at T
    points: np.ndarray                # (np, n), all in the closed domain
    values: np.ndarray                # (nt, np); NaN marks a failed node
    trajectories: dict = field(default_factory=dict)   # (i, j) -> Trajectory
    epsilons: dict = field(default_factory=dict)       # (i, j) -> certified eps
    failures: list = field(default_factory=list)       # (i, j, message)


def _resample(traj: Trajectory, t0: float, t1: float, N: int) -> Trajectory:
    ts = np.linspace(t0, t1, N + 1)
    knots = traj.at(np.clip(ts, traj.t0, traj.t1))
    return Trajectory(t0, t1, knots)


def compute_value(prob: Problem, dom: Domain, times, points,
                  N: int = 32) -> ValueGrid:
    """Per-node constrained solves, warm-started along the time axis: the
    solution at t_{i+1} seeds the longer solve at t_i, whose epsilon
    schedule starts at the epsilon that solution certified at (the penalty
    is exact, so the weaker levels need not be walked again)."""
    times = np.asarray(times, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    T = prob.horizon
    if abs(times[-1] - T) > 1e-12:
        raise ValueError("time grid must end at the horizon")
    b = dom.b_many(points)
    if np.any(b > dom.boundary_tol):
        raise ValueError("value grid points must lie in the closed domain")

    nt, npt = times.size, points.shape[0]
    values = np.full((nt, npt), np.nan)
    vg = ValueGrid(times=times, points=points, values=values)
    values[-1] = prob.g(points)

    delta, _ = delta_choice(prob, dom)
    for j in range(npt):
        warm, eps0 = None, 1.0
        for i in range(nt - 2, -1, -1):
            t0 = times[i]
            init = (Trajectory.constant(t0, T, points[j], N) if warm is None
                    else _resample(warm, t0, T, N))
            init = Trajectory(t0, T, np.vstack([points[j], init.knots[1:]]))
            try:
                gamma, params = epsilon_schedule(prob, dom, points[j], delta,
                                                 N=N, init=init, eps0=eps0)
            except (ScheduleExhausted, NonFiniteCost) as exc:
                # the solver's own failures: record and move on; the grid
                # stays usable.  Anything else is a bug and propagates.
                vg.failures.append((i, j, repr(exc)))
                warm, eps0 = None, 1.0
                continue
            values[i, j] = running_cost(prob, gamma) + float(
                prob.g(gamma.knots[-1:]).item())
            vg.trajectories[(i, j)] = gamma
            vg.epsilons[(i, j)] = eps0 = params.epsilon
            warm = gamma
    return vg


def running_cost(prob: Problem, gamma: Trajectory, upto: int | None = None) -> float:
    """Trapezoid integral of f along the arc, optionally up to a knot index."""
    m = gamma.N if upto is None else upto
    if m == 0:
        return 0.0
    t = gamma.times
    V = gamma.velocities[:m]
    xl, xr = gamma.knots[:m], gamma.knots[1:m + 1]
    fl = prob.f(t[:m], xl, V)
    fr = prob.f(t[1:m + 1], xr, V)
    return float(0.5 * gamma.dt * np.sum(fl + fr))


def lipschitz_report(vg: ValueGrid):
    """Measured discrete Lipschitz constants (Lx, Lt) of the grid values."""
    if vg.times.size < 2 or vg.points.shape[0] < 2:
        raise ValueError("need at least 2 times and 2 points")
    P = vg.points
    dx = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
    iu = np.triu_indices(P.shape[0], k=1)
    Lx = 0.0
    for i in range(vg.times.size):
        du = np.abs(vg.values[i][:, None] - vg.values[i][None, :])
        ratios = du[iu] / dx[iu]
        ratios = ratios[np.isfinite(ratios)]
        if ratios.size:
            Lx = max(Lx, float(np.max(ratios)))
    dt = np.diff(vg.times)
    dv = np.abs(np.diff(vg.values, axis=0)) / dt[:, None]
    dv = dv[np.isfinite(dv)]
    Lt = float(np.max(dv)) if dv.size else 0.0
    return Lx, Lt


def dpp_check(prob: Problem, dom: Domain, vg: ValueGrid, samples: int = 10,
              rng: np.random.Generator | None = None, N: int = 32) -> float:
    """Worst gap in the two-stage decomposition of the value along computed
    optimal arcs: cost to an intermediate time plus a fresh solve from there
    should reproduce the node value.  Each tail solve starts from the node's
    arc and at the epsilon the node certified at."""
    rng = rng or np.random.default_rng(5)
    keys = [k for k in vg.trajectories if np.isfinite(vg.values[k])]
    if not keys:
        return 0.0
    delta, _ = delta_choice(prob, dom)
    worst = 0.0
    picks = rng.choice(len(keys), size=min(samples, len(keys)), replace=False)
    for idx in picks:
        i, j = keys[idx]
        gamma = vg.trajectories[(i, j)]
        m = gamma.N // 2
        t_mid = gamma.times[m]
        x_mid = gamma.knots[m]
        if dom.signed_distance(x_mid) > 0.0:
            x_mid = dom.project_many(x_mid[None])[0]
        head = running_cost(prob, gamma, upto=m)
        init = Trajectory(t_mid, prob.horizon,
                          np.vstack([x_mid, _resample(
                              gamma, t_mid, prob.horizon, N).knots[1:]]))
        tail_traj, _ = epsilon_schedule(prob, dom, x_mid, delta, N=N,
                                        init=init,
                                        eps0=vg.epsilons.get((i, j), 1.0))
        tail = running_cost(prob, tail_traj) + float(
            prob.g(tail_traj.knots[-1:]).item())
        worst = max(worst, abs(vg.values[i, j] - (head + tail)))
    return worst
