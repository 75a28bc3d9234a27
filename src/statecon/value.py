"""Value function of the constrained problem on a space-time grid.

Each node (t_i, x_j) is solved by the penalty pipeline on the sub-horizon
[t_i, T], the nodes of one time slice as one batch; the terminal slice is
the terminal cost itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain
from .model import Problem, delta_choice
from .penalty import Trajectory, epsilon_schedule_batch, running_cost


@dataclass
class ValueGrid:
    times: np.ndarray                 # (nt,), uniform, ends at T
    points: np.ndarray                # (np, n), all in the closed domain
    values: np.ndarray                # (nt, np); NaN marks a failed node
    delta: float                      # terminal weight of every node's solve
    trajectories: dict = field(default_factory=dict)   # (i, j) -> Trajectory
    epsilons: dict = field(default_factory=dict)       # (i, j) -> certified eps
    failures: list = field(default_factory=list)       # (i, j, message)


def _resample(traj: Trajectory, t0: float, t1: float, N: int) -> Trajectory:
    ts = np.linspace(t0, t1, N + 1)
    knots = traj.at(np.clip(ts, traj.t0, traj.t1))
    return Trajectory(t0, t1, knots)


def compute_value(prob: Problem, dom: Domain, times, points,
                  N: int = 32) -> ValueGrid:
    """Constrained solves at every node, each time slice's nodes as one
    ``epsilon_schedule_batch``, warm-started along the time axis: the
    solution at (t_{i+1}, x_j) seeds the solve at (t_i, x_j), starting at
    the epsilon it certified at (the penalty is exact).  A failed node is
    recorded in ``failures``; its point's next solve starts afresh."""
    times = np.asarray(times, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    T = prob.horizon
    if abs(times[-1] - T) > 1e-12:
        raise ValueError("time grid must end at the horizon")
    if np.any(dom.eval(points, hess=False).b > dom.boundary_tol):
        raise ValueError("value grid points must lie in the closed domain")

    nt, npt = times.size, points.shape[0]
    values = np.full((nt, npt), np.nan)
    delta, _ = delta_choice(prob, dom)
    vg = ValueGrid(times=times, points=points, values=values, delta=delta)
    values[-1] = prob.g(points)

    warm, eps0 = [None] * npt, [1.0] * npt
    for i in range(nt - 2, -1, -1):
        t0 = times[i]
        inits = [Trajectory.constant(t0, T, x, N) if w is None
                 else _resample(w, t0, T, N) for x, w in zip(points, warm)]
        solved = []
        for j, res in enumerate(epsilon_schedule_batch(
                prob, dom, points, delta, N=N, inits=inits, eps0s=eps0)):
            # the solver's own failures (NonFiniteCost, MaxIterations,
            # ScheduleExhausted) come back per node; anything else is a bug
            # and propagates
            if isinstance(res, Exception):
                vg.failures.append((i, j, repr(res)))
                warm[j], eps0[j] = None, 1.0
                continue
            warm[j], params = res
            vg.trajectories[(i, j)] = warm[j]
            vg.epsilons[(i, j)] = eps0[j] = params.epsilon
            solved.append(j)
        if solved:  # the slice's running costs as one batch
            arcs = np.stack([warm[j].knots for j in solved])
            values[i, solved] = running_cost(
                prob, Trajectory(t0, T, arcs)) + prob.g(arcs[:, -1])
    return vg


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
    arc at the node's epsilon and the grid's delta; the tails from one time
    are one batch."""
    rng = rng or np.random.default_rng(5)
    keys = [k for k in vg.trajectories if np.isfinite(vg.values[k])]
    if not keys:
        return 0.0
    picks = rng.choice(len(keys), size=min(samples, len(keys)), replace=False)
    tails: dict = {}  # start time -> [(node, x_mid, head, init)]
    for idx in picks:
        gamma = vg.trajectories[keys[idx]]
        m = gamma.N // 2
        t_mid, x_mid = gamma.times[m], gamma.knots[m]
        e = dom.eval(x_mid, hess=False)
        if e.b[0] > 0.0:
            x_mid = e.P[0]
        tails.setdefault(t_mid, []).append(
            (keys[idx], x_mid, running_cost(prob, gamma, upto=m),
             _resample(gamma, t_mid, prob.horizon, N)))
    worst = 0.0
    for group in tails.values():
        nodes, x_mids, heads, inits = zip(*group)
        results = epsilon_schedule_batch(
            prob, dom, x_mids, vg.delta, N=N, inits=inits,
            eps0s=[vg.epsilons.get(node, 1.0) for node in nodes])
        for node, head, res in zip(nodes, heads, results):
            if isinstance(res, Exception):
                raise res
            tail = running_cost(prob, res[0]) + float(
                prob.g(res[0].knots[-1:]).item())
            worst = max(worst, abs(vg.values[node] - (head + tail)))
    return worst
