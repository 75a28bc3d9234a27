"""Mean-field games over finitely supported trajectory measures.

A population is a weighted list of trajectories; its time-t marginal couples
back into each agent's running cost.  Equilibria are found by a damped
best-response iteration over the convex set of measures sharing the initial
marginal, started from a critical point of the game's potential.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import Domain
from .model import Problem, delta_choice
from .penalty import (MaxIterations, NonFiniteCost, ScheduleExhausted,
                      Trajectory, _block_diag, epsilon_schedule,
                      epsilon_schedule_batch)

log = logging.getLogger("statecon")

# The joint solve's Hessian couples every pair of agents, so its (k n)-blocks
# are dense: it runs only while one (N + 1, k n, k n) array of them holds at
# most this many entries (1 MB), e.g. k <= 22 starts in the plane at N = 64.
# Its peak memory is about 25 such arrays.
JOINT_MAX_BLOCK_ENTRIES = 2 ** 17


class UnbalancedMeasure(ValueError):
    pass


class NoConvergence(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass
class DiscreteMeasure:
    points: np.ndarray    # (k, n)
    weights: np.ndarray   # (k,)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size != self.points.shape[0]:
            raise ValueError("one weight per point required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))


def _start_key(x0) -> tuple:
    """Starts that agree to 12 decimals are one start."""
    return tuple(np.round(x0, 12))


@dataclass
class TrajectoryMeasure:
    trajectories: list            # of Trajectory
    weights: np.ndarray           # (k,), sums to 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if len(self.trajectories) != self.weights.size:
            raise ValueError("one weight per trajectory required")
        # every particle on one grid: one trajectory with knots
        # (x_1, ..., x_k), interpolated once per call of positions_at (the
        # measure is not changed after construction)
        first = self.trajectories[0]
        if any((tr.t0, tr.t1, tr.knots.shape)
               != (first.t0, first.t1, first.knots.shape)
               for tr in self.trajectories):
            raise ValueError("the trajectories of a measure share one grid")
        self._stacked = Trajectory(first.t0, first.t1, np.hstack(
            [tr.knots for tr in self.trajectories]))

    def initial_measure(self) -> DiscreteMeasure:
        """Time-zero marginal with aggregated weights per distinct start."""
        keys = {}
        pts, wts = [], []
        for tr, w in zip(self.trajectories, self.weights):
            s = tr.knots[0]
            k = _start_key(s)
            if k in keys:
                wts[keys[k]] += w
            else:
                keys[k] = len(pts)
                pts.append(s)
                wts.append(w)
        return DiscreteMeasure(np.array(pts), np.array(wts))

    def positions_at(self, t) -> np.ndarray:
        """Stacked particle positions, shape (len(t), k, n): one
        interpolation of the stacked knots (the same floats as
        ``Trajectory.at``)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self._stacked.at(t).reshape(t.size, len(self.trajectories), -1)


@dataclass
class MeasureFlow:
    times: np.ndarray
    measures: list  # of DiscreteMeasure


def constant_measure(points, weights, T: float, N: int = 64) -> TrajectoryMeasure:
    """The stay-put measure: every atom rides a constant trajectory."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    trajs = [Trajectory.constant(0.0, T, x, N) for x in points]
    return TrajectoryMeasure(trajs, np.asarray(weights, dtype=float))


def evaluate_flow(eta: TrajectoryMeasure, times) -> MeasureFlow:
    times = np.asarray(times, dtype=float)
    pos = eta.positions_at(times)
    measures = [DiscreteMeasure(pos[i], eta.weights) for i in range(times.size)]
    return MeasureFlow(times=times, measures=measures)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported when a plan does not certify."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def kantorovich_d1(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Exact 1-Wasserstein distance between discrete measures.

    With equal weight arrays, the plan x_i -> y_i is optimal, and its cost
    is returned, iff it is c-cyclically monotone (Villani, Optimal
    Transport: Old and New, Thm 5.10): iff A_ij = c(x_i, y_j) - c(x_i, y_i)
    has no negative cycle, which Floyd-Warshall decides.  Otherwise d1 is
    the LP on the transport polytope."""
    if abs(a.mass - b.mass) > 1e-9:
        raise UnbalancedMeasure(f"masses differ: {a.mass} vs {b.mass}")
    ka, kb = a.points.shape[0], b.points.shape[0]
    cost = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    if np.array_equal(a.weights, b.weights):
        plan = np.diagonal(cost)
        paths = cost - plan[:, None]
        for p in range(ka):
            paths = np.minimum(paths, paths[:, p, None] + paths[p])
        if np.min(np.diagonal(paths)) >= 0.0:
            return float(plan @ a.weights)
    # row sums = a.weights, column sums = b.weights (the last column sum is
    # dropped: the constraints are linearly dependent)
    A_eq = np.vstack([np.kron(np.eye(ka), np.ones(kb)),
                      np.kron(np.ones(ka), np.eye(kb))[:kb - 1]])
    b_eq = np.concatenate([a.weights, b.weights[:kb - 1]])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _particle_speeds(pos: np.ndarray, weights: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """Per step between slices, the mean particle speed: moving each
    particle along itself is a transport plan, so this bounds
    d1(m_i, m_{i+1}) / (t_{i+1} - t_i).  pos is (len(times), k, n)."""
    step = np.linalg.norm(np.diff(pos, axis=0), axis=2) @ weights
    return step / np.diff(times)


def _max_by_bounds(bounds: np.ndarray, value) -> tuple[float, int]:
    """max_i value(i), given upper bounds value(i) <= bounds[i].

    Evaluates value in order of decreasing bound and stops once the next
    bound is <= the running maximum: no value left can exceed it, so the
    result is the same float as the maximum over every index.  Returns the
    maximum and the number of evaluations.
    """
    worst, solved = -np.inf, 0
    for i in np.argsort(-bounds, kind="stable"):
        if solved and bounds[i] <= worst:
            break
        worst = max(worst, value(i))
        solved += 1
    return worst, solved


def lip_flow(flow: MeasureFlow) -> float:
    """max_i d1(m_i, m_{i+1}) / (t_{i+1} - t_i) over consecutive slices.

    When every slice carries the same weights in the same particle order
    (as ``evaluate_flow`` builds them), moving each particle along itself is
    a transport plan whose cost bounds d1; the exact d1 are evaluated in
    order of decreasing bound until no bound left can beat the running
    maximum (``_max_by_bounds``), so the result equals the maximum over
    every slice.  Otherwise every slice's d1 is evaluated.
    """
    if flow.times.size < 2:
        raise ValueError("need at least 2 time slices")
    dt = np.diff(flow.times)
    w = flow.measures[0].weights
    if all(np.array_equal(m.weights, w) for m in flow.measures):
        bounds = _particle_speeds(np.stack([m.points for m in flow.measures]),
                                  w, flow.times)
    else:
        bounds = np.full(dt.size, np.inf)
    worst, _ = _max_by_bounds(bounds, lambda i: kantorovich_d1(
        flow.measures[i], flow.measures[i + 1]) / dt[i])
    return max(0.0, worst)


# ---------------------------------------------------------------------------
# couplings


class GaussianKernelCoupling:
    """Crowd-aversion coupling F(x, m) = sum_j w_j phi(x - y_j) with a
    Gaussian bump phi; the kernel is positive definite, so the coupling is
    monotone.  The terminal coupling G(x, m), the same sum with amplitude
    terminal_amp, is identically zero unless terminal_amp is set."""

    def __init__(self, amp: float = 1.0, scale: float = 0.5,
                 terminal_amp: float = 0.0):
        if not (0 <= amp < np.inf and 0 < scale < np.inf
                and np.isfinite(terminal_amp)):
            raise ValueError("need finite amp >= 0, scale > 0 and "
                             "terminal_amp")
        self.amp = amp
        self.scale = scale
        self.terminal_amp = terminal_amp
        # Lipschitz constants in x and (through duality) in m
        self.kappa = ((amp + terminal_amp) * np.exp(-0.5) / scale)

    def _bump(self, D, w, amp, order):
        """Up to ``order``, from one evaluation of the bump
        phi(d) = amp exp(-|d|^2 / 2 s^2) over the displacement stack
        D (m, k, n): the list of sum_j w_j phi(D_j), its gradient
        -sum_j w_j phi(D_j) D_j / s^2 and its Hessian
        sum_j w_j phi(D_j) (D_j D_j^T / s^4 - I / s^2)."""
        s2 = self.scale ** 2
        phi = amp * np.exp(-0.5 * np.sum(D * D, axis=2) / s2)
        # one sum per row, whatever the number of rows
        out, wphi = [np.einsum("mk,k->m", phi, w)], phi * w
        if order >= 1:
            out.append(np.einsum("mk,mkn->mn", wphi, -D / s2))
        if order >= 2:
            H = np.einsum("mki,mkj->mij", D * wphi[:, :, None], D) / s2 ** 2
            H -= (wphi.sum(axis=1) / s2)[:, None, None] * np.eye(D.shape[2])
            out.append(H)
        return out

    def _at(self, X, m: DiscreteMeasure, amp, order):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._bump(X[:, None, :] - m.points[None, :, :], m.weights,
                          amp, order)[order]

    def F(self, X, m: DiscreteMeasure):
        return self._at(X, m, self.amp, 0)

    def to_config(self):
        return {"type": "gaussian-bump", "amp": self.amp,
                "scale": self.scale, "terminal_amp": self.terminal_amp}

    @staticmethod
    def from_config(cfg: dict) -> "GaussianKernelCoupling":
        return GaussianKernelCoupling(amp=float(cfg.get("amp", 1.0)),
                                      scale=float(cfg.get("scale", 0.5)),
                                      terminal_amp=float(
                                          cfg.get("terminal_amp", 0.0)))


def flow_speed_bound(eta: TrajectoryMeasure, times) -> float:
    """Upper bound on the flow's d1 Lipschitz constant via the particle
    coupling: the average particle displacement dominates the transport cost."""
    times = np.asarray(times, dtype=float)
    return float(np.max(_particle_speeds(eta.positions_at(times),
                                         eta.weights, times)))


def coupled_problem(prob: Problem, dom: Domain, coupling,
                    eta: TrajectoryMeasure) -> Problem:
    """Single-agent problem against the frozen population flow of eta: the
    coupling against the population at time t is its state-only running
    cost V."""
    T = prob.horizon

    def V(t, x, order):
        D = x[:, None, :] - eta.positions_at(np.clip(t, 0.0, T))
        return coupling._bump(D, eta.weights, coupling.amp, order)

    mT = evaluate_flow(eta, [T]).measures[0]

    def at_end(base, order):
        return lambda x: base(x) + coupling._at(x, mT, coupling.terminal_amp,
                                                order)

    # constants inherited from the base problem plus the coupling's bounds;
    # the flow Lipschitz constant is bounded by transporting each particle
    # along itself, which avoids transport solves
    grid = np.linspace(0.0, T, 65)
    lipm = flow_speed_bound(eta, grid)
    M = prob.M + coupling.amp + coupling.terminal_amp + coupling.kappa
    kappa = prob.kappa + coupling.kappa * lipm
    return Problem(f=prob.f, fx=prob.fx, fv=prob.fv, fvv=prob.fvv,
                   fvx=prob.fvx, g=at_end(prob.g, 0), Dg=at_end(prob.Dg, 1),
                   horizon=T, dim=prob.dim, mu=prob.mu, M=M, kappa=kappa,
                   fxx=prob.fxx, D2g=at_end(prob.D2g, 2), V=V)


def best_response(prob: Problem, dom: Domain, coupling,
                  eta: TrajectoryMeasure, N: int = 64,
                  warm: dict | None = None) -> TrajectoryMeasure:
    """One batched solve from every distinct start against the frozen flow
    of eta; each optimal trajectory carries its start's initial weight.
    Each solve starts from the constant trajectory (no init), or from
    ``warm[key]``, the (trajectory, epsilon) of an earlier certified solve
    from the start rounded to ``key``, at that epsilon (the penalty is
    exact).  Results go back into ``warm`` up to the first failed start,
    whose exception is raised."""
    single = coupled_problem(prob, dom, coupling, eta)
    m0 = eta.initial_measure()
    delta, _ = delta_choice(single, dom)
    warm = {} if warm is None else warm
    keys = [_start_key(x0) for x0 in m0.points]
    inits, eps0s = zip(*(warm.get(key) or (None, 1.0) for key in keys))
    trajs = []
    for key, res in zip(keys, epsilon_schedule_batch(
            single, dom, m0.points, delta, N=N, inits=inits, eps0s=eps0s)):
        if isinstance(res, Exception):
            raise res
        warm[key] = (res[0], res[1].epsilon)
        trajs.append(res[0])
    return TrajectoryMeasure(trajs, m0.weights)


def potential_problem(prob: Problem, coupling, weights) -> Problem:
    """The potential of the game as one problem on the stacked state
    X = (x_1, ..., x_k) of k agents with weights w:

        f(t, X, U) = sum_i w_i f(t, x_i, u_i) + V(X),
        V(X) = 1/2 sum_ij w_i w_j phi(x_i - x_j),
        g(X) = sum_i w_i g(x_i) + 1/2 sum_ij w_i w_j phi_T(x_i - x_j),

    U = (u_1, ..., u_k) the stacked velocity, phi and phi_T the coupling's
    running and terminal bumps, V the problem's state-only running cost.
    The kernels are even, so agent i's block of the gradient is w_i times
    its own first-order condition against the flow of all k agents, and
    the block (i, j) of the state Hessian gains -w_i w_j D2phi(x_i - x_j)
    (Benamou, Carlier & Santambrogio, "Variational Mean Field Games",
    2017).
    """
    w = np.asarray(weights, dtype=float)
    k, n = w.size, prob.dim
    diag = np.arange(k)

    def agents(fn, t, X, V):
        # fn on each agent's own batch, times its weight: (m, k, ...)
        X = np.atleast_2d(X)
        m = X.shape[0]
        t = np.repeat(np.broadcast_to(np.asarray(t, dtype=float), (m,)), k)
        out = fn(t, X.reshape(m * k, n), np.atleast_2d(V).reshape(m * k, n))
        out = out.reshape(m, k, *out.shape[1:])
        return out * w.reshape((1, k) + (1,) * (out.ndim - 2))

    def pair_terms(X, amp, order):
        # up to order: 1/2 sum_ij w_i w_j phi(x_i - x_j), its gradient
        # (m, k n) and its Hessian (m, k n, k n), from the bump per pair
        Xs = np.atleast_2d(X).reshape(-1, k, n)
        D = (Xs[:, :, None] - Xs[:, None]).reshape(-1, 1, n)
        out = []
        for j, P in enumerate(coupling._bump(D, np.ones(1), amp, order)):
            P = (P.reshape(-1, k, k, *P.shape[1:])
                 * np.outer(w, w).reshape((k, k) + (1,) * j))
            if j == 0:
                out.append(0.5 * P.sum(axis=(1, 2)))
            elif j == 1:
                out.append(P.sum(axis=2).reshape(-1, k * n))
            else:
                H = -P.transpose(0, 1, 3, 2, 4)
                H[:, diag, :, diag, :] += P.sum(axis=2).transpose(1, 0, 2, 3)
                out.append(H.reshape(-1, k * n, k * n))
        return out

    def joint(fn, order):
        # fn's value (order 0), gradient or Hessian in the stacked state
        def out(t, X, V):
            A = agents(fn, t, X, V)
            return (A.sum(axis=1) if order == 0 else A.reshape(-1, k * n)
                    if order == 1 else _block_diag(A))
        return out

    def terminal(fn, order):
        cost = joint(lambda t, x, v: fn(x), order)
        return lambda X: cost(0.0, X, X) + pair_terms(
            X, coupling.terminal_amp, order)[order]

    return Problem(f=joint(prob.f, 0), fx=joint(prob.fx, 1),
                   fv=joint(prob.fv, 1), fvv=joint(prob.fvv, 2),
                   fvx=joint(prob.fvx, 2), g=terminal(prob.g, 0),
                   Dg=terminal(prob.Dg, 1), horizon=prob.horizon, dim=k * n,
                   mu=prob.mu, M=prob.M, kappa=prob.kappa,
                   fxx=joint(prob.fxx, 2), D2g=terminal(prob.D2g, 2),
                   V=lambda t, X, order: pair_terms(X, coupling.amp, order))


def joint_equilibrium(prob: Problem, dom: Domain, coupling,
                      eta0: TrajectoryMeasure, N: int = 64):
    """A constrained critical point of the game's potential with one
    trajectory per distinct start of eta0: certified, and in the domain to
    the tolerance of ``epsilon_schedule``.

    ``epsilon_schedule`` solves ``potential_problem`` for one member, with
    knots (x_1, ..., x_k), penalty weights w_i per agent and the delta
    ``best_response`` uses against eta0.  It starts from the weighted mean
    of eta0's trajectories from each start (the stay-put trajectory for a
    stay-put eta0) at epsilon = 1 / max(1, M): the penalty's pull back then
    matches the declared bound M on the running cost's state gradient, the
    force that drives a crowd out.  Returns the measure, or raises the
    ladder's MaxIterations, NonFiniteCost or ScheduleExhausted.
    """
    m0 = eta0.initial_measure()
    k, n, T = m0.weights.size, dom.dim, prob.horizon
    keys = [_start_key(x) for x in m0.points]
    own = np.array([keys.index(_start_key(tr.knots[0]))
                    for tr in eta0.trajectories])
    share = np.zeros((k, own.size))
    share[own, np.arange(own.size)] = eta0.weights / m0.weights[own]
    X = np.einsum("kp,tpn->tkn", share,
                  eta0.positions_at(np.linspace(0.0, T, N + 1)))
    X[0] = m0.points
    delta, _ = delta_choice(coupled_problem(prob, dom, coupling, eta0), dom)
    traj, _ = epsilon_schedule(
        potential_problem(prob, coupling, m0.weights), dom, X[0].ravel(),
        delta, N=N, init=Trajectory(0.0, T, X.reshape(N + 1, k * n)),
        eps0=1.0 / max(1.0, prob.M), weights=m0.weights)
    X = traj.knots.reshape(N + 1, k, n)
    return TrajectoryMeasure([Trajectory(0.0, T, X[:, j].copy())
                              for j in range(k)], m0.weights)


def _prune(eta: TrajectoryMeasure) -> TrajectoryMeasure:
    """Merge particles whose trajectories agree to 1e-8 in sup norm."""
    kept: list = []
    weights: list = []
    for tr, w in zip(eta.trajectories, eta.weights):
        for i, other in enumerate(kept):
            if np.max(np.abs(tr.knots - other.knots)) < 1e-8:
                weights[i] += w
                break
        else:
            kept.append(tr)
            weights.append(w)
    return TrajectoryMeasure(kept, np.array(weights))


def _coupling_cost(eta: TrajectoryMeasure, br: TrajectoryMeasure,
                   pos_a: np.ndarray, pos_b: np.ndarray) -> np.ndarray:
    """Per slice, the cost of moving each particle of eta onto br's particle
    from the same start: an upper bound on d1 when br carries one particle
    per start of eta with that start's full weight (as ``best_response``
    returns it), and inf on every slice otherwise."""
    index = {_start_key(tr.knots[0]): i
             for i, tr in enumerate(br.trajectories)}
    own = [index.get(_start_key(tr.knots[0])) for tr in eta.trajectories]
    if len(index) == len(br.trajectories) and None not in own:
        own = np.array(own)
        mass = np.bincount(own, eta.weights, minlength=len(index))
        if np.array_equal(mass, br.weights):
            return np.linalg.norm(pos_a - pos_b[:, own], axis=2) @ eta.weights
    return np.full(pos_a.shape[0], np.inf)


def _residual(eta: TrajectoryMeasure, br: TrajectoryMeasure,
              times) -> tuple[float, int]:
    """``equilibrium_residual`` and the number of exact d1 it evaluated."""
    times = np.asarray(times, dtype=float)
    pos_a, pos_b = eta.positions_at(times), br.positions_at(times)
    return _max_by_bounds(
        _coupling_cost(eta, br, pos_a, pos_b),
        lambda i: kantorovich_d1(DiscreteMeasure(pos_a[i], eta.weights),
                                 DiscreteMeasure(pos_b[i], br.weights)))


def equilibrium_residual(eta: TrajectoryMeasure, br: TrajectoryMeasure,
                         times) -> float:
    """max over the time slices of d1(eta_t, br_t).

    When br is a best response to eta (one particle per start, carrying the
    start's weight), coupling each particle of eta with the best response
    from its own start is a transport plan whose cost bounds each slice's
    d1.  The exact d1 (``kantorovich_d1``) are evaluated in order of
    decreasing bound, stopping once no bound left can beat the running
    maximum; the result is the same float as the maximum over every slice.
    For any other pair every slice's d1 is evaluated.
    """
    return _residual(eta, br, times)[0]


def fixed_point(prob: Problem, dom: Domain, coupling,
                eta0: TrajectoryMeasure, alpha: float = 0.5,
                tol: float = 1e-3, max_iter: int = 50, N: int = 64,
                n_times: int = 17):
    """Damped best-response iteration on the convex set of measures with the
    given initial marginal; stops at flow residual <= tol.

    The iteration starts from the critical point of the game's potential
    that ``joint_equilibrium`` finds from eta0, and from eta0 if its ladder
    fails; a crowd whose joint Hessian blocks exceed
    ``JOINT_MAX_BLOCK_ENTRIES`` skips the joint solve.  Either way iteration
    0 is a best-response round from the constant trajectories against the
    starting measure, whose residual certifies it; with a certified
    critical point that is an equilibrium, the loop returns after one more
    round.  ``alpha`` and ``max_iter`` damp and cap the rounds as without
    the joint solve.

    Logs on the ``statecon`` logger one INFO line for the joint solve
    (whether its result seeds the loop, with the ladder's failure if not,
    or that it was skipped; its Newton steps are in the ladder's round
    lines on ``statecon.ladder``) and one per iteration: the residual, the
    support size of the iterate and the exact d1 ("transport LPs")
    evaluated out of the time slices."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    tr = eta0.trajectories[0]  # every particle of eta0 is on its grid
    if (tr.t0, tr.t1, tr.N) != (0.0, prob.horizon, N):
        raise ValueError(f"eta0 is not on the solves' grid: N={N} on [0, T]")
    times = np.linspace(0.0, prob.horizon, n_times)
    size = eta0.initial_measure().weights.size * dom.dim
    if (N + 1) * size ** 2 > JOINT_MAX_BLOCK_ENTRIES:
        log.info("mfg joint Newton skipped: stacked state of dimension %d "
                 "at N=%d, starting from eta0", size, N)
        eta = eta0
    else:
        try:
            eta = joint_equilibrium(prob, dom, coupling, eta0, N=N)
            log.info("mfg joint Newton: seed used")
        except (MaxIterations, NonFiniteCost, ScheduleExhausted) as exc:
            log.info("mfg joint Newton: seed rejected (%s: %s), starting "
                     "from eta0", type(exc).__name__, exc)
            eta = eta0
    history = []
    warm: dict = {}
    polished = False
    for it in range(max_iter):
        br = best_response(prob, dom, coupling, eta, N=N, warm=warm)
        res, lps = _residual(eta, br, times)
        log.info("mfg iteration %d: residual %.3e, support %d, "
                 "%d of %d transport LPs", it, res, len(eta.trajectories),
                 lps, n_times)
        history.append(res)
        if res <= tol:
            if polished:
                return eta, history
            # final undamped step: the mixture iterate still carries stale
            # particles with small weight but large cost gaps, so hand back
            # a measure whose every particle is a certified best response
            eta = br
            polished = True
            continue
        polished = False
        merged = TrajectoryMeasure(
            list(eta.trajectories) + list(br.trajectories),
            np.concatenate([(1.0 - alpha) * eta.weights,
                            alpha * br.weights]))
        eta = _prune(merged)
    raise NoConvergence(f"residual {history[-1]:.3e} > {tol:g} after "
                        f"{max_iter} iterations", history)


def mild_solution(prob: Problem, dom: Domain, coupling,
                  eta_eq: TrajectoryMeasure, times, points, N: int = 32):
    """Value function against the equilibrium flow plus the flow itself."""
    from .value import compute_value

    single = coupled_problem(prob, dom, coupling, eta_eq)
    flow = evaluate_flow(eta_eq, times)
    vg = compute_value(single, dom, times, points, N=N)
    return vg, flow
