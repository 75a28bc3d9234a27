"""Mean-field games over finitely supported trajectory measures.

A population is a weighted list of trajectories; its time-t marginal couples
back into each agent's running cost.  Equilibria are found by a damped
best-response iteration over the convex set of measures sharing the initial
marginal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .geometry import Domain
from .model import Problem
from .penalty import Trajectory, delta_choice, epsilon_schedule

log = logging.getLogger("statecon")


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
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if len(self.trajectories) != self.weights.size:
            raise ValueError("one weight per trajectory required")

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
        """Stacked particle positions, shape (len(t), k, n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack([tr.at(t) for tr in self.trajectories], axis=1)


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


def kantorovich_d1(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Exact 1-Wasserstein distance between discrete measures by LP on the
    transport polytope."""
    if abs(a.mass - b.mass) > 1e-9:
        raise UnbalancedMeasure(f"masses differ: {a.mass} vs {b.mass}")
    ka, kb = a.points.shape[0], b.points.shape[0]
    cost = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :],
                          axis=2).ravel()
    # row sums = a.weights, column sums = b.weights (the last column sum is
    # dropped: the constraints are linearly dependent)
    A_eq = np.vstack([np.kron(np.eye(ka), np.ones(kb)),
                      np.kron(np.ones(ka), np.eye(kb))[:kb - 1]])
    b_eq = np.concatenate([a.weights, b.weights[:kb - 1]])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq,
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
    a transport plan, so its cost bounds d1 from above; transport LPs are
    then solved in order of decreasing bound and stop once no bound left
    can beat the running maximum (``_max_by_bounds``).  The result equals
    the maximum over every slice.  Otherwise every LP is solved.
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
    monotone.  G is identically zero unless terminal_amp is set."""

    def __init__(self, amp: float = 1.0, scale: float = 0.5,
                 terminal_amp: float = 0.0):
        if amp < 0 or scale <= 0:
            raise ValueError("need amp >= 0 and scale > 0")
        self.amp = amp
        self.scale = scale
        self.terminal_amp = terminal_amp
        # Lipschitz constants in x and (through duality) in m
        self.kappa = ((amp + terminal_amp) * np.exp(-0.5) / scale)

    def _phi(self, D, amp):
        # D: (m, k, n) displacement stack
        r2 = np.sum(D * D, axis=2)
        return amp * np.exp(-0.5 * r2 / self.scale ** 2)

    def F(self, X, m: DiscreteMeasure):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        D = X[:, None, :] - m.points[None, :, :]
        return self._phi(D, self.amp) @ m.weights

    def DxF(self, X, m: DiscreteMeasure):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        D = X[:, None, :] - m.points[None, :, :]
        phi = self._phi(D, self.amp)
        return np.einsum("mk,mkn->mn", phi * m.weights,
                         -D / self.scale ** 2)

    def _hess(self, D, wphi):
        """sum_j wphi_j (D_j D_j^T / s^4 - I / s^2) for the displacement
        stack D (m, k, n) and weighted bump values wphi (m, k)."""
        s2 = self.scale ** 2
        H = np.einsum("mki,mkj->mij", D * wphi[:, :, None], D) / s2 ** 2
        H -= (wphi.sum(axis=1) / s2)[:, None, None] * np.eye(D.shape[2])
        return H

    def G(self, X, m: DiscreteMeasure):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.terminal_amp == 0.0:
            return np.zeros(X.shape[0])
        D = X[:, None, :] - m.points[None, :, :]
        return self._phi(D, self.terminal_amp) @ m.weights

    def DxG(self, X, m: DiscreteMeasure):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.terminal_amp == 0.0:
            return np.zeros_like(X)
        D = X[:, None, :] - m.points[None, :, :]
        phi = self._phi(D, self.terminal_amp)
        return np.einsum("mk,mkn->mn", phi * m.weights, -D / self.scale ** 2)

    def DxxG(self, X, m: DiscreteMeasure):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        D = X[:, None, :] - m.points[None, :, :]
        return self._hess(D, self._phi(D, self.terminal_amp) * m.weights)

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
    """Single-agent problem against the frozen population flow of eta."""
    T = prob.horizon
    cache: dict = {}

    def Y_at(t):
        # solver grids repeat the same few time vectors thousands of times
        key = t.tobytes()
        hit = cache.get(key)
        if hit is None:
            if len(cache) > 64:
                cache.clear()
            hit = cache[key] = eta.positions_at(np.clip(t, 0.0, T))
        return hit

    def F_many(t, X):
        D = X[:, None, :] - Y_at(t)
        return coupling._phi(D, coupling.amp) @ eta.weights

    def DxF_many(t, X):
        D = X[:, None, :] - Y_at(t)
        phi = coupling._phi(D, coupling.amp)
        return np.einsum("mk,mkn->mn", phi * eta.weights,
                         -D / coupling.scale ** 2)

    def DxxF_many(t, X):
        D = X[:, None, :] - Y_at(t)
        return coupling._hess(D, coupling._phi(D, coupling.amp) * eta.weights)

    def f(t, x, v):
        x2 = np.atleast_2d(x)
        t1 = np.broadcast_to(np.asarray(t, dtype=float), (x2.shape[0],))
        return prob.f(t, x, v) + F_many(t1, x2)

    def fx(t, x, v):
        x2 = np.atleast_2d(x)
        t1 = np.broadcast_to(np.asarray(t, dtype=float), (x2.shape[0],))
        return prob.fx(t, x, v) + DxF_many(t1, x2)

    def fxx(t, x, v):
        x2 = np.atleast_2d(x)
        t1 = np.broadcast_to(np.asarray(t, dtype=float), (x2.shape[0],))
        return prob.fxx(t, x, v) + DxxF_many(t1, x2)

    mT = evaluate_flow(eta, [T]).measures[0]

    def g(x):
        return prob.g(x) + coupling.G(np.atleast_2d(x), mT)

    def Dg(x):
        return prob.Dg(x) + coupling.DxG(np.atleast_2d(x), mT)

    def D2g(x):
        return prob.D2g(x) + coupling.DxxG(np.atleast_2d(x), mT)

    # constants inherited from the base problem plus the coupling's bounds;
    # the flow Lipschitz constant is bounded by transporting each particle
    # along itself, which avoids transport solves
    grid = np.linspace(0.0, T, 65)
    lipm = flow_speed_bound(eta, grid)
    M = prob.M + coupling.amp + coupling.terminal_amp + coupling.kappa
    kappa = prob.kappa + coupling.kappa * lipm
    return Problem(f=f, fx=fx, fv=prob.fv, fvv=prob.fvv, fvx=prob.fvx,
                   g=g, Dg=Dg, horizon=T, dim=prob.dim, mu=prob.mu,
                   M=M, kappa=kappa, family="coupled",
                   coefficients={"base": prob.family,
                                 "coupling": getattr(coupling, "to_config",
                                                     lambda: {})()},
                   fxx=fxx, D2g=D2g)


def best_response(prob: Problem, dom: Domain, coupling,
                  eta: TrajectoryMeasure, N: int = 64,
                  warm: dict | None = None) -> TrajectoryMeasure:
    """One constrained solve per distinct start against the frozen flow of
    eta; the optimal trajectory carries that start's full initial weight.

    Every solve runs the warm Newton path of ``minimize_penalized``, from
    the constant trajectory at the start unless ``warm`` holds an earlier
    result for it; L-BFGS-B runs only as that path's logged fallback.
    ``warm`` maps each start, as a tuple rounded to 12 decimals, to the
    (trajectory, epsilon) of a certified solve.  The epsilon schedule then starts at that epsilon: the
    penalty is exact, so the minimizer is the same at every level below the
    threshold and the weaker levels need not be walked again.  Each new
    result is written back into ``warm``.
    """
    single = coupled_problem(prob, dom, coupling, eta)
    m0 = eta.initial_measure()
    delta, _ = delta_choice(single, dom)
    warm = {} if warm is None else warm
    trajs = []
    for x0 in m0.points:
        key = _start_key(x0)
        init, eps0 = warm.get(key) or (
            Trajectory.constant(0.0, prob.horizon, x0, N), 1.0)
        gamma, params = epsilon_schedule(single, dom, x0, delta, N=N,
                                         init=init, eps0=eps0)
        warm[key] = (gamma, params.epsilon)
        trajs.append(gamma)
    return TrajectoryMeasure(trajs, m0.weights)


def _prune(eta: TrajectoryMeasure, tol: float = 1e-8) -> TrajectoryMeasure:
    """Merge particles whose trajectories coincide to within tol in sup norm."""
    kept: list = []
    weights: list = []
    for tr, w in zip(eta.trajectories, eta.weights):
        for i, other in enumerate(kept):
            if (tr.knots.shape == other.knots.shape
                    and np.max(np.abs(tr.knots - other.knots)) < tol):
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
    """``equilibrium_residual`` and the number of transport LPs it solved."""
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
    from its own start is a transport plan, so its cost bounds each slice's
    d1 without an LP.  The exact LPs are solved in order of decreasing
    bound, stopping once no bound left can beat the running maximum; the
    result is the same float as the maximum over every slice.  For any other
    pair every slice's LP is solved.
    """
    return _residual(eta, br, times)[0]


def fixed_point(prob: Problem, dom: Domain, coupling,
                eta0: TrajectoryMeasure, alpha: float = 0.5,
                tol: float = 1e-3, max_iter: int = 50, N: int = 64,
                n_times: int = 17):
    """Damped best-response iteration on the convex set of measures with the
    given initial marginal; stops at flow residual <= tol.

    Logs one INFO line per iteration on the ``statecon`` logger: the
    residual, the support size of the iterate and the transport LPs solved
    out of the time slices."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    times = np.linspace(0.0, prob.horizon, n_times)
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
