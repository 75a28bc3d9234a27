"""Penalized transcription of the constrained problem and its schedules.

The hard constraint gamma(t) in the closure of Omega is replaced by the cost
terms (1/eps) d(gamma) along the arc and (1/delta) d(gamma(T)) at the end.
Trajectories are piecewise linear on a uniform grid; the integral is a
trapezoid rule using the per-interval velocity at both interval ends.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import minimize as _scipy_minimize
from scipy.sparse.linalg import spsolve

from .geometry import BoundaryEval, Domain
from .model import Problem

FEASIBILITY_TOL_FACTOR = 1e-6

log = logging.getLogger("statecon")


class MaxIterations(RuntimeError):
    pass


class NonFiniteCost(RuntimeError):
    pass


class ScheduleExhausted(RuntimeError):
    pass


class Runaway(RuntimeError):
    """Iterates left the tube by a full diameter: the penalty is too weak to
    balance the running cost, so the current epsilon is unusable."""


@dataclass
class Trajectory:
    """Uniform-grid sampling of an arc on [t0, t1]; velocities are forward
    differences, so there are N intervals for N+1 knots."""

    t0: float
    t1: float
    knots: np.ndarray  # (N+1, n)

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        if self.knots.ndim != 2 or self.knots.shape[0] < 9:
            raise ValueError("need at least 9 knots (N >= 8)")
        if not np.all(np.isfinite(self.knots)):
            raise ValueError("knots must be finite")
        if not self.t1 > self.t0:
            raise ValueError("need t1 > t0")

    @property
    def N(self) -> int:
        return self.knots.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.knots.shape[1]

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.N + 1)

    @property
    def velocities(self) -> np.ndarray:
        return np.diff(self.knots, axis=0) / self.dt

    def at(self, t) -> np.ndarray:
        """Piecewise-linear interpolation, batched over t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.clip((t - self.t0) / self.dt, 0.0, self.N)
        i = np.minimum(s.astype(int), self.N - 1)
        w = (s - i)[:, None]
        return (1.0 - w) * self.knots[i] + w * self.knots[i + 1]

    def energy(self) -> float:
        """Discrete kinetic integral of |gamma'|^2 (piecewise constant)."""
        v = self.velocities
        return float(np.sum(np.sum(v * v, axis=1)) * self.dt)

    def refine(self) -> "Trajectory":
        """Double N by inserting segment midpoints."""
        mids = 0.5 * (self.knots[:-1] + self.knots[1:])
        knots = np.empty((2 * self.N + 1, self.dim))
        knots[0::2] = self.knots
        knots[1::2] = mids
        return Trajectory(self.t0, self.t1, knots)

    @staticmethod
    def constant(t0: float, t1: float, x0, N: int) -> "Trajectory":
        x0 = np.asarray(x0, dtype=float)
        return Trajectory(t0, t1, np.tile(x0, (N + 1, 1)))


@dataclass
class PenaltyParams:
    epsilon: float
    delta: float
    rho: float
    N: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.N < 8:
            raise ValueError("N must be >= 8")


def _trapezoid_weights(N: int, dt: float) -> np.ndarray:
    w = np.full(N + 1, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def penalized_cost(prob: Problem, dom: Domain, params: PenaltyParams,
                   gamma: Trajectory) -> float:
    return _cost_and_grad(prob, dom, params, gamma, need_grad=False)[0]


def _action_grad(prob: Problem, gamma: Trajectory) -> np.ndarray:
    """Gradient of the discrete action (running plus terminal cost, no
    distance penalties) with respect to all knots."""
    X = gamma.knots
    N, n = gamma.N, gamma.dim
    dt = gamma.dt
    tk = gamma.times
    V = gamma.velocities
    tl, tr = tk[:-1], tk[1:]
    xl, xr = X[:-1], X[1:]
    G = np.zeros((N + 1, n))
    # state dependence of the running cost
    G[:-1] += 0.5 * dt * prob.fx(tl, xl, V)
    G[1:] += 0.5 * dt * prob.fx(tr, xr, V)
    # velocity dependence: v_i = (x_{i+1} - x_i)/dt couples both interval ends
    fvsum = 0.5 * (prob.fv(tl, xl, V) + prob.fv(tr, xr, V))
    G[1:] += fvsum
    G[:-1] -= fvsum
    G[-1] += prob.Dg(X[-1:])[0]
    return G


def _action_hessian(prob: Problem, gamma: Trajectory,
                    curv: np.ndarray | None = None) -> sparse.csr_matrix:
    """Exact Hessian of the discrete action (running plus terminal cost) with
    respect to the free knots 1..N, as one sparse block-tridiagonal matrix.

    Interval i contributes dt/2 [f(t_i, x_i, v_i) + f(t_{i+1}, x_{i+1}, v_i)]
    with v_i = (x_{i+1} - x_i)/dt, so its blocks come from fxx, fvx and fvv
    at both interval ends; D2g adds to the last knot.  ``curv``, when given,
    holds (N, n, n) blocks added to the diagonal (constraint curvature).
    """
    X = gamma.knots
    N, n = gamma.N, gamma.dim
    dt = gamma.dt
    tk = gamma.times
    V = gamma.velocities
    tl, tr = tk[:-1], tk[1:]
    xl, xr = X[:-1], X[1:]
    K = 0.5 * (prob.fvv(tl, xl, V) + prob.fvv(tr, xr, V)) / dt
    Bl = prob.fvx(tl, xl, V)  # entry [i, j] = d2f/dv_i dx_j
    Br = prob.fvx(tr, xr, V)
    Blt, Brt = Bl.transpose(0, 2, 1), Br.transpose(0, 2, 1)
    diag = np.zeros((N + 1, n, n))
    diag[:-1] += K - 0.5 * (Bl + Blt) + 0.5 * dt * prob.fxx(tl, xl, V)
    diag[1:] += K + 0.5 * (Br + Brt) + 0.5 * dt * prob.fxx(tr, xr, V)
    diag[-1] += prob.D2g(X[-1:])[0]
    upper = 0.5 * (Blt - Br) - K  # block (knot i, knot i+1)
    D, U = diag[1:], upper[1:]
    if curv is not None:
        D += curv
    idx = np.arange(N * n).reshape(N, n)
    r = np.repeat(idx, n, axis=1)  # row of block entry [a, b] is idx[k, a]
    c = np.tile(idx, (1, n))       # column is idx[k, b]
    H = sparse.csr_matrix(
        (np.concatenate([D.ravel(), U.ravel(), U.ravel()]),
         (np.concatenate([r.ravel(), r[:-1].ravel(), c[1:].ravel()]),
          np.concatenate([c.ravel(), c[1:].ravel(), r[:-1].ravel()]))),
        shape=(N * n, N * n))
    H.eliminate_zeros()  # the factorization sees only the true pattern
    return H


def _cost_and_grad(prob: Problem, dom: Domain, params: PenaltyParams,
                   gamma: Trajectory, need_grad: bool = True,
                   geo: BoundaryEval | None = None):
    """Discrete cost, its gradient with respect to knots 1..N (knot 0 is the
    pinned initial state) and the first-order geometry of the knots, which
    the caller may pass in as ``geo`` when it already has it."""
    X = gamma.knots
    if geo is None:
        geo = dom.eval(X, hess=False)
    N = gamma.N
    dt = gamma.dt
    tk = gamma.times
    V = gamma.velocities

    fl = prob.f(tk[:-1], X[:-1], V)
    fr = prob.f(tk[1:], X[1:], V)
    d = np.maximum(geo.b, 0.0)
    w = _trapezoid_weights(N, dt)

    cost = (0.5 * dt * np.sum(fl + fr)
            + np.dot(w, d) / params.epsilon
            + d[-1] / params.delta
            + float(prob.g(X[-1:]).item()))
    if not need_grad:
        return cost, None, geo

    G = _action_grad(prob, gamma)
    # gradient selection of d = max(b, 0): 0 inside, Db outside, and the
    # midpoint Db/2 on the boundary band (fixed tie-break)
    tol = dom.boundary_tol
    scale = np.where(geo.b > tol, 1.0, np.where(geo.b > -tol, 0.5, 0.0))
    dgrad = geo.Db * scale[:, None]
    G += (w / params.epsilon)[:, None] * dgrad
    G[-1] += dgrad[-1] / params.delta
    return cost, G, geo


def _stationarity(dom: Domain, params: PenaltyParams, gamma: Trajectory,
                  G: np.ndarray, geo: BoundaryEval) -> float:
    """Minimal-norm element of the discrete subdifferential.

    G carries the midpoint selection Db/2 at boundary-band knots; those rows
    admit any coefficient in [0, w/eps] on Db, so the best choice is projected
    out before taking the norm.
    """
    band = np.abs(geo.b) <= dom.boundary_tol
    R = G.copy()
    if np.any(band):
        w = _trapezoid_weights(gamma.N, gamma.dt)
        cmax = w / params.epsilon
        if band[-1]:
            cmax[-1] += 1.0 / params.delta
        Db = geo.Db[band]
        half = 0.5 * cmax[band]
        # G used coefficient c/2; admissible shifts are s in [-c/2, +c/2]
        proj = np.einsum("mi,mi->m", R[band], Db)
        shift = np.clip(-proj, -half, half)
        R[band] += shift[:, None] * Db
    R[0] = 0.0  # pinned knot
    return float(np.linalg.norm(R.ravel(), ord=np.inf))


def _newton_finish(prob: Problem, dom: Domain, params: PenaltyParams,
                   traj: Trajectory, cost: float) -> Trajectory:
    """Newton's method on the full penalized problem, from ``traj`` with
    penalized cost ``cost``.

    Every free knot sits in one of three groups, each smooth:

    - inside (b < 0): no penalty;
    - outside (b > 0): the penalty c b with c = w/eps (+1/delta at the last
      knot), which adds c Db to the gradient and c D2b to its diagonal
      Hessian block;
    - boundary: an equality row b = 0 whose multiplier must lie in [0, c].

    Each step solves the KKT system of the action's exact block-tridiagonal
    Hessian (Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 18).
    Primal-dual active-set updates move the groups (Hintermueller, Ito &
    Kunisch, SIAM J. Optim. 13, 2002): a boundary multiplier below 0
    releases its knot inside, one above c releases it outside, and a knot
    whose step crosses b = 0 joins the boundary.  Each step backtracks on
    the penalized cost, which keeps the groups from cycling.  Returns the
    best point reached; the caller certifies it.
    """
    N, n = traj.N, traj.dim
    nf = N * n
    c = _trapezoid_weights(N, traj.dt)[1:] / params.epsilon
    c[-1] += 1.0 / params.delta
    geo = dom.eval(traj.knots)
    # the L-BFGS round leaves contact knots within ~1e-7 diam of b = 0; a
    # wider band pins interior knots, which are then released one by one
    band = 1e-5 * dom.diameter
    b = geo.b[1:]
    outside = b > band
    boundary = np.abs(b) <= band
    mult = np.zeros(N)
    step = np.zeros((N + 1, n))  # knot 0 is pinned
    for _ in range(30):
        Db, D2b = geo.Db[1:], geo.D2b[1:]
        grad = _action_grad(prob, traj)[1:]
        while True:  # re-solve until no boundary multiplier releases a knot
            g = grad.copy()
            g[outside] += c[outside, None] * Db[outside]
            # curvature only where the penalty acts: inside knots may sit on
            # a focal point, where D2b is inf/NaN
            curved = outside | boundary
            curv = np.zeros((N, n, n))
            curv[curved] = (np.where(outside, c, mult)[curved, None, None]
                            * D2b[curved])
            H = _action_hessian(prob, traj, curv)
            act = np.flatnonzero(boundary)
            if act.size:
                cols = (act[:, None] * n + np.arange(n)[None, :]).ravel()
                C = sparse.csr_matrix((Db[act].ravel(), cols,
                                       n * np.arange(act.size + 1)),
                                      shape=(act.size, nf))
                KKT = sparse.bmat([[H, C.T], [C, None]], format="csc")
                sol = spsolve(KKT, np.concatenate([-g.ravel(), -b[act]]))
            else:  # no boundary rows: the KKT system is H alone
                sol = spsolve(H.tocsc(), -g.ravel())
            mu = sol[nf:]
            # a multiplier out of [0, c] releases its knot only toward the
            # side it sits on, which keeps the step a descent direction
            low = (mu < -1e-10 * c[act]) & (b[act] <= dom.boundary_tol)
            high = (mu > (1 + 1e-10) * c[act]) & (b[act] >= -dom.boundary_tol)
            mult[act] = np.clip(mu, 0.0, c[act])
            if not np.any(low | high):
                break
            boundary[act[low | high]] = False
            outside[act[high]] = True
        step[1:] = sol[:nf].reshape(N, n)
        if not np.all(np.isfinite(step)):
            break  # singular system: as no decrease, keep the best point
        alpha = 1.0
        while alpha >= 1e-10:
            trial = Trajectory(traj.t0, traj.t1, traj.knots + alpha * step)
            geo_t = dom.eval(trial.knots)
            cost_t = _cost_and_grad(prob, dom, params, trial,
                                    need_grad=False, geo=geo_t)[0]
            if cost_t <= cost + 1e-14 * (1.0 + abs(cost)):
                break
            alpha *= 0.5
        else:
            break  # no decrease along the step: keep the best point
        traj, geo, cost = trial, geo_t, cost_t
        b = geo.b[1:]
        # a knot that crossed b = 0, or whose step stopped on the kink of
        # the penalty, joins the boundary; left out, the kink would cut
        # every later line search short
        crossed = ~boundary & ((outside & (b < 0.0)) | (~outside & (b > 0.0))
                               | (np.abs(b) <= dom.boundary_tol))
        boundary |= crossed
        outside &= ~crossed
        if np.max(np.abs(alpha * step)) < 1e-13 * (1.0 + dom.diameter):
            break
    traj.knots[1:][boundary] = geo.P[1:][boundary]
    return traj


def _certified_finish(prob: Problem, dom: Domain, params: PenaltyParams,
                      traj: Trajectory, cost: float):
    """Newton finish from ``traj``, then the certificate: the minimal-norm
    element of the subdifferential must fall below 1e-8 (1 + |cost|).
    Returns the result, its stationarity, whether it certifies and its
    largest b."""
    traj = _newton_finish(prob, dom, params, traj, cost)
    cost, G, geo = _cost_and_grad(prob, dom, params, traj)
    stat = _stationarity(dom, params, traj, G, geo)
    return traj, stat, stat < 1e-8 * (1.0 + abs(cost)), float(np.max(geo.b))


def minimize_penalized(prob: Problem, dom: Domain, params: PenaltyParams,
                       x0, init: Trajectory | None = None,
                       max_iter: int = 100000) -> Trajectory:
    """Minimize the penalized cost over the free knots 1..N.

    Cold start (no ``init``): one L-BFGS-B round at gtol 1e-6 from the
    constant trajectory locates the contact set, then one Newton finish on
    the full penalized problem (``_newton_finish``) solves the discrete
    optimality system to machine precision.

    Warm start (``init`` given, e.g. a converged neighbour): the Newton
    finish runs from ``init`` directly.  If its result does not certify,
    the solve falls back to the cold path's two stages started from
    ``init``, and says so in one INFO line on the ``statecon`` logger.

    Either way the result is certified by the minimal-norm element of the
    subdifferential: its norm must fall below 1e-8 (1 + |cost|), else
    MaxIterations is raised.  Runaway is raised when an accepted L-BFGS-B
    iterate or a certified warm Newton result leaves the tube by a full
    diameter (trial points of the L-BFGS-B line searches may go further),
    and NonFiniteCost when a cost evaluation is not finite.
    """
    x0 = np.asarray(x0, dtype=float)
    if dom.signed_distance(x0) > dom.boundary_tol:
        raise ValueError("initial state must lie in the closed domain")
    gamma = init if init is not None else Trajectory.constant(
        0.0, prob.horizon, x0, params.N)
    if gamma.N != params.N:
        raise ValueError("init grid does not match params.N")
    leash = params.rho + dom.diameter

    def knots(z):
        return Trajectory(gamma.t0, gamma.t1,
                          np.vstack([x0, z.reshape(params.N, -1)]))

    if init is not None:
        start = knots(gamma.knots[1:])
        cost = penalized_cost(prob, dom, params, start)
        if not np.isfinite(cost):
            raise NonFiniteCost(f"penalized cost became {cost}")
        traj, stat, ok, bmax = _certified_finish(prob, dom, params, start,
                                                 cost)
        if ok:
            if bmax > leash:
                raise Runaway("minimizer left the tube; epsilon is too large")
            return traj
        log.info("warm Newton stage stalled at stationarity %.3e "
                 "(eps=%g, N=%d); running L-BFGS-B", stat, params.epsilon,
                 params.N)

    last = {}

    def objective(z):
        c, G, geo = _cost_and_grad(prob, dom, params, knots(z))
        if not np.isfinite(c):
            raise NonFiniteCost(f"penalized cost became {c}")
        last.update(z=z.copy(), bmax=np.max(geo.b))
        return c, G[1:].ravel()

    def leash_check(z):
        # L-BFGS-B reports the last point it evaluated as its new iterate
        bmax = (last["bmax"] if np.array_equal(z, last["z"])
                else np.max(dom.eval(knots(z).knots, hess=False).b))
        if bmax > leash:
            raise Runaway("iterates left the tube; epsilon is too large")

    res = _scipy_minimize(objective, gamma.knots[1:].ravel(), jac=True,
                          method="L-BFGS-B", callback=leash_check,
                          options={"maxiter": max_iter, "maxcor": 20,
                                   "ftol": 1e-18, "gtol": 1e-6})
    traj, stat, ok, _bmax = _certified_finish(prob, dom, params, knots(res.x),
                                              res.fun)
    if ok:
        return traj
    raise MaxIterations(f"stationarity stalled at {stat:.3e} "
                        f"({res.nit} L-BFGS-B iterations)")


def delta_choice(prob: Problem, dom: Domain, samples: int = 2048,
                 rng: np.random.Generator | None = None):
    """Terminal penalty weight delta = min(1 / (2 mu N), 1), where N is the
    largest terminal drift speed |DpH(T, x, Dg(x))| over the tube.

    Returns (delta, measured N).
    """
    from .model import Hamiltonian

    rng = rng or np.random.default_rng(3)
    ham = Hamiltonian(prob)
    x = dom.sample_extended(rng, samples)
    p = prob.Dg(x)
    speed = np.linalg.norm(ham.DpH_many(prob.horizon, x, p), axis=1)
    Nm = float(np.max(speed))
    if Nm == 0.0:
        return 1.0, 0.0
    return min(1.0 / (2.0 * prob.mu * Nm), 1.0), Nm


def feasibility_gap(dom: Domain, gamma: Trajectory) -> float:
    """max_t d(gamma(t)); for convex domains the segment maximum is attained
    at the knots."""
    return float(np.max(np.maximum(dom.b_many(gamma.knots), 0.0)))


def epsilon_schedule(prob: Problem, dom: Domain, x0, delta: float,
                     N: int = 256, rho: float | None = None,
                     max_halvings: int = 40,
                     init: Trajectory | None = None,
                     eps0: float = 1.0):
    """Halve epsilon from eps0 until the penalized minimizer is feasible to
    tau_feas = 1e-6 diam, warm-starting from the previous minimizer.

    The certified trajectory solves the constrained problem; returns it with
    the final parameters.  When refining a converged coarse solution, pass its
    epsilon as eps0 to skip the weak-penalty levels it already went through.
    """
    tau = FEASIBILITY_TOL_FACTOR * dom.diameter
    rho = rho if rho is not None else dom.rho0
    eps = float(eps0)
    gamma = init
    for _ in range(max_halvings + 1):
        params = PenaltyParams(epsilon=eps, delta=delta, rho=rho, N=N)
        try:
            gamma = minimize_penalized(prob, dom, params, x0, init=gamma)
        except (Runaway, MaxIterations):
            # penalty too weak at this epsilon; restart from scratch below it
            gamma = init
            eps *= 0.5
            continue
        if feasibility_gap(dom, gamma) <= tau:
            return gamma, params
        eps *= 0.5
    gap = feasibility_gap(dom, gamma) if gamma is not None else float("inf")
    raise ScheduleExhausted(
        f"feasibility {gap:.3e} > {tau:.3e} after {max_halvings} halvings; "
        "check assumptions or refine the grid")


def energy_certificate(prob: Problem, dom: Domain, params: PenaltyParams,
                       gamma: Trajectory, K: float) -> bool:
    """Discrete coercivity budget: int [ |gamma'|^2/(4 mu) + d/eps ] <= 1.05 K."""
    v = gamma.velocities
    kinetic = np.sum(v * v, axis=1) / (4.0 * prob.mu)
    d = np.maximum(dom.b_many(gamma.knots), 0.0)
    total = (float(np.sum(kinetic)) * gamma.dt
             + float(np.dot(_trapezoid_weights(gamma.N, gamma.dt), d))
             / params.epsilon)
    return total <= 1.05 * K + 1e-12


def holder_gap(prob: Problem, gamma: Trajectory, K: float) -> float:
    """Largest violation of |gamma(t) - gamma(s)| <= sqrt(4 mu K |t - s|)
    over knot pairs (negative means the bound holds with slack)."""
    X = gamma.knots
    t = gamma.times
    diff = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    bound = np.sqrt(4.0 * prob.mu * K * np.abs(t[:, None] - t[None, :]))
    return float(np.max(diff - bound))
