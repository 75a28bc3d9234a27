"""Penalized transcription of the constrained problem and its schedules.

The hard constraint gamma(t) in the closure of Omega is replaced by the cost
terms (1/eps) d(gamma) along the arc and (1/delta) d(gamma(T)) at the end.
Trajectories are piecewise linear on a uniform grid; the integral is a
trapezoid rule using the per-interval velocity at both interval ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import minimize as _scipy_minimize
from scipy.sparse.linalg import spsolve

from .geometry import BoundaryEval, Domain
from .model import Problem

FEASIBILITY_TOL_FACTOR = 1e-6


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


def _distance_grad(dom: Domain, geo: BoundaryEval) -> np.ndarray:
    """Gradient selection of d = max(b, 0): 0 inside, Db outside, and the
    midpoint Db/2 on the boundary band (fixed tie-break)."""
    tol = dom.boundary_tol
    scale = np.where(geo.b > tol, 1.0, np.where(geo.b > -tol, 0.5, 0.0))
    return geo.Db * scale[:, None]


def _action_grad(prob: Problem, gamma: Trajectory,
                 terminal: bool = True) -> np.ndarray:
    """Gradient of the discrete action (running plus terminal cost, no
    distance penalties) with respect to all knots.  ``terminal=False`` leaves
    the terminal term to the caller."""
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
    if terminal:
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

    G = _action_grad(prob, gamma, terminal=False)
    # penalty terms (subgradient selection on the boundary band)
    dgrad = _distance_grad(dom, geo)
    G += (w / params.epsilon)[:, None] * dgrad
    G[-1] += dgrad[-1] / params.delta
    # terminal term last, the summation order of the last row
    G[-1] += prob.Dg(X[-1:])[0]
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


def _snap_to_boundary(dom: Domain, params: PenaltyParams, gamma: Trajectory,
                      G: np.ndarray, geo: BoundaryEval,
                      band: float) -> Trajectory:
    """Move near-boundary knots onto the boundary when the gradient says the
    minimizer sits on the kink of the distance penalty there; the caller
    accepts the result only if the cost does not increase."""
    b = geo.b
    cand = np.abs(b) < band
    cand[0] = False  # the initial knot is pinned
    if not np.any(cand):
        return gamma
    Db = geo.Db[cand]
    slope = np.einsum("mi,mi->m", G[cand], Db)
    w = _trapezoid_weights(gamma.N, gamma.dt) / params.epsilon
    w[-1] += 1.0 / params.delta
    # outside knots already carry the full penalty gradient in G; the kink
    # test asks whether the outward slope changes sign across b = 0
    outside = b[cand] > dom.boundary_tol
    lo = np.where(outside, slope - w[cand], slope)
    hi = np.where(outside, slope, slope + w[cand])
    sel = np.where(cand)[0][(lo < 0.0) & (hi > 0.0)]
    if sel.size == 0:
        return gamma
    X = gamma.knots.copy()
    X[sel] = geo.P[sel]
    return Trajectory(gamma.t0, gamma.t1, X)


def _manifold_polish(prob: Problem, dom: Domain, params: PenaltyParams,
                     gamma: Trajectory, geo: BoundaryEval, max_iter: int):
    """Finish the minimization with boundary-contact knots constrained to the
    boundary through the smooth projection x = z - b(z) Db(z).

    On the contact manifold the distance penalty is constant, so the reduced
    objective is smooth and quasi-Newton convergence is restored.
    """
    active = np.abs(geo.b) <= dom.boundary_tol
    active[0] = False
    if not np.any(active):
        return gamma
    x0 = gamma.knots[0]
    n = gamma.dim
    act = active[1:]  # over free knots

    def unpack(z):
        X = z.reshape(gamma.N, n).copy()
        za = dom.eval(X[act])
        X[act] = X[act] - za.b[:, None] * za.Db
        return X, za

    def objective(z):
        X, za = unpack(z)
        traj = Trajectory(gamma.t0, gamma.t1, np.vstack([x0, X]))
        c, G, _ = _cost_and_grad(prob, dom, params, traj)
        Gf = G[1:].copy()
        # exact Jacobian of the projection map (symmetric)
        J = (np.eye(n)[None]
             - za.Db[:, :, None] * za.Db[:, None, :]
             - za.b[:, None, None] * za.D2b)
        Gf[act] = np.einsum("mij,mj->mi", J, Gf[act])
        return c, Gf.ravel()

    res = _scipy_minimize(objective, gamma.knots[1:].ravel(), jac=True,
                          method="L-BFGS-B",
                          options={"maxiter": max_iter, "maxcor": 20,
                                   "ftol": 1e-18, "gtol": 1e-14})
    X, _ = unpack(res.x)
    return Trajectory(gamma.t0, gamma.t1, np.vstack([x0, X]))


def _newton_kkt_polish(prob: Problem, dom: Domain, params: PenaltyParams,
                       gamma: Trajectory, geo: BoundaryEval,
                       max_newton: int = 8) -> Trajectory:
    """Sharpen the minimizer to machine-precision stationarity.

    Near a minimizer the discrete action is smooth with a block-tridiagonal
    Hessian, and the only other curvature is the boundary constraint, so a
    few Newton steps on the KKT system of

        min action(x)  subject to  b(x_i) = 0 on the contact set

    land on the discrete optimality system.  The Hessian is reassembled at
    every step from fxx, fvx, fvv and D2g (Nocedal & Wright, Numerical
    Optimization, 2nd ed., ch. 18); problems without fxx or D2g are returned
    unchanged.  Quasi-Newton output is accurate to ~1e-5 in the knots, which
    the 1/dt^2 differentiation of the adjoint recovery amplifies; this polish
    removes that floor.  Knots with a multiplier outside the admissible
    penalty-slope range are released and the step recomputed; if the active
    set cannot be reconciled the input is returned unchanged.
    """
    if prob.fxx is None or prob.D2g is None:
        return gamma
    X = gamma.knots
    b = geo.b
    if np.max(b) > dom.boundary_tol:
        return gamma  # outside knots still carry penalty slope; not at a kink
    N, n = gamma.N, gamma.dim
    nf = N * n  # free knots 1..N

    act_band = max(dom.boundary_tol, 1e-7 * dom.diameter)
    active = np.flatnonzero(np.abs(b[1:]) <= act_band) + 1
    w = _trapezoid_weights(N, gamma.dt)
    mmax = w / params.epsilon
    mmax[-1] += 1.0 / params.delta

    Xp = X.copy()
    for _ in range(4):  # active-set reconciliation loop
        mults = np.zeros(active.size)
        for _newton in range(max_newton):
            traj = Trajectory(gamma.t0, gamma.t1, Xp)
            g = _action_grad(prob, traj)[1:].ravel()
            if active.size:
                ba, Db, D2b, _ = dom.eval(Xp[active])
                curv = np.zeros((N, n, n))
                curv[active - 1] = mults[:, None, None] * D2b
                H = _action_hessian(prob, traj, curv)
                rows = np.repeat(np.arange(active.size), n)
                cols = ((active[:, None] - 1) * n
                        + np.arange(n)[None, :]).ravel()
                C = sparse.csr_matrix((Db.ravel(), (rows, cols)),
                                      shape=(active.size, nf))
                KKT = sparse.bmat([[H, C.T], [C, None]], format="csc")
                rhs = np.concatenate([-g, -ba])
            else:
                KKT = sparse.csc_matrix(_action_hessian(prob, traj))
                rhs = -g
            sol = spsolve(KKT, rhs)
            step = sol[:nf].reshape(N, n)
            if active.size:
                mults = sol[nf:]
            Xp[1:] += step
            if np.max(np.abs(step)) < 1e-13 * (1.0 + dom.diameter):
                break
        bad = (np.flatnonzero((mults < -1e-9)
                              | (mults > mmax[active] + 1e-9))
               if active.size else np.array([], dtype=int))
        if bad.size == 0:
            if active.size:
                Xp[active] = dom.project_many(Xp[active])
            return Trajectory(gamma.t0, gamma.t1, Xp)
        if np.any(mults[bad] > 0):
            return gamma  # penalty slope cannot hold the boundary here
        active = np.delete(active, bad)
        Xp = X.copy()
    return gamma


def _no_worse(prob: Problem, dom: Domain, params: PenaltyParams, cur: tuple,
              gamma: Trajectory, rtol: float) -> tuple:
    """Step from ``cur`` = (trajectory, cost, gradient, geometry) to gamma
    when its cost is no worse than the current one, up to rtol."""
    if gamma is cur[0]:
        return cur
    cost, G, geo = _cost_and_grad(prob, dom, params, gamma)
    if cost <= cur[1] + rtol * (1.0 + abs(cur[1])):
        return gamma, cost, G, geo
    return cur


def minimize_penalized(prob: Problem, dom: Domain, params: PenaltyParams,
                       x0, init: Trajectory | None = None,
                       max_iter: int = 100000) -> Trajectory:
    """Quasi-Newton minimization of the penalized cost over interior knots.

    The objective is smooth away from {b = 0}; near-boundary knots are snapped
    onto the boundary between solver rounds (accepted only when the cost does
    not increase), and stationarity is measured by the minimal-norm
    subgradient, which handles minimizers sitting exactly on the kink.
    """
    x0 = np.asarray(x0, dtype=float)
    if dom.signed_distance(x0) > dom.boundary_tol:
        raise ValueError("initial state must lie in the closed domain")
    gamma = init if init is not None else Trajectory.constant(
        0.0, prob.horizon, x0, params.N)
    if gamma.N != params.N:
        raise ValueError("init grid does not match params.N")
    gamma = Trajectory(gamma.t0, gamma.t1,
                       np.vstack([x0, gamma.knots[1:]]))

    n = gamma.dim
    shape = (params.N, n)

    leash = params.rho + dom.diameter

    def objective(z):
        traj = Trajectory(gamma.t0, gamma.t1,
                          np.vstack([x0, z.reshape(shape)]))
        geo = dom.eval(traj.knots, hess=False)
        if np.max(geo.b) > leash:
            raise Runaway("iterates left the tube; epsilon is too large")
        c, G, _ = _cost_and_grad(prob, dom, params, traj, geo=geo)
        if not np.isfinite(c):
            raise NonFiniteCost(f"penalized cost became {c}")
        return c, G[1:].ravel()

    z = gamma.knots[1:].ravel()
    snap_band = 1e-3 * dom.diameter
    used = 0
    # early rounds only need to localize the contact set; the boundary snap
    # and the Newton finish supply the precision
    gtols = (1e-6, 1e-8, 1e-10, 1e-12, 1e-12, 1e-12)
    for _round in range(6):
        res = _scipy_minimize(objective, z, jac=True, method="L-BFGS-B",
                              options={"maxiter": max_iter - used,
                                       "maxcor": 20,
                                       "ftol": 1e-18,
                                       "gtol": gtols[_round]})
        used += max(res.nit, 1)
        z = res.x
        traj = Trajectory(gamma.t0, gamma.t1, np.vstack([x0, z.reshape(shape)]))
        cur = (traj, *_cost_and_grad(prob, dom, params, traj))
        cur = _no_worse(prob, dom, params, cur, _snap_to_boundary(
            dom, params, cur[0], cur[2], cur[3], snap_band), 1e-12)
        cur = _no_worse(prob, dom, params, cur, _manifold_polish(
            prob, dom, params, cur[0], cur[3], max_iter - used), 1e-12)
        cur = _no_worse(prob, dom, params, cur, _newton_kkt_polish(
            prob, dom, params, cur[0], cur[3]), 1e-10)
        traj, cost, G, geo = cur
        z = traj.knots[1:].ravel()
        stat = _stationarity(dom, params, traj, G, geo)
        if stat < 1e-8 * (1.0 + abs(cost)):
            return traj
        if used >= max_iter:
            raise MaxIterations(f"descent budget {max_iter} exhausted "
                                f"(stationarity {stat:.3e})")
        snap_band *= 0.1
    # ran out of polish rounds; accept only if stationarity is reasonable
    if stat < 1e-6 * (1.0 + abs(cost)):
        return traj
    raise MaxIterations(f"stationarity stalled at {stat:.3e}")


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
