"""Penalized transcription of the constrained problem and its schedules.

The hard constraint gamma(t) in the closure of Omega is replaced by the cost
terms (1/eps) d(gamma) along the arc and (1/delta) d(gamma(T)) at the end.
Trajectories are piecewise linear on a uniform grid; the integral is a
trapezoid rule using the per-interval velocity at both interval ends.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundaryEval, Domain
from .model import Problem

FEASIBILITY_TOL_FACTOR = 1e-6
# halvings of epsilon before the schedule gives up
MAX_HALVINGS = 40

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
    """Penalty weights 1/epsilon along the arc and 1/delta at the end, the
    tube radius rho and the grid size N.  ``weights`` scales the penalty of
    each of the k points that every knot carries: one point for a single
    agent, one per agent for the stacked state of ``mfg.joint_equilibrium``,
    whose knots are (x_1, ..., x_k).  Only the Newton finish and its
    certificate take k > 1; ``minimize_penalized`` and the schedules solve
    one point per knot."""

    epsilon: float
    delta: float
    rho: float
    N: int
    weights: np.ndarray = field(default_factory=lambda: np.ones(1))

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
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


def _point_weights(params: PenaltyParams, N: int, dt: float) -> np.ndarray:
    """Penalty weight of each point, in knot order: the trapezoid weight
    over eps (+1/delta at the last knot) times the point's weight."""
    c = _trapezoid_weights(N, dt) / params.epsilon
    c[-1] += 1.0 / params.delta
    return np.outer(c, params.weights).ravel()


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


def _action_hessian(prob: Problem, gamma: Trajectory):
    """Exact Hessian of the discrete action (running plus terminal cost) with
    respect to the free knots 1..N, which is block-tridiagonal: returns its
    (N, m, m) diagonal blocks and its (N - 1, m, m) upper blocks (knot i,
    knot i + 1), m the knot's dimension.

    Interval i contributes dt/2 [f(t_i, x_i, v_i) + f(t_{i+1}, x_{i+1}, v_i)]
    with v_i = (x_{i+1} - x_i)/dt, so its blocks come from fxx, fvx and fvv
    at both interval ends; D2g adds to the last knot.
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
    return diag[1:], upper[1:]


def _tridiag_matvec(D: np.ndarray, U: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x for the symmetric block-tridiagonal H with diagonal blocks D and
    upper blocks U; x is (N, m)."""
    y = np.einsum("iab,ib->ia", D, x)
    y[:-1] += np.einsum("iab,ib->ia", U, x[1:])
    y[1:] += np.einsum("iba,ib->ia", U, x[:-1])
    return y


def _tridiag_solve(D: np.ndarray, U: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve H x = r for the symmetric block-tridiagonal H with diagonal
    blocks D (N, m, m) and upper blocks U (N - 1, m, m); r is (N, m).

    Block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    1970): one batched solve with the even rows' diagonal blocks leaves the
    odd rows' symmetric block-tridiagonal system of half the size.  A
    singular pivot raises LinAlgError."""
    N, m = D.shape[:2]
    if N == 1:
        return np.linalg.solve(D, r[:, :, None])[:, :, 0]
    ne, mo = (N + 1) // 2, N // 2
    zero = np.zeros_like(D[:1])
    Up = np.concatenate([zero, U, zero])  # Up[i] is block (i - 1, i)
    # even row 2j: x_2j = S_r - S_l x_{2j-1} - S_u x_{2j+1}
    S = np.linalg.solve(D[0::2], np.concatenate(
        [Up[0:2 * ne:2].transpose(0, 2, 1), Up[1:2 * ne:2],
         r[0::2, :, None]], axis=2))
    S = np.concatenate([S, np.zeros_like(S[:1])])  # no row past the end
    A = Up[1:2 * mo:2].transpose(0, 2, 1) @ S[:mo]  # odd row 2j+1, via x_2j
    B = Up[2:2 * mo + 1:2] @ S[1:mo + 1]            # and via x_{2j+2}
    x_odd = _tridiag_solve(D[1::2] - A[:, :, m:2 * m] - B[:, :, :m],
                           -B[:-1, :, m:2 * m],
                           r[1::2] - A[:, :, 2 * m] - B[:, :, 2 * m])
    xp = np.concatenate([zero[:, 0], x_odd, zero[:, 0]])  # xp[j] = x_{2j-1}
    x = np.empty_like(r)
    x[0::2] = S[:ne, :, 2 * m] - np.einsum("jab,jb->ja", S[:ne, :, :2 * m],
                                           np.hstack([xp[:ne], xp[1:ne + 1]]))
    x[1::2] = x_odd
    return x


def _cost_and_grad(prob: Problem, dom: Domain, params: PenaltyParams,
                   gamma: Trajectory, need_grad: bool = True,
                   geo: BoundaryEval | None = None):
    """Discrete cost, its gradient with respect to knots 1..N (knot 0 is the
    pinned initial state) and the first-order geometry of the knots' points
    (k per knot, in knot order), which the caller may pass in as ``geo``
    when it already has it."""
    X = gamma.knots
    if geo is None:
        geo = dom.eval(X.reshape(-1, dom.dim), hess=False)
    N = gamma.N
    dt = gamma.dt
    tk = gamma.times
    V = gamma.velocities

    fl = prob.f(tk[:-1], X[:-1], V)
    fr = prob.f(tk[1:], X[1:], V)
    # per knot, the penalty-weighted distance of its points
    d = np.maximum(geo.b, 0.0).reshape(N + 1, -1) @ params.weights
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
    scale *= np.tile(params.weights, N + 1)
    dgrad = (geo.Db * scale[:, None]).reshape(N + 1, -1)
    G += (w / params.epsilon)[:, None] * dgrad
    G[-1] += dgrad[-1] / params.delta
    return cost, G, geo


def _stationarity(dom: Domain, params: PenaltyParams, gamma: Trajectory,
                  G: np.ndarray, geo: BoundaryEval) -> float:
    """Minimal-norm element of the discrete subdifferential.

    G carries the midpoint selection Db/2 at boundary-band points; those rows
    admit any coefficient in [0, c] on Db, c from ``_point_weights``, so the
    best choice is projected out before taking the norm.
    """
    band = np.abs(geo.b) <= dom.boundary_tol
    R = G.reshape(-1, dom.dim).copy()  # one row per point
    if np.any(band):
        Db = geo.Db[band]
        half = 0.5 * _point_weights(params, gamma.N, gamma.dt)[band]
        # G used coefficient c/2; admissible shifts are s in [-c/2, +c/2]
        proj = np.einsum("mi,mi->m", R[band], Db)
        shift = np.clip(-proj, -half, half)
        R[band] += shift[:, None] * Db
    R[:params.weights.size] = 0.0  # pinned knot
    return float(np.linalg.norm(R.ravel(), ord=np.inf))


def _block_diag(A: np.ndarray) -> np.ndarray:
    """(m, k, n, n) blocks as m block-diagonal (k n, k n) matrices."""
    m, k, n, _ = A.shape
    out = np.zeros((m, k, n, k, n))
    i = np.arange(k)
    out[:, i, :, i, :] = A.transpose(1, 0, 2, 3)
    return out.reshape(m, k * n, k * n)


def _kkt_step(D: np.ndarray, U: np.ndarray, g: np.ndarray, Db: np.ndarray,
              b: np.ndarray, act: np.ndarray):
    """Newton step dx and multipliers mu of H dx + C^T mu = -g, C dx = -b_act:
    H has blocks D, U over knots; g, Db, b are per free point; C has a row
    Db_p per boundary point p in ``act``.  Each row is eliminated in its own
    knot block: with u = Db/|Db|, Q = sum u u^T and P = I - Q, dx = y + x_p,
    x_p = sum -b u/|Db| and (P H P + Q) y = -P (g + H x_p); then
    mu = -u^T (H dx + g)/|Db|."""
    N, m = D.shape[:2]
    n = g.shape[1]
    s = np.linalg.norm(Db[act], axis=1)
    nh, xp = np.zeros_like(g), np.zeros_like(g)
    nh[act] = Db[act] / s[:, None]
    xp[act] = -(b[act] / s)[:, None] * nh[act]
    Q = _block_diag(np.einsum("pa,pb->pab", nh, nh).reshape(N, -1, n, n))
    P = np.eye(m) - Q
    g, xp = g.reshape(N, m), xp.reshape(N, m)
    r = -np.einsum("iab,ib->ia", P, g + _tridiag_matvec(D, U, xp))
    dx = _tridiag_solve(P @ D @ P + Q, P[:-1] @ U @ P[1:], r) + xp
    res = (_tridiag_matvec(D, U, dx) + g).reshape(-1, n)[act]
    return dx, -np.einsum("pi,pi->p", nh[act], res) / s


def _newton_finish(prob: Problem, dom: Domain, params: PenaltyParams,
                   traj: Trajectory, cost: float) -> tuple[Trajectory, int]:
    """Newton's method on the full penalized problem, from ``traj`` with
    penalized cost ``cost``.

    Each knot carries k = ``params.weights.size`` points (one per agent of a
    joint solve, else one).  Every free point sits in one of three groups,
    each smooth:

    - inside (b < 0): no penalty;
    - outside (b > 0): the penalty c b, c from ``_point_weights``, which
      adds c Db to the gradient and c D2b to its diagonal Hessian block;
    - boundary: an equality row b = 0 whose multiplier must lie in [0, c].

    Each step solves the KKT system of the action's exact block-tridiagonal
    Hessian, with (k n)-blocks in knot order (Nocedal & Wright, Numerical
    Optimization, 2nd ed., ch. 18) by ``_kkt_step``; the action's blocks are
    built once per step, and a multiplier release re-adds only the
    curvature.  A singular pivot ends the finish as a non-finite step does.
    Primal-dual active-set updates move the groups (Hintermueller, Ito &
    Kunisch, SIAM J. Optim. 13, 2002): a boundary multiplier below 0
    releases its point inside, one above c releases it outside, and a point
    whose step crosses b = 0 joins the boundary.  Each step backtracks on
    the penalized cost, which keeps the groups from cycling.  Returns the
    best trajectory reached and the number of accepted steps; the caller
    certifies it.
    """
    N, n, k = traj.N, dom.dim, params.weights.size
    c = _point_weights(params, N, traj.dt)[k:]  # per free point
    geo = dom.eval(traj.knots.reshape(-1, n))
    # the L-BFGS round leaves contact knots within ~1e-7 diam of b = 0; a
    # wider band pins interior knots, which are then released one by one
    band = 1e-5 * dom.diameter
    b = geo.b[k:]
    outside = b > band
    boundary = np.abs(b) <= band
    mult = np.zeros(N * k)
    step = np.zeros_like(traj.knots)  # knot 0 is pinned
    steps = 0
    for _ in range(30):
        Db, D2b = geo.Db[k:], geo.D2b[k:]
        grad = _action_grad(prob, traj)[1:].reshape(-1, n)
        H, U = _action_hessian(prob, traj)
        while True:  # re-solve until no boundary multiplier releases a point
            g = grad.copy()
            g[outside] += c[outside, None] * Db[outside]
            # curvature only where the penalty acts: inside knots may sit on
            # a focal point, where D2b is inf/NaN
            curved = outside | boundary
            curv = np.zeros((N * k, n, n))
            curv[curved] = (np.where(outside, c, mult)[curved, None, None]
                            * D2b[curved])
            act = np.flatnonzero(boundary)
            try:
                dx, mu = _kkt_step(H + _block_diag(curv.reshape(N, k, n, n)),
                                   U, g, Db, b, act)
            except np.linalg.LinAlgError:  # singular pivot: as a NaN step
                dx, mu = np.full((N, k * n), np.nan), np.zeros(act.size)
            # a multiplier out of [0, c] releases its point only toward the
            # side it sits on, which keeps the step a descent direction
            low = (mu < -1e-10 * c[act]) & (b[act] <= dom.boundary_tol)
            high = (mu > (1 + 1e-10) * c[act]) & (b[act] >= -dom.boundary_tol)
            mult[act] = np.clip(mu, 0.0, c[act])
            if not np.any(low | high):
                break
            boundary[act[low | high]] = False
            outside[act[high]] = True
        step[1:] = dx
        if not np.all(np.isfinite(step)):
            break  # singular system: as no decrease, keep the best point
        alpha = 1.0
        while alpha >= 1e-10:
            trial = Trajectory(traj.t0, traj.t1, traj.knots + alpha * step)
            geo_t = dom.eval(trial.knots.reshape(-1, n))
            cost_t = _cost_and_grad(prob, dom, params, trial,
                                    need_grad=False, geo=geo_t)[0]
            if cost_t <= cost + 1e-14 * (1.0 + abs(cost)):
                break
            alpha *= 0.5
        else:
            break  # no decrease along the step: keep the best point
        traj, geo, cost = trial, geo_t, cost_t
        steps += 1
        b = geo.b[k:]
        # a point that crossed b = 0, or whose step stopped on the kink of
        # the penalty, joins the boundary; left out, the kink would cut
        # every later line search short
        crossed = ~boundary & ((outside & (b < 0.0)) | (~outside & (b > 0.0))
                               | (np.abs(b) <= dom.boundary_tol))
        boundary |= crossed
        outside &= ~crossed
        if np.max(np.abs(alpha * step)) < 1e-13 * (1.0 + dom.diameter):
            break
    traj.knots[1:] = np.where(boundary[:, None], geo.P[k:],
                              traj.knots[1:].reshape(-1, n)).reshape(N, -1)
    return traj, steps


def _certificate(prob: Problem, dom: Domain, params: PenaltyParams,
                 traj: Trajectory):
    """The certificate of a penalized minimizer: the minimal-norm element of
    the subdifferential must fall below 1e-8 (1 + |cost|).  Returns that
    norm, whether it certifies and the largest b."""
    cost, G, geo = _cost_and_grad(prob, dom, params, traj)
    stat = _stationarity(dom, params, traj, G, geo)
    return stat, stat < 1e-8 * (1.0 + abs(cost)), float(np.max(geo.b))


def _scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported when the L-BFGS-B round runs."""
    from scipy import optimize
    return optimize.minimize(*args, **kwargs)


def minimize_penalized(prob: Problem, dom: Domain, params: PenaltyParams,
                       x0, init: Trajectory | None = None) -> Trajectory:
    """Minimize the penalized cost over the free knots 1..N.

    A cold start (no ``init``) runs one L-BFGS-B round at gtol 1e-6 from
    the constant trajectory to locate the contact set; a warm start takes
    ``init`` (e.g. a converged neighbour) with knot 0 reset to x0.  Either
    way one Newton finish (``_newton_finish``) then solves the discrete
    optimality system to machine precision, and ``_certificate`` must pass,
    else MaxIterations is raised; ``epsilon_schedule`` answers that by
    halving epsilon.  Runaway is raised when an accepted L-BFGS-B iterate or
    the certified result leaves the tube by a full diameter (trial points
    of the L-BFGS-B line searches may go further), and NonFiniteCost when a
    cost evaluation is not finite.
    """
    x0 = np.asarray(x0, dtype=float)
    if params.weights.size != 1:
        raise ValueError("minimize_penalized takes one point per knot")
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

    if init is None:
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
                              options={"maxiter": 100000, "maxcor": 20,
                                       "ftol": 1e-18, "gtol": 1e-6})
        start, cost = knots(res.x), res.fun
    else:
        start = knots(gamma.knots[1:])
        cost = penalized_cost(prob, dom, params, start)
        if not np.isfinite(cost):
            raise NonFiniteCost(f"penalized cost became {cost}")
    traj, _ = _newton_finish(prob, dom, params, start, cost)
    stat, ok, bmax = _certificate(prob, dom, params, traj)
    if not ok:
        raise MaxIterations(f"stationarity stalled at {stat:.3e}")
    if bmax > leash:
        raise Runaway("minimizer left the tube; epsilon is too large")
    return traj


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
                     N: int = 256, init: Trajectory | None = None,
                     eps0: float = 1.0):
    """Halve epsilon from eps0 until the penalized minimizer is feasible to
    tau_feas = 1e-6 diam, warm-starting from the previous minimizer.  After
    a level raises Runaway or MaxIterations, the next level restarts from
    ``init`` and one INFO line on the ``statecon`` logger says why.

    The certified trajectory solves the constrained problem; returns it with
    the final parameters.  When refining a converged coarse solution, pass its
    epsilon as eps0 to skip the weak-penalty levels it already went through.
    """
    tau = FEASIBILITY_TOL_FACTOR * dom.diameter
    eps = float(eps0)
    gamma = init
    for _ in range(MAX_HALVINGS + 1):
        params = PenaltyParams(epsilon=eps, delta=delta, rho=dom.rho0, N=N)
        try:
            gamma = minimize_penalized(prob, dom, params, x0, init=gamma)
        except (Runaway, MaxIterations) as exc:
            log.info("epsilon ladder restart after %s: %s (eps=%g, N=%d)",
                     type(exc).__name__, exc, eps, N)
            gamma = init
            eps *= 0.5
            continue
        if feasibility_gap(dom, gamma) <= tau:
            return gamma, params
        eps *= 0.5
    gap = feasibility_gap(dom, gamma) if gamma is not None else float("inf")
    raise ScheduleExhausted(
        f"feasibility {gap:.3e} > {tau:.3e} after {MAX_HALVINGS} halvings; "
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
