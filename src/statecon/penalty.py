"""Penalized transcription of the constrained problem and its schedules.

The hard constraint gamma(t) in the closure of Omega is replaced by the cost
terms (1/eps) d(gamma) along the arc and (1/delta) d(gamma(T)) at the end.
Trajectories are piecewise linear on a uniform grid; the integral is a
trapezoid rule using the per-interval velocity at both interval ends.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import BoundaryEval, Domain
from .model import Problem

FEASIBILITY_TOL_FACTOR = 1e-6
# halvings of epsilon before the schedule gives up
MAX_HALVINGS = 40

log = logging.getLogger("statecon")
rounds = logging.getLogger("statecon.ladder")  # one line per ladder round


class MaxIterations(RuntimeError):
    """The Newton finish stopped uncertified at ``best`` (None: no step)."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NonFiniteCost(RuntimeError):
    pass


class ScheduleExhausted(RuntimeError):
    pass


class Runaway(RuntimeError):
    """Iterates left the tube by a full diameter: the penalty is too weak to
    balance the running cost, so the current epsilon is unusable."""


@dataclass
class Trajectory:
    """Uniform-grid sampling of an arc on [t0, t1], or of a batch of B arcs
    with knots (B, N+1, n); velocities are forward differences, so there
    are N intervals for N+1 knots."""

    t0: float
    t1: float
    knots: np.ndarray  # (N+1, n), or (B, N+1, n) for a batch

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        if self.knots.ndim not in (2, 3) or self.knots.shape[-2] < 9:
            raise ValueError("need at least 9 knots (N >= 8)")
        if not np.all(np.isfinite(self.knots)):
            raise ValueError("knots must be finite")
        if not self.t1 > self.t0:
            raise ValueError("need t1 > t0")

    @property
    def N(self) -> int:
        return self.knots.shape[-2] - 1

    @property
    def dim(self) -> int:
        return self.knots.shape[-1]

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.N + 1)

    @property
    def velocities(self) -> np.ndarray:
        return np.diff(self.knots, axis=-2) / self.dt

    def at(self, t) -> np.ndarray:
        """Piecewise-linear interpolation, batched over t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.clip((t - self.t0) / self.dt, 0.0, self.N)
        i = np.minimum(s.astype(int), self.N - 1)
        w = (s - i)[:, None]
        return (1.0 - w) * self.knots[i] + w * self.knots[i + 1]

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
    """Penalty weights 1/epsilon (one per member of a batch, or shared) along
    the arc and 1/delta at the end, and the grid size N.  ``weights`` scales
    the penalty of each of the k points that every knot carries: one point for
    a single agent, one per agent for the stacked state (x_1, ..., x_k) of
    ``mfg.joint_equilibrium``."""

    epsilon: float | np.ndarray
    delta: float
    N: int
    weights: np.ndarray = field(default_factory=lambda: np.ones(1))

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not np.all(np.asarray(self.epsilon) > 0):
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if self.N < 8:
            raise ValueError("N must be >= 8")


def _trapezoid_weights(N: int, dt: float) -> np.ndarray:
    w = np.full(N + 1, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def _point_weights(params: PenaltyParams, N: int, dt: float) -> np.ndarray:
    """Penalty weight of each point, in knot order: the trapezoid weight
    over eps (+1/delta at the last knot) times the point's weight; one row
    per member when epsilon is one per member."""
    c = _trapezoid_weights(N, dt) / np.asarray(params.epsilon)[..., None]
    c[..., -1] += 1.0 / params.delta
    return (c[..., None] * params.weights).reshape(c.shape[:-1] + (-1,))


def _ends(gamma: Trajectory, *fns):
    """Each fn(t, x, v) at the left and the right ends of every member's
    intervals, v the interval's velocity: a (left, right) pair per fn."""
    X, t, V = gamma.knots, gamma.times, gamma.velocities
    lead, m = V.shape[:-1], V.shape[-1]
    v = V.reshape(-1, m)
    sides = [(np.broadcast_to(ts, lead).ravel(), x.reshape(-1, m))
             for ts, x in ((t[:-1], X[..., :-1, :]), (t[1:], X[..., 1:, :]))]

    def at(fn, ts, x):
        out = fn(ts, x, v)
        return out.reshape(lead + out.shape[1:])
    return [tuple(at(fn, *side) for side in sides) for fn in fns]


def _at_end(fn, X):
    """fn(x) at the last knot of each member of X."""
    out = fn(X[..., -1, :].reshape(-1, X.shape[-1]))
    return out.reshape(X.shape[:-2] + out.shape[1:])


def _knot_V(prob: Problem, gamma: Trajectory, order: int):
    """prob.V to ``order`` at every knot of every member (None without V)."""
    if prob.V is None:
        return None
    X = gamma.knots
    t = np.broadcast_to(gamma.times, X.shape[:-1]).ravel()
    return [a.reshape(X.shape[:-1] + a.shape[1:])
            for a in prob.V(t, X.reshape(-1, X.shape[-1]), order)]


def running_cost(prob: Problem, gamma: Trajectory, upto: int | None = None,
                 Vk=None):
    """Trapezoid integral of f along each member's arc, optionally up to a
    knot index: the rest of f at both interval ends, V (``Vk``, if
    evaluated) once per knot."""
    (fl, fr), = _ends(gamma, prob.rest[0])
    if prob.V is not None:
        V = (Vk or _knot_V(prob, gamma, 0))[0]
        fl, fr = fl + V[..., :-1], fr + V[..., 1:]
    return 0.5 * gamma.dt * np.sum((fl + fr)[..., :upto], axis=-1)


def penalized_cost(prob: Problem, dom: Domain, params: PenaltyParams,
                   gamma: Trajectory):
    return _cost_and_grad(prob, dom, params, gamma, need_grad=False)[0]


def _action_grad(prob: Problem, gamma: Trajectory, Vk=None) -> np.ndarray:
    """Gradient of the discrete action (running plus terminal cost, no
    distance penalties) with respect to all knots, per member; ``Vk`` is
    V at the knots to order >= 1, if evaluated."""
    dt = gamma.dt
    G = np.zeros(gamma.knots.shape)
    # state dependence of the running cost
    (fxl, fxr), fv = _ends(gamma, prob.rest[1], prob.fv)
    G[..., :-1, :] += 0.5 * dt * fxl
    G[..., 1:, :] += 0.5 * dt * fxr
    if prob.V is not None:
        G += (_trapezoid_weights(gamma.N, dt)[:, None]
              * (Vk or _knot_V(prob, gamma, 1))[1])
    # velocity dependence: v_i = (x_{i+1} - x_i)/dt couples both interval ends
    fvsum = 0.5 * np.add(*fv)
    G[..., 1:, :] += fvsum
    G[..., :-1, :] -= fvsum
    G[..., -1, :] += _at_end(prob.Dg, gamma.knots)
    return G


def _action_hessian(prob: Problem, gamma: Trajectory, Vk=None):
    """Exact Hessian of the discrete action (running plus terminal cost) with
    respect to the free knots 1..N, which is block-tridiagonal: returns its
    (..., N, m, m) diagonal blocks and its (..., N - 1, m, m) upper blocks
    (knot i, knot i + 1), m the knot's dimension.  Interval i contributes
    dt/2 [f(t_i, x_i, v_i) + f(t_{i+1}, x_{i+1}, v_i)] with
    v_i = (x_{i+1} - x_i)/dt, so its blocks come from fxx, fvx and fvv at
    both interval ends (V's Hessian, from ``Vk`` if evaluated, once per
    knot); D2g adds to the last knot."""
    X, dt = gamma.knots, gamma.dt
    # fvx entry [i, j] = d2f/dv_i dx_j
    fvv, (Bl, Br) = _ends(gamma, prob.fvv, prob.fvx)
    K = 0.5 * np.add(*fvv) / dt
    del fvv  # free it before the state Hessians are evaluated
    Blt, Brt = Bl.swapaxes(-1, -2), Br.swapaxes(-1, -2)
    diag = np.zeros(X.shape + X.shape[-1:])
    (Hl, Hr), = _ends(gamma, prob.rest[2])
    diag[..., :-1, :, :] += K - 0.5 * (Bl + Blt) + 0.5 * dt * Hl
    diag[..., 1:, :, :] += K + 0.5 * (Br + Brt) + 0.5 * dt * Hr
    if prob.V is not None:
        diag += (_trapezoid_weights(gamma.N, dt)[:, None, None]
                 * (Vk or _knot_V(prob, gamma, 2))[2])
    diag[..., -1, :, :] += _at_end(prob.D2g, X)
    upper = 0.5 * (Blt - Br) - K  # block (knot i, knot i+1)
    return diag[..., 1:, :, :], upper[..., 1:, :, :]


def _tridiag_matvec(D: np.ndarray, U: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x for the symmetric block-tridiagonal H with diagonal blocks D and
    upper blocks U; x is (..., N, m)."""
    y = np.einsum("...iab,...ib->...ia", D, x)
    y[..., :-1, :] += np.einsum("...iab,...ib->...ia", U, x[..., 1:, :])
    y[..., 1:, :] += np.einsum("...iba,...ib->...ia", U, x[..., :-1, :])
    return y


def _tridiag_solve(D: np.ndarray, U: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve H x = r for the symmetric block-tridiagonal H with diagonal
    blocks D (..., N, m, m) and upper blocks U (..., N - 1, m, m); r is
    (..., N, m), the leading axes a batch of independent systems.

    Block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    1970): one batched solve with the even rows' diagonal blocks leaves the
    odd rows' symmetric block-tridiagonal system of half the size.  A
    singular pivot raises LinAlgError."""
    N, m = D.shape[-3], D.shape[-1]
    if N == 1:
        return np.linalg.solve(D, r[..., None])[..., 0]
    ne, mo = (N + 1) // 2, N // 2
    zero = np.zeros_like(D[..., :1, :, :])
    Up = np.concatenate([zero, U, zero], axis=-3)  # Up[i]: block (i - 1, i)
    # even row 2j: x_2j = S_r - S_l x_{2j-1} - S_u x_{2j+1}
    S = np.linalg.solve(D[..., 0::2, :, :], np.concatenate(
        [Up[..., 0:2 * ne:2, :, :].swapaxes(-1, -2),
         Up[..., 1:2 * ne:2, :, :], r[..., 0::2, :, None]], axis=-1))
    S = np.concatenate([S, np.zeros_like(S[..., :1, :, :])], axis=-3)
    # odd row 2j+1, via x_2j (A) and via x_{2j+2} (B)
    A = Up[..., 1:2 * mo:2, :, :].swapaxes(-1, -2) @ S[..., :mo, :, :]
    B = Up[..., 2:2 * mo + 1:2, :, :] @ S[..., 1:mo + 1, :, :]
    x_odd = _tridiag_solve(D[..., 1::2, :, :] - A[..., m:2 * m] - B[..., :m],
                           -B[..., :-1, :, m:2 * m],
                           r[..., 1::2, :] - A[..., 2 * m] - B[..., 2 * m])
    xp = np.concatenate([zero[..., 0, :], x_odd, zero[..., 0, :]],
                        axis=-2)  # xp[j] = x_{2j-1}
    x = np.empty_like(r)
    x[..., 0::2, :] = S[..., :ne, :, 2 * m] - np.einsum(
        "...jab,...jb->...ja", S[..., :ne, :, :2 * m],
        np.concatenate([xp[..., :ne, :], xp[..., 1:ne + 1, :]], axis=-1))
    x[..., 1::2, :] = x_odd
    return x


def _cost_and_grad(prob: Problem, dom: Domain, params: PenaltyParams,
                   gamma: Trajectory, need_grad: bool = True,
                   geo: BoundaryEval | None = None):
    """Discrete cost per member, its gradient with respect to knots 1..N
    (knot 0 is the pinned initial state) and the first-order geometry of
    the knots' points (k per knot, in knot order), which the caller may
    pass in as ``geo`` when it already has it."""
    X, dt, eps = gamma.knots, gamma.dt, np.asarray(params.epsilon)
    if geo is None:
        geo = dom.eval(X.reshape(-1, dom.dim), hess=False)
    Vk = _knot_V(prob, gamma, int(need_grad))
    # per knot, the penalty-weighted distance of its points
    d = np.maximum(geo.b, 0.0).reshape(X.shape[:-1] + (-1,)) @ params.weights
    w = _trapezoid_weights(gamma.N, dt)
    # (d w) as one dot product per member, whatever the batch size
    cost = (running_cost(prob, gamma, Vk=Vk)
            + (d[..., None, :] @ w)[..., 0] / eps
            + d[..., -1] / params.delta
            + _at_end(prob.g, X))
    if not need_grad:
        return cost, None, geo

    G = _action_grad(prob, gamma, Vk)
    # gradient selection of d = max(b, 0): 0 inside, Db outside, and the
    # midpoint Db/2 on the boundary band (fixed tie-break)
    tol = dom.boundary_tol
    scale = np.where(geo.b > tol, 1.0, np.where(geo.b > -tol, 0.5, 0.0))
    scale *= np.tile(params.weights, geo.b.size // params.weights.size)
    dgrad = (geo.Db * scale[:, None]).reshape(X.shape[:-1] + (-1,))
    G += (w / eps[..., None])[..., None] * dgrad
    G[..., -1, :] += dgrad[..., -1, :] / params.delta
    return cost, G, geo


def _stationarity(dom: Domain, params: PenaltyParams, gamma: Trajectory,
                  G: np.ndarray, geo: BoundaryEval):
    """Minimal-norm element of the discrete subdifferential, per member.

    G carries the midpoint selection Db/2 at boundary-band points; those rows
    admit any coefficient in [0, c] on Db, c from ``_point_weights``, so the
    best choice is projected out before taking the norm.
    """
    band = np.abs(geo.b) <= dom.boundary_tol
    R = G.reshape(-1, dom.dim).copy()  # one row per point
    if np.any(band):
        Db = geo.Db[band]
        c = _point_weights(params, gamma.N, gamma.dt)
        half = 0.5 * np.broadcast_to(c, G.shape[:-2] + c.shape[-1:]).ravel()[
            band]
        # G used coefficient c/2; admissible shifts are s in [-c/2, +c/2]
        proj = np.einsum("mi,mi->m", R[band], Db)
        shift = np.clip(-proj, -half, half)
        R[band] += shift[:, None] * Db
    R = R.reshape(G.shape[:-2] + (-1, dom.dim))
    R[..., :params.weights.size, :] = 0.0  # pinned knot
    return np.max(np.abs(R), axis=(-2, -1))


def _block_diag(A: np.ndarray) -> np.ndarray:
    """(..., k, n, n) blocks as (..., k n, k n) block-diagonal matrices."""
    *lead, k, n, _ = A.shape
    out = np.zeros((*lead, k, n, k, n))
    i = np.arange(k)
    out[..., i, :, i, :] = np.moveaxis(A, -3, 0)
    return out.reshape(*lead, k * n, k * n)


def _kkt_step(D: np.ndarray, U: np.ndarray, g: np.ndarray, Db: np.ndarray,
              b: np.ndarray, act: np.ndarray):
    """Newton step dx and multipliers mu of H dx + C^T mu = -g, C dx = -b_act,
    per member: H has blocks D (B, N, m, m), U over knots; g, Db, b are per
    free point; C has a row Db_p per point p where the mask ``act`` holds.
    Each row is eliminated in its own knot block: with u = Db/|Db|,
    Q = sum u u^T and P = I - Q, dx = y + x_p, x_p = sum -b u/|Db| and
    (P H P + Q) y = -P (g + H x_p); then mu = -u^T (H dx + g)/|Db|.  With
    no row in the batch that is H dx = -g and mu = 0.  A member whose
    elimination meets a singular pivot gets a NaN step."""
    (N, m), n, args = D.shape[-3:-1], g.shape[-1], (D, U, g, Db, b, act)
    try:
        if not np.any(act):
            return (_tridiag_solve(D, U, -g.reshape(D.shape[:-1])),
                    np.zeros(b.shape))
        s = np.where(act, np.linalg.norm(Db, axis=-1), 1.0)
        nh = np.where(act[..., None], Db / s[..., None], 0.0)
        xp = np.where(act[..., None], -(b / s)[..., None] * nh, 0.0)
        Q = _block_diag(np.einsum("...pa,...pb->...pab", nh, nh).reshape(
            D.shape[:-3] + (N, -1, n, n)))
        P = np.eye(m) - Q
        g, xp = g.reshape(D.shape[:-1]), xp.reshape(D.shape[:-1])
        r = -np.einsum("...iab,...ib->...ia", P, g + _tridiag_matvec(D, U, xp))
        dx = _tridiag_solve(P @ D @ P + Q,
                            P[..., :-1, :, :] @ U @ P[..., 1:, :, :], r) + xp
    except np.linalg.LinAlgError:  # solve the members one by one
        if len(D) == 1:
            return np.full(D.shape[:-1], np.nan), np.zeros(b.shape)
        parts = [_kkt_step(*(a[i:i + 1] for a in args)) for i in range(len(D))]
        return tuple(map(np.concatenate, zip(*parts)))
    res = (_tridiag_matvec(D, U, dx) + g).reshape(nh.shape)
    return dx, np.where(act, -np.einsum("...pi,...pi->...p", nh, res) / s,
                        0.0)


def _part(idx: np.ndarray, size: int):
    """The sorted indices ``idx`` into ``size`` rows, as a slice (a view,
    not a copy) when they take them all."""
    return idx if idx.size < size else slice(None)


def _newton_finish(prob: Problem, dom: Domain, params: PenaltyParams,
                   traj: Trajectory, cost):
    """Newton's method on the penalized problem for each member of the batch
    ``traj`` (knots (B, N+1, k n)) from its penalized costs ``cost`` (B,);
    each member keeps its own groups, multipliers, backtracking, 30-step
    cap and stop rule, so it takes the steps of its solo finish.  A knot
    carries k = ``params.weights.size`` points (one per agent of a joint
    solve), each inside (b < 0, no penalty), outside (b > 0, penalty c b, c
    from ``_point_weights``) or on the boundary (a row b = 0 with its
    multiplier in [0, c]).  Each step solves the KKT system of the action's
    exact block-tridiagonal Hessian (Nocedal & Wright, Numerical
    Optimization, 2nd ed., ch. 18) by ``_kkt_step``; primal-dual active-set
    updates (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002) release
    a boundary point whose multiplier leaves [0, c] to its side; a point
    whose step crosses b = 0 joins the boundary, as do the inside points in
    the kink band that block a step with no decrease.  Backtracking on the
    penalized cost keeps the groups from cycling; a singular pivot ends the
    member's finish.  Returns the best trajectories and each member's
    accepted steps; the caller certifies them."""
    X = traj.knots.copy()
    B, N, n, k = X.shape[0], traj.N, dom.dim, params.weights.size
    t0, t1 = traj.t0, traj.t1
    eps = np.broadcast_to(np.asarray(params.epsilon, dtype=float), (B,))
    c = np.broadcast_to(_point_weights(params, N, traj.dt),
                        (B, (N + 1) * k))[:, k:]  # per free point
    cost = np.array(cost, dtype=float)
    # per member: b, Db, D2b and P of its points
    gb, gDb, gD2b, gP = (a.reshape((B, -1) + a.shape[1:])
                         for a in dom.eval(X.reshape(-1, n)))
    # a start's points within this kink band of b = 0 join the boundary; a
    # wider band pins interior knots, which are then released one by one
    band = 1e-5 * dom.diameter
    outside = gb[:, k:] > band
    boundary = np.abs(gb[:, k:]) <= band
    mult = np.zeros((B, N * k))
    step = np.zeros_like(X)  # knot 0 is pinned
    steps, live = np.zeros(B, int), np.arange(B)  # live: members still going
    for _ in range(30):
        if not live.size:
            break
        front = Trajectory(t0, t1, X[_part(live, B)])
        Vk = _knot_V(prob, front, 2)  # for the gradient and the Hessian
        grad = _action_grad(prob, front, Vk)[:, 1:].reshape(live.size, -1, n)
        H, U = _action_hessian(prob, front, Vk)
        dx = np.empty((live.size, N, k * n))
        todo = np.arange(live.size)
        while todo.size:  # re-solve until no boundary multiplier releases
            M, sel = live[todo], _part(todo, live.size)
            Db, b, cM = gDb[M, k:], gb[M, k:], c[M]
            out, bnd = outside[M], boundary[M]
            g = np.where(out[..., None], grad[sel] + cM[..., None] * Db,
                         grad[sel])
            # curvature only where the penalty acts: inside knots may sit on
            # a focal point, where D2b is inf/NaN
            curved, Hs = out | bnd, H[sel]
            if np.any(curved):
                curv = np.zeros(Db.shape + (n,))
                curv[curved] = (np.where(out, cM, mult[M])[curved, None, None]
                                * gD2b[M, k:][curved])
                Hs = Hs + _block_diag(curv.reshape(-1, N, k, n, n))
            dx[sel], mu = _kkt_step(Hs, U[sel], g, Db, b, bnd)
            # a multiplier out of [0, c] releases its point only toward the
            # side it sits on, which keeps the step a descent direction
            low = bnd & (mu < -1e-10 * cM) & (b <= dom.boundary_tol)
            high = bnd & (mu > (1 + 1e-10) * cM) & (b >= -dom.boundary_tol)
            mult[M] = np.where(bnd, np.clip(mu, 0.0, cM), mult[M])
            boundary[M] = bnd & ~(low | high)
            outside[M] = out | high
            todo = todo[np.any(low | high, axis=1)]
        step[live, 1:] = dx
        # singular system: as no decrease, keep the best point
        search = finite = live[np.all(np.isfinite(dx), axis=(1, 2))]
        alpha, moved = np.ones(B), [live[:0]]
        while search.size:
            trial = X[search] + alpha[search, None, None] * step[search]
            geo_t = dom.eval(trial.reshape(-1, n))
            cost_t = _cost_and_grad(
                prob, dom, replace(params, epsilon=eps[search]),
                Trajectory(t0, t1, trial), need_grad=False, geo=geo_t)[0]
            ok = cost_t <= cost[search] + 1e-14 * (1.0 + np.abs(cost[search]))
            acc = search[ok]
            X[acc], cost[acc] = trial[ok], cost_t[ok]
            for mine, new in zip((gb, gDb, gD2b, gP), geo_t):
                mine[acc] = new.reshape((search.size, -1) + new.shape[1:])[ok]
            moved.append(acc)
            # no decrease along the step: keep the best point
            alpha[search[~ok]] *= 0.5
            search = search[~ok & (alpha[search] >= 1e-10)]
        trial = geo_t = None  # free them before the next step's Hessian
        acc = np.sort(np.concatenate(moved))
        steps[acc] += 1
        # no decrease at any trial step: the member's inside points in the
        # band that the step moves outward block it (Nocedal & Wright, 2nd
        # ed., sec. 16.5); they join the boundary and the member re-solves
        stuck = finite[alpha[finite] < 1e-10]
        outward = np.einsum("spi,spi->sp", gDb[stuck, k:],
                            step[stuck, 1:].reshape(-1, N * k, n)) > 0.0
        blocking = (outward & ~outside[stuck] & ~boundary[stuck]
                    & (np.abs(gb[stuck, k:]) <= band))
        boundary[stuck] |= blocking
        b = gb[acc, k:]
        # a point that crossed b = 0, or whose step stopped on the kink of
        # the penalty, joins the boundary; left out, the kink would cut
        # every later line search short
        bnd, out = boundary[acc], outside[acc]
        crossed = ~bnd & ((out & (b < 0.0)) | (~out & (b > 0.0))
                          | (np.abs(b) <= dom.boundary_tol))
        boundary[acc] = bnd | crossed
        outside[acc] = out & ~crossed
        size = np.max(np.abs(alpha[acc, None, None] * step[acc]), axis=(1, 2))
        live = np.sort(np.concatenate([
            acc[size >= 1e-13 * (1.0 + dom.diameter)],
            stuck[np.any(blocking, axis=1)]]))
    X[:, 1:] = np.where(boundary[..., None], gP[:, k:],
                        X[:, 1:].reshape(B, -1, n)).reshape(B, N, -1)
    return Trajectory(t0, t1, X), steps


def _certificate(prob: Problem, dom: Domain, params: PenaltyParams,
                 traj: Trajectory):
    """The certificate of a penalized minimizer: the minimal-norm element of
    the subdifferential must fall below 1e-8 (1 + |cost|).  Returns, per
    member, that norm, whether it certifies and the largest b."""
    cost, G, geo = _cost_and_grad(prob, dom, params, traj)
    stat = _stationarity(dom, params, traj, G, geo)
    bmax = np.max(geo.b.reshape(np.shape(stat) + (-1,)), axis=-1)
    return stat, stat < 1e-8 * (1.0 + np.abs(cost)), bmax


def _solve_level(prob: Problem, dom: Domain, params: PenaltyParams, x0s,
                 inits: list):
    """One level of the epsilon ladder: member i, pinned at x0s[i], starts
    from inits[i] (from the constant trajectory at x0s[i] if None) at
    ``params.epsilon[i]``; one Newton finish solves all.  A knot of the
    problem's state carries k = ``params.weights.size`` points of the
    domain.  Returns per member its certified trajectory or MaxIterations,
    Runaway (a point is a diameter outside) or NonFiniteCost, and the
    Newton steps."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    B = x0s.shape[0]
    if prob.dim != params.weights.size * dom.dim:
        raise ValueError(f"a knot of dimension {prob.dim} does not hold "
                         f"{params.weights.size} points of the domain's "
                         f"dimension {dom.dim}")
    if np.any(dom.b_many(x0s.reshape(-1, dom.dim)) > dom.boundary_tol):
        raise ValueError("initial state must lie in the closed domain")
    eps = np.broadcast_to(np.asarray(params.epsilon, dtype=float), (B,))
    leash = dom.rho0 + dom.diameter
    out: list = [None] * B
    inits = [Trajectory.constant(0.0, prob.horizon, x0, params.N)
             if init is None else init for x0, init in zip(x0s, inits)]
    grids = {(init.t0, init.t1, init.N) for init in inits}
    if len(grids) != 1:
        raise ValueError("the members of a batch share one time grid")
    (t0, t1, N), = grids
    if N != params.N:
        raise ValueError("init grid does not match params.N")
    X = np.stack([init.knots for init in inits])
    X[:, 0] = x0s
    cost = penalized_cost(prob, dom, replace(params, epsilon=eps),
                          Trajectory(t0, t1, X))
    for i in np.flatnonzero(~np.isfinite(cost)):
        out[i] = NonFiniteCost(f"penalized cost became {cost[i]}")
    run = np.flatnonzero(np.isfinite(cost))
    if not run.size:
        return out, 0
    sub = replace(params, epsilon=eps[run])
    traj, steps = _newton_finish(prob, dom, sub, Trajectory(t0, t1, X[run]),
                                 cost[run])
    stat, ok, bmax = _certificate(prob, dom, sub, traj)
    for j, i in enumerate(run):
        if not ok[j]:
            out[i] = MaxIterations(
                f"stationarity stalled at {stat[j]:.3e}",
                Trajectory(t0, t1, traj.knots[j]) if steps[j] else None)
        elif bmax[j] > leash:
            out[i] = Runaway("minimizer left the tube; epsilon is too large")
        else:
            out[i] = Trajectory(t0, t1, traj.knots[j])
    return out, int(np.sum(steps))


def minimize_penalized(prob: Problem, dom: Domain, params: PenaltyParams,
                       x0, init: Trajectory | None = None) -> Trajectory:
    """Minimize the penalized cost over the free knots 1..N from ``init``
    (knot 0 reset to x0), or from the constant trajectory at x0, each knot
    holding ``params.weights.size`` points of the domain: one
    ``_solve_level`` for a batch of one, raising its failure."""
    (gamma,), _ = _solve_level(prob, dom, params, [x0], [init])
    if isinstance(gamma, Exception):
        raise gamma
    return gamma


def feasibility_gap(dom: Domain, gamma: Trajectory) -> float:
    """max_t d(gamma(t)) over each of the knots' points; for convex domains
    the segment maximum is attained at the knots."""
    return float(np.max(np.maximum(
        dom.b_many(gamma.knots.reshape(-1, dom.dim)), 0.0)))


def epsilon_schedule_batch(prob: Problem, dom: Domain, x0s, delta: float,
                           N: int = 256, *, inits, eps0s=1.0,
                           weights=(1.0,)) -> list:
    """The epsilon ladder for B members on one time grid: member i, pinned
    at x0s[i], starts from inits[i] at eps0s[i] (shared or one each) and
    halves its epsilon until its minimizer is feasible to 1e-6 diam, each
    level warm from the last.  After Runaway it restarts from its init,
    after MaxIterations from its finish's best point (logged on
    ``statecon``); a second finish in a row that accepts no step, from the
    same start, ends it.  Each round is one ``_solve_level``, logged on
    ``statecon.ladder``.  Members share numpy calls, not iterates: each gets
    the floats of its batch-of-one solve if the problem treats rows one by
    one (a matrix-vector product over 8 or more columns may not).  Returns
    per member its trajectory and final parameters, or the NonFiniteCost,
    MaxIterations or ScheduleExhausted that ended it.  ``weights`` are the
    penalty weights of the k points per knot (``PenaltyParams``)."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    B = x0s.shape[0]
    eps, tau = np.ones(B) * eps0s, FEASIBILITY_TOL_FACTOR * dom.diameter
    gammas, out, live = list(inits), [None] * B, np.arange(B)
    stuck = [False] * B  # the member's last finish accepted no step
    for level in range(MAX_HALVINGS + 1):
        if not live.size:
            break
        params = PenaltyParams(epsilon=eps[live], delta=delta, N=N,
                               weights=weights)
        results, steps = _solve_level(prob, dom, params, x0s[live],
                                      [gammas[i] for i in live])
        kinds = []
        for i, res in zip(live, results):
            again = stuck[i]
            stuck[i] = isinstance(res, MaxIterations) and res.best is None
            if stuck[i] and again:  # the same start stalled twice
                out[i], kind = res, "failed"
            elif isinstance(res, (Runaway, MaxIterations)):
                log.info("epsilon ladder restart after %s: %s (eps=%g, N=%d)",
                         type(res).__name__, res, eps[i], N)
                if isinstance(res, Runaway):  # too weak a penalty
                    gammas[i] = inits[i]
                elif res.best is not None:
                    gammas[i] = res.best
                kind = "restarted"
            elif isinstance(res, Exception):
                out[i], kind = res, "failed"
            elif feasibility_gap(dom, res) <= tau:
                out[i], kind = (res, replace(
                    params, epsilon=float(eps[i]))), "feasible"
            else:
                gammas[i], kind = res, "halved"
            if out[i] is None:
                eps[i] *= 0.5
            kinds.append(kind)
        rounds.info("ladder round %d (N=%d): %d solved, %d certified, "
                    "%d feasible, %d restarted, %d Newton steps", level, N,
                    live.size, kinds.count("feasible") + kinds.count("halved"),
                    kinds.count("feasible"), kinds.count("restarted"), steps)
        live = np.array([i for i in live if out[i] is None], dtype=int)
    for i in live:  # still on the ladder after MAX_HALVINGS halvings
        gap = (feasibility_gap(dom, gammas[i]) if gammas[i] is not None
               else float("inf"))
        out[i] = ScheduleExhausted(
            f"feasibility {gap:.3e} > {tau:.3e} after {MAX_HALVINGS} "
            "halvings; check assumptions or refine the grid")
    return out


def epsilon_schedule(prob: Problem, dom: Domain, x0, delta: float,
                     N: int = 256, init: Trajectory | None = None,
                     eps0: float = 1.0, weights=(1.0,)):
    """``epsilon_schedule_batch`` for one member, raising its failure.  To
    refine a converged coarse solution, pass its epsilon as eps0 to skip
    the weak-penalty levels it already went through."""
    (out,) = epsilon_schedule_batch(prob, dom, [x0], delta, N=N,
                                    inits=[init], eps0s=eps0,
                                    weights=weights)
    if isinstance(out, Exception):
        raise out
    return out


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
