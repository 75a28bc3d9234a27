"""Adjoint recovery, boundary multipliers, and maximum-principle residuals.

Given a certified minimizer, the co-state is read off from convex duality
p = -D_v f(t, gamma, gamma'), the constraint multiplier is extracted from the
adjoint equation residual on contact arcs, and the explicit feedback formula
for the multiplier is evaluated independently for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BOUNDARY_TOL_FACTOR, BoundaryEval, Domain, OutsideTube
from .model import (AssumptionReport, Hamiltonian, HamiltonianDerivs, Problem,
                    check_assumptions, measure_hamiltonian_constants)
from .penalty import PenaltyParams, Trajectory


class NegativeMultiplier(RuntimeError):
    """The extracted constraint multiplier is significantly negative: the
    candidate is not a constrained minimizer."""


class LeftTube(RuntimeError):
    pass


MULTIPLIER_TOL_FACTOR = 1e-4


def contact_mask(dom: Domain, gamma: Trajectory,
                 geo: BoundaryEval | None = None) -> np.ndarray:
    """Knots lying on the boundary (within ``dom.boundary_tol``); ``geo``,
    when given, is the geometry of the knots, evaluated already."""
    b = (dom.eval(gamma.knots, hess=False) if geo is None else geo).b
    return np.abs(b) <= dom.boundary_tol


def _runs(mask: np.ndarray):
    """Maximal runs of constant mask value, as (start, stop) inclusive."""
    out = []
    a = 0
    for i in range(1, len(mask) + 1):
        if i == len(mask) or mask[i] != mask[a]:
            out.append((a, i - 1))
            a = i
    return out


def junction_clear_mask(mask: np.ndarray) -> np.ndarray:
    """Knots at least two grid points away from a contact/interior switch.

    The multiplier measure may carry atoms where an arc lands on or leaves
    the boundary, and the discrete junction time is quantized to the grid, so
    pointwise ODE residuals are only meaningful in the interior of maximal
    runs.
    """
    m = np.asarray(mask, bool)
    keep = np.ones(m.size, bool)
    for j in np.flatnonzero(m[1:] != m[:-1]):
        keep[max(j - 1, 0):j + 3] = False
    return keep


def grid_derivative(Y: np.ndarray, dt: float,
                    mask: np.ndarray | None = None) -> np.ndarray:
    """Second-order time derivative on the knot grid.

    When a contact mask is supplied, differences never straddle a junction
    between contact and interior runs: second derivatives of the arc jump
    there, and one-sided second-order stencils keep the O(dt^2) accuracy.
    """
    Y = np.asarray(Y, dtype=float)
    N1 = Y.shape[0]
    D = np.zeros_like(Y)
    runs = [(0, N1 - 1)] if mask is None else _runs(np.asarray(mask, bool))
    for a, b in runs:
        ln = b - a
        if ln == 0:
            # isolated knot: centered across the junction, clamped at the ends
            lo, hi = max(a - 1, 0), min(a + 1, N1 - 1)
            D[a] = (Y[hi] - Y[lo]) / ((hi - lo) * dt)
        elif ln == 1:
            D[a] = D[b] = (Y[b] - Y[a]) / dt
        else:
            D[a + 1:b] = (Y[a + 2:b + 1] - Y[a:b - 1]) / (2 * dt)
            D[a] = (-3 * Y[a] + 4 * Y[a + 1] - Y[a + 2]) / (2 * dt)
            D[b] = (3 * Y[b] - 4 * Y[b - 1] + Y[b - 2]) / (2 * dt)
    return D


def _feedback(Db: np.ndarray, D2b: np.ndarray,
              d: HamiltonianDerivs) -> np.ndarray:
    """The feedback formula of ``feedback_lambda_many`` from geometry and
    Hamiltonian derivatives already evaluated at the same points."""
    theta = np.einsum("mi,mij,mj->m", Db, d.DppH, Db)
    num = (-np.einsum("mij,mi,mj->m", D2b, d.DpH, d.DpH)
           + np.einsum("mi,mi->m", Db, d.DptH)
           - np.einsum("mi,mij,mj->m", Db, d.DpxH, d.DpH)
           + np.einsum("mi,mij,mj->m", Db, d.DppH, d.DxH))
    return num / theta


def feedback_lambda_many(ham: Hamiltonian, dom: Domain, t, X, P) -> np.ndarray:
    """Explicit boundary feedback multiplier.

    Derived from d^2/dt^2 [b(gamma)] = 0 along sliding arcs of
    gamma' = -DpH, p' = DxH - lam Db:

        lam = (-D2b[DpH, DpH] + <Db, DptH> - <Db, DpxH DpH>
               + <Db, DppH DxH>) / <Db, DppH Db>,

    with DptH = fvv^-1 d_t fv at (t, x, v*) (``Hamiltonian.derivs_many``).
    The time-mixed term enters with a plus sign.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    b, Db, D2b, _ = dom.eval(X)
    if np.any(np.abs(b) >= dom.rho0):
        raise OutsideTube("feedback multiplier needs |b| < rho0")
    return _feedback(Db, D2b, ham.derivs_many(t, X, P))


def feedback_lambda(ham: Hamiltonian, dom: Domain, t, x, p) -> float:
    return float(feedback_lambda_many(ham, dom, t, x, p)[0])


@dataclass
class Extremal:
    """Minimizer bundled with its co-state, its multipliers and the data of
    its knots they are read off.

    lam stores the observable product (multiplier over epsilon); C is the
    measured growth constant C(mu, M') of H behind Lstar; K is the energy
    budget behind Lstar and the Hamiltonian-drift bound; params, when
    present, records the penalty run that produced gamma.  geo is the
    geometry of the knots; v and pdot are gamma' and p' on the knot grid;
    vstar is the conjugate maximizer at (t, gamma, p), so DpH = -vstar, and
    DxH = -fx(t, gamma, vstar).
    """

    gamma: Trajectory
    p: np.ndarray
    lam: np.ndarray
    beta_over_delta: float
    r: np.ndarray
    Lstar: float
    C: float
    K: float
    geo: BoundaryEval
    v: np.ndarray
    pdot: np.ndarray
    vstar: np.ndarray
    DxH: np.ndarray
    params: PenaltyParams | None = None


def _c1(prob: Problem, C: float, Dg_max: float, K: float) -> float:
    """C1 = 8 mu + 8 mu max|Dg|^2 + 2 C + kappa (T + 4 mu K)."""
    return (8 * prob.mu + 8 * prob.mu * Dg_max ** 2 + 2 * C
            + prob.kappa * (prob.horizon + 4 * prob.mu * K))


def velocity_bound(prob: Problem, report: AssumptionReport, C: float,
                   delta: float) -> float:
    """L* = C(mu, M') (2 sqrt(mu C1)/delta + 1), with C from
    ``measure_hamiltonian_constants`` and K and max |Dg| from ``report``."""
    return C * (2.0 * np.sqrt(prob.mu * _c1(prob, C, report.Dg_max,
                                            report.K)) / delta + 1.0)


def make_extremal(prob: Problem, dom: Domain, gamma: Trajectory,
                  params: PenaltyParams | None = None) -> Extremal:
    """Assemble the full first-order bundle from a certified minimizer, from
    one evaluation of its knots' geometry and one conjugate solve.

    gamma' and p' are differenced within contact runs.  The co-state comes
    from duality, p = -D_v f(t, gamma, gamma'); the multiplier lam is the
    projection on Db of the adjoint-equation defect DxH - p' at contact
    knots (zero off contact), and nu that of p(T) - Dg at a terminal
    contact; r = H(t, gamma, p), minus the penalty well d/eps when
    ``params`` records a penalized run.  K, C and L* come from
    ``check_assumptions`` and ``measure_hamiltonian_constants``.
    """
    t, X = gamma.times, gamma.knots
    geo = dom.eval(X, hess=False)
    mask = contact_mask(dom, gamma, geo=geo)
    v = grid_derivative(X, gamma.dt, mask)
    p = -prob.fv(t, X, v)
    pdot = grid_derivative(p, gamma.dt, mask)
    H, vstar = Hamiltonian(prob).legendre_many(t, X, p)
    DxH = -prob.fx(t, X, vstar)
    lam = np.zeros(gamma.N + 1)
    lam[mask] = np.einsum("mi,mi->m", (DxH - pdot)[mask], geo.Db[mask])
    mx = float(np.max(lam, initial=0.0))
    # junction knots see the atomic part of the multiplier measure; the sign
    # condition is only checked in the interior of contact runs
    clear = lam[junction_clear_mask(mask)]
    if clear.size and float(np.min(clear)) < -MULTIPLIER_TOL_FACTOR * max(
            mx, 1e-12):
        raise NegativeMultiplier(
            f"multiplier reaches {np.min(clear):.3e}; candidate is not a "
            "constrained minimizer")
    nu = (float(np.dot(p[-1] - prob.Dg(X[-1:])[0], geo.Db[-1])) if mask[-1]
          else 0.0)
    r = H if params is None else H - np.maximum(geo.b, 0.0) / params.epsilon
    rep = check_assumptions(prob, dom)
    delta = params.delta if params is not None else 1.0
    _, C = measure_hamiltonian_constants(prob, dom)
    return Extremal(gamma=gamma, p=p, lam=lam, beta_over_delta=nu, r=r,
                    Lstar=velocity_bound(prob, rep, C, delta), C=C, K=rep.K,
                    geo=geo, v=v, pdot=pdot, vstar=vstar, DxH=DxH,
                    params=params)


@dataclass
class PMPReport:
    checks: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def check_extremal(prob: Problem, dom: Domain, ex: Extremal) -> PMPReport:
    """Residual report for the full first-order system, read off the data
    ``make_extremal`` evaluated.

    Tolerances for the two ODE residuals scale as 1 / N; transversality is
    held to 1e-6.
    """
    gamma, p, geo = ex.gamma, ex.p, ex.geo
    mask = contact_mask(dom, gamma, geo=geo)
    tol_ode = 1.0 / gamma.N

    rep = PMPReport()
    res_state = np.linalg.norm(ex.v - ex.vstar, axis=1)
    rep.residuals["state_ode"] = float(np.max(res_state))
    rep.checks["state_ode"] = rep.residuals["state_ode"] < tol_ode

    rhs = ex.DxH.copy()
    rhs[mask] -= ex.lam[mask, None] * geo.Db[mask]
    res_adj = np.linalg.norm(ex.pdot - rhs, axis=1)
    keep = junction_clear_mask(mask)
    rep.residuals["adjoint_ode"] = float(np.max(res_adj[keep]))
    rep.checks["adjoint_ode"] = rep.residuals["adjoint_ode"] < tol_ode

    pT_target = prob.Dg(gamma.knots[-1:])[0]
    if mask[-1]:
        pT_target = pT_target + ex.beta_over_delta * geo.Db[-1]
    rep.residuals["transversality"] = float(np.linalg.norm(p[-1] - pT_target))
    rep.checks["transversality"] = rep.residuals["transversality"] < 1e-6

    rdot = grid_derivative(ex.r, gamma.dt, mask)
    drift = float(np.sum(np.abs(rdot[keep])) * gamma.dt)
    bound = prob.kappa * (prob.horizon + 4 * prob.mu * ex.K)
    rep.residuals["hamiltonian_drift"] = drift
    rep.checks["hamiltonian_drift"] = drift <= bound + 1e-6 * (
        1.0 + abs(ex.r[0]))

    vmax = float(np.max(np.linalg.norm(ex.v, axis=1)))
    rep.residuals["speed"] = vmax
    rep.checks["speed"] = vmax <= ex.Lstar * (1.0 + 1e-9)

    if ex.params is not None:
        C1 = _c1(prob, ex.C, float(np.max(np.linalg.norm(
            prob.Dg(gamma.knots), axis=1))), ex.K)
        d = np.maximum(geo.b, 0.0)
        lhs = np.sum(p * p, axis=1)
        rhs_b = 4 * prob.mu * (d / ex.params.epsilon
                               + C1 / ex.params.delta ** 2)
        gap = float(np.max(lhs - rhs_b))
        rep.residuals["adjoint_bound"] = gap
        rep.checks["adjoint_bound"] = gap <= 1e-9

    return rep


def shoot(ham: Hamiltonian, dom: Domain, x0, p0, T: float | None = None,
          N: int = 1024, feedback_on: bool = True):
    """RK4 integration of the coupled state/co-state system.

    The boundary feedback term is applied only when the state touches the
    boundary with outward-pointing drift; grazing interior passes are left
    alone.  The activation band, diameter * max(1e-9, dt^2), scales with
    dt^2 because arcs that settle onto the boundary penetrate by the
    integrator's local error before the contact condition can fire.  Each
    stage evaluates the geometry and the Hamiltonian once.  Returns the
    trajectory and co-state samples.
    """
    T = ham.prob.horizon if T is None else T
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    n = x0.size
    dt = T / N
    X = np.empty((N + 1, n))
    P = np.empty((N + 1, n))
    X[0], P[0] = x0, p0
    tol = dom.diameter * max(BOUNDARY_TOL_FACTOR, dt * dt)

    def rhs(t, x, p):
        geo = dom.eval(x[None])
        b = float(geo.b[0])
        if b >= dom.rho0:
            raise LeftTube(f"state at signed distance {b:g} left the tube")
        d = ham.derivs_many(np.array([t]), x[None], p[None])
        xdot = -d.DpH[0]
        pdot = d.DxH[0]
        active = False
        if feedback_on and b >= -tol:
            Db = geo.Db[0]
            # the small negative allowance keeps sliding arcs engaged through
            # the integrator's inward jitter without catching real detachment
            if np.dot(Db, xdot) >= -np.linalg.norm(xdot) * dt:
                lam = float(_feedback(geo.Db, geo.D2b, d)[0])
                pdot = pdot - lam * Db
                active = True
        return xdot, pdot, active

    for i in range(N):
        t = i * dt
        x, p = X[i], P[i]
        k1x, k1p, active = rhs(t, x, p)
        k2x, k2p, _ = rhs(t + dt / 2, x + dt / 2 * k1x, p + dt / 2 * k1p)
        k3x, k3p, _ = rhs(t + dt / 2, x + dt / 2 * k2x, p + dt / 2 * k2p)
        k4x, k4p, _ = rhs(t + dt, x + dt * k3x, p + dt * k3p)
        X[i + 1] = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        P[i + 1] = p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        if active:
            # contact steps may not drift outward: retract onto the boundary
            geo = dom.eval(X[i + 1][None], hess=False)
            if 0.0 < geo.b[0] < 0.5 * dom.rho0:
                X[i + 1] = geo.P[0]
    return Trajectory(0.0, T, X), P

