"""Running/terminal cost models, their structural constants, and the convex
dual Hamiltonian.

All evaluators are batched: ``t`` has shape (m,), ``x`` and ``v`` shape (m, n);
scalars are broadcast.  Built-in problems are quadratic in the velocity,

    f(t, x, v) = 1/2 <A v, v> + <b, x>,   g(x) = <c, x>,

which keeps every second derivative exact and the conjugate Newton solve a
single step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Domain


class NewtonDiverged(RuntimeError):
    """The concave conjugate maximization failed; the problem data violate
    uniform convexity."""


def _batch(t, x, v=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
    if v is None:
        return t, x
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return t, x, v


# ---------------------------------------------------------------------------


@dataclass
class Problem:
    """Running cost f with first/second derivatives, terminal cost g, horizon,
    and declared structural constants (mu, M, kappa).

    The state Hessians ``fxx`` and ``D2g`` are required: with them the
    discrete action has an exact Hessian, on which the penalty solver
    finishes every minimization with Newton steps.

    ``V``, if given, is a state-only running cost: V(t, x, order) returns
    [value (m,), gradient (m, n), Hessian (m, n, n)][:order + 1] from one
    evaluation.  The ``f``, ``fx`` and ``fxx`` passed in are then the
    velocity-dependent rest, kept as ``rest``, and the fields become the
    full rest + V; one of them passed back in with the same V, as
    ``dataclasses.replace`` does, is read as its rest.  The discrete action
    evaluates V once per knot.
    """

    f: Callable          # (t, x, v) -> (m,)
    fx: Callable         # (t, x, v) -> (m, n)
    fv: Callable         # (t, x, v) -> (m, n)
    fvv: Callable        # (t, x, v) -> (m, n, n)
    fvx: Callable        # (t, x, v) -> (m, n, n), entry [i, j] = d2f/dv_i dx_j
    g: Callable          # (x,) -> (m,)
    Dg: Callable         # (x,) -> (m, n)
    horizon: float
    dim: int
    mu: float
    M: float
    kappa: float
    fxx: Callable        # (t, x, v) -> (m, n, n), d2f/dx_i dx_j
    D2g: Callable        # (x,) -> (m, n, n)
    V: Callable | None = None  # (t (m,), x (m, n), order) -> list, see above

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError("mu must satisfy mu >= 1 (uniform convexity of "
                             "the running cost requires it)")
        if self.M < 0:
            raise ValueError("M must be >= 0")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        V = self.V
        self.rest = tuple(
            fn.rest if V is not None and getattr(fn, "V", None) is V else fn
            for fn in (self.f, self.fx, self.fxx))
        if V is not None:
            def full(rest, k):  # rest plus V's k-th derivative
                def fn(t, x, v):
                    return rest(t, x, v) + V(*_batch(t, x), k)[k]
                fn.rest, fn.V = rest, V
                return fn
            self.f, self.fx, self.fxx = map(full, self.rest, range(3))


def quadratic_problem(dim: int, *, A=None, potential=None, terminal=None,
                      T: float = 1.0, mu: float | None = None,
                      M: float | None = None,
                      kappa: float | None = None) -> Problem:
    """Quadratic-in-velocity problem f(t, x, v) = 1/2 <A v, v> + <b, x> with
    terminal cost g(x) = <c, x>, where b is ``potential`` and c is
    ``terminal``: vectors of ``dim`` entries, None for zero.

    Any other cost is built as a ``Problem``, with its state-only part in
    ``Problem.V``."""
    A = np.eye(dim) if A is None else np.asarray(A, dtype=float)
    if A.shape != (dim, dim):
        raise ValueError(f"A must be {dim} x {dim}, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        # f uses all of A, eigvalsh below reads only one triangle
        raise ValueError("velocity matrix must be symmetric")
    b, c = (np.zeros(dim) if w is None else np.asarray(w, dtype=float)
            for w in (potential, terminal))
    for name, w in (("potential", b), ("terminal", c)):
        if w.shape != (dim,):
            raise ValueError(f"{name} must have {dim} entries, got shape "
                             f"{w.shape}")

    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise ValueError("velocity matrix must be positive definite")
    if mu is None:
        mu = max(1.0, eigs[-1], 1.0 / eigs[0])

    def f(t, x, v):
        t, x, v = _batch(t, x, v)
        return 0.5 * np.einsum("mi,ij,mj->m", v, A, v) + x @ b

    def fx(t, x, v):
        t, x, v = _batch(t, x, v)
        return np.broadcast_to(b, x.shape).copy()

    def fv(t, x, v):
        t, x, v = _batch(t, x, v)
        return v @ A.T

    def fvv(t, x, v):
        t, x, v = _batch(t, x, v)
        return np.broadcast_to(A, (x.shape[0], dim, dim)).copy()

    def zero2(t, x, v):  # fvx and fxx
        t, x, v = _batch(t, x, v)
        return np.zeros((x.shape[0], dim, dim))

    def g(x):
        return np.atleast_2d(x) @ c

    def Dg(x):
        return np.broadcast_to(c, np.atleast_2d(x).shape).copy()

    def D2g(x):
        return np.zeros((np.atleast_2d(x).shape[0], dim, dim))

    if M is None or kappa is None:
        raise ValueError("declare M and kappa explicitly (measured or derived)")

    return Problem(f=f, fx=fx, fv=fv, fvv=fvv, fvx=zero2, g=g, Dg=Dg,
                   horizon=T, dim=dim, mu=float(mu), M=float(M),
                   kappa=float(kappa), fxx=zero2, D2g=D2g)


# ---------------------------------------------------------------------------
# Hamiltonian (concave conjugate) and its derivatives


@dataclass
class HamiltonianDerivs:
    DxH: np.ndarray
    DpH: np.ndarray
    DppH: np.ndarray
    DpxH: np.ndarray
    DptH: np.ndarray


class Hamiltonian:
    """H(t, x, p) = sup_v { -<p, v> - f(t, x, v) } with derivative views.

    Sign conventions: DpH = -v*, p = -D_v f(v*), and trajectories follow
    gamma' = -DpH.
    """

    def __init__(self, prob: Problem):
        self.prob = prob

    def legendre_many(self, t, x, p):
        """Batched conjugate: returns (H values (m,), maximizers v* (m, n))."""
        t, x, p = _batch(t, x, p)
        v = self._maximizer(t, x, p)
        return -np.einsum("mi,mi->m", p, v) - self.prob.f(t, x, v), v

    def _maximizer(self, t, x, p):
        """v* by Newton's method on p + fv(t, x, v) = 0."""
        v = -p.copy()  # exact for f = |v|^2/2; good start in general
        for _ in range(50):
            r = p + self.prob.fv(t, x, v)
            if np.max(np.linalg.norm(r, axis=1)) < 1e-12:
                break
            step = np.linalg.solve(self.prob.fvv(t, x, v), r[:, :, None])[:, :, 0]
            v = v - step
        else:
            r = p + self.prob.fv(t, x, v)
            if np.max(np.linalg.norm(r, axis=1)) >= 1e-8:
                raise NewtonDiverged("conjugate maximization did not converge; "
                                     "check uniform convexity of the data")
        return v

    def value_many(self, t, x, p):
        return self.legendre_many(t, x, p)[0]

    def DpH_many(self, t, x, p):
        return -self._maximizer(*_batch(t, x, p))

    def derivs_many(self, t, x, p) -> HamiltonianDerivs:
        """All first derivatives of H and the second derivatives in p, from
        one conjugate solve.

        The p-derivatives come from implicit differentiation of
        p + fv(t, x, v*) = 0: DppH = fvv^-1, DpxH = fvv^-1 fvx and
        DptH = fvv^-1 d_t fv, all at (t, x, v*).  d_t fv is a central
        difference in t at fixed (x, v*); it is exactly zero when fv does not
        depend on t.  DptH enters the boundary feedback multiplier with a
        plus sign (see ``pmp.feedback_lambda_many``).
        """
        t, x, p = _batch(t, x, p)
        _, v = self.legendre_many(t, x, p)
        prob = self.prob
        fvv = prob.fvv(t, x, v)
        h = 1e-6 * max(1.0, prob.horizon)
        fvt = (prob.fv(t + h, x, v) - prob.fv(t - h, x, v)) / (2 * h)
        return HamiltonianDerivs(
            DxH=-prob.fx(t, x, v), DpH=-v, DppH=np.linalg.inv(fvv),
            DpxH=np.linalg.solve(fvv, prob.fvx(t, x, v)),
            DptH=np.linalg.solve(fvv, fvt[:, :, None])[:, :, 0])


# ---------------------------------------------------------------------------
# assumption verification

@dataclass
class CheckResult:
    passed: bool
    measured: float
    bound: float


@dataclass
class AssumptionReport:
    checks: dict
    C_mu_M: float            # measured growth constant (1.05 safety factor)
    measured: dict
    K: float                 # energy budget T (C_mu_M + M) + 2 max |g|
    Dg_max: float            # max |Dg|

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _draws(m: int, dim: int, T: float):
    """Times t, s uniform on [0, T] and a normal(0, 3^2) vector v in R^dim
    for each of m points, with no generator state: points i = 1..m of the R_d
    recurrence frac(1/2 + i phi^-(1..d)), phi^(d+1) = phi + 1 (M. Roberts,
    2018), d = 2 + 2 ceil(dim / 2), the last d - 2 paired by Box-Muller."""
    d = 2 + 2 * ((dim + 1) // 2)
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    u = (0.5 + np.outer(np.arange(1, m + 1), phi ** -np.arange(1.0, d + 1))) % 1
    # u lies in [0, 1), so log(1 - u) is finite
    r, a = np.sqrt(-2.0 * np.log1p(-u[:, 2::2])), 2.0 * np.pi * u[:, 3::2]
    v = np.hstack([r * np.cos(a), r * np.sin(a)])[:, :dim]
    return T * u[:, 0], T * u[:, 1], 3.0 * v


def _growth(F, v, Fv):
    """max |F(v)| / (1 + |v|) over the rows of v, given Fv = F(v), and over
    their directions at norm 1e4, where the ratio of an F of linear growth
    is within 1e-4 of its limit as |v| -> inf."""
    far = 1e4 / np.linalg.norm(v, axis=1)[:, None] * v
    return max(np.max(np.linalg.norm(Fw, axis=1)
                      / (1 + np.linalg.norm(w, axis=1)))
               for w, Fw in ((v, Fv), (far, F(far))))


def check_assumptions(prob: Problem, dom: Domain) -> AssumptionReport:
    """Verification of the structural inequalities and measurement of the
    derived growth constants, the energy budget K and max |Dg|: maxima over
    the points x of ``dom.tube_grid()``, each with its t, s and v of
    ``_draws``."""
    mu, M, kap = prob.mu, prob.M, prob.kappa
    x = dom.tube_grid()
    t, s, v = _draws(len(x), prob.dim, prob.horizon)
    zeros = np.zeros_like(v)

    checks = {}
    measured = {}

    # base bound at v = 0
    base = (np.abs(prob.f(t, x, zeros))
            + np.linalg.norm(prob.fx(t, x, zeros), axis=1)
            + np.linalg.norm(prob.fv(t, x, zeros), axis=1))
    m_base = float(np.max(base))
    checks["base_bound"] = CheckResult(m_base <= M * (1 + 1e-9) + 1e-12, m_base, M)

    # uniform convexity in v
    fvv = prob.fvv(t, x, v)
    eigs = np.linalg.eigvalsh(fvv)
    lo, hi = float(np.min(eigs)), float(np.max(eigs))
    checks["convexity_lower"] = CheckResult(lo >= 1.0 / mu - 1e-9, lo, 1.0 / mu)
    checks["convexity_upper"] = CheckResult(hi <= mu + 1e-9, hi, mu)

    # mixed derivative growth
    fvx = prob.fvx(t, x, v)
    nrm = np.linalg.norm(fvx, ord=2, axis=(1, 2))
    ratio = nrm / (1.0 + np.linalg.norm(v, axis=1))
    m_fvx = float(np.max(ratio))
    checks["mixed_growth"] = CheckResult(m_fvx <= mu + 1e-9, m_fvx, mu)

    # time Lipschitz of f and fv
    fval, fv = prob.f(t, x, v), prob.fv(t, x, v)
    df = np.abs(fval - prob.f(s, x, v))
    dfv = np.linalg.norm(fv - prob.fv(s, x, v), axis=1)
    dt = np.abs(t - s) + 1e-300
    m_lf = float(np.max(df / ((1 + np.linalg.norm(v, axis=1) ** 2) * dt)))
    m_lfv = float(np.max(dfv / ((1 + np.linalg.norm(v, axis=1)) * dt)))
    checks["time_lipschitz_f"] = CheckResult(m_lf <= kap + 1e-9, m_lf, kap)
    checks["time_lipschitz_fv"] = CheckResult(m_lfv <= kap + 1e-9, m_lfv, kap)

    # derived growth constants (measured, with safety factor)
    speed = np.linalg.norm(v, axis=1)
    c_fv = _growth(lambda w: prob.fv(t, x, w), v, fv)
    c_fx = np.max(np.linalg.norm(prob.fx(t, x, v), axis=1) / (1 + speed ** 2))
    c_low = np.max(speed ** 2 / (4 * mu) - fval)
    c_up = np.max(fval - 4 * mu * speed ** 2)
    C = 1.05 * float(max(c_fv, c_fx, c_low, c_up, 0.0))
    measured.update(grad_v_growth=float(c_fv), grad_x_growth=float(c_fx),
                    coercivity_offset=float(max(c_low, 0.0)),
                    upper_offset=float(max(c_up, 0.0)))

    K = prob.horizon * (C + M) + 2.0 * float(np.max(np.abs(prob.g(x))))
    Dg_max = float(np.max(np.linalg.norm(prob.Dg(x), axis=1)))
    return AssumptionReport(checks=checks, C_mu_M=C, measured=measured, K=K,
                            Dg_max=Dg_max)


def measure_hamiltonian_constants(prob: Problem, dom: Domain):
    """Measured M' (p = 0 bound) and C(mu, M') growth constant for H, as in
    ``check_assumptions`` with p the v of ``_draws``."""
    ham = Hamiltonian(prob)
    x = dom.tube_grid()
    t, _, p = _draws(len(x), prob.dim, prob.horizon)
    # one conjugate solve at p = 0: DxH = -fx(t, x, v*) and DpH = -v*
    H0, v0 = ham.legendre_many(t, x, np.zeros_like(p))
    Mp = float(np.max(np.abs(H0) + np.linalg.norm(prob.fx(t, x, v0), axis=1)
                      + np.linalg.norm(v0, axis=1)))
    d = ham.derivs_many(t, x, p)
    pn = np.linalg.norm(p, axis=1)
    c1 = _growth(lambda q: ham.DpH_many(t, x, q), p, d.DpH)
    c2 = np.max(np.linalg.norm(d.DxH, axis=1) / (1 + pn ** 2))
    c3 = np.max(np.linalg.norm(d.DpxH, ord=2, axis=(1, 2)) / (1 + pn))
    C = 1.05 * float(max(c1, c2, c3))
    return Mp, C


def delta_choice(prob: Problem, dom: Domain):
    """Terminal penalty weight delta = min(1 / (2 mu N), 1), where N is the
    largest terminal drift speed |DpH(T, x, Dg(x))| over ``dom.tube_grid()``.

    Returns (delta, measured N).
    """
    x = dom.tube_grid()
    speed = np.linalg.norm(Hamiltonian(prob).DpH_many(prob.horizon, x,
                                                      prob.Dg(x)), axis=1)
    Nm = float(np.max(speed))
    if Nm == 0.0:
        return 1.0, 0.0
    return min(1.0 / (2.0 * prob.mu * Nm), 1.0), Nm
