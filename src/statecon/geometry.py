"""Constraint-set geometry: signed distances, their derivatives, projections,
and the distance subdifferential.

Supported shapes (ball, ellipse, smoothed box) are all convex with closed-form
or Newton-cheap signed distances, so the oriented distance ``b`` is smooth on
the whole exterior and inside the tube of radius ``rho0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class OutsideTube(ValueError):
    """Derivative information requested where b is not differentiable."""


BOUNDARY_TOL_FACTOR = 1e-9


@dataclass(frozen=True)
class SubdiffDescription:
    """One case of the three-case subdifferential table for the distance.

    ``case`` is one of "interior", "outside", "boundary".  The subdifferential
    is ``{t * direction : t in interval}``.
    """

    case: str
    direction: np.ndarray
    interval: tuple[float, float]


class BoundaryEval(NamedTuple):
    """One evaluation of the geometry at a batch of m points: signed distance
    ``b`` (m,), gradient ``Db`` (m, n), Hessian ``D2b`` (m, n, n), or None
    when it was not asked for, and nearest boundary point ``P`` (m, n)."""

    b: np.ndarray
    Db: np.ndarray
    D2b: np.ndarray | None
    P: np.ndarray


class Domain:
    """Bounded convex domain with a C^2-in-the-tube oriented distance."""

    dim: int
    rho0: float
    diameter: float
    _tube: np.ndarray | None = None

    @property
    def boundary_tol(self) -> float:
        return BOUNDARY_TOL_FACTOR * self.diameter

    def eval(self, X: np.ndarray, hess: bool = True) -> BoundaryEval:
        """b, Db, D2b and the projection P at points X of shape (m, n), from
        one evaluation of the shape; ``hess=False`` skips the Hessian."""
        raise NotImplementedError

    def b_many(self, X: np.ndarray) -> np.ndarray:
        return self.eval(X, hess=False).b

    def grad_many(self, X: np.ndarray) -> np.ndarray:
        return self.eval(X, hess=False).Db

    def hess_many(self, X: np.ndarray) -> np.ndarray:
        return self.eval(X).D2b

    def project_many(self, X: np.ndarray) -> np.ndarray:
        return self.eval(X, hess=False).P

    # scalar API; eval accepts a single point as a batch of one
    def signed_distance(self, x) -> float:
        return float(self.eval(x, hess=False).b[0])

    def subdiff_distance(self, x) -> SubdiffDescription:
        e = self.eval(x, hess=False)
        b = float(e.b[0])
        tol = self.boundary_tol
        if b >= self.rho0:
            raise OutsideTube(f"b = {b:g} >= rho0 = {self.rho0:g}")
        if abs(b) <= tol:
            return SubdiffDescription("boundary", e.Db[0], (0.0, 1.0))
        if b < 0.0:
            return SubdiffDescription("interior", np.zeros(self.dim), (0.0, 0.0))
        return SubdiffDescription("outside", e.Db[0], (1.0, 1.0))

    def _sample(self, rng: np.random.Generator, size: int, pad: float,
                keep) -> np.ndarray:
        """Uniform rejection sample from the bounding box grown by ``pad``,
        keeping the points whose signed distance satisfies ``keep``."""
        lo, hi = self.bounding_box()
        lo = lo - pad
        hi = hi + pad
        pts = []
        need = size
        while need > 0:
            cand = rng.uniform(lo, hi, size=(max(4 * need, 64), self.dim))
            kept = cand[keep(self.b_many(cand))]
            pts.append(kept[:need])
            need -= len(kept[:need])
        return np.vstack(pts)

    def sample_tube(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform rejection sample of points with |b| < rho0."""
        r = self.rho0 * (1.0 - 1e-12)
        return self._sample(rng, size, self.rho0, lambda b: np.abs(b) < r)

    def sample_closure(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sample(rng, size, 0.0, lambda b: b <= 0.0)

    def box_grid(self, per_axis: int, pad: float = 0.0) -> np.ndarray:
        """The nodes, (per_axis^n, n), of the regular grid on the bounding
        box grown by ``pad``."""
        lo, hi = self.bounding_box()
        axes = np.linspace(lo - pad, hi + pad, per_axis)
        x = np.stack(np.meshgrid(*axes.T, indexing="ij"), -1)
        return x.reshape(-1, self.dim)

    def tube_grid(self) -> np.ndarray:
        """The one point set, built once per domain and read-only, over which
        every supremum on the tube-extended set {b < rho0} is measured: the
        nodes of ``box_grid``, ceil(2048^(1/n)) per axis grown by rho0, that
        lie in the set, then the outside nodes within one cell diagonal h of
        its edge pushed out along Db to b = rho0 (1 - 1e-12), so that a
        supremum taken at the edge is not understated by up to h."""
        if self._tube is None:
            per_axis = max(2, int(np.ceil(2048 ** (1.0 / self.dim))))
            x = self.box_grid(per_axis, self.rho0)
            e = self.eval(x, hess=False)
            r = self.rho0 * (1.0 - 1e-12)
            lo, hi = self.bounding_box()
            h = np.linalg.norm(hi - lo + 2.0 * self.rho0) / (per_axis - 1)
            # outside a convex set, b grows by s along x + s Db
            edge = (e.b > max(r - h, 0.0)) & (e.b < r)
            self._tube = np.vstack([
                x[e.b < r],
                x[edge] + (r - e.b[edge])[:, None] * e.Db[edge]])
            self._tube.flags.writeable = False
        return self._tube

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @staticmethod
    def from_config(cfg: dict) -> "Domain":
        shape = cfg["shape"]
        if shape == "ball":
            return Ball(np.asarray(cfg["center"], dtype=float), float(cfg["radius"]))
        if shape == "ellipse":
            return Ellipse(np.asarray(cfg["center"], dtype=float),
                           np.asarray(cfg["semi_axes"], dtype=float))
        if shape == "smoothed-box":
            return SmoothedBox(np.asarray(cfg["center"], dtype=float),
                               np.asarray(cfg["half_widths"], dtype=float),
                               float(cfg["corner_radius"]))
        raise ValueError(f"unknown shape {shape!r}")


class Ball(Domain):
    """Ball of the given centre and radius: b = |x - c| - radius, Db the
    radial unit vector and D2b = (I - Db Db^T) / |x - c|.  At the centre,
    where every boundary point is nearest, Db is the first unit axis and P
    the boundary point along it; D2b there is inf/NaN, without a warning.
    The centre lies at depth rho0, outside the tube where D2b is used.
    """

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or center.size not in (1, 2, 3):
            raise ValueError("center must be a vector of dimension 1, 2 or 3")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.dim = center.size
        self.rho0 = self.radius
        self.diameter = 2.0 * self.radius

    def eval(self, X, hess=True):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        q = X - self.center
        r = np.linalg.norm(q, axis=1)
        b = r - self.radius
        centre = r == 0.0
        n = q / np.where(centre, 1.0, r)[:, None]
        n[centre, 0] = 1.0
        H = None
        if hess:
            eye = np.eye(self.dim)
            with np.errstate(divide="ignore", invalid="ignore"):
                H = ((eye[None, :, :] - n[:, :, None] * n[:, None, :])
                     / r[:, None, None])
        return BoundaryEval(b, n, H, self.center + self.radius * n)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


class Ellipse(Domain):
    """Axis-aligned ellipse in the plane.

    Every quantity comes from the nearest boundary point P, found by a
    monotone Newton iteration on Eberly's secular equation (see
    ``_project_folded``): b = +-|x - P|, Db is the unit normal at P, and D2b
    is kappa / (1 + b kappa) times the tangent projector, with kappa the
    boundary curvature at P.  ``eval`` projects a batch once and derives all
    four from it.  D2b is inf/NaN, without a warning, at focal points
    (1 + b kappa = 0, e.g. the evolute cusps); they lie at depth >= rho0, so
    outside the tube where D2b is used.
    """

    def __init__(self, center, semi_axes):
        center = np.asarray(center, dtype=float)
        semi_axes = np.asarray(semi_axes, dtype=float)
        if center.size != 2 or semi_axes.size != 2:
            raise ValueError("ellipse is supported in dimension 2 only")
        if np.any(semi_axes <= 0):
            raise ValueError("semi-axes must be positive")
        self.center = center
        self.axes = semi_axes
        self.dim = 2
        a, b = float(np.max(semi_axes)), float(np.min(semi_axes))
        # smallest radius of curvature of the boundary
        self.rho0 = b * b / a
        self.diameter = 2.0 * a

    def _project_folded(self, Q):
        """Nearest boundary point for folded (nonnegative-quadrant) queries.

        Order the semi-axes a <= A, let q_a, q_A be the query's coordinates
        along them and c = A^2 - a^2.  Off the major axis the nearest point
        is (a^2 q_a / u, A^2 q_A / (u + c)) at the root u > 0 of

            e(u) = (a q_a / u)^2 + (A q_A / (u + c))^2 - 1,

        which is convex and decreasing (D. Eberly, "Distance from a Point to
        an Ellipse, an Ellipsoid, or a Hyperellipsoid", Geometric Tools; his
        t is u - a^2).  Either term alone is >= 1 at u0 = max(a q_a,
        A q_A - c), so e(u0) >= 0 and Newton steps from u0 rise monotonically
        to the root.  Each point stops after its first step of at most
        1e-15 u, so its result does not depend on the batch.  Solving for
        u rather than t keeps a^2 q_a / u accurate near the major axis, where
        t + a^2 would cancel.  On the major axis itself the closed form is
        used: the nearest point leaves the vertex inside the evolute cusp at
        q_A = c / A.
        """
        lo, hi = (0, 1) if self.axes[0] <= self.axes[1] else (1, 0)
        a, A = self.axes[lo], self.axes[hi]
        c = A * A - a * a
        qa, qA = Q[:, lo], Q[:, hi]
        P = np.empty_like(Q)

        axis = qa <= 1e-14 * A
        # a circle has no cusp: every axis point goes to the vertex
        xA = np.minimum(A * A * qA[axis] / c, A) if c > 0.0 else A
        P[axis, hi] = xA
        P[axis, lo] = a * np.sqrt(np.maximum(1.0 - (xA / A) ** 2, 0.0))

        off = ~axis
        wa, wA = a * qa[off], A * qA[off]
        u = np.maximum(wa, wA - c)
        go = np.arange(u.size)  # the points still stepping
        for _ in range(64):
            ug, wag, wAg = u[go], wa[go], wA[go]
            ra, rA = wag / ug, wAg / (ug + c)
            e = ra * ra + rA * rA - 1.0
            # rounding may leave e slightly negative at the root
            step = np.maximum(e / (2.0 * (ra * ra / ug + rA * rA / (ug + c))),
                              0.0)
            u[go] = ug = ug + step
            go = go[step > 1e-15 * ug]
            if not go.size:
                break
        P[off, lo] = a * a * qa[off] / u
        P[off, hi] = A * A * qA[off] / (u + c)
        return P

    def eval(self, X, hess=True):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        q = X - self.center
        Q = np.abs(q)
        Pf = self._project_folded(Q)
        dist = np.linalg.norm(Q - Pf, axis=1)
        a0, a1 = self.axes
        inside = (q[:, 0] / a0) ** 2 + (q[:, 1] / a1) ** 2 < 1.0
        b = np.where(inside, -dist, dist)
        Pc = np.where(q >= 0.0, Pf, -Pf)
        # outward normal of the level set at the projection point
        n = Pc / self.axes ** 2
        Db = n / np.linalg.norm(n, axis=1)[:, None]
        H = None
        if hess:
            tau = np.stack([-Db[:, 1], Db[:, 0]], axis=1)
            cs, sn = Pf[:, 0] / a0, Pf[:, 1] / a1
            kappa = a0 * a1 / (a0 * a0 * sn * sn + a1 * a1 * cs * cs) ** 1.5
            with np.errstate(divide="ignore", invalid="ignore"):
                coef = kappa / (1.0 + b * kappa)
                H = coef[:, None, None] * tau[:, :, None] * tau[:, None, :]
        return BoundaryEval(b, Db, H, self.center + Pc)

    def bounding_box(self):
        return self.center - self.axes, self.center + self.axes


class SmoothedBox(Domain):
    """Box with rounded corners (Minkowski dilation of an inner box by a ball
    of the corner radius), so the boundary has no corners."""

    def __init__(self, center, half_widths, corner_radius: float):
        center = np.asarray(center, dtype=float)
        half_widths = np.asarray(half_widths, dtype=float)
        if center.size not in (2, 3) or half_widths.size != center.size:
            raise ValueError("smoothed box is supported in dimensions 2 and 3")
        if corner_radius <= 0 or corner_radius > np.min(half_widths):
            raise ValueError("corner radius must lie in (0, min(half_widths)]")
        self.center = center
        self.half = half_widths
        self.r = float(corner_radius)
        self.dim = center.size
        self.rho0 = self.r
        inner = half_widths - self.r
        self.diameter = 2.0 * (float(np.linalg.norm(inner)) + self.r)

    def eval(self, X, hess=True):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        q = np.abs(X - self.center) - (self.half - self.r)
        s = np.where(X - self.center >= 0.0, 1.0, -1.0)
        pos = np.maximum(q, 0.0)
        norm = np.linalg.norm(pos, axis=1)
        b = norm + np.minimum(np.max(q, axis=1), 0.0) - self.r
        Db = np.zeros_like(X)
        ext = norm > 0.0
        # outside the inner box: distance to its nearest feature, spherical
        # in the active coordinates; inside it: the nearest face
        n = s[ext] * pos[ext] / norm[ext, None]
        Db[ext] = n
        rows = np.flatnonzero(~ext)
        idx = np.argmax(q[rows], axis=1)
        Db[rows, idx] = s[rows, idx]
        H = None
        if hess:
            H = np.zeros((X.shape[0], self.dim, self.dim))
            active = (pos[ext] > 0.0).astype(float)
            eyeA = active[:, :, None] * active[:, None, :] * np.eye(self.dim)
            H[ext] = (eyeA - n[:, :, None] * n[:, None, :]) / norm[ext, None, None]
        return BoundaryEval(b, Db, H, X - b[:, None] * Db)

    def bounding_box(self):
        return self.center - self.half, self.center + self.half


def fd_grad(dom: Domain, x, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of the signed distance."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (dom.signed_distance(x + e) - dom.signed_distance(x - e)) / (2 * h)
    return g
