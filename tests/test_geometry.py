import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecon import Ball, Ellipse, OutsideTube, SmoothedBox
from statecon.geometry import fd_grad


RNG = np.random.default_rng(101)


def b_at(dom, x):
    """The signed distance at one point."""
    return float(dom.eval(x, hess=False).b[0])


def fd_hess(dom, x, h=1e-5):
    """Central finite-difference Hessian of the signed distance."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    f0 = b_at(dom, x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (b_at(dom, x + ei) - 2 * f0 + b_at(dom, x - ei)) / h ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                b_at(dom, x + ei + ej) - b_at(dom, x + ei - ej)
                - b_at(dom, x - ei + ej) + b_at(dom, x - ei - ej)
            ) / (4 * h ** 2)
    return H


def tube_points(dom, n=2000):
    return dom.sample_tube(np.random.default_rng(7), n)


class TestSignedDistance:
    def test_ball_values(self, disk):
        assert b_at(disk, np.array([0.0, 0.0])) == -1.0
        assert b_at(disk, np.array([2.0, 0.0])) == 1.0
        assert abs(b_at(disk, np.array([0.0, 1.0]))) < 1e-15

    def test_ellipse_axis_points(self, ellipse):
        assert b_at(ellipse, np.array([2.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        assert b_at(ellipse, np.array([0.0, -1.0])) == pytest.approx(0.0, abs=1e-12)
        assert b_at(ellipse, np.array([3.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_box_face_and_corner(self, box):
        assert b_at(box, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)
        # beyond the rounded corner the nearest point lies on the arc around
        # the inner-box corner (0.75, 0.55)
        x = np.array([0.75 + 0.3, 0.55 + 0.4])
        assert b_at(box, x) == pytest.approx(0.5 - 0.25, abs=1e-12)

    def test_unit_gradient(self, shapes):
        for dom in shapes.values():
            X = tube_points(dom)
            e = dom.eval(X, hess=False)
            assert np.max(np.abs(np.linalg.norm(e.Db, axis=1) - 1.0)) < 1e-12
            assert e.D2b is None

    def test_hessian_annihilates_gradient(self, shapes):
        for dom in shapes.values():
            X = tube_points(dom)
            _, g, H, _ = dom.eval(X)
            r = np.linalg.norm(np.einsum("mij,mj->mi", H, g), axis=1)
            assert np.max(r) < 1e-10

    def test_gradient_matches_finite_differences(self, shapes):
        for dom in shapes.values():
            for x in tube_points(dom, 40):
                assert np.allclose(fd_grad(dom, x),
                                   dom.eval(x, hess=False).Db[0], atol=1e-7)

    def test_batched_fd_grad_equals_rows(self, shapes):
        # fd_grad differences a whole batch with 2n evaluations; each row
        # is the same float as the point's own difference
        for dom in [*shapes.values(), Ball([0.5], 1.0), Ball([0.0] * 3, 1.0),
                    SmoothedBox([0.0] * 3, [1.0, 0.8, 0.6], 0.25)]:
            X = tube_points(dom, 40)
            G = fd_grad(dom, X)
            assert G.shape == X.shape
            for x, g in zip(X, G):
                assert np.array_equal(g, fd_grad(dom, x))

    def test_hessian_matches_finite_differences(self, disk, ellipse):
        # the smoothed box is C^{1,1}: seams between corner arcs and faces
        # break second differences, so only the smooth shapes are sampled
        for dom in (disk, ellipse):
            for x in tube_points(dom, 25):
                assert np.allclose(fd_hess(dom, x), dom.eval(x).D2b[0],
                                   atol=1e-4)

    def test_eikonal_along_normal_line(self, ellipse):
        # b(x + s Db(x)) = b(x) + s inside the tube
        X = tube_points(ellipse, 200)
        b, g, _, _ = ellipse.eval(X, hess=False)
        for s in (-0.05, 0.04):
            ok = np.abs(b + s) < ellipse.rho0 * 0.9
            shifted = ellipse.eval(X[ok] + s * g[ok], hess=False).b
            assert np.max(np.abs(shifted - (b[ok] + s))) < 1e-9


class TestProjection:
    def test_projects_onto_boundary(self, shapes):
        for dom in shapes.values():
            X = tube_points(dom, 500)
            P = dom.eval(X, hess=False).P
            assert np.max(np.abs(dom.eval(P, hess=False).b)) < 1e-9

    def test_projection_distance_is_b(self, shapes):
        for dom in shapes.values():
            X = tube_points(dom, 500)
            b, _, _, P = dom.eval(X, hess=False)
            d = np.linalg.norm(X - P, axis=1)
            assert np.max(np.abs(d - np.abs(b))) < 1e-8

    def test_ellipse_projection_off_axis(self, ellipse):
        x = np.array([1.2, 0.7])
        p = ellipse.eval(x, hess=False).P[0]
        assert (p[0] / 2.0) ** 2 + p[1] ** 2 == pytest.approx(1.0, abs=1e-12)
        # the normal at the projection points back at x
        n = ellipse.eval(p, hess=False).Db[0]
        r = x - p
        r = r / np.linalg.norm(r)
        assert abs(abs(np.dot(n, r)) - 1.0) < 1e-6

    @pytest.mark.parametrize("y", [3.6e-14, 1e-9, 1e-7])
    def test_ellipse_projection_near_major_axis(self, ellipse, y):
        # inside the evolute, a hair off the major axis: the nearest point's
        # minor coordinate a^2 q / (t + a^2) must not lose t + a^2 to
        # cancellation
        P = ellipse.eval(np.array([[0.452139526, y]]), hess=False).P
        assert abs(b_at(ellipse, P[0])) <= 1e-12 * ellipse.diameter

    @pytest.mark.parametrize("axes", [[2.0, 1.0], [0.6, 2.5]])
    def test_ellipse_batch_rows_match_single_rows(self, axes):
        # each point's projection must not depend on the points evaluated
        # with it: random points, points a hair off the major axis and
        # points around the evolute cusps, where Newton takes the most steps
        dom = Ellipse([0.3, -0.2], axes)
        rng = np.random.default_rng(11)
        lo, hi = dom.bounding_box()
        major = int(np.argmax(axes))
        cusp = np.zeros(2)
        cusp[major] = (max(axes) ** 2 - min(axes) ** 2) / max(axes)
        near_axis = np.zeros((600, 2))
        near_axis[:, major] = rng.uniform(-1.2, 1.2, 600) * max(axes)
        near_axis[:, 1 - major] = (rng.choice([-1.0, 1.0], 600)
                                   * 10.0 ** rng.uniform(-15, -1, 600))
        around_cusp = (rng.choice([-1.0, 1.0], (600, 1)) * cusp
                       + rng.standard_normal((600, 2))
                       * 10.0 ** rng.uniform(-12, -1, (600, 1)))
        X = np.vstack([rng.uniform(lo - 1.0, hi + 1.0, (1200, 2)),
                       near_axis + dom.center, around_cusp + dom.center])
        batch = dom.eval(X)
        for i, x in enumerate(X):
            for got, want in zip(batch, dom.eval(x)):
                assert np.array_equal(got[i], want[0], equal_nan=True), (i, x)


class TestSubdifferential:
    def test_three_cases(self, disk):
        inner = disk.subdiff_distance(np.array([0.2, 0.3]))
        assert inner.case == "interior"
        assert inner.interval == (0.0, 0.0)
        assert np.allclose(inner.direction, 0.0)

        outer = disk.subdiff_distance(np.array([1.5, 0.0]))
        assert outer.case == "outside"
        assert outer.interval == (1.0, 1.0)
        assert np.allclose(outer.direction, [1.0, 0.0])

        edge = disk.subdiff_distance(np.array([0.0, 1.0]))
        assert edge.case == "boundary"
        assert edge.interval == (0.0, 1.0)
        assert np.allclose(edge.direction, [0.0, 1.0])

    def test_raises_outside_tube(self, disk):
        with pytest.raises(OutsideTube):
            disk.subdiff_distance(np.array([2.5, 0.0]))

    def test_boundary_band_uses_diameter_scale(self, disk):
        assert disk.boundary_tol == pytest.approx(1e-9 * disk.diameter)
        x = np.array([1.0 + 0.4 * disk.boundary_tol, 0.0])
        assert disk.subdiff_distance(x).case == "boundary"


class TestErrors:
    def test_center_gradient_allowed(self, disk):
        # depth exactly rho0; the selection is still well defined
        g = disk.eval(np.array([[0.0, 0.0]]), hess=False).Db[0]
        assert np.isfinite(g).all()

    def test_ball_centre_selection(self):
        ball = Ball([1.0, -2.0], 0.5)
        e = ball.eval(np.array([[1.0, -2.0], [1.2, -2.0]]))
        assert np.linalg.norm(e.Db[0]) == pytest.approx(1.0)
        assert b_at(ball, e.P[0]) == pytest.approx(0.0, abs=1e-15)
        assert not np.isfinite(e.D2b[0]).all()
        assert np.isfinite(e.D2b[1]).all()

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            Ball([0.0, 0.0], -1.0)
        with pytest.raises(ValueError):
            Ellipse([0.0, 0.0], [2.0, 0.0])
        with pytest.raises(ValueError):
            SmoothedBox([0.0, 0.0], [1.0, 1.0], 1.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.3, 3.0))
def test_ball_distance_is_radial(cx, cy, r):
    dom = Ball([cx, cy], r)
    x = np.array([cx + 1.3 * r, cy])
    b, g, _, _ = dom.eval(x, hess=False)
    assert b[0] == pytest.approx(0.3 * r, rel=1e-12)
    assert np.allclose(g[0], [1.0, 0.0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.0, 2 * np.pi))
def test_disk_projection_is_ray(rho, ang):
    dom = Ball([0.0, 0.0], 1.0)
    x = rho * np.array([np.cos(ang), np.sin(ang)])
    p = dom.eval(x, hess=False).P[0]
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p, x / rho, atol=1e-9)


@st.composite
def ellipse_and_point(draw):
    """A random axis-aligned ellipse (axis ratio up to 10) and a query point:
    on a normal line inside the tube or outside it (kind "tube"/"outside",
    returned with the foot of that normal line), near the evolute cusp on the
    major axis, or near either axis."""
    a = draw(st.floats(0.2, 3.0))
    A = a * draw(st.floats(1.0, 10.0))
    axes = np.array([a, A] if draw(st.booleans()) else [A, a])
    center = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
    lo, hi = (0, 1) if axes[0] <= axes[1] else (1, 0)
    rho0 = a * a / A
    kind = draw(st.sampled_from(["tube", "outside", "cusp", "major", "minor"]))
    foot = None
    q = np.zeros(2)
    if kind in ("tube", "outside"):
        th = draw(st.floats(0.0, 0.5 * np.pi))
        foot = axes * np.array([np.cos(th), np.sin(th)])
        n = foot / axes ** 2
        n /= np.linalg.norm(n)
        s = (draw(st.floats(-0.999, 0.999)) * rho0 if kind == "tube"
             else draw(st.floats(1.0, 20.0)) * rho0)
        q = foot + s * n
    else:
        tiny = draw(st.sampled_from([0.0] + [10.0 ** k for k in range(-16, -1)]))
        if kind == "cusp":
            q[hi] = (A * A - a * a) / A * (1.0 + draw(st.floats(-1e-3, 1e-3)))
            q[lo] = tiny * a
        elif kind == "major":
            q[hi] = draw(st.floats(0.0, A + 2.0 * rho0))
            q[lo] = tiny * a
        else:
            q[lo] = draw(st.floats(0.0, a + 2.0 * rho0))
            q[hi] = tiny * A
    signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)])
    if foot is not None:
        foot = center + signs * foot
    return Ellipse(center, axes), center + signs * q, kind, foot


@settings(max_examples=300, deadline=None)
@given(ellipse_and_point())
def test_ellipse_projection_properties(case):
    dom, x, kind, foot = case
    scale = dom.diameter
    b, _, _, P = dom.eval(x[None], hess=False)
    p = P[0]
    # P lies on the boundary
    u = (p - dom.center) / dom.axes
    assert abs(u @ u - 1.0) <= 1e-12
    # x - P is parallel to the normal at P
    r = x - p
    n = dom.eval(P, hess=False).Db[0]
    assert abs(r[0] * n[1] - r[1] * n[0]) <= 1e-12 * scale
    # P is the nearest boundary point (no boundary sample is closer)
    th = np.linspace(0.0, 2.0 * np.pi, 4001)
    ring = dom.center + dom.axes * np.stack([np.cos(th), np.sin(th)], axis=1)
    dist = np.linalg.norm(r)
    assert dist <= np.min(np.linalg.norm(ring - x, axis=1)) + 1e-12 * scale
    if kind in ("tube", "outside"):
        assert abs(dist - abs(b[0])) <= 1e-12 * scale
        assert np.max(np.abs(p - foot)) <= 1e-10 * scale
