from pathlib import Path

import numpy as np
import pytest

from statecon import (Hamiltonian, LinearPotential, check_assumptions,
                      quadratic_problem)
from statecon.cli import build_domain, build_problem, load_config
from statecon.model import _draws, measure_hamiltonian_constants

from conftest import drifting_problem, mixed_problem


RNG = np.random.default_rng(5)


def grid_conjugate(prob, t, x, p, lim=6.0, n=481):
    """Dense grid search oracle for sup_v { -<p, v> - f(t, x, v) }."""
    vs = np.linspace(-lim, lim, n)
    V = np.stack(np.meshgrid(vs, vs, indexing="ij"), axis=-1).reshape(-1, 2)
    tt = np.full(V.shape[0], t)
    X = np.tile(np.asarray(x, dtype=float), (V.shape[0], 1))
    vals = -V @ np.asarray(p, dtype=float) - prob.f(tt, X, V)
    k = int(np.argmax(vals))
    return float(vals[k]), V[k]


class TestLegendre:
    def test_matches_grid_search(self):
        prob = quadratic_problem(2, A=[[2.0, 0.3], [0.3, 1.0]],
                                 potential=LinearPotential([1.0, -0.5]),
                                 M=10.0, kappa=0.0)
        for _ in range(5):
            t = RNG.uniform(0.0, 1.0)
            x = RNG.uniform(-1.0, 1.0, 2)
            p = RNG.uniform(-2.0, 2.0, 2)
            H, vstar = Hamiltonian(prob).legendre_many(t, x, p)
            Hg, vg = grid_conjugate(prob, t, x, p)
            assert H[0] == pytest.approx(Hg, abs=1e-3)
            assert np.allclose(vstar[0], vg, atol=0.03)

    def test_quadratic_closed_form(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        prob = quadratic_problem(2, A=A, M=1.0, kappa=0.0)
        p = np.array([1.0, 1.0])
        H, vstar = Hamiltonian(prob).legendre_many(0.0, np.zeros(2), p)
        # sup_v { -<p,v> - 1/2 <Av,v> } = 1/2 <A^{-1} p, p> at v = -A^{-1} p
        assert H[0] == pytest.approx(0.75, abs=1e-12)
        assert np.allclose(vstar[0], [-0.5, -1.0], atol=1e-12)

    def test_duality_identities(self):
        prob = quadratic_problem(2, A=[[1.5, 0.2], [0.2, 0.8]],
                                 potential=LinearPotential([0.3, 0.7]),
                                 M=5.0, kappa=0.0)
        ham = Hamiltonian(prob)
        t = RNG.uniform(0.0, 1.0, 200)
        x = RNG.uniform(-1.0, 1.0, (200, 2))
        p = RNG.uniform(-3.0, 3.0, (200, 2))
        H, vstar = ham.legendre_many(t, x, p)
        # p + D_v f(v*) = 0
        assert np.max(np.abs(p + prob.fv(t, x, vstar))) < 1e-10
        # value consistency
        direct = -np.einsum("mi,mi->m", p, vstar) - prob.f(t, x, vstar)
        assert np.max(np.abs(H - direct)) < 1e-12
        d = ham.derivs_many(t, x, p)
        assert np.max(np.abs(d.DpH + vstar)) < 1e-10
        assert np.max(np.abs(d.DxH + prob.fx(t, x, vstar))) < 1e-10

    def test_involution(self):
        prob = quadratic_problem(2, A=[[1.2, 0.0], [0.0, 2.5]], M=1.0,
                                 kappa=0.0)
        ham = Hamiltonian(prob)
        t = np.zeros(50)
        x = np.zeros((50, 2))
        v = RNG.uniform(-2.0, 2.0, (50, 2))
        # conjugating H back at p = -f_v(v) recovers f
        p = -prob.fv(t, x, v)
        H, vstar = ham.legendre_many(t, x, p)
        f_back = -np.einsum("mi,mi->m", p, vstar) - H
        assert np.max(np.abs(f_back - prob.f(t, x, v))) < 1e-10
        assert np.max(np.abs(vstar - v)) < 1e-10

    def test_second_derivatives(self):
        A = np.array([[1.5, 0.4], [0.4, 1.1]])
        ham = Hamiltonian(quadratic_problem(2, A=A, M=1.0, kappa=0.0))
        t = np.zeros(10)
        x = np.zeros((10, 2))
        p = RNG.uniform(-1.0, 1.0, (10, 2))
        d = ham.derivs_many(t, x, p)
        assert np.allclose(d.DppH, np.linalg.inv(A), atol=1e-8)
        assert np.allclose(d.DpxH, 0.0, atol=1e-8)
        assert np.allclose(d.DptH, 0.0, atol=1e-8)

    def test_state_derivatives_match_finite_differences(self):
        # DxH by the envelope theorem and DpxH by implicit differentiation,
        # on data whose fvx is not zero
        ham = Hamiltonian(mixed_problem())
        rng = np.random.default_rng(31)
        t = rng.uniform(0.0, 1.0, 20)
        x = rng.uniform(-1.0, 1.0, (20, 2))
        p = rng.uniform(-2.0, 2.0, (20, 2))
        d = ham.derivs_many(t, x, p)
        assert np.max(np.abs(d.DpxH)) > 0.5
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (ham.value_many(t, x + e, p)
                  - ham.value_many(t, x - e, p)) / (2 * h)
            assert np.max(np.abs(d.DxH[:, k] - fd)) < 1e-8
            fd = (ham.DpH_many(t, x + e, p)
                  - ham.DpH_many(t, x - e, p)) / (2 * h)
            assert np.max(np.abs(d.DpxH[:, :, k] - fd)) < 1e-8

    def test_time_derivative_by_implicit_differentiation(self):
        prob, dc = drifting_problem()
        ham = Hamiltonian(prob)
        rng = np.random.default_rng(12)
        t = rng.uniform(0.0, 1.0, 20)
        x = rng.uniform(-1.0, 1.0, (20, 2))
        p = rng.uniform(-2.0, 2.0, (20, 2))
        d = ham.derivs_many(t, x, p)
        assert np.max(np.abs(d.DptH - dc(t))) < 1e-8
        h = 1e-6
        fd = (ham.DpH_many(t + h, x, p) - ham.DpH_many(t - h, x, p)) / (2 * h)
        assert np.max(np.abs(d.DptH - fd)) < 1e-8


class TestProblemConstruction:
    def test_mu_inferred_from_eigenvalues(self):
        prob = quadratic_problem(2, A=[[2.0, 0.0], [0.0, 1.0]], M=1.0,
                                 kappa=0.0)
        assert prob.mu == 2.0
        prob = quadratic_problem(2, A=[[0.25, 0.0], [0.0, 1.0]], M=1.0,
                                 kappa=0.0)
        assert prob.mu == 4.0

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError):
            quadratic_problem(2, A=[[1.0, 0.0], [0.0, -1.0]], M=1.0,
                              kappa=0.0)

    def test_missing_bounds_rejected(self):
        with pytest.raises(ValueError):
            quadratic_problem(2)


class TestAssumptions:
    def test_pull_problem_passes(self, disk, pull_problem):
        rep = check_assumptions(pull_problem, disk)
        assert rep.all_passed

    def test_understated_base_bound_fails(self, disk):
        prob = quadratic_problem(2, potential=LinearPotential([-3.0, 0.0]),
                                 M=1.0, kappa=0.0)
        rep = check_assumptions(prob, disk)
        assert not rep.checks["base_bound"].passed

    def test_base_bound_measured_to_the_tube_edge(self, disk):
        # |f| + |fx| + |fv| at v = 0 is 3|x1| + 3, whose supremum over
        # {b < rho0} = {|x| < 2} is 9, at the tube's edge; a bound just
        # below it fails.  The grid's points reach b = rho0 (1 - 1e-12), so
        # only their spacing along the edge, to second order, is missed
        prob = quadratic_problem(2, potential=LinearPotential([-3.0, 0.0]),
                                 M=8.85, kappa=0.0)
        rep = check_assumptions(prob, disk)
        assert not rep.checks["base_bound"].passed
        assert 9.0 - 5e-3 < rep.checks["base_bound"].measured < 9.0
        b = disk.b_many(disk.tube_grid())
        assert np.all(b < disk.rho0)
        assert np.max(b) == pytest.approx(disk.rho0 * (1 - 1e-12), abs=1e-15)

    def test_constants_solve_once_at_zero(self, disk, pull_problem,
                                          monkeypatch):
        # reference: H and its first derivatives at p = 0 from two solves
        def two_solves(ham):
            x = disk.tube_grid()
            t, _, p = _draws(len(x), 2, ham.prob.horizon)
            p0 = np.zeros_like(p)
            d0 = ham.derivs_many(t, x, p0)
            return float(np.max(np.abs(ham.value_many(t, x, p0))
                                + np.linalg.norm(d0.DxH, axis=1)
                                + np.linalg.norm(d0.DpH, axis=1)))

        legendre_many = Hamiltonian.legendre_many
        zero = []

        def counted(self, t, x, p):
            zero.append(not np.any(p))
            return legendre_many(self, t, x, p)

        for prob in (pull_problem, drifting_problem()[0]):
            ham = Hamiltonian(prob)
            want = two_solves(ham)
            monkeypatch.setattr(Hamiltonian, "legendre_many", counted)
            zero.clear()
            Mp, _ = measure_hamiltonian_constants(prob, disk)
            monkeypatch.undo()
            assert zero == [True, False]
            assert Mp == want

    def test_draws_have_the_laws_of_uniform_times_and_normal_vectors(self):
        # the R_d points feed two uniform times on [0, T] and, by
        # Box-Muller, a normal(0, 3^2) vector; their moments on the first
        # 2000 points are those laws' to a few parts in a thousand
        t, s, v = _draws(2000, 3, 2.0)
        for u in (t, s):
            assert np.all((u >= 0.0) & (u < 2.0))
            assert np.mean(u) == pytest.approx(1.0, abs=5e-3)
            assert np.var(u) == pytest.approx(4.0 / 12.0, abs=5e-3)
        assert v.shape == (2000, 3)
        assert np.all(np.abs(np.mean(v, axis=0)) < 0.05)
        assert np.std(v, axis=0) == pytest.approx([3.0] * 3, rel=0.02)
        assert np.all(_draws(2000, 3, 2.0)[2] == v)

    def test_growth_constants_reach_their_suprema(self):
        # S2's running cost f = |v|^2/2 has sup |fv| / (1 + |v|) = 1 and
        # sup |DpH| / (1 + |p|) = 1, approached only as |v|, |p| -> inf; no
        # other growth term of S2 comes near 1
        cfg = load_config(str(Path(__file__).resolve().parents[1]
                              / "scenarios" / "S2.json"))
        dom = build_domain(cfg)
        prob = build_problem(cfg, dom)
        assert check_assumptions(prob, dom).C_mu_M >= 1.0
        assert measure_hamiltonian_constants(prob, dom)[1] >= 1.0

    def test_energy_budget_positive(self, disk, pull_problem):
        K = check_assumptions(pull_problem, disk).K
        assert K > pull_problem.horizon * pull_problem.M
