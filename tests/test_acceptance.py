"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the package on the shipped
scenario configs and prints a single pass/fail line with the measured numbers
and its runtime.  Heavy artifacts (solver chains, the equilibrium) are built
once in module fixtures and shared.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from statecon import (Ball, DiscreteMeasure, Ellipse, Hamiltonian,
                      SmoothedBox, Trajectory, TrajectoryMeasure,
                      check_assumptions, check_extremal, compute_value,
                      constant_measure, contact_mask, delta_choice,
                      energy_certificate, epsilon_schedule, feasibility_gap,
                      feedback_lambda_many, fixed_point, holder_gap,
                      kantorovich_d1, lip_flow, lipschitz_report,
                      make_extremal, measure_hamiltonian_constants,
                      mild_solution, quadratic_problem, velocity_bound)
from statecon.cli import build_coupling, build_domain, build_problem, main
from statecon.mfg import coupled_problem
from statecon.pmp import junction_clear_mask
from statecon.value import running_cost


ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
RESIDUAL_FLOOR = 1e-10   # below this the defect is roundoff, not truncation


def report(num, ok, detail, secs):
    print(f"criterion {num:2d}: {'pass' if ok else 'FAIL'} - {detail} "
          f"({secs:.1f}s)")
    assert ok, detail


def load(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def refinement_chain(cfg, grids=(64, 128, 256, 512, 1024)):
    """Solve a scenario on a doubling ladder of grids, continuing each level
    from the refined previous minimizer at its converged epsilon."""
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    x0 = np.asarray(cfg["x0"], dtype=float)
    delta, _ = delta_choice(prob, dom)
    out = {}
    init, eps0 = None, 1.0
    for N in grids:
        gamma, params = epsilon_schedule(prob, dom, x0, delta, N=N,
                                         init=init, eps0=eps0)
        out[N] = (gamma, params)
        init, eps0 = gamma.refine(), params.epsilon
    return dom, prob, out


@pytest.fixture(scope="module")
def s1_suite():
    t0 = time.perf_counter()
    dom, prob, chain = refinement_chain(
        load("S1"), grids=(64, 128, 256, 512, 1024, 2048, 4096))
    ex = {N: make_extremal(prob, dom, g, params=p)
          for N, (g, p) in chain.items() if N <= 1024}
    reports = {N: check_extremal(prob, dom, e) for N, e in ex.items()}
    return {"dom": dom, "prob": prob, "chain": chain, "ex": ex,
            "reports": reports, "secs": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def s3_suite():
    t0 = time.perf_counter()
    dom, prob, chain = refinement_chain(load("S3"))
    ex = {N: make_extremal(prob, dom, g, params=p)
          for N, (g, p) in chain.items()}
    reports = {N: check_extremal(prob, dom, e) for N, e in ex.items()}
    return {"dom": dom, "prob": prob, "chain": chain, "ex": ex,
            "reports": reports, "secs": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def s2_suite():
    t0 = time.perf_counter()
    cfg = load("S2")
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    delta, _ = delta_choice(prob, dom)
    gamma, params = epsilon_schedule(prob, dom, np.asarray(cfg["x0"]),
                                     delta, N=256)
    times = np.linspace(0.0, 1.0, 10)
    axes = np.linspace(-1.0, 1.0, 10)
    mesh = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, 2)
    pts = pts[dom.eval(pts, hess=False).b <= dom.boundary_tol]
    vg = compute_value(prob, dom, times, pts, N=32)
    return {"dom": dom, "prob": prob, "gamma": gamma, "params": params,
            "vg": vg, "secs": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def s4_suite():
    t0 = time.perf_counter()
    cfg = load("S4")
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    mc = cfg["mfg"]
    coupling = build_coupling(mc)
    eta0 = constant_measure(np.asarray(mc["m0"]["points"]),
                            np.asarray(mc["m0"]["weights"]),
                            prob.horizon, N=int(mc["N"]))
    eta, history = fixed_point(prob, dom, coupling, eta0,
                               alpha=float(mc["alpha"]),
                               tol=float(mc["tol"]),
                               max_iter=int(mc["max_iter"]),
                               N=int(mc["N"]))
    return {"cfg": cfg, "dom": dom, "prob": prob, "coupling": coupling,
            "eta0": eta0, "eta": eta, "history": history,
            "secs": time.perf_counter() - t0}


def test_criterion_01_geometry_invariants():
    t0 = time.perf_counter()
    shapes = {"ball": Ball([0.0, 0.0], 1.0),
              "ellipse": Ellipse([0.0, 0.0], [2.0, 1.0]),
              "box": SmoothedBox([0.0, 0.0], [1.0, 0.8], 0.25)}
    worst_unit = worst_orth = 0.0
    cases_ok = True
    for dom in shapes.values():
        X = dom.sample_tube(np.random.default_rng(0), 10000)
        _, g, H, _ = dom.eval(X)
        worst_unit = max(worst_unit, float(np.max(np.abs(
            np.linalg.norm(g, axis=1) - 1.0))))
        worst_orth = max(worst_orth, float(np.max(np.linalg.norm(
            np.einsum("mij,mj->mi", H, g), axis=1))))
        P = dom.eval(X[:100], hess=False).P
        n = dom.eval(P, hess=False).Db
        for k in range(100):
            cases_ok &= dom.subdiff_distance(P[k]).case == "boundary"
            cases_ok &= dom.subdiff_distance(
                P[k] - 0.3 * dom.rho0 * n[k]).case == "interior"
            cases_ok &= dom.subdiff_distance(
                P[k] + 0.3 * dom.rho0 * n[k]).case == "outside"
    secs = time.perf_counter() - t0
    ok = worst_unit < 1e-9 and worst_orth < 1e-6 and cases_ok and secs < 5.0
    report(1, ok, f"unit {worst_unit:.2e} orth {worst_orth:.2e} "
           f"cases {'ok' if cases_ok else 'BAD'}", secs)


def test_criterion_02_legendre_duality():
    t0 = time.perf_counter()
    problems = [
        quadratic_problem(2, M=1.0, kappa=0.0),
        quadratic_problem(2, A=[[2.0, 0.3], [0.3, 1.0]],
                          potential=[1.0, -0.5], terminal=[0.2, 0.1],
                          M=10.0, kappa=0.0),
    ]
    rng = np.random.default_rng(1)
    worst = 0.0
    for prob in problems:
        ham = Hamiltonian(prob)
        t = rng.uniform(0.0, 1.0, 1000)
        x = rng.uniform(-1.0, 1.0, (1000, 2))
        p = rng.uniform(-3.0, 3.0, (1000, 2))
        H, vstar = ham.legendre_many(t, x, p)
        worst = max(worst, float(np.max(np.abs(p + prob.fv(t, x, vstar)))))
        direct = -np.einsum("mi,mi->m", p, vstar) - prob.f(t, x, vstar)
        worst = max(worst, float(np.max(np.abs(H - direct))))
        d = ham.derivs_many(t, x, p)
        worst = max(worst, float(np.max(np.abs(d.DpH + vstar))))
        # involution: conjugating back at p = -f_v(v) returns v
        v = rng.uniform(-2.0, 2.0, (1000, 2))
        pv = -prob.fv(t, x, v)
        _, vback = ham.legendre_many(t, x, pv)
        worst = max(worst, float(np.max(np.abs(vback - v))))
    secs = time.perf_counter() - t0
    ok = worst < 1e-8 and secs < 5.0
    report(2, ok, f"worst duality defect {worst:.2e}", secs)


def test_criterion_03_interior_closed_form(s2_suite):
    t0 = time.perf_counter()
    dom, prob = s2_suite["dom"], s2_suite["prob"]
    gamma, vg = s2_suite["gamma"], s2_suite["vg"]
    a = np.array([0.5, 0.0])
    exact = np.outer(gamma.times, a)
    traj_err = float(np.max(np.abs(gamma.knots - exact)))
    # drift carries each start toward +x1; the closed form holds wherever the
    # drifted endpoint stays inside, i.e. the constraint never binds
    val_err = 0.0
    compared = 0
    for i, t in enumerate(vg.times):
        ends = vg.points + a * (1.0 - t)
        sel = dom.eval(ends, hess=False).b <= -1e-6
        want = -vg.points[sel] @ a - 0.125 * (1.0 - t)
        if np.any(sel):
            val_err = max(val_err, float(np.max(np.abs(
                vg.values[i, sel] - want))))
            compared += int(sel.sum())
    secs = time.perf_counter() - t0 + s2_suite["secs"]
    ok = (traj_err < 1e-4 and val_err < 1e-4 and compared > 200
          and not vg.failures and secs < 60.0)
    report(3, ok, f"trajectory {traj_err:.2e} value {val_err:.2e} "
           f"on {compared} interior-regime nodes", secs)


def test_criterion_04_containment_and_cost(s1_suite):
    t0 = time.perf_counter()
    dom, prob = s1_suite["dom"], s1_suite["prob"]
    gamma, params = s1_suite["chain"][256]
    gap = feasibility_gap(dom, gamma)
    fine, _ = s1_suite["chain"][4096]

    def total_cost(g):
        return running_cost(prob, g) + float(prob.g(g.knots[-1:]).item())

    c_run = total_cost(gamma)
    c_ref = total_cost(fine)
    rel = abs(c_run - c_ref) / (1.0 + abs(c_ref))
    secs = time.perf_counter() - t0 + s1_suite["secs"]
    ok = gap <= 1e-6 and rel <= 1e-3 and secs < 120.0
    report(4, ok, f"feasibility {gap:.2e} cost {c_run:.6f} vs "
           f"N=4096 oracle {c_ref:.6f} (rel {rel:.2e})", secs)


def test_criterion_05_pmp_suite(s1_suite, s3_suite):
    t0 = time.perf_counter()
    ok = True
    notes = []
    for label, suite in (("S1", s1_suite), ("S3", s3_suite)):
        dom, prob = suite["dom"], suite["prob"]
        reports, ex = suite["reports"], suite["ex"]
        grids = sorted(ex)
        for key in ("state_ode", "adjoint_ode"):
            res = [reports[N].residuals[key] for N in grids]
            ok &= res[-1] < 1e-3
            orders = [np.log2(res[i] / res[i + 1])
                      for i in range(len(res) - 1)
                      if res[i] > RESIDUAL_FLOOR]
            ok &= all(o >= 1.8 for o in orders)
        rep = reports[grids[-1]]
        e = ex[grids[-1]]
        ok &= rep.residuals["transversality"] < 1e-6
        mask = contact_mask(dom, e.gamma)
        sel = mask & junction_clear_mask(mask)
        lam = e.lam[sel]
        ok &= bool(np.min(lam) >= -1e-4 * max(np.max(lam), 1e-12))
        ham = Hamiltonian(prob)
        Lam = feedback_lambda_many(ham, dom, e.gamma.times[sel],
                                   e.gamma.knots[sel], e.p[sel])
        agree = float(np.max(np.abs(Lam - lam) / np.maximum(np.abs(lam),
                                                            1e-12)))
        ok &= agree <= 1e-3
        ok &= rep.checks["speed"]
        nu_cap = max(1.0, 2.0 * prob.mu * delta_choice(prob, dom)[1])
        ok &= -1e-9 <= e.beta_over_delta <= nu_cap
        notes.append(f"{label} adjoint {rep.residuals['adjoint_ode']:.2e} "
                     f"lam-agree {agree:.2e}")
    secs = time.perf_counter() - t0 + s1_suite["secs"] + s3_suite["secs"]
    ok &= secs < 180.0
    report(5, ok, " | ".join(notes), secs)


def test_criterion_06_hamiltonian_conservation(s1_suite):
    t0 = time.perf_counter()
    e = s1_suite["ex"][1024]
    keep = junction_clear_mask(contact_mask(s1_suite["dom"], e.gamma))
    r = e.r[keep]
    spread = float(np.max(r) - np.min(r))
    tol = 1e-6 * (1.0 + abs(float(e.r[0])))
    secs = time.perf_counter() - t0
    ok = spread < tol and secs < 10.0
    report(6, ok, f"drift-free invariant varies by {spread:.2e} "
           f"(tol {tol:.2e})", secs)


def test_criterion_07_energy_and_holder(s1_suite, s2_suite, s3_suite):
    t0 = time.perf_counter()
    ok = True
    worst_gap = -np.inf
    for suite in (s1_suite, s3_suite):
        dom, prob = suite["dom"], suite["prob"]
        K = check_assumptions(prob, dom).K
        for N in (64, 256, 1024):
            gamma, params = suite["chain"][N]
            ok &= energy_certificate(prob, dom, params, gamma, K)
            worst_gap = max(worst_gap, holder_gap(prob, gamma, K))
    dom, prob = s2_suite["dom"], s2_suite["prob"]
    K = check_assumptions(prob, dom).K
    ok &= energy_certificate(prob, dom, s2_suite["params"],
                             s2_suite["gamma"], K)
    worst_gap = max(worst_gap, holder_gap(prob, s2_suite["gamma"], K))
    ok &= worst_gap <= 0.0
    secs = time.perf_counter() - t0
    report(7, ok, f"all certificates hold, worst modulus gap "
           f"{worst_gap:.1e}", secs)


def test_criterion_08_transport_distance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    def quantile_oracle(a, b):
        xa, wa = a.points[:, 0], a.weights
        xb, wb = b.points[:, 0], b.weights
        ia, ib = np.argsort(xa), np.argsort(xb)
        ca, cb = np.cumsum(wa[ia]), np.cumsum(wb[ib])
        cuts = np.unique(np.concatenate([[0.0], ca, cb]))
        cuts[-1] = 1.0
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            u = 0.5 * (lo + hi)
            qa = xa[ia][min(np.searchsorted(ca, u), ca.size - 1)]
            qb = xb[ib][min(np.searchsorted(cb, u), cb.size - 1)]
            total += (hi - lo) * abs(qa - qb)
        return total

    worst_1d = 0.0
    for _ in range(100):
        k1, k2 = rng.integers(2, 6, 2)
        pa = np.column_stack([rng.uniform(-1, 1, k1), np.zeros(k1)])
        pb = np.column_stack([rng.uniform(-1, 1, k2), np.zeros(k2)])
        wa, wb = rng.uniform(0.2, 1, k1), rng.uniform(0.2, 1, k2)
        a = DiscreteMeasure(pa, wa / wa.sum())
        b = DiscreteMeasure(pb, wb / wb.sum())
        worst_1d = max(worst_1d, abs(kantorovich_d1(a, b)
                                     - quantile_oracle(a, b)))

    worst_4 = 0.0
    for _ in range(100):
        wa = rng.integers(1, 5, 4)
        wb = rng.integers(1, 5, 4)
        a = DiscreteMeasure(rng.uniform(-1, 1, (4, 2)), wa / wa.sum())
        b = DiscreteMeasure(rng.uniform(-1, 1, (4, 2)), wb / wb.sum())
        q = int(wa.sum() * wb.sum())
        ra = np.repeat(a.points, np.round(a.weights * q).astype(int), axis=0)
        rb = np.repeat(b.points, np.round(b.weights * q).astype(int), axis=0)
        cost = np.linalg.norm(ra[:, None, :] - rb[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        want = float(cost[rows, cols].sum()) / ra.shape[0]
        worst_4 = max(worst_4, abs(kantorovich_d1(a, b) - want))

    worst_tri = 0.0
    for _ in range(100):
        ms = []
        for _ in range(3):
            k = rng.integers(2, 5)
            w = rng.uniform(0.2, 1, k)
            ms.append(DiscreteMeasure(rng.uniform(-1, 1, (k, 2)),
                                      w / w.sum()))
        d01 = kantorovich_d1(ms[0], ms[1])
        d12 = kantorovich_d1(ms[1], ms[2])
        d02 = kantorovich_d1(ms[0], ms[2])
        worst_tri = max(worst_tri, d02 - (d01 + d12))
        worst_tri = max(worst_tri, abs(d01 - kantorovich_d1(ms[1], ms[0])))
    secs = time.perf_counter() - t0
    ok = (worst_1d < 1e-10 and worst_4 < 1e-10 and worst_tri < 1e-10
          and secs < 10.0)
    report(8, ok, f"quantile {worst_1d:.2e} assignment {worst_4:.2e} "
           f"axioms {worst_tri:.2e}", secs)


def test_criterion_09_mfg_equilibrium(s4_suite):
    t0 = time.perf_counter()
    dom, prob = s4_suite["dom"], s4_suite["prob"]
    coupling, eta = s4_suite["coupling"], s4_suite["eta"]
    history = s4_suite["history"]
    mc = s4_suite["cfg"]["mfg"]

    converged = len(history) <= 50 and history[-1] <= 1e-3

    single = coupled_problem(prob, dom, coupling, eta)
    delta, _ = delta_choice(single, dom)
    L0 = velocity_bound(single, check_assumptions(single, dom),
                        measure_hamiltonian_constants(single, dom)[1], delta)
    times = np.linspace(0.0, prob.horizon, int(mc["n_times"]))
    lip_m = lip_flow(eta, times)
    lip_ok = lip_m <= 1.05 * L0

    # every particle must be (re)optimal against the frozen equilibrium flow
    worst_cert = 0.0
    for tr in eta.trajectories:
        mine = running_cost(single, tr) + float(single.g(tr.knots[-1:]).item())
        best, _ = epsilon_schedule(single, dom, tr.knots[0], delta,
                                   N=tr.N, init=tr)
        opt = running_cost(single, best) + float(
            single.g(best.knots[-1:]).item())
        worst_cert = max(worst_cert, mine - opt)
    cert_ok = worst_cert <= 1e-3

    vc = mc["value"]
    axes = np.linspace(-1.0, 1.0, int(vc["n_points"]))
    pts = np.stack(np.meshgrid(axes, axes, indexing="ij"),
                   axis=-1).reshape(-1, 2)
    pts = pts[dom.eval(pts, hess=False).b <= dom.boundary_tol]
    vt = np.linspace(0.0, prob.horizon, int(vc["n_times"]))
    vg32 = mild_solution(prob, dom, coupling, eta, vt, pts, N=32)
    vg64 = mild_solution(prob, dom, coupling, eta, vt, pts, N=64)
    Lx32, Lt32 = lipschitz_report(vg32)
    Lx64, Lt64 = lipschitz_report(vg64)
    mild_ok = (not vg32.failures and not vg64.failures
               and np.isfinite([Lx32, Lt32, Lx64, Lt64]).all()
               and abs(Lx64 - Lx32) <= 0.25 * max(Lx32, 1e-6)
               and abs(Lt64 - Lt32) <= 0.25 * max(Lt32, 1e-6))

    secs = time.perf_counter() - t0 + s4_suite["secs"]
    ok = converged and lip_ok and cert_ok and mild_ok and secs < 900.0
    report(9, ok, f"{len(history)} iters residual {history[-1]:.2e}, "
           f"Lip(m) {lip_m:.3f} <= {1.05 * L0:.2f}, certificate gap "
           f"{worst_cert:.2e}, Lx {Lx32:.3f}->{Lx64:.3f}", secs)


def test_criterion_10_uniqueness_probe(s4_suite):
    t0 = time.perf_counter()
    dom, prob = s4_suite["dom"], s4_suite["prob"]
    coupling = s4_suite["coupling"]
    mc = s4_suite["cfg"]["mfg"]
    pts = np.asarray(mc["m0"]["points"])
    w = np.asarray(mc["m0"]["weights"])
    N = int(mc["N"])

    # second start: the same atoms riding outward-drifting straight lines
    trajs = []
    for x in pts:
        d = x / max(np.linalg.norm(x), 1e-6)
        line = x + np.linspace(0.0, 1.0, N + 1)[:, None] * (0.4 * d)
        trajs.append(Trajectory(0.0, prob.horizon, line))
    eta0b = TrajectoryMeasure(trajs, w)

    eta_b, _ = fixed_point(prob, dom, coupling, eta0b,
                           alpha=float(mc["alpha"]), tol=float(mc["tol"]),
                           max_iter=int(mc["max_iter"]), N=N)

    vc = mc["value"]
    axes = np.linspace(-1.0, 1.0, int(vc["n_points"]))
    grid = np.stack(np.meshgrid(axes, axes, indexing="ij"),
                    axis=-1).reshape(-1, 2)
    grid = grid[dom.eval(grid, hess=False).b <= dom.boundary_tol]
    vt = np.linspace(0.0, prob.horizon, int(vc["n_times"]))
    vg_a = mild_solution(prob, dom, coupling, s4_suite["eta"], vt, grid,
                         N=int(vc["N"]))
    vg_b = mild_solution(prob, dom, coupling, eta_b, vt, grid,
                         N=int(vc["N"]))
    diff = float(np.max(np.abs(vg_a.values - vg_b.values)))
    secs = time.perf_counter() - t0
    ok = diff <= 2e-3 and not vg_a.failures and not vg_b.failures
    ok &= secs < 1800.0
    report(10, ok, f"value functions from distinct starts differ by "
           f"{diff:.2e}", secs)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["solve", "--config", str(SCENARIOS / "S1.json"),
                   "--grid-n", "128", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in ("trajectory.csv", "pmp_report.json"))
    secs = time.perf_counter() - t0
    report(11, same, "repeated runs byte-identical", secs)
