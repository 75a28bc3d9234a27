"""Command-line front end: config parsing, pipeline orchestration, and
bit-stable CSV/JSON export.

Floats are written with 17 significant digits so repeated runs with the same
config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .geometry import Domain, fd_grad
from .model import (Hamiltonian, check_assumptions, delta_choice,
                    problem_from_config)
from .penalty import Trajectory, epsilon_schedule
from .pmp import check_extremal, make_extremal
from .value import compute_value, dpp_check, lipschitz_report
from .mfg import (GaussianKernelCoupling, constant_measure, evaluate_flow,
                  fixed_point, lip_flow, mild_solution)

log = logging.getLogger("statecon")

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not serializable: {type(o)}")


def write_json(path: Path, obj) -> None:
    # json writes each float as its shortest round-trip repr, which is
    # stable across runs
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def trajectory_rows(dom: Domain, gamma: Trajectory):
    t = gamma.times
    V = gamma.velocities
    V = np.vstack([V, V[-1]])  # repeat the last interval velocity at t = T
    d = np.maximum(dom.b_many(gamma.knots), 0.0)
    for i in range(gamma.N + 1):
        yield [t[i], *gamma.knots[i], *V[i], d[i]]


def read_trajectory_csv(path: Path, dim: int) -> Trajectory:
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()[1:]]
    t = np.array([float(r[0]) for r in rows])
    X = np.array([[float(v) for v in r[1:1 + dim]] for r in rows])
    return Trajectory(float(t[0]), float(t[-1]), X)


class ConfigError(ValueError):
    pass


def _finite(text: str) -> float:
    """A number of the config, which must be finite: not NaN, Infinity or
    -Infinity (which JSON lacks) and not 1e400 (which reads as inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _exact_int(text: str) -> int:
    """An integer of the config, which must lie within +-2**53, the range
    JSON readers agree on (RFC 8259, section 6), as floats and C longs do."""
    value = int(text)
    if abs(value) > 2 ** 53:
        raise ValueError(f"{text} is outside +-2**53")
    return value


def load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(), parse_float=_finite,
                         parse_int=_exact_int, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "domain" not in cfg:
        raise ConfigError("config needs a 'domain' section")
    return cfg


def build_domain(cfg: dict) -> Domain:
    try:
        return Domain.from_config(cfg["domain"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad domain spec: {exc}") from exc


def _grid_size(value, least: int, key: str) -> int:
    """``value`` as a grid size, which the solver needs to be an integer
    >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got "
                          f"{value!r}")
    return value


def _grid_arg(args, value):
    """``--grid-n`` if given (0 included), else the config's ``value``."""
    return value if args.grid_n is None else args.grid_n


def _number(value, key: str, valid, what: str) -> float:
    """``value`` as a float, which must be a JSON number for which
    ``valid`` holds; ``what`` says which numbers those are."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not valid(float(value))):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return float(value)


def build_problem(cfg: dict, dom: Domain):
    pc = cfg.get("problem")
    if pc is None:
        raise ConfigError("config needs a 'problem' section")
    if "mu" in pc and _number(pc["mu"], "mu", np.isfinite,
                              "a finite number") < 1:
        raise ConfigError("mu must satisfy mu >= 1 (uniform convexity of the "
                          "running cost requires it)")
    try:
        return problem_from_config(pc, dom.dim)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad problem spec: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    x0 = np.asarray(cfg.get("x0", [0.0] * dom.dim), dtype=float)
    if x0.shape != (dom.dim,) or dom.signed_distance(x0) > dom.boundary_tol:
        raise ConfigError(f"x0 must be a point of the closed {dom.dim}-D "
                          "domain")
    N = _grid_size(_grid_arg(args, cfg.get("solver", {}).get("N", 256)), 8,
                   "N")
    delta, Nm = delta_choice(prob, dom)
    gamma, params = epsilon_schedule(prob, dom, x0, delta, N=N)
    ex = make_extremal(prob, dom, gamma, params=params)
    report = check_extremal(prob, dom, ex)
    write_csv(out / "trajectory.csv",
              ["t"] + [f"x{i+1}" for i in range(dom.dim)]
              + [f"v{i+1}" for i in range(dom.dim)] + ["d"],
              trajectory_rows(dom, gamma))
    write_json(out / "pmp_report.json", {
        "checks": report.checks, "residuals": report.residuals,
        "epsilon": params.epsilon, "delta": params.delta,
        "terminal_drift_speed": Nm, "nu": ex.beta_over_delta,
        "Lstar": ex.Lstar})
    ok = report.all_passed
    print(f"solve: N={N} eps={_fmt(params.epsilon)} "
          f"delta={_fmt(params.delta)} checks="
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_pmp_check(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    if not args.trajectory:
        raise ConfigError("pmp-check needs --trajectory <csv>")
    try:
        gamma = read_trajectory_csv(Path(args.trajectory), dom.dim)
    except (OSError, IndexError, ValueError) as exc:
        raise ConfigError(f"cannot read trajectory {args.trajectory}: "
                          f"{exc}") from exc
    ex = make_extremal(prob, dom, gamma)
    report = check_extremal(prob, dom, ex)
    write_json(out / "pmp_report.json", {
        "checks": report.checks, "residuals": report.residuals,
        "nu": ex.beta_over_delta, "Lstar": ex.Lstar})
    print(f"pmp-check: {'pass' if report.all_passed else 'FAIL'} "
          f"(state {_fmt(report.residuals['state_ode'])}, "
          f"adjoint {_fmt(report.residuals['adjoint_ode'])})")
    return 0 if report.all_passed else 2


def _node_grid(dom: Domain, T: float, nt: int, nx: int):
    """nt times on [0, T] and the nodes of an nx-per-axis grid over the
    domain's bounding box that lie in the closed domain."""
    pts = dom.box_grid(nx)
    return np.linspace(0.0, T, nt), pts[dom.b_many(pts) <= dom.boundary_tol]


def _write_values(path: Path, vg, points: np.ndarray) -> None:
    """One row (t, x, u) per time and node of a value grid."""
    rows = [[t, *x, u] for t, us in zip(vg.times, vg.values)
            for x, u in zip(points, us)]
    write_csv(path, ["t"] + [f"x{k+1}" for k in range(points.shape[1])]
              + ["u"], rows)


def cmd_value(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    vc = cfg.get("value", {})
    times, points = _node_grid(
        dom, prob.horizon, _grid_size(vc.get("n_times", 5), 2, "value.n_times"),
        _grid_size(_grid_arg(args, vc.get("n_points", 5)), 2,
                   "value.n_points"))
    if points.shape[0] < 2:
        raise ConfigError("the value grid needs 2 nodes in the domain")
    N = _grid_size(vc.get("N", 32), 8, "value.N")
    vg = compute_value(prob, dom, times, points, N=N)
    Lx, Lt = lipschitz_report(vg)
    gap = dpp_check(prob, dom, vg, samples=5,
                    rng=np.random.default_rng(args.seed), N=N)
    _write_values(out / "value.csv", vg, points)
    write_json(out / "value_report.json",
               {"Lx": Lx, "Lt": Lt, "dpp_gap": gap,
                "failures": len(vg.failures)})
    print(f"value: {points.shape[0]} points x {times.size} times, "
          f"Lx={_fmt(Lx)} Lt={_fmt(Lt)} dpp_gap={_fmt(gap)}")
    return 0 if not vg.failures else 2


def cmd_mfg(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    mc = cfg.get("mfg")
    if mc is None:
        raise ConfigError("config needs an 'mfg' section")
    try:
        coupling = GaussianKernelCoupling.from_config(mc.get("coupling", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad mfg.coupling spec: {exc}") from exc
    N = _grid_size(_grid_arg(args, mc.get("N", 64)), 8, "mfg.N")
    vc = mc.get("value", {})
    times = np.linspace(0.0, prob.horizon,
                        _grid_size(mc.get("n_times", 9), 2, "mfg.n_times"))
    vt, pts = _node_grid(
        dom, prob.horizon,
        _grid_size(vc.get("n_times", 3), 2, "mfg.value.n_times"),
        _grid_size(vc.get("n_points", 5), 2, "mfg.value.n_points"))
    if not pts.size:
        raise ConfigError("the mild-solution grid needs a node in the domain")
    value_N = _grid_size(vc.get("N", 32), 8, "mfg.value.N")
    try:
        atoms = np.asarray(mc["m0"]["points"], dtype=float)
        if np.any(dom.b_many(atoms) > dom.boundary_tol):
            raise ValueError("points must lie in the closed domain")
        eta0 = constant_measure(atoms, mc["m0"]["weights"], prob.horizon, N=N)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad m0 spec: {exc}") from exc
    alpha = _number(mc.get("alpha", 0.5), "mfg.alpha", lambda a: 0 < a <= 1,
                    "a number in (0, 1]")
    tol = _number(mc.get("tol", 1e-3), "mfg.tol", lambda t: 0 < t < np.inf,
                  "a positive finite number")
    max_iter = _grid_size(mc.get("max_iter", 50), 1, "mfg.max_iter")
    eta, history = fixed_point(prob, dom, coupling, eta0, alpha=alpha,
                               tol=tol, max_iter=max_iter, N=N)
    flow = evaluate_flow(eta, times)
    rows = []
    for i, t in enumerate(times):
        m = flow.measures[i]
        for k in range(m.points.shape[0]):
            rows.append([t, *m.points[k], m.weights[k]])
    write_csv(out / "flow.csv",
              ["t"] + [f"x{k+1}" for k in range(dom.dim)] + ["w"], rows)
    write_csv(out / "residuals.csv", ["iter", "residual"],
              [[i, r] for i, r in enumerate(history)])
    vg, _flow = mild_solution(prob, dom, coupling, eta, vt, pts, N=value_N)
    _write_values(out / "mild_value.csv", vg, pts)
    print(f"mfg: {len(history)} iterations, residual "
          f"{_fmt(history[-1])}, Lip(m)={_fmt(lip_flow(flow))}")
    return 0


def cmd_geometry_test(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    rng = np.random.default_rng(args.seed)
    pts = dom.sample_tube(rng, 2000)
    g = dom.grad_many(pts)
    unit_err = float(np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)))
    H = dom.hess_many(pts)
    orth_err = float(np.max(np.linalg.norm(
        np.einsum("mij,mj->mi", H, g), axis=1)))
    fd_err = 0.0
    for x in pts[:50]:
        fd_err = max(fd_err, float(np.max(np.abs(
            fd_grad(dom, x) - dom.grad_many(x[None])[0]))))
    report = {"unit_gradient_error": unit_err,
              "hessian_orthogonality_error": orth_err,
              "fd_gradient_error": fd_err,
              "rho0": dom.rho0, "diameter": dom.diameter}
    write_json(out / "geometry_report.json", report)
    ok = unit_err < 1e-9 and orth_err < 1e-6 and fd_err < 1e-7
    print(f"geometry-test: unit={_fmt(unit_err)} orth={_fmt(orth_err)} "
          f"fd={_fmt(fd_err)} {'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_assumptions(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    rep = check_assumptions(prob, dom)
    ham = Hamiltonian(prob)
    payload = {
        "checks": {k: {"passed": c.passed, "measured": c.measured,
                       "bound": c.bound} for k, c in rep.checks.items()},
        "growth_constant": rep.C_mu_M, "measured": rep.measured,
        "energy_budget": rep.K,
        "H_at_origin": float(ham.value_many(
            np.array([0.0]), np.zeros((1, dom.dim)),
            np.zeros((1, dom.dim)))[0]),
    }
    write_json(out / "assumptions.json", payload)
    print(f"assumptions: {'pass' if rep.all_passed else 'FAIL'} "
          f"(K={_fmt(rep.K)})")
    return 0 if rep.all_passed else 1


COMMANDS = {
    "solve": cmd_solve,
    "pmp-check": cmd_pmp_check,
    "value": cmd_value,
    "mfg": cmd_mfg,
    "geometry-test": cmd_geometry_test,
    "assumptions": cmd_assumptions,
}
GRIDLESS = ("pmp-check", "geometry-test", "assumptions")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="statecon",
        description="State-constrained variational solver and checks")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--grid-n", type=int, default=None,
                    help="override the main grid resolution: solver.N "
                    "(solve), value.n_points (value) or mfg.N (mfg); the "
                    "commands without a grid reject it")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the sampled checks: value's DPP sample "
                    "and geometry-test's tube sample")
    ap.add_argument("--trajectory", default=None,
                    help="trajectory CSV (pmp-check)")
    return ap


def configure_logging() -> None:
    """Set the ``statecon`` logger to the level named by CVX_LOG (default
    WARNING); the root logger's level is left alone."""
    name = (os.environ.get("CVX_LOG") or "WARNING").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        raise ConfigError(f"CVX_LOG={os.environ['CVX_LOG']!r} is not a log "
                          "level (DEBUG, INFO, WARNING, ERROR, CRITICAL)")
    logging.basicConfig()
    log.setLevel(level)


def main(argv=None) -> int:
    # freeze the heap at exit, so the interpreter's last full collection
    # walks none of it
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = make_parser().parse_args(argv)
    out = Path(args.out)
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make --out {out}: {exc}") from exc
        configure_logging()
        if args.grid_n is not None and args.command in GRIDLESS:
            raise ConfigError(f"{args.command} has no grid to override; "
                              "drop --grid-n")
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid size too large for this machine
        print("error: the grid does not fit in memory:", exc, file=sys.stderr)
        return 1
    except Exception as exc:
        log.exception("solver failure")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
