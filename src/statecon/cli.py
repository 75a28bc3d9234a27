"""Command-line front end: the one reader of the JSON run configuration
(README's "Config format"), pipeline orchestration, and bit-stable CSV/JSON
export.

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

from .geometry import Ball, Domain, Ellipse, SmoothedBox, fd_grad
from .model import (Hamiltonian, check_assumptions, delta_choice,
                    quadratic_problem)
from .penalty import Trajectory, epsilon_schedule
from .pmp import Extremal, check_extremal, make_extremal
from .value import compute_value, dpp_check, lipschitz_report
from .mfg import (GaussianKernelCoupling, constant_measure, fixed_point,
                  lip_flow, mild_solution)

log = logging.getLogger("statecon")

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def write_json(path: Path, obj) -> None:
    # json writes each float as its shortest round-trip repr, which is
    # stable across runs
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def trajectory_rows(ex: Extremal):
    """Rows (t, x, v, d) of ``solve``'s CSV; d is read off ``ex.geo``."""
    gamma = ex.gamma
    t = gamma.times
    V = gamma.velocities
    V = np.vstack([V, V[-1]])  # repeat the last interval velocity at t = T
    d = np.maximum(ex.geo.b, 0.0)
    for i in range(gamma.N + 1):
        yield [t[i], *gamma.knots[i], *V[i], d[i]]


def read_trajectory_csv(path: Path, dim: int) -> Trajectory:
    """The trajectory of a CSV in the layout that ``solve`` writes.  Its
    times must be the uniform grid from the first to the last, to within
    1e-9 of that span (``solve`` writes them to 17 digits, which read back
    exactly)."""
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()[1:]]
    t = np.array([float(r[0]) for r in rows])
    X = np.array([[float(v) for v in r[1:1 + dim]] for r in rows])
    gamma = Trajectory(float(t[0]), float(t[-1]), X)
    if not np.all(np.abs(t - gamma.times) <= 1e-9 * (gamma.t1 - gamma.t0)):
        raise ValueError("its times are not the uniform grid from "
                         f"{gamma.t0!r} to {gamma.t1!r}")
    return gamma


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


# The keys of README's "Config format", by section: a section maps to its
# own keys, any other key to None.
CONFIG_KEYS = {
    "domain": dict.fromkeys(("shape", "center", "radius", "semi_axes",
                             "half_widths", "corner_radius")),
    "problem": {**dict.fromkeys(("family", "A", "T", "mu", "M", "kappa")),
                "potential": dict.fromkeys(("type", "b")),
                "terminal": dict.fromkeys(("type", "b"))},
    "x0": None,
    "solver": {"N": None},
    "value": dict.fromkeys(("n_times", "n_points", "N")),
    "mfg": {**dict.fromkeys(("alpha", "tol", "max_iter", "N", "n_times")),
            "coupling": dict.fromkeys(("amp", "scale", "terminal_amp")),
            "m0": dict.fromkeys(("points", "weights")),
            "value": dict.fromkeys(("n_times", "n_points", "N"))},
}


def _known_keys(section: dict, keys: dict, path: str = "") -> None:
    """Refuse a key of ``section`` (dotted ``path``) that ``keys`` lacks,
    and so in each subsection that is an object; one that is not keeps the
    error its reader gives."""
    for key, value in section.items():
        if key not in keys:
            raise ConfigError(f"{path}{key} is not a config key (README, "
                              "\"Config format\")")
        if keys[key] is not None and isinstance(value, dict):
            _known_keys(value, keys[key], f"{path}{key}.")


def load_config(path: str) -> dict:
    """The config at ``path``: a JSON object of finite numbers whose keys
    are all in ``CONFIG_KEYS``, whichever command reads it."""
    try:
        cfg = json.loads(Path(path).read_text(), parse_float=_finite,
                         parse_int=_exact_int, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"the config must be a JSON object, got {cfg!r}")
    _known_keys(cfg, CONFIG_KEYS)
    return cfg


def _section(parent: dict, path: str, required: bool = False) -> dict:
    """Section ``path`` (dotted, as "mfg.value") of the config, read from
    its ``parent`` section: a JSON object, {} if absent and not
    ``required``."""
    key = path.rpartition(".")[2]
    if key not in parent:
        if required:
            raise ConfigError(f"config needs a '{path}' section")
        return {}
    if not isinstance(parent[key], dict):
        raise ConfigError(f"{path} must be a JSON object, got "
                          f"{parent[key]!r}")
    return parent[key]


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


def _fits(value, shape: tuple) -> bool:
    """Whether ``value`` is a finite JSON number (not a bool, a string or
    null) if ``shape`` is (), else nested lists of them in ``shape``, where
    a None length is any length of at least 1."""
    if not shape:
        return (not isinstance(value, bool)
                and isinstance(value, (int, float)) and math.isfinite(value))
    return (isinstance(value, list) and len(value) > 0
            and shape[0] in (None, len(value))
            and all(_fits(v, shape[1:]) for v in value))


def _number(value, key: str, valid=math.isfinite,
            what: str = "a finite number") -> float:
    """``value`` as a float, which must be a JSON number for which
    ``valid`` holds; ``what`` says which numbers those are."""
    if not _fits(value, ()) or not valid(float(value)):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return float(value)


def _vector(value, key: str, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``, by the rule of ``_fits``."""
    if not _fits(value, shape):
        size = " x ".join(str(d or "n") for d in shape)
        raise ConfigError(f"{key} must be a list of numbers of shape "
                          f"{size}, got {value!r}")
    return np.array(value, dtype=float)


def _spec(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose ValueError (a check of the
    library) is a configuration error in ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {section} spec: {exc}") from exc


def build_domain(cfg: dict) -> Domain:
    dc = _section(cfg, "domain", required=True)
    shape = dc.get("shape")
    center = _vector(dc.get("center"), "domain.center", (None,))
    if shape == "ball":
        make, args = Ball, [_number(dc.get("radius"), "domain.radius")]
    elif shape == "ellipse":
        make, args = Ellipse, [_vector(dc.get("semi_axes"),
                                       "domain.semi_axes", center.shape)]
    elif shape == "smoothed-box":
        make, args = SmoothedBox, [
            _vector(dc.get("half_widths"), "domain.half_widths",
                    center.shape),
            _number(dc.get("corner_radius"), "domain.corner_radius")]
    else:
        raise ConfigError("domain.shape must be ball, ellipse or "
                          f"smoothed-box, got {shape!r}")
    return _spec("domain", make, center, *args)


def build_problem(cfg: dict, dom: Domain):
    """The quadratic problem of the config's ``problem`` section."""
    pc = _section(cfg, "problem", required=True)
    n = dom.dim
    if pc.get("family", "quadratic") != "quadratic":
        raise ConfigError(f"unknown problem family {pc.get('family')!r}")
    linear = {}
    for key in ("potential", "terminal"):
        sc = _section(pc, f"problem.{key}")
        kind = sc.get("type", "zero")
        if kind == "linear":
            linear[key] = _vector(sc.get("b"), f"problem.{key}.b", (n,))
        elif kind != "zero":
            raise ConfigError(f"unknown problem.{key} type {kind!r}")
    A = _vector(pc["A"], "problem.A", (n, n)) if "A" in pc else None
    mu = _number(pc["mu"], "problem.mu") if "mu" in pc else None
    return _spec("problem", quadratic_problem, n, A=A, **linear,
                 T=_number(pc.get("T", 1.0), "problem.T"), mu=mu,
                 M=_number(pc.get("M"), "problem.M"),
                 kappa=_number(pc.get("kappa", 0.0), "problem.kappa"))


def build_coupling(mc: dict) -> GaussianKernelCoupling:
    """The coupling of the ``mfg`` section ``mc``."""
    cc = _section(mc, "mfg.coupling")
    amp, scale, terminal_amp = (
        _number(cc.get(key, default), f"mfg.coupling.{key}")
        for key, default in (("amp", 1.0), ("scale", 0.5),
                             ("terminal_amp", 0.0)))
    return _spec("mfg.coupling", GaussianKernelCoupling, amp, scale,
                 terminal_amp)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    x0 = _vector(cfg.get("x0", [0.0] * dom.dim), "x0", (dom.dim,))
    if dom.eval(x0, hess=False).b[0] > dom.boundary_tol:
        raise ConfigError(f"x0 must be a point of the closed {dom.dim}-D "
                          "domain")
    N = _grid_size(_grid_arg(args, _section(cfg, "solver").get("N", 256)), 8,
                   "N")
    delta, Nm = delta_choice(prob, dom)
    gamma, params = epsilon_schedule(prob, dom, x0, delta, N=N)
    ex = make_extremal(prob, dom, gamma, params=params)
    report = check_extremal(prob, dom, ex)
    write_csv(out / "trajectory.csv",
              ["t"] + [f"x{i+1}" for i in range(dom.dim)]
              + [f"v{i+1}" for i in range(dom.dim)] + ["d"],
              trajectory_rows(ex))
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
    inside = dom.eval(pts, hess=False).b <= dom.boundary_tol
    return np.linspace(0.0, T, nt), pts[inside]


def _write_values(path: Path, vg, points: np.ndarray) -> None:
    """One row (t, x, u) per time and node of a value grid."""
    rows = [[t, *x, u] for t, us in zip(vg.times, vg.values)
            for x, u in zip(points, us)]
    write_csv(path, ["t"] + [f"x{k+1}" for k in range(points.shape[1])]
              + ["u"], rows)


def cmd_value(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    prob = build_problem(cfg, dom)
    vc = _section(cfg, "value")
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
                    rng=np.random.default_rng(args.seed))
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
    mc = _section(cfg, "mfg", required=True)
    coupling = build_coupling(mc)
    N = _grid_size(_grid_arg(args, mc.get("N", 64)), 8, "mfg.N")
    vc = _section(mc, "mfg.value")
    times = np.linspace(0.0, prob.horizon,
                        _grid_size(mc.get("n_times", 9), 2, "mfg.n_times"))
    vt, pts = _node_grid(
        dom, prob.horizon,
        _grid_size(vc.get("n_times", 3), 2, "mfg.value.n_times"),
        _grid_size(vc.get("n_points", 5), 2, "mfg.value.n_points"))
    if not pts.size:
        raise ConfigError("the mild-solution grid needs a node in the domain")
    value_N = _grid_size(vc.get("N", 32), 8, "mfg.value.N")
    m0 = _section(mc, "mfg.m0", required=True)
    atoms = _vector(m0.get("points"), "mfg.m0.points", (None, dom.dim))
    weights = _vector(m0.get("weights"), "mfg.m0.weights", (len(atoms),))
    if np.any(dom.eval(atoms, hess=False).b > dom.boundary_tol):
        raise ConfigError("mfg.m0.points must lie in the closed domain")
    eta0 = _spec("mfg.m0", constant_measure, atoms, weights, prob.horizon,
                 N=N)
    alpha = _number(mc.get("alpha", 0.5), "mfg.alpha", lambda a: 0 < a <= 1,
                    "a number in (0, 1]")
    tol = _number(mc.get("tol", 1e-3), "mfg.tol", lambda t: 0 < t < np.inf,
                  "a positive finite number")
    max_iter = _grid_size(mc.get("max_iter", 50), 1, "mfg.max_iter")
    eta, history = fixed_point(prob, dom, coupling, eta0, alpha=alpha,
                               tol=tol, max_iter=max_iter)
    rows = [[t, *x, w] for t, X in zip(times, eta.positions_at(times))
            for x, w in zip(X, eta.weights)]
    write_csv(out / "flow.csv",
              ["t"] + [f"x{k+1}" for k in range(dom.dim)] + ["w"], rows)
    write_csv(out / "residuals.csv", ["iter", "residual"],
              [[i, r] for i, r in enumerate(history)])
    vg = mild_solution(prob, dom, coupling, eta, vt, pts, N=value_N)
    _write_values(out / "mild_value.csv", vg, pts)
    print(f"mfg: {len(history)} iterations, residual "
          f"{_fmt(history[-1])}, Lip(m)={_fmt(lip_flow(eta, times))}")
    return 0


def cmd_geometry_test(cfg, out: Path, args) -> int:
    dom = build_domain(cfg)
    rng = np.random.default_rng(args.seed)
    pts = dom.sample_tube(rng, 2000)
    _, g, H, _ = dom.eval(pts)
    unit_err = float(np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)))
    orth_err = float(np.max(np.linalg.norm(
        np.einsum("mij,mj->mi", H, g), axis=1)))
    fd_err = float(np.max(np.abs(fd_grad(dom, pts[:50]) - g[:50])))
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
