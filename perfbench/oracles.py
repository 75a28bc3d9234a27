"""Correctness checks on the files one CLI run wrote.

Each check takes the output directory and the scenario config and returns a
list of failure messages; an empty list means the run is correct.  The
closed forms hold for the shipped scenario data (S1 and S2 on the unit disk
with the quadratic running cost 1/2 |v|^2), which is why the benchmark never
alters it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FEASIBILITY_TOL_FACTOR = 1e-6   # max d(gamma) <= 1e-6 diam (the solver's own)
INTERIOR_TOL = 1e-4             # criterion 3: interior-regime value error
INTERIOR_MARGIN = 1e-6          # criterion 3: drifted endpoint b <= -1e-6
WEIGHT_TOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(-1, len(header))


def output_hashes(out: Path) -> dict:
    """sha256 of every file the run wrote, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _ball(cfg) -> tuple[np.ndarray, float]:
    dc = cfg["domain"]
    if dc["shape"] != "ball":
        raise ValueError(f"closed form needs a ball, got {dc['shape']!r}")
    return np.asarray(dc["center"], dtype=float), float(dc["radius"])


def _diameter(cfg) -> float:
    dc = cfg["domain"]
    if dc["shape"] == "ball":
        return 2.0 * float(dc["radius"])
    if dc["shape"] == "ellipse":
        return 2.0 * float(max(dc["semi_axes"]))
    raise ValueError(f"no diameter rule for {dc['shape']!r}")


def _pmp_checks(out: Path) -> list[str]:
    report = json.loads((out / "pmp_report.json").read_text())
    return [f"PMP check {name} failed"
            for name, ok in sorted(report["checks"].items()) if not ok]


def _feasibility(out: Path, cfg) -> tuple[list[str], list[str], np.ndarray]:
    header, rows = read_csv(out / "trajectory.csv")
    tau = FEASIBILITY_TOL_FACTOR * _diameter(cfg)
    dmax = float(np.max(rows[:, header.index("d")]))
    bad = [f"max d {dmax:.3e} > {tau:.3e}"] if not dmax <= tau else []
    return bad, header, rows


def landing_minimizer(cfg, t: np.ndarray) -> np.ndarray:
    """Accelerate-land-rest minimizer for S1: start at the disk centre,
    linear potential <b, x>, zero terminal cost.  The arc accelerates along
    -b at |b|, lands on the boundary with zero speed at t* = sqrt(2R/|b|),
    and rests there."""
    centre, radius = _ball(cfg)
    pc = cfg["problem"]
    b = np.asarray(pc["potential"]["b"], dtype=float)
    x0 = np.asarray(cfg.get("x0", centre), dtype=float)
    if (pc["potential"]["type"] != "linear"
            or pc["terminal"]["type"] != "zero" or "A" in pc
            or not np.allclose(x0, centre)):
        raise ValueError("closed form needs S1's data")
    c = float(np.linalg.norm(b))
    tstar = np.sqrt(2.0 * radius / c)
    if tstar > float(pc["T"]):
        raise ValueError("closed form needs the arc to land before T")
    s = np.where(t < tstar, c * tstar * t - 0.5 * c * t * t, radius)
    return x0 + s[:, None] * (-b / c)


def check_solve_disk(out: Path, cfg) -> list[str]:
    bad = _pmp_checks(out)
    infeasible, header, rows = _feasibility(out, cfg)
    bad += infeasible
    t = rows[:, 0]
    X = rows[:, 1:1 + (len(header) - 2) // 2]
    dt = t[1] - t[0]
    err = float(np.max(np.abs(X - landing_minimizer(cfg, t))))
    # the landing time falls between grid points, so the discrete minimizer
    # carries an O(dt^2) junction error (tests/test_penalty.py's tolerance)
    if not err < 10.0 * dt * dt:
        bad.append(f"knots {err:.3e} from the closed form > 10 dt^2")
    return bad


def check_solve_ellipse(out: Path, cfg) -> list[str]:
    return _pmp_checks(out) + _feasibility(out, cfg)[0]


def interior_value(cfg, t: np.ndarray, X: np.ndarray):
    """S2 closed form u(t, x) = <b, x> - 1/2 |b|^2 (T - t) for zero potential
    and linear terminal cost <b, x>, valid where the straight arc
    x - b (T - t) stays strictly inside.  Returns (values, mask)."""
    centre, radius = _ball(cfg)
    pc = cfg["problem"]
    if (pc["potential"]["type"] != "zero"
            or pc["terminal"]["type"] != "linear" or "A" in pc):
        raise ValueError("closed form needs S2's data")
    b = np.asarray(pc["terminal"]["b"], dtype=float)
    T = float(pc["T"])
    ends = X - np.outer(T - t, b)
    inside = (np.linalg.norm(ends - centre, axis=1) - radius
              <= -INTERIOR_MARGIN)
    return X @ b - 0.5 * float(b @ b) * (T - t), inside


def check_value_grid(out: Path, cfg) -> list[str]:
    bad = []
    report = json.loads((out / "value_report.json").read_text())
    if report["failures"] != 0:
        bad.append(f"{report['failures']} value nodes failed")
    header, rows = read_csv(out / "value.csv")
    t, X, u = rows[:, 0], rows[:, 1:-1], rows[:, -1]
    want, inside = interior_value(cfg, t, X)
    if not np.any(inside):
        bad.append("no interior-regime nodes to compare")
    elif not np.all(np.isfinite(u[inside])):
        bad.append("non-finite interior value")
    else:
        err = float(np.max(np.abs(u[inside] - want[inside])))
        if not err <= INTERIOR_TOL:
            bad.append(f"interior values {err:.3e} from the closed form")
    return bad


def check_mfg(out: Path, cfg) -> list[str]:
    bad = []
    _, res = read_csv(out / "residuals.csv")
    tol = float(cfg["mfg"].get("tol", 1e-3))
    if not res[-1, 1] <= tol:
        bad.append(f"final residual {res[-1, 1]:.3e} > tol {tol:g}")
    _, flow = read_csv(out / "flow.csv")
    t, X, w = flow[:, 0], flow[:, 1:-1], flow[:, -1]
    for ti in np.unique(t):
        mass = float(np.sum(w[t == ti]))
        if not abs(mass - 1.0) <= WEIGHT_TOL:
            bad.append(f"flow weights at t={ti:g} sum to {mass!r}")
    centre, radius = _ball(cfg)
    b = float(np.max(np.linalg.norm(X - centre, axis=1) - radius))
    tau = FEASIBILITY_TOL_FACTOR * _diameter(cfg)
    if not b <= tau:
        bad.append(f"flow point {b:.3e} outside the disk")
    return bad
