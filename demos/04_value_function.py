"""Value function of a terminal-pull problem on the unit disk.

With g = -<a, x> and no running potential the optimizer travels the
straight ray at constant velocity a, and
u(t, x) = -<a, x> - |a|^2 (T - t) / 2 wherever that ray stays inside the
closed disk. The grid solve reproduces the closed form there and reports
discrete Lipschitz constants plus a dynamic-programming consistency gap.
"""

import numpy as np

from statecon import (Ball, compute_value, dpp_check, lipschitz_report,
                      quadratic_problem)

dom = Ball([0.0, 0.0], 1.0)
a = np.array([0.5, 0.0])
prob = quadratic_problem(2, terminal=-a, T=1.0, M=1.0, kappa=0.0)

T = 1.0
times = np.linspace(0.0, T, 5)
rng = np.random.default_rng(3)
pts = dom.sample_closure(rng, 40)
vg = compute_value(prob, dom, times, pts, N=32)

err = 0.0
for i, t in enumerate(times):
    stays = np.linalg.norm(pts + (T - t) * a[None, :], axis=1) <= 1.0 + 1e-12
    exact = -pts @ a - 0.5 * float(a @ a) * (T - t)
    err = max(err, float(np.max(np.abs(vg.values[i, stays] - exact[stays]))))
print(f"closed-form agreement on interior-regime nodes: {err:.3e}")

Lx, Lt = lipschitz_report(vg)
print(f"discrete Lipschitz constants  Lx = {Lx:.4f}  Lt = {Lt:.4f}")

gap = dpp_check(prob, dom, vg, samples=5, rng=np.random.default_rng(11))
print(f"dynamic-programming gap {gap:.3e}")
