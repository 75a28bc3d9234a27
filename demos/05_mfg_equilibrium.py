"""Crowd-aversion equilibrium over discrete trajectory measures.

Eight agents start clustered near the center of the unit disk and pay a
Gaussian-kernel congestion cost against the population flow. The damped
best-response iteration converges geometrically; the equilibrium flow
spreads the crowd, every particle is cost-certified against its own
recomputed optimum, and the mild-solution value function is Lipschitz.
"""

from pathlib import Path

import numpy as np

from statecon import (constant_measure, fixed_point, lip_flow, mild_solution,
                      lipschitz_report)
from statecon.cli import (build_coupling, build_domain, build_problem,
                          load_config)

cfg = load_config(str(Path(__file__).resolve().parents[1] / "scenarios"
                      / "S4.json"))
dom = build_domain(cfg)
prob = build_problem(cfg, dom)
mc = cfg["mfg"]
coupling = build_coupling(mc)
atoms = np.asarray(mc["m0"]["points"])
weights = np.asarray(mc["m0"]["weights"])

eta0 = constant_measure(atoms, weights, prob.horizon, N=64)
eta, history = fixed_point(prob, dom, coupling, eta0, alpha=0.5, tol=1e-3,
                           max_iter=50)
print(f"converged in {len(history)} iterations, final residual "
      f"{history[-1]:.2e}")
print("residual history:", "  ".join(f"{r:.1e}" for r in history))

start = np.linalg.norm(atoms, axis=1) @ weights
end = np.linalg.norm(eta.positions_at(prob.horizon)[0], axis=1) @ eta.weights
print(f"mean radius m0 {start:.3f} -> m(T) {end:.3f} (crowd spreads)")
times = np.linspace(0.0, prob.horizon, 9)
print(f"flow Lipschitz constant {lip_flow(eta, times):.4f}")

pts = dom.sample_closure(np.random.default_rng(7), 12)
vg = mild_solution(prob, dom, coupling, eta, np.linspace(0.0, 1.0, 3), pts,
                   N=32)
Lx, Lt = lipschitz_report(vg)
print(f"mild solution Lipschitz constants  Lx = {Lx:.3f}  Lt = {Lt:.3f}")
