"""Maximum-principle certificate for a boundary-contact minimizer.

Recovers the adjoint p = -f_v along the certified trajectory, extracts the
boundary multiplier lam from the adjoint equation residual, and compares it
with the closed-form feedback multiplier Lambda(t, x, p). A shooting
round-trip (RK4 on the state/adjoint system with boundary feedback)
reproduces the trajectory from its initial data.
"""

import numpy as np

from statecon import (Ball, Hamiltonian, check_extremal, delta_choice,
                      epsilon_schedule, feedback_lambda, make_extremal,
                      quadratic_problem, shoot)
from statecon.pmp import contact_mask

dom = Ball([0.0, 0.0], 1.0)
prob = quadratic_problem(2, potential=[-3.0, 0.0], T=1.0, M=3.0, kappa=0.0)

delta, _ = delta_choice(prob, dom)
gamma, params = epsilon_schedule(prob, dom, np.zeros(2), delta, N=512)
ex = make_extremal(prob, dom, gamma, params=params)

on = contact_mask(dom, gamma)
print(f"contact knots: {np.sum(on)} of {gamma.N + 1}")
print(f"multiplier on the arc: lam in "
      f"[{ex.lam[on].min():.4f}, {ex.lam[on].max():.4f}]  (exact value 3)")

ham = Hamiltonian(prob)
idx = np.flatnonzero(on)[len(np.flatnonzero(on)) // 2]
Lam = feedback_lambda(ham, dom, gamma.times[idx], gamma.knots[idx],
                      ex.p[idx])
print(f"feedback formula at mid-arc: Lambda = {Lam:.6f}, "
      f"residual multiplier lam = {ex.lam[idx]:.6f}")

report = check_extremal(prob, dom, ex)
for name, ok in report.checks.items():
    print(f"  {name:18s} {'pass' if ok else 'FAIL'}  "
          f"(residual {report.residuals.get(name, float('nan')):.3e})")

# shooting round-trip from the recovered initial covector
traj, P = shoot(ham, dom, gamma.knots[0], ex.p[0], N=gamma.N)
print(f"shooting round-trip sup error "
      f"{np.max(np.abs(traj.knots - gamma.knots)):.3e}")
