"""Penalty-scheduled minimization with a boundary contact arc.

A unit-disk problem with running cost 1/2 |v|^2 - 3 x_1 pulls the agent
toward x_1 = +infinity; the optimal path accelerates right, lands on the
boundary at t* = sqrt(2/3), and rests at (1, 0). The closed form of the
free arc is gamma(t) = (sqrt(6) t - 1.5 t^2, 0).
"""

import numpy as np

from statecon import (Ball, check_assumptions, delta_choice,
                      energy_certificate, epsilon_schedule, feasibility_gap,
                      holder_gap, quadratic_problem)

dom = Ball([0.0, 0.0], 1.0)
prob = quadratic_problem(2, potential=[-3.0, 0.0], T=1.0, M=3.0, kappa=0.0)

delta, _ = delta_choice(prob, dom)
gamma, params = epsilon_schedule(prob, dom, np.zeros(2), delta, N=256)

print(f"final epsilon {params.epsilon:g}, delta {params.delta:g}")
print(f"feasibility gap  {feasibility_gap(dom, gamma):.3e}")

tstar = np.sqrt(2.0 / 3.0)
t = gamma.times
free = np.sqrt(6.0) * t - 1.5 * t ** 2
exact = np.stack([np.where(t < tstar, free, 1.0), np.zeros_like(t)], axis=1)
print(f"sup error vs closed form  {np.max(np.abs(gamma.knots - exact)):.3e}")

K = check_assumptions(prob, dom).K
ok = energy_certificate(prob, dom, params, gamma, K)
print(f"energy budget 1.05 K = {1.05 * K:.4f}  "
      f"({'holds' if ok else 'VIOLATED'})")
print(f"Holder modulus slack  {holder_gap(prob, gamma, K):.3e} "
      "(negative means the sqrt(4 mu K) modulus holds)")
