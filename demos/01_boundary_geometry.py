"""Signed boundary distance on the shipped shapes.

Samples points in the tube around each boundary and checks the two
structural identities the rest of the library leans on: |Db| = 1 and
D2b Db = 0. Also prints the three-case subdifferential of the distance
d(x) = max(b(x), 0) on the unit disk.
"""

import numpy as np

from statecon import Ball, Ellipse, SmoothedBox

rng = np.random.default_rng(0)

shapes = {
    "unit disk": Ball([0.0, 0.0], 1.0),
    "ellipse (2,1)": Ellipse([0.0, 0.0], [2.0, 1.0]),
    "smoothed box": SmoothedBox([0.0, 0.0], [1.0, 0.8], 0.25),
}

for name, dom in shapes.items():
    X = dom.sample_tube(rng, 5000)
    _, G, H, _ = dom.eval(X)
    unit = np.max(np.abs(np.linalg.norm(G, axis=1) - 1.0))
    orth = np.max(np.linalg.norm(np.einsum("mij,mj->mi", H, G), axis=1))
    print(f"{name:14s}  | |Db|-1 | <= {unit:.2e}   |D2b Db| <= {orth:.2e}")

# subdifferential of d = b^+: {0} inside, {Db} outside, Db*[0,1] on the cut
disk = shapes["unit disk"]
for x in ([0.3, 0.1], [1.2, 0.0], [1.0, 0.0]):
    sub = disk.subdiff_distance(np.asarray(x, dtype=float))
    print(f"d_Omega subdifferential at {sub.case:8s} point {x}: "
          f"t * {np.round(sub.direction, 6)}, t in {sub.interval}")
