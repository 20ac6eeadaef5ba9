"""The weighted Riesz p-variation as a ball-packing optimization.

V_p(f; domain, w) is a supremum of sum (osc_B(f)/r)^p w(B) over disjoint
ball families. On a grid we search a finite candidate set: in 1D a
weighted-interval-scheduling dynamic program finds the exact optimum
over the candidates, and greedy plus local search gives a lower bound in
any dimension. For f(x) = x on (0, 1) with w = 1 the supremum is
analytic: each ball scores (2r/r)^p * 2r, so the total tends to
2^p |domain| and the variation to 2.
"""

import numpy as np

from rieszvar import (
    build_grid,
    classical_riesz_1d,
    lipschitz_field,
    riesz_variation,
    sample_catalog,
    weak_type_check,
)

radii = [2.0**-k for k in range(3, 10)]
print("variation of f(x) = x, w = 1, as the grid refines (analytic limit 2):")
for k in (8, 9, 10):
    grid = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
    usable = [r for r in radii if r >= 2 * grid.spacing]
    f = sample_catalog(grid, "linear", {"slope": 1.0})
    w = sample_catalog(grid, "constant", {"value": 1.0})
    for p in (2.0, 4.0):
        sol = riesz_variation(f, w, p, usable, method="dp_1d_exact")
        print(f"  h=2^-{k}, p={p}: variation={sol.variation:.5f} "
              f"using {len(sol.indices)} balls")

# The greedy heuristic and local search bracket the DP optimum.
grid = build_grid(1, [0.0], 1 / 512, [513])
f = sample_catalog(grid, "sinusoid", {"freq": 2.0})
w = sample_catalog(grid, "constant", {"value": 1.0})
for method in ("greedy", "greedy_plus_local_search", "dp_1d_exact"):
    sol = riesz_variation(f, w, 2.0, [1 / 8, 1 / 16, 1 / 32], method=method)
    print(f"sin(2 pi x), method {method:>24}: total = {sol.total:.6f}")

# Riesz's classical 1D sum over the finest partition recovers the
# integral of |f'|^p: for f = x^2 and p = 2 that is 4/3.
g = build_grid(1, [0.0], 1e-3, [1001])
sq = sample_catalog(g, "power_abs", {"beta": 2.0})
print(f"classical Riesz sum for x^2, p=2: {classical_riesz_1d(sq, 2.0):.6f} (4/3)")

# The discrete local Lipschitz field of the hat function is 1 on the
# sloped part and 0 far outside; the weak-type statistic
# t^p w({L > t}) / V_p^p stays far below the 32 * 2^p ceiling.
gh = build_grid(1, [-2.0], 1 / 256, [1025])
hat = sample_catalog(gh, "hat", {"radius": 1.0})
wh = sample_catalog(gh, "constant", {"value": 1.0})
lip = lipschitz_field(hat, 3 * gh.spacing)
x = gh.axis_coords(0)
print(f"Lipschitz field at x=0.5: {lip.values[np.argmin(np.abs(x - 0.5))]:.4f} (slope 1)")
rows = weak_type_check(hat, wh, riesz_variation(hat, wh, 2.0, [1 / 8, 1 / 16, 1 / 32]),
                       [0.25, 0.5, 0.75, 0.9, 0.99], 3 * gh.spacing)
for r in rows:
    if r.quantity == "max_K":
        print(f"weak-type max K = {r.value:.4f} (bound {r.tolerance}, {r.status})")
