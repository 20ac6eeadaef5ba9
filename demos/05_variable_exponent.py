"""Variable-exponent Lebesgue machinery and the RBV^{p(.)} equivalences.

With an exponent function p(x) instead of a constant p, norms become
Luxemburg norms: the infimal lambda bringing a modular below 1. The
variable-exponent variation replaces (osc/r)^p w(B) with harmonic-mean
exponents and indicator norms per ball. Two equivalences are measured:
the averaging operator G_D reproduces the per-packing norm, and the full
seminorm is comparable to the Luxemburg norm of the gradient.
"""

import numpy as np

from rieszvar import (
    Ball,
    VariableSequence,
    build_grid,
    exponent_catalog,
    gd_equivalence_check,
    harmonic_mean_exponent,
    lh_constants,
    luxemburg_norm,
    sample_catalog,
    seq_norm,
    varexp_sobolev_equivalence,
)
from rieszvar.varexp import explore_packings

grid = build_grid(1, [0.0], 1 / 512, [513])
p_affine = exponent_catalog(grid, "affine", {"intercept": 2.0, "slope": 1.0})
print(f"exponent p(x) = 2 + x: p- = {p_affine.p_minus}, p+ = {p_affine.p_plus}")

lh = lh_constants(p_affine)
print(f"log-Hölder constants: c0 = {lh.c0_estimate:.5f} (max of t(-log t) is "
      f"1/e = {np.exp(-1):.5f}), c_inf = {lh.c_infinity_estimate:.4f}")

print(f"harmonic mean exponent on B(0.5, 0.25): "
      f"{harmonic_mean_exponent(p_affine, Ball([0.5], 0.25)):.5f}")

# Luxemburg norms collapse to classical L^p norms for constant exponents.
f = sample_catalog(grid, "sinusoid", {"freq": 1.0})
p2 = exponent_catalog(grid, "constant", {"value": 2.0})
classical = float((f.values[grid.mask] ** 2).sum() * grid.spacing) ** 0.5
print(f"\nLuxemburg vs classical L^2 norm of sin(pi x): "
      f"{luxemburg_norm(f, p2):.10f} vs {classical:.10f}")

# The two-entry sequence norm with exponents (2, 4) solves
# l^-2 + l^-4 = 1, the golden-ratio equation.
gold = seq_norm(VariableSequence([1.0, 1.0], [2.0, 4.0]))
print(f"sequence norm of (1, 1) with exponents (2, 4): {gold:.8f} "
      f"= sqrt((1+sqrt 5)/2) = {np.sqrt((1 + np.sqrt(5)) / 2):.8f}")

# G_D maps f to a piecewise-constant field of scaled oscillations; its
# Luxemburg norm matches the per-packing variation norm.
fx = sample_catalog(grid, "linear", {"slope": 1.0})
packs = explore_packings(fx, p_affine, [1 / 8, 1 / 16, 1 / 32])
print(f"\n{len(packs)} packings explored; G_D equivalence ratios:")
for row in gd_equivalence_check(fx, p_affine, packs):
    if row.quantity == "ratio":
        print(f"  packing {row.params}: ratio = {row.value:.6f}")

# Theorem-level ratio: RBV^{p(.)} seminorm vs gradient Luxemburg norm.
p3 = exponent_catalog(grid, "affine", {"intercept": 3.0, "slope": 1.0})
print("\nseminorm / gradient-norm ratios with p(x) = 3 + x:")
for name, params in (("linear", {"slope": 1.0}),
                     ("power_abs", {"beta": 2.0}),
                     ("sinusoid", {"freq": 1.0})):
    g = sample_catalog(grid, name, params)
    rows = varexp_sobolev_equivalence(g, p3, explore_packings(g, p3, [1 / 8, 1 / 16, 1 / 32]))
    ratio = [r.value for r in rows if r.quantity == "ratio"][0]
    print(f"  {name:>10}: ratio = {ratio:.4f}")
print("for constant p the ratio reproduces the 1D anchor value 2:")
rows = varexp_sobolev_equivalence(fx, p2, explore_packings(fx, p2, [1 / 8, 1 / 16, 1 / 32]))
print(f"  f(x) = x, p = 2: ratio = {[r.value for r in rows if r.quantity == 'ratio'][0]:.4f}")
