"""Muckenhoupt weight constants over finite cube families.

The A_p, A_1, and reverse-Hölder constants are suprema over all cubes;
on sampled data we evaluate them over a dyadic family (plus half-side
shifted copies) and report the max, a certified lower bound. The story
told here: constant weights sit exactly at 1, while the power weight
|x|^alpha blows up as alpha approaches the A_2 boundary at alpha = 1,
provided a node comes close enough to the singularity to see it.
"""

from rieszvar import (
    Ball,
    a1_constant,
    ap_constant,
    build_grid,
    doubling_constant,
    dual_weight,
    estimate_rw,
    generate_cubes,
    rh_constant,
    sample_catalog,
)

# Place one node 1e-9 away from the singular point x = 0: the dual
# average of |x|^{-alpha} at that node is what detects the blow-up.
grid = build_grid(1, [-1.0 + 1e-9], 1 / 1024, [2049])
family = generate_cubes(grid, min_side=0.25, levels=4, shifts=2)
print(f"cube family: {len(family)} cubes, provenance {family.provenance.value}")

one = sample_catalog(grid, "constant", {"value": 1.0})
print(f"[1]_A2 = {ap_constant(one, 2, family):.15f}  (exactly 1)")
print(f"[1]_A1 = {a1_constant(one, family):.15f}")
print(f"[1]_RH2 = {rh_constant(one, 2, family):.15f}")

print("\nA_2 estimates for |x|^alpha (alpha = 0 gives 1):")
for alpha in (0.25, 0.5, 0.75, 0.95):
    w = sample_catalog(grid, "power_weight", {"alpha": alpha})
    print(f"  alpha={alpha:5.2f}: [w]_A2 >= {ap_constant(w, 2, family):12.4g}")
print("continuum value on a symmetric cube is 1/(1 - alpha^2); the sampled")
print("estimator explodes near alpha = 1 because the dual weight is barely")
print("integrable there.")

# The critical index r_w = inf{q : w in A_q}, found by bisection on the
# monotone map q -> [w]_{A_q}. |x|^{1/2} belongs to A_q exactly for
# q > 3/2; on a regular grid the estimate lands between 1 and 2.
regular = build_grid(1, [-1.0], 2 / 2047, [2048])
w_half = sample_catalog(regular, "power_weight", {"alpha": 0.5})
fam_reg = generate_cubes(regular, 0.25, 4, shifts=2)
est = estimate_rw(w_half, fam_reg, threshold=10.0, tol=1e-3)
print(f"\nr_w estimate for |x|^(1/2): {est.value:.4f} (threshold {est.threshold})")

# Doubling: w(2B) <= C w(B). Lebesgue measure doubles in 1D; |x|^(1/2)
# centered at its zero scales like r^(3/2), so C = 2^(3/2).
balls = [Ball([0.0], r) for r in (0.05, 0.1, 0.2)]
print(f"doubling constant, w = 1:        {doubling_constant(sample_catalog(regular, 'constant', {}), balls):.4f}")
print(f"doubling constant, w = |x|^(1/2): {doubling_constant(w_half, balls):.4f}"
      f"  (2^1.5 = {2**1.5:.4f})")

# The dual weight sigma = w^{1/(1-q)} from the Sobolev-side proof.
sigma = dual_weight(w_half, 3.0)
print(f"dual weight at x=1: {sigma.values[-1]:.4f} (|1|^(-1/4) = 1)")
