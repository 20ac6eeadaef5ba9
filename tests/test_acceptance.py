"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rieszvar import (
    SampledField,
    VariableSequence,
    Mollifier,
    build_grid,
    catalog_gradient,
    classical_riesz_1d,
    exponent_catalog,
    gd_equivalence_check,
    luxemburg_norm,
    mollify,
    pack_1d_exact,
    pack_greedy,
    pack_local_search,
    rbv_var_seminorm,
    riesz_variation,
    sample_catalog,
    seq_norm,
    varexp_sobolev_equivalence,
    weak_type_check,
    weighted_lp_norm,
)
from rieszvar.grid import balls_disjoint, gradient_fd, region_mask
from rieszvar.varexp import explore_packings
from rieszvar.weights import ap_constant, generate_cubes, rh_constant

from conftest import ball_scores, scored_set


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS")


def unit_weight(grid):
    return sample_catalog(grid, "constant", {"value": 1.0})


def test_criterion_1_one_dimensional_exact_anchor():
    with criterion(1, "1D exact anchor"):
        grid = build_grid(1, [0.0], 1 / 1024, [1025])
        f = sample_catalog(grid, "linear", {"slope": 1.0})
        w = unit_weight(grid)
        radii = [2.0**-k for k in range(3, 10)]
        for p in (2.0, 3.0, 4.0):
            started = time.perf_counter()
            sol = riesz_variation(f, w, p, radii, method="dp_1d_exact")
            elapsed = time.perf_counter() - started
            assert abs(sol.variation - 2.0) / 2.0 <= 0.05
            grad_norm = weighted_lp_norm(
                SampledField(grid, gradient_fd(f)[0].values), w, p
            )
            assert abs(grad_norm - 1.0) <= 0.01
            assert elapsed < 10.0


def test_criterion_2_classical_riesz_identity():
    with criterion(2, "classical Riesz identity"):
        grid = build_grid(1, [0.0], 1e-3, [1001])
        cases = [
            (sample_catalog(grid, "linear", {"slope": 1.0}), 1.0),
            (sample_catalog(grid, "power_abs", {"beta": 2.0}), 4 / 3),
            (sample_catalog(grid, "sinusoid", {"freq": 1.0}), math.pi**2 / 2),
        ]
        for f, expected in cases:
            got = classical_riesz_1d(f, 2.0)
            assert abs(got - expected) / expected <= 0.01


def test_criterion_3_weight_constants():
    with criterion(3, "weight constants"):
        # a node sits 1e-9 from the singular point so the estimator can
        # detect the A_2 blow-up of |x|^alpha as alpha approaches 1
        grid = build_grid(1, [-1.0 + 1e-9], 1 / 1024, [2049])
        family = generate_cubes(grid, 0.25, 4, shifts=2)
        one = unit_weight(grid)
        for p in (2.0, 3.0):
            assert abs(ap_constant(one, p, family) - 1.0) <= 1e-12
        for s in (1.5, 2.0):
            assert abs(rh_constant(one, s, family) - 1.0) <= 1e-12
        base = ap_constant(one, 2.0, family)  # alpha = 0 value, exactly 1
        estimates = {}
        for alpha in (0.25, -0.25, 0.95, -0.95):
            w = sample_catalog(grid, "power_weight", {"alpha": alpha})
            estimates[alpha] = ap_constant(w, 2.0, family)
        for alpha in (0.95, -0.95):
            assert estimates[alpha] > 10.0 * base
        for alpha in (0.25, -0.25):
            assert estimates[alpha] < 3.0
        # monotone blow-up toward the A_2 boundary
        assert base <= estimates[0.25] + 1e-12
        assert estimates[0.25] < estimates[0.95]
        assert estimates[-0.25] < estimates[-0.95]


def test_criterion_4_lemma_subset_property():
    with criterion(4, "measure-ratio subset property"):
        grid = build_grid(1, [-1.0], 2 / 2047, [2048])
        family = generate_cubes(grid, 0.25, 3, shifts=2)
        weights = [
            unit_weight(grid),
            sample_catalog(grid, "power_weight", {"alpha": 0.5}),
            sample_catalog(grid, "step_weight",
                           {"lo": 0.0, "hi": 0.5, "inside": 2.0, "outside": 1.0}),
        ]
        p = 2.0
        rng = np.random.Generator(np.random.Philox(42))
        cubes = list(family)
        for w in weights:
            ap = ap_constant(w, p, family)
            assert math.isfinite(ap)
            for _ in range(200):
                cube = cubes[int(rng.integers(0, len(cubes)))]
                member = np.flatnonzero(region_mask(grid, cube).reshape(-1))
                size = int(rng.integers(1, member.size + 1))
                subset = rng.choice(member, size=size, replace=False)
                w_flat = w.values.reshape(-1)
                lhs = (size / member.size) ** p
                rhs = (ap + 1e-6) * w_flat[subset].sum() / w_flat[member].sum()
                assert lhs <= rhs


def test_criterion_5_weak_type():
    with criterion(5, "weak-type estimate"):
        grid = build_grid(1, [-2.0], 1 / 256, [1025])
        hat = sample_catalog(grid, "hat", {"radius": 1.0})
        lebesgue = unit_weight(grid)
        step = sample_catalog(grid, "step_weight",
                              {"lo": 0.0, "hi": 0.5, "inside": 2.0, "outside": 1.0})
        t_grid = [0.125, 0.25, 0.5, 0.75, 0.9, 0.99]
        radii = [1 / 8, 1 / 16, 1 / 32]
        shell = 3 * grid.spacing
        for w in (lebesgue, step):
            for p in (1.0, 2.0):
                k_max = 32.0 * 2.0**p
                rows = weak_type_check(hat, w, riesz_variation(hat, w, p, radii), t_grid, shell,
                                       k_max=k_max)
                max_row = [r for r in rows if r.quantity == "max_K"][0]
                assert max_row.status == "pass"
                assert max_row.value <= k_max
        rows = weak_type_check(hat, lebesgue, riesz_variation(hat, lebesgue, 2.0, radii), t_grid,
                               shell)
        max_row = [r for r in rows if r.quantity == "max_K"][0]
        assert max_row.value <= 0.5


def test_criterion_6_optimizer_soundness():
    with criterion(6, "optimizer soundness"):
        rng = np.random.Generator(np.random.Philox(20240801))
        started = time.perf_counter()
        n_sets = 50
        for _ in range(n_sets):
            n = int(rng.integers(6, 16))
            entries = []
            for _ in range(n):
                c = float(rng.uniform(0.1, 0.9))
                r = float(rng.uniform(0.02, 0.15))
                s = float(rng.uniform(0.0, 10.0))
                entries.append(([c], r, s))
            scored = scored_set(entries)
            optimum = _brute_force(ball_scores(scored))
            dp = pack_1d_exact(scored, 2.0)
            assert dp.total == optimum
            greedy = pack_greedy(scored, 2.0)
            local = pack_local_search(greedy, scored)
            if optimum > 0:
                assert greedy.total >= 0.6 * optimum
                assert local.total >= 0.95 * optimum
        assert time.perf_counter() - started < 60.0


def _brute_force(scored):
    n = len(scored)
    conf = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and not balls_disjoint(scored[i].ball, scored[j].ball):
                conf[i] |= 1 << j
    feasible = [False] * (1 << n)
    feasible[0] = True
    best_set = 0
    best_total = 0.0
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        ok = feasible[rest] and not (conf[low] & rest)
        feasible[s] = ok
        if ok:
            total = math.fsum(scored[i].score for i in range(n) if s >> i & 1)
            if total > best_total:
                best_total, best_set = total, s
    return math.fsum(scored[i].score for i in range(n) if best_set >> i & 1)


def test_criterion_7_variable_exponent_collapse_and_equivalences():
    with criterion(7, "variable-exponent collapse and equivalences"):
        grid = build_grid(1, [0.0], 1 / 256, [257])
        catalog = [
            ("linear", {"slope": 1.0}),
            ("power_abs", {"beta": 2.0}),
            ("sinusoid", {"freq": 1.0}),
            ("hat", {"radius": 0.4, "center": 0.5}),
            ("bump", {"radius": 0.4, "center": 0.5}),
        ]
        # constant-exponent collapse at 1e-8 relative
        for p0 in (1.5, 2.0, 3.0):
            pfun = exponent_catalog(grid, "constant", {"value": p0})
            for name, params in catalog:
                f = sample_catalog(grid, name, params)
                lux = luxemburg_norm(f, pfun)
                classical = float(
                    (np.abs(f.values[grid.mask]) ** p0).sum() * grid.cell_volume()
                ) ** (1 / p0)
                assert abs(lux - classical) <= 1e-8 * classical
        # sequence-space golden ratio anchor
        golden = seq_norm(VariableSequence([1.0, 1.0], [2.0, 4.0]))
        assert abs(golden - math.sqrt((1 + math.sqrt(5)) / 2)) <= 1e-6
        # averaging-operator equivalence, stable across refinement
        radii = [1 / 8, 1 / 16, 1 / 32]
        max_ratios = []
        for k in (8, 9):
            g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
            pfun = exponent_catalog(g, "affine", {"intercept": 2.0, "slope": 1.0})
            level_max = []
            for name, params in catalog:
                f = sample_catalog(g, name, params)
                packs = explore_packings(f, pfun, radii)
                rows = gd_equivalence_check(f, pfun, packs, c_eq=4.0)
                ratios = [r.value for r in rows if r.quantity == "ratio"]
                assert ratios
                assert min(ratios) >= 0.25 and max(ratios) <= 4.0
                level_max.append(max(ratios))
            max_ratios.append(max(level_max))
        drift = abs(max_ratios[0] - max_ratios[1]) / max_ratios[1]
        assert drift < 0.10
        # constant-exponent seminorm agrees with the packing optimizer
        pfun = exponent_catalog(grid, "constant", {"value": 2.0})
        f = sample_catalog(grid, "linear", {"slope": 1.0})
        direct = riesz_variation(f, unit_weight(grid), 2.0, radii, method="dp_1d_exact")
        assert abs(rbv_var_seminorm(f, pfun, radii) - direct.variation) <= 0.01 * direct.variation


def test_criterion_8_variable_exponent_sobolev_ratio():
    with criterion(8, "variable-exponent Sobolev ratio"):
        radii = [1 / 8, 1 / 16, 1 / 32]
        catalog = [
            ("linear", {"slope": 1.0}),
            ("power_abs", {"beta": 2.0}),
            ("sinusoid", {"freq": 1.0}),
        ]
        for name, params in catalog:
            ratios = []
            for k in (8, 9):
                g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
                pfun = exponent_catalog(g, "affine", {"intercept": 3.0, "slope": 1.0})
                f = sample_catalog(g, name, params)
                rows = varexp_sobolev_equivalence(f, pfun, explore_packings(f, pfun, radii),
                                                  c_thm=16.0)
                ratio = [r.value for r in rows if r.quantity == "ratio"][0]
                assert 1 / 16 <= ratio <= 16.0
                ratios.append(ratio)
            assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.10
        # constant-exponent cross-check reproduces the 1D anchor ratio
        g = build_grid(1, [0.0], 1 / 512, [513])
        pfun = exponent_catalog(g, "constant", {"value": 2.0})
        f = sample_catalog(g, "linear", {"slope": 1.0})
        rows = varexp_sobolev_equivalence(f, pfun, explore_packings(f, pfun, radii))
        ratio = [r.value for r in rows if r.quantity == "ratio"][0]
        assert abs(ratio - 2.0) <= 0.2


def test_criterion_9_numerical_hygiene():
    with criterion(9, "numerical hygiene"):
        # finite-difference convergence order on smooth catalog entries
        for name, params in (("sinusoid", {"freq": 1.0}),
                             ("bump", {"radius": 0.45, "center": 0.5})):
            errs = []
            for k in (6, 7, 8):
                g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
                f = sample_catalog(g, name, params)
                exact = catalog_gradient(g, name, params)[0]
                approx = gradient_fd(f)[0]
                interior = np.zeros(g.shape, dtype=bool)
                interior[1:-1] = True
                errs.append(np.abs(approx.values - exact.values)[interior].max())
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert min(orders) >= 1.8
        # mollifier mass and reproduction
        grid = build_grid(1, [0.0], 1 / 256, [257])
        for R in (0.02, 0.05, 0.1):
            assert abs(Mollifier(R).mass(grid) - 1.0) <= 1e-6
        const = sample_catalog(grid, "constant", {"value": 3.0})
        smooth = mollify(SampledField(grid, const.values), 0.05)
        assert np.abs(smooth.values[smooth.grid.mask] - 3.0).max() <= 1e-10
        affine = sample_catalog(grid, "linear", {"slope": 2.0, "intercept": -1.0})
        smooth = mollify(affine, 0.05)
        assert np.abs(
            smooth.values[smooth.grid.mask] - affine.values[smooth.grid.mask]
        ).max() <= 1e-10
        # seminorm homogeneity and triangle inequality at stated tolerances
        w = unit_weight(grid)
        f = sample_catalog(grid, "sinusoid", {"freq": 2.0})
        g_lin = sample_catalog(grid, "linear", {"slope": 1.0})
        alpha = -2.5
        scaled = SampledField(grid, alpha * f.values)
        assert weighted_lp_norm(scaled, w, 3.0) == pytest.approx(
            abs(alpha) * weighted_lp_norm(f, w, 3.0), rel=1e-12
        )
        combo = SampledField(grid, f.values + g_lin.values)
        assert weighted_lp_norm(combo, w, 3.0) <= (
            weighted_lp_norm(f, w, 3.0) + weighted_lp_norm(g_lin, w, 3.0) + 1e-12
        )
        pfun = exponent_catalog(grid, "affine", {"intercept": 2.0, "slope": 1.0})
        tol = 1e-10
        assert luxemburg_norm(SampledField(grid, 4.0 * f.values), pfun, tol=tol) == pytest.approx(
            4.0 * luxemburg_norm(f, pfun, tol=tol), rel=1e-8
        )
        assert luxemburg_norm(combo, pfun, tol=tol) <= (
            luxemburg_norm(f, pfun, tol=tol)
            + luxemburg_norm(g_lin, pfun, tol=tol)
            + 2 * tol
        )
        base = riesz_variation(f, w, 2.0, [1 / 8, 1 / 16], method="dp_1d_exact")
        from rieszvar import score_ball

        rescored = math.fsum(
            score_ball(SampledField(grid, alpha * f.values), w, b, 2.0)
            for b in base.collection
        )
        assert rescored**0.5 == pytest.approx(abs(alpha) * base.variation, rel=1e-12)
