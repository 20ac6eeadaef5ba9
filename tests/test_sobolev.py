import math

import numpy as np
import pytest

from rieszvar import (
    Mollifier,
    SampledField,
    build_grid,
    catalog_gradient,
    mollify,
    morrey_check,
    riesz_variation,
    sample_catalog,
    sobolev_norm,
    weighted_lp_norm,
)
from rieszvar.errors import ErodedEmpty, PreconditionError
from rieszvar.grid import FieldKind, gradient_fd
from rieszvar.sobolev import choose_morrey_q, eroded_mask, mollify_gradient_bound

from conftest import const_weight, linear


class TestWeightedLpNorm:
    def test_unit(self, unit_grid):
        got = weighted_lp_norm(const_weight(unit_grid), const_weight(unit_grid), 2.0)
        assert got == pytest.approx(1.0, abs=unit_grid.spacing)

    def test_linear(self, unit_grid):
        got = weighted_lp_norm(linear(unit_grid), const_weight(unit_grid), 2.0)
        assert got == pytest.approx(1 / math.sqrt(3), abs=0.01)

    def test_linear_weight(self, unit_grid):
        w = SampledField(unit_grid, unit_grid.axis_coords(0), FieldKind.WEIGHT)
        got = weighted_lp_norm(linear(unit_grid), w, 2.0)
        assert got == pytest.approx(0.5, abs=0.01)

    def test_homogeneity_and_triangle(self, unit_grid):
        f = sample_catalog(unit_grid, "sinusoid", {"freq": 2.0})
        g = linear(unit_grid)
        w = const_weight(unit_grid)
        alpha = -2.5
        scaled = SampledField(unit_grid, alpha * f.values)
        assert weighted_lp_norm(scaled, w, 3.0) == pytest.approx(
            abs(alpha) * weighted_lp_norm(f, w, 3.0), rel=1e-12
        )
        combo = SampledField(unit_grid, f.values + g.values)
        assert weighted_lp_norm(combo, w, 3.0) <= (
            weighted_lp_norm(f, w, 3.0) + weighted_lp_norm(g, w, 3.0) + 1e-12
        )


class TestSobolevNorm:
    def test_zero(self, unit_grid):
        zero = SampledField(unit_grid, np.zeros(unit_grid.shape))
        assert sobolev_norm(zero, const_weight(unit_grid), 2.0) == 0.0

    def test_linear(self, unit_grid):
        got = sobolev_norm(linear(unit_grid), const_weight(unit_grid), 2.0)
        assert got == pytest.approx(1 / math.sqrt(3) + 1.0, abs=0.02)

    def test_constant(self, unit_grid):
        c = 2.5
        got = sobolev_norm(const_weight(unit_grid, c), const_weight(unit_grid), 3.0)
        assert got == pytest.approx(c, abs=0.01)


class TestGradientConvergence:
    @pytest.mark.parametrize("name,params", [
        ("sinusoid", {"freq": 1.0}),
        ("bump", {"radius": 0.45, "center": 0.5}),
    ])
    def test_interior_order_at_least_1_8(self, name, params):
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


class TestMollify:
    def test_constant_preserved(self, unit_grid):
        m = mollify(const_weight(unit_grid, 3.0), 0.05)
        assert np.allclose(m.values[m.grid.mask], 3.0, atol=1e-10)

    def test_affine_preserved(self, unit_grid):
        f = linear(unit_grid, slope=2.0, intercept=-1.0)
        m = mollify(f, 0.05)
        assert np.abs(m.values[m.grid.mask] - f.values[m.grid.mask]).max() <= 1e-10

    def test_hat_sup_distance_decreases(self):
        g = build_grid(1, [-2.0], 1 / 256, [1025])
        f = sample_catalog(g, "hat", {"radius": 1.0})
        dists = []
        for R in (0.2, 0.1, 0.05):
            m = mollify(f, R)
            dists.append(np.abs(m.values[m.grid.mask] - f.values[m.grid.mask]).max())
        assert dists[0] > dists[1] > dists[2]

    def test_mass_is_one(self, unit_grid):
        for R in (0.02, 0.05, 0.1):
            assert Mollifier(R).mass(unit_grid) == pytest.approx(1.0, abs=1e-6)

    def test_eroded_empty(self):
        g = build_grid(1, [0.0], 0.05, [5])  # box [0, 0.2]
        with pytest.raises(ErodedEmpty):
            mollify(linear(g), 0.2)

    def test_scale_below_2h_rejected(self, unit_grid):
        with pytest.raises(PreconditionError):
            mollify(linear(unit_grid), unit_grid.spacing)

    def test_eroded_mask_respects_holes(self):
        g = build_grid(1, [0.0], 0.01, [101],
                       lambda pts: np.abs(pts[..., 0] - 0.5) > 0.05)
        eroded = eroded_mask(g, 0.1)
        x = g.axis_coords(0)
        assert not eroded[np.abs(x - 0.5) < 0.14].any()
        assert eroded[np.abs(x - 0.2) < 0.01].all()


class TestMorrey:
    def test_constant_gives_zero(self, unit_grid):
        f = const_weight(unit_grid, 2.0)
        rows = morrey_check(SampledField(unit_grid, f.values), const_weight(unit_grid),
                            4.0, [([0.5], 0.2)], q=2.0)
        assert all(r.value == 0.0 for r in rows)

    def test_linear_stable_across_refinement(self):
        values = []
        for k in (7, 8):
            g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
            rows = morrey_check(linear(g), const_weight(g), 4.0,
                                [([0.5], 0.25)], q=2.0, seed=5)
            values.append([r for r in rows if r.quantity == "max_C_hat"][0].value)
        assert all(math.isfinite(v) and v > 0 for v in values)
        assert max(values) / min(values) < 2.0

    def test_linear_matches_closed_form(self, fine_unit_grid):
        # |z - y| / (|z - y|^{1/2} * |B_2R|^{1/4} * (int_B 1)^{1/4}) peaks at
        # sqrt(0.5) / (1^{1/4} * 0.5^{1/4}) for B = B(0.5, 0.25), q=2, p=4
        rows = morrey_check(linear(fine_unit_grid), const_weight(fine_unit_grid),
                            4.0, [([0.5], 0.25)], q=2.0, seed=1, pair_budget=20000)
        c_hat = [r for r in rows if r.quantity == "max_C_hat"][0].value
        expected = math.sqrt(0.5) / (1.0 * 0.5**0.25)
        assert c_hat == pytest.approx(expected, rel=0.02)

    def test_precondition_violation(self, unit_grid):
        with pytest.raises(PreconditionError):
            choose_morrey_q(1.0, 1, 1.5)  # p <= n * rw

    def test_q_range_enforced(self, unit_grid):
        with pytest.raises(PreconditionError):
            morrey_check(linear(unit_grid), const_weight(unit_grid), 2.0,
                         [([0.5], 0.2)], q=3.0)  # nq >= p


class TestMollifyGradientBound:
    def test_ratios_bounded_over_dyadic_scales(self):
        g = build_grid(1, [0.0], 1 / 512, [513])
        f = sample_catalog(g, "sinusoid", {"freq": 1.0})
        w = const_weight(g)
        packing = riesz_variation(f, w, 2.0, [1 / 16, 1 / 32], method="dp_1d_exact")
        pairs = mollify_gradient_bound(f, w, 2.0, [1 / 8, 1 / 16, 1 / 32], packing.total)
        ratios = [r for _, r in pairs]
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) / min(ratios) < 4.0
