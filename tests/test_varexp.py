import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszvar import (
    Ball,
    BallCollection,
    CandidateSet,
    SampledField,
    VariableSequence,
    build_grid,
    char_norm,
    exponent_catalog,
    g_operator,
    gd_equivalence_check,
    harmonic_mean_exponent,
    lh_constants,
    luxemburg_norm,
    modular,
    rbv_var_modular,
    rbv_var_seminorm,
    riesz_variation,
    sample_catalog,
    seq_norm,
    varexp_sobolev_equivalence,
)
from rieszvar.config import load_config_file, materialize_level
from rieszvar.errors import BadParams, EmptyRegion, PreconditionError
from rieszvar.grid import FieldKind, region_mask
from rieszvar.harness import run_config
from rieszvar.riesz import measure_balls
from rieszvar.varexp import (
    PackingTerms,
    explore_packings,
    packing_proposals,
    packing_terms,
    rbv_collection_norm,
)

from conftest import const_weight, linear, unit_disk


@pytest.fixture
def p_const(unit_grid):
    return exponent_catalog(unit_grid, "constant", {"value": 2.0})


@pytest.fixture
def p_affine(unit_grid):
    return exponent_catalog(unit_grid, "affine", {"intercept": 2.0, "slope": 1.0})


class TestExponentFunction:
    def test_range(self, p_affine, unit_grid):
        assert p_affine.p_minus == pytest.approx(2.0)
        assert p_affine.p_plus == pytest.approx(3.0)

    def test_below_one_rejected(self, unit_grid):
        with pytest.raises(BadParams):
            SampledField(unit_grid, np.full(unit_grid.shape, 0.5), FieldKind.EXPONENT)

    def test_step_family(self, unit_grid):
        p = exponent_catalog(unit_grid, "step_exponent",
                             {"threshold": 0.5, "left": 2.0, "right": 4.0})
        assert p.p_minus == 2.0 and p.p_plus == 4.0


class TestLogHolder:
    def test_constant_exponent_zero(self, p_const):
        lh = lh_constants(p_const)
        assert lh.c0_estimate == 0.0
        assert lh.c_infinity_estimate == 0.0

    def test_affine_hits_inverse_e(self, p_affine):
        lh = lh_constants(p_affine)
        assert lh.c0_estimate == pytest.approx(math.exp(-1), abs=5e-3)

    def test_jump_blows_up_under_refinement(self):
        estimates = []
        for k in (6, 8):
            g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
            p = exponent_catalog(g, "step_exponent",
                                 {"threshold": 0.5, "left": 2.0, "right": 4.0})
            estimates.append(lh_constants(p).c0_estimate)
        assert estimates[1] > estimates[0]


def brute_force_c0(pfun):
    """max |p(x) - p(y)| * (-log|x - y|) over every pair of masked-in nodes, 0 < |x - y| < 1/2."""
    grid = pfun.grid
    idx = np.flatnonzero(grid.mask.reshape(-1))
    pts, pv = grid.node_coordinate(idx), pfun.values.reshape(-1)[idx]
    best = 0.0
    for i in range(idx.size):
        for j in range(i + 1, idx.size):
            d = math.dist(pts[i], pts[j])
            if d < 0.5:
                best = max(best, abs(pv[i] - pv[j]) * -math.log(d))
    return best


class TestLogHolderExact:
    """c0 is the node-pair supremum, with no sampling: on a dyadic grid |x - y| is exact,
    so the lattice pass equals the pair loop bit for bit."""

    GRIDS = {
        "1d": lambda: build_grid(1, [0.0], 1 / 32, [33]),
        "2d_disk": lambda: build_grid(2, [-1.0, -1.0], 0.125, [17, 17],
                                      lambda x: np.linalg.norm(x, axis=-1) < 0.9),
        "3d": lambda: build_grid(3, [-1.0, -1.0, -1.0], 0.25, [9, 9, 9]),
    }
    EXPONENTS = {
        "affine": ("affine", {"intercept": 3.0, "slope": 0.5}),
        "step": ("step_exponent", {"threshold": 0.03, "left": 2.0, "right": 4.0}),
    }

    @pytest.mark.parametrize("exponent", sorted(EXPONENTS))
    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_equals_the_pair_loop(self, case, exponent):
        grid = self.GRIDS[case]()
        name, params = self.EXPONENTS[exponent]
        pfun = exponent_catalog(grid, name, params)
        assert lh_constants(pfun).c0_estimate == brute_force_c0(pfun)

    def test_step_on_a_fine_box(self):
        """On 33^3 nodes over [-1, 1]^3 the jump of 2 across x = 0.03 sits between
        neighbours at distance 1/16: c0 = 2 log 16. Sampling rows misses it."""
        grid = build_grid(3, [-1.0, -1.0, -1.0], 0.0625, [33, 33, 33])
        pfun = exponent_catalog(grid, "step_exponent",
                                {"threshold": 0.03, "left": 2.0, "right": 4.0})
        assert lh_constants(pfun).c0_estimate == pytest.approx(2 * math.log(16), rel=1e-15)


class TestHarmonicMean:
    def test_constant(self, unit_grid):
        p = exponent_catalog(unit_grid, "constant", {"value": 3.0})
        assert harmonic_mean_exponent(p) == pytest.approx(3.0, rel=1e-12)

    def test_two_level_step(self, unit_grid):
        p = exponent_catalog(unit_grid, "step_exponent",
                             {"threshold": 0.5, "left": 2.0, "right": 4.0})
        assert harmonic_mean_exponent(p) == pytest.approx(8 / 3, abs=0.01)

    def test_single_node_region(self, unit_grid):
        p = exponent_catalog(unit_grid, "constant", {"value": 2.5})
        tiny = Ball([0.5], 1.2 * unit_grid.spacing)
        assert harmonic_mean_exponent(p, tiny) == pytest.approx(2.5)

    def test_bounds(self, p_affine):
        got = harmonic_mean_exponent(p_affine, Ball([0.5], 0.2))
        assert p_affine.p_minus <= got <= p_affine.p_plus


class TestModular:
    def test_zero(self, unit_grid, p_affine):
        zero = SampledField(unit_grid, np.zeros(unit_grid.shape))
        assert modular(zero, p_affine) == 0.0

    def test_unit_function(self, unit_grid, p_affine):
        one = SampledField(unit_grid, np.ones(unit_grid.shape))
        assert modular(one, p_affine) == pytest.approx(1.0, abs=unit_grid.spacing)

    def test_constant_two(self, unit_grid, p_const):
        two = SampledField(unit_grid, np.full(unit_grid.shape, 2.0))
        assert modular(two, p_const) == pytest.approx(4.0, abs=4 * unit_grid.spacing)

    def test_monotone_in_lambda(self, unit_grid, p_affine):
        f = sample_catalog(unit_grid, "sinusoid", {"freq": 1.0})
        v1 = modular(SampledField(unit_grid, f.values / 0.5), p_affine)
        v2 = modular(SampledField(unit_grid, f.values / 2.0), p_affine)
        assert v1 >= v2


class TestLuxemburgNorm:
    def test_indicator_classical(self, unit_grid, p_const):
        one = SampledField(unit_grid, np.ones(unit_grid.shape))
        assert luxemburg_norm(one, p_const) == pytest.approx(1.0, abs=0.01)

    def test_scaled_indicator(self, unit_grid, p_const):
        vals = np.where(unit_grid.axis_coords(0) <= 0.5, 2.0, 0.0)
        f = SampledField(unit_grid, vals)
        assert luxemburg_norm(f, p_const) == pytest.approx(math.sqrt(2), abs=0.01)

    def test_split_exponent_constant(self, unit_grid):
        # (c/l)^2 / 2 + (c/l)^4 / 2 = 1 has t = 1, so the norm is c
        p = exponent_catalog(unit_grid, "step_exponent",
                             {"threshold": 0.5, "left": 2.0, "right": 4.0})
        c = 1.7
        f = SampledField(unit_grid, np.full(unit_grid.shape, c))
        assert luxemburg_norm(f, p) == pytest.approx(c, abs=0.01 * c)

    def test_constant_exponent_collapse(self, unit_grid):
        for p0 in (1.5, 2.0, 3.0):
            pfun = exponent_catalog(unit_grid, "constant", {"value": p0})
            for name, params in (("linear", {}), ("sinusoid", {"freq": 2.0}),
                                 ("bump", {"radius": 0.4, "center": 0.5})):
                f = sample_catalog(unit_grid, name, params)
                lux = luxemburg_norm(f, pfun)
                classical = float(
                    (np.abs(f.values[unit_grid.mask]) ** p0).sum()
                    * unit_grid.cell_volume()
                ) ** (1 / p0)
                assert lux == pytest.approx(classical, rel=1e-8)

    def test_zero_function(self, unit_grid, p_affine):
        zero = SampledField(unit_grid, np.zeros(unit_grid.shape))
        assert luxemburg_norm(zero, p_affine) == 0.0

    def test_unit_ball_property(self, unit_grid, p_affine):
        f = sample_catalog(unit_grid, "bump", {"radius": 0.4, "center": 0.5})
        norm = luxemburg_norm(f, p_affine)
        scaled = SampledField(unit_grid, f.values / norm)
        assert luxemburg_norm(scaled, p_affine) <= 1.0 + 1e-9
        assert modular(scaled, p_affine) <= 1.0 + 1e-9

    def test_bracket_property(self, unit_grid, p_affine):
        f = sample_catalog(unit_grid, "sinusoid", {"freq": 1.0})
        tol = 1e-10
        lam = luxemburg_norm(f, p_affine, tol=tol)
        assert modular(SampledField(unit_grid, f.values / lam), p_affine) <= 1.0
        shrunk = lam * (1 - 10 * tol)
        assert modular(SampledField(unit_grid, f.values / shrunk), p_affine) > 1.0

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.05, 20.0))
    def test_homogeneity(self, alpha):
        g = build_grid(1, [0.0], 1 / 64, [65])
        pfun = exponent_catalog(g, "affine", {"intercept": 2.0, "slope": 1.0})
        f = sample_catalog(g, "sinusoid", {"freq": 1.0})
        base = luxemburg_norm(f, pfun)
        scaled = luxemburg_norm(SampledField(g, alpha * f.values), pfun)
        assert scaled == pytest.approx(alpha * base, rel=1e-8)

    def test_triangle(self, unit_grid, p_affine):
        f = sample_catalog(unit_grid, "sinusoid", {"freq": 1.0})
        g = linear(unit_grid)
        combo = SampledField(unit_grid, f.values + g.values)
        tol = 1e-10
        assert luxemburg_norm(combo, p_affine, tol=tol) <= (
            luxemburg_norm(f, p_affine, tol=tol)
            + luxemburg_norm(g, p_affine, tol=tol)
            + 2 * tol
        )


class TestCharNorm:
    def test_half_measure(self, unit_grid, p_const):
        assert char_norm(Ball([0.5], 0.25), p_const) == pytest.approx(
            math.sqrt(0.5), abs=0.01
        )

    def test_unit_measure_any_exponent(self):
        g = build_grid(1, [0.0], 1 / 512, [1025])  # box [0, 2]
        p = exponent_catalog(g, "affine", {"intercept": 2.0, "slope": 0.5})
        assert char_norm(Ball([1.0], 0.5), p) == pytest.approx(1.0, abs=0.01)

    def test_empty_region(self, unit_grid, p_const):
        with pytest.raises(EmptyRegion):
            char_norm(Ball([0.5 + 1e-5], 1e-9), p_const)


class TestSeqNorm:
    def test_constant_exponent_is_lp(self):
        vals = np.array([3.0, -4.0, 1.5])
        s = VariableSequence(vals, np.full(3, 3.0))
        assert seq_norm(s) == pytest.approx(
            float(np.sum(np.abs(vals) ** 3) ** (1 / 3)), rel=1e-8
        )

    def test_single_entry(self):
        s = VariableSequence([(-2.5)], [1.7])
        assert seq_norm(s) == pytest.approx(2.5, rel=1e-8)

    def test_golden_ratio_case(self):
        s = VariableSequence([1.0, 1.0], [2.0, 4.0])
        assert seq_norm(s) == pytest.approx(math.sqrt((1 + math.sqrt(5)) / 2), abs=1e-6)

    def test_zero_sequence(self):
        assert seq_norm(VariableSequence([0.0, 0.0], [2.0, 3.0])) == 0.0


class TestGOperator:
    def test_single_ball_linear(self, unit_grid):
        f = linear(unit_grid)
        ball = Ball([0.5], 0.25)
        field = g_operator(f, BallCollection((ball,)))
        x = unit_grid.axis_coords(0)
        inside = np.abs(x - 0.5) < 0.25
        assert np.allclose(field.values[inside], 2.0, atol=4 * unit_grid.spacing / 0.25)
        assert np.all(field.values[~inside] == 0.0)

    def test_constant_zero_field(self, unit_grid):
        f = const_weight(unit_grid, 2.0)
        field = g_operator(SampledField(unit_grid, f.values),
                           BallCollection((Ball([0.5], 0.25),)))
        assert np.all(field.values == 0.0)

    def test_empty_collection(self, unit_grid):
        field = g_operator(linear(unit_grid), BallCollection(()))
        assert np.all(field.values == 0.0)


class TestRbvVarModular:
    def test_constant_function_zero(self, unit_grid, p_affine):
        coll = BallCollection((Ball([0.5], 0.25),))
        f = SampledField(unit_grid, np.full(unit_grid.shape, 3.0))
        assert rbv_var_modular(f, coll, p_affine, 1.0) == 0.0

    def test_constant_exponent_matches_vp_summands(self, unit_grid, p_const):
        coll = BallCollection((Ball([0.25], 0.125), Ball([0.75], 0.125)))
        f = linear(unit_grid)
        got = rbv_var_modular(f, coll, p_const, 1.0)
        expected = 0.0
        for ball in coll:
            from rieszvar import oscillation

            osc = oscillation(f, ball)
            measure = float(
                (np.abs(unit_grid.axis_coords(0) - ball.center[0]) < ball.radius)[
                    unit_grid.mask
                ].sum() * unit_grid.cell_volume()
            )
            expected += (osc / ball.radius) ** 2 * measure
        assert got == pytest.approx(expected, rel=1e-6)

    def test_single_ball_value(self, fine_unit_grid):
        p = exponent_catalog(fine_unit_grid, "constant", {"value": 2.0})
        coll = BallCollection((Ball([0.5], 0.25),))
        got = rbv_var_modular(linear(fine_unit_grid), coll, p, 1.0)
        assert got == pytest.approx(2.0, abs=0.1)

    def test_monotone_in_lambda(self, unit_grid, p_affine):
        coll = BallCollection((Ball([0.3], 0.1), Ball([0.7], 0.1)))
        f = linear(unit_grid)
        assert rbv_var_modular(f, coll, p_affine, 0.5) >= rbv_var_modular(
            f, coll, p_affine, 2.0
        )

    def test_past_the_float_range_is_inf(self):
        """At a tiny lambda the modular is +inf, as ``modular`` is, not an OverflowError."""
        grid = build_grid(1, [0.0], 1 / 64, [65])
        f = linear(grid)
        pfun = exponent_catalog(grid, "affine", {"intercept": 3.0, "slope": 1.0})
        packing = riesz_variation(f, const_weight(grid), 3.0, [1 / 16], method="dp_1d_exact")
        assert rbv_var_modular(f, packing.collection, pfun, 1e-100) == math.inf

    @pytest.mark.parametrize("config, level", [("demos/configs/theorem1_linear.json", 0),
                                               ("demos/configs/theorem1_linear.json", 1),
                                               ("perfbench/configs/verify_2d.json", 0)])
    def test_at_most_one_at_the_family_norm(self, config, level):
        """The modular is the one the family's norm was bisected on, so it is at most 1
        at that norm."""
        cfg = load_config_file(Path(__file__).parents[1] / config)
        _, f, _, pfun = materialize_level(cfg, level)
        families = [t for t in explore_packings(f, pfun, cfg.radii, cfg.method) if t.norm > 0]
        assert families
        for t in families:
            assert rbv_var_modular(f, t, pfun, t.norm) <= 1.0


class TestRbvVarSeminorm:
    def test_constant_exponent_matches_riesz_variation(self, unit_grid, p_const):
        f = linear(unit_grid)
        w = const_weight(unit_grid)
        radii = [1 / 8, 1 / 16, 1 / 32]
        direct = riesz_variation(f, w, 2.0, radii, method="dp_1d_exact")
        varexp = rbv_var_seminorm(f, p_const, radii)
        assert varexp == pytest.approx(direct.variation, rel=0.01)

    def test_constant_function_zero(self, unit_grid, p_affine):
        f = SampledField(unit_grid, np.full(unit_grid.shape, 1.0))
        assert rbv_var_seminorm(f, p_affine, [1 / 8]) == 0.0

    def test_homogeneity_on_fixed_packings(self, unit_grid, p_affine):
        f = linear(unit_grid)
        radii = [1 / 8, 1 / 16]
        packings = explore_packings(f, p_affine, radii)
        alpha = 3.25
        scaled = SampledField(unit_grid, alpha * f.values)
        for coll in packings:
            a = rbv_collection_norm(f, coll, p_affine)
            b = rbv_collection_norm(scaled, coll, p_affine)
            assert b == pytest.approx(alpha * a, rel=1e-7)

    @pytest.mark.parametrize("centres, radii, match", [
        ([0.5 + 1 / 192, 0.25 + 1 / 192], [4 / 64, 4 / 64], "node-centred"),  # h/3 off nodes
        ([1 / 64, 0.5], [4 / 64, 4 / 64], "contained"),  # the first ball sticks out of [0, 1]
        ([math.nan, 0.5], [4 / 64, 4 / 64], "node-centred"),
        ([math.inf, 0.5], [4 / 64, 4 / 64], "node-centred"),
        ([1e300, 0.5], [4 / 64, 4 / 64], "node-centred"),
        ([0.25, 0.5], [math.nan, 4 / 64], "positive and finite"),
        ([0.25, 0.5], [-0.1, 4 / 64], "positive and finite"),
        ([0.25, 0.5], [math.inf, 4 / 64], "positive and finite"),
        ([0.25, 0.5], [1e300, 4 / 64], "contained"),
    ], ids=["off_node", "sticks_out", "nan_centre", "inf_centre", "far_centre", "nan_radius",
            "negative_radius", "inf_radius", "huge_radius"])
    def test_measured_and_proposed_balls_share_the_node_rule(self, centres, radii, match):
        """Proposals decode centres and check containment by the rule measure_balls uses:
        no ball is packed as the one about the nearest node or gathered past the domain.
        Non-finite centres and radii and non-positive radii raise the same way, before any
        integer cast or stencil is made."""
        grid = build_grid(1, [0.0], 1 / 64, [65])
        f, pfun = linear(grid), exponent_catalog(grid, "affine", {"intercept": 2.0, "slope": 1.0})
        balls = CandidateSet([[c] for c in centres], radii, grid=grid)
        with pytest.raises(PreconditionError, match=match):
            measure_balls(f, const_weight(grid), balls)
        with pytest.raises(PreconditionError, match=match):
            packing_proposals(f, pfun, balls, np.array([0.1, 0.1]), "auto")


class TestGdEquivalence:
    def test_constant_exponent_ratio_one(self, unit_grid, p_const):
        f = sample_catalog(unit_grid, "sinusoid", {"freq": 1.0})
        packs = explore_packings(f, p_const, [1 / 8, 1 / 16])
        rows = gd_equivalence_check(f, p_const, packs)
        ratios = [r.value for r in rows if r.quantity == "ratio"]
        assert ratios and all(abs(r - 1.0) <= 1e-6 for r in ratios)

    def test_single_ball_variable_exponent(self, unit_grid, p_affine):
        f = linear(unit_grid)
        packs = [BallCollection((Ball([0.5], 0.25),))]
        rows = gd_equivalence_check(f, p_affine, packs)
        ratio = [r.value for r in rows if r.quantity == "ratio"][0]
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_catalog_affine_exponent_within_bounds(self, unit_grid, p_affine):
        for name, params in (("linear", {}), ("sinusoid", {"freq": 1.0}),
                             ("power_abs", {"beta": 2.0})):
            f = sample_catalog(unit_grid, name, params)
            packs = explore_packings(f, p_affine, [1 / 8, 1 / 16, 1 / 32])
            rows = gd_equivalence_check(f, p_affine, packs)
            summary = [r for r in rows if r.quantity in ("ratio_min", "ratio_max")]
            assert summary and all(r.status == "pass" for r in summary)

    def test_constant_function_skipped(self, unit_grid, p_affine):
        f = SampledField(unit_grid, np.full(unit_grid.shape, 2.0))
        rows = gd_equivalence_check(f, p_affine, [BallCollection((Ball([0.5], 0.25),))])
        assert all(r.quantity == "ratio_skipped" for r in rows)


class TestVarexpSobolev:
    def test_constant_skipped(self, unit_grid):
        p = exponent_catalog(unit_grid, "affine", {"intercept": 3.0, "slope": 1.0})
        f = SampledField(unit_grid, np.full(unit_grid.shape, 4.0))
        rows = varexp_sobolev_equivalence(f, p, explore_packings(f, p, [1 / 8]))
        assert [r.quantity for r in rows] == ["ratio_skipped"]

    def test_constant_exponent_cross_check(self, unit_grid):
        p = exponent_catalog(unit_grid, "constant", {"value": 2.0})
        rows = varexp_sobolev_equivalence(
            linear(unit_grid), p, explore_packings(linear(unit_grid), p, [1 / 8, 1 / 16, 1 / 32])
        )
        ratio = [r.value for r in rows if r.quantity == "ratio"][0]
        assert ratio == pytest.approx(2.0, rel=0.10)

    def test_square_with_affine_exponent_stable(self):
        values = []
        for k in (8, 9):
            g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
            p = exponent_catalog(g, "affine", {"intercept": 3.0, "slope": 1.0})
            f = sample_catalog(g, "power_abs", {"beta": 2.0})
            rows = varexp_sobolev_equivalence(f, p, explore_packings(f, p, [1 / 8, 1 / 16, 1 / 32]))
            ratio = [r.value for r in rows if r.quantity == "ratio"][0]
            assert math.isfinite(ratio)
            values.append(ratio)
        assert abs(values[0] - values[1]) / values[1] < 0.10

    def test_p_minus_at_most_dim_rejected(self, unit_grid):
        p = exponent_catalog(unit_grid, "constant", {"value": 1.0})
        with pytest.raises(PreconditionError):
            varexp_sobolev_equivalence(
                linear(unit_grid), p, explore_packings(linear(unit_grid), p, [1 / 8])
            )


def old_char_norm(region, pfun, tol=1e-10):
    """The Luxemburg norm of a full-grid indicator field, as char_norm once computed it."""
    member = region_mask(pfun.grid, region)
    indicator = SampledField(pfun.grid, member.astype(float), FieldKind.FUNCTION)
    return luxemburg_norm(indicator, pfun, region=region, tol=tol)


def old_collection_norm(f, collection, pfun, tol=1e-10):
    """rbv_collection_norm with one gather per helper and ball, as it once was."""
    entries, expo = [], []
    for ball in collection:
        vals = f.values[region_mask(f.grid, ball)]
        a = float((vals.max() - vals.min()) / ball.radius)
        entries.append(a * float(old_char_norm(ball, pfun, tol=tol)))
        expo.append(harmonic_mean_exponent(pfun, ball))
    if max(entries) == 0.0:
        return 0.0
    return seq_norm(VariableSequence(np.array(entries), np.array(expo)), tol=tol)


class TestOneGatherPerBall:
    """Each packed ball is gathered once; values equal the per-helper path bit for bit."""

    def cases(self):
        line = build_grid(1, [0.0], 1 / 256, [257])
        disk = unit_disk(0.1)
        return [
            (sample_catalog(line, "hat", {"radius": 0.4, "center": 0.5}),
             exponent_catalog(line, "affine", {"intercept": 2.0, "slope": 1.0}),
             [(Ball([0.25], 0.125), Ball([0.75], 0.125)),  # node-centred
              (Ball([0.3], 0.1), Ball([0.7], 0.1))]),  # off-node
            (sample_catalog(disk, "bump", {"radius": 0.75, "center": [0.1, -0.05]}),
             exponent_catalog(disk, "affine", {"intercept": 3.0, "slope": [0.5, 0.25]}),
             [(Ball([0.0, 0.0], 0.3), Ball([0.5, -0.3], 0.2)),
              (Ball([0.03, 0.02], 0.3), Ball([0.55, -0.35], 0.2))]),
        ]

    def test_char_norm_bit_equal(self):
        for _, pfun, collections in self.cases():
            for balls in collections:
                for ball in balls:
                    assert char_norm(ball, pfun) == old_char_norm(ball, pfun)
                    assert char_norm(ball, pfun, tol=1e-4) == old_char_norm(ball, pfun, tol=1e-4)

    def test_collection_norm_bit_equal(self):
        for f, pfun, collections in self.cases():
            for balls in collections:
                coll = BallCollection(balls)
                got = rbv_collection_norm(f, coll, pfun)
                assert got > 0 and got == old_collection_norm(f, coll, pfun)

    def test_record_terms_equal_bare_collection(self):
        """A PackingTerms reuses its gather: same G_D field, norm and modular, bit for bit."""
        for f, pfun, collections in self.cases():
            for balls in collections:
                coll = BallCollection(balls)
                rec = packing_terms(f, coll, pfun)
                assert len(rec) == len(coll) and list(rec) == list(coll.balls)
                assert rec.norm == old_collection_norm(f, coll, pfun)
                assert rec.p_ball.tolist() == [harmonic_mean_exponent(pfun, b) for b in balls]
                assert rec.char.tolist() == [char_norm(b, pfun) for b in balls]
                assert np.array_equal(g_operator(f, rec).values, g_operator(f, coll).values)
                assert rbv_var_modular(f, rec, pfun, 0.5) == rbv_var_modular(f, coll, pfun, 0.5)

    def test_explored_records_belong_to_their_field(self, unit_grid, p_affine):
        f = linear(unit_grid)
        packs = explore_packings(f, p_affine, [1 / 8, 1 / 16])
        assert packs and all(isinstance(rec, PackingTerms) for rec in packs)
        for rec in packs:
            assert rec.f is f and rec.pfun is p_affine
            assert rec.norm == rbv_collection_norm(f, rec.collection, p_affine) > 0
            twice = SampledField(unit_grid, 2.0 * f.values)
            assert rbv_collection_norm(twice, rec, p_affine) == pytest.approx(2.0 * rec.norm)

    def test_proposals_build_no_balls(self, monkeypatch):
        """Proposals keep their PackingSolution and count balls by their node sets: a
        run of ``perfbench/configs/verify_2d.json`` builds no BallCollection, and a
        proposal builds its balls on first access, as the packing's own."""
        built = []
        check = BallCollection.__post_init__

        def counted(self):
            built.append(len(self.balls))
            check(self)

        monkeypatch.setattr(BallCollection, "__post_init__", counted)
        path = Path(__file__).parents[1] / "perfbench" / "configs" / "verify_2d.json"
        rows = run_config(load_config_file(path)).rows
        assert any(r.experiment == "gd_equivalence" and r.quantity == "ratio" for r in rows)
        assert not built
        grid = unit_disk(0.125)
        pfun = exponent_catalog(grid, "affine", {"intercept": 3.5, "slope": [0.25, 0.25]})
        f = sample_catalog(grid, "bump", {"radius": 0.75, "center": [0.1, -0.05]})
        records = explore_packings(f, pfun, [0.25, 0.375], method="greedy")
        assert len(records) > 1 and all(len(rec) == len(rec.nodes) for rec in records)
        assert not built
        for rec in records:
            assert rec.collection is rec.family.collection and list(rec) == list(rec.collection)
        assert built == [len(rec) for rec in records]

    def test_empty_ball_rejected(self, unit_grid, p_affine):
        with pytest.raises(EmptyRegion):
            packing_terms(linear(unit_grid), BallCollection((Ball([5.0], 0.1),)), p_affine)

    def test_off_node_balls_accepted(self, unit_grid, p_affine):
        f = linear(unit_grid)
        coll = BallCollection((Ball([0.3], 0.1),))
        g = g_operator(f, coll)
        member = region_mask(unit_grid, coll.balls[0])
        vals = f.values[member]
        assert np.all(g.values[member] == (vals.max() - vals.min()) / 0.1)
        assert np.all(g.values[~member] == 0.0)
        assert rbv_var_modular(f, coll, p_affine, 1.0) > 0.0
