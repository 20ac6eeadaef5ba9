import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszvar import (
    Ball,
    Cube,
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
from rieszvar.errors import InfiniteDual, NoCubes, PreconditionError, WeightOverflow
from rieszvar.grid import FieldKind, SampledField, region_mask
from rieszvar.riesz import candidate_balls, make_scores, measure_balls, riesz_variation
from rieszvar.sobolev import weighted_lp_norm
from rieszvar.weights import (
    CubeArrays,
    CubeFamily,
    CubeProvenance,
    RwEstimate,
    _cube_values,
    doubling_ball_family,
)

from conftest import const_weight


def step_weight(grid):
    """1 + indicator of [0, 1/2] along the first axis."""
    return sample_catalog(
        grid, "step_weight", {"lo": 0.0, "hi": 0.5, "inside": 2.0, "outside": 1.0}
    )


@pytest.fixture
def family(unit_grid):
    return generate_cubes(unit_grid, 1 / 16, 4, shifts=1)


class TestGenerateCubes:
    def test_dyadic_count(self):
        g = build_grid(1, [0.0], 1 / 64, [65])
        fam = generate_cubes(g, 1 / 16, 4, shifts=1)
        # sides 1/16, 1/8, 1/4, 1/2 tile [0,1] fully: 16 + 8 + 4 + 2
        assert len(fam) == 30
        assert fam.provenance == CubeProvenance.DYADIC

    def test_shifted_has_more(self):
        g = build_grid(1, [0.0], 1 / 64, [65])
        plain = generate_cubes(g, 1 / 16, 4, shifts=1)
        shifted = generate_cubes(g, 1 / 16, 4, shifts=2)
        assert len(shifted) > len(plain)
        assert shifted.provenance == CubeProvenance.SHIFTED_DYADIC

    def test_min_side_below_spacing(self, unit_grid):
        with pytest.raises(PreconditionError):
            generate_cubes(unit_grid, unit_grid.spacing / 2, 1)

    def test_no_cubes_when_all_clipped(self):
        g = build_grid(1, [0.0], 0.25, [3])  # box extent 0.5
        with pytest.raises(NoCubes):
            generate_cubes(g, 1.0, 1)


class TestCubeFamilyNodes:
    """A family is bound to its grid and gathers each cube's nodes once."""

    def test_drops_empty_cube_on_disk(self, disk_grid):
        corner = Cube([-1.0, -1.0], 0.2)  # every node of it lies outside the disk
        centre = Cube([-0.2, -0.2], 0.4)
        assert not region_mask(disk_grid, corner).any()
        fam = CubeFamily(disk_grid, (corner, centre), CubeProvenance.DYADIC)
        assert isinstance(fam.cubes, CubeArrays)
        assert fam.cubes.corners.tolist() == [centre.corner.tolist()]
        assert fam.cubes.sides.tolist() == [centre.side]
        assert np.array_equal(fam.nodes[0], np.flatnonzero(region_mask(disk_grid, centre)))
        with pytest.raises(NoCubes):
            CubeFamily(disk_grid, (corner,), CubeProvenance.DYADIC)

    def test_nodes_are_flat_region_masks(self, disk_grid):
        fam = generate_cubes(disk_grid, 0.2, 3, shifts=2)
        assert len(fam.nodes) == len(fam)
        for cube, idx in zip(fam, fam.nodes):
            assert idx.size and np.array_equal(idx, np.flatnonzero(region_mask(disk_grid, cube)))

    def test_weight_on_other_grid_rejected(self, disk_grid):
        fam = generate_cubes(disk_grid, 0.2, 2)
        blocks = _cube_values(const_weight(disk_grid), fam, "ap_constant")
        assert sum(len(block) for block in blocks) == len(fam)
        mask = disk_grid.mask.copy()
        mask[10, 10] = False
        with pytest.raises(PreconditionError):
            _cube_values(const_weight(replace(disk_grid, mask=mask)), fam, "ap_constant")
        with pytest.raises(PreconditionError):
            ap_constant(const_weight(replace(disk_grid, mask=mask)), 2.0, fam)
        for other in (build_grid(2, [-1.0, -1.0], 0.1, [21, 20]),
                      replace(disk_grid, origin=[-0.9, -1.0]),
                      replace(disk_grid, spacing=0.05)):
            with pytest.raises(PreconditionError):
                _cube_values(const_weight(other), fam, "ap_constant")


def _reference_values(w, family):
    """One region_mask per cube and call, as the constants once gathered them."""
    return [w.values[region_mask(w.grid, cube)] for cube in family]


def reference_ap(w, p, family):
    best = 0.0
    for vals in _reference_values(w, family):
        with np.errstate(divide="ignore", over="ignore"):
            dual = vals ** (1.0 / (1.0 - p))
        best = max(best, float(vals.mean() * float(dual.mean()) ** (p - 1.0)))
    return best


def reference_rw(w, family, threshold, tol=1e-3, q_max=64.0):
    """The scalar bisection over reference_ap that estimate_rw once ran."""
    lo = 1.0 + tol
    if reference_ap(w, lo, family) <= threshold:
        return RwEstimate(lo, False, threshold, tol)
    if reference_ap(w, q_max, family) > threshold:
        return RwEstimate(q_max, True, threshold, tol)
    hi = q_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if reference_ap(w, mid, family) <= threshold:
            hi = mid
        else:
            lo = mid
    return RwEstimate(hi, False, threshold, tol)


def reference_a1(w, family):
    best = 0.0
    for vals in _reference_values(w, family):
        if vals.min() == 0.0:
            return float("inf")
        best = max(best, float(vals.mean() / vals.min()))
    return best


def reference_rh(w, s, family):
    best = 0.0
    for vals in _reference_values(w, family):
        best = max(best, float((vals**s).mean() ** (1.0 / s) / vals.mean()))
    return best


class TestConstantsMatchRegionMaskReference:
    @pytest.fixture(params=["disk", "symmetric"])
    def case(self, request, disk_grid, symmetric_grid):
        if request.param == "disk":
            w = sample_catalog(disk_grid, "power_weight",
                               {"alpha": 0.5, "center": [0.03, -0.05]})
            return w, generate_cubes(disk_grid, 0.2, 3, shifts=2)
        w = sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5})
        return w, generate_cubes(symmetric_grid, 0.25, 4, shifts=2)

    def test_ap_a1_rh_bit_equal(self, case):
        w, fam = case
        for p in (1.01, 1.5, 2.0, 3.0, 64.0):
            assert ap_constant(w, p, fam) == reference_ap(w, p, fam)
        assert a1_constant(w, fam) == reference_a1(w, fam)
        for s in (1.05, 1.5, 2.0):
            assert rh_constant(w, s, fam) == reference_rh(w, s, fam)

    def test_estimate_rw_bit_equal(self, case):
        w, fam = case
        for t in (2.0, 10.0, 1000.0):
            assert estimate_rw(w, fam, threshold=t) == reference_rw(w, fam, t)


class TestApConstant:
    def test_unit_weight_exact(self, unit_grid, family):
        assert ap_constant(const_weight(unit_grid), 2.0, family) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_scale_cancels(self, unit_grid, family):
        assert ap_constant(const_weight(unit_grid, 7.0), 3.0, family) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_power_weight_lower_bound(self, symmetric_grid):
        w = sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5})
        fam = generate_cubes(symmetric_grid, 0.5, 3, shifts=1)
        # family contains [-1, 1]; continuum product there is 4/3
        assert ap_constant(w, 2.0, fam) >= 4 / 3 - 0.02

    def test_zero_node_reports_infinity(self):
        g = build_grid(1, [-1.0], 0.125, [17])  # node exactly at 0
        w = sample_catalog(g, "power_weight", {"alpha": 0.5})
        fam = generate_cubes(g, 0.5, 2)
        assert ap_constant(w, 2.0, fam) == math.inf

    def test_requires_p_above_one(self, unit_grid, family):
        with pytest.raises(PreconditionError):
            ap_constant(const_weight(unit_grid), 1.0, family)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(0.1, 50.0))
    def test_scale_invariance_exact(self, c):
        g = build_grid(1, [0.0], 1 / 64, [65])
        fam = generate_cubes(g, 1 / 8, 3)
        w = step_weight(g)
        base = ap_constant(w, 2.0, fam)
        from rieszvar import SampledField
        from rieszvar.grid import FieldKind

        scaled = SampledField(g, c * w.values, FieldKind.WEIGHT)
        assert ap_constant(scaled, 2.0, fam) == pytest.approx(base, rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(q1=st.floats(1.1, 3.0), q2=st.floats(3.0, 8.0))
    def test_monotone_in_q(self, q1, q2):
        g = build_grid(1, [-1.0], 2 / 255, [256])
        w = sample_catalog(g, "power_weight", {"alpha": 0.5})
        fam = generate_cubes(g, 0.25, 3)
        assert ap_constant(w, q1, fam) >= ap_constant(w, q2, fam) - 1e-10

    def test_monotone_in_family(self, symmetric_grid):
        w = sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5})
        small = generate_cubes(symmetric_grid, 0.5, 2)
        big = CubeFamily(
            symmetric_grid,
            tuple(small.cubes) + tuple(generate_cubes(symmetric_grid, 0.25, 1).cubes),
            small.provenance,
        )
        assert ap_constant(w, 2.0, big) >= ap_constant(w, 2.0, small)


class TestA1Constant:
    def test_unit(self, unit_grid, family):
        assert a1_constant(const_weight(unit_grid), family) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self, unit_grid, family):
        assert a1_constant(const_weight(unit_grid, 5.0), family) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_step(self, unit_grid):
        fam = CubeFamily(unit_grid, (Cube([0.0], 1.0),), CubeProvenance.DYADIC)
        got = a1_constant(step_weight(unit_grid), fam)
        assert got == pytest.approx(1.5, abs=0.02)

    def test_zero_node_infinite(self):
        g = build_grid(1, [-1.0], 0.125, [17])
        w = sample_catalog(g, "power_weight", {"alpha": 1.0})
        fam = generate_cubes(g, 0.5, 2)
        assert a1_constant(w, fam) == math.inf


class TestRhConstant:
    def test_unit(self, unit_grid, family):
        assert rh_constant(const_weight(unit_grid), 2.0, family) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_constant_any_s(self, unit_grid, family):
        assert rh_constant(const_weight(unit_grid, 3.0), 4.0, family) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_step(self, unit_grid):
        fam = CubeFamily(unit_grid, (Cube([0.0], 1.0),), CubeProvenance.DYADIC)
        got = rh_constant(step_weight(unit_grid), 2.0, fam)
        assert got == pytest.approx(math.sqrt(2.5) / 1.5, abs=0.01)

    def test_jensen_lower_bound(self, symmetric_grid):
        w = sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5})
        fam = generate_cubes(symmetric_grid, 0.25, 3, shifts=2)
        assert rh_constant(w, 1.5, fam) >= 1.0 - 1e-10

    def test_rh_exists_for_catalog_ap_weights(self, symmetric_grid):
        fam = generate_cubes(symmetric_grid, 0.25, 3, shifts=2)
        for w in (
            const_weight(symmetric_grid),
            step_weight(symmetric_grid),
            sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5}),
        ):
            vals = [rh_constant(w, s, fam) for s in (1.05, 1.1, 1.25, 1.5)]
            assert any(math.isfinite(v) and v <= 10.0 for v in vals)


class TestEstimateRw:
    def test_unit_weight_bottoms_out(self, unit_grid, family):
        est = estimate_rw(const_weight(unit_grid), family, threshold=2.0, tol=1e-3)
        assert est.value == pytest.approx(1.0, abs=2e-3)
        assert not est.at_max

    def test_power_half_between_one_and_two(self, symmetric_grid):
        w = sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5})
        fam = generate_cubes(symmetric_grid, 0.25, 4, shifts=2)
        est = estimate_rw(w, fam, threshold=10.0, tol=1e-3)
        assert 1.0 < est.value < 2.0
        # oracle: dense q scan agrees with the bisection result
        qs = np.linspace(1.01, 3.0, 80)
        aps = [ap_constant(w, q, fam) for q in qs]
        scan = min(q for q, a in zip(qs, aps) if a <= 10.0)
        assert abs(est.value - scan) <= 0.03

    def test_zero_node_weight_monotone_in_threshold(self):
        g = build_grid(1, [-1.0], 0.125, [17])  # node at 0, w(0) = 0
        w = sample_catalog(g, "power_weight", {"alpha": 0.5})
        fam = generate_cubes(g, 0.5, 2)
        loose = estimate_rw(w, fam, threshold=1e6, tol=1e-3)
        tight = estimate_rw(w, fam, threshold=10.0, tol=1e-3)
        assert tight.value >= loose.value - 1e-3


class TestCubeSumOverflow:
    """A cube sum (or a sum of powers) past DBL_MAX raises WeightOverflow, with no numpy warning."""

    def test_constants_and_rw(self, disk_grid):
        w = const_weight(disk_grid, 1e307)
        fam = generate_cubes(disk_grid, 0.4, 2)
        for constant in (lambda: ap_constant(w, 2.0, fam), lambda: a1_constant(w, fam),
                         lambda: rh_constant(w, 1.5, fam), lambda: estimate_rw(w, fam)):
            with pytest.raises(WeightOverflow, match="overflows the float range"):
                constant()

    def test_power_overflow_in_rh(self, disk_grid):
        # The weight's own sums are finite; w^2 passes DBL_MAX at every node.
        w = const_weight(disk_grid, 1e200)
        fam = generate_cubes(disk_grid, 0.4, 2)
        assert ap_constant(w, 2.0, fam) == pytest.approx(1.0)
        assert rh_constant(w, 1.25, fam) == pytest.approx(1.0)
        with pytest.raises(WeightOverflow, match="w\\^2.0"):
            rh_constant(w, 2.0, fam)

    def test_subnormal_weight_overflows_the_dual_power(self, disk_grid):
        """A subnormal weight keeps some dual means finite whose float power is not."""
        w = const_weight(disk_grid, 1e-310)
        fam = generate_cubes(disk_grid, 0.4, 2)
        assert ap_constant(w, 2.0, fam) == math.inf  # there the dual mean itself is inf
        for constant in (lambda: ap_constant(w, 3.0, fam), lambda: estimate_rw(w, fam)):
            with pytest.raises(WeightOverflow, match="A_p dual term"):
                constant()

    def test_ball_masses_and_weighted_norms(self, disk_grid):
        w = const_weight(disk_grid, 1e307)
        f = SampledField(disk_grid, np.ones(disk_grid.shape), FieldKind.FUNCTION)
        cands = candidate_balls(disk_grid, [0.25])
        osc, mass = measure_balls(f, w, cands)
        assert np.isposinf(mass).all()
        with pytest.raises(WeightOverflow, match="mass of a ball"):
            make_scores(cands, osc, mass, 2.0)
        with pytest.raises(WeightOverflow, match="mass of a ball"):
            riesz_variation(f, w, 2.0, [0.25])
        with pytest.raises(WeightOverflow, match="weighted L\\^p sum"):
            weighted_lp_norm(f, w, 2.0)
        small = const_weight(disk_grid, 1e300)
        assert math.isfinite(weighted_lp_norm(f, small, 2.0))
        assert np.isfinite(measure_balls(f, small, candidate_balls(disk_grid, [0.25]))[1]).all()


class TestDoubling:
    def test_lebesgue_1d(self):
        g = build_grid(1, [0.0], 1e-3, [1001])
        balls = [Ball([0.5], 0.1), Ball([0.3], 0.05)]
        got = doubling_constant(const_weight(g), balls)
        assert got == pytest.approx(2.0, abs=0.05)

    def test_lebesgue_2d(self):
        g = build_grid(2, [-1.0, -1.0], 0.01, [201, 201])
        balls = [Ball([0.0, 0.0], 0.2)]
        got = doubling_constant(const_weight(g), balls)
        assert got == pytest.approx(4.0, abs=0.1)

    def test_power_weight_centered(self, symmetric_grid):
        w = sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5})
        got = doubling_constant(w, [Ball([0.0], 0.2)])
        assert got == pytest.approx(2**1.5, abs=0.05)

    def test_family_helper(self, unit_grid):
        balls = doubling_ball_family(unit_grid, [0.1], stride=32)
        assert balls
        assert all(b.center[0] - 2 * b.radius >= -1e-9 for b in balls)

    def test_family_matches_node_loop(self, disk_grid):
        g, radii = disk_grid, [0.3, 0.1]
        expected = []  # reference: one bounding-box test per node and radius
        for flat in range(0, g.n_nodes, 3):
            if g.mask.reshape(-1)[flat]:
                c = g.node_coordinate(flat)
                expected += [(tuple(c), r) for r in radii
                             if np.all(c - 2 * r >= g.bbox_lo - 1e-9)
                             and np.all(c + 2 * r <= g.bbox_hi + 1e-9)]
        got = [(tuple(b.center), b.radius) for b in doubling_ball_family(g, radii, stride=3)]
        assert got and got == expected


class TestDualWeight:
    def test_unit(self, unit_grid):
        sigma = dual_weight(const_weight(unit_grid), 2.0)
        assert np.all(sigma.values[unit_grid.mask] == 1.0)

    def test_scale(self, unit_grid):
        sigma = dual_weight(const_weight(unit_grid, 4.0), 2.0)
        assert np.allclose(sigma.values[unit_grid.mask], 0.25)

    def test_power_exponent_arithmetic(self):
        g = build_grid(1, [0.5], 0.05, [11])  # (0, 1] style, away from 0
        w = sample_catalog(g, "power_weight", {"alpha": 1.0})
        sigma = dual_weight(w, 3.0)
        x = g.axis_coords(0)
        assert np.allclose(sigma.values, np.abs(x) ** -0.5)

    def test_infinite_dual_flags(self):
        g = build_grid(1, [-1.0], 0.125, [17])
        w = sample_catalog(g, "power_weight", {"alpha": 1.0})
        with pytest.raises(InfiniteDual) as err:
            dual_weight(w, 2.0)
        assert err.value.flagged == [8]  # the node at x = 0


class TestLemmaSubsetBound:
    def test_measure_ratio_inequality(self, symmetric_grid):
        # (|E|/|Q|)^p <= ([w]_Ap + eps) w(E)/w(Q) on random node subsets
        from rieszvar.grid import region_mask

        rng = np.random.Generator(np.random.Philox(7))
        fam = generate_cubes(symmetric_grid, 0.25, 3, shifts=2)
        p = 2.0
        for w in (
            const_weight(symmetric_grid),
            step_weight(symmetric_grid),
            sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5}),
        ):
            ap = ap_constant(w, p, fam)
            cubes = list(fam)
            for _ in range(50):
                cube = cubes[int(rng.integers(0, len(cubes)))]
                member = np.flatnonzero(region_mask(symmetric_grid, cube).reshape(-1))
                size = int(rng.integers(1, member.size + 1))
                subset = rng.choice(member, size=size, replace=False)
                w_flat = w.values.reshape(-1)
                lhs = (size / member.size) ** p
                rhs = (ap + 1e-6) * w_flat[subset].sum() / w_flat[member].sum()
                assert lhs <= rhs
