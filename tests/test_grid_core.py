import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszvar import (
    Ball,
    BallCollection,
    Cube,
    FieldKind,
    SampledField,
    build_grid,
    gradient_fd,
    node_set,
    oscillation,
    read_field,
    riemann_integral,
    sample_catalog,
    weighted_measure,
    write_field,
)
from rieszvar.errors import (
    BadParams,
    BadShape,
    EmptyDomain,
    EmptyRegion,
    IsolatedNode,
    PreconditionError,
    UnknownCatalogEntry,
)
from rieszvar.grid import ATOL, ball_in_domain, ball_offsets, eroded_mask, region_mask
from rieszvar.riesz import candidate_balls, score_ball

from conftest import as_balls, const_weight, linear, unit_disk


class TestBuildGrid:
    def test_full_box(self):
        g = build_grid(1, [0.0], 0.01, [101])
        assert g.mask.all() and g.n_nodes == 101
        assert g.bbox_hi[0] == pytest.approx(1.0)

    def test_disk_mask_excludes_corners(self):
        g = build_grid(
            2, [-1.0, -1.0], 0.1, [21, 21],
            lambda pts: np.linalg.norm(pts, axis=-1) < 1.0,
        )
        assert not g.mask[0, 0] and not g.mask[-1, -1]
        assert g.mask[10, 10]

    def test_empty_domain(self):
        with pytest.raises(EmptyDomain):
            build_grid(1, [0.0], 0.5, [3], lambda pts: pts[..., 0] > 10)

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            build_grid(1, [0.0], 0.5, [1])

    def test_node_coordinates_exact(self):
        g = build_grid(1, [0.25], 0.125, [9])
        for k in range(9):
            assert g.node_coordinate(k)[0] == 0.25 + 0.125 * k


class TestCatalog:
    def test_linear_exact(self, unit_grid):
        f = linear(unit_grid)
        assert np.allclose(f.values, unit_grid.axis_coords(0), atol=0)

    def test_power_weight(self, symmetric_grid):
        w = sample_catalog(symmetric_grid, "power_weight", {"alpha": 0.5})
        x = symmetric_grid.axis_coords(0)
        assert np.allclose(w.values, np.abs(x) ** 0.5)
        assert w.kind == FieldKind.WEIGHT

    def test_unknown_entry(self, unit_grid):
        with pytest.raises(UnknownCatalogEntry):
            sample_catalog(unit_grid, "nosuch")

    def test_bad_params(self, unit_grid):
        with pytest.raises(BadParams):
            sample_catalog(unit_grid, "constant", {"value": -1.0})
        with pytest.raises(BadParams):
            # alpha < 0 with a node at the center is infinite
            sample_catalog(unit_grid, "power_weight", {"alpha": -0.5})


class TestQuadrature:
    def test_constant(self, unit_grid):
        one = const_weight(unit_grid)
        assert riemann_integral(one) == pytest.approx(1.0, abs=unit_grid.spacing)

    def test_linear(self, unit_grid):
        assert riemann_integral(linear(unit_grid)) == pytest.approx(
            0.5, abs=unit_grid.spacing
        )

    def test_empty_region(self, unit_grid):
        with pytest.raises(EmptyRegion):
            riemann_integral(const_weight(unit_grid), Ball([0.5 + 1e-5], 1e-9))

    def test_weighted_measure_ball(self, unit_grid):
        w = const_weight(unit_grid)
        got = weighted_measure(w, Ball([0.5], 0.25))
        assert got == pytest.approx(0.5, abs=2 * unit_grid.spacing)

    def test_weighted_measure_cube(self, unit_grid):
        w = const_weight(unit_grid, 2.0)
        got = weighted_measure(w, Cube([0.0], 0.5))
        assert got == pytest.approx(1.0, abs=4 * unit_grid.spacing)

    def test_weighted_measure_power(self):
        g = build_grid(1, [0.0], 1e-3, [1001])
        w = sample_catalog(g, "power_weight", {"alpha": 0.5})
        assert weighted_measure(w) == pytest.approx(2 / 3, abs=0.01)

    def test_requires_weight_kind(self, unit_grid):
        with pytest.raises(BadShape):
            weighted_measure(linear(unit_grid))

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        g = build_grid(1, [0.0], 1 / 64, [65])
        f = sample_catalog(g, "sinusoid", {"freq": 1.0})
        h = linear(g, slope=2.0)
        combo = SampledField(g, a * f.values + b * h.values)
        lhs = riemann_integral(combo)
        rhs = a * riemann_integral(f) + b * riemann_integral(h)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_refinement_convergence_order(self):
        # node-sum quadrature error is O(h) against the closed form
        exact = (1 - math.cos(math.pi)) / math.pi  # int_0^1 sin(pi x)
        errs = []
        for k in (6, 7, 8):
            g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
            f = sample_catalog(g, "sinusoid", {"freq": 1.0})
            errs.append(abs(riemann_integral(f) - exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9


class TestOscillation:
    def test_monotone_ball(self, unit_grid):
        f = linear(unit_grid)
        assert oscillation(f, Ball([0.5], 0.25)) == pytest.approx(
            0.5, abs=2 * unit_grid.spacing
        )

    def test_constant_zero(self, unit_grid):
        assert oscillation(const_weight(unit_grid, 3.0)) == 0.0

    def test_square_on_centered_ball(self, symmetric_grid):
        f = sample_catalog(symmetric_grid, "power_abs", {"beta": 2.0})
        r = 0.3
        got = oscillation(f, Ball([0.0], r))
        assert got == pytest.approx(r**2, abs=2 * r * symmetric_grid.spacing)

    @settings(max_examples=25, deadline=None)
    @given(r1=st.floats(0.05, 0.2), r2=st.floats(0.2, 0.45))
    def test_region_monotonicity(self, r1, r2):
        g = build_grid(1, [0.0], 1 / 128, [129])
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        w = const_weight(g)
        small, big = Ball([0.5], r1), Ball([0.5], r2)
        assert oscillation(f, small) <= oscillation(f, big) + 1e-15
        assert weighted_measure(w, small) <= weighted_measure(w, big) + 1e-15


class TestGradient:
    def test_affine_exact(self, unit_grid):
        d = gradient_fd(linear(unit_grid, slope=3.0))[0]
        assert np.all(d.values[unit_grid.mask] == 3.0)

    def test_constant_zero(self, unit_grid):
        d = gradient_fd(const_weight(unit_grid, 5.0))[0]
        assert np.all(d.values[unit_grid.mask] == 0.0)

    def test_quadratic_central_exact(self):
        g = build_grid(1, [0.0], 0.01, [101])
        f = sample_catalog(g, "power_abs", {"beta": 2.0})
        d = gradient_fd(f)[0]
        node = 50  # x = 0.5, interior
        assert d.values[node] == pytest.approx(1.0, abs=1e-12)

    def test_isolated_node(self):
        mask_pred = lambda pts: (pts[..., 0] < 0.15) | (pts[..., 0] > 0.45)
        g = build_grid(1, [0.0], 0.1, [6], mask_pred)
        # node at 0.5 has neighbor 0.4 masked out and no node at 0.6
        with pytest.raises(IsolatedNode):
            gradient_fd(linear(g))

    def test_2d_affine(self, disk_grid):
        f = sample_catalog(disk_grid, "linear", {"slope": [2.0, -1.0]})
        dx, dy = gradient_fd(f)
        assert np.allclose(dx.values[disk_grid.mask], 2.0)
        assert np.allclose(dy.values[disk_grid.mask], -1.0)


class TestNodeSet:
    def test_1d_enumeration(self):
        g = build_grid(1, [0.0], 0.1, [11])
        idx = node_set(g, Ball([0.5], 0.15))
        coords = [g.node_coordinate(i)[0] for i in idx]
        assert coords == pytest.approx([0.4, 0.5, 0.6])

    def test_far_outside_empty(self):
        g = build_grid(1, [0.0], 0.1, [11])
        assert node_set(g, Ball([5.0], 0.2)).size == 0

    def test_2d_cross(self):
        g = build_grid(2, [0.0, 0.0], 1.0, [3, 3])
        idx = node_set(g, Ball([1.0, 1.0], 1.01))
        assert idx.size == 5  # center plus 4 axis neighbors


class TestBallStencil:
    """One open-ball rule: node-centred balls hold the same stencil everywhere.

    h = 0.1 and h = 0.05 are not dyadic, so nodes at distance exactly r
    from a centre sit at r plus or minus rounding in coordinate space.
    """

    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("steps, count", [(2, 9), (3, 25)])
    def test_interior_counts_translation_invariant(self, h, steps, count):
        g = unit_disk(h)
        balls = as_balls(candidate_balls(g, [steps * h]))
        assert len(balls) > 100
        assert {node_set(g, b).size for b in balls} == {count}
        assert len(ball_offsets(g, steps * h)) == count

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_region_mask_matches_stencil(self, h):
        g = unit_disk(h)
        for ball in as_balls(candidate_balls(g, [2 * h, 3 * h, 4 * h])):
            center = np.rint((ball.center - g.origin) / h).astype(int)
            expected = np.zeros(g.shape, dtype=bool)
            expected[tuple((center + ball_offsets(g, ball.radius)).T)] = True
            assert np.array_equal(region_mask(g, ball), expected)

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_ball_in_domain_matches_eroded_mask(self, h):
        g = unit_disk(h)
        radii = [2 * h, 3 * h, 4 * h]
        expected = []  # reference: one ball_in_domain test per node and radius
        for r in radii:
            eroded = eroded_mask(g, r).reshape(-1)
            for flat in np.flatnonzero(g.mask):
                ball = Ball(g.node_coordinate(flat), r)
                assert ball_in_domain(g, ball) == eroded[flat]
                if eroded[flat]:
                    expected.append((flat, radii.index(r), tuple(ball.center)))
        balls = as_balls(candidate_balls(g, radii))
        got = [(int(np.ravel_multi_index(tuple(np.rint((b.center - g.origin) / h).astype(int)),
                                          g.shape)),
                radii.index(b.radius), tuple(b.center)) for b in balls]
        assert got == sorted(expected)

    def test_eroded_mask_rejects_an_empty_stencil(self):
        """At r <= ATOL no node lies in the ball: a PreconditionError, with the
        centre node masked out or not, and nothing is memoized."""
        full = build_grid(2, [0.0, 0.0], 0.125, [9, 9])
        holed = build_grid(2, [0.0, 0.0], 0.125, [9, 9],
                           lambda pts: np.linalg.norm(pts - 0.5, axis=-1) > 0.01)
        assert not holed.mask[4, 4] and holed.mask.sum() == 80
        for g in (full, holed):
            with pytest.raises(PreconditionError, match="contains no masked-in node"):
                eroded_mask(g, 1e-12)
            assert not g._eroded

    def test_offsets_row_major_and_symmetric(self):
        g = build_grid(3, [0.0] * 3, 0.3, [5, 5, 5])
        offsets = ball_offsets(g, 0.6)
        assert [tuple(k) for k in offsets] == sorted(tuple(k) for k in offsets)
        assert np.array_equal(offsets, -offsets[::-1])
        assert len(offsets) == 27  # |k|^2 in {0, 1, 2, 3}

    def test_distance_exactly_r_is_out(self):
        g = build_grid(1, [0.0], 0.1, [11])
        for c in g.axis_coords(0)[2:-2]:
            assert node_set(g, Ball([c], 0.2)).size == 3


def _line_and_plane():
    """The 41-node h = 0.1 line and 2D grids with h = 0.1 and h = 1/3: not dyadic, so a
    node coordinate minus another carries rounding."""
    return [build_grid(1, [0.0], 0.1, [41]), build_grid(2, [0.0, 0.0], 0.1, [21, 21]),
            build_grid(2, [-1.0, 0.0], 1 / 3, [13, 10])]


def _rule_radii(h):
    return [m * h + e for m in (1, 2, 3) for e in (-ATOL, 0.0, ATOL)]


class TestBallRule:
    """Every ball's nodes are its nearest node plus an offset stencil, wherever it sits."""

    @pytest.mark.parametrize("g", _line_and_plane(), ids=["line", "plane_tenth", "plane_third"])
    def test_node_centred_ball_is_node_plus_stencil(self, g):
        for r in _rule_radii(g.spacing):
            deltas = ball_offsets(g, r)
            for flat in range(g.n_nodes):
                k = np.array(np.unravel_index(flat, g.shape))
                pos = k + deltas
                pos = pos[((pos >= 0) & (pos < g.shape)).all(axis=1)]
                expected = np.zeros(g.shape, dtype=bool)
                expected[tuple(pos.T)] = True
                got = region_mask(g, Ball(g.node_coordinate(flat), r))
                assert np.array_equal(got, expected), (r, flat)

    @pytest.mark.parametrize("g", _line_and_plane(), ids=["line", "plane_tenth", "plane_third"])
    def test_interior_constant_weight_measure_is_one_value(self, g):
        w = const_weight(g)
        for r in _rule_radii(g.spacing):
            balls = [Ball(g.node_coordinate(flat), r) for flat in range(g.n_nodes)]
            masses = {weighted_measure(w, b) for b in balls if ball_in_domain(g, b)}
            assert masses == {len(ball_offsets(g, r)) * g.cell_volume()}, r

    @pytest.mark.parametrize("g", _line_and_plane(), ids=["line", "plane_tenth", "plane_third"])
    def test_eroded_mask_is_ball_in_domain_at_every_node(self, g):
        holes = np.zeros(g.shape, dtype=bool)
        holes.flat[[g.n_nodes // 2, g.n_nodes // 3]] = True
        holed = build_grid(g.dim, g.origin, g.spacing, g.shape, lambda pts: ~holes)
        for grid in (g, holed):
            for r in _rule_radii(g.spacing):
                eroded = eroded_mask(grid, r).reshape(-1)
                got = [ball_in_domain(grid, Ball(grid.node_coordinate(flat), r))
                       for flat in range(grid.n_nodes)]
                assert got == eroded.tolist(), r

    def test_off_node_balls_share_a_stencil(self):
        """Balls with one radius and one offset from their nearest node hold translated
        node sets, and a ball with its centre off the box keeps the rule."""
        g = build_grid(2, [0.0, 0.0], 0.1, [21, 21])
        shift = np.array([0.03, -0.02])
        balls = [Ball(g.node_coordinate(flat) + shift, 0.25) for flat in range(g.n_nodes)]
        counts = {node_set(g, b).size for b in balls if ball_in_domain(g, b)}
        assert len(counts) == 1
        edge = node_set(g, Ball([-0.05, 1.0], 0.2))
        assert [tuple(np.round(g.node_coordinate(i), 12)) for i in edge] == [
            (0.0, 0.9), (0.0, 1.0), (0.0, 1.1), (0.1, 0.9), (0.1, 1.0), (0.1, 1.1)]


class TestNonFiniteAndFarCentres:
    """A ball's centre and a cube's corner are finite; a far ball holds no node."""

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
    def test_non_finite_centre_is_bad_shape(self, x):
        with pytest.raises(BadShape, match="ball center must be finite"):
            Ball([x], 0.1)
        with pytest.raises(BadShape, match="ball center must be finite"):
            Ball([0.5, x], 0.1)
        with pytest.raises(BadShape, match="cube corner must be finite"):
            Cube([x], 0.5)

    def test_centre_of_another_dimension_is_bad_shape(self, disk_grid):
        w = const_weight(disk_grid)
        for ball in (Ball([0.5], 0.2), Ball([0.5, 0.5, 0.5], 0.2)):
            with pytest.raises(BadShape, match="ball centres have shape"):
                weighted_measure(w, ball)
            with pytest.raises(BadShape, match="ball centres have shape"):
                node_set(disk_grid, ball)
            with pytest.raises(BadShape, match="ball centres have shape"):
                ball_in_domain(disk_grid, Ball(ball.center, 0.01))

    @pytest.mark.parametrize("x", [1e300, -1e300])
    def test_far_centre_holds_no_node(self, x, disk_grid):
        g = build_grid(1, [0.0], 1 / 64, [65])
        f, w = linear(g), const_weight(g)
        for grid, fw, ball in ((g, (f, w), Ball([x], 0.1)),
                               (disk_grid, (linear(disk_grid, [1.0, 1.0]), const_weight(disk_grid)),
                                Ball([0.0, x], 0.1))):
            assert not region_mask(grid, ball).any()
            assert node_set(grid, ball).size == 0
            assert not ball_in_domain(grid, ball)
            for measure in (lambda: weighted_measure(fw[1], ball), lambda: oscillation(fw[0], ball),
                            lambda: score_ball(fw[0], fw[1], ball, 2.0)):
                with pytest.raises(EmptyRegion):
                    measure()


class TestBallCollection:
    def test_tangent_balls_allowed(self):
        BallCollection((Ball([0.25], 0.25), Ball([0.75], 0.25)))

    def test_overlap_rejected(self):
        with pytest.raises(BadShape):
            BallCollection((Ball([0.4], 0.25), Ball([0.6], 0.25)))


class TestGridFile:
    def test_round_trip(self, tmp_path, disk_grid):
        f = sample_catalog(disk_grid, "bump", {"radius": 0.9})
        path = tmp_path / "field.grid"
        write_field(path, f)
        back = read_field(path)
        assert back.grid.dim == disk_grid.dim
        assert back.grid.shape == disk_grid.shape
        assert back.grid.spacing == disk_grid.spacing
        assert np.array_equal(back.grid.mask, disk_grid.mask)
        assert np.array_equal(back.values, f.values)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("dim 1\nshape 3\norigin 0.0\nspacing 0.5\ncount 2\n1 0.0\n1 1.0\n")
        with pytest.raises(BadShape):
            read_field(path)

    def test_header_without_value_rejected(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("dim\nshape 3\norigin 0.0\nspacing 0.5\ncount 3\n1 0.0\n1 0.5\n1 1.0\n")
        with pytest.raises(BadShape, match="line 1: expected 'dim ...'"):
            read_field(path)
