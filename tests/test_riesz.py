import json
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from rieszvar import (
    Ball,
    SampledField,
    build_grid,
    candidate_balls,
    classical_riesz_1d,
    lipschitz_field,
    pack,
    pack_1d_exact,
    pack_greedy,
    pack_local_search,
    riesz_variation,
    sample_catalog,
    score_ball,
    weak_type_check,
)
from rieszvar.errors import (
    BadPartition,
    NoCandidates,
    PreconditionError,
    ScoreOverflow,
    UnboundedSupport,
    WeightOverflow,
)
from rieszvar import riesz
from rieszvar.grid import (
    FieldKind,
    balls_disjoint,
    distinct,
    oscillation,
    read_field,
    region_mask,
    weighted_measure,
    write_field,
)
from rieszvar.riesz import (
    CandidateSet,
    make_scores,
    measure_balls,
)

from conftest import as_balls, ball_scores, const_weight, linear, scored_set, unit_disk

DATA = Path(__file__).resolve().parent / "data"


def random_scored(rng, n):
    """Synthetic 1D candidates with random geometry and scores."""
    out = []
    for _ in range(n):
        c = rng.uniform(0.1, 0.9)
        r = rng.uniform(0.02, 0.15)
        out.append(([c], r, float(rng.uniform(0.0, 10.0))))
    return scored_set(out)


def brute_force_best(scored):
    """Exact optimum over all disjoint subsets (oracle for small sets)."""
    n = len(scored)
    conf = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and not balls_disjoint(scored[i].ball, scored[j].ball):
                conf[i] |= 1 << j
    feasible = {0: True}
    best = 0.0
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        ok = feasible[rest] and not (conf[low] & rest)
        feasible[s] = ok
        if ok:
            total = math.fsum(scored[i].score for i in range(n) if s >> i & 1)
            best = max(best, total)
    return best


# Frozen reference: the pair-loop greedy and local search that decided every
# pair with one scalar balls_disjoint call. The vectorised versions must
# select the same indices and report == totals.
def reference_greedy(scored):
    order = sorted(range(len(scored)), key=lambda i: (-scored[i].score, i))
    selected = []
    for i in order:
        if scored[i].score <= 0:
            continue
        if all(balls_disjoint(scored[i].ball, scored[j].ball) for j in selected):
            selected.append(i)
    return set(selected)


def _reference_conflicts(scored, selected, i):
    return {j for j in selected if not balls_disjoint(scored[i].ball, scored[j].ball)}


def _reference_first_improvement(scored, selected, eps):
    outside = [i for i in range(len(scored)) if i not in selected]
    for i in outside:
        conf = _reference_conflicts(scored, selected, i)
        if len(conf) > 2:
            continue
        gain = scored[i].score - sum(scored[j].score for j in conf)
        if gain > eps:
            return conf, {i}
    for a_pos, ia in enumerate(outside):
        conf_a = _reference_conflicts(scored, selected, ia)
        if len(conf_a) > 2:
            continue
        for ib in outside[a_pos + 1:]:
            if not balls_disjoint(scored[ia].ball, scored[ib].ball):
                continue
            conf = conf_a | _reference_conflicts(scored, selected, ib)
            if len(conf) > 2:
                continue
            gain = scored[ia].score + scored[ib].score - sum(
                scored[j].score for j in conf
            )
            if gain > eps:
                return conf, {ia, ib}
    return None


def reference_local_search(initial_selected, scored, max_iters=200):
    """(selected indices, total) of the pair-loop local search."""
    initial_total = math.fsum(scored[i].score for i in sorted(initial_selected))
    selected = set(initial_selected)
    eps = 1e-12 * max(1.0, abs(initial_total))
    for _ in range(max_iters):
        move = _reference_first_improvement(scored, selected, eps)
        if move is None:
            break
        removed, inserted = move
        selected -= removed
        selected |= inserted
        total = math.fsum(scored[i].score for i in sorted(selected))
        eps = 1e-12 * max(1.0, abs(total))
    total = math.fsum(scored[i].score for i in sorted(selected))
    if total < initial_total:
        return set(initial_selected), initial_total
    return selected, total


def random_scored_nd(rng, dim, n, lattice=None):
    """Crowded candidates with tied, zero and negative scores.

    Random centres fill [0, 0.5]^dim. With ``lattice=h`` centres sit on
    multiples of h (up to 4h) and radii are h or 2h, so many pairs are
    tangent (distance r1 + r2): exactly for a dyadic h, up to rounding for
    h = 0.3, where the ATOL slack of closed disjointness decides them.
    """
    out = []
    for _ in range(n):
        if lattice is None:
            c = rng.uniform(0.0, 0.5, dim)
            r = float(rng.choice([0.05, 0.1, rng.uniform(0.02, 0.2)]))
        else:
            c = lattice * rng.integers(0, 5, dim)
            r = lattice * float(rng.integers(1, 3))
        if rng.uniform() < 0.5:
            score = float(rng.integers(-2, 5))  # ties, zeros, negatives
        else:
            score = float(rng.uniform(-1.0, 10.0))
        out.append((c, r, score))
    return scored_set(out)


class TestCandidates:
    def test_count_on_unit_interval(self):
        g = build_grid(1, [0.0], 0.01, [101])
        cands = candidate_balls(g, [0.05])
        assert len(cands) == 91
        centers = cands.centers[:, 0]
        assert centers[0] == pytest.approx(0.05)
        assert centers[-1] == pytest.approx(0.95)

    def test_radius_below_2h_rejected(self, unit_grid):
        with pytest.raises(PreconditionError):
            candidate_balls(unit_grid, [unit_grid.spacing / 4])

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, unit_grid, radius):
        with pytest.raises(PreconditionError, match="finite"):
            riesz_variation(linear(unit_grid), const_weight(unit_grid), 2.0, [radius, 0.1])

    def test_no_candidates(self):
        g = build_grid(1, [0.0], 0.1, [3])  # box [0, 0.2]
        with pytest.raises(NoCandidates):
            candidate_balls(g, [0.5])

    def test_deterministic_order(self, unit_grid):
        balls = as_balls(candidate_balls(unit_grid, [0.1, 0.05]))
        keys = [(b.center[0], b.radius) for b in balls]
        assert keys == sorted(keys)


class TestMakeScores:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_bit_identical_to_scalar_path(self, p, unit_grid, disk_grid):
        """Every score equals the per-ball float((o / r) ** p * m), bit for bit."""
        rng = np.random.default_rng(3)
        for grid, radii in ((unit_grid, [0.05, 0.1]), (disk_grid, [0.2, 0.3])):
            f = SampledField(grid, rng.standard_normal(grid.shape))
            w = SampledField(grid, rng.uniform(0.5, 2.0, grid.shape), FieldKind.WEIGHT)
            cands = candidate_balls(grid, radii)
            osc, mass = measure_balls(f, w, cands)
            scored = make_scores(cands, osc, mass, p)
            expected = [float((o / r) ** p * m)
                        for o, r, m in zip(osc, cands.radii.tolist(), mass)]
            assert np.array_equal(scored.score, np.array(expected))
            assert np.array_equal(scored.oscillation, osc)
            assert np.array_equal(scored.weight_mass, mass)


    def test_score_past_the_float_range_raises(self, unit_grid):
        """A power (osc/r)^p past DBL_MAX, or a finite power times a mass past it,
        raises ScoreOverflow; a score just inside the range is kept."""
        cands = candidate_balls(unit_grid, [0.0625])
        osc = np.full(len(cands), 200.0 * 0.0625)  # osc/r = 200
        ones = np.ones(len(cands))
        assert np.isfinite(make_scores(cands, osc, ones, 100.0).score).all()
        for mass, p in ((ones, 400.0), (1e300 * ones, 100.0)):
            with pytest.raises(ScoreOverflow):
                make_scores(cands, osc, mass, p)


class TestScoreBall:
    def test_linear_p2(self, fine_unit_grid):
        f = linear(fine_unit_grid)
        w = const_weight(fine_unit_grid)
        ball = Ball([0.5], 0.25)
        s = score_ball(f, w, ball, 2.0)
        assert oscillation(f, ball) == pytest.approx(0.5, abs=0.01)
        assert weighted_measure(w, ball) == pytest.approx(0.5, abs=0.01)
        assert type(s) is float and s == pytest.approx(2.0, abs=0.1)

    def test_linear_p1(self, fine_unit_grid):
        f = linear(fine_unit_grid)
        w = const_weight(fine_unit_grid)
        s = score_ball(f, w, Ball([0.5], 0.25), 1.0)
        assert s == pytest.approx(1.0, abs=0.05)

    def test_constant_zero(self, fine_unit_grid):
        s = score_ball(const_weight(fine_unit_grid, 3.0), const_weight(fine_unit_grid),
                       Ball([0.5], 0.25), 2.0)
        assert s == 0.0

    def test_mass_past_the_float_range_raises(self, unit_grid):
        """A ball whose weight node sum passes DBL_MAX raises WeightOverflow, not inf."""
        f, w = linear(unit_grid), const_weight(unit_grid, 1e307)
        assert math.isfinite(score_ball(f, w, Ball([0.5], 2 * unit_grid.spacing), 2.0))
        with pytest.raises(WeightOverflow, match="the weight of a region overflows"):
            score_ball(f, w, Ball([0.5], 0.25), 2.0)
        with pytest.raises(WeightOverflow, match="the weight of a region overflows"):
            weighted_measure(w, Ball([0.5], 0.25))

    def test_score_past_the_float_range_raises(self):
        """A power past DBL_MAX, or a finite power times a finite mass past it, raises
        ScoreOverflow as ``make_scores`` does: not a bare OverflowError, not inf."""
        grid = build_grid(1, [0.0], 1 / 64, [65])
        x = grid.axis_coords(0)
        for values, weight in ((np.linspace(0.0, 1e300, 65), 1.0), (1e100 * x, 1e200)):
            f = SampledField(grid, values)
            with pytest.raises(ScoreOverflow, match="overflows the float range"):
                score_ball(f, const_weight(grid, weight), Ball([0.5], 1 / 16), 2.0)


class TestMeasureBalls:
    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_matches_region_mask_reference(self, h, monkeypatch):
        g = unit_disk(h)
        rng = np.random.default_rng(7)
        f = SampledField(g, rng.standard_normal(g.shape))
        w = SampledField(g, rng.uniform(0.5, 2.0, g.shape), FieldKind.WEIGHT)
        cands = candidate_balls(g, [2 * h, 3 * h, 4 * h])
        osc, mass = measure_balls(f, w, cands)
        for i, ball in enumerate(as_balls(cands)):
            member = region_mask(g, ball)
            vals = f.values[member]
            assert osc[i] == vals.max() - vals.min()
            assert mass[i] == w.values[member].sum() * g.cell_volume()
        # Small gather blocks split every radius group; the values must not move.
        monkeypatch.setattr(riesz, "_GATHER_BLOCK", 40)
        osc_small, mass_small = measure_balls(f, w, cands)
        assert np.array_equal(osc_small, osc) and np.array_equal(mass_small, mass)

    def test_unordered_mixed_radii(self, unit_grid):
        f, w = linear(unit_grid), const_weight(unit_grid)
        cands = candidate_balls(unit_grid, [0.05, 0.1]).subset(slice(None, None, -1))
        osc, mass = measure_balls(f, w, cands)
        for i, ball in enumerate(as_balls(cands)):
            assert osc[i] == oscillation(f, ball)
            assert mass[i] == weighted_measure(w, ball)

    def test_empty_list(self, unit_grid):
        osc, mass = measure_balls(linear(unit_grid), const_weight(unit_grid),
                                  CandidateSet(np.empty((0, 1)), []))
        assert osc.size == 0 and mass.size == 0

    def test_off_node_ball_rejected(self, unit_grid):
        ball = CandidateSet([[0.5 + unit_grid.spacing / 3]], [0.1])
        with pytest.raises(PreconditionError, match="node-centred"):
            measure_balls(linear(unit_grid), const_weight(unit_grid), ball)

    def test_uncontained_ball_rejected(self, unit_grid, disk_grid):
        with pytest.raises(PreconditionError, match="contained"):
            measure_balls(linear(unit_grid), const_weight(unit_grid),
                          CandidateSet([[0.0625]], [0.1]))
        f = sample_catalog(disk_grid, "linear", {"slope": [1.0, 0.0]})
        with pytest.raises(PreconditionError, match="contained"):
            measure_balls(f, const_weight(disk_grid), CandidateSet([[0.7, 0.7]], [0.3]))

    def test_outside_box_rejected(self, unit_grid):
        with pytest.raises(PreconditionError, match="node-centred"):
            measure_balls(linear(unit_grid), const_weight(unit_grid),
                          CandidateSet([[1.5]], [0.1]))

    def test_score_ball_accepts_any_ball(self, fine_unit_grid):
        f, w = linear(fine_unit_grid), const_weight(fine_unit_grid)
        off_node = Ball([0.5 + fine_unit_grid.spacing / 3], 0.25)
        assert score_ball(f, w, off_node, 2.0) == pytest.approx(2.0, abs=0.1)
        assert oscillation(f, off_node) == pytest.approx(0.5, abs=0.01)
        sticking_out = Ball([0.0], 0.25)
        assert score_ball(f, w, sticking_out, 2.0) == pytest.approx(0.25, abs=0.02)
        assert weighted_measure(w, sticking_out) == pytest.approx(0.25, abs=0.01)


class TestMeasureBalls1D:
    """1D balls are windows measured from doubling tables; per-ball gathers are the reference."""

    RADII = (16, 2, 7, 2.5, 12, 3, 5, 4, 9)  # multiples of h, in mixed order

    @staticmethod
    def function(grid_kind, tmp_path):
        """Sinusoid on a full box, or on a file grid whose masked-out nodes hold NaN and inf."""
        if grid_kind == "box":
            return sample_catalog(build_grid(1, [0.0], 1 / 256, [257]), "sinusoid", {"freq": 3.0})
        g = build_grid(1, [-1.0], 1 / 64, [129],
                       lambda pts: ~((np.abs(pts[..., 0] + 0.25) < 0.05) | (pts[..., 0] == 0.5)))
        values = sample_catalog(g, "sinusoid", {"freq": 3.0}).values.copy()
        values[~g.mask] = np.resize([np.nan, np.inf, -np.inf], int((~g.mask).sum()))
        write_field(tmp_path / "f.grid", SampledField(g, values))
        return read_field(tmp_path / "f.grid")

    @staticmethod
    def weight(grid, weight_kind):
        if weight_kind == "constant":
            values = np.full(grid.shape, 0.75)
        elif weight_kind == "step":
            values = sample_catalog(grid, "step_weight", {"lo": -0.125, "hi": 0.5, "inside": 2.0,
                                                          "outside": 0.25}).values.copy()
        else:
            values = np.random.default_rng(5).uniform(0.5, 2.0, grid.shape)
        values[~grid.mask] = np.inf
        return SampledField(grid, values, FieldKind.WEIGHT)

    def measured(self, grid_kind, weight_kind, tmp_path):
        """f, w, shuffled candidates, (osc, mass) from measure_balls and from gathers, the members."""
        f = self.function(grid_kind, tmp_path)
        g = f.grid
        w = self.weight(g, weight_kind)
        cands = candidate_balls(g, [m * g.spacing for m in self.RADII])
        cands = cands.subset(np.random.default_rng(3).permutation(len(cands)))
        assert len(distinct(cands.radii)) == len(self.RADII)
        members = [region_mask(g, ball) for ball in as_balls(cands)]
        ref_osc = np.array([f.values[m].max() - f.values[m].min() for m in members])
        ref_mass = np.array([w.values[m].sum() * g.cell_volume() for m in members])
        return f, w, cands, measure_balls(f, w, cands), (ref_osc, ref_mass), members

    @pytest.mark.parametrize("grid_kind", ["box", "holes"])
    @pytest.mark.parametrize("weight_kind", ["constant", "step", "uniform"])
    def test_matches_region_mask_reference(self, grid_kind, weight_kind, tmp_path, monkeypatch):
        monkeypatch.setattr(riesz, "_stencil_measures", None)  # 1D never gathers stencils
        _, w, _, (osc, mass), (ref_osc, ref_mass), members = self.measured(
            grid_kind, weight_kind, tmp_path)
        assert np.array_equal(osc, ref_osc)
        if weight_kind != "uniform":
            assert np.array_equal(mass, ref_mass)
            return
        # The docstring's bound: within d / (2^53 - d) relative of the exact
        # node sum, d = floor(log2 L) + 1 (the dyadic cell volume is exact).
        h = Fraction(w.grid.cell_volume())
        for got, member in zip(mass.tolist(), members):
            exact = sum(map(Fraction, w.values[member].tolist())) * h
            d = int(member.sum()).bit_length()
            assert abs(Fraction(got) - exact) <= exact * Fraction(d, 2**53 - d)

    @pytest.mark.parametrize("grid_kind", ["box", "holes"])
    @pytest.mark.parametrize("weight_kind", ["constant", "step"])
    def test_dp_selections_unchanged(self, grid_kind, weight_kind, tmp_path):
        _, _, cands, measures, reference, _ = self.measured(grid_kind, weight_kind, tmp_path)
        for p in (1.0, 2.0, 3.0):
            got = pack_1d_exact(make_scores(cands, *measures, p), p)
            want = pack_1d_exact(make_scores(cands, *reference, p), p)
            assert got.indices == want.indices and got.total == want.total

    def test_mass_past_the_float_range_is_inf(self, unit_grid):
        h = unit_grid.spacing
        cands = candidate_balls(unit_grid, [2 * h, 16 * h])
        osc, mass = measure_balls(linear(unit_grid), const_weight(unit_grid, 1e307), cands)
        assert np.all(np.isfinite(mass[cands.radii == 2 * h]))
        assert np.all(np.isinf(mass[cands.radii == 16 * h]))
        with pytest.raises(WeightOverflow):
            make_scores(cands, osc, mass, 2.0)


class TestPack1dExact:
    def test_two_overlapping_picks_better(self):
        scored = scored_set([
            ([0.4], 0.2, 3.0),
            ([0.5], 0.2, 5.0),
        ])
        sol = pack_1d_exact(scored, 2.0)
        assert sol.total == 5.0 and len(sol.collection) == 1

    def test_two_disjoint_takes_both(self):
        scored = scored_set([
            ([0.2], 0.1, 3.0),
            ([0.7], 0.1, 5.0),
        ])
        sol = pack_1d_exact(scored, 2.0)
        assert sol.total == 8.0 and len(sol.collection) == 2

    def test_zero_scores_excluded(self):
        scored = scored_set([([0.5], 0.1, 0.0)])
        sol = pack_1d_exact(scored, 2.0)
        assert sol.total == 0.0 and len(sol.collection) == 0

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(10):
            scored = random_scored(rng, int(rng.integers(5, 13)))
            assert pack_1d_exact(scored, 2.0).total == brute_force_best(ball_scores(scored))

    def test_anchor_linear_total(self):
        g = build_grid(1, [0.0], 1 / 1024, [1025])
        f, w = linear(g), const_weight(g)
        sol = riesz_variation(f, w, 2.0, [0.05, 0.1, 0.25], method="dp_1d_exact")
        assert sol.total == pytest.approx(4.0, rel=0.05)


class TestGreedyAndLocalSearch:
    def test_single_candidate(self):
        scored = scored_set([([0.5], 0.1, 2.0)])
        assert pack_greedy(scored, 2.0).total == 2.0

    def test_all_zero_scores_empty(self):
        scored = scored_set([([0.3 + 0.2 * i], 0.05, 0.0) for i in range(3)])
        sol = pack_greedy(scored, 2.0)
        assert sol.total == 0.0 and len(sol.collection) == 0

    def test_local_search_keeps_optimum(self):
        scored = scored_set([
            ([0.2], 0.1, 3.0),
            ([0.7], 0.1, 5.0),
        ])
        best = pack_1d_exact(scored, 2.0)
        assert pack_local_search(best, scored).total == best.total

    def test_max_iters_zero_returns_initial(self):
        scored = scored_set([
            ([0.4], 0.2, 3.0),
            ([0.5], 0.2, 5.0),
        ])
        greedy = pack_greedy(scored, 2.0)
        assert pack_local_search(greedy, scored, max_iters=0).total == greedy.total

    def test_optimizer_sandwich(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(20):
            scored = random_scored(rng, int(rng.integers(5, 15)))
            dp = pack_1d_exact(scored, 2.0)
            greedy = pack_greedy(scored, 2.0)
            ls = pack_local_search(greedy, scored)
            assert greedy.total <= ls.total + 1e-12
            assert ls.total <= dp.total + 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("lattice", [None, 0.25, 0.3])
    def test_matches_pair_loop_reference(self, dim, lattice):
        rng = np.random.Generator(np.random.Philox(7 + dim))
        moved = 0
        for _ in range(25):
            scored = random_scored_nd(rng, dim, int(rng.integers(2, 30)), lattice)
            ref = ball_scores(scored)
            greedy = pack_greedy(scored, 2.0)
            expected = reference_greedy(ref)
            assert set(greedy.indices) == expected
            assert greedy.total == math.fsum(ref[i].score for i in sorted(expected))
            ls = pack_local_search(greedy, scored)
            ref_selected, ref_total = reference_local_search(expected, ref)
            assert set(ls.indices) == ref_selected
            assert ls.total == ref_total
            moved += ref_selected != expected
        assert moved > 0

    def test_pair_move_from_slack_band(self):
        # Each of a and b replaces one selected ball with slack 0.75 eps: no
        # single move improves, the pair with disjoint removal sets gains
        # 1.5 eps. The zero-score candidates add pairs that gain too little.
        eps = 1e-12
        scored = scored_set([
            ([0.2, 0.5], 0.1, 0.25),
            ([0.8, 0.5], 0.1, 0.25),
            ([0.25, 0.5], 0.1, 0.25 + 0.75 * eps),
            ([0.75, 0.5], 0.1, 0.25 + 0.75 * eps),
            ([0.5, 0.5], 0.1, 0.0),
            ([0.5, 0.9], 0.1, 0.0),
        ])
        slack = scored.score[2:4] - 0.25
        assert np.all(slack <= eps) and eps < slack.sum() <= 2 * eps
        start = riesz._solution([0, 1], scored, 2.0, riesz.GREEDY)
        sol = pack_local_search(start, scored)
        ref_selected, ref_total = reference_local_search({0, 1}, ball_scores(scored))
        assert set(sol.indices) == ref_selected == {2, 3}
        assert sol.total == ref_total

    def test_pair_move_past_negative_owner(self):
        # The start holds j (score 1) and o (score -5). a overlaps j, b
        # overlaps j and o; a and b are disjoint. Neither single move gains,
        # and both slacks are 0, below the slack band. The pair gains 1
        # because removing o pays back 5: its bound slack_b + s_a passes
        # the floor only through the term twice the least owner score.
        scored = scored_set([
            ([0.5, 0.5], 0.1, 1.0),
            ([0.8, 0.5], 0.1, -5.0),
            ([0.35, 0.5], 0.1, 1.0),
            ([0.65, 0.5], 0.1, -4.0),
        ])
        start = riesz._solution([0, 1], scored, 2.0, riesz.GREEDY)
        sol = pack_local_search(start, scored, max_iters=1)
        ref_selected, ref_total = reference_local_search({0, 1}, ball_scores(scored), 1)
        assert set(sol.indices) == ref_selected == {2, 3}
        assert sol.total == ref_total == -3.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_reference_from_any_start(self, dim):
        # Disjoint starts in random order, negative-score balls included.
        # The last instances are crowded (40-90 candidates), so the score
        # bound trims the common-ball blocks of local search.
        rng = np.random.Generator(np.random.Philox(31 + dim))
        moved = 0
        for k in range(26):
            n = int(rng.integers(2, 30) if k < 20 else rng.integers(40, 91))
            scored = random_scored_nd(rng, dim, n, 0.25)
            ref = ball_scores(scored)
            start = set()
            for i in rng.permutation(len(ref)).tolist():
                if all(balls_disjoint(ref[i].ball, ref[j].ball) for j in start):
                    start.add(i)
            sol = pack_local_search(riesz._solution(start, scored, 2.0, riesz.GREEDY), scored)
            ref_selected, ref_total = reference_local_search(start, ref)
            assert set(sol.indices) == ref_selected
            assert sol.total == ref_total
            moved += ref_selected != start
        assert moved > 0

    @pytest.mark.parametrize("case", ["disk17", "box9"])
    def test_node_centred_matches_reference(self, case):
        h = 0.125
        if case == "disk17":
            g = unit_disk(h)
            f = sample_catalog(g, "sinusoid", {"freq": 2.0})
            w = const_weight(g)
        else:
            g = build_grid(3, [-0.5] * 3, h, [9] * 3)
            f = sample_catalog(g, "sinusoid", {"freq": 3.0})
            w = sample_catalog(g, "power_weight", {"alpha": 1.0, "center": [0.0625, -0.1875, 0.0]})
        cands = candidate_balls(g, [2 * h, 4 * h])
        scored = make_scores(cands, *measure_balls(f, w, cands), 2.0)
        ref = ball_scores(scored)
        expected = reference_greedy(ref)
        ls = pack_local_search(pack_greedy(scored, 2.0), scored)
        ref_selected, ref_total = reference_local_search(expected, ref)
        assert ref_selected != expected
        assert set(ls.indices) == ref_selected
        assert ls.total == ref_total

    @staticmethod
    def count_list_builds(monkeypatch):
        """A Counter of neighbour-list builds per candidate, on both conflict classes."""
        built = Counter()
        for cls in (riesz._ConflictRows, riesz._StencilRows):
            def counted(rows, i, build=cls._build):
                built[int(i)] += 1
                return build(rows, i)

            monkeypatch.setattr(cls, "_build", counted)
        return built

    @staticmethod
    def disk_candidates(centres):
        """The 17 x 17 disk's candidates (radii 2h and 4h) with their sinusoid osc and mass.

        ``centres="node"`` keeps the node-centred set, which takes stencil
        rows; ``"free"`` its free-centre copy, which takes distance rows.
        """
        g = unit_disk(0.125)
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        cands = candidate_balls(g, [0.25, 0.5])
        osc, mass = measure_balls(f, const_weight(g), cands)
        if centres == "free":
            cands = CandidateSet(cands.centers, cands.radii)
        return cands, osc, mass

    def test_pack_builds_each_conflict_row_once(self, monkeypatch):
        """Greedy hands its neighbour lists to local search within one pack call.

        On the node-centred set (stencil rows) and its free-centre copy
        (distance rows).
        """
        built = self.count_list_builds(monkeypatch)
        for centres in ("node", "free"):
            scored = make_scores(*self.disk_candidates(centres), 2.0)
            assert (type(scored._conflicts) is riesz._StencilRows) == (centres == "node")
            built.clear()
            sol = pack(scored, 2.0, riesz.GREEDY_PLUS_LOCAL_SEARCH)
            assert sol.method == riesz.GREEDY_PLUS_LOCAL_SEARCH
            assert set(sol.indices) <= set(built)
            assert set(built.values()) == {1}

    @pytest.mark.parametrize("centres", ["node", "free"])
    def test_greedy_and_local_search_share_the_lists(self, centres, monkeypatch):
        """Separate greedy and local-search calls on one scored set build each list once."""
        scored = make_scores(*self.disk_candidates(centres), 2.0)
        assert (type(scored._conflicts) is riesz._StencilRows) == (centres == "node")
        built = self.count_list_builds(monkeypatch)
        greedy = pack_greedy(scored, 2.0)
        sol = pack_local_search(greedy, scored)
        assert sol.indices != greedy.indices
        assert set(greedy.indices) | set(sol.indices) <= set(built)
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("function", ["sinusoid", "bump"])
    def test_disk129_selections_pinned(self, function):
        # Indices and totals recorded from the full pair scan: a 129 x 129
        # disk (h = 1/64) with radii 2h and 4h under the constant weight.
        pinned = json.loads((DATA / "pack_disk129.json").read_text())[function]
        h = 1 / 64
        g = unit_disk(h)
        cands = candidate_balls(g, [2 * h, 4 * h])
        f = sample_catalog(g, function, pinned["params"])
        scored = make_scores(cands, *measure_balls(f, const_weight(g), cands), 2.0)
        sol = pack(scored, 2.0, riesz.GREEDY_PLUS_LOCAL_SEARCH)
        assert sol.method == pinned["method"]
        assert list(sol.indices) == pinned["indices"]
        assert sol.total == pinned["total"]

    @pytest.mark.parametrize("function", ["bump", "sinusoid"])
    def test_box17_stencil_selections_pinned(self, function):
        # Indices and totals recorded before local search read neighbour
        # lists: a 17^3 box (h = 1/8) with radii 2h and 4h at p = 3, 2926
        # candidates, so the default threshold takes lattice stencils.
        pinned = json.loads((DATA / "pack_box17.json").read_text())[function]
        h = 1 / 8
        g = build_grid(3, [-1.0] * 3, h, [17] * 3)
        cands = candidate_balls(g, [2 * h, 4 * h])
        f = sample_catalog(g, function, pinned["params"])
        w = sample_catalog(g, pinned["weight"], pinned["wparams"])
        scored = make_scores(cands, *measure_balls(f, w, cands), 3.0)
        assert type(scored._conflicts) is riesz._StencilRows
        greedy = pack_greedy(scored, 3.0)
        assert greedy.total == pinned["greedy_total"]
        sol = pack(scored, 3.0, riesz.GREEDY_PLUS_LOCAL_SEARCH)
        assert sol.method == pinned["method"]
        assert list(sol.indices) == pinned["indices"]
        assert sol.total == pinned["total"] > greedy.total

    def test_local_search_from_empty_greedy(self):
        scored = scored_set([([0.2 * i, 0.5], 0.1, -float(i % 2)) for i in range(6)])
        greedy = pack_greedy(scored, 2.0)
        assert len(greedy.collection) == 0
        sol = pack_local_search(greedy, scored)
        assert sol.total == 0.0 and len(sol.collection) == 0

    def test_local_search_from_empty_selection_finds_moves(self):
        rng = np.random.Generator(np.random.Philox(5))
        scored = random_scored_nd(rng, 2, 20)
        empty = pack_greedy(scored.subset([]), 2.0)
        sol = pack_local_search(empty, scored)
        ref_selected, ref_total = reference_local_search(set(), ball_scores(scored))
        assert ref_selected
        assert set(sol.indices) == ref_selected
        assert sol.total == ref_total

    def test_local_search_single_candidate(self):
        for score in (2.0, 0.0, -1.0):
            scored = scored_set([([0.5, 0.5], 0.1, score)])
            sol = pack_local_search(pack_greedy(scored, 2.0), scored)
            assert sol.total == max(score, 0.0)
            assert len(sol.collection) == (score > 0)

    def test_max_iters_zero_keeps_greedy_nd(self):
        # Greedy takes the middle ball; swapping it for the two outer ones pays.
        scored = scored_set([
            ([0.3, 0.5], 0.1, 3.0),
            ([0.4, 0.5], 0.1, 4.0),
            ([0.5, 0.5], 0.1, 3.0),
        ])
        greedy = pack_greedy(scored, 2.0)
        assert set(greedy.indices) == {1}
        frozen = pack_local_search(greedy, scored, max_iters=0)
        assert set(frozen.indices) == {1}
        assert frozen.total == 4.0
        assert pack_local_search(greedy, scored).total == 6.0

    def test_moves_and_capped(self):
        scored = scored_set([
            ([0.3, 0.5], 0.1, 3.0),
            ([0.4, 0.5], 0.1, 4.0),
            ([0.5, 0.5], 0.1, 3.0),
        ])
        greedy = pack_greedy(scored, 2.0)
        assert (greedy.moves, greedy.capped) == (0, False)
        sol = pack_local_search(greedy, scored)
        assert (sol.moves, sol.capped) == (1, False)
        for max_iters in (0, 1):
            cut = pack_local_search(greedy, scored, max_iters=max_iters)
            assert (cut.moves, cut.capped) == (max_iters, True)
        dp = pack_1d_exact(scored_set([([0.4], 0.1, 4.0)]), 2.0)
        assert (dp.moves, dp.capped) == (0, False)

    def test_pair_move_from_empty_selection(self):
        # No ball is selected, so there are no blocks: the only improving
        # move is the pair of the two disjoint slack-band candidates.
        scored = scored_set([
            ([0.2, 0.5], 0.1, 0.75e-12),
            ([0.5, 0.5], 0.1, 0.75e-12),
            ([0.35, 0.5], 0.1, 0.5e-12),
        ])
        assert riesz._first_improvement(scored._conflicts, scored.score, set(), 1e-12) == (
            set(), {0, 1})
        start = riesz._solution([], scored, 2.0, riesz.GREEDY)
        sol = pack_local_search(start, scored)
        ref_selected, ref_total = reference_local_search(set(), ball_scores(scored))
        assert set(sol.indices) == ref_selected == {0, 1}
        assert sol.total == ref_total

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("band_first", [True, False])
    def test_block_and_band_pairs_compete(self, band_first, budget, monkeypatch):
        # a and b each replace one selected ball (s1, s2) with slack 0.75 eps,
        # so only their pair, from the slack band, gains (1.5 eps); c and d
        # both overlap s3 and gain 0.2 as a pair from its block. The first
        # move is the pair with the smaller key (indices 3 and 4); a budget
        # of one pair gathers every block row and band row alone.
        if budget is not None:
            monkeypatch.setattr(riesz, "_GATHER_BLOCK", budget)
        eps = 1.5e-12
        selected = [([0.2, 0.5], 0.1, 0.25), ([0.8, 0.5], 0.1, 0.25), ([0.5, 0.2], 0.1, 1.0)]
        band = [([0.25, 0.5], 0.1, 0.25 + 0.75 * eps), ([0.75, 0.5], 0.1, 0.25 + 0.75 * eps)]
        block = [([0.45, 0.2], 0.05, 0.6), ([0.55, 0.2], 0.05, 0.6)]
        scored = scored_set(selected + (band + block if band_first else block + band))
        start = riesz._solution([0, 1, 2], scored, 2.0, riesz.GREEDY)
        first = pack_local_search(start, scored, max_iters=1)
        assert {3, 4} < set(first.indices)
        final = pack_local_search(start, scored)
        assert set(final.indices) == {3, 4, 5, 6} and final.moves == 2
        for sol, max_iters in ((first, 1), (final, 200)):
            ref_selected, ref_total = reference_local_search({0, 1, 2}, ball_scores(scored), max_iters)
            assert set(sol.indices) == ref_selected
            assert sol.total == ref_total

    @pytest.mark.parametrize("case", ["disk17", "box9"])
    def test_stencil_lists_match_reference(self, case):
        # Stencil neighbour lists run radius by radius, so they are not sorted.
        h = 0.125
        if case == "disk17":
            g = unit_disk(h)
            f = sample_catalog(g, "sinusoid", {"freq": 2.0})
            w = const_weight(g)
        else:
            g = build_grid(3, [-0.5] * 3, h, [9] * 3)
            f = sample_catalog(g, "sinusoid", {"freq": 3.0})
            w = sample_catalog(g, "power_weight", {"alpha": 1.0, "center": [0.0625, -0.1875, 0.0]})
        cands = candidate_balls(g, [2 * h, 4 * h])
        scored = make_scores(cands, *measure_balls(f, w, cands), 2.0)
        assert type(scored._conflicts) is riesz._StencilRows
        ref = ball_scores(scored)
        expected = reference_greedy(ref)
        ls = pack_local_search(pack_greedy(scored, 2.0), scored)
        lists = [scored._conflicts.neighbours(i) for i in ls.indices]
        assert any(np.any(np.diff(nb) < 0) for nb in lists)
        ref_selected, ref_total = reference_local_search(expected, ref)
        assert ref_selected != expected
        assert set(ls.indices) == ref_selected
        assert ls.total == ref_total

    @pytest.mark.parametrize("centres", ["node", "free"])
    def test_pair_budget_keeps_the_moves(self, centres, monkeypatch):
        """A pair budget of a few pairs splits every move's pass into many chunks, same moves."""
        cands, osc, mass = self.disk_candidates(centres)
        solutions = []
        for budget in (riesz._GATHER_BLOCK, 3):
            monkeypatch.setattr(riesz, "_GATHER_BLOCK", budget)
            scored = make_scores(cands, osc, mass, 2.0)
            solutions.append(pack(scored, 2.0, riesz.GREEDY_PLUS_LOCAL_SEARCH))
        assert solutions[0].moves > 0
        assert solutions[0] == solutions[1]

    def test_p_is_required(self):
        scored = scored_set([([0.5], 0.1, 2.0)])
        with pytest.raises(TypeError):
            pack_greedy(scored)
        with pytest.raises(TypeError):
            pack_1d_exact(scored)

    def test_greedy_covers_nd(self, disk_grid):
        f = sample_catalog(disk_grid, "linear", {"slope": [1.0, 0.0]})
        w = const_weight(disk_grid)
        sol = riesz_variation(f, w, 2.0, [0.25], method="greedy_plus_local_search")
        assert sol.total > 0
        sol.collection.validate_in_domain(disk_grid)


class TestRieszVariation:
    def test_constant_is_zero(self, unit_grid):
        sol = riesz_variation(const_weight(unit_grid, 2.0), const_weight(unit_grid),
                              2.0, [0.1], method="dp_1d_exact")
        assert sol.variation == 0.0

    def test_variation_is_total_root(self, unit_grid):
        f, w = linear(unit_grid), const_weight(unit_grid)
        sol = riesz_variation(f, w, 3.0, [0.1, 0.25])
        assert sol.variation**3 == pytest.approx(sol.total, rel=1e-10)

    def test_dp_requires_dim1(self, disk_grid):
        f = sample_catalog(disk_grid, "linear", {"slope": [1.0, 0.0]})
        with pytest.raises(PreconditionError, match="only available in one dimension"):
            riesz_variation(f, const_weight(disk_grid), 2.0, [0.25], method="dp_1d_exact")

    @pytest.mark.parametrize("method, calls", [
        ("auto", {"pack_greedy": 1, "pack_local_search": 1}),
        ("greedy", {"pack_greedy": 1}),
    ])
    def test_pack_runs_the_public_packers(self, disk_grid, method, calls, monkeypatch):
        """pack calls pack_greedy and pack_local_search as module attributes, as a tracer patches them."""
        made = Counter()
        for name in ("pack_greedy", "pack_local_search"):
            def counted(*args, name=name, packer=getattr(riesz, name)):
                made[name] += 1
                return packer(*args)

            monkeypatch.setattr(riesz, name, counted)
        f = sample_catalog(disk_grid, "linear", {"slope": [1.0, 0.0]})
        riesz_variation(f, const_weight(disk_grid), 2.0, [0.2, 0.3], method=method)
        assert made == calls

    def test_pack_auto_matches_each_method(self, unit_grid, disk_grid):
        f, w = linear(unit_grid), const_weight(unit_grid)
        cands = candidate_balls(unit_grid, [0.1, 0.25])
        scored = make_scores(cands, *measure_balls(f, w, cands), 2.0)
        assert pack(scored, 2.0, "auto") == pack_1d_exact(scored, 2.0)
        g = sample_catalog(disk_grid, "linear", {"slope": [1.0, 0.0]})
        cands = candidate_balls(disk_grid, [0.25])
        scored = make_scores(cands, *measure_balls(g, const_weight(disk_grid), cands), 2.0)
        greedy = pack_greedy(scored, 2.0)
        assert pack(scored, 2.0, "greedy") == greedy
        assert pack(scored, 2.0, "auto") == pack_local_search(greedy, scored)
        with pytest.raises(NoCandidates):
            pack(scored.subset([]), 2.0, "auto")
        with pytest.raises(PreconditionError):
            pack(scored, 2.0, "greedy_local")

    def test_scaling_seminorm_exact_on_fixed_packing(self, unit_grid):
        f, w = linear(unit_grid), const_weight(unit_grid)
        base = riesz_variation(f, w, 2.0, [0.1, 0.25], method="dp_1d_exact")
        alpha = -3.5
        scaled_f = SampledField(unit_grid, alpha * f.values)
        total = math.fsum(score_ball(scaled_f, w, b, 2.0) for b in base.collection)
        assert total ** 0.5 == pytest.approx(abs(alpha) * base.variation, rel=1e-12)

    def test_triangle_on_shared_packing(self, unit_grid):
        f = linear(unit_grid)
        g = sample_catalog(unit_grid, "sinusoid", {"freq": 1.0})
        w = const_weight(unit_grid)
        fg = SampledField(unit_grid, f.values + g.values)
        packing = riesz_variation(fg, w, 2.0, [0.1, 0.25], method="dp_1d_exact")
        vf = math.fsum(score_ball(f, w, b, 2.0) for b in packing.collection) ** 0.5
        vg = math.fsum(score_ball(g, w, b, 2.0) for b in packing.collection) ** 0.5
        assert packing.variation <= vf + vg + 1e-12

    def test_monotone_refinement(self):
        values = []
        for k in (7, 8, 9):
            g = build_grid(1, [0.0], 2.0**-k, [2**k + 1])
            f, w = linear(g), const_weight(g)
            values.append(riesz_variation(f, w, 2.0, [1 / 8, 1 / 16], method="dp_1d_exact").variation)
        assert values[0] <= values[1] + 1e-8
        assert values[1] <= values[2] + 1e-8

    def test_holder_embedding_on_shared_packing(self, unit_grid):
        f = sample_catalog(unit_grid, "sinusoid", {"freq": 2.0})
        w = const_weight(unit_grid)
        p1, p2 = 2.0, 4.0
        sol2 = riesz_variation(f, w, p2, [0.05, 0.1], method="dp_1d_exact")
        total1 = math.fsum(score_ball(f, w, b, p1) for b in sol2.collection)
        w_total = float(w.values[unit_grid.mask].sum() * unit_grid.cell_volume())
        lhs = total1 ** (1 / p1)
        rhs = sol2.total ** (1 / p2) * w_total ** (1 / p1 - 1 / p2)
        assert lhs <= rhs * (1 + 1e-8)

    def test_packing_feasibility_post_hoc(self, unit_grid):
        f, w = linear(unit_grid), const_weight(unit_grid)
        sol = riesz_variation(f, w, 2.0, [0.05, 0.1], method="dp_1d_exact")
        for i, a in enumerate(sol.collection):
            for b in list(sol.collection)[i + 1:]:
                assert balls_disjoint(a, b)
        sol.collection.validate_in_domain(unit_grid)

    def test_balls_built_for_selected_candidates_only(self, unit_grid, disk_grid, monkeypatch):
        built = []

        class CountedBall(Ball):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(riesz, "Ball", CountedBall)
        g = sample_catalog(disk_grid, "linear", {"slope": [1.0, 0.0]})
        for f, w, radii in ((linear(unit_grid), const_weight(unit_grid), [0.05, 0.1]),
                            (g, const_weight(disk_grid), [0.2, 0.3])):
            cands = candidate_balls(f.grid, radii)
            scored = make_scores(cands, *measure_balls(f, w, cands), 2.0)
            packers = [partial(pack_greedy, scored, 2.0)]
            if f.grid.dim == 1:
                packers.append(partial(pack_1d_exact, scored, 2.0))
            else:
                greedy = pack_greedy(scored, 2.0)
                packers.append(partial(pack_local_search, greedy, scored))
                packers.append(partial(pack, scored, 2.0, "greedy_plus_local_search"))
            for packer in packers:
                built.clear()
                sol = packer()
                assert not built  # balls are built when a solution's collection is read
                assert len(sol.collection) == len(sol.indices)
                assert len(built) == len(sol.indices) < len(cands)
                for i, b in zip(sol.indices, sol.collection):
                    assert np.array_equal(b.center, cands.centers[i])
                    assert b.radius == cands.radii[i]

    @pytest.mark.parametrize("method", ["dp_1d_exact", "greedy", "greedy_plus_local_search"])
    def test_total_past_the_float_range_raises(self, method):
        """Every score is finite (at most ~1.6e308) but the packing total passes DBL_MAX:
        ScoreOverflow from every packer, not fsum's OverflowError."""
        grid = build_grid(1, [0.0], 1 / 64, [65])
        f = SampledField(grid, 1e300 * grid.axis_coords(0))
        with pytest.raises(ScoreOverflow, match="score total .* overflows the float range"):
            riesz_variation(f, const_weight(grid, 1e9), 1.0, [1 / 16], method)


class TestClassicalRiesz:
    def test_linear_any_partition(self, unit_grid):
        f = linear(unit_grid)
        assert classical_riesz_1d(f, 2.0) == pytest.approx(1.0, rel=1e-12)
        coarse = np.array([0, 64, 120, 256])
        assert classical_riesz_1d(f, 2.0, coarse) == pytest.approx(1.0, rel=1e-12)

    def test_square_riesz_value(self):
        g = build_grid(1, [0.0], 1e-3, [1001])
        f = sample_catalog(g, "power_abs", {"beta": 2.0})
        assert classical_riesz_1d(f, 2.0) == pytest.approx(4 / 3, rel=0.01)

    def test_refinement_monotone(self, unit_grid):
        f = sample_catalog(unit_grid, "sinusoid", {"freq": 1.0})
        full = classical_riesz_1d(f, 2.0)
        half = classical_riesz_1d(f, 2.0, np.arange(0, 257, 2))
        assert half <= full + 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [180.0, 200.0, 1000.0])
    def test_large_p_on_unit_slopes(self, p):
        """Every slope of f = x is 1, so the sum is exactly 1 at any p: the powers are
        taken of slopes, not of increments (1/64)^p, which underflow or overflow."""
        grid = build_grid(1, [0.0], 1 / 64, [65])
        assert classical_riesz_1d(linear(grid), p) == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sum_past_the_float_range_raises(self):
        """Powers past DBL_MAX make the sum a ScoreOverflow, with no RuntimeWarning."""
        grid = build_grid(1, [0.0], 1 / 64, [65])
        with pytest.raises(ScoreOverflow, match="overflows the float range"):
            classical_riesz_1d(SampledField(grid, 1e200 * grid.axis_coords(0)), 3.0)

    def test_bad_partition(self, unit_grid):
        f = linear(unit_grid)
        with pytest.raises(BadPartition):
            classical_riesz_1d(f, 2.0, np.array([0, 10, 10, 20]))
        with pytest.raises(BadPartition):
            classical_riesz_1d(f, 2.0, np.array([5]))


class TestLipschitzField:
    def test_affine_slope(self, unit_grid):
        lf = lipschitz_field(linear(unit_grid, slope=3.0), 3 * unit_grid.spacing)
        assert isinstance(lf, SampledField) and lf.kind == FieldKind.FUNCTION
        interior = unit_grid.mask.copy()
        interior[:3] = interior[-3:] = False
        assert np.allclose(lf.values[interior], 3.0, atol=1e-10)

    def test_constant_zero(self, unit_grid):
        lf = lipschitz_field(const_weight(unit_grid, 4.0), 2 * unit_grid.spacing)
        assert np.all(lf.values == 0.0)

    def test_hat_profile(self):
        g = build_grid(1, [-2.0], 1 / 128, [513])
        f = sample_catalog(g, "hat", {"radius": 1.0})
        shell = 3 * g.spacing
        lf = lipschitz_field(f, shell)
        x = g.axis_coords(0)
        inside = (np.abs(x) < 1 - 2 * shell) & (np.abs(x) > 2 * shell)
        assert np.allclose(lf.values[inside], 1.0, atol=1e-10)
        outside = np.abs(x) > 1 + 2 * shell
        assert np.all(lf.values[outside] == 0.0)

    @pytest.mark.parametrize("shell_factor", [1.0, 2.0, 2.5, 3.0])
    def test_disk_matches_pair_loop(self, shell_factor):
        """Every node pair of a 2D disk within the closed shell, one node at a time."""
        g = unit_disk(1 / 8)
        f = sample_catalog(g, "bump", {"radius": 0.75, "center": [0.1, -0.05]})
        shell = shell_factor * g.spacing
        nodes = np.argwhere(g.mask)
        vals = f.values[g.mask]
        expected = np.zeros(g.shape)
        for k, node in enumerate(nodes):
            dist = g.spacing * np.sqrt(np.sum((nodes - node) ** 2, axis=1))
            near = (dist > 0) & (dist <= shell + 1e-9)
            if near.any():
                expected[tuple(node)] = np.max(np.abs(vals[k] - vals[near]) / dist[near])
        got = lipschitz_field(f, shell).values
        assert np.array_equal(got, expected)
        assert np.count_nonzero(got) > 0


class TestWeakType:
    def test_hat_statistic_small(self):
        g = build_grid(1, [-2.0], 1 / 256, [1025])
        f = sample_catalog(g, "hat", {"radius": 1.0})
        w = const_weight(g)
        rows = weak_type_check(f, w, riesz_variation(f, w, 2.0, [1 / 8, 1 / 16, 1 / 32]),
                               [0.25, 0.5, 0.75, 0.9, 0.99], 3 * g.spacing)
        max_row = [r for r in rows if r.quantity == "max_K"][0]
        assert max_row.status == "pass"
        assert max_row.value <= 0.5

    def test_constant_all_zero(self):
        g = build_grid(1, [-2.0], 1 / 64, [257])
        f = const_weight(g, 0.0)
        rows = weak_type_check(SampledField(g, f.values), const_weight(g),
                               riesz_variation(SampledField(g, f.values), const_weight(g),
                                               2.0, [1 / 8]),
                               [0.5, 1.0], 3 * g.spacing)
        assert all(r.value == 0.0 for r in rows)

    def test_unbounded_support_rejected(self, unit_grid):
        with pytest.raises(UnboundedSupport):
            weak_type_check(linear(unit_grid), const_weight(unit_grid),
                            riesz_variation(linear(unit_grid), const_weight(unit_grid),
                                            2.0, [0.05]),
                            [0.5], 3 * unit_grid.spacing)
