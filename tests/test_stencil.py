"""Conflicts of node-centred candidates decided by the grid's ball stencils.

Candidates (node a, r) and (node b, r') conflict exactly when ``b - a``
lies in ``ball_offsets(grid, r + r')``. Every nonempty set whose centres
are all nodes of its grid, with one candidate per (node, radius), takes
this path. These tests hold the stencil rule to the distance rule of
``grid.balls_overlap`` on every candidate pair, the packers on the
stencil path to the frozen pair-loop references of ``test_riesz.py``,
count the stencils each grid decides, and check that every scoring of
one candidate set shares that set's conflict rows.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rieszvar import (
    CandidateSet,
    ScoredCandidates,
    build_grid,
    candidate_balls,
    pack,
    pack_greedy,
    pack_local_search,
    sample_catalog,
)
from rieszvar import grid as grid_module
from rieszvar import riesz
from rieszvar.config import load_config
from rieszvar.grid import ball_offsets, balls_overlap
from rieszvar.harness import run_config
from rieszvar.riesz import _StencilRows, make_scores, measure_balls

from conftest import ball_scores, const_weight, unit_disk
import test_riesz
from test_riesz import reference_greedy, reference_local_search

ROOT = Path(__file__).resolve().parents[1]


def box(dim, h, n, lo=0.0):
    return build_grid(dim, [lo] * dim, h, [n] * dim)


# (grid, radii): 1D-3D, dyadic spacings and not, with off-lattice radii (k + 1/8) h.
GRIDS = {
    "1d_h0.1": (lambda: box(1, 0.1, 31), [0.2, 0.3, 0.2125]),
    "1d_dyadic": (lambda: box(1, 1 / 16, 41), [2 / 16, 3 / 16, 2.125 / 16]),
    "disk_h0.1": (lambda: unit_disk(0.1), [0.2, 0.3, 0.2125]),
    "2d_h0.07": (lambda: box(2, 0.07, 17), [0.14, 0.21, 0.14875]),
    "2d_h1/3": (lambda: box(2, 1 / 3, 13, -2.0), [2 / 3, 1.0, 2.125 / 3]),
    "2d_h0.3": (lambda: box(2, 0.3, 15, -2.1), [0.6, 0.9, 0.6375]),
    "disk_h1/16": (lambda: unit_disk(1 / 16), [2 / 16, 4 / 16, 2.125 / 16]),
    "3d_h0.25": (lambda: box(3, 0.25, 9), [0.5, 0.75, 0.53125]),
    "3d_h0.3": (lambda: box(3, 0.3, 9), [0.6, 0.9]),
}


class TestStencilRuleMatchesDistance:
    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_every_pair(self, case):
        make, radii = GRIDS[case]
        cands = candidate_balls(make(), radii)
        rows = cands._conflicts
        assert type(rows) is _StencilRows and rows.one_per_key
        c, r = cands.centers, cands.radii
        n = len(cands)
        tangent = 0
        for i in range(n):
            want = balls_overlap(c[i], r[i], c, r)
            assert np.array_equal(rows.overlap(np.full(n, i), np.arange(n)), want)
            assert sorted(rows.neighbours(i).tolist()) == np.flatnonzero(want).tolist()
            dist = np.linalg.norm(c - c[i], axis=1)
            tangent += int(np.sum(np.abs(dist - (r + r[i])) <= 1e-9))
        # Closed disjointness lets tangent balls pass; the rule must agree there too.
        assert tangent > 0

    def test_int32_table_intp_lists(self):
        """Local search forms ``ia * n + ib`` from the lists, which would overflow
        int32 past n = 46,340, so only the table is int32."""
        make, radii = GRIDS["3d_h0.25"]
        rows = candidate_balls(make(), radii)._conflicts
        assert type(rows) is _StencilRows and rows._table.dtype == np.int32
        lists = [rows.neighbours(i) for i in range(len(rows._key))]
        assert {nb.dtype for nb in lists} == {np.dtype(np.intp)}

    def test_repeated_candidates_fall_back_to_distance_rows(self):
        g = unit_disk(0.125)
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        cands = candidate_balls(g, [0.25, 0.5])
        scored = make_scores(cands, *measure_balls(f, const_weight(g), cands), 2.0)
        assert isinstance(scored._conflicts, _StencilRows)
        twice = scored.subset(np.r_[np.arange(len(scored)), 0])
        assert twice.grid is g
        assert type(twice._conflicts) is riesz._ConflictRows
        assert set(pack_greedy(twice, 2.0).indices) == reference_greedy(ball_scores(twice))


class TestStencilPackingMatchesReference:
    CASES = {
        "disk_h0.1": (lambda: unit_disk(0.1), [0.3, 0.5], "sinusoid", {"freq": 2.0}),
        "box_h0.3": (lambda: box(2, 0.3, 15, -2.1), [0.6, 0.9], "sinusoid", {"freq": 1.0}),
        "box3d_h0.3": (lambda: box(3, 0.3, 8), [0.6, 0.9], "sinusoid", {"freq": 1.5}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_greedy_and_local_search(self, case):
        make, radii, name, params = self.CASES[case]
        g = make()
        f = sample_catalog(g, name, params)
        cands = candidate_balls(g, radii)
        scored = make_scores(cands, *measure_balls(f, const_weight(g), cands), 2.0)
        assert isinstance(scored._conflicts, _StencilRows)
        ref = ball_scores(scored)
        greedy = pack_greedy(scored, 2.0)
        expected = reference_greedy(ref)
        assert set(greedy.indices) == expected
        ls = pack_local_search(greedy, scored)
        ref_selected, ref_total = reference_local_search(expected, ref)
        assert set(ls.indices) == ref_selected
        assert ls.total == ref_total
        assert ref_selected != expected  # local search moves on every case


class TestSmallSubsets:
    def test_empty_and_one_candidate_subsets_pack(self):
        """An empty subset packs to (); one candidate of positive score to (0,), by stencil rows."""
        g = unit_disk(0.125)
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        cands = candidate_balls(g, [0.25, 0.5])
        scored = make_scores(cands, *measure_balls(f, const_weight(g), cands), 2.0)
        one = int(np.flatnonzero(scored.score > 0)[0])
        assert isinstance(scored.subset([one])._conflicts, _StencilRows)
        for keep, want in ((np.zeros(len(scored), dtype=bool), ()), ([one], (0,))):
            sub = scored.subset(keep)
            greedy = pack_greedy(sub, 2.0)
            assert greedy.indices == want
            assert pack_local_search(greedy, sub).indices == want

    def test_off_node_centres_take_distance_rows(self):
        """A grid-bound set with an off-node centre decides its conflicts by distance."""
        g = unit_disk(0.125)
        ones = np.ones(2)
        scored = ScoredCandidates([[0.0, 0.0], [0.44, 0.0]], [0.225, 0.225], ones, ones, ones,
                                  grid=g)
        assert type(scored._conflicts) is riesz._ConflictRows
        for candidates in (scored, replace(scored, grid=None)):
            greedy = pack_greedy(candidates, 2.0)
            assert greedy.indices == (0,) and greedy.total == 1.0
            assert len(greedy.collection) == 1


class TestSharedStencils:
    @staticmethod
    def count_decisions(monkeypatch):
        """A list that grows by one entry per ``ball_offsets`` stencil computed, on any grid."""
        decided = []
        offsets = grid_module.lattice_offsets

        def counted(dim, reach):
            decided.append(reach)
            return offsets(dim, reach)

        monkeypatch.setattr(grid_module, "lattice_offsets", counted)
        return decided

    def test_scorings_and_subsets_share_the_lattice(self, monkeypatch):
        """Every candidate set, scoring and subset on a grid shares its stencils."""
        decided = self.count_decisions(monkeypatch)
        g = unit_disk(0.125)
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        cands = candidate_balls(g, [0.25, 0.5])
        osc, mass = measure_balls(f, const_weight(g), cands)
        assert cands.grid is g
        assert len(decided) == 2 and sorted(g._stencils) == [0.25, 0.5]
        decided.clear()
        for p in (2.0, 3.0):
            scored = make_scores(cands, osc, mass, p)
            assert scored.grid is g
            for keep in (slice(None), scored.radii == 0.25, scored.radii == 0.5):
                sub = scored.subset(keep)
                assert sub.grid is g
                pack_local_search(pack_greedy(sub, p), sub)
        # Only the radius sums 0.75 and 1.0 are new, each decided once for the grid.
        assert len(decided) == 2 and sorted(g._stencils) == [0.25, 0.5, 0.75, 1.0]
        decided.clear()
        # A new candidate set on the same grid decides none.
        assert candidate_balls(g, [0.25, 0.5]).grid is g
        assert decided == []

    def test_repeat_call_returns_the_same_read_only_array(self):
        g = unit_disk(0.125)
        first = ball_offsets(g, 0.25)
        assert ball_offsets(g, 0.25) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1

    def test_replaced_grid_decides_its_own(self, monkeypatch):
        g = unit_disk(0.125)
        first = ball_offsets(g, 0.25)
        full = replace(g, mask=np.ones(g.shape, dtype=bool))
        decided = self.count_decisions(monkeypatch)
        again = ball_offsets(full, 0.25)
        assert len(decided) == 1 and again is not first
        assert np.array_equal(again, first)
        assert list(g._stencils) == [0.25] and list(full._stencils) == [0.25]


def test_verify_2d_makes_no_distance_rows(monkeypatch):
    """Every packing of the 2D config takes its conflicts from stencils."""
    calls = []
    overlap = riesz.balls_overlap

    def counted(*args):
        calls.append(args)
        return overlap(*args)

    monkeypatch.setattr(riesz, "balls_overlap", counted)
    raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
    report = run_config(load_config(raw))
    assert not [r for r in report.rows if r.status == "error"]
    assert calls == []


class TestSharedConflicts:
    @staticmethod
    def scorings(g, radii, p=2.0):
        """A node-centred set on ``g``, its sinusoid scoring and a copy with dyadic score ties."""
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        cands = candidate_balls(g, radii)
        scored = make_scores(cands, *measure_balls(f, const_weight(g), cands), p)
        ties = np.random.default_rng(g.dim).integers(0, 4, len(cands)) * 0.25
        return cands, [scored, replace(scored, score=ties)]

    @pytest.mark.parametrize("dim,methods", [
        (1, ["dp_1d_exact"]),
        (2, ["greedy", "greedy_plus_local_search"]),
    ])
    def test_zeroed_scores_pack_as_the_subset(self, dim, methods):
        """Zeroing every other radius's scores packs the radius's subset, on full-set indices."""
        g = box(1, 1 / 64, 65) if dim == 1 else unit_disk(0.125)
        radii = [2 * g.spacing, 3 * g.spacing, 4 * g.spacing]
        _, scorings = self.scorings(g, radii)
        moved = 0
        for scored in scorings:
            for r in radii:
                keep = scored.radii == r
                masked = replace(scored, score=np.where(keep, scored.score, 0.0))
                assert masked._conflicts is scored._conflicts
                for method in methods:
                    sub = pack(scored.subset(keep), 2.0, method)
                    got = pack(masked, 2.0, method)
                    assert got.indices == tuple(np.flatnonzero(keep)[list(sub.indices)].tolist())
                    assert got.total == sub.total and got.moves == sub.moves
                    moved += got.moves
        assert moved > 0 or dim == 1  # local search moves on some 2D case

    def test_scorings_link_their_set(self):
        """A scoring and its re-scored copies share the set's rows; subsets and hand-built sets not."""
        cands, (scored, ties) = self.scorings(unit_disk(0.125), [0.25, 0.5])
        rows = cands._conflicts
        assert type(rows) is _StencilRows
        assert scored._conflicts is rows and ties._conflicts is rows
        assert make_scores(scored, scored.oscillation, scored.weight_mass, 3.0)._conflicts is rows
        for sub in (scored.subset(slice(None)), ties.subset(slice(None)), cands.subset(slice(None))):
            assert type(sub._conflicts) is _StencilRows and sub._conflicts is not rows
        hand = ScoredCandidates(scored.centers, scored.radii, scored.oscillation,
                                scored.weight_mass, scored.score, grid=scored.grid)
        assert hand._conflicts is not rows
        empty = cands.subset(np.zeros(len(cands), dtype=bool))
        assert not empty
        scored_empty = make_scores(empty, np.empty(0), np.empty(0), 2.0)
        assert scored_empty._conflicts is empty._conflicts
        assert type(empty._conflicts) is riesz._ConflictRows

    def test_verify_2d_builds_one_table_per_level(self, monkeypatch):
        """One verify_2d pass builds one stencil table and each neighbour list at most once."""
        tables = []
        init = _StencilRows.__init__

        def counted(rows, *args):
            tables.append(rows)
            init(rows, *args)

        monkeypatch.setattr(_StencilRows, "__init__", counted)
        built = test_riesz.TestGreedyAndLocalSearch.count_list_builds(monkeypatch)
        for method in ("greedy", "auto"):
            tables.clear()
            built.clear()
            raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
            report = run_config(load_config(raw | {"method": method}))
            assert not [r for r in report.rows if r.status == "error"]
            assert len(tables) == raw["refinements"] == 1
            assert built and max(built.values()) == 1


class TestLatticeKeys:
    """``candidate_balls`` records each candidate's centre node and radius index as it builds
    the set; any other set decodes its centres once. Both paths measure and pack alike."""

    CASES = {
        "line": (lambda: box(1, 1 / 32, 33), [3 / 32, 2 / 32, 5 / 32]),
        "disk17": (lambda: unit_disk(0.125), [0.25, 0.5]),
        "box9^3": (lambda: box(3, 0.25, 9), [0.5, 0.75]),
    }

    @staticmethod
    def solve(f, w, candidates):
        """osc, mass and the selections of every packer that runs in the set's dimension."""
        osc, mass = measure_balls(f, w, candidates)
        scored = make_scores(candidates, osc, mass, 2.0)
        methods = [riesz.GREEDY, riesz.GREEDY_PLUS_LOCAL_SEARCH]
        if f.grid.dim == 1:
            methods.append(riesz.DP_1D_EXACT)
        return osc, mass, [pack(scored, 2.0, m) for m in methods]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_recorded_keys_measure_and_pack_as_the_decode(self, case):
        make, radii = self.CASES[case]
        g = make()
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        w = sample_catalog(g, "power_weight", {"alpha": 1.0, "center": [0.0625] * g.dim})
        cands = candidate_balls(g, radii)
        osc, mass, sols = self.solve(f, w, cands)
        recorded = cands.lattice_keys(g)
        copies = (CandidateSet(cands.centers, cands.radii, grid=g),
                  CandidateSet(cands.centers, cands.radii), cands.subset(slice(None)))
        for copy in copies:
            decoded = copy.lattice_keys(g)
            assert [np.asarray(x).tolist() for x in decoded] == [
                np.asarray(x).tolist() for x in recorded]
            assert decoded[2] == sorted(radii)
            got_osc, got_mass, got = self.solve(f, w, copy)
            assert copy.lattice_keys(g) is copy.lattice_keys(g)  # decoded once
            assert np.array_equal(got_osc, osc) and np.array_equal(got_mass, mass)
            for want, sol in zip(sols, got):
                assert (sol.indices, sol.total.hex(), sol.moves) == (
                    want.indices, want.total.hex(), want.moves)
        keep = np.random.default_rng(5).random(len(cands)) < 0.5
        sub_osc, sub_mass = measure_balls(f, w, cands.subset(keep))
        assert np.array_equal(sub_osc, osc[keep]) and np.array_equal(sub_mass, mass[keep])

    def test_repeated_and_oversized_radii_add_no_candidate(self):
        g = unit_disk(0.125)
        cands = candidate_balls(g, [0.25, 0.5])
        for radii in ([0.5, 0.25, 0.25], [0.25, 1e300, 0.5], [0.25, 0.5, 0.5, 100.0]):
            again = candidate_balls(g, radii)
            assert np.array_equal(again.centers, cands.centers)
            assert np.array_equal(again.radii, cands.radii)
            assert again.lattice_keys(g)[2] == [0.25, 0.5]
