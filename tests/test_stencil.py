"""Conflicts of node-centred candidates decided by lattice stencils.

Candidates (node a, r) and (node b, r') conflict exactly when ``b - a``
lies in ``ball_offsets(grid, r + r')``. These tests hold the stencil
rule to the distance rule of ``grid.balls_overlap`` on every candidate
pair, and the packers on the stencil path to the frozen pair-loop
references of ``test_riesz.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rieszvar import build_grid, candidate_balls, pack_greedy, pack_local_search, sample_catalog
from rieszvar import riesz
from rieszvar.config import load_config
from rieszvar.grid import balls_overlap
from rieszvar.harness import run_config
from rieszvar.riesz import _StencilRows, make_scores, measure_balls

from conftest import ball_scores, const_weight, unit_disk
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
        rows = _StencilRows(cands)
        assert rows.one_per_key
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

    def test_repeated_candidates_fall_back_to_distance_rows(self, monkeypatch):
        monkeypatch.setattr(riesz, "_STENCIL_MIN", 0)
        g = unit_disk(0.125)
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        cands = candidate_balls(g, [0.25, 0.5])
        scored = make_scores(cands, *measure_balls(f, const_weight(g), cands), 2.0)
        assert isinstance(scored._conflicts, _StencilRows)
        twice = scored.subset(np.r_[np.arange(len(scored)), 0])
        assert twice.lattice is cands.lattice
        assert type(twice._conflicts) is riesz._ConflictRows
        assert set(pack_greedy(twice, 2.0).indices) == reference_greedy(ball_scores(twice))


class TestStencilPackingMatchesReference:
    CASES = {
        "disk_h0.1": (lambda: unit_disk(0.1), [0.3, 0.5], "sinusoid", {"freq": 2.0}),
        "box_h0.3": (lambda: box(2, 0.3, 15, -2.1), [0.6, 0.9], "sinusoid", {"freq": 1.0}),
        "box3d_h0.3": (lambda: box(3, 0.3, 8), [0.6, 0.9], "sinusoid", {"freq": 1.5}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_greedy_and_local_search(self, case, monkeypatch):
        monkeypatch.setattr(riesz, "_STENCIL_MIN", 0)
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


class TestSharedStencils:
    def test_scorings_and_subsets_share_the_lattice(self, monkeypatch):
        monkeypatch.setattr(riesz, "_STENCIL_MIN", 0)
        decided = []
        ball_offsets = riesz.ball_offsets

        def counted(grid, r):
            decided.append(r)
            return ball_offsets(grid, r)

        monkeypatch.setattr(riesz, "ball_offsets", counted)
        g = unit_disk(0.125)
        f = sample_catalog(g, "sinusoid", {"freq": 2.0})
        cands = candidate_balls(g, [0.25, 0.5])
        osc, mass = measure_balls(f, const_weight(g), cands)
        decided.clear()
        for p in (2.0, 3.0):
            scored = make_scores(cands, osc, mass, p)
            assert scored.lattice is cands.lattice
            for keep in (slice(None), scored.radii == 0.25, scored.radii == 0.5):
                sub = scored.subset(keep)
                assert sub.lattice is cands.lattice
                pack_local_search(pack_greedy(sub, p), sub)
        # One stencil per radius sum, decided once for the candidate set.
        assert sorted(decided) == [0.5, 0.75, 1.0]
        # A new candidate set decides its own.
        assert candidate_balls(g, [0.25, 0.5]).lattice is not cands.lattice


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
