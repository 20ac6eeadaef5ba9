"""Row blocks against frozen per-region loops: every value must be bit-identical.

The cube constants, the Luxemburg bisection, ``eroded_mask``, the
``BallCollection`` check, the node sets of cube families and those of
packed balls once ran one region (or one offset, or one pair) at a time.
Those loops are frozen here as references, and the block versions must
reproduce them with ``==``, errors included. So is the 1D packing DP on
(total, -count) tuples, which now runs on flat lists, and the r_w
bisection that evaluated every cube at every step. The box and cube
rules were once written out per caller, and the boundary test swept the
box faces on its own; those copies are frozen too. So are the log-Hölder
c0 pass over every lattice offset, which now skips offsets that cannot
raise it, and the numpy modular that is now one row of the Luxemburg
modular.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rieszvar.varexp
import rieszvar.weights
from rieszvar import (
    Ball,
    BallCollection,
    build_grid,
    exponent_catalog,
    generate_cubes,
    sample_catalog,
)
from rieszvar.config import load_config_file, materialize_level
from rieszvar.errors import (
    BadShape,
    EmptyRegion,
    NoCubes,
    PreconditionError,
    ToolkitError,
    WeightOverflow,
    ZeroWeightOnCube,
)
from rieszvar.grid import (
    ATOL,
    Cube,
    FieldKind,
    SampledField,
    _shift_slices,
    ball_in_domain,
    ball_offsets,
    balls_disjoint,
    balls_overlap,
    eroded_mask,
    gradient_magnitude,
    lattice_offsets,
    node_indices,
    region_mask,
    region_members,
    same_nodes,
    shifted,
    size_blocks,
)
from rieszvar.riesz import (
    _ConflictRows,
    _StencilRows,
    _boundary_nodes,
    candidate_balls,
    make_scores,
    measure_balls,
    pack_1d_exact,
)
from rieszvar.varexp import (
    TOL,
    VariableSequence,
    _luxemburg,
    char_norm,
    explore_packings,
    gd_equivalence_check,
    g_operator,
    lh_constants,
    luxemburg_norm,
    modular,
    packing_terms,
    seq_norm,
)
from rieszvar.weights import (
    CubeArrays,
    CubeFamily,
    RwEstimate,
    a1_constant,
    ap_constant,
    doubling_ball_family,
    doubling_constant,
    estimate_rw,
    rh_constant,
)

from conftest import const_weight, linear, scored_set, unit_disk

# ---------------------------------------------------------------------------
# Frozen references: the per-region loops the block code replaced.
# ---------------------------------------------------------------------------


def frozen_cube_values(w, family):
    flat = w.values.reshape(-1)
    return [flat[idx] for idx in family.nodes]


def frozen_ap(w, p, family):
    best = 0.0
    expo = 1.0 / (1.0 - p)
    for vals in frozen_cube_values(w, family):
        mean_w = vals.mean()
        if mean_w == 0.0:
            raise ZeroWeightOnCube("weight integrates to zero on a cube")
        with np.errstate(divide="ignore", over="ignore"):
            dual = vals**expo
        mean_dual = float(dual.mean())
        product = mean_w * mean_dual ** (p - 1.0)
        best = max(best, float(product))
    return best


def frozen_a1(w, family):
    best = 0.0
    for vals in frozen_cube_values(w, family):
        mn = vals.min()
        if mn == 0.0:
            return float("inf")
        best = max(best, float(vals.mean() / mn))
    return best


def frozen_rh(w, s, family):
    best = 0.0
    for vals in frozen_cube_values(w, family):
        mean_w = vals.mean()
        if mean_w == 0.0:
            raise ZeroWeightOnCube("weight integrates to zero on a cube")
        best = max(best, float((vals**s).mean() ** (1.0 / s) / mean_w))
    return best


def frozen_checked_ap(w, p, family):
    """frozen_ap behind the checks ap_constant makes before it reads a cube."""
    if p <= 1:
        raise PreconditionError(f"A_p requires p > 1, got {p}")
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("ap_constant requires a weight field")
    if not (same_nodes(w.grid, family.grid) and np.array_equal(w.grid.mask, family.grid.mask)):
        raise PreconditionError("weight and cube family live on different grids")
    # frozen_ap multiplies a numpy mean, which warns where ap_constant's
    # Python float overflows to inf silently; the value is inf either way.
    with np.errstate(over="ignore"):
        return frozen_ap(w, p, family)


def frozen_rw(w, family, threshold=1000.0, tol=1e-3, q_max=64.0):
    """The r_w bisection with one full A_q evaluation per step."""
    if threshold <= 1:
        raise PreconditionError("threshold must be > 1")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    lo = 1.0 + tol
    if frozen_checked_ap(w, lo, family) <= threshold:
        return RwEstimate(lo, False, threshold, tol)
    if frozen_checked_ap(w, q_max, family) > threshold:
        return RwEstimate(q_max, True, threshold, tol)
    hi = q_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if frozen_checked_ap(w, mid, family) <= threshold:
            hi = mid
        else:
            lo = mid
    return RwEstimate(hi, False, threshold, tol)


def frozen_luxemburg(av, pv, weight, tol):
    """The scalar bisection: smallest lambda with sum (av/lambda)^pv * weight <= 1."""
    if av.size == 0 or av.max() == 0.0:
        return 0.0

    def rho(lam):
        with np.errstate(over="ignore"):
            return float(np.sum((av / lam) ** pv) * weight)

    hi = 2.0 * max(1.0, rho(1.0)) ** (1.0 / float(pv.min()))
    lo = hi / 2.0
    for _ in range(4096):
        if rho(lo) > 1.0:
            break
        hi = lo
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def frozen_lh_c0(pfun):
    """c0 by one shifted-array pass per lattice offset with 0 < h|delta| < 1/2, none skipped."""
    grid = pfun.grid
    deltas = lattice_offsets(grid.dim, math.ceil(0.5 / grid.spacing))
    deltas = deltas[len(deltas) // 2 + 1:]
    dist = np.sqrt(np.sum((deltas * grid.spacing) ** 2, axis=1))
    p = np.where(grid.mask, pfun.values, 0.0)
    c0 = 0.0
    for delta, log_dist in zip(deltas[dist < 0.5], np.log(dist[dist < 0.5]).tolist()):
        gap = np.abs(shifted(p, delta) - p)[grid.mask & shifted(grid.mask, delta)]
        c0 = max(c0, float(gap.max(initial=0.0)) * -log_dist)
    return c0


def frozen_modular(f, pfun, region=None):
    """sum |f|^p h^n over the region as one numpy power and one pairwise sum."""
    member = region_members(f.grid, region)
    with np.errstate(over="ignore"):
        terms = np.abs(f.values[member]) ** pfun.values[member]
    return float(terms.sum() * f.grid.cell_volume())


def frozen_eroded_mask(grid, r):
    ok = grid.mask.copy()
    for a in range(grid.dim):
        coord = grid.axis_coords(a)
        sel = (coord - r >= grid.bbox_lo[a] - ATOL) & (coord + r <= grid.bbox_hi[a] + ATOL)
        shape = [1] * grid.dim
        shape[a] = coord.size
        ok &= sel.reshape(shape)
    if ok.any():
        for delta in ball_offsets(grid, r).tolist():
            if any(delta):
                dst, src = _shift_slices(delta, grid.shape)
                ok[dst] &= grid.mask[src]
    return ok


def frozen_lattice_offsets(dim, reach):
    axes = [np.arange(-reach, reach + 1)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def frozen_collection_error(balls):
    """The BadShape message of the pair loop, or None when the balls are disjoint."""
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if not balls_disjoint(balls[i], balls[j]):
                return (f"balls {i} and {j} overlap (centers "
                        f"{balls[i].center}, {balls[j].center})")
    return None


def frozen_cube_in_bbox(grid, cube):
    tol = ATOL * max(1.0, cube.side)
    lo_ok = np.all(cube.corner >= grid.bbox_lo - tol)
    hi_ok = np.all(cube.corner + cube.side <= grid.bbox_hi + tol)
    return bool(lo_ok and hi_ok)


def frozen_generate_cubes(grid, min_side, levels, shifts=1):
    """The per-cube loop: (cube, node indices) of every kept cube, and the cubes in the box."""
    if min_side < grid.spacing:
        raise PreconditionError(
            f"min_side {min_side} is below the grid spacing {grid.spacing}"
        )
    if levels < 1 or shifts < 1:
        raise PreconditionError("levels and shifts must be >= 1")
    lo, hi = grid.bbox_lo, grid.bbox_hi
    in_box = []
    for level in range(levels):
        side = min_side * 2**level
        counts = [int(math.floor((hi[a] - lo[a]) / side)) + 1 for a in range(grid.dim)]
        for off in [j * side / shifts for j in range(shifts)]:
            axes = [lo[a] + off + side * np.arange(counts[a]) for a in range(grid.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            for corner in np.stack([m.reshape(-1) for m in mesh], axis=-1):
                cube = Cube(corner=np.array(corner), side=side)
                if frozen_cube_in_bbox(grid, cube):
                    in_box.append(cube)
    return frozen_family(grid, in_box), len(in_box)


def frozen_cube_mask(grid, cube):
    """``region_mask(grid, cube)`` as a per-axis sweep."""
    tol = ATOL * max(1.0, cube.side)
    out = np.ones(grid.shape, dtype=bool)
    for a in range(grid.dim):
        coord = grid.axis_coords(a)
        lo = cube.corner[a]
        sel = (coord >= lo - tol) & (coord <= lo + cube.side + tol)
        out &= sel.reshape([-1 if b == a else 1 for b in range(grid.dim)])
    return out & grid.mask


def frozen_boundary_nodes(grid):
    boundary = np.zeros(grid.shape, dtype=bool)
    for axis, unit in enumerate(np.eye(grid.dim, dtype=int)):
        edge = [slice(None)] * grid.dim
        edge[axis] = 0
        boundary[tuple(edge)] = True
        edge[axis] = grid.shape[axis] - 1
        boundary[tuple(edge)] = True
        boundary |= ~shifted(grid.mask, unit) | ~shifted(grid.mask, -unit)
    return boundary & grid.mask


def frozen_window_membership(grid, ball):
    """The window rule the ball rule replaced: slices of the ball's index window and
    ``|x - c| < r - ATOL`` on node coordinates minus the centre, or (None, None)."""
    lo = np.ceil((ball.center - ball.radius - grid.origin - ATOL) / grid.spacing)
    hi = np.floor((ball.center + ball.radius - grid.origin + ATOL) / grid.spacing)
    lo, hi = np.maximum(lo, 0).astype(int), np.minimum(hi, np.array(grid.shape) - 1).astype(int)
    if np.any(lo > hi):
        return None, None
    axes = [grid.origin[a] + grid.spacing * np.arange(lo[a], hi[a] + 1) - ball.center[a]
            for a in range(grid.dim)]
    dist_sq = sum(d**2 for d in np.meshgrid(*axes, indexing="ij"))
    return tuple(slice(i0, i1 + 1) for i0, i1 in zip(lo, hi)), np.sqrt(dist_sq) < ball.radius - ATOL


def frozen_ball_mask(grid, ball):
    """``region_mask(grid, ball)`` by the window rule."""
    out = np.zeros(grid.shape, dtype=bool)
    slices, inside = frozen_window_membership(grid, ball)
    if slices is not None:
        out[slices] = inside
    return out & grid.mask


def frozen_ball_in_domain(grid, ball):
    lo_ok = np.all(ball.center - ball.radius >= grid.bbox_lo - ATOL)
    hi_ok = np.all(ball.center + ball.radius <= grid.bbox_hi + ATOL)
    if not (lo_ok and hi_ok):
        return False
    slices, inside = frozen_window_membership(grid, ball)
    if slices is None:
        return True
    return bool(np.all(grid.mask[slices][inside]))


def frozen_node_indices(grid, centers):
    if not np.all((centers >= grid.bbox_lo - ATOL) & (centers <= grid.bbox_hi + ATOL)):
        return None
    k = np.rint((centers - grid.origin) / grid.spacing).astype(int)
    on_node = np.abs(grid.origin + grid.spacing * k - centers) <= ATOL
    return k if np.all(on_node & (k >= 0) & (k < grid.shape)) else None


def frozen_doubling_ball_family(grid, radii, stride=1):
    radii = list(radii)
    flat = np.flatnonzero(grid.mask.reshape(-1)[::stride]) * stride
    centers = grid.node_coordinate(flat)
    reach = 2 * np.array(radii, dtype=float)[None, :, None]
    fits = np.all(
        (centers[:, None] - reach >= grid.bbox_lo - ATOL)
        & (centers[:, None] + reach <= grid.bbox_hi + ATOL),
        axis=2,
    )
    node, which = np.nonzero(fits)
    return [Ball(centers[n], radii[i]) for n, i in zip(node, which.tolist())]


def frozen_family(grid, cubes):
    kept = []
    for cube in cubes:
        idx = np.flatnonzero(frozen_cube_mask(grid, cube))
        if idx.size:
            kept.append((cube, idx))
    if not kept:
        raise NoCubes("no cube of the family holds a masked-in node")
    return kept


def frozen_gather(f, collection):
    """Per ball: its nodes by the window rule and osc_B(f)/r_B."""
    fv = f.values.reshape(-1)
    nodes, a = [], []
    for ball in collection:
        idx = np.flatnonzero(frozen_ball_mask(f.grid, ball))
        vals = fv[idx]
        nodes.append(idx)
        a.append(float((vals.max() - vals.min()) / ball.radius) if idx.size else 0.0)
    return nodes, a


def frozen_dp_1d(scored):
    """The DP on (total, -count) tuples; its selected indices, ascending."""
    n = len(scored)
    lefts = scored.centers[:, 0] - scored.radii
    rights = scored.centers[:, 0] + scored.radii
    items = np.lexsort((np.arange(n), lefts, rights))
    pred = np.minimum(
        np.searchsorted(rights[items], lefts[items] + ATOL, side="right"), np.arange(n)
    ).tolist()
    score = scored.score[items].tolist()
    best = [(0.0, 0)] * (n + 1)
    take = [None] * (n + 1)
    for i in range(1, n + 1):
        j = pred[i - 1]
        cand = (best[j][0] + score[i - 1], best[j][1] - 1)
        if cand > best[i - 1]:
            best[i] = cand
            take[i] = j
        else:
            best[i] = best[i - 1]
    selected = []
    i = n
    while i > 0:
        if take[i] is None:
            i -= 1
        else:
            selected.append(items[i - 1])
            i = take[i]
    return sorted(int(k) for k in selected)


def outcome(fn, *args, **kwargs):
    """The value of fn, or the type and message of the error it raises.

    A weight with subnormal values can overflow the float power
    ``md ** (q - 1)`` of A_q, which Python raises as OverflowError."""
    try:
        return fn(*args, **kwargs)
    except (ToolkitError, OverflowError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------


class TestSizeBlocks:
    def test_groups_by_ascending_size(self):
        arrays = [np.array([4, 5, 6]), np.array([1]), np.array([7, 8, 9]), np.array([2, 3])]
        blocks = size_blocks(arrays)
        assert [b.shape for _, b in blocks] == [(1, 1), (1, 2), (2, 3)]
        for positions, block in blocks:
            assert block.flags.c_contiguous
            for row, k in zip(block, positions.tolist()):
                assert np.array_equal(row, arrays[k])
        assert size_blocks([]) == []

    def test_row_reductions_match_per_array(self):
        rng = np.random.default_rng(3)
        values = rng.random(4000) * 10.0 ** rng.uniform(-3, 3, 4000)
        arrays = [rng.choice(values.size, int(rng.integers(1, 300)), replace=False)
                  for _ in range(400)]
        for positions, block in size_blocks(arrays):
            vals = values[block]
            for row, k in enumerate(positions.tolist()):
                one = values[arrays[k]]
                assert vals.sum(axis=1)[row] == one.sum()
                assert vals.mean(axis=1)[row] == one.mean()
                assert vals.min(axis=1)[row] == one.min()
                assert (vals**-2.5).mean(axis=1)[row] == (one**-2.5).mean()


class TestCubeConstantsMatchFrozenLoops:
    @pytest.fixture
    def family(self, disk_grid):
        fam = generate_cubes(disk_grid, 0.2, 3, shifts=2)
        assert len({idx.size for idx in fam.nodes}) > 3  # several cube sizes on the disk
        return fam

    def weights(self, grid):
        rng = np.random.default_rng(7)
        yield sample_catalog(grid, "power_weight", {"alpha": 0.5, "center": [0.03, -0.05]})
        yield sample_catalog(grid, "power_weight", {"alpha": -0.7, "center": [0.31, 0.17]})
        # Centred on the node at the origin: w = 0 there, so A_p and A_1 are inf.
        yield sample_catalog(grid, "power_weight", {"alpha": 1.0, "center": [0.0, 0.0]})
        yield SampledField(grid, rng.random(grid.shape) * 10.0 ** rng.uniform(-2, 2, grid.shape),
                           FieldKind.WEIGHT)

    @pytest.mark.parametrize("p", [1.001, 1.5, 2.0, 3.0, 17.0, 64.0])
    def test_ap(self, disk_grid, family, p):
        for w in self.weights(disk_grid):
            assert ap_constant(w, p, family) == frozen_ap(w, p, family)

    def test_a1_and_rh(self, disk_grid, family):
        for w in self.weights(disk_grid):
            assert a1_constant(w, family) == frozen_a1(w, family)
            for s in (1.05, 1.25, 1.5, 3.0):
                assert rh_constant(w, s, family) == frozen_rh(w, s, family)

    def test_zero_weight_node_gives_inf(self, disk_grid, family):
        w = sample_catalog(disk_grid, "power_weight", {"alpha": 1.0, "center": [0.0, 0.0]})
        assert ap_constant(w, 2.0, family) == float("inf") == frozen_ap(w, 2.0, family)
        assert a1_constant(w, family) == float("inf") == frozen_a1(w, family)

    def test_zero_mean_cube_raises(self, disk_grid, family):
        x = disk_grid.coords()[0]
        w = SampledField(disk_grid, np.where(x > 0.3, 1.0 + x, 0.0), FieldKind.WEIGHT)
        for fn, args in ((ap_constant, (w, 2.0, family)), (rh_constant, (w, 1.5, family))):
            frozen = {ap_constant: frozen_ap, rh_constant: frozen_rh}[fn]
            got = outcome(fn, *args)
            assert got == outcome(frozen, *args) and got[0] is ZeroWeightOnCube
        assert a1_constant(w, family) == frozen_a1(w, family) == float("inf")


def verify_2d_level0():
    """The weight and cube family of ``perfbench/configs/verify_2d.json``'s first level."""
    cfg = load_config_file(Path(__file__).parents[1] / "perfbench/configs/verify_2d.json")
    grid, _, w, _ = materialize_level(cfg, 0)
    cubes = cfg.cubes
    return cfg, w, generate_cubes(grid, cubes.min_side, cubes.levels, cubes.shifts)


def rw_disk_case(k):
    """The k-th weight of TestCubeConstantsMatchFrozenLoops on its disk family."""
    grid = unit_disk(0.1)
    w = list(TestCubeConstantsMatchFrozenLoops().weights(grid))[k]
    return w, generate_cubes(grid, 0.2, 3, shifts=2)


def rw_near_singularity_case(alpha):
    """Demo 02's grid: a node 1e-9 from the singularity, so dual terms overflow."""
    grid = build_grid(1, [-1.0 + 1e-9], 1 / 1024, [2049])
    w = sample_catalog(grid, "power_weight", {"alpha": alpha})
    return w, generate_cubes(grid, 0.25, 4, shifts=2)


def rw_wide_span_case():
    """Values from 1e-300 to 1e300: dual terms underflow and overflow."""
    grid = build_grid(2, [-1.0, -1.0], 0.125, [17, 17])
    rng = np.random.default_rng(11)
    w = SampledField(grid, 10.0 ** rng.uniform(-300, 300, grid.shape), FieldKind.WEIGHT)
    return w, generate_cubes(grid, 0.25, 3, shifts=2)


def rw_subnormal_case():
    """A zero node and a strip of subnormal values: ``md ** (q - 1)`` overflows."""
    grid = build_grid(2, [-1.0, -1.0], 0.125, [17, 17])
    x, y = grid.coords()
    v = np.where(x > 0.5, 1e-310, 1.0 + y**2)
    v[0, 0] = 0.0
    return SampledField(grid, v, FieldKind.WEIGHT), generate_cubes(grid, 0.25, 3, shifts=2)


class TestRwSearchMatchesFrozenBisection:
    """estimate_rw clears cubes by their A_1 bound; its RwEstimate must be the full bisection's."""

    CASES = {
        "disk_alpha_0.5": lambda: rw_disk_case(0),
        "disk_alpha_-0.7": lambda: rw_disk_case(1),
        "disk_zero_node": lambda: rw_disk_case(2),
        "disk_random": lambda: rw_disk_case(3),
        "verify_2d": lambda: verify_2d_level0()[1:],
        "near_singularity_0.5": lambda: rw_near_singularity_case(0.5),
        "near_singularity_0.95": lambda: rw_near_singularity_case(0.95),
        "wide_span": rw_wide_span_case,
        "subnormal": rw_subnormal_case,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_estimates_equal(self, case):
        w, fam = self.CASES[case]()
        for threshold in (1.5, 10.0, 1000.0, 1e12):
            for tol in (1e-3, 1e-8):
                for q_max in (2.0, 64.0):
                    kw = dict(threshold=threshold, tol=tol, q_max=q_max)
                    got = outcome(estimate_rw, w, fam, **kw)
                    want = outcome(frozen_rw, w, fam, **kw)
                    if case == "subnormal" and q_max == 64.0:
                        # The overflowing float power is reported as a ToolkitError.
                        assert want[0] is OverflowError and got[0] is WeightOverflow, kw
                    else:
                        assert got == want, kw
                    if case == "disk_zero_node":
                        assert got == RwEstimate(q_max, True, threshold, tol)

    def test_rounding_above_the_ratio(self, disk_grid):
        """Constant weights have A_1 ratio 1, but A_q computes a few ulps above
        it: thresholds just above 1 need the clearing margin."""
        fam = generate_cubes(disk_grid, 0.2, 3, shifts=2)
        for c in (0.1, 1 / 3, 0.7, 7.0, 1e-5):
            w = const_weight(disk_grid, c)
            for threshold in (math.nextafter(1.0, 2.0), 1.0 + 1e-15, 1.0 + 1e-12):
                assert estimate_rw(w, fam, threshold=threshold) == frozen_rw(
                    w, fam, threshold=threshold), (c, threshold)

    def test_error_outcomes(self, disk_grid):
        fam = generate_cubes(disk_grid, 0.2, 3, shifts=2)
        x = disk_grid.coords()[0]
        zero_mean = SampledField(disk_grid, np.where(x > 0.3, 1.0 + x, 0.0), FieldKind.WEIGHT)
        function = SampledField(disk_grid, x, FieldKind.FUNCTION)
        mask = disk_grid.mask.copy()
        mask[10, 10] = False
        foreign = const_weight(replace(disk_grid, mask=mask))
        ok = const_weight(disk_grid, 2.0)
        steep = sample_catalog(disk_grid, "power_weight", {"alpha": 3.0, "center": [0.03, -0.05]})
        cases = [
            (zero_mean, {}, ZeroWeightOnCube),
            (function, {}, PreconditionError),
            (foreign, {}, PreconditionError),
            (function, {"tol": 1e-17}, PreconditionError),  # the index check comes first
            (ok, {"threshold": 1.0}, PreconditionError),
            (ok, {"tol": 0.0}, PreconditionError),
        ]
        for w, kw, error in cases:
            got = outcome(estimate_rw, w, fam, **kw)
            assert got == outcome(frozen_rw, w, fam, **kw) and got[0] is error, (got, kw)
        # A q_max not above 1 + tol is rejected by name before the weight is read,
        # where the frozen bisection fails on A_q's index.
        assert outcome(estimate_rw, steep, fam, threshold=1.5, q_max=1.0) == (
            PreconditionError, "q_max must be a finite number above 1.001, got 1.0")

    def test_few_exact_rows_on_verify_2d(self, monkeypatch):
        """The search evaluates a few cube rows exactly, not all 143 at every step."""
        cfg, w, fam = verify_2d_level0()
        assert len(fam) == 143
        thr = cfg.thresholds
        kw = dict(threshold=thr.rw_threshold, tol=thr.rw_tol)
        rows = []
        dual_means = rieszvar.weights._dual_means

        def counted(vals, expo):
            rows.append(len(vals))
            return dual_means(vals, expo)

        monkeypatch.setattr(rieszvar.weights, "_dual_means", counted)
        got = estimate_rw(w, fam, **kw)
        assert got == frozen_rw(w, fam, **kw) and got.value == 1.0029225769042966
        assert 0 < sum(rows) <= 40, rows


class TestLuxemburgMatchesScalarBisection:
    def rows(self):
        """(av, pv, weight) blocks covering every branch of the bracket."""
        rng = np.random.default_rng(11)
        for m, s in ((1, 1), (1, 7), (5, 3), (40, 25), (9, 200)):
            scale = 10.0 ** rng.uniform(-6, 6, (m, 1))  # small rows need expansion
            av = rng.random((m, s)) * scale
            av[rng.random((m, s)) < 0.2] = 0.0
            if m > 1:
                av[0] = 0.0  # an all-zero row
                av[-1] = 1e-305  # expansion runs past 1e-300: the norm vanishes
            pv = 1.0 + 4.0 * rng.random((m, s))
            yield av, pv, float(rng.choice([1.0, 0.01, 1 / 4096]))
        yield np.full((3, 4), 1e-150), np.full((3, 4), 2.0), 1.0
        # Norms just above and below the 1e-300 cut of the expansion.
        yield np.array([[1e-295], [1e-299], [3e-301]]), np.ones((3, 1)), 1.0
        yield np.array([[1e200, 1.0], [3.0, 0.0]]), np.array([[1.5, 4.0], [1.0, 1.0]]), 1.0
        # Seeded random blocks for the Newton rounds and the replay: norms over
        # 16 decades (long halving runs), wide and constant exponent ranges
        # (safeguarded and exact Newton steps), p = 1, equal rows, overflow
        # (rho(1) = inf) and the cut.
        for _ in range(200):
            m, s = (int(np.exp(rng.uniform(0.0, np.log(n)))) for n in (51, 301))
            av = rng.random((m, s)) * 10.0 ** rng.uniform(-8, 8, (m, 1))
            av[rng.random((m, s)) < rng.uniform(0.2, 0.3)] = 0.0
            pv = 1.0 + rng.random((m, 1)) * rng.choice([0.0, 4.0]) + rng.random((m, s)) * (
                rng.random((m, 1)) < 0.7) * rng.choice([0.0, 0.2, 4.0])
            av[rng.random(m) < 0.1] = 0.0
            if rng.random() < 0.1:
                av[int(rng.integers(m))] = 1e-305
            if s > 1 and rng.random() < 0.1:
                av[int(rng.integers(m)), :2] = 1e200, 1.0
            if m > 2 and rng.random() < 0.3:
                av[-1], pv[-1] = av[0], pv[0]
            yield av, pv, float(rng.choice([1.0, 0.01, 1 / 4096]))

    @pytest.mark.parametrize("tol", [TOL, 1e-3, 0.3, 0.5])
    def test_every_row_bit_equal(self, tol):
        for av, pv, weight in self.rows():
            got = _luxemburg(av, pv, weight, tol).tolist()
            assert got == [frozen_luxemburg(a, q, weight, tol) for a, q in zip(av, pv)]

    def test_empty_rows_and_bad_tol(self):
        assert _luxemburg(np.zeros((2, 0)), np.ones((2, 0)), 1.0, TOL).tolist() == [0.0, 0.0]
        assert _luxemburg(np.zeros((2, 3)), np.ones((2, 3)), 1.0, TOL).tolist() == [0.0, 0.0]
        with pytest.raises(PreconditionError):
            _luxemburg(np.ones((1, 2)), np.ones((1, 2)), 1.0, 0.0)

    def test_few_modular_evaluations(self, monkeypatch):
        """A call evaluates the modular a few times, not once per step (36 at the scalar loop).

        On the sequence rows (lengths 4, 8 and 16) and the gradient row (257
        nodes) of the 1D demo config's first level."""
        cfg = load_config_file(Path(__file__).parents[1] / "demos/configs/theorem1_linear.json")
        grid, f, _, pfun = materialize_level(cfg, 0)
        rows = [(np.abs(t.a * t.char), t.p_ball, 1.0)
                for t in explore_packings(f, pfun, cfg.radii, method=cfg.method)]
        m = grid.mask
        rows.append((gradient_magnitude(f).values[m], pfun.values[m], grid.cell_volume()))
        assert sorted(av.size for av, _, _ in rows) == [4, 8, 16, 257]
        calls = []
        modular = rieszvar.varexp._modular

        def counted(*args):
            calls.append(args[3].size)
            return modular(*args)

        monkeypatch.setattr(rieszvar.varexp, "_modular", counted)
        for av, pv, weight in rows:
            calls.clear()
            assert _luxemburg(av[None], pv[None], weight, TOL).tolist() == [
                frozen_luxemburg(av, pv, weight, TOL)]
            assert 2 <= len(calls) <= 8, calls

    def test_public_norms_bit_equal(self, disk_grid):
        pfun = exponent_catalog(disk_grid, "affine", {"intercept": 3.5, "slope": [0.25, 0.5]})
        f = sample_catalog(disk_grid, "bump", {"radius": 0.75, "center": [0.1, -0.05]})
        m, vol = disk_grid.mask, disk_grid.cell_volume()
        assert luxemburg_norm(f, pfun) == frozen_luxemburg(
            np.abs(f.values[m]), pfun.values[m], vol, TOL)
        ball = Ball([0.1, 0.2], 0.35)
        inside = region_mask(disk_grid, ball)
        assert char_norm(ball, pfun) == frozen_luxemburg(
            np.ones(inside.sum()), pfun.values[inside], vol, TOL)
        seq = VariableSequence([0.5, -2.0, 0.0, 1e-3], [1.0, 2.5, 3.0, 4.0])
        assert seq_norm(seq) == frozen_luxemburg(np.abs(seq.values), seq.exponents, 1.0, TOL)

    def test_packing_terms_and_gd_norms_bit_equal(self):
        grid = unit_disk(0.125)
        pfun = exponent_catalog(grid, "affine", {"intercept": 3.5, "slope": [0.25, 0.25]})
        f = sample_catalog(grid, "bump", {"radius": 0.75, "center": [0.1, -0.05]})
        packings = explore_packings(f, pfun, [0.25, 0.375], method="greedy")
        assert len(packings) > 1
        pflat, vol, m = pfun.values.reshape(-1), grid.cell_volume(), grid.mask
        ratios = []
        for t in packings:
            pv = [pflat[idx] for idx in t.nodes]
            assert t.char.tolist() == [frozen_luxemburg(np.ones(q.size), q, vol, TOL) for q in pv]
            assert t.p_ball.tolist() == [float(1.0 / np.mean(1.0 / q)) for q in pv]
            gval = frozen_luxemburg(np.abs(g_operator(f, t).values[m]), pfun.values[m], vol, TOL)
            ratios.append(gval / t.norm)
        rows = gd_equivalence_check(f, pfun, packings)
        assert [r.value for r in rows if r.quantity == "ratio"] == ratios


class TestLuxemburgBracket:
    """Steps outside the margin of the bracket are settled without the modular: few
    points a row, and the scalar loop's values where a root sits on one of its steps
    or the exponent varies 64-fold."""

    @staticmethod
    def evaluated(monkeypatch):
        """A list that receives the points of every ``_modular`` call from now on."""
        points = []
        modular = rieszvar.varexp._modular

        def counted(*args):
            points.append(args[3].tolist())
            return modular(*args)

        monkeypatch.setattr(rieszvar.varexp, "_modular", counted)
        return points

    def test_few_points_on_verify_2d(self, monkeypatch):
        """At most 8 points per distinct row (a full bisection takes 36 to 41) on the
        G_D f block and the gradient row of the 2D benchmark config's first level."""
        cfg = load_config_file(Path(__file__).parents[1] / "perfbench/configs/verify_2d.json")
        grid, f, _, pfun = materialize_level(cfg, 0)
        m, vol = grid.mask, grid.cell_volume()
        g = np.stack([np.abs(g_operator(f, t).values[m])
                      for t in explore_packings(f, pfun, cfg.radii, method=cfg.method)])
        blocks = [(g, np.broadcast_to(pfun.values[m], g.shape)),
                  (gradient_magnitude(f).values[m][None], pfun.values[m][None])]
        assert [av.shape for av, _ in blocks] == [(3, 1089), (1, 1089)]
        calls = self.evaluated(monkeypatch)
        for av, pv in blocks:
            calls.clear()
            assert _luxemburg(av, pv, vol, TOL).tolist() == [
                frozen_luxemburg(a, q, vol, TOL) for a, q in zip(av, pv)]
            assert sum(map(len, calls)) <= 8 * len({a.tobytes() for a in av}), calls

    def test_roots_on_midpoints(self, monkeypatch):
        """Constant-p rows whose root is the loop's midpoint odd/2^k: rho there is 1 up to
        rounding, so no bracket settles that step and it is evaluated as a pending one."""
        rng = np.random.default_rng(5)
        calls = self.evaluated(monkeypatch)
        for p in (1.0, 1.5, 2.0, 3.7, 9.0):
            for s, weight in ((1, 1.0), (7, 1 / 4096), (40, 0.01)):
                for k in (3, 9, 17, 26, 33):
                    root = (2 * int(rng.integers(2 ** (k - 2), 2 ** (k - 1))) + 1) / 2.0**k
                    c = root * (s * weight) ** (-1.0 / p)
                    for scale in (math.nextafter(c, 0.0), c, math.nextafter(c, 2.0)):
                        av, pv = np.full((1, s), scale), np.full((1, s), p)
                        calls.clear()
                        assert _luxemburg(av, pv, weight, TOL).tolist() == [
                            frozen_luxemburg(av[0], pv[0], weight, TOL)]
                        assert any(root in points for points in calls), (p, s, k)

    def test_wide_exponent_ranges(self):
        """Rows whose exponents span up to 64-fold; some overflow rho(1)."""
        rng = np.random.default_rng(23)
        for ratio in (2.0, 8.0, 64.0):
            for _ in range(25):
                m, s = int(rng.integers(1, 8)), int(rng.integers(2, 120))
                av = rng.random((m, s)) * 10.0 ** rng.uniform(-6, 6, (m, 1))
                pv = (1.0 + 2.0 * rng.random((m, 1))) * ratio ** rng.random((m, s))
                pv[:, 0] = pv.min(axis=1)
                pv[:, 1] = pv[:, 0] * ratio
                weight = float(rng.choice([1.0, 1 / 4096]))
                for tol in (TOL, 1e-3):
                    assert _luxemburg(av, pv, weight, tol).tolist() == [
                        frozen_luxemburg(a, q, weight, tol) for a, q in zip(av, pv)]

    def test_wide_exponents_at_coarse_tol(self, monkeypatch):
        """1500 seeded blocks with p_max/p_min in [8, 64] and tol in [0.3, 0.5], where the
        loop is a few halvings: every row is the scalar loop's, in fewer modular calls in
        total than the former pair-about-the-estimate rounds made (6174 on these blocks)."""
        rng = np.random.default_rng(0)
        calls, per_block = self.evaluated(monkeypatch), []
        for _ in range(1500):
            m, s = int(rng.integers(1, 8)), int(rng.integers(2, 60))
            ratio = 8.0 ** (1.0 + rng.random())
            # av <= 10 keeps rho(1) finite: on inf the reference runs all 4096 expansions.
            av = rng.random((m, s)) * 10.0 ** rng.uniform(-6, 1, (m, 1))
            pv = (1.0 + 2.0 * rng.random((m, 1))) * ratio ** rng.random((m, s))
            pv[:, 0] = pv.min(axis=1)
            pv[:, 1] = pv[:, 0] * ratio
            weight, tol = float(rng.choice([1.0, 1 / 4096])), float(rng.uniform(0.3, 0.5))
            before = len(calls)
            assert _luxemburg(av, pv, weight, tol).tolist() == [
                frozen_luxemburg(a, q, weight, tol) for a, q in zip(av, pv)]
            per_block.append(len(calls) - before)
        assert sum(per_block) <= 5000 and max(per_block) <= 7, (sum(per_block), max(per_block))

    def test_cut_and_overflow_rows_take_few_calls(self, monkeypatch):
        """Rows whose norm falls under the 1e-300 cut, and rows with rho(1) = inf: one
        modular call each. Round 1's rho(max av) bracket settles every halving down to
        the cut; rho(1) = inf ends the row."""
        calls = self.evaluated(monkeypatch)
        kinds = []
        for av, pv, weight in TestLuxemburgMatchesScalarBisection().rows():
            with np.errstate(over="ignore"):
                rho1 = ((av**pv).sum(axis=1) * weight).tolist()
            for a, q, r in zip(av, pv, rho1):
                if r == math.inf or (a == 1e-305).all():
                    calls.clear()
                    assert _luxemburg(a[None], q[None], weight, TOL).tolist() == [
                        frozen_luxemburg(a, q, weight, TOL)]
                    assert len(calls) == 1, (a.size, calls)
                    kinds.append(r == math.inf)
        assert kinds.count(True) >= 5 and kinds.count(False) >= 10


class TestErodedMaskMatchesPerOffsetLoop:
    @pytest.mark.parametrize("h", [0.1, 0.0625, 0.05])
    def test_disks(self, h):
        g = unit_disk(h)
        for r in (h, 2 * h, 2.5 * h, 3 * h, 4 * h, 0.5):
            assert np.array_equal(eroded_mask(g, r), frozen_eroded_mask(g, r))

    def test_box(self):
        g = build_grid(3, [0.0, 0.0, 0.0], 0.125, [9, 9, 9])
        for r in (0.125, 0.25, 0.5, 0.6):
            assert np.array_equal(eroded_mask(g, r), frozen_eroded_mask(g, r))

    @pytest.mark.parametrize("dim,n", [(1, 40), (2, 23), (3, 11)])
    def test_random_masks(self, dim, n):
        rng = np.random.default_rng(dim)
        for density in (0.7, 0.95, 1.0):
            mask = rng.random((n,) * dim) < density
            mask.flat[0] = True
            g = build_grid(dim, [0.0] * dim, 0.1, [n] * dim, lambda pts, mask=mask: mask)
            for r in (0.1, 0.15, 0.2, 0.3):
                assert np.array_equal(eroded_mask(g, r), frozen_eroded_mask(g, r))


class TestLatticeOffsetsMatchMeshgrid:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_and_order(self, dim):
        for reach in range(9):
            got, want = lattice_offsets(dim, reach), frozen_lattice_offsets(dim, reach)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert (got == want).all()


class TestBallCollectionMatchesPairLoop:
    def test_first_overlap_and_message(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            for _ in range(150):
                n = int(rng.integers(0, 9))
                # Lattice centres and radii make tangent pairs common.
                centers = rng.integers(0, 8, (n, dim)) * 0.125
                radii = rng.choice([0.0625, 0.125, 0.1875], n)
                balls = tuple(Ball(c, float(r)) for c, r in zip(centers, radii))
                want = frozen_collection_error(balls)
                if want is None:
                    assert len(BallCollection(balls)) == n
                else:
                    with pytest.raises(BadShape) as err:
                        BallCollection(balls)
                    assert str(err.value) == want

    def test_overlap_is_not_disjoint(self):
        rng = np.random.default_rng(9)
        a = rng.integers(-6, 6, (500, 2)) * 0.1
        b = rng.integers(-6, 6, (500, 2)) * 0.1
        ra, rb = rng.choice([0.1, 0.2, 0.25], 500), rng.choice([0.1, 0.2, 0.3], 500)
        got = balls_overlap(a, ra, b, rb)
        want = [not balls_disjoint(Ball(x, r), Ball(y, s)) for x, r, y, s in zip(a, ra, b, rb)]
        assert got.tolist() == want


def holes_grid():
    """17 x 17 nodes on [0, 1]^2 with a masked-out square and a masked-out column strip."""
    def domain(x):
        square = (np.abs(x[..., 0] - 0.5) < 0.2) & (np.abs(x[..., 1] - 0.5) < 0.2)
        return ~square & (np.abs(x[..., 0] - 0.1) > 0.03)
    return build_grid(2, [0.0, 0.0], 1 / 16, [17, 17], domain)


def verify_2d_grid():
    """The grid of ``perfbench/configs/verify_2d.json``: 33 x 33 nodes on [-1, 1]^2."""
    return build_grid(2, [-1.0, -1.0], 0.0625, [33, 33])


class TestCubeFamilyMatchesPerCubeLoop:
    CASES = {
        "verify_2d": (verify_2d_grid, 0.25, 3, 2),
        "disk_off_node_corners": (lambda: unit_disk(0.1), 0.2, 3, 3),
        "1d": (lambda: build_grid(1, [0.0], 1 / 64, [65]), 1 / 16, 3, 2),
        "box_9": (lambda: build_grid(3, [0.0, 0.0, 0.0], 0.125, [9, 9, 9]), 0.25, 2, 2),
        "holes": (holes_grid, 1 / 8, 3, 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cubes_nodes_and_blocks(self, case):
        make, min_side, levels, shifts = self.CASES[case]
        grid = make()
        fam = generate_cubes(grid, min_side, levels, shifts)
        kept, n_in_box = frozen_generate_cubes(grid, min_side, levels, shifts)
        assert [(c.corner.tolist(), c.side) for c in fam.cubes] == [
            (c.corner.tolist(), c.side) for c, _ in kept]
        assert [idx.tolist() for idx in fam.nodes] == [idx.tolist() for _, idx in kept]
        assert all(idx.dtype == np.intp for idx in fam.nodes)
        want = size_blocks([idx for _, idx in kept])
        assert [(p.tolist(), b.tolist()) for p, b in fam.blocks] == [
            (p.tolist(), b.tolist()) for p, b in want]
        if case == "holes":
            # Some cubes lose a few nodes to the holes, some lose every node.
            assert len(kept) < n_in_box
            full = {round(c.side / grid.spacing + 1) ** 2 for c, _ in kept}
            assert any(idx.size not in full for _, idx in kept)

    def test_generated_family_builds_no_cube_objects(self, monkeypatch):
        # Corners and sides stay arrays; fam.cubes builds a Cube only when read.
        built = []

        class CountedCube(Cube):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(rieszvar.weights, "Cube", CountedCube)
        fam = generate_cubes(verify_2d_grid(), 0.25, 3, 2)
        assert not built and len(fam) == 143
        first = fam.cubes[0]
        assert len(built) == 1 and isinstance(first, Cube)
        assert [c.side for c in fam] == fam.cubes.sides.tolist()

    def test_user_family_any_cubes(self):
        grid = holes_grid()
        cubes = [Cube([0.3, 0.3], 0.4), Cube([-0.2, 0.5], 0.3), Cube([0.05, 0.0], 0.1),
                 Cube([0.0, 0.0], 1.0), Cube([2.0, 2.0], 0.5), Cube([0.52, 0.013], 0.25)]
        fam = CubeFamily(grid, tuple(cubes), None)
        kept = frozen_family(grid, cubes)
        assert isinstance(fam.cubes, CubeArrays)
        assert [(c.corner.tolist(), c.side) for c in fam.cubes] == [
            (c.corner.tolist(), c.side) for c, _ in kept]
        assert [idx.tolist() for idx in fam.nodes] == [idx.tolist() for _, idx in kept]

    def test_errors_as_before(self, disk_grid):
        for args in ((0.05, 3, 2), (0.2, 0, 2), (0.2, 3, 0), (4.0, 1, 1)):
            with pytest.raises((PreconditionError, NoCubes)) as want:
                frozen_generate_cubes(disk_grid, *args)
            with pytest.raises(want.type) as got:
                generate_cubes(disk_grid, *args)
            assert str(got.value) == str(want.value)
        with pytest.raises(NoCubes):
            CubeFamily(holes_grid(), (Cube([0.35, 0.35], 0.3),), None)
        with pytest.raises(NoCubes):
            CubeFamily(disk_grid, (), None)


# Grids for the box and cube rules: boxes in 1D-3D (one off the dyadic lattice),
# the unit disk and a mask with holes.
RULE_GRIDS = {
    "1d": lambda: build_grid(1, [0.0], 1 / 16, [17]),
    "1d_h0.1": lambda: build_grid(1, [-0.3], 0.1, [23]),
    "2d": lambda: build_grid(2, [-1.0, -1.0], 0.125, [17, 17]),
    "3d": lambda: build_grid(3, [0.0, 0.0, 0.0], 0.125, [9, 9, 9]),
    "disk": lambda: unit_disk(0.1),
    "holes": holes_grid,
}


def near(values, rng):
    """Each value with offsets of up to 2 ATOL either way, on and off the rule's edge."""
    steps = np.array([-2.0, -1.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 1.0, 2.0]) * ATOL
    out = np.add.outer(np.asarray(values, dtype=float), steps).reshape(-1)
    return np.concatenate([out, rng.uniform(out.min(), out.max(), out.size // 4)])


class TestBoxAndCubeRulesMatchTheirCopies:
    """One box rule and one cube rule in ``grid`` decide what each caller once decided."""

    @pytest.mark.parametrize("case", sorted(RULE_GRIDS))
    def test_region_mask_cube_is_the_per_axis_sweep(self, case):
        grid = RULE_GRIDS[case]()
        rng = np.random.default_rng(len(case))
        h, lo, hi = grid.spacing, grid.bbox_lo, grid.bbox_hi
        # Corners on a node, within +-tol of one and between nodes, from beyond
        # the low face to beyond the high face; sides below and above 1.
        starts = near(np.arange(-3, grid.shape[0] + 2) * h + lo[0], rng)
        sides = [h, 2 * h, 0.3, 1.0, 1.0 + 1e-9, 1.5, 2.5, 40.0]
        cubes = [Cube(np.full(grid.dim, c) + rng.integers(-2, 3, grid.dim) * h, side)
                 for c in rng.choice(starts, 120) for side in rng.choice(sides, 2)]
        cubes += [Cube(lo - 5.0, 1.0), Cube(hi + 0.5, 0.25), Cube(lo - 1.0, 50.0),
                  Cube(hi - ATOL, 3.0), Cube(lo - 2.0, 2.0 - 0.5 * ATOL)]
        # A non-finite corner is no cube at all.
        for corner in ([np.full(grid.dim, x) for x in (np.nan, np.inf, -np.inf)]
                       + [np.r_[lo[:-1], x] for x in (np.nan, -np.inf)]):
            with pytest.raises(BadShape, match="cube corner must be finite"):
                Cube(corner, 0.5)
        hits = 0
        for cube in cubes:
            got, want = region_mask(grid, cube), frozen_cube_mask(grid, cube)
            assert got.shape == grid.shape and got.dtype == bool
            assert np.array_equal(got, want), (cube.corner, cube.side)
            hits += bool(want.any())
        assert 0 < hits < len(cubes)

    @pytest.mark.parametrize("case", sorted(RULE_GRIDS))
    def test_boundary_nodes_without_the_face_pass(self, case):
        grid = RULE_GRIDS[case]()
        assert np.array_equal(_boundary_nodes(grid), frozen_boundary_nodes(grid))

    def test_boundary_nodes_on_random_masks(self):
        rng = np.random.default_rng(3)
        for dim, n in ((1, 30), (2, 12), (3, 7)):
            for density in (0.6, 0.9, 1.0):
                mask = rng.random((n,) * dim) < density
                mask.flat[0] = True
                grid = build_grid(dim, [0.0] * dim, 0.1, [n] * dim, lambda pts, m=mask: m)
                assert np.array_equal(_boundary_nodes(grid), frozen_boundary_nodes(grid))

    @pytest.mark.parametrize("case", sorted(RULE_GRIDS))
    def test_eroded_mask_at_radii_within_atol_of_fitting(self, case):
        grid = RULE_GRIDS[case]()
        h = grid.spacing
        for r in near([2 * h, 3 * h, 4 * h, 0.5], np.random.default_rng(1))[:36]:
            if r >= h:
                assert np.array_equal(eroded_mask(replace(grid), r),
                                      frozen_eroded_mask(grid, r)), r

    @pytest.mark.parametrize("case", sorted(RULE_GRIDS))
    def test_ball_in_domain_at_radii_within_atol_of_fitting(self, case):
        grid = RULE_GRIDS[case]()
        rng = np.random.default_rng(2)
        nodes = grid.node_coordinate(rng.choice(np.flatnonzero(grid.mask), 12))
        # Radii that reach a face of the box exactly, and within ATOL of it.
        gaps = np.concatenate([nodes - grid.bbox_lo, grid.bbox_hi - nodes]).min(axis=0)
        fitted = 0
        for centre in np.concatenate([nodes, nodes + 0.3 * grid.spacing]):
            reach = min(np.min(centre - grid.bbox_lo), np.min(grid.bbox_hi - centre))
            for r in near([reach, 2 * grid.spacing, abs(gaps[0]) + grid.spacing], rng):
                if r > 0:
                    ball = Ball(centre, float(r))
                    want = frozen_ball_in_domain(grid, ball)
                    assert ball_in_domain(grid, ball) is want, (centre, r)
                    fitted += want
        assert fitted > 0

    @pytest.mark.parametrize("case", sorted(RULE_GRIDS))
    def test_node_indices_within_atol_of_the_box(self, case):
        grid = RULE_GRIDS[case]()
        rng = np.random.default_rng(4)
        lo, hi = grid.bbox_lo, grid.bbox_hi
        for x in near(np.r_[lo, hi, lo + grid.spacing], rng).tolist() + [np.nan, np.inf, 1e300]:
            for axis in range(grid.dim):
                centers = grid.node_coordinate(np.arange(3))
                centers[1, axis] = x
                got, want = node_indices(grid, centers), frozen_node_indices(grid, centers)
                assert (got is None) == (want is None), x
                if want is not None:
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(RULE_GRIDS))
    def test_doubling_family_at_radii_within_atol_of_fitting(self, case):
        grid = RULE_GRIDS[case]()
        h = grid.spacing
        radii = near([h, 1.5 * h, 2 * h, 0.25], np.random.default_rng(5))[:27].tolist()
        for stride in (1, 3):
            got = doubling_ball_family(grid, radii, stride)
            want = frozen_doubling_ball_family(grid, radii, stride)
            assert [(b.center.tolist(), b.radius) for b in got] == [
                (b.center.tolist(), b.radius) for b in want]
            assert got


class TestStencilTablePad:
    """The (node, radius) table is padded by one largest radius on every side."""

    CASES = {
        "1d": (lambda: build_grid(1, [0.0], 1 / 64, [65]), [1 / 32, 3 / 64, 1 / 8]),
        "disk_17": (lambda: unit_disk(0.125), [0.25, 0.5]),
        "disk_21": (lambda: build_grid(2, [-1.25, -1.25], 0.125, [21, 21],
                                       lambda x: np.linalg.norm(x, axis=-1) < 1.25),
                    [0.25, 0.5]),
        "box_9": (lambda: build_grid(3, [-0.5] * 3, 0.125, [9, 9, 9]), [0.25, 0.5]),
        "holes": (holes_grid, [0.125, 0.15, 0.1875]),
        "off_lattice": (lambda: unit_disk(0.1), [0.2, 0.2125, 0.3]),
    }
    SIZES = {"disk_17": 1250, "disk_21": 1682, "box_9": 9826}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table_size_and_rows(self, case):
        make, radii = self.CASES[case]
        grid = make()
        cands = candidate_balls(grid, radii)
        rows = cands._conflicts
        assert type(rows) is _StencilRows and rows.one_per_key
        radii = sorted(set(cands.radii.tolist()))  # the radii that fit somewhere
        pad = math.ceil(radii[-1] / grid.spacing)
        assert rows._table.size == math.prod(n + 2 * pad for n in grid.shape) * len(radii)
        if case in self.SIZES:
            assert rows._table.size == self.SIZES[case]
        distance = _ConflictRows(cands)
        for i in range(len(cands)):
            assert np.array_equal(np.sort(rows.neighbours(i)), distance.neighbours(i))


class TestProposalGatherMatchesNodeSet:
    CASES = {
        "1d": (lambda: build_grid(1, [0.0], 1 / 64, [65]), "linear", {"slope": 2.0},
               {"intercept": 3.0, "slope": 1.0}, [1 / 16, 1 / 8], "auto"),
        "disk": (lambda: unit_disk(0.125), "bump", {"radius": 0.75, "center": [0.1, -0.05]},
                 {"intercept": 3.5, "slope": [0.25, 0.25]}, [0.25, 0.375], "greedy"),
        "box_9": (lambda: build_grid(3, [0.0, 0.0, 0.0], 0.125, [9, 9, 9]), "bump",
                  {"radius": 0.45, "center": [0.5, 0.45, 0.55]},
                  {"intercept": 4.0, "slope": [0.5, 0.0, 0.25]}, [0.25, 0.375], "greedy"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_nodes_and_osc_over_r(self, case):
        make, name, params, exponent, radii, method = self.CASES[case]
        grid = make()
        f = sample_catalog(grid, name, params)
        pfun = exponent_catalog(grid, "affine", exponent)
        proposals = explore_packings(f, pfun, radii, method=method)
        assert proposals
        for t in proposals:
            nodes, a = frozen_gather(f, t.collection)
            assert [idx.tolist() for idx in t.nodes] == [idx.tolist() for idx in nodes]
            assert t.a.tolist() == a
            # The gather path for families a user builds gives the same terms.
            user = packing_terms(f, t.collection, pfun)
            for key in ("a", "p_ball", "char"):
                assert getattr(user, key).tolist() == getattr(t, key).tolist()
            assert user.norm == t.norm


class TestBallFamiliesMatchWindowRule:
    """On dyadic grids one ``ball_nodes`` call per family gathers what one window-rule
    region per ball did: doubling constants, packing terms and G_D f, bit for bit."""

    GRIDS = {
        "1d": lambda: build_grid(1, [0.0], 1 / 64, [65]),
        "2d": lambda: build_grid(2, [-1.0, -1.0], 0.125, [17, 17]),
        "disk": lambda: unit_disk(0.125),
        "3d": lambda: build_grid(3, [0.0, 0.0, 0.0], 0.125, [9, 9, 9]),
    }

    @staticmethod
    def family(grid, seed, disjoint):
        """Balls on nodes, a quarter or half spacing off them and across the box's faces,
        each holding some masked-in node."""
        rng = np.random.default_rng(seed)
        h = grid.spacing
        centres = grid.node_coordinate(rng.choice(grid.n_nodes, 60))
        centres = centres + rng.choice([-0.5, -0.25, 0.0, 0.0, 0.25, 0.5], centres.shape) * h
        radii = rng.choice([1.0, 1.5, 2.0, 2.25, 3.0], len(centres)) * h
        balls = []
        for c, r in zip(centres, radii.tolist()):
            ball = Ball(c, r)
            if frozen_ball_mask(grid, ball).any() and (
                    not disjoint or all(balls_disjoint(ball, b) for b in balls)):
                balls.append(ball)
        assert len(balls) > 3
        return balls

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_doubling_constant(self, case):
        grid = self.GRIDS[case]()
        vol = grid.cell_volume()
        w = sample_catalog(grid, "power_weight", {"alpha": 0.5, "center": [0.3] * grid.dim})
        balls = self.family(grid, 1, disjoint=False)
        want = 0.0
        for ball in balls:
            wb = float(w.values[frozen_ball_mask(grid, ball)].sum() * vol)
            double = frozen_ball_mask(grid, Ball(ball.center, 2.0 * ball.radius))
            want = max(want, float(w.values[double].sum() * vol) / wb)
        assert doubling_constant(w, balls) == want
        far = Ball(grid.bbox_hi + 1.0, grid.spacing)
        with pytest.raises(EmptyRegion, match="no masked-in node lies in the region"):
            doubling_constant(w, balls + [far])

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_packing_terms_and_g_operator(self, case):
        grid = self.GRIDS[case]()
        f = sample_catalog(grid, "bump", {"radius": 0.75})
        pfun = exponent_catalog(grid, "affine", {"intercept": 3.5, "slope": 0.25})
        collection = BallCollection(self.family(grid, 2, disjoint=True))
        nodes, a = frozen_gather(f, collection)
        terms = packing_terms(f, collection, pfun)
        assert [idx.tolist() for idx in terms.nodes] == [idx.tolist() for idx in nodes]
        assert terms.a.tolist() == a
        want = np.zeros(grid.n_nodes)
        for idx, value in zip(nodes, a):
            want[idx] = value
        assert g_operator(f, collection).values.reshape(-1).tolist() == want.tolist()


class TestDP1DMatchesTupleDP:
    """Flat total and count lists select what the (total, -count) tuples did, ties included."""

    def test_linear_constant_weight(self):
        grid = build_grid(1, [0.0], 1 / 64, [65])
        cands = candidate_balls(grid, [1 / 32, 3 / 64, 1 / 16])
        osc, mass = measure_balls(linear(grid), const_weight(grid), cands)
        for p in (1.0, 2.0, 3.0):
            scored = make_scores(cands, osc, mass, p)
            assert list(pack_1d_exact(scored, p).indices) == frozen_dp_1d(scored)

    def test_random_scores_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            score = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0], n)  # dyadic sums tie exactly
            score += rng.random(n) * (rng.random(n) < rng.choice([0.0, 0.3]))
            scored = scored_set(list(zip(rng.integers(0, 40, n) / 8.0,
                                         rng.choice([0.25, 0.375, 0.5], n), score)))
            assert list(pack_1d_exact(scored, 2.0).indices) == frozen_dp_1d(scored)


class TestLogHolderSkipMatchesEveryOffset:
    """Skipping the offsets whose bound (p_+ - p_-) * -log(h|delta|) cannot raise c0
    leaves c0 bit-identical to the pass over every offset."""

    GRIDS = {
        "1d": lambda: build_grid(1, [0.0], 1 / 4096, [4097]),
        "2d": lambda: build_grid(2, [-1.0, -1.0], 1 / 32, [65, 65]),
        "2d_disk": lambda: unit_disk(1 / 32),
        "3d": lambda: build_grid(3, [-1.0, -1.0, -1.0], 0.125, [17, 17, 17]),
    }
    EXPONENTS = {
        "affine": ("affine", {"intercept": 3.0, "slope": 0.5}),
        "step": ("step_exponent", {"threshold": 0.03, "left": 2.0, "right": 4.0}),
    }

    @pytest.mark.parametrize("exponent", sorted(EXPONENTS))
    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_c0(self, case, exponent):
        grid = self.GRIDS[case]()
        name, params = self.EXPONENTS[exponent]
        pfun = exponent_catalog(grid, name, params)
        assert lh_constants(pfun).c0_estimate == frozen_lh_c0(pfun)


class TestModularMatchesFrozenExpression:
    """``modular`` is one row of the Luxemburg modular and keeps the numpy power, the
    pairwise sum and the factor h^n, bit for bit, on more nodes than one sum block."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bit_identical(self, dim):
        if dim == 1:
            grid = build_grid(1, [0.0], 1 / 16384, [16385])
            f = sample_catalog(grid, "sinusoid", {"freq": 3.0})
            pfun = exponent_catalog(grid, "affine", {"intercept": 2.0, "slope": 1.5})
            region = Ball([0.4], 0.3)
        else:
            grid = unit_disk(1 / 64)
            f = sample_catalog(grid, "bump", {"radius": 0.75, "center": [0.1, -0.05]})
            pfun = exponent_catalog(grid, "affine", {"intercept": 2.5, "slope": [0.5, 0.25]})
            region = Ball([0.1, 0.2], 0.5)
        assert grid.mask.sum() > 8192
        for scale in (1.0, 3.7, 1e-3, 1e200):
            g = SampledField(grid, scale * f.values)
            assert modular(g, pfun) == frozen_modular(g, pfun)
            assert modular(g, pfun, region) == frozen_modular(g, pfun, region)
        assert modular(SampledField(grid, 1e200 * f.values), pfun) == math.inf
