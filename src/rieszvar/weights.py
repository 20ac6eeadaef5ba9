"""Muckenhoupt, reverse-Hölder, and doubling constants over finite cube families.

The supremum over all cubes is replaced by a finite dyadic (optionally
shifted) family, so every constant reported here is a lower bound of the
true one. Cube averages are node means, which makes the Jensen-type
lower bound of 1 exact for constant weights.

A family gathers its cubes' nodes by the cube rule (``grid.cube_nodes``,
which ``region_mask`` shares) and stacks them by size (``grid.size_blocks``),
so the A_p, A_1 and RH constants take each block's node means as one row
reduction. The final powers and the supremum are taken per cube on Python
floats, which keeps every constant bit-identical to a cube-by-cube loop.

The r_w search asks at each bisection step only whether some cube's A_q
value exceeds the threshold. Since every dual term ``w^{1/(1-q)}`` on a
cube is at most ``(min_Q w)^{1/(1-q)}``, a cube's A_q value is at most its
A_1 ratio ``<w>_Q / min_Q w`` (``[w]_{A_q} <= [w]_{A_1}``). A cube whose
ratio stays below the threshold by the margin ``exp(1e-9 q)``, which
covers the rounding of the exact expression, is cleared without being
evaluated; the others are evaluated exactly, so the search returns the
bisection over ap_constant bit for bit (see estimate_rw).
"""

import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    EmptyRegion,
    InfiniteDual,
    NoCubes,
    PreconditionError,
    WeightOverflow,
    ZeroWeightOnBall,
    ZeroWeightOnCube,
)
from .grid import (
    Ball,
    Cube,
    FieldKind,
    SampledField,
    ball_nodes,
    box_fits,
    cube_nodes,
    cube_tol,
    distinct,
    same_nodes,
    size_blocks,
    weight_integral,
)


_TINY = sys.float_info.min
_HUGE = sys.float_info.max
_DUAL_OVERFLOW = "the A_p dual term of a cube overflows the float range"


class CubeProvenance(Enum):
    DYADIC = "dyadic"
    SHIFTED_DYADIC = "shifted_dyadic"


@dataclass(frozen=True, eq=False)
class CubeArrays(Sequence):
    """Cubes as arrays: corners (m, dim) and sides (m,); item i is built as a Cube on access."""

    corners: np.ndarray
    sides: np.ndarray

    def __len__(self):
        return len(self.sides)

    def __getitem__(self, i):
        return Cube(self.corners[i], float(self.sides[i]))


@dataclass(frozen=True, eq=False)
class CubeFamily:
    """Cubes bound to a grid, each with its masked-in nodes.

    ``cubes`` is given as a CubeArrays (as ``generate_cubes`` passes it)
    or a sequence of Cubes, and kept as the CubeArrays of the cubes that
    hold a masked-in node. ``nodes[i]`` holds the flat row-major indices
    of the masked-in nodes of ``cubes[i]``. ``blocks`` are those indices
    stacked by cube size (``grid.size_blocks``).
    """

    grid: object
    cubes: CubeArrays
    provenance: CubeProvenance
    nodes: tuple = field(init=False, repr=False)
    blocks: list = field(init=False, repr=False)

    def __post_init__(self):
        cubes = self.cubes
        if not isinstance(cubes, CubeArrays):
            cubes = tuple(cubes)
            cubes = CubeArrays(np.reshape([c.corner for c in cubes], (len(cubes), self.grid.dim)),
                               np.array([c.side for c in cubes], dtype=float))
        nodes = cube_nodes(self.grid, cubes.corners, cubes.sides)
        kept = [k for k, i in enumerate(nodes) if i.size]
        if not kept:
            raise NoCubes("no cube of the family holds a masked-in node")
        object.__setattr__(self, "cubes", CubeArrays(cubes.corners[kept], cubes.sides[kept]))
        object.__setattr__(self, "nodes", tuple(nodes[k] for k in kept))
        object.__setattr__(self, "blocks", size_blocks(self.nodes))

    def __len__(self):
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)


@dataclass(frozen=True)
class RwEstimate:
    """Operational critical index: smallest q with A_q constant under a threshold.

    ``at_max`` flags that even q_max did not bring the constant below the
    threshold, so the reported value is only the search cap.
    """

    value: float
    at_max: bool
    threshold: float
    tol: float


def generate_cubes(grid, min_side, levels, shifts=1):
    """Dyadic cubes tiled from the grid origin, with translated copies.

    Level ``l`` uses side ``min_side * 2**l``; copy ``j`` of ``shifts``
    is translated by ``j * side / shifts`` along every axis. Cubes that
    exit the bounding box are dropped here, cubes that miss every
    masked-in node by ``CubeFamily``.
    """
    if min_side < grid.spacing:
        raise PreconditionError(f"min_side {min_side} is below the grid spacing {grid.spacing}")
    if levels < 1 or shifts < 1:
        raise PreconditionError("levels and shifts must be >= 1")
    lo = grid.bbox_lo
    hi = grid.bbox_hi
    corners, sides = [], []
    for level in range(levels):
        side = min_side * 2**level
        tol = cube_tol(side)
        counts = [int(math.floor((hi[a] - lo[a]) / side)) + 1 for a in range(grid.dim)]
        for j in range(shifts):
            off = j * side / shifts
            axes = [lo[a] + off + side * np.arange(counts[a]) for a in range(grid.dim)]
            axes = [c[box_fits(lo[a], hi[a], c, c + side, tol)] for a, c in enumerate(axes)]
            mesh = np.meshgrid(*axes, indexing="ij")
            corners.append(np.stack([m.reshape(-1) for m in mesh], axis=-1))
            sides.append(np.full(len(corners[-1]), side))
    provenance = CubeProvenance.DYADIC if shifts == 1 else CubeProvenance.SHIFTED_DYADIC
    return CubeFamily(grid, CubeArrays(np.concatenate(corners), np.concatenate(sides)),
                      provenance)


def _cube_values(w, family):
    """The weight's values on the family's cubes: one (cubes, nodes) block per cube size."""
    if not (same_nodes(w.grid, family.grid) and np.array_equal(w.grid.mask, family.grid.mask)):
        raise PreconditionError("weight and cube family live on different grids")
    flat = w.values.reshape(-1)
    return [flat[block] for _, block in family.blocks]


def _row_means(vals, what):
    """Per-cube means of one block of ``what``; a node sum past the float range raises."""
    with np.errstate(over="ignore"):
        means = vals.mean(axis=1)
    if np.isinf(means).any():
        raise WeightOverflow(f"the node sum of {what} on a cube overflows the float range")
    return means


def _cube_means(vals):
    """Per-cube node means of one block, as Python floats; a zero or overflowing mean raises."""
    mean_w = _row_means(vals, "the weight")
    if (mean_w == 0.0).any():
        raise ZeroWeightOnCube("weight integrates to zero on a cube")
    return mean_w.tolist()


def _dual_means(vals, expo):
    """Per-cube means of the dual terms ``vals**expo``, as Python floats (+inf past overflow)."""
    with np.errstate(divide="ignore", over="ignore"):
        return (vals**expo).mean(axis=1).tolist()


def ap_constant(w, p, family):
    """[w]_{A_p} over the family: sup of <w>_Q <w^{1/(1-p)}>_Q^{p-1}.

    Nodes where w vanishes push the dual average to +inf; the constant is
    then reported as +inf rather than raising.
    """
    if p <= 1:
        raise PreconditionError(f"A_p requires p > 1, got {p}")
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("ap_constant requires a weight field")
    best = 0.0
    expo = 1.0 / (1.0 - p)
    try:
        for vals in _cube_values(w, family):
            for mw, md in zip(_cube_means(vals), _dual_means(vals, expo)):
                best = max(best, mw * md ** (p - 1.0))
    except OverflowError:  # the float power of a finite dual mean (subnormal weights)
        raise WeightOverflow(_DUAL_OVERFLOW) from None
    return best


def a1_constant(w, family):
    """[w]_{A_1} over the family: sup of <w>_Q * max_Q w^{-1}."""
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("a1_constant requires a weight field")
    best = 0.0
    for vals in _cube_values(w, family):
        mn = vals.min(axis=1)
        if (mn == 0.0).any():
            return float("inf")
        best = max(best, float((_row_means(vals, "the weight") / mn).max()))
    return best


def rh_constant(w, s, family):
    """Reverse-Hölder constant over the family: sup of <w^s>_Q^{1/s} / <w>_Q."""
    if s <= 1:
        raise PreconditionError(f"RH_s requires s > 1, got {s}")
    best = 0.0
    for vals in _cube_values(w, family):
        mean_w = _cube_means(vals)
        with np.errstate(over="ignore"):
            powers = vals**s
        for mw, ms in zip(mean_w, _row_means(powers, f"w^{s}").tolist()):
            best = max(best, ms ** (1.0 / s) / mw)
    return best


def estimate_rw(w, family, threshold=1000.0, tol=1e-3, q_max=64.0):
    """Bisect for the smallest q > 1 with ap_constant(w, q) <= threshold.

    Relies on the monotonicity of q -> [w]_{A_q}. Returns an RwEstimate;
    ``at_max`` is set when even q_max stays above the threshold.

    Each step asks only whether some cube's A_q value exceeds the
    threshold, so it evaluates exactly only the cubes whose bound can
    cross it. Every dual term is at most the peak ``(min_Q w)^{1/(1-q)}``,
    so a cube's A_q value is at most its A_1 ratio ``<w>_Q / min_Q w``. A
    cube is cleared, and skipped, when

    - ``ratio <= threshold * exp(-1e-9 q)``,
    - ``min_Q w`` is normal (at least DBL_MIN), and
    - its computed peak lies in ``[s * DBL_MIN, DBL_MAX / (2 s)]``, ``s``
      the family's largest cube size, so the row sum cannot overflow and
      the mean of the dual terms is a normal number, on which underflowed
      terms move at most one ulp.

    The computed value ``mw * md ** (q - 1)`` then cannot exceed the
    threshold: ``pow`` is within a few ulps, the pairwise row sum and its
    division add at most about ``log2(s) + 20`` more, so ``md`` exceeds
    the peak by a relative ``d < 1e-13``; the outer power turns that into
    ``exp((q - 1) d)``, and the last product and the ratio add a few ulps,
    all below the margin ``exp(1e-9 q)``. A cube is cleared only while
    ``exp(-1e-9 q) > 0``, that is ``q < 7.5e11``, where the same bound
    keeps ``md ** (q - 1)`` below ``1.1 / min_Q w < DBL_MAX``, so a
    cleared cube cannot raise either.
    Every other cube is evaluated with ap_constant's own row expression
    (``_dual_means``),
    likeliest to exceed first, and the step stops at the first one that
    does. So the step sequence and the RwEstimate are those of bisecting
    over ap_constant, bit for bit, errors included: a cube whose minimum
    is subnormal can overflow ``md ** (q - 1)`` there (WeightOverflow), so a
    family holding one evaluates every uncleared cube before it answers.
    """
    if threshold <= 1:
        raise PreconditionError("threshold must be > 1")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    lo = 1.0 + tol
    # ap_constant(w, lo) checks its index before it reads the weight.
    if lo <= 1:
        raise PreconditionError(f"A_p requires p > 1, got {lo}")
    exceeds = _ap_exceeds(w, family, threshold)
    if not exceeds(lo):
        return RwEstimate(lo, False, threshold, tol)
    if exceeds(q_max):
        return RwEstimate(q_max, True, threshold, tol)
    hi = q_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not exceeds(mid):
            hi = mid
        else:
            lo = mid
    return RwEstimate(hi, False, threshold, tol)


def _ap_exceeds(w, family, threshold):
    """The bisection test ``q -> ap_constant(w, q, family) > threshold`` (see estimate_rw).

    The weight's blocks, node means, minima and A_1 ratios are taken once;
    each call then computes the peaks of every cube as one power.
    """
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("ap_constant requires a weight field")
    blocks = _cube_values(w, family)
    means = [_cube_means(vals) for vals in blocks]
    starts = [0, *itertools.accumulate(len(vals) for vals in blocks)]
    size = max(vals.shape[1] for vals in blocks)
    peak_lo, peak_hi = size * _TINY, _HUGE / (2.0 * size)
    mins = np.concatenate([vals.min(axis=1) for vals in blocks])
    normal = mins >= _TINY
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(normal, np.array([m for ms in means for m in ms]) / mins, np.inf)
    stop_early = not mins[~normal].any()

    def exceeds(q):
        if q <= 1:
            raise PreconditionError(f"A_p requires p > 1, got {q}")
        expo = 1.0 / (1.0 - q)
        with np.errstate(divide="ignore", over="ignore"):
            peak = mins**expo
        todo = np.flatnonzero(~((ratio <= threshold * math.exp(-1e-9 * q))
                                & (peak >= peak_lo) & (peak <= peak_hi)))
        if not todo.size:
            return False
        # Peaks too large to clear first (an overflowed one makes the value
        # inf), then by A_1 ratio.
        todo = todo[np.argsort(np.where(peak[todo] > peak_hi, -np.inf, -ratio[todo]),
                               kind="stable")]
        best = 0.0
        try:
            for part in (todo[:1], todo[1:]) if stop_early else (todo,):
                block_of = np.searchsorted(starts, part, side="right") - 1
                for b in distinct(block_of):
                    rows = part[block_of == b] - starts[b]
                    for r, md in zip(rows.tolist(), _dual_means(blocks[b][rows], expo)):
                        best = max(best, means[b][r] * md ** (q - 1.0))
                        if stop_early and best > threshold:
                            return True
        except OverflowError:
            raise WeightOverflow(_DUAL_OVERFLOW) from None
        return not best <= threshold

    return exceeds


def doubling_constant(w, ball_family):
    """Max of w(2B)/w(B) over the family (2B the concentric double), by one ``ball_nodes`` call."""
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("doubling_constant requires a weight field")
    centers = np.array([b.center for b in ball_family] * 2).reshape(-1, w.grid.dim)
    nodes = ball_nodes(w.grid, centers, [s * b.radius for s in (1.0, 2.0) for b in ball_family])
    best = 0.0
    for inner, outer in zip(nodes, nodes[len(nodes) // 2:]):
        if not inner.size:
            raise EmptyRegion("no masked-in node lies in the region")
        wb = weight_integral(w, inner, "the weight of a region")
        if wb == 0.0:
            raise ZeroWeightOnBall("weight integrates to zero on a ball")
        best = max(best, weight_integral(w, outer, "the weight of a region") / wb)
    return best


def dual_weight(w, q):
    """sigma = w^{1/(1-q)} as a weight field.

    Raises InfiniteDual (carrying the flat indices of the zero-weight
    nodes) when the dual would be infinite somewhere on the mask.
    """
    if q <= 1:
        raise PreconditionError(f"dual weight requires q > 1, got {q}")
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("dual_weight requires a weight field")
    zero = (w.values == 0.0) & w.grid.mask
    if zero.any():
        raise InfiniteDual(
            "weight vanishes at masked-in nodes; dual is infinite there",
            flagged=np.flatnonzero(zero.reshape(-1)).tolist(),
        )
    with np.errstate(divide="ignore"):
        vals = np.where(w.grid.mask, w.values ** (1.0 / (1.0 - q)), 0.0)
    return SampledField(w.grid, vals, FieldKind.WEIGHT)


def doubling_ball_family(grid, radii, stride=1):
    """Balls centered at every ``stride``-th masked node whose double stays in the box."""
    radii = list(radii)
    flat = np.flatnonzero(grid.mask.reshape(-1)[::stride]) * stride
    centers = grid.node_coordinate(flat)
    reach = 2 * np.array(radii, dtype=float)[None, :, None]
    fits = box_fits(grid.bbox_lo, grid.bbox_hi, centers[:, None] - reach, centers[:, None] + reach)
    node, which = np.nonzero(fits.all(axis=2))
    return [Ball(centers[n], radii[i]) for n, i in zip(node, which.tolist())]

