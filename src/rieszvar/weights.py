"""Muckenhoupt, reverse-Hölder, and doubling constants over finite cube families.

The supremum over all cubes is replaced by a finite dyadic (optionally
shifted) family, so every constant reported here is a lower bound of the
true one. Cube averages are node means, which makes the Jensen-type
lower bound of 1 exact for constant weights.

A family gathers its cubes' nodes from per-axis index ranges, one base +
offsets block per cube shape, and stacks them by size (``grid.size_blocks``),
so the A_p, A_1 and RH constants take each block's node means as one row
reduction. The final powers and the supremum are taken per cube on Python
floats, which keeps every constant bit-identical to a cube-by-cube loop.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    InfiniteDual,
    NoCubes,
    PreconditionError,
    ZeroWeightOnBall,
    ZeroWeightOnCube,
)
from .grid import (
    ATOL,
    Ball,
    Cube,
    FieldKind,
    SampledField,
    lattice_flat,
    same_nodes,
    size_blocks,
    weighted_measure,
)


class CubeProvenance(Enum):
    DYADIC = "dyadic"
    SHIFTED_DYADIC = "shifted_dyadic"


@dataclass(frozen=True, eq=False)
class CubeFamily:
    """Cubes bound to a grid, each with its masked-in nodes.

    ``nodes[i]`` holds the flat row-major indices of the masked-in nodes
    of ``cubes[i]``; cubes that hold none are dropped. ``blocks`` are
    those indices stacked by cube size (``grid.size_blocks``).
    """

    grid: object
    cubes: tuple
    provenance: CubeProvenance
    nodes: tuple = field(init=False, repr=False)
    blocks: list = field(init=False, repr=False)

    def __post_init__(self):
        kept = [(c, i) for c, i in zip(self.cubes, _cube_nodes(self.grid, self.cubes)) if i.size]
        if not kept:
            raise NoCubes("no cube of the family holds a masked-in node")
        object.__setattr__(self, "cubes", tuple(c for c, _ in kept))
        object.__setattr__(self, "nodes", tuple(i for _, i in kept))
        object.__setattr__(self, "blocks", size_blocks(self.nodes))

    def __len__(self):
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)


def _cube_nodes(grid, cubes):
    """Per cube, the flat row-major indices of its masked-in nodes.

    Along axis a a closed cube holds the nodes with ``corner - tol <= x <=
    corner + side + tol``, ``tol = ATOL * max(1, side)``: the index range
    ``first + arange(count)``. Cubes with equal counts are gathered as one
    base + offsets block, whose rows are then cut to the mask.
    """
    corners = np.array([c.corner for c in cubes], dtype=float).reshape(len(cubes), grid.dim)
    sides = np.array([c.side for c in cubes], dtype=float)[:, None]
    tol = ATOL * np.maximum(1.0, sides)
    coords = [grid.axis_coords(a) for a in range(grid.dim)]
    first = np.stack([np.searchsorted(x, lo) for x, lo in zip(coords, (corners - tol).T)], 1)
    count = np.stack([np.searchsorted(x, hi, side="right") for x, hi in
                      zip(coords, (corners + sides + tol).T)], 1) - first
    mask = grid.mask.reshape(-1)
    nodes = [np.empty(0, dtype=np.intp)] * len(cubes)
    # sorted(set()) rather than np.unique, which imports numpy.ma.
    for shape in sorted(set(map(tuple, count.tolist()))):
        if 0 in shape:
            continue
        members = np.flatnonzero((count == shape).all(axis=1))
        box = np.indices(shape).reshape(grid.dim, -1).T
        block = lattice_flat(grid, first[members])[:, None] + lattice_flat(grid, box)
        inside = mask[block]
        for k, row, keep, whole in zip(members.tolist(), block, inside, inside.all(axis=1)):
            nodes[k] = row if whole else row[keep]
    return nodes


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
        raise PreconditionError(
            f"min_side {min_side} is below the grid spacing {grid.spacing}"
        )
    if levels < 1 or shifts < 1:
        raise PreconditionError("levels and shifts must be >= 1")
    lo = grid.bbox_lo
    hi = grid.bbox_hi
    cubes = []
    for level in range(levels):
        side = min_side * 2**level
        tol = ATOL * max(1.0, side)
        counts = [int(math.floor((hi[a] - lo[a]) / side)) + 1 for a in range(grid.dim)]
        for j in range(shifts):
            off = j * side / shifts
            axes = [lo[a] + off + side * np.arange(counts[a]) for a in range(grid.dim)]
            axes = [c[(c >= lo[a] - tol) & (c + side <= hi[a] + tol)]
                    for a, c in enumerate(axes)]
            mesh = np.meshgrid(*axes, indexing="ij")
            cubes += [Cube(c, side) for c in np.stack([m.reshape(-1) for m in mesh], axis=-1)]
    provenance = CubeProvenance.DYADIC if shifts == 1 else CubeProvenance.SHIFTED_DYADIC
    return CubeFamily(grid, tuple(cubes), provenance)


def _cube_values(w, family):
    """The weight's values on the family's cubes: one (cubes, nodes) block per cube size."""
    if not (same_nodes(w.grid, family.grid) and np.array_equal(w.grid.mask, family.grid.mask)):
        raise PreconditionError("weight and cube family live on different grids")
    flat = w.values.reshape(-1)
    return [flat[block] for _, block in family.blocks]


def _cube_means(vals):
    """Per-cube node means of one block, as Python floats; a zero mean raises."""
    mean_w = vals.mean(axis=1)
    if (mean_w == 0.0).any():
        raise ZeroWeightOnCube("weight integrates to zero on a cube")
    return mean_w.tolist()


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
    for vals in _cube_values(w, family):
        mean_w = _cube_means(vals)
        with np.errstate(divide="ignore", over="ignore"):
            mean_dual = (vals**expo).mean(axis=1).tolist()
        for mw, md in zip(mean_w, mean_dual):
            best = max(best, mw * md ** (p - 1.0))
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
        best = max(best, float((vals.mean(axis=1) / mn).max()))
    return best


def rh_constant(w, s, family):
    """Reverse-Hölder constant over the family: sup of <w^s>_Q^{1/s} / <w>_Q."""
    if s <= 1:
        raise PreconditionError(f"RH_s requires s > 1, got {s}")
    best = 0.0
    for vals in _cube_values(w, family):
        mean_w = _cube_means(vals)
        for mw, ms in zip(mean_w, (vals**s).mean(axis=1).tolist()):
            best = max(best, ms ** (1.0 / s) / mw)
    return best


def estimate_rw(w, family, threshold=1000.0, tol=1e-3, q_max=64.0):
    """Bisect for the smallest q > 1 with ap_constant(w, q) <= threshold.

    Relies on the monotonicity of q -> [w]_{A_q}. Returns an RwEstimate;
    ``at_max`` is set when even q_max stays above the threshold.
    """
    if threshold <= 1:
        raise PreconditionError("threshold must be > 1")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    lo = 1.0 + tol
    if ap_constant(w, lo, family) <= threshold:
        return RwEstimate(lo, False, threshold, tol)
    if ap_constant(w, q_max, family) > threshold:
        return RwEstimate(q_max, True, threshold, tol)
    hi = q_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ap_constant(w, mid, family) <= threshold:
            hi = mid
        else:
            lo = mid
    return RwEstimate(hi, False, threshold, tol)


def doubling_constant(w, ball_family):
    """Max of w(2B)/w(B) over the family, 2B the concentric double."""
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("doubling_constant requires a weight field")
    best = 0.0
    for ball in ball_family:
        wb = weighted_measure(w, ball)
        if wb == 0.0:
            raise ZeroWeightOnBall("weight integrates to zero on a ball")
        w2b = weighted_measure(w, Ball(ball.center, 2.0 * ball.radius))
        best = max(best, w2b / wb)
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
    fits = np.all(
        (centers[:, None] - reach >= grid.bbox_lo - ATOL)
        & (centers[:, None] + reach <= grid.bbox_hi + ATOL),
        axis=2,
    )
    node, which = np.nonzero(fits)
    return [Ball(centers[n], radii[i]) for n, i in zip(node, which.tolist())]

