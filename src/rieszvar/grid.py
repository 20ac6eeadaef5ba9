"""Uniform-grid domains, sampled fields, and quadrature primitives.

A domain is a box of uniformly spaced nodes together with a boolean mask
selecting which nodes belong to it. Functions and weights are arrays of
node values on such a grid. Balls are open: node x lies in B(c, r) when
``|x - c| < r - ATOL``, so membership does not move with the ball's
position through rounding, and every node-centred ball holds the same
stencil (``ball_offsets``). Cubes are closed and axis-parallel, and all
integrals are plain node sums times ``h**dim``. These conventions are
shared by every other module, so they live here.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    BadShape,
    EmptyDomain,
    EmptyRegion,
    IsolatedNode,
)

# Absolute slack for containment / disjointness comparisons on node
# coordinates. Domains are O(1) boxes, so this is far below the spacing
# of any usable grid while absorbing decimal-float noise like
# 0.95 + 0.05 = 1.0000000000000002.
ATOL = 1e-9


class FieldKind(Enum):
    FUNCTION = "function"
    WEIGHT = "weight"


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform node grid over a masked box domain.

    Node ``k`` (a multi-index) sits at ``origin + spacing * k``. The mask
    marks nodes belonging to the domain; at least one node must be in.
    """

    dim: int
    origin: np.ndarray
    spacing: float
    shape: tuple
    mask: np.ndarray
    _stencils: dict = field(default_factory=dict, init=False, repr=False)  # ball_offsets by r
    _eroded: dict = field(default_factory=dict, init=False, repr=False)  # eroded_mask by r

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float).reshape(-1)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if self.dim not in (1, 2, 3):
            raise BadShape(f"dim must be 1, 2, or 3, got {self.dim}")
        if origin.size != self.dim:
            raise BadShape(f"origin has {origin.size} entries, expected {self.dim}")
        if len(self.shape) != self.dim:
            raise BadShape(f"shape has {len(self.shape)} entries, expected {self.dim}")
        if any(s < 2 for s in self.shape):
            raise BadShape(f"every shape component must be >= 2, got {self.shape}")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise BadShape(f"spacing must be positive and finite, got {self.spacing}")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != self.shape:
            raise BadShape(f"mask shape {mask.shape} != grid shape {self.shape}")
        object.__setattr__(self, "mask", mask)
        if not mask.any():
            raise EmptyDomain("no node is masked into the domain")

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    @property
    def bbox_lo(self):
        return self.origin.copy()

    @property
    def bbox_hi(self):
        return self.origin + self.spacing * (np.array(self.shape) - 1)

    def axis_coords(self, axis):
        """Node coordinates along one axis, exactly origin + h*k."""
        return self.origin[axis] + self.spacing * np.arange(self.shape[axis])

    def coords(self):
        """Tuple of per-axis coordinate arrays broadcast to the grid shape."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def points(self):
        """All node coordinates, shape (*grid.shape, dim)."""
        return np.stack(self.coords(), axis=-1)

    def node_coordinate(self, flat):
        """Coordinates of a flat node index, shape (dim,); of an index array, shape (n, dim)."""
        k = np.stack(np.unravel_index(flat, self.shape), axis=-1)
        return self.origin + self.spacing * k

    def cell_volume(self):
        return self.spacing**self.dim


@dataclass(frozen=True, eq=False)
class SampledField:
    """Real values sampled at the grid nodes.

    ``kind`` distinguishes plain functions from weights; weights must be
    nonnegative wherever the mask is on. Values at masked-out nodes are
    carried but never read by any operation.
    """

    grid: Grid
    values: np.ndarray
    kind: FieldKind = FieldKind.FUNCTION

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise BadShape(
                f"values shape {values.shape} != grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)
        masked = values[self.grid.mask]
        if not np.all(np.isfinite(masked)):
            raise BadShape("field has non-finite values at masked-in nodes")
        if self.kind == FieldKind.WEIGHT and np.any(masked < 0):
            raise BadShape("weight has negative values at masked-in nodes")


@dataclass(frozen=True)
class Ball:
    """Open ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise BadShape(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Cube:
    """Closed axis-parallel cube [corner, corner + side]^dim."""

    corner: np.ndarray
    side: float

    def __post_init__(self):
        corner = np.atleast_1d(np.asarray(self.corner, dtype=float))
        object.__setattr__(self, "corner", corner)
        if not (math.isfinite(self.side) and self.side > 0):
            raise BadShape(f"cube side must be positive, got {self.side}")


def balls_disjoint(b1, b2):
    """Closed-ball disjointness: center distance >= sum of radii.

    Slightly stronger than open disjointness; tangent balls pass.
    """
    dist = float(np.linalg.norm(b1.center - b2.center))
    return dist + ATOL >= b1.radius + b2.radius


def balls_overlap(centers_a, radii_a, centers_b, radii_b):
    """Elementwise negation of ``balls_disjoint`` for balls given as centre and radius arrays.

    ``centers_*`` are (..., dim) and ``radii_*`` broadcast against their
    leading axes; the result is flat. Distances are stacked 1 x d @ d x 1
    products, which use the same dot routine as ``np.linalg.norm`` of one
    vector, so the result matches ``balls_disjoint`` bit for bit.
    """
    diff = centers_b - centers_a
    dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None]).reshape(-1))
    return ~(dist + ATOL >= radii_a + radii_b)


@dataclass(frozen=True)
class BallCollection:
    """Finite ordered family of pairwise disjoint balls."""

    balls: tuple

    def __post_init__(self):
        object.__setattr__(self, "balls", tuple(self.balls))
        if len(self.balls) < 2:
            return
        centers = np.array([b.center for b in self.balls])
        radii = np.array([b.radius for b in self.balls])
        i, j = np.triu_indices(len(self.balls), 1)
        bad = np.flatnonzero(balls_overlap(centers[i], radii[i], centers[j], radii[j]))
        if bad.size:
            i, j = int(i[bad[0]]), int(j[bad[0]])
            raise BadShape(
                f"balls {i} and {j} overlap (centers "
                f"{self.balls[i].center}, {self.balls[j].center})"
            )

    def __len__(self):
        return len(self.balls)

    def __iter__(self):
        return iter(self.balls)

    def validate_in_domain(self, grid):
        """Check that every ball is contained in the domain."""
        for i, ball in enumerate(self.balls):
            if not ball_in_domain(grid, ball):
                raise BadShape(f"ball {i} is not contained in the domain")


def build_grid(dim, origin, spacing, shape, domain_predicate=None):
    """Construct a grid, masking nodes by a domain predicate.

    The predicate receives node coordinates of shape (..., dim) and must
    return a boolean array of shape (...). ``None`` keeps the full box.
    """
    probe = Grid(
        dim=dim,
        origin=np.asarray(origin, dtype=float),
        spacing=float(spacing),
        shape=tuple(shape),
        mask=np.ones(tuple(int(s) for s in shape), dtype=bool),
    )
    if domain_predicate is None:
        return probe
    mask = np.asarray(domain_predicate(probe.points()), dtype=bool)
    if mask.shape != probe.shape:
        raise BadShape(
            f"domain predicate returned shape {mask.shape}, expected {probe.shape}"
        )
    if not mask.any():
        raise EmptyDomain("domain predicate masked out every node")
    return replace(probe, mask=mask)


def same_nodes(a, b):
    """Whether two grids place the same nodes: dimension, shape, spacing and origin."""
    return (
        a.dim == b.dim
        and a.shape == b.shape
        and abs(a.spacing - b.spacing) <= 1e-12 * a.spacing
        and np.allclose(a.origin, b.origin, atol=1e-12)
    )


def _inside(dist_sq, r):
    """The open-ball rule: a node at squared distance ``dist_sq`` from the centre is in B(c, r)."""
    return np.sqrt(dist_sq) < r - ATOL


def _window_membership(grid, ball):
    """Slices of the ball's index window plus the open-ball membership bool array.

    The window holds the nodes with every coordinate within r (+ ATOL)
    of the centre; it is None when no such node exists.
    """
    lo = np.ceil((ball.center - ball.radius - grid.origin - ATOL) / grid.spacing)
    hi = np.floor((ball.center + ball.radius - grid.origin + ATOL) / grid.spacing)
    lo, hi = np.maximum(lo, 0).astype(int), np.minimum(hi, np.array(grid.shape) - 1).astype(int)
    if np.any(lo > hi):
        return None, None
    axes = [grid.origin[a] + grid.spacing * np.arange(lo[a], hi[a] + 1) - ball.center[a]
            for a in range(grid.dim)]
    dist_sq = sum(d**2 for d in np.meshgrid(*axes, indexing="ij"))
    return tuple(slice(i0, i1 + 1) for i0, i1 in zip(lo, hi)), _inside(dist_sq, ball.radius)


def region_mask(grid, region=None):
    """Boolean node membership of a region intersected with the domain mask.

    ``region`` is None (whole domain), a Ball (open), or a Cube (closed).
    """
    if region is None:
        return grid.mask.copy()
    if isinstance(region, Ball):
        out = np.zeros(grid.shape, dtype=bool)
        slices, inside = _window_membership(grid, region)
        if slices is not None:
            out[slices] = inside
        return out & grid.mask
    if isinstance(region, Cube):
        tol = ATOL * max(1.0, region.side)
        out = np.ones(grid.shape, dtype=bool)
        for a in range(grid.dim):
            coord = grid.axis_coords(a)
            sel = (coord >= region.corner[a] - tol) & (
                coord <= region.corner[a] + region.side + tol
            )
            shape = [1] * grid.dim
            shape[a] = coord.size
            out &= sel.reshape(shape)
        return out & grid.mask
    raise TypeError(f"unsupported region type {type(region)!r}")


def node_set(grid, ball):
    """Flat indices of masked-in nodes x with ``|x - c| < r - ATOL``, row-major; may be empty.

    For a ball centred at a node they are that node plus ``ball_offsets``.
    """
    member = region_mask(grid, ball)
    return np.flatnonzero(member)


def distinct(values):
    """The distinct entries of a 1-D array, ascending, as Python scalars.

    A sort plus a neighbour comparison, since ``np.unique`` imports
    ``numpy.ma``. The sort is the stable kind the packers' argsorts
    already load: the default kind pages in its own SIMD kernels, ~0.3 MB
    of peak RSS on a 1D verify run.
    """
    v = np.sort(np.asarray(values), kind="stable")
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep].tolist()


def size_blocks(index_arrays):
    """Flat index arrays of equal length stacked into blocks, by ascending length.

    Returns ``[(positions, block), ...]`` with ``block`` a C-contiguous
    (m, s) matrix whose row k is ``index_arrays[positions[k]]``. A
    reduction along axis 1 of ``values[block]`` sums each row pairwise,
    as ``values[index_array].sum()`` does, so per-row results are
    bit-identical to per-array ones.
    """
    sizes = np.array([len(a) for a in index_arrays], dtype=np.intp)
    blocks = []
    for s in distinct(sizes):
        positions = np.flatnonzero(sizes == s)
        blocks.append((positions, np.stack([index_arrays[k] for k in positions.tolist()])))
    return blocks


def ball_in_domain(grid, ball):
    """Ball containment test: all inside nodes masked-in, bbox inside grid bbox.

    Node-based plus bounding box; an approximation for implicit masks.
    """
    lo_ok = np.all(ball.center - ball.radius >= grid.bbox_lo - ATOL)
    hi_ok = np.all(ball.center + ball.radius <= grid.bbox_hi + ATOL)
    if not (lo_ok and hi_ok):
        return False
    slices, inside = _window_membership(grid, ball)
    if slices is None:
        return True
    return bool(np.all(grid.mask[slices][inside]))


def riemann_integral(field, region=None):
    """Node-sum quadrature: sum of masked values in the region times h^dim."""
    member = region_mask(field.grid, region)
    if not member.any():
        raise EmptyRegion("no masked-in node lies in the region")
    return float(field.values[member].sum() * field.grid.cell_volume())


def weighted_measure(weight, region=None):
    """w(E) = integral of the weight over the region."""
    if weight.kind != FieldKind.WEIGHT:
        raise BadShape("weighted_measure requires a field of kind weight")
    return riemann_integral(weight, region)


def oscillation(field, region=None):
    """osc_E(f) = max - min of the sampled values over the region."""
    member = region_mask(field.grid, region)
    if not member.any():
        raise EmptyRegion("no masked-in node lies in the region")
    vals = field.values[member]
    return float(vals.max() - vals.min())


def shifted(values, delta):
    """``values`` read at integer node offset ``delta``: ``out[k] = values[k + delta]``.

    Entries whose ``k + delta`` falls outside the array are zero (False
    for a mask), so shifting a mask also tells which neighbours exist.
    """
    out = np.zeros_like(values)
    slices = _shift_slices(delta, values.shape)
    if slices is not None:
        dst, src = slices
        out[dst] = values[src]
    return out


def _shift_slices(delta, shape):
    """Slices (dst, src) with ``dst`` at node k and ``src`` at k + delta, both inside ``shape``.

    None when no node has its offset neighbour inside the array.
    """
    dst = []
    src = []
    for d, n in zip(delta, shape):
        d = int(d)
        if abs(d) >= n:
            return None
        dst.append(slice(max(-d, 0), n - max(d, 0)))
        src.append(slice(max(d, 0), n + min(d, 0)))
    return tuple(dst), tuple(src)


def lattice_flat(grid, k):
    """Flat indices of node multi-indices or integer (possibly negative) offsets k (..., dim).

    Node k + delta is at ``lattice_flat(k) + lattice_flat(delta)`` when inside the array.
    """
    strides = np.array([math.prod(grid.shape[a + 1:]) for a in range(grid.dim)])
    return np.asarray(k) @ strides


def lattice_offsets(dim, reach):
    """Integer offsets with every component in [-reach, reach], row-major, shape (m, dim)."""
    return np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach


def ball_offsets(grid, r):
    """Integer offsets (m, dim), row-major, of the nodes in the open r-ball about any node.

    Decided once per grid and radius; every call returns that read-only array.
    """
    deltas = grid._stencils.get(r)
    if deltas is None:
        deltas = lattice_offsets(grid.dim, int(math.ceil(r / grid.spacing)))
        deltas = deltas[_inside(np.sum((deltas * grid.spacing) ** 2, axis=1), r)]
        deltas.flags.writeable = False
        grid._stencils[r] = deltas
    return deltas


def eroded_mask(grid, r):
    """Nodes whose open r-ball stays inside the domain: ``ball_in_domain`` at every node.

    Decided once per grid and radius; every call returns that read-only array.
    """
    ok = grid._eroded.get(r)
    if ok is None:
        ok = _erode(grid, r)
        ok.flags.writeable = False
        grid._eroded[r] = ok
    return ok


def _erode(grid, r):
    """``eroded_mask(grid, r)`` computed afresh."""
    ok = grid.mask.copy()
    for a in range(grid.dim):
        coord = grid.axis_coords(a)
        sel = (coord - r >= grid.bbox_lo[a] - ATOL) & (coord + r <= grid.bbox_hi[a] + ATOL)
        shape = [1] * grid.dim
        shape[a] = coord.size
        ok &= sel.reshape(shape)
    # Without holes in the mask the box test decides every node.
    if not ok.any() or grid.mask.all():
        return ok
    # The stencil is a stack of rows along the last axis, each [-k, k]
    # behind a fixed prefix. run[k][x] says the 2k + 1 nodes centred on x
    # along that axis are all masked in (one cumulative sum of ~mask); a
    # node keeps its ball when run[k] holds at x + prefix for every row.
    # Every node the box test keeps has its whole stencil inside the array,
    # so only the overlap slices need ANDing, and windows that leave the
    # array can read False.
    deltas = ball_offsets(grid, r)
    ends = np.append(np.any(deltas[1:, :-1] != deltas[:-1, :-1], axis=1), True)
    rows = deltas[ends]
    n = grid.shape[-1]
    holes = np.zeros(grid.shape[:-1] + (n + 1,), dtype=np.intp)
    np.cumsum(~grid.mask, axis=-1, out=holes[..., 1:])
    run = {}
    for k in distinct(rows[:, -1]):
        run[k] = np.zeros(grid.shape, dtype=bool)
        run[k][..., k:n - k] = holes[..., 2 * k + 1:] == holes[..., :n - 2 * k]
    for row in rows.tolist():
        dst, src = _shift_slices(row[:-1] + [0], grid.shape)
        ok[dst] &= run[row[-1]][src]
    return ok


def gradient_fd(field):
    """Finite-difference gradient, one SampledField per axis.

    Central differences wherever both axis neighbors are masked-in,
    one-sided at the domain boundary. Exact for affine data.
    """
    grid = field.grid
    h = grid.spacing
    out = []
    for axis, unit in enumerate(np.eye(grid.dim, dtype=int)):
        vp, okp = shifted(field.values, unit), shifted(grid.mask, unit)
        vm, okm = shifted(field.values, -unit), shifted(grid.mask, -unit)
        lonely = grid.mask & ~okp & ~okm
        if lonely.any():
            where = np.argwhere(lonely)[0]
            raise IsolatedNode(
                f"masked-in node {tuple(int(i) for i in where)} has no "
                f"masked-in neighbor along axis {axis}"
            )
        d = np.zeros_like(field.values)
        central = grid.mask & okp & okm
        fwd = grid.mask & okp & ~okm
        bwd = grid.mask & ~okp & okm
        d[central] = (vp[central] - vm[central]) / (2.0 * h)
        d[fwd] = (vp[fwd] - field.values[fwd]) / h
        d[bwd] = (field.values[bwd] - vm[bwd]) / h
        out.append(SampledField(grid, d, FieldKind.FUNCTION))
    return out


def gradient_magnitude(field):
    """Euclidean norm of the finite-difference gradient as a field."""
    parts = gradient_fd(field)
    sq = np.zeros(field.grid.shape)
    for part in parts:
        sq += part.values**2
    return SampledField(field.grid, np.sqrt(sq), FieldKind.FUNCTION)


# ---------------------------------------------------------------------------
# Grid file format (line-oriented text, row-major node order)
# ---------------------------------------------------------------------------

def write_field(path, field):
    """Write a grid + field in the line-oriented text format.

    Layout: ``dim``, ``shape``, ``origin``, ``spacing``, ``count`` header
    lines, then one ``<mask> <value>`` line per node in row-major order.
    Values use full round-trip decimal.
    """
    grid = field.grid
    lines = [
        f"dim {grid.dim}",
        "shape " + " ".join(str(s) for s in grid.shape),
        "origin " + " ".join(repr(float(o)) for o in grid.origin),
        f"spacing {grid.spacing!r}",
        f"count {grid.n_nodes}",
    ]
    flat_mask = grid.mask.reshape(-1)
    flat_vals = field.values.reshape(-1)
    for m, v in zip(flat_mask, flat_vals):
        lines.append(f"{int(m)} {float(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _expect(parts, key, line_no):
    if not parts or parts[0] != key:
        raise BadShape(f"grid file line {line_no}: expected '{key} ...'")
    return parts[1:]


def read_grid(path):
    """Read the text format back; returns (grid, values array)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 5:
        raise BadShape("grid file too short")
    dim = int(_expect(lines[0].split(), "dim", 1)[0])
    shape = tuple(int(s) for s in _expect(lines[1].split(), "shape", 2))
    origin = np.array([float(x) for x in _expect(lines[2].split(), "origin", 3)])
    spacing = float(_expect(lines[3].split(), "spacing", 4)[0])
    count = int(_expect(lines[4].split(), "count", 5)[0])
    if count != int(np.prod(shape)):
        raise BadShape(f"count {count} != product of shape {shape}")
    if len(lines) != 5 + count:
        raise BadShape(f"expected {count} node lines, found {len(lines) - 5}")
    mask = np.empty(count, dtype=bool)
    values = np.empty(count, dtype=float)
    for i, ln in enumerate(lines[5:]):
        m, v = ln.split()
        mask[i] = bool(int(m))
        values[i] = float(v)
    grid = Grid(dim, origin, spacing, shape, mask.reshape(shape))
    return grid, values.reshape(shape)


def read_field(path, kind=FieldKind.FUNCTION):
    grid, values = read_grid(path)
    return SampledField(grid, values, kind)
