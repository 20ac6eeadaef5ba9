"""Uniform-grid domains, sampled fields, and quadrature primitives.

A domain is a box of uniformly spaced nodes together with a boolean mask
selecting which nodes belong to it. Functions and weights are arrays of
node values on such a grid. Balls are open: node k + d lies in B(c, r) when
``|h d - (c - x_k)| < r - ATOL``, x_k the node nearest c (``ball_nodes``).
No node coordinate is subtracted from c, so membership does not move with
the ball's position through rounding, and every node-centred ball holds
the same stencil (``ball_offsets``). Cubes are closed and axis-parallel, and all
integrals are plain node sums times ``h**dim``. These conventions are
shared by every other module, so they live here.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    BadParams,
    BadShape,
    EmptyDomain,
    EmptyRegion,
    IsolatedNode,
    PreconditionError,
    WeightOverflow,
)

# Absolute slack for containment / disjointness comparisons on node
# coordinates. Domains are O(1) boxes, so this is far below the spacing
# of any usable grid while absorbing decimal-float noise like
# 0.95 + 0.05 = 1.0000000000000002.
ATOL = 1e-9


class FieldKind(Enum):
    FUNCTION = "function"
    WEIGHT = "weight"
    EXPONENT = "exponent"


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

    ``kind`` distinguishes plain functions, weights and variable exponents
    p(.); wherever the mask is on, weights must be nonnegative and exponents
    at least 1. Values at masked-out nodes are carried but never read by any
    operation.
    """

    grid: Grid
    values: np.ndarray
    kind: FieldKind = FieldKind.FUNCTION

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise BadShape(f"values shape {values.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", values)
        masked = values[self.grid.mask]
        if not np.all(np.isfinite(masked)):
            raise BadShape("field has non-finite values at masked-in nodes")
        if self.kind == FieldKind.WEIGHT and np.any(masked < 0):
            raise BadShape("weight has negative values at masked-in nodes")
        if self.kind == FieldKind.EXPONENT and np.any(masked < 1.0):
            raise BadParams("exponent must satisfy 1 <= p(x) < infinity on the mask")

    @property
    def p_minus(self):
        """Least value over the mask: an exponent's p_-."""
        return float(self.values[self.grid.mask].min())

    @property
    def p_plus(self):
        """Greatest value over the mask: an exponent's p_+."""
        return float(self.values[self.grid.mask].max())


@dataclass(frozen=True)
class Ball:
    """Open ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        if not np.isfinite(center).all():
            raise BadShape(f"ball center must be finite, got {center}")
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
        if not np.isfinite(corner).all():
            raise BadShape(f"cube corner must be finite, got {corner}")
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
        raise BadShape(f"domain predicate returned shape {mask.shape}, expected {probe.shape}")
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


def region_mask(grid, region=None):
    """Boolean node membership of a region intersected with the domain mask.

    ``region`` is None (whole domain), a Ball (open), or a Cube (closed).
    """
    if region is None:
        return grid.mask.copy()
    if isinstance(region, Ball):
        nodes = ball_nodes(grid, region.center[None], [region.radius])
    elif isinstance(region, Cube):
        nodes = cube_nodes(grid, region.corner[None], np.array([region.side]))
    else:
        raise TypeError(f"unsupported region type {type(region)!r}")
    out = np.zeros(grid.n_nodes, dtype=bool)
    out[nodes[0]] = True
    return out.reshape(grid.shape)


def region_members(grid, region=None):
    """``region_mask(grid, region)``; EmptyRegion when it holds no node."""
    member = region_mask(grid, region)
    if not member.any():
        raise EmptyRegion("no masked-in node lies in the region")
    return member


def node_set(grid, ball):
    """Flat indices of the ball's masked-in nodes (``ball_nodes``), row-major; may be empty."""
    return ball_nodes(grid, ball.center[None], [ball.radius])[0]


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


def box_fits(lo, hi, a, b, tol=ATOL):
    """The box rule, elementwise: ``[a, b]`` lies in ``[lo, hi]`` within ``tol``; NaN fails."""
    return (a >= lo - tol) & (b <= hi + tol)


def cube_tol(side):
    """The slack ``ATOL * max(1, side)`` of a cube's closed faces."""
    return ATOL * np.maximum(1.0, side)


def cube_nodes(grid, corners, sides):
    """Per cube (corners (m, dim), sides (m,)), the flat row-major indices of its masked-in nodes.

    The cube rule: along each axis it holds the nodes with ``corner - tol <= x <= corner + side
    + tol`` (``cube_tol``), an index range; equal counts form one base + offsets block, then masked.
    """
    sides = sides[:, None]
    tol = cube_tol(sides)
    coords = [grid.axis_coords(a) for a in range(grid.dim)]
    first = np.stack([np.searchsorted(x, lo) for x, lo in zip(coords, (corners - tol).T)], 1)
    count = np.stack([np.searchsorted(x, hi, side="right") for x, hi in
                      zip(coords, (corners + sides + tol).T)], 1) - first
    mask = grid.mask.reshape(-1)
    nodes = [np.empty(0, dtype=np.intp)] * len(corners)
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


def ball_in_domain(grid, ball):
    """Ball containment: bbox in the grid bbox and every node of the ball masked in (node-based,
    an approximation for implicit masks)."""
    c, r = ball.center, ball.radius
    idx = _ball_lattice(grid, c[None], [r])[0]  # first, for its check of the centre's shape
    return bool(np.all(box_fits(grid.bbox_lo, grid.bbox_hi, c - r, c + r))
                and grid.mask.ravel()[idx].all())


def riemann_integral(field, region=None):
    """Node-sum quadrature: sum of masked values in the region times h^dim."""
    member = region_members(field.grid, region)
    return float(field.values[member].sum() * field.grid.cell_volume())


def weight_integral(weight, member, what):
    """Node-sum quadrature of a weight over ``member`` (boolean nodes or flat indices), a float.

    A sum past the float range raises WeightOverflow naming ``what``.
    """
    with np.errstate(over="ignore"):
        total = float(weight.values.ravel()[member.ravel()].sum() * weight.grid.cell_volume())
    if total == math.inf:
        raise WeightOverflow(f"{what} overflows the float range")
    return total


def weighted_measure(weight, region=None):
    """w(E) = integral of the weight over the region."""
    if weight.kind != FieldKind.WEIGHT:
        raise BadShape("weighted_measure requires a field of kind weight")
    return weight_integral(weight, region_members(weight.grid, region), "the weight of a region")


def oscillation(field, region=None):
    """osc_E(f) = max - min of the sampled values over the region."""
    member = region_members(field.grid, region)
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


def node_indices(grid, centers):
    """Node multi-indices (n, dim) of ``centers``, or None unless each is a grid node within ATOL."""
    # Non-finite centres and centres off the box fail before the integer cast.
    if not np.all(box_fits(grid.bbox_lo, grid.bbox_hi, centers, centers)):
        return None
    k = np.rint((centers - grid.origin) / grid.spacing).astype(int)
    on_node = np.abs(grid.origin + grid.spacing * k - centers) <= ATOL
    return k if np.all(on_node & (k >= 0) & (k < grid.shape)) else None


def lattice_flat(grid, k):
    """Flat indices of node multi-indices or integer (possibly negative) offsets k (..., dim).

    Node k + delta is at ``lattice_flat(k) + lattice_flat(delta)`` when inside the array.
    """
    strides = np.array([math.prod(grid.shape[a + 1:]) for a in range(grid.dim)])
    return np.asarray(k) @ strides


def lattice_offsets(dim, reach):
    """Integer offsets with every component in [-reach, reach], row-major, shape (m, dim)."""
    return np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach


def _ball_stencil(grid, r, off):
    """The ball rule: offsets d (m, dim), row-major, with ``|h d - off| < r - ATOL``; the
    reach is capped at the longest axis, since a longer offset joins no two nodes."""
    reach = math.ceil(min(float(r + np.abs(off).sum()) / grid.spacing, max(grid.shape) - 1))
    deltas = lattice_offsets(grid.dim, reach)
    return deltas[np.sqrt(np.sum((deltas * grid.spacing - off) ** 2, axis=1)) < r - ATOL]


def ball_offsets(grid, r):
    """Integer offsets (m, dim), row-major, of the nodes in the open r-ball about any node.

    Offset 0 of the ball rule, decided once per grid and radius; returns that read-only array.
    """
    deltas = grid._stencils.get(r)
    if deltas is None:
        deltas = _ball_stencil(grid, r, np.zeros(grid.dim))
        deltas.flags.writeable = False
        grid._stencils[r] = deltas
    return deltas


def ball_nodes(grid, centers, radii):
    """Per ball (centers (m, dim), radii (m,)): its masked-in nodes' flat indices, row-major."""
    return [idx[grid.mask.ravel()[idx]] for idx in _ball_lattice(grid, centers, radii)]


def _ball_lattice(grid, centers, radii):
    """Per ball, its nodes in the array, masked in or not: the ball rule (``_ball_stencil``)
    about the node x_k nearest its centre c, one stencil per (r, c - x_k), ``ball_offsets`` at
    offset 0. A ball that misses the bounding box holds no node and is never cast to int."""
    radii = np.asarray(radii, dtype=float)
    if centers.shape != (len(radii), grid.dim):
        raise BadShape(f"ball centres have shape {centers.shape}, not ({len(radii)}, {grid.dim})")
    nodes = [np.empty(0, dtype=np.intp)] * len(radii)
    live = np.flatnonzero(box_fits(grid.bbox_lo - radii[:, None], grid.bbox_hi + radii[:, None],
                                   centers, centers).all(axis=1))
    top = np.array(grid.shape) - 1
    k = np.clip(np.rint((centers[live] - grid.origin) / grid.spacing), 0, top).astype(int)
    off = centers[live] - (grid.origin + grid.spacing * k)
    groups = {}
    for i, key in enumerate(zip(radii[live].tolist(), map(tuple, off.tolist()))):
        groups.setdefault(key, []).append(i)
    for (r, o), members in groups.items():
        deltas = _ball_stencil(grid, r, np.array(o)) if any(o) else ball_offsets(grid, r)
        # At most about 2^16 ball nodes per pass, which bounds the temporary arrays.
        for part in np.array_split(members, 1 + (len(members) * len(deltas) >> 16)):
            pos = k[part][:, None] + deltas
            inside = ((pos >= 0) & (pos <= top)).all(axis=2)
            for i, row, keep in zip(live[part].tolist(), lattice_flat(grid, pos), inside):
                nodes[i] = row[keep]
    return nodes


def eroded_mask(grid, r):
    """Nodes whose open r-ball stays inside the domain: ``ball_in_domain`` at every node.

    A node keeps its ball when the ball lies in the bounding box and, on a
    mask with holes, every node of its ``ball_offsets`` stencil is masked
    in. The stencil is built only when some node passes the box test, so a
    radius too large for the domain keeps no node and allocates nothing.
    Decided once per grid and radius; every call returns that read-only
    array.
    """
    ok = grid._eroded.get(r)
    if ok is None:
        ok = grid.mask.copy()
        for a in range(grid.dim):
            coord = grid.axis_coords(a)
            sel = box_fits(grid.bbox_lo[a], grid.bbox_hi[a], coord - r, coord + r)
            ok &= sel.reshape([-1 if b == a else 1 for b in range(grid.dim)])
        if ok.any() and not ball_offsets(grid, r).size:
            raise PreconditionError("candidate ball contains no masked-in node")
        # Without holes in the mask the box test decides every node. Every
        # node it keeps has its whole stencil inside the array, so ANDing the
        # mask over the stencil's overlap slices decides the rest.
        if ok.any() and not grid.mask.all():
            for delta in ball_offsets(grid, r).tolist():
                dst, src = _shift_slices(delta, grid.shape)
                ok[dst] &= grid.mask[src]
        ok.flags.writeable = False
        grid._eroded[r] = ok
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
    if len(parts) < 2 or parts[0] != key:
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
