"""Weighted L^p and W^{1,p} norms, mollification, and the Morrey-type check."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateGradient,
    EmptyRegion,
    ErodedEmpty,
    PreconditionError,
    WeightOverflow,
)
from .grid import (
    Ball,
    FieldKind,
    SampledField,
    ball_nodes,
    ball_offsets,
    eroded_mask,
    gradient_magnitude,
    region_members,
    shifted,
)
from .report import row


def weighted_lp_norm(f, w, p, region=None):
    """(sum |f|^p w h^n)^{1/p} over masked nodes in the region."""
    if p < 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    if w.kind != FieldKind.WEIGHT:
        raise PreconditionError("weighted_lp_norm requires a weight field")
    member = region_members(f.grid, region)
    vol = f.grid.cell_volume()
    with np.errstate(over="ignore"):
        s = float(np.sum(np.abs(f.values[member]) ** p * w.values[member]) * vol)
    if s == math.inf:
        raise WeightOverflow("the weighted L^p sum overflows the float range")
    return s ** (1.0 / p)


def sobolev_norm(f, w, p):
    """||f||_{L^p(w)} + || |grad f| ||_{L^p(w)} with the finite-difference gradient."""
    return weighted_lp_norm(f, w, p) + weighted_lp_norm(gradient_magnitude(f), w, p)


@dataclass(frozen=True)
class Mollifier:
    """Smooth radial bump at scale R, discretely normalized to unit mass.

    The profile is the standard exp(-1/(1-|x|^2)) bump; on a grid the
    kernel weights are renormalized so their node sum times h^n is
    exactly 1, which preserves constants to rounding.
    """

    R: float

    def __post_init__(self):
        if not (self.R > 0 and math.isfinite(self.R)):
            raise PreconditionError(f"mollifier scale must be positive, got {self.R}")

    def kernel(self, grid):
        """Integer offsets and normalized quadrature weights on the grid."""
        deltas = ball_offsets(grid, self.R)
        u_sq = np.sum((deltas * grid.spacing) ** 2, axis=1) / self.R**2
        weights = np.exp(-1.0 / (1.0 - u_sq))
        total = weights.sum() * grid.cell_volume()
        if total <= 0:
            raise PreconditionError("mollifier support contains no node")
        weights = weights / total
        return deltas, weights

    def mass(self, grid):
        _, weights = self.kernel(grid)
        return float(weights.sum() * grid.cell_volume())


def mollify(f, R):
    """Convolve with the scale-R bump on the eroded domain.

    Returns a field on a grid whose mask is the eroded domain; constants
    and affine functions are preserved to rounding (the discrete kernel
    has unit mass and symmetric offsets).
    """
    grid = f.grid
    if R < 2.0 * grid.spacing:
        raise PreconditionError(f"R must be >= 2h = {2 * grid.spacing}, got {R}")
    eroded = eroded_mask(grid, R)
    if not eroded.any():
        raise ErodedEmpty("no node keeps its mollification ball inside the domain")
    deltas, weights = Mollifier(R).kernel(grid)
    vol = grid.cell_volume()
    out = np.zeros(grid.shape)
    for delta, wgt in zip(deltas, weights):
        out += wgt * vol * shifted(f.values, delta)
    out[~eroded] = 0.0
    eroded_grid = replace(grid, mask=eroded)
    return SampledField(eroded_grid, out, FieldKind.FUNCTION)


def choose_morrey_q(p, n, rw):
    """Midpoint choice: 1 + delta halfway across (n, p/rw), q = p/(1+delta)."""
    if p <= n * rw:
        raise PreconditionError(f"Morrey check needs p > n * rw, got p={p}, n*rw={n * rw}")
    one_plus_delta = 0.5 * (n + p / rw)
    return p / one_plus_delta


def morrey_check(f, w, p, region_pairs, q=None, rw=1.0, pair_budget=2000, seed=0):
    """Empirical constant of the pointwise Morrey-type estimate.

    For sampled node pairs (y, z) inside each ball B(x0, R), reports
    C_hat = max |f(z) - f(y)| / (|z - y|^{1 - n q / p}
    sigma(B_{2R})^{(q-1)/p} ||grad f||_{L^p(B_R, w)}) with
    sigma = w^{1/(1-q)}. One info row per region plus a summary row.
    """
    grid = f.grid
    n = grid.dim
    if q is None:
        q = choose_morrey_q(p, n, rw)
    if not (1.0 < q and n * q < p):
        raise PreconditionError(f"need 1 < q and n*q < p, got q={q}, p={p}")
    if np.any(w.values[grid.mask] <= 0):
        raise PreconditionError("Morrey check requires w > 0 on the domain")
    rng = np.random.Generator(np.random.Philox(seed))
    grad_mag = gradient_magnitude(f)
    rows = []
    worst = 0.0
    for x0, R in region_pairs:
        ball = Ball(np.atleast_1d(np.asarray(x0, dtype=float)), float(R))
        idx, double = ball_nodes(grid, np.stack([ball.center] * 2), [ball.radius, 2 * ball.radius])
        if idx.size < 2:
            raise EmptyRegion("Morrey ball holds fewer than two nodes")
        grad_norm = weighted_lp_norm(grad_mag, w, p, region=ball)
        if grad_norm == 0.0:
            inner_vals = f.values.reshape(-1)[idx]
            if inner_vals.max() - inner_vals.min() > 0:
                raise DegenerateGradient(
                    "gradient norm vanished on a ball with nonconstant samples"
                )
            rows.append(row("morrey", "C_hat", 0.0, center=tuple(ball.center), R=R))
            continue
        sigma = w.values.ravel()[double] ** (1.0 / (1.0 - q))
        sigma_mass = float(sigma.sum() * grid.cell_volume())
        denom_const = sigma_mass ** ((q - 1.0) / p) * grad_norm
        n_pairs = min(pair_budget, idx.size * (idx.size - 1) // 2)
        ia = rng.integers(0, idx.size, size=n_pairs)
        ib = rng.integers(0, idx.size, size=n_pairs)
        keep = ia != ib
        ia, ib = idx[ia[keep]], idx[ib[keep]]
        fv = f.values.reshape(-1)
        dist = np.linalg.norm(grid.node_coordinate(ia) - grid.node_coordinate(ib), axis=1)
        num = np.abs(fv[ia] - fv[ib])
        exponent = 1.0 - n * q / p
        ratios = num / (dist**exponent * denom_const)
        c_hat = float(ratios.max()) if ratios.size else 0.0
        worst = max(worst, c_hat)
        rows.append(row("morrey", "C_hat", c_hat, center=tuple(ball.center), R=R, q=q))
    rows.append(row("morrey", "max_C_hat", worst, ok=math.isfinite(worst),
                    p=float(p), q=float(q)))
    return rows


def mollify_gradient_bound(f, w, p, scales, variation_total_pow):
    """Ratio ||D_j(phi_R * f)||_{L^p(eroded, w)} / V_p over mollifier scales.

    Returns the list of (R, ratio) pairs; bounded ratios across a dyadic
    range of R are the discrete trace of the proof's uniform estimate.
    """
    vp = variation_total_pow ** (1.0 / p) if variation_total_pow > 0 else 0.0
    out = []
    for R in scales:
        smooth = mollify(f, R)
        w_eroded = SampledField(smooth.grid, w.values, FieldKind.WEIGHT)
        grad_norm = weighted_lp_norm(gradient_magnitude(smooth), w_eroded, p)
        ratio = grad_norm / vp if vp > 0 else (0.0 if grad_norm == 0 else float("inf"))
        out.append((float(R), float(ratio)))
    return out
