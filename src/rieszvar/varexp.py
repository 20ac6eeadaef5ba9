"""Variable-exponent machinery: Luxemburg norms, sequence norms, and RBV^{p(.)}.

The Luxemburg norm of f is the infimal lambda with modular(f/lambda) <= 1;
every norm here is a bisection on that monotone modular, run over the rows
of an equal-size block (or one row) in two phases: Newton points narrow a
certified bracket of each root, then a replay of the bisection evaluates
only the steps within a rounding margin of it. The variable-exponent
variation seminorm reuses the constant-exponent packing optimizer as a
proposal generator and evaluates the exact Luxemburg value on each proposed
disjoint family, so reported values are lower bounds. Proposed balls are
gathered as centre plus stencil, other families by ``grid.ball_nodes``.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BadParams, EmptyRegion, PreconditionError
from .grid import (
    FieldKind,
    SampledField,
    ball_nodes,
    ball_offsets,
    gradient_magnitude,
    lattice_flat,
    lattice_offsets,
    region_members,
    shifted,
    size_blocks,
)
from .report import row
from .riesz import PackingSolution, candidate_balls, make_scores, measure_balls, pack

# Relative bisection tolerance of every Luxemburg norm unless a caller sets one.
TOL = 1e-10


@dataclass(frozen=True)
class LHDiagnostics:
    c0_estimate: float
    c_infinity_estimate: float
    p_infinity_used: float


def lh_constants(pfun, p_infinity=None):
    """Log-Hölder constants of the exponent.

    c0 is the supremum of |p(x)-p(y)| * (-log|x-y|) over node pairs with
    0 < |x-y| < 1/2, exact: one shifted-array pass per lattice offset delta
    (lexicographically positive: each pair once) takes max |p(x+delta) - p(x)|.
    Offsets go by distance, and one whose bound (p_+ - p_-) * (-log|delta|)
    is at most the running c0 is skipped: a rounded gap never exceeds the
    rounded p_+ - p_-, so it could not raise c0.
    c_infinity maximizes |p(x)-p_inf| * log(e+|x|), with p_inf supplied or
    taken at the node of maximal |x|.
    """
    grid = pfun.grid
    pv = pfun.values[grid.mask]
    radial = np.linalg.norm(grid.node_coordinate(np.flatnonzero(grid.mask)), axis=1)
    p_inf = float(pv[np.argmax(radial)] if p_infinity is None else p_infinity)
    c_inf = float(np.max(np.abs(pv - p_inf) * np.log(np.e + radial)))
    deltas = lattice_offsets(grid.dim, math.ceil(0.5 / grid.spacing))
    deltas = deltas[len(deltas) // 2 + 1:]
    dist = np.sqrt(np.sum((deltas * grid.spacing) ** 2, axis=1))
    near = np.flatnonzero(dist < 0.5)
    near = near[np.argsort(dist[near], kind="stable")]
    spread = float(pv.max() - pv.min())
    p = np.where(grid.mask, pfun.values, 0.0)
    c0 = 0.0
    for delta, log_dist in zip(deltas[near], np.log(dist[near]).tolist()):
        if spread * -log_dist <= c0:
            continue
        gap = np.abs(shifted(p, delta) - p)[grid.mask & shifted(grid.mask, delta)]
        c0 = max(c0, float(gap.max(initial=0.0)) * -log_dist)
    return LHDiagnostics(c0, c_inf, p_inf)


def harmonic_mean_exponent(pfun, region=None):
    """p_E with 1/p_E the node mean of 1/p over the region."""
    member = region_members(pfun.grid, region)
    return float(1.0 / np.mean(1.0 / pfun.values[member]))


# No step of the scalar loop lies below _CUT; a computed modular of at least _ACCURATE
# obeys the error bound of _luxemburg; Newton points end with round _NEWTON_ROUNDS.
_CUT, _ACCURATE, _NEWTON_ROUNDS = 1e-300, 1e-270, 8


def _modular(av, pv, rows, lam, weight):
    """Per pair (k, lam) of ``rows`` and ``lam``: sum_j t_j * weight with the terms
    t_j = (av[k, j]/lam)^pv[k, j], and the moments sum_j t_j p_j and sum_j t_j p_j^2."""
    with np.errstate(all="ignore"):
        q = pv[rows]
        terms = (av[rows] / lam[:, None]) ** q
        rho = np.add.reduce(terms, axis=1) * weight
        terms *= q
        return rho, np.add.reduce(terms, axis=1), np.add.reduce(terms * q, axis=1)


def _modular_one(av, pv, lam, weight):
    """``_modular`` of one row at one lam, as a Python float (+inf past the float range)."""
    return _modular(av[None], pv[None], np.zeros(1, dtype=int), np.array([lam]), weight)[0].item()


def modular(f, pfun, region=None):
    """rho(f) = sum |f(x)|^{p(x)} h^n over the region (may overflow to +inf)."""
    member = region_members(f.grid, region)
    return _modular_one(np.abs(f.values[member]), pfun.values[member], 1.0, f.grid.cell_volume())


def _replay(hi, a, b, delta, seen, tol):
    """The scalar loop from ``hi`` on Python floats: (True, its result), or (False, its
    first step x in (a(1 - delta), b(1 + delta)) that has no evaluated value seen[x])."""
    lo, halving = 0.5 * hi, True
    below, above = a * (1.0 - delta), b * (1.0 + delta)
    while lo >= _CUT if halving else hi - lo > tol * hi:
        x = lo if halving else 0.5 * (lo + hi)
        if below < x < above:
            if x not in seen:
                return False, x
            ok = seen[x] <= 1.0
        else:
            ok = x >= above
        if ok:
            hi, lo = x, 0.5 * x if halving else lo
        else:
            lo, halving = x, False
    return True, 0.0 if halving else hi


def _newton_points(a, b, x, y, m, q):
    """Points inside the finite bracket [a, b]: the second-order log-log root estimate from
    x, y = log rho(x) and the t-weighted means m of p and q of p^2 at x, clamped to [a, b],
    and the geometric midpoint where that estimate falls in the outer 1% of log [a, b]."""
    la, lb = math.log(a), math.log(b)
    # log rho(x e^u) = y - m u + (q - m^2) u^2 / 2 + ...: the slope is minus the mean of p
    # and the curvature its variance.
    d = m * m - 2.0 * (q - m * m) * y
    u = 2.0 * y / (m + math.sqrt(d)) if d >= 0.0 else y / m
    lg = min(max(math.log(x) + u, la), lb)
    if la + 0.01 * (lb - la) < lg < lb - 0.01 * (lb - la):
        return [math.exp(lg)]
    # Near an end the estimate is either the root, where that end's bound is tight, or
    # a slow step towards it, as under a wide exponent range: the midpoint covers both.
    return [math.exp(lg), math.exp(0.5 * (la + lb))]


def _luxemburg(av, pv, weight, tol):
    """Per row k of the (m, s) blocks: smallest lambda with sum_j (av/lambda)^pv * weight <= 1.

    Each row takes the scalar bisection's steps: from hi = 2 max(1, rho(1))^(1/min p),
    lo = hi/2 it halves while rho(lo) <= 1 (0 once lo < 1e-300), then bisects until
    hi - lo <= tol * hi and returns hi. A row whose av vanishes (or an empty row) gets 0,
    one with rho(1) = inf gets inf, and equal rows are solved once.

    Round 1 evaluates rho(1), which sets hi, and rho(max_j av), which lies in
    [weight, s weight] and so brackets the root even where rho(1) underflows or
    overflows. Every evaluated point narrows a bracket [A, B] of the root (below).
    After each round an unfinished row replays the loop from hi (``_replay``). At the
    first step that the bracket and the values so far do not settle, it evaluates in
    the next round its safeguarded Newton points (``_newton_points``) while [A, B] is
    wider than 4e-12 relative, up to round ``_NEWTON_ROUNDS``, else that step. All rows
    share one ``_modular`` call a round. The points only decide which steps need the
    modular, so each value is a one-row call's, bit for bit.

    The margin. With rho the exact modular, rho^ the computed one and p in [p_min, p_max],
    log rho falls by p_min to p_max times log(x/y) from y up to x. So a point y with
    rho^(y) = r in [1e-270, inf) puts the root between y r^(1/p_max) and y r^(1/p_min),
    a point with any other r at y on its own side; A is the largest lower and B the
    smallest upper end. rho^ has relative error at most eps = (p_max + ceil(log2 s) + 20)
    2^-53: av/x carries one rounding, which the power raises to p_max; ``pow`` a few
    ulps; numpy's pairwise row sum of positive terms (8-way blocks of 128) at most
    ceil(log2 s) + 12; the product with ``weight`` one more; underflowed terms, 2^-1074
    each, stay far below eps r. With delta = 100 eps / p_min, log rho at x <= A(1 - delta)
    exceeds its bound by p_min delta = 100 eps, more than the error 2 eps of rho^ at y
    and at x and the few ulps of A: rho^(x) > 1. The mirror bound settles x >= B(1 +
    delta), the same kind of certificate as ``weights.estimate_rw``'s exp(1e-9 q) margin.
    """
    if not tol > 0:
        raise PreconditionError("tol must be positive")
    out = np.zeros(av.shape[0])
    if av.shape[1] == 0:
        return out
    same, live = [0], np.zeros(1, dtype=int)
    if av.shape[0] > 1:  # equal rows are solved once
        block, first = np.hstack([av, pv]), {}
        keys = block.view(f"V{block.itemsize * block.shape[1]}").ravel().tolist()
        same = [first.setdefault(key, k) for k, key in enumerate(keys)]
        live = np.array(list(first.values()), dtype=int)
    live = live[av[live].any(axis=1)]
    if live.size < av.shape[0]:
        av, pv = av[live], pv[live]
    eps = (math.ceil(math.log2(av.shape[1])) + 20) * 2.0**-53
    p_lo, p_hi = np.minimum.reduce(pv, axis=1).tolist(), np.maximum.reduce(pv, axis=1).tolist()
    delta = [100.0 * (p * 2.0**-53 + eps) / q for p, q in zip(p_hi, p_lo)]
    result, state, n_round = [math.inf] * live.size, {}, 0
    todo = dict(enumerate([1.0, top] for top in np.maximum.reduce(av, axis=1).tolist()))
    while todo:
        n_round += 1
        lam = [x for points in todo.values() for x in points]
        rows = np.array([k for k, points in todo.items() for _ in points])
        vals, m1, m2 = (v.tolist() for v in _modular(av, pv, rows, np.array(lam), weight))
        stop, last, todo = 0, todo, {}
        for k, points in last.items():
            start, stop = stop, stop + len(points)
            if n_round == 1:
                hi = 2.0 * max(1.0, vals[start]) ** (1.0 / p_lo[k])  # Python floats: C library pow
                if hi == math.inf:
                    continue
                # [hi, A, B, {x: rho} evaluated, (|y|, x, y, m, q) at the x with rho nearest 1]
                state[k] = [hi, 0.0, math.inf, {}, (math.inf,)]
            hi, a, b, seen, nearest = state[k]
            for i in range(start, stop):
                x = lam[i]
                seen[x] = v = vals[i]
                if _ACCURATE <= v < math.inf:
                    lower, upper = x * v ** (1.0 / p_lo[k]), x * v ** (1.0 / p_hi[k])
                    if v > 1.0:
                        lower, upper = upper, lower
                    a, b = lower if lower > a else a, upper if upper < b else b
                    y = math.log(v)
                    if abs(y) < nearest[0]:
                        nearest = abs(y), x, y, m1[i] * weight / v, m2[i] * weight / v
                elif v > 1.0:
                    a = x if x > a else a
                elif x < b:
                    b = x
            state[k][1:] = a, b, seen, nearest
            done, x = _replay(hi, a, b, delta[k], seen, tol)
            if done:
                result[k] = x
            elif (n_round < _NEWTON_ROUNDS and len(nearest) > 1
                  and 0.0 < a * (1.0 + 4e-12) < b < math.inf):
                todo[k] = _newton_points(a, b, *nearest[1:])
            else:
                todo[k] = [x]
    out[live] = result
    return out[same]


def _luxemburg_one(av, pv, weight, tol):
    """``_luxemburg`` of one row, as a Python float."""
    return _luxemburg(av[None], pv[None], weight, tol).tolist()[0]


def luxemburg_norm(f, pfun, region=None, tol=TOL):
    """Luxemburg norm: inf { lambda > 0 : modular(f/lambda) <= 1 }."""
    member = region_members(f.grid, region)
    return _luxemburg_one(np.abs(f.values[member]), pfun.values[member], f.grid.cell_volume(), tol)


def char_norm(region, pfun, tol=TOL):
    """Luxemburg norm of the indicator of a ball or cube."""
    member = region_members(pfun.grid, region)
    pv = pfun.values[member]
    return _luxemburg_one(np.ones(pv.size), pv, pfun.grid.cell_volume(), tol)


@dataclass(frozen=True)
class VariableSequence:
    """Finite element of the variable-exponent sequence space."""

    values: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        exponents = np.asarray(self.exponents, dtype=float)
        if values.shape != exponents.shape or values.ndim != 1:
            raise BadParams("sequence values and exponents must be equal-length 1D")
        if not np.all(np.isfinite(values)):
            raise BadParams("sequence entries must be finite")
        if np.any(exponents < 1.0) or not np.all(np.isfinite(exponents)):
            raise BadParams("sequence exponents must satisfy 1 <= p < infinity")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "exponents", exponents)


def seq_norm(sequence, tol=TOL):
    """Luxemburg norm on the sequence space: inf { l : sum (|t_k|/l)^{p_k} <= 1 }."""
    return _luxemburg_one(np.abs(sequence.values), sequence.exponents, 1.0, tol)


def _gather(f, collection):
    """Per ball: its masked-in flat nodes (``ball_nodes``) and osc_B(f)/r_B, 0.0 if none."""
    balls = list(collection)
    nodes = ball_nodes(f.grid, np.array([b.center for b in balls]).reshape(-1, f.grid.dim),
                       [b.radius for b in balls])
    fv = f.values.reshape(-1)
    a = [float((fv[idx].max() - fv[idx].min()) / b.radius) if idx.size else 0.0
         for idx, b in zip(nodes, balls)]
    return tuple(nodes), np.array(a)


def g_operator(f, collection):
    """G_D f = sum over balls of (osc_B(f)/r) * indicator(B), 0 elsewhere.

    ``collection`` is a ball family or the PackingTerms of f, whose
    gathered nodes and osc/r are reused.
    """
    if isinstance(collection, PackingTerms) and collection.f is f:
        nodes, a = collection.nodes, collection.a
    else:
        nodes, a = _gather(f, collection)
    out = np.zeros(f.grid.n_nodes)
    for idx, value in zip(nodes, a.tolist()):
        out[idx] = value
    return SampledField(f.grid, out.reshape(f.grid.shape), FieldKind.FUNCTION)


@dataclass(frozen=True, eq=False)
class PackingTerms:
    """A disjoint ball family with its variable-exponent terms for f and pfun.

    Per ball k: ``nodes[k]`` are its masked-in flat node indices, ``a[k]``
    is osc_B(f)/r_B, ``p_ball[k]`` the harmonic-mean exponent and
    ``char[k]`` the indicator norm; ``norm`` is the Luxemburg value of the
    variation modular. ``family`` is the BallCollection, or the
    PackingSolution that packed it, whose balls ``collection`` builds on
    first access. It iterates over its balls like ``collection``.
    """

    family: object
    f: SampledField
    pfun: SampledField
    nodes: tuple
    a: np.ndarray
    p_ball: np.ndarray
    char: np.ndarray
    norm: float

    @cached_property
    def collection(self):
        return self.family.collection if isinstance(self.family, PackingSolution) else self.family

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.collection)


def packing_terms(f, collection, pfun):
    """The PackingTerms of a disjoint family, from one gather per ball.

    A ball that holds no masked-in node raises EmptyRegion.
    """
    return _packing_terms(f, pfun, [(collection, *_gather(f, collection))])[0]


def _packing_terms(f, pfun, families):
    """PackingTerms per (family, nodes, a) from ``_gather``; p_B and char per ball size."""
    nodes = [idx for _, ball_nodes, _ in families for idx in ball_nodes]
    if any(not idx.size for idx in nodes):
        raise EmptyRegion("packing ball contains no masked-in node")
    pflat = pfun.values.reshape(-1)
    p_ball = np.empty(len(nodes))
    char = np.empty(len(nodes))
    vol = f.grid.cell_volume()
    for positions, block in size_blocks(nodes):
        pv = pflat[block]
        p_ball[positions] = 1.0 / np.mean(1.0 / pv, axis=1)
        char[positions] = _luxemburg(np.ones(pv.shape), pv, vol, TOL)
    terms = []
    start = 0
    for family, ball_nodes, a in families:
        k = slice(start, start + len(ball_nodes))
        start = k.stop
        norm = seq_norm(VariableSequence(a * char[k], p_ball[k]))
        terms.append(PackingTerms(family, f, pfun, ball_nodes, a, p_ball[k], char[k], norm))
    return terms


def _terms(f, collection, pfun):
    """``collection`` itself when it is the PackingTerms of f and pfun, else its PackingTerms."""
    if isinstance(collection, PackingTerms) and collection.f is f and collection.pfun is pfun:
        return collection
    return packing_terms(f, collection, pfun)


def rbv_var_modular(f, collection, pfun, lam):
    """Variable-exponent variation modular of f/lam on a disjoint family.

    sum over balls of ((osc/r) ||indicator||_{p(.)} / lam)^{p_B}, p_B the harmonic mean
    exponent: the modular the family's ``norm`` bisects; nonincreasing in lam.
    """
    if not lam > 0:
        raise PreconditionError("lambda must be positive")
    t = _terms(f, collection, pfun)
    return _modular_one(t.a * t.char, t.p_ball, lam, 1.0)


def rbv_collection_norm(f, collection, pfun):
    """Luxemburg value of the variation modular on one disjoint family (any balls)."""
    return _terms(f, collection, pfun).norm


def explore_packings(f, pfun, radii_list, method="auto"):
    """Candidate disjoint families for the variable-exponent supremum, as PackingTerms.

    Proposals come from the constant-exponent optimizer at p_minus; see
    ``packing_proposals``.
    """
    candidates = candidate_balls(f.grid, radii_list)
    lebesgue = SampledField(f.grid, np.ones(f.grid.shape), FieldKind.WEIGHT)
    osc, _ = measure_balls(f, lebesgue, candidates)
    return packing_proposals(f, pfun, candidates, osc, method)


def packing_proposals(f, pfun, candidates, osc, method):
    """PackingTerms of the packings of f over the CandidateSet at p_minus, Lebesgue weight.

    ``osc`` holds the oscillation of f on each candidate, as
    ``measure_balls`` returns it under any weight. One packing over the
    full candidate set plus one per single radius, each by
    ``riesz.pack``. A radius's packing is that of the scoring with every
    other radius's scores set to 0, which no packer takes: the packing of
    the radius's subset on full-set indices, with the set's conflict
    rows. Deduplicated on the selected candidate indices, order
    preserved. Candidates pass the rule of ``CandidateSet.lattice_keys``,
    so a packed ball's nodes are its centre node plus the ``ball_offsets``
    stencil, its Lebesgue mass is the stencil size times the cell volume
    (a sum of ones is exact) and its osc/r is read off the scores.
    """
    grid = f.grid
    p = pfun.p_minus
    centres, which, radii = candidates.lattice_keys(grid)
    stencils = [lattice_flat(grid, ball_offsets(grid, r)) for r in radii]
    mass = np.array([s.size for s in stencils], dtype=float)[which] * grid.cell_volume()
    scored = make_scores(candidates, osc, mass, p)
    a = scored.oscillation / scored.radii
    families, seen = [], set()
    proposals = [scored] + [replace(scored, score=np.where(which == b, scored.score, 0.0))
                            for b in range(len(radii))]
    for sol in (pack(proposal, p, method) for proposal in proposals):
        key = sol.indices
        if key and key not in seen:
            seen.add(key)
            nodes = tuple(centres[i] + stencils[which[i]] for i in key)
            families.append((sol, nodes, a[list(key)]))
    return _packing_terms(f, pfun, families)


def rbv_var_seminorm(f, pfun, radii_list, method="auto"):
    """Lower bound of the RBV^{p(.)} seminorm: max Luxemburg value over proposals."""
    return max((t.norm for t in explore_packings(f, pfun, radii_list, method)), default=0.0)


def gd_equivalence_check(f, pfun, packings, c_eq=4.0):
    """Ratio of ||G_D f||_{p(.)} to the RBV_D^{p(.)} norm per packing.

    ``packings`` are ball families or their PackingTerms for f and pfun,
    for example ``explore_packings(f, pfun, radii)``, whose terms are
    reused. Reports one info row per packing and min/max summary rows;
    passes when every ratio lies in [1/c_eq, c_eq]. Packings on which f
    is constant contribute skipped info rows (both sides vanish).
    """
    families = [_terms(f, collection, pfun) for collection in packings]
    if not families:
        return []
    # Every G_D f norm is over the whole mask: one block, one row per packing.
    mask = f.grid.mask
    g = np.stack([np.abs(g_operator(f, t).values[mask]) for t in families])
    gvals = _luxemburg(g, np.broadcast_to(pfun.values[mask], g.shape),
                       f.grid.cell_volume(), TOL).tolist()
    rows = []
    ratios = []
    for k, (terms, gval) in enumerate(zip(families, gvals)):
        params = dict(packing=k, n_balls=len(terms))
        if terms.norm == 0.0 and gval == 0.0:
            rows.append(row("gd_equivalence", "ratio_skipped", math.nan, c_eq, **params))
            continue
        ratio = gval / terms.norm
        ratios.append(ratio)
        rows.append(row("gd_equivalence", "ratio", ratio, c_eq, **params))
    if ratios:
        ok = min(ratios) >= 1.0 / c_eq and max(ratios) <= c_eq
        rows += [row("gd_equivalence", "ratio_min", min(ratios), c_eq, ok, n_packings=len(ratios)),
                 row("gd_equivalence", "ratio_max", max(ratios), c_eq, ok, n_packings=len(ratios))]
    return rows


def varexp_sobolev_equivalence(f, pfun, packings, c_thm=16.0):
    """Theorem-level ratio: RBV^{p(.)} seminorm over the gradient Luxemburg norm.

    The seminorm is the largest Luxemburg value over ``packings``, taken
    as in ``gd_equivalence_check``.
    """
    n = f.grid.dim
    if not pfun.p_minus > n:
        raise PreconditionError(
            f"variable-exponent equivalence needs p_minus > n, got {pfun.p_minus}"
        )
    rbv = max((rbv_collection_norm(f, c, pfun) for c in packings), default=0.0)
    gnorm = luxemburg_norm(gradient_magnitude(f), pfun)
    params = dict(p_minus=pfun.p_minus, p_plus=pfun.p_plus)
    if rbv == 0.0 and gnorm == 0.0:
        return [row("varexp_sobolev", "ratio_skipped", math.nan, c_thm, **params)]
    ratio = rbv / gnorm if gnorm > 0 else float("inf")
    ok = math.isfinite(ratio) and 1.0 / c_thm <= ratio <= c_thm
    return [
        row("varexp_sobolev", "rbv_seminorm", rbv, c_thm, **params),
        row("varexp_sobolev", "grad_luxemburg", gnorm, c_thm, **params),
        row("varexp_sobolev", "ratio", ratio, c_thm, ok, **params),
    ]
