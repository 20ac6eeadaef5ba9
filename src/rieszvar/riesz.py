"""Weighted Riesz p-variation via ball packings, plus the 1D classical form.

The supremum over countable disjoint ball families is approached from
below on a finite candidate set (grid-node centers times a radius list).
In 1D the optimum over that set is found exactly by a weighted
interval-scheduling dynamic program; in any dimension a greedy pass and
a swap-based local search give certified feasible lower bounds.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import (
    BadPartition,
    BadShape,
    NoCandidates,
    PreconditionError,
    ScoreOverflow,
    UnboundedSupport,
    WeightOverflow,
    ZeroVariation,
)
from .grid import (
    ATOL,
    Ball,
    BallCollection,
    FieldKind,
    Grid,
    SampledField,
    ball_offsets,
    balls_overlap,
    distinct,
    eroded_mask,
    lattice_flat,
    lattice_offsets,
    node_indices,
    oscillation,
    require_weight,
    shifted,
    weight_integral,
    weighted_measure,
)
from .report import row

DP_1D_EXACT = "dp_1d_exact"
GREEDY = "greedy"
GREEDY_PLUS_LOCAL_SEARCH = "greedy_plus_local_search"
METHODS = (DP_1D_EXACT, GREEDY, GREEDY_PLUS_LOCAL_SEARCH)
MAX_ITERS = 200
# Scratch budget of one numpy pass: gathered node values per block in
# 2D and 3D measure_balls, candidate pairs per chunk in local search.
_GATHER_BLOCK = 1 << 14


def _array_fields(candidates):
    """Names of the per-candidate arrays of a CandidateSet: its positional fields."""
    return [f.name for f in fields(candidates) if not f.kw_only]


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Candidate balls as arrays: centres (n, dim) and radii (n,); ``ball(i)`` builds one.

    ``grid`` is the grid whose nodes centre the candidates, as
    ``candidate_balls`` records it; ``subset`` and ``make_scores`` keep it,
    so their sets share its stencils. It is None for balls with free
    centres. ``_source`` links a scoring to the set ``make_scores`` scored,
    whose conflict rows it shares, as do its copies with other score
    arrays; ``_keys`` holds the ``lattice_keys`` by grid, which they share
    too. ``subset`` drops both, since its indices differ.
    """

    centers: np.ndarray
    radii: np.ndarray
    grid: Grid = field(default=None, kw_only=True, repr=False)
    _source: "CandidateSet" = field(default=None, kw_only=True, repr=False)
    _keys: dict = field(default_factory=dict, kw_only=True, repr=False)

    def __post_init__(self):
        names = _array_fields(self)
        for name in names:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.radii)
        if self.centers.ndim != 2 or any(getattr(self, name).shape != (n,) for name in names[1:]):
            raise BadShape("candidate centers must be (n, dim) and every other array (n,)")

    def __len__(self):
        return len(self.radii)

    def ball(self, i):
        return Ball(self.centers[i], float(self.radii[i]))

    def subset(self, index):
        """The candidates ``index`` selects (boolean mask, index array or slice), in its order."""
        return replace(self, _source=None, _keys={},
                       **{name: getattr(self, name)[index] for name in _array_fields(self)})

    def lattice_keys(self, grid):
        """``(nodes, which, radii)``: each ball's flat centre node on ``grid`` and the index
        ``which`` of its radius in ``radii``, the set's distinct radii ascending.

        Recorded by ``candidate_balls``; any other set decodes its centres once per grid
        (``grid.node_indices``). PreconditionError unless every radius is positive and
        finite and every ball node-centred and contained (``eroded_mask`` at its centre).
        """
        if grid not in self._keys:
            if not np.all((self.radii > 0) & (self.radii < math.inf)):
                raise PreconditionError("candidate radii must be positive and finite")
            k = node_indices(grid, self.centers)
            if k is None:
                raise PreconditionError("candidate balls must be node-centred")
            nodes, radii = lattice_flat(grid, k), distinct(self.radii)
            which = np.searchsorted(radii, self.radii)
            for b, r in enumerate(radii):
                if not eroded_mask(grid, r).reshape(-1)[nodes[which == b]].all():
                    raise PreconditionError("candidate balls must be contained in the domain")
            self._keys[grid] = nodes, which, radii
        return self._keys[grid]

    @cached_property
    def _conflicts(self):
        """The _ConflictRows every packer on this set and on its scorings shares (``_source``).

        A nonempty set whose balls are all node-centred and contained in its
        grid's domain, one candidate per (node, radius), takes stencil rows;
        empty sets, other balls and repeated candidates take distance rows.
        """
        if self._source is not None:
            return self._source._conflicts
        try:
            rows = _StencilRows(self) if self.grid is not None and len(self) else None
        except PreconditionError:  # a ball off the nodes or out of the domain
            rows = None
        return rows if rows is not None and rows.one_per_key else _ConflictRows(self)


@dataclass(frozen=True, eq=False)
class ScoredCandidates(CandidateSet):
    """Candidates with their oscillation, weight mass and score at one p."""

    oscillation: np.ndarray
    weight_mass: np.ndarray
    score: np.ndarray


@dataclass(frozen=True)
class PackingSolution:
    """A disjoint subset of a candidate set; ``indices`` are its positions there, ascending.

    The per-ball oscillation, weight mass and score are the arrays of the
    ScoredCandidates ``scored`` at ``indices``; ``collection`` (the balls)
    is built from them on first access. ``moves`` counts the local-search
    moves made (0 for the DP and greedy), and ``capped`` is True when the
    search stopped at its move cap before it could confirm a local optimum.
    """

    indices: tuple
    scored: ScoredCandidates = field(compare=False, repr=False)
    total: float
    variation: float
    p: float
    method: str
    moves: int = 0
    capped: bool = False

    @cached_property
    def collection(self):
        return BallCollection(tuple(self.scored.ball(i) for i in self.indices))


def candidate_balls(grid, radii_list):
    """Balls at every masked-in node center, per radius, contained in the domain.

    A CandidateSet on ``grid``, with its ``lattice_keys`` there, in
    lexicographic order: flat node index, then distinct radius ascending.
    Non-finite radii and radii below twice the spacing are rejected; a
    radius too large for the domain adds no candidate.
    """
    radii = sorted(set(float(r) for r in radii_list))
    if not radii:
        raise PreconditionError("radii_list must be nonempty")
    if not all(math.isfinite(r) for r in radii):
        raise PreconditionError(f"every radius must be finite, got {radii}")
    if not radii[0] >= 2.0 * grid.spacing:
        raise PreconditionError(f"every radius must be >= 2h = {2 * grid.spacing}, got {radii[0]}")
    fits = {r: eroded_mask(grid, r).reshape(-1) for r in radii}
    radii = [r for r, ok in fits.items() if ok.any()]
    if not radii:
        raise NoCandidates("no candidate ball fits inside the domain")
    flat, which = np.nonzero(np.stack([fits[r] for r in radii], axis=1))
    return CandidateSet(grid.node_coordinate(flat), np.array(radii)[which], grid=grid,
                        _keys={grid: (flat, which, radii)})


def measure_balls(f, w, candidates):
    """Oscillation and weight mass per candidate (independent of the exponent p).

    Every ball of the CandidateSet must be centred at a node and contained
    in the domain, as ``candidate_balls`` makes them; its nodes are then the
    ``ball_offsets`` stencil about its ``lattice_keys`` centre node. A mass
    past the float range is ``inf``, which ``make_scores`` rejects.

    In 2D and 3D each ball's stencil is gathered in row-major order, like
    ``values[member]``, and reduced with numpy's max, min and sum. In 1D a
    ball of ``L = len(ball_offsets(grid, r))`` nodes is the window of L
    nodes starting ``(L - 1) // 2`` before its centre, measured from
    doubling tables built once per call (``_window_measures``): ``osc`` is
    the max of two overlapping power-of-two windows minus the min of two,
    bit-identical to the gather. The weight's node sum adds the binary
    pieces of L (each a balanced pairwise sum over its 2^j nodes), smallest
    first, so no node passes more than d = floor(log2 L) + 1 additions.
    It equals the gather's sum bit for bit whenever every partial sum of
    the window is exact, as for constant and step weights with dyadic
    values on a dyadic grid. Otherwise, for nonnegative weights, it is
    within d * 2^-53 / (1 - d * 2^-53) relative of the exact node sum,
    while the gather's blocked pairwise sum rounds differently; the two
    can differ in their last bits, which can flip an exact packing tie.
    """
    require_weight(w, "scoring")
    grid = f.grid
    nodes, which, radii = candidates.lattice_keys(grid)
    groups = []
    for b, r in enumerate(radii):
        group = np.flatnonzero(which == b)
        groups.append((group, nodes[group], ball_offsets(grid, r)))
    osc, mass = np.empty(len(candidates)), np.empty(len(candidates))
    measure = _window_measures if grid.dim == 1 else _stencil_measures
    measure(f, w, groups, osc, mass)
    with np.errstate(over="ignore"):
        mass *= grid.cell_volume()
    return osc, mass


def _stencil_measures(f, w, groups, osc, mass):
    """Fill ``osc`` and the weight node sums ``mass`` of each (rows, centres, stencil) group.

    Each ball's stencil nodes are gathered, in blocks of about _GATHER_BLOCK.
    """
    fv, wv = f.values.reshape(-1), w.values.reshape(-1)
    for group, centres, deltas in groups:
        stencil = lattice_flat(f.grid, deltas)
        step = max(1, _GATHER_BLOCK // stencil.size)
        for lo in range(0, group.size, step):
            rows = group[lo:lo + step]
            nodes = centres[lo:lo + step, None] + stencil
            vals = fv[nodes]
            osc[rows] = vals.max(axis=1) - vals.min(axis=1)
            with np.errstate(over="ignore"):
                mass[rows] = wv[nodes].sum(axis=1)


def _window_measures(f, w, groups, osc, mass):
    """``_stencil_measures`` for 1D windows, from doubling tables of max, min and sum.

    Level j of a table holds its reduction over the 2^j nodes starting at
    each node. The groups come by ascending radius, so window lengths never
    decrease: the max and min tables keep only their current level and the
    sum table every level. Masked-out nodes read 0; they may hold any value
    and never lie inside a contained window.
    """
    inside = f.grid.mask
    hi = lo = np.where(inside, f.values, 0.0)
    total = [np.where(inside, w.values, 0.0)]
    for group, centres, deltas in groups:
        n = len(deltas)
        top = n.bit_length() - 1
        while len(total) <= top:
            s = 1 << (len(total) - 1)
            hi, lo = np.maximum(hi[:-s], hi[s:]), np.minimum(lo[:-s], lo[s:])
            with np.errstate(over="ignore"):
                total.append(total[-1][:-s] + total[-1][s:])
        # Every window of n nodes, by its first node: the extrema of two
        # overlapping 2^top pieces, and n's binary pieces (laid out largest
        # first, piece 2^j at n & -(2 << j)) summed smallest first, so each
        # node passes at most top + 1 additions.
        tail = n - (1 << top)
        m = len(hi) - tail
        first = centres - (n - 1) // 2
        osc[group] = np.maximum(hi[:m], hi[tail:])[first] - np.minimum(lo[:m], lo[tail:])[first]
        pieces = [total[j][n & -(2 << j):][:m] for j in range(top + 1) if n >> j & 1]
        acc = pieces[0].copy()
        with np.errstate(over="ignore"):
            for piece in pieces[1:]:
                acc += piece
        mass[group] = acc[first]


def make_scores(candidates, osc, mass, p):
    """ScoredCandidates with the ``ball_scores`` of the candidates. The scoring shares the
    conflict rows (``_source``) and lattice keys of ``candidates``, so every packing of
    one set, at any p or with scores zeroed, decides its geometry once.
    """
    return ScoredCandidates(candidates.centers, candidates.radii, osc, mass,
                            ball_scores(osc, candidates.radii, mass, p),
                            grid=candidates.grid, _source=candidates, _keys=candidates._keys)


def ball_scores(osc, radii, mass, p):
    """Scores (osc/r)^p * mass per ball, as a float array: the one score rule.

    Powers are taken on Python floats (C library pow): numpy's vectorised
    power can differ by one ulp, which can flip a greedy or DP tie. p must
    be >= 1; a non-finite mass raises WeightOverflow, a score past the
    float range ScoreOverflow.
    """
    if not p >= 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    if not np.isfinite(mass).all():
        raise WeightOverflow("the weight mass of a ball overflows the float range")
    try:
        with np.errstate(over="ignore"):
            score = np.array([x ** p for x in (np.asarray(osc) / radii).tolist()]) * mass
    except OverflowError:  # the Python-float power
        score = None
    if score is None or not np.isfinite(score).all():
        raise ScoreOverflow(f"a ball score (osc/r)^p * w(B) at p = {p} overflows the float range")
    return score


def score_total(scores, p):
    """The one score total: fsum of a score array, order-independent; ScoreOverflow past DBL_MAX."""
    try:
        total = math.fsum(scores.tolist())
    except OverflowError:  # an intermediate partial sum
        total = math.inf
    if not math.isfinite(total):
        raise ScoreOverflow(f"the score total at p = {p} overflows the float range")
    return total


def score_ball(f, w, ball, p):
    """The ``ball_scores`` score of any ball (off the nodes, clipped), as a float."""
    require_weight(w, "scoring")
    return ball_scores([oscillation(f, ball)], ball.radius, weighted_measure(w, ball), p).item()


def _solution(selected, scored, p, method, moves=0, capped=False):
    """PackingSolution of the selected indices, with their ``score_total``."""
    indices = tuple(sorted(int(i) for i in selected))
    total = score_total(scored.score[list(indices)], p)
    return PackingSolution(
        indices=indices,
        scored=scored,
        total=total,
        variation=total ** (1.0 / p) if total > 0 else 0.0,
        p=float(p),
        method=method,
        moves=moves,
        capped=capped,
    )


def pack_1d_exact(scored, p):
    """Optimal disjoint subset in 1D by weighted interval scheduling.

    Candidates become intervals [c - r, c + r]; closed disjointness means
    touching endpoints are allowed. The DP maximizes total score, breaking
    ties toward fewer balls and then toward earlier candidates. As in
    greedy, only positive scores enter: no other can raise the best total.
    """
    if not len(scored):
        raise NoCandidates("no scored candidates to pack")
    if scored.centers.shape[1] != 1:
        raise PreconditionError("dp_1d_exact is only available in one dimension")
    lefts = scored.centers[:, 0] - scored.radii
    rights = scored.centers[:, 0] + scored.radii
    keep = np.flatnonzero(scored.score > 0)
    items = keep[np.lexsort((keep, lefts[keep], rights[keep]))]
    n = items.size
    # pred[q]: the number of sorted items ending by item q's left end (closed
    # rule), capped at q; it is the DP state that taking item q extends.
    pred = np.minimum(
        np.searchsorted(rights[items], lefts[items] + ATOL, side="right"), np.arange(n)
    ).tolist()
    # total[i], count[i]: the best total over the first i sorted items and its
    # ball count (ties go to fewer balls); take[i] is the state that item i-1
    # extends when it is taken, else -1.
    total, count, take = [0.0] * (n + 1), [0] * (n + 1), [-1] * (n + 1)
    best_t, best_c = 0.0, 0
    for i, (j, s) in enumerate(zip(pred, scored.score[items].tolist()), 1):
        t, c = total[j] + s, count[j] + 1
        if t > best_t or (t == best_t and c < best_c):
            best_t, best_c, take[i] = t, c, j
        total[i], count[i] = best_t, best_c
    selected, i = [], n
    while i > 0:
        if take[i] < 0:
            i -= 1
        else:
            selected.append(items[i - 1])
            i = take[i]
    return _solution(selected, scored, p, DP_1D_EXACT)


class _ConflictRows:
    """Conflicts between candidates as cached neighbour lists.

    Candidates i and j conflict when they are not closed-disjoint under
    the rule of ``grid.balls_disjoint``. ``neighbours(i)`` lists the
    candidates that conflict with i, i included, built on first use and
    kept for the candidate set's lifetime; the packers build lists only
    for balls they select. ``overlap(i, j)`` decides pairs elementwise.
    Here a list is one distance row over every candidate; ``_StencilRows``
    gathers it from the grid's stencils.
    """

    def __init__(self, candidates):
        self._centers = candidates.centers
        self._radii = candidates.radii
        self._lists = {}

    def neighbours(self, i):
        nb = self._lists.get(i)
        if nb is None:
            nb = self._lists[i] = self._build(i)
        return nb

    def _build(self, i):
        return np.flatnonzero(self.overlap(i, slice(None)))

    def overlap(self, i, j):
        """Elementwise conflict of candidates ``i`` and ``j`` (indices, index arrays or slices)."""
        return balls_overlap(self._centers[i], self._radii[i], self._centers[j], self._radii[j])


class _StencilRows(_ConflictRows):
    """_ConflictRows of a nonempty node-centred CandidateSet, listed from its grid's stencils.

    Candidates (node a, r) and (node b, r') conflict exactly when ``b - a``
    lies in ``ball_offsets(grid, r + r')``. An int32 (node, radius) ->
    candidate table over the grid's box padded by the largest radius, -1
    where there is none, makes each neighbour list one gather
    ``table[key_i + offsets]``, whose offsets hold the stencils of i's
    radius with every radius of the set; lists are intp, since local search
    forms ``ia * n + ib``. ``one_per_key`` is False when two candidates
    share a node and radius (a subset that repeats an index), which the
    table cannot hold. Keys come from the set's ``lattice_keys`` on its
    grid: its balls are contained, so a gather reads within r' of the box.
    The inherited distance ``overlap`` agrees with the stencil rule.
    """

    def __init__(self, candidates):
        super().__init__(candidates)
        grid = self._grid = candidates.grid
        nodes, which, self._radius_set = candidates.lattice_keys(grid)
        nr = len(self._radius_set)
        pad = math.ceil(self._radius_set[-1] / grid.spacing)
        shape = [s + 2 * pad for s in grid.shape]
        self._strides = np.array([math.prod(shape[a + 1:]) for a in range(grid.dim)])
        k = np.stack(np.unravel_index(nodes, grid.shape), axis=-1)
        self._key = (k + pad) @ self._strides * nr + which
        self._table = np.full(math.prod(shape) * nr, -1, dtype=np.int32)
        self._table[self._key] = np.arange(len(self._key))
        self.one_per_key = np.array_equal(self._table[self._key], np.arange(len(self._key)))
        self._offsets = {}

    def _build(self, i):
        radii, nr = self._radius_set, len(self._radius_set)
        a = int(self._key[i] % nr)
        offsets = self._offsets.get(a)
        if offsets is None:
            # Key offsets to the neighbours of each radius index b.
            offsets = self._offsets[a] = np.concatenate(
                [ball_offsets(self._grid, radii[a] + radii[b]) @ self._strides * nr + (b - a)
                 for b in range(nr)])
        nb = self._table[self._key[i] + offsets]
        return nb[nb >= 0].astype(np.intp)


def pack_greedy(scored, p):
    """Highest-score-first selection of mutually disjoint balls.

    The walk runs over the ranks of the positive scores: a pick takes its
    rank and blocks the ranks of its neighbours, and the next pick is the
    first rank still free.
    """
    rows = scored._conflicts
    order = np.argsort(-scored.score, kind="stable")
    order = order[scored.score[order] > 0]
    m = order.size
    rank = np.full(len(scored), m)  # unranked candidates block the sentinel rank m
    rank[order] = np.arange(m)
    free = np.ones(m + 1, dtype=bool)
    selected = []
    pos = 0
    while pos < m:
        i = int(order[pos])
        selected.append(i)
        free[rank[rows.neighbours(i)]] = False
        free[pos] = False
        pos += int(free[pos:m].argmax())
        if not free[pos]:
            break
    return _solution(selected, scored, p, GREEDY)


def pack_local_search(initial, scored, max_iters=MAX_ITERS):
    """Hill climbing over 1- and 2-ball swap moves, first improvement.

    Removes at most two selected balls and inserts one or two candidates,
    accepting only strict total increases; the total never decreases and
    the search stops at a local optimum or after max_iters moves. The
    solution records the moves made and whether the cap stopped it
    (``moves``, ``capped``). ``initial`` is a PackingSolution of the same
    scored candidates, and it is returned when the search would end below
    its total.

    Moves are tried in a fixed order, single insertions by index and then
    pairs (ia < ib) lexicographically, but pairs are evaluated only where
    they can improve; the move found is the one a scan of every pair
    finds. Pairs are tried only when no single move improves, so every
    insertable candidate has slack (its score minus the scores it
    removes) at most eps. A pair (a, b) removes the selected balls it
    overlaps, a's among them and at most two, so it gains at most
    slack_a + s_b - 2m and slack_b + s_a - 2m, m = min(0, least selected
    score). So the candidates that overlap a common selected ball (its
    block) are paired only among the members that pass these bounds
    against the block's largest s and slack: each must exceed
    eps + 2m - d. Any other pair removes two disjoint sets and gains the
    sum of its two slacks, so it can only improve when one slack exceeds
    eps/2 - d and the other exceeds -d. The margin d (eps/1000 plus 1e-15
    times the largest |score| + |removal| of an insertable candidate and
    twice the largest |selected score|) bounds the rounding of these
    sums. A move costs a fixed number of batched numpy passes over the
    neighbour lists and the pairs (see ``_first_improvement``). Whether the
    two balls of a pair are disjoint is decided last, for the pairs that
    pass the count and gain tests, under the rule of ``grid.balls_disjoint``.
    """
    rows = scored._conflicts
    scores = scored.score
    selected = set(initial.indices)
    total = start_total = initial.total
    eps = 1e-12 * max(1.0, abs(total))
    moves, capped = 0, True
    while moves < max_iters:
        move = _first_improvement(rows, scores, selected, eps)
        if move is None:
            capped = False
            break
        removed, inserted = move
        selected -= removed
        selected |= inserted
        moves += 1
        total = score_total(scores[sorted(selected)], initial.p)
        eps = 1e-12 * max(1.0, abs(total))
    if total < start_total:
        return initial
    return _solution(selected, scored, initial.p, GREEDY_PLUS_LOCAL_SEARCH, moves, capped)


def _first_improvement(rows, scores, selected, eps):
    """First improving move: singles by index, then pairs (ia < ib) lexicographically.

    A move may remove at most two selected balls, so only the first and
    second selected ball each candidate overlaps are tracked. Removal sums
    add at most two nonzero scores, which makes them bit-identical to a
    plain sum over the removed set in any order. Pairs are evaluated only
    where a score bound says they can improve (see pack_local_search):
    each block's trimmed members give their upper-triangle pairs and each
    candidate of the slack band its pairs with ``low``. All of them are
    ordered as (min, max) and evaluated together, in chunks of whole
    rows (a member with the members after it, a band candidate with
    ``low``) of at most ``_GATHER_BLOCK`` pairs, a longer row alone; each
    chunk drops the pairs whose key cannot beat the least improving key
    found so far.
    """
    order = sorted(selected)
    k = len(order)
    n = scores.size
    lists = [rows.neighbours(j) for j in order]
    # Each selected ball's neighbours tagged with its position q. Tags never
    # decrease along the concatenation, so each block below is one run.
    cand = np.concatenate([np.empty(0, dtype=np.intp)] + lists)
    tag = np.repeat(np.arange(k), [nb.size for nb in lists])
    count = np.bincount(cand, minlength=n)
    first = np.full(n, k)
    np.minimum.at(first, cand, tag)
    other = tag != first[cand]
    second = np.full(n, k)
    np.minimum.at(second, cand[other], tag[other])
    owner_score = np.append(scores[order], 0.0)
    removal = owner_score[first] + owner_score[second]
    insertable = count <= 2
    insertable[order] = False

    def removed(*positions):
        return {order[q] for q in positions if q < k}

    # Single insertion with up to two removals.
    slack = scores - removal
    single = insertable & (slack > eps)
    if single.any():
        i = int(single.argmax())
        return removed(first[i], second[i]), {i}

    # Pair insertion with up to two removals. Pairs that overlap a common
    # selected ball come from that ball's block, among the members that
    # pass the gain bounds against the block's largest s and slack
    # (owner_score ends in 0, so its min is m); pairs with disjoint removal
    # sets gain the sum of their slacks and need one slack near eps / 2.
    size = (np.abs(scores) + np.abs(removal)).max(where=insertable, initial=0.0)
    margin = 1e-3 * eps + 1e-15 * float(size + 2 * np.abs(owner_score).max())
    floor = eps + 2.0 * float(owner_score.min()) - margin
    ins = insertable[cand]
    members, block = cand[ins], tag[ins]
    s, sl = scores[members], slack[members]
    s_max, sl_max = np.full(k, -np.inf), np.full(k, -np.inf)
    np.maximum.at(s_max, block, s)
    np.maximum.at(sl_max, block, sl)
    keep = (sl + s_max[block] > floor) & (s + sl_max[block] > floor)
    kept, block = members[keep], block[keep]
    # Kept member e pairs with the later[e] members after it in its block;
    # each band candidate pairs with every candidate of low. Pair units
    # (these rows) are gathered in order, as many as fit the budget.
    later = np.cumsum(np.bincount(block, minlength=k))[block] - 1 - np.arange(kept.size)
    band = np.flatnonzero(insertable & (slack > 0.5 * eps - margin))
    low = np.flatnonzero(insertable & (slack > -margin))
    units = np.concatenate([later, np.full(band.size, low.size)])
    ends = np.cumsum(units)
    pairs = int(units.sum())
    best, done = n * n, 0
    while done < pairs:
        u0 = int(np.searchsorted(ends, done, side="right"))
        u1 = max(int(np.searchsorted(ends, done + _GATHER_BLOCK, side="right")), u0 + 1)
        done = ends[u1 - 1]
        c = later[u0:u1]
        left = np.repeat(np.arange(u0, u0 + c.size), c)
        right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(c) - c, c)
        a = band[max(u0 - kept.size, 0):max(u1 - kept.size, 0)]
        ia = np.concatenate([kept[left], np.repeat(a, low.size)])
        ib = np.concatenate([kept[right], np.tile(low, a.size)])
        ia, ib = np.minimum(ia, ib), np.maximum(ia, ib)
        live = (ia < ib) & (ia * n + ib < best)
        ia, ib = ia[live], ib[live]
        a1, a2 = first[ia], second[ia]
        b1, b2 = first[ib], second[ib]
        new1 = (b1 < k) & (b1 != a1) & (b1 != a2)
        new2 = (b2 < k) & (b2 != a1) & (b2 != a2)
        extra = np.where(new1, owner_score[b1], 0.0) + np.where(new2, owner_score[b2], 0.0)
        gain = scores[ia] + scores[ib] - (removal[ia] + extra)
        ok = (count[ia] + new1 + new2 <= 2) & (gain > eps)
        ia, ib = ia[ok], ib[ok]
        ok = ~rows.overlap(ia, ib)
        best = int((ia[ok] * n + ib[ok]).min(initial=best))
    if best == n * n:
        return None
    ia, ib = divmod(best, n)
    return removed(first[ia], second[ia], first[ib], second[ib]), {ia, ib}


def pack(scored, p, method):
    """Disjoint subset of the ScoredCandidates chosen by ``method``.

    ``method`` is one of METHODS or "auto", which picks the DP for 1D
    candidates and greedy_plus_local_search otherwise. An unknown method,
    or dp_1d_exact on candidates of dimension above 1, raises
    PreconditionError.
    """
    if not len(scored):
        raise NoCandidates("no scored candidates to pack")
    if method == "auto":
        method = DP_1D_EXACT if scored.centers.shape[1] == 1 else GREEDY_PLUS_LOCAL_SEARCH
    if method not in METHODS:
        raise PreconditionError(f"unknown packing method {method!r}")
    if method == DP_1D_EXACT:
        return pack_1d_exact(scored, p)
    greedy = pack_greedy(scored, p)
    if method == GREEDY_PLUS_LOCAL_SEARCH:
        return pack_local_search(greedy, scored)
    return greedy


def riesz_variation(f, w, p, radii_list, method="auto"):
    """Lower bound of V_p(f; domain, w) over the candidate set; ``method`` as in ``pack``."""
    candidates = candidate_balls(f.grid, radii_list)
    osc, mass = measure_balls(f, w, candidates)
    return pack(make_scores(candidates, osc, mass, p), p, method)


def finest_partition(grid):
    """All masked-in node indices of a 1D grid, ascending."""
    if grid.dim != 1:
        raise PreconditionError("partitions are one-dimensional")
    return np.flatnonzero(grid.mask.reshape(-1))


def classical_riesz_1d(f, p, partition=None):
    """Riesz p-variation sum over a 1D partition of node indices.

    sum (|f(x_j) - f(x_{j-1})| / |x_j - x_{j-1}|)^p |x_j - x_{j-1}|; refining the
    partition never decreases the value, so the finest grid partition
    (the default) is the reported supremum surrogate.
    """
    grid = f.grid
    if grid.dim != 1:
        raise PreconditionError("classical_riesz_1d requires dim = 1")
    if not p >= 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    if partition is None:
        partition = finest_partition(grid)
    idx = np.asarray(partition, dtype=int)
    if idx.size < 2:
        raise BadPartition("partition needs at least two nodes")
    if np.any(np.diff(idx) <= 0):
        raise BadPartition("partition must be strictly increasing")
    if np.any(idx < 0) or np.any(idx >= grid.n_nodes):
        raise BadPartition("partition index out of range")
    x = grid.node_coordinate(idx)[:, 0]
    fv = f.values.reshape(-1)[idx]
    dx = np.diff(x)
    df = np.abs(np.diff(fv))
    with np.errstate(over="ignore"):  # a power past DBL_MAX is inf: ScoreOverflow
        return score_total((df / dx) ** p * dx, p)


def _shell_offsets(grid, shell_radius):
    """Lattice offsets (m, dim), row-major, with 0 < h|delta| <= shell_radius, and those distances."""
    deltas = lattice_offsets(grid.dim, int(math.floor(shell_radius / grid.spacing + ATOL)))
    dist = grid.spacing * np.sqrt(np.sum(deltas**2, axis=1))
    keep = (dist > 0) & (dist <= shell_radius + ATOL)
    return deltas[keep], dist[keep]


def lipschitz_field(f, shell_radius):
    """Discrete surrogate of the local Lipschitz constant.

    Max over nodes y with 0 < |y - x| <= shell_radius of
    |f(x) - f(y)| / |x - y|; nodes with no masked neighbor get 0. A
    SampledField of kind function.
    """
    grid = f.grid
    if not shell_radius >= grid.spacing:
        raise PreconditionError("shell_radius must be at least the grid spacing")
    best = np.zeros(grid.shape)
    for delta, dist in zip(*_shell_offsets(grid, shell_radius)):
        nv = shifted(f.values, delta)
        usable = grid.mask & shifted(grid.mask, delta)
        best[usable] = np.maximum(best[usable], np.abs(f.values[usable] - nv[usable]) / dist)
    return SampledField(grid, best, FieldKind.FUNCTION)


def _boundary_nodes(grid):
    """Masked nodes on the box edge or next to a masked-out node (``shifted`` is False off it)."""
    inner = [shifted(grid.mask, s * unit) for unit in np.eye(grid.dim, dtype=int) for s in (1, -1)]
    return grid.mask & ~np.logical_and.reduce(inner)


def weak_type_check(f, w, packing, t_grid, shell_radius, k_max=None):
    """Weak-type statistic K(t) = t^p w({L_f > t}) / V_p^p per level t.

    ``packing`` is the PackingSolution of f and w at the exponent p,
    for example ``riesz_variation(f, w, p, radii)``. Requires f to vanish
    near the domain boundary (compact support). Returns report rows: one
    info row per t and a final pass/fail row for max K against k_max
    (default 32 * 2^p, absorbing the Vitali dilation).
    """
    require_compact_support(f)
    return weak_type_rows(w, packing, lipschitz_field(f, shell_radius), t_grid, k_max)


def require_compact_support(f):
    """Raise UnboundedSupport when f is nonzero at a masked node next to the domain boundary."""
    support_vals = np.abs(f.values[_boundary_nodes(f.grid)])
    if support_vals.size and support_vals.max() > ATOL:
        raise UnboundedSupport("function is nonzero next to the domain boundary")


def weak_type_rows(w, packing, lip, t_grid, k_max=None):
    """The rows of ``weak_type_check`` from ``lip = lipschitz_field(f, ...)``; no support check."""
    grid, p, vp_pow = lip.grid, packing.p, packing.total
    k_max = 32.0 * 2.0**p if k_max is None else k_max
    rows = []
    max_k = 0.0
    for t in t_grid:
        measure = weight_integral(w, grid.mask & (lip.values > t), "the weight of a superlevel set")
        if measure > 0 and vp_pow == 0:
            raise ZeroVariation("variation is zero while a superlevel set is nonempty")
        k = (t**p * measure / vp_pow) if vp_pow > 0 else 0.0
        max_k = max(max_k, k)
        rows.append(row("weak_type", "K(t)", k, k_max, t=float(t), p=float(p)))
    rows.append(row("weak_type", "max_K", max_k, k_max, max_k <= k_max,
                    p=float(p), variation=packing.variation))
    return rows
