"""Theorem-verification suites, the subcommand tables, and the runs that report them."""

import math
import time
from dataclasses import replace
from functools import cached_property, partial

import numpy as np

from .config import materialize_level
from .errors import PreconditionError, ToolkitError
from .grid import gradient_magnitude, weight_integral
from .report import Report, ReportRow, params_string, row
from .riesz import (
    ball_scores,
    candidate_balls,
    lipschitz_field,
    make_scores,
    measure_balls,
    pack,
    require_compact_support,
    score_total,
    weak_type_rows,
)
from .sobolev import mollify_gradient_bound, morrey_check, weighted_lp_norm
from .varexp import (
    gd_equivalence_check,
    lh_constants,
    luxemburg_norm,
    modular,
    packing_proposals,
    varexp_sobolev_equivalence,
)
from .weights import (
    a1_constant,
    ap_constant,
    doubling_ball_family,
    doubling_constant,
    estimate_rw,
    generate_cubes,
    rh_constant,
)


class LevelContext:
    """One refinement level of a config; each value is computed on first use.

    A value whose computation raises is not stored, so every suite that
    asks for it again raises the same error.
    """

    def __init__(self, config, level):
        self.config = config
        self.level = level
        self._packings = {}

    @cached_property
    def fields(self):
        """(grid, f, w, pfun) from ``materialize_level``."""
        return materialize_level(self.config, self.level)

    @cached_property
    def family(self):
        cubes = self.config.cubes
        return generate_cubes(self.fields[0], cubes.min_side, cubes.levels, cubes.shifts)

    @cached_property
    def lipschitz(self):
        """``lipschitz_field`` of f over a shell of ``shell_factor`` node spacings."""
        grid, f, _, _ = self.fields
        return lipschitz_field(f, self.config.shell_factor * grid.spacing)

    @cached_property
    def gradient(self):
        """|grad f| of the level's f, as a field."""
        return gradient_magnitude(self.fields[1])

    @cached_property
    def rw(self):
        """The RwEstimate of the weight over ``family``."""
        thr = self.config.thresholds
        return estimate_rw(self.fields[2], self.family, threshold=thr.rw_threshold, tol=thr.rw_tol)

    @cached_property
    def candidates(self):
        """The CandidateSet every packing of this level draws from."""
        return candidate_balls(self.fields[0], self.config.radii)

    @cached_property
    def measures(self):
        """Oscillation and w-mass per candidate."""
        _, f, w, _ = self.fields
        return measure_balls(f, w, self.candidates)

    def packing(self, p):
        """The packing ``riesz_variation(f, w, p, radii, method)`` computes."""
        if p not in self._packings:
            scored = make_scores(self.candidates, *self.measures, p)
            self._packings[p] = pack(scored, p, self.config.method)
        return self._packings[p]

    @cached_property
    def explored(self):
        """The PackingTerms ``explore_packings(f, pfun, radii, method)`` proposes."""
        _, f, _, pfun = self.fields
        return packing_proposals(f, pfun, self.candidates, self.measures[0], self.config.method)


class RunContext:
    """The config of one report and its levels, shared by the suites or table."""

    def __init__(self, config):
        self.config = config
        self.levels = [LevelContext(config, level) for level in range(config.refinements)]


def _drift_row(experiment, quantity, values, drift_tol, **params):
    """Stability row comparing the last two refinement levels."""
    a, b = values[-2], values[-1]
    if a == 0 and b == 0:
        drift = 0.0
    elif b == 0 or not (math.isfinite(a) and math.isfinite(b)):
        drift = float("inf")
    else:
        drift = abs(a - b) / abs(b)
    return row(experiment, f"{quantity}_drift", drift, drift_tol, drift <= drift_tol, **params)


def verify_theorem1(ctx):
    """Two-sided Sobolev/variation ratio suite across the refinement levels.

    For each p: computes the variation lower bound and the weighted
    gradient norm, then checks both ratios against the configured bound.
    When p <= dim * rw only the gradient-side inequality is checked (it
    holds for every weight and every p >= 1). A level whose rw search hit
    its cap, so that its checks are only left-sided, gets an rw_at_max row.
    """
    config = ctx.config
    thr = config.thresholds
    rows = [
        row("theorem1", "rw_at_max", lvl.rw.value, level=lvl.level, threshold=lvl.rw.threshold)
        for lvl in ctx.levels if lvl.rw.at_max
    ]
    for p in config.p_values:
        ratios = {"ratio_grad_over_var": [], "ratio_var_over_grad": []}
        for lvl in ctx.levels:
            grid, _, w, _ = lvl.fields
            rw = lvl.rw.value
            var = lvl.packing(p).variation
            grad = weighted_lp_norm(lvl.gradient, w, p)
            params = dict(p=p, level=lvl.level, h=grid.spacing, rw=rw)
            rows += [row("theorem1", "variation", var, **params),
                     row("theorem1", "grad_norm", grad, **params)]
            if var == 0.0 and grad == 0.0:
                rows.append(row("theorem1", "ratio_skipped", math.nan, thr.bound_thm1, **params))
                continue
            sides = [("ratio_grad_over_var", grad, var)]
            if p > grid.dim * rw:
                sides.append(("ratio_var_over_grad", var, grad))
            for quantity, num, den in sides:
                ratio = num / den if den > 0 else math.inf
                ratios[quantity].append(ratio)
                rows.append(row("theorem1", quantity, ratio, thr.bound_thm1,
                                ratio <= thr.bound_thm1, **params))
        rows += [_drift_row("theorem1", quantity, values, thr.drift_tol, p=p)
                 for quantity, values in ratios.items() if len(values) >= 2]
    return rows


def suite_weak_type(ctx):
    """``weak_type_check`` per p on level 0, all reading the level's Lipschitz field."""
    rows = []
    config = ctx.config
    lvl = ctx.levels[0]
    for p in config.p_values:
        _, f, w, _ = lvl.fields
        packing = lvl.packing(p)
        require_compact_support(f)
        k_max = config.thresholds.k_max_base * 2.0**p
        rows.extend(weak_type_rows(w, packing, lvl.lipschitz, config.t_grid, k_max=k_max))
    return rows


def suite_lemma21(ctx):
    """Measure-ratio inequality on seeded random node subsets of family cubes."""
    rows = []
    lvl = ctx.levels[0]
    rng = np.random.Generator(np.random.Philox(ctx.config.seed))
    cube_mass = None  # each cube's weight sum, taken at the first finite A_p
    for p in ctx.config.p_values:
        _, _, w, _ = lvl.fields
        family = lvl.family
        ap = ap_constant(w, p, family)
        if not math.isfinite(ap):
            rows.append(row("lemma21", "skipped_infinite_ap", math.inf, p=p))
            continue
        violations = 0
        min_slack = float("inf")
        w_flat = w.values.reshape(-1)
        if cube_mass is None:
            cube_mass = [float(w_flat[nodes].sum()) for nodes in family.nodes]
        for k in range(200):
            cube = int(rng.integers(0, len(family)))
            member = family.nodes[cube]
            size = int(rng.integers(1, member.size + 1))
            subset = rng.choice(member, size=size, replace=False)
            wq = cube_mass[cube]
            we = float(w_flat[subset].sum())
            lhs = (size / member.size) ** p
            rhs = (ap + 1e-6) * we / wq
            min_slack = min(min_slack, rhs - lhs)
            if lhs > rhs:
                violations += 1
        rows += [row("lemma21", "violations", float(violations), 0.0, violations == 0,
                     p=p, n_subsets=200, ap=ap),
                 row("lemma21", "min_slack", min_slack, 0.0, p=p)]
    return rows


def suite_rh_exists(ctx):
    """Some reverse-Hölder exponent yields a finite, small constant."""
    lvl = ctx.levels[0]
    _, _, w, _ = lvl.fields
    family = lvl.family
    best_s, best_val = None, float("inf")
    for s in (1.05, 1.1, 1.25, 1.5):
        val = rh_constant(w, s, family)
        if math.isfinite(val) and val < best_val:
            best_s, best_val = s, val
    ok = best_s is not None and best_val <= 10.0
    return [row("rh_exists", "best_rh", best_val, 10.0, ok,
                s=best_s if best_s is not None else math.nan)]


def suite_embedding(ctx):
    """Discrete Hölder embedding between exponents on a shared packing."""
    rows = []
    p_values = ctx.config.p_values
    lvl = ctx.levels[0]
    grid, _, w, _ = lvl.fields
    p_pairs = [(p1, p2) for p1 in p_values for p2 in p_values if p1 < p2]
    if not p_pairs:
        p_pairs = [(2.0, 4.0)]
    w_total = weight_integral(w, grid.mask, "the total weight")
    for p1, p2 in p_pairs:
        sol2 = lvl.packing(p2)
        if not sol2.indices:
            continue
        scored, at = sol2.scored, list(sol2.indices)
        scores1 = ball_scores(scored.oscillation[at], scored.radii[at], scored.weight_mass[at], p1)
        lhs = score_total(scores1, p1) ** (1.0 / p1)
        rhs = sol2.total ** (1.0 / p2) * w_total ** (1.0 / p1 - 1.0 / p2)
        rows.append(row("embedding", "holder_gap", rhs - lhs, 0.0,
                        lhs <= rhs * (1.0 + 1e-8), p1=p1, p2=p2))
    return rows


def suite_differentiability(ctx):
    """Fraction of nodes with large local Lipschitz estimate, reported only."""
    grid = ctx.levels[0].fields[0]
    lip = ctx.levels[0].lipschitz
    n_masked = int(grid.mask.sum())
    return [row("differentiability", "fraction_above",
                float(np.sum(lip.values[grid.mask] > m)) / n_masked, 1.0, M=m)
            for m in (1.0, 2.0, 4.0, 8.0, 16.0)]


def suite_morrey(ctx):
    rows = []
    config = ctx.config
    span = min(hi - lo for lo, hi in config.bounds)
    region_pairs = [([0.5 * (lo + hi) for lo, hi in config.bounds], span / 4.0)]
    for p in config.p_values:
        per_level = []
        for lvl in ctx.levels:
            grid, f, w, _ = lvl.fields
            rw = lvl.rw.value
            if p <= grid.dim * rw:
                rows.append(row("morrey", "skipped_precondition", math.nan, p=p, rw=rw))
                break
            level_rows = morrey_check(f, w, p, region_pairs, rw=rw, seed=config.seed)
            per_level += [r.value for r in level_rows if r.quantity == "max_C_hat"]
            rows.extend(level_rows)
        if len(per_level) >= 2:
            a, b = per_level[-2], per_level[-1]
            ratio = max(a, b) / min(a, b) if min(a, b) > 0 else 1.0
            rows.append(row("morrey", "stability", ratio, 2.0, ratio < 2.0, p=p))
    return rows


def suite_mollify_bound(ctx):
    """Uniformity of the mollified-gradient bound over dyadic scales."""
    rows = []
    config = ctx.config
    lvl = ctx.levels[0]
    grid, f, w, _ = lvl.fields
    span = min(hi - lo for lo, hi in config.bounds)
    scales = [s for s in (span / 16.0, span / 32.0, span / 64.0) if s >= 2.0 * grid.spacing]
    for p in config.p_values:
        packing = lvl.packing(p)
        if packing.total == 0:
            continue
        pairs = mollify_gradient_bound(f, w, p, scales, packing.total)
        ratios = [r for _, r in pairs]
        rows += [row("mollify_bound", "grad_ratio", r, p=p, R=R) for R, r in pairs]
        if ratios:
            spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("inf")
            ok = all(math.isfinite(r) for r in ratios) and spread <= 4.0
            rows.append(row("mollify_bound", "K_moll", max(ratios), 4.0, ok, p=p))
    return rows


def _varexp_suite(ctx, experiment, tolerance, drift_quantity, check):
    """Rows of ``check(f, pfun, packings)`` per level, tagged ``;level=``, plus a drift row.

    Without an exponent the suite is one skipped row.
    """
    rows = []
    per_level = []
    for lvl in ctx.levels:
        _, f, _, pfun = lvl.fields
        if pfun is None:
            rows.append(row(experiment, "skipped_no_exponent", math.nan, tolerance))
            return rows
        level_rows = [
            replace(r, params=r.params + f";level={lvl.level}")
            for r in check(f, pfun, lvl.explored)
        ]
        rows.extend(level_rows)
        values = [r.value for r in level_rows if r.quantity == drift_quantity]
        if values:
            per_level.append(values[0])
    if len(per_level) >= 2:
        rows.append(
            _drift_row(experiment, drift_quantity, per_level,
                       ctx.config.thresholds.drift_tol)
        )
    return rows


def suite_gd_equivalence(ctx):
    c_eq = ctx.config.thresholds.c_eq
    return _varexp_suite(ctx, "gd_equivalence", c_eq, "ratio_max",
                         partial(gd_equivalence_check, c_eq=c_eq))


def suite_varexp_sobolev(ctx):
    c_thm = ctx.config.thresholds.c_thm
    return _varexp_suite(ctx, "varexp_sobolev", c_thm, "ratio",
                         partial(varexp_sobolev_equivalence, c_thm=c_thm))


_SUITES = {
    "theorem1": verify_theorem1,
    "weak_type": suite_weak_type,
    "lemma21": suite_lemma21,
    "rh_exists": suite_rh_exists,
    "embedding": suite_embedding,
    "differentiability": suite_differentiability,
    "morrey": suite_morrey,
    "mollify_bound": suite_mollify_bound,
    "gd_equivalence": suite_gd_equivalence,
    "varexp_sobolev": suite_varexp_sobolev,
}


def table_weights(ctx):
    """Weight constants: [w]_{A_p} per p, [w]_{A_1}, RH_s per s, r_w and doubling."""
    config = ctx.config
    lvl = ctx.levels[0]
    grid, _, w, _ = lvl.fields
    family = lvl.family
    cubes = dict(family=family.provenance.value, levels=config.cubes.levels)
    rows = [row("weights", "ap", ap_constant(w, p, family), p=p, **cubes)
            for p in sorted(set(config.p_values))]
    rows.append(row("weights", "a1", a1_constant(w, family), **cubes))
    rows += [row("weights", "rh", rh_constant(w, s, family), s=s, **cubes)
             for s in sorted(set(config.s_values))]
    rows.append(row("weights", "rw", lvl.rw.value, at_max=lvl.rw.at_max, **cubes))
    radii = config.radii or (4 * grid.spacing,)
    balls = doubling_ball_family(grid, radii, stride=max(1, grid.n_nodes // 64))
    doubling = doubling_constant(w, balls) if balls else float("nan")
    rows.append(row("weights", "doubling", doubling, family="balls",
                    levels=config.cubes.levels))
    return rows


def table_riesz_var(ctx):
    """Weighted Riesz p-variation by packing optimization, with the packed balls."""
    config = ctx.config
    lvl = ctx.levels[0]
    rows = []
    for p in config.p_values:
        sol = lvl.packing(p)
        params = dict(p=p, method=sol.method, h=lvl.fields[0].spacing, radii=config.radii)
        rows += [row("riesz-var", "variation", sol.variation, **params),
                 row("riesz-var", "total", sol.total, **params),
                 row("riesz-var", "n_balls", float(len(sol.indices)), **params)]
        scored, at = sol.scored, list(sol.indices)
        rows += [row("riesz-var", "ball", s, p=p, center=c, radius=r, osc=o, mass=m)
                 for c, r, o, m, s in zip(*(a[at].tolist() for a in (
                     scored.centers, scored.radii, scored.oscillation, scored.weight_mass,
                     scored.score)))]
    return rows


def table_sobolev(ctx):
    """Weighted L^p and Sobolev norms of the configured function."""
    lvl = ctx.levels[0]
    grid, f, w, _ = lvl.fields
    rows = []
    for p in ctx.config.p_values:
        lp = weighted_lp_norm(f, w, p)
        grad_lp = weighted_lp_norm(lvl.gradient, w, p)
        rows += [row("sobolev", q, v, p=p, h=grid.spacing)
                 for q, v in (("lp", lp), ("grad_lp", grad_lp), ("total", lp + grad_lp))]
    return rows


def table_varexp(ctx):
    """Variable-exponent norms and diagnostics."""
    config = ctx.config
    lvl = ctx.levels[0]
    _, f, _, pfun = lvl.fields
    if pfun is None:
        raise PreconditionError("config has no exponent section")
    lh = lh_constants(pfun)
    rows = [
        row("varexp", "p_minus", pfun.p_minus),
        row("varexp", "p_plus", pfun.p_plus),
        row("varexp", "lh_c0", lh.c0_estimate, p_inf=lh.p_infinity_used),
        row("varexp", "lh_c_infinity", lh.c_infinity_estimate, p_inf=lh.p_infinity_used),
        row("varexp", "modular", modular(f, pfun)),
        row("varexp", "luxemburg_norm", luxemburg_norm(f, pfun)),
    ]
    if config.radii:
        rows.append(row("varexp", "rbv_var_seminorm",
                        max((t.norm for t in lvl.explored), default=0.0)))
    return rows


# The non-verify subcommands, by name: each is one table on level 0.
TABLES = {
    "weights": table_weights,
    "riesz-var": table_riesz_var,
    "sobolev": table_sobolev,
    "varexp": table_varexp,
}


def _run(config, tables):
    """Report of the (name, table) pairs on one shared RunContext.

    Each table's first row carries its runtime; a module error becomes
    one error row named after the table.
    """
    ctx = RunContext(config)
    rows = []
    for name, table in tables:
        started = time.perf_counter()
        try:
            table_rows = table(ctx)
        except ToolkitError as exc:
            rows.append(
                ReportRow(name, "error", params_string(message=str(exc)),
                          float("nan"), float("nan"), "error")
            )
            continue
        elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
        if table_rows:
            table_rows[0] = replace(table_rows[0], runtime_ms=elapsed_ms)
        rows.extend(table_rows)
    return Report(rows=tuple(rows), config_hash=config.config_hash(), seed=config.seed)


def run_config(config):
    """Run every configured suite; module errors become error rows."""
    return _run(config, [(suite, _SUITES[suite]) for suite in config.suites])


def run_table(config, name):
    """The report of one TABLES entry on the config's first level."""
    return _run(config, [(name, TABLES[name])])
