import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszvar
from rieszvar import Ball, Cube, build_grid, emit_report, sample_catalog, write_field
from rieszvar.config import (
    KNOWN_SUITES,
    CubeSpec,
    Thresholds,
    load_config,
    materialize_level,
)
from rieszvar.errors import ConfigError
from rieszvar.grid import region_mask
import rieszvar.harness as harness
from rieszvar.riesz import METHODS, score_ball
import rieszvar.weights as weights
from rieszvar.harness import TABLES, RunContext, run_config, run_table, verify_theorem1
from rieszvar.report import (
    CSV_COLUMNS,
    Report,
    ReportRow,
    params_string,
    report_from_json,
    report_to_csv,
    report_to_json,
)

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]


def minimal_config(**overrides):
    data = {
        "grid": {"dim": 1, "bounds": [[0.0, 1.0]], "h": 1 / 256},
        "function": {"catalog": "linear", "params": {"slope": 1.0}},
        "weight": {"catalog": "constant", "params": {"value": 1.0}},
        "radii": [1 / 8, 1 / 16, 1 / 32],
        "p_values": [2.0],
        "suites": ["theorem1"],
        "seed": 0,
    }
    data.update(overrides)
    return data


class TestConfigValidation:
    def test_minimal_loads(self):
        cfg = load_config(minimal_config())
        assert cfg.dim == 1 and cfg.p_values == (2.0,)

    def test_minimal_takes_dataclass_defaults(self):
        cfg = load_config(minimal_config())
        assert cfg.thresholds == Thresholds()
        assert cfg.cubes == CubeSpec()

    def test_partial_sections_cast_and_default(self):
        cfg = load_config(minimal_config(thresholds={"c_eq": 5}, cubes={"levels": 3.0}))
        assert cfg.thresholds == Thresholds(c_eq=5.0)
        assert cfg.cubes == CubeSpec(levels=3)
        assert type(cfg.thresholds.c_eq) is float and type(cfg.cubes.levels) is int

    def test_method_is_auto_or_a_packing_method(self):
        for method in ("auto",) + METHODS:
            assert load_config(minimal_config(method=method)).method == method
        with pytest.raises(ConfigError):
            load_config(minimal_config(method="exhaustive"))

    def test_unknown_catalog(self):
        with pytest.raises(ConfigError) as err:
            load_config(minimal_config(function={"catalog": "nosuch"}))
        assert "function.catalog" in str(err.value)

    def test_threshold_not_above_one(self):
        with pytest.raises(ConfigError):
            load_config(minimal_config(thresholds={"c_eq": 1.0}))

    def test_bad_bounds_multiple(self):
        with pytest.raises(ConfigError):
            load_config(minimal_config(grid={"dim": 1, "bounds": [[0.0, 1.0]], "h": 0.3}))

    def test_radius_below_2h(self):
        with pytest.raises(ConfigError):
            load_config(minimal_config(radii=[1 / 1024]))

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            load_config(minimal_config(suites=["nosuch"]))

    def test_format_is_csv_or_json(self):
        for fmt in ("csv", "json"):
            assert load_config(minimal_config(format=fmt)).fmt == fmt
        with pytest.raises(ConfigError) as err:
            load_config(minimal_config(format="xml"))
        assert err.value.field == "format"

    def test_config_hash_stable(self):
        a = load_config(minimal_config()).config_hash()
        b = load_config(minimal_config()).config_hash()
        assert a == b and len(a) == 64


class TestRunConfig:
    def test_minimal_theorem1_passes(self):
        report = run_config(load_config(minimal_config()))
        variations = [r for r in report.rows if r.quantity == "variation"]
        assert variations and variations[0].value == pytest.approx(2.0, rel=0.05)
        assert not report.has_failures()

    def test_empty_suites_empty_report(self):
        report = run_config(load_config(minimal_config(suites=[])))
        assert report.rows == ()
        assert not report.has_failures()

    def test_two_runs_identical_values(self):
        cfg = minimal_config(suites=["theorem1", "weak_type", "lemma21"],
                             function={"catalog": "hat", "params": {"radius": 0.4,
                                                                    "center": 0.5}})
        a = run_config(load_config(cfg))
        b = run_config(load_config(cfg))
        strip = lambda rep: [
            (r.experiment, r.quantity, r.params, r.value, r.tolerance, r.status)
            for r in rep.rows
        ]
        assert strip(a) == strip(b)

    def test_verify_theorem1_two_sided_rows(self):
        cfg = load_config(minimal_config(refinements=2))
        rows = verify_theorem1(RunContext(cfg))
        kinds = {r.quantity for r in rows}
        assert "ratio_var_over_grad" in kinds
        assert "ratio_grad_over_var_drift" in kinds

    def test_p_equals_n_is_left_only(self):
        # at p = 1 = dim, p > n * rw fails, so only the gradient-side row exists
        cfg = load_config(minimal_config(p_values=[1.0]))
        rows = verify_theorem1(RunContext(cfg))
        kinds = [r.quantity for r in rows]
        assert "ratio_grad_over_var" in kinds
        assert "ratio_var_over_grad" not in kinds

    def test_varexp_suites(self):
        cfg = load_config(minimal_config(
            suites=["gd_equivalence", "varexp_sobolev"],
            exponent={"catalog": "affine", "params": {"intercept": 3.0, "slope": 1.0}},
            refinements=2,
        ))
        report = run_config(cfg)
        assert not report.has_failures()
        assert any(r.quantity == "ratio" for r in report.rows)

    def test_dp_in_2d_is_one_error_message(self):
        raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
        raw["method"] = "dp_1d_exact"
        errors = [r for r in run_config(load_config(raw)).rows if r.status == "error"]
        assert sorted(r.experiment for r in errors) == sorted([
            "theorem1", "weak_type", "embedding", "mollify_bound",
            "gd_equivalence", "varexp_sobolev",
        ])
        message = params_string(message="dp_1d_exact is only available in one dimension")
        assert {r.params for r in errors} == {message}

    def test_rw_at_max_row(self):
        """A level whose r_w search stops at q_max gets one theorem1 info row."""
        raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
        raw["thresholds"] = dict(raw.get("thresholds", {}), rw_threshold=1.01)
        cfg = load_config(dict(raw, suites=["theorem1"]))
        rows = [r for r in run_config(cfg).rows if r.quantity == "rw_at_max"]
        assert [(r.experiment, r.params, r.value, r.status) for r in rows] == [
            ("theorem1", params_string(level=0, threshold=1.01), 64.0, "info")
        ]
        (rw,) = [r for r in run_table(cfg, "weights").rows if r.quantity == "rw"]
        assert "at_max=True" in rw.params and rw.value == 64.0

    def test_weight_overflow_is_one_error_row(self):
        """Cube sums past DBL_MAX cost the weights table one error row, not a traceback."""
        raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
        raw["weight"] = {"catalog": "constant", "params": {"value": 1e307}}
        rows = run_table(load_config(raw), "weights").rows
        assert [(r.experiment, r.quantity, r.status) for r in rows] == [
            ("weights", "error", "error")]
        assert "overflows the float range" in rows[0].params

    @pytest.mark.parametrize("value, commands", [(1e-310, ["verify", "weights"]),
                                                 (1e307, ["verify", "sobolev"])])
    def test_extreme_weights_exit_2_with_error_rows(self, tmp_path, value, commands):
        """A subnormal weight overflows the A_p dual power; one near DBL_MAX the ball
        masses, the total weight and the weighted L^p sums. Each costs error rows and
        exit 2, with no traceback and no leaked RuntimeWarning."""
        raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
        raw["weight"] = {"catalog": "constant", "params": {"value": value}}
        path = tmp_path / "extreme_weight.json"
        path.write_text(json.dumps(raw))
        for command in commands:
            result = run_cli([command, "--config", str(path)])
            assert result.exit_code == 2, (command, result.output)
            assert ",error," in result.output and "overflows the float range" in result.output

    def test_score_past_the_float_range_is_an_error_row(self, tmp_path):
        """theorem1_linear with slope 100 at p = 400: (osc/r)^p passes DBL_MAX, which
        costs the theorem1 and embedding cells their error rows and exits 2."""
        raw = json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text())
        raw["function"]["params"]["slope"] = 100.0
        raw["p_values"] = [2.0, 400.0]
        report = run_config(load_config(raw))
        errors = [r for r in report.rows if r.status == "error"]
        assert {r.experiment for r in errors} == {"theorem1", "embedding"}
        assert all("overflows the float range" in r.params for r in errors)
        assert any(r.experiment == "lemma21" and r.status != "error" for r in report.rows)
        path = tmp_path / "score_overflow.json"
        path.write_text(json.dumps(raw))
        result = run_cli(["verify", "--config", str(path)])
        assert result.exit_code == 2 and result.exception is None, result.output

    @pytest.mark.parametrize("command, experiment", [("verify", "theorem1"),
                                                     ("riesz-var", "riesz-var")])
    def test_score_total_past_the_float_range_is_one_error_row(self, tmp_path, command,
                                                                experiment):
        """theorem1_linear with slope 1e299, weight 1e9 and p = 1: every ball score is
        finite, but the packing total passes DBL_MAX. That costs its cell one error row
        and exit 2, not a traceback; the weight-only rh_exists row stays."""
        raw = json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text())
        raw.update(function={"catalog": "linear", "params": {"slope": 1e299}},
                   weight={"catalog": "constant", "params": {"value": 1e9}}, p_values=[1.0],
                   suites=["theorem1", "differentiability", "rh_exists"])
        path = tmp_path / "total_overflow.json"
        path.write_text(json.dumps(raw))
        result = run_cli([command, "--config", str(path)])
        assert result.exit_code == 2 and result.exception is None, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        errors = [r for r in rows if r["status"] == "error"]
        assert [r["experiment"] for r in errors] == [experiment]
        assert "overflows the float range" in errors[0]["params"]
        if command == "verify":
            assert any(r["experiment"] == "rh_exists" and r["quantity"] == "best_rh"
                       for r in rows)

    def test_weight_free_proposals_survive_mass_overflow(self):
        """Ball masses past DBL_MAX cost the weighted suites their rows, not the
        variable-exponent ones: their proposals are scored with the Lebesgue weight,
        so their rows equal the pinned verify_2d report."""
        raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
        raw["weight"] = {"catalog": "constant", "params": {"value": 1e307}}
        rows = run_config(load_config(raw)).rows
        free = ("gd_equivalence", "varexp_sobolev")
        got = [r for r in rows if r.experiment in free]
        pinned = ROOT / "tests" / "data" / "verify_2d" / "verify_2d.verify.csv"
        want = [r for r in csv.DictReader(pinned.open()) if r["experiment"] in free]
        assert [(r.experiment, r.quantity, r.params, r.status) for r in got] == [
            (r["experiment"], r["quantity"], r["params"], r["status"]) for r in want]
        assert [r.value for r in got] == [
            pytest.approx(float(r["value"]), rel=1e-9) for r in want]
        assert {r.experiment for r in rows if r.status == "error"} == {
            "theorem1", "weak_type", "lemma21", "rh_exists", "embedding", "morrey",
            "mollify_bound"}

    @pytest.mark.parametrize("command, overrides, experiment", [
        ("weights", {"s_values": [], "radii": [0.25, 0.5],
                     "cubes": {"min_side": 0.25, "levels": 1, "shifts": 1}}, "weights"),
        ("verify", {"radii": [0.125], "suites": ["weak_type"]}, "weak_type"),
    ])
    def test_ball_and_level_sums_past_the_float_range(self, tmp_path, command, overrides,
                                                      experiment):
        """With the weight 5e306 the cube means and ball masses used here stay finite,
        but the node sums of the doubling balls and of the weak-type superlevel sets
        pass DBL_MAX. Each costs its cell one error row and exit 2, not a doubling
        constant of 0.0 (inf / inf), K(t) rows of inf or a leaked RuntimeWarning."""
        raw = json.loads((ROOT / "perfbench" / "configs" / "verify_2d.json").read_text())
        raw["weight"] = {"catalog": "constant", "params": {"value": 5e306}}
        path = tmp_path / "sum_overflow.json"
        path.write_text(json.dumps(dict(raw, **overrides)))
        result = run_cli([command, "--config", str(path)])
        assert result.exit_code == 2 and result.exception is None, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [(r["experiment"], r["quantity"], r["status"]) for r in rows] == [
            (experiment, "error", "error")]
        assert "overflows the float range" in rows[0]["params"]

    @pytest.mark.parametrize("name", ["theorem1_linear", "weak_type_hat"])
    def test_no_rw_at_max_row_on_demo_configs(self, name):
        raw = json.loads((ROOT / "demos" / "configs" / f"{name}.json").read_text())
        rows = run_config(load_config(dict(raw, suites=["theorem1"]))).rows
        assert rows and not [r for r in rows if r.quantity == "rw_at_max"]


def _strip(report):
    """Every report column except runtime_ms, numbers as the CSV writes them."""
    return [
        (r.experiment, r.quantity, r.params, repr(r.value), repr(r.tolerance), r.status)
        for r in report.rows
    ]


class TestRunContext:
    """Suites share one per-level context per ``run_config`` call."""

    def all_suites_config(self):
        return load_config(minimal_config(
            suites=list(KNOWN_SUITES),
            function={"catalog": "hat", "params": {"radius": 0.4, "center": 0.5}},
            exponent={"catalog": "affine", "params": {"intercept": 3.0, "slope": 1.0}},
            p_values=[2.0, 3.0],
            refinements=2,
        ))

    def test_suites_independent_of_each_other(self):
        raw = self.all_suites_config().raw
        together = _strip(run_config(load_config(raw)))
        alone = []
        for suite in KNOWN_SUITES:
            alone.extend(_strip(run_config(load_config(dict(raw, suites=[suite])))))
        assert together == alone
        assert len({row[0] for row in together}) == len(KNOWN_SUITES)

    def test_no_cache_across_runs(self, monkeypatch):
        calls = {"materialize_level": [], "candidate_balls": 0}
        materialize = harness.materialize_level
        candidates = harness.candidate_balls

        def counted_materialize(config, level=0):
            calls["materialize_level"].append(level)
            return materialize(config, level)

        def counted_candidates(grid, radii_list):
            calls["candidate_balls"] += 1
            return candidates(grid, radii_list)

        monkeypatch.setattr(harness, "materialize_level", counted_materialize)
        monkeypatch.setattr(harness, "candidate_balls", counted_candidates)
        cfg = self.all_suites_config()
        for _ in range(2):
            calls["materialize_level"].clear()
            calls["candidate_balls"] = 0
            run_config(cfg)
            assert sorted(calls["materialize_level"]) == [0, 1]
            assert 1 <= calls["candidate_balls"] <= cfg.refinements

    def test_balls_measured_once_per_level(self, monkeypatch):
        """On the 2D benchmark config the proposals reuse the level's oscillations."""
        calls = []
        measure = rieszvar.riesz.measure_balls

        def counted(f, w, candidates):
            calls.append(f.grid)
            return measure(f, w, candidates)

        for name, module in list(sys.modules.items()):
            if name.startswith("rieszvar") and getattr(module, "measure_balls", None) is measure:
                monkeypatch.setattr(module, "measure_balls", counted)
        path = ROOT / "perfbench" / "configs" / "verify_2d.json"
        cfg = load_config(json.loads(path.read_text()))
        assert "gd_equivalence" in cfg.suites
        run_config(cfg)
        assert len(calls) == len({id(g) for g in calls}) == cfg.refinements

    @staticmethod
    def count_balls(monkeypatch):
        """The list every Ball the packing module builds is appended to."""
        built = []

        class CountedBall(Ball):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(rieszvar.riesz, "Ball", CountedBall)
        return built

    def test_embedding_builds_no_balls(self, monkeypatch):
        """suite_embedding reads the packed candidates' arrays, with score_ball's bits."""
        built = self.count_balls(monkeypatch)
        path = ROOT / "perfbench" / "configs" / "verify_2d.json"
        ctx = RunContext(load_config(dict(json.loads(path.read_text()), suites=["embedding"])))
        rows = harness.suite_embedding(ctx)
        assert not built
        lvl = ctx.levels[0]
        grid, _, w, _ = lvl.fields
        w_total = float(w.values[grid.mask].sum() * grid.cell_volume())
        p1, p2 = ctx.config.p_values  # the config's one pair
        sol2 = lvl.packing(p2)
        total1 = math.fsum(score_ball(lvl.fields[1], w, b, p1) for b in sol2.collection)
        rhs = sol2.total ** (1.0 / p2) * w_total ** (1.0 / p1 - 1.0 / p2)
        assert [r.value for r in rows] == [rhs - total1 ** (1.0 / p1)]

    def test_riesz_var_table_builds_no_balls(self, monkeypatch):
        """table_riesz_var reads each packed ball's row off the scored candidate arrays."""
        built = self.count_balls(monkeypatch)
        path = ROOT / "perfbench" / "configs" / "verify_2d.json"
        rows = run_table(load_config(json.loads(path.read_text())), "riesz-var").rows
        assert not built
        assert [r for r in rows if r.quantity == "ball"]

    def test_each_region_gathered_once(self, monkeypatch):
        """Node sets come from index arithmetic, each level's values are built once.

        On both demo configs and the 2D benchmark config: no region_mask call
        for a cube at all, and none for a ball while the proposals build their
        PackingTerms; each level builds its cube family and its Lipschitz field
        at most once; gd_equivalence and varexp_sobolev both read the
        PackingTerms the proposals built, without gathering again."""
        cube_calls = [0]
        ball_calls = [0]

        def counted_mask(grid, region=None):
            if isinstance(region, Cube):
                cube_calls[0] += 1
            elif isinstance(region, Ball):
                ball_calls[0] += 1
            return region_mask(grid, region)

        for name, module in list(sys.modules.items()):
            if name.startswith("rieszvar") and getattr(module, "region_mask", None) is region_mask:
                monkeypatch.setattr(module, "region_mask", counted_mask)

        families = []  # grid of each CubeFamily built
        family_cls = weights.CubeFamily

        def counted_family(grid, cubes, provenance):
            families.append(grid)
            return family_cls(grid, cubes, provenance)

        fields = []  # f of each Lipschitz field built
        lipschitz = harness.lipschitz_field

        def counted_lipschitz(f, shell_radius):
            fields.append(f)
            return lipschitz(f, shell_radius)

        records = []  # (PackingTerms proposed in one call, Ball region_mask calls made)
        propose = harness.packing_proposals

        def counted_proposals(*args):
            before = ball_calls[0]
            built = propose(*args)
            records.append((built, ball_calls[0] - before))
            return built

        checked = {}  # check name -> (packings handed in, Ball region_mask calls made)

        def counted_check(name):
            check = getattr(harness, name)

            def counted(f, pfun, packings, **kwargs):
                before = ball_calls[0]
                rows = check(f, pfun, packings, **kwargs)
                checked.setdefault(name, []).append((list(packings), ball_calls[0] - before))
                return rows
            return counted

        monkeypatch.setattr(weights, "CubeFamily", counted_family)
        monkeypatch.setattr(harness, "lipschitz_field", counted_lipschitz)
        monkeypatch.setattr(harness, "packing_proposals", counted_proposals)
        for name in ("gd_equivalence_check", "varexp_sobolev_equivalence"):
            monkeypatch.setattr(harness, name, counted_check(name))
        paths = [ROOT / "demos" / "configs" / "theorem1_linear.json",
                 ROOT / "demos" / "configs" / "weak_type_hat.json",
                 ROOT / "perfbench" / "configs" / "verify_2d.json"]
        for path in paths:
            cube_calls[0] = 0
            for seen in (families, fields, records, checked):
                seen.clear()
            cfg = load_config(json.loads(path.read_text()))
            run_config(cfg)
            assert cube_calls[0] == 0
            assert families and len({id(g) for g in families}) == len(families)
            assert len(fields) == 1
            if "gd_equivalence" not in cfg.suites:
                assert not records and not checked
                continue
            assert len(records) == cfg.refinements
            assert all(terms and calls == 0 for terms, calls in records)
            built = [t for terms, _ in records for t in terms]
            assert sorted(checked) == ["gd_equivalence_check", "varexp_sobolev_equivalence"]
            for calls in checked.values():
                assert len(calls) == cfg.refinements
                assert [p for packings, _ in calls for p in packings] == built
                assert all(gathered == 0 for _, gathered in calls)

    def test_gradient_once_per_level(self, monkeypatch):
        """theorem1 and the sobolev table read one |grad f| per level, for every p."""
        fields = []
        gradient = harness.gradient_magnitude

        def counted(f):
            fields.append(f)
            return gradient(f)

        monkeypatch.setattr(harness, "gradient_magnitude", counted)
        cfg = load_config(json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text()))
        assert len(cfg.p_values) > 1 and cfg.refinements > 1
        ctx = RunContext(cfg)
        verify_theorem1(ctx)
        harness.table_sobolev(ctx)
        assert len(fields) == cfg.refinements

    def test_runtime_ms_is_float_milliseconds(self):
        """A table's first row carries its wall time in ms, rounded to 3 decimals."""
        cfg = load_config(json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text()))
        first, *rest = run_table(cfg, "sobolev").rows
        assert isinstance(first.runtime_ms, float) and first.runtime_ms > 0.0
        assert first.runtime_ms == round(first.runtime_ms, 3)
        assert rest and all(r.runtime_ms == 0.0 for r in rest)

    def test_failing_value_is_not_cached(self):
        suites = ["theorem1", "lemma21", "rh_exists", "morrey"]
        cfg = load_config(minimal_config(
            suites=suites, p_values=[2.0, 3.0], refinements=2,
            cubes={"min_side": 1 / 512},
        ))
        message = "min_side 0.001953125 is below the grid spacing 0.00390625"
        rows = run_config(cfg).rows
        assert [(r.experiment, r.quantity, r.params, r.status) for r in rows] == [
            (suite, "error", params_string(message=message), "error") for suite in suites
        ]
        assert all(np.isnan(r.value) and np.isnan(r.tolerance) for r in rows)


class TestReportEmission:
    def sample_report(self):
        rows = (
            ReportRow("exp", "value", "p=2.0", 1.5, 0.1, "pass", 12),
            ReportRow("exp", "other", "", float("inf"), float("nan"), "info", 0),
        )
        return Report(rows=rows, config_hash="abc", seed=7)

    def test_csv_layout(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "report.csv"
        emit_report(report, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,quantity,params,value,tolerance,status,runtime_ms"
        assert len(lines) == 3

    def test_json_round_trip(self):
        report = self.sample_report()
        back = report_from_json(report_to_json(report))
        assert back.rows[0] == report.rows[0]
        assert back.seed == report.seed and back.config_hash == report.config_hash

    def test_emit_deterministic_bytes(self, tmp_path):
        report = self.sample_report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, p1, "csv")
        emit_report(report, p2, "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(self.sample_report(), tmp_path / "nodir" / "x.csv", "csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self.sample_report(), tmp_path / "x.xml", "xml")

    def test_bytes_match_asdict_records(self):
        """CSV and JSON bytes equal those of the asdict-based records rows once went through."""
        cfg = json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text())
        report = run_config(load_config(cfg))
        report = Report(rows=report.rows + self.sample_report().rows,
                        config_hash=report.config_hash, seed=report.seed)
        payload = {
            "metadata": {"version": report.version, "config_hash": report.config_hash,
                         "seed": report.seed},
            "rows": [dataclasses.asdict(r) for r in report.rows],
        }
        assert report_to_json(report) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in report.rows:
            writer.writerow(dict(dataclasses.asdict(r), value=repr(float(r.value)),
                                 tolerance=repr(float(r.tolerance))))
        assert report_to_csv(report) == buf.getvalue()

    def test_version_from_package(self):
        payload = json.loads(report_to_json(self.sample_report()))
        assert payload["metadata"]["version"] == rieszvar.__version__ == "0.1.0"


class TestFileBasedFields:
    def test_function_from_grid_file(self, tmp_path):
        g = build_grid(1, [0.0], 1 / 256, [257])
        f = sample_catalog(g, "sinusoid", {"freq": 1.0})
        path = tmp_path / "f.grid"
        write_field(path, f)
        cfg = load_config(minimal_config(function={"file": str(path)}))
        grid, fld, w, _ = materialize_level(cfg)
        assert np.array_equal(fld.values, f.values)
        assert w.grid is grid

    def test_mismatched_file_grid_rejected(self, tmp_path):
        g = build_grid(1, [0.0], 1 / 128, [129])
        write_field(tmp_path / "f.grid", sample_catalog(g, "linear"))
        cfg = load_config(minimal_config(function={"file": str(tmp_path / "f.grid")}))
        with pytest.raises(ConfigError):
            materialize_level(cfg)

    def test_weight_file_on_other_nodes_is_an_error_row(self, tmp_path):
        shifted = build_grid(1, [5.0], 1 / 256, [257])  # same shape, on [5, 6]
        write_field(tmp_path / "w.grid", sample_catalog(shifted, "constant"))
        cfg = load_config(minimal_config(
            weight={"file": str(tmp_path / "w.grid")}, suites=["theorem1", "lemma21"],
        ))
        message = "weight.file: file grid does not match the configured grid"
        assert [(r.experiment, r.params, r.status) for r in run_config(cfg).rows] == [
            (suite, params_string(message=message), "error") for suite in cfg.suites
        ]

    def test_exponent_from_file(self, tmp_path):
        g = build_grid(1, [0.0], 1 / 256, [257])
        pvals = sample_catalog(g, "linear", {"slope": 1.0, "intercept": 2.0})
        path = tmp_path / "p.grid"
        write_field(path, pvals)
        cfg = load_config(minimal_config(exponent={"file": str(path)}))
        _, _, _, pfun = materialize_level(cfg)
        assert pfun.p_minus == pytest.approx(2.0)
        assert pfun.p_plus == pytest.approx(3.0)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(**overrides)))
        return str(path)

    def test_catalog_lists_families(self):
        result = run_cli(["catalog"])
        assert result.exit_code == 0
        for name in ("linear", "power_weight", "step_exponent"):
            assert name in result.output

    def run_json(self, command, cfg):
        result = run_cli([command, "--config", cfg, "--format", "json"])
        return result, report_from_json(result.output)

    def test_weights_csv_columns(self, tmp_path):
        cfg = self.write_config(tmp_path)
        result = run_cli(["weights", "--config", cfg])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == ",".join(CSV_COLUMNS)
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [r["quantity"] for r in rows] == ["ap", "a1"] + ["rh"] * 4 + ["rw", "doubling"]
        assert all(r["experiment"] == "weights" and r["status"] == "info" for r in rows)
        assert "family='shifted_dyadic';levels=4;p=2.0" == rows[0]["params"]
        assert "at_max=False" in rows[-2]["params"]

    def test_riesz_var_json_object(self, tmp_path):
        cfg = self.write_config(tmp_path)
        result, report = self.run_json("riesz-var", cfg)
        assert result.exit_code == 0
        rows = {r.quantity: r for r in report.rows}
        assert rows["variation"].value == pytest.approx(2.0, rel=0.05)
        assert rows["total"].params == rows["variation"].params
        for key in ("p=2.0", "method='dp_1d_exact'", "h=0.00390625", "radii=("):
            assert key in rows["variation"].params
        balls = [r for r in report.rows if r.quantity == "ball"]
        assert len(balls) == rows["n_balls"].value > 0
        assert rows["total"].value == pytest.approx(sum(b.value for b in balls))
        for key in ("center=[", "radius=", "osc=", "mass="):
            assert key in balls[0].params
        assert "np." not in result.output

    def test_sobolev_json(self, tmp_path):
        cfg = self.write_config(tmp_path)
        result, report = self.run_json("sobolev", cfg)
        assert result.exit_code == 0
        rows = {r.quantity: r.value for r in report.rows}
        assert rows["total"] == pytest.approx(rows["lp"] + rows["grad_lp"])

    def test_varexp_requires_exponent(self, tmp_path):
        cfg = self.write_config(tmp_path)
        result = run_cli(["varexp", "--config", cfg])
        assert result.exit_code == 2
        assert result.output.splitlines()[1].startswith("varexp,error,")

    @pytest.mark.parametrize("command", list(TABLES))
    def test_every_table_prints_the_report_csv(self, tmp_path, command):
        cfg = self.write_config(
            tmp_path, exponent={"catalog": "affine", "params": {"intercept": 3.0, "slope": 1.0}})
        result = run_cli([command, "--config", cfg, "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("command", list(TABLES) + ["verify"])
    def test_every_subcommand_json_parses(self, tmp_path, command):
        cfg = self.write_config(
            tmp_path, exponent={"catalog": "affine", "params": {"intercept": 3.0, "slope": 1.0}})
        result, report = self.run_json(command, cfg)
        assert result.exit_code == 0
        assert report.rows and {r.status for r in report.rows} <= {"pass", "info"}

    def test_weights_error_is_one_row(self):
        """weak_type_hat asks for p = 1, where A_p is undefined: one error row, exit 2."""
        cfg = str(ROOT / "demos" / "configs" / "weak_type_hat.json")
        result = run_cli(["weights", "--config", cfg])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        (row,) = list(csv.DictReader(io.StringIO(result.output)))
        assert (row["experiment"], row["quantity"], row["status"]) == ("weights", "error", "error")
        assert row["params"] == params_string(message="A_p requires p > 1, got 1.0")

    def test_tables_read_the_verify_level_context(self):
        raw = json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text())
        cfg = load_config(raw)
        theorem1 = [r.value for r in run_config(cfg).rows
                    if r.quantity == "variation" and "level=0" in r.params]
        table = [r.value for r in run_table(cfg, "riesz-var").rows if r.quantity == "variation"]
        assert theorem1 == table and len(table) == len(cfg.p_values)

    def test_verify_pass_exit_zero(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        result = run_cli(["verify", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0
        assert out.exists()

    @pytest.mark.parametrize("out", [False, True])
    def test_unknown_format_in_config_is_rejected(self, tmp_path, out):
        cfg = self.write_config(tmp_path, format="xml")
        args = ["sobolev", "--config", cfg] + (["--out", str(tmp_path / "r.xml")] if out else [])
        result = run_cli(args)
        assert result.exit_code == 1
        assert "format: report format must be 'csv' or 'json', got 'xml'" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not (tmp_path / "r.xml").exists()

    @staticmethod
    def assert_one_error_line(result):
        assert result.exit_code == 1 and result.exception is None
        assert len(result.output.splitlines()) == 1 and result.output.startswith("Error: ")

    def test_out_in_missing_directory_is_an_error_line(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "missing" / "r.csv"
        self.assert_one_error_line(run_cli(["verify", "--config", cfg, "--out", str(out)]))
        assert not out.parent.exists()

    def test_config_not_utf8_is_an_error_line(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{")
        self.assert_one_error_line(run_cli(["verify", "--config", str(cfg)]))

    def test_verify_fail_exit_nonzero(self, tmp_path):
        cfg = self.write_config(tmp_path, thresholds={"bound_thm1": 1.0001})
        result = run_cli(["verify", "--config", cfg])
        assert result.exit_code == 1

    @pytest.mark.parametrize("name, code", [("theorem1_linear", 0), ("weak_type_hat", 2)])
    def test_verify_exit_status_of_demo_configs(self, name, code):
        """0 without fail or error rows; 2 with an error row (weak_type_hat's lemma21)."""
        cfg = str(ROOT / "demos" / "configs" / f"{name}.json")
        result = run_cli(["verify", "--config", cfg])
        assert result.exit_code == code
        assert (",error," in result.output) == (code == 2)

    def test_verify_json_out(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.json"
        result = run_cli(["verify", "--config", cfg, "--out", str(out), "--format", "json"])
        assert result.exit_code == 0
        parsed = report_from_json(out.read_text())
        assert parsed.rows

    def test_seed_override_recorded(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.json"
        run_cli(["verify", "--config", cfg, "--out", str(out), "--format", "json",
                 "--seed", "99"])
        assert report_from_json(out.read_text()).seed == 99

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOLKIT_THREADS", "4")
        cfg = self.write_config(tmp_path)
        result = run_cli(["sobolev", "--config", cfg])
        assert result.exit_code == 0

    def test_threads_is_a_no_op(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOLKIT_THREADS", "many")
        cfg = self.write_config(tmp_path)
        result = run_cli(["sobolev", "--config", cfg])
        assert result.exit_code == 0

    @pytest.mark.parametrize("command", [[], ["catalog"], ["verify"], *([name] for name in TABLES)],
                             ids=lambda command: "_".join(["toolkit", *command]))
    def test_help_exits_zero(self, command):
        """argparse %-formats help texts, so each one, table docstrings included, must render."""
        result = run_cli([*command, "--help"])
        assert result.exit_code == 0
        assert result.output.startswith(" ".join(["usage: toolkit", *command]))

    def test_usage_errors_exit_2(self, tmp_path):
        """No subcommand, a missing config file or an unknown --format is a usage error."""
        cfg = self.write_config(tmp_path)
        for args in ([], ["verify", "--config", str(tmp_path / "missing.json")],
                     ["verify", "--config", cfg, "--format", "xml"]):
            result = run_cli(args)
            assert result.exit_code == 2, (args, result.output)
            assert "usage: toolkit" in result.output and "Traceback" not in result.output


def test_runs_do_not_import_numpy_ma():
    """numpy.ma (pulled in by np.unique, for one) adds about 1.7 MB peak RSS to every run."""
    configs = [ROOT / "demos" / "configs" / "theorem1_linear.json",
               ROOT / "demos" / "configs" / "weak_type_hat.json",
               ROOT / "perfbench" / "configs" / "verify_2d.json"]
    script = (
        "import json, sys\n"
        "from rieszvar.config import load_config\n"
        "from rieszvar.harness import run_config\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path) as fh:\n"
        "        run_config(load_config(json.load(fh)))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, *map(str, configs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_imports_no_third_party_module_but_numpy():
    """Every ``toolkit`` process imports ``rieszvar.cli``; it pays for nothing outside
    the standard library but numpy. Modules that site hooks load first are not counted."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rieszvar.cli\n"
        "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "extra = top - set(sys.stdlib_module_names) - {'numpy', 'rieszvar'}\n"
        "assert not extra, sorted(extra)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
