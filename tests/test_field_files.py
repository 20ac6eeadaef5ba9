"""Function, weight and exponent files follow one rule set.

A file that is missing, is not UTF-8, places other nodes than the configured
grid, or is asked for at a refined level costs error rows whose message names
the spec (``<kind>.file:``), never a traceback; a file holding the catalog
values on the configured nodes reports exactly as the catalog spec does.
"""

import ast
import csv
import io
import json
from pathlib import Path

import pytest

from rieszvar import build_grid, exponent_catalog, sample_catalog, write_field

from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
BASE = json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text())
GRID = build_grid(1, [0.0], 1 / 256, [257])  # BASE's grid
KINDS = ("function", "weight", "exponent")


def catalog_file(tmp_path, kind, grid=GRID):
    """BASE's ``kind`` spec sampled on ``grid`` and written as a grid file."""
    spec = BASE[kind]
    sample = exponent_catalog if kind == "exponent" else sample_catalog
    path = tmp_path / f"{kind}.grid"
    write_field(path, sample(grid, spec["catalog"], spec["params"]))
    return path


def not_utf8(tmp_path, kind):
    path = tmp_path / f"{kind}.grid"
    path.write_bytes(b"\xff\xfe{")
    return path


# failure -> (file writer, config overrides, suites that give the error rows)
FAILURES = {
    "missing": (lambda tmp_path, kind: tmp_path / "missing.grid",
                {"refinements": 1}, BASE["suites"]),
    "not_utf8": (not_utf8, {"refinements": 1}, BASE["suites"]),
    "other_nodes": (lambda tmp_path, kind: catalog_file(
        tmp_path, kind, build_grid(1, [0.0], 1 / 8, [9])), {"refinements": 1}, BASE["suites"]),
    "refined": (catalog_file, {"refinements": 2},
                ["theorem1", "gd_equivalence", "varexp_sobolev"]),
}


def run(tmp_path, command, kind, spec, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, **{kind: spec}, **overrides)))
    return run_cli([command, "--config", str(path)])


def rows(output):
    """The report's CSV rows without ``runtime_ms``."""
    return [{k: v for k, v in r.items() if k != "runtime_ms"}
            for r in csv.DictReader(io.StringIO(output))]


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("kind", KINDS)
def test_file_failure_is_error_rows(tmp_path, kind, failure):
    write, overrides, suites = FAILURES[failure]
    result = run(tmp_path, "verify", kind, {"file": str(write(tmp_path, kind))}, **overrides)
    assert result.exit_code == 2 and result.exception is None
    errors = [r for r in rows(result.output) if r["status"] == "error"]
    assert [r["experiment"] for r in errors] == suites
    for r in errors:
        assert r["params"].startswith("message=")
        assert ast.literal_eval(r["params"].removeprefix("message=")).startswith(f"{kind}.file: ")


@pytest.mark.parametrize("command", ["verify", "varexp"])
@pytest.mark.parametrize("kind", KINDS)
def test_file_of_catalog_values_reports_as_the_catalog(tmp_path, kind, command):
    by_file = run(tmp_path, command, kind, {"file": str(catalog_file(tmp_path, kind))},
                  refinements=1)
    by_catalog = run(tmp_path, command, kind, BASE[kind], refinements=1)
    assert by_file.exit_code == by_catalog.exit_code == 0
    assert rows(by_file.output) == rows(by_catalog.output)
