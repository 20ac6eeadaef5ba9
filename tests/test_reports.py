"""The CSV reports of ``verify`` and every table subcommand on the demo configs, pinned.

Each ``tests/data/<config>.<subcommand>.csv`` is the output of
``toolkit <subcommand> --config demos/configs/<config>.json --format csv``
with the ``runtime_ms`` column dropped. Experiment, quantity, params,
tolerance and status must match exactly, values to 1e-9 relative.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from rieszvar.harness import TABLES

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
CONFIGS = sorted(p.stem for p in (ROOT / "demos" / "configs").glob("*.json"))
SUBCOMMANDS = ["verify", *TABLES]


def _same_value(a, b):
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y or math.isclose(x, y, rel_tol=1e-9, abs_tol=0.0)


def _assert_pinned(output, path):
    """The CSV ``output`` matches the pinned report at ``path``."""
    got = list(csv.DictReader(io.StringIO(output)))
    want = list(csv.DictReader(path.open()))
    exact = ["experiment", "quantity", "params", "tolerance", "status"]
    assert [[r[k] for k in exact] for r in got] == [[r[k] for k in exact] for r in want]
    for g, w in zip(got, want):
        assert _same_value(g["value"], w["value"]), (g, w)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_recorded(config, subcommand):
    cfg = ROOT / "demos" / "configs" / f"{config}.json"
    result = run_cli([subcommand, "--config", str(cfg), "--format", "csv"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    _assert_pinned(result.output, DATA / f"{config}.{subcommand}.csv")


@pytest.mark.parametrize("extra", [0.125, 1e300], ids=["repeated", "too_large"])
def test_radius_without_candidates_changes_no_row(extra, tmp_path):
    """A repeated radius, or one too large for the domain, adds no candidate ball: the
    verify report is the pinned one."""
    raw = json.loads((ROOT / "demos" / "configs" / "theorem1_linear.json").read_text())
    raw["radii"] = raw["radii"] + [extra]
    cfg = tmp_path / "theorem1_linear.json"
    cfg.write_text(json.dumps(raw))
    result = run_cli(["verify", "--config", str(cfg), "--format", "csv"])
    assert result.exit_code == 0, result.output
    _assert_pinned(result.output, DATA / "theorem1_linear.verify.csv")


def test_every_demo_config_is_pinned():
    assert len(CONFIGS) == 2
    assert sorted(p.name for p in DATA.glob("*.csv")) == sorted(
        f"{c}.{s}.csv" for c in CONFIGS for s in SUBCOMMANDS
    )
