"""The CSV reports of ``verify`` and every table subcommand on the demo configs, pinned.

Each ``tests/data/<config>.<subcommand>.csv`` is the output of
``toolkit <subcommand> --config demos/configs/<config>.json --format csv``
with the ``runtime_ms`` column dropped. Experiment, quantity, params,
tolerance and status must match exactly, values to 1e-9 relative.
"""

import csv
import io
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


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_recorded(config, subcommand):
    cfg = ROOT / "demos" / "configs" / f"{config}.json"
    result = run_cli([subcommand, "--config", str(cfg), "--format", "csv"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    got = list(csv.DictReader(io.StringIO(result.output)))
    want = list(csv.DictReader((DATA / f"{config}.{subcommand}.csv").open()))
    exact = ["experiment", "quantity", "params", "tolerance", "status"]
    assert [[r[k] for k in exact] for r in got] == [[r[k] for k in exact] for r in want]
    for g, w in zip(got, want):
        assert _same_value(g["value"], w["value"]), (g, w)


def test_every_demo_config_is_pinned():
    assert len(CONFIGS) == 2
    assert sorted(p.name for p in DATA.glob("*.csv")) == sorted(
        f"{c}.{s}.csv" for c in CONFIGS for s in SUBCOMMANDS
    )
