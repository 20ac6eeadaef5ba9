"""The CSV reports of ``verify`` and every table subcommand on the demo configs, pinned.

Each ``tests/data/<config>.<subcommand>.csv`` is the output of
``toolkit <subcommand> --config demos/configs/<config>.json --format csv``
with the ``runtime_ms`` column dropped, and each run exits with the code
its pinned rows imply. Rows are judged by ``compare_reports.py``, the
comparator CI runs on the installed script's reports: experiment, quantity,
params, tolerance and status match exactly, values as text or to 1e-9
relative.
"""

import csv
import json
from pathlib import Path

import pytest

from rieszvar.harness import TABLES

from compare_reports import first_difference
from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
CONFIGS = sorted(p.stem for p in (ROOT / "demos" / "configs").glob("*.json"))
SUBCOMMANDS = ["verify", *TABLES]


def _assert_pinned(output, path):
    """The CSV ``output`` matches the pinned report at ``path`` by ``compare_reports``'s rule."""
    message = first_difference(output, path.read_text())
    assert message is None, message


def _pinned_exit_code(path):
    """The exit code the rows of the pinned report at ``path`` imply: 2 with an error
    row, else 1 with a fail row, else 0."""
    statuses = {row["status"] for row in csv.DictReader(path.read_text().splitlines())}
    return 2 if "error" in statuses else 1 if "fail" in statuses else 0


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_recorded(config, subcommand):
    cfg = ROOT / "demos" / "configs" / f"{config}.json"
    pinned = DATA / f"{config}.{subcommand}.csv"
    result = run_cli([subcommand, "--config", str(cfg), "--format", "csv"])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    _assert_pinned(result.output, pinned)
    assert result.exit_code == _pinned_exit_code(pinned)


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
