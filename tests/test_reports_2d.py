"""The ``verify`` and every table report on the 2D benchmark config, pinned.

Each ``tests/data/verify_2d/verify_2d.<subcommand>.csv`` is the output of
``toolkit <subcommand> --config perfbench/configs/verify_2d.json --format csv``
with the ``runtime_ms`` column dropped, compared under the rules of
``test_reports.py``. This is the config on which the A_p bisection, the
cube constants and the variable-exponent checks do real work. Its
``morrey`` params hold numpy 2 scalar reprs (``np.float64(0.0)``), so the
``verify`` file must be re-recorded once params print plain floats.

``verify_2d_auto.<subcommand>.csv`` pins ``riesz-var`` and ``verify`` on
the same config with ``"method": "auto"``, where the 2D packings run
local search on the stencil conflict lists of 625-1466 candidates.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from rieszvar.harness import TABLES

from conftest import run_cli
from test_reports import _same_value

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "verify_2d"
CONFIG = ROOT / "perfbench" / "configs" / "verify_2d.json"


def _matches_recorded(subcommand, config, name, data=DATA):
    result = run_cli([subcommand, "--config", str(config), "--format", "csv"])
    assert result.exit_code == 0, result.output
    got = list(csv.DictReader(io.StringIO(result.output)))
    want = list(csv.DictReader((data / f"{name}.{subcommand}.csv").open()))
    exact = ["experiment", "quantity", "params", "tolerance", "status"]
    assert [[r[k] for k in exact] for r in got] == [[r[k] for k in exact] for r in want]
    for g, w in zip(got, want):
        assert _same_value(g["value"], w["value"]), (g, w)


@pytest.mark.parametrize("subcommand", ["verify", *TABLES])
def test_2d_report_matches_recorded(subcommand):
    _matches_recorded(subcommand, CONFIG, "verify_2d")


@pytest.mark.parametrize("subcommand", ["verify", "riesz-var"])
def test_2d_local_search_report_matches_recorded(subcommand, tmp_path):
    config = tmp_path / "verify_2d_auto.json"
    config.write_text(json.dumps({**json.loads(CONFIG.read_text()), "method": "auto"}))
    _matches_recorded(subcommand, config, "verify_2d_auto")
