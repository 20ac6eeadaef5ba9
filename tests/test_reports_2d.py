"""The ``verify`` and every table report on the 2D benchmark config, pinned.

Each ``tests/data/verify_2d/verify_2d.<subcommand>.csv`` is the output of
``toolkit <subcommand> --config perfbench/configs/verify_2d.json --format csv``
with the ``runtime_ms`` column dropped, judged by ``compare_reports.py``
as in ``test_reports.py``. This is the config on which the A_p bisection, the
cube constants and the variable-exponent checks do real work. Its
``morrey`` params hold numpy 2 scalar reprs (``np.float64(0.0)``), so the
``verify`` file must be re-recorded once params print plain floats.

``verify_2d_auto.<subcommand>.csv`` pins ``riesz-var`` and ``verify`` on
the same config with ``"method": "auto"``, where the 2D packings run
local search on the stencil conflict lists of 625-1466 candidates.

Two variants of the config must give clean reports: a constant exponent
3.5, and a weight that vanishes at the node (0, 0), where the r_w search
stops at its cap.
"""

import json
from pathlib import Path

import pytest

from rieszvar.harness import TABLES

from conftest import run_cli
from test_reports import _assert_pinned

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "verify_2d"
CONFIG = ROOT / "perfbench" / "configs" / "verify_2d.json"
RAW = json.loads(CONFIG.read_text())
VARIANTS = {
    "constant_exponent": {"exponent": {"constant": 3.5}},
    # The power weight centred on the node (0, 0) vanishes there, so A_q is
    # infinite at every q and the r_w search stops at its cap.
    "zero_node": {"weight": {**RAW["weight"],
                             "params": {**RAW["weight"]["params"], "center": [0.0, 0.0]}}},
}


def _matches_recorded(subcommand, config, name, data=DATA):
    result = run_cli([subcommand, "--config", str(config), "--format", "csv"])
    assert result.exit_code == 0, result.output
    _assert_pinned(result.output, data / f"{name}.{subcommand}.csv")


@pytest.mark.parametrize("subcommand", ["verify", *TABLES])
def test_2d_report_matches_recorded(subcommand):
    _matches_recorded(subcommand, CONFIG, "verify_2d")


@pytest.mark.parametrize("subcommand", ["verify", "riesz-var"])
def test_2d_local_search_report_matches_recorded(subcommand, tmp_path):
    config = tmp_path / "verify_2d_auto.json"
    config.write_text(json.dumps({**RAW, "method": "auto"}))
    _matches_recorded(subcommand, config, "verify_2d_auto")


@pytest.mark.parametrize("variant, subcommand, row", [
    ("constant_exponent", "verify", "gd_equivalence,"),
    ("constant_exponent", "varexp", "varexp,"),
    ("zero_node", "weights", "weights,rw,at_max=True;"),
    ("zero_node", "verify", "theorem1,rw_at_max,"),
], ids=["constant_exponent-verify", "constant_exponent-varexp", "zero_node-weights",
        "zero_node-verify"])
def test_2d_variant_exits_zero(variant, subcommand, row, tmp_path):
    """The 2D config with a constant exponent, or with a weight that vanishes at a node,
    gives a clean report (exit 0) holding a row that starts with ``row``."""
    config = tmp_path / f"{variant}.json"
    config.write_text(json.dumps({**RAW, **VARIANTS[variant]}))
    result = run_cli([subcommand, "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert any(line.startswith(row) for line in result.output.splitlines()), result.output
