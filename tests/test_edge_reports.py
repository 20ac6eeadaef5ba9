"""``verify`` reports on configs that reach the degenerate and skipped rows, pinned.

Each ``tests/data/edge/<name>.json`` is ``demos/configs/theorem1_linear.json``
with one change, and ``<name>.verify.csv`` its ``verify`` report with the
``runtime_ms`` column dropped:

- ``flat``: slope 0 and p = 3 on all ten suites, so both sides of every
  ratio vanish (theorem1 ``ratio_skipped``, the zero-gradient morrey
  ``C_hat``, a morrey ``stability`` row of two zero constants);
- ``zero_node``: the weight |x - 0.5| vanishes at a node, so A_p is
  infinite (lemma21 ``skipped_infinite_ap``) and the r_w search stops at
  its cap (theorem1 ``rw_at_max``, morrey ``skipped_precondition``);
- ``no_exponent``: no exponent section (``skipped_no_exponent``).

Numeric warnings are errors here, as in every Tier-1 test and in the CI
step that runs the installed script.
"""

import json
import math
from pathlib import Path

import pytest

from rieszvar.config import load_config
from rieszvar.harness import run_config

from test_reports_2d import CONFIG, _matches_recorded

ROOT = Path(__file__).resolve().parents[1]
EDGE = Path(__file__).resolve().parent / "data" / "edge"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["flat", "zero_node", "no_exponent"])
def test_edge_report_matches_recorded(name):
    _matches_recorded("verify", EDGE / f"{name}.json", name, data=EDGE)


@pytest.mark.parametrize("path, p", [
    (ROOT / "demos" / "configs" / "theorem1_linear.json", 3.0),
    (CONFIG, 3.5),
])
def test_constant_exponent_gd_ratio_is_one(path, p):
    """With p(.) = p, ||G_D f||_p equals the RBV_D norm of every packing.

    Packed balls share no node and ||1_B||_p = |B|^{1/p}, so both sides are
    (sum_B (osc_B / r_B)^p |B|)^{1/p}; only the two Luxemburg bisections differ.
    """
    raw = dict(json.loads(path.read_text()), exponent={"constant": p}, suites=["gd_equivalence"])
    rows = [r for r in run_config(load_config(raw)).rows
            if r.quantity in ("ratio", "ratio_min", "ratio_max")]
    assert rows
    for r in rows:
        assert math.isclose(r.value, 1.0, rel_tol=0.0, abs_tol=1e-9), r
