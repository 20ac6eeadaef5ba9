"""Metamorphic laws: rows of a report on a mapped problem are known functions of the original's.

Amplitude f -> c f with c = 2: the variation, the gradient norms and the
Hölder gap scale by c; every ratio and every weight-only row stays. Each
p of the shipped configs (and p_minus of their exponents) is an integer,
so every score scales by the exact power c^p and no packing changes.
"""

import math
from pathlib import Path

import pytest

from rieszvar import SampledField, harness
from rieszvar.config import load_config_file, materialize_level

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = [
    ROOT / "demos" / "configs" / "theorem1_linear.json",
    ROOT / "demos" / "configs" / "weak_type_hat.json",
    ROOT / "perfbench" / "configs" / "verify_2d.json",
]
C = 2.0

# Rows that scale by |c|; the rest of these experiments' rows stay.
SCALED = {
    ("theorem1", "variation"),
    ("theorem1", "grad_norm"),
    ("embedding", "holder_gap"),
    ("varexp_sobolev", "rbv_seminorm"),
    ("varexp_sobolev", "grad_luxemburg"),
}
INVARIANT = {"theorem1", "morrey", "mollify_bound", "gd_equivalence", "varexp_sobolev",
             "lemma21", "rh_exists"}
# The Luxemburg bisection stops at 1e-10 relative.
VARIABLE_EXPONENT = {"gd_equivalence", "varexp_sobolev"}


def _law(r):
    """The factor a row's value takes under f -> c f, or None for a row with no such law.

    Weak-type K(t), the differentiability fractions and drift rows carry none.
    """
    if r.experiment in ("weak_type", "differentiability") or r.quantity.endswith("_drift"):
        return None
    if (r.experiment, r.quantity) in SCALED:
        return C
    assert r.experiment in INVARIANT, f"no amplitude law for {r.experiment},{r.quantity}"
    return 1.0


def _amplified(config, level):
    grid, f, w, pfun = materialize_level(config, level)
    return grid, SampledField(grid, C * f.values, f.kind), w, pfun


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_amplitude(path, monkeypatch):
    config = load_config_file(path)
    base = harness.run_config(config).rows
    monkeypatch.setattr(harness, "materialize_level", _amplified)
    mapped = harness.run_config(config).rows
    assert [(r.experiment, r.quantity) for r in mapped] == [
        (r.experiment, r.quantity) for r in base]
    checked = 0
    for a, b in zip(base, mapped):
        factor = _law(a)
        if factor is None:
            continue
        checked += 1
        where = f"{a.experiment},{a.quantity},{a.params}"
        assert (b.params, b.status) == (a.params, a.status), where
        rel = 1e-9 if a.experiment in VARIABLE_EXPONENT else 1e-12
        if math.isnan(a.value):
            assert math.isnan(b.value), where
        else:
            assert b.value == pytest.approx(factor * a.value, rel=rel, abs=0.0), where
    assert checked
