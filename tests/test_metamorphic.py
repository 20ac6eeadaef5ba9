"""Metamorphic laws: rows of a report on a mapped problem are known functions of the original's.

Amplitude f -> c f with c = 2: the variation, the gradient norms and the
Hölder gap scale by c; every ratio and every weight-only row stays. Each
p of the shipped configs (and p_minus of their exponents) is an integer,
so every score scales by the exact power c^p and no packing changes.

Translation by t = 1 on every axis (bounds, catalog centres and step
bounds move by t, linear and affine intercepts by -slope . t): every row
stays, and a position in the params moves by t. On these dyadic grids
every node coordinate and field value is exact.

Weight scaling w -> 4 w: the theorem1 variation and gradient norm scale
by 4^(1/p) and the Hölder gap by 4^(1/p1); every other row stays, since
each is a ratio of two weighted quantities or does not read the weight.

Dilation x -> 2 x of theorem1_linear (bounds, h, radii and cube sides
doubled, f(x/2) and p(x/2) by halved slopes, a constant weight): each
score (osc/r)^p w(B) scales by 2^(n - p), so the theorem1 variation and
gradient norm scale by 2^(n/p - 1) and the Hölder gap by 2^(n/p1 - 1);
the theorem1 ratios, lemma21 and rh_exists stay, and the ``h`` param
doubles. The variable-exponent rows (gd_equivalence, varexp_sobolev) have
no dilation law: their modular sums (osc/r)^p(x) with p varying, so they
are skipped, as are the differentiability fractions (the gradient halves)
and the drift rows.
"""

import ast
import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rieszvar import SampledField, harness
from rieszvar.config import load_config, load_config_file, materialize_level

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


def _params(text):
    """A row's params string as a {key: value string} dict."""
    return dict(kv.split("=", 1) for kv in text.split(";")) if text else {}


def _close(got, want, rel):
    return (math.isnan(got) and math.isnan(want)) or got == pytest.approx(want, rel=rel, abs=0.0)


def _assert_rows_follow(base, mapped, law, param_laws=None):
    """Row by row, ``mapped`` is ``base`` under ``law`` (row -> value factor, or None).

    Params match exactly, except the keys of ``param_laws(row)``, which name
    computed values: each maps to a test ``(base text, mapped text, rel) -> bool``.
    """
    assert [(r.experiment, r.quantity) for r in mapped] == [
        (r.experiment, r.quantity) for r in base]
    checked = 0
    for a, b in zip(base, mapped):
        factor = law(a)
        if factor is None:
            continue
        checked += 1
        where = f"{a.experiment},{a.quantity},{a.params}"
        rel = 1e-9 if a.experiment in VARIABLE_EXPONENT else 1e-12
        laws = param_laws(a) if param_laws else {}
        pa, pb = _params(a.params), _params(b.params)
        assert pa.keys() == pb.keys(), where
        for key in pa:
            if key in laws:
                assert laws[key](pa[key], pb[key], rel), (where, key, pb[key])
            else:
                assert pb[key] == pa[key], (where, key)
        assert b.status == a.status, where
        assert _close(b.value, factor * a.value, rel), (where, b.value)
    assert checked


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_amplitude(path, monkeypatch):
    config = load_config_file(path)
    base = harness.run_config(config).rows
    monkeypatch.setattr(harness, "materialize_level", _amplified)
    mapped = harness.run_config(config).rows
    _assert_rows_follow(base, mapped, _law)


T = 1.0
# The intercept each catalog takes when the config gives none.
INTERCEPT = {"linear": 0.0, "affine": 2.0}
RADIAL = {"hat", "bump", "power_weight", "power_abs"}


def _translated_spec(spec, dim):
    """A catalog spec sampled at x - T: the same field moved by T on every axis."""
    name, params = spec["catalog"], spec.setdefault("params", {})
    if name in INTERCEPT:
        slope = np.broadcast_to(params.get("slope", 1.0), (dim,))
        params["intercept"] = params.get("intercept", INTERCEPT[name]) - float(slope.sum()) * T
    elif name in RADIAL:
        params["center"] = (np.broadcast_to(params.get("center", 0.0), (dim,)) + T).tolist()
    elif name == "step_weight":
        params["lo"], params["hi"] = params.get("lo", 0.0) + T, params.get("hi", 0.5) + T
    else:
        assert name == "constant", f"no translation for catalog {name!r}"


def _coordinates(text):
    """The numbers of a params tuple such as ``(np.float64(0.0), np.float64(1.5))``."""
    return np.atleast_1d(ast.literal_eval(re.sub(r"np\.float64\((.*?)\)", r"\1", text)))


def _moved(a, b, rel):
    return np.allclose(_coordinates(b), _coordinates(a) + T, rtol=rel, atol=0.0)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_translation(path):
    raw = json.loads(path.read_text())
    moved = copy.deepcopy(raw)
    dim = moved["grid"]["dim"]
    moved["grid"]["bounds"] = [[lo + T, hi + T] for lo, hi in moved["grid"]["bounds"]]
    for key in ("function", "weight", "exponent"):
        if key in moved:
            _translated_spec(moved[key], dim)
    base = harness.run_config(load_config(raw)).rows
    mapped = harness.run_config(load_config(moved)).rows
    # Morrey's C_hat rows name the centre of their ball, a position.
    _assert_rows_follow(base, mapped, lambda r: 1.0, lambda r: {"center": _moved})


W = 4.0
# Configs whose r_w moves under w -> 4 w. On verify_2d the A_q dual term
# w^(1/(1-q)) = w^-1000 at q = 1.001 overflows on the cube of the least node
# (w = 0.21), so that cube reads inf and the search stops at 1.0029; on 4 w
# (least node 0.84) it reads 3.96 and the search returns 1.001. So theorem1's
# rw param and Morrey's rows, whose exponent q follows r_w, carry no law there.
RW_MOVES = {"verify_2d"}


def _weighted(config, level):
    grid, f, w, pfun = materialize_level(config, level)
    return grid, f, SampledField(grid, W * w.values, w.kind), pfun


def _weight_law(r, rw_moves):
    """The factor a row's value takes under w -> W w, or None for a row with no law."""
    p = _params(r.params)
    if r.experiment == "morrey" and rw_moves:
        return None
    if r.experiment == "theorem1" and r.quantity in ("variation", "grad_norm"):
        return W ** (1.0 / float(p["p"]))
    if (r.experiment, r.quantity) == ("embedding", "holder_gap"):
        return W ** (1.0 / float(p["p1"]))
    return 1.0


def _scaled_by(factor):
    return lambda a, b, rel: _close(float(b), factor * float(a), rel)


def _weight_param_laws(r, rw_moves):
    """Computed params: weak_type's max_K names the variation, which scales by
    W^(1/p); lemma21's [w]_{A_p} and theorem1's r_w are scale-free."""
    p = _params(r.params)
    laws = {"ap": _scaled_by(1.0), "rw": (lambda a, b, rel: rw_moves or a == b)}
    if "variation" in p:
        laws["variation"] = _scaled_by(W ** (1.0 / float(p["p"])))
    return laws


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_weight_scaling(path, monkeypatch):
    config = load_config_file(path)
    base = harness.run_config(config).rows
    monkeypatch.setattr(harness, "materialize_level", _weighted)
    mapped = harness.run_config(config).rows
    moves = path.stem in RW_MOVES
    _assert_rows_follow(base, mapped, lambda r: _weight_law(r, moves),
                        lambda r: _weight_param_laws(r, moves))


D = 2.0


def _dilation_law(r, dim):
    """The factor a row's value takes under x -> D x, or None for a row with no law."""
    p = _params(r.params)
    if (r.experiment in VARIABLE_EXPONENT or r.experiment == "differentiability"
            or r.quantity.endswith("_drift")):
        return None
    if r.experiment == "theorem1" and r.quantity in ("variation", "grad_norm"):
        return D ** (dim / float(p["p"]) - 1.0)
    if (r.experiment, r.quantity) == ("embedding", "holder_gap"):
        return D ** (dim / float(p["p1"]) - 1.0)
    assert r.experiment in ("theorem1", "lemma21", "rh_exists"), r
    return 1.0


def test_dilation():
    path = CONFIGS[0]
    raw = json.loads(path.read_text())
    dilated = copy.deepcopy(raw)
    assert (raw["function"]["catalog"], raw["weight"]["catalog"],
            raw["exponent"]["catalog"]) == ("linear", "constant", "affine")
    dilated["grid"]["bounds"] = [[D * lo, D * hi] for lo, hi in raw["grid"]["bounds"]]
    dilated["grid"]["h"] *= D
    dilated["radii"] = [D * r for r in raw["radii"]]
    dilated["cubes"]["min_side"] *= D
    for key in ("function", "exponent"):
        dilated[key]["params"]["slope"] /= D
    base = harness.run_config(load_config(raw)).rows
    mapped = harness.run_config(load_config(dilated)).rows
    dim = raw["grid"]["dim"]
    _assert_rows_follow(base, mapped, lambda r: _dilation_law(r, dim),
                        lambda r: {"h": _scaled_by(D), "ap": _scaled_by(1.0)})
