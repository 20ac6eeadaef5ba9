"""A NaN parameter fails the precondition it names in the Python API, as the config
layer rejects it: no NaN result, no misleading overflow or empty-region error. Every
weighted entry point rejects a function field by one guard, and the r_w search checks
both ends of its bracket before it reads the weight."""

import math

import pytest

from rieszvar import (
    Ball,
    BallCollection,
    SampledField,
    a1_constant,
    ap_constant,
    build_grid,
    candidate_balls,
    char_norm,
    classical_riesz_1d,
    doubling_constant,
    dual_weight,
    estimate_rw,
    exponent_catalog,
    generate_cubes,
    lipschitz_field,
    luxemburg_norm,
    mollify,
    rbv_var_modular,
    rh_constant,
    riesz_variation,
    score_ball,
    weighted_lp_norm,
)
from rieszvar.errors import PreconditionError
from rieszvar.grid import FieldKind
from rieszvar.riesz import measure_balls
from rieszvar.sobolev import choose_morrey_q
from rieszvar.weights import doubling_ball_family

from conftest import linear

NAN = math.nan


# [0, 1] with 65 nodes: f = x, the weight 1 + x, an affine exponent and cubes.
GRID = build_grid(1, [0.0], 1 / 64, [65])
F = linear(GRID)
W = SampledField(GRID, 1.0 + GRID.axis_coords(0), FieldKind.WEIGHT)
PFUN = exponent_catalog(GRID, "affine", {"intercept": 3.0, "slope": 1.0})
CUBES = generate_cubes(GRID, 1 / 16, 2)
BALL = Ball([0.5], 0.25)

CASES = {
    "ap_constant p": lambda: ap_constant(W, NAN, CUBES),
    "rh_constant s": lambda: rh_constant(W, NAN, CUBES),
    "estimate_rw tol": lambda: estimate_rw(W, CUBES, tol=NAN),
    "estimate_rw threshold": lambda: estimate_rw(W, CUBES, threshold=NAN),
    "luxemburg_norm tol": lambda: luxemburg_norm(F, PFUN, tol=NAN),
    "char_norm tol": lambda: char_norm(BALL, PFUN, tol=NAN),
    "score_ball p": lambda: score_ball(F, W, BALL, NAN),
    "weighted_lp_norm p": lambda: weighted_lp_norm(F, W, NAN),
    "classical_riesz_1d p": lambda: classical_riesz_1d(F, NAN),
    "rbv_var_modular lambda": lambda: rbv_var_modular(F, BallCollection((BALL,)), PFUN, NAN),
    "riesz_variation p": lambda: riesz_variation(F, W, NAN, [1 / 16]),
    "lipschitz_field shell": lambda: lipschitz_field(F, NAN),
    "generate_cubes min_side": lambda: generate_cubes(GRID, NAN, 2),
    "generate_cubes levels": lambda: generate_cubes(GRID, 1 / 16, NAN),
    "mollify R": lambda: mollify(F, NAN),
    "dual_weight q": lambda: dual_weight(W, NAN),
    "choose_morrey_q p": lambda: choose_morrey_q(NAN, 1, 1.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_nan_parameter_fails_its_precondition(case):
    with pytest.raises(PreconditionError):
        CASES[case]()


# Each weighted entry point given the function field F as its weight, and the name
# its error gives: the two riesz entry points share the scoring guard, and the r_w
# search names the A_p constant it bisects.
WEIGHT_GUARDS = {
    "measure_balls": ("scoring", lambda: measure_balls(F, F, candidate_balls(GRID, [1 / 16]))),
    "score_ball": ("scoring", lambda: score_ball(F, F, BALL, 2.0)),
    "ap_constant": ("ap_constant", lambda: ap_constant(F, 2.0, CUBES)),
    "a1_constant": ("a1_constant", lambda: a1_constant(F, CUBES)),
    "rh_constant": ("rh_constant", lambda: rh_constant(F, 1.5, CUBES)),
    "estimate_rw": ("ap_constant", lambda: estimate_rw(F, CUBES)),
    "doubling_constant": ("doubling_constant",
                          lambda: doubling_constant(F, doubling_ball_family(GRID, [1 / 8]))),
    "dual_weight": ("dual_weight", lambda: dual_weight(F, 2.0)),
    "weighted_lp_norm": ("weighted_lp_norm", lambda: weighted_lp_norm(F, F, 2.0)),
}


@pytest.mark.parametrize("entry", sorted(WEIGHT_GUARDS))
def test_function_field_fails_the_weight_guard(entry):
    who, call = WEIGHT_GUARDS[entry]
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == f"{who} requires a weight field"


@pytest.mark.parametrize("q_max", [NAN, 0.5, 1.0, 1.001, math.inf])
def test_rw_bracket_top_is_checked_by_name(q_max):
    """A q_max that is not a finite number above 1 + tol fails before any cube is read."""
    with pytest.raises(PreconditionError) as info:
        estimate_rw(W, CUBES, q_max=q_max)
    assert str(info.value) == f"q_max must be a finite number above 1.001, got {q_max}"
