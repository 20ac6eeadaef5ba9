"""A NaN parameter fails the precondition it names in the Python API, as the config
layer rejects it: no NaN result, no misleading overflow or empty-region error."""

import math

import pytest

from rieszvar import (
    Ball,
    BallCollection,
    SampledField,
    ap_constant,
    build_grid,
    char_norm,
    classical_riesz_1d,
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
from rieszvar.sobolev import choose_morrey_q

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
