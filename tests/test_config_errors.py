"""Each invalid config raises a ConfigError that names the offending field."""

import pytest

from rieszvar.catalog import sample_catalog
from rieszvar.config import load_config, load_config_file, materialize_level
from rieszvar.errors import ConfigError
from rieszvar.grid import build_grid, write_field

from test_harness import minimal_config


def _grid(**spec):
    return minimal_config(grid={"dim": 1, "bounds": [[0.0, 1.0]], "h": 1 / 256, **spec})


def _invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"grid": ')
    return load_config_file(path)


def _not_utf8(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    return load_config_file(path)


def _refined_file_function(tmp_path):
    path = tmp_path / "f.grid"
    write_field(path, sample_catalog(build_grid(1, [0.0], 1 / 256, [257]), "linear"))
    return materialize_level(load_config(minimal_config(function={"file": str(path)})), 1)


NAN, INF = float("nan"), float("inf")

CASES = {
    "missing_field": (lambda _: load_config(minimal_config(grid={"dim": 1})), "grid.bounds"),
    "not_an_object": (lambda _: load_config([]), ""),
    "dim": (lambda _: load_config(_grid(dim=4)), "grid.dim"),
    "bounds_count": (lambda _: load_config(_grid(dim=2)), "grid.bounds"),
    "spacing": (lambda _: load_config(_grid(h=0.0)), "grid.h"),
    "empty_extent": (lambda _: load_config(_grid(bounds=[[1.0, 0.0]])), "grid.bounds[0]"),
    "radius_sign": (lambda _: load_config(minimal_config(radii=[-0.125])), "radii"),
    "refinements": (lambda _: load_config(minimal_config(refinements=0)), "refinements"),
    "invalid_json": (_invalid_json, ""),
    "not_utf8": (_not_utf8, ""),
    "weight_catalog": (lambda _: materialize_level(load_config(minimal_config(
        weight={"catalog": "power_weight", "params": {"alpha": -1.0, "center": 0.5}}))),
        "weight.catalog"),
    "exponent_catalog": (lambda _: materialize_level(load_config(minimal_config(
        exponent={"catalog": "affine", "params": {"intercept": 0.5, "slope": 0.0}}))),
        "exponent.catalog"),
    "refined_file": (_refined_file_function, "function.file"),
    "file_not_a_path": (lambda _: load_config(minimal_config(weight={"file": 3})), "weight.file"),
    "exponent_constant": (lambda _: load_config(minimal_config(exponent={"constant": "abc"})),
                          "exponent.constant"),
    "spacing_not_a_number": (lambda _: load_config(_grid(h="abc")), "grid.h"),
    "spacing_nan": (lambda _: load_config(_grid(h=float("nan"))), "grid.h"),
    "dim_not_a_number": (lambda _: load_config(_grid(dim="x")), "grid.dim"),
    "bounds_not_a_pair": (lambda _: load_config(_grid(bounds=[1.0])), "grid.bounds"),
    "grid_not_an_object": (lambda _: load_config(minimal_config(grid=[1])), "grid"),
    "p_value": (lambda _: load_config(minimal_config(p_values=["a"])), "p_values"),
    "radius_not_a_number": (lambda _: load_config(minimal_config(radii=["a"])), "radii"),
    "threshold": (lambda _: load_config(minimal_config(thresholds={"c_eq": "x"})),
                  "thresholds.c_eq"),
    "cube_levels": (lambda _: load_config(minimal_config(cubes={"levels": "x"})), "cubes.levels"),
    "refinements_not_a_number": (lambda _: load_config(minimal_config(refinements="x")),
                                 "refinements"),
    "seed": (lambda _: load_config(minimal_config(seed="x")), "seed"),
    "function_not_an_object": (lambda _: load_config(minimal_config(function="linear")),
                               "function"),
    # Python's json reads NaN and Infinity; no config number may be non-finite.
    "radius_nan": (lambda _: load_config(minimal_config(radii=[NAN])), "radii", "finite"),
    "radius_inf": (lambda _: load_config(minimal_config(radii=[INF])), "radii", "finite"),
    "shell_factor_nan": (lambda _: load_config(minimal_config(shell_factor=NAN)), "shell_factor"),
    "shell_factor_inf": (lambda _: load_config(minimal_config(shell_factor=INF)), "shell_factor"),
    "p_value_nan": (lambda _: load_config(minimal_config(p_values=[NAN])), "p_values"),
    "p_value_inf": (lambda _: load_config(minimal_config(p_values=[INF])), "p_values"),
    "s_value_nan": (lambda _: load_config(minimal_config(s_values=[NAN])), "s_values"),
    "t_grid_nan": (lambda _: load_config(minimal_config(t_grid=[0.5, NAN])), "t_grid"),
    "rw_tol_nan": (lambda _: load_config(minimal_config(thresholds={"rw_tol": NAN})),
                   "thresholds.rw_tol"),
    "drift_tol_nan": (lambda _: load_config(minimal_config(thresholds={"drift_tol": NAN})),
                      "thresholds.drift_tol"),
    "min_side_nan": (lambda _: load_config(minimal_config(cubes={"min_side": NAN})),
                     "cubes.min_side"),
    "min_side_inf": (lambda _: load_config(minimal_config(cubes={"min_side": INF})),
                     "cubes.min_side"),
    # A string is not a list of suites (it used to be read letter by letter).
    "suites_not_a_list": (lambda _: load_config(minimal_config(suites="theorem1")), "suites",
                          "must be a JSON list"),
}


@pytest.mark.parametrize("case", CASES)
def test_config_error_names_its_field(case, tmp_path):
    build, field, *message = CASES[case]
    with pytest.raises(ConfigError) as err:
        build(tmp_path)
    assert err.value.field == field
    assert all(text in str(err.value) for text in message)
