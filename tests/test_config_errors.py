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


def _refined_file_function(tmp_path):
    path = tmp_path / "f.grid"
    write_field(path, sample_catalog(build_grid(1, [0.0], 1 / 256, [257]), "linear"))
    return materialize_level(load_config(minimal_config(function={"file": str(path)})), 1)


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
    "weight_catalog": (lambda _: materialize_level(load_config(minimal_config(
        weight={"catalog": "power_weight", "params": {"alpha": -1.0, "center": 0.5}}))),
        "weight.catalog"),
    "exponent_catalog": (lambda _: materialize_level(load_config(minimal_config(
        exponent={"catalog": "affine", "params": {"intercept": 0.5, "slope": 0.0}}))),
        "exponent.catalog"),
    "refined_file": (_refined_file_function, "function.file"),
}


@pytest.mark.parametrize("case", CASES)
def test_config_error_names_its_field(case, tmp_path):
    build, field = CASES[case]
    with pytest.raises(ConfigError) as err:
        build(tmp_path)
    assert err.value.field == field
