"""Experiment configuration: JSON schema, validation, and materialization."""

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .catalog import exponent_catalog, list_catalog, sample_catalog
from .errors import BadShape, ConfigError, ToolkitError
from .grid import FieldKind, SampledField, build_grid, read_grid, same_nodes
from .riesz import METHODS
from .weights import RW_Q_MAX

KNOWN_SUITES = (
    "theorem1",
    "weak_type",
    "lemma21",
    "rh_exists",
    "embedding",
    "differentiability",
    "morrey",
    "mollify_bound",
    "gd_equivalence",
    "varexp_sobolev",
)


@dataclass(frozen=True)
class Thresholds:
    k_max_base: float = 32.0
    c_eq: float = 4.0
    c_thm: float = 16.0
    bound_thm1: float = 16.0
    rw_threshold: float = 1000.0
    rw_tol: float = 1e-3
    drift_tol: float = 0.10


@dataclass(frozen=True)
class CubeSpec:
    min_side: float = 0.25
    levels: int = 4
    shifts: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    dim: int
    bounds: tuple
    h: float
    function_spec: dict
    weight_spec: dict
    exponent_spec: dict | None
    radii: tuple
    method: str
    p_values: tuple
    s_values: tuple
    thresholds: Thresholds
    cubes: CubeSpec
    t_grid: tuple
    shell_factor: float
    refinements: int
    suites: tuple
    seed: int
    out: str | None
    fmt: str

    def config_hash(self):
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def level_spacing(self, level):
        return self.h / 2**level


def _require(data, key, path):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return data[key]


def _cast(cast, value, path):
    """``cast(value)``, or a ConfigError naming ``path`` unless it converts to a finite value."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"invalid value {value!r}") from None
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(path, f"must be finite, got {value!r}")
    return out


def _typed(value, kind, path):
    """``value`` if it is a JSON ``kind``: "object" (a dict) or "list" (a list or tuple)."""
    if not isinstance(value, {"object": dict, "list": (list, tuple)}[kind]):
        raise ConfigError(path, f"must be a JSON {kind}")
    return value


def _numbers(data, key, default):
    """The list ``data[key]`` (else ``default``) as a tuple of floats."""
    return tuple(_cast(float, v, key) for v in _typed(data.get(key, default), "list", key))


def _check_field_spec(spec, kind):
    """A copy of the ``kind`` field spec: a constant (exponent only), a file or a catalog entry."""
    spec = dict(_typed(spec, "object", kind))
    if "constant" in spec:
        c = spec["constant"]
        if kind != "exponent":
            raise ConfigError(f"{kind}.constant", "only an exponent may be given as a constant")
        real = isinstance(c, (int, float)) and not isinstance(c, bool)
        if not (real and 1 <= c <= sys.float_info.max):
            raise ConfigError(f"{kind}.constant", f"must be a finite real >= 1, got {c!r}")
    elif "file" in spec:
        if not isinstance(spec["file"], str):
            raise ConfigError(f"{kind}.file", "file must be a path string")
    elif _require(spec, "catalog", kind) not in list_catalog()[kind + "s"]:
        raise ConfigError(f"{kind}.catalog", f"unknown catalog family {spec['catalog']!r}")
    return spec


def _with_defaults(cls, raw, path):
    """``cls`` from the ``path`` object ``raw``, each field cast to its default's type."""
    raw = _typed(raw, "object", path)
    return cls(**{
        f.name: _cast(type(f.default), raw[f.name], f"{path}.{f.name}")
        for f in fields(cls) if f.name in raw
    })


def load_config(data):
    """Validate a config dict (already parsed JSON) into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("", "config must be a JSON object")
    grid_spec = _typed(_require(data, "grid", ""), "object", "grid")
    dim = _cast(int, _require(grid_spec, "dim", "grid"), "grid.dim")
    if dim not in (1, 2, 3):
        raise ConfigError("grid.dim", f"dim must be 1, 2, or 3, got {dim}")
    bounds = _cast(partial(np.array, dtype=float), _require(grid_spec, "bounds", "grid"),
                   "grid.bounds")
    if bounds.shape != (dim, 2) or not np.isfinite(bounds).all():
        raise ConfigError("grid.bounds", f"expected {dim} finite [lo, hi] pairs")
    bounds = tuple(map(tuple, bounds.tolist()))
    h = _cast(float, _require(grid_spec, "h", "grid"), "grid.h")
    if not h > 0:
        raise ConfigError("grid.h", "spacing must be positive")
    for a, (lo, hi) in enumerate(bounds):
        if hi <= lo:
            raise ConfigError(f"grid.bounds[{a}]", "hi must exceed lo")
        steps = (hi - lo) / h
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"grid.bounds[{a}]", f"extent {hi - lo} is not a multiple of h {h}")
    function_spec = _check_field_spec(_require(data, "function", ""), "function")
    weight_spec = _check_field_spec(
        data.get("weight", {"catalog": "constant", "params": {"value": 1.0}}), "weight")
    exponent_spec = data.get("exponent")
    if exponent_spec is not None:
        exponent_spec = _check_field_spec(exponent_spec, "exponent")
    radii = _numbers(data, "radii", ())
    if any(r <= 0 for r in radii):
        raise ConfigError("radii", "radii must be positive")
    if radii and min(radii) < 2.0 * h:
        raise ConfigError("radii", f"every radius must be >= 2h = {2 * h}")
    method = data.get("method", "auto")
    if method not in ("auto",) + METHODS:
        raise ConfigError("method", f"unknown packing method {method!r}")
    fmt = data.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format", f"report format must be 'csv' or 'json', got {fmt!r}")
    thresholds = _with_defaults(Thresholds, data.get("thresholds", {}), "thresholds")
    for name in ("k_max_base", "c_eq", "c_thm", "bound_thm1", "rw_threshold"):
        if not getattr(thresholds, name) > 1:
            raise ConfigError(f"thresholds.{name}", "threshold must be > 1")
    if not 1 < 1 + thresholds.rw_tol < RW_Q_MAX:
        raise ConfigError("thresholds.rw_tol",
                          f"must satisfy 1 < 1 + rw_tol < {RW_Q_MAX}, got {thresholds.rw_tol!r}")
    cubes = _with_defaults(CubeSpec, data.get("cubes", {}), "cubes")
    suites = tuple(_typed(data.get("suites", ()), "list", "suites"))
    for s in suites:
        if s not in KNOWN_SUITES:
            raise ConfigError("suites", f"unknown suite {s!r}")
    t_grid = _numbers(data, "t_grid", (0.125, 0.25, 0.5, 0.75, 0.9, 0.99))
    refinements = _cast(int, data.get("refinements", 1), "refinements")
    if refinements < 1:
        raise ConfigError("refinements", "need at least one level")
    return ExperimentConfig(
        raw=data,
        dim=dim,
        bounds=bounds,
        h=h,
        function_spec=function_spec,
        weight_spec=weight_spec,
        exponent_spec=exponent_spec,
        radii=radii,
        method=method,
        p_values=_numbers(data, "p_values", (2.0,)),
        s_values=_numbers(data, "s_values", (1.05, 1.1, 1.25, 1.5)),
        thresholds=thresholds,
        cubes=cubes,
        t_grid=t_grid,
        shell_factor=_cast(float, data.get("shell_factor", 3.0), "shell_factor"),
        refinements=refinements,
        suites=suites,
        seed=_cast(int, data.get("seed", 0), "seed"),
        out=data.get("out"),
        fmt=fmt,
    )


def load_config_file(path, **overrides):
    """The config in the JSON file at ``path``; each override that is not None
    replaces its top-level key before the one validation."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("", f"not UTF-8 text: {exc}") from exc
    if isinstance(data, dict):
        data |= {key: value for key, value in overrides.items() if value is not None}
    return load_config(data)


def materialize_grid(config, level=0):
    h = config.level_spacing(level)
    origin = [lo for lo, _ in config.bounds]
    shape = [int(round((hi - lo) / h)) + 1 for lo, hi in config.bounds]
    return build_grid(config.dim, origin, h, shape)


def materialize_field(grid, spec, kind, level=0):
    """The ``kind`` field ("function", "weight" or "exponent") of ``spec`` on ``grid``.

    No spec gives None, and only an exponent reads ``{"constant": c}``. A
    file field cannot be refined and must place the grid's nodes; a function
    file keeps its own grid (mask included), while weight and exponent file
    values are put on ``grid``. Every failure to read a file, or to sample a
    catalog family, is a ConfigError naming the spec's field.
    """
    if spec is None:
        return None
    kind = FieldKind(kind)
    sample = exponent_catalog if kind == FieldKind.EXPONENT else sample_catalog
    if kind == FieldKind.EXPONENT and "constant" in spec:
        return exponent_catalog(grid, "constant", {"value": float(spec["constant"])})
    if "file" in spec:
        where = f"{kind.value}.file"
        if level > 0:
            raise ConfigError(where, "file-based fields cannot be refined")
        try:
            file_grid, values = read_grid(spec["file"])
            if not same_nodes(file_grid, grid):
                raise BadShape("file grid does not match the configured grid")
            return SampledField(file_grid if kind == FieldKind.FUNCTION else grid, values, kind)
        except (OSError, ValueError, ToolkitError) as exc:
            raise ConfigError(where, str(exc)) from exc
    try:
        return sample(grid, spec["catalog"], spec.get("params"))
    except ToolkitError as exc:
        raise ConfigError(f"{kind.value}.catalog", str(exc)) from exc


def materialize_level(config, level=0):
    """Grid, function, weight, and exponent at one refinement level.

    The grid is the function's: the configured one, or a function file's
    own grid (mask included); see ``materialize_field``.
    """
    f = materialize_field(materialize_grid(config, level), config.function_spec, "function", level)
    w = materialize_field(f.grid, config.weight_spec, "weight", level)
    pfun = materialize_field(f.grid, config.exponent_spec, "exponent", level)
    return f.grid, f, w, pfun
