"""Named test families for functions, weights and variable exponents.

Functions: linear, hat, power_abs, bump, sinusoid.
Weights: constant, power_weight, step_weight.
Exponents: constant, affine, step_exponent.

Each family evaluates a closed form at the grid nodes; smooth families
also expose their analytic gradient for convergence oracles.
"""

import numpy as np

from .errors import BadParams, UnknownCatalogEntry
from .grid import FieldKind, SampledField


def vector_param(grid, params, key, default):
    """``params[key]`` (else ``default``) as a dim-vector; a scalar is repeated on every axis."""
    v = np.atleast_1d(np.asarray(params.get(key, default), dtype=float))
    if v.size == 1 and grid.dim > 1:
        v = np.full(grid.dim, float(v[0]))
    if v.size != grid.dim:
        raise BadParams(f"{key} has {v.size} entries, expected {grid.dim}")
    return v


def _radial(grid, params):
    """(points - center, |points - center|) for radial families."""
    pts = grid.points()
    c = vector_param(grid, params, "center", 0.0)
    diff = pts - c
    return diff, np.sqrt(np.sum(diff**2, axis=-1))


def _linear(grid, params):
    s = vector_param(grid, params, "slope", 1.0)
    b = float(params.get("intercept", 0.0))
    return b + np.tensordot(grid.points(), s, axes=([-1], [0]))


def _linear_grad(grid, params):
    s = vector_param(grid, params, "slope", 1.0)
    return [np.full(grid.shape, s[a]) for a in range(grid.dim)]


def _hat(grid, params):
    a = float(params.get("radius", 1.0))
    if a <= 0:
        raise BadParams("hat radius must be positive")
    _, r = _radial(grid, params)
    return np.maximum(0.0, 1.0 - r / a)


def _power_abs(grid, params):
    beta = float(params.get("beta", 2.0))
    _, r = _radial(grid, params)
    with np.errstate(divide="ignore"):
        vals = r**beta
    return vals


def _power_abs_grad(grid, params):
    beta = float(params.get("beta", 2.0))
    diff, r = _radial(grid, params)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = beta * r ** (beta - 2.0)
    factor = np.where(r > 0, factor, 0.0 if beta >= 2 else np.nan)
    return [factor * diff[..., a] for a in range(grid.dim)]


def _bump(grid, params):
    a = float(params.get("radius", 1.0))
    if a <= 0:
        raise BadParams("bump radius must be positive")
    _, r = _radial(grid, params)
    s = (r / a) ** 2
    vals = np.zeros(grid.shape)
    inside = s < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    return vals


def _bump_grad(grid, params):
    a = float(params.get("radius", 1.0))
    diff, r = _radial(grid, params)
    s = (r / a) ** 2
    inside = s < 1.0
    f = np.zeros(grid.shape)
    f[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    factor = np.zeros(grid.shape)
    factor[inside] = -2.0 / (a**2 * (1.0 - s[inside]) ** 2)
    return [f * factor * diff[..., a_] for a_ in range(grid.dim)]


def _sinusoid(grid, params):
    freq = float(params.get("freq", 1.0))
    coords = grid.coords()
    vals = np.ones(grid.shape)
    for c in coords:
        vals = vals * np.sin(np.pi * freq * c)
    return vals


def _sinusoid_grad(grid, params):
    freq = float(params.get("freq", 1.0))
    coords = grid.coords()
    sines = [np.sin(np.pi * freq * c) for c in coords]
    cosines = [np.cos(np.pi * freq * c) for c in coords]
    grads = []
    for a in range(grid.dim):
        g = np.pi * freq * cosines[a]
        for b in range(grid.dim):
            if b != a:
                g = g * sines[b]
        grads.append(g)
    return grads


def _constant_weight(grid, params):
    c = float(params.get("value", 1.0))
    if c < 0:
        raise BadParams("constant weight must be nonnegative")
    return np.full(grid.shape, c)


def _power_weight(grid, params):
    alpha = float(params.get("alpha", 0.0))
    _, r = _radial(grid, params)
    with np.errstate(divide="ignore"):
        vals = r**alpha
    if not np.all(np.isfinite(vals[grid.mask])):
        raise BadParams("power_weight is infinite at a masked-in node (alpha < 0 at the center)")
    return vals


def _step_weight(grid, params):
    lo = float(params.get("lo", 0.0))
    hi = float(params.get("hi", 0.5))
    inside = float(params.get("inside", 2.0))
    outside = float(params.get("outside", 1.0))
    if inside < 0 or outside < 0:
        raise BadParams("step weight values must be nonnegative")
    if hi < lo:
        raise BadParams("step band must satisfy lo <= hi")
    x0 = grid.coords()[0]
    return np.where((x0 >= lo) & (x0 <= hi), inside, outside)


def _constant_exponent(grid, params):
    return np.full(grid.shape, float(params.get("value", 2.0)))


def _affine_exponent(grid, params):
    slope = vector_param(grid, params, "slope", 1.0)
    return float(params.get("intercept", 2.0)) + np.tensordot(
        grid.points(), slope, axes=([-1], [0])
    )


def _step_exponent(grid, params):
    threshold = float(params.get("threshold", 0.5))
    left = float(params.get("left", 2.0))
    right = float(params.get("right", 4.0))
    x0 = grid.coords()[0]
    return np.where(x0 <= threshold, left, right)


_FUNCTIONS = {
    "linear": (_linear, _linear_grad),
    "hat": (_hat, None),
    "power_abs": (_power_abs, _power_abs_grad),
    "bump": (_bump, _bump_grad),
    "sinusoid": (_sinusoid, _sinusoid_grad),
}

_WEIGHTS = {
    "constant": _constant_weight,
    "power_weight": _power_weight,
    "step_weight": _step_weight,
}

_EXPONENTS = {
    "constant": _constant_exponent,
    "affine": _affine_exponent,
    "step_exponent": _step_exponent,
}


def list_catalog():
    """Family names by kind, for the CLI listing."""
    return {
        "functions": sorted(_FUNCTIONS),
        "weights": sorted(_WEIGHTS),
        "exponents": sorted(_EXPONENTS),
    }


def sample_catalog(grid, name, params=None):
    """Sample a named family on the grid; returns a SampledField."""
    params = dict(params or {})
    if name in _FUNCTIONS:
        vals = _FUNCTIONS[name][0](grid, params)
        return SampledField(grid, vals, FieldKind.FUNCTION)
    if name in _WEIGHTS:
        vals = _WEIGHTS[name](grid, params)
        return SampledField(grid, vals, FieldKind.WEIGHT)
    raise UnknownCatalogEntry(f"no catalog family named {name!r}")


def exponent_catalog(grid, name, params=None):
    """Sample a named exponent family on the grid; returns an exponent SampledField."""
    params = dict(params or {})
    if name not in _EXPONENTS:
        raise UnknownCatalogEntry(f"no exponent family named {name!r}")
    return SampledField(grid, _EXPONENTS[name](grid, params), FieldKind.EXPONENT)


def catalog_gradient(grid, name, params=None):
    """Analytic gradient of a smooth function family, or None if unavailable."""
    params = dict(params or {})
    if name not in _FUNCTIONS:
        raise UnknownCatalogEntry(f"no function family named {name!r}")
    grad = _FUNCTIONS[name][1]
    if grad is None:
        return None
    parts = grad(grid, params)
    return [SampledField(grid, p, FieldKind.FUNCTION) for p in parts]
