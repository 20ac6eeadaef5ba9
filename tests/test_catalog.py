"""``catalog_gradient`` against central differences on [-1, 1]^n."""

import numpy as np
import pytest

from rieszvar.catalog import catalog_gradient, sample_catalog
from rieszvar.errors import UnknownCatalogEntry
from rieszvar.grid import build_grid, gradient_fd


def _interior_error(name, params, dim, n):
    """Largest |gradient_fd - catalog_gradient| over the nodes off the box edge, h = 2/n."""
    g = build_grid(dim, [-1.0] * dim, 2.0 / n, [n + 1] * dim)
    inner = (slice(1, -1),) * dim
    pairs = zip(gradient_fd(sample_catalog(g, name, params)), catalog_gradient(g, name, params))
    return max(float(np.abs(fd.values[inner] - exact.values[inner]).max()) for fd, exact in pairs)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name, params, exact", [
    ("linear", {}, True),
    ("power_abs", {"beta": 2.0}, True),
    ("power_abs", {"beta": 3.0}, False),
    ("bump", {}, False),
    ("sinusoid", {}, False),
])
def test_gradient_matches_central_differences(name, params, exact, dim):
    """Central differences are exact on quadratics and second order on smooth data."""
    coarse, fine = (_interior_error(name, params, dim, n) for n in (64, 128))
    if exact:
        assert max(coarse, fine) <= 1e-12
    else:
        assert fine > 0 and coarse / fine >= 3.0


def test_gradient_of_non_smooth_and_unknown_families():
    g = build_grid(1, [-1.0], 1 / 32, [65])
    assert catalog_gradient(g, "hat") is None
    with pytest.raises(UnknownCatalogEntry):
        catalog_gradient(g, "nosuch")
