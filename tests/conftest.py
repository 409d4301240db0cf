import numpy as np
import pytest

from multexode import Grid, GridFn
from multexode import solver


@pytest.fixture(autouse=True)
def _empty_solve_memo():
    """Every test starts with an empty per-process solve memo, so a test
    lowers what it solves unless it warms the memo itself."""
    solver._LOWERED.clear()


@pytest.fixture
def grid200():
    return Grid(-1.0, 1.0, 200)


@pytest.fixture
def grid2000():
    return Grid(-1.0, 1.0, 2000)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def smooth_gridfn(grid, rng, scale=1.0, complex_part=False):
    """Random smooth test function: low-order polynomial plus one harmonic."""
    c = rng.uniform(-1, 1, size=5)
    w = rng.integers(1, 4)
    vals = c[0] + c[1] * grid.nodes + c[2] * grid.nodes**2 + c[3] * np.sin(w * grid.nodes) + c[4] * np.cos(w * grid.nodes)
    vals = vals.astype(complex)
    if complex_part:
        vals = vals + 1j * rng.uniform(-0.3, 0.3) * np.sin(grid.nodes)
    sup = np.max(np.abs(vals))
    if sup > 0:
        vals *= scale * rng.uniform(0.4, 1.0) / sup
    return GridFn(grid, vals)
