"""Independent ground truth for the solver.

Two oracles solve the companion first-order system M' = m M, M(0) = I: the
iterated-integral (Dyson) series, whose omitted terms are bounded by the
factorial tail ``multex.truncation_bound``, and a classical fixed-step
fourth-order marcher.  They share nothing with the trig-operator machinery
except the anchored quadrature (series) and the local interpolator
(marcher), so an error in either path shows up as disagreement.

Given initial data ``y0``, ``dyson`` sums the same series for the state
Y' = m Y, Y(0) = y0 instead, at 1/n of the work of the fundamental matrix;
row 0 of that state is the scalar solution, which is how ``multexode
compare`` builds its series oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConverged
from .gridfn import Grid, _lagrange4, primitive_values
from .lower import LowerContext, lower
from .multex import DEFAULT_TOL, truncation_bound

MAX_TERMS = 400  # a safety stop, twice the trig series' own, so the oracle outlasts it


class MatrixFn:
    """Square matrix of sampled functions on one grid, stored (n, n, nodes).

    The samples keep the dtype they were given, at least float64: real data
    stays real, as lowered rows do until a complex value enters.
    """

    __slots__ = ("grid", "data", "n")

    def __init__(self, grid: Grid, data):
        arr = np.asarray(data)
        arr = arr.astype(np.result_type(arr.dtype, float))  # a copy, never a view of data
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != grid.n + 1:
            raise ValueError(f"expected (n, n, {grid.n + 1}) samples, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix samples must be finite")
        arr.setflags(write=False)
        self.grid = grid
        self.data = arr
        self.n = arr.shape[0]


def companion(a, grid: Grid) -> MatrixFn:
    """Companion matrix of the scalar equation: ones on the superdiagonal and
    the reversed coefficients (an, ..., a1) along the bottom row; real when
    every coefficient row is."""
    n = a.n
    ctx = LowerContext(grid)
    rows = [lower(a.a(j), ctx).values for j in range(1, n + 1)]
    data = np.zeros((n, n, grid.n + 1), dtype=np.result_type(float, *rows))
    for i in range(n - 1):
        data[i, i + 1] = 1.0
    for j, row in enumerate(rows, start=1):
        data[n - 1, n - j] = row
    return MatrixFn(grid, data)


@dataclass
class DysonResult:
    """Fundamental matrix, or the state of given initial data, from the
    iterated-integral series.

    M has shape (n, n, nodes) with M(0) = I exactly, or (n, nodes) with
    M(0) = y0 when ``dyson`` was given y0.  term_norms[j] is the entrywise
    sup of term j+1; term_bounds the matching factorial bound; the tail
    bound dominates everything not summed.
    """

    grid: Grid
    M: np.ndarray
    terms_used: int
    tail_bound: float
    converged: bool
    g_integral: float
    term_norms: list = field(default_factory=list)
    term_bounds: list = field(default_factory=list)


def dyson(m: MatrixFn, tol: float = DEFAULT_TOL, y0=None) -> DysonResult:
    """Sum the iterated-integral series for M' = m M, M(0) = I, or for the
    state Y' = m Y, Y(0) = y0 when the n initial values y0 are given.

    Each term integrates m times the previous term from 0, entrywise, on both
    sides of 0 with the anchored signed primitive.  Stops when the entrywise
    sup of the newest term reaches tol; raises NotConverged when MAX_TERMS
    terms leave it far above or a term is NaN.  The state's term and tail
    bounds scale with sum |y0_k|: each state term is the matrix term on y0.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = m.n
    grid = m.grid
    if y0 is None:
        start, spec, scale = np.eye(n, dtype=complex), "ilp,lkp->ikp", 1.0
    else:
        start = np.asarray(y0, dtype=complex)
        if start.shape != (n,):
            raise ValueError(f"y0 needs {n} initial values, got shape {start.shape}")
        spec, scale = "ilp,lp->ip", float(np.sum(np.abs(start)))
    term = np.repeat(start[..., None], grid.n + 1, axis=-1)
    g = np.max(np.abs(m.data), axis=(0, 1))
    data = m.data.astype(complex, copy=False)  # cast once, not in every term's einsum
    g_int = float(np.max(np.abs(primitive_values(g, grid))))

    total = term.copy()
    norms = []
    bounds = []
    running_bound = scale / n  # (scale/n)(n g)^j / j!, updated multiplicatively
    terms = 0
    converged = False
    last = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a term that overflows fails the test below
        while terms < MAX_TERMS:
            terms += 1
            term = primitive_values(np.einsum(spec, data, term), grid)
            total += term
            last = float(np.max(np.abs(term)))
            running_bound *= (n * g_int) / terms
            norms.append(last)
            bounds.append(running_bound)
            if last <= tol:
                converged = True
                break
    tail = scale * truncation_bound(g_int, n, terms) if scale else 0.0  # no inf * 0
    result = DysonResult(grid, total, terms, tail, converged, g_int, norms, bounds)
    if not last <= 1e3 * tol:  # also true when last is NaN
        raise NotConverged(
            f"series still at {last:.3e} after {terms} terms (tol {tol:.1e})",
            result,
        )
    return result


def _running_products(props: np.ndarray) -> np.ndarray:
    """The running products P_k ... P_1 P_0 of a stack of q >= 1 square
    matrices, shape (q, n, n).

    The stack is cut into blocks of b = ceil(sqrt(q)).  The running products
    inside every block are formed side by side, one batched matmul per
    position in the block; the block totals are then chained in order, and
    each block takes its carry in one batched matmul: about 2 sqrt(q) numpy
    calls instead of q.  The last block is padded with identities.
    """
    q, n = props.shape[0], props.shape[-1]
    b = math.isqrt(q - 1) + 1
    blocks_n = -(-q // b)
    run = np.empty((blocks_n * b, n, n), dtype=props.dtype)
    run[:q] = props
    run[q:] = np.eye(n)
    blocks = run.reshape(blocks_n, b, n, n)
    for j in range(1, b):
        blocks[:, j] = blocks[:, j] @ blocks[:, j - 1]
    carry = blocks[:, -1].copy()  # carry[k]: the product of blocks 0..k
    for k in range(1, blocks_n):
        carry[k] = carry[k] @ carry[k - 1]
    blocks[1:] = blocks[1:] @ carry[:-1, None]
    return run[:q]


def rk4(m: MatrixFn, steps: int) -> np.ndarray:
    """Classical fixed-step fourth-order integration of M' = m M, M(0) = I.

    Marches outward from 0 in both directions with at least one substep per
    grid cell, sampling m between nodes by local cubic interpolation, and
    returns the fundamental matrix at every grid node, shape (n, n, nodes),
    in the dtype of m's samples: real for real m.

    The equation is linear, so each classical RK4 step is one matrix,
    P_q = I + d/6 (A0 + 2 K2 + 2 K3 + K4) with K2 = Am (I + d/2 A0),
    K3 = Am (I + d/2 K2) and K4 = A1 (I + d K3), where A0, Am and A1 sample
    m at the start, middle and end of the step.  All P_q are built at once
    as batched matmuls, and the march is their running product, formed
    block by block (``_running_products``).  The method is unchanged
    classical RK4 and shares nothing with ``primitive_values``.
    """
    grid = m.grid
    n = m.n
    if steps < grid.n:
        raise ValueError("need at least one step per grid cell")
    sub = max(1, int(round(steps / grid.n)))
    out = np.zeros((n, n, grid.n + 1), dtype=m.data.dtype)
    z = grid.zero_index
    eye = np.eye(n)
    out[:, :, z] = eye

    def march(indices):
        """Advance substep by substep from the anchor through the node order."""
        bounds = np.concatenate(([grid.nodes[z]], grid.nodes[indices]))
        starts = bounds[:-1, None] + (np.diff(bounds) / sub)[:, None] * np.arange(sub)
        ts = np.concatenate((starts.ravel(), bounds[-1:]))
        mids = (ts[:-1] + ts[1:]) / 2.0
        # with one substep per cell the step ends are nodes: read the samples
        ends = m.data[..., [z] + indices] if sub == 1 else _lagrange4(grid.nodes, m.data, ts)
        a_nodes = np.moveaxis(ends, -1, 0)                                   # (steps+1, n, n)
        a_mids = np.moveaxis(_lagrange4(grid.nodes, m.data, mids), -1, 0)   # (steps, n, n)
        a0, a1 = a_nodes[:-1], a_nodes[1:]
        d = (ts[1:] - ts[:-1])[:, None, None]
        k2 = a_mids @ (eye + 0.5 * d * a0)
        k3 = a_mids @ (eye + 0.5 * d * k2)
        k4 = a1 @ (eye + d * k3)
        props = eye + (d / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
        run = _running_products(props)
        out[:, :, indices] = np.moveaxis(run[sub - 1 :: sub], 0, -1)

    march(list(range(z + 1, grid.n + 1)))
    march(list(range(z - 1, -1, -1)))
    return out
