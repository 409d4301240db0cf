"""Sampled-function numerics on a uniform grid anchored at x = 0.

Every quantity in a computation lives on one shared grid whose nodes include
both endpoints and x = 0.  The module provides the anchored primitive
(cumulative integral from 0, order-4 accurate at every node) and the
outward scan that finds the largest zero-free subinterval around 0.  The
primitive sums outward from 0 on each side, so its value at a node never
depends on samples beyond the node's stencil neighbour.  Sample rows keep
their dtype, real until a complex value enters; all operations are pure and
return new objects, except the primitive given a work buffer, which
integrates its input in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Overflow, ValidityCollapsed

# the one division floor of lowering's guarded division
DIV_FLOOR = 1e-8


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")


class Grid:
    """Uniform grid on [lo, hi] with n+1 nodes, one of which is exactly 0.

    n must be even and at least 16, and 0 must be an interior node (the
    requested endpoints must be commensurate with the spacing).  Use
    :meth:`aligned` to snap an arbitrary window onto a conforming grid.
    """

    __slots__ = ("lo", "hi", "n", "h", "zero_index", "nodes")

    def __init__(self, lo: float, hi: float, n: int):
        lo = float(lo)
        hi = float(hi)
        if not isinstance(n, (int, np.integer)):
            raise ValueError("grid size n must be an integer")
        n = int(n)
        if n < 16 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {n}")
        if not lo < 0.0 < hi:
            raise ValueError(f"grid interval must contain 0 strictly inside, got [{lo}, {hi}]")
        h = (hi - lo) / n
        k0 = -lo / h
        k = int(round(k0))
        if abs(k0 - k) > 1e-9 or not 1 <= k <= n - 1:
            raise ValueError(
                f"x = 0 does not fall on a node of [{lo}, {hi}] with n = {n}; "
                "use Grid.aligned to snap the window"
            )
        self.lo = lo
        self.hi = hi
        self.n = n
        self.h = h
        self.zero_index = k
        nodes = lo + h * np.arange(n + 1)
        # kill accumulated round-off exactly where it matters
        nodes[k] = 0.0
        nodes[-1] = hi
        nodes.setflags(write=False)
        self.nodes = nodes

    @classmethod
    def aligned(cls, lo: float, hi: float, n: int) -> "Grid":
        """Grid of spacing (hi-lo)/n whose window is shifted (by at most half
        a cell) so that 0 lands exactly on a node."""
        if not lo < 0.0 < hi:
            raise ValueError(f"interval must contain 0, got [{lo}, {hi}]")
        h = (hi - lo) / n
        k = int(round(-lo / h))
        k = min(max(k, 1), n - 1)
        return cls(-k * h, (n - k) * h, n)

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def mask(self, interval: Interval) -> np.ndarray:
        """Boolean array marking nodes inside the interval (inclusive)."""
        pad = 1e-9 * self.h
        return (self.nodes >= interval.lo - pad) & (self.nodes <= interval.hi + pad)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.n))

    def __repr__(self):
        return f"Grid([{self.lo:.6g}, {self.hi:.6g}], n={self.n})"


def _lagrange4(xs: np.ndarray, ys: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Local cubic (4-point Lagrange) interpolation of (xs, ys) at xq.

    xs must be strictly increasing; windows clamp at the ends.  ys holds
    samples along its last axis and may carry leading stack axes, shape
    (..., len(xs)); the result has shape (..., len(xq)), or (...) for a
    scalar xq (a NumPy scalar when ys is 1-D), real for real ys.  One weight
    table serves the whole stack, and every row is bit-identical to
    interpolating it alone.
    """
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    q = np.atleast_1d(xq)
    i = np.searchsorted(xs, q, side="right") - 1
    w = np.clip(i - 1, 0, len(xs) - 4)
    idx = w[:, None] + np.arange(4)[None, :]
    xw = xs[idx]                      # (m, 4)
    yw = ys[..., idx]                 # (..., m, 4)
    out = np.zeros(ys.shape[:-1] + (len(q),), dtype=np.result_type(ys, float))
    for kcol in range(4):
        lk = np.ones(len(q))
        xk = xw[:, kcol]
        for mcol in range(4):
            if mcol == kcol:
                continue
            lk *= (q - xw[:, mcol]) / (xk - xw[:, mcol])
        out += lk * yw[..., kcol]
    # [()] turns the 0-d result of a 1-D ys into a scalar, as indexing did
    return out[..., 0][()] if scalar else out


class GridFn:
    """A function sampled at the nodes of a :class:`Grid`.

    An immutable sampled value that crosses the public boundary: it carries
    its grid and one read-only row of samples and defines no arithmetic.  The
    constructor stores complex samples; lowering and the series wrap their
    rows as they are, real until a complex value enters.  Do pointwise
    algebra on ``.values`` and wrap the result, or build an expression and
    ``lower`` it, which guards division.  Evaluation between nodes
    (``__call__``) uses local cubic interpolation and is meant for reporting,
    never for the series recurrences themselves.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.array(values, dtype=complex)
        if arr.shape != (grid.n + 1,):
            raise ValueError(f"expected {grid.n + 1} samples, got shape {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite sample at x = {grid.nodes[bad]:.6g}")
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr

    @classmethod
    def _wrap(cls, grid: Grid, values: np.ndarray) -> "GridFn":
        """Wrap a sample row the package made and already checked finite, with
        no copy and no check; the row is set read-only."""
        values.setflags(write=False)
        g = cls.__new__(cls)
        g.grid = grid
        g.values = values
        return g

    def at_zero(self) -> complex:
        return complex(self.values[self.grid.zero_index])

    def __call__(self, x):
        return _lagrange4(self.grid.nodes, self.values, x)

    def __repr__(self):
        return f"GridFn({self.grid!r}, sup={float(np.max(np.abs(self.values))):.3e})"


def primitive_values(values: np.ndarray, grid: Grid, work: np.ndarray | None = None) -> np.ndarray:
    """Anchored cumulative integral along the last axis of a sample array.

    Each grid cell is integrated with the order-4 cubic rule (centered
    4-point weights inside, one-sided at the two boundary cells), summed
    outward from the zero node on each side: a node's value reads only the
    samples between it and 0 and its stencil neighbour.  Samples are scaled
    by h/24 first, so no weight overflows before the integral does.  The
    result keeps the input's dtype, and every stacked row is bit-identical
    to integrating it alone.

    Without ``work`` the input may have any layout and is left as it is.
    Given ``work``, a C-contiguous array like the input, the result
    overwrites ``values`` (C-contiguous and writable) and is returned.
    """
    if work is None:
        t = np.multiply(values, grid.h / 24.0, order="C")
        work = np.empty_like(t)
    else:
        t = np.multiply(values, grid.h / 24.0, out=values)
    z, n = grid.zero_index, grid.n
    # cell k joins nodes k and k+1 and goes to index k of work.  One pass over
    # the flattened rows takes every interior cell; the cells that straddle a
    # row seam are the boundary cells 0 and n-1, written next.
    flat, size = t.reshape(-1), t.size
    w = work.reshape(-1)[1 : size - 2]
    np.add(flat[1 : size - 2], flat[2 : size - 1], out=w)
    w *= 13.0
    w -= flat[: size - 3]
    w -= flat[3:]
    work[..., 0] = 9.0 * t[..., 0] + 19.0 * t[..., 1] - 5.0 * t[..., 2] + t[..., 3]
    work[..., n - 1] = t[..., -4] - 5.0 * t[..., -3] + 19.0 * t[..., -2] + 9.0 * t[..., -1]
    # rightward from 0 the integral at node k+1 is 0 + w[z] + ... + w[k], and
    # adding 0 to w[z] keeps that explicit zero's sign rule
    work[..., z] += 0.0
    work[..., z:n].cumsum(axis=-1, out=t[..., z + 1 :])  # the method skips np.cumsum's Python wrapper
    # leftward from 0 it is 0 - w[z-1] - w[z-2] - ...
    work[..., z] = 0.0
    np.subtract.accumulate(work[..., z::-1], axis=-1, out=t[..., z::-1])
    return t


def check_finite(values: np.ndarray, grid: Grid) -> None:
    """Raise :class:`Overflow` at the first node where any stacked row of values is not finite.

    A complex row is tested as its real and imaginary parts side by side, at
    the cost of a real row; its last axis must be contiguous."""
    parts = values.view(values.real.dtype)
    finite = np.isfinite(parts)
    if not finite.all():
        width = parts.shape[-1]
        column = np.flatnonzero(~finite.reshape(-1, width).all(axis=0))[0]
        raise Overflow(float(grid.nodes[column // (width // (grid.n + 1))]))


def linear_combination(grid: Grid, coeffs, rows) -> GridFn:
    """sum_k coeffs[k] * rows[k] over sample rows, accumulated in k order;
    combines basis members (or oracle matrix rows) with initial data.
    Overflow at the first node where the sum is not finite."""
    vals = np.zeros(grid.n + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, row in zip(coeffs, rows, strict=True):
            vals += complex(c) * row
    check_finite(vals, grid)
    return GridFn(grid, vals)


def zero_free_interval(v: np.ndarray, grid: Grid, floor: float) -> tuple[int, int]:
    """The node indices (lo, hi) of the longest run of nodes around 0 on
    which the sample row v stays above floor in magnitude.

    Scans outward from the zero node.  A segment between adjacent nodes also
    blocks the scan when the linear interpolant of v dips to the floor inside
    it, so sign changes between nodes are caught even when no node value is
    small.  The scan opens with a one-pass proof: where min|v| - max|dv|
    clears 2 (floor + 1e-13 * 2 max|v|), every node and segment test would
    pass, as rounding is monotone, so (0, grid.n) is returned at once.
    """
    z = grid.zero_index
    mags = np.abs(v)
    if mags[z] <= floor:
        raise ValueError(f"|f(0)| = {mags[z]:.3e} is not above the floor {floor:.3e}")
    d = np.diff(v)
    steps = np.abs(d)
    if float(mags.min()) - float(steps.max()) > 2.0 * (floor + 1e-13 * (2.0 * float(mags.max()))):
        return 0, grid.n
    # |a + t d| >= |a| - |d| on the segment: where that clears twice the
    # threshold below, rounding cannot bring the projection under it
    seg_ok = mags[:-1] - steps > 2.0 * (floor + 1e-13 * (mags[:-1] + mags[1:]))
    near = np.flatnonzero(~seg_ok)
    a, d = v[near], d[near]
    denom = steps[near] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = np.where(denom > 0.0, -(np.conj(d) * a).real / np.where(denom > 0, denom, 1.0), 0.0)
    tstar = np.clip(tstar, 0.0, 1.0)
    segmin = np.abs(a + tstar * d)
    # guard against float residue of an exact crossing when floor == 0
    seg_ok[near] = segmin > floor + 1e-13 * (np.abs(a) + np.abs(a + d))
    node_ok = mags > floor

    # step k joins nodes k and k+1; the first blocked step above z and the
    # last one below z bound the interval
    up = np.flatnonzero(~(node_ok[z + 1 :] & seg_ok[z:]))
    down = np.flatnonzero(~(node_ok[:z] & seg_ok[:z]))
    hi = z + int(up[0]) if up.size else grid.n
    lo = int(down[-1]) + 1 if down.size else 0
    if lo == hi:
        raise ValidityCollapsed("zero-free region around 0 is a single node")
    return lo, hi
