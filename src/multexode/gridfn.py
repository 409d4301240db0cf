"""Sampled-function numerics on a uniform grid anchored at x = 0.

Every quantity in a computation lives on one shared grid whose nodes include
both endpoints and x = 0.  The module provides the anchored primitive
(cumulative integral from 0, order-4 accurate at every node), pointwise
algebra, the exponential of a primitive, and the outward scan that finds the
largest zero-free subinterval around 0.  All values are complex; all
operations are pure and return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisorTooSmall, GridMismatch, Overflow, ValidityCollapsed

# the one division floor, shared by both lowering policies, GridFn division and
# the leading-coefficient check of the auxiliary chain
DIV_FLOOR = 1e-8


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if not lo < hi:
            raise ValueError(f"empty intersection of [{self.lo},{self.hi}] and [{other.lo},{other.hi}]")
        return Interval(lo, hi)


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
    scalar xq (a NumPy scalar when ys is 1-D).  One weight table serves the
    whole stack, and every row is bit-identical to interpolating it alone.
    """
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    q = np.atleast_1d(xq)
    i = np.searchsorted(xs, q, side="right") - 1
    w = np.clip(i - 1, 0, len(xs) - 4)
    idx = w[:, None] + np.arange(4)[None, :]
    xw = xs[idx]                      # (m, 4)
    yw = ys[..., idx]                 # (..., m, 4)
    out = np.zeros(ys.shape[:-1] + (len(q),), dtype=complex)
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
    """A complex-valued function sampled at the nodes of a :class:`Grid`.

    Instances are immutable; arithmetic returns new objects and requires the
    operands to share one grid.  Evaluation between nodes (``__call__``) uses
    local cubic interpolation and is meant for reporting, never for the series
    recurrences themselves.
    """

    __slots__ = ("grid", "values", "label")

    def __init__(self, grid: Grid, values, label: str = ""):
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
        self.label = label

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, grid: Grid, c, label: str = "") -> "GridFn":
        return cls(grid, np.full(grid.n + 1, complex(c)), label)

    @classmethod
    def var(cls, grid: Grid) -> "GridFn":
        return cls(grid, grid.nodes.astype(complex), "x")

    @classmethod
    def from_callable(cls, grid: Grid, fn, label: str = "") -> "GridFn":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex), label)

    # -- basics --------------------------------------------------------

    def with_label(self, label: str) -> "GridFn":
        g = GridFn.__new__(GridFn)
        g.grid = self.grid
        g.values = self.values
        g.label = label
        return g

    def at_zero(self) -> complex:
        return complex(self.values[self.grid.zero_index])

    def sup_norm(self, interval: Interval | None = None) -> float:
        if interval is None:
            return float(np.max(np.abs(self.values)))
        m = self.grid.mask(interval)
        return float(np.max(np.abs(self.values[m])))

    def __call__(self, x):
        return _lagrange4(self.grid.nodes, self.values, x)

    def _check(self, other: "GridFn"):
        if self.grid != other.grid:
            raise GridMismatch(f"{self.grid!r} vs {other.grid!r}")

    # -- pointwise algebra ----------------------------------------------

    def _binary(self, other, fn):
        if isinstance(other, GridFn):
            self._check(other)
            return GridFn(self.grid, fn(self.values, other.values))
        return GridFn(self.grid, fn(self.values, complex(other)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GridFn):
            self._check(other)
            check_divisor(other)
            return GridFn(self.grid, self.values / other.values)
        return GridFn(self.grid, self.values / complex(other))

    def __neg__(self):
        return GridFn(self.grid, -self.values)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"GridFn({self.grid!r},{tag} sup={self.sup_norm():.3e})"


def primitive_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Anchored cumulative integral along the last axis of a sample array.

    Each grid cell is integrated with the order-4 cubic rule (centered
    4-point weights inside, one-sided at the two boundary cells), so the
    running sum gives an order-4 integral from 0 at every node.
    """
    v = np.asarray(values, dtype=complex)
    h = grid.h
    seg = np.empty(v.shape[:-1] + (v.shape[-1] - 1,), dtype=complex)
    seg[..., 1:-1] = (h / 24.0) * (
        -v[..., :-3] + 13.0 * v[..., 1:-2] + 13.0 * v[..., 2:-1] - v[..., 3:]
    )
    seg[..., 0] = (h / 24.0) * (9.0 * v[..., 0] + 19.0 * v[..., 1] - 5.0 * v[..., 2] + v[..., 3])
    seg[..., -1] = (h / 24.0) * (v[..., -4] - 5.0 * v[..., -3] + 19.0 * v[..., -2] + 9.0 * v[..., -1])
    cum = np.concatenate([np.zeros(v.shape[:-1] + (1,), dtype=complex), np.cumsum(seg, axis=-1)], axis=-1)
    cum -= cum[..., grid.zero_index : grid.zero_index + 1]
    return cum


def primitive(f: GridFn) -> GridFn:
    """Anchored primitive: g(x) = integral of f from 0 to x, at every node.

    g(0) is exactly zero and values for x < 0 carry the expected sign.  Each
    node value is an order-4 composite integral, so the recurrences that
    repeatedly multiply and re-integrate retain full grid accuracy.
    """
    return GridFn(f.grid, primitive_values(f.values, f.grid))


def check_divisor(g: GridFn) -> None:
    """Raise :class:`DivisorTooSmall` at the first node where |g| < DIV_FLOOR;
    vanishing divisors are an error to surface, never a value to clamp."""
    mags = np.abs(g.values)
    bad = np.flatnonzero(mags < DIV_FLOOR)
    if bad.size:
        i = int(bad[0])
        raise DivisorTooSmall(float(g.grid.nodes[i]), float(mags[i]), DIV_FLOOR)


def linear_combination(grid: Grid, coeffs, rows, label: str = "") -> GridFn:
    """sum_k coeffs[k] * rows[k] over sample rows, accumulated in k order;
    combines basis members (or oracle matrix rows) with initial data."""
    vals = np.zeros(grid.n + 1, dtype=complex)
    for c, row in zip(coeffs, rows, strict=True):
        vals += complex(c) * row
    return GridFn(grid, vals, label=label)


def exp_primitive(f: GridFn, sign: int) -> GridFn:
    """exp(sign * primitive(f)) evaluated nodewise; sign must be +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    p = primitive(f).values
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(sign * p)
    finite = np.isfinite(e.real) & np.isfinite(e.imag)
    if not np.all(finite):
        i = int(np.flatnonzero(~finite)[0])
        raise Overflow(float(f.grid.nodes[i]))
    return GridFn(f.grid, e)


def zero_free_interval(f: GridFn, floor: float) -> Interval:
    """Largest node-aligned subinterval around 0 on which |f| stays above floor.

    Scans outward from the zero node.  A segment between adjacent nodes also
    blocks the scan when the linear interpolant of f dips to the floor inside
    it, so sign changes between nodes are caught even when no node value is
    small.
    """
    v = f.values
    grid = f.grid
    z = grid.zero_index
    mags = np.abs(v)
    if mags[z] <= floor:
        raise ValueError(f"|f(0)| = {mags[z]:.3e} is not above the floor {floor:.3e}")
    a = v[:-1]
    d = np.diff(v)
    denom = np.abs(d) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = np.where(denom > 0.0, -(np.conj(d) * a).real / np.where(denom > 0, denom, 1.0), 0.0)
    tstar = np.clip(tstar, 0.0, 1.0)
    segmin = np.abs(a + tstar * d)
    # guard against float residue of an exact crossing when floor == 0
    seg_ok = segmin > floor + 1e-13 * (np.abs(a) + np.abs(a + d))
    node_ok = mags > floor

    # step k joins nodes k and k+1; the first blocked step above z and the
    # last one below z bound the interval
    up = np.flatnonzero(~(node_ok[z + 1 :] & seg_ok[z:]))
    down = np.flatnonzero(~(node_ok[:z] & seg_ok[:z]))
    hi = z + int(up[0]) if up.size else grid.n
    lo = int(down[-1]) + 1 if down.size else 0
    if lo == hi:
        raise ValidityCollapsed("zero-free region around 0 is a single node")
    return Interval(float(grid.nodes[lo]), float(grid.nodes[hi]))
