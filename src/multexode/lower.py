"""Lower expressions to grid functions.

A LowerContext fixes the grid, the coefficient environment, series tolerances
and the per-solve memo store.  Two division policies share the one floor
DIV_FLOOR: the default raises DivisorTooSmall as soon as any node divides by
a value below it; the masked policy (used while building auxiliary chains)
instead shrinks the running validity interval to the zero-free neighbourhood
of 0 and zeroes the result outside it.  Because the primitive is anchored at
0, values inside the validity interval never depend on the zeroed region, so
masking is safe.
"""

from __future__ import annotations

import numpy as np

from . import coeffexpr as ce
from .errors import CoverageGap, DivisorTooSmall, UnboundCoefficient, ValidityCollapsed
from .gridfn import DIV_FLOOR, Grid, GridFn, Interval, _lagrange4, check_divisor, exp_primitive, primitive, zero_free_interval
from .multex import DEFAULT_MAX_TERMS, DEFAULT_TOL, trig_family

MIN_VALIDITY_CELLS = 4


class LowerContext:
    """Shared state for one solve: grid, environment, tolerances, memo.

    The memo key is the structural identity of the expression; trig-operator
    families are cached separately so every index of one family costs a
    single recurrence pass.  A context is cheap; make a fresh one per solve.
    """

    def __init__(
        self,
        grid: Grid,
        env=None,
        series_tol: float = DEFAULT_TOL,
        max_terms: int = DEFAULT_MAX_TERMS,
        masked: bool = False,
        numeric_diff: bool = False,
    ):
        self.grid = grid
        self.env = dict(env or {})
        self.series_tol = series_tol
        self.max_terms = max_terms
        self.masked = masked
        self.numeric_diff = numeric_diff
        self.validity = grid.interval
        self.memo: dict = {}
        self.trig_cache: dict = {}
        self.trig_diagnostics: dict = {}
        self.deriv_cache: dict = {}

    def shrink_validity(self, interval: Interval):
        try:
            self.validity = self.validity.intersect(interval)
        except ValueError:
            raise ValidityCollapsed("validity interval became empty") from None
        if self.validity.width < MIN_VALIDITY_CELLS * self.grid.h:
            raise ValidityCollapsed(
                f"validity interval [{self.validity.lo:.4g}, {self.validity.hi:.4g}] "
                f"is below {MIN_VALIDITY_CELLS} grid cells"
            )

    def mask_outside_validity(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        out[~self.grid.mask(self.validity)] = 0.0
        return out

    def realized_derivative(self, fn: ce.AuxFn, s: int) -> ce.Expr:
        """s-th symbolic derivative of an auxiliary function's realization."""
        key = (fn, s)
        if key not in self.deriv_cache:
            expr = fn.realization
            for _ in range(s):
                expr = ce.differentiate(expr, self.numeric_diff)
            self.deriv_cache[key] = ce.simplify(expr)
        return self.deriv_cache[key]


def _guarded_reciprocal(ctx: LowerContext, den: GridFn, power: int) -> np.ndarray:
    """den**(-power) under the active division policy (power >= 1)."""
    mags = np.abs(den.values)
    z = ctx.grid.zero_index
    if mags[z] < DIV_FLOOR:
        raise DivisorTooSmall(0.0, float(mags[z]), DIV_FLOOR)
    if not ctx.masked:
        check_divisor(den)
        return den.values ** (-power)
    ctx.shrink_validity(zero_free_interval(den, DIV_FLOOR))
    safe = mags > DIV_FLOOR
    out = np.zeros_like(den.values)
    out[safe] = den.values[safe] ** (-power)
    return ctx.mask_outside_validity(out)


def lower(e: ce.Expr, ctx: LowerContext) -> GridFn:
    """Evaluate an expression on the context's grid, memoized structurally."""
    hit = ctx.memo.get(e)
    if hit is not None:
        return hit
    out = _lower(e, ctx)
    ctx.memo[e] = out
    return out


def _lower(e: ce.Expr, ctx: LowerContext) -> GridFn:
    grid = ctx.grid
    if isinstance(e, ce.Const):
        return GridFn.const(grid, e.value)
    if isinstance(e, ce.Var):
        return GridFn.var(grid)
    if isinstance(e, ce.CoeffRef):
        try:
            return ctx.env[e.name]
        except KeyError:
            raise UnboundCoefficient(e.name) from None
    if isinstance(e, ce.Add):
        return lower(e.a, ctx) + lower(e.b, ctx)
    if isinstance(e, ce.Sub):
        return lower(e.a, ctx) - lower(e.b, ctx)
    if isinstance(e, ce.Mul):
        return lower(e.a, ctx) * lower(e.b, ctx)
    if isinstance(e, ce.Div):
        num = lower(e.a, ctx)
        den = lower(e.b, ctx)
        rec = _guarded_reciprocal(ctx, den, 1)
        vals = num.values * rec
        if ctx.masked:
            vals = ctx.mask_outside_validity(vals)
        return GridFn(grid, vals)
    if isinstance(e, ce.IntPow):
        base = lower(e.base, ctx)
        if e.k >= 0:
            return GridFn(grid, base.values**e.k)
        return GridFn(grid, _guarded_reciprocal(ctx, base, -e.k))
    if isinstance(e, ce.ExpPrim):
        return exp_primitive(lower(e.child, ctx), e.sign)
    if isinstance(e, ce.Prim):
        return primitive(lower(e.child, ctx))
    if isinstance(e, ce.FuncCall):
        child = lower(e.child, ctx)
        fn = getattr(np, e.name)
        return GridFn(grid, fn(child.values))
    if isinstance(e, ce.TrigNode):
        family = _trig_family_for(e.fs, ctx)
        return family[e.j - 1]
    if isinstance(e, ce.Sampled):
        if e.xs[0] > grid.lo + 1e-12 or e.xs[-1] < grid.hi - 1e-12:
            raise CoverageGap(
                f"table covers [{e.xs[0]:.6g}, {e.xs[-1]:.6g}] but the grid needs "
                f"[{grid.lo:.6g}, {grid.hi:.6g}]"
            )
        return GridFn(grid, _lagrange4(e.xs, e.ys, grid.nodes))
    if isinstance(e, ce.AuxFn):
        return lower(e.realization, ctx)
    if isinstance(e, ce.AuxDeriv):
        return lower(ctx.realized_derivative(e.fn, e.s), ctx)
    raise TypeError(f"cannot lower {type(e).__name__}")


def _trig_family_for(fs, ctx: LowerContext):
    key = fs
    hit = ctx.trig_cache.get(key)
    if hit is not None:
        return hit
    inputs = [lower(f, ctx) for f in fs]
    family, diag = trig_family(inputs, ctx.series_tol, ctx.max_terms)
    ctx.trig_cache[key] = family
    ctx.trig_diagnostics[key] = diag
    return family

