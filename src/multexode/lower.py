"""Lower expressions to sample rows on a grid.

Lowering is numeric only: it reads expressions, including the realized
derivatives an AuxFn carries, and never simplifies or differentiates.  A
LowerContext fixes the grid, series tolerances and the per-solve memo
store.  Every node lowers to a plain read-only array, checked finite
(Overflow at the first bad node), real until a complex constant, a complex
table or ``sqrt`` enters; the recursion never builds a GridFn.  The memo
keeps the rows that integrate, sum a series, read a table or divide;
arithmetic rows are transient, recomputed from their memoized children when
reached again.  Lowering one index of a trig family stores every index of
it, so the family costs a single recurrence pass.
The public :func:`lower` is the GridFn edge: it stores the row it returns
and wraps it without a copy.

There is one division policy, with the one floor DIV_FLOOR.  A divisor whose
magnitude at 0 is not above the floor is DivisorTooSmall.  Otherwise the
context's running validity interval shrinks to the zero-free neighbourhood of
0 of the divisor, and the quotient is zeroed outside it;
:meth:`LowerContext.final_validity` then takes one more grid cell off every
cut side, so the quadrature of no reported node reads a zeroed sample, and
is ValidityCollapsed when fewer than MIN_VALIDITY_CELLS cells remain.
The anchored primitive sums outward from 0 on each side, so a primitive
inside the reported interval does not depend on samples outside it; each
further nested primitive reads one more stencil node outward.
"""

from __future__ import annotations

import numpy as np

from . import coeffexpr as ce
from .errors import CoverageGap, DivisorTooSmall, ValidityCollapsed
from .gridfn import DIV_FLOOR, Grid, GridFn, Interval, _lagrange4, check_finite, primitive_values, zero_free_interval
from .multex import DEFAULT_TOL, trig_family

MIN_VALIDITY_CELLS = 4
# nodes whose row costs only elementwise arithmetic on its children's rows
# (IntPow only for k >= 0; a negative power divides)
_TRANSIENT = (ce.Const, ce.Var, ce.Add, ce.Sub, ce.Mul, ce.FuncCall, ce.IntPow)


class LowerContext:
    """Shared state for one solve: grid, tolerances, memo.

    The memo key is the structural identity of the expression.  It keeps
    the rows of primitives, trig families, tables, divisions and auxiliary
    functions, and every row asked for through :func:`lower`; arithmetic
    rows are transient.  Lowering one trig operator stores its whole family,
    so every index of one family costs a single recurrence pass.  A context
    is cheap; make a fresh one per solve.
    """

    def __init__(self, grid: Grid, series_tol: float = DEFAULT_TOL):
        self.grid = grid
        self.series_tol = series_tol
        self.validity = grid.interval
        self.memo: dict = {}
        self.trig_diagnostics: dict = {}

    def shrink_validity(self, interval: Interval):
        try:
            self.validity = self.validity.intersect(interval)
        except ValueError:
            raise ValidityCollapsed("validity interval became empty") from None

    def final_validity(self) -> Interval:
        """The validity interval with one more grid cell off every side a
        division cut; the interval a solve reports.  ValidityCollapsed when
        it spans fewer than MIN_VALIDITY_CELLS grid cells."""
        v = self.validity
        g = self.grid
        lo_cut = v.lo > g.lo
        hi_cut = v.hi < g.hi
        # the running interval ends on nodes, so this counts cells exactly
        cells = round(v.width / g.h) - lo_cut - hi_cut
        if cells < MIN_VALIDITY_CELLS:
            raise ValidityCollapsed(
                f"validity interval [{v.lo:.4g}, {v.hi:.4g}] less its margin spans {cells} "
                f"grid cells, below {MIN_VALIDITY_CELLS}"
            )
        return Interval(v.lo + g.h if lo_cut else v.lo, v.hi - g.h if hi_cut else v.hi)


def _guarded_reciprocal(ctx: LowerContext, den: np.ndarray, power: int) -> np.ndarray:
    """den**(-power) (power >= 1) on the validity interval, which shrinks to
    the zero-free neighbourhood of 0 of den; zero outside it."""
    mag0 = float(abs(den[ctx.grid.zero_index]))
    if mag0 <= DIV_FLOOR:
        raise DivisorTooSmall(0.0, mag0, DIV_FLOOR)
    ctx.shrink_validity(zero_free_interval(den, ctx.grid, DIV_FLOOR))
    # the validity interval lies inside the zero-free run of den
    keep = ctx.grid.mask(ctx.validity)
    out = np.zeros_like(den)
    out[keep] = den[keep] ** (-power)
    return out


def lower(e: ce.Expr, ctx: LowerContext) -> GridFn:
    """Evaluate an expression on the context's grid, memoized structurally.

    This is the GridFn edge of lowering: the result wraps the memo's
    read-only array without a copy.  A division may shrink ``ctx.validity``
    and zero the result outside it, so read ``ctx.validity`` before trusting
    a node.  Floating-point overflow is silenced here, once for the whole
    recursion, because every node is checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return GridFn._wrap(ctx.grid, ctx.memo.setdefault(e, _values(e, ctx)))


def _values(e: ce.Expr, ctx: LowerContext) -> np.ndarray:
    """The checked, read-only sample row of one expression; Overflow at the
    first node where it is not finite.  A transient row is not stored: its
    recompute finds the costly rows below it in the memo, and so repeats no
    primitive, series, zero-free scan or table read."""
    hit = ctx.memo.get(e)
    if hit is not None:
        return hit
    out = _lower(e, ctx)
    check_finite(out, ctx.grid)
    out.setflags(write=False)
    if not isinstance(e, _TRANSIENT) or isinstance(e, ce.IntPow) and e.k < 0:
        ctx.memo[e] = out
    return out


def _lower(e: ce.Expr, ctx: LowerContext) -> np.ndarray:
    grid = ctx.grid
    if isinstance(e, ce.Const):
        return np.full(grid.n + 1, e.value.real if e.value.imag == 0 else e.value)
    if isinstance(e, ce.Var):
        return grid.nodes
    if isinstance(e, ce.Add):
        return _values(e.a, ctx) + _values(e.b, ctx)
    if isinstance(e, ce.Sub):
        return _values(e.a, ctx) - _values(e.b, ctx)
    if isinstance(e, ce.Mul):
        return _values(e.a, ctx) * _values(e.b, ctx)
    if isinstance(e, ce.Div):
        num = _values(e.a, ctx)
        # a named operand keeps numpy from multiplying into the temporary in
        # place, whose loop rounds differently at large N
        rec = _guarded_reciprocal(ctx, _values(e.b, ctx), 1)
        return num * rec
    if isinstance(e, ce.IntPow):
        base = _values(e.base, ctx)
        return base**e.k if e.k >= 0 else _guarded_reciprocal(ctx, base, -e.k)
    if isinstance(e, ce.ExpPrim):
        return np.exp(e.sign * primitive_values(_values(e.child, ctx), grid))
    if isinstance(e, ce.FuncCall):
        arg = _values(e.child, ctx)
        # the principal root of a negative real is imaginary
        return getattr(np, e.name)(arg.astype(complex) if e.name == "sqrt" else arg)
    if isinstance(e, ce.TrigNode):
        inputs = [GridFn._wrap(grid, _values(f, ctx)) for f in e.fs]
        family, ctx.trig_diagnostics[e.fs] = trig_family(inputs, ctx.series_tol)
        for j, member in enumerate(family, start=1):
            ctx.memo[ce.TrigNode(e.fs, j)] = member.values
        return ctx.memo[e]
    if isinstance(e, ce.Sampled):
        if e.xs[0] > grid.lo + 1e-12 or e.xs[-1] < grid.hi - 1e-12:
            raise CoverageGap(
                f"table covers [{e.xs[0]:.6g}, {e.xs[-1]:.6g}] but the grid needs "
                f"[{grid.lo:.6g}, {grid.hi:.6g}]"
            )
        return _lagrange4(e.xs, e.ys, grid.nodes)
    if isinstance(e, ce.AuxFn):
        return _values(e.realization, ctx)
    if isinstance(e, ce.AuxDeriv):
        return _values(e.fn.derivs[e.s - 1], ctx)
    raise TypeError(f"cannot lower {type(e).__name__}")

