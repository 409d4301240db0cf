"""Lower expressions to sample rows on a grid.

Lowering is numeric only: it reads expressions, including the realized
derivatives an AuxFn carries, and never simplifies or differentiates.  A
LowerContext fixes the grid, series tolerances, the per-solve memo store
and ``coefs``, whose j-th entry a chain's slot Coef(j) reads as its one
child.  Every node lowers to a plain read-only array, checked finite
(Overflow at the first bad node), real until a complex constant, a complex
table or ``sqrt`` enters; lowering never builds a GridFn.

Rows live by use count.  Expressions are interned when they are built, so
structurally equal nodes are one object already; :meth:`LowerContext.plan`
does no interning and only counts, on the nodes themselves, how many times
each node's row will be read: once per root, a read that is never taken,
and once per distinct parent still to be computed.  Lowering then computes
every node exactly once, depth first from an explicit stack (no Python
stack depth limits the order), keeps its row in the memo while reads of it
remain and drops it after the last one, so a root's row stays for every
later call.  A trig family's recurrence pass keeps every planned index of
it at once, so the family costs one pass; an unread index is not kept.
The public :func:`lower` is the GridFn edge and wraps the memo's row without
a copy.  It plans a node nobody has planned yet as a root, with every index
of its family; a node already planned, a root or one inside a root, is
lowered as it is, so no read a parent was planned for is taken.

There is one division policy, with the one floor DIV_FLOOR.  A divisor whose
magnitude at 0 is not above the floor is DivisorTooSmall.  Otherwise the
running validity, a run of grid nodes kept as its end indices (lo, hi),
shrinks to the divisor's zero-free run around 0 and the quotient is zeroed
outside it; :meth:`LowerContext.final_validity` takes one more cell off every
cut side, so no reported node's quadrature reads a zeroed sample, and turns
the run into the reported Interval; it is ValidityCollapsed when fewer than
MIN_VALIDITY_CELLS cells remain.
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
# nodes whose row is checked already: a child's row, or a series' checked sums
_CHECKED = frozenset((ce.AuxFn, ce.AuxDeriv, ce.Coef, ce.TrigNode))


def _reads(e: ce.Expr, coefs: tuple) -> tuple:
    """The distinct nodes whose rows the row of ``e`` is computed from."""
    if isinstance(e, (ce.Add, ce.Sub, ce.Mul, ce.Div)):
        return (e.a,) if e.a is e.b else (e.a, e.b)
    if isinstance(e, (ce.Const, ce.Var, ce.Sampled)):
        return ()
    if isinstance(e, ce.IntPow):
        return (e.base,)
    if isinstance(e, (ce.ExpPrim, ce.FuncCall)):
        return (e.child,)
    if isinstance(e, ce.TrigNode):
        return tuple(dict.fromkeys(e.fs))
    if isinstance(e, ce.AuxFn):
        return (e.realization,)
    if isinstance(e, ce.AuxDeriv):
        return (e.fn.derivs[e.s - 1],)
    if isinstance(e, ce.Coef):
        return (coefs[e.j - 1],)
    raise TypeError(f"cannot lower {type(e).__name__}")


class LowerContext:
    """Shared state for one solve: grid, tolerances, slots, read counts, memo.

    ``uses`` counts the reads of each planned node still to come and
    ``memo`` holds the node's row while its count is above zero; both are
    keyed by the (interned) node.  A root keeps one read, so once every
    other planned read is made they hold exactly the roots.  Plan roots that
    share nodes together with :meth:`plan` before lowering them.  A context
    is cheap; make a fresh one per solve.
    """

    def __init__(self, grid: Grid, series_tol: float = DEFAULT_TOL):
        self.grid = grid
        self.series_tol = series_tol
        self.validity = (0, grid.n)  # node indices of the running validity
        self.coefs: tuple = ()  # coefs[j-1] is bound to the slot Coef(j)
        self.memo: dict = {}
        self.uses: dict = {}
        self.trig_diagnostics: dict = {}

    def plan(self, roots) -> None:
        """Count the reads that lowering ``roots`` will make: one per root,
        which is never taken, and one per distinct parent still to be
        computed.  A node counted already gets one more read and its
        children none, since it is computed once.  Nodes are interned, so
        the counts are keyed by the nodes themselves.  Plan before the roots
        are lowered; counts of several calls add up."""
        uses = self.uses
        stack = list(roots)
        while stack:
            node = stack.pop()
            left = uses.get(node, 0)
            uses[node] = left + 1
            if not left:
                stack.extend(_reads(node, self.coefs))

    def _keep(self, node: ce.Expr, row: np.ndarray) -> None:
        """Store a computed row; its reads of its children are done, so drop
        the rows read for the last time."""
        self.memo[node] = row
        uses, memo = self.uses, self.memo
        for child in _reads(node, self.coefs):
            left = uses[child] - 1
            if left:
                uses[child] = left
            else:
                del uses[child]
                del memo[child]

    def final_validity(self) -> Interval:
        """The running validity with one more grid cell off every side a
        division cut, as the Interval a solve reports: the one place the
        node run becomes an Interval.  ValidityCollapsed when the margin
        would move an edge past 0 or the run spans fewer than
        MIN_VALIDITY_CELLS grid cells."""
        g = self.grid
        cut_lo, cut_hi = self.validity
        lo, hi = cut_lo + (cut_lo > 0), cut_hi - (cut_hi < g.n)
        shown = f"validity interval [{g.nodes[cut_lo]:.4g}, {g.nodes[cut_hi]:.4g}] less its margin"
        if not lo <= g.zero_index <= hi:
            raise ValidityCollapsed(f"{shown} no longer contains 0")
        if hi - lo < MIN_VALIDITY_CELLS:
            raise ValidityCollapsed(f"{shown} spans {hi - lo} grid cells, below {MIN_VALIDITY_CELLS}")
        return Interval(float(g.nodes[lo]), float(g.nodes[hi]))


def _guarded_reciprocal(ctx: LowerContext, den: np.ndarray, power: int) -> np.ndarray:
    """den**(-power) (power >= 1) on the running validity, which shrinks to
    the run of nodes [lo, hi] around 0 where den is zero-free; zero outside
    it, and unmasked while the run is still the whole grid."""
    mag0 = float(abs(den[ctx.grid.zero_index]))
    if mag0 <= DIV_FLOOR:
        raise DivisorTooSmall(0.0, mag0, DIV_FLOOR)
    lo, hi = zero_free_interval(den, ctx.grid, DIV_FLOOR)
    lo, hi = max(lo, ctx.validity[0]), min(hi, ctx.validity[1])
    if lo == hi:
        raise ValidityCollapsed("validity interval became empty")
    ctx.validity = lo, hi
    if (lo, hi) == (0, ctx.grid.n):
        return den ** (-power)
    # the validity run lies inside the zero-free run of den
    out = np.zeros_like(den)
    out[lo : hi + 1] = den[lo : hi + 1] ** (-power)
    return out


def lower(e: ce.Expr, ctx: LowerContext) -> GridFn:
    """Evaluate an expression on the context's grid.

    This is the GridFn edge of lowering: the result wraps the memo's read-only
    array without a copy.  A node not planned yet is planned here as a root,
    with every index of its family, so later calls on the context share its
    row; a planned node is lowered as planned.  A division may shrink
    ``ctx.validity`` and zero the result outside it, so read ``ctx.validity``
    before trusting a node.  One loop computes the nodes without a row in
    depth-first post-order, children in ``_reads`` order; it silences
    floating-point overflow, as every node is checked.
    """
    memo = ctx.memo
    with np.errstate(over="ignore", invalid="ignore"):
        if e not in ctx.uses:
            family = range(1, e.n + 1) if isinstance(e, ce.TrigNode) else ()
            ctx.plan([e, *(ce.TrigNode(e.fs, j) for j in family if j != e.j)])
        stack = [e]
        while stack:
            node = stack.pop()
            if node in memo:  # before its reads, whose rows may be dropped
                continue
            missing = [child for child in _reads(node, ctx.coefs) if child not in memo]
            if missing:
                stack += [node, *reversed(missing)]
                continue
            row = _lower(node, ctx)
            if type(node) not in _CHECKED:
                check_finite(row, ctx.grid)
                row.setflags(write=False)
            ctx._keep(node, row)
    return GridFn._wrap(ctx.grid, memo[e])


def _lower(e: ce.Expr, ctx: LowerContext) -> np.ndarray:
    """The row of ``e``, computed from the memo's rows of its reads."""
    grid, memo = ctx.grid, ctx.memo
    if isinstance(e, (ce.Mul, ce.Add, ce.Sub)):
        return ce.BINARY[type(e)][2](memo[e.a], memo[e.b])
    if isinstance(e, ce.Const):
        return np.full(grid.n + 1, e.value.real if e.value.imag == 0 else e.value)
    if isinstance(e, ce.Var):
        return grid.nodes
    if isinstance(e, ce.Div):
        # a named operand keeps numpy from multiplying into the temporary in
        # place, whose loop rounds differently at large N
        rec = _guarded_reciprocal(ctx, memo[e.b], 1)
        return memo[e.a] * rec
    if isinstance(e, ce.IntPow):
        base = memo[e.base]
        return base**e.k if e.k >= 0 else _guarded_reciprocal(ctx, base, -e.k)
    if isinstance(e, ce.ExpPrim):
        return np.exp(e.sign * primitive_values(memo[e.child], grid))
    if isinstance(e, ce.FuncCall):
        arg = memo[e.child]
        # the principal root of a negative real is imaginary
        return getattr(np, e.name)(arg.astype(complex) if e.name == "sqrt" else arg)
    if isinstance(e, ce.TrigNode):
        inputs = [GridFn._wrap(grid, memo[f]) for f in e.fs]
        family, ctx.trig_diagnostics[e.fs] = trig_family(inputs, ctx.series_tol)
        # the other planned indices come from this pass too
        for j, member in enumerate(family, start=1):
            sibling = ce.TrigNode(e.fs, j)
            if sibling is not e and sibling in ctx.uses and sibling not in ctx.memo:
                ctx._keep(sibling, member.values)
        return family[e.j - 1].values
    if isinstance(e, ce.Sampled):
        if e.xs[0] > grid.lo + 1e-12 or e.xs[-1] < grid.hi - 1e-12:
            raise CoverageGap(
                f"table covers [{e.xs[0]:.6g}, {e.xs[-1]:.6g}] but the grid needs "
                f"[{grid.lo:.6g}, {grid.hi:.6g}]"
            )
        return _lagrange4(e.xs, e.ys, grid.nodes)
    if isinstance(e, (ce.AuxFn, ce.AuxDeriv, ce.Coef)):
        return memo[_reads(e, ctx.coefs)[0]]  # the realization, realized derivative or coefficient
    raise TypeError(f"cannot lower {type(e).__name__}")
