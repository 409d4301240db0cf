"""Lower expressions to sample rows on a grid.

Lowering is numeric only: it reads expressions, including the realized
derivatives an AuxFn carries, and never simplifies or differentiates.  A
LowerContext fixes the grid, series tolerances and the per-solve memo
store.  Every node lowers to a plain read-only array, checked finite
(Overflow at the first bad node), real until a complex constant, a complex
table or ``sqrt`` enters; the recursion never builds a GridFn.

Rows live by use count.  :meth:`LowerContext.plan` interns the expressions
first, so that structurally equal nodes are one node, and counts how many
times each node's row will be read: once per root read and once per distinct
parent still to be computed.  Lowering then computes every node exactly
once, depth first, keeps its row in the memo while reads of it remain and
drops it after the last one.  The recurrence pass of a trig family keeps
every planned index of it at once, so the family costs a single pass, and an
index nobody reads is not kept.
The public :func:`lower` is the GridFn edge and wraps the memo's row without
a copy.  A call for a planned node is one of its reads; a call for an
unplanned node plans it, with every index of its family, by a read that
stays open, so later calls on the context share the row.

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

_BINARY = frozenset((ce.Add, ce.Sub, ce.Mul, ce.Div))
# per node type: the scalar its row depends on and the children whose rows
# it reads, in order; structurally equal nodes have equal parts
_PARTS = {
    ce.Const: lambda e: (e.value, ()),
    ce.Var: lambda e: (None, ()),
    ce.IntPow: lambda e: (e.k, (e.base,)),
    ce.ExpPrim: lambda e: (e.sign, (e.child,)),
    ce.FuncCall: lambda e: (e.name, (e.child,)),
    ce.TrigNode: lambda e: (e.j, e.fs),
    ce.Sampled: lambda e: (e.key, ()),
    ce.AuxFn: lambda e: (None, (e.realization,)),
    ce.AuxDeriv: lambda e: (None, (e.fn.derivs[e.s - 1],)),
}
# nodes whose row is checked already: a child's row, or a series' checked sums
_CHECKED = frozenset((ce.AuxFn, ce.AuxDeriv, ce.TrigNode))


class LowerContext:
    """Shared state for one solve: grid, tolerances, read counts, memo.

    ``uses`` counts the reads of each planned node still to come, keyed by
    the node's id, and ``memo`` holds the node's row while that count is
    above zero; both are empty once every planned read is made.  Plan the
    roots with :meth:`plan` before lowering them.  A context is cheap; make
    a fresh one per solve.
    """

    def __init__(self, grid: Grid, series_tol: float = DEFAULT_TOL):
        self.grid = grid
        self.series_tol = series_tol
        self.validity = grid.interval
        self.memo: dict = {}
        self.uses: dict = {}
        self.trig_diagnostics: dict = {}
        self._node = {}  # id of every interned expression -> its node
        self._shape = {}  # (type, scalar, ids of child nodes) -> node
        self._reads = {}  # id of a node -> its distinct child nodes
        self._interned = []  # keeps every interned expression, and so its id, alive

    def plan(self, roots) -> None:
        """Count the reads that lowering ``roots`` will make: one per root
        and one per distinct parent still to be computed.  A node counted
        already gets one more read and its children none, since it is
        computed once.  Plan before the roots are lowered; counts of several
        calls add up."""
        nodes, uses = self._node, self.uses
        stack = [nodes.get(id(e)) or self._intern(e) for e in roots]
        while stack:
            node = stack.pop()
            left = uses.get(id(node), 0)
            uses[id(node)] = left + 1
            if not left:
                stack.extend(self._reads[id(node)])

    def _intern(self, e: ce.Expr) -> ce.Expr:
        """The node of an expression not yet interned: the first structurally
        equal one seen.  Children are interned first, so a shape compares
        ids, never subtrees."""
        nodes = self._node
        t = type(e)
        if t in _BINARY:  # the commonest nodes, spelled out
            a = nodes.get(id(e.a)) or self._intern(e.a)
            b = nodes.get(id(e.b)) or self._intern(e.b)
            shape, kids = (t, None, id(a), id(b)), ((a,) if a is b else (a, b))
        else:
            parts = _PARTS.get(t)
            if parts is None:
                raise TypeError(f"cannot lower {t.__name__}")
            scalar, kids = parts(e)
            if kids:
                kids = [nodes.get(id(k)) or self._intern(k) for k in kids]
                shape = (t, scalar, *map(id, kids))
                kids = tuple({id(k): k for k in kids}.values())
            else:
                shape = (t, scalar)
        node = self._shape.setdefault(shape, e)
        if node is e:
            self._reads[id(e)] = kids
        nodes[id(e)] = node
        self._interned.append(e)
        return node

    def _keep(self, node: ce.Expr, row: np.ndarray) -> None:
        """Store a computed row; its reads of its children are done."""
        self.memo[node] = row
        self._release(self._reads[id(node)])

    def _release(self, nodes) -> None:
        """One read of each node is done; drop the rows read for the last time."""
        uses, memo = self.uses, self.memo
        for node in nodes:
            left = uses[id(node)] - 1
            if left:
                uses[id(node)] = left
            else:
                del uses[id(node)]
                del memo[node]

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
    """Evaluate an expression on the context's grid.

    This is the GridFn edge of lowering: the result wraps the memo's
    read-only array without a copy.  A call for a planned node is one of
    its reads; an unplanned node is planned here, with every index of its
    family, by a read that stays open.  A division may shrink
    ``ctx.validity`` and zero the result outside it, so read
    ``ctx.validity`` before trusting a node.  Floating-point overflow is
    silenced here, once for the whole recursion, because every node is
    checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        node = ctx._node.get(id(e)) or ctx._intern(e)
        planned = id(node) in ctx.uses
        if not planned:
            family = range(1, node.n + 1) if isinstance(node, ce.TrigNode) else ()
            ctx.plan([node, *(ce.TrigNode(node.fs, j) for j in family if j != node.j)])
        row = _values(node, ctx)
        if planned:
            ctx._release((node,))
        return GridFn._wrap(ctx.grid, row)


def _values(e: ce.Expr, ctx: LowerContext) -> np.ndarray:
    """The checked, read-only sample row of one planned expression;
    Overflow at the first node where it is not finite."""
    node = ctx._node[id(e)]
    row = ctx.memo.get(node)
    if row is None:
        row = _lower(node, ctx)
        if type(node) not in _CHECKED:
            check_finite(row, ctx.grid)
            row.setflags(write=False)
        ctx._keep(node, row)
    return row


def _lower(e: ce.Expr, ctx: LowerContext) -> np.ndarray:
    grid = ctx.grid
    if isinstance(e, ce.Mul):
        return _values(e.a, ctx) * _values(e.b, ctx)
    if isinstance(e, ce.Add):
        return _values(e.a, ctx) + _values(e.b, ctx)
    if isinstance(e, ce.Sub):
        return _values(e.a, ctx) - _values(e.b, ctx)
    if isinstance(e, ce.Const):
        return np.full(grid.n + 1, e.value.real if e.value.imag == 0 else e.value)
    if isinstance(e, ce.Var):
        return grid.nodes
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
        # the other planned indices come from this pass too
        ids = [id(ctx._node[id(f)]) for f in e.fs]
        for j, member in enumerate(family, start=1):
            sibling = ctx._shape.get((ce.TrigNode, j, *ids))
            if j != e.j and sibling is not None and id(sibling) in ctx.uses and sibling not in ctx.memo:
                ctx._keep(sibling, member.values)
        return family[e.j - 1].values
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
