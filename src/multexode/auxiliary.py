"""Auxiliary-function chains.

An order-n problem with right-side coefficients a1..an is reduced to a chain
of strictly lower-order unit initial-value problems.  Starting from the unit
vector at the top position, each step extracts a scalar equation by applying
the upper-triangular derivative matrix (first row 0, 1, D, D^2, ...) to the
unknown times the current vector, contracting with (-1, a1, ..., an), and
collecting coefficients of u, u', u'', ...; the extraction expands each
D^k(u beta_m) by the Leibniz rule over one table of derivatives of the
vector, the same table that applying the matrix reads.  The solved function
feeds the next vector, and the remaining index-1 function is fixed by
requiring the product of all of them to equal an.  The lead of each
extracted equation, -beta_top, is the negated product of unit solutions, so
it is -1 at the anchor; the guarded division by it is its only check.

Solved functions are wrapped as AuxFn nodes so later symbolic derivatives cap
at the order of their defining equation; this keeps every expression in the
chain free of coefficient derivatives up to order four, matching the closed
forms that the wrapped recursion reproduces.

The chain depends only on the coefficients, so it is built without a grid,
as pure expressions.  Everything here is symbolic except
:func:`lower_chain`, the one entry that evaluates a built chain on a
LowerContext; a chain can be lowered on any number of grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import coeffexpr as ce
from .coeffexpr import AuxFn, Const, Expr, TrigNode, ZERO, as_expr
from .errors import DegenerateLeading
from .lower import LowerContext, lower
from .parser import parse


@dataclass(frozen=True)
class CoeffVector:
    """Full coefficient vector (a0, a1, ..., an) with a0 = -1 exactly."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(as_expr(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least order 1")
        if coeffs[0] != Const(-1):
            raise ValueError("leading entry must be the constant -1")

    @classmethod
    def from_rhs(cls, rhs) -> "CoeffVector":
        """Build from the right-side coefficients a1..an of y^(n) = sum aj y^(n-j)."""
        out = [Const(-1)]
        for c in rhs:
            out.append(parse(c) if isinstance(c, str) else as_expr(c))
        return cls(tuple(out))

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    def a(self, j: int) -> Expr:
        return self.coeffs[j]


def _derivative_table(v) -> list:
    """table[m][d] = D^d v_m for d < max(m, 1): every derivative the
    derivative matrix takes of entry m."""
    table = []
    for m, c in enumerate(v):
        row = [c]
        for _ in range(m - 1):
            row.append(ce.differentiate(row[-1]))
        table.append(row)
    return table


def apply_scriptD(v) -> list:
    """Apply the (n+1)x(n+1) upper-triangular derivative matrix to an
    expression vector: entry i becomes sum over m > i of D^(m-i-1) v_m.
    The last entry of the result is always the zero expression."""
    v = [as_expr(c) for c in v]
    table = _derivative_table(v)
    out = []
    for i in range(len(v) - 1):
        acc = ZERO
        for m in range(i + 1, len(v)):
            acc = ce.add(acc, table[m][m - i - 1])
        out.append(ce.simplify(acc))
    out.append(ZERO)
    return out


def extract_aux_ode(a: CoeffVector, beta):
    """Extract the auxiliary equation carried by a vector.

    Contracts (a0..an) with the derivative matrix applied to u * beta and
    collects the coefficient g_s of each u^(s), expanding every D^k(u beta_m)
    by the Leibniz rule sum_s C(k, s) u^(s) D^(k-s) beta_m over one derivative
    table of beta.  Normalizing by the leading coefficient g_m returns
    (order m, [b1..bm], g_m) for u^(m) = b1 u^(m-1) + ... + bm u; each b_i
    divides by g_m, so lowering guards against its zeros.  Raises
    DegenerateLeading when the extracted order is below what the vector's
    support promises.
    """
    beta = [as_expr(c) for c in beta]
    size = len(beta)
    if len(a.coeffs) != size:
        raise ValueError(f"coefficient vector has {len(a.coeffs)} entries, beta has {size}")

    table = _derivative_table(beta)
    g = []
    for s in range(size - 1):
        gs = ZERO
        for i in range(size - 1 - s):
            # entries m > i + s reach u^(s), summed from the top entry down
            acc = ZERO
            for m in range(i + s + 1, size):
                k = m - i - 1
                acc = ce.add(ce.mul(Const(comb(k, s)), table[m][k - s]), acc)
            gs = ce.add(gs, ce.mul(a.coeffs[i], acc))
        g.append(ce.simplify(gs))

    top_support = max((m for m, c in enumerate(beta) if c != ZERO), default=0)
    expected = top_support - 1
    order = max((s for s, c in enumerate(g) if c != ZERO), default=0)
    if order != expected or order < 1:
        raise DegenerateLeading(
            f"extracted order {order} does not match the expected order {expected}"
        )
    lead = g[order]
    b = [ce.simplify(ce.div(ce.mul(Const(-1), g[order - i]), lead)) for i in range(1, order + 1)]
    return order, b, lead


def solve_unit_ivp(order: int, b, name: str):
    """Closed expression for the unit solution of u^(m) = b1 u^(m-1) + ... + bm u
    with u(0) = 1 and all lower initial derivatives zero.

    Order 1 is an exponential of a primitive and order 2 the index-2 trig
    operator of the standard pair; higher orders recurse through a fresh
    auxiliary chain.
    """
    b = [as_expr(c) for c in b]
    if order == 1:
        return ce.expprim(b[0], 1)
    if order == 2:
        down = ce.expprim(b[0], -1)
        up = ce.expprim(b[0], 1)
        return TrigNode((ce.mul(b[1], down), up), 2)
    sub = _build_chain(CoeffVector.from_rhs(b), prefix=f"{name}.")
    return TrigNode(sub.phi, sub.n)


@dataclass(frozen=True)
class AuxChain:
    """The solved auxiliary functions of one problem, as expressions.

    phi[k-1] is the k-th auxiliary function (wrapped with its defining
    equation for k >= 2).  a is None for a preset's hand-built chain that no
    coefficient vector describes, such as the impedance pair.
    """

    n: int
    a: CoeffVector | None
    phi: tuple


def _build_chain(a: CoeffVector, prefix: str = "") -> AuxChain:
    n = a.n
    if n < 2:
        raise ValueError("auxiliary chains start at order 2")

    cur = [ZERO] * n + [ce.ONE]
    phis: dict[int, Expr] = {}
    for k in range(n, 1, -1):
        # the vector's top entry is at index k, so extract_aux_ode checks order k - 1
        order, b, _ = extract_aux_ode(a, cur)
        name = f"{prefix}phi{k}"
        phis[k] = AuxFn(name, order, tuple(b), solve_unit_ivp(order, b, name))
        cur = apply_scriptD([ce.mul(phis[k], entry) for entry in cur])

    prod = None
    for k in range(2, n + 1):
        prod = phis[k] if prod is None else ce.mul(prod, phis[k])
    phis[1] = ce.simplify(ce.mul(a.a(n), ce.invert(prod)))
    return AuxChain(n, a, tuple(phis[k] for k in range(1, n + 1)))


def build_aux_chain(a: CoeffVector) -> AuxChain:
    """Run the general recursion for the coefficients in ``a``; no grid is
    involved.  The recursion differentiates only auxiliary functions, never
    a coefficient, so a sampled coefficient needs no derivative."""
    return _build_chain(a)


def lower_chain(chain: AuxChain, ctx: LowerContext):
    """Evaluate a built chain on a context.

    Plans the phi as roots, whose rows stay in ``ctx.memo`` (a caller that
    lowers more from the chain on the same context plans that before), then
    lowers phi_2, phi_3, ..., phi_n and last phi_1.  Division by auxiliary
    functions and by the leads is guarded: wherever a divisor approaches
    zero the validity interval shrinks and values outside it are zeroed.  Returns the rows
    phi_1..phi_n, the series diagnostics of each phi_k keyed by k (None
    where phi_k is not a trig operator), and ``ctx.final_validity()``, the
    interval on which the rows are trustworthy.
    """
    ctx.plan(chain.phi)
    # phi_2's equation reads every phi_k with k >= 3, so their own calls
    # find the row in the memo
    rows = {k: lower(chain.phi[k - 1], ctx) for k in [*range(2, chain.n + 1), 1]}
    diags = {}
    for k, p in enumerate(chain.phi, start=1):
        real = p.realization if isinstance(p, AuxFn) else p
        diags[k] = ctx.trig_diagnostics.get(real.fs) if isinstance(real, TrigNode) else None
    return tuple(rows[k] for k in range(1, chain.n + 1)), diags, ctx.final_validity()
