"""Immutable coefficient-expression IR with symbolic differentiation.

Expression trees carry everything the solver manipulates symbolically:
constants, the variable x, arithmetic, exponentials of anchored primitives,
trig-operator nodes, and sampled data tables (a coefficient known only on the
grid is the table ``Sampled(grid.nodes, values)``).  Differentiation knows
the special rules of the method: the derivative of a trig node shifts its
index and multiplies by one input, the derivative of exp(±P f) is ±f times
itself, and derivatives of a solved auxiliary function stop at the order of
its defining equation, where the equation's right side is substituted
instead of differentiating further.

Nodes are hash-consed: every node is interned when it is built, so
structurally equal expressions are one object, equality and hashing are
identity, and the shared derivative chains of the auxiliary recursion form a
DAG rather than copies of a tree.  A node leaves the intern table when
nothing references it.

Simplification is deliberately small: constant folding, 0/1 absorption and
flattening of +/* chains, memoised on each node.  Nothing here attempts
general computer algebra.
"""

from __future__ import annotations

import cmath
import hashlib
import operator
import weakref

import numpy as np

from .errors import NonDifferentiable, NonMonotoneAbscissae

# each is folded by the cmath function of its name, lowered by numpy's
FUNC_NAMES = ("sin", "cos", "exp", "sinh", "cosh", "sqrt")


class Expr:
    """Base class for expression nodes.

    Nodes are immutable and interned: each class builds its nodes in
    ``__new__`` through one table of live nodes, keyed by the type, the
    scalars and the ids of the children, so equality and hashing are the
    inherited identity.  A node holds its children, so the ids in a live key
    name live objects.  ``_simple`` memoises :func:`simplify`.
    """

    __slots__ = ("_simple", "__weakref__")

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def __repr__(self):
        return f"{type(self).__name__}({to_text(self)})"


_NODES = weakref.WeakValueDictionary()
_set = object.__setattr__


def _interned(cls, key, *fields):
    """The live node of ``key``, or a new ``cls`` node with ``fields`` in the
    order of ``cls.__slots__``."""
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            _set(node, name, value)
        _NODES[key] = node
    return node


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, complex, np.integer, np.floating, np.complexfloating)):
        if not cmath.isfinite(v):
            raise ValueError(f"a number in an expression must be finite, got {v!r}")
        return Const(complex(v))
    raise TypeError(f"cannot interpret {v!r} as an expression")


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):  # the commonest nodes with the binary ones, spelled out
        value = complex(value)
        key = (cls, value)
        node = _NODES.get(key)
        if node is None:  # -0.0 and 0.0 are one key: store 0.0, whichever comes first
            node = _NODES[key] = object.__new__(cls)
            _set(node, "value", value + 0j)
        return node


class Var(Expr):
    __slots__ = ()

    def __new__(cls):
        return _interned(cls, (cls,))


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __new__(cls, a, b):
        if not isinstance(a, Expr):
            a = as_expr(a)
        if not isinstance(b, Expr):
            b = as_expr(b)
        key = (cls, id(a), id(b))
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            _set(node, "a", a)
            _set(node, "b", b)
        return node


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


# each binary operator's printed symbol, precedence and arithmetic: the
# parser's levels and constant folding, the printer, simplify's fold and
# lowering all read this one table
BINARY = {
    Add: (" + ", 1, operator.add),
    Sub: (" - ", 1, operator.sub),
    Mul: ("*", 2, operator.mul),
    Div: ("/", 2, operator.truediv),
}


class IntPow(Expr):
    __slots__ = ("base", "k")

    def __new__(cls, base, k):
        base = as_expr(base)
        k = int(k)
        return _interned(cls, (cls, k, id(base)), base, k)


class ExpPrim(Expr):
    """exp(sign * P child) where P is the anchored primitive."""

    __slots__ = ("child", "sign")

    def __new__(cls, child, sign):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        child = as_expr(child)
        sign = int(sign)
        return _interned(cls, (cls, sign, id(child)), child, sign)


class FuncCall(Expr):
    __slots__ = ("name", "child")

    def __new__(cls, name, child):
        if name not in FUNC_NAMES:
            raise ValueError(f"unknown function {name!r}")
        child = as_expr(child)
        return _interned(cls, (cls, name, id(child)), name, child)


class TrigNode(Expr):
    """Trig operator applied to n input expressions, selected index j."""

    __slots__ = ("fs", "j")

    def __new__(cls, fs, j):
        fs = tuple(as_expr(f) for f in fs)
        j = int(j)
        if not fs:
            raise ValueError("trig node needs at least one input")
        if not 1 <= j <= len(fs):
            raise ValueError(f"index j = {j} out of range 1..{len(fs)}")
        return _interned(cls, (cls, j, *map(id, fs)), fs, j)

    @property
    def n(self):
        return len(self.fs)


class Sampled(Expr):
    """A data table (xs, values) interpolated onto the grid at lowering.

    A table has at least 4 rows, strictly increasing abscissae and finite
    values, so that its 4-point interpolant and derivative are defined.  It
    is interned by its length, its value dtype and the digest ``key`` of its
    content, so tables can be large without making node construction
    expensive, and a real table never shares the bytes of a complex one.
    """

    __slots__ = ("xs", "ys", "key")

    def __new__(cls, xs, ys):
        xs = np.array(xs, dtype=float)
        ys = np.array(ys, dtype=np.result_type(np.asarray(ys), float))  # a real table stays real
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("sampled table needs matching 1-d abscissae and values")
        if len(xs) < 4:
            raise ValueError(f"sampled table needs at least 4 rows, got {len(xs)}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("sampled table has a value that is not finite")
        if np.any(np.diff(xs) <= 0):
            raise NonMonotoneAbscissae("sampled table abscissae must be strictly increasing")
        xs.setflags(write=False)
        ys.setflags(write=False)
        key = hashlib.sha1(xs.tobytes() + ys.tobytes()).hexdigest()[:16]
        return _interned(cls, (cls, key, len(xs), ys.dtype), xs, ys, key)


class Coef(Expr):
    """Slot j of a chain template, named a{j}, bound to a_j at lowering."""

    __slots__ = ("j", "name")

    def __new__(cls, j):
        return _interned(cls, (cls, j), j, f"a{j}")


class AuxFn(Expr):
    """A solved auxiliary function wrapped with its defining equation.

    order m and right-side coefficients (b1..bm) of u^(m) = b1 u^(m-1) + ...
    + bm u; realization is the closed expression the solver produced for it.
    Differentiation of an AuxFn proceeds through AuxDeriv placeholders until
    order m, where the equation's right side is substituted, capping the
    symbolic derivative depth exactly as the recursion requires.  derivs[s-1]
    is the simplified s-th derivative of the realization (1 <= s < m), what
    AuxDeriv(self, s) evaluates to; a new node makes them once, so that
    lowering does no symbolic work.
    """

    __slots__ = ("name", "order", "bcoeffs", "realization", "derivs")

    def __new__(cls, name, order, bcoeffs, realization):
        bcoeffs = tuple(as_expr(b) for b in bcoeffs)
        order = int(order)
        if order < 1 or len(bcoeffs) != order:
            raise ValueError("need exactly `order` right-side coefficients")
        realization = as_expr(realization)
        name = str(name)
        key = (cls, name, order, *map(id, bcoeffs), id(realization))
        node = _NODES.get(key)
        if node is not None:
            return node
        derivs, d = [], realization
        for _ in range(order - 1):
            d = differentiate(d)
            derivs.append(simplify(d))
        return _interned(cls, key, name, order, bcoeffs, realization, tuple(derivs))


class AuxDeriv(Expr):
    """s-th derivative of an AuxFn, 1 <= s < order."""

    __slots__ = ("fn", "s")

    def __new__(cls, fn, s):
        if not isinstance(fn, AuxFn):
            raise TypeError("AuxDeriv wraps an AuxFn")
        s = int(s)
        if not 1 <= s <= fn.order - 1:
            raise ValueError(f"derivative order {s} outside 1..{fn.order - 1}")
        return _interned(cls, (cls, s, id(fn)), fn, s)


ZERO = Const(0)
ONE = Const(1)
X = Var()


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


# ---------------------------------------------------------------------
# smart constructors: local constant folding and 0/1 absorption
# ---------------------------------------------------------------------

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if a == b:
        return ZERO
    if _is_const(a, 0):
        return mul(Const(-1), b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if _is_const(b) and not _is_const(a):
        a, b = b, a
    if _is_const(a) and isinstance(b, Mul) and _is_const(b.a):
        return mul(Const(a.value * b.a.value), b.b)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0:
        return Const(a.value / b.value)
    if _is_const(a, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    if _is_const(b) and b.value != 0:
        return mul(Const(1.0 / b.value), a)
    return Div(a, b)


def intpow(base: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return base
    if _is_const(base):
        try:
            folded = base.value**k
        except (ZeroDivisionError, OverflowError):
            return IntPow(base, k)
        if cmath.isfinite(folded):
            return Const(folded)
        return IntPow(base, k)
    if isinstance(base, IntPow):
        return intpow(base.base, base.k * k)
    return IntPow(base, k)


def expprim(child: Expr, sign: int) -> Expr:
    if _is_const(child, 0):
        return ONE
    return ExpPrim(child, sign)


def func(name: str, child: Expr) -> Expr:
    if _is_const(child):
        try:
            folded = getattr(cmath, name)(child.value)
        except (OverflowError, ValueError):
            return FuncCall(name, child)
        if cmath.isfinite(folded):
            return Const(folded)
    return FuncCall(name, child)


def invert(e: Expr) -> Expr:
    """Structural reciprocal of a product of factors, factor by factor."""
    if isinstance(e, Mul):
        return mul(invert(e.a), invert(e.b))
    return IntPow(e, -1)


# ---------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------

_SELF = object()  # the memo of a node that simplifies to itself


def simplify(e: Expr) -> Expr:
    """Bottom-up constant folding, 0/1 absorption, and +/* flattening.

    Flattened chains are rebuilt left-associated with any folded constant
    first, which is also the canonical order the printer emits.  The result
    is memoised on the node, so each node is simplified once; a node that
    simplifies to itself keeps a marker, not a reference to itself.  One
    loop over an explicit stack simplifies a node after its operands, so no
    Python stack depth limits how long a chain of operators is.
    """
    try:
        out = e._simple
    except AttributeError:
        stack = [e]  # nodes to visit, and (node, operands) pairs to simplify once the operands above are
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                node, ops = node
                out = _simplify(node, [c if c._simple is _SELF else c._simple for c in ops])
                _set(node, "_simple", _SELF if out is node else out)
            elif not hasattr(node, "_simple"):  # a node reached twice is simplified once
                ops = _operands(node)
                stack.append((node, ops))
                stack += reversed(ops)
        out = e._simple
    return e if out is _SELF else out


def _operands(e: Expr):
    """The nodes whose simplified forms the simplified ``e`` is built from:
    the operand chain of nested Add or Mul nodes, collected once here, or
    the children."""
    if isinstance(e, (Add, Mul)):
        cls, out, stack = type(e), [], [e]
        while stack:
            cur = stack.pop()
            if isinstance(cur, cls):
                stack += (cur.b, cur.a)
            else:
                out.append(cur)
        return out
    if isinstance(e, (Sub, Div)):
        return (e.a, e.b)
    if isinstance(e, IntPow):
        return (e.base,)
    if isinstance(e, (ExpPrim, FuncCall)):
        return (e.child,)
    return e.fs if isinstance(e, TrigNode) else ()


def _simplify(e: Expr, ops: list) -> Expr:
    """The simplified ``e`` from the simplified forms ``ops`` of its operands."""
    if isinstance(e, (Add, Mul)):
        cls = type(e)
        fold = BINARY[cls][2]
        identity = complex(0) if cls is Add else complex(1)
        cval = identity
        rest = []
        for c in ops:
            if _is_const(c):
                cval = fold(cval, c.value)
            else:
                rest.append(c)
        if cls is Mul and cval == 0:
            return ZERO
        out = None
        if cval != identity or not rest:
            out = Const(cval)
        for c in rest:
            out = c if out is None else cls(out, c)
        return out
    if isinstance(e, Sub):
        return sub(*ops)
    if isinstance(e, Div):
        return div(*ops)
    if isinstance(e, IntPow):
        return intpow(ops[0], e.k)
    if isinstance(e, ExpPrim):
        return expprim(ops[0], e.sign)
    if isinstance(e, FuncCall):
        return func(e.name, ops[0])
    if isinstance(e, TrigNode):
        return TrigNode(ops, e.j)
    if isinstance(e, (Const, Var, Sampled, Coef, AuxFn, AuxDeriv)):
        return e
    raise TypeError(f"cannot simplify {type(e).__name__}")


# ---------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------

_FUNC_DERIV = {
    "sin": lambda u, du: mul(func("cos", u), du),
    "cos": lambda u, du: mul(Const(-1), mul(func("sin", u), du)),
    "exp": lambda u, du: mul(func("exp", u), du),
    "sinh": lambda u, du: mul(func("cosh", u), du),
    "cosh": lambda u, du: mul(func("sinh", u), du),
    "sqrt": lambda u, du: div(du, mul(Const(2), func("sqrt", u))),
}


def differentiate(e: Expr) -> Expr:
    """Symbolic d/dx of an expression.

    Trig nodes follow the index-shift rule (the j-th operator's derivative is
    its j-th input times the operator at index j-1, wrapping j=1 to n).
    A sampled table or a slot has no derivative and raises NonDifferentiable.
    Auxiliary-function derivatives cap at the order of the defining
    equation, substituting its right side there.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return add(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Sub):
        return sub(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b)))
    if isinstance(e, Div):
        return div(sub(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b))), intpow(e.b, 2))
    if isinstance(e, IntPow):
        return mul(mul(Const(e.k), intpow(e.base, e.k - 1)), differentiate(e.base))
    if isinstance(e, ExpPrim):
        return mul(mul(Const(e.sign), e.child), e)
    if isinstance(e, FuncCall):
        return _FUNC_DERIV[e.name](e.child, differentiate(e.child))
    if isinstance(e, TrigNode):
        if e.j >= 2:
            return mul(e.fs[e.j - 1], TrigNode(e.fs, e.j - 1))
        return mul(e.fs[0], TrigNode(e.fs, e.n))
    if isinstance(e, (Sampled, Coef)):
        raise NonDifferentiable(f"{_print(e)[0]} has no derivative; only expressions are differentiated")
    if isinstance(e, AuxFn):
        if e.order == 1:
            return mul(e.bcoeffs[0], e)
        return AuxDeriv(e, 1)
    if isinstance(e, AuxDeriv):
        fn = e.fn
        if e.s + 1 <= fn.order - 1:
            return AuxDeriv(fn, e.s + 1)
        out = ZERO
        for i, b in enumerate(fn.bcoeffs, start=1):
            lower_order = fn.order - i
            term = fn if lower_order == 0 else AuxDeriv(fn, lower_order)
            out = add(out, mul(b, term))
        return out
    raise TypeError(f"cannot differentiate {type(e).__name__}")


# ---------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------

def _fmt_const(c: complex) -> str:
    if c.imag == 0:
        return f"{c.real:.17g}"
    if c.real == 0:
        if c.imag == 1:
            return "i"
        return f"({c.imag:.17g}*i)"
    return f"({c.real:.17g} + {c.imag:.17g}*i)"


_PREC = {"pow": 3, "atom": 4}  # above every binary operator's


def _print(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        s = _fmt_const(e.value)
        return s, (_PREC["atom"] if not s.startswith("-") else _PREC["pow"])
    if isinstance(e, Var):
        return "x", _PREC["atom"]
    if isinstance(e, Mul) and _is_const(e.a, -1):
        sb, pb = _print(e.b)
        # unary minus binds tighter than ^, so only atoms stay bare
        if pb != _PREC["atom"]:
            sb = f"({sb})"
        return f"-{sb}", BINARY[Mul][1]
    if isinstance(e, _Binary):
        symbol, prec, _ = BINARY[type(e)]
        sa, pa = _print(e.a)
        sb, pb = _print(e.b)
        # left-associative: the left operand is bracketed below the
        # operator's precedence, the right one at or below it
        if pa < prec:
            sa = f"({sa})"
        if pb <= prec:
            sb = f"({sb})"
        return f"{sa}{symbol}{sb}", prec
    if isinstance(e, IntPow):
        sb, pb = _print(e.base)
        if pb < _PREC["atom"]:
            sb = f"({sb})"
        return f"{sb}^{e.k}", _PREC["pow"]
    if isinstance(e, FuncCall):
        return f"{e.name}({_print(e.child)[0]})", _PREC["atom"]
    # display-only forms below; not part of the parseable grammar
    if isinstance(e, ExpPrim):
        s = "+" if e.sign > 0 else "-"
        return f"expP[{s}]({_print(e.child)[0]})", _PREC["atom"]
    if isinstance(e, TrigNode):
        inner = ", ".join(_print(f)[0] for f in e.fs)
        return f"T[{e.j}]({inner})", _PREC["atom"]
    if isinstance(e, Sampled):
        return f"sampled({e.key})", _PREC["atom"]
    if isinstance(e, (Coef, AuxFn)):
        return e.name, _PREC["atom"]
    if isinstance(e, AuxDeriv):
        return f"{e.fn.name}{'_x' * e.s}", _PREC["atom"]
    raise TypeError(f"cannot print {type(e).__name__}")


def to_text(e: Expr) -> str:
    """Canonical text of the simplified expression.

    For trees built from the parseable grammar (constants, x, arithmetic,
    integer powers, function calls) the output parses back to the same
    simplified tree.  Operator nodes print in a bracketed display form that
    is not meant to be re-parsed.
    """
    return _print(simplify(e))[0]
