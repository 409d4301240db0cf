"""Recursive-descent parser for coefficient expressions.

Grammar (EBNF, also documented in the README):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := atomneg ("^" intlit)?
    atomneg := "-" atomneg | atom
    intlit  := ["-"] digits
    atom    := number | "x" | "i" | func "(" expr ")" | "(" expr ")"
    func    := "sin" | "cos" | "exp" | "sinh" | "cosh" | "sqrt"

Unary minus binds tighter than "^", so -x^2 means (-x)^2.  Exponents are
integer literals (negative allowed).  "i" is the imaginary unit.  The
levels expr and term are the precedences of the operator table
coeffexpr.BINARY, and subtrees whose operands are all constants fold at
parse time by its arithmetic, which is what makes the canonical printer
round-trip exactly.  A weak index from each parsed text to its root keeps
nothing alive, so a text is parsed once while anything holds its expression
(a problem, or a chain in the solver's memo); a failed parse is never kept.
"""

from __future__ import annotations

import re
import weakref

from .coeffexpr import (
    BINARY,
    Const,
    Expr,
    FuncCall,
    IntPow,
    Mul,
    Var,
    FUNC_NAMES,
    _is_const,
    intpow,
)
from .errors import ExpressionSyntaxError

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# each binary operator's symbol to its node class, precedence and arithmetic
_OPS = {symbol.strip(): (cls, prec, fn) for cls, (symbol, prec, fn) in BINARY.items()}
# exact text -> its parsed root, while something else holds the root
_PARSED = weakref.WeakValueDictionary()
# parentheses and unary minuses a text may nest, whatever the caller's stack:
# a level costs at most six stack frames, so deep callers parse it too
MAX_NESTING = 100


def _fold(cls, fn, a, b):
    """Build the raw node, folding only when both operands are constants."""
    if _is_const(a) and _is_const(b):
        try:
            return Const(fn(a.value, b.value))
        except ZeroDivisionError:  # a constant over the constant 0 stays a Div
            pass
    return cls(a, b)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # the parentheses and unary minuses around the next atom

    def error(self, expected, found=None):
        found = found or self.text[self.pos : self.pos + 1] or "<end of input>"
        raise ExpressionSyntaxError(self.pos, expected, found)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos : self.pos + 1]

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error({"expression"})
        e = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error({"operator", "<end of input>"})
        return e

    def expr(self, prec: int = 0) -> Expr:
        """Factors joined left to right by the operators of precedence prec
        and above; an operator's right operand binds tighter than it."""
        e = self.factor()
        while (op := _OPS.get(self.peek())) is not None and op[1] >= prec:
            cls, p, fn = op
            self.pos += 1
            e = _fold(cls, fn, e, self.expr(p + 1))
        return e

    def factor(self) -> Expr:
        e = self.atomneg()
        if self.peek() == "^":
            self.pos += 1
            k = self.intlit()
            if _is_const(e):
                return intpow(e, k)
            return IntPow(e, k)
        return e

    def atomneg(self) -> Expr:
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(0, {"expression"}, "<nesting too deep>")
        self.depth += 1
        if self.peek() == "-":
            self.pos += 1
            inner = self.atomneg()
            e = Const(-inner.value) if _is_const(inner) else Mul(Const(-1), inner)
        else:
            e = self.atom()
        self.depth -= 1
        return e

    def intlit(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.take("-"):
            self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos :])
        if not m:
            self.pos = start
            self.error({"integer exponent"})
        self.pos += m.end()
        return int(self.text[start : self.pos].replace(" ", ""))

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error({"number", "identifier", "("})
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            e = self.expr()
            if not self.take(")"):
                self.error({")"})
            return e
        m = _NUMBER.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _IDENT.match(self.text, self.pos)
        if m:
            name = m.group()
            if name not in ("x", "i", *FUNC_NAMES):
                self.error({"x", "i"} | set(FUNC_NAMES), name)
            self.pos = m.end()
            if name == "x":
                return Var()
            if name == "i":
                return Const(1j)
            if not self.take("("):
                self.error({"("})
            e = self.expr()
            if not self.take(")"):
                self.error({")"})
            return FuncCall(name, e)
        self.error({"number", "identifier", "("})


def parse(text: str) -> Expr:
    """Parse an expression string into the IR.

    Raises :class:`ExpressionSyntaxError` with the byte offset and the set of
    tokens that would have been accepted there, at offset 0 for nesting
    deeper than MAX_NESTING.  A text whose root is alive returns it from the index.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionSyntaxError(0, {"expression"}, "<empty>")
    e = _PARSED.get(text)
    if e is None:
        try:
            e = _PARSED[text] = _Parser(text).parse()
        except RecursionError:
            raise ExpressionSyntaxError(0, {"expression"}, "<nesting too deep>") from None
    return e
