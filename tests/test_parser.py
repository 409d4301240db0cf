import gc

import pytest
from hypothesis import given, settings, strategies as st

from multexode import (
    Add,
    Const,
    Div,
    ExpressionSyntaxError,
    FuncCall,
    Grid,
    IVProblem,
    IntPow,
    Mul,
    Sub,
    Var,
    parse,
    simplify,
    solve_ivp,
    to_text,
)
from multexode import parser, solver

DEEP = "(" * 260 + "x" + ")" * 260


class TestGrammar:
    def test_quotient_structure(self):
        e = parse("1/(1+x^2)")
        assert e == Div(Const(1), Add(Const(1), IntPow(Var(), 2)))

    def test_function_call(self):
        assert parse("sin(2*x)") == FuncCall("sin", Mul(Const(2), Var()))

    def test_unbalanced_parenthesis_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("((x")
        assert exc.value.offset == 3

    def test_precedence(self):
        assert parse("1+2*x") == Add(Const(1), Mul(Const(2), Var()))
        assert parse("sin(x)*x - x/sin(x)") == Sub(
            Mul(FuncCall("sin", Var()), Var()), Div(Var(), FuncCall("sin", Var()))
        )

    def test_unary_minus_binds_tighter_than_power(self):
        assert parse("-x^2") == IntPow(Mul(Const(-1), Var()), 2)

    def test_negative_literal_folds(self):
        assert parse("-3") == Const(-3)
        assert parse("-3*x") == Mul(Const(-3), Var())

    def test_imaginary_unit(self):
        assert parse("2*i") == Const(2j)
        assert parse("(1 + 2*i)*x") == Mul(Const(1 + 2j), Var())

    def test_negative_integer_exponent(self):
        assert parse("x^-2") == IntPow(Var(), -2)

    def test_constant_only_subtrees_fold(self):
        assert parse("2*3 + 1") == Const(7)
        assert parse("6/3 - 2*2") == Const(-2)
        assert parse("sin(2*x)") == FuncCall("sin", Mul(Const(2), Var()))  # mixed: no fold

    def test_a_constant_over_zero_stays_a_division(self):
        assert parse("1/0") == Div(Const(1), Const(0))

    def test_scientific_notation(self):
        assert parse("1.5e-3*x") == Mul(Const(0.0015), Var())


class TestErrors:
    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_unknown_identifier_names_expectations(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("2*foo")
        assert "sin" in exc.value.expected or "x" in exc.value.expected
        assert exc.value.offset == 2
        assert exc.value.found == "foo"

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("x + 1 )")
        assert exc.value.offset == 6

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x^1.5")

    def test_missing_operand(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("1 + ")
        assert exc.value.offset >= 3

    @pytest.mark.parametrize(
        "text, offset, expected, found",
        [
            ("x^1.5", 3, {"<end of input>", "operator"}, "."),
            ("2x", 1, {"<end of input>", "operator"}, "x"),
            ("sin x", 4, {"("}, "x"),
            ("x^-", 2, {"integer exponent"}, "-"),
            ("x--", 3, {"(", "identifier", "number"}, "<end of input>"),
            ("1 + * 2", 4, {"(", "identifier", "number"}, "*"),
            ("cos()", 4, {"(", "identifier", "number"}, ")"),
            ("(x", 2, {")"}, "<end of input>"),
        ],
    )
    def test_error_position_and_expectations(self, text, offset, expected, found):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse(text)
        assert (exc.value.offset, set(exc.value.expected), exc.value.found) == (offset, expected, found)

    def test_nesting_too_deep_to_recurse_is_a_syntax_error(self):
        assert parse("(" * 100 + "x" + ")" * 100) is Var()
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse(DEEP)
        assert (exc.value.offset, exc.value.found) == (0, "<nesting too deep>")


def _below(frames, fn):
    """fn() called the given number of stack frames below the caller."""
    return fn() if frames == 0 else _below(frames - 1, fn)


LIMIT = parser.MAX_NESTING
# a text at the nesting limit and one a level deeper: every open
# parenthesis and every unary minus is a level
NESTED = {
    "parentheses": ("(" * LIMIT + "x" + ")" * LIMIT, "(" * (LIMIT + 1) + "x" + ")" * (LIMIT + 1)),
    "calls": ("sin(" * LIMIT + "x" + ")" * LIMIT, "sin(" * (LIMIT + 1) + "x" + ")" * (LIMIT + 1)),
    "minuses": ("-" * LIMIT + "x", "-" * (LIMIT + 1) + "x"),
    "mixed": ("-(" * (LIMIT // 2) + "x" + ")" * (LIMIT // 2), "-" + "-(" * (LIMIT // 2) + "x" + ")" * (LIMIT // 2)),
}


class TestNestingLimit:
    """How deep a text may nest is a property of the text: one at the limit
    parses from deep in the stack, one a level deeper fails from anywhere,
    also while the text at the limit is held in the index."""

    @pytest.mark.parametrize("at_limit, over", NESTED.values(), ids=NESTED.keys())
    def test_the_limit_is_the_texts(self, at_limit, over):
        held = _below(300, lambda: parse(at_limit))
        assert parse(at_limit) is held and parser._PARSED[at_limit] is held
        for frames in (0, 300):
            with pytest.raises(ExpressionSyntaxError) as exc:
                _below(frames, lambda: parse(over))
            assert (exc.value.offset, exc.value.found) == (0, "<nesting too deep>")
        assert over not in parser._PARSED


# order-3 equations whose constants no other test uses
INDEXED3 = ("0.0173*x", "-1.0229+0.1187*sin(x)", "0.2213")
DROPPED3 = ("0.0179*x", "-1.0313", "0.2281*cos(x)")


class TestIndex:
    def test_a_text_parses_to_one_root(self):
        assert parse("0.5*x - sin(x)") is parse("0.5*x - sin(x)")

    def test_a_repeat_solve_parses_nothing(self, monkeypatch):
        g = Grid(-1, 1, 200)
        first, _ = solve_ivp(IVProblem(3, INDEXED3, (1, 0, 0)), g)
        runs = []
        inner = parser._Parser.parse
        monkeypatch.setattr(parser._Parser, "parse", lambda self: runs.append(self.text) or inner(self))
        second, _ = solve_ivp(IVProblem(3, INDEXED3, (1, 0, 0)), g)
        assert runs == [] and (second.values == first.values).all()

    @pytest.mark.parametrize("text", ["x^1.5", "2*foo", "(x", "cos()", pytest.param(DEEP, id="too_deep")])
    def test_a_bad_text_fails_alike_every_time_and_is_never_kept(self, text):
        outcomes = []
        for _ in range(2):
            with pytest.raises(ExpressionSyntaxError) as exc:
                parse(text)
            outcomes.append((exc.value.offset, exc.value.expected, exc.value.found, str(exc.value)))
        assert outcomes[0] == outcomes[1] and text not in parser._PARSED

    def test_an_entry_lives_as_long_as_its_expression(self):
        gc.disable()  # so that only reference counts free the roots
        try:
            problem = IVProblem(3, DROPPED3, (1, 0, 0))
            assert all(parser._PARSED.get(t) is e for t, e in zip(DROPPED3, problem.coefficients))
            y, bs = solve_ivp(problem, Grid(-1, 1, 200))
            del problem, y, bs
            # the solve memo's chain holds the coefficients, and so the entries
            assert all(t in parser._PARSED for t in DROPPED3)
            solver._LOWERED.clear()
            assert not any(t in parser._PARSED for t in DROPPED3)
        finally:
            gc.enable()


def _atoms():
    return st.one_of(
        st.sampled_from([Var(), FuncCall("sin", Var())]),
        st.integers(min_value=-4, max_value=7).map(Const),
        st.sampled_from([Const(0.5), Const(2.25), Const(1j)]),
    )


def _exprs(depth=3):
    if depth == 0:
        return _atoms()
    sub = _exprs(depth - 1)
    return st.one_of(
        _atoms(),
        st.tuples(sub, sub).map(lambda ab: Add(*ab)),
        st.tuples(sub, sub).map(lambda ab: Sub(*ab)),
        st.tuples(sub, sub).map(lambda ab: Mul(*ab)),
        st.tuples(sub, sub).map(lambda ab: Div(*ab)),
        st.tuples(sub, st.integers(min_value=-3, max_value=3)).map(lambda bk: IntPow(*bk)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), sub).map(
            lambda nc: FuncCall(*nc)
        ),
    )


class TestRoundTrip:
    @given(_exprs())
    @settings(max_examples=200, deadline=None)
    def test_parse_of_print_is_the_simplification(self, e):
        assert parse(to_text(e)) == simplify(e)

    def test_round_trip_examples(self):
        for text in ["1/(1+x^2)", "sin(2*x)", "sin(x)*x^2 - x", "2*x*cos(x) + -3", "x^-2/(2 + sin(x))"]:
            e = parse(text)
            assert parse(to_text(e)) == simplify(e)
