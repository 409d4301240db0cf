import importlib

import numpy as np
import pytest

from multexode import (
    Add,
    AuxDeriv,
    AuxFn,
    Const,
    Div,
    ExpPrim,
    FuncCall,
    Grid,
    IntPow,
    LowerContext,
    Mul,
    NonDifferentiable,
    NonMonotoneAbscissae,
    Sampled,
    Sub,
    TrigNode,
    Var,
    differentiate,
    lower,
    parse,
    simplify,
    to_text,
)
from multexode.coeffexpr import ONE, X, ZERO, add, as_expr, mul
from multexode.gridfn import _lagrange4

from multexode import GridFn


class TestStructure:
    def test_equality_and_hashing(self):
        assert parse("x^2 + 1") == parse("x^2 + 1")
        assert hash(parse("sin(x)")) == hash(FuncCall("sin", X))
        assert parse("x + 1") != parse("1 + x")

    def test_immutability(self):
        e = Const(2)
        with pytest.raises(AttributeError):
            e.value = 3


    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), complex(1, float("-inf")), np.float64("nan")],
        ids=["nan", "inf", "-infj", "np_nan"],
    )
    def test_non_finite_number_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_expr(bad)


class TestSimplify:
    def test_constant_folding_and_absorption(self):
        assert simplify(Mul(Const(2), Const(3))) == Const(6)
        assert simplify(Mul(Const(1), X)) == X
        assert simplify(Mul(Const(0), parse("sin(x)"))) == ZERO
        assert simplify(parse("x - x")) == ZERO
        assert simplify(IntPow(X, 0)) == ONE

    def test_nested_powers_fold_as_one_power(self):
        # (0^-1)^-1 prints as 0^1, which parses to the constant 0
        assert simplify(IntPow(IntPow(Const(0), -1), -1)) == ZERO
        assert simplify(IntPow(IntPow(X, -1), -1)) == X
        assert simplify(IntPow(IntPow(X, 2), -3)) == IntPow(X, -6)

    def test_flattening_collects_constants(self):
        e = Mul(Mul(Const(2), X), Mul(Const(3), FuncCall("cos", X)))
        s = simplify(e)
        assert s == Mul(Mul(Const(6), X), FuncCall("cos", X))

    def test_idempotent(self):
        e = parse("2*x*3 + 0*sin(x) + x^2 - x^2 + 1")
        assert simplify(simplify(e)) == simplify(e)


class TestDifferentiate:
    def test_power_rule(self):
        assert simplify(differentiate(IntPow(X, 2))) == Mul(Const(2), X)

    def test_trig_node_shift(self):
        f1, f2 = parse("sin(x)"), parse("1 + x^2")
        t = TrigNode((f1, f2), 2)
        assert differentiate(t) == Mul(f2, TrigNode((f1, f2), 1))
        # index 1 wraps to the top index
        assert differentiate(TrigNode((f1, f2), 1)) == Mul(f1, TrigNode((f1, f2), 2))

    def test_exp_primitive_rule(self):
        a1 = parse("sin(x)")
        e = ExpPrim(a1, 1)
        assert differentiate(e) == Mul(a1, e)
        em = ExpPrim(a1, -1)
        assert simplify(differentiate(em)) == Mul(Mul(Const(-1), a1), em)

    def test_second_derivative_of_trig_node_composes(self):
        f1, f2 = parse("sin(x)"), parse("x^2")
        t2 = TrigNode((f1, f2), 2)
        d2 = simplify(differentiate(differentiate(t2)))
        expected = simplify(
            add(
                mul(differentiate(f2), TrigNode((f1, f2), 1)),
                mul(f2, mul(f1, TrigNode((f1, f2), 2))),
            )
        )
        assert d2 == expected

    def test_sampled_rejected_without_opt_in(self):
        xs = np.linspace(-1, 1, 101)
        s = Sampled(xs, np.cos(xs))
        with pytest.raises(NonDifferentiable):
            differentiate(s)

    def test_aux_fn_caps_at_its_equation(self):
        b1, b2 = parse("x"), parse("sin(x)")
        fn = AuxFn("w", 2, (b1, b2), TrigNode((mul(b2, ExpPrim(b1, -1)), ExpPrim(b1, 1)), 2))
        d1 = differentiate(fn)
        assert d1 == AuxDeriv(fn, 1)
        d2 = simplify(differentiate(d1))
        assert d2 == simplify(add(mul(b1, AuxDeriv(fn, 1)), mul(b2, fn)))


class TestLower:
    def test_const_is_one(self, grid200):
        ctx = LowerContext(grid200)
        assert np.all(lower(ONE, ctx).values == 1.0)

    def test_exp_primitive_of_log_derivative(self, grid2000):
        # a1 = -zeta'/zeta for zeta = 2 + sin x, sampled on the grid
        zeta = 2.0 + np.sin(grid2000.nodes)
        a1 = Sampled(grid2000.nodes, -np.cos(grid2000.nodes) / zeta)
        e = lower(ExpPrim(a1, -1), LowerContext(grid2000))
        assert np.max(np.abs(e.values - zeta / 2.0)) <= 1e-9

    def test_trig_node_recovers_cosine(self, grid2000):
        omega = 2.0
        t = TrigNode((Const(-(omega**2)), ONE), 2)
        ctx = LowerContext(grid2000)
        c = lower(t, ctx)
        assert np.max(np.abs(c.values - np.cos(omega * grid2000.nodes))) <= 1e-8

    def test_real_rows_stay_real(self, grid200):
        ctx = LowerContext(grid200)
        assert lower(parse("1 + x*cos(x) - exp(2*x)/3"), ctx).values.dtype == np.float64
        assert all(v.dtype == np.float64 for v in ctx.memo.values())

    def test_complex_constant_promotes_the_row(self, grid200):
        v = lower(parse("x + 2*i"), LowerContext(grid200)).values
        assert v.dtype == np.complex128
        assert np.array_equal(v, grid200.nodes + 2j)

    def test_sqrt_of_a_negative_real_is_imaginary(self, grid200):
        x = grid200.nodes
        v = lower(parse("sqrt(x)"), LowerContext(grid200)).values
        assert v.dtype == np.complex128
        assert np.max(np.abs(v - np.where(x < 0, 1j * np.sqrt(np.abs(x)), np.sqrt(np.abs(x))))) <= 1e-15

    def test_memoized_per_context(self, grid200):
        ctx = LowerContext(grid200)
        e = parse("sin(x) + x^2")
        assert lower(e, ctx).values is lower(e, ctx).values

    def test_trig_family_computed_once_per_family(self, grid200, monkeypatch):
        lower_module = importlib.import_module("multexode.lower")
        family = lower_module.trig_family
        calls = []
        monkeypatch.setattr(lower_module, "trig_family", lambda *a: calls.append(1) or family(*a))
        fs = (parse("cos(x)"), parse("1 + x/2"), ONE)
        ctx = LowerContext(grid200)
        got = {j: lower(TrigNode(fs, j), ctx).values for j in (2, 3, 1, 2)}
        assert len(calls) == 1
        ref, _ = family([lower(f, LowerContext(grid200)) for f in fs])
        for j, row in got.items():
            assert np.array_equal(row, ref[j - 1].values)

    def test_kept_trig_index_holds_no_sibling(self):
        # a kept index is a row of its own, not a view into the family's block
        g = Grid(-1, 1, 2000)
        row = lower(TrigNode((Const(-4), ONE, X), 2), LowerContext(g)).values
        assert row.base is None and row.shape == (g.n + 1,)

    def test_recursion_builds_no_gridfn(self, grid200, monkeypatch):
        built = []
        init = GridFn.__init__
        monkeypatch.setattr(GridFn, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        lower(parse("sin(2*x)*exp(x/2) + x^3/(2 + cos(x))"), LowerContext(grid200))
        assert not built

    def test_lowered_values_are_read_only(self, grid200):
        got = lower(parse("x^2 + 1"), LowerContext(grid200))
        with pytest.raises(ValueError):
            got.values[0] = 0.0

    def test_symbolic_matches_finite_difference(self, grid2000):
        e = parse("sin(2*x)*exp(x/2) + x^3/(2 + cos(x))")
        ctx = LowerContext(grid2000)
        f = lower(e, ctx)
        df = lower(simplify(differentiate(e)), ctx)
        h = 1e-4
        interior = grid2000.nodes[(grid2000.nodes > grid2000.lo + 0.01) & (grid2000.nodes < grid2000.hi - 0.01)]
        fd = (f(interior + h) - f(interior - h)) / (2 * h)
        rel = np.abs(fd - df(interior)) / np.maximum(1.0, np.abs(df(interior)))
        assert np.max(rel) <= 1e-5

    def test_sampled_lowering_interpolates(self, grid200):
        xs = np.linspace(-1.5, 1.5, 3001)
        s = Sampled(xs, np.cos(xs))
        got = lower(s, LowerContext(grid200))
        assert np.max(np.abs(got.values - np.cos(grid200.nodes))) < 1e-10

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([0, 1, 3, 2, *range(4, 41)], NonMonotoneAbscissae),  # two swapped rows
            ([0, 1, 2], ValueError),
            ([0, 1, 2, 2, *range(3, 41)], NonMonotoneAbscissae),  # a duplicate abscissa
            ("nan", ValueError),
        ],
        ids=["swapped_rows", "three_rows", "duplicate_abscissa", "nan_value"],
    )
    def test_a_table_that_lowering_would_read_wrong_is_rejected(self, rows, error):
        # each of these used to build, then lower silently wrong or raise a misleading Overflow
        xs = np.linspace(-1.2, 1.2, 41)
        ys = np.cos(xs)
        if rows == "nan":
            ys[7] = np.nan
        else:
            xs, ys = xs[rows], ys[rows]
        with pytest.raises(error):
            Sampled(xs, ys)

    def test_real_table_lowers_to_a_real_row(self, grid200):
        xs = np.linspace(-1.5, 1.5, 3001)
        assert lower(Sampled(xs, np.cos(xs)), LowerContext(grid200)).values.dtype == np.float64

    def test_a_real_and_a_complex_table_of_the_same_bytes_stay_apart(self, grid200):
        # the complex values' bytes continue the real table's abscissae, so the
        # two tables' abscissae and values concatenate to the same bytes
        first = Sampled(np.arange(6.0), [1, 2, 3, 4, 5, 6])
        assert Sampled(np.arange(4.0), [4 + 5j, 1 + 2j, 3 + 4j, 5 + 6j]) is not first
        xs = np.array([-1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
        ys = 2 * xs + 1
        cys = np.concatenate((xs[4:], ys)).view(complex)
        real, cplx = Sampled(xs, ys), Sampled(xs[:4], cys)
        assert xs.tobytes() + ys.tobytes() == xs[:4].tobytes() + cys.tobytes()
        assert real is not cplx and real.key == cplx.key
        ctx = LowerContext(grid200)
        assert np.max(np.abs(lower(real, ctx).values - (2 * grid200.nodes + 1))) < 1e-12
        assert lower(cplx, ctx).values.tobytes() == _lagrange4(xs[:4], cys, grid200.nodes).tobytes()

    def test_div_by_const_expr(self, grid200):
        e = parse("1/(1+x^2)")
        got = lower(e, LowerContext(grid200))
        assert np.max(np.abs(got.values - 1.0 / (1.0 + grid200.nodes**2))) < 1e-14


class TestPrinter:
    def test_display_forms(self):
        assert to_text(ExpPrim(X, -1)) == "expP[-](x)"
        assert to_text(TrigNode((X, ONE), 2)) == "T[2](x, 1)"

    def test_constant_first_canonical_order(self):
        assert to_text(Mul(X, Const(2))) == "2*x"

    @pytest.mark.parametrize(
        "build, text",
        [
            (lambda s, c: Sub(X, Sub(s, c)), "x - (sin(x) - cos(x))"),
            (lambda s, c: Sub(Sub(X, s), c), "x - sin(x) - cos(x)"),
            (lambda s, c: Div(X, Div(s, c)), "x/(sin(x)/cos(x))"),
            (lambda s, c: Div(Div(X, s), c), "x/sin(x)/cos(x)"),
            (lambda s, c: Mul(Add(X, s), c), "(x + sin(x))*cos(x)"),
            (lambda s, c: Mul(X, Div(s, c)), "x*(sin(x)/cos(x))"),
            (lambda s, c: Mul(Const(-1), Add(X, s)), "-(x + sin(x))"),
            (lambda s, c: Sub(X, Mul(Const(-1), s)), "x - -sin(x)"),
        ],
    )
    def test_parentheses_follow_precedence_and_left_association(self, build, text):
        assert to_text(build(FuncCall("sin", X), FuncCall("cos", X))) == text
