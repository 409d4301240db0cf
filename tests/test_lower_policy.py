"""Division policies of the lowering context: strict vs masked."""

import numpy as np
import pytest

from multexode import (
    Const,
    DivisorTooSmall,
    Grid,
    GridFn,
    LowerContext,
    Overflow,
    lower,
    parse,
)
from multexode.coeffexpr import ONE, X, ExpPrim, div, intpow


class TestStrictPolicy:
    def test_divisor_near_zero_raises(self, grid200):
        e = div(ONE, parse("x - 0.5"))
        with pytest.raises(DivisorTooSmall) as exc:
            lower(e, LowerContext(grid200))
        assert abs(exc.value.x - 0.5) < 2 * grid200.h

    # |divisor| near 1e-10 at x = 0.5, and exactly the floor 1e-8 at x = 0:
    # neither is above the one division floor
    @pytest.mark.parametrize(
        "den, x0", [("x - 0.5 + 1e-10", 0.5), ("x + 1e-8", 0.0)], ids=["below_floor", "at_floor"]
    )
    def test_floor_is_shared_with_gridfn_division(self, grid200, den, x0):
        with pytest.raises(DivisorTooSmall) as exc:
            lower(div(ONE, parse(den)), LowerContext(grid200))
        assert abs(exc.value.x - x0) < 2 * grid200.h
        f = lower(parse(den), LowerContext(grid200))
        with pytest.raises(DivisorTooSmall) as exc:
            GridFn.const(grid200, 1.0) / f
        assert abs(exc.value.x - x0) < 2 * grid200.h

    def test_negative_power_guarded(self, grid200):
        with pytest.raises(DivisorTooSmall):
            lower(intpow(parse("x - 0.25"), -2), LowerContext(grid200))


class TestMaskedPolicy:
    @pytest.mark.parametrize("den", [X, parse("x + 1e-8")], ids=["zero", "at_floor"])
    def test_denominator_vanishing_at_zero_always_fatal(self, grid200, den):
        ctx = LowerContext(grid200, masked=True)
        with pytest.raises(DivisorTooSmall) as exc:
            lower(div(ONE, den), ctx)
        assert exc.value.x == 0.0

    def test_validity_shrinks_and_outside_is_zeroed(self):
        g = Grid(-1, 1, 400)
        ctx = LowerContext(g, masked=True)
        got = lower(div(ONE, parse("x - 0.5")), ctx)
        assert ctx.validity.hi < 0.5
        assert ctx.validity.lo == g.lo
        outside = g.nodes > ctx.validity.hi + 1e-12
        inside = (np.abs(g.nodes) < 0.4) & ~outside
        assert np.all(got.values[outside] == 0.0)
        assert np.max(np.abs(got.values[inside] - 1.0 / (g.nodes[inside] - 0.5))) < 1e-12

    @pytest.mark.parametrize("masked", [False, True], ids=["strict", "masked"])
    @pytest.mark.parametrize(
        "expr", [ExpPrim(Const(1e4), 1), parse("exp(800*x)")], ids=["exp_primitive", "exp_call"]
    )
    def test_overflow_propagates(self, grid200, masked, expr):
        with pytest.raises(Overflow) as exc:
            lower(expr, LowerContext(grid200, masked=masked))
        assert 0.0 < exc.value.x < grid200.hi
