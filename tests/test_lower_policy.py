"""The one division policy of lowering: a divisor that is too small at 0 is
fatal; elsewhere the validity interval shrinks and the quotient is zeroed
outside it."""

import sys

import numpy as np
import pytest

from multexode import (
    Const,
    DivisorTooSmall,
    Grid,
    LowerContext,
    Overflow,
    ValidityCollapsed,
    lower,
    parse,
)
from multexode.coeffexpr import ONE, X, ExpPrim, div, intpow

from test_gridfn import zero_free_by_scan

# the module, which the package's ``lower`` function shadows
LOWER = sys.modules["multexode.lower"]


class TestMaskedPolicy:
    @pytest.mark.parametrize("den", [X, parse("x + 1e-8")], ids=["zero", "at_floor"])
    def test_denominator_vanishing_at_zero_always_fatal(self, grid200, den):
        ctx = LowerContext(grid200)
        with pytest.raises(DivisorTooSmall) as exc:
            lower(div(ONE, den), ctx)
        assert exc.value.x == 0.0

    @staticmethod
    def _check_cut_and_zeroed(expr, pole, exact):
        g = Grid(-1, 1, 400)
        ctx = LowerContext(g)
        got = lower(expr, ctx)
        lo, hi = ctx.validity
        assert g.nodes[hi] < pole
        assert lo == 0
        outside = np.arange(g.n + 1) > hi
        inside = (np.abs(g.nodes) < 0.8 * pole) & ~outside
        assert np.all(got.values[outside] == 0.0)
        assert np.max(np.abs(got.values[inside] - exact(g.nodes[inside]))) < 1e-12

    def test_validity_shrinks_and_outside_is_zeroed(self):
        self._check_cut_and_zeroed(div(ONE, parse("x - 0.5")), 0.5, lambda x: 1.0 / (x - 0.5))

    def test_cuts_on_both_sides_that_leave_no_interval_collapse(self):
        # the poles at -0.005 and 0.005 sit inside one grid cell around 0
        with pytest.raises(ValidityCollapsed, match="became empty"):
            lower(parse("1/(x+0.005) + 1/(x-0.005)"), LowerContext(Grid(-1, 1, 200)))

    def test_negative_power_validity_shrinks(self):
        self._check_cut_and_zeroed(intpow(parse("x - 0.25"), -2), 0.25, lambda x: (x - 0.25) ** -2.0)

    # strict: a fresh context; masked: a context whose validity interval an
    # earlier division has already cut (beyond the overflow point), so later
    # quotients are masked.  Overflow is fatal in both.
    @pytest.mark.parametrize("masked", [False, True], ids=["strict", "masked"])
    @pytest.mark.parametrize(
        "expr", [ExpPrim(Const(1e4), 1), parse("exp(800*x)")], ids=["exp_primitive", "exp_call"]
    )
    def test_overflow_propagates(self, grid200, masked, expr):
        ctx = LowerContext(grid200)
        if masked:
            lower(div(ONE, parse("x - 0.95")), ctx)
            assert grid200.nodes[ctx.validity[1]] < 0.95
        with pytest.raises(Overflow) as exc:
            lower(expr, ctx)
        assert 0.0 < exc.value.x < grid200.nodes[ctx.validity[1]]


class TestOnePassProof:
    """A guarded reciprocal gives the bytes and validity of the full outward
    scan and the mask, whether the one-pass proof clears its divisor, the
    scan keeps the whole grid after the proof declines (a pole half a cell
    past the end), or the scan cuts."""

    @pytest.mark.parametrize("text", ["2 + sin(x)", "0.5 + 0.3*i*x", "x - 1.0005", "x - 0.5", "(x + 0.7)*(1 - 0.4*i)"])
    @pytest.mark.parametrize("power", [1, 2])
    def test_same_as_the_full_scan(self, text, power, monkeypatch):
        grid = Grid(-1, 1, 2000)
        den = lower(parse(text), LowerContext(grid)).values

        def guarded():
            ctx = LowerContext(grid)
            return LOWER._guarded_reciprocal(ctx, den, power), ctx.validity

        got, validity = guarded()
        monkeypatch.setattr(LOWER, "zero_free_interval", zero_free_by_scan)
        scanned, (lo, hi) = guarded()
        keep = (np.arange(grid.n + 1) >= lo) & (np.arange(grid.n + 1) <= hi)
        masked = np.zeros_like(den)
        masked[keep] = den[keep] ** (-power)
        assert validity == (lo, hi)
        assert got.dtype == masked.dtype and got.tobytes() == scanned.tobytes() == masked.tobytes()
