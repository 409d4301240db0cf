import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from multexode import (
    DivisorTooSmall,
    Grid,
    GridFn,
    GridMismatch,
    Interval,
    Overflow,
    ValidityCollapsed,
    exp_primitive,
    primitive,
    zero_free_interval,
)
from multexode.gridfn import _lagrange4

from conftest import smooth_gridfn


def zero_free_by_scan(f, floor):
    """The node-by-node outward scan zero_free_interval replaced, kept as a
    plain-Python reference with the same node and segment tests."""
    v = f.values
    grid = f.grid
    z = grid.zero_index
    mags = np.abs(v)
    if mags[z] <= floor:
        raise ValueError("precondition")
    a = v[:-1]
    d = np.diff(v)
    denom = np.abs(d) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        tstar = np.where(denom > 0.0, -(np.conj(d) * a).real / np.where(denom > 0, denom, 1.0), 0.0)
    tstar = np.clip(tstar, 0.0, 1.0)
    seg_ok = np.abs(a + tstar * d) > floor + 1e-13 * (np.abs(a) + np.abs(a + d))
    node_ok = mags > floor
    hi = z
    while hi < grid.n and node_ok[hi + 1] and seg_ok[hi]:
        hi += 1
    lo = z
    while lo > 0 and node_ok[lo - 1] and seg_ok[lo - 1]:
        lo -= 1
    if lo == hi:
        raise ValidityCollapsed("single node")
    return Interval(float(grid.nodes[lo]), float(grid.nodes[hi]))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ValidityCollapsed) as exc:
        return type(exc)


sample = st.one_of(
    st.sampled_from([0.0, 0.05, -0.05, 0.5, -0.5, 1.0, -1.0]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


class TestGrid:
    def test_zero_is_a_node(self, grid200):
        assert grid200.nodes[grid200.zero_index] == 0.0

    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError):
            Grid(-1, 1, 15)
        with pytest.raises(ValueError):
            Grid(-1, 1, 14)

    def test_rejects_interval_without_zero(self):
        with pytest.raises(ValueError):
            Grid(0.5, 1.5, 100)

    def test_rejects_misaligned_zero(self):
        # 0 falls between nodes of [-0.35, 1] with n = 100
        with pytest.raises(ValueError):
            Grid(-0.35, 1.0, 100)

    def test_aligned_snaps_window(self):
        g = Grid.aligned(-0.35, 1.0, 100)
        assert g.nodes[g.zero_index] == 0.0
        assert abs(g.lo - (-0.35)) <= g.h / 2 + 1e-12
        assert abs((g.hi - g.lo) - 1.35) < 1e-12

    def test_interpolation_is_cubic_accurate(self, grid2000):
        f = GridFn.from_callable(grid2000, np.cos)
        xq = np.linspace(-0.99, 0.99, 313) + 1e-4
        assert np.max(np.abs(f(xq) - np.cos(xq))) < 1e-10

    def test_stacked_interpolation_matches_rows(self, rng):
        xs = np.linspace(-1.0, 1.0, 201)
        ys = rng.normal(size=(3, 3, 201)) + 1j * rng.normal(size=(3, 3, 201))
        xq = rng.uniform(-1.0, 1.0, 500)
        stacked = _lagrange4(xs, ys, xq)
        assert stacked.shape == (3, 3, 500)
        for i in range(3):
            for k in range(3):
                assert np.array_equal(stacked[i, k], _lagrange4(xs, ys[i, k], xq))

    def test_scalar_evaluation_returns_numpy_scalar(self, grid200):
        f = GridFn.from_callable(grid200, lambda x: np.exp(1j * x))
        assert type(f(0.3)) is np.complex128


class TestPrimitive:
    def test_constant_integrates_to_x(self):
        g = Grid(-1, 1, 200)
        p = primitive(GridFn.const(g, 1.0))
        assert np.max(np.abs(p.values - g.nodes)) < 1e-13

    def test_zero_integrates_to_zero(self, grid200):
        p = primitive(GridFn.const(grid200, 0.0))
        assert np.all(p.values == 0)

    def test_cos_integrates_to_sin(self, grid2000):
        p = primitive(GridFn.from_callable(grid2000, np.cos))
        assert np.max(np.abs(p.values - np.sin(grid2000.nodes))) <= 1e-10

    def test_anchor_is_exact(self, grid200, rng):
        f = smooth_gridfn(grid200, rng, complex_part=True)
        assert primitive(f).values[grid200.zero_index] == 0

    def test_signed_for_negative_x(self, grid2000):
        # integral from 0 to x of cos is sin(x), negative for x < 0
        p = primitive(GridFn.from_callable(grid2000, np.cos))
        left = grid2000.nodes < 0
        assert np.max(np.abs(p.values[left] - np.sin(grid2000.nodes[left]))) <= 1e-10

    def test_linearity(self, grid200, rng):
        f = smooth_gridfn(grid200, rng, complex_part=True)
        g = smooth_gridfn(grid200, rng)
        a, b = 1.7 - 0.3j, -0.9
        lhs = primitive(f * a + g * b)
        rhs = primitive(f) * a + primitive(g) * b
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13

    def test_refinement_order_at_least_3_5(self):
        errs = []
        for n in (200, 400, 800):
            g = Grid(-1, 1, n)
            p = primitive(GridFn.from_callable(g, lambda x: np.exp(x) * np.cos(3 * x)))
            exact = (np.exp(g.nodes) * (np.cos(3 * g.nodes) + 3 * np.sin(3 * g.nodes)) - 1.0) / 10.0
            errs.append(np.max(np.abs(p.values - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5


class TestAlgebra:
    def test_mul(self, grid200):
        x = GridFn.var(grid200)
        assert np.allclose((x * x).values, grid200.nodes**2)

    def test_div_at_anchored_node(self, grid200):
        one = GridFn.const(grid200, 1.0)
        c = GridFn.from_callable(grid200, lambda x: 1.0 + x**2)
        q = one / c
        assert q.at_zero() == 1.0

    def test_self_division(self, grid200):
        z = GridFn.from_callable(grid200, lambda x: 2.0 + np.sin(x))
        q = z / z
        assert np.max(np.abs(q.values - 1.0)) < 1e-15

    def test_divisor_too_small_reports_first_node(self, grid200):
        one = GridFn.const(grid200, 1.0)
        f = GridFn.from_callable(grid200, lambda x: x - 0.5)
        with pytest.raises(DivisorTooSmall) as exc:
            one / f
        assert abs(exc.value.x - 0.5) < 2 * grid200.h

    def test_grid_mismatch(self, grid200, grid2000):
        with pytest.raises(GridMismatch):
            GridFn.const(grid200, 1.0) + GridFn.const(grid2000, 1.0)

    def test_rejects_non_finite_samples(self, grid200):
        vals = np.ones(grid200.n + 1)
        vals[7] = np.nan
        with pytest.raises(ValueError):
            GridFn(grid200, vals)


class TestExpPrimitive:
    def test_constant_exponent(self, grid200):
        for sign in (1, -1):
            e = exp_primitive(GridFn.const(grid200, 0.7), sign)
            assert np.max(np.abs(e.values - np.exp(sign * 0.7 * grid200.nodes))) < 1e-12

    def test_zero_gives_one(self, grid200):
        e = exp_primitive(GridFn.const(grid200, 0.0), 1)
        assert np.all(e.values == 1.0)

    def test_log_derivative_inversion(self, grid2000):
        # a1 = -zeta'/zeta with zeta = 2 + sin x; exp(-P a1) recovers zeta/zeta(0)
        zeta = 2.0 + np.sin(grid2000.nodes)
        a1 = GridFn(grid2000, -np.cos(grid2000.nodes) / zeta)
        e = exp_primitive(a1, -1)
        assert np.max(np.abs(e.values - zeta / 2.0)) <= 1e-9

    def test_inverse_product_is_one(self, grid200, rng):
        f = smooth_gridfn(grid200, rng, scale=2.0, complex_part=True)
        prod = exp_primitive(f, 1) * exp_primitive(f, -1)
        assert np.max(np.abs(prod.values - 1.0)) < 1e-12

    def test_overflow_carries_node(self, grid200):
        with pytest.raises(Overflow) as exc:
            exp_primitive(GridFn.const(grid200, 1e4), 1)
        assert exc.value.x > 0


class TestZeroFreeInterval:
    def test_linear_function_scan(self):
        g = Grid(-2, 2, 400)
        f = GridFn.from_callable(g, lambda x: 1.0 + x)
        iv = zero_free_interval(f, 0.1)
        assert abs(iv.lo - (-0.9)) <= 2 * g.h
        assert iv.hi == 2.0

    def test_constant_full_interval(self, grid200):
        iv = zero_free_interval(GridFn.const(grid200, 1.0), 0.5)
        assert iv == Interval(grid200.lo, grid200.hi)

    def test_cos_stops_at_quarter_period(self):
        g = Grid(-3, 3, 600)
        iv = zero_free_interval(GridFn.from_callable(g, np.cos), 0.0)
        assert abs(iv.lo + np.pi / 2) <= 2 * g.h
        assert abs(iv.hi - np.pi / 2) <= 2 * g.h

    def test_precondition_checked(self, grid200):
        x = GridFn.var(grid200)
        with pytest.raises(ValueError):
            zero_free_interval(x, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), half=st.integers(8, 30), floor=st.sampled_from([0.0, 0.1, 0.5]))
    def test_matches_outward_scan(self, data, half, floor):
        n = 2 * half
        k = data.draw(st.integers(1, n - 1), label="zero index")
        re, im = data.draw(arrays(float, (2, n + 1), elements=sample), label="re, im")
        g = Grid(-k * 0.125, (n - k) * 0.125, n)
        f = GridFn(g, re + 1j * im)
        assert outcome(zero_free_interval, f, floor) == outcome(zero_free_by_scan, f, floor)


class TestInterval:
    def test_requires_order(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    def test_intersect(self):
        assert Interval(-1, 1).intersect(Interval(-0.5, 2)) == Interval(-0.5, 1)
        with pytest.raises(ValueError):
            Interval(-1, 0.1).intersect(Interval(0.5, 1))
