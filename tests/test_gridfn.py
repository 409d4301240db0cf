import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from multexode import (
    Grid,
    GridFn,
    Interval,
    Overflow,
    ValidityCollapsed,
    zero_free_interval,
)
from multexode.gridfn import _lagrange4, check_finite, primitive_values

from conftest import smooth_gridfn
from crosschecks import const_fn, exp_primitive, from_callable, primitive, simplicial, var_fn


def zero_free_by_scan(v, grid, floor):
    """The node-by-node outward scan zero_free_interval replaced, kept as a
    plain-Python reference with the same node and segment tests; returns the
    node indices (lo, hi) of the run."""
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
    return lo, hi


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
        f = from_callable(grid2000, np.cos)
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
        f = from_callable(grid200, lambda x: np.exp(1j * x))
        assert type(f(0.3)) is np.complex128


class TestPrimitive:
    def test_constant_integrates_to_x(self):
        g = Grid(-1, 1, 200)
        p = primitive(const_fn(g, 1.0))
        assert np.max(np.abs(p.values - g.nodes)) < 1e-13

    def test_zero_integrates_to_zero(self, grid200):
        p = primitive(const_fn(grid200, 0.0))
        assert np.all(p.values == 0)

    def test_cos_integrates_to_sin(self, grid2000):
        p = primitive(from_callable(grid2000, np.cos))
        assert np.max(np.abs(p.values - np.sin(grid2000.nodes))) <= 1e-10

    def test_anchor_is_exact(self, grid200, rng):
        f = smooth_gridfn(grid200, rng, complex_part=True)
        assert primitive(f).values[grid200.zero_index] == 0

    def test_signed_for_negative_x(self, grid2000):
        # integral from 0 to x of cos is sin(x), negative for x < 0
        p = primitive(from_callable(grid2000, np.cos))
        left = grid2000.nodes < 0
        assert np.max(np.abs(p.values[left] - np.sin(grid2000.nodes[left]))) <= 1e-10

    def test_linearity(self, grid200, rng):
        f = smooth_gridfn(grid200, rng, complex_part=True)
        g = smooth_gridfn(grid200, rng)
        a, b = 1.7 - 0.3j, -0.9
        lhs = primitive(GridFn(grid200, f.values * a + g.values * b))
        rhs = primitive(f).values * a + primitive(g).values * b
        assert np.max(np.abs(lhs.values - rhs)) < 1e-13

    def test_refinement_order_at_least_3_5(self):
        errs = []
        for n in (200, 400, 800):
            g = Grid(-1, 1, n)
            p = primitive(from_callable(g, lambda x: np.exp(x) * np.cos(3 * x)))
            exact = (np.exp(g.nodes) * (np.cos(3 * g.nodes) + 3 * np.sin(3 * g.nodes)) - 1.0) / 10.0
            errs.append(np.max(np.abs(p.values - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_local_to_each_side_of_zero(self, grid2000, dtype, side):
        # samples beyond |x| = 0.5 on one side, however large, leave every
        # bit of the primitive on the other side as it was
        x = grid2000.nodes
        f = np.cos(x).astype(dtype)
        far = side * x > 0.5
        p = primitive_values(np.where(far, 1e6 * f, f), grid2000)
        near = side * x <= 0
        assert np.array_equal(p[near], primitive_values(f, grid2000)[near])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_keeps_the_input_dtype(self, grid200, dtype):
        v = np.cos(grid200.nodes).astype(dtype)
        assert primitive_values(v, grid200).dtype == dtype
        assert primitive_values(np.stack([v, v]), grid200).dtype == dtype

    def test_no_overflow_before_the_integral_overflows(self):
        # the primitive reaches 20 * 8e306 = 1.6e308, just below the float max
        s = simplicial([const_fn(Grid(-20, 20, 16), 8e306)], 1)
        assert np.max(np.abs(s.values)) == pytest.approx(1.6e308, rel=1e-12)


GRIDS = [Grid(-1, 1, 2000), Grid(-0.1, 1.9, 2000), Grid(-1.99, 0.01, 2000), Grid(-1, 1, 16)]


def random_block(rng, shape, dtype):
    block = rng.standard_normal(shape)
    return block + 1j * rng.standard_normal(shape) if dtype is complex else block


class TestPrimitiveKernel:
    """Every row of a block is integrated bit for bit as it is alone,
    whatever the block's shape and layout, with or without a work buffer."""

    @pytest.mark.parametrize("grid", GRIDS, ids=repr)
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_rows_equal_single_rows(self, grid, rows, dtype, rng):
        block = random_block(rng, (rows, grid.n + 1), dtype)
        p = primitive_values(block, grid)
        assert [r.tobytes() for r in p] == [primitive_values(r, grid).tobytes() for r in block]

    @pytest.mark.parametrize("grid", GRIDS, ids=repr)
    def test_matrix_block(self, grid, rng):
        block = random_block(rng, (3, 3, grid.n + 1), complex)
        p = primitive_values(block, grid)
        for i in range(3):
            for k in range(3):
                assert p[i, k].tobytes() == primitive_values(block[i, k], grid).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_any_layout(self, grid2000, dtype, rng):
        n = grid2000.n + 1
        transposed = random_block(rng, (n, 3), dtype).T
        strided = random_block(rng, (3, 2 * n), dtype)[:, ::2]
        for v in (transposed, strided, strided[1]):
            assert not v.flags.c_contiguous
            p = primitive_values(v, grid2000)
            assert p.tobytes() == primitive_values(np.ascontiguousarray(v), grid2000).tobytes()

    def test_sums_start_from_a_positive_zero(self, grid200):
        # the cell right of 0 integrates to -0 here, and 0 + (-0) is +0
        z = grid200.zero_index
        v = np.zeros(grid200.n + 1)
        v[z : z + 2] = -0.0
        assert not np.signbit(primitive_values(np.stack([v, v]), grid200)).any()

    @pytest.mark.parametrize("grid", GRIDS, ids=repr)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_work_buffer_form(self, grid, dtype, rng):
        block = random_block(rng, (3, grid.n + 1), dtype)
        values = block.copy()
        out = primitive_values(values, grid, np.empty_like(values))
        assert out is values
        assert out.tobytes() == primitive_values(block, grid).tobytes()


class TestAlgebra:
    def test_rejects_non_finite_samples(self, grid200):
        vals = np.ones(grid200.n + 1)
        vals[7] = np.nan
        with pytest.raises(ValueError):
            GridFn(grid200, vals)


class TestExpPrimitive:
    def test_constant_exponent(self, grid200):
        for sign in (1, -1):
            e = exp_primitive(const_fn(grid200, 0.7), sign)
            assert np.max(np.abs(e.values - np.exp(sign * 0.7 * grid200.nodes))) < 1e-12

    def test_zero_gives_one(self, grid200):
        e = exp_primitive(const_fn(grid200, 0.0), 1)
        assert np.all(e.values == 1.0)

    def test_log_derivative_inversion(self, grid2000):
        # a1 = -zeta'/zeta with zeta = 2 + sin x; exp(-P a1) recovers zeta/zeta(0)
        zeta = 2.0 + np.sin(grid2000.nodes)
        a1 = GridFn(grid2000, -np.cos(grid2000.nodes) / zeta)
        e = exp_primitive(a1, -1)
        assert np.max(np.abs(e.values - zeta / 2.0)) <= 1e-9

    def test_inverse_product_is_one(self, grid200, rng):
        f = smooth_gridfn(grid200, rng, scale=2.0, complex_part=True)
        prod = exp_primitive(f, 1).values * exp_primitive(f, -1).values
        assert np.max(np.abs(prod - 1.0)) < 1e-12

    def test_overflow_carries_node(self, grid200):
        with pytest.raises(Overflow) as exc:
            exp_primitive(const_fn(grid200, 1e4), 1)
        assert exc.value.x > 0
        # a stacked complex row whose only bad part is an imaginary one
        rows = np.ones((2, grid200.n + 1), dtype=complex)
        rows[1, 57] = complex(1.0, np.inf)
        with pytest.raises(Overflow) as exc:
            check_finite(rows, grid200)
        assert exc.value.x == grid200.nodes[57]


class TestZeroFreeInterval:
    def test_linear_function_scan(self):
        g = Grid(-2, 2, 400)
        f = from_callable(g, lambda x: 1.0 + x)
        lo, hi = zero_free_interval(f.values, g, 0.1)
        assert abs(g.nodes[lo] - (-0.9)) <= 2 * g.h
        assert hi == g.n

    def test_constant_full_interval(self, grid200):
        assert zero_free_interval(const_fn(grid200, 1.0).values, grid200, 0.5) == (0, grid200.n)

    def test_cos_stops_at_quarter_period(self):
        g = Grid(-3, 3, 600)
        lo, hi = zero_free_interval(from_callable(g, np.cos).values, g, 0.0)
        assert abs(g.nodes[lo] + np.pi / 2) <= 2 * g.h
        assert abs(g.nodes[hi] - np.pi / 2) <= 2 * g.h

    def test_precondition_checked(self, grid200):
        x = var_fn(grid200)
        with pytest.raises(ValueError):
            zero_free_interval(x.values, grid200, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        half=st.integers(8, 30),
        floor=st.sampled_from([0.0, 0.1, 0.5]),
        kind=st.sampled_from(["drawn", "shifted", "at the proof's threshold"]),
    )
    def test_matches_outward_scan(self, data, half, floor, kind):
        # shifted rows clear the one-pass proof or come near it; rows at its
        # threshold put min|v| - max|dv| within a few ulps of it, either side
        n = 2 * half
        k = data.draw(st.integers(1, n - 1), label="zero index")
        re, im = data.draw(arrays(float, (2, n + 1), elements=sample), label="re, im")
        g = Grid(-k * 0.125, (n - k) * 0.125, n)
        if kind == "shifted":
            re = re + data.draw(st.sampled_from([3.0, -5.0, 9.0]), label="shift")
        elif kind == "at the proof's threshold":
            step = data.draw(st.floats(0.01, 2.0), label="largest step")
            low = step
            for _ in range(3):  # the fixed point of low - step = 2 (floor + 1e-13 * 2 max|v|)
                low = step + 2.0 * (floor + 1e-13 * (2.0 * (low + step)))
            for _ in range(abs(ulps := data.draw(st.integers(-4, 4), label="ulps"))):
                low = np.nextafter(low, np.sign(ulps) * np.inf)
            up = re > 0
            up[0], up[-1] = False, True
            re = low + step * up
        # lowering hands real rows to the scan as they are
        v = re if data.draw(st.booleans(), label="real") else re + 1j * im
        assert outcome(zero_free_interval, v, g, floor) == outcome(zero_free_by_scan, v, g, floor)


class TestInterval:
    def test_requires_order(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
