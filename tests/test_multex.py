import mpmath
import numpy as np
import pytest

from multexode import (
    Grid,
    GridFn,
    NotConverged,
    Overflow,
    SignTable,
    exp_primitive,
    multex_e,
    primitive,
    simplicial,
    trig_equiv_check,
    trig_family,
    truncation_bound,
)

from conftest import smooth_gridfn


def brute_simplex_2d(f1, f2, x, m=2000):
    """Direct tensor quadrature of f1(s1) f2(s2) over 0 < s1 < s2 < x.

    Trapezoid in s2 of the trapezoid cumulative in s1; independent of the
    production recurrence.
    """
    s = np.linspace(0.0, x, m + 1)
    w = x / m
    inner = np.concatenate(([0.0], np.cumsum((f1(s)[1:] + f1(s)[:-1]) / 2 * w)))
    vals = f2(s) * inner
    return np.sum((vals[1:] + vals[:-1]) / 2 * w)


class TestSimplicial:
    def test_dimension_zero_is_one(self, grid200):
        one = GridFn.const(grid200, 1.0)
        s0 = simplicial([one], 0)
        assert np.all(s0.values == 1.0)

    def test_constant_iterated_integral(self):
        g = Grid(-1, 1, 400)
        c = 1.3
        s3 = simplicial([GridFn.const(g, c)], 3)
        assert np.max(np.abs(s3.values - (c * g.nodes) ** 3 / 6.0)) < 1e-12

    def test_against_brute_force_simplex(self):
        g = Grid(-1, 1, 2000)
        x_fn = GridFn.var(g)
        one = GridFn.const(g, 1.0)
        s2 = simplicial([x_fn, one], 2)
        for x in (0.3, 0.75, 1.0):
            expected = brute_simplex_2d(lambda s: s, lambda s: np.ones_like(s), x)
            i = np.argmin(np.abs(g.nodes - x))
            assert abs(s2.values[i] - expected) < 1e-7

    def test_negative_branch_sign(self):
        # for odd dimension and even integrands the value is odd in x
        g = Grid(-1, 1, 400)
        c = GridFn.from_callable(g, lambda x: np.cos(x))
        s3 = simplicial([c], 3)
        z = g.zero_index
        assert np.max(np.abs(s3.values[:z] + s3.values[2 * z : z : -1])) < 1e-12


class TestMultexE:
    def test_equal_inputs_give_exponential(self, grid2000):
        f = GridFn.from_callable(grid2000, np.sin)
        e, diag = multex_e([f, f, f], tol=1e-12)
        ref = exp_primitive(f, 1)
        assert np.max(np.abs(e.values - ref.values)) <= 10 * 1e-12
        assert diag.converged

    def test_zero_inputs(self, grid200):
        z = GridFn.const(grid200, 0.0)
        e, diag = multex_e([z, z])
        assert np.all(e.values == 1.0)
        assert diag.terms_used == 1

    def test_even_part_solves_second_order(self, grid2000):
        # gamma = even-dimension sums of (alpha, 1); gamma'' = alpha gamma
        alpha = GridFn.from_callable(grid2000, lambda x: 1.0 + x**2)
        gamma = trig_family([alpha, GridFn.const(grid2000, 1.0)])[0][1]
        h = grid2000.h
        v = gamma.values
        d2 = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h * h)
        resid = d2 - alpha.values[2:-2] * v[2:-2]
        assert np.max(np.abs(resid)) <= 1e-6

    def test_not_converged_raises_with_diagnostics(self, grid200):
        big = GridFn.const(grid200, 40.0)
        with pytest.raises(NotConverged) as exc:
            multex_e([big], tol=1e-12, max_terms=5)
        assert exc.value.diagnostics.terms_used == 5
        assert not exc.value.diagnostics.converged

    def test_empty_budget_is_not_converged(self, grid200):
        with pytest.raises(NotConverged) as exc:
            multex_e([GridFn.const(grid200, 1.0)], max_terms=0)
        assert exc.value.diagnostics.terms_used == 0

    @pytest.mark.parametrize("series", [multex_e, trig_family])
    def test_overflowing_term_raises_overflow(self, grid200, series):
        with pytest.raises(Overflow) as exc:
            series([GridFn.const(grid200, 1e200)] * 2)
        assert exc.value.x in grid200.nodes

    @pytest.mark.parametrize("series", [multex_e, trig_family])
    def test_overflowing_sum_of_finite_terms_raises_overflow(self, series):
        # S^1 = 4.4e306 x reaches 1.65e308 at the right end and S^3 adds
        # 8.5e307 to the same class there, while every term stays finite
        g = Grid(-2.5, 37.5, 16)
        fs = [GridFn.const(g, 4.4e306), GridFn.const(g, 5e-310)]
        assert all(np.all(np.isfinite(simplicial(fs, j).values)) for j in range(5))
        with pytest.raises(Overflow):
            series(fs)

    def test_budget_reached_near_tolerance_returns_unconverged(self, grid200):
        # last term lands between tol and 1e3 tol: flagged, not fatal
        one = GridFn.const(grid200, 1.0)
        _, diag = multex_e([one], tol=1e-9, max_terms=10)
        assert not diag.converged
        assert 1e-9 < diag.last_term_norm <= 1e-6


class TestTrig:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_apriori_bound_covers_factorial_tail(self, grid200, c):
        # G = c on [-1, 1] (up to rounding in the quadrature), so the omitted
        # tail is e^c minus its partial sum
        f = GridFn.const(grid200, c)
        d = trig_family([f, f])[1]
        with mpmath.workdps(50):
            partial = mpmath.fsum(mpmath.mpf(c) ** j / mpmath.factorial(j) for j in range(d.terms_used + 1))
            tail = float(mpmath.exp(c) - partial)
        assert d.apriori_bound >= tail
        assert d.apriori_bound == truncation_bound(primitive(f).sup_norm(), 1, d.terms_used)

    def test_kronecker_values_at_zero_exact(self, grid200, rng):
        fs = [smooth_gridfn(grid200, rng, complex_part=True) for _ in range(3)]
        fam, _ = trig_family(fs)
        for j, t in enumerate(fam, start=1):
            assert t.at_zero() == (1.0 if j == 3 else 0.0)

    def test_cosh_sinh(self, grid2000):
        one = GridFn.const(grid2000, 1.0)
        fam, _ = trig_family([one, one])
        assert np.max(np.abs(fam[1].values - np.cosh(grid2000.nodes))) <= 1e-9
        assert np.max(np.abs(fam[0].values - np.sinh(grid2000.nodes))) <= 1e-9

    def test_cosine_reduction(self, grid2000):
        omega = 2.0
        a2 = GridFn.const(grid2000, -(omega**2))
        one = GridFn.const(grid2000, 1.0)
        c = trig_family([a2, one])[0][1]
        assert np.max(np.abs(c.values - np.cos(omega * grid2000.nodes))) <= 1e-8

    def test_decomposition_sums_to_multex(self, grid200, rng):
        fs = [smooth_gridfn(grid200, rng) for _ in range(3)]
        fam, _ = trig_family(fs, tol=1e-12)
        e, _ = multex_e(fs, tol=1e-12)
        total = fam[0].values + fam[1].values + fam[2].values
        assert np.max(np.abs(total - e.values)) <= 10 * 1e-12

    def test_index_shift_derivative_identity(self, grid2000, rng):
        # central difference of T[j] matches f_j * T[j-1] (wrapping j=1 -> n)
        fs = [smooth_gridfn(grid2000, rng, scale=1.5) for _ in range(3)]
        fam, _ = trig_family(fs)
        h = 1e-4
        xs = grid2000.nodes[(grid2000.nodes > grid2000.lo + 0.01) & (grid2000.nodes < grid2000.hi - 0.01)]
        for j in range(1, 4):
            t = fam[j - 1]
            prev = fam[j - 2] if j >= 2 else fam[2]
            fd = (t(xs + h) - t(xs - h)) / (2 * h)
            rhs = fs[j - 1](xs) * prev(xs)
            rel = np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs))
            assert np.max(rel) <= 1e-5

    def test_even_inputs_branch_parity(self, grid200):
        # for inputs even in x, dimension j terms satisfy S(-x) = (-1)^j S(x)
        c = GridFn.from_callable(grid200, np.cos)
        q = GridFn.from_callable(grid200, lambda x: 1.0 / (1.0 + x**2))
        z = grid200.zero_index
        for j in (1, 2, 3, 4):
            s = simplicial([c, q], j).values
            mirrored = (-1.0) ** j * s[2 * z : z : -1]
            assert np.max(np.abs(s[:z] - mirrored)) < 1e-12

    def test_term_decay_factorial_domination(self, grid200, rng):
        from multexode import primitive
        from multexode.multex import nu

        fs = [smooth_gridfn(grid200, rng, scale=2.0) for _ in range(2)]
        big_g = max(f.sup_norm() for f in fs) * (grid200.hi - grid200.lo)
        s = GridFn.const(grid200, 1.0)
        bound = 1.0
        for j in range(1, 25):
            s = primitive(fs[nu(j, 2) - 1] * s)
            bound *= big_g / j
            assert s.sup_norm() <= bound + 1e-15


class TestSignTable:
    def test_flip_pattern(self):
        t = SignTable(4)
        for j in range(1, 5):
            for k in range(1, 5):
                expected = -1 if (k % 4 == j % 4 or k % 4 == (j + 1) % 4) else 1
                assert t.eps[j - 1, k - 1] == expected

    def test_two_definitions_agree_n2(self, grid200):
        one = GridFn.const(grid200, 1.0)
        assert trig_equiv_check((one, one)) <= 1e-12

    def test_two_definitions_agree_n3_random(self, grid200, rng):
        fs = tuple(smooth_gridfn(grid200, rng) for _ in range(3))
        assert trig_equiv_check(fs) <= 1e-9

    def test_zero_inputs_no_discrepancy(self, grid200):
        z = GridFn.const(grid200, 0.0)
        assert trig_equiv_check((z, z)) == 0.0
