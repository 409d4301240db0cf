import numpy as np
import pytest

from multexode import (
    Grid,
    GridFn,
    LowerContext,
    NotConverged,
    Overflow,
    lower,
    multex_e,
    parse,
    trig_family,
)
from multexode.multex import DEFAULT_TOL, MAX_TERMS

from conftest import smooth_gridfn
from test_gridfn import GRIDS
from crosschecks import (
    const_fn,
    exp_primitive,
    from_callable,
    primitive,
    series_by_row_norms,
    sign_table,
    simplicial,
    trig_equiv_check,
    var_fn,
)


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
        one = const_fn(grid200, 1.0)
        s0 = simplicial([one], 0)
        assert np.all(s0.values == 1.0)

    def test_constant_iterated_integral(self):
        g = Grid(-1, 1, 400)
        c = 1.3
        s3 = simplicial([const_fn(g, c)], 3)
        assert np.max(np.abs(s3.values - (c * g.nodes) ** 3 / 6.0)) < 1e-12

    def test_against_brute_force_simplex(self):
        g = Grid(-1, 1, 2000)
        x_fn = var_fn(g)
        one = const_fn(g, 1.0)
        s2 = simplicial([x_fn, one], 2)
        for x in (0.3, 0.75, 1.0):
            expected = brute_simplex_2d(lambda s: s, lambda s: np.ones_like(s), x)
            i = np.argmin(np.abs(g.nodes - x))
            assert abs(s2.values[i] - expected) < 1e-7

    def test_negative_branch_sign(self):
        # for odd dimension and even integrands the value is odd in x
        g = Grid(-1, 1, 400)
        c = from_callable(g, lambda x: np.cos(x))
        s3 = simplicial([c], 3)
        z = g.zero_index
        assert np.max(np.abs(s3.values[:z] + s3.values[2 * z : z : -1])) < 1e-12


class TestMultexE:
    def test_equal_inputs_give_exponential(self, grid2000):
        f = from_callable(grid2000, np.sin)
        e, diag = multex_e([f, f, f], tol=1e-12)
        ref = exp_primitive(f, 1)
        assert np.max(np.abs(e.values - ref.values)) <= 10 * 1e-12
        assert diag.converged

    def test_zero_inputs(self, grid200):
        z = const_fn(grid200, 0.0)
        e, diag = multex_e([z, z])
        assert np.all(e.values == 1.0)
        assert diag.terms_used == 1

    def test_even_part_solves_second_order(self, grid2000):
        # gamma = even-dimension sums of (alpha, 1); gamma'' = alpha gamma
        alpha = from_callable(grid2000, lambda x: 1.0 + x**2)
        gamma = trig_family([alpha, const_fn(grid2000, 1.0)])[0][1]
        h = grid2000.h
        v = gamma.values
        d2 = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h * h)
        resid = d2 - alpha.values[2:-2] * v[2:-2]
        assert np.max(np.abs(resid)) <= 1e-6

    def test_not_converged_raises_with_diagnostics(self, grid200):
        # the terms (100 x)^m / m! of exp(100 x) still exceed 1e22 at m = MAX_TERMS
        big = const_fn(grid200, 100.0)
        with pytest.raises(NotConverged) as exc:
            multex_e([big], tol=1e-12)
        assert exc.value.diagnostics.terms_used == MAX_TERMS
        assert not exc.value.diagnostics.converged

    @pytest.mark.parametrize("series", [multex_e, trig_family])
    @pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
    def test_tol_must_be_positive(self, grid200, series, tol):
        # a NaN tol would pass a tol <= 0 test and run to the term budget
        with pytest.raises(ValueError):
            series([const_fn(grid200, 0.5)] * 2, tol=tol)

    @pytest.mark.parametrize("series", [multex_e, trig_family])
    def test_overflowing_term_raises_overflow(self, grid200, series):
        with pytest.raises(Overflow) as exc:
            series([const_fn(grid200, 1e200)] * 2)
        assert exc.value.x in grid200.nodes

    @pytest.mark.parametrize("series", [multex_e, trig_family])
    def test_overflowing_sum_of_finite_terms_raises_overflow(self, series):
        # S^1 = 4.4e306 x reaches 1.65e308 at the right end and S^3 adds
        # 8.5e307 to the same class there, while every term stays finite
        g = Grid(-2.5, 37.5, 16)
        fs = [const_fn(g, 4.4e306), const_fn(g, 5e-310)]
        assert all(np.all(np.isfinite(simplicial(fs, j).values)) for j in range(5))
        with pytest.raises(Overflow):
            series(fs)

    def test_budget_reached_near_tolerance_returns_unconverged(self, grid200):
        # the last of MAX_TERMS terms lands between tol and 1e3 tol: flagged, not fatal
        _, diag = multex_e([const_fn(grid200, 70.5)], tol=1e-9)
        assert diag.terms_used == MAX_TERMS
        assert not diag.converged
        assert 1e-9 < diag.last_term_norm <= 1e-6


class TestTrig:
    @pytest.mark.parametrize("stack", [0, 2, 5])
    def test_stack_is_one_or_the_number_of_inputs(self, grid200, stack):
        # 0 used to divide by zero, and 2 or 5 on three inputs summed
        # neither the family nor the rotations
        with pytest.raises(ValueError, match="stack"):
            trig_family([const_fn(grid200, 0.5)] * 3, stack=stack)

    def test_kronecker_values_at_zero_exact(self, grid200, rng):
        fs = [smooth_gridfn(grid200, rng, complex_part=True) for _ in range(3)]
        fam, _ = trig_family(fs)
        for j, t in enumerate(fam, start=1):
            assert t.at_zero() == (1.0 if j == 3 else 0.0)

    def test_cosh_sinh(self, grid2000):
        one = const_fn(grid2000, 1.0)
        fam, _ = trig_family([one, one])
        assert np.max(np.abs(fam[1].values - np.cosh(grid2000.nodes))) <= 1e-9
        assert np.max(np.abs(fam[0].values - np.sinh(grid2000.nodes))) <= 1e-9

    def test_cosine_reduction(self, grid2000):
        omega = 2.0
        a2 = const_fn(grid2000, -(omega**2))
        one = const_fn(grid2000, 1.0)
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
        c = from_callable(grid200, np.cos)
        q = from_callable(grid200, lambda x: 1.0 / (1.0 + x**2))
        z = grid200.zero_index
        for j in (1, 2, 3, 4):
            s = simplicial([c, q], j).values
            mirrored = (-1.0) ** j * s[2 * z : z : -1]
            assert np.max(np.abs(s[:z] - mirrored)) < 1e-12

    def test_term_decay_factorial_domination(self, grid200, rng):
        fs = [smooth_gridfn(grid200, rng, scale=2.0) for _ in range(2)]
        big_g = max(np.max(np.abs(f.values)) for f in fs) * (grid200.hi - grid200.lo)
        s = const_fn(grid200, 1.0)
        bound = 1.0
        for j in range(1, 25):
            s = primitive(GridFn(grid200, fs[(j - 1) % 2].values * s.values))
            bound *= big_g / j
            assert np.max(np.abs(s.values)) <= bound + 1e-15


class TestSignTable:
    def test_flip_pattern(self):
        t = sign_table(4)
        for j in range(1, 5):
            for k in range(1, 5):
                expected = -1 if (k % 4 == j % 4 or k % 4 == (j + 1) % 4) else 1
                assert t[j - 1, k - 1] == expected

    def test_two_definitions_agree_n2(self, grid200):
        one = const_fn(grid200, 1.0)
        assert trig_equiv_check((one, one)) <= 1e-12

    def test_two_definitions_agree_n3_random(self, grid200, rng):
        fs = tuple(smooth_gridfn(grid200, rng) for _ in range(3))
        assert trig_equiv_check(fs) <= 1e-9

    def test_zero_inputs_no_discrepancy(self, grid200):
        z = const_fn(grid200, 0.0)
        assert trig_equiv_check((z, z)) == 0.0

    def test_one_input_rejected(self, grid200, rng):
        # with one input every sign flips, so the half-sum is the even part
        # of E rather than T_1 = E and the check would report a false gap
        f = smooth_gridfn(grid200, rng, complex_part=True)
        with pytest.raises(ValueError):
            trig_equiv_check((f,))


class TestStoppingBound:
    """The series takes a term's exact moduli only when its bound
    max(|re|, |im|) could end the series; every outcome is the one of the
    plain test on every row's modulus."""

    def test_converging_complex_stack(self, grid2000, rng):
        fs = [smooth_gridfn(grid2000, rng, scale=1.5, complex_part=True) for _ in range(4)]
        family, diag = trig_family(fs, stack=4)
        sums, expected = series_by_row_norms(fs, DEFAULT_TOL, 4, stack=4)
        assert diag == expected and diag.converged
        assert [f.values.tobytes() for f in family] == [v.tobytes() for v in sums]

    def test_real_family(self, grid2000):
        ctx = LowerContext(grid2000)
        fs = [lower(parse(text), ctx) for text in ("-1+0.2*sin(x)", "0.3*x", "0.5*cos(x)")]
        assert all(f.values.dtype == np.float64 for f in fs)
        family, diag = trig_family(fs)
        sums, expected = series_by_row_norms(fs, DEFAULT_TOL, 3)
        assert diag == expected and diag.converged
        assert [f.values.tobytes() for f in family] == [v.tobytes() for v in sums]

    def test_budget_reached_near_tolerance(self, grid200):
        # every term of the last cycle before MAX_TERMS is measured exactly;
        # a complex rate keeps the bound of a term below its modulus
        fs = [const_fn(grid200, 70.5 * np.exp(0.6j))]
        _, diag = multex_e(fs, tol=1e-9)
        assert diag == series_by_row_norms(fs, 1e-9, 1)[1] and not diag.converged

    def test_not_converged(self, grid200):
        fs = [const_fn(grid200, 100.0)]
        with pytest.raises(NotConverged) as got:
            multex_e(fs)
        with pytest.raises(NotConverged) as expected:
            series_by_row_norms(fs, DEFAULT_TOL, 1)
        assert str(got.value) == str(expected.value)
        assert got.value.diagnostics == expected.value.diagnostics

    def test_overflow(self, grid200):
        # term 3 of the first particle overflows right of 0.5, of the second
        # left of -0.5: the first particle's first bad node is reported
        x = grid200.nodes
        fs = [GridFn(grid200, 1.0 + 1e200 * (x > 0.5)), GridFn(grid200, 1.0 + 1e200 * (x < -0.5))]
        with pytest.raises(Overflow) as got:
            trig_family(fs, stack=2)
        with pytest.raises(Overflow) as expected:
            series_by_row_norms(fs, DEFAULT_TOL, 2, stack=2)
        assert got.value.x == expected.value.x > 0.0


def real_rows(fs):
    """The real parts of GridFns as real sample rows, as lowering keeps a
    real coefficient."""
    return [GridFn._wrap(f.grid, f.values.real.copy()) for f in fs]


class TestPackedLanes:
    """A real stack rides two particles to a complex row; its class sums and
    diagnostics are byte for byte those of the plain pass, one real row per
    particle."""

    @pytest.mark.parametrize("grid", GRIDS, ids=repr)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_real_stacks(self, grid, n, rng):
        fs = real_rows([smooth_gridfn(grid, rng, scale=1.5) for _ in range(n)])
        family, diag = trig_family(fs, stack=n)
        sums, expected = series_by_row_norms(fs, DEFAULT_TOL, n, stack=n)
        assert diag == expected and diag.converged
        assert all(f.values.dtype == np.float64 for f in family)
        assert [f.values.tobytes() for f in family] == [v.tobytes() for v in sums]

    def test_signed_zero_beside_a_negative_partner(self, grid200):
        # the first term of particle 0 is -0 right of 0, where particle 1's
        # is negative: a complex row times a real weight w computes
        # -0 * w - (negative) * 0 = +0 there
        x = grid200.nodes
        fs = [GridFn._wrap(grid200, np.where(x > 0, -0.0, 0.5 * x)), GridFn._wrap(grid200, -1.0 - x**2)]
        family, diag = trig_family(fs, stack=2)
        sums, expected = series_by_row_norms(fs, DEFAULT_TOL, 2, stack=2)
        assert diag == expected
        assert [f.values.tobytes() for f in family] == [v.tobytes() for v in sums]

    def test_overflow(self, grid200):
        # the two particles of one row overflow at opposite ends in the same
        # term, and the first particle's first bad node is reported
        x = grid200.nodes
        fs = [GridFn._wrap(grid200, 1.0 + 1e200 * (x > 0.5)), GridFn._wrap(grid200, 1.0 + 1e200 * (x < -0.5))]
        with pytest.raises(Overflow) as got:
            trig_family(fs, stack=2)
        with pytest.raises(Overflow) as expected:
            series_by_row_norms(fs, DEFAULT_TOL, 2, stack=2)
        assert (got.value.x, str(got.value)) == (expected.value.x, str(expected.value))
        assert got.value.x > 0.0
