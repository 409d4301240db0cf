import numpy as np
import pytest
import scipy.linalg

from multexode import (
    Grid,
    MatrixFn,
    NotConverged,
    companion,
    dyson,
    rk4,
    truncation_bound,
)
from multexode import oracle
from multexode.auxiliary import CoeffVector
from multexode.gridfn import _lagrange4, primitive_values
from multexode.oracle import MAX_TERMS, _running_products

import crosschecks
from conftest import smooth_gridfn
from crosschecks import dop853_reference, matrix_from_gridfns


def const_matrix(grid, m):
    m = np.asarray(m, dtype=complex)
    data = np.repeat(m[:, :, None], grid.n + 1, axis=2)
    return MatrixFn(grid, data)


def random_matrix(grid, rng, n, scale=1.0, complex_part=False):
    rows = [[smooth_gridfn(grid, rng, scale=scale, complex_part=complex_part) for _ in range(n)] for _ in range(n)]
    return matrix_from_gridfns(rows)


def sequential_products(props):
    """P_k ... P_1 P_0 for every k, one matmul per step."""
    run = np.empty_like(props)
    cur = np.eye(props.shape[-1])
    for q in range(len(props)):
        cur = run[q] = props[q] @ cur
    return run


def relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def random_state(rng, n):
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestMatrixFn:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_keeps_the_dtype_it_was_given(self, grid200, dtype):
        data = np.ones((2, 2, grid200.n + 1), dtype=dtype)
        m = MatrixFn(grid200, data)
        assert m.data.dtype == np.dtype(dtype)
        assert not np.shares_memory(m.data, data)

    def test_integer_samples_become_real(self, grid200):
        m = MatrixFn(grid200, np.ones((1, 1, grid200.n + 1), dtype=int))
        assert m.data.dtype == np.float64


class TestCompanion:
    def test_real_rows_stay_real(self, grid200):
        m = companion(CoeffVector.from_rhs(("sin(x)", "x", "2")), grid200)
        assert m.data.dtype == np.float64

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_complex_row_makes_it_complex(self, grid200, k):
        rhs = ["sin(x)", "x", "2"]
        rhs[k] += " + 0.5*i"
        m = companion(CoeffVector.from_rhs(tuple(rhs)), grid200)
        assert m.data.dtype == np.complex128
        assert np.all(m.data[2, 2 - k].imag == 0.5)

    def test_scalar(self, grid200):
        m = companion(CoeffVector.from_rhs(("2",)), grid200)
        assert np.all(m.data[0, 0] == 2.0)

    def test_order2_rows(self, grid200):
        m = companion(CoeffVector.from_rhs(("sin(x)", "x")), grid200)
        assert np.all(m.data[0, 0] == 0)
        assert np.all(m.data[0, 1] == 1.0)
        assert np.allclose(m.data[1, 0], grid200.nodes)  # a2 in the corner
        assert np.allclose(m.data[1, 1], np.sin(grid200.nodes))

    def test_first_column_solves_scalar_equation(self, grid2000):
        # second order: the (0, 0) entry of the flow solves y'' = a1 y' + a2 y
        m = companion(CoeffVector.from_rhs(("sin(x)", "1+x")), grid2000)
        res = dyson(m, tol=1e-12)
        y = res.M[0, 0]
        h = grid2000.h
        d2 = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * h * h)
        dy = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
        a1 = np.sin(grid2000.nodes[2:-2])
        a2 = 1 + grid2000.nodes[2:-2]
        assert np.max(np.abs(d2 - a1 * dy - a2 * y[2:-2])) <= 1e-6

    def test_nilpotent_polynomial_flow(self, grid200):
        m = companion(CoeffVector.from_rhs(("0", "0", "0")), grid200)
        res = dyson(m, tol=1e-14)
        x = grid200.nodes
        assert np.max(np.abs(res.M[0, 0] - 1.0)) < 1e-14
        assert np.max(np.abs(res.M[0, 1] - x)) < 1e-13
        assert np.max(np.abs(res.M[0, 2] - x**2 / 2)) < 1e-13


class TestDyson:
    def test_zero_matrix(self, grid200):
        res = dyson(const_matrix(grid200, np.zeros((2, 2))))
        assert res.terms_used == 1
        assert np.all(res.M[0, 0] == 1.0)
        assert np.all(res.M[0, 1] == 0.0)

    def test_identity_at_zero_exact(self, grid200, rng):
        m = random_matrix(grid200, rng, 3)
        res = dyson(m)
        z = grid200.zero_index
        assert np.array_equal(res.M[:, :, z], np.eye(3))

    def test_scalar_reduces_to_exponential(self, grid2000):
        m = MatrixFn(grid2000, np.cos(grid2000.nodes)[None, None, :])
        res = dyson(m, tol=1e-13)
        assert np.max(np.abs(res.M[0, 0] - np.exp(np.sin(grid2000.nodes)))) <= 1e-9

    def test_rotation_flow(self, grid2000):
        m = const_matrix(grid2000, [[0.0, 1.0], [-1.0, 0.0]])
        res = dyson(m, tol=1e-13)
        x = grid2000.nodes
        ref = np.array([[np.cos(x), np.sin(x)], [-np.sin(x), np.cos(x)]])
        assert np.max(np.abs(res.M - ref)) <= 1e-9

    def test_term_norms_obey_factorial_bound(self, grid200, rng):
        m = random_matrix(grid200, rng, 3, scale=1.5)
        res = dyson(m, tol=1e-12)
        assert len(res.term_norms) == res.terms_used
        for measured, bound in zip(res.term_norms, res.term_bounds):
            assert measured <= bound * (1 + 1e-9) + 1e-15

    def test_tail_bound_dominates_remainder(self, grid200, rng):
        m = random_matrix(grid200, rng, 3, scale=1.5)
        coarse = dyson(m, tol=1e-6)
        fine = dyson(m, tol=1e-14)
        remainder = np.max(np.abs(fine.M - coarse.M))
        assert remainder <= truncation_bound(coarse.g_integral, 3, coarse.terms_used)

    def test_determinant_of_traceless_flow(self, grid2000):
        m = const_matrix(grid2000, [[0.3, 1.1], [0.7, -0.3]])
        res = dyson(m, tol=1e-13)
        det = res.M[0, 0] * res.M[1, 1] - res.M[0, 1] * res.M[1, 0]
        assert np.max(np.abs(det - 1.0)) <= 1e-8

    def test_not_converged(self, grid200):
        m = const_matrix(grid200, 300.0 * np.eye(2))
        with pytest.raises(NotConverged) as exc:
            dyson(m, tol=1e-12)
        assert exc.value.diagnostics.terms_used == MAX_TERMS

    @pytest.mark.parametrize("y0", [None, (1, 0)], ids=["matrix", "state"])
    def test_terms_that_are_not_numbers_raise(self, grid200, y0):
        # the terms of a2 = -1e6 overflow into NaN, which no tolerance test
        # passes, so the sum stops at the first (term 301 of MAX_TERMS = 400)
        m = companion(CoeffVector.from_rhs(("0", "-1e6")), grid200)
        with pytest.raises(NotConverged) as exc:
            dyson(m, y0=y0)
        norms = exc.value.diagnostics.term_norms
        assert np.isnan(norms[-1]) and np.all(np.isfinite(norms[:-1]))
        assert exc.value.diagnostics.terms_used == len(norms) < MAX_TERMS


class TestDysonState:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_state_is_matrix_applied_to_y0(self, grid200, rng, n):
        m = random_matrix(grid200, rng, n, scale=1.5, complex_part=True)
        v = random_state(rng, n)
        state = dyson(m, y0=v).M
        assert state.shape == (n, grid200.n + 1)
        assert np.max(np.abs(state - np.einsum("ikp,k->ip", dyson(m).M, v))) <= 1e-12

    def test_scaled_tail_bound_dominates_remainder(self, grid200, rng):
        m = random_matrix(grid200, rng, 3, scale=1.5, complex_part=True)
        v = random_state(rng, 3)
        coarse = dyson(m, tol=1e-6, y0=v)
        fine = dyson(m, tol=1e-14, y0=v)
        remainder = np.max(np.abs(fine.M - coarse.M))
        scaled = np.sum(np.abs(v)) * truncation_bound(coarse.g_integral, 3, coarse.terms_used)
        assert coarse.tail_bound == scaled
        assert remainder <= coarse.tail_bound

    def test_wrong_length_rejected(self, grid200, rng):
        m = random_matrix(grid200, rng, 3)
        with pytest.raises(ValueError):
            dyson(m, y0=[1.0, 0.0])

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_tol_must_be_positive(self, grid200, rng, tol):
        with pytest.raises(ValueError):
            dyson(random_matrix(grid200, rng, 3), tol=tol)

    def test_matrix_default_unchanged(self, grid200, rng):
        # the identity start summed term by term, as the matrix series always was
        m = random_matrix(grid200, rng, 3, scale=1.5)
        res = dyson(m, tol=1e-12, y0=None)
        term = np.zeros((3, 3, grid200.n + 1), dtype=complex)
        for i in range(3):
            term[i, i] = 1.0
        total = term.copy()
        for _ in range(res.terms_used):
            term = primitive_values(np.einsum("ilp,lkp->ikp", m.data, term), grid200)
            total += term
        assert np.array_equal(res.M, total)
        assert np.array_equal(dyson(m, tol=1e-12).M, total)


class TestTruncationBound:
    def test_zero_integral(self):
        assert truncation_bound(0.0, 3, 5) == 0.0

    def test_scalar_full_tail_is_e_minus_one(self):
        assert abs(truncation_bound(1.0, 1, 0) - (np.e - 1.0)) <= 1e-12

    def test_matches_direct_summation(self):
        from math import factorial

        n, J, g = 2, 3, 0.5
        direct = sum((n * g) ** j / (n * factorial(j)) for j in range(J + 1, 60))
        assert abs(truncation_bound(g, n, J) - direct) <= 1e-15

    def test_overflowing_terms_give_inf(self):
        assert truncation_bound(5000.0, 1, 20) == np.inf


class TestRunningProducts:
    # block length ceil(sqrt(q)): one block, exact squares, one step past them, and long sides
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 16, 17, 24, 25, 26, 1000, 3000])
    @pytest.mark.parametrize("complex_part", [False, True])
    def test_matches_sequential_product(self, rng, q, complex_part):
        props = np.eye(3) + 0.05 * rng.standard_normal((q, 3, 3))
        if complex_part:
            props = props + 0.05j * rng.standard_normal((q, 3, 3))
        blocked = _running_products(props)
        assert blocked.shape == props.shape and blocked.dtype == props.dtype
        assert relative_gap(blocked, sequential_products(props)) <= 1e-13

    @pytest.mark.parametrize("n_grid", [16, 18, 200, 2000])
    @pytest.mark.parametrize("sub", [1, 3])
    def test_rk4_matches_a_sequential_march(self, rng, monkeypatch, n_grid, sub):
        g = Grid(-1, 1, n_grid)
        m = random_matrix(g, rng, 3, scale=1.5, complex_part=True)
        blocked = rk4(m, sub * g.n)
        monkeypatch.setattr(oracle, "_running_products", sequential_products)
        assert relative_gap(blocked, rk4(m, sub * g.n)) <= 1e-13


class TestRk4:
    @pytest.mark.parametrize("sub", [1, 3])
    def test_real_data_gives_real_output(self, grid2000, rng, sub):
        m = MatrixFn(grid2000, random_matrix(grid2000, rng, 3, scale=1.5).data.real)
        out = rk4(m, sub * grid2000.n)
        assert out.dtype == np.float64
        as_complex = rk4(MatrixFn(grid2000, m.data.astype(complex)), sub * grid2000.n)
        assert as_complex.dtype == np.complex128
        assert relative_gap(out, as_complex) <= 1e-13

    def test_zero_matrix_stays_identity(self, grid200):
        out = rk4(const_matrix(grid200, np.zeros((2, 2))), grid200.n)
        assert np.max(np.abs(out[0, 0] - 1.0)) == 0.0

    def test_scalar_exponential_both_sides(self, grid2000):
        m = MatrixFn(grid2000, np.ones(grid2000.n + 1)[None, None, :])
        out = rk4(m, 10_000)
        assert np.max(np.abs(out[0, 0] - np.exp(grid2000.nodes))) <= 1e-9

    def test_agrees_with_series_oracle(self, rng):
        g = Grid(-1, 1, 1000)
        m = random_matrix(g, rng, 3, scale=1.0)
        series = dyson(m, tol=1e-13)
        stepped = rk4(m, g.n)
        assert np.max(np.abs(series.M - stepped)) <= 1e-6

    def test_fourth_order_on_constant_non_normal_flow(self):
        # exact flow V diag(exp(x lam)) V^-1; a dropped propagator term lowers the order
        a = np.array([[1.0 + 2.0j, 3.0, 0.0], [0.0, -1.5 + 1.0j, 2.0j], [0.5, 0.0, 2.0 - 3.0j]])
        lam, v = np.linalg.eig(a)
        assert np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(3)) > 0.5

        def node_error(n, steps):
            g = Grid(-1, 1, n)
            exact = np.einsum("ij,pj,jk->ikp", v, np.exp(np.outer(g.nodes, lam)), np.linalg.inv(v))
            return np.max(np.abs(rk4(const_matrix(g, a), steps) - exact))

        coarse, fine = node_error(200, 200), node_error(400, 400)
        assert 14.0 <= coarse / fine <= 18.0
        assert node_error(200, 600) < coarse

    @pytest.mark.parametrize("grid", [Grid(-1, 1, 2000), Grid(-0.1, 1.9, 2000)], ids=repr)
    @pytest.mark.parametrize("rhs", [("sin(x)", "x", "2"), ("0.1*x + 0.2*i", "-2+x", "0.3*i")])
    def test_interpolation_at_the_nodes_returns_the_samples(self, grid, rhs):
        # so one substep per cell reads its step ends off the samples
        m = companion(CoeffVector.from_rhs(rhs), grid)
        assert np.array_equal(_lagrange4(grid.nodes, m.data, grid.nodes), m.data)

    @pytest.mark.parametrize("sub, calls", [(1, 2), (2, 4)])
    def test_interpolates_only_between_nodes(self, grid200, monkeypatch, sub, calls):
        # per side: the midpoints, and the step ends only off the nodes
        seen = []
        monkeypatch.setattr(oracle, "_lagrange4", lambda *a: seen.append(a) or _lagrange4(*a))
        rk4(companion(CoeffVector.from_rhs(("sin(x)", "x", "2")), grid200), sub * grid200.n)
        assert len(seen) == calls

    def test_requires_enough_steps(self, grid200):
        with pytest.raises(ValueError):
            rk4(const_matrix(grid200, np.eye(2)), 10)


class TestDop853Reference:
    XS = np.linspace(-1, 1, 21)

    @pytest.mark.parametrize("w2", [40, 400, 1600])
    def test_matches_the_cosine(self, w2):
        y = dop853_reference((lambda x: 0.0, lambda x: -w2), (1, 0), self.XS)
        assert np.max(np.abs(y - np.cos(np.sqrt(w2) * self.XS))) <= 1e-12

    def test_matches_the_exponential_of_a_constant_companion_matrix(self):
        a1, a2, a3 = 0.3, -2 + 0.5j, 0.7
        c = np.array([[0, 1, 0], [0, 0, 1], [a3, a2, a1]])
        ic = np.array([1, 0.3, -0.2])
        exact = [(scipy.linalg.expm(x * c) @ ic)[0] for x in self.XS]
        y = dop853_reference((lambda x: a1, lambda x: a2, lambda x: a3), ic, self.XS)
        assert np.max(np.abs(y - exact)) <= 1e-12

    def test_two_tolerances_that_disagree_raise(self, monkeypatch):
        monkeypatch.setattr(crosschecks, "DOP853_AGREEMENT", 0.0)
        with pytest.raises(RuntimeError, match="differ by"):
            dop853_reference((lambda x: 0.0, lambda x: -40), (1, 0), self.XS)
