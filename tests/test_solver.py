import numpy as np
import pytest

from multexode import (
    Grid,
    IVProblem,
    NonDifferentiable,
    Overflow,
    Sampled,
    TrigNode,
    basis,
    companion,
    dyson,
    initial_condition_matrix,
    ode_residual,
    parse,
    preset_orr_sommerfeld,
    preset_schrodinger,
    solve_ivp,
)
from multexode.auxiliary import CoeffVector

from conftest import smooth_gridfn


def cumint(vals, xs):
    """Test-local order-4 cumulative integral anchored at x = 0."""
    h = xs[1] - xs[0]
    z = int(np.argmin(np.abs(xs)))
    seg = np.empty(len(vals) - 1, dtype=complex)
    seg[1:-1] = (h / 24) * (-vals[:-3] + 13 * vals[1:-2] + 13 * vals[2:-1] - vals[3:])
    seg[0] = (h / 24) * (9 * vals[0] + 19 * vals[1] - 5 * vals[2] + vals[3])
    seg[-1] = (h / 24) * (vals[-4] - 5 * vals[-3] + 19 * vals[-2] + 9 * vals[-1])
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    return cum - cum[z]


def phi_series_solution(alpha_fn, beta_fn, xs, blocks=40):
    """Nested-integral series for y''' = alpha y' + beta y with unit value data.

    Builds gamma (the order-2 unit solution) and then sums the simplex blocks
    of the weight beta(s1) gamma(s1) gamma(s3) / gamma(s2)^2 by repeated
    cumulative integration; entirely independent of the solver machinery.
    """
    # gamma: 1 + iterated integrals of alpha at even depth
    gamma = np.ones(len(xs), dtype=complex)
    term = np.ones(len(xs), dtype=complex)
    for _ in range(blocks):
        term = cumint(cumint(alpha_fn(xs) * term, xs), xs)
        gamma = gamma + term
        if np.max(np.abs(term)) < 1e-15:
            break
    f1 = beta_fn(xs) * gamma
    f2 = gamma**-2
    f3 = gamma
    y = np.ones(len(xs), dtype=complex)
    block = np.ones(len(xs), dtype=complex)
    for _ in range(blocks):
        block = cumint(f3 * cumint(f2 * cumint(f1 * block, xs), xs), xs)
        y = y + block
        if np.max(np.abs(block)) < 1e-15:
            break
    return y, gamma


class TestBasisStructure:
    def test_order3_rotations(self, grid200):
        a = CoeffVector.from_rhs(("0", "x", "1"))
        bs = basis(a, grid200)
        phi = bs.chain.phi
        assert bs.exprs[0] == TrigNode((phi[0], phi[1], phi[2]), 3)
        assert bs.exprs[1] == TrigNode((phi[2], phi[0], phi[1]), 1)
        assert bs.exprs[2] == TrigNode((phi[1], phi[2], phi[0]), 2)

    def test_order4_rotations(self, grid200):
        a = CoeffVector.from_rhs(("0", "x/2", "0", "1/2"))
        bs = basis(a, grid200)
        p = bs.chain.phi
        assert bs.exprs[0] == TrigNode((p[0], p[1], p[2], p[3]), 4)
        assert bs.exprs[1] == TrigNode((p[3], p[0], p[1], p[2]), 1)
        assert bs.exprs[2] == TrigNode((p[2], p[3], p[0], p[1]), 2)
        assert bs.exprs[3] == TrigNode((p[1], p[2], p[3], p[0]), 3)

    def test_value_row_is_exact_kronecker(self, grid200):
        a = CoeffVector.from_rhs(("x", "1", "sin(x)"))
        bs = basis(a, grid200)
        for k in range(1, 4):
            assert bs.psi[k - 1].at_zero() == (1.0 if k == 1 else 0.0)


class TestInitialConditionMatrix:
    @pytest.mark.parametrize("rhs", [("sin(x)", "1+x"), ("0", "x", "1"), ("x/4", "cos(x)", "x/2", "1/2")])
    def test_identity(self, grid2000, rhs):
        bs = basis(CoeffVector.from_rhs(rhs), grid2000)
        m = initial_condition_matrix(bs)
        assert np.max(np.abs(m - np.eye(bs.n))) <= 1e-6


class TestResidual:
    @pytest.mark.parametrize("rhs", [("sin(x)", "1+x"), ("0", "x", "1"), ("x/4", "cos(x)", "x/2", "1/2")])
    def test_members_solve_the_equation(self, grid2000, rhs):
        from multexode import LowerContext, lower

        bs = basis(CoeffVector.from_rhs(rhs), grid2000)
        coeff_sup = 1.0
        ctx = LowerContext(grid2000)
        coeff_sup += sum(lower(bs.a.a(j), ctx).sup_norm() for j in range(1, bs.n + 1))
        for k in range(1, bs.n + 1):
            res = ode_residual(bs, k)
            assert res.sup_norm(bs.validity) <= 1e-5 * coeff_sup


class TestSolveIvp:
    def test_unit_first_condition_returns_first_member(self, grid200):
        p = IVProblem(3, ("0", "x", "1"), (1, 0, 0))
        y, bs = solve_ivp(p, grid200)
        assert np.array_equal(y.values, bs.psi[0].values)

    def test_series_overflow_is_typed(self):
        p = IVProblem(3, ("0", "-40+3*x", "1"), (1, 0.3, -0.2))
        with pytest.raises(Overflow):
            solve_ivp(p, Grid(-0.75, 0.75, 400), tol=1e-13)

    def test_introductory_third_order_example(self):
        g = Grid(-1, 1, 2000)
        p = IVProblem(3, ("0", "1+x^2/4", "x"), (1, 0, 0))
        y, bs = solve_ivp(p, g)
        keep = g.mask(bs.validity)
        oracle, gamma = phi_series_solution(lambda x: 1 + x**2 / 4, lambda x: x, g.nodes)
        assert np.max(np.abs(y.values[keep] - oracle[keep])) <= 1e-7
        # the order-2 unit solution satisfies its equation
        h = g.h
        d2 = (-gamma[:-4] + 16 * gamma[1:-3] - 30 * gamma[2:-2] + 16 * gamma[3:-1] - gamma[4:]) / (12 * h * h)
        resid = d2 - (1 + g.nodes[2:-2] ** 2 / 4) * gamma[2:-2]
        assert np.max(np.abs(resid)) <= 1e-6

    def test_order4_against_series_oracle(self, rng):
        g = Grid(-0.75, 0.75, 1000)
        coeffs = tuple(smooth_gridfn(g, rng, scale=2.0) for _ in range(4))
        env = {f"a{j}": coeffs[j - 1] for j in range(1, 5)}
        from multexode import CoeffRef

        ic = (0.7, -0.2, 0.4, 0.1)
        p = IVProblem(4, tuple(CoeffRef(f"a{j}") for j in range(1, 5)), ic)
        y, bs = solve_ivp(p, g, env=env)
        m = companion(bs.a, g, env=env)
        oracle = dyson(m, tol=1e-12).first_row_solution(ic)
        keep = g.mask(bs.validity)
        assert np.max(np.abs(y.values[keep] - oracle.values[keep])) <= 1e-6

    def test_order5_exercises_coefficient_derivatives(self):
        # beyond order 4 the chain differentiates the coefficients themselves
        g = Grid(-0.5, 0.5, 2000)
        p = IVProblem(5, ("sin(x)/4", "cos(x)/2", "x/2", "1/3", "x^2/2"), (1, 0.5, -0.25, 0, 0.3))
        y, bs = solve_ivp(p, g, tol=1e-12)
        oracle = dyson(companion(bs.a, g), tol=1e-12).first_row_solution(p.initial_values)
        keep = g.mask(bs.validity)
        assert np.max(np.abs(y.values[keep] - oracle.values[keep])) <= 1e-6

    def test_order1_short_circuit(self, grid2000):
        p = IVProblem(1, ("cos(x)",), (2.0,))
        y, bs = solve_ivp(p, grid2000)
        expected = 2.0 * np.exp(np.sin(grid2000.nodes))
        assert np.max(np.abs(y.values - expected)) <= 1e-10


class TestSchrodingerPreset:
    def test_constant_impedance_reduces_to_circular(self, grid2000):
        bs = preset_schrodinger("1", 2.0, grid2000)
        c, s = bs.psi
        assert np.max(np.abs(c.values - np.cos(2 * grid2000.nodes))) <= 1e-8
        assert np.max(np.abs(s.values - np.sin(2 * grid2000.nodes) / 2)) <= 1e-8

    def test_zero_frequency(self, grid200):
        bs = preset_schrodinger("1 + x^2/8", 0.0, grid200)
        assert np.all(bs.psi[0].values == 1.0)

    def test_preset_matches_generic_basis(self, grid2000):
        bs = preset_schrodinger("2 + sin(x)", 1.0, grid2000)
        a1 = parse("-cos(x)/(2 + sin(x))")
        generic = basis(CoeffVector.from_rhs((a1, "-1")), grid2000)
        assert np.max(np.abs(bs.psi[0].values - generic.psi[0].values)) <= 1e-9
        assert np.max(np.abs(bs.psi[1].values - generic.psi[1].values)) <= 1e-9

    def test_sampled_impedance_requires_opt_in(self, grid200):
        xs = np.linspace(-1.5, 1.5, 4001)
        zeta = Sampled(xs, 2.0 + np.sin(xs))
        with pytest.raises(NonDifferentiable):
            preset_schrodinger(zeta, 1.0, grid200)
        bs = preset_schrodinger(zeta, 1.0, grid200, numeric_diff=True)
        ref = preset_schrodinger("2 + sin(x)", 1.0, grid200)
        assert np.max(np.abs(bs.psi[0].values - ref.psi[0].values)) <= 1e-7

    def test_nonpositive_impedance_rejected(self, grid200):
        with pytest.raises(ValueError):
            preset_schrodinger("x", 1.0, grid200)


class TestOrrPreset:
    def test_zero_coefficients_polynomial_basis(self, grid200):
        bs = preset_orr_sommerfeld("0", "0", grid200)
        x = grid200.nodes
        refs = [np.ones_like(x), x, x**2 / 2, x**3 / 6]
        for fn, ref in zip(bs.psi, refs):
            assert np.max(np.abs(fn.values - ref)) <= 1e-12

    def test_constant_coefficients_characteristic_roots(self):
        g = Grid(-1, 1, 2000)
        bs = preset_orr_sommerfeld("1", "-1", g)
        roots = np.roots([1, 0, -1.0, 0, 1.0])
        vand = np.vander(roots, 4, increasing=True).T  # row j: roots^j
        for k in range(1, 5):
            rhs = np.zeros(4)
            rhs[k - 1] = 1.0
            cs = np.linalg.solve(vand, rhs)
            ref = sum(c * np.exp(r * g.nodes) for c, r in zip(cs, roots))
            assert np.max(np.abs(bs.psi[k - 1].values - ref)) <= 1e-7

    def test_generic_matches_series_oracle(self):
        g = Grid(-0.75, 0.75, 1500)
        bs = preset_orr_sommerfeld("cos(x)/2", "x/2", g)
        m = companion(bs.a, g)
        oracle = dyson(m, tol=1e-12)
        keep = g.mask(bs.validity)
        for k in range(1, 5):
            ref = oracle.entry(0, k - 1).values
            assert np.max(np.abs(bs.psi[k - 1].values[keep] - ref[keep])) <= 1e-6
