import importlib
import tracemalloc

import numpy as np
import pytest

from multexode import (
    Grid,
    IVProblem,
    LowerContext,
    Overflow,
    Sampled,
    ValidityCollapsed,
    basis,
    build_aux_chain,
    companion,
    dyson,
    lower,
    lower_chain,
    parse,
    preset_orr_sommerfeld,
    preset_schrodinger,
    rk4,
    solve_ivp,
    trig_family,
)
from multexode import auxiliary as aux
from multexode import coeffexpr as ce_module
from multexode import solver as solver_module
from multexode.auxiliary import CoeffVector
from multexode.coeffexpr import expprim, mul
from multexode.gridfn import linear_combination

from conftest import smooth_gridfn
from crosschecks import dop853_reference, first_row_solution, initial_condition_matrix, ode_residual, rotation_members


def lowered_rows(monkeypatch) -> list:
    """Every row lowering computes from here on, in order."""
    lower_module = importlib.import_module("multexode.lower")
    inner = lower_module._lower
    rows = []
    monkeypatch.setattr(lower_module, "_lower", lambda e, ctx: rows.append(inner(e, ctx)) or rows[-1])
    return rows


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


def assert_members_match_each_rotation(bs):
    """Every member of the stacked pass equals, bit for bit, the trig
    operator of its own rotation lowered by a pass of its own."""
    ref = rotation_members(bs)
    assert ref.validity == bs.validity
    for member, row in zip(bs.psi, ref.rows, strict=True):
        assert member.values.tobytes() == row.tobytes()


# the smooth coefficients of the ROADMAP timing table and complex ones;
# order n takes the first n
SMOOTH = ("0.1*x", "-1+0.2*sin(x)", "0.3*x", "0.5*cos(x)", "0.2")
SMOOTH_COMPLEX = ("0.1*x+0.05*i", "-1+0.2*i*sin(x)", "0.3*x", "0.5*cos(x)-0.1*i", "0.2+0.1*i")


class TestBasisStructure:
    # member k is index (k-2) mod n + 1 of the chain rotated k-1 steps right
    def test_order3_rotations(self, grid200):
        assert_members_match_each_rotation(basis(CoeffVector.from_rhs(("0", "x", "1")), grid200))

    def test_order4_rotations(self, grid200):
        assert_members_match_each_rotation(basis(CoeffVector.from_rhs(("0", "x/2", "0", "1/2")), grid200))

    @pytest.mark.parametrize(
        "make",
        [
            *(lambda g, n=n, c=c: basis(CoeffVector.from_rhs(c[:n]), g)
              for n in (2, 3, 4, 5) for c in (SMOOTH, SMOOTH_COMPLEX)),
            lambda g: preset_orr_sommerfeld("cos(x)/2", "x/2", g),
            lambda g: basis(CoeffVector.from_rhs(("1/(x-0.7)", "x", "1")), g),
        ],
        ids=[f"order{n}_{t}" for n in (2, 3, 4, 5) for t in ("real", "complex")] + ["orr", "dividing_order3"],
    )
    def test_stacked_pass_matches_each_rotation(self, grid2000, make):
        assert_members_match_each_rotation(make(grid2000))

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
        bs = basis(CoeffVector.from_rhs(rhs), grid2000)
        coeff_sup = 1.0
        ctx = LowerContext(grid2000)
        coeff_sup += sum(np.max(np.abs(lower(bs.a.a(j), ctx).values)) for j in range(1, bs.n + 1))
        for k in range(1, bs.n + 1):
            res = ode_residual(bs, k)
            assert np.max(np.abs(res.values[grid2000.mask(bs.validity)])) <= 1e-5 * coeff_sup


class TestSolveIvp:
    @pytest.mark.parametrize(
        "chained, folded",
        [("-1" + " - 0.0001*x" * 2000, "-1 - 0.2*x"), ("-1+x" + "/1.0001" * 1000, f"-1 + {1.0001 ** -1000!r}*x")],
        ids=["2000_subtractions", "1000_divisions"],
    )
    def test_a_long_chain_of_operators_solves(self, grid200, chained, folded):
        y, _ = solve_ivp(IVProblem(2, ("0", chained), (1, 0)), grid200)
        ref, _ = solve_ivp(IVProblem(2, ("0", folded), (1, 0)), grid200)
        assert np.max(np.abs(y.values - ref.values)) <= 1e-12

    def test_unit_first_condition_returns_first_member(self, grid200):
        p = IVProblem(3, ("0", "x", "1"), (1, 0, 0))
        y, bs = solve_ivp(p, grid200)
        assert np.array_equal(y.values, bs.psi[0].values)

    def test_real_chain_stays_real_to_the_complex_edge(self, grid200, monkeypatch):
        rows = lowered_rows(monkeypatch)
        y, bs = solve_ivp(IVProblem(3, ("0.3+x", "-2+x/10", "0.5"), (1, 0, 0)), grid200)
        assert rows and all(v.dtype == np.float64 for v in rows)
        phi, _, _ = lower_chain(bs.chain, LowerContext(grid200))
        for stack in (1, 3):  # a chain family and the stacked pass of the members
            family, _ = trig_family(phi, stack=stack)
            assert all(t.values.dtype == np.float64 for t in family)
        assert y.values.dtype == np.complex128
        assert all(m.values.dtype == np.complex128 for m in bs.psi)

    def test_real_table_matches_the_complex_table(self, monkeypatch):
        # the same table given real and complex: the real chain stays real
        # and differs from the complex one only in rounding
        g = Grid(-1, 1, 2000)
        xs = np.linspace(-1.25, 1.25, 2501)
        ys = -1 + 0.2 * np.cos(xs)
        rows = lowered_rows(monkeypatch)
        real = basis(CoeffVector.from_rhs(("x/4", Sampled(xs, ys), "1/2")), g)
        assert rows and all(v.dtype == np.float64 for v in rows)
        cplx = basis(CoeffVector.from_rhs(("x/4", Sampled(xs, ys + 0j), "1/2")), g)
        for m_real, m_cplx in zip(real.psi, cplx.psi):
            assert np.max(np.abs(m_real.values - m_cplx.values)) <= 1e-15

    def test_series_overflow_is_typed(self):
        p = IVProblem(3, ("0", "-40+3*x", "1"), (1, 0.3, -0.2))
        with pytest.raises(Overflow):
            solve_ivp(p, Grid(-0.75, 0.75, 400), tol=1e-13)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_initial_value_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            IVProblem(2, ("0", "-4"), (1, bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            IVProblem(2, (bad, 1), (1, 0))

    def test_huge_initial_data_overflow_is_typed(self, grid2000):
        p = IVProblem(2, ("0", "-4"), (1.7e308, 1.7e308))
        with pytest.raises(Overflow) as exc:
            solve_ivp(p, grid2000)
        assert grid2000.lo <= exc.value.x <= grid2000.hi

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
        coeffs = tuple(Sampled(g.nodes, smooth_gridfn(g, rng, scale=2.0).values) for _ in range(4))
        ic = (0.7, -0.2, 0.4, 0.1)
        y, bs = solve_ivp(IVProblem(4, coeffs, ic), g)
        m = companion(bs.a, g)
        oracle = first_row_solution(dyson(m, tol=1e-12), ic)
        keep = g.mask(bs.validity)
        assert np.max(np.abs(y.values[keep] - oracle.values[keep])) <= 1e-6

    def test_order5_matches_dyson(self):
        g = Grid(-0.5, 0.5, 2000)
        p = IVProblem(5, ("sin(x)/4", "cos(x)/2", "x/2", "1/3", "x^2/2"), (1, 0.5, -0.25, 0, 0.3))
        y, bs = solve_ivp(p, g, tol=1e-12)
        oracle = first_row_solution(dyson(companion(bs.a, g), tol=1e-12), p.initial_values)
        keep = g.mask(bs.validity)
        assert np.max(np.abs(y.values[keep] - oracle.values[keep])) <= 1e-6

    def test_order5_matches_dop853(self):
        g = Grid(-1, 1, 2000)
        p = IVProblem(5, SMOOTH_COMPLEX, (1, 0.5, -0.25, 0, 0.3))
        fns = (lambda x: 0.1 * x + 0.05j, lambda x: -1 + 0.2j * np.sin(x), lambda x: 0.3 * x,
               lambda x: 0.5 * np.cos(x) - 0.1j, lambda x: 0.2 + 0.1j)
        y, bs = solve_ivp(p, g)
        xs = g.nodes[::50]
        assert bs.validity == g.interval
        assert np.max(np.abs(y.values[::50] - dop853_reference(fns, p.initial_values, xs))) <= 1e-8

    def test_order1_short_circuit(self, grid2000):
        p = IVProblem(1, ("cos(x)",), (2.0,))
        y, bs = solve_ivp(p, grid2000)
        expected = 2.0 * np.exp(np.sin(grid2000.nodes))
        assert np.max(np.abs(y.values - expected)) <= 1e-10

    def test_order1_validity_cut_by_dividing_coefficient(self, grid2000):
        # y' = y/(x - 0.5) with y(0) = 1 has the solution 1 - 2x
        y, bs = solve_ivp(IVProblem(1, ("1/(x-0.5)",), (1,)), grid2000)
        x = grid2000.nodes
        assert bs.validity.hi < 0.5
        assert np.all(y.values[x > bs.validity.hi + 1e-12] == 0.0)
        near = x <= 0.49
        assert np.max(np.abs(y.values[near] - (1 - 2 * x[near]))) <= 1e-6


def at_depth(frames: int, fn):
    """fn() called ``frames`` Python frames below the caller."""
    return fn() if frames == 0 else at_depth(frames - 1, fn)


class TestEveryDocumentedOrder:
    def test_order9_matches_its_closed_form(self, grid2000):
        # y^(9) = y with y(0) = 1 and every other datum 0 is the mean of
        # exp(w^k x) over the ninth roots of unity w^k
        y, bs = solve_ivp(IVProblem(9, ("0",) * 8 + ("1",), (1,) + (0,) * 8), grid2000)
        roots = np.exp(2j * np.pi * np.arange(9) / 9)
        exact = np.exp(np.outer(grid2000.nodes, roots)).mean(axis=1)
        assert bs.validity == grid2000.interval
        assert np.max(np.abs(y.values - exact)) <= 1e-12

    def test_order8_solves_from_a_deep_caller(self):
        g = Grid(-1, 1, 400)
        p = IVProblem(8, ("0.1",) * 8, (1, 0.3, -0.2, 0.1, 0.05, 0, 0.02, -0.01))
        y, bs = at_depth(300, lambda: solve_ivp(p, g))
        oracle = linear_combination(g, p.initial_values, rk4(companion(bs.a, g), g.n)[0])
        assert bs.validity == g.interval
        assert np.max(np.abs(y.values - oracle.values)) <= 1e-8


# the smooth order-5 problem of the ROADMAP timing table
ORDER5 = IVProblem(5, SMOOTH, (1, 0, 0.5, -0.2, 0.3))


class TestLoweringMemo:
    @pytest.mark.parametrize(
        "make, roots",
        [
            (lambda g: solve_ivp(ORDER5, g)[1], 5),
            (lambda g: basis(CoeffVector.from_rhs(("1/(x-0.5)",)), g), 1),
            (lambda g: basis(CoeffVector.from_rhs(("x/4", "cos(x)", "x/2")), g), 3),
            (lambda g: preset_orr_sommerfeld("cos(x)/2", "x/2", g), 4),
            (lambda g: preset_schrodinger("2 + sin(x)", 1.0, g), 2),
        ],
        ids=["solve_ivp", "basis_order1", "basis", "orr", "schrodinger"],
    )
    def test_memo_is_empty_after_a_solve(self, grid2000, make, roots, monkeypatch):
        # every row but the roots' is dropped after its last planned read,
        # and each root keeps the one read that is never taken; the solve's
        # context is the last one made (the Schrödinger probe's comes first)
        contexts = []

        def recording(*args, **kwargs):
            contexts.append(LowerContext(*args, **kwargs))
            return contexts[-1]

        monkeypatch.setattr(importlib.import_module("multexode.solver"), "LowerContext", recording)
        bs = make(grid2000)
        kept = bs.chain.phi if bs.chain else (expprim(bs.a.a(1), 1),)
        assert len(set(kept)) == roots
        assert contexts[-1].uses == dict.fromkeys(kept, 1) and contexts[-1].memo.keys() == set(kept)

    @pytest.mark.parametrize("case", ["expression", "chain"])
    def test_a_call_inside_a_planned_root_takes_none_of_its_reads(self, grid200, case):
        # lowering a node that a planned root reads, before the root, takes
        # none of the parent's reads of it, so the rows it shares stay
        if case == "expression":
            child = parse("sin(x) + 2")
            inner, roots = [child], [mul(child, expprim(child, 1))]
        else:
            phi = build_aux_chain(CoeffVector.from_rhs(SMOOTH)).phi
            inner, roots = [phi[2].realization], list(phi)
        ctx = LowerContext(grid200)
        ctx.plan(roots)
        got = [lower(e, ctx).values for e in inner + roots]
        fresh = []
        for e in inner + roots:
            ref = LowerContext(grid200)
            ref.plan([e])
            fresh.append(lower(e, ref).values)
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh, strict=True))

    def test_a_planned_root_lowered_twice_is_computed_once(self, grid200, monkeypatch):
        root = mul(parse("sin(x) + 2"), expprim(parse("cos(x)"), 1))
        ctx = LowerContext(grid200)
        ctx.plan([root])
        rows = lowered_rows(monkeypatch)
        first, second = lower(root, ctx).values, lower(root, ctx).values
        assert second is first and sum(row is first for row in rows) == 1
        assert ctx.uses == {root: 1}

    def test_each_node_is_lowered_once(self, grid2000, monkeypatch):
        lower_module = importlib.import_module("multexode.lower")
        inner = lower_module._lower
        lowered = []
        monkeypatch.setattr(lower_module, "_lower", lambda e, ctx: lowered.append(e) or inner(e, ctx))
        solve_ivp(ORDER5, grid2000)
        assert lowered and len(lowered) == len(set(lowered))

    def test_costly_calls_of_an_order5_solve(self, grid2000, monkeypatch):
        # a row computed twice that re-ran a series, a primitive or a
        # zero-free scan would raise these counts
        calls = {}
        for name, attr in (("lower", "trig_family"), ("solver", "trig_family"), ("lower", "zero_free_interval"),
                           ("lower", "primitive_values"), ("multex", "primitive_values")):
            module = importlib.import_module(f"multexode.{name}")
            fn = getattr(module, attr)
            key = f"{name}.{attr}"
            calls[key] = 0

            def counting(*a, _fn=fn, _key=key, **k):
                calls[_key] += 1
                return _fn(*a, **k)

            monkeypatch.setattr(module, attr, counting)
        solve_ivp(ORDER5, grid2000)
        # the chain's families, then one stacked pass for all five members
        assert calls == {"lower.trig_family": 7, "solver.trig_family": 1, "lower.zero_free_interval": 22,
                         "lower.primitive_values": 12, "multex.primitive_values": 143}

    def test_peak_memory_of_an_order5_solve(self, grid2000):
        # rows live only between their first and last read: the traced peak
        # stays within 30 complex rows (about 60 when the memo kept them)
        solve_ivp(ORDER5, grid2000)
        solver_module._LOWERED.clear()  # so that the traced solve lowers
        tracemalloc.start()
        try:
            solve_ivp(ORDER5, grid2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30 * (grid2000.n + 1) * 16


lower_module = importlib.import_module("multexode.lower")  # the package's lower is the function


def count_lowering(monkeypatch) -> dict:
    """Calls of lower_chain, of the public lower, of the two series entries
    and of the zero-free scan, from here on."""
    calls = {}
    for module, attr in ((solver_module, "lower_chain"), (aux, "lower"), (lower_module, "lower"),
                         (lower_module, "trig_family"), (lower_module, "zero_free_interval"),
                         (solver_module, "trig_family")):
        key = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        calls[key] = 0

        def counting(*a, _fn=getattr(module, attr), _key=key, **k):
            calls[_key] += 1
            return _fn(*a, **k)

        monkeypatch.setattr(module, attr, counting)
    return calls


def lowered_equations() -> list:
    """The equation of each kept entry, least recently used first."""
    return [eq for eq, _, _ in solver_module._LOWERED]


# order-3 equations whose constants no other test uses
LOWERED3 = [CoeffVector.from_rhs((f"0.0{k}93*x", f"-1.0{k}57", f"0.{k}61")) for k in (1, 2, 3)]


class TestLoweredChainMemo:
    def test_a_repeat_solve_runs_only_the_stacked_pass(self, grid2000, monkeypatch):
        solve_ivp(ORDER5, grid2000)
        calls = count_lowering(monkeypatch)
        problem = IVProblem(5, SMOOTH, (0.3, -1, 0, 0.2, 1))
        y, bs = solve_ivp(problem, grid2000)
        assert calls == {"solver.lower_chain": 0, "auxiliary.lower": 0, "lower.lower": 0, "lower.trig_family": 0,
                         "lower.zero_free_interval": 0, "solver.trig_family": 1}
        monkeypatch.undo()
        # the kept rows are lowering's own: read-only, and real for a real chain
        ((_, rows, _, _), _), = solver_module._LOWERED.values()
        assert all(not r.values.flags.writeable and r.values.dtype == float for r in rows)
        del rows
        solver_module._LOWERED.clear()
        y_fresh, fresh = solve_ivp(problem, grid2000)
        assert np.array_equal(y.values, y_fresh.values) and bs.validity == fresh.validity
        assert all(np.array_equal(m.values, f.values) for m, f in zip(bs.psi, fresh.psi, strict=True))
        assert bs.aux_diagnostics == fresh.aux_diagnostics and bs.diagnostics == fresh.diagnostics

    def test_another_grid_or_tolerance_misses(self, grid2000, monkeypatch):
        basis(LOWERED3[0], grid2000)
        calls = count_lowering(monkeypatch)
        basis(LOWERED3[0], Grid(-1, 1, 1000))
        basis(LOWERED3[0], grid2000, tol=1e-13)
        basis(LOWERED3[0], Grid(-1.0, 1.0, 2000))  # an equal grid hits
        assert calls["solver.lower_chain"] == 2 and len(solver_module._LOWERED) == 3

    def test_a_repeat_orr_preset_hits(self, grid2000, monkeypatch):
        first = preset_orr_sommerfeld("-1.0311+x", "0.4917", grid2000)
        calls = count_lowering(monkeypatch)
        second = preset_orr_sommerfeld("-1.0311+x", "0.4917", grid2000)
        assert calls["solver.lower_chain"] == 0 and len(solver_module._LOWERED) == 1
        assert all(np.array_equal(p.values, q.values) for p, q in zip(first.psi, second.psi, strict=True))

    @pytest.mark.parametrize("order", ["general_first", "orr_first"])
    def test_the_orr_preset_and_its_general_equation_are_kept_apart(self, grid2000, order):
        # equal coefficients, but the preset's hand-built chain is not the
        # general recursion's, and their members differ in the last bits
        solves = {
            "general": lambda: basis(CoeffVector.from_rhs(("0", "-1.0311+x", "0", "0.4917")), grid2000),
            "orr": lambda: preset_orr_sommerfeld("-1.0311+x", "0.4917", grid2000),
        }
        fresh = {}
        for name, solve in solves.items():
            fresh[name] = [m.values for m in solve().psi]
            solver_module._LOWERED.clear()
        assert any(not np.array_equal(p, q) for p, q in zip(fresh["general"], fresh["orr"], strict=True))
        names = ["general", "orr"] if order == "general_first" else ["orr", "general"]
        for name in names * 2:  # each first builds, then each hits
            got = solves[name]().psi
            assert all(np.array_equal(m.values, f) for m, f in zip(got, fresh[name], strict=True))
        assert len(solver_module._LOWERED) == 2

    def test_a_lowering_that_raises_keeps_nothing(self, grid2000, monkeypatch):
        calls = count_lowering(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValidityCollapsed):
                solve_ivp(IVProblem(2, ("1/(x-0.001)", "1"), (1, 0)), grid2000)
        assert calls["solver.lower_chain"] == 2 and not solver_module._LOWERED

    def test_the_least_recently_used_entry_is_evicted(self, grid200, monkeypatch):
        for a in LOWERED3:
            basis(a, grid200)
        sizes = [size for _, size in solver_module._LOWERED.values()]
        solver_module._LOWERED.clear()
        monkeypatch.setattr(solver_module, "_LOWERED_BUDGET", sum(sizes) - 1)
        calls = count_lowering(monkeypatch)
        for a in (LOWERED3[0], LOWERED3[1], LOWERED3[0], LOWERED3[2]):
            basis(a, grid200)
        assert calls["solver.lower_chain"] == 3  # the repeat of the first was a hit
        assert lowered_equations() == [LOWERED3[0], LOWERED3[2]]

    def test_an_entry_over_the_budget_is_not_kept(self, grid200, monkeypatch):
        basis(LOWERED3[0], grid200)
        ((_, size),) = solver_module._LOWERED.values()
        monkeypatch.setattr(solver_module, "_LOWERED_BUDGET", size)
        calls = count_lowering(monkeypatch)
        large = CoeffVector.from_rhs(SMOOTH)
        basis(large, grid200)
        basis(large, grid200)
        assert calls["solver.lower_chain"] == 2
        assert lowered_equations() == [LOWERED3[0]]  # and it evicted nothing

    def test_editing_aux_diagnostics_leaves_the_next_hit_unchanged(self, grid200):
        first = basis(LOWERED3[1], grid200)
        kept = dict(first.aux_diagnostics)
        first.aux_diagnostics.clear()
        second = basis(LOWERED3[1], grid200)
        assert second.aux_diagnostics == kept and second.aux_diagnostics is not first.aux_diagnostics
        second.aux_diagnostics[1] = "edited"
        assert basis(LOWERED3[1], grid200).aux_diagnostics == kept


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

    def test_sampled_impedance_matches_its_expression(self, grid200, grid2000):
        # the trig pair reads zeta and 1/zeta only, so a table needs no derivative
        xs = np.linspace(-1.5, 1.5, 4001)
        for text, ys in (("2 + sin(x)", 2 + np.sin(xs)), ("1 + 0.3*x^2", 1 + 0.3 * xs**2)):
            for g in (grid200, grid2000):
                bs = preset_schrodinger(Sampled(xs, ys), 1.0, g)
                ref = preset_schrodinger(text, 1.0, g)
                for got, want in zip(bs.psi, ref.psi, strict=True):
                    assert np.max(np.abs(got.values - want.values)) <= 1e-10

    def test_no_derivative_and_a_repeat_is_a_memo_hit(self, grid200, monkeypatch):
        differentiated, real = [], ce_module.differentiate
        monkeypatch.setattr(ce_module, "differentiate", lambda e: differentiated.append(e) or real(e))
        first = preset_schrodinger("2 + sin(x)", 1.0, grid200)
        assert not differentiated and first.a is None
        kept = len(solver_module._LOWERED)
        calls = count_lowering(monkeypatch)
        second = preset_schrodinger("2 + sin(x)", 1.0, grid200)
        assert calls["solver.lower_chain"] == 0 and len(solver_module._LOWERED) == kept
        assert all(np.array_equal(a.values, b.values) for a, b in zip(first.psi, second.psi, strict=True))

    def test_singular_impedance_cuts_validity(self, grid2000):
        # zeta is positive up to its pole at 0.5: the probe and the basis
        # both cut the interval there instead of rejecting the profile
        bs = preset_schrodinger("(x-0.5)^-2", 1.0, grid2000)
        assert bs.validity.lo == grid2000.lo and 0.49 < bs.validity.hi < 0.5
        steps = rk4(companion(CoeffVector.from_rhs(("2/(x-0.5)", "-1")), grid2000), grid2000.n)
        near = grid2000.nodes <= 0.45
        for k in range(2):
            assert np.max(np.abs(bs.psi[k].values - steps[0, k])[near]) <= 1e-8

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_frequency_rejected(self, grid200, bad):
        with pytest.raises(ValueError, match="finite"):
            preset_schrodinger("2 + sin(x)", bad, grid200)

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
            ref = oracle.M[0, k - 1]
            assert np.max(np.abs(bs.psi[k - 1].values[keep] - ref[keep])) <= 1e-6
