import gc
import itertools
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from multexode import (
    AuxFn,
    DegenerateLeading,
    Expr,
    Grid,
    GridFn,
    IVProblem,
    LowerContext,
    TrigNode,
    ValidityCollapsed,
    apply_scriptD,
    basis,
    build_aux_chain,
    differentiate,
    extract_aux_ode,
    lower,
    lower_chain,
    parse,
    simplify,
    solve_ivp,
)
from multexode import auxiliary as aux
from multexode import solver
from multexode.auxiliary import CoeffVector
from multexode import coeffexpr as ce
from multexode.coeffexpr import ONE, ZERO, Const, add, mul, sub
from multexode.multex import DEFAULT_TOL

from crosschecks import closed_form_aux, exp_primitive, realization_residual


def coeff_vector(*rhs):
    return CoeffVector.from_rhs(rhs)


def lowered_chain(a, grid, tol=DEFAULT_TOL):
    """The chain of ``a`` lowered on a fresh context of ``grid``: the chain,
    its rows phi_fns, its validity interval and the context."""
    chain = build_aux_chain(a)
    ctx = LowerContext(grid, series_tol=tol)
    phi_fns, _, validity = lower_chain(chain, ctx)
    return SimpleNamespace(n=chain.n, a=chain.a, phi=chain.phi, phi_fns=phi_fns, validity=validity, ctx=ctx)


class TestApplyScriptD:
    def test_unit_vector_collects_derivatives(self):
        phi = parse("exp(x)")
        v = [ZERO, ZERO, ZERO, phi]  # phi times the top unit vector, n = 3
        out = apply_scriptD(v)
        d1 = simplify(differentiate(phi))
        d2 = simplify(differentiate(d1))
        assert out == [d2, d1, phi, ZERO]

    def test_second_position_gives_first_order_data(self):
        u = parse("sin(x)")
        out = apply_scriptD([ZERO, ZERO, u])
        assert out == [simplify(differentiate(u)), u, ZERO]

    def test_zero_vector(self):
        out = apply_scriptD([ZERO, ZERO, ZERO])
        assert out == [ZERO, ZERO, ZERO]


class TestExtractAuxOde:
    def test_order2_top_equation(self):
        a = coeff_vector("sin(x)", "x^2")
        order, b, lead = extract_aux_ode(a, [ZERO, ZERO, ONE])
        assert lead == Const(-1)
        assert order == 1
        assert b == [parse("sin(x)")]

    def test_order3_top_equation(self):
        a = coeff_vector("x", "1+x", "2")
        order, b, _ = extract_aux_ode(a, [ZERO, ZERO, ZERO, ONE])
        assert order == 2
        assert b == [parse("x"), parse("1+x")]

    def test_third_stage_reduces_log_derivative(self, grid2000):
        # with the second-stage vector (C'', C', C, 0) the extracted equation
        # is first order with right side a1 - 2 C'/C
        a = coeff_vector("0", "-1", "x")
        c_expr = TrigNode((mul(a.a(2), ONE), ONE), 2)  # a1 = 0 so both weights are plain
        c_fn = AuxFn("c", 2, (a.a(1), a.a(2)), c_expr)
        beta = apply_scriptD([ZERO, ZERO, ZERO, mul(c_fn, ONE)])
        order, b, _ = extract_aux_ode(a, beta)
        assert order == 1
        ctx = LowerContext(grid2000)
        got = lower(b[0], ctx)
        c = lower(c_fn, ctx)
        dc = lower(c_fn.derivs[0], ctx)
        expected = -2.0 * dc.values / c.values
        keep = slice(ctx.validity[0], ctx.validity[1] + 1)
        assert np.max(np.abs(got.values[keep] - expected[keep])) < 1e-9

    @pytest.mark.parametrize(
        "beta",
        [
            ("0", "0", "0", "x", "1+x^2"),
            ("0", "0", "sin(x)", "x", "2+cos(x)"),
            ("0", "x^2", "1", "exp(x)", "3"),
        ],
    )
    def test_leibniz_forms_match_product_rule(self, beta):
        # the extracted equation, times its leading coefficient -beta_top, is
        # the contraction of a with the derivative matrix applied to u*beta
        a = coeff_vector("x/4", "cos(x)", "x", "1/2")
        beta = [parse(c) for c in beta]
        u = parse("exp(x/3)*cos(x)")
        order, b, _ = extract_aux_ode(a, beta)
        derivs = [u]
        for _ in range(order):
            derivs.append(differentiate(derivs[-1]))
        lhs = ZERO
        for ai, di in zip(a.coeffs, apply_scriptD([mul(u, bm) for bm in beta])):
            lhs = add(lhs, mul(ai, di))
        rhs = derivs[order]
        for j, bj in enumerate(b, start=1):
            rhs = sub(rhs, mul(bj, derivs[order - j]))
        rhs = mul(mul(Const(-1), beta[order + 1]), rhs)
        ctx = LowerContext(Grid(-1, 1, 400))
        assert np.max(np.abs(lower(lhs, ctx).values - lower(rhs, ctx).values)) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateLeading):
            extract_aux_ode(coeff_vector("1", "1"), [ZERO, ZERO, ZERO])


def stage_leads(a, phi):
    """The lead extract_aux_ode returns at every stage of the chain with
    coefficients ``a`` and functions ``phi``, nested chains included, each
    with the product phi_n*...*phi_{k+1} of the functions solved before it."""
    cur, prod, out = [ZERO] * a.n + [ONE], ONE, []
    for k in range(a.n, 1, -1):
        order, _, lead = extract_aux_ode(a, cur)
        out.append((lead, prod))
        fn = phi[k - 1]
        if order >= 3:
            out += stage_leads(CoeffVector.from_rhs(fn.bcoeffs), fn.realization.fs)
        cur = apply_scriptD([mul(fn, entry) for entry in cur])
        prod = mul(fn, prod)
    return out


class TestLowerChain:
    @pytest.mark.parametrize(
        "rhs, count",
        [
            (("0.1*x", "-1+0.2*sin(x)", "0.3*x", "0.5*cos(x)", "0.2"), 11),  # nested chains of orders 4 and 3
            (("0", "x", "0", "1/(x+0.3)"), 5),  # a nested chain of order 3
            (("1/(x-0.5)", "-40+3*x", "1"), 2),
        ],
        ids=["order5", "order4_dividing", "order3_dividing"],
    )
    def test_every_lead_is_minus_one_at_the_anchor(self, grid200, rhs, count):
        # the lead of each stage is -beta_top, the negated product of unit
        # solutions, so the chain needs no check of its own at the anchor
        a = coeff_vector(*rhs)
        chain = build_aux_chain(a)
        leads = stage_leads(a, chain.phi)
        assert len(leads) == count
        for lead, prod in leads:
            assert lead is simplify(mul(Const(-1), prod))
            ctx = LowerContext(grid200)
            ctx.coefs = chain.coefs
            assert lower(lead, ctx).at_zero() == -1

    def test_build_needs_no_grid_and_holds_no_arrays(self):
        chain = build_aux_chain(coeff_vector("x/4", "cos(x)", "x", "1/2", "sin(x)/3"))
        assert [f.name for f in fields(chain)] == ["n", "a", "phi", "coefs"]
        seen, stack, kinds = set(), [chain.phi, chain.a.coeffs, chain.coefs], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            kinds.add(type(obj))
            if isinstance(obj, tuple):
                stack.extend(obj)
            elif isinstance(obj, Expr):
                # the simplify memo may be unset, and the weakref slot is the intern table's
                slots = (name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ()))
                stack.extend(getattr(obj, name) for name in slots if name not in ("_simple", "__weakref__"))
        assert not [k for k in kinds if issubclass(k, (np.ndarray, Grid, GridFn, LowerContext))]

    def test_lowering_a_built_chain_does_no_symbolic_work(self, monkeypatch):
        a = coeff_vector("x/4", "cos(x)", "x", "1/2", "sin(x)/3")
        grids = (Grid(-1, 1, 200), Grid(-0.5, 0.75, 300), Grid(-0.5, 0.75, 300))
        refs = []
        inner = solver.lower_chain
        for g in grids:
            # the rows and validity basis gives, as its call of lower_chain returns them
            seen = []
            solver._LOWERED.clear()  # so that basis lowers on every grid
            monkeypatch.setattr(solver, "lower_chain", lambda chain, ctx: seen.append(inner(chain, ctx)) or seen[-1])
            bs = basis(a, g)
            refs.append(([r.values for r in seen[0][0]], bs.validity))
        chain = build_aux_chain(a)
        calls = {"simplify": 0, "differentiate": 0}
        for attr in calls:
            original = getattr(ce, attr)

            def counting(*args, _fn=original, _attr=attr, **kwargs):
                calls[_attr] += 1
                return _fn(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.startswith("multexode") and getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counting)
        # a second grid, then a second context of the same grid
        for g, (ref_rows, ref_validity) in zip(grids, refs):
            rows, _, validity = lower_chain(chain, LowerContext(g))
            assert validity == ref_validity
            assert all(np.array_equal(r.values, ref) for r, ref in zip(rows, ref_rows))
        assert calls == {"simplify": 0, "differentiate": 0}


class TestChainOrder2:
    def test_matches_exponential_forms(self, grid2000):
        a = coeff_vector("sin(x)", "1+x^2/4")
        chain = lowered_chain(a, grid2000)
        ctx = LowerContext(grid2000)
        phi2_ref = lower(parse("sin(x)"), ctx)
        e_up = exp_primitive(phi2_ref, 1)
        e_dn = exp_primitive(phi2_ref, -1)
        a2 = lower(parse("1+x^2/4"), ctx)
        assert np.max(np.abs(chain.phi_fns[1].values - e_up.values)) <= 1e-9
        assert np.max(np.abs(chain.phi_fns[0].values - a2.values * e_dn.values)) <= 1e-9

    def test_validity_is_global(self, grid2000):
        chain = lowered_chain(coeff_vector("sin(x)", "-4"), grid2000)
        assert chain.validity == grid2000.interval


class TestChainInvariants:
    @pytest.mark.parametrize("rhs", [("x", "1+x"), ("0", "-1", "x/2"), ("x/4", "cos(x)", "x", "1/2")])
    def test_unit_values_at_zero(self, grid2000, rhs):
        chain = lowered_chain(coeff_vector(*rhs), grid2000)
        for fn in chain.phi_fns[1:]:
            assert abs(fn.at_zero() - 1.0) < 1e-12

    @pytest.mark.parametrize("rhs", [("0", "-1", "x/2"), ("x/4", "cos(x)", "x", "1/2")])
    def test_higher_initial_derivatives_vanish(self, grid2000, rhs):
        chain = lowered_chain(coeff_vector(*rhs), grid2000)
        for k in range(2, chain.n + 1):
            fn_expr = chain.phi[k - 1]
            for s in range(1, k - 1):
                d = lower(fn_expr.derivs[s - 1], chain.ctx)
                assert abs(d.at_zero()) < 1e-9

    @pytest.mark.parametrize("rhs", [("x", "1+x"), ("0", "-1", "x/2"), ("x/4", "cos(x)", "x", "1/2")])
    def test_product_identity(self, grid2000, rhs):
        chain = lowered_chain(coeff_vector(*rhs), grid2000)
        prod = np.ones(grid2000.n + 1, dtype=complex)
        for fn in chain.phi_fns:
            prod *= fn.values
        an = lower(chain.a.a(chain.n), chain.ctx)
        keep = grid2000.mask(chain.validity)
        assert np.max(np.abs(prod[keep] - an.values[keep])) <= 1e-8

    @pytest.mark.parametrize("rhs", [("0", "-1", "x/2"), ("x/4", "cos(x)", "x", "1/2")])
    def test_beta_support(self, rhs):
        chain = build_aux_chain(coeff_vector(*rhs))
        n = chain.n
        # the i-th vector of the recursion, rebuilt from the unit vector and
        # phi_n, ..., phi_2, has top occupied position n + 1 - i
        beta = [ZERO] * n + [ONE]
        for i in range(n):
            assert beta[n + 1 - i:] == [ZERO] * i
            if i < n - 1:
                beta = apply_scriptD([mul(chain.phi[n - 1 - i], entry) for entry in beta])

    @pytest.mark.parametrize("rhs", [("0", "-1", "x/2"), ("x/4", "cos(x)", "x", "1/2")])
    def test_realizations_solve_their_equations(self, grid2000, rhs):
        chain = lowered_chain(coeff_vector(*rhs), grid2000)
        for k in range(2, chain.n + 1):
            fn_expr = chain.phi[k - 1]
            assert isinstance(fn_expr, AuxFn)
            res = realization_residual(fn_expr, chain.ctx)
            assert np.max(np.abs(res.values[grid2000.mask(chain.validity)])) <= 1e-6


class TestClosedFormCrossCheck:
    def _compare(self, rhs, grid, tol=1e-7):
        a = coeff_vector(*rhs)
        general = lowered_chain(a, grid)
        closed = closed_form_aux(a.n, a, grid)
        keep = grid.mask(general.validity) & grid.mask(closed.validity)
        for got, ref in zip(general.phi_fns, closed.phi_fns):
            assert np.max(np.abs(got.values[keep] - ref.values[keep])) <= tol

    def test_order2(self, grid2000):
        self._compare(("sin(x)", "1+x^2/4"), grid2000)

    def test_order3(self, grid2000):
        self._compare(("x/4", "-1+x/8", "cos(x)/2"), grid2000)

    def test_order4(self, grid2000):
        self._compare(("x/4", "cos(x)", "x/2", "1/2"), grid2000)

    def test_order3_reduces_to_simple_pair(self, grid2000):
        # with a1 = 0, a2 = alpha, a3 = beta the product of the chain is beta
        a = coeff_vector("0", "1+x^2", "x")
        chain = closed_form_aux(3, a, grid2000)
        prod = chain.phi_fns[0].values * chain.phi_fns[1].values * chain.phi_fns[2].values
        keep = grid2000.mask(chain.validity)
        beta = grid2000.nodes[keep]
        assert np.max(np.abs(prod[keep] - beta)) <= 1e-8

    def test_order2_unit_weights(self, grid2000):
        # a1 = 0, a2 = alpha: the chain is (alpha, 1) and its index-2 operator
        # solves gamma'' = alpha gamma
        a = coeff_vector("0", "1+x^2")
        chain = closed_form_aux(2, a, grid2000)
        assert np.all(chain.phi_fns[1].values == 1.0)
        alpha = 1.0 + grid2000.nodes**2
        assert np.max(np.abs(chain.phi_fns[0].values - alpha)) < 1e-12

    def test_order4_with_odd_coefficients_absent(self, grid2000):
        # a1 = a3 = 0 collapses the list to (a4 C, C^-2, C, 1)
        a = coeff_vector("0", "cos(x)/2", "0", "x/3")
        chain = closed_form_aux(4, a, grid2000)
        ctx = LowerContext(grid2000)
        c = lower(TrigNode((parse("cos(x)/2"), ONE), 2), ctx)
        keep = grid2000.mask(chain.validity)
        a4 = lower(parse("x/3"), ctx)
        assert np.max(np.abs(chain.phi_fns[3].values - 1.0)[keep]) <= 1e-9
        assert np.max(np.abs(chain.phi_fns[2].values - c.values)[keep]) <= 1e-9
        assert np.max(np.abs(chain.phi_fns[1].values - c.values**-2)[keep]) <= 1e-7
        assert np.max(np.abs(chain.phi_fns[0].values - a4.values * c.values)[keep]) <= 1e-9


def pole_pair_problem(order, pole):
    """a1 = 1/((x-pole)(x+pole)), the other coefficients 0, unit data."""
    rhs = (f"1/((x-{pole})*(x+{pole}))",) + ("0",) * (order - 1)
    return IVProblem(order, rhs, (1,) + (0,) * (order - 1))


class TestValidity:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_collapse_detected(self, order):
        # poles at +-0.025 on a grid of spacing 0.01 cut the zero-free run to
        # [-0.02, 0.02]; less the one-cell margin, two cells would remain
        with pytest.raises(ValidityCollapsed):
            solve_ivp(pole_pair_problem(order, 0.025), Grid(-1, 1, 200))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exactly_four_cells_survive(self, order):
        g = Grid(-1, 1, 200)
        _, bs = solve_ivp(pole_pair_problem(order, 0.035), g)
        assert np.count_nonzero(g.mask(bs.validity)) == 5
        assert bs.validity.lo == pytest.approx(-0.02, abs=1e-12)
        assert bs.validity.hi == pytest.approx(0.02, abs=1e-12)

    @pytest.mark.parametrize("pole", ["0.001", "-0.001"], ids=["right", "left"])
    def test_margin_never_moves_an_edge_past_zero(self, pole):
        # a pole one cell from the anchor ends the zero-free run at 0, and the
        # margin would move that edge to the other side of 0
        with pytest.raises(ValidityCollapsed, match="no longer contains 0"):
            solve_ivp(IVProblem(2, (f"1/(x-({pole}))", "1"), (1, 0)), Grid(-1, 1, 2000))

    @pytest.mark.parametrize("pole, side", [("0.0015", "hi"), ("-0.0015", "lo")], ids=["right", "left"])
    def test_edge_the_margin_brings_to_zero_is_zero(self, pole, side):
        g = Grid(-1, 1, 2000)
        y, bs = solve_ivp(IVProblem(2, (f"1/(x-({pole}))", "1"), (1, 0)), g)
        assert getattr(bs.validity, side) == 0.0
        assert bs.validity.lo in g.nodes and bs.validity.hi in g.nodes
        assert y.at_zero() == 1

    def test_collapse_detected_on_coarse_grid(self):
        # strong negative stiffness pushes the first zero of the order-2
        # solution inside four cells of a coarse grid
        g = Grid(-1, 1, 16)
        with pytest.raises(ValidityCollapsed):
            lowered_chain(coeff_vector("0", "-42", "1"), g)

    def test_singular_auxiliary_shrinks_validity(self):
        g = Grid(-1, 1, 2000)
        # a2 = -9: the order-2 auxiliary function is cos 3x, vanishing at pi/6
        chain = lowered_chain(coeff_vector("0", "-9", "x"), g)
        assert abs(chain.validity.hi - np.pi / 6) < 0.01
        assert abs(chain.validity.lo + np.pi / 6) < 0.01


# an order-5 equation whose constants no other test uses, so that none of its
# nodes is alive, or simplified, before a test here builds it
FRESH5 = ("0.0173*x", "-1.0371+0.2113*sin(x)", "0.3119*x", "0.5107*cos(x)", "0.2029")
# and one that shares no coefficient with FRESH5, so that a FRESH5 chain still
# alive (say, in a failed test's traceback) shares no stage with its build
ONCE5 = ("0.0179*x", "-1.0377+0.2117*sin(x)", "0.3121*x", "0.5111*cos(x)", "0.2031")


class TestInterning:
    def test_two_builds_share_every_node(self):
        first = build_aux_chain(coeff_vector(*FRESH5))
        second = build_aux_chain(coeff_vector(*FRESH5))
        assert second is not first
        assert all(p is q for p, q in zip(first.phi, second.phi, strict=True))
        # equality is identity: comparing two chains runs no Python code
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event) if event == "call" else None)
        try:
            same = first.phi[4] == second.phi[4]
            other = first.phi[4] == first.phi[3]
        finally:
            sys.setprofile(None)
        assert same and not other and events == []

    def test_a_dropped_solve_leaves_no_node_behind(self):
        table = ce._NODES
        gc.disable()  # so that only reference counts free the nodes
        try:
            aux._template((None,) * 5)  # the template's nodes stay in its cache
            before = set(table.keys())
            y, bs = solve_ivp(IVProblem(5, FRESH5, (1, 0, 0, 0, 0)), Grid(-1, 1, 200))
            assert bs.chain.coefs[4] in table.values()
            made = set(table.keys()) - before
            del y, bs
            # the memo holds the chain, and with it every node the solve made
            assert made and made <= set(table.keys())
            solver._LOWERED.clear()
            assert set(table.keys()) <= before
        finally:
            gc.enable()

    def test_an_order5_build_simplifies_each_node_once(self, monkeypatch):
        aux._template.cache_clear()  # so that the build makes its template
        for node in list(ce._NODES.values()):  # forget every memo, so the count is the build's own
            if hasattr(node, "_simple"):
                object.__delattr__(node, "_simple")
        bodies = []
        inner = ce._simplify
        monkeypatch.setattr(ce, "_simplify", lambda e, ops: bodies.append(e) or inner(e, ops))
        build_aux_chain(coeff_vector(*ONCE5))
        assert len({id(e) for e in bodies}) == len(bodies) == 321


# order-5 and order-3 equations whose constants no other test uses
MEMO5 = ("0.0181*x", "-1.0383+0.2123*sin(x)", "0.3131*x", "0.5119*cos(x)", "0.2039")
MEMO3 = ("0.0187*x", "-1.0141", "0.173")


class TestChainMemo:
    def test_a_repeat_solve_does_no_symbolic_work(self, monkeypatch):
        ic = (0.2, 1, -0.3, 0, 0.5)
        g = Grid(-1, 1, 200)
        _, first = solve_ivp(IVProblem(5, MEMO5, (1, 0, 0, 0, 0)), g)
        calls = []
        for module, name in ((solver, "build_aux_chain"), (aux, "extract_aux_ode"), (aux, "apply_scriptD"),
                             (ce, "_simplify")):
            inner = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, f=inner, n=name: calls.append(n) or f(*args))
        _, second = solve_ivp(IVProblem(5, MEMO5, ic), g)
        assert calls == [] and second.chain is first.chain
        monkeypatch.undo()
        rows = [m.values for m in second.psi]
        del first, second
        solver._LOWERED.clear()  # so that the reference solve builds and lowers
        _, fresh = solve_ivp(IVProblem(5, MEMO5, ic), g)
        assert all(np.array_equal(r, m.values) for r, m in zip(rows, fresh.psi, strict=True))

    def test_a_build_that_raises_keeps_nothing(self, grid200, monkeypatch):
        calls = []

        def failing(a, prefix="phi"):
            calls.append(a)
            raise DegenerateLeading("injected")

        monkeypatch.setattr(aux, "_build_chain", failing)
        aux._template.cache_clear()  # so that the solves build their template
        for _ in range(2):
            with pytest.raises(DegenerateLeading):
                basis(coeff_vector(*MEMO3), grid200)
        assert len(calls) == 2 and not solver._LOWERED


# order-9 coefficients, all nonzero; the test's second equation changes every constant
ORDER9 = ("0.1*x", "-1+0.2*sin(x)", "0.3*x", "0.5*cos(x)", "0.2", "0.1*x^2", "-0.3", "0.05*cos(2*x)", "0.1")


class TestTemplates:
    def test_two_order9_solves_build_one_chain(self, grid200, monkeypatch):
        aux._template.cache_clear()  # so that the first solve builds its template
        runs, inner = [], aux._build_chain
        # a nested chain is built with a prefix of its own
        monkeypatch.setattr(aux, "_build_chain", lambda a, prefix="": runs.append(prefix) or inner(a, prefix))
        second = tuple(c.replace("0.", "0.9") for c in ORDER9)
        ys = [solve_ivp(IVProblem(9, rhs, (1,) + (0,) * 8), grid200)[0].values for rhs in (ORDER9, second)]
        assert runs.count("") == 1 and not np.array_equal(*ys)

    def test_one_template_per_pattern_of_zeros_and_ones(self):
        first = build_aux_chain(coeff_vector("x", "2", "-1", "3", "4"))
        second = build_aux_chain(coeff_vector("sin(x)", "-1", "0.5*x", "2", "1/(x+3)"))
        assert second.phi is first.phi and second.coefs != first.coefs
        # a coefficient that simplifies to 0 or 1 is a constant of the template
        for fixed in ("0", "1"):
            chain = build_aux_chain(coeff_vector("x", fixed, "2", "3", "4"))
            assert chain.phi is not first.phi
            same = build_aux_chain(coeff_vector("sin(x)", f"x - x + {fixed}", "0.5*x", "2", "3"))
            assert same.phi is chain.phi

    def test_the_template_cache_is_bounded(self):
        limit = aux._template.cache_info().maxsize
        patterns = [p for n in (2, 3) for p in itertools.product((None, ZERO, ONE), repeat=n)]
        assert len(patterns) > limit
        for pattern in patterns:
            aux._template(pattern)
            assert aux._template.cache_info().currsize <= limit
