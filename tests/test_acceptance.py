"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with  pytest tests/test_acceptance.py -v -s  to see the
per-criterion report."""

import time

import numpy as np
import pytest

from multexode import (
    Grid,
    IVProblem,
    basis,
    companion,
    dyson,
    preset_orr_sommerfeld,
    preset_schrodinger,
    rk4,
    solve_ivp,
    trig_family,
    truncation_bound,
)
from multexode.auxiliary import CoeffVector, build_aux_chain, lower_chain
from multexode.cli import run
from multexode.coeffexpr import Const, FuncCall, IntPow, Var, add, mul, simplify
from multexode.lower import LowerContext, lower

from conftest import smooth_gridfn
from crosschecks import (
    closed_form_aux,
    const_fn,
    exp_primitive,
    from_callable,
    initial_condition_matrix,
    matrix_from_gridfns,
    trig_equiv_check,
)
from test_solver import phi_series_solution


def report(number, passed, detail):
    line = f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def smooth_coeff_expr(rng, grid, bound=2.0, complex_part=False):
    """Random polynomial-plus-harmonic coefficient expression with sup norm
    at most `bound` on the grid."""
    c = rng.uniform(-1.0, 1.0, size=5)
    w = int(rng.integers(1, 4))
    x = Var()
    e = add(
        add(add(Const(c[0]), mul(Const(c[1]), x)), mul(Const(c[2]), IntPow(x, 2))),
        add(
            mul(Const(c[3]), FuncCall("sin", mul(Const(w), x))),
            mul(Const(c[4]), FuncCall("cos", mul(Const(w), x))),
        ),
    )
    if complex_part:
        e = add(e, mul(Const(0.25j * rng.uniform(-1, 1)), FuncCall("sin", x)))
    sup = np.max(np.abs(lower(e, LowerContext(grid)).values))
    scale = bound * rng.uniform(0.4, 1.0) / max(sup, 1e-9)
    return simplify(mul(Const(scale), e))


class TestAcceptance:
    def test_01_exponential_reduction(self):
        g = Grid(-1, 1, 2000)
        f = from_callable(g, np.sin)
        from multexode import multex_e

        e, diag = multex_e([f, f, f], tol=1e-12)
        err_prim = np.max(np.abs(e.values - exp_primitive(f, 1).values))
        err_analytic = np.max(np.abs(e.values - np.exp(1.0 - np.cos(g.nodes))))
        err = max(err_prim, err_analytic)
        report(1, err <= 1e-9, f"equal-input series matches exp of primitive, max err {err:.2e} <= 1e-9")

    def test_02_trig_reduction(self):
        g = Grid(-1, 1, 2000)
        one = const_fn(g, 1.0)
        fam, _ = trig_family([one, one], tol=1e-12)
        err_h = max(
            np.max(np.abs(fam[1].values - np.cosh(g.nodes))),
            np.max(np.abs(fam[0].values - np.sinh(g.nodes))),
        )
        bs = preset_schrodinger("1", 2.0, g)
        err_c = np.max(np.abs(bs.psi[0].values - np.cos(2 * g.nodes)))
        err_s = np.max(np.abs(bs.psi[1].values - np.sin(2 * g.nodes) / 2))
        ok = err_h <= 1e-9 and err_c <= 1e-8 and err_s <= 1e-8
        report(
            2,
            ok,
            f"unit pair gives cosh/sinh (err {err_h:.2e} <= 1e-9); constant-impedance "
            f"preset gives cos 2x / sin(2x)/2 (errs {err_c:.2e}, {err_s:.2e} <= 1e-8)",
        )

    def test_03_derivative_identity(self):
        rng = np.random.default_rng(3)
        g = Grid(-1, 1, 2000)
        fs = [smooth_gridfn(g, rng, scale=1.5) for _ in range(3)]
        fam, _ = trig_family(fs, tol=1e-12)
        h = 1e-4
        xs = g.nodes[(g.nodes > g.lo + 0.01) & (g.nodes < g.hi - 0.01)]
        worst = 0.0
        for j in range(1, 4):
            t = fam[j - 1]
            prev = fam[j - 2] if j >= 2 else fam[2]
            fd = (t(xs + h) - t(xs - h)) / (2 * h)
            rhs = fs[j - 1](xs) * prev(xs)
            worst = max(worst, float(np.max(np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs)))))
        report(3, worst <= 1e-5, f"index-shift derivative identity, worst relative err {worst:.2e} <= 1e-5")

    def test_04_kronecker_initial_values(self):
        rng = np.random.default_rng(4)
        g = Grid(-1, 1, 2000)
        worst = 0.0
        for n in (2, 3, 4):
            rhs = tuple(smooth_coeff_expr(rng, g) for _ in range(n))
            bs = basis(CoeffVector.from_rhs(rhs), g)
            m = initial_condition_matrix(bs)
            worst = max(worst, float(np.max(np.abs(m - np.eye(n)))))
        report(4, worst <= 1e-6, f"derivative matrix at 0 is the identity, worst entry err {worst:.2e} <= 1e-6")

    def test_05_introductory_example(self):
        g = Grid(-1, 1, 2000)
        y, bs = solve_ivp(IVProblem(3, ("0", "1+x^2/4", "x"), (1, 0, 0)), g, tol=1e-12)
        oracle, gamma = phi_series_solution(lambda x: 1 + x**2 / 4, lambda x: x, g.nodes)
        h = g.h
        d2 = (-gamma[:-4] + 16 * gamma[1:-3] - 30 * gamma[2:-2] + 16 * gamma[3:-1] - gamma[4:]) / (12 * h * h)
        res_gamma = float(np.max(np.abs(d2 - (1 + g.nodes[2:-2] ** 2 / 4) * gamma[2:-2])))
        keep = g.mask(bs.validity)
        err = float(np.max(np.abs(y.values[keep] - oracle[keep])))
        ok = res_gamma <= 1e-6 and err <= 1e-7
        report(
            5,
            ok,
            f"order-2 unit solution residual {res_gamma:.2e} <= 1e-6; third-order series "
            f"solution matches the nested-integral oracle, err {err:.2e} <= 1e-7",
        )

    def test_06_solver_vs_oracles_randomized(self):
        rng = np.random.default_rng(6)
        g = Grid(-0.75, 0.75, 3000)
        start = time.monotonic()
        worst = 0.0
        cases = 0
        for n in (2, 3, 4):
            for trial in range(20):
                rhs = tuple(
                    smooth_coeff_expr(rng, g, complex_part=(trial % 3 == 0)) for _ in range(n)
                )
                ic = tuple(rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5) for _ in range(n))
                y, bs = solve_ivp(IVProblem(n, rhs, ic), g, tol=1e-12)
                m = companion(bs.a, g)
                series = dyson(m, tol=1e-12, y0=ic).M[0]
                stepped = rk4(m, g.n)
                vals = np.zeros(g.n + 1, dtype=complex)
                for k, c in enumerate(ic):
                    vals += complex(c) * stepped[0, k]
                keep = g.mask(bs.validity)
                err = max(
                    float(np.max(np.abs(y.values[keep] - series[keep]))),
                    float(np.max(np.abs(y.values[keep] - vals[keep]))),
                )
                worst = max(worst, err)
                cases += 1
        elapsed = time.monotonic() - start
        ok = worst <= 1e-6 and elapsed <= 180.0
        report(
            6,
            ok,
            f"{cases} randomized problems at orders 2..4 agree with both oracles, worst "
            f"err {worst:.2e} <= 1e-6, runtime {elapsed:.1f}s <= 180s",
        )

    def test_07_chain_vs_closed_forms_randomized(self):
        rng = np.random.default_rng(6)  # same draws as criterion 6
        g = Grid(-0.75, 0.75, 3000)
        worst = 0.0
        for n in (2, 3, 4):
            for trial in range(20):
                rhs = tuple(
                    smooth_coeff_expr(rng, g, complex_part=(trial % 3 == 0)) for _ in range(n)
                )
                _ = tuple(rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5) for _ in range(n))
                a = CoeffVector.from_rhs(rhs)
                rows, _, validity = lower_chain(build_aux_chain(a), LowerContext(g, series_tol=1e-12))
                closed = closed_form_aux(n, a, g, tol=1e-12)
                keep = g.mask(validity) & g.mask(closed.validity)
                for got, ref in zip(rows, closed.phi_fns):
                    worst = max(worst, float(np.max(np.abs(got.values[keep] - ref.values[keep]))))
        report(7, worst <= 1e-7, f"general recursion matches closed forms at orders 2..4, worst err {worst:.2e} <= 1e-7")

    def test_08_fourth_order_preset(self):
        g = Grid(-1, 1, 2000)
        # constant coefficients against the characteristic-root solution
        bs = preset_orr_sommerfeld("1", "-1", g)
        roots = np.roots([1.0, 0.0, -1.0, 0.0, 1.0])
        vand = np.vander(roots, 4, increasing=True).T
        err_const = 0.0
        for k in range(1, 5):
            e = np.zeros(4)
            e[k - 1] = 1.0
            cs = np.linalg.solve(vand, e)
            ref = sum(c * np.exp(r * g.nodes) for c, r in zip(cs, roots))
            err_const = max(err_const, float(np.max(np.abs(bs.psi[k - 1].values - ref))))
        # generic smooth coefficients against the series oracle
        g2 = Grid(-0.75, 0.75, 1500)
        bs2 = preset_orr_sommerfeld("cos(x)/2", "x/2", g2)
        oracle = dyson(companion(bs2.a, g2), tol=1e-12)
        keep = g2.mask(bs2.validity)
        err_gen = max(
            float(np.max(np.abs(bs2.psi[k - 1].values[keep] - oracle.M[0, k - 1][keep])))
            for k in range(1, 5)
        )
        # vanishing coefficients give the exact polynomial flow
        bs3 = preset_orr_sommerfeld("0", "0", g)
        x = g.nodes
        err_poly = max(
            float(np.max(np.abs(bs3.psi[0].values - 1.0))),
            float(np.max(np.abs(bs3.psi[1].values - x))),
            float(np.max(np.abs(bs3.psi[2].values - x**2 / 2))),
            float(np.max(np.abs(bs3.psi[3].values - x**3 / 6))),
        )
        ok = err_const <= 1e-7 and err_gen <= 1e-6 and err_poly <= 1e-12
        report(
            8,
            ok,
            f"fourth-order preset: constant case err {err_const:.2e} <= 1e-7, generic vs "
            f"oracle {err_gen:.2e} <= 1e-6, polynomial degeneration {err_poly:.2e}",
        )

    def test_09_series_oracle_bound(self):
        rng = np.random.default_rng(9)
        g = Grid(-1, 1, 1000)
        rows = [[smooth_gridfn(g, rng, scale=1.5) for _ in range(3)] for _ in range(3)]
        m = matrix_from_gridfns(rows)
        coarse = dyson(m, tol=1e-8)
        fine = dyson(m, tol=1e-14)
        per_term_ok = all(
            measured <= bound * (1 + 1e-9) + 1e-15
            for measured, bound in zip(fine.term_norms, fine.term_bounds)
        )
        remainder = float(np.max(np.abs(fine.M - coarse.M)))
        tail = truncation_bound(coarse.g_integral, 3, coarse.terms_used)
        e_minus_one = abs(truncation_bound(1.0, 1, 0) - (np.e - 1.0))
        ok = per_term_ok and remainder <= tail and e_minus_one <= 1e-12
        report(
            9,
            ok,
            f"every series term obeys the factorial bound; measured tail {remainder:.2e} "
            f"<= bound {tail:.2e}; scalar tail reproduces e-1 to {e_minus_one:.1e}",
        )

    def test_10_trig_definition_equivalence(self):
        rng = np.random.default_rng(10)
        g = Grid(-1, 1, 1000)
        worst = 0.0
        for n in (2, 3, 4, 5):
            fs = tuple(smooth_gridfn(g, rng, scale=1.2) for _ in range(n))
            worst = max(worst, trig_equiv_check(fs, tol=1e-12))
        report(10, worst <= 1e-9, f"class-sum and half-sum trig definitions agree, worst {worst:.2e} <= 1e-9")

    def test_11_cli_determinism(self, tmp_path):
        corpus = {
            "compare.cfg": (
                "mode = compare\nn = 3\na1 = 0\na2 = 1+x^2\na3 = x\nic = 1, 0, 0\n"
                "grid = 1000\ninterval = -0.75:0.75\n"
            ),
            "preset.cfg": "preset = schrodinger\nzeta = 2 + sin(x)\nomega = 1\ngrid = 1000\n",
        }
        identical = True
        for name, text in corpus.items():
            cfg = tmp_path / name
            cfg.write_text(text)
            cmd = "compare" if "compare" in name else "preset"
            out1 = tmp_path / (name + ".run1")
            out2 = tmp_path / (name + ".run2")
            assert run([cmd, "--config", str(cfg), "--output", str(out1)]) == 0
            assert run([cmd, "--config", str(cfg), "--output", str(out2)]) == 0
            for f1 in sorted(out1.iterdir()):
                f2 = out2 / f1.name
                if f1.read_bytes() != f2.read_bytes():
                    identical = False
        report(11, identical, "repeated runs on the acceptance corpus produce byte-identical outputs")
