"""The references the tests compare the package against: alternative
definitions and hard-coded forms that no solver path uses."""

import math
from types import SimpleNamespace

import numpy as np
import scipy.integrate

from multexode import (
    AuxDeriv,
    AuxFn,
    Const,
    ExpPrim,
    GridFn,
    LowerContext,
    MatrixFn,
    NotConverged,
    Sampled,
    TrigNode,
    lower,
    multex_e,
    trig_family,
)
from multexode import coeffexpr as ce
from multexode.gridfn import check_finite, linear_combination, primitive_values
from multexode.multex import DEFAULT_TOL, MAX_TERMS, SeriesDiagnostics


def const_fn(grid, c) -> GridFn:
    """The constant c on the grid, as complex samples."""
    return GridFn(grid, np.full(grid.n + 1, complex(c)))


def var_fn(grid) -> GridFn:
    """The variable x on the grid, as complex samples."""
    return GridFn(grid, grid.nodes.astype(complex))


def from_callable(grid, fn) -> GridFn:
    """fn sampled at the grid's nodes, as complex samples."""
    return GridFn(grid, np.asarray(fn(grid.nodes), dtype=complex))


def primitive(f: GridFn) -> GridFn:
    """Anchored primitive: the integral of f from 0 to every node."""
    return GridFn(f.grid, primitive_values(f.values, f.grid))


def exp_primitive(f: GridFn, sign: int) -> GridFn:
    """exp(sign * primitive(f)) at every node, lowered as an ExpPrim of f;
    Overflow at the first node where it is not finite."""
    return lower(ExpPrim(Sampled(f.grid.nodes, f.values), sign), LowerContext(f.grid))


def simplicial(fs, j: int) -> GridFn:
    """The dimension-j simplex integral of the cycling inputs on both
    branches: S^0 = 1, S^m = P(f_nu(m) S^(m-1))."""
    grid = fs[0].grid
    s = np.ones(grid.n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(j):
            s = primitive_values(fs[m % len(fs)].values * s, grid)
    check_finite(s, grid)
    return GridFn(grid, s)


def series_by_row_norms(fs, tol, classes, stack=1):
    """The class sums and diagnostics of multex._series with its stopping
    test taken the plain way: the exact modulus of every row of every term,
    Overflow at the first non-finite node of the first bad row.  Raises what
    the series raises, with the same message."""
    grid = fs[0].grid
    rows = [f.values for f in fs]
    sums = [np.zeros(grid.n + 1, dtype=np.result_type(*rows)) for _ in range(classes)]
    sums[-1] += 1.0
    s = np.ones((stack, grid.n + 1), dtype=sums[0].dtype)
    m, last, converged = 0, math.inf, False
    with np.errstate(over="ignore", invalid="ignore"):
        while m < MAX_TERMS and not converged:
            last = 0.0
            for c in range(classes):
                m += 1
                s = primitive_values(np.stack([rows[(i + m - 1) % len(rows)] * t for i, t in enumerate(s)]), grid)
                for term in s:
                    mags = np.abs(term)
                    if not math.isfinite(mags.max()):
                        check_finite(mags, grid)
                    last = max(last, float(mags.max()))
                sums[c] += s[-m % stack]
            converged = last <= tol
    for v in sums:
        check_finite(v, grid)
    diag = SeriesDiagnostics(m, last, converged)
    if not converged and last > 1e3 * tol:
        name = "multex" if classes == 1 else "trig"
        raise NotConverged(f"{name} series still at {last:.3e} after {m} terms (tol {tol:.1e})", diag)
    return sums, diag


def sign_table(n: int) -> np.ndarray:
    """eps[j-1, k-1] of the half-sum trig form: -1 exactly when k is
    congruent to j or j+1 modulo n, else 1."""
    j, k = np.ogrid[1 : n + 1, 1 : n + 1]
    return np.where((k % n == j % n) | (k % n == (j + 1) % n), -1, 1)


def trig_equiv_check(fs, tol=DEFAULT_TOL) -> float:
    """Max node discrepancy between the class-sum trig operators and the
    half-sums of the multex series of the inputs and of their sign-flipped
    list.  It needs two inputs or more: with one, every sign flips and the
    half-sum is the even part of the multex series, not T_1 = E."""
    n = len(fs)
    if n < 2:
        raise ValueError("the sign-flip check needs at least two input functions")
    family, _ = trig_family(fs, tol)
    plain = multex_e(fs, tol)[0].values
    worst = 0.0
    for j, signs in enumerate(sign_table(n), start=1):
        flipped = [GridFn(f.grid, f.values * complex(r)) for f, r in zip(fs, signs)]
        e_flip = multex_e(flipped, tol)[0].values
        half = plain + e_flip if j == n else plain - e_flip
        worst = max(worst, float(np.max(np.abs(family[j - 1].values - 0.5 * half))))
    return worst


def closed_form_aux(n: int, a, grid, tol=DEFAULT_TOL) -> SimpleNamespace:
    """Hard-coded auxiliary chains of orders 2, 3 and 4: their realizations
    phi_fns and the validity interval they leave, an oracle for the general
    recursion."""
    ctx = LowerContext(grid, series_tol=tol)
    up = ce.expprim(a.a(1), 1)
    down = ce.expprim(a.a(1), -1)
    if n == 2:
        phi = (ce.simplify(ce.mul(a.a(2), down)), ce.simplify(up))
    else:
        c = TrigNode((ce.mul(a.a(2), down), up), 2)
        phi = (ce.simplify(ce.mul(ce.mul(a.a(3), down), c)), ce.simplify(ce.mul(up, ce.intpow(c, -2))), c)
    if n == 4:
        # the order-3 chain of (a1, a2, a3) is the inner list of psi4
        psi4 = AuxFn("cf_psi4", 3, (a.a(1), a.a(2), a.a(3)), TrigNode(phi, 3))
        bracket = ce.add(
            ce.mul(a.a(2), psi4),
            ce.sub(ce.mul(ce.mul(Const(2), a.a(1)), AuxDeriv(psi4, 1)), ce.mul(Const(3), AuxDeriv(psi4, 2))),
        )
        psi3 = TrigNode(
            (ce.mul(ce.mul(down, ce.intpow(psi4, 2)), bracket), ce.mul(up, ce.intpow(psi4, -3))), 2
        )
        psi2 = ce.mul(ce.mul(up, ce.intpow(psi3, -2)), ce.intpow(psi4, -3))
        psi1 = ce.mul(ce.mul(ce.mul(a.a(4), down), psi3), ce.intpow(psi4, 2))
        phi = (ce.simplify(psi1), ce.simplify(psi2), psi3, psi4)
    ctx.plan(phi)  # together, so the rows the phi share are computed once
    phi_fns = tuple(lower(p, ctx) for p in phi)
    return SimpleNamespace(phi_fns=phi_fns, validity=ctx.final_validity())


def realization_residual(fn_expr: AuxFn, ctx: LowerContext) -> GridFn:
    """Residual of an auxiliary function's realization in its own equation,
    computed by differentiating the realization (not the capped wrapper)."""
    m = fn_expr.order
    d = fn_expr.realization
    derivs = [d]
    for _ in range(m):
        d = ce.differentiate(d)
        derivs.append(ce.simplify(d))
    rhs = ce.ZERO
    for i, b in enumerate(fn_expr.bcoeffs, start=1):
        rhs = ce.add(rhs, ce.mul(b, derivs[m - i]))
    return lower(ce.simplify(ce.sub(derivs[m], rhs)), ctx)


def member_exprs(bs):
    """The basis members as expressions: member k is the trig operator of the
    auxiliary functions rotated k-1 steps right, at index (k-2) mod n + 1;
    order 1's one member is the exponential of the primitive of a1."""
    if bs.chain is None:
        return (ce.expprim(bs.a.a(1), 1),)
    n, phi = bs.n, bs.chain.phi
    return tuple(TrigNode(phi[n - k + 1 :] + phi[: n - k + 1], (k - 2) % n + 1) for k in range(1, n + 1))


def rotation_members(bs, tol=DEFAULT_TOL) -> SimpleNamespace:
    """The basis members lowered one rotation at a time, each by its own
    trig-family pass on one planned context, zeroed outside the validity
    interval they leave: a reference for the stacked pass of the solver."""
    grid = bs.psi[0].grid
    ctx = LowerContext(grid, series_tol=tol)
    exprs = member_exprs(bs)
    ctx.plan(exprs)
    rows = [lower(e, ctx).values.astype(complex) for e in exprs]
    validity = ctx.final_validity()
    for row in rows:
        row[~grid.mask(validity)] = 0.0
    return SimpleNamespace(rows=rows, validity=validity)


def initial_condition_matrix(bs) -> np.ndarray:
    """Matrix of j-1-st derivatives of each member at 0; identity when the
    basis is healthy.  Lowers the member expressions and their symbolic
    derivatives on a context of their own and reads the anchor node."""
    n = bs.n
    ctx = LowerContext(bs.psi[0].grid)
    out = np.zeros((n, n), dtype=complex)
    for k, d in enumerate(member_exprs(bs), start=1):
        out[0, k - 1] = lower(d, ctx).at_zero()
        for j in range(2, n + 1):
            d = ce.simplify(ce.differentiate(d))
            out[j - 1, k - 1] = lower(d, ctx).at_zero()
    return out


def ode_residual(bs, k: int) -> GridFn:
    """Residual of member k in the original equation, via symbolic
    derivatives of its expression, lowered on a context of its own."""
    n = bs.n
    derivs = [member_exprs(bs)[k - 1]]
    for _ in range(n):
        derivs.append(ce.simplify(ce.differentiate(derivs[-1])))
    res = derivs[n]
    for j in range(1, n + 1):
        res = ce.sub(res, ce.mul(bs.a.a(j), derivs[n - j]))
    return lower(ce.simplify(res), LowerContext(bs.psi[0].grid))


def first_row_solution(result, initial_values) -> GridFn:
    """The scalar solution of a fundamental-matrix Dyson result: row 0 of M
    combined with the initial data."""
    return linear_combination(result.grid, initial_values, result.M[0])


def matrix_from_gridfns(rows) -> MatrixFn:
    """MatrixFn of a square nested list of GridFns on one grid."""
    return MatrixFn(rows[0][0].grid, [[f.values for f in row] for row in rows])


# the two DOP853 answers of dop853_reference may differ by at most this much,
# relative to the larger of 1 and the answer's largest modulus
DOP853_AGREEMENT = 1e-8


def _dop853(coeff_fns, ic, xs, rtol, atol) -> np.ndarray:
    """y at xs of y^(n) = a1 y^(n-1) + ... + an y, integrated as the complex
    first-order system of (y, y', ..., y^(n-1)) outward from 0 on each side."""
    n = len(coeff_fns)

    def rhs(x, u):
        du = np.empty_like(u)
        du[:-1] = u[1:]
        du[-1] = sum(complex(a(x)) * u[n - j] for j, a in enumerate(coeff_fns, start=1))
        return du

    xs = np.asarray(xs, dtype=float)
    out = np.empty(len(xs), dtype=complex)
    for side in (xs < 0, xs >= 0):
        ts = xs[side]
        outward = np.argsort(np.abs(ts), kind="stable")
        if not len(ts) or ts[outward[-1]] == 0:
            out[side] = ic[0]
            continue
        sol = scipy.integrate.solve_ivp(rhs, (0.0, ts[outward[-1]]), np.asarray(ic, dtype=complex),
                                        method="DOP853", t_eval=ts[outward], rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"DOP853 failed: {sol.message}")
        vals = np.empty(len(ts), dtype=complex)
        vals[outward] = sol.y[0]
        out[side] = vals
    return out


def dop853_reference(coeff_fns, ic, xs) -> np.ndarray:
    """y at xs of y^(n) = a1 y^(n-1) + ... + an y with y^(k)(0) = ic[k], by
    scipy's DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential
    Equations I, 1993) at rtol 1e-13: a reference that shares no code with
    the solver.  The coefficients are numpy callables of x, never parsed or
    lowered by the package.  It checks itself: a second solve at rtol 1e-11
    must agree within DOP853_AGREEMENT, or it raises."""
    ys = _dop853(coeff_fns, ic, xs, rtol=1e-13, atol=1e-15)
    loose = _dop853(coeff_fns, ic, xs, rtol=1e-11, atol=1e-13)
    gap = float(np.max(np.abs(ys - loose), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(ys), initial=0.0)))
    if gap > DOP853_AGREEMENT * scale:
        raise RuntimeError(f"DOP853 answers at rtol 1e-13 and 1e-11 differ by {gap:.3e}")
    return ys
