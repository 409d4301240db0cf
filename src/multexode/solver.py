"""Basis assembly and initial-value solving.

The k-th basis member of an order-n problem is the trig operator applied to
the auxiliary functions rotated k-1 steps to the right, at the index that the
rotation sends to n.  Member k then satisfies y^(j-1)(0) = delta_{jk}, so the
initial-value solution is the linear combination weighted by the initial
data.  A solve plans and lowers only the chain's auxiliary functions; the
n members then come from one stacked series pass over the lowered rows, in
which each rotation is one particle, so no member is ever built as an
expression.  Equations share chain templates, so only a template's first
solve does symbolic work; the lowered rows depend on the equation, grid and
series tolerance, never on the initial data, so one per-process memo keeps
them and a repeat solve runs only the stacked pass.
Presets hand their own chains to the same assembly: the impedance-form wave
equation (zeta u')' + omega^2 zeta u = 0 as the index-2 trig pair of
(-omega^2 zeta / zeta(0), zeta(0) / zeta), and the fourth-order
hydrodynamic-stability form y'''' = a2 y'' + a4 y.
"""

from __future__ import annotations

import cmath
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import coeffexpr as ce
from .auxiliary import AuxChain, CoeffVector, build_aux_chain, lower_chain
from .coeffexpr import Const, TrigNode, as_expr
from .gridfn import Grid, GridFn, Interval, linear_combination
from .lower import LowerContext, lower
from .multex import DEFAULT_TOL, trig_family
from .parser import parse


@dataclass(frozen=True)
class IVProblem:
    """Order, right-side coefficients and initial data of one problem."""

    n: int
    coefficients: tuple
    initial_values: tuple

    def __post_init__(self):
        coeffs = tuple(parse(c) if isinstance(c, str) else as_expr(c) for c in self.coefficients)
        ivs = tuple(complex(v) for v in self.initial_values)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "initial_values", ivs)
        if self.n < 1:
            raise ValueError("order must be at least 1")
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        if len(ivs) != self.n:
            raise ValueError(f"expected {self.n} initial values, got {len(ivs)}")
        if not all(cmath.isfinite(v) for v in ivs):
            raise ValueError(f"initial values must be finite, got {ivs}")


@dataclass
class BasisSet:
    """The n fundamental solutions with unit initial data at 0.

    psi holds the grid realizations, zeroed outside validity.  diagnostics
    are the members' series diagnostics, one record of the stacked pass
    shared by every member, and aux_diagnostics those of the chain's
    auxiliary functions; order 1 has no chain.  a is None for the
    impedance preset, whose hand-built chain no coefficient vector describes.
    """

    n: int
    a: CoeffVector | None
    psi: tuple
    validity: Interval
    diagnostics: tuple
    chain: AuxChain | None
    aux_diagnostics: dict | None


def _member(row: GridFn, outside: np.ndarray) -> GridFn:
    """A lowered basis member as a complex copy, zeroed where ``outside``,
    the one mask of the nodes outside validity per basis, is set."""
    vals = row.values.astype(complex)
    vals[outside] = 0.0
    return GridFn._wrap(row.grid, vals)


# _assemble's memo, least recently used first:
# (equation, grid, series_tol) -> ((chain, rows, aux_diags, validity), size)
_LOWERED: OrderedDict = OrderedDict()
_LOWERED_BUDGET = 6 << 20  # bytes of the rows the entries keep


def _assemble(eq: CoeffVector | AuxChain, grid: Grid, tol: float) -> BasisSet:
    """Build and lower the chain of ``eq`` on a fresh context and rotate it
    through the trig operators: one stacked pass over the lowered rows gives
    every member.  ``eq`` is the coefficients of a general equation, whose
    chain binds them to its template here, or a preset's hand-built chain.

    The chain and what ``lower_chain`` returns are kept per process under
    ``eq``, the grid and the series tolerance, least recently used out
    first, within ``_LOWERED_BUDGET`` bytes of rows, so a repeat solve
    builds and lowers nothing.  A larger entry and a build or lowering that
    raises are not kept; ``_LOWERED.clear()`` frees every kept entry."""
    key = (eq, grid, tol)
    if key in _LOWERED:
        _LOWERED.move_to_end(key)
        chain, rows, aux_diags, validity = _LOWERED[key][0]
    else:
        chain = eq if isinstance(eq, AuxChain) else build_aux_chain(eq)
        rows, aux_diags, validity = lower_chain(chain, LowerContext(grid, series_tol=tol))
        size = sum(r.values.nbytes for r in rows)
        if size <= _LOWERED_BUDGET:
            _LOWERED[key] = ((chain, rows, aux_diags, validity), size)
            while sum(s for _, s in _LOWERED.values()) > _LOWERED_BUDGET:
                _LOWERED.popitem(last=False)
    family, diag = trig_family(rows, tol, stack=chain.n)
    # position (k-2) mod n holds member k
    outside = ~grid.mask(validity)
    members = tuple(_member(family[(k - 2) % chain.n], outside) for k in range(1, chain.n + 1))
    # each caller gets its own dict, so editing it leaves the kept one alone
    return BasisSet(chain.n, chain.a, members, validity, (diag,) * chain.n, chain, dict(aux_diags))


def basis(a: CoeffVector, grid: Grid, tol: float = DEFAULT_TOL) -> BasisSet:
    """Fundamental solution basis for the coefficients in ``a``.

    Order 1 short-circuits to the exponential of a primitive; higher orders
    build the auxiliary chain and rotate it through the trig operators.
    """
    n = a.n
    if n == 1:
        ctx = LowerContext(grid, series_tol=tol)
        row = lower(ce.expprim(a.a(1), 1), ctx)  # a dividing coefficient shrinks ctx.validity here
        validity = ctx.final_validity()
        return BasisSet(1, a, (_member(row, ~grid.mask(validity)),), validity, (None,), None, None)
    return _assemble(a, grid, tol)


def solve_ivp(problem: IVProblem, grid: Grid, tol: float = DEFAULT_TOL):
    """Solve the initial-value problem; returns (solution, basis)."""
    a = CoeffVector.from_rhs(problem.coefficients)
    bs = basis(a, grid, tol=tol)
    y = linear_combination(grid, problem.initial_values, [m.values for m in bs.psi])
    return y, bs


def preset_schrodinger(zeta, omega, grid: Grid, tol: float = DEFAULT_TOL) -> BasisSet:
    """Impedance-form basis (C, S) for (zeta u')' + omega^2 zeta u = 0.

    Read as the system (u, zeta u' / zeta(0)), the equation is the index-2
    trig pair of (-omega^2 zeta / zeta(0), zeta(0) / zeta), built here as a
    hand-made chain with no derivative of zeta: C is its index-2 operator
    and S the index-1 operator of the swapped pair.  zeta must be real and
    positive on its validity interval; a pole of zeta shrinks the interval
    through the reciprocal.  No coefficient vector describes the equation
    without zeta', so the basis and its chain carry a = None.
    """
    if not cmath.isfinite(complex(omega)):
        raise ValueError(f"omega must be finite, got {omega!r}")
    zeta = parse(zeta) if isinstance(zeta, str) else as_expr(zeta)
    probe = LowerContext(grid)
    zrow = lower(zeta, probe).values
    zvals = zrow[probe.validity[0] : probe.validity[1] + 1]
    if np.any(zvals.real <= 0) or np.any(np.abs(zvals.imag) > 1e-12 * np.abs(zvals.real)):
        raise ValueError("impedance profile must be real and positive on its validity interval")
    z0 = complex(zrow[grid.zero_index])
    phi = (ce.mul(Const(-(complex(omega) ** 2) / z0), zeta), ce.div(Const(z0), zeta))
    return _assemble(AuxChain(2, None, phi), grid, tol)


def preset_orr_sommerfeld(a2, a4, grid: Grid, tol: float = DEFAULT_TOL) -> BasisSet:
    """Fourth-order basis for y'''' = a2 y'' + a4 y.

    With the two odd coefficients absent the auxiliary list collapses to
    (a4*C, C^-2, C, 1) where C is the index-2 trig operator of (a2, 1); the
    four members are its right-shift rotations.
    """
    a2 = parse(a2) if isinstance(a2, str) else as_expr(a2)
    a4 = parse(a4) if isinstance(a4, str) else as_expr(a4)
    c = TrigNode((a2, ce.ONE), 2)
    phi = (
        ce.simplify(ce.mul(a4, c)),
        ce.intpow(c, -2),
        c,
        ce.ONE,
    )
    a = CoeffVector((Const(-1), Const(0), a2, Const(0), a4))
    return _assemble(AuxChain(4, a, phi), grid, tol)
