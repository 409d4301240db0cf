"""Simplicial integrals, the multex series, and trig operators.

The building block is the nested simplex integral S^j whose integrand cycles
through the inputs f1..fn.  It obeys the first-order recurrence
S^0 = 1, S^m = P(f_nu(m) * S^(m-1)) with P the anchored primitive, and that
single signed recurrence produces both the x >= 0 and x <= 0 branches,
including the alternating sign on the left.  The multex series E sums all
dimensions; the trig operator at index j sums the dimensions congruent to j
mod n (dimension 0 belongs to class n, so the operator family at x = 0 is a
Kronecker delta in j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .gridfn import GridFn, primitive

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 200


def nu(m: int, n: int) -> int:
    """Index map sending m >= 1 to its representative in 1..n modulo n."""
    return (m - 1) % n + 1


@dataclass(frozen=True)
class SeriesDiagnostics:
    terms_used: int
    last_term_norm: float
    apriori_bound: float
    converged: bool

    def as_dict(self):
        return {
            "terms_used": self.terms_used,
            "last_term_norm": self.last_term_norm,
            "apriori_bound": self.apriori_bound,
            "converged": self.converged,
        }


class SignTable:
    """Sign pattern eps[j, k] used by the half-sum form of the trig operators.

    eps is -1 exactly when k is congruent to j or j+1 modulo n.
    """

    def __init__(self, n: int):
        self.n = n
        eps = np.ones((n, n), dtype=int)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if k % n == j % n or k % n == (j + 1) % n:
                    eps[j - 1, k - 1] = -1
        eps.setflags(write=False)
        self.eps = eps

    def row(self, j: int) -> np.ndarray:
        return self.eps[j - 1]


def _check_shared_grid(fs):
    if not fs:
        raise ValueError("need at least one input function")
    g = fs[0].grid
    for f in fs[1:]:
        if f.grid != g:
            raise ValueError("all inputs must share one grid")
    return g


def simplicial(fs, j: int) -> GridFn:
    """The dimension-j simplex integral of the cycling inputs, on both branches."""
    if j < 0:
        raise ValueError("dimension must be >= 0")
    grid = _check_shared_grid(fs)
    n = len(fs)
    s = GridFn.const(grid, 1.0)
    for m in range(1, j + 1):
        s = primitive(fs[nu(m, n) - 1] * s)
    return s


def truncation_bound(g_integral: float, n: int, terms: int) -> float:
    """Tail of the factorial domination: sum over j > terms of
    (1/n) (n g)^j / j!, summed stably with a relative cutoff; inf as soon as
    a term overflows."""
    if g_integral < 0:
        raise ValueError("the integral bound must be nonnegative")
    if g_integral == 0.0:
        return 0.0
    ng = n * g_integral
    term = 1.0 / n
    for j in range(1, terms + 1):
        term *= ng / j
    total = 0.0
    j = terms
    while True:
        j += 1
        term *= ng / j
        if not math.isfinite(term):
            return math.inf
        total += term
        if term < 1e-18 * max(total, 1e-300) or j > terms + 100_000:
            return total


def _g_integral(fs) -> float:
    grid = fs[0].grid
    g = np.max(np.stack([np.abs(f.values) for f in fs]), axis=0)
    p = primitive(GridFn(grid, g))
    return float(np.max(np.abs(p.values)))


def multex_e(fs, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """Partial sum of the multex series with its convergence diagnostics.

    Terms are added until the sup norm of the newest simplicial term falls to
    tol.  If the budget runs out with the last term still more than 1e3 * tol,
    the series is considered divergent at this resolution and NotConverged is
    raised carrying the diagnostics.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = _check_shared_grid(fs)
    n = len(fs)
    s = GridFn.const(grid, 1.0)
    total = GridFn.const(grid, 1.0)
    terms = 0
    last = 0.0
    converged = False
    while terms < max_terms:
        terms += 1
        s = primitive(fs[nu(terms, n) - 1] * s)
        total = total + s
        last = s.sup_norm()
        if last <= tol:
            converged = True
            break
    diag = SeriesDiagnostics(terms, last, truncation_bound(_g_integral(fs), 1, terms), converged)
    if not converged and last > 1e3 * tol:
        raise NotConverged(
            f"multex series still at {last:.3e} after {terms} terms (tol {tol:.1e})", diag
        )
    return total, diag


def trig_family(fs, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """All n trig operators of one input list, sharing one recurrence pass.

    Terms are taken one full index cycle at a time so every congruence class
    receives its next contribution before the stopping test, which compares
    the largest term of the last cycle against tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = _check_shared_grid(fs)
    n = len(fs)
    sums = [np.zeros(grid.n + 1, dtype=complex) for _ in range(n)]
    sums[n - 1] += 1.0  # dimension 0 belongs to class n
    s = GridFn.const(grid, 1.0)
    m = 0
    last_cycle = np.inf
    converged = False
    while m < max_terms:
        cycle_max = 0.0
        for _ in range(n):
            m += 1
            s = primitive(fs[nu(m, n) - 1] * s)
            sums[nu(m, n) - 1] += s.values
            cycle_max = max(cycle_max, s.sup_norm())
        last_cycle = cycle_max
        if cycle_max <= tol:
            converged = True
            break
    diag = SeriesDiagnostics(m, last_cycle, truncation_bound(_g_integral(fs), 1, m), converged)
    if not converged and last_cycle > 1e3 * tol:
        raise NotConverged(
            f"trig series still at {last_cycle:.3e} after {m} terms (tol {tol:.1e})", diag
        )
    return [GridFn(grid, v) for v in sums], diag


def trig_equiv_check(fs, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS) -> float:
    """Max node discrepancy between the two equivalent trig definitions.

    Route one sums the simplicial terms by congruence class; route two takes
    half-sums of two multex series with a sign-flipped input list.  The
    discrepancy is a runtime self-test of the sign table.
    """
    n = len(fs)
    family, _ = trig_family(fs, tol, max_terms)
    e_plain, _ = multex_e(fs, tol, max_terms)
    table = SignTable(n)
    worst = 0.0
    for j in range(1, n + 1):
        row = table.row(j)
        flipped = [f * int(rk) for f, rk in zip(fs, row)]
        e_flip, _ = multex_e(flipped, tol, max_terms)
        if j == n:
            alt = (e_plain + e_flip) * 0.5
        else:
            alt = (e_plain - e_flip) * 0.5
        worst = max(worst, (family[j - 1] - alt).sup_norm())
    return worst
