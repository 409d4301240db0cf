"""The multex series and the trig operators, sums of simplex integrals.

The building block is the nested simplex integral S^j whose integrand cycles
through the inputs f1..fn.  It obeys the first-order recurrence
S^0 = 1, S^m = P(f_nu(m) * S^(m-1)) with P the anchored primitive, and that
single signed recurrence produces both the x >= 0 and x <= 0 branches,
including the alternating sign on the left.  The multex series E sums all
dimensions; the trig operator at index j sums the dimensions congruent to j
mod n (dimension 0 belongs to class n, so the operator family at x = 0 is a
Kronecker delta in j).

Both sums come from one loop over plain sample rows, which can also carry
the rotations of the inputs side by side, one multiply per particle and one
primitive per step for the whole stack; each class sum is a row of its own,
wrapped as GridFn without a copy.  A term that is not finite raises Overflow
at its first non-finite node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .gridfn import GridFn, check_finite, primitive_values

DEFAULT_TOL = 1e-12
MAX_TERMS = 200  # a safety stop only: tol ends a series, whose terms fall factorially past their hump


@dataclass(frozen=True)
class SeriesDiagnostics:
    terms_used: int
    last_term_norm: float
    converged: bool


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


def _series(fs, tol, classes, stack=1, pack=True):
    """Class sums of the simplex integrals of a stack of particles.

    Particle i starts on input i mod n and takes the next input at each
    step, so its terms are the simplex integrals of the inputs rotated i
    steps to the left.  At step m the term of particle (-m) mod stack goes to
    class (m-1) mod classes, and dimension 0 to the last class.  With one
    particle this sums dimension m >= 1 of the inputs into class
    (m-1) mod classes; with stack = classes = n, class (k-2) mod n is index
    (k-2) mod n + 1 of the inputs rotated k-1 steps to the right.

    The pass runs on two buffers: each step multiplies every particle by
    its own input row and integrates the whole stack in place.  A real stack
    of two particles, or of four and more, rides two to a complex row, one in
    each part, as the primitive's scans cost as much per real number as per
    complex pair; the bound, the moduli and the sums read the parts, and a
    term that is not finite runs the pass again unpacked to name its node.
    Terms are taken one full cycle of classes at a time, so every class
    receives its next contribution before the stopping test, which compares
    the largest term of the last cycle, over the whole stack, against tol.
    Each term's moduli are bounded from below by max(|re|, |im|); the rows'
    exact moduli are taken only when that bound could end the series.
    The budget MAX_TERMS is checked once per cycle, so a family of n inputs
    may take up to MAX_TERMS + n - 1 terms.  If the budget runs out with that
    term still more than 1e3 * tol, the series is considered divergent at
    this resolution and NotConverged is raised carrying the diagnostics.
    Every class sum is a row of its own.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not fs:
        raise ValueError("need at least one input function")
    grid = fs[0].grid
    for f in fs[1:]:
        if f.grid != grid:
            raise ValueError("all inputs must share one grid")
    rows = [f.values for f in fs]
    n = len(rows)
    dtype = np.result_type(*rows)  # real inputs keep the sums real
    sums = [np.zeros(grid.n + 1, dtype=dtype) for _ in range(classes)]
    sums[-1] += 1.0  # dimension 0 belongs to the last class
    # three particles would leave a spare quarter, costing more than it saves
    packed = pack and dtype.kind == "f" and stack > 1 and stack != 3
    s = np.zeros(((stack + 1) // 2 if packed else stack, grid.n + 1), dtype=complex if packed else dtype)
    work = np.empty_like(s)
    parts = s.view(s.real.dtype)  # real and imaginary parts side by side
    particles = [parts[i // 2, i % 2 :: 2] for i in range(stack)] if packed else list(s)
    for p in particles:
        p.fill(1.0)
    inputs, blocks, step = rows, s, 1
    if packed:  # row j's particles 2j and 2j + 1 take inputs k and k + 1, side by side as pair k
        inputs, blocks, step = np.empty((n, 2 * grid.n + 2)), parts, 2
        inputs[:, 0::2], inputs[:, 1::2] = rows, rows[1:] + rows[:1]
    m = 0
    last = math.inf
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        while m < MAX_TERMS:
            last = 0.0
            final = m + classes >= MAX_TERMS
            for c in range(classes):
                m += 1
                o = (m - 1) % n
                for j, b in enumerate(blocks):  # in place, each particle's input as first operand
                    np.multiply(inputs[(o + step * j) % n], b, out=b)
                s = primitive_values(s, grid, work)
                # max(|re|, |im|) bounds every modulus from below and, while
                # twice it is finite, keeps them finite: above tol the cycle
                # goes on, and only a cycle that can end needs the moduli
                norm = max(float(parts.max()), -float(parts.min()))
                if norm <= tol or final or not math.isfinite(2.0 * norm):
                    norm = float(np.abs(blocks).max())  # the method skips np.max's Python wrapper
                    if not math.isfinite(norm):
                        if packed:  # the primitive spreads a part that is not finite to its partner
                            return _series(fs, tol, classes, stack, pack=False)
                        for p in particles:  # Overflow at the first bad node of the first bad particle
                            check_finite(p, grid)
                last = max(last, norm)
                sums[c] += particles[-m % stack]
            if last <= tol:
                converged = True
                break
    for v in sums:
        check_finite(v, grid)  # finite terms can still overflow a sum
    diag = SeriesDiagnostics(m, last, converged)
    if not converged and last > 1e3 * tol:
        name = "multex" if classes == 1 else "trig"
        raise NotConverged(f"{name} series still at {last:.3e} after {m} terms (tol {tol:.1e})", diag)
    return [GridFn._wrap(grid, v) for v in sums], diag


def multex_e(fs, tol: float = DEFAULT_TOL):
    """Partial sum of the multex series (all dimensions) with its diagnostics;
    stops once the newest term falls to tol."""
    (total,), diag = _series(fs, tol, 1)
    return total, diag


def trig_family(fs, tol: float = DEFAULT_TOL, stack: int = 1):
    """All n trig operators of one input list (the dimensions congruent to j
    mod n), sharing one recurrence pass.

    With ``stack = n`` the pass instead carries all n right rotations of the
    inputs at once and returns, at position (k-2) mod n, index (k-2) mod n + 1
    of the inputs rotated k-1 steps: the n basis members of an auxiliary
    chain.  The diagnostics are the whole stack's; any other ``stack`` is a
    ValueError."""
    if stack not in (1, len(fs)):
        raise ValueError(f"stack must be 1 or the number of inputs {len(fs)}, got {stack}")
    return _series(fs, tol, len(fs), stack)

