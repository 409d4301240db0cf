"""Seeded inputs, operations, references and output checks for each workload.

Every workload is a list of operations generated from the seed.  An
operation calls the library (or the in-process CLI) through module
attributes looked up at call time, so tracing wrappers installed on those
modules see the call.  References come from the two oracles (`dyson` and
`rk4`) applied to a companion matrix the benchmark samples itself with numpy
from the same parameters that produced the coefficient text; they share no
parsing, lowering or symbolic code with the solver.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMPARE_TOL = 1e-6      # CLI compare_tol default and the test_06 bound
REF_SELF_TOL = 1e-8     # the two oracles must agree this well with each other
SERIES_TOL = 1e-12      # solver and oracle series tolerance (library default)
WINDOW = (-1.0, 1.0)
# sup norm of the smooth coefficients: at 2.0 some draws shrink the validity
# interval at random and the failure share of a run swings with the seed; at
# 1.5 none did in probes, so shrinking comes only from the dedicated draws
SMOOTH_BOUND = 1.5


def mod(name):
    """A multexode submodule (``multexode.lower`` is a function, not the module)."""
    return sys.modules[f"multexode.{name}"]


# ---------------------------------------------------------------------------
# coefficients: one parameter set gives both the text and the numpy samples


@dataclass(frozen=True)
class Smooth:
    """c0 + c1 x + c2 x^2 + c3 sin(w x) + c4 cos(w x) + ci i sin(x)."""

    c: tuple
    w: int
    ci: float = 0.0

    def text(self) -> str:
        c = self.c
        t = f"{c[0]!r} + {c[1]!r}*x + {c[2]!r}*x^2 + {c[3]!r}*sin({self.w}*x) + {c[4]!r}*cos({self.w}*x)"
        if self.ci:
            t += f" + {self.ci!r}*i*sin(x)"
        return t

    def values(self, x):
        c = self.c
        v = c[0] + c[1] * x + c[2] * x**2 + c[3] * np.sin(self.w * x) + c[4] * np.cos(self.w * x)
        return v + 1j * self.ci * np.sin(x)


@dataclass(frozen=True)
class Linear:
    """c0 + c1 x (constants included, as 0 or 1)."""

    c0: float
    c1: float = 0.0

    def text(self) -> str:
        return repr(self.c0) if not self.c1 else f"{self.c0!r} + {self.c1!r}*x"

    def values(self, x):
        return self.c0 + self.c1 * x + 0j * x


def smooth(rng, bound, cplx, w):
    """Random smooth coefficient of frequency w, scaled to a sup norm of
    0.9..1.0 times bound on the window.  Fixing the frequency by coefficient
    position and the norm to a narrow band keeps the cost of an equation of
    one order steady from seed to seed."""
    c = rng.uniform(-1.0, 1.0, 5)
    x = np.linspace(*WINDOW, 2001)
    f = c[0] + c[1] * x + c[2] * x**2 + c[3] * np.sin(w * x) + c[4] * np.cos(w * x)
    scale = bound * rng.uniform(0.9, 1.0) / max(float(np.max(np.abs(f))), 1e-9)
    ci = round(0.25 * float(rng.uniform(-1.0, 1.0)), 6) if cplx else 0.0
    return Smooth(tuple(round(float(v) * scale, 6) for v in c), w, ci)


def initial_data(rng, n):
    return tuple(
        complex(round(float(rng.uniform(-1, 1)), 6), round(float(rng.uniform(-0.5, 0.5)), 6))
        for _ in range(n)
    )


# ---------------------------------------------------------------------------
# problems and their references


@dataclass(frozen=True)
class Problem:
    """One equation y^(n) = a1 y^(n-1) + ... + an y as the library and the
    reference see it.  kind selects the entry point: ivp (solve_ivp),
    orr (preset_orr_sommerfeld) or schrodinger (preset_schrodinger)."""

    kind: str
    coeffs: tuple           # right-side coefficients a1..an for the reference
    texts: tuple            # what the entry point receives
    omega: float = 0.0

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def describe(self) -> str:
        if self.kind == "schrodinger":
            return f"schrodinger zeta={self.texts[0]} omega={self.omega!r}"
        return f"{self.kind} n={self.n} " + " ".join(f"{k}={t}" for k, t in zip(self._names(), self.texts))

    def _names(self):
        return ("a2", "a4") if self.kind == "orr" else tuple(f"a{j}" for j in range(1, self.n + 1))


@dataclass(frozen=True)
class Zeta:
    """Impedance 1 + p x^2 + q sin(x); the coefficient a1 = -zeta'/zeta."""

    p: float
    q: float

    def text(self) -> str:
        return f"1 + {self.p!r}*x^2 + {self.q!r}*sin(x)"

    def values(self, x):
        zeta = 1 + self.p * x**2 + self.q * np.sin(x)
        return -(2 * self.p * x + self.q * np.cos(x)) / zeta + 0j * x


def ivp_problem(coeffs):
    return Problem("ivp", tuple(coeffs), tuple(c.text() for c in coeffs))


def orr_problem(a2, a4):
    zero = Linear(0.0)
    return Problem("orr", (zero, a2, zero, a4), (a2.text(), a4.text()))


def schrodinger_problem(zeta, omega):
    return Problem("schrodinger", (zeta, Linear(-(omega**2))), (zeta.text(),), omega)


@dataclass
class Reference:
    """First row of the fundamental matrix from both oracles, and the local
    cubic interpolation that carries it from the reference grid to the
    operation's grid (None when the two grids are the same)."""

    series: np.ndarray      # (n, reference nodes) from dyson
    stepper: np.ndarray     # (n, reference nodes) from rk4
    self_err: float         # max |series - stepper|
    interp: tuple | None


def cubic_interpolation(xs, x):
    """Indices (m, 4) and weights (m, 4) of 4-point Lagrange interpolation
    from the uniform nodes xs to the points x; exact at shared nodes."""
    i = np.clip(np.searchsorted(xs, x, side="right") - 2, 0, len(xs) - 4)
    idx = i[:, None] + np.arange(4)
    xw = xs[idx]
    w = np.ones(idx.shape)
    for k in range(4):
        for m in range(4):
            if m != k:
                w[:, k] *= (x - xw[:, m]) / (xw[:, k] - xw[:, m])
    return idx, w


def reference(problem: Problem, grid, interp) -> Reference:
    oracle = mod("oracle")
    n = problem.n
    data = np.zeros((n, n, grid.n + 1), dtype=complex)
    for i in range(n - 1):
        data[i, i + 1] = 1.0
    for j, c in enumerate(problem.coeffs, start=1):
        data[n - 1, n - j] = c.values(grid.nodes)
    m = oracle.MatrixFn(grid, data)
    series = oracle.dyson(m, tol=SERIES_TOL).M[0]
    stepper = oracle.rk4(m, grid.n)[0]
    return Reference(series, stepper, float(np.max(np.abs(series - stepper))), interp)


def check_against(ref: Reference, ic, grid, values, validity):
    """None when values agree with both oracles at every node of the reported
    validity interval, else the reason for failure."""
    keep = grid.mask(validity)
    if not keep.any():
        return "empty validity interval"
    y = values[keep]
    if not np.all(np.isfinite(y)):
        return "non-finite value"
    ic = np.asarray(ic, dtype=complex)
    err = np.zeros(y.shape)
    for rows in (ref.series, ref.stepper):
        want = ic @ rows
        if ref.interp is not None:
            idx, w = ref.interp
            want = np.sum(want[idx[keep]] * w[keep], axis=1)
        else:
            want = want[keep]
        err = np.maximum(err, np.abs(y - want))
    i = int(np.argmax(err))
    if not err[i] <= COMPARE_TOL:
        return f"max error {err[i]:.3e} > {COMPARE_TOL:g} at x = {grid.nodes[keep][i]:.6g}"
    return None


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    """What one operation returned: its output hash and a failure reason or None."""

    hash: str
    failure: str | None
    bytes_written: int = 0


class Op:
    """One library call on one problem with one initial-data vector."""

    def __init__(self, problem: Problem, ic, grid, ref_key):
        self.problem = problem
        self.ic = ic
        self.grid = grid
        self.ref_key = ref_key
        self.key = f"{problem.describe()} ic={[str(c) for c in ic]}"

    def run(self):
        p = self.problem
        solver = mod("solver")
        if p.kind == "ivp":
            y, bs = solver.solve_ivp(solver.IVProblem(p.n, p.texts, self.ic), self.grid)
            return y.values, bs.validity
        if p.kind == "orr":
            bs = solver.preset_orr_sommerfeld(p.texts[0], p.texts[1], self.grid)
        else:
            bs = solver.preset_schrodinger(p.texts[0], p.omega, self.grid)
        vals = np.zeros(self.grid.n + 1, dtype=complex)
        for c, member in zip(self.ic, bs.psi):
            vals += c * member.values
        return vals, bs.validity

    def check(self, result, refs) -> Outcome:
        values, validity = result
        keep = self.grid.mask(validity)
        h = digest(values[keep].tobytes(), (validity.lo, validity.hi))
        return Outcome(h, check_against(refs[self.ref_key], self.ic, self.grid, values, validity))


class CliOp:
    """In-process ``multexode compare`` on a config file written at set-up."""

    def __init__(self, problem: Problem, ic, grid, ref_key, config: Path, outdir: Path, fmt: str):
        self.problem = problem
        self.ic = ic
        self.grid = grid
        self.ref_key = ref_key
        self.config = config
        self.outdir = outdir
        self.fmt = fmt
        self.key = f"cli compare --format {fmt} {problem.describe()} ic={[str(c) for c in ic]}"

    def run(self):
        return mod("cli").run(
            ["compare", "--config", str(self.config), "--output", str(self.outdir), "--format", self.fmt]
        )

    def check(self, code, refs) -> Outcome:
        names = ["result.json"] if self.fmt == "json" else [
            "solution.csv", "oracle_series.csv", "oracle_stepper.csv", "report.json"
        ]
        if code != 0:
            return Outcome(digest(code), f"exit code {code}")
        blobs = [(self.outdir / name).read_bytes() for name in names]
        h = digest(code, *blobs)
        size = sum(len(b) for b in blobs)
        if self.fmt == "json":
            doc = json.loads(blobs[0])
            report = doc["report"]
            xs = np.asarray(doc["x"])
            sol = doc["functions"]["solution"]
            y = np.asarray(sol["re"]) + 1j * np.asarray(sol["im"])
        else:
            report = json.loads(blobs[3])
            table = np.loadtxt(io.BytesIO(blobs[0]), delimiter=",", skiprows=1, ndmin=2)
            xs, y = table[:, 0], table[:, 1] + 1j * table[:, 2]
        if report.get("pass") is not True:
            return Outcome(h, f"report pass = {report.get('pass')!r}", size)
        validity = mod("gridfn").Interval(*report["validity"])
        keep = np.flatnonzero(self.grid.mask(validity))
        if xs.shape != keep.shape or not np.allclose(xs, self.grid.nodes[keep], rtol=0, atol=1e-12):
            return Outcome(h, "output abscissae differ from the grid nodes of the validity interval", size)
        values = np.zeros(self.grid.n + 1, dtype=complex)
        values[keep] = y
        return Outcome(h, check_against(refs[self.ref_key], self.ic, self.grid, values, validity), size)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Operations in run order plus the problems their references come from."""

    def __init__(self, ops, problems, ref_grid, tmpdir=None):
        self.ops = ops
        self.problems = problems        # ref_key -> Problem
        self.ref_grid = ref_grid
        self.tmpdir = tmpdir

    def references(self):
        grid = self.ops[0].grid
        interp = None if grid == self.ref_grid else cubic_interpolation(self.ref_grid.nodes, grid.nodes)
        return {k: reference(p, self.ref_grid, interp) for k, p in self.problems.items()}

    def close(self):
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            try:
                self.tmpdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it


def fine_distinct(seed, root):
    """Orders 4 and 5 and the Orr-Sommerfeld preset on N = 20 000; every
    operation is a fresh equation.  A pass over the 100 equations takes
    longer than a 25 s run of the current library on two cores, so no
    equation repeats within such a run.  Costs rise from the preset
    (40 %) to order 4 (40 %) to order 5 (20 %), so the median falls inside the
    order-4 class and p90 inside the order-5 class."""
    grid_mod = mod("gridfn")
    rng = np.random.default_rng([seed, 1])
    grid = grid_mod.Grid(*WINDOW, 20000)
    pattern = ("o4", "orr", "o5", "o4", "orr", "o4", "o5", "orr", "o4", "orr")
    ops, problems = [], {}
    for i in range(100):
        kind = pattern[i % len(pattern)]
        cplx = i % 3 == 0
        if kind == "orr":
            p = orr_problem(smooth(rng, SMOOTH_BOUND, cplx, 2), smooth(rng, SMOOTH_BOUND, False, 3))
        else:
            p = ivp_problem([smooth(rng, SMOOTH_BOUND, cplx and j == 1, 1 + j % 3) for j in range(1, int(kind[1]) + 1)])
        problems[i] = p
        ops.append(Op(p, initial_data(rng, p.n), grid, i))
    return Workload(ops, problems, grid_mod.Grid(*WINDOW, 1000))


def _coarse_pool(rng, orders_smooth, shrinking, schrodinger):
    pool = []
    for n in orders_smooth:
        pool.append(ivp_problem([smooth(rng, SMOOTH_BOUND, len(pool) % 3 == 0 and j == 1, 1 + j % 3) for j in range(1, n + 1)]))
    for _ in range(shrinking):
        # a2 = -c + d x: the order-2 auxiliary function vanishes inside the
        # window, so the validity interval shrinks through masked division
        c = round(float(rng.uniform(4.0, 40.0)), 3)
        d = round(float(rng.uniform(0.5, 3.0)), 3)
        pool.append(ivp_problem([Linear(0.0), Linear(-c, d), Linear(1.0)]))
    for _ in range(schrodinger):
        zeta = Zeta(round(float(rng.uniform(0.0, 0.5)), 6), round(float(rng.uniform(-0.3, 0.3)), 6))
        pool.append(schrodinger_problem(zeta, round(float(rng.uniform(1.0, 3.0)), 6)))
    return pool


def coarse_sweep(seed, root):
    """Orders 2-5 and the impedance preset on N = 2 000 from a pool of 40
    equations, each solved with three initial-data vectors in interleaved
    order, so equations repeat every 40 operations.

    The latency distribution is a mixture of per-class costs.  The class
    shares put the median in the middle of the order-3 class and p90 in the
    middle of the order-5 class, away from the gaps between classes where a
    percentile would jump from run to run: cheap orders 2 and the impedance
    preset 35 %, order 3 30 %, validity-shrinking order 3 10 %, order 4 5 %,
    order 5 20 %.  The run makes whole passes, so every run keeps these
    shares exactly."""
    grid_mod = mod("gridfn")
    rng = np.random.default_rng([seed, 2])
    grid = grid_mod.Grid(*WINDOW, 2000)
    pool = _coarse_pool(rng, (2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 5, 5, 5, 5) * 2, 4, 4)
    ics = [[initial_data(rng, p.n) for _ in range(3)] for p in pool]
    ops = [Op(pool[e], ics[e][r], grid, e) for r in range(3) for e in range(len(pool))]
    return Workload(ops, dict(enumerate(pool)), grid_mod.Grid(*WINDOW, 1000))


def cli_compare(seed, root):
    """``multexode compare`` at N = 2 000, orders 2-4, on 24 config files, each
    run in CSV and JSON in alternation; every (config, format) pair repeats
    within a run, which is what the byte-identity check compares."""
    grid_mod = mod("gridfn")
    rng = np.random.default_rng([seed, 3])
    grid = grid_mod.Grid(*WINDOW, 2000)
    tmp = Path(root) / ".perfbench_tmp" / f"cli-{seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ops, problems = [], {}
    for e, n in enumerate((2, 3, 4, 2, 3, 4, 3, 4) * 3):
        p = ivp_problem([smooth(rng, SMOOTH_BOUND, e % 3 == 0 and j == 1, 1 + j % 3) for j in range(1, n + 1)])
        ic = initial_data(rng, n)
        lines = ["mode = compare", f"n = {n}"]
        lines += [f"a{j} = {t}" for j, t in enumerate(p.texts, start=1)]
        lines += ["ic = " + ", ".join(str(c) for c in ic), "interval = -1:1", "grid = 2000"]
        cfg = tmp / f"problem{e}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        problems[e] = p
        for fmt in ("csv", "json"):
            ops.append(CliOp(p, ic, grid, e, cfg, tmp / f"out{e}-{fmt}", fmt))
    return Workload(ops, problems, grid, tmpdir=tmp)


WORKLOADS = {"fine-distinct": fine_distinct, "coarse-sweep": coarse_sweep, "cli-compare": cli_compare}


def build(name, seed, root) -> Workload:
    return WORKLOADS[name](seed, root)

