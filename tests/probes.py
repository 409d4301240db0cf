"""Bit-identity probes: print one SHA-256 per probe of the package's outputs.

Run it from the root of a checkout, once before and once after a change,
and compare the two listings with ``diff``:

    python tests/probes.py > probes-before.txt
    python tests/probes.py > probes-after.txt
    diff probes-before.txt probes-after.txt

A probe hashes the sample bytes of a solution and of every basis member, the
validity interval (exact float bits) and the series diagnostics; a probe that
raises hashes the error's type and message; a CLI probe hashes the exit code
and every output file, by name and bytes.  An expression probe hashes the
printed text of one equation's chain (every phi, and each auxiliary
function's right side and derivatives), one parse probe hashes the raw
trees and syntax errors of a fixed list of strings, a second hashes them
parsed again while the first roots are held (and whether each is the held
root), and a third the syntax error of nesting too deep to recurse.  The
script is not a test module, so pytest does not collect it.

To compare two source trees, copy this script and ``crosschecks.py`` into
the ``tests/`` directory of each checkout and run it there: it imports the
package from the ``src/`` next to it.

Every probe runs twice in one process.  The listing is the first pass; the
second runs with the chains and lowered rows of the first still in the
solver's memo, so it replays them, and prints ``MISMATCH <probe>`` for any
hash that differs from the first: a kept chain and its rows must reproduce
a fresh build and lowering bit for bit.  The script exits 1 when it printed
a ``MISMATCH`` line, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import crosschecks  # noqa: E402
from multexode import (  # noqa: E402
    AuxFn,
    Expr,
    ExpressionSyntaxError,
    Grid,
    IVProblem,
    Sampled,
    basis,
    build_aux_chain,
    parse,
    preset_orr_sommerfeld,
    preset_schrodinger,
    solve_ivp,
    to_text,
)
from multexode.auxiliary import CoeffVector  # noqa: E402
from multexode.cli import run as cli_run  # noqa: E402

REAL = ("0.1*x", "-1+0.2*sin(x)", "0.3*x", "0.5*cos(x)", "0.2")
COMPLEX = ("0.1*x + 0.05*i", "-1+0.2*sin(x)", "0.3*i*x", "0.5*cos(x)", "0.2 - 0.1*i*x")
IC = (1.0, 0.3, -0.2, 0.1, 0.05)
# REAL and IC extended to order 9
REAL9 = (*REAL, "0.1*x^2", "-0.3", "0.05*cos(2*x)", "0.1")
IC9 = (*IC, 0.02, -0.01, 0.005, 0.002)
SIZES = (2000, 20000)
DIVIDING_CHAINS = (
    ("order3_a1_pole", ("1/(x-0.5)", "-40+3*x", "1"), (-1, 1)),
    ("order4_nested", ("0", "x", "0", "1/(x+0.3)"), (-1, 1)),
    ("order5_a5_pole", (*REAL[:4], "1/(x-0.45)"), (-1, 1)),
    ("order5_complex", ("0.1*x + 0.05*i", "-30+2*x", "0.3*i*x", "1/(x+0.35)", "0.2 - 0.1*i*x"), (-1, 1)),
    ("order4_shrinking", ("0", "-40+3*x", "1", "0.2"), (-0.75, 0.75)),
    ("order5_a1_pole", ("1/(1+3*x)", "-25", "x", "1", "0.1"), (-1, 1)),
)
XS = np.linspace(-1.2, 1.2, 241)
TABLES = {"real": Sampled(XS, 0.3 * np.cos(XS)), "complex": Sampled(XS, 0.3 * np.cos(XS) + 0.1j * XS)}
ZETA_TABLE = Sampled(XS, 2 + XS)
PARSED = (
    "1+2*x", "6/3 - 2*2", "1/0", "2*3 + 1", "x - (x - 1)", "x/(x/2)*x", "-x^2", "x^-2/(2 + sin(x))",
    "(1 + 2*i)*x", "1.5e-3*x - -x", "1/(1+x^2)", "sin(x)*x - x/sin(x)",
    "x^1.5", "2x", "sin x", "x^-", "x--", "1 + * 2", "cos()", "(x", "2*foo", "x + 1 )", "   ",
)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, float):
            h.update(p.hex().encode())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _basis_parts(bs):
    return [*(m.values for m in bs.psi), bs.validity.lo, bs.validity.hi, bs.diagnostics, bs.aux_diagnostics]


def _run(fn):
    try:
        return fn()
    except Exception as exc:  # every outcome is hashed, failures included
        return ("error", type(exc).__name__, str(exc))


def _hash(out) -> str:
    if isinstance(out, tuple) and out[0] in ("error", "cli", "texts", "outcomes"):
        return _digest(*out)
    if isinstance(out, tuple):  # solve_ivp's (solution, basis)
        y, bs = out
        return _digest(y.values, *_basis_parts(bs))
    if isinstance(out, np.ndarray):
        return _digest(out)
    if hasattr(out, "values"):  # a GridFn
        return _digest(out.values)
    return _digest(*_basis_parts(out))


def _solve(coeffs, grid, tol=None, ic=IC):
    kw = {} if tol is None else {"tol": tol}
    return lambda: solve_ivp(IVProblem(len(coeffs), coeffs, ic[: len(coeffs)]), grid, **kw)


def _basis(coeffs, grid):
    return lambda: basis(CoeffVector.from_rhs(coeffs), grid)


def library_probes():
    for n in range(1, 6):
        for kind, coeffs in (("real", REAL), ("complex", COMPLEX)):
            for size in SIZES:
                yield f"solve_ivp/order{n}/{kind}/N{size}", _solve(coeffs[:n], Grid(-1, 1, size))
    for size in SIZES:
        g = Grid(-1, 1, size)
        yield f"basis/dividing_order3/N{size}", _basis(("0", "-20+2*x", "1"), g)
        yield f"basis/order4/N{size}", _basis(REAL[:4], g)
        yield f"orr/plain/N{size}", lambda g=g: preset_orr_sommerfeld("-1+x", "1/2", g)
        # the same coefficients through the general recursion, whose members
        # differ in the last bits: the memo must not hand it the preset's entry
        yield f"basis/orr_plain_equation/N{size}", _basis(("0", "-1+x", "0", "1/2"), g)
        yield f"orr/dividing_a4/N{size}", lambda g=g: preset_orr_sommerfeld("-1+x", "1/(x-0.6)", g)
        yield f"schrodinger/N{size}", lambda g=g: preset_schrodinger("2+x", 1.5, g)
        yield f"schrodinger/sampled/N{size}", lambda g=g: preset_schrodinger(ZETA_TABLE, 1.5, g)
    for a2 in ("-40+3*x", "-40"):
        for size in (1500, 2000, 8000):
            for tol in (1e-12, 1e-13):
                g = Grid(-0.75, 0.75, size)
                yield f"shrinking/a2={a2}/N{size}/tol{tol:g}", _solve(("0", a2, "1"), g, tol=tol, ic=(1, 0.3, -0.2))
    g = Grid(-1, 1, 2000)
    for n in range(1, 5):
        rest = REAL[1:n]
        yield f"pole_a1/order{n}", _solve(("1/(x-0.5)", *rest), g)
        yield f"pole_an/order{n}", _solve((*REAL[: n - 1], "1/(x+0.4)"), g)
    # a pole one cell or one and a half cells from the anchor, on either side
    for text in ("1/(x-0.001)", "1/(x-0.0015)", "1/(x+0.001)"):
        yield f"pole_near_anchor/a1={text}", _solve((text, "1"), g, ic=(1, 0))
    # a pole half a cell past the right end: the one-pass proof declines both
    # divisors and the scan keeps the whole grid
    yield "pole_past_the_end/a1=1/(x - 1.0005)", _solve(("1/(x - 1.0005)", "-1"), g, ic=(1, 0.3))
    # dividing chains whose cut comes from a lead or from a nested chain
    for name, coeffs, grid in DIVIDING_CHAINS:
        for size in (2000, 8000):
            yield f"dividing_chain/{name}/N{size}", _solve(coeffs, Grid(*grid, size))
    for n in range(3, 6):
        for kind, table in TABLES.items():
            yield f"table/order{n}/{kind}/numeric0", _solve((table, *REAL[1:n]), g)
    yield "error/collapse", _solve(("1/((x-0.003)*(x+0.003))", "1"), g, ic=(1, 0))
    yield "error/divisor_too_small", _solve(("1/x", "1"), g, ic=(1, 0))
    yield "error/overflow", _solve(("1000", "1"), Grid(-20, 20, 2000), ic=(1, 0))
    yield "error/huge_ic", _solve(("0", "-1"), g, ic=(1e308, 1e308))
    yield "order4_stiff/solve_ivp", _solve(("0", "-3000", "0", "-200*x"), g)
    yield "order4_stiff/orr", lambda: preset_orr_sommerfeld("-3000", "-200*x", g)
    for n in range(2, 5):
        bs = _run(_basis(REAL[:n], g))
        yield f"initial_condition_matrix/order{n}", lambda bs=bs: crosschecks.initial_condition_matrix(bs)
        yield f"ode_residual/order{n}", lambda bs=bs, n=n: crosschecks.ode_residual(bs, n)
    # orders 6 to 9, the top of the CLI's range
    for n in range(6, 10):
        yield f"solve_ivp/order{n}/y^({n})=y", _solve(("0",) * (n - 1) + ("1",), g, ic=(1,) + (0,) * (n - 1))
        yield f"solve_ivp/order{n}/real", _solve(REAL9[:n], g, ic=IC9)
    # chains of operators longer than a recursion through the Python stack reaches
    yield "long_chain/2000_subtractions", _solve(("0", "-1" + " - 0.0001*x" * 2000), g, ic=(1, 0))
    yield "long_chain/1000_divisions", _solve(("0", "-1+x" + "/1.0001" * 1000), g, ic=(1, 0))


def equations():
    """The equations of order 2 and above that the library probes solve
    through the general recursion."""
    for n in range(2, 6):
        for kind, coeffs in (("real", REAL), ("complex", COMPLEX)):
            yield f"order{n}/{kind}", coeffs[:n]
    yield "dividing_order3", ("0", "-20+2*x", "1")
    yield "orr_plain_equation", ("0", "-1+x", "0", "1/2")
    for a2 in ("-40+3*x", "-40"):
        yield f"shrinking/a2={a2}", ("0", a2, "1")
    for n in range(2, 5):
        yield f"pole_a1/order{n}", ("1/(x-0.5)", *REAL[1:n])
        yield f"pole_an/order{n}", (*REAL[: n - 1], "1/(x+0.4)")
    for text in ("1/(x-0.001)", "1/(x-0.0015)", "1/(x+0.001)"):
        yield f"pole_near_anchor/a1={text}", (text, "1")
    for name, coeffs, _ in DIVIDING_CHAINS:
        yield f"dividing_chain/{name}", coeffs
    for n in range(3, 6):
        for kind, table in TABLES.items():
            yield f"table/order{n}/{kind}", (table, *REAL[1:n])
    yield "collapse", ("1/((x-0.003)*(x+0.003))", "1")
    yield "divisor_too_small", ("1/x", "1")
    yield "overflow", ("1000", "1")
    yield "order4_stiff", ("0", "-3000", "0", "-200*x")


def _chain_texts(coeffs):
    texts = []
    for p in build_aux_chain(CoeffVector.from_rhs(coeffs)).phi:
        texts.append(to_text(p))
        if isinstance(p, AuxFn):
            texts += [to_text(e) for e in (*p.bcoeffs, p.realization, *p.derivs)]
    return ("texts", *texts)


def _tree(e):
    """The raw structure of a parsed tree, which ``repr`` would simplify:
    the node's type and its fields, those of its own class and of the
    classes between it and Expr."""
    fields = (getattr(e, name) for cls in type(e).__mro__[:-2] for name in cls.__slots__)
    return (type(e).__name__, *(_tree(f) if isinstance(f, Expr) else f for f in fields))


def _parse_outcome(text):
    try:
        return _tree(parse(text))
    except ExpressionSyntaxError as exc:
        return (exc.offset, sorted(exc.expected), exc.found, str(exc))


def _reparse_outcome(text):
    held = _run(lambda: parse(text))
    return (_parse_outcome(text), _run(lambda: parse(text)) is held)


def expression_probes():
    for name, coeffs in equations():
        yield f"expr/{name}", lambda coeffs=coeffs: _chain_texts(coeffs)
    yield "parse/outcomes", lambda: ("outcomes", *(_parse_outcome(t) for t in PARSED))
    yield "parse/repeated", lambda: ("outcomes", *(_reparse_outcome(t) for t in PARSED))
    yield "parse/too_deep", lambda: ("outcomes", _parse_outcome("(" * 300 + "x" + ")" * 300))


CLI_PROBLEMS = {
    "order2": "n = 2\na1 = 0.1*x\na2 = -4\nic = 1, 0\n",
    "order3": "n = 3\na1 = 0.1*x\na2 = -1+0.2*sin(x)\na3 = 0.3*x\nic = 1, 0.3, -0.2\n",
    "order4": "n = 4\na1 = 0.1*x\na2 = -1+0.2*sin(x)\na3 = 0.3*x\na4 = 0.5*cos(x)\nic = 1, 0.3, -0.2, 0.1\n",
    "dividing_order3": "n = 3\na1 = 0\na2 = -20+2*x\na3 = 1\nic = 1, 0.3, -0.2\n",
}
CLI_PRESETS = {
    "schrodinger": "preset = schrodinger\nzeta = 2+x\nomega = 1.5\n",
    "orr": "preset = orr\na2 = -1+x\na4 = 1/2\n",
}


def cli_probes(tmp: Path):
    runs = []
    for name, text in CLI_PROBLEMS.items():
        for command in ("solve", "basis", "compare"):
            mode = "" if command == "solve" else f"mode = {command}\n"
            runs.append((f"{command}/{name}", command, mode + text))
    runs += [(f"preset/{name}", "preset", text) for name, text in CLI_PRESETS.items()]
    for label, command, text in runs:
        for fmt in ("csv", "json"):
            cfg = tmp / f"{label.replace('/', '_')}.cfg"
            cfg.write_text(text + "grid = 2000\n")
            out = tmp / f"out_{label.replace('/', '_')}_{fmt}"

            def probe(command=command, cfg=cfg, out=out, fmt=fmt):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli_run([command, "--config", str(cfg), "--output", str(out), "--format", fmt])
                files = sorted(out.iterdir()) if out.exists() else []
                return ("cli", code, *((f.name, f.read_bytes()) for f in files))

            yield f"cli/{label}/{fmt}", probe


def _hashes():
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in [*library_probes(), *expression_probes(), *cli_probes(Path(tmp))]:
            yield name, _hash(_run(make))


def main() -> int:
    first = {}
    for name, digest in _hashes():
        first[name] = digest
        print(name, digest)
    mismatched = False
    for name, digest in _hashes():
        if digest != first[name]:
            print("MISMATCH", name)
            mismatched = True
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
