"""Command-line front end.

Problems are described by a flat key = value config file (see the README for
the schema) and run through one of four subcommands:

    multexode solve   --config problem.cfg [--output DIR]
    multexode basis   --config problem.cfg
    multexode compare --config problem.cfg
    multexode preset  --config preset.cfg

solve writes the solution samples, basis all fundamental solutions, compare
runs the solver against both oracles and writes a JSON report, and preset
dispatches the impedance-form and fourth-order stability problems.  Outputs
are CSV (x, re, im per function; full precision, LF endings) or one JSON
document, restricted to the reported validity interval, and byte-identical
across repeated runs.

Exit codes: 0 success, 1 input errors, 2 series non-convergence, overflow,
collapsed validity, or a failed comparison.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .auxiliary import CoeffVector
from .coeffexpr import Expr, Sampled
from .errors import ConfigError, ExpressionSyntaxError, MultexodeError, NonMonotoneAbscissae, NotConverged, Overflow, ValidityCollapsed
from .gridfn import Grid, GridFn, linear_combination
from .multex import DEFAULT_TOL
from .oracle import companion, dyson, rk4
from .parser import parse
from .solver import IVProblem, basis, preset_orr_sommerfeld, preset_schrodinger, solve_ivp

MODES = ("solve", "basis", "compare", "preset:schrodinger", "preset:orr")
SHARED_KEYS = frozenset(["ic", "interval", "grid", "tol", "compare_tol"])
KEYS = SHARED_KEYS | {"mode", "preset", "n", *(f"a{j}" for j in range(1, 10)), "zeta", "omega"}


def ingest_samples(path) -> Sampled:
    """Load a two- or three-column CSV sample table as a coefficient.

    Column 1 is x (strictly increasing), column 2 the value, and an optional
    column 3 the imaginary part; without it, or with only zeros there, the
    table is real.  Comment lines (#) and a non-numeric header row are
    skipped.
    """
    rows = []
    text = Path(path).read_text()
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            if rows:
                raise ConfigError(f"{path}: line {ln} is not numeric") from None
            continue  # header row
        if len(vals) not in (2, 3):
            raise ConfigError(f"{path}: line {ln} has {len(vals)} columns, expected 2 or 3")
        if not all(cmath.isfinite(v) for v in vals):
            raise ConfigError(f"{path}: line {ln} has a value that is not finite")
        rows.append(vals + [0.0] * (3 - len(vals)))
    if len(rows) < 4:
        raise ConfigError(f"{path}: need at least 4 sample rows")
    arr = np.asarray(rows, dtype=float)
    xs = arr[:, 0]
    if np.any(np.diff(xs) <= 0):
        i = int(np.flatnonzero(np.diff(xs) <= 0)[0])
        raise NonMonotoneAbscissae(
            f"{path}: abscissae must be strictly increasing, violated at row {i + 2} (x = {xs[i + 1]:g})"
        )
    return Sampled(xs, arr[:, 1] + 1j * arr[:, 2] if np.any(arr[:, 2]) else arr[:, 1])


@dataclass
class ProblemConfig:
    """Parsed and validated problem description."""

    mode: str
    n: int = 0
    coefficients: dict = field(default_factory=dict)
    lo: float = -1.0
    hi: float = 1.0
    grid_n: int = 2000
    tol: float = DEFAULT_TOL
    initial_values: tuple = ()
    compare_tol: float = 1e-6
    zeta: Expr | None = None
    omega: complex = 0.0

    def make_grid(self) -> Grid:
        return Grid.aligned(self.lo, self.hi, self.grid_n)


def _parse_kv(text: str, path: str) -> dict:
    out = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {ln} is not 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key or not value:
            raise ConfigError(f"{path}: line {ln} has an empty key or value")
        if key in out:
            raise ConfigError(f"{path}: duplicate key {key!r} at line {ln}")
        out[key] = value
    return out


def _coefficient(raw: str, base: Path, field_name: str):
    if raw.startswith("@"):
        table = base / raw[1:]
        if not table.exists():
            raise ConfigError(f"{field_name}: sample table {table} does not exist")
        return ingest_samples(table)
    try:
        return parse(raw)
    except ExpressionSyntaxError as exc:
        raise ConfigError(f"{field_name}: {exc}") from None


def _complex(raw: str, field_name: str) -> complex:
    try:
        value = complex(raw.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{field_name}: {raw!r} is not a complex number") from None
    if not cmath.isfinite(value):
        raise ConfigError(f"{field_name}: {raw!r} is not finite")
    return value


def load_config(path, overrides=None) -> ProblemConfig:
    """Read, override and validate a config file into a ProblemConfig."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    raw = _parse_kv(path.read_text(), str(path))
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    unknown = sorted(raw.keys() - KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    base = path.parent

    mode = raw.get("mode", "solve")
    preset = raw.get("preset")
    if preset:
        if preset not in ("schrodinger", "orr"):
            raise ConfigError(f"preset: unknown preset {preset!r}")
        mode = f"preset:{preset}"
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode {mode!r}")
    cfg = ProblemConfig(mode=mode)

    if "interval" in raw:
        try:
            lo_s, hi_s = raw["interval"].split(":")
            cfg.lo, cfg.hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ConfigError(f"interval: expected LO:HI, got {raw['interval']!r}") from None
    if not np.isfinite([cfg.lo, cfg.hi]).all():
        raise ConfigError(f"interval: [{cfg.lo}, {cfg.hi}] is not finite")
    if not cfg.lo < 0 < cfg.hi:
        raise ConfigError(f"interval: [{cfg.lo}, {cfg.hi}] must contain 0 strictly inside")
    for key, attr, conv in (
        ("grid", "grid_n", int),
        ("tol", "tol", float),
        ("compare_tol", "compare_tol", float),
    ):
        if key in raw:
            try:
                setattr(cfg, attr, conv(raw[key]))
            except ValueError:
                raise ConfigError(f"{key}: {raw[key]!r} is not a {conv.__name__}") from None
    if cfg.grid_n < 16 or cfg.grid_n % 2:
        raise ConfigError(f"grid: N must be even and >= 16, got {cfg.grid_n}")
    for key, value in (("tol", cfg.tol), ("compare_tol", cfg.compare_tol)):
        if not 0 < value < np.inf:
            raise ConfigError(f"{key}: must be finite and positive, got {value!r}")

    if mode == "preset:schrodinger":
        if "zeta" not in raw:
            raise ConfigError("zeta: required for the schrodinger preset")
        cfg.zeta = _coefficient(raw["zeta"], base, "zeta")
        if "omega" not in raw:
            raise ConfigError("omega: required for the schrodinger preset")
        cfg.omega = _complex(raw["omega"], "omega")
        cfg.n = 2
        read = {"preset", "zeta", "omega"}
    elif mode == "preset:orr":
        for name in ("a2", "a4"):
            if name not in raw:
                raise ConfigError(f"{name}: required for the orr preset")
            cfg.coefficients[name] = _coefficient(raw[name], base, name)
        cfg.n = 4
        read = {"preset", "a2", "a4"}
    else:
        if "n" not in raw:
            raise ConfigError("n: required")
        try:
            cfg.n = int(raw["n"])
        except ValueError:
            raise ConfigError(f"n: {raw['n']!r} is not an integer") from None
        if not 1 <= cfg.n <= 9:
            raise ConfigError(f"n: order must be in 1..9, got {cfg.n}")
        for j in range(1, cfg.n + 1):
            name = f"a{j}"
            if name not in raw:
                raise ConfigError(f"{name}: coefficient missing for order n = {cfg.n}")
            cfg.coefficients[name] = _coefficient(raw[name], base, name)
        read = {"mode", "n", *cfg.coefficients}
    unread = sorted(raw.keys() - read - SHARED_KEYS)
    if unread:
        raise ConfigError(f"{path}: key {unread[0]!r} is not read in mode {mode!r}")

    if "ic" in raw:
        parts = [p for p in raw["ic"].split(",") if p.strip()]
        cfg.initial_values = tuple(_complex(p, "ic") for p in parts)
    if ("ic" in raw or mode in ("solve", "compare")) and len(cfg.initial_values) != cfg.n:
        raise ConfigError(
            f"ic: need {cfg.n} initial values for mode {mode!r}, got {len(cfg.initial_values)}"
        )
    return cfg


def write_function_csv(path: Path, fn: GridFn, validity) -> None:
    """x, re, im rows on the validity interval, each value in %.17g (the same
    C formatting as format(v, ".17g")), the whole file in one % call."""
    keep = fn.grid.mask(validity)
    v = fn.values[keep]
    flat = np.column_stack((fn.grid.nodes[keep], v.real, v.imag)).ravel().tolist()
    path.write_text("x,re,im\n" + ("%.17g,%.17g,%.17g\n" * len(v)) % tuple(flat), newline="\n")


def _functions_json(functions, validity) -> dict:
    grid = functions[0][1].grid
    keep = grid.mask(validity)
    return {
        "x": grid.nodes[keep].tolist(),
        "functions": {
            name: {"re": fn.values[keep].real.tolist(), "im": fn.values[keep].imag.tolist()}
            for name, fn in functions
        },
    }


def _result_json(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" for a result document.

    The float lists doc["x"] and doc["functions"][name][part], finite and
    non-empty as every output on a validity interval is, are written here
    with float.__repr__, which is how json formats floats.  json lays out
    only the skeleton around placeholders; doc["report"] is dumped on its own
    so that none of its strings can be taken for a placeholder.
    """
    texts = []

    def slot(text):
        texts.append(text)
        return f"\0{len(texts) - 1}"

    def array(xs, depth):
        pad = "\n" + "  " * depth
        return slot("[" + pad + "  " + ("," + pad + "  ").join(map(float.__repr__, xs)) + pad + "]")

    skeleton = {
        "x": array(doc["x"], 1),
        "functions": {
            name: {part: array(xs, 3) for part, xs in parts.items()} for name, parts in doc["functions"].items()
        },
    }
    if "report" in doc:
        skeleton["report"] = slot(json.dumps(doc["report"], indent=2, sort_keys=True).replace("\n", "\n  "))
    text = json.dumps(skeleton, indent=2, sort_keys=True)
    return re.sub(r'"\\u0000(\d+)"', lambda mt: texts[int(mt.group(1))], text) + "\n"


def _write_outputs(outdir: Path, functions, validity, fmt: str, report: dict | None = None):
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "json":
        doc = _functions_json(functions, validity)
        if report is not None:
            doc["report"] = report
        target = outdir / "result.json"
        target.write_text(_result_json(doc), newline="\n")
        written.append(target)
    else:
        for name, fn in functions:
            target = outdir / f"{name}.csv"
            write_function_csv(target, fn, validity)
            written.append(target)
        if report is not None:
            target = outdir / "report.json"
            target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", newline="\n")
            written.append(target)
    return written


def _run_problem(cfg: ProblemConfig, outdir: Path, fmt: str) -> int:
    grid = cfg.make_grid()
    if cfg.mode == "preset:schrodinger":
        bs = preset_schrodinger(cfg.zeta, cfg.omega, grid, tol=cfg.tol)
    elif cfg.mode == "preset:orr":
        bs = preset_orr_sommerfeld(cfg.coefficients["a2"], cfg.coefficients["a4"], grid, tol=cfg.tol)
    else:
        coeffs = [cfg.coefficients[f"a{j}"] for j in range(1, cfg.n + 1)]
        if cfg.mode == "basis":
            bs = basis(CoeffVector.from_rhs(coeffs), grid, tol=cfg.tol)
    if cfg.mode not in ("solve", "compare"):
        names = ("c", "s") if cfg.mode == "preset:schrodinger" else [f"psi_{k}" for k in range(1, cfg.n + 1)]
        functions = list(zip(names, bs.psi))
        if cfg.initial_values:
            y = linear_combination(grid, cfg.initial_values, [m.values for m in bs.psi])
            functions.insert(0, ("solution", y))
        _write_outputs(outdir, functions, bs.validity, fmt)
        return 0

    problem = IVProblem(cfg.n, tuple(coeffs), cfg.initial_values)
    y, bs = solve_ivp(problem, grid, tol=cfg.tol)
    if cfg.mode == "solve":
        _write_outputs(outdir, [("solution", y)], bs.validity, fmt)
        return 0

    # compare: run both oracles over the validity interval
    m = companion(bs.a, grid)
    dy = dyson(m, tol=cfg.tol, y0=cfg.initial_values)
    oracle_series = GridFn(grid, dy.M[0])
    oracle_steps = linear_combination(grid, cfg.initial_values, rk4(m, grid.n)[0])

    keep = grid.mask(bs.validity)
    xs = grid.nodes[keep]
    err_series = np.abs(y.values[keep] - oracle_series.values[keep])
    err_steps = np.abs(y.values[keep] - oracle_steps.values[keep])
    errs = np.maximum(err_series, err_steps)
    i = int(np.argmax(errs))
    max_err = float(errs[i])
    passed = bool(max_err <= cfg.compare_tol)
    aux_diags = None
    if bs.aux_diagnostics is not None:
        aux_diags = {
            f"phi{k}": (asdict(d) if d is not None else None)
            for k, d in sorted(bs.aux_diagnostics.items())
        }
    report = {
        "mode": "compare",
        "n": cfg.n,
        "tolerance": cfg.compare_tol,
        "max_abs_err": max_err,
        "err_location": float(xs[i]),
        "max_abs_err_series_oracle": float(np.max(err_series)),
        "max_abs_err_stepper_oracle": float(np.max(err_steps)),
        "validity": [bs.validity.lo, bs.validity.hi],
        "oracles": {"series": {"terms_used": dy.terms_used, "tail_bound": dy.tail_bound}, "stepper": {"steps": grid.n}},
        "member_diagnostics": [asdict(d) if d is not None else None for d in bs.diagnostics],
        "auxiliary_diagnostics": aux_diags,
        "pass": passed,
    }
    _write_outputs(
        outdir,
        [("solution", y), ("oracle_series", oracle_series), ("oracle_stepper", oracle_steps)],
        bs.validity,
        fmt,
        report=report,
    )
    return 0 if passed else 2


def run(argv) -> int:
    """Entry point returning the process exit code."""
    ap = argparse.ArgumentParser(prog="multexode", description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["solve", "basis", "compare", "preset"])
    ap.add_argument("--config", required=True, help="path to a key = value problem file")
    ap.add_argument("--tol", type=float, default=None, help="series tolerance override")
    ap.add_argument("--grid", type=int, default=None, help="grid size N override (even)")
    ap.add_argument("--interval", default=None, help="LO:HI override")
    ap.add_argument("--output", default="multexode-out", help="output directory")
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        overrides = {
            "tol": None if args.tol is None else repr(args.tol),
            "grid": None if args.grid is None else str(args.grid),
            "interval": args.interval,
        }
        cfg = load_config(args.config, overrides)
        expected = cfg.mode.split(":")[0]
        if args.command != expected:
            raise ConfigError(
                f"mode: config describes {cfg.mode!r} but the {args.command!r} subcommand was invoked"
            )
        return _run_problem(cfg, Path(args.output), args.format)
    except (NotConverged, Overflow, ValidityCollapsed) as exc:
        print(f"multexode: {exc}", file=sys.stderr)
        return 2
    except (MultexodeError, ValueError) as exc:
        print(f"multexode: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
