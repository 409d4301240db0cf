"""Source hygiene checks that need no linter."""

import ast
import importlib.util
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import multexode
import multexode.cli  # the tracer wraps cli bindings too

MODULES = sorted(p for p in Path(multexode.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted(Path(multexode.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # an import in a function body hides a dependency from the module head
    tree = ast.parse(path.read_text())
    inner = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inner == []


def test_all_names_resolve_to_public_objects():
    names = multexode.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(multexode, n)] == []
    assert [n for n in names if isinstance(getattr(multexode, n), ModuleType)] == []


def test_every_package_of_the_test_extra_is_imported_by_a_test():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    root = Path(__file__).resolve().parents[1]
    extra = tomllib.loads((root / "pyproject.toml").read_text())["project"]["optional-dependencies"]["test"]
    imported = set()
    for path in (root / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
    packages = [re.split(r"[^A-Za-z0-9_.-]", req, maxsplit=1)[0].lower().replace("-", "_") for req in extra]
    assert [p for p in packages if p not in imported] == []


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_installs_on_the_package():
    # perfbench/tracing.py wraps named module bindings and raises when one is
    # gone; a refactor that drops one would otherwise break only the traced run
    tracing = load_tracing()
    lower_module = sys.modules["multexode.lower"]
    public_lower = lower_module.lower
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the stacked pass of the members is traced where the solver calls it
        assert hasattr(sys.modules["multexode.solver"].trig_family, "__wrapped__")
        multexode.solve_ivp(multexode.IVProblem(3, ("0", "x", "1"), (1, 0, 0)), multexode.Grid(-1, 1, 200))
    finally:
        tracer.uninstall()
    assert tracer.calls["chain"] == 1 and tracer.calls["solver"] == 1
    # one family in the chain and one stacked pass for the three members
    assert tracer.calls["trig_family"] == 2
    assert tracer.lower_entries > 0
    # the traced self-test needs both on coarse-sweep: memo hits at the
    # public lower, and the GridFn that linear_combination builds
    assert tracer.lower_hits > 0 and tracer.calls["gridfn_init"] > 0
    assert sys.modules["multexode.auxiliary"].lower is public_lower


def test_series_calls_the_traced_primitive_once_per_term():
    # the tracer's gridfn.primitive_calls and multex.series_terms count the
    # same terms only while the series calls the module binding per term
    grid = multexode.Grid(-1, 1, 200)
    fs = [multexode.GridFn(grid, 0.5 + k * grid.nodes) for k in range(3)]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        _, diag = multexode.trig_family(fs, stack=3)
    finally:
        tracer.uninstall()
    assert tracer.calls["primitive"] == tracer.series_terms == diag.terms_used > 3
