"""Per-layer tracing installed from outside the library.

The tracer wraps public functions of the multexode modules and replaces every
binding of each original function in every loaded ``multexode`` module, so
calls that go through a from-import (``solver.lower``, ``lower.trig_family``,
``oracle.primitive_values``, ...) are seen as well as recursive calls through
a module global.  Functions that recurse or call each other share a group;
only the outermost entry into a group is timed and counted.  Nothing under
``src/`` is edited, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# per-layer metric -> (end-to-end metric it should move, workloads meant to
# exercise it).  The traced run's self-test requires a nonzero reading on each
# listed workload; errors.* count defects, so zero is their goal, and the
# overhead is not a layer.
LAYER_TARGETS = {
    "parser.parse_ms": ("ops_per_s", ("coarse-sweep",)),
    "coeffexpr.symbolic_ms": ("ops_per_s", ("coarse-sweep", "fine-distinct")),
    "auxiliary.chain_ms": ("ops_per_s", ("fine-distinct", "coarse-sweep")),
    "lower.calls": ("ops_per_s", ("coarse-sweep",)),
    "lower.memo_hit_ratio": ("ops_per_s", ("coarse-sweep",)),
    "multex.trig_family_ms": ("op_p50_ms", ("fine-distinct",)),
    "multex.trig_family_calls": ("op_p50_ms", ("fine-distinct",)),
    "multex.series_terms": ("op_p50_ms", ("fine-distinct",)),
    "gridfn.primitive_ms": ("op_p50_ms", ("fine-distinct", "cli-compare")),
    "gridfn.primitive_calls": ("op_p50_ms", ("fine-distinct", "cli-compare")),
    "gridfn.primitive_mb": ("op_p50_ms", ("fine-distinct", "cli-compare")),
    "gridfn.zero_free_ms": ("op_p50_ms", ("fine-distinct",)),
    "gridfn.zero_free_calls": ("op_p50_ms", ("fine-distinct",)),
    "gridfn.objects": ("ops_per_s", ("fine-distinct", "coarse-sweep")),
    "gridfn.init_ms": ("ops_per_s", ("fine-distinct", "coarse-sweep")),
    "solver.basis_ms": ("op_p50_ms", ("fine-distinct",)),
    "solver.self_ms": ("op_p50_ms", ("fine-distinct",)),
    "oracle.companion_ms": ("op_p50_ms", ("cli-compare",)),
    "oracle.dyson_ms": ("op_p50_ms", ("cli-compare",)),
    "oracle.dyson_terms": ("op_p50_ms", ("cli-compare",)),
    "oracle.rk4_ms": ("op_p50_ms", ("cli-compare",)),
    "cli.config_ms": ("op_p50_ms", ("cli-compare",)),
    "cli.self_ms": ("op_p50_ms", ("cli-compare",)),
    "cli.bytes_written": ("op_p50_ms", ("cli-compare",)),
    "errors.typed": ("ok_frac", ()),
    "errors.untyped": ("ok_frac", ()),
    "trace.overhead_pct": (None, ()),
}

# (module, function, group): the group shares one nesting depth
TRACED = (
    ("parser", "parse", "parser"),
    ("coeffexpr", "simplify", "symbolic"),
    ("coeffexpr", "differentiate", "symbolic"),
    ("auxiliary", "extract_aux_ode", "symbolic"),
    ("auxiliary", "apply_scriptD", "symbolic"),
    ("auxiliary", "build_aux_chain", "chain"),
    ("multex", "trig_family", "trig_family"),
    ("gridfn", "primitive_values", "primitive"),
    ("gridfn", "zero_free_interval", "zero_free"),
    ("solver", "solve_ivp", "solver"),
    ("solver", "basis", "solver"),
    ("solver", "preset_schrodinger", "solver"),
    ("solver", "preset_orr_sommerfeld", "solver"),
    ("oracle", "companion", "companion"),
    ("oracle", "dyson", "dyson"),
    ("oracle", "rk4", "rk4"),
    ("cli", "run", "cli"),
    ("cli", "load_config", "cli_config"),
)


def _modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "multexode" or name.startswith("multexode."))]


class Tracer:
    """Accumulates time (s) and top-level entry counts per group, plus counts
    read off results: series terms, Dyson terms, computed primitive bytes,
    lower() entries and memo hits at every depth, GridFn constructions."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self.depth = {}
        self.series_terms = 0
        self.dyson_terms = 0
        self.primitive_bytes = 0
        self.lower_entries = 0
        self.lower_hits = 0
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, group, fn, after=None):
        self.seconds.setdefault(group, 0.0)
        self.calls.setdefault(group, 0)
        self.depth.setdefault(group, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.depth[group]:
                return fn(*args, **kwargs)
            self.depth[group] = 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[group] += perf_counter() - t0
                self.calls[group] += 1
                self.depth[group] = 0
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def _after(self, group):
        if group == "trig_family":
            def count(out, args):
                self.series_terms += out[1].terms_used
        elif group == "dyson":
            def count(out, args):
                self.dyson_terms += out.terms_used
        elif group == "primitive":
            def count(out, args):
                self.primitive_bytes += 2 * out.nbytes   # complex input and output, computed
        else:
            return None
        return count

    def _lower(self, fn):
        timed = self._timed("lower", fn)

        @functools.wraps(fn)
        def wrapper(e, ctx):
            self.lower_entries += 1
            if ctx.memo.get(e) is not None:
                self.lower_hits += 1
            return timed(e, ctx)

        return wrapper

    def _gridfn_init(self, init):
        self.seconds.setdefault("gridfn_init", 0.0)
        self.calls.setdefault("gridfn_init", 0)

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            t0 = perf_counter()
            init(obj, *args, **kwargs)
            self.seconds["gridfn_init"] += perf_counter() - t0
            self.calls["gridfn_init"] += 1

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        hits = 0
        for m in _modules():
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapper)
                    hits += 1
        return hits

    def install(self):
        for module, func, group in TRACED:
            original = getattr(sys.modules[f"multexode.{module}"], func)
            wrapper = self._timed(group, original, self._after(group))
            if not self._replace_everywhere(original, wrapper):
                raise RuntimeError(f"no binding of multexode.{module}.{func} was patched")
        original = sys.modules["multexode.lower"].lower
        self._replace_everywhere(original, self._lower(original))
        cls = sys.modules["multexode.gridfn"].GridFn
        self._saved.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._gridfn_init(cls.__init__)
        self._verify()

    def _verify(self):
        """Every from-import binding named in the design must now be a wrapper."""
        for module, attr in (
            ("solver", "lower"), ("auxiliary", "lower"), ("oracle", "lower"), ("lower", "lower"),
            ("lower", "trig_family"), ("lower", "zero_free_interval"), ("oracle", "primitive_values"),
            ("cli", "solve_ivp"), ("cli", "dyson"), ("cli", "rk4"), ("solver", "parse"),
        ):
            if not hasattr(getattr(sys.modules[f"multexode.{module}"], attr), "__wrapped__"):
                raise RuntimeError(f"multexode.{module}.{attr} is not traced")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- report -------------------------------------------------------------

    def metrics(self, ops, bytes_written, typed, untyped, overhead_pct):
        """Per-operation layer metrics over ``ops`` traced operations."""
        ms = {g: 1000.0 * s / ops for g, s in self.seconds.items()}
        per = {g: c / ops for g, c in self.calls.items()}
        cli_nested = ms["cli_config"] + ms["solver"] + ms["companion"] + ms["dyson"] + ms["rk4"]
        return {
            "parser.parse_ms": (ms["parser"], "ms/op"),
            "coeffexpr.symbolic_ms": (ms["symbolic"], "ms/op"),
            "auxiliary.chain_ms": (ms["chain"], "ms/op"),
            "lower.calls": (per["lower"], "count/op"),
            "lower.memo_hit_ratio": (self.lower_hits / max(self.lower_entries, 1), "ratio"),
            "multex.trig_family_ms": (ms["trig_family"], "ms/op"),
            "multex.trig_family_calls": (per["trig_family"], "count/op"),
            "multex.series_terms": (self.series_terms / ops, "count/op"),
            "gridfn.primitive_ms": (ms["primitive"], "ms/op"),
            "gridfn.primitive_calls": (per["primitive"], "count/op"),
            "gridfn.primitive_mb": (self.primitive_bytes / 1e6 / ops, "MB/op"),
            "gridfn.zero_free_ms": (ms["zero_free"], "ms/op"),
            "gridfn.zero_free_calls": (per["zero_free"], "count/op"),
            "gridfn.objects": (per["gridfn_init"], "count/op"),
            "gridfn.init_ms": (ms["gridfn_init"], "ms/op"),
            "solver.basis_ms": (ms["solver"], "ms/op"),
            "solver.self_ms": (ms["solver"] - ms["chain"], "ms/op"),
            "oracle.companion_ms": (ms["companion"], "ms/op"),
            "oracle.dyson_ms": (ms["dyson"], "ms/op"),
            "oracle.dyson_terms": (self.dyson_terms / ops, "count/op"),
            "oracle.rk4_ms": (ms["rk4"], "ms/op"),
            "cli.config_ms": (ms["cli_config"], "ms/op"),
            "cli.self_ms": (ms["cli"] - cli_nested if per["cli"] else 0.0, "ms/op"),
            "cli.bytes_written": (bytes_written / ops, "B/op"),
            "errors.typed": (typed / ops, "count/op"),
            "errors.untyped": (untyped / ops, "count/op"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }


def self_test(workload, metrics):
    """Names of layer metrics that read zero on a workload meant to exercise them."""
    return [
        name for name, (_, targets) in LAYER_TARGETS.items()
        if workload in targets and not metrics[name][0] > 0
    ]
