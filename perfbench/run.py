#!/usr/bin/env python3
"""Repository benchmark for multexode.

    python3 perfbench/run.py --workload fine-distinct --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: the next operation
starts only after the previous one returned.  Every operation's output is
checked against references computed before timing starts; failures are
counted and listed by input, never abort the run.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced operations, each also run untraced next to it.
``--workload all`` runs each workload in its own fresh process.
See perfbench/README.md for the metric definitions.
"""

import os

# pin BLAS threads before numpy is imported (here and in every child process)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import Outcome, digest, mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fine-distinct", "coarse-sweep", "cli-compare")
MIN_SAMPLES = 100       # so the 90th percentile has at least ten samples beyond it
SETUP_PROBES = 5
HARD_CAP_S = 100.0      # no measuring loop runs longer than this


def import_library():
    """Import multexode from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "multexode" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src}")
    sys.path.insert(0, str(src))
    import multexode
    import multexode.cli  # not imported by the package itself

    if Path(multexode.__file__).resolve().parent != (src / "multexode").resolve():
        sys.exit(f"perfbench: imported multexode from {multexode.__file__}, not from {src}")
    return multexode


def environment():
    import numpy

    sha = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass  # no git, or not a repository: the source hash identifies the code
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multexode").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Record:
    __slots__ = ("index", "seconds", "outcome", "error")

    def __init__(self, index, seconds, outcome, error):
        self.index = index
        self.seconds = seconds
        self.outcome = outcome
        self.error = error      # None, "typed" or "untyped"


def attempt(wl, index, refs):
    """Run one operation and check it; every failure is returned, none raised."""
    op = wl.ops[index]
    t0 = perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # counted and listed by input, never aborts the run
        result, error = None, exc
    seconds = perf_counter() - t0
    if error is not None:
        kind = "typed" if isinstance(error, mod("errors").MultexodeError) else "untyped"
        outcome = Outcome(digest(type(error).__name__, str(error)), f"{type(error).__name__}: {error}")
        return Record(index, seconds, outcome, kind)
    try:
        outcome = op.check(result, refs)
    except Exception as exc:  # unreadable output is a failure of this operation
        outcome = Outcome(digest("check", str(exc)), f"output check raised {type(exc).__name__}: {exc}")
    return Record(index, seconds, outcome, None)


def run_loop(wl, refs, seconds):
    """Closed loop over whole passes of the workload's operations, in order,
    until ``seconds`` have passed and MIN_SAMPLES operations have run.  Whole
    passes run every operation and keep the mix of operations, and so the
    latency percentiles, the same from run to run."""
    records = []
    start = perf_counter()
    while True:
        records += [attempt(wl, index, refs) for index in range(len(wl.ops))]
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(records) >= MIN_SAMPLES) or elapsed >= HARD_CAP_S:
            return records


def run_traced(wl, refs):
    """One pass in which each operation runs twice in a row, untraced and
    traced, in alternating order, so both see the same operations at nearly
    the same time and machine drift cancels out of the tracing overhead."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for index in range(len(wl.ops)):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(attempt(wl, index, refs))
                continue
            tracer.install()
            try:
                traced.append(attempt(wl, index, refs))
            finally:
                tracer.uninstall()
    return tracer, plain, traced


def setup_probe(workload, seed):
    """Fresh-process set-up: import, build the inputs, one warm-up operation."""
    import_library()
    wl = workloads.build(workload, seed, ROOT)
    try:
        try:
            wl.ops[0].run()
        except Exception:  # a failing warm-up still completes set-up
            pass
    finally:
        wl.close()
    print("ready", flush=True)


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
        times.append(t1 - t0)
    return statistics.median(times)


def check_hashes(records, seen):
    """Record each operation's first output hash; return the indices whose
    later output differed."""
    bad = []
    for r in records:
        first = seen.setdefault(r.index, r.outcome.hash)
        if first != r.outcome.hash:
            bad.append(r.index)
    return bad


def list_failures(wl, records):
    for key, reason in sorted((wl.ops[r.index].key, r.outcome.failure) for r in records if r.outcome.failure):
        print(f"FAIL {key}: {reason}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_library()
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    wl = workloads.build(args.workload, args.seed, ROOT)
    try:
        refs = wl.references()
        problems = []
        for key, ref in refs.items():
            if not ref.self_err <= workloads.REF_SELF_TOL:
                problems.append(f"reference oracles disagree by {ref.self_err:.3e} on {wl.problems[key].describe()}")
        seen = {}
        check_hashes([attempt(wl, 0, refs)], seen)

        if args.trace == 0:
            records = run_loop(wl, refs, args.seconds)
            problems += [f"output hash changed between repeats of {wl.ops[i].key}" for i in check_hashes(records, seen)]
            print(f"samples {len(records)}: {len(records) // len(wl.ops)} passes over {len(wl.ops)} operations")
        else:
            tracer, plain, records = run_traced(wl, refs)
            problems += [f"output hash changed between repeats of {wl.ops[i].key}" for i in check_hashes(plain, seen)]
            problems += [f"traced output differs from untraced output of {wl.ops[i].key}" for i in check_hashes(records, seen)]
            overhead = 100.0 * (sum(r.seconds for r in records) / sum(r.seconds for r in plain) - 1.0)
            metrics = tracer.metrics(
                len(records),
                sum(r.outcome.bytes_written for r in records),
                sum(r.error == "typed" for r in records),
                sum(r.error == "untyped" for r in records),
                overhead,
            )
            zero = tracing.self_test(args.workload, metrics)
            problems += [f"self-test: {name} reads zero on {args.workload}" for name in zero]
            print(f"samples {len(records)} traced operations, each also run untraced")
    finally:
        wl.close()

    # every repeat of an operation has the hash of its first run (checked
    # above), so the first run of each says whether the operation failed
    first = {}
    for r in records:
        first.setdefault(r.index, r)
    failed = sum(r.outcome.failure is not None for r in first.values())
    print(f"attempted {len(first)} distinct operations, {failed} failed, fail_frac {failed / len(first):.6g}")
    if args.trace == 0:
        lat = [r.seconds for r in records]
        metrics = {
            "ops_per_s": (sum(r.outcome.failure is None for r in records) / sum(lat), "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "op_p90_ms": (1000.0 * statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
            "ok_frac": (1.0 - failed / len(first), "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    list_failures(wl, first.values())
    for p in problems:
        print(f"PROBLEM {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(first),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process; prints every metric per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
