"""aolab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload analyze-desk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the timed phase plays the number of whole rounds of
the workload's schedule that take ``--seconds`` on the reference core (a
count fixed by the seconds, not by the clock) and reports the end-to-end
metrics, times divided by the host factor (see hostspeed.py).  With
``--trace 1`` it plays the workload's fixed trace list once
untraced and twice traced, checks that the two traced passes count the
same work and that all three passes give the same outputs, and reports the
per-layer metrics.  Every op's output is checked by the workload's oracle.
The last line of standard output is the JSON result; a table and the run
metadata come before it, and ``.bench_out/`` receives the per-op records
(and, traced, the spans).  See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread in this process's own environment, before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SUITE_MIX, WORKLOADS, Outcome  # noqa: E402

SETUP_REPS = 5
SUBMODULES = (
    "config", "errors", "linalg", "structure", "criteria", "stability",
    "generators", "suites", "jsonout", "cli",
)
# Failure classes with a per-layer counter of their own; any other
# exception class counts as other_error.
FAILURE_CLASSES = ("DecompositionError", "IllConditionedSpectrumError", "InconsistencyError")


class BenchError(Exception):
    """The benchmark cannot run or cannot check its ops."""


def import_aolab():
    """Import (or re-import) aolab from this checkout's src/."""
    if not (SRC / "aolab" / "__init__.py").is_file():
        raise BenchError(f"no aolab package at {SRC / 'aolab'}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "aolab" or n.startswith("aolab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("aolab")
    if Path(pkg.__file__).resolve().parent != (SRC / "aolab").resolve():
        raise BenchError(f"imported aolab from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"aolab.{m}") for m in SUBMODULES})


def run_op(op, tracer=None, index=0):
    """Time one op (the oracle check is not timed); returns (seconds, Outcome)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.execute()
        else:
            tracer.op = index
            with tracer.span("bench.op"):
                out = op.execute()
    except Exception as exc:  # the program failed this op; counted, the run goes on
        return time.perf_counter() - t0, Outcome(False, str(exc)[:200], error=type(exc).__name__)
    dt = time.perf_counter() - t0
    return dt, op.check(out)


def setup(workload, seed, workdir, reps):
    """Import aolab, build the inputs, write the input files and run the
    untimed warm-up op, ``reps`` times, taking host-speed samples between
    the set-ups; returns the last plan, the warm-up outcome, the median
    set-up time in seconds as measured, and the host factor of the
    set-ups."""
    times, host = [], None
    for _ in range(reps):
        if host is not None:
            host.sample(3)
        t0 = time.perf_counter()
        mods = import_aolab()
        plan = WORKLOADS[workload](mods, seed, workdir)
        _, warm = run_op(plan.warmup)
        times.append(time.perf_counter() - t0)
        if host is None:
            host = HostSpeed(plan.host_dim)
            host.sample(3)
    return plan, warm, statistics.median(times), host.factor()


def n_rounds(plan, seconds):
    """Rounds a run of ``seconds`` plays: fixed by the workload and the
    seconds alone, never by the clock, so that a seed's ops (and failures)
    repeat exactly from run to run."""
    return max(1, math.floor(seconds / plan.round_s + 0.5))


def timed_phase(plan, seconds, host):
    """The run's rounds, host-speed samples between ops;
    [(label, s, Outcome)], the number of rounds and each op's local host
    factor."""
    records, spans = [], []
    host.sample(3)
    rounds = n_rounds(plan, seconds)
    for r in range(rounds):
        for op in plan.rounds[r % len(plan.rounds)]:
            host.keep_up()
            start = time.perf_counter()
            dt, outcome = run_op(op)
            records.append((op.label, dt, outcome))
            spans.append((start, start + dt))
    host.sample(3)
    return records, rounds, [host.local_factor(a, b) for a, b in spans]


def tail(latencies):
    """(value, percentile) of the highest whole percentile with at least
    ten samples beyond it, or None below 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(latencies)[rank - 1], pct


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, setup_s, setup_factor, run_factor, op_factors):
    """The gated metrics, times divided by the host factor of their phase
    (op latencies by their own local factor)."""
    lat = [dt for _, dt, _ in records]
    return {
        "ops_per_s": run_factor * len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median([dt / f for dt, f in zip(lat, op_factors)]),
        "setup_s": setup_s / setup_factor,
        "peak_rss_mb": peak_rss_mb(),
    }


def failure_class(tracer, index, op, outcome):
    name = outcome.error
    if name is None and outcome.caught and op.entry:
        name = tracer.caught_exception(index, op.entry)
    if name is None:
        return "wrong_output"
    return name if name in FAILURE_CLASSES else "other_error"


def per_layer(tracer, ops, results, base_seconds):
    n = len(results)
    summ = tracer.summary()

    def row(fn):
        return summ.get(fn, {"calls": 0, "incl_ns": 0, "self_ns": 0})

    def self_ms(fn):
        return row(fn)["self_ns"] / 1e6 / n

    def ratio(num, den):
        return num / den if den else 0.0

    steps = tracer.counter_total("criteria.power_log_norms", "steps")
    horizon = tracer.counter_total("criteria.power_log_norms", "max:horizon")
    probe_steps = tracer.counter_total("criteria.orbit_norms_batch", "probe_steps")
    orbit_steps = tracer.counter_total("criteria.orbit_log_norms", "steps")
    m = {
        "criteria.power_log_norms.steps_per_op": steps / n,
        "criteria.power_log_norms.us_per_step": ratio(row("criteria.power_log_norms")["incl_ns"] / 1e3, steps),
        "criteria.power_log_norms.redundancy": ratio(steps, horizon),
        "criteria.orbit_norms_batch.probe_steps_per_op": probe_steps / n,
        "criteria.orbit_norms_batch.us_per_probe_step": ratio(row("criteria.orbit_norms_batch")["incl_ns"] / 1e3, probe_steps),
        "criteria.orbit_log_norms.steps_per_op": orbit_steps / n,
        "criteria.orbit_log_norms.us_per_step": ratio(row("criteria.orbit_log_norms")["incl_ns"] / 1e3, orbit_steps),
        "criteria.theorem_check.probes_per_op": tracer.counter_total("criteria.theorem_check", "probes") / n,
        "criteria.classify_sequence.calls_per_op": row("criteria.classify_sequence")["calls"] / n,
        "criteria.classify_sequence.self_ms": self_ms("criteria.classify_sequence"),
        "criteria.scalar_re_sequence.calls": row("criteria.scalar_re_sequence")["calls"],
        "criteria.scalar_re_sequence.self_ms": self_ms("criteria.scalar_re_sequence"),
        "criteria.is_power_bounded.self_ms": self_ms("criteria.is_power_bounded"),
        "criteria.is_normaloid.self_ms": self_ms("criteria.is_normaloid"),
        "structure.minimal_polynomial.calls_per_op": row("structure.minimal_polynomial")["calls"] / n,
        "structure.minimal_polynomial.self_ms": self_ms("structure.minimal_polynomial"),
        "structure.decompose.calls_per_op": row("structure.decompose")["calls"] / n,
        "structure.decompose.self_ms": self_ms("structure.decompose"),
        "linalg.cluster_points.calls": row("linalg.cluster_points")["calls"],
        "linalg.cluster_points.self_ms": self_ms("linalg.cluster_points"),
        "linalg.operator_norm.calls": row("linalg.operator_norm")["calls"],
        "linalg.spectrum.self_ms": self_ms("linalg.spectrum"),
        "stability.uniform_stability.self_ms": self_ms("stability.uniform_stability"),
        "stability.growth_bound.self_ms": self_ms("stability.growth_bound"),
        "stability.normal_limit.self_ms": self_ms("stability.normal_limit"),
        "stability.orbit_root_limit.self_ms": self_ms("stability.orbit_root_limit"),
        "stability.normaloid_equivalence.self_ms": self_ms("stability.normaloid_equivalence"),
        "cli.cmd_analyze.self_ms": self_ms("cli.cmd_analyze"),
        "jsonout.dumps.self_ms": self_ms("jsonout.dumps"),
    }
    for suite, _, _ in SUITE_MIX:
        fn = f"suites.{suite}"
        trials = tracer.counter_total(fn, "trials")
        m[f"{fn}.ms_per_trial"] = ratio(row(fn)["incl_ns"] / 1e6, trials)
    failures = Counter(
        failure_class(tracer, i, op, outcome)
        for i, (op, (_, outcome)) in enumerate(zip(ops, results))
        if not outcome.ok
    )
    for cls in ("wrong_output", *FAILURE_CLASSES, "other_error"):
        m[f"failed.{cls}.count"] = failures[cls]
    traced_s = sum(dt for dt, _ in results)
    m["trace.overhead_frac"] = 1.0 - base_seconds / traced_s
    return m


def traced_run(plan):
    """One untraced and two traced passes over the trace list, interleaved
    op by op so that drift in machine speed hits all three alike."""
    ops = plan.trace_ops
    base = []
    passes = [(Tracer(), []), (Tracer(), [])]
    for i, op in enumerate(ops):
        base.append(run_op(op))
        for tracer, results in passes:
            with tracer.patched():
                results.append(run_op(op, tracer, i))
    problems = []
    if passes[0][0].counts() != passes[1][0].counts():
        problems.append("trace counts differ between the two traced passes")
    for name, results in (("first traced", passes[0][1]), ("second traced", passes[1][1])):
        if [o for _, o in results] != [o for _, o in base]:
            problems.append(f"{name} pass outputs differ from the untraced pass")
    tracer, results = passes[1]
    metrics = per_layer(tracer, ops, results, sum(dt for dt, _ in base))
    records = [(op.label, dt, o) for op, (dt, o) in zip(ops, results)]
    return records, metrics, problems, tracer


# ---------------------------------------------------------------------------
# Metadata and output
# ---------------------------------------------------------------------------

def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(args, units, meta, records, metrics, setup_s, factors, warm, problems, rounds, tracer):
    lat = [dt for _, dt, _ in records]
    failed = [(label, o) for label, _, o in records if not o.ok]
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    print(f"aolab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("meta " + json.dumps(meta))
    if rounds is not None:
        setup_factor, run_factor = factors
        print(f"ops: {len(lat)} in {rounds} rounds; warm-up op "
              f"{'passed' if warm.ok else 'FAILED: ' + warm.reason}")
        print(f"host factor: set-up {setup_factor:.4f}, timed phase {run_factor:.4f}; "
              "times below are divided by it, as measured in brackets")
        t = tail(lat)
        print(f"  ops_per_s    {metrics['ops_per_s']:.6g} op/s ({len(lat) / sum(lat):.6g})")
        print(f"  op_p50_ms    {metrics['op_p50_ms']:.6g} ms ({1000 * statistics.median(lat):.6g})")
        print("  op_tail_ms   " + (f"{1000 * t[0] / run_factor:.6g} ms ({1000 * t[0]:.6g}; "
                                   f"p{t[1]} of {len(lat)} ops, >= 10 beyond)"
                                   if t else f"omitted ({len(lat)} ops; needs at least 11)"))
        print(f"  failed_frac  {len(failed) / len(lat):.6g} ratio ({len(failed)} of {len(lat)})")
        print(f"  setup_s      {metrics['setup_s']:.6g} s ({setup_s:.6g}; median of {SETUP_REPS})")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.6g} MiB")
    else:
        print(f"trace list: {len(lat)} ops, one untraced and two traced passes")
        for name, value in metrics.items():
            print(f"  {name:48s} {value:.6g} {units[name]}")
    digests = [o.digest for _, _, o in records if o.digest]
    if digests:
        joined = hashlib.sha256("".join(digests).encode()).hexdigest()[:16]
        print(f"report digest {joined} (information only)")
    if failed:
        by_shape = Counter(label for label, _ in failed)
        print("failed ops by shape: " + ", ".join(f"{k} {v}" for k, v in sorted(by_shape.items())))
        print(f"first failure: {failed[0][0]}: {failed[0][1].error or ''} {failed[0][1].reason}")
    for p in problems:
        print(f"PROBLEM: {p}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "meta": meta,
            "metrics": metrics,
            "host_factors": factors,
            "ops": [{"label": label, "ms": 1000 * dt, "ok": o.ok, "error": o.error,
                     "reason": o.reason, "digest": o.digest} for label, dt, o in records],
        }, fh, indent=1)
    if tracer is not None:
        with open(f"{stem}.spans.tsv", "w", encoding="utf-8") as fh:
            tracer.dump(fh)

    print(json.dumps({
        "correct": not problems,
        "attempted": len(lat),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def parse_args(argv):
    p = argparse.ArgumentParser(description="aolab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_metrics(args.trace)
    meta = run_metadata(args)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        reps = 1 if args.trace else SETUP_REPS
        plan, warm, setup_s, setup_factor = setup(args.workload, args.seed, workdir, reps)
        if args.trace:
            records, metrics, problems, tracer = traced_run(plan)
            rounds = factors = None
        else:
            run_host = HostSpeed(plan.host_dim)
            records, rounds, op_factors = timed_phase(plan, args.seconds, run_host)
            factors = (setup_factor, run_host.factor())
            metrics = end_to_end(records, setup_s, *factors, op_factors)
            problems, tracer = [], None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    report(args, units, meta, records, metrics, setup_s, factors, warm, problems, rounds, tracer)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        sys.exit(2)
