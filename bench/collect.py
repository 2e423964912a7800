"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 --trace-seed 1 --out bench/BENCH_baseline.json

Runs ``bench/run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, one process at a time, with the run length from
BENCHMARK.json, plus one traced run per workload when ``--trace-seed`` is
given.  For every end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median; the traced run's per-layer
metrics are copied as they are.  The summary is printed and, with
``--out``, written as JSON together with the metadata of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = [bench(name, s, spec["run_seconds"], 0) for s in args.seeds]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {m: spread([r["metrics"][m]["value"] for r in runs]) for m in bounds},
        }
        if args.trace_seed is not None:
            traced = bench(name, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
        print(f"{name}: correct {entry['correct']}, failed {sum(entry['failed'])} "
              f"of {sum(entry['attempted'])}")
        for m, s in entry["end_to_end"].items():
            flag = "" if m == "setup_s" or s["iqr_frac"] <= bounds[m] / 3 else "  (above a third of its bound)"
            print(f"  {m:12s} median {s['median']:.6g}  iqr/median {s['iqr_frac']:.3f}  "
                  f"bound {bounds[m]}{flag}")
    if args.out:
        first = ROOT / ".bench_out" / f"{names[0]}-seed{args.seeds[0]}-trace0.json"
        summary["meta"] = json.loads(first.read_text(encoding="utf-8"))["meta"]
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
