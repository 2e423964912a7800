#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs and compare every end-to-end
metric.

    python scripts/bench_pairs.py --parent HEAD~1 --change HEAD --workload suites
    python scripts/bench_pairs.py --workload suites --dry-run

Each commit is exported with ``git archive`` into a temporary directory
(the repository is only read), and ``bench/run.py`` runs in each export,
one process at a time, for the run length in BENCHMARK.json.  Ten pairs
run, the number the gain rule below is stated for: seeds 1 to 10, each on
both commits, the parent first on odd seeds and the change first on even
ones.
For every end-to-end metric of BENCHMARK.json the script prints each
side's median and quartiles, the ratio of the medians, the pairs in which
the change read better (ties count for neither), whether the change stayed
within the metric's bound and whether it met the gain rule: better in at
least nine tenths of the pairs, with medians further apart than the
parent's interquartile range.  The same numbers, with every run's result
line, go as JSON to ``--out``.  ``--dry-run`` prints the run order and
runs nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = range(1, 11)


def run_order(workloads):
    """(workload, seed, side) in the order the runs are made."""
    order = []
    for workload in workloads:
        for seed in SEEDS:
            sides = SIDES if seed % 2 else SIDES[::-1]
            order += [(workload, seed, side) for side in sides]
    return order


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the tree of ``commit`` into ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced ``bench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def change_wins(parent, change, higher: bool) -> int:
    """The aligned pairs in which the change read better; ties count for
    neither."""
    return sum((c > p) if higher else (c < p) for p, c in zip(parent, change))


def compare(parent_runs, change_runs, metric) -> dict:
    """One end-to-end metric (a BENCHMARK.json entry) over aligned pairs."""
    name, higher = metric["name"], metric["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in parent_runs]
    c = [r["metrics"][name]["value"] for r in change_runs]
    wins, ps, cs = change_wins(p, c, higher), spread(p), spread(c)
    ratio = cs["median"] / ps["median"]
    worse = (1 - ratio) if higher else (ratio - 1)
    better = cs["median"] > ps["median"] if higher else cs["median"] < ps["median"]
    return {
        "parent": ps,
        "change": cs,
        "ratio": ratio,
        "change_wins": wins,
        "pairs": len(p),
        "bound": metric["bound"],
        "within_bound": worse <= metric["bound"],
        "gain": better and wins >= 0.9 * len(p)
        and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
    }


def summarize(runs, spec) -> dict:
    """Per-metric comparison and failure counts of one workload's runs."""
    return {
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "metrics": {
            m["name"]: compare(runs["parent"], runs["change"], m) for m in spec["end_to_end"]
        },
    }


def print_summary(workload, summary) -> None:
    print(f"{workload}: correct {summary['correct']}; failed/attempted per run "
          + ", ".join(f"{side} " + " ".join(f"{f}/{a}" for f, a in zip(
              summary["failed"][side], summary["attempted"][side])) for side in SIDES))
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        flags = ("" if m["within_bound"] else "  WORSE THAN BOUND") + ("  gain" if m["gain"] else "")
        print(f"  {name:12s} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
              f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  ratio {m['ratio']:.4f}  "
              f"change better {m['change_wins']}/{m['pairs']}{flags}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD~1")
    p.add_argument("--change", default="HEAD")
    p.add_argument("--workload", action="append", choices=names,
                   help="repeatable; default: every workload")
    p.add_argument("--out", default=str(ROOT / ".bench_out" / "pairs.json"))
    p.add_argument("--dry-run", action="store_true")
    args = p.parse_args(argv)
    workloads = args.workload or names
    order = run_order(workloads)
    commits = {"parent": args.parent, "change": args.change}

    if args.dry_run:
        for workload, seed, side in order:
            print(f"{workload} seed {seed} {side} {commits[side]}")
        return 0

    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}") for side, ref in commits.items()}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for workload, seed, side in order:
            result = bench(trees[side], workload, seed, spec["run_seconds"])
            runs[workload][side].append(result)
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    report = {
        "parent": commits["parent"],
        "change": commits["change"],
        "seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in workloads:
        summary = summarize(runs[workload], spec)
        print_summary(workload, summary)
        report["workloads"][workload] = {**summary, "runs": runs[workload]}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
