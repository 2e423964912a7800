"""Self-test of the benchmark itself (not of aolab).

    python3 bench/selftest.py

Checks that every workload runs end to end at a tiny size, timed and
traced; that the oracle rejects deliberately wrong outputs; that a wrapped
function returns what the original returns and is patched in every
namespace that imported it; that two traced runs count the same work; and
that the benchmark refuses to run without the package.  Takes about 40 s
on one core.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
import workloads as W
from hostspeed import HostSpeed
from tracer import Tracer

import numpy as np

MODS = run.import_aolab()
COUNT_SUFFIXES = ("calls", "calls_per_op", "steps_per_op", "probes_per_op", "probe_steps_per_op",
                  "redundancy", "count")


def tiny_plan(workload, workdir):
    """The workload's own plan builder at a tiny size."""
    if workload == "analyze-desk":
        shapes = [s for s in W.DESK_SHAPES if s[1] == 4]
        return W._analyze_plan(shapes, 1, len(shapes), 8, 1.0)(MODS, 0, workdir)
    if workload == "analyze-large":
        shapes = [(f, 8, p) for f, _, p in W.LARGE_SHAPES]
        return W._analyze_plan(shapes, 1, 2, 64, 1.0)(MODS, 0, workdir)
    plan = W.WORKLOADS[workload](MODS, 0, workdir)
    if workload == "suites":
        first = {}
        for op in plan.rounds[0]:
            first.setdefault(op.label, op)
        ops = list(first.values())
    else:
        ops = plan.rounds[0][:6]
    return replace(plan, rounds=[ops], trace_ops=ops)


def bench_cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class Smoke(unittest.TestCase):
    def setUp(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=run.WORK_DIR))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_each_workload_timed_and_traced(self):
        e2e = run.declared_metrics(0)
        layers = run.declared_metrics(1)
        for name in W.WORKLOADS:
            with self.subTest(workload=name):
                plan = tiny_plan(name, self.workdir)
                run.run_op(plan.warmup)
                host = HostSpeed(plan.host_dim)
                records, rounds, op_factors = run.timed_phase(plan, 0, host)
                self.assertEqual((len(records), rounds), (len(plan.rounds[0]), 1))
                self.assertGreaterEqual(len(host.samples), 3)
                self.assertEqual(set(run.end_to_end(records, 1.0, 1.0, host.factor(), op_factors)), set(e2e))
                _, metrics, problems, _ = run.traced_run(plan)
                self.assertEqual(problems, [])
                self.assertEqual(set(metrics), set(layers))

    def test_cli_result_line_and_repeatable_counts(self):
        layers, tallies = [], []
        for trace in ("0", "0", "1", "1"):
            proc = bench_cli("--workload", "structure-stress", "--seed", "3", "--seconds", "0",
                             "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), set(run.declared_metrics(int(trace))))
            if trace == "0":
                tallies.append((result["attempted"], result["failed"]))
            else:
                layers.append({k: v["value"] for k, v in result["metrics"].items()
                               if k.rsplit(".", 1)[-1] in COUNT_SUFFIXES})
        self.assertEqual(layers[0], layers[1])
        # The timed phase plays a round count fixed by --seconds, so a seed's
        # ops and failures repeat exactly.
        self.assertEqual(tallies[0], tallies[1])

    def test_refuses_to_run_without_the_package(self):
        bare = self.workdir / "bare"
        shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench_cli("--workload", "suites", "--seed", "0", "--seconds", "1", "--trace", "0",
                         cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Oracle(unittest.TestCase):
    def report(self, A, seed=0):
        return json.loads(_analyze_text(A, seed))

    def test_accepts_true_and_rejects_wrong_unitary_report(self):
        rep = self.report(MODS.generators.dft4())
        self.assertEqual(W.check_report("unitary", 0, rep), "")
        rep["criteria"]["orbits_convergent"] = False
        self.assertIn("orbits_convergent", W.check_report("unitary", 0, rep))
        self.assertNotEqual(W.check_report("unitary", 2, self.report(MODS.generators.dft4())), "")

    def test_rejects_wrong_oblique_jordan_normaloid_reports(self):
        rep = self.report(MODS.generators.canonical_oblique())
        self.assertEqual(W.check_report("oblique", 0, rep), "")
        rep["criteria"]["witness"] = None
        self.assertEqual(W.check_report("oblique", 0, rep), "no witness orbit")
        rep = self.report(MODS.generators.gen_jordan_perturbation(3, 1j, 1.0, 1))
        self.assertEqual(W.check_report("jordan", 0, rep), "")
        rep["criteria"]["power_bounded"] = True
        self.assertNotEqual(W.check_report("jordan", 0, rep), "")
        self.assertNotEqual(W.check_report("normaloid", 0, {"criteria": {}}), "")

    def test_planted_roots_and_indices(self):
        planted = [(0.5 + 0.2j, 2), (-0.6 + 0j, 1)]
        A = MODS.generators.gen_planted_jordan(4, planted, 10.0, 7)
        rep = self.report(A)
        self.assertEqual(W.check_report("planted", 0, rep, planted), "")
        self.assertIn("index", W.check_report("planted", 0, rep, [(0.5 + 0.2j, 1), (-0.6, 1)]))
        self.assertIn("away", W.check_report("planted", 0, rep, [(0.5 + 0.3j, 2), (-0.6, 1)]))
        self.assertIn("roots", W.match_roots(planted, [(0.5 + 0.2j, 2)]))

    def test_stress_op_failure_is_counted_not_raised(self):
        bad = W.Op("x", lambda: (_ for _ in ()).throw(MODS.errors.DecompositionError("no")),
                   lambda r: W.Outcome(True))
        _, outcome = run.run_op(bad)
        self.assertEqual((outcome.ok, outcome.error), (False, "DecompositionError"))


class Wrapping(unittest.TestCase):
    def test_wrapped_functions_return_original_results(self):
        A = MODS.generators.gen_planted_jordan(6, [(0.4j, 3), (-0.7, 2)], 50.0, 2)
        cfg = MODS.config.RunConfig(seed=5)
        plain_mp = MODS.structure.minimal_polynomial(A)
        plain_rep = MODS.criteria.theorem_check(A, cfg).to_obj()
        originals = {m: getattr(MODS, m).minimal_polynomial
                     for m in ("structure", "criteria", "stability", "suites", "cli")}
        tracer = Tracer()
        with tracer.patched():
            for mod in ("structure", "criteria", "stability", "suites", "cli"):
                wrapped = getattr(MODS, mod).minimal_polynomial
                self.assertIs(wrapped.__wrapped_original__, originals[mod])
            for mod in ("criteria", "stability", "suites"):
                self.assertTrue(hasattr(getattr(MODS, mod).orbit_norms_batch, "__wrapped_original__"))
            self.assertEqual(MODS.structure.minimal_polynomial(A), plain_mp)
            self.assertEqual(MODS.criteria.theorem_check(A, cfg).to_obj(), plain_rep)
        for mod, fn in originals.items():
            self.assertIs(getattr(MODS, mod).minimal_polynomial, fn)
        summary = tracer.summary()
        self.assertEqual(summary["structure.minimal_polynomial"]["calls"], 2)
        self.assertEqual(summary["criteria.theorem_check"]["calls"], 1)
        for row in summary.values():
            self.assertGreaterEqual(row["self_ns"], 0)
            self.assertLessEqual(row["self_ns"], row["incl_ns"])

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.patched():
            with tracer.span("outer"):
                MODS.linalg.operator_norm(np.eye(3))
        summ = tracer.summary()
        outer, child = summ["outer"], summ["linalg.operator_norm"]
        self.assertEqual(outer["self_ns"], outer["incl_ns"] - child["incl_ns"])
        self.assertEqual(summ["linalg.as_matrix"]["calls"], 1)

    def test_exceptions_recorded_and_reraised(self):
        tracer = Tracer()
        tracer.op = 0
        with tracer.patched():
            with self.assertRaises(MODS.errors.InvalidInputError):
                with tracer.span("bench.op"):
                    MODS.linalg.as_matrix(np.ones((2, 3)))
        self.assertEqual(tracer.caught_exception(0, "bench.op"), "InvalidInputError")


def _analyze_text(A, seed):
    work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        inp, out = work / "in.json", work / "out.json"
        inp.write_text(MODS.jsonout.dumps(MODS.linalg.matrix_to_obj(A)))
        MODS.cli.main(["analyze", "--input", str(inp), "--out", str(out), "--seed", str(seed)])
        return out.read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    run.WORK_DIR.mkdir(exist_ok=True)
    unittest.main()
