"""The four benchmark workloads: seeded instance schedules, the op each one
times, and the oracle that checks every op's output.

A workload is a fixed schedule of instance *shapes* (family, dimension,
indices, condition cap) played in rounds.  The seed draws the numbers
(eigenvalues, similarities, probe seeds) for every round, so the same seed
gives the same inputs, while the amount of work per round stays the same
from seed to seed.  The program only receives the generated matrices (as
matrix JSON files for ``analyze``), the planted-structure matrices, or the
trial seeds of its own property suites.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Planted roots must be recovered within this distance, with equal index.
ROOT_TOL = 1e-6

# Keys of the criteria report that must all be true for a unitary input.
UNITARY_KEYS = ("unitary", "normaloid", "contraction", "orbits_convergent", "power_bounded")


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    # Class of an exception that escaped the op.
    error: str | None = None
    # The op's entry point caught an error itself (analyze exit code 1, a
    # suite trial recorded as failed); the traced run names its class.
    caught: bool = False
    digest: str | None = None


@dataclass
class Op:
    label: str
    execute: Callable[[], object]
    check: Callable[[object], Outcome]
    # Traced function whose direct callees' exceptions explain a failure.
    entry: str = ""


@dataclass
class Plan:
    rounds: list
    warmup: Op
    trace_ops: list
    # Matrix size of the host-speed kernel (see hostspeed.py).
    host_dim: int = 8
    # Seconds one round takes on one 2.0 GHz Xeon core.  A run of S seconds
    # plays S / round_s rounds (at least one), a number fixed by S alone, so
    # the same seed gives the same ops, and the same failures, on any host.
    round_s: float = 1.0


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def match_roots(planted, got) -> str:
    """'' when every planted (z, index) has its own computed root within
    ROOT_TOL and with the same index; otherwise the first mismatch."""
    if len(got) != len(planted):
        return f"{len(got)} roots certified, {len(planted)} planted"
    free = [(complex(z), int(i)) for z, i in got]
    for z, i in planted:
        k = min(range(len(free)), key=lambda j: abs(free[j][0] - z))
        w, j = free.pop(k)
        if abs(w - z) > ROOT_TOL:
            return f"root {z:.6g} recovered {abs(w - z):.2g} away"
        if j != i:
            return f"root {z:.6g} has index {j}, planted {i}"
    return ""


def check_report(family: str, rc: int, report: dict, planted=None) -> str:
    """Oracle for one ``aolab analyze`` report: '' on pass, else the reason."""
    try:
        crit = report["criteria"]
        if family == "unitary":
            if rc != 0:
                return f"exit code {rc}"
            bad = [k for k in UNITARY_KEYS if crit[k] is not True]
            return f"not true: {', '.join(bad)}" if bad else ""
        if family == "oblique":
            if crit["power_bounded"] is not True:
                return "power_bounded is not true"
            if crit["unitary"] is not False or crit["orbits_convergent"] is not False:
                return "unitary or orbits_convergent is not false"
            return "" if crit["witness"] is not None else "no witness orbit"
        if family == "planted":
            roots = [(complex(*r["z"]), r["index"]) for r in report["minimal_polynomial"]["roots"]]
            return match_roots(planted, roots)
        if family == "jordan":
            if report["minimal_polynomial"]["degree"] != 2:
                return f"degree {report['minimal_polynomial']['degree']}, expected 2"
            return "" if crit["power_bounded"] is False else "power_bounded is not false"
        if family == "normaloid":
            return "" if crit["normaloid"] is True else "normaloid is not true"
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks {exc!r}"
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Seeded parameters
# ---------------------------------------------------------------------------

def spread_unimodular(rng, k: int):
    """k unimodular values with angle gaps of at least 0.76 * 2 pi / k."""
    base = 2 * math.pi / k
    angles = rng.uniform(0, 2 * math.pi) + base * np.arange(k) + rng.uniform(-0.12, 0.12, k) * base
    return [complex(math.cos(a), math.sin(a)) for a in angles]


def separated_roots(rng, moduli, min_sep: float = 0.3):
    """Roots with the given moduli and random angles, pairwise at least
    min_sep apart."""
    while True:
        z = np.asarray(moduli) * np.exp(2j * math.pi * rng.uniform(size=len(moduli)))
        if all(abs(z[a] - z[b]) >= min_sep for a in range(len(z)) for b in range(a)):
            return [complex(v) for v in z]


def _subseed(rng) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# analyze-desk / analyze-large
# ---------------------------------------------------------------------------

DESK_SHAPES = [
    shape
    for dim in (4, 8, 16)
    for shape in (
        ("unitary", dim, {"k": dim // 2}),
        ("oblique", dim, {}),
        ("planted", dim, {"indices": (2, 1, 1) if dim == 4 else (3, 2, 1)}),
        ("jordan", dim, {}),
        ("normaloid", dim, {"target": {4: 0.7, 8: 1.0, 16: 3.0}[dim]}),
    )
]

# One round is 17 to 30 s of analyze on one 2.0 GHz Xeon core.  The dim-32
# oblique instance has 32 blocks, hence 992 block-mixing probes.
LARGE_SHAPES = [
    ("oblique", 32, {}),
    ("unitary", 64, {"k": 4}),
    ("planted", 64, {"indices": (3, 2, 1)}),
    ("jordan", 64, {}),
    ("normaloid", 32, {"target": 1.0}),
    ("planted", 32, {"indices": (3, 2, 1)}),
]

WARMUP_SHAPE = ("unitary", 4, {"k": 2})

# Root moduli of the planted analyze shapes.  Like the other shape
# parameters they are fixed, so the decay rates are the same in every
# round; the seed draws the angles and the similarity.
PLANTED_MODULI = (0.9, 0.7, 0.5)


def analyze_instance(gen, family, dim, params, rng):
    """(matrix, planted roots or None) for one analyze shape."""
    seed = _subseed(rng)
    if family == "unitary":
        return gen.gen_unitary_finite_spectrum(dim, spread_unimodular(rng, params["k"]), seed), None
    if family == "oblique":
        return gen.gen_oblique(dim, spread_unimodular(rng, dim), 50.0, seed), None
    if family == "planted":
        idx = params["indices"]
        roots = separated_roots(rng, PLANTED_MODULI[: len(idx)])
        planted = list(zip(roots, idx))
        return gen.gen_planted_jordan(dim, planted, 100.0, seed), planted
    if family == "jordan":
        alpha = complex(np.exp(2j * math.pi * rng.uniform()))
        return gen.gen_jordan_perturbation(dim, alpha, rng.uniform(0.5, 3.0), seed), None
    if family == "normaloid":
        return gen.gen_normaloid_nonnormal(dim, seed, params["target"]), None
    raise ValueError(f"unknown family {family!r}")


def _analyze_op(mods, workdir: Path, name: str, shape, rng) -> Op:
    family, dim, params = shape
    A, planted = analyze_instance(mods.generators, family, dim, params, rng)
    inp, out = workdir / f"{name}.json", workdir / f"{name}.report.json"
    inp.write_text(mods.jsonout.dumps(mods.linalg.matrix_to_obj(A)), encoding="utf-8")
    argv = ["analyze", "--input", str(inp), "--out", str(out), "--seed", str(_subseed(rng))]

    def check(rc):
        if rc == 1:
            return Outcome(False, "exit code 1", caught=True)
        data = out.read_bytes()
        reason = check_report(family, rc, json.loads(data), planted)
        return Outcome(not reason, reason, digest=hashlib.sha256(data).hexdigest()[:16])

    return Op(f"{family}/d{dim}", lambda: mods.cli.main(argv), check, "cli.cmd_analyze")


def _analyze_plan(shapes, n_rounds, n_trace, host_dim, round_s):
    def build(mods, seed, workdir):
        rounds = [
            [_analyze_op(mods, workdir, f"r{r}s{s}", shape, np.random.default_rng([seed, r, s]))
             for s, shape in enumerate(shapes)]
            for r in range(n_rounds)
        ]
        warm = _analyze_op(mods, workdir, "warmup", WARMUP_SHAPE, np.random.default_rng([seed, 1 << 20]))
        return Plan(rounds, warm, rounds[0][:n_trace], host_dim, round_s)
    return build


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# (suite, trials per call, calls per round).  A round holds one twentieth of
# the acceptance trial counts.  Suites that pick their instance family from
# the trial number run as many trials per call as they have families, and
# suite_growth always runs at least one nilpotent trial, so it runs one
# planted and one nilpotent trial per call.
SUITE_MIX = [
    ("suite_theorem_unitary", 1, 10),
    ("suite_theorem_oblique", 1, 10),
    ("suite_decomposition", 1, 5),
    ("suite_jadro", 1, 3),
    ("suite_growth", 2, 3),
    ("suite_scalar", 1, 5),
    ("suite_normal_limit", 1, 5),
    ("suite_normaloid", 2, 3),
    ("suite_root_limit", 3, 2),
    ("suite_taxonomy", 3, 2),
    ("suite_density", 1, 1),
]
SUITES_ROUND_S = 6.5


def _suite_call(mods, suite: str, trials: int, seed: int):
    fn = getattr(mods.suites, suite)
    if suite == "suite_density":
        return fn()
    if suite == "suite_jadro":
        return fn(trials, 20, seed)
    if suite == "suite_normal_limit":
        return fn(trials, 10, seed)
    if suite == "suite_growth":
        return fn(trials, seed, nilpotent_fraction=0.5)
    return fn(trials, seed)


def _suite_op(mods, suite, trials, seed) -> Op:
    def check(res):
        return Outcome(res.ok, "; ".join(res.failures[:2]), caught=not res.ok)

    return Op(suite, lambda: _suite_call(mods, suite, trials, seed), check, f"suites.{suite}")


def _suites_plan(mods, seed, workdir):
    rounds = []
    for r in range(4):
        rng = np.random.default_rng([seed, r])
        rounds.append([
            _suite_op(mods, suite, trials, _subseed(rng))
            for suite, trials, calls in SUITE_MIX
            for _ in range(calls)
        ])
    warm = _suite_op(mods, "suite_theorem_unitary", 1, _subseed(np.random.default_rng([seed, 1 << 20])))
    return Plan(rounds, warm, rounds[0], round_s=SUITES_ROUND_S)


# ---------------------------------------------------------------------------
# structure-stress
# ---------------------------------------------------------------------------

# (dim, kind, indices, cond cap).  "circle": simple roots spread on the unit
# circle; "jordan": well-separated roots (some unimodular) with the given
# indices; "close": the first two roots 1e-3 apart.  Five dim-16, four
# dim-32 and three dim-64 shapes put the median op inside the dim-32
# group rather than in the gap between two groups of op times.
STRESS_SHAPES = [
    (16, "circle", (1,) * 12, 1e4),
    (16, "jordan", (6, 3, 1), 1e2),
    (16, "close", (1, 1, 2), 1e4),
    (16, "jordan", (4, 2, 2, 1), 1e6),
    (16, "jordan", (5, 2, 1), 1e3),
    (32, "circle", (1,) * 16, 1e2),
    (32, "jordan", (6, 4, 2, 1), 1e6),
    (32, "close", (2, 1, 3), 1e2),
    (32, "jordan", (5, 3, 1), 1e4),
    (64, "circle", (1,) * 16, 1e6),
    (64, "jordan", (6, 5, 3), 1e4),
    (64, "close", (1, 1, 4), 1e5),
]

STRESS_ROUNDS = 20
STRESS_ROUND_S = 0.2


def stress_roots(rng, kind: str, m: int):
    if kind == "circle":
        return spread_unimodular(rng, m)
    moduli = np.where(rng.uniform(size=m) < 0.5, 1.0, rng.uniform(0.3, 1.0, m))
    if kind == "jordan":
        return separated_roots(rng, moduli)
    roots = separated_roots(rng, moduli[1:])
    roots.insert(1, roots[0] + 1e-3 * complex(np.exp(2j * math.pi * rng.uniform())))
    return roots


def _stress_op(mods, shape, rng) -> Op:
    dim, kind, idx, cap = shape
    planted = list(zip(stress_roots(rng, kind, len(idx)), idx))
    A = mods.generators.gen_planted_jordan(dim, planted, cap, _subseed(rng))

    def execute():
        mp = mods.structure.minimal_polynomial(A)
        return mp, mods.structure.decompose(A, mp)

    def check(result):
        mp, D = result
        reason = match_roots(planted, list(mp.roots))
        if not reason and D.m != len(mp.roots):
            reason = f"{D.m} blocks for {len(mp.roots)} roots"
        return Outcome(not reason, reason)

    return Op(f"{kind}/d{dim}/cap{cap:.0e}", execute, check)


def _stress_plan(mods, seed, workdir):
    rounds = [
        [_stress_op(mods, shape, np.random.default_rng([seed, r, s]))
         for s, shape in enumerate(STRESS_SHAPES)]
        for r in range(STRESS_ROUNDS)
    ]
    warm = _stress_op(mods, STRESS_SHAPES[0], np.random.default_rng([seed, 1 << 20]))
    return Plan(rounds, warm, [op for rnd in rounds[:3] for op in rnd], round_s=STRESS_ROUND_S)


# name -> builder(mods, seed, workdir) -> Plan
WORKLOADS = {
    "analyze-desk": _analyze_plan(DESK_SHAPES, n_rounds=2, n_trace=len(DESK_SHAPES), host_dim=8,
                                  round_s=6.5),
    "analyze-large": _analyze_plan(LARGE_SHAPES, n_rounds=1, n_trace=2, host_dim=64, round_s=20.0),
    "suites": _suites_plan,
    "structure-stress": _stress_plan,
}
