"""Span tracer that wraps the public functions of the aolab modules.

Every module-level function whose name does not start with ``_`` and that
is defined in one of the traced modules is replaced by a wrapper, in every
``aolab`` namespace that holds a reference to it (``from .criteria import
orbit_norms_batch`` binds the same object in ``stability`` and ``suites``,
so each of those bindings is patched).  The program's own files are not
touched; ``Tracer.patched`` restores the original bindings on exit.

Each call records one span: name, start, end, parent span, the op it
belongs to and the class of any exception that left it.  Spans are kept in
memory; self time is a span's duration minus the durations of its direct
children (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = (
    "linalg", "structure", "criteria", "stability", "generators", "suites", "cli", "jsonout",
)

# Span record fields (lists, so the wrapper can fill in the end time).
NAME, START, END, PARENT, OP, EXC = range(6)


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Work counters taken from a traced call's arguments and result.  Each hook
# returns {counter: amount}; "max:" counters keep the per-op maximum.
def _power_log_norms(fn, args, kwargs, result):
    return {
        "steps": int(np.count_nonzero(np.isfinite(result))),
        "max:horizon": int(_bound(fn, args, kwargs)["n_max"]),
    }


def _orbit_norms_batch(fn, args, kwargs, result):
    norms = result[0]
    return {"probe_steps": (norms.shape[0] - 1) * norms.shape[1]}


def _orbit_log_norms(fn, args, kwargs, result):
    return {"steps": len(result) - 1}


def _theorem_check(fn, args, kwargs, result):
    return {"probes": len(result.probes)}


def _suite(fn, args, kwargs, result):
    return {"trials": int(_bound(fn, args, kwargs).get("trials", 1))}


HOOKS = {
    "criteria.power_log_norms": _power_log_norms,
    "criteria.orbit_norms_batch": _orbit_norms_batch,
    "criteria.orbit_log_norms": _orbit_log_norms,
    "criteria.theorem_check": _theorem_check,
}


class Tracer:
    """Collects spans and work counters for the calls made while patched."""

    def __init__(self):
        self.spans = []
        self.names = []
        self._name_ids = {}
        self._stack = []
        self.op = -1
        # counters[(function, counter)][op] = amount
        self.counters = defaultdict(lambda: defaultdict(int))

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, name, amounts):
        for key, amount in amounts.items():
            per_op = self.counters[(name, key)]
            if key.startswith("max:"):
                per_op[self.op] = max(per_op[self.op], amount)
            else:
                per_op[self.op] += amount

    def wrap(self, name, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name) or (_suite if name.startswith("suites.suite_") else None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[EXC] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                self._record(name, hook(fn, args, kwargs, result))
            return result

        traced.__wrapped_original__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (the op boundary)."""
        rec = [self._name_id(name), time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, package="aolab"):
        """Patch every public function of the traced modules in every
        namespace of ``package`` that binds it; restore on exit."""
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        restore = []
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    restore.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in restore:
                setattr(mod, attr, obj)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def summary(self):
        """Per function name: calls, inclusive ns and self ns."""
        child_ns = defaultdict(int)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
        for i, rec in enumerate(self.spans):
            row = out[self.names[rec[NAME]]]
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["incl_ns"] += dur
            row["self_ns"] += dur - child_ns[i]
        return out

    def counter_total(self, name, key):
        return sum(self.counters[(name, key)].values())

    def counts(self):
        """Everything that must repeat exactly between two traced passes:
        calls per function and every work counter, per op."""
        calls = defaultdict(int)
        for rec in self.spans:
            calls[(self.names[rec[NAME]], rec[OP])] += 1
        counters = {k: dict(v) for k, v in self.counters.items()}
        return dict(calls), counters

    def caught_exception(self, op, entry):
        """Class of the last exception that a direct callee of the ``entry``
        span raised within ``op`` (the entry caught it), or None.

        Ops run one after another, so the spans of ``op`` are contiguous."""
        ops = [rec[OP] for rec in self.spans]
        lo, hi = bisect.bisect_left(ops, op), bisect.bisect_right(ops, op)
        entries = {i for i in range(lo, hi) if self.names[self.spans[i][NAME]] == entry}
        last = None
        for rec in self.spans[lo:hi]:
            if rec[PARENT] in entries and rec[EXC] is not None:
                last = rec[EXC]
        return last

    def dump(self, fh):
        """Write the spans as tab-separated lines: name, start_ns, end_ns,
        parent index, op index, exception class."""
        fh.write("name\tstart_ns\tend_ns\tparent\top\texc\n")
        for rec in self.spans:
            fh.write(f"{self.names[rec[NAME]]}\t{rec[START]}\t{rec[END]}\t"
                     f"{rec[PARENT]}\t{rec[OP]}\t{rec[EXC] or ''}\n")
