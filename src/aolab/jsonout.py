"""Deterministic JSON serialization: fixed key order (insertion order of the
dicts we build), floats with 17 significant digits, so identical inputs give
byte-identical reports.

One recursive pass writes each value where the traversal meets it: a float
as ``%.1f`` when it is integral and |x| < 1e16, else as ``%.17g``, and keys
and strings through ``json.dumps``.  A non-finite float raises ValueError
and an unsupported value TypeError on the spot, so the first bad value in
document order names the exception.
"""

from __future__ import annotations

import json
import math


def dumps(obj, indent: int = 2) -> str:
    out = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in JSON output")
    return "%.1f" % x if abs(x) < 1e16 and x.is_integer() else "%.17g" % x


def _write(obj, out, indent, level):
    # No value is an instance of two of these types, except a bool, which
    # is also an int; floats and containers, the most frequent, go first.
    # Containers are plain lists and tuples only: a record (a named tuple)
    # is written through its to_obj(), never as a list.
    if isinstance(obj, float):
        out.append(_float(obj))
    elif type(obj) in (list, tuple):
        if not obj:
            out.append("[]")
            return
        pad = " " * (indent * (level + 1))
        sep = "[\n" + pad
        for v in obj:
            out.append(sep)
            # Most items are Python floats, finite and not integral, written
            # here: x % 1.0 is 0 exactly when x is integral, nan when it is
            # not finite.
            r = v % 1.0 if type(v) is float else 0.0
            if r and r == r:
                out.append("%.17g" % v)
            elif isinstance(v, float):
                out.append(_float(v))
            else:
                _write(v, out, indent, level + 1)
            sep = ",\n" + pad
        out.append("\n" + " " * (indent * level) + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = " " * (indent * (level + 1))
        sep = "{\n"
        for k, v in obj.items():
            out.append(f"{sep}{pad}{json.dumps(str(k))}: ")
            _write(v, out, indent, level + 1)
            sep = ",\n"
        out.append("\n" + " " * (indent * level) + "}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
