"""Deterministic JSON serialization: fixed key order (insertion order of the
dicts we build), floats with 17 significant digits, so identical inputs give
byte-identical reports.

One traversal lays the document out as a %-format string, with a ``%s``
placeholder per float.  The finiteness check and the choice of each float's
format run as array operations over all the floats, and one ``%`` call
formats them.
"""

from __future__ import annotations

import json

import numpy as np

_NONFINITE = "non-finite float in JSON output"


def dumps(obj, indent: int = 2) -> str:
    out, floats = [], []
    _layout(obj, out, floats, indent, 0)
    out.append("\n")
    x = _finite(floats)
    integral = (x == np.trunc(x)) & (np.abs(x) < 1e16)
    specs = np.where(integral, "%.1f", "%.17g").tolist()
    # The first % puts each float's format in its placeholder, the second
    # formats the floats.
    return ("".join(out) % tuple(specs)) % tuple(floats)


def _finite(floats) -> np.ndarray:
    x = np.array(floats, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(_NONFINITE)
    return x


def _string(s: str) -> str:
    # Escaped once for each of the two % calls in dumps.
    return json.dumps(s).replace("%", "%%%%")


def _layout(obj, out, floats, indent, level):
    # No value is an instance of two of these types, except a bool, which
    # is also an int; floats and containers, the most frequent, go first.
    if isinstance(obj, float):
        out.append("%s")
        floats.append(obj)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = " " * (indent * (level + 1))
        sep = "[\n" + pad
        for v in obj:
            out.append(sep)
            if isinstance(v, float):
                out.append("%s")
                floats.append(v)
            else:
                _layout(v, out, floats, indent, level + 1)
            sep = ",\n" + pad
        out.append("\n" + " " * (indent * level) + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = " " * (indent * (level + 1))
        sep = "{\n"
        for k, v in obj.items():
            out.append(f"{sep}{pad}{_string(str(k))}: ")
            _layout(v, out, floats, indent, level + 1)
            sep = ",\n"
        out.append("\n" + " " * (indent * level) + "}")
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    else:
        _finite(floats)  # a non-finite float earlier in the document is the first fault
        raise TypeError(f"cannot serialize {type(obj).__name__}")
