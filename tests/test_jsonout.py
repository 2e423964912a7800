"""jsonout.dumps against a frozen copy of the recursive writer it replaced:
the same bytes on every document, and the same exception, with the same
message, at the first bad value in document order.

The reference writes each value as the traversal meets it, one call per
float; the package's writer lays the document out first and formats all
floats at once, and every byte must stay as the reference writes it.
"""

import json
import math

import numpy as np
import pytest

from aolab import jsonout
from aolab.cli import EXIT_INCONSISTENT, EXIT_OK, main
from aolab.generators import (
    dft4,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_planted_jordan,
    gen_unitary_finite_spectrum,
)
from aolab.linalg import matrix_to_obj
from aolab.stability import GrowthBound


def reference_fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in JSON output")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def reference_dumps(obj, indent: int = 2) -> str:
    out = []
    _reference_write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _reference_write(obj, out, indent, level):
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(reference_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(k))}: ")
            _reference_write(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _reference_write(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 9999999999999998.0, -9999999999999998.0,
    1e16, -1e16, 1e16 + 2, 1e17, 1e15, 2.0**53, 2.0**53 + 2, 123.0, -7.0, 0.5, 0.1, 1 / 3,
    1e-5, 1e-4, 123456789.125, 1e22, 1e300,
    np.float64(0.1), np.float64(-0.0), np.float64(1e16), np.float64(3.0), np.float64(5e-324),
]

STRINGS = ["", "%", "%s", "%%", "%d%%s%", "50%", '"quoted"', "back\\slash", "é", "ключ", "☃",
           "\U0001f600", "\x00", "\x01\x1f", "tab\there", "new\nline", "\x7f", " "]


def _same(obj, indent=2):
    assert jsonout.dumps(obj, indent) == reference_dumps(obj, indent)


def _random_floats(rng, n):
    """n floats with exponents across the whole float range, subnormals,
    signed zeros and integral values among them."""
    x = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n), rng.integers(-1074, 1025, n))
    k = rng.integers(0, n, n // 4)
    x[k] = np.round(rng.standard_normal(k.size) * 10.0 ** rng.integers(0, 20, k.size))
    x[rng.integers(0, n, n // 16)] = -0.0
    x[rng.integers(0, n, len(EDGE_FLOATS))] = EDGE_FLOATS
    return x


@pytest.mark.parametrize("seed", range(6))
def test_random_matrices_same_bytes(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 65))
    x = _random_floats(rng, 2 * d * d)
    A = (x[0::2] + 1j * x[1::2]).reshape(d, d)
    assert np.isfinite(x).all()
    _same(matrix_to_obj(A))


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_one_float(x):
    assert jsonout.dumps(x) == reference_fmt_float(x) + "\n"
    _same(x)
    _same([x, {"v": x}, (x,)])


def test_nested_containers():
    doc = {
        "empty": [{}, [], (), {"a": []}, [[]], ((),)],
        "tuple": (1, 2.5, (None, True, False), [-0.0, "x"]),
        "deep": [[[[{"k": [1.0, {"m": ()}]}]]]],
        "ints": [0, -1, 10**30, -(10**17)],
        "mixed": [None, True, 3, 3.0, "3", [3], {"3": 3}],
        7: "int key",
        None: "none key",
        True: "bool key",
        2.5: "float key",
    }
    for indent in (2, 0, 4):
        _same(doc, indent)
    for empty in ({}, [], (), "", None, True, 0):
        _same(empty)


def test_strings_and_keys():
    rng = np.random.default_rng(0)
    _same(STRINGS)
    _same({s: s for s in STRINGS})
    _same({s: [float(v), s, {s: float(v)}] for s, v in zip(STRINGS, rng.standard_normal(len(STRINGS)))})
    _same({"%s": [1.0, "%s"], "%%": {"%.17g": 0.1}})


def _fixture_matrices():
    shift = np.eye(4, k=1, dtype=complex)
    return {
        "dft4": dft4(),
        "jordan-2": np.array([[1, 1], [0, 1]], dtype=complex),
        "unitary-8": gen_unitary_finite_spectrum(8, [1, -1, 1j], 0),
        "oblique-4": gen_oblique(4, [1, 1j, -1, -1j], 50.0, 1),
        "jordan-8": gen_jordan_perturbation(8, 1.0, 1.0, 2),
        "normaloid-4": gen_normaloid_nonnormal(4, 3, 1.0),
        "planted-nilpotent-8": gen_planted_jordan(8, [(0, 3)], 100.0, 0),
        "slow-decay": 0.99 * np.eye(4) + 30 * shift,
        "diag-1e200": np.diag([1e200, 0.5]).astype(complex),
    }


@pytest.mark.parametrize("name", list(_fixture_matrices()))
def test_analyze_reports_same_bytes(name, tmp_path, monkeypatch):
    A = _fixture_matrices()[name]
    inp, out = tmp_path / "m.json", tmp_path / "r.json"
    inp.write_text(jsonout.dumps(matrix_to_obj(A)))
    assert inp.read_text() == reference_dumps(matrix_to_obj(A))
    reports = []
    dumps = jsonout.dumps

    def recorded(obj, *args):
        reports.append(obj)
        return dumps(obj, *args)

    monkeypatch.setattr(jsonout, "dumps", recorded)
    assert main(["analyze", "--input", str(inp), "--out", str(out), "--seed", "0"]) in (
        EXIT_OK, EXIT_INCONSISTENT)
    assert len(reports) == 1
    assert out.read_text() == reference_dumps(reports[0])


def _raised(fn, obj):
    with pytest.raises((ValueError, TypeError)) as info:
        fn(obj)
    return type(info.value), str(info.value)


NONFINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
             "np-nan": np.float64("nan")}
UNSUPPORTED = {"object": object(), "complex": 1j, "set": {1, 2}, "bytes": b"x",
               "np-int64": np.int64(1), "np-float32": np.float32(0.5), "np-bool": np.bool_(True)}


@pytest.mark.parametrize("bad", [*NONFINITE.values(), *UNSUPPORTED.values()],
                         ids=[*NONFINITE, *UNSUPPORTED])
def test_bad_value_same_exception(bad):
    for doc in (bad, [bad], {"a": [1.0, {"b": bad}]}, (0.5, bad, 2.0)):
        want = _raised(reference_dumps, doc)
        assert _raised(jsonout.dumps, doc) == want
    if isinstance(bad, float):
        assert _raised(jsonout.dumps, bad) == _raised(reference_fmt_float, bad)


@pytest.mark.parametrize("first", list(NONFINITE.values()), ids=list(NONFINITE))
@pytest.mark.parametrize("second", list(UNSUPPORTED.values()), ids=list(UNSUPPORTED))
def test_first_bad_value_decides(first, second):
    # A non-finite float and an unsupported value in one document: the
    # first in document order names the exception, in either order and at
    # any depth.
    docs = [
        [first, second],
        [second, first],
        {"a": {"b": [1.0, first]}, "c": [second]},
        {"a": [{"b": second}], "c": (0.0, first)},
        [[[first]], "%s", second, 1e16],
    ]
    for doc in docs:
        assert _raised(jsonout.dumps, doc) == _raised(reference_dumps, doc)


def test_record_is_not_a_list():
    # A record is a named tuple; one put in a document in place of its
    # to_obj() is refused, not written as a JSON list.
    gb = GrowthBound(kappa=0, alpha=1.0, spectral_radius=1.0, valid_from=1, max_violation_ratio=1.0)
    for doc in ({"g": gb}, [0.5, gb], gb):
        with pytest.raises(TypeError, match="^cannot serialize GrowthBound$"):
            jsonout.dumps(doc)
    assert jsonout.dumps({"g": gb.to_obj()}) == reference_dumps({"g": gb.to_obj()})
