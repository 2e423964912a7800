"""Dense complex linear algebra core: norms, clustering, matrix JSON I/O.

Everything operates on square complex matrices of dimension at most
``MAX_DIM`` (desk scale).  All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import InvalidInputError, SizeError

MAX_DIM = 64


def as_matrix(a) -> np.ndarray:
    """Validate and return a square complex matrix as a fresh ndarray.

    Raises InvalidInputError for non-square or non-finite input and
    SizeError beyond MAX_DIM.
    """
    A = np.asarray(a, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise InvalidInputError(f"expected a nonempty square matrix, got shape {A.shape}")
    if A.shape[0] > MAX_DIM:
        raise SizeError(f"dimension {A.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(A).all():  # a complex entry is finite when both its parts are
        raise InvalidInputError("matrix entries must be finite")
    return A.copy()


def as_columns(H, dim: int) -> np.ndarray:
    """Validate and return the columns of H as a fresh (dim, P) complex
    array, P >= 1."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != dim or H.shape[1] == 0:
        raise InvalidInputError(f"expected {dim}-dim vectors as columns, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise InvalidInputError("vector entries must be finite")
    return H.copy()


def operator_norm(A) -> float:
    """Largest singular value.  Raises InvalidInputError when it exceeds
    the float range."""
    norm = float(np.linalg.norm(as_matrix(A), 2))
    if not np.isfinite(norm):
        raise InvalidInputError("||A|| exceeds the float range")
    return norm


def cluster_points(values: np.ndarray, radius: np.ndarray, merge):
    """Single-linkage clustering of complex values under a merge check.

    Returns a list of (center, members) with centers the cluster means,
    sorted by (real, imag), and members the indices of the cluster's
    values, ascending.  ``radius`` holds one float per value; values
    i and j are linked when |v_i - v_j| <= (r_i + r_j) / 2.  A link joins
    the clusters of i and j only if ``merge(i, j) -> bool`` accepts it;
    links are tried closest first, and ``merge`` is asked at most once per
    pair of clusters.
    """
    vals = np.asarray(values, dtype=complex).reshape(-1)
    n = vals.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    iu, ju = np.triu_indices(n, 1)
    dist = np.abs(vals[iu] - vals[ju])
    linked = np.flatnonzero(dist <= (radius[iu] + radius[ju]) / 2)
    order = linked[np.argsort(dist[linked], kind="stable")]
    asked = set()  # refused pairs of clusters, as (smaller root, larger root)
    for i, j in zip(iu[order].tolist(), ju[order].tolist()):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        key = (ri, rj) if ri < rj else (rj, ri)
        if key in asked:
            continue
        if merge(i, j):
            parent[ri] = rj
        else:
            asked.add(key)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = [(complex(np.mean(vals[idx])), idx) for idx in groups.values()]
    out.sort(key=lambda zc: (zc[0].real, zc[0].imag))
    return out


# ---------------------------------------------------------------------------
# Matrix JSON format: {"dim": d, "entries": [[re, im], ...]} row-major.
# ---------------------------------------------------------------------------

def matrix_to_obj(A) -> dict:
    A = np.ascontiguousarray(as_matrix(A))
    return {"dim": A.shape[0], "entries": A.view(float).reshape(-1, 2).tolist()}


_NUMBER_TYPES = {int, float}  # what json.loads makes of a number; bool is not one


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvalidInputError("matrix JSON must be an object")
    if "dim" not in obj:
        raise InvalidInputError("matrix JSON missing field 'dim'")
    d = obj["dim"]
    if type(d) is not int or d < 1:
        raise InvalidInputError("field 'dim' must be a positive integer")
    if "entries" not in obj:
        raise InvalidInputError("matrix JSON missing field 'entries'")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != d * d:
        raise InvalidInputError(f"field 'entries' must hold {d * d} [re, im] pairs")
    # One pass in C for well-formed input; the loop names the first bad entry.
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}
            and set(map(type, chain.from_iterable(entries))) <= _NUMBER_TYPES):
        for k, pair in enumerate(entries):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InvalidInputError(f"field 'entries[{k}]' must be an [re, im] pair")
            re, im = pair
            if type(re) not in _NUMBER_TYPES or type(im) not in _NUMBER_TYPES:
                raise InvalidInputError(f"field 'entries[{k}]' holds non-numeric data")
    try:
        vals = np.fromiter(chain.from_iterable(entries), float, 2 * d * d)
    except OverflowError:  # an integer past the float range
        vals = np.array([_float_pair(k, pair) for k, pair in enumerate(entries)])
    return as_matrix(vals.view(complex).reshape(d, d))


def _float_pair(k: int, pair: list) -> tuple[float, float]:
    try:
        return float(pair[0]), float(pair[1])
    except OverflowError:
        raise InvalidInputError(f"field 'entries[{k}]' holds a number outside the float range") from None
