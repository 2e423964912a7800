"""Matrix-core helpers: validation, norms, clustering, spectra, JSON."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aolab.errors import InvalidInputError, SizeError
from aolab.linalg import (
    MAX_DIM,
    as_columns,
    as_matrix,
    cluster_points,
    matrix_from_obj,
    matrix_to_obj,
    operator_norm,
)


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_oversize(self):
        with pytest.raises(SizeError):
            as_matrix(np.eye(MAX_DIM + 1))

    def test_accepts_max_dim(self):
        A = as_matrix(np.eye(MAX_DIM))
        assert A.shape == (MAX_DIM, MAX_DIM)
        assert A.dtype == complex

    def test_vector_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            as_columns([1, 2, 3], dim=2)

    def test_vector_must_be_a_column(self):
        with pytest.raises(InvalidInputError, match=r"got shape \(2,\)"):
            as_columns([1, 2], dim=2)


class TestNormsAndRank:
    def test_operator_norm_diagonal(self):
        A = np.diag([3.0, -1.0, 0.5])
        assert operator_norm(A) == pytest.approx(3.0)

    def test_operator_norm_jordan_golden_ratio(self):
        # ||[[1,1],[0,1]]|| is the golden ratio.
        A = np.array([[1, 1], [0, 1]], dtype=complex)
        phi = (1 + np.sqrt(5)) / 2
        assert operator_norm(A) == pytest.approx(phi, rel=1e-12)

    def test_operator_norm_past_float_range_raises(self):
        # Finite entries whose 2-norm, 2.1e308, is not a float.
        with pytest.raises(InvalidInputError, match=r"^\|\|A\|\| exceeds the float range$"):
            operator_norm([[1.5e308, 0], [1.5e308, 0.5]])
        assert operator_norm([[1.5e300, 0], [1.5e300, 0.5]]) == pytest.approx(np.sqrt(4.5) * 1e300, rel=1e-12)


def _always(i, j):
    return True


class TestClusterPoints:
    def test_merges_nearby(self):
        pts = np.array([1.0, 1.0 + 1e-9, 2.0], dtype=complex)
        out = cluster_points(pts, np.full(3, 1e-6), _always)
        assert [c for _, c in out] == [1, 2] or [c for _, c in out] == [2, 1]
        assert sum(c for _, c in out) == 3

    def test_chain_merging_is_single_linkage(self):
        # 0, r/2, r: all one cluster through the middle point.
        pts = np.array([0.0, 0.5, 1.0], dtype=complex)
        out = cluster_points(pts, np.full(3, 0.6), _always)
        assert len(out) == 1 and out[0][1] == 3

    def test_merge_asked_once_per_cluster_pair(self):
        # Every pair is linked; links are tried closest first, and once 0.1
        # and 1.0 are refused, the other links between the same two
        # clusters are not asked about.
        pts = np.array([0.0, 0.1, 1.0, 1.1], dtype=complex)
        asked = []

        def merge(i, j):
            asked.append((i, j))
            return abs(pts[i] - pts[j]) < 0.5

        out = cluster_points(pts, np.full(4, 2.5), merge)
        assert [c for _, c in out] == [2, 2]
        assert asked == [(0, 1), (2, 3), (1, 2)]

    @given(
        st.lists(
            st.complex_numbers(
                max_magnitude=10, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_partition_the_input(self, vals):
        out = cluster_points(np.array(vals), np.full(len(vals), 1e-3), _always)
        assert sum(c for _, c in out) == len(vals)
        centers = [z for z, _ in out]
        assert centers == sorted(centers, key=lambda z: (z.real, z.imag))


class TestMatrixJson:
    def test_roundtrip_fixture(self):
        A = np.array([[1 + 2j, 0], [3, -1j]], dtype=complex)
        B = matrix_from_obj(matrix_to_obj(A))
        assert np.array_equal(A, B)

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, dim, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert np.array_equal(matrix_from_obj(matrix_to_obj(A)), A)

    def test_missing_field_names_it(self):
        with pytest.raises(InvalidInputError, match="dim"):
            matrix_from_obj({"entries": []})

    def test_entry_count_mismatch(self):
        with pytest.raises(InvalidInputError, match="entries"):
            matrix_from_obj({"dim": 2, "entries": [[1, 0]]})

    def test_bad_entry_shape(self):
        with pytest.raises(InvalidInputError):
            matrix_from_obj({"dim": 1, "entries": [[1, 0, 0]]})

    def test_strided_view_roundtrip(self):
        # A column-strided view whose rows flatten to one strided run.
        B = (np.arange(32) + 1j * np.arange(32)[::-1]).reshape(4, 8)
        assert np.array_equal(matrix_from_obj(matrix_to_obj(B[:, ::2])), B[:, ::2])

    def test_integer_entries_accepted(self):
        A = matrix_from_obj({"dim": 2, "entries": [[1, 0], [0.5, -2], [0, 0], [3, 1]]})
        assert np.array_equal(A, np.array([[1, 0.5 - 2j], [0, 3 + 1j]]))

    def test_integer_past_float_range_names_entry(self):
        entries = [[1, 0], [0, 0], [0, -(10**400)], [0, 0]]
        with pytest.raises(InvalidInputError, match=r"^field 'entries\[2\]' holds a number outside the float range$"):
            matrix_from_obj({"dim": 2, "entries": entries})

    @pytest.mark.parametrize("bad", [True, False, "0.5", "0", None, [0.5], {"re": 0.5}])
    def test_non_numeric_entry_names_it(self, bad):
        for pair in ([bad, 0], [0.0, bad]):
            with pytest.raises(InvalidInputError, match=r"^field 'entries\[1\]' holds non-numeric data$"):
                matrix_from_obj({"dim": 2, "entries": [[1, 0], pair, [0, 0], [1, 0]]})

    @pytest.mark.parametrize("dim", [True, 2.0, "2", 0])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(InvalidInputError, match="'dim' must be a positive integer"):
            matrix_from_obj({"dim": dim, "entries": [[1, 0]]})
