import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieq.errors import ConvergenceError, DimensionError
from quasieq.linalg import (
    as_matrix,
    as_vector,
    frobenius_norm,
    numeric_rank,
    singular_values,
    symmetric_eigenvalues,
)
from quasieq.monotonicity import paramonotonicity_report


def _det(m):
    # cofactor expansion, small matrices only; independent of the Jacobi code path
    m = np.asarray(m, dtype=float)
    if m.shape[0] == 1:
        return m[0, 0]
    total = 0.0
    for j in range(m.shape[1]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * _det(minor)
    return total


class TestConversions:
    def test_vector_roundtrip(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_vector_rejects_matrix(self):
        with pytest.raises(DimensionError):
            as_vector([[1.0, 2.0]])

    def test_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_matrix_rejects_vector(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    def test_matrix_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf]])

    def test_frobenius(self):
        assert frobenius_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == 5.0


class TestSymmetricEigenvalues:
    def test_scalar(self):
        np.testing.assert_allclose(symmetric_eigenvalues(np.array([[5.0]])), [5.0])

    def test_two_by_two(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(symmetric_eigenvalues(m), [1.0, 3.0], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(symmetric_eigenvalues(np.zeros((2, 2))), [0.0, 0.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_trace_and_norm_invariants(self, n, rng):
        for _ in range(5):
            raw = rng.normal(size=(n, n))
            m = 0.5 * (raw + raw.T)
            vals = symmetric_eigenvalues(m)
            assert vals.shape == (n,)
            assert np.all(np.diff(vals) >= 0.0)
            assert np.isclose(vals.sum(), np.trace(m), atol=1e-10)
            # rotations preserve the Frobenius norm, so sum of squares = ||M||_F^2
            assert np.isclose(np.sum(vals**2), frobenius_norm(m) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_determinant_matches_cofactor_expansion(self, n, rng):
        for _ in range(10):
            raw = rng.normal(size=(n, n))
            m = 0.5 * (raw + raw.T)
            vals = symmetric_eigenvalues(m)
            assert np.isclose(np.prod(vals), _det(m), atol=1e-9)

    def test_agrees_with_numpy(self, rng):
        for n in (2, 5, 8):
            raw = rng.normal(size=(n, n))
            m = 0.5 * (raw + raw.T)
            vals = symmetric_eigenvalues(m)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), atol=1e-9)
            # for symmetric m the singular values are |eig(m)|
            np.testing.assert_allclose(
                np.sort(np.abs(vals))[::-1],
                np.linalg.svd(m, compute_uv=False),
                atol=1e-9,
            )
        # the certificate's rank of S from |eig(S)| on a rank-deficient PSD S
        b = rng.normal(size=(6, 3))
        assert paramonotonicity_report(b @ b.T).rank_sym == 3

    def test_convergence_error_on_starved_sweeps(self, monkeypatch):
        import quasieq.linalg as linalg

        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError):
            symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(2)), [1.0, 1.0], atol=1e-12)

    def test_rank_one(self):
        np.testing.assert_allclose(singular_values(np.ones((2, 2))), [2.0, 0.0], atol=1e-8)

    def test_diagonal_with_sign(self):
        m = np.diag([3.0, -4.0])
        np.testing.assert_allclose(singular_values(m), [4.0, 3.0], atol=1e-12)

    def test_rectangular_length(self, rng):
        m = rng.normal(size=(3, 5))
        vals = singular_values(m)
        assert vals.shape == (3,)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals >= 0.0)

    def test_transpose_invariance(self, rng):
        m = rng.normal(size=(4, 2))
        np.testing.assert_allclose(singular_values(m), singular_values(m.T), atol=1e-9)

    def test_agrees_with_numpy(self, rng):
        m = rng.normal(size=(4, 4))
        np.testing.assert_allclose(singular_values(m), np.linalg.svd(m)[1], atol=1e-9)


class TestNumericRank:
    def test_examples(self):
        assert numeric_rank(np.array([3.0, 1.0, 1e-15]), tol=1e-12) == 2
        assert numeric_rank(np.array([1.0, 0.5]), tol=1e-12) == 2
        assert numeric_rank(np.zeros(3), tol=1e-12) == 0
        assert numeric_rank(np.array([]), tol=1e-12) == 0

    def test_relative_threshold_scales_with_largest(self):
        vals = np.array([1e6, 1.0])
        # threshold = tol * max(1, 1e6); 1.0 falls below it for tol = 1e-5
        assert numeric_rank(vals, tol=1e-5) == 1
        assert numeric_rank(vals, tol=1e-7) == 2

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            numeric_rank(np.array([1.0, 2.0]), tol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            numeric_rank(np.array([1.0, -0.1]), tol=1e-12)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            numeric_rank(np.array([1.0]), tol=0.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=6),
        st.floats(min_value=1e-12, max_value=1e-2),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_rank_nonincreasing_in_tol(self, values, tol, factor):
        vals = np.sort(np.asarray(values))[::-1]
        assert numeric_rank(vals, tol=tol * factor) <= numeric_rank(vals, tol=tol)
