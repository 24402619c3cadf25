import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieq.errors import ConvergenceError, DimensionError, InputError
from quasieq.linalg import (
    as_matrix,
    as_vector,
    frobenius_norm,
    is_positive_definite,
    is_real,
    numeric_rank,
    singular_values,
    symmetric_eigenvalues,
)
from quasieq.monotonicity import paramonotonicity_report

# Sizes past the small ones each test lists itself, odd and even.
LARGER_SIZES = (11, 25, 40)


def _det(m):
    # cofactor expansion, small matrices only; independent of LAPACK
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

    def test_vector_of_given_size(self):
        np.testing.assert_array_equal(as_vector([1, 2], "x", 2), [1.0, 2.0])
        for value in ([1.0], [1.0, 2.0, 3.0], []):
            with pytest.raises(DimensionError, match="x has dimension") as err:
                as_vector(value, "x", 2)
            assert err.value.field == "x"

    def test_matrix_rejects_vector(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    def test_matrix_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf]])

    @pytest.mark.parametrize("value, real", [
        (1, True), (1.5, True), (np.int8(2), True), (np.uint64(3), True),
        (np.float32(0.5), True), (True, False), (np.True_, False), ("1", False),
        (None, False), (1j, False), ([1.0], False),
    ])
    def test_is_real(self, value, real):
        assert is_real(value) is real

    @pytest.mark.parametrize("coerce, value", [
        (as_vector, [True, 1.0]), (as_vector, ["0.5"]), (as_vector, np.array([True])),
        (as_vector, np.array(["1"])), (as_vector, [1j]), (as_matrix, [[1.0, None]]),
        (as_matrix, np.array([[False]])),
    ], ids=["bool", "text", "bool-array", "text-array", "complex", "none", "bool-matrix"])
    def test_rejects_entries_that_are_not_real(self, coerce, value):
        with pytest.raises(InputError, match="entries must be real numbers") as err:
            coerce(value, "v")
        assert err.value.field == "v"

    def test_accepts_integer_and_numpy_entries(self):
        np.testing.assert_array_equal(as_vector([np.int64(1), 2, np.float32(0.5)]),
                                      [1.0, 2.0, 0.5])
        np.testing.assert_array_equal(as_matrix(np.arange(4, dtype=np.uint8).reshape(2, 2)),
                                      [[0.0, 1.0], [2.0, 3.0]])

    def test_frobenius(self):
        assert frobenius_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == 5.0
        # computed on m over a power of two, so squares neither overflow
        # nor underflow
        assert frobenius_norm(np.array([[3e200, 4e200]])) == pytest.approx(5e200)
        assert frobenius_norm(np.array([[3e-200, 4e-200]])) == pytest.approx(5e-200)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, *LARGER_SIZES])
    def test_trace_and_norm_invariants(self, n, rng):
        for _ in range(5):
            raw = rng.normal(size=(n, n))
            m = 0.5 * (raw + raw.T)
            vals = symmetric_eigenvalues(m)
            assert vals.shape == (n,)
            assert np.all(np.diff(vals) >= 0.0)
            assert np.isclose(vals.sum(), np.trace(m), atol=1e-10)
            # for symmetric M the squared eigenvalues sum to ||M||_F^2
            assert np.isclose(np.sum(vals**2), frobenius_norm(m) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_determinant_matches_cofactor_expansion(self, n, rng):
        for _ in range(10):
            raw = rng.normal(size=(n, n))
            m = 0.5 * (raw + raw.T)
            vals = symmetric_eigenvalues(m)
            assert np.isclose(np.prod(vals), _det(m), atol=1e-9)

    def test_agrees_with_numpy(self, rng):
        for n in (2, 5, 8, *LARGER_SIZES):
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
        # an indefinite pair and a negative scalar
        for m in ([[0.0, 1.0], [1.0, 0.0]], [[-3.0]]):
            np.testing.assert_allclose(
                symmetric_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-12
            )
        # the certificate's rank of S from |eig(S)| on a rank-deficient PSD S
        b = rng.normal(size=(6, 3))
        assert paramonotonicity_report(b @ b.T).rank_sym == 3

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        monkeypatch.setattr(np.linalg, "svd", fail)
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        for decompose in (symmetric_eigenvalues, singular_values, paramonotonicity_report):
            with pytest.raises(ConvergenceError, match="did not converge"):
                decompose(m)


class TestIsPositiveDefinite:
    @given(
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_agrees_with_numpy(self, n, seed, data):
        # eigenvalues of magnitude 0.1 to 10, so that rounding moves none
        # of them across 0
        magnitudes = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
        m = q @ np.diag(np.multiply(magnitudes, signs)) @ q.T
        m = 0.5 * (m + m.T)
        assert is_positive_definite(m) is bool(np.linalg.eigvalsh(m)[0] > 0.0)
        assert is_positive_definite(m) is (min(signs) > 0.0)

    def test_zero_semidefinite_and_scalar(self):
        assert is_positive_definite(np.zeros((3, 3))) is False
        assert is_positive_definite(np.ones((2, 2))) is False  # PSD, singular
        assert is_positive_definite([[2.0]]) is True
        assert is_positive_definite([[0.0]]) is False
        assert is_positive_definite([[-1.0]]) is False

    def test_extreme_scale(self):
        for factor in (1e200, 1e-170):
            assert is_positive_definite(factor * np.array([[2.0, 1.0], [1.0, 2.0]]))
            assert not is_positive_definite(factor * np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_subnormal_pivot_overflows_without_warning(self):
        # the Schur complement 1 - 1/5e-324 overflows to -inf
        assert is_positive_definite([[5e-324, 1.0], [1.0, 1.0]]) is False

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            is_positive_definite(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            is_positive_definite(np.ones((4, 2, 3)))

    @given(
        n=st.integers(min_value=1, max_value=6),
        shape=st.sampled_from([(1,), (7,), (3, 4)]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40)
    def test_stack_gives_each_matrix_its_own_verdict(self, n, shape, seed):
        # definite, indefinite and semidefinite matrices of scales far
        # apart share a stack; each is scaled by its own power of two
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.normal(size=(*shape, n, n)))
        eigenvalues = gen.choice([-1.0, 0.0, 0.5, 2.0], size=(*shape, n), p=[0.2, 0.1, 0.35, 0.35])
        scales = 10.0 ** gen.choice([-170, 0, 200], size=(*shape, 1, 1))
        stack = scales * (q * eigenvalues[..., None, :]) @ np.swapaxes(q, -1, -2)
        got = is_positive_definite(stack)
        assert got.shape == shape and got.dtype == bool
        for index in np.ndindex(*shape):
            assert got[index] == is_positive_definite(stack[index])
        # rounding moves no eigenvalue of magnitude 0.5 or more across 0
        nonsingular = (eigenvalues != 0.0).all(axis=-1)
        np.testing.assert_array_equal(got[nonsingular], (eigenvalues.min(axis=-1) > 0.0)[nonsingular])

    def test_overflowing_lane_leaves_its_neighbours_alone(self):
        # the first lane's Schur complement 1 - 1/5e-324 overflows to -inf;
        # the other lanes keep their verdicts, and no warning is raised
        stack = np.array([[[5e-324, 1.0], [1.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]],
                          [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]])
        np.testing.assert_array_equal(is_positive_definite(stack), [False, True, False, True])

    def test_matrix_gives_a_python_bool(self):
        assert type(is_positive_definite(np.eye(2))) is bool
        assert type(is_positive_definite(-np.eye(2))) is bool
        assert type(is_positive_definite([[1.0]])) is bool


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(2)), [1.0, 1.0], atol=1e-12)

    def test_rank_one(self):
        np.testing.assert_allclose(singular_values(np.ones((2, 2))), [2.0, 0.0], atol=1e-8)

    def test_diagonal_with_sign(self):
        m = np.diag([3.0, -4.0])
        np.testing.assert_allclose(singular_values(m), [4.0, 3.0], atol=1e-12)

    def test_rectangular_length(self, rng):
        for shape in ((3, 5), (11, 40), (40, 25)):
            m = rng.normal(size=shape)
            vals = singular_values(m)
            assert vals.shape == (min(shape),)
            assert np.all(np.diff(vals) <= 0.0)
            assert np.all(vals >= 0.0)
            np.testing.assert_allclose(vals, np.linalg.svd(m)[1], atol=1e-9)

    def test_transpose_invariance(self, rng):
        for shape in ((4, 2), (40, 11), (12, 25)):
            m = rng.normal(size=shape)
            np.testing.assert_allclose(singular_values(m), singular_values(m.T), atol=1e-9)

    def test_agrees_with_numpy(self, rng):
        for n in (4, *LARGER_SIZES):
            m = rng.normal(size=(n, n))
            np.testing.assert_allclose(singular_values(m), np.linalg.svd(m)[1], atol=1e-9)
        # nearly singular U diag(s) V': the smallest singular value, 1e-10
        # or 1.2e-8 of the largest, agrees with numpy's LAPACK call to 1e-5
        # relative, and the rank decision at 1e-8 is numpy's
        for n in (2, 4, 10, *LARGER_SIZES):
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            v, _ = np.linalg.qr(rng.normal(size=(n, n)))
            for smallest in (1e-10, 1.2e-8):
                m = u @ np.diag(np.geomspace(1.0, smallest, n)) @ v.T
                vals, expected = singular_values(m), np.linalg.svd(m)[1]
                assert vals[-1] == pytest.approx(expected[-1], rel=1e-5)
                rank = int(np.count_nonzero(expected > 1e-8 * max(1.0, expected[0])))
                assert numeric_rank(vals, 1e-8) == rank


class TestExtremeScale:
    """Entries far from 1: each matrix routine divides its input once by a
    power of two, so nothing overflows or underflows."""

    def test_entries_near_the_float_limit(self):
        # m + m' overflows unless m is scaled first
        assert symmetric_eigenvalues([[1e308]]).tolist() == [1e308]
        vals = symmetric_eigenvalues([[0.0, 1e308], [1e308, 0.0]])
        np.testing.assert_allclose(vals, [-1e308, 1e308], rtol=1e-15)

    def test_frobenius_norm_per_matrix_of_a_stack(self, rng):
        stack = np.stack([factor * rng.normal(size=(3, 3)) for factor in (1e-300, 1.0, 1e300)]
                         + [np.zeros((3, 3))])
        norms = frobenius_norm(stack)
        assert norms.shape == (4,)
        assert norms.tobytes() == np.array([frobenius_norm(m) for m in stack]).tobytes()

    @pytest.mark.parametrize("n", [3, 12])
    def test_power_of_two_equivariance(self, n, rng):
        # bit for bit: the routines scale, not LAPACK, so LAPACK sees the
        # same matrix whatever power of two multiplies m
        raw = rng.normal(size=(n, n))
        sym = raw + raw.T
        for k in (-600, -7, 9, 600):
            f = 2.0**k
            assert singular_values(f * raw).tobytes() == (f * singular_values(raw)).tobytes()
            assert (symmetric_eigenvalues(f * sym).tobytes()
                    == (f * symmetric_eigenvalues(sym)).tobytes())

    def test_huge_eigenvalues(self):
        vals = symmetric_eigenvalues(np.array([[0.0, 1e200], [1e200, 0.0]]))
        np.testing.assert_allclose(vals, [-1e200, 1e200], rtol=1e-12)

    def test_tiny_eigenvalues_keep_their_sign(self):
        vals = symmetric_eigenvalues(np.diag([1e-170, -1e-170]))
        np.testing.assert_allclose(vals, [-1e-170, 1e-170], rtol=1e-12)

    def test_huge_singular_values(self):
        vals = singular_values(np.diag([1e200, -1e190]))
        np.testing.assert_allclose(vals, [1e200, 1e190], rtol=1e-12)

    @pytest.mark.parametrize("n", LARGER_SIZES)
    def test_larger_sizes_at_extreme_scale(self, n, rng):
        raw = rng.normal(size=(n, n))
        sym = raw + raw.T
        for factor in (1e200, 1e-170):
            want = np.linalg.eigvalsh(sym) * factor
            np.testing.assert_allclose(symmetric_eigenvalues(sym * factor), want,
                                       rtol=0.0, atol=1e-12 * abs(want).max())
            want = np.linalg.svd(raw)[1] * factor
            np.testing.assert_allclose(singular_values(raw * factor), want,
                                       rtol=0.0, atol=1e-12 * want[0])

    @pytest.mark.parametrize("n", [2, 12])
    def test_subnormal_entry_beside_a_normal_one(self, n):
        # row 0 is (1, 1e-310, 0, ...): a subnormal entry whose square
        # underflows to 0, so the singular values are (1, 0, ..., 0)
        m = np.zeros((n, n))
        m[0] = [1.0, 1e-310] + [0.0] * (n - 2)
        np.testing.assert_allclose(singular_values(m), np.eye(n)[0], rtol=0.0, atol=1e-300)

    def test_huge_certificate(self):
        report = paramonotonicity_report(np.array([[-1e200]]))
        assert report.verdict is False
        assert report.min_eigenvalue == pytest.approx(-1e200)


class TestNumericRank:
    def test_examples(self):
        assert numeric_rank(np.array([3.0, 1.0, 1e-15]), tol=1e-12) == 2
        assert numeric_rank(np.array([1.0, 0.5]), tol=1e-12) == 2
        assert numeric_rank(np.zeros(3), tol=1e-12) == 0
        assert numeric_rank(np.array([]), tol=1e-12) == 0

    def test_relative_threshold_scales_with_largest(self):
        vals = np.array([1e6, 1.0])
        # threshold = tol * 1e6; 1.0 falls below it for tol = 1e-5
        assert numeric_rank(vals, tol=1e-5) == 1
        assert numeric_rank(vals, tol=1e-7) == 2
        # threshold = tol * 1e-20, with no floor at 1
        assert numeric_rank(np.array([1e-20, 1e-30]), tol=1e-8) == 1
        assert numeric_rank(np.array([1e-20, 1e-27]), tol=1e-8) == 2
        # an explicit scale replaces the largest value
        assert numeric_rank(np.array([1e-20, 1e-27]), tol=1e-8, scale=1.0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            numeric_rank(np.array([1.0, -0.1]), tol=1e-12)

    def test_rejects_bad_tol(self):
        for tol in (0.0, np.inf, np.nan, True, "1e-8"):
            with pytest.raises(ValueError):
                numeric_rank(np.array([1.0]), tol=tol)
        for scale in (-1.0, np.inf, np.nan, True):
            with pytest.raises(ValueError, match="scale"):
                numeric_rank(np.array([1.0]), tol=1e-8, scale=scale)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=6),
        st.floats(min_value=1e-12, max_value=1e-2),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_rank_nonincreasing_in_tol(self, values, tol, factor):
        vals = np.sort(np.asarray(values))[::-1]
        assert numeric_rank(vals, tol=tol * factor) <= numeric_rank(vals, tol=tol)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=0, max_size=8),
        st.floats(min_value=1e-12, max_value=1e-2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50)
    def test_rank_ignores_order(self, values, tol, random):
        permuted = list(values)
        random.shuffle(permuted)
        descending = np.sort(np.asarray(values, dtype=float))[::-1]
        assert numeric_rank(permuted, tol) == numeric_rank(descending, tol)
