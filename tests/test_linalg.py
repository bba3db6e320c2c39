"""Numerical backend contracts: SVD, eigendecomposition, least squares."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdesprit import linalg_backend
from gdesprit.errors import DomainError, ModelOrderError, RankDeficiencyError
from gdesprit.esprit import _estimate_warnings, esprit_1d
from gdesprit.linalg_backend import (
    EigResult,
    eig_full,
    lstsq,
    lstsq_minimum_norm,
    truncated_svd,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# wide (the R-SVD path), square and tall inputs
SHAPES = [(5, 7), (3, 8), (6, 6), (7, 5), (8, 3)]


def assert_left_singular(H, svd):
    """U has orthonormal columns that are left singular vectors of H for the
    leading singular values: U^* H H^* U = diag(spectrum[:K]^2), and the
    spectrum is the reference one."""
    K = svd.U.shape[1]
    reference = np.linalg.svd(H, compute_uv=False)
    np.testing.assert_allclose(svd.spectrum, reference, rtol=0, atol=1e-12 * reference[0])
    np.testing.assert_allclose(svd.U.conj().T @ svd.U, np.eye(K), atol=1e-12)
    gram = svd.U.conj().T @ H @ H.conj().T @ svd.U
    np.testing.assert_allclose(gram, np.diag(svd.spectrum[:K] ** 2), atol=1e-12 * reference[0] ** 2)


def assert_leading_subspace(H, svd, K):
    """The spectrum is the reference one within 1e-13 sigma_1, and U spans
    the reference K-dimensional leading left subspace:
    ||U_K U_K^* - U_ref U_ref^*||_2 <= 1e-12."""
    reference = np.linalg.svd(H, compute_uv=False)
    np.testing.assert_allclose(svd.spectrum, reference, rtol=0, atol=1e-13 * reference[0])
    assert svd.U.shape == (H.shape[0], K)
    U_ref = np.linalg.svd(H)[0][:, :K]
    gap = svd.U @ svd.U.conj().T - U_ref @ U_ref.conj().T
    assert np.linalg.norm(gap, 2) <= 1e-12


class TestTruncatedSvd:
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 8))
    def test_factorization_and_orthonormality(self, seed, m, n):
        rng = np.random.default_rng(seed)
        H = random_complex(rng, m, n)
        K = min(m, n)
        svd = truncated_svd(H)
        assert svd.U.shape == (m, K)
        assert_left_singular(H, svd)
        # with every singular vector kept, U spans the range of H
        np.testing.assert_allclose(svd.U @ (svd.U.conj().T @ H), H, atol=1e-12)
        assert np.all(np.diff(svd.spectrum) <= 0)
        assert np.all(svd.spectrum >= 0)

    @given(st.integers(0, 10_000), st.sampled_from(SHAPES))
    def test_truncation_error_is_next_singular_value(self, seed, shape):
        rng = np.random.default_rng(seed)
        H = random_complex(rng, *shape)
        K = min(shape) - 2
        svd = truncated_svd(H)
        U = svd.U[:, :K]
        err = np.linalg.norm(H - U @ (U.conj().T @ H), ord=2)
        assert err == pytest.approx(svd.spectrum[K], rel=1e-10, abs=1e-12)

    def test_truncation_is_prefix_of_spectrum(self):
        rng = np.random.default_rng(5)
        for m, n in SHAPES:
            H = random_complex(rng, m, n)
            svd = truncated_svd(H)
            assert svd.U.shape == (m, min(m, n))
            assert svd.spectrum.shape == (min(m, n),)
            assert_left_singular(H, svd)

    def test_exact_low_rank_input(self):
        rng = np.random.default_rng(9)
        for m, n in [(8, 6), (6, 9), (6, 6)]:
            H = random_complex(rng, m, 3) @ random_complex(rng, 3, n)
            svd = truncated_svd(H)
            U = svd.U[:, :3]
            assert svd.spectrum[3] <= 1e-12 * svd.spectrum[0]
            np.testing.assert_allclose(U @ (U.conj().T @ H), H, atol=1e-10)
            assert_left_singular(H, svd)

    def test_rejects_non_matrix(self):
        with pytest.raises(DomainError):
            truncated_svd(np.ones(4))

    @pytest.mark.parametrize("shape", [(200, 160), (160, 200)])
    @pytest.mark.parametrize("K", [1, 40, 160])
    def test_blocked_sizes(self, shape, K):
        # large enough that LAPACK takes its blocked code paths
        H = random_complex(np.random.default_rng(K), *shape)
        assert_leading_subspace(H, truncated_svd(H, K), K)

    def test_order_from_spectrum(self):
        H = random_complex(np.random.default_rng(3), 9, 6)
        seen = []
        svd = truncated_svd(H, lambda s: seen.append(s.copy()) or 2)
        np.testing.assert_array_equal(seen[0], svd.spectrum)
        assert_leading_subspace(H, svd, 2)

    def test_order_errors_propagate(self):
        H = random_complex(np.random.default_rng(4), 6, 6)

        def refuse(s):
            raise ModelOrderError("no order")

        with pytest.raises(ModelOrderError):
            truncated_svd(H, refuse)
        for K in (0, 7):
            with pytest.raises(DomainError):
                truncated_svd(H, K)

    def test_zero_matrix(self):
        svd = truncated_svd(np.zeros((5, 4)), 3)
        np.testing.assert_array_equal(svd.spectrum, np.zeros(4))
        np.testing.assert_allclose(svd.U.conj().T @ svd.U, np.eye(3), atol=1e-15)

    def test_one_by_one(self):
        svd = truncated_svd(np.array([[3 - 4j]]))
        np.testing.assert_allclose(svd.spectrum, [5.0], rtol=1e-15)
        np.testing.assert_allclose(abs(svd.U), [[1.0]], rtol=1e-15)

    def test_two_by_two(self):
        H = np.array([[1.0, 2j], [0.5, -1.0]])
        for K in (1, 2):
            assert_leading_subspace(H, truncated_svd(H, K), K)

    def test_esprit_1d_on_three_samples(self):
        # the smallest box: a 2x2 sample matrix
        z = np.exp(0.3 + 0.7j)
        zeta = esprit_1d(z ** np.arange(3), 1)
        np.testing.assert_allclose(zeta, [0.3 + 0.7j], atol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 5), (40, 40), (5, 8)])
    def test_nan_raises_linalg_error(self, shape):
        H = np.ones(shape, dtype=complex)
        H[1, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            truncated_svd(H, 1)


@pytest.mark.usefixtures("svd_fallback")
class TestTruncatedSvdFallback(TestTruncatedSvd):
    """The same contracts on the ``np.linalg.svd`` route, the only one on
    numpy builds whose LAPACK routines are not found."""

    # hypothesis ties a property test to one class, so these are given anew
    test_factorization_and_orthonormality = given(
        st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 8)
    )(TestTruncatedSvd.test_factorization_and_orthonormality.hypothesis.inner_test)
    test_truncation_error_is_next_singular_value = given(
        st.integers(0, 10_000), st.sampled_from(SHAPES)
    )(TestTruncatedSvd.test_truncation_error_is_next_singular_value.hypothesis.inner_test)

    def test_runs_the_fallback(self):
        assert linalg_backend._LAPACK is None


def test_lapack_route_resolved():
    # without this, a numpy build that stopped exporting the routines would
    # only make every SVD slower, and no other test would fail
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):
        pytest.skip("this numpy does not report its LAPACK")
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack.get('name')!r}, not scipy-openblas")
    assert linalg_backend._LAPACK is not None


@pytest.mark.skipif(linalg_backend._LAPACK is None, reason="numpy's LAPACK routines not found")
def test_lapack_info_raises_linalg_error():
    # a finite H never makes the routines fail in practice, so an illegal
    # leading dimension (info = -4) stands in for a nonzero info
    zgebrd = linalg_backend._LAPACK[0]
    A = np.zeros((3, 3), dtype=complex, order="F")
    d, e = np.empty(3), np.empty(2)
    tauq, taup = np.empty(3, dtype=complex), np.empty(3, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        linalg_backend._call_with_workspace(zgebrd, 3, 3, A, 1, d, e, tauq, taup)


class TestEig:
    @given(st.integers(0, 10_000), st.integers(2, 7))
    def test_decomposition_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        A = random_complex(rng, n, n)
        eig = eig_full(A)
        B = eig.eigvecs_inv
        # A = B^{-1} diag(w) B  <=>  B A = diag(w) B
        np.testing.assert_allclose(
            B @ A, np.diag(eig.eigenvalues) @ B, atol=1e-10 * np.linalg.norm(A)
        )
        # the right eigenvectors are the columns of B^{-1}
        V = eig.eigvecs
        np.testing.assert_allclose(
            A @ V, V @ np.diag(eig.eigenvalues), atol=1e-10 * np.linalg.norm(A)
        )
        np.testing.assert_allclose(B @ V, np.eye(n), atol=1e-10 * eig.eigvec_cond)
        assert np.isfinite(eig.eigvec_cond)

    def test_diagonal_matrix(self):
        eig = eig_full(np.diag([3.0, 1.0, 2.0]))
        assert sorted(eig.eigenvalues.real) == pytest.approx([1.0, 2.0, 3.0])

    def test_defective_input_warns(self):
        # the condition number carries the diagnosis; esprit_nd turns it
        # into a report warning
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        cond = eig_full(jordan).eigvec_cond
        assert not np.isfinite(cond) or cond > 1e12
        assert "defective" in _estimate_warnings(cond, 1.0)[0]

    @given(st.integers(0, 10_000), st.integers(2, 12), st.sampled_from([0.0, 1e-4, 1e-8, 1e-12]))
    def test_condition_is_within_factor_k_of_two_norm(self, seed, n, nudge):
        # the 1-norm condition ||V||_1 ||V^-1||_1 lies in [kappa_2 / n, n kappa_2];
        # nudge > 0 perturbs a Jordan block, whose eigenvectors nearly coincide
        rng = np.random.default_rng(seed)
        if nudge:
            A = np.eye(n, k=1) + nudge * random_complex(rng, n, n)
        else:
            A = random_complex(rng, n, n)
        eig = eig_full(A)
        kappa2 = np.linalg.cond(eig.eigvecs)
        assert kappa2 / n * (1 - 1e-8) <= eig.eigvec_cond <= n * kappa2 * (1 + 1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            eig_full(np.ones((2, 3)))


class TestLstsq:
    @given(st.integers(0, 10_000), st.integers(3, 8), st.integers(1, 3))
    def test_consistent_system_solved_exactly(self, seed, m, rhs_cols):
        rng = np.random.default_rng(seed)
        n = m - 1
        A = random_complex(rng, m, n)
        X_true = random_complex(rng, n, rhs_cols)
        X = lstsq(A, A @ X_true)
        np.testing.assert_allclose(X, X_true, atol=1e-9)

    @given(st.integers(0, 10_000))
    def test_residual_is_orthogonal_to_range(self, seed):
        rng = np.random.default_rng(seed)
        A = random_complex(rng, 8, 3)
        y = random_complex(rng, 8)
        x = lstsq(A, y)
        residual = y - A @ x
        np.testing.assert_allclose(A.conj().T @ residual, 0, atol=1e-10)

    def test_rank_deficiency_raises(self):
        A = np.ones((4, 2), dtype=complex)  # two identical columns
        with pytest.raises(RankDeficiencyError) as err:
            lstsq(A, np.ones(4))
        assert err.value.rank == 1

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            lstsq(np.ones((3, 2)), np.ones(4))


class TestLstsqMinimumNorm:
    def test_rank_deficient_returns_minimum_norm(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        y = np.array([2.0, 2.0], dtype=complex)
        x, cond = lstsq_minimum_norm(A, y)
        assert cond == np.inf
        # pseudo-inverse solution splits evenly
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_full_rank_matches_strict_solver(self, seed):
        rng = np.random.default_rng(seed)
        A = random_complex(rng, 6, 3)
        y = random_complex(rng, 6)
        x_strict = lstsq(A, y)
        x_min, cond = lstsq_minimum_norm(A, y)
        np.testing.assert_allclose(x_min, x_strict, atol=1e-10)
        s = np.linalg.svd(A, compute_uv=False)
        assert cond == pytest.approx(s[0] / s[-1], rel=1e-10)
