"""Numerical backend contracts: SVD, eigendecomposition, least squares."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdesprit.errors import DomainError, RankDeficiencyError
from gdesprit.esprit import _estimate_warnings
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
