"""Thin numerical backend: SVD, eigendecomposition, least squares.

Holds the estimator's large or general solves: the sample-matrix SVD, the
non-Hermitian eigendecomposition and the ``gelsd`` coefficient fallback.
The small Hermitian systems (the fiber solve and the normal equations) call
``np.linalg.eigh``, ``eigvalsh`` and ``solve`` in :mod:`gdesprit.esprit`
directly.  Conventions: a singular value decomposition returns the
left singular vectors U and the singular values of H only, since the
estimator never reads the right singular vectors; an eigendecomposition is
A = B^{-1} diag(lambda) B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import _readonly
from .errors import DomainError, RankDeficiencyError


@dataclass(frozen=True)
class SvdResult:
    """Left singular vectors of H and its full singular value sequence.

    ``U`` has min(H.shape) columns; callers keep as many leading columns as
    their model order, so rank diagnostics and the subspace come from one
    decomposition.
    """

    U: np.ndarray
    spectrum: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition A = B^{-1} diag(eigenvalues) B."""

    eigenvalues: np.ndarray
    eigvecs: np.ndarray  # right eigenvectors as columns, B^{-1} up to rounding
    eigvecs_inv: np.ndarray  # the matrix B
    eigvec_cond: float  # 1-norm condition number ||V||_1 ||B||_1


def truncated_svd(matrix: np.ndarray) -> SvdResult:
    """Left singular vectors and singular values of a dense complex matrix.

    Returns the min(H.shape) leading left singular vectors, never the right
    ones, which the estimator does not read.  A wide H (more columns than
    rows) is first reduced to a square factor by the R-SVD of Chan (ACM
    TOMS 8(1), 1982): with H^* = QR, H = R^* Q^*, so H and R^* share U and
    the singular values, and Q, whose columns are as long as H's rows, is
    never formed.  Square and tall H go to one SVD directly.
    """
    H = np.asarray(matrix, dtype=np.complex128)
    if H.ndim != 2 or H.size == 0:
        raise DomainError(f"expected a nonempty 2-d matrix, got shape {H.shape}")
    if H.shape[1] > H.shape[0]:
        H = np.linalg.qr(H.conj().T, mode="r").conj().T
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    return SvdResult(U=_readonly(U), spectrum=_readonly(s))


def eig_full(matrix: np.ndarray) -> EigResult:
    """Dense eigendecomposition of a square matrix.

    Also returns the condition number of the eigenvector matrix V, which is
    large or non-finite on numerically defective input; callers judge it.
    It is taken in the 1-norm, ||V||_1 ||V^{-1}||_1, from the inverse the
    result needs anyway; it lies within a factor K of the 2-norm one and
    needs no SVD of V.
    """
    A = np.asarray(matrix, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {A.shape}")
    eigenvalues, vecs = np.linalg.eig(A)
    B = np.linalg.inv(vecs)
    return EigResult(
        eigenvalues=_readonly(eigenvalues),
        eigvecs=_readonly(vecs),
        eigvecs_inv=_readonly(B),
        eigvec_cond=float(np.linalg.norm(vecs, 1) * np.linalg.norm(B, 1)),
    )


def lstsq(A: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Minimum-residual solution of A X = Y via orthogonal factorization.

    Never forms the normal equations.  Raises
    :class:`RankDeficiencyError` carrying the numerical rank when A loses
    full column rank.  Nothing in the package calls it: the shift solve's
    Hermitian fiber system goes to ``eigh`` in :mod:`gdesprit.esprit`.
    """
    A = np.asarray(A, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    if A.ndim != 2 or A.size == 0:
        raise DomainError(f"expected a nonempty 2-d coefficient matrix, got shape {A.shape}")
    if Y.shape[0] != A.shape[0]:
        raise DomainError(f"rhs has {Y.shape[0]} rows, expected {A.shape[0]}")
    X, _, rank, _ = np.linalg.lstsq(A, Y, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficiencyError(
            f"least-squares matrix has numerical rank {rank} < {A.shape[1]} columns",
            rank=int(rank),
        )
    return X


def lstsq_minimum_norm(A: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solve that tolerates rank deficiency.

    Returns the minimum-norm solution together with the condition estimate
    sigma_max / sigma_min of A (inf when A is numerically rank deficient).
    """
    A = np.asarray(A, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    X, _, rank, s = np.linalg.lstsq(A, Y, rcond=None)
    if s.size == 0 or s[-1] == 0 or rank < min(A.shape):
        cond = np.inf
    else:
        cond = float(s[0] / s[-1])
    return X, cond
