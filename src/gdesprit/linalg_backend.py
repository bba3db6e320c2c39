"""Thin numerical backend: SVD, eigendecomposition, least squares.

Holds the estimator's large or general solves: the sample-matrix SVD, the
non-Hermitian eigendecomposition and the ``gelsd`` coefficient fallback.
The small Hermitian systems (the fiber solve and the normal equations) call
``np.linalg.eigh``, ``eigvalsh`` and ``solve`` in :mod:`gdesprit.esprit`
directly.  Conventions: a singular value decomposition returns the K
leading left singular vectors U_K and all singular values of H, since the
estimator reads nothing else; an eigendecomposition is
A = B^{-1} diag(lambda) B.

The SVD calls ``zgebrd``, ``dbdsdc`` and ``zunmbr`` from the LAPACK that
``numpy.linalg`` is linked to, found once at import through ``ctypes``
(the ILP64 names of numpy's OpenBLAS wheels).  Where they are not found it
calls ``np.linalg.svd``, which forms U and V in full.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .domains import _readonly
from .errors import DomainError, RankDeficiencyError


# Arguments of each routine: its one-character arguments come first, then
# its pointer arguments (arrays, and integers by reference with ``info``
# last); gfortran appends one length per character argument.
_SIGNATURES = {"zgebrd": (0, 11), "dbdsdc": (2, 12), "zunmbr": (3, 11)}


def _lapack_routines() -> tuple | None:
    """``zgebrd``, ``dbdsdc`` and ``zunmbr`` of numpy's own LAPACK, or None.

    numpy >= 2 wheels export them as ``scipy_<name>_64_``, numpy 1.x wheels
    as ``<name>_64_``; both take 64-bit integers.  Other builds give None.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    routines = []
    for name, (chars, pointers) in _SIGNATURES.items():
        symbol = next((s for s in (f"scipy_{name}_64_", f"{name}_64_") if hasattr(lib, s)), None)
        if symbol is None:
            return None
        routine = getattr(lib, symbol)
        routine.restype = None
        routine.argtypes = (
            [ctypes.c_char_p] * chars + [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * chars
        )
        routines.append(routine)
    return tuple(routines)


_LAPACK = _lapack_routines()


@dataclass(frozen=True)
class SvdResult:
    """Leading left singular vectors of H and its full singular value sequence.

    ``U`` has K columns, the order the caller chose from ``spectrum``, so
    rank diagnostics and the subspace come from one decomposition.
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


def _call(routine, *args) -> None:
    """Call a LAPACK routine of :func:`_lapack_routines` with ``info``
    appended: one-character strings as they are, ints as 64-bit integers by
    reference, arrays by address.  A nonzero ``info`` raises
    ``LinAlgError``."""
    info = np.zeros(1, dtype=np.int64)
    held = [np.array([a], dtype=np.int64) if isinstance(a, (int, np.integer)) else a for a in args]
    held.append(info)
    chars = sum(isinstance(a, bytes) for a in held)
    routine(*(a if isinstance(a, bytes) else a.ctypes.data for a in held), *[1] * chars)
    if info[0] != 0:
        raise np.linalg.LinAlgError("SVD did not converge")


def _call_with_workspace(routine, *args) -> None:
    """:func:`_call` with a complex workspace of the size LAPACK asks for."""
    query = np.empty(1, dtype=np.complex128)
    _call(routine, *args, query, -1)
    work = np.empty(int(query[0].real), dtype=np.complex128)
    _call(routine, *args, work, len(work))


def _leading(order, spectrum: np.ndarray) -> int:
    """The number of left singular vectors ``order`` asks for."""
    k = order(spectrum) if callable(order) else len(spectrum) if order is None else order
    if not 1 <= k <= len(spectrum):
        raise DomainError(f"cannot return {k} of {len(spectrum)} singular vectors")
    return k


def _lapack_svd(H: np.ndarray, order) -> tuple[np.ndarray, np.ndarray]:
    """Bidiagonal route for a tall or square H (rows >= columns).

    ``zgebrd`` reduces H = Q B P^* with B real upper bidiagonal (Golub &
    Kahan, SIAM J. Numer. Anal. B 2(2), 1965); ``dbdsdc``, by divide and
    conquer (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16(1), 1995), gives
    all singular values of B and its left singular vectors; ``zunmbr``
    applies Q to the first K of those only.  These are the steps ``zgesdd``
    takes for a square H, so the singular values are the same; the right
    vectors of H are never formed.
    """
    zgebrd, dbdsdc, zunmbr = _LAPACK
    m, n = H.shape
    A = np.array(H, dtype=np.complex128, order="F")
    s, e = np.empty(n), np.empty(max(n - 1, 1))
    tauq, taup = np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)
    _call_with_workspace(zgebrd, m, n, A, m, s, e, tauq, taup)
    # a NaN or infinity anywhere in H reaches the bidiagonal
    if not (np.isfinite(s).all() and np.isfinite(e[: n - 1]).all()):
        raise np.linalg.LinAlgError("SVD did not converge")
    Ub, Vb = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    unused = np.empty(1)
    work, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.int64)
    _call(dbdsdc, b"U", b"I", n, s, e, Ub, n, Vb, n, unused, unused, work, iwork)
    k = _leading(order, s)
    U = np.zeros((m, k), dtype=np.complex128, order="F")
    U[:n] = Ub[:, :k]
    _call_with_workspace(zunmbr, b"Q", b"L", b"N", m, k, n, A, m, tauq, U, m)
    return U, s


def truncated_svd(
    matrix: np.ndarray, order: int | Callable[[np.ndarray], int] | None = None
) -> SvdResult:
    """Leading left singular vectors and all singular values of a dense
    complex matrix.

    ``order`` gives the number K of left singular vectors returned: an int,
    a function of the descending spectrum (called once, between the
    singular values and the vectors; what it raises propagates), or None
    for all min(H.shape).  The right singular vectors, which the estimator
    does not read, are not returned.  A wide H (more columns than rows) is
    first reduced to a square factor by the R-SVD of Chan (ACM TOMS 8(1),
    1982): with H^* = QR, H = R^* Q^*, so H and R^* share U and the singular
    values, and Q, whose columns are as long as H's rows, is never formed.
    Square and tall H then go to the bidiagonal route of
    :func:`_lapack_svd`, or to ``np.linalg.svd`` where numpy's LAPACK
    routines were not found; both raise ``LinAlgError`` when LAPACK fails.
    """
    H = np.asarray(matrix, dtype=np.complex128)
    if H.ndim != 2 or H.size == 0:
        raise DomainError(f"expected a nonempty 2-d matrix, got shape {H.shape}")
    if H.shape[1] > H.shape[0]:
        H = np.linalg.qr(H.conj().T, mode="r").conj().T
    if _LAPACK is not None:
        U, s = _lapack_svd(H, order)
    else:
        U, s, _ = np.linalg.svd(H, full_matrices=False)
        U = U[:, : _leading(order, s)]
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
