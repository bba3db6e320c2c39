"""Thin numerical backend: SVD, eigendecomposition, least squares.

Holds the estimator's large or general solves: the sample-matrix SVD, the
non-Hermitian eigendecomposition and the ``gelsd`` coefficient fallback.
The small Hermitian systems (the fiber solve and the normal equations) call
``np.linalg.eigh``, ``eigvalsh`` and ``solve`` in :mod:`gdesprit.esprit`
directly.  Conventions: a singular value decomposition returns the K
leading left singular vectors U_K and all singular values of H, since the
estimator reads nothing else; an eigendecomposition is
A = B^{-1} diag(lambda) B.

The SVD calls ``zgebrd``, ``dbdsdc``, ``zunmbr`` and ``dstein`` from the
LAPACK that ``numpy.linalg`` is linked to, found once at import through
``ctypes`` (the ILP64 names of numpy's OpenBLAS wheels): the singular values
by dqds, and the K leading left singular vectors by inverse iteration when
K is small beside min(H.shape), else by divide and conquer.  Where any of
the four is not found it calls ``np.linalg.svd``, which forms U and V in
full.
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
_SIGNATURES = {"zgebrd": (0, 11), "dbdsdc": (2, 12), "zunmbr": (3, 11), "dstein": (0, 13)}


def _lapack_routines() -> tuple | None:
    """``zgebrd``, ``dbdsdc``, ``zunmbr`` and ``dstein`` of numpy's own
    LAPACK, or None unless all four are found.

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
    rank diagnostics and the subspace come from one decomposition.  On the
    LAPACK route ``spectrum`` comes from dqds whichever way ``U`` was
    formed, the values ``np.linalg.svd(H, compute_uv=False)`` gives for a
    square H.
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


def _run(routine, *args) -> int:
    """Call a LAPACK routine of :func:`_lapack_routines` with ``info``
    appended, and return ``info``: one-character strings as they are, ints
    as 64-bit integers by reference, arrays by address."""
    info = np.zeros(1, dtype=np.int64)
    held = [np.array([a], dtype=np.int64) if isinstance(a, (int, np.integer)) else a for a in args]
    held.append(info)
    chars = sum(isinstance(a, bytes) for a in held)
    routine(*(a if isinstance(a, bytes) else a.ctypes.data for a in held), *[1] * chars)
    return int(info[0])


def _call(routine, *args) -> None:
    """:func:`_run`, raising ``LinAlgError`` on a nonzero ``info``."""
    if _run(routine, *args) != 0:
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


INVERSE_ITERATION_RATIO = 10
"""Inverse iteration gives the bidiagonal's K leading left singular vectors
when its order n is at least this many times K; otherwise divide and
conquer gives all n of them.  The bidiagonal stage in ms, divide and
conquer against dqds plus ``dstein`` (2-core Xeon, numpy 2.4.6 with
OpenBLAS 0.3.31)::

    n = 441, noisy        K = 40: 17.3 / 7.5   K = 100: 17.3 / 13.8   K = 200: 17.3 / 30.9
    n = 441, noise-free   K = 40:  8.3 / 7.3   K = 100:  8.3 / 13.9
    n = 512, noise-free   K = 100: 16.0 / 12.6  K = 350: 16.0 / 34.8
    n = 121               K = 100:  0.9 / 2.4

Inverse iteration never lost at n/K >= 10, and it loses at n/K of 1.5 and
1.2, the ``cube3d`` and ``halfdisc_cli`` benchmark sizes.
"""


def _bidiagonal_vectors(d: np.ndarray, e: np.ndarray, s: np.ndarray, k: int) -> np.ndarray:
    """The k leading left singular vectors of the upper bidiagonal B with
    diagonal ``d`` and superdiagonal ``e``, whose singular values ``s`` are
    known; ``d`` and ``e`` are overwritten.

    When n >= ``INVERSE_ITERATION_RATIO`` k and sigma_k > n eps sigma_1
    (so that +sigma_k stays apart from -sigma_k), ``dstein`` runs inverse iteration on the 2n x 2n Golub-Kahan
    tridiagonal, with zero diagonal and off-diagonal d_1, e_1, d_2, ...,
    d_n, whose eigenvalues are +-sigma; the eigenvector of +sigma_j is
    (v_1, u_1, v_2, u_2, ...) / sqrt(2), so u_j is every second entry
    (Marques, Demmel & Vasconcelos, ACM TOMS 46(2), 2020).  Otherwise, or
    when ``dstein`` reports a vector that did not converge, ``dbdsdc``
    forms all n left and right vectors by divide and conquer (Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16(1), 1995) and the first k are
    kept.
    """
    _, dbdsdc, _, dstein = _LAPACK
    n = len(d)
    if INVERSE_ITERATION_RATIO * k <= n and s[k - 1] > n * np.finfo(float).eps * s[0]:
        offdiagonal = np.empty(2 * n)
        offdiagonal[0::2], offdiagonal[1:-1:2] = d, e[: n - 1]
        # one block: eigenvalues sigma_k, ..., sigma_1 ascending, split at 2n
        ascending, blocks = s[k - 1 :: -1].copy(), np.ones(k, dtype=np.int64)
        Z, work = np.empty((2 * n, k), order="F"), np.empty(10 * n)
        iwork, ifail = np.empty(2 * n, dtype=np.int64), np.empty(k, dtype=np.int64)
        tgk = (2 * n, np.zeros(2 * n), offdiagonal, k, ascending, blocks, 2 * n)
        if _run(dstein, *tgk, Z, 2 * n, work, iwork, ifail) == 0:
            return np.sqrt(2) * Z[1::2, ::-1]
    Ub, Vb = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    unused = np.empty(1)
    work, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.int64)
    _call(dbdsdc, b"U", b"I", n, d, e, Ub, n, Vb, n, unused, unused, work, iwork)
    return Ub[:, :k]


def _lapack_svd(H: np.ndarray, order) -> tuple[np.ndarray, np.ndarray]:
    """Bidiagonal route for a tall or square H (rows >= columns).

    ``zgebrd`` reduces H = Q B P^* with B real upper bidiagonal (Golub &
    Kahan, SIAM J. Numer. Anal. B 2(2), 1965); ``dbdsdc`` without vectors
    gives all singular values of B by dqds (Fernando & Parlett, Numer.
    Math. 67, 1994), the steps ``zgesdd`` takes for the singular values
    alone of a square H; :func:`_bidiagonal_vectors` gives the K leading
    left singular vectors of B, and ``zunmbr`` applies Q to those only.
    The right vectors of H are never formed.
    """
    zgebrd, dbdsdc, zunmbr, _ = _LAPACK
    m, n = H.shape
    A = np.array(H, dtype=np.complex128, order="F")
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    tauq, taup = np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)
    _call_with_workspace(zgebrd, m, n, A, m, d, e, tauq, taup)
    # a NaN or infinity anywhere in H reaches the bidiagonal
    if not (np.isfinite(d).all() and np.isfinite(e[: n - 1]).all()):
        raise np.linalg.LinAlgError("SVD did not converge")
    s, unused = d.copy(), np.empty(1)
    work, iwork = np.empty(4 * n), np.empty(8 * n, dtype=np.int64)
    _call(dbdsdc, b"U", b"N", n, s, e.copy(), unused, 1, unused, 1, unused, unused, work, iwork)
    k = _leading(order, s)
    vectors = _bidiagonal_vectors(d, e, s, k)
    # allocated after the bidiagonal stage has freed its right vectors and workspace
    U = np.zeros((m, k), dtype=np.complex128, order="F")
    U[:n] = vectors
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
