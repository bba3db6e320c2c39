"""Subspace frequency estimation through shift invariance.

The column span of the top singular vectors of a sum-indexed sample matrix
is also spanned by the node-power columns, so deleting rows on either end of
every fiber and solving a least-squares problem yields, per dimension p, a
small matrix A_p whose eigenvalues are the p-th node coordinates.  The
singular vectors are orthonormal, so that least-squares problem reduces
(Woodbury) to a square system with one row per fiber.

:func:`esprit_nd` is the one estimation pipeline; it works on arbitrary
convex-fiber row grids.  All A_p are put into a single eigenbasis computed
from a seeded random unit-modulus combination of them, which pairs the
per-dimension coordinates row by row and survives repeated eigenvalues in
any single A_p.  :func:`esprit_block` is its front-end for a sample tensor
on a box, with the near-square row and column boxes chosen from the shape;
:func:`esprit_1d` is that front-end's one-dimensional call.

Frequencies are principal logarithms of the recovered nodes, so imaginary
parts lie in (-pi, pi]; integer sampling cannot tell frequencies apart that
differ by an integer multiple of 2*pi*i.

The coefficients are the least-squares fit of the recovered terms to all
samples.  On every domain they come from the normal equations while V^*V,
with V the node-power matrix, stays well conditioned (on a product set
V^*V is built from per-dimension tables without forming V, under the
exponent guard of ``signal._axis_tables``); otherwise from
an SVD-based solve on V, where a numerical rank below the model order is a
:class:`ModelOrderError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg_backend as lb
from .domains import IndexSet, DeletionMasks, _number, _readonly, deletion_masks, make_box
from .errors import (
    CapacityError,
    CoverageError,
    DomainError,
    ModelOrderError,
    PairingError,
    RankDeficiencyError,
)
from .signal import ExponentialModel, MdSequence, _axis_tables, vandermonde

# Numerical-rank cutoff used when no explicit tolerance is given; suited to
# noise-free data.
DEFAULT_RANK_REL_TOL = 1e-10

# Condition estimate of the coefficient system beyond which the recovered
# coefficients are flagged as unreliable.
COEFF_COND_LIMIT = 1e12

# Condition of the Gram matrix V^*V (the square of V's) up to which
# coefficients come from the normal equations.
GRAM_COND_LIMIT = 1e8

# Eigenvector-matrix condition of the combined shift matrix beyond which the
# pairing is flagged as unreliable (numerically defective input).
EIGVEC_COND_LIMIT = 1e12

# Eigenvalues of the combined shift matrix closer than this fraction of the
# spectral radius make the terms inseparable.
MULTIPLICITY_GAP_REL = 1e-8

# Off-diagonal residual, relative to the matrix norm, up to which a pairing is
# accepted.  Loose by design: noisy data legitimately produces large
# off-diagonal mass, which is reported rather than treated as failure.
DIAG_RESIDUAL_TOL = 0.9


def _cutoff(value, what: str) -> float:
    value = _number(value, what)
    if not 0 < value < 1:
        raise DomainError(f"{what} must lie in (0, 1), got {value}")
    return value


@dataclass
class EspritOptions:
    """Tuning knobs for the estimators.

    ``model_order`` fixes the number of recovered terms; ``None`` selects it
    from the singular value sequence with relative cutoff ``auto_rel_tol``.
    ``combo_seed`` seeds the one random unit-modulus combination used to
    pair dimensions; pairing fails when that combination has (numerically)
    repeated eigenvalues or an off-diagonal residual exceeds
    ``DIAG_RESIDUAL_TOL`` relative to the matrix norm.
    """

    model_order: int | None = None
    auto_rel_tol: float = DEFAULT_RANK_REL_TOL
    combo_seed: int = 0

    def __post_init__(self):
        if self.model_order is not None:
            self.model_order = _number(self.model_order, "the model order", integral=True, minimum=1)
        self.auto_rel_tol = _cutoff(self.auto_rel_tol, "auto_rel_tol")
        # numpy seed sequences take nonnegative integers only
        self.combo_seed = _number(self.combo_seed, "combo_seed", integral=True, minimum=0)


@dataclass(frozen=True)
class JointDiagonalization:
    """Result of pairing the shift matrices in one eigenbasis."""

    nodes: np.ndarray  # (K, d): row k holds the node coordinates of term k
    off_diag_norms: np.ndarray  # Frobenius norm of the off-diagonal part, per dimension
    alphas: np.ndarray  # unit-modulus combination weights
    eigvec_cond: float  # 1-norm condition of the common eigenvector matrix


@dataclass(frozen=True)
class EstimationReport:
    """Recovered model plus the diagnostics of the run."""

    model: ExponentialModel
    singular_values: np.ndarray
    pairing_residuals: np.ndarray
    combo_used: np.ndarray
    coeff_condition: float
    unused_samples: int
    warnings: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class GdHankel:
    """Dense sum-indexed matrix and the number of samples no entry reads."""

    matrix: np.ndarray
    unused_samples: int


def build_hankel(f: MdSequence, xi: IndexSet, upsilon: IndexSet) -> GdHankel:
    """Assemble the |Xi| x |Upsilon| matrix H[n, m] = f(x_n + y_m).

    Rows and columns run through the canonical orders of the row grid Xi and
    the column grid Upsilon.  In one dimension with contiguous ranges this is
    an ordinary Hankel matrix (constant along anti-diagonals); on boxes it is
    the block-Hankel matrix induced by the vectorized index.

    Every needed sum x + y must be covered by ``f.domain``; the first missing
    index (scanning rows, then columns) is a :class:`CoverageError`.  Samples
    at no sum are counted in ``unused_samples``.  Grids of another dimension,
    or sums beyond int64, raise DomainError from ``IndexSet.locate_sums``.
    """
    idx = f.domain.locate_sums(xi, upsilon)
    if idx.min() < 0:
        n, m = np.argwhere(idx < 0)[0]
        missing = tuple((xi.as_array[n] + upsilon.as_array[m]).tolist())
        problem = "is required by the structured matrix but was not provided"
        raise CoverageError(f"sample at index {missing} {problem}", missing=missing)
    used = np.zeros(len(f.domain), dtype=bool)
    used[idx] = True
    unused = len(f.domain) - int(np.count_nonzero(used))
    matrix = f.values[idx]
    matrix.setflags(write=False)  # a fresh gather: no second copy of H
    return GdHankel(matrix=matrix, unused_samples=unused)


def auto_order(singular_values: np.ndarray, rel_tol: float) -> int:
    """Largest K with sigma_K >= rel_tol * sigma_1 (spectrum given descending)."""
    rel_tol = _cutoff(rel_tol, "rel_tol")
    s = np.asarray(singular_values, dtype=np.float64).ravel()
    if s.size == 0:
        raise DomainError("empty singular value sequence")
    if s[0] <= 0:
        return 0
    return int(np.count_nonzero(s >= rel_tol * s[0]))


def _principal_log(nodes: np.ndarray) -> np.ndarray:
    z = np.log(nodes)
    # keep the branch boundary on the +pi side
    return np.where(z.imag == -np.pi, z.conj(), z)


def _estimate_warnings(eigvec_cond: float, coeff_cond: float) -> tuple[str, ...]:
    """The report's warnings: an ill-conditioned pairing basis, then an
    ill-conditioned coefficient system."""
    out = []
    if not np.isfinite(eigvec_cond) or eigvec_cond > EIGVEC_COND_LIMIT:
        out.append(
            f"eigenvector matrix condition {eigvec_cond:.3e} exceeds {EIGVEC_COND_LIMIT:.0e}; "
            "input is numerically defective"
        )
    if coeff_cond > COEFF_COND_LIMIT:
        out.append(
            f"coefficient system condition {coeff_cond:.3e} exceeds {COEFF_COND_LIMIT:.0e}; "
            "coefficients may be unreliable"
        )
    return tuple(out)


def _coefficients(f: MdSequence, zetas: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of the terms ``zetas`` on the samples, and
    the condition number of their node-power matrix V.

    The normal equations V^*V c = V^*f are solved while V^*V is finite and
    its condition is at most ``GRAM_COND_LIMIT``; their rounding error grows
    like eps * cond(V^*V) on any domain.  Where ``signal._axis_tables`` gives
    the per-axis tables T_p (a product set within the exponent guard), V is
    their Khatri-Rao product, so V^*V is the Hadamard product of the
    T_p^*T_p and V^*f is d contractions of the sample tensor; V is not
    formed.  Any other domain forms V once.  Past the guard, the SVD-based
    solve on V takes over, and there a rank below K raises
    :class:`ModelOrderError`.
    """
    K = zetas.shape[0]
    tables = _axis_tables(f.domain, zetas)
    V = None
    if tables is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = np.ones((K, K), dtype=np.complex128)
            for T in tables:
                gram *= T.conj().T @ T
            # canonical order is first coordinate fastest
            rhs = f.values.reshape(-1, len(tables[0])) @ tables[0].conj()
            for T in tables[1:]:
                rhs = (rhs.reshape(-1, len(T), K) * T.conj()).sum(axis=1)
            rhs = rhs[0]
    else:
        V = vandermonde(f.domain, zetas)
        Vh = V.conj().T
        gram, rhs = Vh @ V, Vh @ f.values
    if np.isfinite(gram).all():
        lam = np.linalg.eigvalsh(gram)
        if 0 < lam[-1] <= GRAM_COND_LIMIT * lam[0]:
            return np.linalg.solve(gram, rhs), float(np.sqrt(lam[-1] / lam[0]))
    if V is None:
        V = vandermonde(f.domain, zetas)
    coeffs, cond = lb.lstsq_minimum_norm(V, f.values)
    if not np.isfinite(cond):
        raise ModelOrderError(
            f"least squares dropped a term entirely (model order {K} exceeds the "
            "numerical rank of the data); lower the order or use automatic selection"
        )
    return coeffs, cond


def _check_capacity(K: int, cap: int, n_columns: int) -> None:
    if K > cap:
        raise CapacityError(
            f"model order {K} exceeds the capacity {cap} of the row grid "
            "(minimum over dimensions of point count minus fiber count; "
            "N^(d-1)*(N-1) for an N-cube)",
            capacity=cap,
            requested=K,
        )
    if K > n_columns:
        raise CapacityError(
            f"model order {K} exceeds the {n_columns} points of the column grid",
            capacity=n_columns,
            requested=K,
        )


def _shift_from_masks(U: np.ndarray, masks: DeletionMasks) -> np.ndarray:
    # U has orthonormal columns, so with W the rows that keep_minus drops
    # (the last member of every fiber), U_-^* U_- = I - W^* W and by Woodbury
    # the least-squares solution of U_- A = U_+ is
    # A = G + W^* (I - W W^*)^{-1} W G with G = U_-^* U_+.  That system is
    # Hermitian positive semidefinite, so one eigh gives both its numerical
    # rank (gelsd's default cutoff, eps * rows * lambda_max) and its solution.
    dropped = np.ones(U.shape[0], dtype=bool)
    dropped[masks.keep_minus] = False
    W = U[dropped]
    G = U[masks.keep_minus].conj().T @ U[masks.keep_plus]
    lam, Q = np.linalg.eigh(np.eye(W.shape[0]) - W @ W.conj().T)
    full = np.count_nonzero(lam > np.finfo(np.float64).eps * len(lam) * lam[-1])
    if full < len(lam):
        # the null spaces of I - W W^* and U_-^* U_- have the same dimension
        rank = U.shape[1] - (len(lam) - full)
        raise RankDeficiencyError(
            f"rows kept along dimension {masks.dimension_p} have numerical rank "
            f"{rank} < {U.shape[1]} subspace columns",
            rank=rank,
        )
    return G + W.conj().T @ (Q @ ((Q.conj().T @ (W @ G)) / lam[:, None]))


def joint_eig(shift_matrices: list[np.ndarray], options: EspritOptions | None = None) -> JointDiagonalization:
    """Pair the per-dimension shift matrices through one eigenbasis.

    One seeded random unit-modulus combination M = sum_p alpha_p A_p is
    diagonalized; its eigenbasis is applied to every A_p and the diagonals
    are read off, so row k collects the coordinates of one term across all
    dimensions.  :class:`PairingError` is raised when M has numerically
    repeated eigenvalues, or, carrying the residuals, when some off-diagonal
    residual exceeds the tolerance.  Another draw would fail alike, except
    with negligible probability, so none is made.
    """
    opts = options or EspritOptions()
    mats = [np.asarray(A, dtype=np.complex128) for A in shift_matrices]
    if not mats:
        raise DomainError("need at least one shift matrix")
    K = mats[0].shape[0]
    for A in mats:
        if A.ndim != 2 or A.shape != (K, K):
            raise DomainError(f"shift matrices must all be {K}x{K}, got {A.shape}")
    alphas = np.exp(2j * np.pi * np.random.default_rng(opts.combo_seed).random(len(mats)))
    eig = lb.eig_full(sum(a * A for a, A in zip(alphas, mats)))
    mu = eig.eigenvalues
    if K > 1:
        gaps = np.abs(mu[:, None] - mu[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < MULTIPLICITY_GAP_REL * np.abs(mu).max():
            raise PairingError(
                "the combined shift matrix has numerically repeated eigenvalues; "
                "the terms cannot be separated"
            )
    B, V = eig.eigvecs_inv, eig.eigvecs
    diagonals, residuals = [], np.empty(len(mats))
    for p, A in enumerate(mats):
        Dp = B @ (A @ V)  # B A B^{-1}, with the eigenvectors V as B^{-1}
        g = np.diag(Dp).copy()
        # Dp - diag(g) in place: g - g is 0 where g is finite, NaN where not
        np.fill_diagonal(Dp, g - g)
        diagonals.append(g)
        residuals[p] = np.linalg.norm(Dp)
    if not np.all(residuals <= DIAG_RESIDUAL_TOL * np.array([np.linalg.norm(A) for A in mats])):
        raise PairingError(
            "off-diagonal residuals "
            + np.array2string(residuals, precision=3)
            + " exceed the tolerance; the shift matrices do not share an eigenbasis",
            residuals=residuals,
        )
    return JointDiagonalization(
        nodes=_readonly(np.stack(diagonals, axis=1)),
        off_diag_norms=_readonly(residuals),
        alphas=_readonly(alphas),
        eigvec_cond=eig.eigvec_cond,
    )


def esprit_nd(
    f: MdSequence,
    xi: IndexSet,
    upsilon: IndexSet,
    options: EspritOptions | None = None,
) -> EstimationReport:
    """General-domain frequency estimation.

    ``xi`` (row grid) must have convex fibers; ``f`` must cover every sum
    x + y of a row point and a column point.  The model order comes from
    ``options`` (fixed, or selected from the singular value sequence) and is
    checked against the grid capacity before any subspace work, and against
    the numerical rank of the sample matrix before its singular vectors are
    formed; both paths factor the sample matrix once.  The
    report counts the samples at no such sum, which only the coefficient
    fit uses.

    Each large array is dropped after its last read: the sample matrix H
    once it is factored, its singular vectors once the shift matrices
    exist, and those once they are paired.  The peak is thus inside the
    SVD, where H, its Fortran-order factor copy and, when 10K exceeds the
    shorter side n of H, ``dbdsdc``'s 5n^2 doubles are live.
    """
    opts = options or EspritOptions()
    d = f.domain.dim
    H = build_hankel(f, xi, upsilon)
    longest, unused = max(H.matrix.shape), H.unused_samples
    masks = [deletion_masks(xi, p) for p in range(1, d + 1)]
    cap = min(len(m.keep_minus) for m in masks)
    if opts.model_order is not None:
        _check_capacity(opts.model_order, cap, len(upsilon))

    def order(s: np.ndarray) -> int:
        K = opts.model_order
        if K is None:
            K = auto_order(s, opts.auto_rel_tol)
            if K < 1:
                raise ModelOrderError("selected model order is zero; nothing to recover")
            _check_capacity(K, cap, len(upsilon))
        if auto_order(s, longest * np.finfo(np.float64).eps) < K:
            raise ModelOrderError(
                f"sample matrix has numerical rank below {K}; "
                "fewer terms are present than requested"
            )
        return K

    # the order is chosen between the singular values and the vectors
    svd = lb.truncated_svd(H.matrix, order)
    del H
    s = svd.spectrum
    shifts = [_shift_from_masks(svd.U, m) for m in masks]
    del svd
    jd = joint_eig(shifts, opts)
    del shifts
    zetas = _principal_log(jd.nodes)
    coeffs, cond = _coefficients(f, zetas)
    return EstimationReport(
        model=ExponentialModel(dim=d, zetas=zetas, coeffs=coeffs),
        singular_values=s,
        pairing_residuals=jd.off_diag_norms,
        combo_used=jd.alphas,
        coeff_condition=cond,
        unused_samples=unused,
        warnings=_estimate_warnings(jd.eigvec_cond, cond),
    )


def esprit_1d(samples: np.ndarray, model_order: int) -> np.ndarray:
    """Recover ``model_order`` 1-d frequencies (complex, imaginary part in
    (-pi, pi]) from samples at consecutive integers: the one-dimensional
    call of :func:`esprit_block`."""
    report = esprit_block(np.ravel(samples), EspritOptions(model_order=model_order))
    return report.model.zetas[:, 0]


def esprit_block(samples: np.ndarray, options: EspritOptions | None = None) -> EstimationReport:
    """Box-grid frequency estimation on a d-dimensional sample tensor.

    ``samples`` holds f on consecutive integers (axis p is coordinate p), at
    least 3 along every axis.  The tensor is flattened in the canonical order
    (first axis fastest) and passed to :func:`esprit_nd` with a row box of
    ceil((n_p+1)/2) points along axis p and a column box of the remaining
    n_p - rows + 1, which keeps the sample matrix as square as the box allows
    (Hua & Sarkar's pencil parameter); on a (2N-1)^d cube both are the N-cube.
    """
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.ndim < 1 or min(arr.shape) < 3:
        raise DomainError(f"need at least 3 samples along every axis, got shape {arr.shape}")
    rows = tuple((n + 1) // 2 for n in arr.shape)
    cols = tuple(n - r + 1 for n, r in zip(arr.shape, rows))
    f = MdSequence(make_box(arr.shape), arr.ravel(order="F"))
    return esprit_nd(f, make_box(rows), make_box(cols), options)
