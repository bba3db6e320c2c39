"""Sum-indexed structured matrices on general lattice domains.

For a sampled sequence f, a row grid Xi and a column grid Upsilon, the
matrix entry at (row n, column m) is f(x_n + y_m), rows and columns running
through the canonical orders of the two grids.  In one dimension with
contiguous ranges this is an ordinary Hankel matrix (constant along
anti-diagonals); on boxes it is the block-Hankel matrix induced by the
vectorized index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import IndexSet, deletion_masks
from .errors import CoverageError, DomainError
from .linalg_backend import _readonly
from .signal import MdSequence

# Numerical-rank cutoff used when no explicit tolerance is given; suited to
# noise-free data.
DEFAULT_RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class GdHankel:
    """Dense sum-indexed matrix together with its row and column grids."""

    matrix: np.ndarray
    xi: IndexSet
    upsilon: IndexSet

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def build_hankel(f: MdSequence, xi: IndexSet, upsilon: IndexSet) -> GdHankel:
    """Assemble the |Xi| x |Upsilon| matrix H[n, m] = f(x_n + y_m).

    Every needed sum x + y must be covered by ``f.domain``; the first missing
    index (scanning rows, then columns) is reported otherwise.
    """
    d = f.domain.dim
    if xi.dim != d or upsilon.dim != d:
        raise DomainError(
            f"dimension mismatch: samples {d}, rows {xi.dim}, columns {upsilon.dim}"
        )
    lo, hi = f.domain.bounding_box
    extent = (hi - lo + 1).astype(np.int64)
    table = np.full(int(extent.prod()), -1, dtype=np.int64)
    omega_keys = np.zeros(len(f.domain), dtype=np.int64)
    for p in range(d):
        omega_keys = omega_keys * extent[p] + (f.domain.as_array[:, p] - lo[p])
    table[omega_keys] = np.arange(len(f.domain))

    xs, ys = xi.as_array, upsilon.as_array
    keys = np.zeros((len(xi), len(upsilon)), dtype=np.int64)
    inside = np.ones((len(xi), len(upsilon)), dtype=bool)
    for p in range(d):
        sums = xs[:, p, None] + ys[None, :, p]
        inside &= (sums >= lo[p]) & (sums <= hi[p])
        keys = keys * extent[p] + (sums - lo[p])

    def _first_missing(mask: np.ndarray):
        n, m = np.argwhere(mask)[0]
        missing = tuple(int(c) for c in xs[n] + ys[m])
        raise CoverageError(
            f"sample at index {missing} is required by the structured matrix "
            "but was not provided",
            missing=missing,
        )

    if not inside.all():
        _first_missing(~inside)
    idx = table[keys]
    if (idx < 0).any():
        _first_missing(idx < 0)
    return GdHankel(matrix=_readonly(f.values[idx]), xi=xi, upsilon=upsilon)


def hankel_rank_profile(
    H: GdHankel | np.ndarray, rel_tol: float = DEFAULT_RANK_REL_TOL
) -> tuple[np.ndarray, int]:
    """Singular value sequence (descending) and numerical rank.

    The rank counts singular values at or above ``rel_tol`` times the
    largest one.
    """
    if not 0 < rel_tol < 1:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    matrix = H.matrix if isinstance(H, GdHankel) else np.asarray(H, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.size == 0:
        raise DomainError(f"expected a nonempty 2-d matrix, got shape {matrix.shape}")
    spectrum = np.linalg.svd(matrix, compute_uv=False)
    if spectrum[0] == 0:
        return _readonly(spectrum), 0
    rank = int(np.count_nonzero(spectrum >= rel_tol * spectrum[0]))
    return _readonly(spectrum), rank


def capacity(xi: IndexSet) -> int:
    """Largest model order the row grid can resolve.

    Equals the smallest over dimensions of (number of points minus number of
    fibers); for an N-cube in d dimensions this is N^(d-1) * (N-1).
    Degenerate fibers raise before any estimate is attempted.
    """
    return min(len(deletion_masks(xi, p).keep_minus) for p in range(1, xi.dim + 1))
