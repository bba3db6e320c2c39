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

from .domains import IndexSet, _check_sums, deletion_masks
from .errors import CoverageError, DomainError
from .linalg_backend import _readonly
from .signal import MdSequence

# Numerical-rank cutoff used when no explicit tolerance is given; suited to
# noise-free data.
DEFAULT_RANK_REL_TOL = 1e-10


def auto_order(singular_values: np.ndarray, rel_tol: float) -> int:
    """Largest K with sigma_K >= rel_tol * sigma_1 (spectrum given descending)."""
    if not 0 < rel_tol < 1:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    s = np.asarray(singular_values, dtype=np.float64).ravel()
    if s.size == 0:
        raise DomainError("empty singular value sequence")
    if s[0] <= 0:
        return 0
    return int(np.count_nonzero(s >= rel_tol * s[0]))


@dataclass(frozen=True)
class GdHankel:
    """Dense sum-indexed matrix and the number of samples no entry reads."""

    matrix: np.ndarray
    unused_samples: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def build_hankel(f: MdSequence, xi: IndexSet, upsilon: IndexSet) -> GdHankel:
    """Assemble the |Xi| x |Upsilon| matrix H[n, m] = f(x_n + y_m).

    Every needed sum x + y must be covered by ``f.domain``; the first missing
    index (scanning rows, then columns) is reported otherwise.  Samples at no
    sum are counted in ``unused_samples``.
    """
    d = f.domain.dim
    if xi.dim != d or upsilon.dim != d:
        raise DomainError(
            f"dimension mismatch: samples {d}, rows {xi.dim}, columns {upsilon.dim}"
        )
    _check_sums(xi.bounding_box, upsilon.bounding_box)
    xs, ys = xi.as_array, upsilon.as_array
    idx = f.domain.locate(xs[:, None, p] + ys[None, :, p] for p in range(d))
    if (idx < 0).any():
        n, m = np.argwhere(idx < 0)[0]
        missing = tuple((xs[n] + ys[m]).tolist())
        problem = "is required by the structured matrix but was not provided"
        raise CoverageError(f"sample at index {missing} {problem}", missing=missing)
    used = np.zeros(len(f.domain), dtype=bool)
    used[idx] = True
    unused = len(f.domain) - int(np.count_nonzero(used))
    return GdHankel(matrix=_readonly(f.values[idx]), unused_samples=unused)


def capacity(xi: IndexSet) -> int:
    """Largest model order the row grid can resolve.

    Equals the smallest over dimensions of (number of points minus number of
    fibers); for an N-cube in d dimensions this is N^(d-1) * (N-1).
    Degenerate fibers raise before any estimate is attempted.
    """
    return min(len(deletion_masks(xi, p).keep_minus) for p in range(1, xi.dim + 1))
