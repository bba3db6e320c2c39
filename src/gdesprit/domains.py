"""Integer-lattice domain algebra.

An :class:`IndexSet` is a finite subset of Z^d held as one sorted,
deduplicated, read-only ``(n, d)`` int64 array, ``as_array``, in canonical
order: points are compared by their reversed coordinate tuple, so the first
coordinate varies fastest.  On a box of side N this is exactly the
vectorization m1 + m2*N + m3*N**2 + ..., on which every structured matrix is
built.  It is the only stored form; ``points``, the same set as int tuples,
is built on first read.  Dimensions count from 1.

:meth:`IndexSet.locate` ranks query coordinates by a binary search per
dimension, and one among the points' keys gives the position; the sums of two
sets rank only their small per-dimension tables of axis sums (``locate_sums``,
:func:`minkowski_sum`).  Nothing is sized by box volume, and every set can be
looked up.

Coordinate sums (boxes, translation, Minkowski sum, erosion, structured matrices) are
int64 array arithmetic; each is first checked on the bounding boxes, and a sum
that would leave int64 raises :class:`DomainError` instead of wrapping.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DecompositionError, DegenerateFiberError, DomainError

Point = tuple[int, ...]

_INT64 = np.iinfo(np.int64)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


def _coords(raw, dim: int) -> np.ndarray:
    """Points as one ``(n, dim)`` int64 array; anything else is a DomainError."""
    try:
        arr = np.asarray(raw)
    except (TypeError, ValueError) as exc:  # ragged input
        raise DomainError(f"points do not form an (n, {dim}) array: {exc}") from exc
    if arr.ndim == 1 and dim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise DomainError("an index set must contain at least one point")
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(f"points of shape {arr.shape} do not have dimension {dim}")
    objs = () if isinstance(raw, np.ndarray) else np.asarray(raw, dtype=object).flat
    if any(isinstance(c, (bool, np.bool_)) for c in objs):  # a list casts a bool to 1 or 0
        raise DomainError("coordinates must be integers, got a boolean")
    whole = arr.dtype.kind in "fu" and np.all((arr == np.floor(arr)) & (np.abs(arr) < 2.0**63))
    if not (arr.dtype.kind == "i" or whole):
        raise DomainError(f"coordinates must be integers within int64, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def _check_sums(*boxes) -> None:
    """Raise DomainError unless every sum of one point from each ``(lo, hi)``
    box lies inside int64; the bounds are added as Python ints, so the check
    itself cannot wrap."""
    for bounds in zip(*boxes):  # all lower bounds, then all upper bounds
        total = [sum(map(int, c)) for c in zip(*bounds)]
        if not all(_INT64.min <= t <= _INT64.max for t in total):
            raise DomainError(f"coordinate sums reach {total}, beyond int64")


def _key_levels(axes):
    """From ``(values, rank)`` per dimension: the sorted prefix keys to squeeze
    the running key to first (None while it fits in int64), the values and the
    key stride; then the keys, which sort as the points do in canonical order."""
    levels, key, count = [], 0, 1
    for axis, rank in axes:
        squeeze = None
        if count * len(axis) > _INT64.max:
            squeeze, key = np.unique(key, return_inverse=True)
            count = len(squeeze)
        levels.append((squeeze, axis, count))
        key, count = key + rank * count, count * len(axis)
    return levels, key


def _pair_terms(table: np.ndarray, ar: np.ndarray, br: np.ndarray):
    """``table[ar[i], br[j]]`` for every pair (i, j) as two terms that add by
    broadcasting: a column and a row vector where the table is affine,
    alpha_i + beta_j (boxes, half-discs, triangles), else the gather and 0."""
    alpha, beta = table[:, :1], table[:1] - table[0, 0]
    if np.array_equal(table, alpha + beta):
        return alpha[ar], beta[:, br]
    return table[ar[:, None], br], 0


def _search(values: np.ndarray, query, found):
    """Index of each query in the sorted array ``values`` (clipped into it),
    and ``found`` narrowed to the queries that are there."""
    at = np.minimum(np.searchsorted(values, query), len(values) - 1)
    return at, found & (values[at] == query)


@dataclass(frozen=True, eq=False)
class IndexSet:
    """Immutable finite subset of Z^d in canonical order, built from any
    ``(n, dim)`` integer array-like of points."""

    dim: int
    as_array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _number(self.dim, "dimension", integral=True, minimum=1))
        arr = _coords(self.as_array, self.dim)
        arr = arr[np.lexsort(arr.T)]
        arr = arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]]
        arr.setflags(write=False)
        object.__setattr__(self, "as_array", arr)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The points as int tuples, in canonical order."""
        return tuple(self)

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return _readonly(self.as_array.min(axis=0)), _readonly(self.as_array.max(axis=0))

    @cached_property
    def axes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per dimension, the sorted distinct coordinate values and each
        point's rank among them (read-only arrays)."""
        axes = tuple(np.unique(col, return_inverse=True) for col in self.as_array.T)
        for values, rank in axes:
            values.setflags(write=False)
            rank.setflags(write=False)
        return axes

    @cached_property
    def _levels(self) -> tuple[list[tuple[np.ndarray | None, np.ndarray, int]], np.ndarray]:
        """The lookup tables of :func:`_key_levels` and the points' keys."""
        return _key_levels(self.axes)

    def locate(self, coords: Iterable[np.ndarray]) -> np.ndarray:
        """Positions of query points in the canonical order, -1 where absent.

        ``coords`` holds one integer array per dimension, all of the result's
        shape, read one at a time: a generator of per-dimension sums never
        builds a ``(..., d)`` query array.
        """
        levels, keys = self._levels
        key, found = 0, True
        try:
            for (squeeze, axis, stride), c in zip(levels, coords, strict=True):
                if squeeze is not None:
                    key, found = _search(squeeze, key, found)
                rank, found = _search(axis, c, found)
                key = key + rank * stride
        except ValueError as exc:
            raise DomainError(f"need {self.dim} coordinate arrays of one shape: {exc}") from exc
        pos, found = _search(keys, key, found)
        return np.where(found, pos, -1)

    def locate_sums(self, a: IndexSet, b: IndexSet) -> np.ndarray:
        """Positions of the sums ``a[i] + b[j]`` as a ``(len(a), len(b))``
        array, -1 where absent; other dimensions, or sums that could leave int64,
        raise DomainError.  Each dimension's small table of axis sums is ranked
        once and spread by :func:`_pair_terms`; no coordinate is searched per pair.
        """
        if not self.dim == a.dim == b.dim:
            raise DomainError(f"dimension mismatch: set {self.dim}, summands {a.dim} and {b.dim}")
        _check_sums(a.bounding_box, b.bounding_box)
        levels, keys = self._levels
        key, rows, cols, found = 0, 0, 0, True
        for (squeeze, axis, stride), (av, ar), (bv, br) in zip(levels, a.axes, b.axes):
            if squeeze is not None:
                key, found = _search(squeeze, key + rows + cols, found)
                rows = cols = 0
            rank, hit = _search(axis, av[:, None] + bv, True)
            r, c = _pair_terms(rank, ar, br)
            rows, cols = rows + r * stride, cols + c * stride
            if not hit.all():
                found = found & hit[ar[:, None], br]
        key = key + rows + cols
        if keys[-1] == len(keys) - 1:  # the keys are 0..n-1, as on a box
            pos, found = key, found & (key < len(keys))
        else:
            pos, found = _search(keys, key, found)
        np.copyto(pos, -1, where=~found)  # pos is a fresh array, and found an array
        return pos

    def __len__(self) -> int:
        return len(self.as_array)

    def __iter__(self):
        return map(tuple, self.as_array.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and np.array_equal(self.as_array, other.as_array)

    def __hash__(self) -> int:
        return hash((self.dim, self.as_array.tobytes()))

    def __contains__(self, point) -> bool:
        try:
            query = _coords((point,), self.dim)
        except DomainError:
            return False
        return bool(self.locate(query.T)[0] >= 0)


@dataclass(frozen=True)
class DeletionMasks:
    """Row-selection masks that realize the unit shift along one dimension.

    ``keep_minus`` drops the last member of every fiber, ``keep_plus`` drops
    the first.  Both are ascending positions into the canonical order, and
    entry j of ``keep_plus`` is entry j of ``keep_minus`` translated by one
    step along dimension ``dimension_p``.  Both are read-only int arrays.
    """

    dimension_p: int
    keep_minus: np.ndarray
    keep_plus: np.ndarray


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy int or float within the float range, not a bool."""
    ok = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return ok and (not isinstance(value, int) or abs(value) <= sys.float_info.max)


def _number(value, what: str, integral: bool = False, minimum=None):
    """``value`` as a float, or as an int where ``integral``; anything but a
    finite real number (a bool, a string, inf, nan, a fraction where a count
    is meant) or a number below ``minimum`` raises DomainError."""
    ok = _is_real(value) and math.isfinite(value) and (not integral or float(value).is_integer())
    if not ok:
        expected = "an integer" if integral else "a finite number"
        raise DomainError(f"{what} must be {expected}, got {value!r}")
    value = int(value) if integral else float(value)
    if minimum is not None and value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise DomainError(f"{what} must be {bound}, got {value}")
    return value


def _check_size(count: int, dim: int, what: str) -> None:
    """Raise DomainError if ``count`` points of dimension ``dim``, as one
    int64 array, exceed the bytes an array can address."""
    if count * dim * 8 > np.iinfo(np.intp).max:
        raise DomainError(f"{what} has more lattice points than one array can hold")


def make_box(widths: Sequence[int], offset: Sequence[int] | None = None) -> IndexSet:
    """Full box with the given per-dimension widths, anchored at ``offset``."""
    widths = tuple(_number(w, "a box width", integral=True, minimum=1) for w in widths)
    if not widths:
        raise DomainError("a box needs at least one width")
    _check_size(math.prod(widths), len(widths), f"the box {list(widths)}")
    off = np.zeros(len(widths), np.int64) if offset is None else _coords((offset,), len(widths))[0]
    _check_sums((off, off), ([0] * len(widths), [w - 1 for w in widths]))
    return IndexSet(len(widths), np.indices(widths).reshape(len(widths), -1).T + off)


def make_shape(spec: Mapping) -> IndexSet:
    """Build an index set from a JSON-style grid descriptor.

    Kinds: ``box`` (``widths``, optional ``offset``), ``triangle``
    (``side``), ``half_disc`` (``radius``) and ``mask`` (explicit
    ``points``).  An optional ``dim`` must equal the dimension described.
    Descriptors come from files and the command line, so every parameter is
    checked here and a malformed one raises :class:`DomainError`.
    """
    if not isinstance(spec, Mapping):
        raise DomainError(f"grid spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "box":
        widths = spec.get("widths")
        if not isinstance(widths, (list, tuple)):
            raise DomainError(f"box spec needs a list of widths, got {widths!r}")
        grid = make_box(widths, spec.get("offset"))
    elif kind == "triangle":
        side = _number(spec.get("side"), "the triangle side", integral=True, minimum=1)
        _check_size(side * (side + 1) // 2, 2, f"the triangle of side {side}")
        grid = IndexSet(2, [(i, j) for j in range(1, side + 1) for i in range(1, side + 2 - j)])
    elif kind == "half_disc":
        radius = _number(spec.get("radius"), "the half_disc radius", minimum=0)
        rmax = int(np.floor(radius))
        # the candidates i in [-rmax, rmax], j in [0, rmax] are built first
        _check_size((rmax + 1) * (2 * rmax + 1), 2, f"the half_disc of radius {radius}")
        i, j = np.meshgrid(np.arange(-rmax, rmax + 1), np.arange(rmax + 1))
        inside = i * i + j * j <= radius**2  # never empty: (0, 0) is inside
        grid = IndexSet(2, np.stack([i[inside], j[inside]], axis=1))
    elif kind == "mask":
        pts = spec.get("points")
        if not isinstance(pts, (list, tuple)) or not pts:
            raise DomainError("mask descriptor needs a nonempty point list")
        grid = IndexSet(len(pts[0]) if isinstance(pts[0], (list, tuple)) else 1, pts)
    else:
        raise DomainError(f"unknown grid kind {kind!r}")
    declared = spec.get("dim")
    if declared is not None and _number(declared, "dim", integral=True) != grid.dim:
        raise DomainError(f"grid spec declares dim {declared} but describes dim {grid.dim}")
    return grid


def minkowski_sum(a: IndexSet, b: IndexSet) -> IndexSet:
    """Pointwise sum set {x + y : x in a, y in b}: each pair is keyed by its
    ranks among the distinct values of each dimension's table of axis sums,
    and the distinct keys, decoded, are the sums in canonical order."""
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")
    _check_sums(a.bounding_box, b.bounding_box)
    def ranks():
        for (av, ar), (bv, br) in zip(a.axes, b.axes):
            values, rank = np.unique(av[:, None] + bv, return_inverse=True)
            r, c = _pair_terms(rank.reshape(len(av), len(bv)), ar, br)
            yield values, (r + c).ravel()

    levels, key = _key_levels(ranks())
    key = np.sort(key)
    key, coords = key[np.r_[True, key[1:] != key[:-1]]], []
    for squeeze, values, stride in reversed(levels):
        key, rank = key % stride, key // stride
        coords.append(values[rank])
        if squeeze is not None:
            key = squeeze[key]
    return IndexSet(a.dim, np.stack(coords[::-1], axis=1))


def _runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start position and length of every maximal run of consecutive points
    along dimension 1; in canonical order each run is contiguous."""
    brk = np.r_[True, (arr[1:, 1:] != arr[:-1, 1:]).any(axis=1) | (np.diff(arr[:, 0]) != 1)]
    starts = np.flatnonzero(brk)
    return starts, np.diff(np.r_[starts, len(arr)])


def erode(omega: IndexSet, xi: IndexSet) -> IndexSet:
    """Largest set Y with Y + xi contained in omega.

    ``xi`` is the union of its runs along dimension 1, and y + run lies in
    ``omega`` exactly when y + (run start) does and has at least the run's
    length of points of its own ``omega`` run at or after it (its room).  So
    one lookup per run of ``xi`` is made, not one per point.

    Raises :class:`DecompositionError` when no translate of ``xi`` fits
    inside ``omega``, and :class:`DomainError` when the candidates
    ``omega - xi[0] + x`` (x in ``xi``) can leave int64, judged on the
    bounding boxes.
    """
    if omega.dim != xi.dim:
        raise DomainError(f"dimension mismatch: {omega.dim} vs {xi.dim}")
    shift = [-int(c) for c in xi.as_array[0]]
    _check_sums(omega.bounding_box, (shift, shift))  # the candidates
    _check_sums(omega.bounding_box, (shift, shift), xi.bounding_box)  # their translates
    starts, lengths = _runs(omega.as_array)
    room = np.repeat(starts + lengths, lengths) - np.arange(len(omega))
    xs, ls = _runs(xi.as_array)
    kept = omega.as_array[room >= ls[0]] - xi.as_array[0]  # xi[0] starts the first run
    for x, length in zip(xi.as_array[xs[1:]], ls[1:]):
        pos = omega.locate((kept + x).T)
        kept = kept[(pos >= 0) & (room[pos] >= length)]
    if not len(kept):
        raise DecompositionError(
            "erosion is empty: no translate of the structure grid fits inside the sampling domain"
        )
    return IndexSet(omega.dim, kept)


def _fiber_pass(xi: IndexSet, p: int):
    """Fibers along ``p`` (1-based) from one lexsort: positions fiber by fiber
    (members by increasing varying coordinate), each fiber's first and last
    offset there, and :func:`degenerate_fibers`."""
    if not 1 <= p <= xi.dim:
        raise DomainError(f"dimension p must be in 1..{xi.dim}, got {p}")
    arr = xi.as_array
    frozen = np.delete(arr, p - 1, axis=1)
    order = np.lexsort((arr[:, p - 1], *frozen.T))
    frozen, coord = frozen[order], arr[order, p - 1]
    first = np.flatnonzero(np.r_[True, (frozen[1:] != frozen[:-1]).any(axis=1)])
    last = np.r_[first[1:], len(order)] - 1
    count = last - first + 1
    bad = np.flatnonzero((count < 2) | (coord[last] - coord[first] != count - 1))
    defects = [
        (tuple(frozen[first[f]].tolist()), coord[first[f] : last[f] + 1].tolist()) for f in bad
    ]
    return order, first, last, defects


def degenerate_fibers(xi: IndexSet, p: int) -> list[tuple[Point, list[int]]]:
    """Every singleton or gapped fiber along ``p`` as (frozen coordinates,
    varying coordinates); empty exactly when :func:`deletion_masks` succeeds."""
    return _fiber_pass(xi, p)[3]


def deletion_masks(xi: IndexSet, p: int) -> DeletionMasks:
    """Masks realizing the unit shift along dimension ``p``.

    Every fiber must be contiguous with at least two members; a singleton or
    gapped fiber raises :class:`DegenerateFiberError` naming the fiber.
    """
    order, first, last, defects = _fiber_pass(xi, p)
    if defects:
        frozen, coords = defects[0]
        gaps = f"has gaps: coordinates {coords}"
        problem = gaps if len(coords) > 1 else "is a singleton; the unit shift has nowhere to go"
        raise DegenerateFiberError(
            f"fiber {frozen} along dimension {p} {problem}", fiber=frozen, dimension=p
        )
    keep = np.ones((2, len(xi)), dtype=bool)
    keep[0, order[last]] = keep[1, order[first]] = False
    keep_minus, keep_plus = (_readonly(np.flatnonzero(k)) for k in keep)
    return DeletionMasks(dimension_p=p, keep_minus=keep_minus, keep_plus=keep_plus)


def capacity(xi: IndexSet) -> int:
    """Largest model order the row grid can resolve.

    Equals the smallest over dimensions of (number of points minus number of
    fibers); for an N-cube in d dimensions this is N^(d-1) * (N-1).
    Degenerate fibers raise before any estimate is attempted.
    """
    return min(len(deletion_masks(xi, p).keep_minus) for p in range(1, xi.dim + 1))
