"""Lattice domain algebra: ordering, set operations, fibers, masks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from strategies import gapped_run_sets, index_sets, point_lists, points, run_domains
from gdesprit.domains import (
    IndexSet,
    _check_size,
    capacity,
    degenerate_fibers,
    deletion_masks,
    erode,
    make_box,
    make_shape,
    minkowski_sum,
)
from gdesprit.errors import (
    DecompositionError,
    DegenerateFiberError,
    DomainError,
)


def convex_fibers(xi):
    return not any(degenerate_fibers(xi, p) for p in range(1, xi.dim + 1))


class TestCanonicalOrder:
    def test_small_box_order(self):
        xi = make_box((2, 2), offset=(1, 1))
        assert xi.points == ((1, 1), (2, 1), (1, 2), (2, 2))

    def test_first_coordinate_varies_fastest(self):
        xi = make_box((3, 2))
        assert xi.points == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))

    def test_matches_cube_vectorization(self):
        # the canonical order of an N-cube is the index m1 + m2*N + m3*N^2
        for d in (1, 2, 3):
            n = 3
            xi = make_box((n,) * d)
            coords = np.indices((n,) * d).reshape(d, -1, order="F").T
            assert [tuple(c) for c in coords] == list(xi.points)

    @given(point_lists())
    def test_matches_reference_sort(self, dim_pts):
        d, pts = dim_pts
        ref = oracles.canonical_sort_ref(pts)
        assert IndexSet(d, tuple(pts)).as_array.tolist() == [list(p) for p in ref]

    @given(point_lists())
    def test_construction_deduplicates_and_sorts(self, dim_pts):
        d, pts = dim_pts
        xi = IndexSet(d, tuple(pts))
        assert list(xi.points) == oracles.canonical_sort_ref(pts)
        # idempotent: rebuilding from its own points changes nothing
        assert IndexSet(d, xi.points).points == xi.points


class TestArrayValueSemantics:
    """An IndexSet is its canonical array: equality, hashing and ``points``
    all follow from ``as_array``, and nothing it hands out can be written."""

    @given(point_lists(), st.randoms(use_true_random=False))
    def test_permuted_and_duplicated_points_give_one_set(self, dim_pts, rnd):
        d, pts = dim_pts
        shuffled = pts + rnd.sample(pts, len(pts))
        rnd.shuffle(shuffled)
        a, b = IndexSet(d, tuple(pts)), IndexSet(d, tuple(shuffled))
        assert a == b
        assert hash(a) == hash(b)
        assert IndexSet(d, a.as_array) == a
        assert list(b.points) == oracles.canonical_sort_ref(pts)

    def test_sets_differ_by_points_and_dimension(self):
        a = IndexSet(2, ((0, 0), (1, 0)))
        assert a != IndexSet(2, ((0, 0), (0, 1)))
        assert a != IndexSet(1, (0, 1))
        assert IndexSet(1, (0, 1)) != IndexSet(2, ((0, 1),))
        assert a != a.points
        assert len({a, IndexSet(2, ((1, 0), (0, 0), (1, 0)))}) == 1

    def test_points_built_on_first_read(self):
        xi = make_box((3, 2))
        assert "points" not in vars(xi)
        assert len(xi) == 6
        assert list(xi) == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        assert (1, 1) in xi and xi == make_box((3, 2))
        assert "points" not in vars(xi)
        assert xi.points == tuple(xi)
        assert all(type(c) is int for p in xi.points for c in p)
        assert "points" in vars(xi)

    def test_stored_and_mask_arrays_are_read_only(self):
        xi = make_box((3, 3))
        masks = deletion_masks(xi, 2)
        for arr in (xi.as_array, masks.keep_minus, masks.keep_plus):
            assert arr.dtype.kind == "i"
            with pytest.raises(ValueError):
                arr[0] = 1


class TestIndexSet:
    def test_requires_points(self):
        with pytest.raises(DomainError):
            IndexSet(2, ())

    @pytest.mark.parametrize("dim", [0, -1, True, 2.5, "2", None])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(DomainError):
            IndexSet(dim, ((1, 2),))

    def test_integral_dimension_normalised(self):
        xi = IndexSet(np.int64(2), ((1, 2),))
        assert type(xi.dim) is int and xi == IndexSet(2.0, ((1, 2),))

    def test_rejects_wrong_dimension_point(self):
        with pytest.raises(DomainError):
            IndexSet(2, ((1, 2, 3),))

    def test_rejects_fractional_coordinates(self):
        with pytest.raises(DomainError):
            IndexSet(1, ((1.5,),))

    def test_membership_and_position(self):
        xi = make_box((3, 3), offset=(1, 1))
        assert (2, 3) in xi
        assert (0, 0) not in xi
        assert (1, 2, 3) not in xi
        for i, p in enumerate(xi.points):
            assert xi.locate(np.array(p)[:, None]).tolist() == [i]

    def test_rejects_boolean_coordinates(self):
        with pytest.raises(DomainError):
            IndexSet(2, np.array([[True, False]]))
        # a list would cast a bool among numbers to 1 or 0
        for pts in ([(True, 1)], [(0, 0), (1, np.True_)]):
            with pytest.raises(DomainError, match="got a boolean"):
                IndexSet(2, pts)
        with pytest.raises(DomainError, match="got a boolean"):
            make_box((3, 3), offset=[True, 0])
        assert (True, 1) not in make_box((3, 3))
        assert (1, 1) in make_box((3, 3))
        for pts in ([[True, False]], [[True, 2], [0, 1]], [False, 1]):
            with pytest.raises(DomainError):
                make_shape({"kind": "mask", "points": pts})

    def test_as_array_read_only(self):
        xi = make_box((2, 2))
        with pytest.raises(ValueError):
            xi.as_array[0, 0] = 9

    def test_bounding_box(self):
        xi = IndexSet(2, ((-1, 4), (3, -2)))
        lo, hi = xi.bounding_box
        assert lo.tolist() == [-1, -2]
        assert hi.tolist() == [3, 4]

    def test_one_dimensional_points_accept_bare_ints(self):
        assert IndexSet(1, (3, 1, 2)).points == ((1,), (2,), (3,))

    def test_rejects_ragged_points(self):
        with pytest.raises(DomainError):
            IndexSet(2, ((1, 2), (3,)))

    def test_rejects_coordinates_beyond_int64(self):
        with pytest.raises(DomainError):
            IndexSet(1, ((2**63,),))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_extreme_coordinates(self, d):
        # corners of the cube [-2^62, 2^62]^d plus points next to them: the
        # bounding box is wider than int64, so an order or lookup built on
        # keys over the whole box would overflow
        big = 2**62
        corners = [tuple(big if (k >> q) & 1 else -big for q in range(d)) for k in range(2**d)]
        near = [tuple(c - (1 if c > 0 else -1) * (q + 1) for q, c in enumerate(p)) for p in corners]
        pts = corners + near + [(0,) * d, corners[0]]
        xi = IndexSet(d, tuple(pts))
        assert list(xi.points) == oracles.canonical_sort_ref(pts)
        for i, p in enumerate(xi.points):
            assert p in xi
            assert xi.locate(np.array(p)[:, None]).tolist() == [i]
        assert (big - 7,) * d not in xi
        assert ((1,) + (-big,) * (d - 1)) not in xi
        assert xi.locate(xi.as_array.T).tolist() == list(range(len(xi)))
        # a box in the corner of the cube
        box = make_box((2,) * d, offset=(-big,) * d)
        assert box.locate(box.as_array.T).tolist() == list(range(2**d))
        assert (-big - 1,) * d not in box and (big,) * d not in box


class TestLocate:
    @given(index_sets(dim=2), st.lists(points(2), min_size=1, max_size=10))
    def test_matches_position(self, xi, queries):
        got = xi.locate(np.array(queries).T)
        assert got.tolist() == [xi.points.index(q) if q in xi.points else -1 for q in queries]

    def test_keeps_query_shape(self):
        xi = make_box((3, 3))
        xs = np.array([[0, 1], [2, 3]])
        ys = np.array([[0, 0], [2, -1]])
        assert xi.locate([xs, ys]).tolist() == [[0, 1], [8, -1]]

    def test_sparse_set(self):
        # a point far from the rest: nothing is sized by the bounding box
        far = 2**40
        xi = IndexSet(2, ((0, 0), (1, 0), (far, far)))
        assert xi.locate([np.array([far, far, 0]), np.array([far, 0, far])]).tolist() == [2, -1, -1]

    def test_wrong_number_of_coordinate_arrays(self):
        with pytest.raises(DomainError):
            make_box((2, 2)).locate([np.array([0])])

    @pytest.mark.parametrize("a, b", [((2,), (2, 2)), ((2, 2), (2,)), ((2, 2, 2), (2, 2, 2))])
    def test_sums_of_another_dimension(self, a, b):
        with pytest.raises(DomainError, match="dimension mismatch"):
            make_box((4, 4)).locate_sums(make_box(a), make_box(b))

    def test_key_count_beyond_int64(self):
        # three points that together differ in all 64 coordinates: the keys
        # of all 64 dimensions would span 2^64 values, so the lookup squeezes
        # its running key on the way; membership stays a plain bool
        pts = ((0,) * 64, (1,) * 64, (0,) * 63 + (1,))
        xi = IndexSet(64, pts)
        assert xi.locate(xi.as_array.T).tolist() == [0, 1, 2]
        for p in pts:
            assert p in xi
            assert xi.locate(np.array(p)[:, None]).tolist() == [xi.points.index(p)]
        for absent in ((1,) + (0,) * 63, (0,) * 62 + (1, 1), (1,) * 63 + (0,)):
            assert absent not in xi
        queries = np.array([(1,) * 63 + (0,), (0,) * 63 + (1,)]).T
        assert xi.locate(queries).tolist() == [-1, 1]


class TestInt64Sums:
    # coordinate sums that would leave int64 must raise, not wrap around
    big = 2**62

    def test_minkowski_sum(self):
        a = IndexSet(2, ((0, self.big), (1, 0)))
        assert minkowski_sum(a, IndexSet(2, ((0, self.big - 1),))).points == (
            (1, self.big - 1), (0, 2**63 - 1)
        )
        with pytest.raises(DomainError):
            minkowski_sum(a, a)

    def test_locate_sums(self):
        # 2^62 + 2^62 would wrap onto -2^63, a point of the set
        s = IndexSet(1, ((-(2**63),), (0,)))
        with pytest.raises(DomainError, match="beyond int64"):
            s.locate_sums(IndexSet(1, ((self.big,),)), IndexSet(1, ((self.big,),)))

    def test_box(self):
        assert make_box((2,), offset=(2**63 - 2,)).points == ((2**63 - 2,), (2**63 - 1,))
        with pytest.raises(DomainError):
            make_box((2,), offset=(2**63 - 1,))

    def test_erode(self):
        # omega - xi[0] + 1 would wrap 2^63 - 1 onto -2^63, a point of omega
        omega = IndexSet(1, ((2**63 - 1,), (-(2**63),)))
        with pytest.raises((DecompositionError, DomainError)):
            erode(omega, make_box((2,)))
        # omega - xi[0] alone would wrap
        with pytest.raises((DecompositionError, DomainError)):
            erode(IndexSet(1, ((-(2**63),),)), IndexSet(1, ((1,),)))
        edge = IndexSet(1, ((2**63 - 3,), (2**63 - 2,)))
        assert erode(edge, make_box((2,))).points == ((2**63 - 3,),)


class TestShapes:
    def test_box_with_offset(self):
        xi = make_box((2, 3), offset=(-1, 5))
        assert len(xi) == 6
        lo, hi = xi.bounding_box
        assert lo.tolist() == [-1, 5]
        assert hi.tolist() == [0, 7]

    def test_box_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            make_box((3, 0))

    def test_triangle_membership(self):
        tri = make_shape({"kind": "triangle", "side": 3})
        expected = {(i, j) for i in range(1, 4) for j in range(1, 4) if i + j <= 4}
        assert set(tri.points) == expected

    def test_half_disc_membership(self):
        hd = make_shape({"kind": "half_disc", "radius": 3})
        expected = {
            (i, j)
            for i in range(-3, 4)
            for j in range(0, 4)
            if i * i + j * j <= 9
        }
        assert set(hd.points) == expected

    def test_mask_round_trip(self):
        pts = [(0, 2), (1, 1), (0, 2)]
        xi = make_shape({"kind": "mask", "points": pts})
        assert xi.points == ((1, 1), (0, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            make_shape({"kind": "pentagon", "side": 2})

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "box", "widths": [2**30, 2**29]},  # 2^59 points, 2^63 bytes
            {"kind": "box", "widths": [3_000_000_000, 3_000_000_000]},
            {"kind": "triangle", "side": 2**31},
            {"kind": "half_disc", "radius": 2**30},
            {"kind": "half_disc", "radius": 1e300},
        ],
    )
    def test_oversized_grid_rejected_before_it_is_built(self, spec):
        with pytest.raises(DomainError, match="more lattice points than one array can hold"):
            make_shape(spec)

    def test_size_limit_is_the_addressable_bytes_of_the_point_array(self):
        # (n, 2) int64 points take 16 n bytes; intp's maximum is 2^63 - 1
        limit = np.iinfo(np.intp).max // 16
        _check_size(limit, 2, "the grid")
        with pytest.raises(DomainError):
            _check_size(limit + 1, 2, "the grid")


class TestMinkowskiAndErosion:
    @given(index_sets(max_size=8), index_sets(max_size=8))
    def test_minkowski_matches_reference(self, a, b):
        if a.dim != b.dim:
            return
        got = minkowski_sum(a, b)
        assert list(got.points) == oracles.minkowski_ref(a.points, b.points)

    @given(index_sets(dim=2, max_size=6), index_sets(dim=2, max_size=6), index_sets(dim=2, max_size=6))
    def test_minkowski_commutative_associative(self, a, b, c):
        ab = minkowski_sum(a, b)
        assert ab.points == minkowski_sum(b, a).points
        assert minkowski_sum(ab, c).points == minkowski_sum(a, minkowski_sum(b, c)).points

    @given(index_sets(max_size=8))
    def test_minkowski_origin_identity(self, a):
        origin = IndexSet(a.dim, ((0,) * a.dim,))
        assert minkowski_sum(a, origin).points == a.points

    @pytest.mark.parametrize(
        "a, b",
        [
            # a point far from the rest: the sums' keys count distinct values only
            (((0, 0), (1, 0), (2**40, 2**40)), ((0, 0), (0, 3), (-(2**40), 7))),
            # 64 dimensions: the pairs' keys squeeze on the way, as a lookup's do
            (((0,) * 64, (1,) * 64, (0,) * 63 + (1,)), ((0,) * 64, (0,) * 63 + (1,), (1,) + (0,) * 63)),
        ],
    )
    def test_minkowski_far_and_high_dimensional(self, a, b):
        got = minkowski_sum(IndexSet(len(a[0]), a), IndexSet(len(b[0]), b))
        assert list(got.points) == oracles.minkowski_ref(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            minkowski_sum(make_box((2,)), make_box((2, 2)))

    @given(index_sets(dim=2, max_size=7), index_sets(dim=2, max_size=4))
    def test_erode_matches_reference(self, omega, xi):
        ref = oracles.erode_ref(omega.points, xi.points)
        if not ref:
            with pytest.raises(DecompositionError):
                erode(omega, xi)
        else:
            assert list(erode(omega, xi).points) == ref

    @given(st.sampled_from([1, 3]), st.data())
    def test_erode_by_gapped_runs_matches_reference(self, dim, data):
        # several runs per fiber of xi; omega is a sum set with points
        # toggled, so most erosions are nonempty and none is trivially exact
        xi = data.draw(gapped_run_sets(dim))
        a = data.draw(index_sets(dim=dim, max_size=4, lo=-2, hi=2))
        toggled = data.draw(index_sets(dim=dim, max_size=6, lo=-4, hi=6))
        pts = set(minkowski_sum(a, xi).points) ^ set(toggled.points) or set(toggled.points)
        omega = IndexSet(dim, tuple(pts))
        ref = oracles.erode_ref(omega.points, xi.points)
        if not ref:
            with pytest.raises(DecompositionError):
                erode(omega, xi)
        else:
            assert list(erode(omega, xi).points) == ref

    @pytest.mark.parametrize("radius", [3, 7.5, 12])
    @pytest.mark.parametrize("widths", [(1, 1), (3, 3), (5, 2), (2, 3)])
    def test_erode_half_disc_by_box_matches_reference(self, radius, widths):
        omega = make_shape({"kind": "half_disc", "radius": radius})
        xi = make_box(widths)
        ref = oracles.erode_ref(omega.points, xi.points)
        assert ref and list(erode(omega, xi).points) == ref

    @given(index_sets(dim=2, max_size=6), index_sets(dim=2, max_size=5))
    def test_erosion_contains_sum_factor(self, a, b):
        # (a + b) eroded by b recovers at least a
        omega = minkowski_sum(a, b)
        back = erode(omega, b)
        assert set(a.points) <= set(back.points)

    def test_erosion_empty_raises(self):
        omega = make_box((2, 2))
        xi = make_box((5, 5))
        with pytest.raises(DecompositionError):
            erode(omega, xi)

    def test_erosion_of_box_by_box(self):
        omega = make_box((5, 5))
        xi = make_box((3, 3))
        got = erode(omega, xi)
        assert got.points == make_box((3, 3)).points


class TestFibers:
    def test_box_fiber_counts(self):
        # two fibers of three along dimension 1, three fibers of two along 2;
        # each deletion drops one member per fiber
        xi = make_box((3, 2))
        assert len(deletion_masks(xi, 1).keep_minus) == 6 - 2
        assert len(deletion_masks(xi, 2).keep_minus) == 6 - 3

    def test_fiber_members_increase_along_dimension(self):
        # the half-disc of radius 3 without its middle column: every fiber
        # along dimension 1 has a gap and lists its members in increasing order
        hd = make_shape({"kind": "half_disc", "radius": 3})
        xi = IndexSet(2, tuple(q for q in hd.points if q[0] != 0))
        defects = degenerate_fibers(xi, 1)
        assert [frozen for frozen, _ in defects] == [(0,), (1,), (2,)]
        for (j,), coords in defects:
            assert coords == [i for i, jj in hd.points if jj == j and i != 0]

    @given(st.integers(1, 2).flatmap(lambda p: st.tuples(run_domains(p), st.just(p))))
    def test_fibers_match_reference(self, case):
        # the rows the masks drop are the last and first members of the reference fibers
        xi, p = case
        ref = oracles.fibers_ref(xi.points, p).values()
        masks = deletion_masks(xi, p)
        dropped = [
            set(xi.points) - {xi.points[i] for i in keep}
            for keep in (masks.keep_minus, masks.keep_plus)
        ]
        assert dropped == [{m[-1] for m in ref}, {m[0] for m in ref}]

    def test_invalid_dimension(self):
        for p in (0, 3):
            for fiber_fn in (deletion_masks, degenerate_fibers):
                with pytest.raises(DomainError):
                    fiber_fn(make_box((2, 2)), p)


class TestConvexity:
    def test_boxes_are_convex(self):
        assert convex_fibers(make_box((2, 2)))
        assert convex_fibers(make_box((4, 3, 2)))

    def test_triangle_corner_singletons(self):
        assert not convex_fibers(make_shape({"kind": "triangle", "side": 4}))

    def test_half_disc_pole_singleton(self):
        assert not convex_fibers(make_shape({"kind": "half_disc", "radius": 3}))

    def test_gapped_fiber_rejected(self):
        xi = IndexSet(2, ((0, 0), (2, 0), (0, 1), (1, 1), (2, 1)))
        assert not convex_fibers(xi)

    def test_trimmed_triangle_is_convex(self):
        side = 5
        pts = [
            (i, j)
            for i in range(1, side)
            for j in range(1, side)
            if i + j <= side + 1
        ]
        assert convex_fibers(IndexSet(2, tuple(pts)))

    def test_trimmed_half_disc_is_convex(self):
        hd = make_shape({"kind": "half_disc", "radius": 4})
        pts = [p for p in hd.points if p not in {(0, 4), (4, 0), (-4, 0)}]
        assert convex_fibers(IndexSet(2, tuple(pts)))

    @given(index_sets(dim=2, max_size=10))
    def test_matches_reference(self, xi):
        ref = all(oracles.convex_fibers_ref(xi.points, p) for p in (1, 2))
        assert convex_fibers(xi) == ref


class TestDeletionMasks:
    def _check_shift_correspondence(self, xi, p):
        masks = deletion_masks(xi, p)
        step = tuple(1 if q == p - 1 else 0 for q in range(xi.dim))
        assert len(masks.keep_minus) == len(masks.keep_plus)
        assert list(masks.keep_minus) == sorted(masks.keep_minus)
        assert list(masks.keep_plus) == sorted(masks.keep_plus)
        for a, b in zip(masks.keep_minus, masks.keep_plus):
            shifted = tuple(c + s for c, s in zip(xi.points[a], step))
            assert shifted == xi.points[b]

    def test_box_masks(self):
        xi = make_box((3, 3))
        masks = deletion_masks(xi, 1)
        kept = [xi.points[i] for i in masks.keep_minus]
        assert kept == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        self._check_shift_correspondence(xi, 1)
        self._check_shift_correspondence(xi, 2)

    def test_cube_masks(self):
        xi = make_box((3, 3, 3))
        for p in (1, 2, 3):
            self._check_shift_correspondence(xi, p)
            assert len(deletion_masks(xi, p).keep_minus) == 18

    def test_trimmed_triangle_masks(self):
        side = 5
        pts = [
            (i, j)
            for i in range(1, side)
            for j in range(1, side)
            if i + j <= side + 1
        ]
        xi = IndexSet(2, tuple(pts))
        for p in (1, 2):
            self._check_shift_correspondence(xi, p)

    def test_trimmed_half_disc_masks(self):
        hd = make_shape({"kind": "half_disc", "radius": 4})
        pts = [p for p in hd.points if p not in {(0, 4), (4, 0), (-4, 0)}]
        xi = IndexSet(2, tuple(pts))
        for p in (1, 2):
            self._check_shift_correspondence(xi, p)

    @given(run_domains(1))
    def test_generated_runs_dimension_1(self, xi):
        self._check_shift_correspondence(xi, 1)

    @given(run_domains(2))
    def test_generated_runs_dimension_2(self, xi):
        self._check_shift_correspondence(xi, 2)

    def test_singleton_fiber_raises(self):
        tri = make_shape({"kind": "triangle", "side": 4})
        for p in (1, 2):
            with pytest.raises(DegenerateFiberError) as err:
                deletion_masks(tri, p)
            assert err.value.dimension == p

    def test_gapped_fiber_raises(self):
        xi = IndexSet(2, ((0, 0), (2, 0), (0, 1), (1, 1), (2, 1)))
        with pytest.raises(DegenerateFiberError):
            deletion_masks(xi, 1)

    def test_degenerate_fibers_lists_each_defect(self):
        xi = IndexSet(2, ((0, 0), (2, 0), (0, 1), (1, 1), (2, 1)))
        assert degenerate_fibers(xi, 1) == [((0,), [0, 2])]
        assert degenerate_fibers(xi, 2) == [((1,), [1])]
        assert degenerate_fibers(make_box((3, 2)), 1) == []

    @given(index_sets(dim=2, max_size=10), st.integers(1, 2))
    def test_degenerate_fibers_match_reference(self, xi, p):
        expected = [
            (frozen, [m[p - 1] for m in members])
            for frozen, members in oracles.fibers_ref(xi.points, p).items()
            if not oracles.convex_fibers_ref(members, p)
        ]
        assert degenerate_fibers(xi, p) == sorted(expected, key=lambda e: e[0][::-1])

    @given(run_domains(1))
    def test_mask_size_formula(self, xi):
        # dropping one member per fiber: |keep| = |points| - #fibers
        masks = deletion_masks(xi, 1)
        n_fibers = len(oracles.fibers_ref(xi.points, 1))
        assert len(masks.keep_minus) == len(xi) - n_fibers


class TestCapacity:
    def test_published_constants(self):
        assert capacity(make_box((31, 31))) == 930
        assert capacity(make_box((11, 11, 11))) == 1210
        assert capacity(make_box((11, 11))) == 110

    def test_cube_formula(self):
        for n, d in ((2, 1), (3, 2), (4, 2), (3, 3), (5, 3)):
            xi = make_box((n,) * d)
            assert capacity(xi) == (n - 1) * n ** (d - 1)

    @given(run_domains(1))
    def test_matches_reference_when_defined(self, xi):
        if convex_fibers(xi):
            assert capacity(xi) == oracles.capacity_ref(xi.points)

    def test_degenerate_grid_raises(self):
        with pytest.raises(DegenerateFiberError):
            capacity(make_shape({"kind": "triangle", "side": 3}))
