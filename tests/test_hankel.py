"""Sum-indexed matrix assembly, rank profile, capacity."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from strategies import gapped_index_sets, index_sets
from gdesprit.domains import IndexSet, make_box, minkowski_sum
from gdesprit.errors import CoverageError, DomainError
from gdesprit.esprit import DEFAULT_RANK_REL_TOL, auto_order, build_hankel
from gdesprit.linalg_backend import truncated_svd
from gdesprit.signal import MdSequence, add_noise, eval_model, random_model, vandermonde


def sampled_on(domain, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(len(domain)) + 1j * rng.standard_normal(len(domain))
    return MdSequence(domain, values)


class TestBuildHankel:
    def test_worked_1d_example(self):
        # f(k) = k on 1..5; two-row, four-column layout
        omega = make_box((5,), offset=(1,))
        f = MdSequence(omega, [1, 2, 3, 4, 5])
        xi = make_box((2,))              # {0, 1}
        upsilon = make_box((4,), offset=(1,))  # {1, 2, 3, 4}
        H = build_hankel(f, xi, upsilon)
        np.testing.assert_array_equal(H.matrix, [[1, 2, 3, 4], [2, 3, 4, 5]])
        assert H.matrix.shape == (2, 4)

    @given(
        index_sets(dim=2, max_size=6, lo=-3, hi=3),
        index_sets(dim=2, max_size=6, lo=-3, hi=3),
        st.integers(0, 10_000),
    )
    def test_matches_dict_oracle(self, xi, upsilon, seed):
        omega = minkowski_sum(xi, upsilon)
        f = sampled_on(omega, seed)
        value_map = dict(zip(omega.points, f.values))
        expected = oracles.hankel_ref(value_map, xi.points, upsilon.points)
        got = build_hankel(f, xi, upsilon).matrix
        np.testing.assert_array_equal(got, expected)

    @given(
        index_sets(dim=2, max_size=6, lo=-3, hi=3),
        index_sets(dim=2, max_size=6, lo=-3, hi=3),
        index_sets(dim=2, max_size=8, lo=-8, hi=8),
    )
    def test_unused_samples_match_brute_force(self, xi, upsilon, extra):
        sums = {tuple(a + b for a, b in zip(x, y)) for x in xi.points for y in upsilon.points}
        omega = IndexSet(2, tuple(sums | set(extra.points)))
        H = build_hankel(sampled_on(omega), xi, upsilon)
        assert H.unused_samples == len(set(extra.points) - sums)

    @given(index_sets(dim=2, max_size=5), index_sets(dim=2, max_size=5))
    def test_transpose_symmetry(self, xi, upsilon):
        omega = minkowski_sum(xi, upsilon)
        f = sampled_on(omega, 3)
        H1 = build_hankel(f, xi, upsilon).matrix
        H2 = build_hankel(f, upsilon, xi).matrix
        np.testing.assert_array_equal(H1, H2.T)

    def test_sums_beyond_int64_raise(self):
        # x + y = 2^63 would wrap onto -2^63, a sampled point
        omega = IndexSet(1, ((-(2**63),), (0,)))
        f = sampled_on(omega)
        with pytest.raises(DomainError):
            build_hankel(f, IndexSet(1, ((2**62,),)), IndexSet(1, ((2**62,),)))

    def test_1d_specialization_is_classical_hankel(self):
        omega = make_box((9,))
        f = sampled_on(omega, 4)
        xi = make_box((5,))
        upsilon = make_box((5,))
        H = build_hankel(f, xi, upsilon).matrix
        expected = scipy.linalg.hankel(f.values[:5], f.values[4:])
        np.testing.assert_array_equal(H, expected)

    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_vandermonde_factorization(self, seed, K):
        rng = np.random.default_rng(seed)
        model = random_model(K, 2, rng, layout="random_complex", damping_bound=0.2)
        xi = make_box((4, 4))
        upsilon = make_box((3, 3))
        omega = minkowski_sum(xi, upsilon)
        f = eval_model(model, omega)
        H = build_hankel(f, xi, upsilon).matrix
        V_xi = vandermonde(xi, model.zetas)
        V_ups = vandermonde(upsilon, model.zetas)
        product = V_xi @ np.diag(model.coeffs) @ V_ups.T
        np.testing.assert_allclose(H, product, atol=1e-12 * np.abs(H).max())

    def test_missing_interior_sample_reported(self):
        xi = make_box((2, 2))
        upsilon = make_box((2, 2))
        omega = minkowski_sum(xi, upsilon)
        hole = (1, 1)
        remaining = [p for p in omega.points if p != hole]
        f = sampled_on(IndexSet(2, tuple(remaining)), 0)
        with pytest.raises(CoverageError) as err:
            build_hankel(f, xi, upsilon)
        assert err.value.missing == hole

    def test_sum_outside_domain_reported(self):
        xi = make_box((3,))
        upsilon = make_box((3,))
        omega = make_box((4,))  # needs 5 points
        f = sampled_on(omega, 1)
        with pytest.raises(CoverageError) as err:
            build_hankel(f, xi, upsilon)
        assert err.value.missing == (4,)

    @given(st.data(), st.booleans(), st.integers(0, 10_000))
    def test_gapped_and_far_sets_match_dict_oracle(self, data, far, seed):
        # gapped axes give rank tables that are not affine; a point at 2**40
        # spreads the sums far beyond any table sized by the bounding box;
        # up to two dropped sums must report the first one scanned
        xi = data.draw(gapped_index_sets(max_size=8))
        if far:
            xi = IndexSet(xi.dim, (*xi.points, (2**40,) * xi.dim))
        upsilon = data.draw(gapped_index_sets(max_size=8, dim=xi.dim))
        extra = data.draw(gapped_index_sets(max_size=8, dim=xi.dim))
        sums = set(oracles.minkowski_ref(xi.points, upsilon.points))
        holes = data.draw(st.sets(st.sampled_from(sorted(sums)), max_size=2))
        assume((sums | set(extra.points)) - holes)
        omega = IndexSet(xi.dim, tuple((sums | set(extra.points)) - holes))
        f = sampled_on(omega, seed)
        scan = [tuple(a + b for a, b in zip(x, y)) for x in xi.points for y in upsilon.points]
        if holes:
            with pytest.raises(CoverageError) as err:
                build_hankel(f, xi, upsilon)
            assert err.value.missing == next(s for s in scan if s in holes)
            return
        H = build_hankel(f, xi, upsilon)
        value_map = dict(zip(omega.points, f.values))
        np.testing.assert_array_equal(H.matrix, oracles.hankel_ref(value_map, xi.points, upsilon.points))
        assert H.unused_samples == len(set(extra.points) - sums)

    def test_non_affine_rank_table(self):
        # the sums [[0, 10], [2, 12]] rank [[0, 3], [2, 4]] in omega, which is
        # no alpha_i + beta_j (0 + 4 != 3 + 2): the table is gathered, not added
        omega = IndexSet(1, (0, 1, 2, 10, 12))
        xi, upsilon = IndexSet(1, (0, 2)), IndexSet(1, (0, 10))
        assert omega.locate_sums(xi, upsilon).tolist() == [[0, 3], [2, 4]]
        H = build_hankel(MdSequence(omega, [1, 2, 3, 4, 5]), xi, upsilon)
        np.testing.assert_array_equal(H.matrix, [[1, 4], [3, 5]])
        assert H.unused_samples == 1

    def test_sums_in_64_dimensions(self):
        # omega's key count passes int64 before dimension 64, so its lookup
        # squeezes the running key, as in test_key_count_beyond_int64
        xi = IndexSet(64, ((0,) * 64, (1,) * 64, (0,) * 63 + (1,)))
        upsilon = IndexSet(64, ((0,) * 64, (0,) * 63 + (1,)))
        omega = IndexSet(64, (*minkowski_sum(xi, upsilon).points, (2,) * 64))
        assert any(squeeze is not None for squeeze, _, _ in omega._levels[0])
        f = sampled_on(omega, 5)
        H = build_hankel(f, xi, upsilon)
        value_map = dict(zip(omega.points, f.values))
        np.testing.assert_array_equal(H.matrix, oracles.hankel_ref(value_map, xi.points, upsilon.points))
        assert H.unused_samples == 1
        gap = IndexSet(64, [p for p in omega.points if p != (1,) * 63 + (2,)])
        scan = [[tuple(np.add(x, y).tolist()) for y in upsilon.points] for x in xi.points]
        expected = [[gap.points.index(s) if s in gap.points else -1 for s in row] for row in scan]
        assert expected[2][1] == -1
        assert gap.locate_sums(xi, upsilon).tolist() == expected

    @pytest.mark.parametrize(
        "xi, upsilon, holes, missing",
        [
            # (1, 1) has both coordinates elsewhere in omega: only its key is absent
            (((0, 0), (3, 0), (0, 5)), ((0, 0), (1, 1)), {(1, 1)}, (1, 1)),
            # with (4, 1) gone, the value 4 is absent from axis 1
            (((0, 0), (3, 0), (0, 5)), ((0, 0), (1, 1)), {(4, 1), (1, 6)}, (4, 1)),
            # omega's keys are 0, 1, 2 as on a box, and (1, 1) would be key 3
            (((0, 0), (1, 0)), ((0, 0), (0, 1)), {(1, 1)}, (1, 1)),
        ],
    )
    def test_first_missing_sum_on_small_grids(self, xi, upsilon, holes, missing):
        xi, upsilon = IndexSet(2, xi), IndexSet(2, upsilon)
        omega = IndexSet(2, [p for p in minkowski_sum(xi, upsilon).points if p not in holes])
        with pytest.raises(CoverageError) as err:
            build_hankel(sampled_on(omega), xi, upsilon)
        assert err.value.missing == missing

    def test_peak_memory_at_fig6_size(self):
        # H (441 x 441 complex, 3.1 MB) is gathered once and made read-only
        # in place; a second copy of it would lift the peak above 6 MB
        xi, f = make_box((21, 21)), sampled_on(make_box((41, 41)))
        build_hankel(f, xi, xi)  # the sets' lookup tables are built and kept
        tracemalloc.start()
        try:
            H = build_hankel(f, xi, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.matrix.nbytes == 441 * 441 * 16
        assert peak <= 6.0e6

    def test_dimension_mismatch(self):
        f = sampled_on(make_box((3, 3)), 0)
        with pytest.raises(DomainError):
            build_hankel(f, make_box((2,)), make_box((2, 2)))

    def test_matrix_is_a_fresh_fortran_order_buffer(self):
        # the layout zgebrd factors in place; the gather owns it, so writing
        # into it leaves the samples as they were
        f = sampled_on(make_box((6,)), 0)
        samples = f.values.copy()
        H = build_hankel(f, make_box((2,)), make_box((5,)))
        assert H.matrix.flags.f_contiguous and H.matrix.flags.writeable
        H.matrix[:] = 0
        np.testing.assert_array_equal(f.values, samples)

    def test_first_missing_sum_scans_rows_then_columns(self):
        # sums [[0, 5, 10], [1, 6, 11]] with 10 and 1 missing: a row scan
        # meets 10 first, a column scan would meet 1
        omega = IndexSet(1, (0, 5, 6, 11))
        with pytest.raises(CoverageError) as err:
            build_hankel(sampled_on(omega), IndexSet(1, (0, 1)), IndexSet(1, (0, 5, 10)))
        assert err.value.missing == (10,)


class TestRankProfile:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_noise_free_rank_equals_model_order(self, seed, K):
        rng = np.random.default_rng(seed)
        model = random_model(K, 2, rng)
        xi = make_box((4, 4))
        upsilon = make_box((4, 4))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        spectrum = truncated_svd(build_hankel(f, xi, upsilon).matrix).spectrum
        rank = auto_order(spectrum, DEFAULT_RANK_REL_TOL)
        assert rank == K
        if spectrum.size > K:
            assert spectrum[K] <= 1e-12 * spectrum[0]

    def test_noisy_40_term_grid_keeps_rank_40(self):
        # ratio 1e-3 noise on a 41x41 grid: the 40 signal values stay above
        # a 1e-2 relative cutoff while the noise floor stays below it
        xi = make_box((21, 21))
        upsilon = make_box((21, 21))
        omega = make_box((41, 41))
        model = random_model(40, 2, np.random.default_rng(11))
        noisy = add_noise(eval_model(model, omega), 1e-3, np.random.default_rng(11_001))
        spectrum = truncated_svd(build_hankel(noisy, xi, upsilon).matrix).spectrum
        rank = auto_order(spectrum, 1e-2)
        assert rank == 40
        assert spectrum[39] / spectrum[0] > 1e-2 > spectrum[40] / spectrum[0]

    def test_zero_matrix_rank_zero(self):
        spectrum = truncated_svd(np.zeros((3, 3))).spectrum
        assert auto_order(spectrum, DEFAULT_RANK_REL_TOL) == 0
        assert np.all(spectrum == 0)

    def test_plain_array_accepted(self):
        spectrum = truncated_svd(np.diag([4.0, 2.0, 1e-14])).spectrum
        assert auto_order(spectrum, DEFAULT_RANK_REL_TOL) == 2

    def test_wide_matrix_matches_reference_spectrum(self):
        # more columns than rows: the spectrum comes from the R-SVD path
        rng = np.random.default_rng(3)
        H = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        spectrum = truncated_svd(H).spectrum
        reference = np.linalg.svd(H, compute_uv=False)
        np.testing.assert_allclose(spectrum, reference, rtol=0, atol=1e-12 * reference[0])
        assert auto_order(spectrum, DEFAULT_RANK_REL_TOL) == 5

    def test_invalid_tolerance(self):
        spectrum = truncated_svd(np.eye(2)).spectrum
        for rel_tol in (0.0, 1.5, "x", None, [0.5]):
            with pytest.raises(DomainError):
                auto_order(spectrum, rel_tol)
