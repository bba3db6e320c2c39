"""Subspace estimators: 1-d, box tensor, and general-domain paths."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gdesprit.esprit
import oracles
from gdesprit import linalg_backend
from gdesprit.domains import IndexSet, deletion_masks, make_box, make_shape, minkowski_sum, erode
from gdesprit.errors import (
    CapacityError,
    CoverageError,
    DegenerateFiberError,
    DomainError,
    ModelOrderError,
    NonFiniteError,
    PairingError,
    RankDeficiencyError,
)
from gdesprit.esprit import (
    EIGVEC_COND_LIMIT,
    EspritOptions,
    auto_order,
    build_hankel,
    esprit_1d,
    esprit_block,
    esprit_nd,
    _coefficients,
    _estimate_warnings,
    _shift_from_masks,
    joint_eig,
)
from gdesprit.harness import bundled_spec, match_frequencies, run_experiment
from gdesprit.linalg_backend import lstsq_minimum_norm, truncated_svd
from gdesprit.signal import (
    ExponentialModel,
    MdSequence,
    add_noise,
    eval_model,
    random_model,
    vandermonde,
)
from strategies import gapped_product_sets

EPS = np.finfo(np.float64).eps


def trimmed_half_disc(radius=4):
    hd = make_shape({"kind": "half_disc", "radius": radius})
    poles = {(0, radius), (radius, 0), (-radius, 0)}
    return IndexSet(2, tuple(p for p in hd.points if p not in poles))


def exact_model(K, d, seed, damping=0.0):
    layout = "random_complex" if damping else "uniform_imag"
    return random_model(K, d, np.random.default_rng(seed), layout=layout, damping_bound=damping)


def matched_max_error(model, zetas_est):
    est_nodes = np.exp(np.asarray(zetas_est))
    if est_nodes.ndim == 1:
        est_nodes = est_nodes.reshape(-1, 1)
    return float(match_frequencies(model.nodes, est_nodes).lambda_errors.max())


class TestAutoOrder:
    def test_counts_values_above_cutoff(self):
        assert auto_order([1.0, 0.5, 1e-13], 1e-10) == 2
        assert auto_order([1.0, 0.5, 1e-13], 1e-14) == 3
        assert auto_order([5.0], 0.5) == 1

    def test_zero_spectrum(self):
        assert auto_order([0.0, 0.0], 1e-10) == 0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            auto_order([], 1e-10)
        with pytest.raises(DomainError):
            auto_order([1.0], 0.0)


class TestEsprit1d:
    @given(st.integers(0, 10_000), st.integers(1, 5))
    @example(seed=6418, K=5)  # nodes 0.041 rad apart, kappa 1.1e3
    @example(seed=2201, K=5)  # error 3.2e-9, kappa 7.8e3
    @example(seed=88, K=5)  # error 6.9e-7, kappa 8.9e4
    @example(seed=4477, K=5)  # largest error of the input space: 3.7e-4, kappa 2.7e6
    @example(seed=3212, K=4)  # largest error / (eps kappa^2) of the input space: 13.8
    def test_exact_recovery_oscillatory(self, seed, K):
        # Frequency error grows with the squared condition number of the
        # node basis on the row window (Moitra, STOC 2015); a fixed bound
        # fails on closely spaced nodes, where root finding does no better.
        model = exact_model(K, 1, seed)
        samples = eval_model(model, make_box((13,))).values
        zetas = esprit_1d(samples, K)
        kappa = np.linalg.cond(vandermonde(make_box((7,)), model.zetas))
        assert matched_max_error(model, zetas) <= 100 * np.finfo(float).eps * kappa**2

    @given(st.integers(0, 10_000))
    def test_exact_recovery_damped(self, seed):
        model = exact_model(4, 1, seed, damping=0.2)
        samples = eval_model(model, make_box((15,))).values
        zetas = esprit_1d(samples, 4)
        assert matched_max_error(model, zetas) < 1e-9

    def test_even_sample_count(self):
        model = exact_model(3, 1, 5)
        samples = eval_model(model, make_box((10,))).values  # 10 = 2N, N=5
        zetas = esprit_1d(samples, 3)
        assert matched_max_error(model, zetas) < 1e-10

    def test_imaginary_parts_in_principal_branch(self):
        model = exact_model(4, 1, 17)
        samples = eval_model(model, make_box((11,))).values
        zetas = esprit_1d(samples, 4)
        assert np.all((zetas.imag > -np.pi) & (zetas.imag <= np.pi))

    def test_order_exceeding_capacity(self):
        with pytest.raises(CapacityError) as err:
            esprit_1d(np.ones(9), 5)  # N = 5 rows allow at most 4 terms
        assert err.value.capacity == 4
        assert err.value.requested == 5

    def test_order_exceeding_true_rank(self):
        model = exact_model(2, 1, 3)
        samples = eval_model(model, make_box((9,))).values
        with pytest.raises(ModelOrderError):
            esprit_1d(samples, 4)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            esprit_1d(np.ones(2), 1)

    def test_non_finite_samples(self):
        with pytest.raises(NonFiniteError):
            esprit_1d(np.array([1.0, np.nan, 2.0]), 1)

    def test_result_read_only(self):
        model = exact_model(2, 1, 1)
        zetas = esprit_1d(eval_model(model, make_box((9,))).values, 2)
        with pytest.raises(ValueError):
            zetas[0] = 0


@pytest.fixture
def gelsd_calls(monkeypatch):
    """Count the calls of the SVD-based least-squares solve."""
    calls = []
    solve = linalg_backend.lstsq_minimum_norm

    def counted(A, Y):
        calls.append(A.shape)
        return solve(A, Y)

    monkeypatch.setattr(linalg_backend, "lstsq_minimum_norm", counted)
    return calls


@pytest.fixture
def eig_full_calls(monkeypatch):
    """Count the calls of the dense eigendecomposition."""
    calls = []
    eig = linalg_backend.eig_full

    def counted(A):
        calls.append(A.shape)
        return eig(A)

    monkeypatch.setattr(linalg_backend, "eig_full", counted)
    return calls


def model_samples(domain, zetas, rng, noise=0.0):
    """Samples of random coefficients on ``domain``, plus relative noise."""
    K = len(zetas)
    coeffs = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    values = oracles.vandermonde_ref(domain.points, zetas) @ coeffs
    e = rng.standard_normal(len(domain)) + 1j * rng.standard_normal(len(domain))
    values += noise * np.linalg.norm(values) / np.linalg.norm(e) * e
    return MdSequence(domain, values)


class TestRecoverCoeffs:
    # the coefficient stage of esprit_nd: normal equations while V^*V is well
    # conditioned, least squares on the node-power matrix past that
    @given(st.integers(0, 10_000))
    def test_known_nodes_give_exact_coeffs(self, seed):
        model = exact_model(4, 2, seed)
        f = eval_model(model, make_box((5, 5)))
        coeffs, _ = lstsq_minimum_norm(vandermonde(f.domain, model.zetas), f.values)
        np.testing.assert_allclose(coeffs, model.coeffs, atol=1e-10)

    def test_degenerate_nodes_warn(self):
        f = MdSequence(make_box((6,)), np.ones(6))
        zetas = np.log(np.array([[1.0 + 0j], [1.0 + 1e-16j]]))
        _, cond = lstsq_minimum_norm(vandermonde(f.domain, zetas), f.values)
        assert "condition" in _estimate_warnings(1.0, cond)[0]

    @given(gapped_product_sets(), st.integers(0, 10_000), st.floats(0.0, 0.6))
    def test_matches_least_squares_oracle_on_product_sets(self, domain, seed, damping):
        # The normal equations lose accuracy like eps * cond(V^*V); the
        # guard keeps that below about 1e-8, and the SVD solve takes the rest.
        # Both sides round every exponent <x, zeta> to eps times its size.
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, min(len(domain), 8) + 1))
        zetas = random_model(K, domain.dim, rng, "random_complex", damping).zetas
        f = model_samples(domain, zetas, rng, noise=0.1)
        V = oracles.vandermonde_ref(domain.points, zetas)
        expected, _, rank, s = np.linalg.lstsq(V, f.values, rcond=None)
        if rank < K:
            with pytest.raises(ModelOrderError):
                _coefficients(f, zetas)
            return
        coeffs, cond = _coefficients(f, zetas)
        exponent = np.abs(domain.as_array @ zetas.T).max()
        bound = 100 * EPS * (s[0] / s[-1]) ** 2 * (1 + exponent)
        assert np.linalg.norm(coeffs - expected) <= bound * np.linalg.norm(expected)
        assert abs(cond - s[0] / s[-1]) <= bound * cond

    def test_well_conditioned_box_skips_the_svd_solve(self, gelsd_calls, vandermonde_calls):
        rng = np.random.default_rng(5)
        domain = make_box((6, 5, 4), offset=(-3, 0, 2))
        zetas = random_model(6, 3, rng, "random_complex", 0.3).zetas
        f = model_samples(domain, zetas, rng)
        coeffs, cond = _coefficients(f, zetas)
        assert vandermonde_calls == []  # V^*V and V^*f come from the per-axis tables
        expected, expected_cond = lstsq_minimum_norm(vandermonde(domain, zetas), f.values)
        np.testing.assert_allclose(coeffs, expected, rtol=1e-12)
        assert cond == pytest.approx(expected_cond, rel=1e-10)
        assert gelsd_calls == []

    def test_ill_conditioned_box_takes_the_svd_solve(self, gelsd_calls):
        # the wild-dynamic-range instance: cond(V) > 1e12, far past the guard
        model = ExponentialModel(1, [[-3.6 + 0.3j], [3.6 + 1.1j]], [1.0, 1.0])
        xi = make_box((5,))
        f = eval_model(model, minkowski_sum(xi, xi))
        report = esprit_nd(f, xi, xi, EspritOptions(model_order=2))
        assert gelsd_calls == [(9, 2)]
        _, expected = lstsq_minimum_norm(vandermonde(f.domain, report.model.zetas), f.values)
        assert report.coeff_condition == expected > 1e12
        assert "condition" in report.warnings[0]

    def test_guard_sends_moderate_conditioning_to_the_svd_solve(self, gelsd_calls):
        # two nodes 1e-5 apart on 12 points: cond(V) is about 5.8e4, so
        # cond(V^*V) about 3.4e9 lies past the guard, yet no warning is due
        domain = make_box((12,))
        zetas = np.array([[0.3j], [0.3j + 1e-5j]])
        f = model_samples(domain, zetas, np.random.default_rng(2))
        coeffs, cond = _coefficients(f, zetas)
        assert len(gelsd_calls) == 1
        assert 1e4 < cond < 1e12
        expected, expected_cond = lstsq_minimum_norm(vandermonde(domain, zetas), f.values)
        np.testing.assert_array_equal(coeffs, expected)
        assert cond == expected_cond

    @pytest.mark.parametrize("which", ["box_minus_point", "half_disc"])
    def test_well_conditioned_non_product_sets_skip_the_svd_solve(self, gelsd_calls, which):
        # the guard's accuracy argument holds on any domain; the product
        # structure only makes V^*V cheap
        if which == "half_disc":
            domain = make_shape({"kind": "half_disc", "radius": 5})
        else:
            domain = IndexSet(2, make_box((5, 6)).points[1:])
        rng = np.random.default_rng(7)
        zetas = random_model(5, 2, rng).zetas
        f = model_samples(domain, zetas, rng)
        coeffs, cond = _coefficients(f, zetas)
        assert gelsd_calls == []
        V = oracles.vandermonde_ref(domain.points, zetas)
        expected, _, _, s = np.linalg.lstsq(V, f.values, rcond=None)
        exponent = np.abs(domain.as_array @ zetas.T).max()
        bound = 100 * EPS * (s[0] / s[-1]) ** 2 * (1 + exponent)
        assert np.linalg.norm(coeffs - expected) <= bound * np.linalg.norm(expected)
        _, expected_cond = lstsq_minimum_norm(vandermonde(domain, zetas), f.values)
        assert cond == pytest.approx(expected_cond, rel=1e-10)

    def test_guard_sends_a_half_disc_past_it_to_the_svd_solve(self, gelsd_calls):
        # two nodes 1e-5 apart put cond(V^*V) past the guard on a non-product set too
        domain = make_shape({"kind": "half_disc", "radius": 5})
        zetas = np.array([[0.3j, -0.2j], [0.3j + 1e-5j, -0.2j]])
        f = model_samples(domain, zetas, np.random.default_rng(2))
        coeffs, cond = _coefficients(f, zetas)
        assert gelsd_calls == [(len(domain), 2)]
        assert 1e4 < cond < 1e12
        expected, expected_cond = lstsq_minimum_norm(vandermonde(domain, zetas), f.values)
        np.testing.assert_array_equal(coeffs, expected)
        assert cond == expected_cond

    def test_one_overflowing_axis_table_takes_the_vandermonde_route(
        self, gelsd_calls, vandermonde_calls
    ):
        # exp(800 zeta_1) overflows in the first axis table, but every
        # point's full exponent has real part near 10: the exponent guard
        # refuses the tables, and V itself is finite and well conditioned
        domain = IndexSet(2, [(799, -791), (800, -791), (799, -790), (800, -790)])
        zetas = np.array([[1 + 0.3j, 1 + 0.1j], [1 + 1.3j, 1 - 0.7j]])
        f = MdSequence(domain, oracles.vandermonde_ref(domain.points, zetas) @ [1.0, 2.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, cond = _coefficients(f, zetas)
        assert vandermonde_calls == [(4, 2)]
        assert gelsd_calls == []
        assert np.isfinite(cond)
        np.testing.assert_allclose(coeffs, [1.0, 2.0j], rtol=1e-10)

    @pytest.mark.parametrize("which", ["box", "half_disc"])
    def test_duplicated_term_is_a_model_order_error(self, which):
        # two equal columns: the minimum-norm solution splits the shared
        # coefficient, so no entry is exactly zero, but the rank is K - 1
        if which == "half_disc":
            domain = make_shape({"kind": "half_disc", "radius": 4})
        else:
            domain = make_box((5, 4))
        rng = np.random.default_rng(11)
        zetas = random_model(3, 2, rng).zetas
        zetas = np.vstack([zetas, zetas[1]])
        f = model_samples(domain, zetas, rng)
        coeffs, cond = lstsq_minimum_norm(vandermonde(domain, zetas), f.values)
        assert np.all(coeffs != 0) and cond == np.inf
        with pytest.raises(ModelOrderError, match="dropped a term"):
            _coefficients(f, zetas)


class TestShiftMatrix:
    @given(st.integers(0, 10_000), st.integers(1, 2))
    def test_eigenvalues_are_node_coordinates(self, seed, p):
        K = 4
        model = exact_model(K, 2, seed)
        xi = make_box((4, 4))
        upsilon = make_box((3, 3))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        H = build_hankel(f, xi, upsilon)
        U = truncated_svd(H.matrix).U[:, :K]
        A = _shift_from_masks(U, deletion_masks(xi, p))
        got = np.sort_complex(np.linalg.eigvals(A))
        expected = np.sort_complex(model.nodes[:, p - 1])
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @given(st.integers(0, 10_000), st.integers(0, 2), st.floats(0.0, 0.6))
    def test_matches_least_squares_oracle(self, seed, grid, damping):
        # The fiber-sized solve assumes orthonormal columns; its rounding
        # error grows like eps / sigma_min(U_minus)^2.
        rng = np.random.default_rng(seed)
        if grid == 0:
            radius = int(rng.integers(5, 9))
            xi = erode(make_shape({"kind": "half_disc", "radius": radius}), make_box((3, 3)))
            upsilon = make_box((3, 3))
        else:
            xi = make_box(tuple(int(w) for w in rng.integers(2, 6, size=grid + 1)))
            upsilon = make_box(tuple(int(w) for w in rng.integers(2, 5, size=grid + 1)))
        d = xi.dim
        cap = min(len(deletion_masks(xi, p).keep_minus) for p in range(1, d + 1))
        K = int(rng.integers(1, min(cap, len(upsilon)) + 1))
        model = random_model(K, d, rng, layout="random_complex", damping_bound=damping)
        f = eval_model(model, minkowski_sum(xi, upsilon))
        U = truncated_svd(build_hankel(f, xi, upsilon).matrix).U[:, :K]
        for p in range(1, d + 1):
            expected = oracles.shift_ref(U, xi.points, p)
            masks = deletion_masks(xi, p)
            sigma_min = np.linalg.svd(U[list(masks.keep_minus)], compute_uv=False)[-1]
            bound = 100 * EPS * max(1.0, np.linalg.norm(expected)) / sigma_min**2
            assert np.linalg.norm(_shift_from_masks(U, masks) - expected) <= bound

    def test_rank_loss_on_fiber_ends_is_typed(self):
        # Column 0 lives on the point (2, 0), the last member of its fiber
        # along dimension 1, so U_minus has a zero column there.
        xi = make_box((3, 3))
        U = np.eye(9)[:, [2, 4]]
        with pytest.raises(RankDeficiencyError) as err:
            _shift_from_masks(U, deletion_masks(xi, 1))
        assert err.value.rank == 1
        # along dimension 2 the point (2, 0) is a fiber start, so both columns survive
        A = _shift_from_masks(U, deletion_masks(xi, 2))
        np.testing.assert_allclose(A, np.zeros((2, 2)), atol=1e-15)

    @pytest.mark.parametrize("shape", [(5,), (5, 5)])
    def test_esprit_nd_surfaces_rank_loss(self, shape):
        # A single sample at the far corner makes the signal subspace the
        # row grid's far corner, a fiber end along every dimension.
        omega = make_box(shape)
        values = np.zeros(len(omega))
        values[-1] = 1.0
        grid = make_box(tuple((w + 1) // 2 for w in shape))
        with pytest.raises(RankDeficiencyError):
            esprit_nd(MdSequence(omega, values), grid, grid, EspritOptions(model_order=1))


class TestJointEig:
    def _shared_basis_family(self, nodes, seed=0, cond_bound=50.0):
        K, d = nodes.shape
        rng = np.random.default_rng(seed)
        while True:
            B_inv = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
            if np.linalg.cond(B_inv) < cond_bound:
                break
        return [B_inv @ np.diag(nodes[:, p]) @ np.linalg.inv(B_inv) for p in range(d)]

    @given(st.integers(0, 10_000))
    def test_recovers_paired_rows(self, seed):
        rng = np.random.default_rng(seed)
        nodes = np.exp(1j * rng.uniform(-np.pi, np.pi, (4, 3)))
        mats = self._shared_basis_family(nodes, seed)
        jd = joint_eig(mats)
        err = match_frequencies(nodes, jd.nodes).lambda_errors.max()
        assert err < 1e-8
        assert jd.off_diag_norms.shape == (3,)
        np.testing.assert_allclose(np.abs(jd.alphas), 1.0, atol=1e-12)

    def test_repeated_eigenvalue_in_one_dimension(self):
        # first dimension cannot separate rows 1 and 2; the pairing must
        # still attach (1,1), (1,2), (2,3) correctly
        nodes = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 3.0]], dtype=complex)
        for seed in range(5):
            mats = self._shared_basis_family(nodes, seed)
            jd = joint_eig(mats, EspritOptions(combo_seed=seed))
            err = match_frequencies(nodes, jd.nodes).lambda_errors.max()
            assert err < 1e-8

    def test_one_draw_per_pairing(self, eig_full_calls):
        nodes = np.exp(1j * np.random.default_rng(3).uniform(-np.pi, np.pi, (4, 3)))
        joint_eig(self._shared_basis_family(nodes, 3))
        assert eig_full_calls == [(4, 4)]

    def test_incompatible_matrices_raise(self, eig_full_calls):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with pytest.raises(PairingError) as err:
            joint_eig([A, B])
        assert err.value.residuals is not None
        assert eig_full_calls == [(8, 8)]

    def test_identical_scalar_matrices_cannot_separate(self, eig_full_calls):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(PairingError, match="repeated"):
            joint_eig([eye, eye])
        assert eig_full_calls == [(2, 2)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("perturbation", [0.0, 1e-3])
    def test_equals_all_at_once_formula(self, d, perturbation):
        # D_p is formed and its diagonal zeroed one dimension at a time; the
        # nodes and residuals are those of norm(D_p - diag(g)) over all D_p
        rng = np.random.default_rng(17 + d)
        nodes = np.exp(1j * rng.uniform(-np.pi, np.pi, (12, d)))
        mats = [
            A + perturbation * (rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape))
            for A in self._shared_basis_family(nodes, d)
        ]
        jd = joint_eig(mats)
        _, V, B, _ = linalg_backend.eig_full(sum(a * A for a, A in zip(jd.alphas, mats)))
        D = [B @ (A @ V) for A in mats]
        diagonals = [np.diag(Dp) for Dp in D]
        residuals = [np.linalg.norm(Dp - np.diag(g)) for Dp, g in zip(D, diagonals)]
        np.testing.assert_array_equal(jd.nodes, np.stack(diagonals, axis=1))
        np.testing.assert_array_equal(jd.off_diag_norms, residuals)
        assert (jd.off_diag_norms > 0).all()

    def test_input_validation(self):
        with pytest.raises(DomainError):
            joint_eig([])
        with pytest.raises(DomainError):
            joint_eig([np.eye(2), np.eye(3)])


class TestEspritNd:
    @pytest.mark.skipif(linalg_backend._LAPACK is None, reason="numpy's LAPACK routines not found")
    def test_peak_memory_at_noise_ladder_size(self):
        # zgebrd factors H in the buffer build_hankel gathered it into, so
        # one copy of H is live: the peak is H beside its int64 lookup
        # (1.5 H.nbytes), not H and a copy for the factorization (2.2)
        K, xi = 40, make_box((21, 21))
        n = len(xi)
        f = eval_model(exact_model(K, 2, 11), minkowski_sum(xi, xi))
        f = add_noise(f, 1e-3, np.random.default_rng(11))
        options = EspritOptions(model_order=K)
        esprit_nd(f, xi, xi, options)  # the sets' lookup tables are built and kept
        tracemalloc.start()
        try:
            report = esprit_nd(f, xi, xi, options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.model.order == K
        assert peak <= 1.7 * n * n * 16

    @pytest.mark.skipif(linalg_backend._LAPACK is None, reason="numpy's LAPACK routines not found")
    def test_peak_memory_at_cube3d_size(self):
        # each large array dies with its last reader, H is factored in place
        # and the pairing holds each K x K array once, so the peak is the
        # SVD's: H beside dbdsdc's two n x n factors and 3n^2 workspace
        # (5n^2 doubles, as 10K > n here), 56 n^2 bytes
        K, xi = 350, make_box((8, 8, 8))
        n = len(xi)
        f = eval_model(exact_model(K, 3, 5), minkowski_sum(xi, xi))
        options = EspritOptions(model_order=K)
        esprit_nd(f, xi, xi, options)  # the sets' lookup tables are built and kept
        tracemalloc.start()
        try:
            report = esprit_nd(f, xi, xi, options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.model.order == K
        assert peak <= 1.1 * 56 * n * n

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_recovery_2d_box(self, seed):
        K = 6
        model = exact_model(K, 2, seed)
        xi = make_box((4, 4))
        upsilon = make_box((4, 4))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=K))
        match = match_frequencies(model.nodes, report.model.nodes)
        assert match.lambda_errors.max() < 1e-10
        est = report.model.coeffs[match.assignment]
        np.testing.assert_allclose(est, model.coeffs, atol=1e-9)

    def test_exact_recovery_3d_box(self):
        K = 10
        model = exact_model(K, 3, 23)
        xi = make_box((3, 3, 3))
        upsilon = make_box((3, 3, 3))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=K))
        assert match_frequencies(model.nodes, report.model.nodes).lambda_errors.max() < 1e-9

    def test_exact_recovery_1d(self):
        model = exact_model(3, 1, 7)
        xi = make_box((5,))
        upsilon = make_box((5,))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=3))
        assert match_frequencies(model.nodes, report.model.nodes).lambda_errors.max() < 1e-10

    def test_auto_order_matches_fixed(self):
        model = exact_model(5, 2, 31)
        xi = make_box((4, 4))
        upsilon = make_box((4, 4))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        auto = esprit_nd(f, xi, upsilon)
        assert auto.model.order == 5
        fixed = esprit_nd(f, xi, upsilon, EspritOptions(model_order=5))
        err = match_frequencies(auto.model.nodes, fixed.model.nodes).lambda_errors.max()
        assert err < 1e-12

    @pytest.mark.parametrize("fallback", [False, True], ids=["default_route", "fallback"])
    def test_auto_and_fixed_order_give_identical_nodes(self, fallback, monkeypatch):
        # both paths factor H once and pick K between the singular values
        # and the vectors, so they run the same arithmetic, on either route
        if fallback:
            monkeypatch.setattr(linalg_backend, "_LAPACK", None)
        K = 20
        model = exact_model(K, 2, 57)
        xi = upsilon = make_box((12, 12))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        noise = [1, 1j] @ np.random.default_rng(58).standard_normal((2, len(f.values)))
        f = MdSequence(f.domain, f.values + 1e-6 * noise)
        fixed = esprit_nd(f, xi, upsilon, EspritOptions(model_order=K))
        auto = esprit_nd(f, xi, upsilon, EspritOptions(auto_rel_tol=1e-4))
        assert auto.model.order == K
        np.testing.assert_array_equal(auto.model.nodes, fixed.model.nodes)
        np.testing.assert_array_equal(auto.singular_values, fixed.singular_values)

    def test_non_rectangular_row_grid(self):
        xi = trimmed_half_disc(4)
        upsilon = make_box((3, 3))
        K = 8
        model = exact_model(K, 2, 41)
        f = eval_model(model, minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=K))
        assert match_frequencies(model.nodes, report.model.nodes).lambda_errors.max() < 1e-9

    def test_half_disc_domain_with_eroded_columns(self):
        omega = make_shape({"kind": "half_disc", "radius": 6})
        xi = make_box((3, 3))
        upsilon = erode(omega, xi)
        K = 4
        model = exact_model(K, 2, 43)
        f = eval_model(model, omega)
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=K))
        assert match_frequencies(model.nodes, report.model.nodes).lambda_errors.max() < 1e-9

    def test_coverage_is_checked_before_capacity(self):
        xi = make_box((3, 3))  # capacity 6
        f = MdSequence(make_box((4, 4)), np.ones(16))  # the sums need 5x5
        with pytest.raises(CoverageError):
            esprit_nd(f, xi, xi, EspritOptions(model_order=7))

    def test_unused_samples_on_half_disc(self):
        omega = make_shape({"kind": "half_disc", "radius": 8})
        xi = make_box((3, 3))
        upsilon = erode(omega, xi)
        f = eval_model(exact_model(4, 2, 43), omega)
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=4))
        sums = {tuple(a + b for a, b in zip(x, y)) for x in xi.points for y in upsilon.points}
        assert report.unused_samples == len(omega) - len(sums) > 0

    def test_no_unused_samples_on_the_sumset(self):
        xi = trimmed_half_disc(4)
        upsilon = make_box((3, 3))
        f = eval_model(exact_model(8, 2, 41), minkowski_sum(xi, upsilon))
        assert esprit_nd(f, xi, upsilon, EspritOptions(model_order=8)).unused_samples == 0

    def test_branch_boundary_frequency(self):
        # node on the negative real axis: imaginary part must come out +pi
        model = ExponentialModel(1, [[0.05 + 1j * np.pi]], [1.5])
        xi = make_box((3,))
        upsilon = make_box((3,))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=1))
        zeta = report.model.zetas[0, 0]
        assert zeta.imag > 0
        assert zeta.imag == pytest.approx(np.pi, abs=1e-12)
        assert zeta.real == pytest.approx(0.05, abs=1e-12)

    def test_frequencies_alias_into_principal_branch(self):
        base = 1j * 2.0
        shifted = base + 2j * np.pi  # same samples on integers
        xi = make_box((3,))
        upsilon = make_box((3,))
        f = eval_model(ExponentialModel(1, [[shifted]], [1.0]), minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=1))
        assert report.model.zetas[0, 0].imag == pytest.approx(2.0, abs=1e-12)

    def test_capacity_checked_before_decomposition(self, monkeypatch):
        xi = make_box((3, 3))
        upsilon = make_box((3, 3))
        f = MdSequence(minkowski_sum(xi, upsilon), np.ones(25))

        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD ran before the capacity check")

        monkeypatch.setattr(linalg_backend, "truncated_svd", no_svd)
        with pytest.raises(CapacityError) as err:
            esprit_nd(f, xi, upsilon, EspritOptions(model_order=7))
        assert err.value.capacity == 6
        assert "N^(d-1)*(N-1)" in str(err.value)

    def test_column_grid_too_small(self):
        xi = make_box((4, 4))
        upsilon = make_box((2, 1))
        model = exact_model(3, 2, 3)
        f = eval_model(model, minkowski_sum(xi, upsilon))
        with pytest.raises(CapacityError) as err:
            esprit_nd(f, xi, upsilon, EspritOptions(model_order=3))
        assert err.value.capacity == 2

    def test_zero_signal_auto_order(self):
        xi = make_box((3, 3))
        upsilon = make_box((3, 3))
        f = MdSequence(minkowski_sum(xi, upsilon), np.zeros(25))
        with pytest.raises(ModelOrderError):
            esprit_nd(f, xi, upsilon)

    def test_degenerate_row_grid(self):
        xi = make_shape({"kind": "triangle", "side": 3})
        upsilon = make_box((2, 2))
        omega = minkowski_sum(xi, upsilon)
        f = MdSequence(omega, np.ones(len(omega)))
        with pytest.raises(DegenerateFiberError):
            esprit_nd(f, xi, upsilon, EspritOptions(model_order=2))

    def test_non_finite_samples(self):
        xi = make_box((2, 2))
        vals = np.ones(9)
        vals[4] = np.inf
        with pytest.raises(NonFiniteError):
            f = MdSequence(make_box((3, 3)), vals)
            esprit_nd(f, xi, xi, EspritOptions(model_order=1))

    def test_dimension_mismatch(self):
        f = MdSequence(make_box((3, 3)), np.ones(9))
        with pytest.raises(DomainError):
            esprit_nd(f, make_box((2,)), make_box((2, 2)))

    def test_wild_dynamic_range_flags_coefficients(self):
        # node moduli spread wide enough that the coefficient system condition
        # crosses the limit while the terms are still recoverable: the report
        # must carry a warning rather than fail
        model = ExponentialModel(1, [[-3.6 + 0.3j], [3.6 + 1.1j]], [1.0, 1.0])
        xi = make_box((5,))
        upsilon = make_box((5,))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=2))
        assert report.coeff_condition > 1e12
        assert report.warnings
        assert "condition" in report.warnings[0]
        np.testing.assert_allclose(np.abs(report.model.coeffs), 1.0, atol=1e-2)

    def test_order_far_beyond_numerical_rank(self):
        # sigma_2 / sigma_1 is about 1e-23: the rank check after the order is
        # fixed stops it with a typed error before any subspace work
        model = ExponentialModel(1, [[-14.0 + 0.3j], [14.0 + 1.1j]], [1.0, 1.0])
        xi = make_box((5,))
        upsilon = make_box((5,))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        with pytest.raises(ModelOrderError, match="numerical rank"):
            esprit_nd(f, xi, upsilon, EspritOptions(model_order=2))

    def test_dropped_term_is_a_model_order_error(self):
        # fig6 ladder, model seed 438, trial 3 at noise ratio 1: the noisy
        # sample matrix has full rank, but the estimated node basis does not
        # and least squares zeroes a coefficient.  Without the check this
        # would surface as an untyped DomainError from ExponentialModel.
        fig6 = bundled_spec("fig6")
        spec = dataclasses.replace(
            fig6,
            model=dataclasses.replace(fig6.model, seed=438),
            trials=4,
            noise_ratios=(1.0,),
        )
        results = run_experiment(spec)
        assert [r.failed for r in results] == [False, False, False, True]
        assert results[3].error.startswith("ModelOrderError: least squares dropped a term")

    def test_report_diagnostics_shape(self):
        model = exact_model(4, 2, 3)
        xi = make_box((4, 4))
        upsilon = make_box((3, 3))
        f = eval_model(model, minkowski_sum(xi, upsilon))
        report = esprit_nd(f, xi, upsilon, EspritOptions(model_order=4))
        assert report.singular_values.shape == (min(len(xi), len(upsilon)),)
        assert report.pairing_residuals.shape == (2,)
        assert report.combo_used.shape == (2,)
        assert np.isfinite(report.coeff_condition)
        assert report.warnings == ()

    @pytest.mark.parametrize("cond", [1e13, np.inf, np.nan])
    def test_defective_pairing_basis_is_reported(self, monkeypatch, cond):
        # the eigenvector condition of the pairing reaches the report, and
        # only the report: no Python warning is raised on the way
        eig = linalg_backend.eig_full
        monkeypatch.setattr(linalg_backend, "eig_full", lambda A: (*eig(A)[:3], cond))
        model = exact_model(4, 2, 3)
        xi = make_box((4, 4))
        f = eval_model(model, minkowski_sum(xi, xi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = esprit_nd(f, xi, xi, EspritOptions(model_order=4))
        assert report.warnings == (
            f"eigenvector matrix condition {cond:.3e} exceeds {EIGVEC_COND_LIMIT:.0e}; "
            "input is numerically defective",
        )


class TestEspritBlock:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_truth_on_cubes(self, d, N):
        cap = (N - 1) * N ** (d - 1)
        K = min(cap, 4)
        model = exact_model(K, d, 100 * d + N)
        side = 2 * N - 1
        omega = make_box((side,) * d)
        tensor = eval_model(model, omega).values.reshape((side,) * d, order="F")
        report = esprit_block(tensor, EspritOptions(model_order=K))
        assert match_frequencies(model.nodes, report.model.nodes).lambda_errors.max() < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_general_path(self, seed):
        N, d, K = 3, 2, 5
        model = exact_model(K, d, seed)
        side = 2 * N - 1
        omega = make_box((side,) * d)
        f = eval_model(model, omega)
        tensor = f.values.reshape((side,) * d, order="F")
        block = esprit_block(tensor, EspritOptions(model_order=K))
        xi = make_box((N,) * d)
        general = esprit_nd(f, xi, xi, EspritOptions(model_order=K))
        err = match_frequencies(block.model.nodes, general.model.nodes).lambda_errors.max()
        assert err < 1e-12

    # (sample shape, row box, column box, terms): odd, even and non-cube
    # sides in d = 1, 2, 3, with at most the row box's capacity of terms
    BOX_CASES = [
        ((3,), (2,), (2,), 1),
        ((4,), (2,), (3,), 1),
        ((5,), (3,), (3,), 2),
        ((6,), (3,), (4,), 2),
        ((5, 5), (3, 3), (3, 3), 2),
        ((4, 4), (2, 2), (3, 3), 2),
        ((5, 9), (3, 5), (3, 5), 2),
        ((6, 3), (3, 2), (4, 2), 2),
        ((3, 3, 3), (2, 2, 2), (2, 2, 2), 2),
        ((4, 3, 6), (2, 2, 3), (3, 2, 4), 2),
    ]

    @pytest.mark.parametrize("order", [2, None])
    def test_block_report_equals_general_report(self, order):
        # a fixed order (capped at the terms present) or automatic selection
        for shape, rows, cols, K in self.BOX_CASES:
            model = exact_model(K, len(shape), 9)
            f = eval_model(model, make_box(shape))
            tensor = f.values.reshape(shape, order="F")
            opts = EspritOptions(model_order=order and K, combo_seed=4)
            block = esprit_block(tensor, opts)
            general = esprit_nd(f, make_box(rows), make_box(cols), opts)
            np.testing.assert_array_equal(block.model.zetas, general.model.zetas)
            np.testing.assert_array_equal(block.model.coeffs, general.model.coeffs)
            np.testing.assert_array_equal(block.singular_values, general.singular_values)
            np.testing.assert_array_equal(block.pairing_residuals, general.pairing_residuals)
            np.testing.assert_array_equal(block.combo_used, general.combo_used)
            assert block.coeff_condition == general.coeff_condition
            assert block.unused_samples == general.unused_samples
            assert block.warnings == general.warnings
            if len(shape) == 1:
                fixed = esprit_block(tensor, EspritOptions(model_order=K))
                np.testing.assert_array_equal(esprit_1d(f.values, K), fixed.model.zetas[:, 0])
        # exact recovery on a non-cube box: 6 x 9 x 4 samples, capacity 18
        model = exact_model(8, 3, 21)
        tensor = eval_model(model, make_box((6, 9, 4))).values.reshape(6, 9, 4, order="F")
        report = esprit_block(tensor, EspritOptions(model_order=order and 8))
        assert match_frequencies(model.nodes, report.model.nodes).lambda_errors.max() < 1e-9

    def test_repeated_first_coordinate(self):
        # two terms share their first node coordinate, so A_1 alone has a
        # repeated eigenvalue and no basis of its own to pair dimension 2 with
        model = ExponentialModel(
            2, [[0.4j, 0.9j], [0.4j, -1.3j], [2j, 0.2j]], [1.0, 1.0, 1.0]
        )
        tensor = eval_model(model, make_box((5, 5))).values.reshape(5, 5, order="F")
        report = esprit_block(tensor, EspritOptions(model_order=3))
        assert match_frequencies(model.nodes, report.model.nodes).lambda_errors.max() <= 1e-12

    def test_auto_order(self):
        model = exact_model(3, 2, 11)
        tensor = eval_model(model, make_box((7, 7))).values.reshape(7, 7, order="F")
        report = esprit_block(tensor)
        assert report.model.order == 3

    def test_rejects_tiny_side(self):
        # every axis needs 3 samples, whatever the others hold
        for shape in [(1, 1), (2,), (2, 5), (5, 2), (3, 3, 1), (4, 2, 6), (0, 3)]:
            with pytest.raises(DomainError):
                esprit_block(np.ones(shape))
        with pytest.raises(DomainError):
            esprit_block(np.complex128(1.0))

    def test_capacity_error(self):
        tensor = np.ones((5, 5), dtype=complex)
        with pytest.raises(CapacityError):
            esprit_block(tensor, EspritOptions(model_order=7))  # cap = 6 for N=3, d=2

    def test_non_finite(self):
        tensor = np.ones((3, 3))
        tensor = tensor.astype(complex)
        tensor[1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            esprit_block(tensor, EspritOptions(model_order=1))


def count_calls(monkeypatch, names):
    """Wrap each named function of ``gdesprit.esprit`` where the module looks
    it up, as the benchmark tracer does, and count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(gdesprit.esprit, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(gdesprit.esprit, name, counted)
    return calls


class TestStagesLookedUpAtCallTime:
    """Each stage is a global of ``gdesprit.esprit`` read at call time, so a
    wrapper installed there sees every call; a name bound at import would
    still resolve but be bypassed."""

    def test_esprit_nd_stages_on_half_disc(self, monkeypatch):
        omega = make_shape({"kind": "half_disc", "radius": 6})
        xi = make_box((3, 3))
        f = eval_model(exact_model(4, 2, 43), omega)
        calls = count_calls(
            monkeypatch, ("build_hankel", "deletion_masks", "joint_eig", "vandermonde")
        )
        gdesprit.esprit.esprit_nd(f, xi, erode(omega, xi), EspritOptions(model_order=4))
        # a half-disc is no product set, so the coefficients take the V fallback
        assert calls == {"build_hankel": 1, "deletion_masks": 2, "joint_eig": 1, "vandermonde": 1}

    def test_esprit_block_calls_esprit_nd(self, monkeypatch):
        tensor = eval_model(exact_model(2, 2, 5), make_box((3, 3))).values.reshape((3, 3), order="F")
        calls = count_calls(monkeypatch, ("esprit_nd",))
        gdesprit.esprit.esprit_block(tensor, EspritOptions(model_order=2))
        assert calls == {"esprit_nd": 1}


class TestEspritOptions:
    def test_defaults_valid(self):
        opts = EspritOptions()
        assert opts.model_order is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_order": 0},
            {"auto_rel_tol": 0.0},
            {"auto_rel_tol": 1.0},
            {"combo_seed": -1},
            {"combo_seed": 2.5},
            {"combo_seed": True},
            {"combo_seed": "1"},
            {"auto_rel_tol": "x"},
            {"auto_rel_tol": float("nan")},
            {"auto_rel_tol": True},
        ],
    )
    def test_invalid_options(self, kwargs):
        with pytest.raises(DomainError):
            EspritOptions(**kwargs)

    @pytest.mark.parametrize("order", [2.5, True, "3", float("nan")])
    def test_model_order_must_be_an_integer(self, order):
        with pytest.raises(DomainError):
            EspritOptions(model_order=order)

    def test_integral_seed_normalised(self):
        assert type(EspritOptions(combo_seed=np.int64(3)).combo_seed) is int
        assert EspritOptions(combo_seed=4.0).combo_seed == 4

    def test_integral_model_order_normalised(self):
        assert type(EspritOptions(model_order=np.int64(3)).model_order) is int
        assert EspritOptions(model_order=3.0).model_order == 3
