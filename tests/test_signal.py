"""Exponential models, evaluation, and calibrated noise."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from strategies import gapped_index_sets, gapped_product_sets, index_sets
from gdesprit.domains import IndexSet, make_box, make_shape
from gdesprit.errors import DomainError, GenerationError, NonFiniteError
from gdesprit.signal import (
    NODE_COLLISION_TOL,
    ExponentialModel,
    MdSequence,
    add_noise,
    eval_model,
    _axis_tables,
    random_model,
    vandermonde,
)

EPS = np.finfo(np.float64).eps


def assert_matches_eval_ref(model, omega):
    # Each term is good to a few ulp of its exponent sum_p |x_p zeta_kp| on
    # both sides, and the sum over K terms adds K ulp of sum_k |c_k V_xk|.
    got = eval_model(model, omega).values
    expected = oracles.eval_ref(model.zetas, model.coeffs, omega.points)
    V = np.abs(oracles.vandermonde_ref(omega.points, model.zetas))
    scale = np.abs(omega.as_array.astype(np.float64)) @ np.abs(model.zetas).T
    tol = (8 * (omega.dim + model.order) * EPS * (1 + scale) * V) @ np.abs(model.coeffs)
    assert np.all(np.abs(got - expected) <= tol)


def small_model(dim=2, K=3, seed=7, damping=0.2):
    rng = np.random.default_rng(seed)
    return random_model(K, dim, rng, layout="random_complex", damping_bound=damping)


class TestExponentialModel:
    def test_basic_construction(self):
        m = ExponentialModel(dim=2, zetas=[[0.1j, 0.2j], [0.3j, 0.4j]], coeffs=[1.0, 2.0])
        assert m.order == 2
        assert m.nodes.shape == (2, 2)
        np.testing.assert_allclose(m.nodes, np.exp(np.asarray(m.zetas)))

    def test_one_dimensional_zetas_promote(self):
        m = ExponentialModel(dim=1, zetas=[0.1j, 0.5j], coeffs=[1, 1])
        assert m.zetas.shape == (2, 1)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(DomainError):
            ExponentialModel(dim=1, zetas=[[0.1j]], coeffs=[0.0])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DomainError):
            ExponentialModel(dim=1, zetas=[[0.2j], [0.2j]], coeffs=[1, 1])

    def test_aliased_frequencies_evaluate_identically(self):
        # frequencies 2*pi*i apart are indistinguishable on integer lattices
        omega = make_box((9,))
        a = eval_model(ExponentialModel(1, [[0.5j]], [1.0]), omega)
        b = eval_model(ExponentialModel(1, [[0.5j + 2j * np.pi]], [1.0]), omega)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-13)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            ExponentialModel(dim=1, zetas=[[np.inf + 0j]], coeffs=[1])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            ExponentialModel(dim=2, zetas=[[0.1j, 0.2j]], coeffs=[1, 2])

    @pytest.mark.parametrize("dim", [0, True, 1.5, "1"])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(DomainError):
            ExponentialModel(dim=dim, zetas=[[0.1j]], coeffs=[1.0])

    def test_arrays_read_only(self):
        m = small_model()
        with pytest.raises(ValueError):
            m.coeffs[0] = 0


class TestMdSequence:
    def test_length_checked(self):
        with pytest.raises(DomainError):
            MdSequence(make_box((2, 2)), np.ones(3))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(1, np.nan), complex(0, -np.inf)]
    )
    def test_non_finite_values_rejected(self, bad):
        values = np.ones(4, dtype=complex)
        values[[1, 3]] = bad
        with pytest.raises(NonFiniteError, match="2 of 4 sample values are not finite"):
            MdSequence(make_box((2, 2)), values)

    def test_norm(self):
        f = MdSequence(make_box((4,)), [3, 4, 0, 0])
        assert f.norm() == pytest.approx(5.0)


class TestVandermondeAndEval:
    @given(index_sets(max_size=10, lo=-8, hi=8), st.integers(0, 10_000), st.floats(0.0, 0.6))
    def test_vandermonde_matches_scalar_loop(self, domain, seed, damping):
        rng = np.random.default_rng(seed)
        d = domain.dim
        zetas = rng.uniform(-damping, damping, (4, d)) + 1j * rng.uniform(-np.pi, np.pi, (4, d))
        expected = oracles.vandermonde_ref(domain.points, zetas)
        np.testing.assert_allclose(vandermonde(domain, zetas), expected, rtol=1e-12)

    @given(index_sets(max_size=6, lo=-(2**40), hi=2**40), st.integers(0, 10_000))
    def test_vandermonde_far_coordinates_match_oracle(self, domain, seed):
        # The exponent <x, zeta> is a float64 sum of d products of size up to
        # 2^40 * pi, so each entry is good to a few ulp of sum_i |x_i zeta_i|;
        # the real parts are scaled so the moduli stay within range.
        rng = np.random.default_rng(seed)
        d = domain.dim
        zetas = rng.uniform(-30.0, 30.0, (3, d)) / 2.0**40 + 1j * rng.uniform(-np.pi, np.pi, (3, d))
        expected = oracles.vandermonde_ref(domain.points, zetas)
        scale = np.abs(domain.as_array.astype(np.float64)) @ np.abs(zetas).T
        tol = 4 * d * EPS * (1.0 + scale) * np.abs(expected)
        assert np.all(np.abs(vandermonde(domain, zetas) - expected) <= tol)

    @given(gapped_index_sets(), st.integers(0, 10_000), st.floats(0.0, 0.3))
    def test_vandermonde_gapped_negative_coordinates_match_oracle(self, domain, seed, damping):
        # the phase is gathered per dimension by coordinate rank, so ranks and
        # values must not be confused where the values skip and go negative
        rng = np.random.default_rng(seed)
        d = domain.dim
        zetas = rng.uniform(-damping, damping, (5, d)) + 1j * rng.uniform(-np.pi, np.pi, (5, d))
        expected = oracles.vandermonde_ref(domain.points, zetas)
        np.testing.assert_allclose(vandermonde(domain, zetas), expected, rtol=1e-12)

    def test_vandermonde_finite_where_only_one_factor_overflows(self):
        # exp(800 zeta_1) alone overflows, but the point's full exponent has
        # real part 800 - 790 = 10: the modulus is taken over the whole sum
        domain = IndexSet(2, [(800, -790)])
        zetas = np.array([[1 + 0.3j, 1 + 0.1j]])
        got = vandermonde(domain, zetas)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, oracles.vandermonde_ref(domain.points, zetas), rtol=1e-13)

    @given(st.integers(0, 10_000))
    def test_eval_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(4, 2, rng, layout="random_complex", damping_bound=0.3)
        omega = make_box((4, 3), offset=(-1, 0))
        got = eval_model(model, omega)
        expected = oracles.eval_ref(model.zetas, model.coeffs, omega.points)
        np.testing.assert_allclose(got.values, expected, rtol=1e-12)

    def test_eval_is_linear_in_coefficients(self):
        rng = np.random.default_rng(3)
        zetas = 1j * rng.uniform(-np.pi, np.pi, (3, 2))
        c1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        omega = make_box((4, 4))
        v1 = eval_model(ExponentialModel(2, zetas, c1), omega).values
        v2 = eval_model(ExponentialModel(2, zetas, c2), omega).values
        v12 = eval_model(ExponentialModel(2, zetas, c1 + c2), omega).values
        np.testing.assert_allclose(v12, v1 + v2, rtol=0, atol=1e-12 * np.abs(v12).max())

    def test_single_term_is_separable_product(self):
        zeta = np.array([[0.1 + 0.4j, -0.2 + 1.1j]])
        model = ExponentialModel(2, zeta, [2.5])
        omega = make_box((3, 4))
        vals = eval_model(model, omega).values.reshape(4, 3)  # canonical: dim 1 fastest
        g1 = np.exp(zeta[0, 0] * np.arange(3))
        g2 = np.exp(zeta[0, 1] * np.arange(4))
        np.testing.assert_allclose(vals, 2.5 * np.outer(g2, g1), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            eval_model(small_model(dim=2), make_box((4,)))

    @pytest.mark.parametrize("widths, columns", [((3, 3), 1), ((3,), 3)])
    def test_vandermonde_dimension_mismatch(self, widths, columns):
        message = f"domain {len(widths)}, zetas {columns}"
        with pytest.raises(DomainError, match=message):
            vandermonde(make_box(widths), 1j * np.ones((2, columns)))

    def test_overflow_raises(self):
        model = ExponentialModel(1, [[60.0 + 0j]], [1.0])
        with pytest.raises(NonFiniteError):
            eval_model(model, make_box((20,)))


class TestFactorisedEvaluation:
    # product sets are evaluated from per-axis tables, every other domain
    # and the guard cases through the node-power matrix

    @pytest.mark.parametrize(
        "omega",
        [
            make_box((9,), offset=(-4,)),
            make_box((5, 4), offset=(3, -7)),
            make_box((4, 3, 5), offset=(-2, 6, 1)),
            IndexSet(2, [(x, y) for x in (0, 2, 5) for y in (1, 3)]),
        ],
        ids=["d1", "d2", "d3", "gapped"],
    )
    def test_product_sets_never_form_v(self, vandermonde_calls, omega):
        model = random_model(5, omega.dim, np.random.default_rng(4), "random_complex", 0.4)
        assert_matches_eval_ref(model, omega)
        assert vandermonde_calls == []

    @given(gapped_product_sets(), st.integers(0, 10_000), st.floats(0.0, 0.3))
    def test_gapped_product_sets_match_oracle(self, omega, seed, damping):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 7))
        model = random_model(K, omega.dim, rng, "random_complex", damping)
        assert _axis_tables(omega, model.zetas) is not None
        assert_matches_eval_ref(model, omega)

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "half_disc", "radius": 5}, {"kind": "triangle", "side": 6}],
        ids=["half_disc", "triangle"],
    )
    def test_non_product_sets_form_v(self, vandermonde_calls, spec):
        omega = make_shape(spec)
        model = random_model(6, 2, np.random.default_rng(8), "random_complex", 0.3)
        assert _axis_tables(omega, model.zetas) is None
        assert_matches_eval_ref(model, omega)
        assert vandermonde_calls == [(len(omega), 6)]

    @pytest.mark.parametrize(
        "axes, re_zeta",
        [
            # exp(800) overflows in the first table; full real exponents 8..10
            (((799, 800), (-791, -790)), (1.0, 1.0)),
            # exp(-720) is subnormal in the first table; full real exponents -20..-19
            (((720, 721), (700, 701)), (-1.0, 1.0)),
            # every table is finite, but the exponent bound 200 + 102 + 101 is
            # past the guard; full real exponents 0..4
            (((-200, -199), (50, 51), (100, 101)), (1.0, 2.0, 1.0)),
        ],
        ids=["overflow", "underflow", "past_guard"],
    )
    def test_guard_cases_form_v(self, vandermonde_calls, axes, re_zeta):
        omega = IndexSet(len(axes), list(itertools.product(*axes)))
        im = np.array([[0.3, -1.1, 0.7], [1.3, 0.2, -2.5]])[:, : len(axes)]
        model = ExponentialModel(len(axes), np.asarray(re_zeta) + 1j * im, [1.0, 2.0j])
        assert _axis_tables(omega, model.zetas) is None
        assert_matches_eval_ref(model, omega)
        assert vandermonde_calls == [(len(omega), 2)]

    def test_fig4_size_evaluation_memory(self):
        # 21^3 points and K=900: the node-power matrix alone would be 133 MB
        omega = make_box((21, 21, 21))
        model = random_model(900, 3, np.random.default_rng(105))
        tracemalloc.start()
        try:
            eval_model(model, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestAddNoise:
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 10 ** -0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6]))
    def test_exact_energy_ratio(self, seed, ratio):
        rng = np.random.default_rng(seed)
        model = random_model(3, 2, rng, layout="uniform_imag")
        f = eval_model(model, make_box((5, 5)))
        noisy = add_noise(f, ratio, np.random.default_rng(seed + 1))
        measured = np.linalg.norm(noisy.values - f.values) / np.linalg.norm(f.values)
        # reconstruction of the noise by subtraction adds ~eps cancellation
        assert abs(measured - ratio) <= 16 * EPS + 1e-12 * ratio

    def test_zero_ratio_identity(self):
        f = eval_model(small_model(), make_box((4, 4)))
        out = add_noise(f, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.values, f.values)
        assert out.domain is f.domain

    def test_deterministic_given_rng_state(self):
        f = eval_model(small_model(), make_box((4, 4)))
        a = add_noise(f, 1e-2, np.random.default_rng(42))
        b = add_noise(f, 1e-2, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_negative_ratio_rejected(self):
        f = eval_model(small_model(), make_box((3, 3)))
        for ratio in [-0.1, float("nan"), float("inf"), True]:
            with pytest.raises(DomainError):
                add_noise(f, ratio, np.random.default_rng(0))

    def test_zero_signal_rejected(self):
        f = MdSequence(make_box((3,)), np.zeros(3))
        with pytest.raises(DomainError):
            add_noise(f, 0.5, np.random.default_rng(0))


class TestRandomModel:
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 8))
    def test_uniform_imag_layout(self, seed, d, K):
        model = random_model(K, d, np.random.default_rng(seed))
        assert model.order == K
        assert model.dim == d
        assert np.all(model.zetas.real == 0)
        assert np.all(np.abs(model.zetas.imag) < np.pi)
        mods = np.abs(model.coeffs)
        assert np.all((0.5 <= mods) & (mods <= 1.5))

    def test_spiral_frequencies_are_deterministic(self):
        K = 12
        model = random_model(K, 2, np.random.default_rng(0), layout="spiral")
        k = np.arange(1, K + 1)
        r = np.pi * k / K
        phi = 4 * np.pi * k / K
        expected = 1j * np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        np.testing.assert_allclose(model.zetas, expected, rtol=0, atol=1e-15)

    def test_spiral_requires_2d(self):
        with pytest.raises(DomainError):
            random_model(5, 3, np.random.default_rng(0), layout="spiral")

    @given(st.integers(0, 10_000))
    def test_random_complex_damping_bound(self, seed):
        bound = 0.15
        model = random_model(
            6, 2, np.random.default_rng(seed), layout="random_complex", damping_bound=bound
        )
        assert np.all(np.abs(model.zetas.real) <= bound)

    @given(st.integers(0, 10_000), st.integers(2, 10))
    def test_nodes_are_separated(self, seed, K):
        model = random_model(K, 2, np.random.default_rng(seed))
        diff = np.abs(model.nodes[:, None, :] - model.nodes[None, :, :]).max(axis=2)
        np.fill_diagonal(diff, np.inf)
        assert diff.min() >= NODE_COLLISION_TOL

    def test_unknown_layout(self):
        with pytest.raises(DomainError):
            random_model(3, 2, np.random.default_rng(0), layout="lattice")

    @pytest.mark.parametrize("bound", [-0.5, float("nan"), float("inf")])
    def test_bad_damping_bound(self, bound):
        with pytest.raises(DomainError, match="damping_bound"):
            random_model(3, 2, np.random.default_rng(0), layout="random_complex", damping_bound=bound)

    @pytest.mark.parametrize("layout", ["uniform_imag", "spiral"])
    def test_damping_bound_needs_the_random_complex_layout(self, layout):
        with pytest.raises(DomainError, match=f"the {layout} layout is undamped"):
            random_model(3, 2, np.random.default_rng(0), layout=layout, damping_bound=0.5)

    @pytest.mark.parametrize("K, d", [(2.5, 2), (True, 2), (3, 2.5), (3, False), ("3", 2)])
    def test_order_and_dimension_must_be_integers(self, K, d):
        with pytest.raises(DomainError):
            random_model(K, d, np.random.default_rng(0))

    def test_integral_floats_normalised(self):
        model = random_model(3.0, 2.0, np.random.default_rng(0))
        assert (model.order, model.dim) == (3, 2)
        expected = random_model(3, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(model.zetas, expected.zetas)

    def test_generation_gives_up_on_constant_rng(self):
        class ConstantRng:
            def uniform(self, low=0.0, high=1.0, size=None):
                return np.full(size, (low + high) / 2) if size is not None else (low + high) / 2

        with pytest.raises(GenerationError):
            random_model(2, 2, ConstantRng())
