"""JSON round trips for grids, models, samples and reports."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdesprit.domains import make_box, make_shape, minkowski_sum
from gdesprit.errors import DomainError
from gdesprit.esprit import EspritOptions, esprit_nd
from gdesprit.serialize import (
    dump_json,
    grid_from_spec,
    grid_to_spec,
    load_json,
    model_from_dict,
    model_to_dict,
    report_to_dict,
    samples_from_dict,
    samples_to_dict,
)
from gdesprit.signal import ExponentialModel, eval_model, random_model


class TestGridSpecs:
    def test_box_spec(self):
        grid = grid_from_spec({"dim": 2, "kind": "box", "widths": [3, 2], "offset": [1, -1]})
        assert grid == make_box((3, 2), offset=(1, -1))

    def test_named_shapes(self):
        assert grid_from_spec({"kind": "half_disc", "radius": 4}) == make_shape(
            {"kind": "half_disc", "radius": 4}
        )
        assert grid_from_spec({"kind": "triangle", "side": 3}) == make_shape(
            {"kind": "triangle", "side": 3}
        )

    def test_mask_round_trip(self):
        grid = make_shape({"kind": "half_disc", "radius": 3})
        assert grid_from_spec(grid_to_spec(grid)) == grid

    def test_mask_spec_canonicalizes_point_order(self):
        grid = grid_from_spec({"kind": "mask", "points": [[1, 1], [0, 0], [1, 0]]})
        assert grid.points == ((0, 0), (1, 0), (1, 1))

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "box"},
            {"kind": "box", "widths": []},
            {"kind": "sphere", "radius": 2},
            {"dim": 3, "kind": "box", "widths": [2, 2]},
            "not a dict",
            {"kind": "half_disc", "radius": float("inf")},
            {"kind": "half_disc", "radius": float("nan")},
            {"kind": "half_disc", "radius": "3"},
            {"kind": "box", "widths": ["a"]},
            {"kind": "box", "widths": 3},
            {"kind": "box", "widths": [2.5, 3]},
            {"kind": "box", "widths": [3, 3], "dim": "x"},
            {"kind": "triangle", "side": True},
            {"kind": "mask", "points": 5},
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(DomainError):
            grid_from_spec(spec)


class TestModelRoundTrip:
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4))
    def test_round_trip_is_exact(self, seed, d, K):
        model = random_model(K, d, np.random.default_rng(seed), layout="random_complex", damping_bound=0.3)
        back = model_from_dict(model_to_dict(model))
        assert back.dim == model.dim
        np.testing.assert_array_equal(back.zetas, model.zetas)
        np.testing.assert_array_equal(back.coeffs, model.coeffs)

    def test_dict_shape(self):
        model = ExponentialModel(2, [[0.1j, 0.2j]], [1.0 + 2.0j])
        data = model_to_dict(model)
        assert data == {"dim": 2, "terms": [{"zeta": [[0.0, 0.1], [0.0, 0.2]], "c": [1.0, 2.0]}]}

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"dim": 1},
            {"dim": 1, "terms": [{"zeta": [[0, 1]]}]},
            {"dim": 1, "terms": [{"zeta": [0.3], "c": [1, 0]}]},
            {"dim": 1, "terms": [{"zeta": [[0, 1, 2]], "c": [1, 0]}]},
        ],
    )
    def test_malformed_model(self, data):
        with pytest.raises(DomainError):
            model_from_dict(data)

    @pytest.mark.parametrize("dim", [2.7, "2", True])
    def test_dim_must_be_an_integer(self, dim):
        data = {"dim": dim, "terms": [{"zeta": [[0, 0.5], [0, 0.2]], "c": [1, 0]}]}
        with pytest.raises(DomainError, match="dimension must be an integer"):
            model_from_dict(data)


class TestSamplesRoundTrip:
    def test_round_trip_preserves_values_and_grid(self):
        model = random_model(3, 2, np.random.default_rng(5))
        omega = make_shape({"kind": "half_disc", "radius": 4})
        f = eval_model(model, omega)
        back = samples_from_dict(samples_to_dict(f))
        assert back.domain == f.domain
        np.testing.assert_array_equal(back.values, f.values)

    def test_explicit_grid_spec_kept(self):
        f = eval_model(random_model(2, 1, np.random.default_rng(0)), make_box((4,)))
        spec = {"dim": 1, "kind": "box", "widths": [4]}
        data = samples_to_dict(f, grid_spec=spec)
        assert data["grid"] == spec
        back = samples_from_dict(data)
        np.testing.assert_array_equal(back.values, f.values)

    def test_value_order_is_canonical_order(self):
        model = random_model(2, 2, np.random.default_rng(1))
        data = samples_to_dict(eval_model(model, make_box((2, 2))))
        for point, pair in zip([(0, 0), (1, 0), (0, 1), (1, 1)], data["values"]):
            v = np.sum(model.coeffs * np.exp(model.zetas @ np.array(point)))
            np.testing.assert_allclose(pair, [v.real, v.imag], rtol=1e-13)

    def test_malformed_samples(self):
        with pytest.raises(DomainError):
            samples_from_dict({"values": [[0, 0]]})
        with pytest.raises(DomainError):
            samples_from_dict({"grid": {"kind": "box", "widths": [2]}, "values": [[1], [2]]})
        for pair in (["abc", 1], [None, 0], [[1], 0], ["1", 0], [True, 0], [10**400, 0]):
            with pytest.raises(DomainError, match="pair of numbers"):
                samples_from_dict({"grid": {"kind": "box", "widths": [2]}, "values": [[0, 0], pair]})

    def test_numpy_components_read_as_numbers(self):
        values = [[np.float64(1.5), np.int32(2)], [3, np.float32(0.5)]]
        f = samples_from_dict({"grid": {"kind": "box", "widths": [2]}, "values": values})
        np.testing.assert_array_equal(f.values, [1.5 + 2j, 3 + 0.5j])

    def test_length_mismatch_detected(self):
        with pytest.raises(DomainError):
            samples_from_dict({"grid": {"kind": "box", "widths": [3]}, "values": [[1, 0]]})


class TestReportSerialization:
    def _report(self):
        model = random_model(3, 2, np.random.default_rng(2))
        xi = make_box((3, 3))
        f = eval_model(model, minkowski_sum(xi, xi))
        return esprit_nd(f, xi, xi, EspritOptions(model_order=3))

    def test_report_dict_fields(self):
        report = self._report()
        data = report_to_dict(report)
        assert data["model_order"] == 3
        assert len(data["singular_values"]) == len(report.singular_values)
        assert len(data["pairing_residuals"]) == 2
        assert len(data["combo_used"]) == 2
        assert data["coeff_condition"] == pytest.approx(report.coeff_condition)
        assert data["warnings"] == []
        assert data["unused_samples"] == 0
        json.dumps(data)  # everything JSON-native

    def test_infinite_condition_becomes_null(self):
        report = self._report()
        patched = dataclasses.replace(report, coeff_condition=float("inf"))
        assert report_to_dict(patched)["coeff_condition"] is None


class TestJsonFiles:
    def test_dump_load_round_trip(self, tmp_path):
        path = tmp_path / "data.json"
        payload = {"b": [1, 2], "a": {"x": 0.5}}
        dump_json(payload, path)
        assert load_json(path) == payload
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')  # sorted keys
        assert text.endswith("\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError, match="not found"):
            load_json(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(DomainError, match="invalid JSON"):
            load_json(path)
