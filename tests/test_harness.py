"""Experiment harness: matching, grid resolution, runs, result files."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest

from gdesprit import harness
from gdesprit.domains import erode, make_box, make_shape, minkowski_sum
from gdesprit.errors import DomainError
from gdesprit.harness import (
    CSV_COLUMNS,
    NOISE_LADDER,
    ExperimentSpec,
    ModelRecipe,
    TrialResult,
    bundled_scenarios,
    bundled_spec,
    match_frequencies,
    resolve_grids,
    run_experiment,
    singular_value_table,
    spec_from_dict,
    write_results,
)


def small_spec(name="unit", *, trials=3, noise_ratios=(0.0, 1e-2), K=3, xi_widths=(3, 3)):
    return ExperimentSpec(
        name=name,
        model=ModelRecipe(layout="uniform_imag", K=K, d=len(xi_widths), seed=7),
        xi={"dim": len(xi_widths), "kind": "box", "widths": list(xi_widths)},
        upsilon={"dim": len(xi_widths), "kind": "box", "widths": [3] * len(xi_widths)},
        noise_ratios=noise_ratios,
        trials=trials,
    )


class TestMatchFrequencies:
    def test_identical_sets(self):
        nodes = np.exp(1j * np.array([[0.3, 1.1], [2.0, -0.4], [-1.2, 0.9]]))
        m = match_frequencies(nodes, nodes)
        np.testing.assert_array_equal(m.assignment, [0, 1, 2])
        assert m.lambda_errors.max() == 0.0
        assert m.zeta_errors.max() == 0.0

    def test_permutation_recovered(self):
        rng = np.random.default_rng(3)
        nodes = np.exp(1j * rng.uniform(-3, 3, (4, 2)))
        perm = np.array([2, 0, 3, 1])
        m = match_frequencies(nodes, nodes[perm])
        # est row m.assignment[k] is the match of reference row k
        np.testing.assert_allclose(nodes[perm][m.assignment], nodes, atol=1e-15)
        assert m.lambda_errors.max() == 0.0

    def test_agrees_with_exhaustive_assignment(self, rng):
        for _ in range(20):
            true = np.exp(1j * rng.uniform(-3, 3, (3, 2)))
            est = true[rng.permutation(3)] + 0.05 * (
                rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            )
            cost = np.abs(true[:, None, :] - est[None, :, :]).max(axis=2)
            best = min(
                sum(cost[k, p[k]] for k in range(3))
                for p in itertools.permutations(range(3))
            )
            m = match_frequencies(true, est)
            assert m.lambda_errors.sum() == pytest.approx(best, rel=1e-12)

    def test_single_perturbed_term_localized(self):
        true = np.exp(1j * np.array([[0.5], [1.7], [-2.0]]))
        est = true.copy()
        est[1] += 1e-3
        m = match_frequencies(true, est)
        np.testing.assert_array_equal(m.assignment, [0, 1, 2])
        assert m.lambda_errors[0] == 0.0
        assert m.lambda_errors[2] == 0.0
        assert m.lambda_errors[1] == pytest.approx(1e-3, rel=1e-12)

    def test_zeta_errors_wrap_around_branch_cut(self):
        true = np.array([[np.exp(1j * (np.pi - 1e-3))]])
        est = np.array([[np.exp(1j * (-np.pi + 1e-3))]])
        m = match_frequencies(true, est)
        assert m.zeta_errors[0] == pytest.approx(2e-3, rel=1e-9)

    def test_damped_nodes_compare_in_frequency_space_too(self):
        true = np.array([[0.9 * np.exp(0.4j)]])
        est = np.array([[0.9001 * np.exp(0.4002j)]])
        m = match_frequencies(true, est)
        expected = abs(np.log(true[0, 0]) - np.log(est[0, 0]))
        assert m.zeta_errors[0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0), 0.0])
    @pytest.mark.parametrize("side", ["true", "est"])
    def test_non_finite_or_zero_nodes_rejected(self, bad, side):
        nodes = np.exp(1j * np.array([[0.3, 1.1], [2.0, -0.4]]))
        broken = nodes.copy()
        broken[1, 0] = bad
        args = (broken, nodes) if side == "true" else (nodes, broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite and nonzero"):
                match_frequencies(*args)

    def test_one_dimensional_inputs_promoted(self):
        true = np.exp(1j * np.array([0.3, 1.0]))
        m = match_frequencies(true, true[::-1])
        np.testing.assert_array_equal(m.assignment, [1, 0])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            match_frequencies(np.ones((2, 2)), np.ones((3, 2)))


class TestModelRecipe:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("K", 2.5),
            ("K", True),
            ("K", "3"),
            ("d", 1.5),
            ("d", None),
            ("seed", 0.5),
            ("seed", True),
            ("seed", -1),
            ("damping_bound", float("nan")),
            ("damping_bound", "0.1"),
            # recipes random_model refuses are refused when the recipe is built
            ("K", 0),
            ("layout", "bogus"),
            ("damping_bound", 0.5),  # on the undamped uniform_imag layout
        ],
    )
    def test_malformed_field(self, field, value):
        fields = dict(layout="uniform_imag", K=2, d=2, seed=0, damping_bound=0.0)
        with pytest.raises(DomainError):
            ModelRecipe(**{**fields, field: value})

    def test_integral_values_normalised(self):
        recipe = ModelRecipe(layout="uniform_imag", K=3.0, d=np.int64(2), seed=7.0, damping_bound=0)
        assert (recipe.K, recipe.d, recipe.seed, recipe.damping_bound) == (3, 2, 7, 0.0)
        assert all(type(v) is int for v in (recipe.K, recipe.d, recipe.seed))
        assert type(recipe.damping_bound) is float
        assert len(run_experiment(dataclasses.replace(small_spec(), model=recipe))) == 6


class TestExperimentSpec:
    def test_requires_exactly_one_column_description(self):
        base = dict(
            name="x",
            model=ModelRecipe(layout="uniform_imag", K=2, d=2, seed=0),
            xi={"dim": 2, "kind": "box", "widths": [2, 2]},
        )
        with pytest.raises(DomainError):
            ExperimentSpec(**base)  # neither
        with pytest.raises(DomainError):
            ExperimentSpec(
                **base,
                upsilon={"dim": 2, "kind": "box", "widths": [2, 2]},
                omega={"dim": 2, "kind": "box", "widths": [4, 4]},
            )

    def test_validates_trials_and_ratios(self):
        with pytest.raises(DomainError):
            small_spec(trials=0)
        for ratios in [(0.0, -1e-3), (float("nan"), 1e-3), (float("inf"),), (True,), ()]:
            with pytest.raises(DomainError):
                small_spec(noise_ratios=ratios)

    @pytest.mark.parametrize("trials", [2.5, True, "2", None])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(DomainError):
            small_spec(trials=trials)

    def test_ratios_coerced_to_float(self):
        spec = small_spec(noise_ratios=(0, 1))
        assert spec.noise_ratios == (0.0, 1.0)
        assert all(isinstance(r, float) for r in spec.noise_ratios)


class TestResolveGrids:
    def test_explicit_column_grid(self):
        spec = small_spec()
        xi, upsilon, omega = resolve_grids(spec)
        assert xi == make_box((3, 3))
        assert upsilon == make_box((3, 3))
        assert omega == minkowski_sum(xi, upsilon)

    def test_column_grid_by_erosion(self):
        spec = ExperimentSpec(
            name="er",
            model=ModelRecipe(layout="uniform_imag", K=4, d=2, seed=1),
            xi={"dim": 2, "kind": "box", "widths": [3, 3]},
            omega={"dim": 2, "kind": "half_disc", "radius": 6},
        )
        xi, upsilon, omega = resolve_grids(spec)
        hd = make_shape({"kind": "half_disc", "radius": 6})
        assert omega == hd
        assert upsilon == erode(hd, make_box((3, 3)))


class TestRunExperiment:
    def test_result_grid_shape_and_order(self):
        spec = small_spec()
        results = run_experiment(spec)
        assert len(results) == spec.trials * len(spec.noise_ratios)
        expected = [
            (t, r) for t in range(spec.trials) for r in spec.noise_ratios
        ]
        assert [(r.trial, r.noise_ratio) for r in results] == expected

    def test_noise_free_cells_recover_exactly(self):
        results = run_experiment(small_spec(noise_ratios=(0.0,)))
        for r in results:
            assert not r.failed
            assert r.lambda_errors.max() < 1e-10
            assert r.zeta_errors.max() < 1e-10
            assert r.coeff_rel_error < 1e-9

    def test_noisy_cells_have_bounded_nonzero_error(self):
        results = run_experiment(small_spec(noise_ratios=(1e-3,)))
        for r in results:
            assert not r.failed
            assert 0 < r.lambda_errors.max() < 0.1

    def test_rerun_reproduces_results(self):
        spec = small_spec()
        first = run_experiment(spec)
        second = run_experiment(spec)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.lambda_errors, b.lambda_errors)
            np.testing.assert_array_equal(a.singular_values, b.singular_values)
            assert a.coeff_rel_error == b.coeff_rel_error

    # a recipe random_model refuses fails when the spec is built, before any run
    def test_negative_damping_bound_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DomainError, match="damping_bound must be nonnegative"):
            dataclasses.replace(
                small_spec(),
                model=ModelRecipe(layout="random_complex", K=3, d=2, seed=7, damping_bound=-0.5),
            )
        assert list(tmp_path.iterdir()) == []

    def test_damping_bound_on_undamped_layout_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DomainError, match="the uniform_imag layout is undamped"):
            dataclasses.replace(
                small_spec(),
                model=ModelRecipe(layout="uniform_imag", K=3, d=2, seed=7, damping_bound=0.5),
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", [0, 2.5])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, monkeypatch, jobs):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DomainError, match="jobs must be"):
            run_experiment(small_spec(), jobs=jobs)
        assert list(tmp_path.iterdir()) == []

    def test_parallel_run_matches_serial(self):
        spec = small_spec(trials=4)
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        assert [(r.trial, r.noise_ratio) for r in serial] == [
            (r.trial, r.noise_ratio) for r in parallel
        ]
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.lambda_errors, b.lambda_errors)
            assert a.coeff_rel_error == b.coeff_rel_error

    def test_estimation_failure_recorded_not_raised(self):
        # row-grid capacity 2 cannot hold a 3-term model
        spec = small_spec(K=3, xi_widths=(2, 2), trials=2)
        results = run_experiment(spec)
        assert len(results) == 4
        for r in results:
            assert r.failed
            assert "CapacityError" in r.error
            assert len(r.lambda_errors) == 3
            assert np.all(np.isnan(r.lambda_errors))

    def test_programming_error_raised_not_recorded(self, monkeypatch):
        # only the library's typed errors and LinAlgError are data; a
        # TypeError is a fault in the program and must stop the run
        def broken(*args, **kwargs):
            raise TypeError("bad argument")

        monkeypatch.setattr(harness, "esprit_nd", broken)
        with pytest.raises(TypeError, match="bad argument"):
            run_experiment(small_spec(trials=1))

    def test_linalg_error_recorded(self, monkeypatch):
        def diverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(harness, "esprit_nd", diverged)
        results = run_experiment(small_spec(trials=1))
        assert all(r.failed for r in results)
        assert results[0].error == "LinAlgError: SVD did not converge"

    def test_output_files_written_and_stable(self, tmp_path):
        spec = small_spec()
        write_results(spec, run_experiment(spec), tmp_path)
        csv_path = tmp_path / "unit.csv"
        json_path = tmp_path / "unit.json"
        assert csv_path.exists() and json_path.exists()
        first = (csv_path.read_bytes(), json_path.read_bytes())
        write_results(spec, run_experiment(spec), tmp_path)
        assert (csv_path.read_bytes(), json_path.read_bytes()) == first

    def test_run_writes_nothing(self, tmp_path, monkeypatch):
        # results reach files only through write_results
        monkeypatch.chdir(tmp_path)
        run_experiment(small_spec(trials=1), jobs=2)
        run_experiment(small_spec(K=3, xi_widths=(2, 2), trials=1))  # failures too
        assert list(tmp_path.iterdir()) == []


class TestWriteResults:
    def test_csv_schema(self, tmp_path):
        spec = small_spec()
        results = run_experiment(spec)
        write_results(spec, results, tmp_path)
        with (tmp_path / "unit.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(results) * spec.model.K
        body = rows[1:]
        assert [int(r[2]) for r in body[: spec.model.K]] == list(range(spec.model.K))
        # float cells round-trip exactly through repr
        assert float(body[0][3]) == results[0].lambda_errors[0]

    def test_json_schema(self, tmp_path):
        spec = small_spec()
        results = run_experiment(spec)
        write_results(spec, results, tmp_path)
        data = json.loads((tmp_path / "unit.json").read_text())
        assert data["name"] == "unit"
        assert data["model"]["K"] == spec.model.K
        assert data["noise_ratios"] == list(spec.noise_ratios)
        assert len(data["results"]) == len(results)
        entry = data["results"][0]
        assert entry["failed"] is False
        assert entry["max_lambda_error"] == pytest.approx(results[0].lambda_errors.max())
        assert len(entry["singular_values"]) == len(results[0].singular_values)

    def test_failed_rows_serialized_with_nan_and_null(self, tmp_path):
        spec = small_spec(K=3, xi_widths=(2, 2), trials=1)
        write_results(spec, run_experiment(spec), tmp_path)
        data = json.loads((tmp_path / "unit.json").read_text())
        entry = data["results"][0]
        assert entry["failed"] is True
        assert entry["max_lambda_error"] is None
        assert "CapacityError" in entry["error"]
        with (tmp_path / "unit.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert all(r[3] == "nan" for r in rows[1:])

    def test_write_results_returns_paths(self, tmp_path):
        spec = small_spec(trials=1, noise_ratios=(0.0,))
        out_dir = tmp_path / "new" / "dir"  # created on demand
        csv_path, json_path = write_results(spec, run_experiment(spec), out_dir)
        assert csv_path == out_dir / "unit.csv"
        assert json_path == out_dir / "unit.json"
        assert sorted(out_dir.iterdir()) == [csv_path, json_path]


class TestSingularValueTable:
    @staticmethod
    def _result(trial, ratio, spectrum, failed=False):
        return TrialResult(
            trial=trial,
            noise_ratio=ratio,
            lambda_errors=np.zeros(2),
            zeta_errors=np.zeros(2),
            coeff_rel_error=0.0,
            singular_values=np.asarray(spectrum, dtype=float),
            pairing_residuals=np.zeros(2),
            failed=failed,
            error="boom" if failed else None,
        )

    def test_entrywise_median_per_ratio(self):
        results = [
            self._result(0, 0.1, [3.0, 1.0, 0.1]),
            self._result(1, 0.1, [5.0, 2.0, 0.3]),
            self._result(2, 0.1, [4.0, 9.0, 0.2]),
            self._result(0, 0.0, [1.0, 1.0, 1.0]),
        ]
        table = singular_value_table(results)
        assert list(table) == [0.0, 0.1]
        np.testing.assert_allclose(table[0.1], [4.0, 2.0, 0.2])
        np.testing.assert_allclose(table[0.0], [1.0, 1.0, 1.0])

    def test_failed_trials_skipped(self):
        results = [
            self._result(0, 0.1, [2.0, 1.0]),
            self._result(1, 0.1, [100.0, 100.0], failed=True),
        ]
        table = singular_value_table(results)
        np.testing.assert_allclose(table[0.1], [2.0, 1.0])

    def test_empty_results(self):
        assert singular_value_table([]) == {}


class TestBundledScenarios:
    def test_names_sorted_and_complete(self):
        assert bundled_scenarios() == (
            "fig1",
            "fig1_small",
            "fig2",
            "fig2_small",
            "fig4",
            "fig4_small",
            "fig6",
        )

    def test_noise_ladder_scenario(self):
        spec = bundled_spec("fig6")
        assert spec.model.K == 40
        assert spec.trials == 20
        assert spec.noise_ratios == NOISE_LADDER
        assert len(NOISE_LADDER) == 6
        assert NOISE_LADDER[0] == 1.0

    def test_all_bundled_specs_resolve(self):
        for name in bundled_scenarios():
            xi, upsilon, omega = resolve_grids(bundled_spec(name))
            assert len(omega) >= len(xi)
            assert len(upsilon) >= 1

    def test_unknown_scenario(self):
        with pytest.raises(DomainError, match="fig1"):
            bundled_spec("nope")


def small_spec_dict():
    """small_spec() as a spec file holds it."""
    return {
        "name": "unit",
        "model": {"layout": "uniform_imag", "K": 3, "d": 2, "seed": 7},
        "grid": {"xi": {"dim": 2, "kind": "box", "widths": [3, 3]},
                 "upsilon": {"dim": 2, "kind": "box", "widths": [3, 3]}},
        "noise_ratios": [0.0, 1e-2],
        "trials": 3,
    }


class TestSpecSerialization:
    def test_round_trip_explicit_columns(self):
        assert spec_from_dict(small_spec_dict()) == small_spec()

    def test_round_trip_erosion_form(self):
        spec = ExperimentSpec(
            name="er",
            model=ModelRecipe(layout="random_complex", K=5, d=2, seed=9, damping_bound=0.1),
            xi={"dim": 2, "kind": "box", "widths": [3, 3]},
            omega={"dim": 2, "kind": "half_disc", "radius": 6},
            noise_ratios=(0.0, 1e-3),
            trials=4,
        )
        data = {
            "name": "er",
            "model": {"layout": "random_complex", "K": 5, "d": 2, "seed": 9, "damping_bound": 0.1},
            "grid": {"xi": {"dim": 2, "kind": "box", "widths": [3, 3]},
                     "omega": {"dim": 2, "kind": "half_disc", "radius": 6}},
            "noise_ratios": [0.0, 1e-3],
            "trials": 4,
        }
        assert spec_from_dict(data) == spec

    def test_defaults_filled_in(self):
        data = {
            "name": "d",
            "model": {"layout": "uniform_imag", "K": 2, "d": 1, "seed": 0},
            "grid": {"xi": {"dim": 1, "kind": "box", "widths": [3]},
                     "upsilon": {"dim": 1, "kind": "box", "widths": [3]}},
        }
        spec = spec_from_dict(data)
        assert spec.noise_ratios == (0.0,)
        assert spec.trials == 20
        assert spec.model.damping_bound == 0.0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("model"),
            lambda d: d.pop("grid"),
            lambda d: d["model"].pop("K"),
            lambda d: d["grid"].pop("xi"),
            lambda d: d.update(model=3),
            lambda d: d["model"].update(K="abc"),
            lambda d: d["model"].update(K=2.7),
            lambda d: d["model"].update(d=None),
            lambda d: d["model"].update(seed=True),
            lambda d: d["model"].update(seed=-1),
            lambda d: d["model"].update(damping_bound="x"),
            lambda d: d.update(trials="two"),
            lambda d: d.update(trials=1.5),
            lambda d: d.update(noise_ratios=[float("nan"), 1e-3]),
            lambda d: d.update(noise_ratios=[float("inf")]),
            lambda d: d.update(noise_ratios=[True]),
            lambda d: d.update(name=5),
            lambda d: d.update(name=""),
            lambda d: d.update(name="."),
            lambda d: d.update(name=".."),
            lambda d: d.update(name="../../escape"),
            lambda d: d.update(name="sub/unit"),
            lambda d: d.update(name="sub\\unit"),
            lambda d: d.update(noise_ratios=[]),
            # unknown keys at each level are refused, not dropped
            lambda d: d.update(trails=1),
            lambda d: d["model"].update(seeds=1),
            lambda d: d["grid"].update(omgea={"kind": "box", "widths": [5, 5]}),
            # grid keys live under grid only, and grid holds nothing else
            lambda d: d.update(xi=d["grid"].pop("xi")),
            lambda d: d.update(upsilon=d["grid"].pop("upsilon")),
            lambda d: d["grid"].update(output="elsewhere"),
            lambda d: d.update(grid=[1]),
            lambda d: d["model"].update(K=0),
            lambda d: d["model"].update(layout="spiral", d=3),
            # where results go is write_results' argument, not a spec field
            lambda d: d.update(output="elsewhere"),
        ],
    )
    def test_malformed_input(self, mutate):
        data = small_spec_dict()
        mutate(data)
        with pytest.raises(DomainError):
            spec_from_dict(data)
