"""Command line interface, run in-process through ``main(argv)``."""

from __future__ import annotations

import json

import numpy as np
import pytest

from gdesprit import harness, linalg_backend, serialize
from gdesprit.cli import main, parse_grid_arg
from gdesprit.domains import erode, make_box, make_shape, minkowski_sum
from gdesprit.errors import DomainError
from gdesprit.harness import match_frequencies
from gdesprit.serialize import grid_from_spec
from gdesprit.signal import eval_model


def run_cli(*argv):
    return main(list(argv))


def usage_error(capsys, *argv) -> str:
    """The message line of an argparse usage error, which exits 2 before any
    command runs (the usage line above it lists every flag)."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.strip().splitlines()[-1]


def synth(tmp_path, *, grid="box:9,9", order=6, seed=3, noise=0.0, name="samples.json"):
    out = tmp_path / name
    code = run_cli(
        "synth", "--grid", grid, "--order", str(order), "--seed", str(seed),
        "--noise", str(noise), "--out", str(out),
    )
    assert code == 0
    return out, out.with_name(out.stem + ".model.json")


class TestParseGridArg:
    def test_box_forms(self):
        assert parse_grid_arg("box:3,4") == {"kind": "box", "widths": [3, 4]}
        assert parse_grid_arg("box:3,4@1,-2") == {
            "kind": "box", "widths": [3, 4], "offset": [1, -2],
        }

    def test_named_shapes(self):
        assert parse_grid_arg("triangle:5") == {"kind": "triangle", "side": 5}
        assert parse_grid_arg("half_disc:4") == {"kind": "half_disc", "radius": 4.0}

    def test_inline_json(self):
        assert parse_grid_arg('{"kind": "box", "widths": [2]}') == {
            "kind": "box", "widths": [2],
        }

    def test_descriptor_file(self, tmp_path):
        path = tmp_path / "grid.json"
        serialize.dump_json({"kind": "box", "widths": [3, 3]}, path)
        assert parse_grid_arg(str(path)) == {"kind": "box", "widths": [3, 3]}

    def test_mask_file_with_point_list(self, tmp_path):
        path = tmp_path / "points.json"
        serialize.dump_json([[0, 0], [1, 0]], path)
        assert parse_grid_arg(f"mask:{path}") == {"kind": "mask", "points": [[0, 0], [1, 0]]}
        assert parse_grid_arg(str(path)) == {"kind": "mask", "points": [[0, 0], [1, 0]]}

    @pytest.mark.parametrize(
        "text",
        ["box", "box:a,b", "triangle:x", "half_disc:", "sphere:3", "{broken"],
    )
    def test_malformed(self, text):
        with pytest.raises(DomainError):
            parse_grid_arg(text)

    @pytest.mark.parametrize(
        "text, spec",
        [
            ("box:3,2@1,-1", {"kind": "box", "widths": [3, 2], "offset": [1, -1]}),
            ("triangle:4", {"kind": "triangle", "side": 4}),
            ("half_disc:3.5", {"kind": "half_disc", "radius": 3.5}),
            ("mask:{points}", {"kind": "mask", "points": [[0, 0], [2, 1], [1, 0]]}),
        ],
    )
    def test_text_inline_json_and_file_build_one_grid(self, tmp_path, text, spec):
        points = tmp_path / "points.json"
        serialize.dump_json(spec.get("points"), points)
        descriptor = tmp_path / "grid.json"
        serialize.dump_json(spec, descriptor)
        forms = (text.format(points=points), json.dumps(spec), str(descriptor))
        grids = [grid_from_spec(parse_grid_arg(form)) for form in forms]
        assert grids[0] == grids[1] == grids[2]
        assert len(grids[0]) > 1


class TestSynth:
    def test_writes_samples_and_ground_truth(self, tmp_path, capsys):
        samples_path, model_path = synth(tmp_path)
        out = capsys.readouterr().out
        assert "81 samples" in out
        data = serialize.load_json(samples_path)
        assert len(data["values"]) == 81
        assert data["grid"] == {"kind": "box", "widths": [9, 9]}
        model = serialize.model_from_dict(serialize.load_json(model_path))
        assert model.order == 6

    def test_samples_match_stored_model(self, tmp_path):
        samples_path, model_path = synth(tmp_path, noise=0.0)
        f = serialize.samples_from_dict(serialize.load_json(samples_path))
        model = serialize.model_from_dict(serialize.load_json(model_path))
        np.testing.assert_allclose(f.values, eval_model(model, f.domain).values, rtol=1e-12)

    def test_noise_ratio_reported(self, tmp_path, capsys):
        synth(tmp_path, noise=1e-2)
        out = capsys.readouterr().out
        assert "achieved noise ratio = 1.0" in out

    def test_explicit_model_file(self, tmp_path):
        model_dict = {
            "dim": 1,
            "terms": [{"zeta": [[0.0, 0.7]], "c": [2.0, 0.0]}],
        }
        model_path = tmp_path / "model.json"
        serialize.dump_json(model_dict, model_path)
        out = tmp_path / "s.json"
        code = run_cli("synth", "--grid", "box:5", "--model", str(model_path), "--out", str(out))
        assert code == 0
        f = serialize.samples_from_dict(serialize.load_json(out))
        np.testing.assert_allclose(f.values, 2.0 * np.exp(0.7j * np.arange(5)), rtol=1e-12)

    def test_fractional_model_dimension_is_an_input_error(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        # read as dimension 2, this model would be valid
        model = {"dim": 2.7, "terms": [{"zeta": [[0, 0.5], [0, 0.2]], "c": [1, 0]}]}
        serialize.dump_json(model, model_path)
        out = tmp_path / "s.json"
        code = run_cli("synth", "--grid", "box:5,5", "--model", str(model_path), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: dimension must be an integer, got 2.7")
        assert not out.exists()

    def test_model_and_order_conflict(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        serialize.dump_json({"dim": 1, "terms": [{"zeta": [[0, 0.5]], "c": [1, 0]}]}, model_path)
        err = usage_error(
            capsys, "synth", "--grid", "box:5", "--model", str(model_path),
            "--order", "2", "--out", str(tmp_path / "s.json"),
        )
        assert "--model" in err and "--order" in err and "not allowed" in err
        assert not (tmp_path / "s.json").exists()

    def test_model_and_layout_conflict(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        serialize.dump_json({"dim": 1, "terms": [{"zeta": [[0, 0.5]], "c": [1, 0]}]}, model_path)
        code = run_cli(
            "synth", "--grid", "box:5", "--model", str(model_path),
            "--layout", "spiral", "--out", str(tmp_path / "s.json"),
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_model_and_damping_bound_conflict(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        serialize.dump_json({"dim": 1, "terms": [{"zeta": [[0, 0.5]], "c": [1, 0]}]}, model_path)
        code = run_cli(
            "synth", "--grid", "box:5", "--model", str(model_path),
            "--damping-bound", "0.5", "--out", str(tmp_path / "s.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--damping-bound" in err and "not both" in err
        assert not (tmp_path / "s.json").exists()

    def test_order_required_without_model(self, tmp_path, capsys):
        err = usage_error(capsys, "synth", "--grid", "box:5", "--out", str(tmp_path / "s.json"))
        assert "--model" in err and "--order" in err and "required" in err
        assert not (tmp_path / "s.json").exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run_cli(
            "synth", "--grid", "box:5,5", "--order", "2", "--seed", "-1", "--out", str(out)
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --seed must be nonnegative")
        assert not out.exists()

    def test_negative_damping_bound_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = run_cli(
            "synth", "--grid", "box:9,9", "--order", "3", "--layout", "random_complex",
            "--damping-bound", "-0.5", "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: damping_bound must be nonnegative")
        assert not out.exists()

    @pytest.mark.parametrize("layout", [None, "uniform_imag", "spiral"])
    def test_damping_bound_on_undamped_layout_is_a_usage_error(self, tmp_path, capsys, layout):
        out = tmp_path / "u.json"
        args = ["synth", "--grid", "box:5,5", "--order", "3", "--damping-bound", "0.5"]
        if layout is not None:
            args += ["--layout", layout]
        code = run_cli(*args, "--seed", "1", "--out", str(out))
        name = layout or "uniform_imag"
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: the {name} layout is undamped")
        assert not out.exists()


class TestEstimate:
    def test_round_trip_recovers_model(self, tmp_path, capsys):
        samples_path, model_path = synth(tmp_path)
        report_path = tmp_path / "report.json"
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--order", "6", "--out", str(report_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "model order K = 6" in out
        assert "singular value gap" in out
        report = serialize.load_json(report_path)
        est = serialize.model_from_dict(report["model"])
        truth = serialize.model_from_dict(serialize.load_json(model_path))
        err = match_frequencies(truth.nodes, est.nodes).lambda_errors.max()
        assert err < 1e-8

    def test_auto_order_with_noise(self, tmp_path):
        samples_path, model_path = synth(tmp_path, noise=1e-6, seed=5)
        report_path = tmp_path / "report.json"
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--auto", "--out", str(report_path),
        )
        assert code == 0
        report = serialize.load_json(report_path)
        assert report["model_order"] == 6
        est = serialize.model_from_dict(report["model"])
        truth = serialize.model_from_dict(serialize.load_json(model_path))
        err = match_frequencies(truth.nodes, est.nodes).lambda_errors.max()
        assert err < 1e-4

    def test_auto_with_explicit_cutoff(self, tmp_path):
        samples_path, _ = synth(tmp_path)
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--auto", "1e-10",
        )
        assert code == 0

    def test_erode_derives_columns_and_warns_about_leftovers(self, tmp_path, capsys):
        samples_path, model_path = synth(tmp_path, grid="half_disc:6", order=4, seed=9)
        report_path = tmp_path / "report.json"
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:3,3", "--erode",
            "--order", "4", "--out", str(report_path),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "samples lie outside the grid sums" in captured.err
        est = serialize.model_from_dict(serialize.load_json(report_path)["model"])
        truth = serialize.model_from_dict(serialize.load_json(model_path))
        assert match_frequencies(truth.nodes, est.nodes).lambda_errors.max() < 1e-8

    def test_erode_counts_samples_outside_the_grid_sums(self, tmp_path, capsys):
        samples_path, _ = synth(tmp_path, grid="half_disc:6", order=4, seed=9)
        capsys.readouterr()
        code = run_cli("estimate", str(samples_path), "--xi", "box:3,3", "--erode", "--order", "4")
        assert code == 0
        omega = make_shape({"kind": "half_disc", "radius": 6})
        xi = make_box((3, 3))
        unused = len(omega) - len(minkowski_sum(xi, erode(omega, xi)))
        assert unused > 0
        assert f"warning: {unused} of {len(omega)} samples lie outside" in capsys.readouterr().err

    def test_upsilon_warns_about_leftovers(self, tmp_path, capsys):
        samples_path, _ = synth(tmp_path)  # 9x9 samples, 5x5 of them at the grid sums
        capsys.readouterr()
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:3,3", "--upsilon", "box:3,3",
            "--order", "2", "--out", str(tmp_path / "report.json"),
        )
        assert code == 0
        assert "warning: 56 of 81 samples lie outside the grid sums" in capsys.readouterr().err
        assert serialize.load_json(tmp_path / "report.json")["unused_samples"] == 56

    def test_defective_pairing_basis_warns(self, tmp_path, capsys, monkeypatch):
        eig = linalg_backend.eig_full
        monkeypatch.setattr(linalg_backend, "eig_full", lambda A: (*eig(A)[:3], 1e13))
        samples_path, _ = synth(tmp_path)
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--order", "6", "--out", str(report_path),
        )
        assert code == 0
        message = "eigenvector matrix condition 1.000e+13 exceeds 1e+12; input is numerically defective"
        assert f"warning: {message}" in capsys.readouterr().err
        assert serialize.load_json(report_path)["warnings"] == [message]

    def test_non_finite_sample_file_is_an_input_error(self, tmp_path, capsys):
        samples_path, _ = synth(tmp_path)
        data = serialize.load_json(samples_path)
        data["values"][4] = [float("nan"), 0.0]
        serialize.dump_json(data, samples_path)
        capsys.readouterr()
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--order", "6",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "1 of 81 sample values are not finite" in err

    @pytest.mark.parametrize("far", [10**6, 2**40])
    def test_far_sample_point(self, tmp_path, capsys, far):
        # a 5x5 box plus one distant sample: no lookup may allocate by the
        # volume of the bounding box (terabytes here)
        mask = tmp_path / "pts.json"
        serialize.dump_json([[i, j] for j in range(5) for i in range(5)] + [[far, far]], mask)
        samples_path, model_path = synth(tmp_path, grid=f"mask:{mask}", order=2, seed=1)
        report_path = tmp_path / "report.json"
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:3,3", "--upsilon", "box:3,3",
            "--order", "2", "--out", str(report_path),
        )
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        est = serialize.model_from_dict(serialize.load_json(report_path)["model"])
        truth = serialize.model_from_dict(serialize.load_json(model_path))
        assert match_frequencies(truth.nodes, est.nodes).lambda_errors.max() < 1e-8

    @pytest.mark.parametrize(
        "extra, flags",
        [
            (("--upsilon", "box:3,3", "--erode", "--order", "4"), ("--upsilon", "--erode")),
            (("--order", "4"), ("--upsilon", "--erode")),  # no column form
            (("--upsilon", "box:5,5"), ("--order", "--auto")),  # neither order nor auto
            (("--upsilon", "box:5,5", "--order", "3", "--auto"), ("--order", "--auto")),
        ],
        ids=[f"extra{i}" for i in range(4)],
    )
    def test_usage_conflicts(self, tmp_path, capsys, extra, flags):
        samples_path, _ = synth(tmp_path)
        err = usage_error(capsys, "estimate", str(samples_path), "--xi", "box:5,5", *extra)
        assert all(flag in err for flag in flags)

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # the pairing draw is EspritOptions' fixed default; no flag picks another
        samples_path, _ = synth(tmp_path)
        err = usage_error(
            capsys, "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--order", "6", "--seed", "1",
        )
        assert err.endswith("unrecognized arguments: --seed 1")

    def test_capacity_violation_exit_code(self, tmp_path, capsys):
        samples_path, _ = synth(tmp_path, order=6)
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:3,3", "--upsilon", "box:7,7",
            "--order", "7",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "capacity" in err
        assert "N^(d-1)*(N-1)" in err

    def test_coverage_gap_exit_code(self, tmp_path, capsys):
        samples_path, _ = synth(tmp_path, grid="box:8,8")
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--order", "6",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_sample_value(self, tmp_path, capsys):
        samples_path, _ = synth(tmp_path)
        data = serialize.load_json(samples_path)
        data["values"][0] = ["abc", 1]
        serialize.dump_json(data, samples_path)
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--order", "6",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_sample_value_beyond_the_float_range(self, tmp_path, capsys):
        samples_path, _ = synth(tmp_path)
        data = serialize.load_json(samples_path)
        data["values"][0] = [10**400, 0]
        serialize.dump_json(data, samples_path)
        capsys.readouterr()
        code = run_cli(
            "estimate", str(samples_path), "--xi", "box:5,5", "--upsilon", "box:5,5",
            "--order", "6",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expected a [real, imag] pair of numbers")
        assert "Traceback" not in err

    def test_missing_sample_file(self, tmp_path, capsys):
        code = run_cli(
            "estimate", str(tmp_path / "absent.json"), "--xi", "box:3,3",
            "--upsilon", "box:3,3", "--order", "2",
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_undecodable_sample_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")  # not UTF-8
        code = run_cli("estimate", str(bad), "--xi", "box:3,3", "--erode", "--order", "2")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}")


class TestExperiment:
    @staticmethod
    def _spec_file(tmp_path, mutate=lambda data: None):
        data = {
            "name": "cli_exp",
            "model": {"layout": "uniform_imag", "K": 3, "d": 2, "seed": 21},
            "grid": {"xi": {"kind": "box", "widths": [3, 3]},
                     "upsilon": {"kind": "box", "widths": [3, 3]}},
            "noise_ratios": [0.0, 1e-3],
            "trials": 3,
        }
        mutate(data)
        path = tmp_path / "spec.json"
        serialize.dump_json(data, path)
        return path

    def test_spec_file_run(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path)
        out_dir = tmp_path / "results"
        code = run_cli("experiment", str(spec_path), "--out", str(out_dir))
        assert code == 0
        out = capsys.readouterr().out
        assert "cli_exp: 6 runs, 0 failed" in out
        assert out.endswith(f"results written to {out_dir / 'cli_exp.csv'}\n")
        assert (out_dir / "cli_exp.csv").exists()
        assert (out_dir / "cli_exp.json").exists()

    def test_default_out_is_the_working_directory(self, tmp_path, capsys, monkeypatch):
        spec_path = self._spec_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run_cli("experiment", str(spec_path)) == 0
        assert capsys.readouterr().out.endswith("results written to cli_exp.csv\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cli_exp.csv", "cli_exp.json", "spec.json"]

    def test_summary_per_noise_ratio(self, tmp_path, capsys):
        run_cli("experiment", str(self._spec_file(tmp_path)), "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert "  noise-free: median max node error " in out
        assert "  ratio 1.000e-03: median max node error " in out
        assert "  rank jump sigma_3/sigma_4 of the median spectrum:" in out
        assert "    ratio 0.000e+00: " in out
        assert "    ratio 1.000e-03: " in out
        assert "  wall time = " in out

    def test_single_ratio_prints_no_rank_jump(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, lambda d: d.update(noise_ratios=[0.0]))
        run_cli("experiment", str(spec_path), "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert "  noise-free: median max node error " in out
        assert "rank jump" not in out

    def test_failure_reasons_listed(self, tmp_path, capsys):
        # K=8 exceeds the capacity 6 of a 3x3 row grid, so every cell fails alike
        spec_path = self._spec_file(tmp_path, lambda d: d["model"].update(K=8))
        assert run_cli("experiment", str(spec_path), "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "cli_exp: 6 runs, 6 failed" in out
        assert out.count("  failure: CapacityError: model order 8 exceeds the capacity 6") == 1
        assert "median max node error" not in out

    def test_repeated_scenarios(self, tmp_path, capsys):
        code = run_cli(
            "experiment", "--scenario", "fig1_small", "--scenario", "fig2_small",
            "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig1_small: 20 runs, 0 failed" in out
        assert "fig2_small: 10 runs, 0 failed" in out
        for name in ("fig1_small", "fig2_small"):
            assert (tmp_path / f"{name}.csv").exists()
            assert (tmp_path / f"{name}.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        spec_path = self._spec_file(tmp_path)
        out_dir = tmp_path / "results"
        run_cli("experiment", str(spec_path), "--out", str(out_dir))
        first = (out_dir / "cli_exp.csv").read_bytes()
        run_cli("experiment", str(spec_path), "--out", str(out_dir))
        assert (out_dir / "cli_exp.csv").read_bytes() == first

    def test_parallel_jobs_same_files(self, tmp_path):
        spec_path = self._spec_file(tmp_path)
        a = tmp_path / "serial"
        b = tmp_path / "parallel"
        run_cli("experiment", str(spec_path), "--out", str(a))
        run_cli("experiment", str(spec_path), "--out", str(b), "--jobs", "2")
        assert (a / "cli_exp.csv").read_bytes() == (b / "cli_exp.csv").read_bytes()
        assert (a / "cli_exp.json").read_bytes() == (b / "cli_exp.json").read_bytes()

    def test_spec_and_scenario_conflict(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path)
        err = usage_error(
            capsys, "experiment", str(spec_path), "--scenario", "fig1_small", "--out", str(tmp_path)
        )
        assert "spec" in err and "--scenario" in err and "not allowed" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_neither_spec_nor_scenario(self, capsys):
        err = usage_error(capsys, "experiment")
        assert "spec" in err and "--scenario" in err and "required" in err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["model"].update(K="abc"),
            lambda d: d.update(trials="two"),
            lambda d: d.update(trails=1),  # a misspelled key is refused, not ignored
            lambda d: d.update(output="elsewhere"),  # only --out says where results go
        ],
        ids=["K", "trials", "trails", "output"],
    )
    def test_malformed_spec_is_an_input_error(self, tmp_path, capsys, mutate):
        code = run_cli("experiment", str(self._spec_file(tmp_path, mutate)), "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_non_finite_noise_ratio_is_an_input_error(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, lambda d: d.update(noise_ratios=[float("nan"), 1e-3]))
        out_dir = tmp_path / "results"
        code = run_cli("experiment", str(spec_path), "--out", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: a noise ratio must be a finite number")
        assert not (out_dir / "cli_exp.csv").exists()

    def test_empty_noise_ladder_is_an_input_error(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, lambda d: d.update(noise_ratios=[]))
        out_dir = tmp_path / "results"
        code = run_cli("experiment", str(spec_path), "--out", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: the noise ladder needs at least one ratio")
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_an_input_error(self, tmp_path, capsys, jobs):
        out_dir = tmp_path / "results"
        code = run_cli("experiment", "--scenario", "fig1_small", "--out", str(out_dir), "--jobs", jobs)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: jobs must be at least 1, got {jobs}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, passed", [((), {}), (("--jobs", "2"), {"jobs": 2})])
    def test_jobs_passed_on_only_when_given(self, tmp_path, monkeypatch, flags, passed):
        calls = []

        def record(spec, **kwargs):
            calls.append(kwargs)
            return []

        monkeypatch.setattr(harness, "run_experiment", record)
        assert run_cli("experiment", "--scenario", "fig1_small", "--out", str(tmp_path), *flags) == 0
        assert calls == [passed]

    def test_name_cannot_leave_the_output_directory(self, tmp_path, capsys):
        base = tmp_path / "a" / "b"
        base.mkdir(parents=True)
        spec_path = self._spec_file(base, lambda d: d.update(name="../../escape"))
        code = run_cli("experiment", str(spec_path), "--out", str(base / "r4"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: experiment name must be")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "spec.json"]

    def test_unknown_scenario_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--scenario", "nope")
        assert exc.value.code == 2


class TestDomainInfo:
    def test_single_box_capacity(self, capsys):
        assert run_cli("domain-info", "box:31,31") == 0
        out = capsys.readouterr().out
        assert "points = 961" in out
        assert "convex fibers = yes" in out
        assert "capacity = 930" in out

    def test_two_grids_report_their_sum(self, capsys):
        assert run_cli("domain-info", "box:5,5", "box:5,5") == 0
        out = capsys.readouterr().out
        assert "xi + upsilon: points = 81" in out

    def test_degenerate_grid(self, capsys):
        assert run_cli("domain-info", "triangle:4") == 0
        out = capsys.readouterr().out
        assert "convex fibers = no" in out
        assert "capacity = n/a" in out
        assert "singleton fiber" in out

    def test_gapped_fiber_named(self, tmp_path, capsys):
        mask = tmp_path / "gap.json"
        serialize.dump_json([[0, 0], [2, 0], [0, 1], [1, 1], [2, 1]], mask)
        assert run_cli("domain-info", f"mask:{mask}") == 0
        out = capsys.readouterr().out
        assert "convex fibers = no" in out
        assert "gapped (coordinates [0, 2]) fiber (0,) along dimension 1" in out
        assert "singleton fiber (1,) along dimension 2" in out
        assert "capacity = n/a" in out

    def test_boolean_mask_is_an_input_error(self, tmp_path, capsys):
        mask = tmp_path / "m.json"
        serialize.dump_json([[True, False], [False, True], [True, True], [False, False]], mask)
        out = tmp_path / "samples.json"
        assert run_cli("synth", "--grid", f"mask:{mask}", "--order", "1", "--out", str(out)) == 2
        assert not out.exists()
        assert run_cli("domain-info", f"mask:{mask}") == 2
        assert capsys.readouterr().err.count("error:") == 2

    def test_undecodable_grid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")  # not UTF-8
        assert run_cli("domain-info", str(bad)) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}")

    def test_too_many_grids(self, capsys):
        code = run_cli("domain-info", "box:2", "box:2", "box:2")
        assert code == 2
        err = capsys.readouterr().err
        assert "at most two" in err
        assert err.startswith("error:")

    def test_invalid_grid_spec(self, capsys):
        code = run_cli("domain-info", "box:zz")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [
            "half_disc:inf",
            "half_disc:nan",
            '{"kind": "half_disc", "radius": "3"}',
            '{"kind": "box", "widths": ["a"]}',
            '{"kind": "box", "widths": 3}',
            '{"kind": "box", "widths": [3, 3], "dim": "x"}',
            '{"kind": "box", "widths": [2.5, 3]}',
            # more points than an array can hold, refused before any is built
            "half_disc:1e300",
            "box:3000000000,3000000000",
        ],
    )
    def test_malformed_descriptor_is_an_input_error(self, capsys, grid):
        code = run_cli("domain-info", grid)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestParserBasics:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_help_lists_grid_grammar(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert "grid grammar" in capsys.readouterr().out
