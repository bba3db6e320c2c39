"""The three workloads: set-up, one operation, and the checks of its output.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times), runs one operation per call of ``op`` (the part
that is timed) and checks the output of each operation in ``check``, which
runs outside the timed region.  ``check`` returns True when the operation
failed with one of the library's typed errors; a wrong result raises
:class:`checks.CheckFailed`, and an error of any other type raises
:class:`ProgrammingError`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import gdesprit.cli
import gdesprit.errors
import gdesprit.esprit
import gdesprit.harness
import gdesprit.signal
from gdesprit.domains import erode, make_box, make_shape, minkowski_sum
from gdesprit.harness import NOISE_LADDER, ExperimentSpec, ModelRecipe

from checks import (
    brute_erode,
    brute_minkowski,
    check_ladder,
    fit_residual,
    half_disc_points,
    ladder_medians,
    match_nodes,
    require,
    terms_from_json,
)

LIBRARY_ERRORS = tuple(
    cls
    for cls in vars(gdesprit.errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
) + (np.linalg.LinAlgError,)
LIBRARY_ERROR_NAMES = frozenset(cls.__name__ for cls in LIBRARY_ERRORS)


class ProgrammingError(Exception):
    """An error of a type the library does not raise on purpose."""


class NoiseLadder:
    """The fig6 noise experiment through ``harness.run_experiment(jobs=1)``.

    21x21 row and column boxes, K=40, all six ratios of ``NOISE_LADDER``,
    five trials; the model seed is the benchmark seed.
    """

    name = "noise_ladder"
    K = 40
    TRIALS = 5
    # Ratios at which the rank-40 subspace stands clear of the noise, and the
    # ones among them where the median rank gap of five trials cleared 10 on
    # all 95 model seeds tried (lowest 21.8 at 1e-3).  At 1e-2 it does not
    # (9.7 on seed 19, 2.3 on seed 437, with a correct program), so there
    # only its tenfold shrink per decade is checked.
    RESOLVED = (1e-4, 1e-3, 1e-2)
    GAP_FLOOR = (1e-4, 1e-3)

    def __init__(self, seed: int, workdir: Path):
        box = {"dim": 2, "kind": "box", "widths": [21, 21]}
        self.spec = ExperimentSpec(
            name=self.name,
            model=ModelRecipe(layout="uniform_imag", K=self.K, d=2, seed=seed),
            xi=box,
            upsilon=box,
            noise_ratios=NOISE_LADDER,
            trials=self.TRIALS,
        )

    def check_setup(self) -> None:
        pass

    def op(self):
        return gdesprit.harness.run_experiment(self.spec, jobs=1)

    def estimates(self, results) -> int:
        return sum(1 for r in results if not r.failed)

    def check(self, results) -> bool:
        require(
            len(results) == self.TRIALS * len(NOISE_LADDER),
            f"{len(results)} cells for {self.TRIALS} trials x {len(NOISE_LADDER)} ratios",
        )
        for r in results:
            if not r.failed:
                continue
            if r.error.partition(":")[0] not in LIBRARY_ERROR_NAMES:
                raise ProgrammingError(f"trial {r.trial} at ratio {r.noise_ratio:.2g} swallowed {r.error}")
            # The harness records library errors as data.  Above the resolved
            # ratios the nodes are lost anyway, and a cell can fail there on
            # some seeds (seed 438, trial 3, ratio 1: ModelOrderError); below,
            # the method must succeed.
            require(
                r.noise_ratio > max(self.RESOLVED),
                f"trial {r.trial} failed at noise ratio {r.noise_ratio:.0e}: {r.error}",
            )
        medians = ladder_medians(
            ((r.noise_ratio, r.lambda_errors, r.singular_values) for r in results if not r.failed), self.K
        )
        check_ladder(medians, self.RESOLVED, self.GAP_FLOOR)
        return False


class HalfDiscCli:
    """``gdesprit estimate`` on a noise-free 100-term half-disc of radius 24.

    The sample file and its ground-truth sidecar are written once in set-up
    by ``gdesprit synth`` with the benchmark seed; each operation runs
    ``estimate --xi box:11,11 --erode --order 100 --out <report>`` through
    ``gdesprit.cli.main``.
    """

    name = "halfdisc_cli"
    K = 100
    RADIUS = 24
    XI_WIDTHS = (11, 11)

    def __init__(self, seed: int, workdir: Path):
        self.samples = workdir / "samples.json"
        self.report = workdir / "report.json"
        code = gdesprit.cli.main(
            ["synth", "--grid", f"half_disc:{self.RADIUS}", "--order", str(self.K),
             "--seed", str(seed), "--out", str(self.samples)]
        )
        require(code == 0, f"synth exited with {code}")
        self.argv = [
            "estimate", str(self.samples), "--xi", "box:" + ",".join(map(str, self.XI_WIDTHS)),
            "--erode", "--order", str(self.K), "--out", str(self.report),
        ]

    def check_setup(self) -> None:
        """The program's erosion and coverage sum equal brute-force set computations."""
        omega_points = half_disc_points(self.RADIUS)
        omega = make_shape({"kind": "half_disc", "radius": self.RADIUS})
        xi = make_box(self.XI_WIDTHS)
        require(list(omega.points) == omega_points, "half-disc points differ from i^2+j^2<=R^2, j>=0")
        upsilon = erode(omega, xi)
        require(list(upsilon.points) == brute_erode(omega_points, xi.points), "erode differs from brute force")
        covered = minkowski_sum(xi, upsilon)
        require(
            list(covered.points) == brute_minkowski(xi.points, upsilon.points),
            "minkowski_sum differs from brute force",
        )
        with open(self.samples) as fh:
            data = json.load(fh)
        require(data["grid"] == {"kind": "half_disc", "radius": self.RADIUS}, f"sample grid {data['grid']}")
        require(len(data["values"]) == len(omega_points), f"{len(data['values'])} sample values")
        self.points = omega_points
        self.values = np.array([complex(*v) for v in data["values"]])
        with open(self.samples.with_name(self.samples.stem + ".model.json")) as fh:
            self.true_zetas, _ = terms_from_json(json.load(fh)["terms"])

    def op(self):
        return gdesprit.cli.main(self.argv)

    def estimates(self, code) -> int:
        return int(code == 0)

    def check(self, code) -> bool:
        if code != 0:
            return True
        with open(self.report) as fh:
            report = json.load(fh)
        require(report["model_order"] == self.K, f"order {report['model_order']} != {self.K}")
        zetas, coeffs = terms_from_json(report["model"]["terms"])
        require(len(coeffs) == self.K, f"{len(coeffs)} terms in the report")
        _, err = match_nodes(np.exp(self.true_zetas), np.exp(zetas))
        require(err <= 1e-8, f"max node error {err:.3g} > 1e-8")
        residual = fit_residual(self.points, self.values, zetas, coeffs)
        require(residual <= 1e-10, f"fit residual {residual:.3g} > 1e-10")
        return False


class Cube3d:
    """``esprit_nd`` and ``esprit_block`` on the same noise-free 3-d cube.

    8x8x8 row and column boxes (15^3 samples) and K=350 random oscillatory
    terms drawn from the benchmark seed; one operation runs both routes.
    """

    name = "cube3d"
    K = 350
    N = 8

    def __init__(self, seed: int, workdir: Path):
        self.xi = make_box((self.N,) * 3)
        omega = minkowski_sum(self.xi, self.xi)
        self.model = gdesprit.signal.random_model(self.K, 3, np.random.default_rng((seed, 3)))
        self.f = gdesprit.signal.eval_model(self.model, omega)
        self.tensor = self.f.values.reshape((2 * self.N - 1,) * 3, order="F")
        self.options = gdesprit.esprit.EspritOptions(model_order=self.K, combo_seed=seed)

    def check_setup(self) -> None:
        pass

    def op(self):
        nd = gdesprit.esprit.esprit_nd(self.f, self.xi, self.xi, self.options)
        block = gdesprit.esprit.esprit_block(self.tensor, self.options)
        return nd, block

    def estimates(self, reports) -> int:
        return 2

    def check(self, reports) -> bool:
        nd, block = reports
        for label, report in (("esprit_nd", nd), ("esprit_block", block)):
            _, err = match_nodes(self.model.nodes, np.exp(report.model.zetas))
            require(err <= 1e-6, f"{label}: max node error {err:.3g} > 1e-6")
            s = np.asarray(report.singular_values)
            require(s[self.K] / s[0] <= 1e-10, f"{label}: sigma_K+1/sigma_1 = {s[self.K] / s[0]:.3g} > 1e-10")
        _, agree = match_nodes(np.exp(nd.model.zetas), np.exp(block.model.zetas))
        require(agree <= 1e-10, f"the routes differ by {agree:.3g} > 1e-10")
        return False


WORKLOADS = {w.name: w for w in (NoiseLadder, HalfDiscCli, Cube3d)}
