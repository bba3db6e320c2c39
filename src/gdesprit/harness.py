"""Reproducible estimation experiments over seeds and noise levels.

An :class:`ExperimentSpec` fixes a random-model recipe, a grid layout and a
noise ladder; :func:`run_experiment` turns it into per-trial matched error
records, and only :func:`write_results` writes them (a CSV table and a JSON
summary).  Everything is derived from the spec's seed, so rerunning an
identical spec reproduces the result files byte for byte.  Estimation
failures inside a trial (the library's typed errors and ``LinAlgError``) are
recorded in the results instead of aborting the run; any other exception is
a programming error and propagates.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .domains import IndexSet, _number, erode, minkowski_sum
from .errors import INPUT_ERRORS, RUNTIME_ERRORS, DomainError
from .esprit import EspritOptions, esprit_nd
from .serialize import dump_json, grid_from_spec
from .signal import _recipe, add_noise, eval_model, random_model

NOISE_LADDER = (10.0 ** 0, 10.0 ** -0.5, 10.0 ** -1, 10.0 ** -2, 10.0 ** -3, 10.0 ** -4)

CSV_COLUMNS = ("trial", "noise_ratio", "k", "lambda_err", "zeta_err", "coeff_err")


@dataclass(frozen=True)
class ModelRecipe:
    """How the per-trial random models are drawn."""

    layout: str
    K: int
    d: int
    seed: int
    damping_bound: float = 0.0  # recipes may omit it; asdict writes it into every result JSON

    def __post_init__(self):
        # random_model's rule, so a bad recipe fails here and not at trial 0
        checked = _recipe(self.K, self.d, self.layout, self.damping_bound)
        seed = _number(self.seed, "seed", integral=True, minimum=0)  # as numpy seeds must be
        for name, value in zip(("K", "d", "damping_bound", "seed"), (*checked, seed)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, fully deterministic estimation experiment.

    The grid is given either as row and column grids (``xi`` and
    ``upsilon``) or as the sampling domain plus the row grid (``omega`` and
    ``xi``), in which case the column grid is computed by erosion.  Grid
    fields hold JSON-style grid descriptors, not index sets, so specs can be
    round-tripped through files.
    """

    name: str
    model: ModelRecipe
    xi: dict
    upsilon: dict | None = None
    omega: dict | None = None
    noise_ratios: tuple[float, ...] = (0.0,)
    trials: int = 20

    def __post_init__(self):
        # the name becomes a file name in write_results' directory
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or {"/", "\\"} & set(self.name):
            raise DomainError(f"experiment name must be a plain file name, got {self.name!r}")
        if (self.upsilon is None) == (self.omega is None):
            raise DomainError("give exactly one of upsilon (column grid) or omega (sampling domain)")
        object.__setattr__(self, "trials", _number(self.trials, "trials", integral=True, minimum=1))
        ratios = tuple(_number(r, "a noise ratio", minimum=0) for r in self.noise_ratios)
        if not ratios:
            raise DomainError("the noise ladder needs at least one ratio")
        object.__setattr__(self, "noise_ratios", ratios)


@dataclass(frozen=True)
class TrialResult:
    """Matched errors and diagnostics of one (trial, noise ratio) cell."""

    trial: int
    noise_ratio: float
    lambda_errors: np.ndarray
    zeta_errors: np.ndarray
    coeff_rel_error: float
    singular_values: np.ndarray
    pairing_residuals: np.ndarray
    failed: bool = False
    error: str | None = None


@dataclass(frozen=True)
class FrequencyMatch:
    """Optimal assignment of estimated terms to reference terms."""

    assignment: np.ndarray  # est index matched to reference index k
    lambda_errors: np.ndarray
    zeta_errors: np.ndarray


def match_frequencies(true_nodes: np.ndarray, est_nodes: np.ndarray) -> FrequencyMatch:
    """Match estimated node vectors to reference ones, minimizing total error.

    The matching cost between two node vectors is the maximum over
    dimensions of the node difference modulus; the assignment minimizes the
    total cost.  Per-pair errors are reported both in node space and as
    frequency differences with wrapped imaginary parts.
    """
    t = np.asarray(true_nodes, dtype=np.complex128)
    e = np.asarray(est_nodes, dtype=np.complex128)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    if e.ndim == 1:
        e = e.reshape(-1, 1)
    if t.shape != e.shape:
        raise DomainError(f"node sets differ in shape: {t.shape} vs {e.shape}")
    cost = np.abs(t[:, None, :] - e[None, :, :]).max(axis=2)
    rows, cols = linear_sum_assignment(cost)
    assignment = np.empty(t.shape[0], dtype=np.int64)
    assignment[rows] = cols
    lambda_errors = cost[np.arange(t.shape[0]), assignment]
    dz = np.log(t) - np.log(e[assignment])
    wrapped = (dz.imag + np.pi) % (2 * np.pi) - np.pi
    zeta_errors = np.abs(dz.real + 1j * wrapped).max(axis=1)
    return FrequencyMatch(
        assignment=assignment, lambda_errors=lambda_errors, zeta_errors=zeta_errors
    )


def resolve_grids(spec: ExperimentSpec) -> tuple[IndexSet, IndexSet, IndexSet]:
    """Row grid, column grid and sampling domain of a spec."""
    xi = grid_from_spec(spec.xi)
    if spec.upsilon is not None:
        upsilon = grid_from_spec(spec.upsilon)
        omega = minkowski_sum(xi, upsilon)
    else:
        omega = grid_from_spec(spec.omega)
        upsilon = erode(omega, xi)
    return xi, upsilon, omega


def _combo_seed(seed: int, trial: int, ratio_index: int) -> int:
    return int(np.random.SeedSequence((seed, trial, ratio_index)).generate_state(1)[0])


def _run_trial(spec: ExperimentSpec, xi: IndexSet, upsilon: IndexSet, omega: IndexSet, trial: int) -> list[TrialResult]:
    recipe = spec.model
    model_rng = np.random.default_rng((recipe.seed, trial))
    model = random_model(
        recipe.K, recipe.d, model_rng, layout=recipe.layout, damping_bound=recipe.damping_bound
    )
    clean = eval_model(model, omega)
    out = []
    for ratio_index, ratio in enumerate(spec.noise_ratios):
        noise_rng = np.random.default_rng((recipe.seed, trial, ratio_index))
        try:
            noisy = add_noise(clean, ratio, noise_rng)
            options = EspritOptions(
                model_order=recipe.K,
                combo_seed=_combo_seed(recipe.seed, trial, ratio_index),
            )
            report = esprit_nd(noisy, xi, upsilon, options)
            matched = match_frequencies(model.nodes, report.model.nodes)
            est_coeffs = report.model.coeffs[matched.assignment]
            coeff_rel = float(
                np.linalg.norm(model.coeffs - est_coeffs) / np.linalg.norm(model.coeffs)
            )
            out.append(
                TrialResult(
                    trial=trial,
                    noise_ratio=ratio,
                    lambda_errors=matched.lambda_errors,
                    zeta_errors=matched.zeta_errors,
                    coeff_rel_error=coeff_rel,
                    singular_values=np.asarray(report.singular_values),
                    pairing_residuals=np.asarray(report.pairing_residuals),
                )
            )
        except INPUT_ERRORS + RUNTIME_ERRORS as exc:  # failures are data, not crashes
            out.append(
                TrialResult(
                    trial=trial,
                    noise_ratio=ratio,
                    lambda_errors=np.full(recipe.K, np.nan),
                    zeta_errors=np.full(recipe.K, np.nan),
                    coeff_rel_error=float("nan"),
                    singular_values=np.empty(0),
                    pairing_residuals=np.empty(0),
                    failed=True,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return out


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[TrialResult]:
    """Run every (trial, noise ratio) cell of a spec deterministically.

    Results come back ordered by trial, then by the spec's noise-ratio
    order; nothing is written (see :func:`write_results`).
    """
    jobs = _number(jobs, "jobs", integral=True, minimum=1)
    xi, upsilon, omega = resolve_grids(spec)
    trials = range(spec.trials)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fixed = (repeat(spec), repeat(xi), repeat(upsilon), repeat(omega))
            chunks = list(pool.map(_run_trial, *fixed, trials))
    else:
        chunks = [_run_trial(spec, xi, upsilon, omega, t) for t in trials]
    return [r for chunk in chunks for r in chunk]


def write_results(spec: ExperimentSpec, results: list[TrialResult], out_dir) -> tuple[Path, Path]:
    """Write a run as ``<out_dir>/<name>.csv`` and ``.json``; reruns give identical bytes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{spec.name}.csv"
    json_path = out_dir / f"{spec.name}.json"

    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            for k in range(spec.model.K):
                lam, zet = float(r.lambda_errors[k]), float(r.zeta_errors[k])
                writer.writerow(
                    (r.trial, repr(r.noise_ratio), k, repr(lam), repr(zet), repr(r.coeff_rel_error))
                )

    summary = {
        "name": spec.name,
        "model": asdict(spec.model),
        "noise_ratios": list(spec.noise_ratios),
        "trials": spec.trials,
        "results": [
            {
                "trial": r.trial,
                "noise_ratio": r.noise_ratio,
                "failed": r.failed,
                "error": r.error,
                "max_lambda_error": None if r.failed else float(np.max(r.lambda_errors)),
                "max_zeta_error": None if r.failed else float(np.max(r.zeta_errors)),
                "coeff_rel_error": None if r.failed else r.coeff_rel_error,
                "pairing_residuals": [float(x) for x in r.pairing_residuals],
                "singular_values": [float(x) for x in r.singular_values],
            }
            for r in results
        ],
    }
    dump_json(summary, json_path)
    return csv_path, json_path


def singular_value_table(results: list[TrialResult]) -> dict[float, np.ndarray]:
    """Per-noise-ratio singular spectrum of a run: entrywise median over trials.

    Failed trials are skipped.  The table is the multi-trial analogue of a
    single run's spectrum; the rank jump of a ratio's column is read off as
    ``col[K-1] / col[K]``.
    """
    by_ratio: dict[float, list[np.ndarray]] = {}
    for r in results:
        if not r.failed and len(r.singular_values):
            by_ratio.setdefault(r.noise_ratio, []).append(np.asarray(r.singular_values))
    return {
        ratio: np.median(np.vstack(spectra), axis=0)
        for ratio, spectra in sorted(by_ratio.items())
    }


def _box_spec(widths) -> dict:
    return {"dim": len(widths), "kind": "box", "widths": list(widths)}


_SCENARIOS: dict[str, dict] = {
    # Dense spiral on a square grid, recovered to machine precision.
    "fig1": dict(
        model=ModelRecipe(layout="spiral", K=300, d=2, seed=101),
        xi=_box_spec((31, 31)),
        upsilon=_box_spec((31, 31)),
        trials=1,
    ),
    "fig1_small": dict(
        model=ModelRecipe(layout="spiral", K=30, d=2, seed=102),
        xi=_box_spec((9, 9)),
        upsilon=_box_spec((9, 9)),
        trials=20,
    ),
    # General sampling domain: half-disc, column grid by erosion.
    "fig2": dict(
        model=ModelRecipe(layout="uniform_imag", K=100, d=2, seed=103),
        xi=_box_spec((11, 11)),
        omega={"dim": 2, "kind": "half_disc", "radius": 24},
        trials=1,
    ),
    "fig2_small": dict(
        model=ModelRecipe(layout="uniform_imag", K=40, d=2, seed=104),
        xi=_box_spec((7, 7)),
        omega={"dim": 2, "kind": "half_disc", "radius": 12},
        trials=10,
    ),
    # Three-dimensional cube.
    "fig4": dict(
        model=ModelRecipe(layout="uniform_imag", K=900, d=3, seed=105),
        xi=_box_spec((11, 11, 11)),
        upsilon=_box_spec((11, 11, 11)),
        trials=1,
    ),
    "fig4_small": dict(
        model=ModelRecipe(layout="uniform_imag", K=50, d=3, seed=106),
        xi=_box_spec((5, 5, 5)),
        upsilon=_box_spec((5, 5, 5)),
        trials=10,
    ),
    # Noise ladder on a square grid.
    "fig6": dict(
        model=ModelRecipe(layout="uniform_imag", K=40, d=2, seed=107),
        xi=_box_spec((21, 21)),
        upsilon=_box_spec((21, 21)),
        noise_ratios=NOISE_LADDER,
        trials=20,
    ),
}


def bundled_scenarios() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIOS))


def bundled_spec(name: str) -> ExperimentSpec:
    """One of the packaged demonstration scenarios by name."""
    try:
        kwargs = dict(_SCENARIOS[name])
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; available: {', '.join(bundled_scenarios())}"
        ) from None
    return ExperimentSpec(name=name, **kwargs)


def _grid_fields(xi, upsilon=None, omega=None) -> dict:
    """The grid fields of an :class:`ExperimentSpec` from a spec file's
    ``grid``, which may hold these keys only."""
    return {"xi": xi, "upsilon": upsilon, "omega": omega}


def spec_from_dict(data: dict) -> ExperimentSpec:
    """An experiment spec from its JSON form: the fields of :class:`ExperimentSpec`,
    the grid ones under ``grid`` and those of :class:`ModelRecipe` under
    ``model``.  Defaults are the dataclasses'; a missing or unknown key, a
    grid key outside ``grid`` or another key inside it, or a value they
    refuse, is a :class:`DomainError`."""
    try:
        fields = {**data, "model": ModelRecipe(**data["model"])}
        # every grid field is passed, so one given beside ``grid`` is a TypeError
        return ExperimentSpec(**_grid_fields(**fields.pop("grid")), **fields)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed experiment spec: {exc!r}") from exc
