"""JSON interchange for grids, models, samples and reports.

Complex numbers travel as [real, imag] pairs.  A component must be a Python
or numpy int or float within the float range, not a bool or a string, as for
``domains._number`` (which checks a model's ``dim``); NaN and inf pass, for
the sequence or model to refuse.  Sample values are stored in the canonical
point order of their grid, so a file round-trip reproduces the same alignment.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# make_box is not called here; perfbench/tracing.py patches it on this module.
from .domains import IndexSet, _is_real, make_box, make_shape
from .errors import DomainError
from .esprit import EstimationReport
from .signal import ExponentialModel, MdSequence


grid_from_spec = make_shape  # the one grid builder, under its serialization name


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _from_pair(raw) -> complex:
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        re, im = raw
        # plain floats first: a sample file holds one pair per point
        if type(re) is float and type(im) is float or _is_real(re) and _is_real(im):
            return complex(re, im)
    raise DomainError(f"expected a [real, imag] pair of numbers, got {raw!r}")


def grid_to_spec(grid: IndexSet) -> dict:
    """Explicit mask descriptor for an arbitrary index set."""
    return {"dim": grid.dim, "kind": "mask", "points": grid.as_array.tolist()}


def model_to_dict(model: ExponentialModel) -> dict:
    return {
        "dim": model.dim,
        "terms": [
            {"zeta": [_pair(z) for z in row], "c": _pair(c)}
            for row, c in zip(model.zetas, model.coeffs)
        ],
    }


def model_from_dict(data: dict) -> ExponentialModel:
    try:
        dim = data["dim"]  # checked by ExponentialModel
        terms = data["terms"]
        zetas = np.array(
            [[_from_pair(z) for z in term["zeta"]] for term in terms], dtype=np.complex128
        )
        coeffs = np.array([_from_pair(term["c"]) for term in terms], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed model data: {exc!r}") from exc
    return ExponentialModel(dim=dim, zetas=zetas, coeffs=coeffs)


def samples_to_dict(f: MdSequence, grid_spec: dict | None = None) -> dict:
    """Serializable form of a sampled sequence.

    ``grid_spec`` can preserve the descriptor the grid was built from;
    otherwise an explicit mask is stored.  Either way the value order is the
    canonical order of the grid.
    """
    spec = grid_spec if grid_spec is not None else grid_to_spec(f.domain)
    return {"grid": spec, "values": [_pair(v) for v in f.values]}


def samples_from_dict(data: dict) -> MdSequence:
    try:
        grid = grid_from_spec(data["grid"])
        values = np.array([_from_pair(v) for v in data["values"]], dtype=np.complex128)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed sample data: {exc!r}") from exc
    return MdSequence(grid, values)


def report_to_dict(report: EstimationReport) -> dict:
    return {
        "model": model_to_dict(report.model),
        "model_order": report.model.order,
        "singular_values": [float(s) for s in report.singular_values],
        "pairing_residuals": [float(r) for r in report.pairing_residuals],
        "combo_used": [_pair(a) for a in report.combo_used],
        "coeff_condition": float(report.coeff_condition)
        if np.isfinite(report.coeff_condition)
        else None,
        "unused_samples": int(report.unused_samples),
        "warnings": list(report.warnings),
    }


def load_json(path) -> dict:
    try:
        with Path(path).open() as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"file not found: {path}") from exc
    except ValueError as exc:  # undecodable bytes too, not only bad JSON
        raise DomainError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(data: dict, path) -> None:
    with Path(path).open("w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
