"""Command line interface.

Subcommands: ``synth`` (sample a model onto a grid), ``estimate`` (recover a
model from a sample file), ``experiment`` (run a spec or bundled scenarios)
and ``domain-info`` (inspect grids).  Exit codes: 0 success, 1 runtime
failure, 2 invalid input or usage.  Each either/or choice of flags is an
argparse mutually exclusive group, so argparse reports a conflict and exits 2.

Grid arguments use the compact grammar of ``_GRID_HELP`` below, which
``gdesprit --help`` prints.

Seeds come from ``synth --seed`` and an experiment spec's ``seed``, never the
environment; ``estimate`` pairs with the library's fixed default draw.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import harness, serialize
from .domains import _number, capacity, degenerate_fibers, erode, minkowski_sum
from .errors import INPUT_ERRORS, RUNTIME_ERRORS, DomainError
from .esprit import EspritOptions, esprit_nd
from .signal import _LAYOUTS, add_noise, eval_model, random_model

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def parse_grid_arg(text: str) -> dict:
    """Turn a grid argument into a JSON-style grid descriptor.

    Only the text grammar is read here; ``serialize.grid_from_spec`` checks
    every parameter when it builds the grid.
    """
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid inline JSON grid spec: {exc}") from exc
    if text.endswith(".json") or text.startswith("mask:"):
        data = serialize.load_json(text.removeprefix("mask:"))
        return {"kind": "mask", "points": data} if isinstance(data, list) else data
    kind, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"malformed grid spec {text!r}; expected kind:parameters")
    try:
        if kind == "box":
            widths, at, offset = rest.partition("@")
            spec = {"kind": "box", "widths": [int(w) for w in widths.split(",")]}
            if at:
                spec["offset"] = [int(o) for o in offset.split(",")]
            return spec
        if kind == "triangle":
            return {"kind": "triangle", "side": int(rest)}
        if kind == "half_disc":
            return {"kind": "half_disc", "radius": float(rest)}
    except ValueError as exc:
        raise DomainError(f"malformed {kind} spec {text!r}: {exc}") from exc
    raise DomainError(f"unknown grid kind {kind!r} in {text!r}")


def cmd_synth(args: argparse.Namespace) -> int:
    _number(args.seed, "--seed", integral=True, minimum=0)  # as numpy seeds must be
    omega_spec = parse_grid_arg(args.grid)
    omega = serialize.grid_from_spec(omega_spec)
    recipe = {"layout": args.layout, "damping_bound": args.damping_bound}
    recipe = {k: v for k, v in recipe.items() if v is not None}  # else random_model's defaults
    if args.model is None:
        model = random_model(args.order, omega.dim, np.random.default_rng((args.seed, 0)), **recipe)
    elif recipe:
        flag = "--" + next(iter(recipe)).replace("_", "-")
        raise DomainError(f"give either --model or {flag}, not both")
    else:
        model = serialize.model_from_dict(serialize.load_json(args.model))
    clean = eval_model(model, omega)
    noisy = add_noise(clean, args.noise, np.random.default_rng((args.seed, 1)))

    out = Path(args.out)
    serialize.dump_json(serialize.samples_to_dict(noisy, omega_spec), out)
    sidecar = out.with_name(out.stem + ".model.json")
    serialize.dump_json(serialize.model_to_dict(model), sidecar)
    print(f"wrote {len(omega)} samples to {out}")
    print(f"wrote ground-truth model to {sidecar}")
    if args.noise > 0:
        achieved = float(np.linalg.norm(noisy.values - clean.values) / clean.norm())
        print(f"achieved noise ratio = {achieved:.6e}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    f = serialize.samples_from_dict(serialize.load_json(args.samples))
    xi = serialize.grid_from_spec(parse_grid_arg(args.xi))
    if args.erode:
        upsilon = erode(f.domain, xi)
    else:
        upsilon = serialize.grid_from_spec(parse_grid_arg(args.upsilon))
    cutoff = {} if args.auto is None else {"auto_rel_tol": args.auto}
    options = EspritOptions(model_order=args.order, **cutoff)
    report = esprit_nd(f, xi, upsilon, options)

    K = report.model.order
    print(f"model order K = {K}")
    gap = _rank_gap(report.singular_values, K)
    print(f"singular value gap sigma_{K}/sigma_{K + 1} = {gap:.6e}")
    print(f"max pairing residual = {float(np.max(report.pairing_residuals)):.6e}")
    if report.unused_samples > 0:
        print(
            f"warning: {report.unused_samples} of {len(f.domain)} samples lie outside the "
            "grid sums and are only used for coefficient recovery",
            file=sys.stderr,
        )
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    if args.out is not None:
        serialize.dump_json(serialize.report_to_dict(report), Path(args.out))
        print(f"wrote report to {args.out}")
    return 0


def _rank_gap(s: np.ndarray, K: int) -> float:
    """sigma_K / sigma_{K+1} of a descending spectrum; inf past its end or over 0."""
    return float(s[K - 1] / s[K]) if K < len(s) and s[K] > 0 else float("inf")


def _print_summary(spec: harness.ExperimentSpec, results: list[harness.TrialResult]) -> None:
    failures = [r for r in results if r.failed]
    ok = [r for r in results if not r.failed]
    print(f"{spec.name}: {len(results)} runs, {len(failures)} failed")
    for reason in sorted({r.error for r in failures}):
        print(f"  failure: {reason}")
    ratios = sorted({r.noise_ratio for r in ok})
    for ratio in ratios:
        errs = [float(np.max(r.lambda_errors)) for r in ok if r.noise_ratio == ratio]
        label = "noise-free" if ratio == 0 else f"ratio {ratio:.3e}"
        print(f"  {label}: median max node error {np.median(errs):.3e}, worst {max(errs):.3e}")
    if len(ratios) > 1:
        K = spec.model.K
        print(f"  rank jump sigma_{K}/sigma_{K + 1} of the median spectrum:")
        for ratio, spectrum in harness.singular_value_table(results).items():
            print(f"    ratio {ratio:.3e}: {_rank_gap(spectrum, K):.1f}")


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        specs = [harness.bundled_spec(name) for name in dict.fromkeys(args.scenario)]
    else:
        specs = [harness.spec_from_dict(serialize.load_json(args.spec))]
    jobs = {} if args.jobs is None else {"jobs": args.jobs}  # else run_experiment's default
    for spec in specs:
        start = time.perf_counter()
        results = harness.run_experiment(spec, **jobs)
        csv_path, _ = harness.write_results(spec, results, args.out)
        elapsed = time.perf_counter() - start
        _print_summary(spec, results)
        print(f"  wall time = {elapsed:.1f} s")
        print(f"results written to {csv_path}")
    return 0


def cmd_domain_info(args: argparse.Namespace) -> int:
    if len(args.grids) > 2:
        raise DomainError("domain-info takes at most two grids")
    grids = []
    for label, text in zip(("xi", "upsilon"), args.grids):
        grid = serialize.grid_from_spec(parse_grid_arg(text))
        grids.append(grid)
        print(f"{label}: {text}")
        print(f"  points = {len(grid)}")
        defects = [(p, *bad) for p in range(1, grid.dim + 1) for bad in degenerate_fibers(grid, p)]
        print(f"  convex fibers = {'no' if defects else 'yes'}")
        for p, frozen, coords in defects:
            kind = "singleton" if len(coords) < 2 else f"gapped (coordinates {coords})"
            print(f"  warning: {kind} fiber {frozen} along dimension {p}")
        print(f"  capacity = {'n/a (degenerate fibers)' if defects else capacity(grid)}")
    if len(grids) == 2:
        both = minkowski_sum(grids[0], grids[1])
        print(f"xi + upsilon: points = {len(both)}")
    return 0


_GRID_HELP = """\
grid grammar:
  box:N1,...,Nd[@o1,...,od]   full box, optional offset (default 0)
  triangle:L                  i, j >= 1 with i + j <= L + 1
  half_disc:R                 i^2 + j^2 <= R^2 with j >= 0
  mask:points.json            explicit point list from a JSON file
  path.json                   any grid descriptor stored as JSON
  {...}                       inline JSON grid descriptor
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdesprit",
        description="Frequency recovery of exponential sums sampled on integer lattices.",
        epilog=_GRID_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="sample a model onto a grid")
    p_synth.add_argument("--grid", required=True, help="sampling domain")
    source = p_synth.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model JSON file to evaluate")
    source.add_argument("--order", "-K", type=int, help="number of random terms")
    p_synth.add_argument("--layout", choices=_LAYOUTS)
    p_synth.add_argument("--damping-bound", type=float)
    p_synth.add_argument("--noise", type=float, default=0.0, help="noise-to-signal ratio")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="sample file to write")
    p_synth.set_defaults(func=cmd_synth)

    p_est = sub.add_parser("estimate", help="recover a model from a sample file")
    p_est.add_argument("samples", help="sample JSON file")
    p_est.add_argument("--xi", required=True, help="row grid")
    columns = p_est.add_mutually_exclusive_group(required=True)
    columns.add_argument("--upsilon", help="column grid")
    columns.add_argument(
        "--erode",
        action="store_true",
        help="derive the column grid by eroding the sample domain by --xi",
    )
    order = p_est.add_mutually_exclusive_group(required=True)
    order.add_argument("--order", "-K", type=int, help="fixed model order")
    order.add_argument(
        "--auto",
        type=float,
        nargs="?",
        const=1e-2,
        help="pick the order from the singular values (optional relative cutoff, default 1e-2)",
    )
    p_est.add_argument("--out", help="report JSON file to write")
    p_est.set_defaults(func=cmd_estimate)

    p_exp = sub.add_parser("experiment", help="run an experiment spec")
    source = p_exp.add_mutually_exclusive_group(required=True)
    source.add_argument("spec", nargs="?", help="experiment spec JSON file")
    source.add_argument(
        "--scenario",
        action="append",
        choices=harness.bundled_scenarios(),
        help="run a bundled scenario instead of a spec file (repeatable)",
    )
    p_exp.add_argument("--out", default=".", help="output directory (default: current directory)")
    jobs_help = "parallel worker processes; above 1, set OPENBLAS_NUM_THREADS=1 or it runs slower"
    p_exp.add_argument("--jobs", type=int, help=jobs_help)
    p_exp.set_defaults(func=cmd_experiment)

    p_info = sub.add_parser("domain-info", help="inspect one or two grids")
    p_info.add_argument("grids", nargs="+", help="one or two grid specs")
    p_info.set_defaults(func=cmd_domain_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RUNTIME_ERRORS + (OSError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
