"""Spans around the calls into each gdesprit module, recorded from outside.

The tracer replaces a public function by a timing wrapper at the place
where its caller looks it up (``gdesprit.esprit.vandermonde`` for the call
inside ``esprit_nd``, ``gdesprit.signal.vandermonde`` for the one inside
``eval_model``), so the program itself is not edited.  Spans stay in memory
as (name, start, end, parent, operation) and are written out once, when
the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

import numpy as np

# (module that looks the name up, attribute, span name).  A span name is the
# layer (the module that defines the function) and the function name.
PATCHES = (
    ("gdesprit.harness", "minkowski_sum", "domains.minkowski_sum"),
    ("gdesprit.cli", "minkowski_sum", "domains.minkowski_sum"),
    ("gdesprit.harness", "erode", "domains.erode"),
    ("gdesprit.cli", "erode", "domains.erode"),
    ("gdesprit.esprit", "deletion_masks", "domains.deletion_masks"),
    ("gdesprit.serialize", "make_box", "domains.make_box"),
    ("gdesprit.serialize", "make_shape", "domains.make_shape"),
    ("gdesprit.serialize", "grid_from_spec", "serialize.grid_from_spec"),
    ("gdesprit.harness", "grid_from_spec", "serialize.grid_from_spec"),
    ("gdesprit.esprit", "vandermonde", "signal.vandermonde"),
    ("gdesprit.signal", "vandermonde", "signal.vandermonde"),
    ("gdesprit.harness", "eval_model", "signal.eval_model"),
    ("gdesprit.cli", "eval_model", "signal.eval_model"),
    ("gdesprit.harness", "random_model", "signal.random_model"),
    ("gdesprit.cli", "random_model", "signal.random_model"),
    ("gdesprit.harness", "add_noise", "signal.add_noise"),
    ("gdesprit.cli", "add_noise", "signal.add_noise"),
    ("gdesprit.esprit", "build_hankel", "hankel.build_hankel"),
    ("gdesprit.linalg_backend", "truncated_svd", "linalg_backend.truncated_svd"),
    ("gdesprit.linalg_backend", "lstsq", "linalg_backend.lstsq"),
    ("gdesprit.linalg_backend", "eig_full", "linalg_backend.eig_full"),
    ("gdesprit.linalg_backend", "lstsq_minimum_norm", "linalg_backend.lstsq_minimum_norm"),
    ("gdesprit.harness", "esprit_nd", "esprit.esprit_nd"),
    ("gdesprit.cli", "esprit_nd", "esprit.esprit_nd"),
    ("gdesprit.esprit", "esprit_nd", "esprit.esprit_nd"),
    ("gdesprit.esprit", "esprit_block", "esprit.esprit_block"),
    ("gdesprit.esprit", "joint_eig", "esprit.joint_eig"),
    ("gdesprit.harness", "run_experiment", "harness.run_experiment"),
    ("gdesprit.harness", "resolve_grids", "harness.resolve_grids"),
    ("gdesprit.harness", "match_frequencies", "harness.match_frequencies"),
    ("gdesprit.serialize", "load_json", "serialize.load_json"),
    ("gdesprit.serialize", "samples_from_dict", "serialize.samples_from_dict"),
    ("gdesprit.serialize", "dump_json", "serialize.dump_json"),
    ("gdesprit.serialize", "report_to_dict", "serialize.report_to_dict"),
    ("gdesprit.cli", "main", "cli.main"),
    ("gdesprit.cli", "parse_grid_arg", "cli.parse_grid_arg"),
    ("gdesprit.cli", "cmd_estimate", "cli.cmd_estimate"),
)

# Per-layer self-time metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "domains.minkowski_sum_s": ("domains.minkowski_sum",),
    "domains.erode_s": ("domains.erode",),
    "domains.deletion_masks_s": ("domains.deletion_masks",),
    "domains.grid_build_s": ("domains.make_box", "domains.make_shape", "serialize.grid_from_spec"),
    "signal.vandermonde_s": ("signal.vandermonde",),
    "signal.eval_model_s": ("signal.eval_model",),
    "signal.random_model_s": ("signal.random_model",),
    "signal.add_noise_s": ("signal.add_noise",),
    "hankel.build_hankel_s": ("hankel.build_hankel",),
    "linalg_backend.truncated_svd_s": ("linalg_backend.truncated_svd",),
    "linalg_backend.lstsq_s": ("linalg_backend.lstsq",),
    "linalg_backend.eig_full_s": ("linalg_backend.eig_full",),
    "linalg_backend.lstsq_minimum_norm_s": ("linalg_backend.lstsq_minimum_norm",),
    "esprit.esprit_nd_self_s": ("esprit.esprit_nd",),
    "esprit.esprit_block_self_s": ("esprit.esprit_block",),
    "esprit.joint_eig_self_s": ("esprit.joint_eig",),
    "harness.resolve_grids_s": ("harness.resolve_grids",),
    "harness.match_frequencies_s": ("harness.match_frequencies",),
    "harness.run_experiment_self_s": ("harness.run_experiment",),
    "serialize.load_s": ("serialize.load_json", "serialize.samples_from_dict"),
    "serialize.dump_s": ("serialize.dump_json", "serialize.report_to_dict"),
    "cli.estimate_self_s": ("cli.main", "cli.parse_grid_arg", "cli.cmd_estimate"),
}

COUNTS = (
    "domains.points_built",
    "signal.vandermonde_entries",
    "hankel.entries",
    "linalg_backend.truncated_svd_calls",
    "serialize.bytes_written",
)


def _work_counted(span: str, result, args) -> dict[str, int]:
    """Counts of work done by one call, read off its result or arguments."""
    if span in ("domains.minkowski_sum", "domains.erode"):
        return {"domains.points_built": len(result)}
    if span == "signal.vandermonde":
        return {"signal.vandermonde_entries": int(result.size)}
    if span == "hankel.build_hankel":
        return {"hankel.entries": int(result.matrix.size)}
    if span == "linalg_backend.truncated_svd":
        return {"linalg_backend.truncated_svd_calls": 1}
    if span == "serialize.dump_json":
        return {"serialize.bytes_written": os.path.getsize(args[1])}
    return {}


class Tracer:
    """Records spans and work counts while installed; a no-op otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, operation]
        self.counts: Counter = Counter()
        self.operation = -1
        self._stack: list[int] = []
        self._originals = []
        for name, attr, span in PATCHES:
            module = importlib.import_module(name)
            self._originals.append((module, attr, getattr(module, attr), span))

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = [span, time.perf_counter(), None, parent, self.operation]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            self.counts.update(_work_counted(span, result, args))
            return result

        return traced

    def install(self, operation: int) -> None:
        self.operation = operation
        for module, attr, fn, span in self._originals:
            setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._originals:
            setattr(module, attr, fn)

    def self_times(self) -> Counter:
        """Summed self time per span name: duration minus direct children's durations."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-operation self times, work counts and pairing attempts."""
        self_time = self.self_times()
        metrics = {
            name: sum(self_time[s] for s in spans) / operations for name, spans in SELF_TIME.items()
        }
        metrics.update({name: self.counts[name] / operations for name in COUNTS})
        names = [s[0] for s in self.spans]
        joint = names.count("esprit.joint_eig")
        eig_in_joint = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "linalg_backend.eig_full" and parent >= 0 and names[parent] == "esprit.joint_eig"
        )
        metrics["esprit.pairing_attempts_per_estimate"] = eig_in_joint / joint if joint else 0.0
        return metrics

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "operation"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
