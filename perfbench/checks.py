"""Correctness checks that the benchmark computes apart from the program.

Every function here uses only numpy, scipy and plain Python sets, never a
gdesprit routine, so a fault in the program cannot hide itself by also
breaking its own check.  Each check compares with ground truth, with a
brute-force computation or with a property the method must have.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def canonical(points) -> list[tuple[int, ...]]:
    """Points sorted with the last coordinate most significant."""
    return sorted({tuple(int(c) for c in p) for p in points}, key=lambda p: p[::-1])


def brute_minkowski(a, b) -> list[tuple[int, ...]]:
    """{x + y : x in a, y in b} by enumerating every pair."""
    return canonical(tuple(xc + yc for xc, yc in zip(x, y)) for x in a for y in b)


def brute_erode(omega, xi) -> list[tuple[int, ...]]:
    """Every lattice point y with y + x in omega for all x in xi.

    Candidates are all points of the box that any such y must lie in:
    coordinate by coordinate, min(omega) - min(xi) to max(omega) - max(xi).
    """
    members = set(map(tuple, omega))
    xi = [tuple(p) for p in xi]
    d = len(xi[0])
    lo = [min(p[i] for p in members) - min(x[i] for x in xi) for i in range(d)]
    hi = [max(p[i] for p in members) - max(x[i] for x in xi) for i in range(d)]
    kept = []
    for y in _box_points(lo, hi):
        if all(tuple(yc + xc for yc, xc in zip(y, x)) in members for x in xi):
            kept.append(y)
    return canonical(kept)


def _box_points(lo, hi):
    if not lo:
        yield ()
        return
    for rest in _box_points(lo[1:], hi[1:]):
        for c in range(lo[0], hi[0] + 1):
            yield (c,) + rest


def half_disc_points(radius: float) -> list[tuple[int, int]]:
    """Lattice points (i, j) with i^2 + j^2 <= radius^2 and j >= 0, canonical order."""
    r = int(np.floor(radius))
    return canonical(
        (i, j) for i in range(-r, r + 1) for j in range(0, r + 1) if i * i + j * j <= radius**2
    )


def match_nodes(true_nodes, est_nodes) -> tuple[np.ndarray, float]:
    """Assign estimated node vectors to true ones, minimizing the summed cost.

    The cost of a pair is the largest coordinate-wise modulus of their
    difference.  Returns the estimated index assigned to each true node and
    the largest cost over the assigned pairs.
    """
    t = np.asarray(true_nodes, dtype=np.complex128).reshape(len(true_nodes), -1)
    e = np.asarray(est_nodes, dtype=np.complex128).reshape(len(est_nodes), -1)
    require(t.shape == e.shape, f"{len(e)} estimated nodes for {len(t)} true nodes")
    cost = np.abs(t[:, None, :] - e[None, :, :]).max(axis=2)
    rows, cols = linear_sum_assignment(cost)
    assignment = np.empty(len(t), dtype=np.int64)
    assignment[rows] = cols
    return assignment, float(cost[rows, cols].max())


def fit_residual(points, values, zetas, coeffs) -> float:
    """Relative residual ||sum_k c_k exp(<x, zeta_k>) - f(x)|| / ||f|| over the points."""
    x = np.asarray(points, dtype=np.float64)
    z = np.asarray(zetas, dtype=np.complex128).reshape(len(coeffs), -1)
    model = np.exp(x @ z.T) @ np.asarray(coeffs, dtype=np.complex128)
    f = np.asarray(values, dtype=np.complex128)
    return float(np.linalg.norm(model - f) / np.linalg.norm(f))


def terms_from_json(terms) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (K, d) and coefficients (K,) from the model file's term list."""
    zetas = np.array([[complex(*z) for z in t["zeta"]] for t in terms], dtype=np.complex128)
    coeffs = np.array([complex(*t["c"]) for t in terms], dtype=np.complex128)
    return zetas, coeffs


def ladder_medians(cells, rank: int) -> dict[float, tuple[float, float]]:
    """Per noise ratio: median max node error and median-spectrum rank gap.

    ``cells`` yields (noise_ratio, lambda_errors, singular_values).  The gap
    is sigma_rank / sigma_{rank+1} of the entrywise median spectrum.
    """
    errors: dict[float, list[float]] = {}
    spectra: dict[float, list[np.ndarray]] = {}
    for ratio, lambda_errors, singular_values in cells:
        errors.setdefault(ratio, []).append(float(np.max(lambda_errors)))
        spectra.setdefault(ratio, []).append(np.asarray(singular_values))
    out = {}
    for ratio in sorted(errors):
        s = np.median(np.vstack(spectra[ratio]), axis=0)
        out[ratio] = (float(np.median(errors[ratio])), float(s[rank - 1] / s[rank]))
    return out


def check_ladder(medians: dict[float, tuple[float, float]], resolved, gap_floor_ratios) -> None:
    """Properties the fig6 noise ladder must have.

    ``resolved`` are the ratios at which the rank-40 signal subspace stands
    clear of the noise (1e-4, 1e-3 and 1e-2 for fig6).

    * The rank gap is at least 10 at each ratio in ``gap_floor_ratios``.
    * Over each decade of ``resolved`` the gap shrinks by a factor within
      10**(1 +- 0.2): sigma_K stays put while sigma_{K+1} grows with the noise.
    * The median max node error does not decrease as the ratio rises, and at
      every ratio above ``resolved`` it is at least its value at the largest
      resolved ratio.
    * From the smallest to the largest resolved ratio it grows with a log-log
      slope within 1 +- 0.5, as first-order perturbation theory predicts.
      Over a single decade the median of five trials scatters too much for
      that (slope 0.29 on model seed 404).
    * It is at most 1e-3 at the smallest ratio.
    """
    for r in gap_floor_ratios:
        require(medians[r][1] >= 10, f"rank gap {medians[r][1]:.3g} < 10 at noise ratio {r:.0e}")
    steps = sorted(resolved)
    for r0, r1 in zip(steps, steps[1:]):
        gap_slope = np.log10(medians[r0][1] / medians[r1][1]) / np.log10(r1 / r0)
        require(
            0.8 <= gap_slope <= 1.2,
            f"rank gap shrinks with slope {gap_slope:.2f} between ratios {r0:.0e} and {r1:.0e}, not about 1",
        )
    ratios = sorted(medians)
    for r0, r1 in zip(ratios, ratios[1:]):
        e0, e1 = medians[r0][0], medians[r1][0]
        floor = e0 if r1 <= steps[-1] else medians[steps[-1]][0]
        require(e1 >= floor, f"median error {e1:.3g} at ratio {r1:.2g} is below {floor:.3g}")
    lo, hi = steps[0], steps[-1]
    slope = np.log10(medians[hi][0] / medians[lo][0]) / np.log10(hi / lo)
    require(
        0.5 <= slope <= 1.5,
        f"median error grows with slope {slope:.2f} between ratios {lo:.0e} and {hi:.0e}, not about 1",
    )
    require(medians[lo][0] <= 1e-3, f"median error {medians[lo][0]:.3g} > 1e-3 at ratio {lo:.0e}")
