"""Hand-worked cases for the benchmark's own checkers.

Run with ``python3 -m pytest perfbench``; tier-1 (``testpaths = ["tests"]``)
does not collect this file.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from checks import (
    CheckFailed,
    brute_erode,
    brute_minkowski,
    check_ladder,
    fit_residual,
    half_disc_points,
    ladder_medians,
    match_nodes,
)


def test_minkowski_1d():
    assert brute_minkowski([(0,), (1,)], [(0,), (2,)]) == [(0,), (1,), (2,), (3,)]


def test_minkowski_2d_canonical_order():
    # last coordinate most significant: (1, 0) comes before (0, 1)
    got = brute_minkowski([(0, 0), (1, 0)], [(0, 0), (0, 1), (5, -1)])
    assert got == [(5, -1), (6, -1), (0, 0), (1, 0), (0, 1), (1, 1)]


def test_erode_1d_with_gap():
    # y and y + 1 must both lie in {0, 1, 2, 3, 5}
    assert brute_erode([(0,), (1,), (2,), (3,), (5,)], [(0,), (1,)]) == [(0,), (1,), (2,)]


def test_erode_negative_coordinates_and_offset_xi():
    # y + 1 and y + 2 in {-2, -1, 0} gives y in {-3, -2}
    assert brute_erode([(-2,), (-1,), (0,)], [(1,), (2,)]) == [(-3,), (-2,)]


def test_erode_2d_missing_corner():
    omega = [(i, j) for j in range(2) for i in range(3) if (i, j) != (2, 1)]
    # (1, 1) is out: (1, 1) + (1, 0) = (2, 1) is missing
    assert brute_erode(omega, [(0, 0), (1, 0)]) == [(0, 0), (1, 0), (0, 1)]


def test_half_disc_points():
    assert half_disc_points(1) == [(-1, 0), (0, 0), (1, 0), (0, 1)]
    assert half_disc_points(1.5) == [(-1, 0), (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]


def test_match_nodes_permuted():
    assignment, err = match_nodes([1, 1j, -1], [-1 + 1e-3, 1, 1j + 2e-3])
    assert assignment.tolist() == [1, 2, 0]
    assert err == pytest.approx(2e-3)


def test_match_nodes_minimizes_total_not_greedy():
    # costs: 0->0.6: 0.6, 0->1.7: 1.7, 1->0.6: 0.4, 1->1.7: 0.7.
    # Greedy on node 1 first takes 0.6 and leaves node 0 a cost of 1.7 (total 2.1);
    # the optimal assignment costs 0.6 + 0.7 = 1.3.
    assignment, err = match_nodes([0, 1], [0.6, 1.7])
    assert assignment.tolist() == [0, 1]
    assert err == pytest.approx(0.7)


def test_match_nodes_cost_is_max_over_coordinates():
    _, err = match_nodes([[1, 1]], [[1 + 0.1j, 1 + 0.5j]])
    assert err == pytest.approx(0.5)


def test_match_nodes_count_mismatch():
    with pytest.raises(CheckFailed):
        match_nodes([1, -1], [1])


def test_fit_residual_1d():
    # nodes 1 and -1 with unit coefficients give 2, 0, 2 at x = 0, 1, 2
    zetas, coeffs = [[0], [1j * math.pi]], [1, 1]
    assert fit_residual([(0,), (1,), (2,)], [2, 0, 2], zetas, coeffs) < 1e-15
    assert fit_residual([(0,), (1,), (2,)], [2, 0, 1], zetas, coeffs) == pytest.approx(1 / math.sqrt(5))


def test_fit_residual_keeps_the_sign_of_the_frequency():
    # exp(i pi/2 x) is 1, i at x = 0, 1; against 1, -i the residual is |2i| / sqrt(2)
    zetas, coeffs = [[0.5j * math.pi]], [1]
    assert fit_residual([(0,), (1,)], [1, 1j], zetas, coeffs) < 1e-15
    assert fit_residual([(0,), (1,)], [1, -1j], zetas, coeffs) == pytest.approx(math.sqrt(2))


def test_fit_residual_2d_uses_inner_product():
    # exp(<(1, 1), (i pi/2, i pi/2)>) = exp(i pi) = -1
    zetas, coeffs = [[0.5j * math.pi, 0.5j * math.pi]], [2]
    assert fit_residual([(1, 1)], [-2], zetas, coeffs) < 1e-15
    assert fit_residual([(1, 1)], [-1], zetas, coeffs) == pytest.approx(1.0)


def _ladder(errors, gaps):
    ratios = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
    return dict(zip(ratios, zip(errors, gaps)))


RESOLVED, FLOOR = (1e-4, 1e-3, 1e-2), (1e-4, 1e-3)
GOOD_ERRORS = (1.8, 0.5, 1e-3, 1e-4, 1e-5)
GOOD_GAPS = (1.0, 4.0, 30.0, 300.0, 3000.0)


def test_ladder_accepts_first_order_behaviour():
    check_ladder(_ladder(GOOD_ERRORS, GOOD_GAPS), RESOLVED, FLOOR)


def test_ladder_accepts_saturated_errors_out_of_order():
    # above 1e-2 the nodes are lost and the error saturates: 1.5 at ratio 1 after
    # 1.8 at 0.1 is no fault, as long as both stay above the error at 1e-2
    check_ladder(_ladder((1.5, 1.8, 1e-3, 1e-4, 1e-5), GOOD_GAPS), RESOLVED, FLOOR)


@pytest.mark.parametrize(
    "errors, gaps",
    [
        # rank gap below 10 at 1e-3
        (GOOD_ERRORS, (1.0, 4.0, 0.9, 9.0, 90.0)),
        # gap does not shrink tenfold per decade
        (GOOD_ERRORS, (1.0, 4.0, 300.0, 300.0, 3000.0)),
        # error falls as the ratio rises from 1e-3 to 1e-2, though it grows
        # a hundredfold over the two decades
        ((1.8, 0.5, 1e-3, 2e-3, 1e-5), GOOD_GAPS),
        # error grows with the square of the ratio
        ((1.8, 0.5, 1e-1, 1e-3, 1e-5), GOOD_GAPS),
        # error does not move with the noise
        ((1.8, 0.5, 1e-5, 1e-5, 1e-5), GOOD_GAPS),
        # a saturated ratio reads below the largest resolved one
        ((1.8, 5e-4, 1e-3, 1e-4, 1e-5), GOOD_GAPS),
        # too large at the smallest ratio
        ((1.8, 1.0, 1.0, 1e-1, 1e-2), GOOD_GAPS),
    ],
)
def test_ladder_rejects(errors, gaps):
    with pytest.raises(CheckFailed):
        check_ladder(_ladder(errors, gaps), RESOLVED, FLOOR)


def test_ladder_medians_takes_entrywise_median_spectrum():
    cells = [
        (0.1, np.array([1.0, 3.0]), np.array([10.0, 1.0, 0.5])),
        (0.1, np.array([2.0]), np.array([8.0, 2.0, 0.1])),
        (0.1, np.array([5.0]), np.array([6.0, 4.0, 0.2])),
    ]
    # max errors 3, 2, 5 -> median 3; median spectrum (8, 2, 0.2) -> gap 8 / 2
    assert ladder_medians(cells, rank=1) == {0.1: (3.0, 4.0)}
