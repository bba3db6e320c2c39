"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from gdesprit.domains import IndexSet


def points(dim, lo=-6, hi=6):
    return st.tuples(*(st.integers(lo, hi) for _ in range(dim)))


@st.composite
def point_lists(draw, dim=None, min_size=1, max_size=12, lo=-6, hi=6):
    d = dim if dim is not None else draw(st.integers(1, 3))
    return d, draw(st.lists(points(d, lo, hi), min_size=min_size, max_size=max_size))


@st.composite
def index_sets(draw, dim=None, min_size=1, max_size=12, lo=-6, hi=6):
    d, pts = draw(point_lists(dim, min_size, max_size, lo, hi))
    return IndexSet(d, tuple(pts))


@st.composite
def gapped_axes(draw, dim=None):
    """``dim`` (else 1 to 3) lists of coordinate values, each starting below
    zero and stepping by gaps of 2 to 9."""
    axes = []
    for _ in range(dim or draw(st.integers(1, 3))):
        start = draw(st.integers(-40, -1))
        gaps = draw(st.lists(st.integers(2, 9), max_size=4))
        axes.append(np.cumsum([start, *gaps]).tolist())
    return axes


@st.composite
def gapped_index_sets(draw, max_size=20, dim=None):
    """Sets of points drawn from ``gapped_axes(dim)``."""
    axes = draw(gapped_axes(dim))
    pick = st.tuples(*(st.sampled_from(axis) for axis in axes))
    return IndexSet(len(axes), tuple(draw(st.lists(pick, min_size=1, max_size=max_size))))


@st.composite
def gapped_product_sets(draw):
    """Every point of the product of ``gapped_axes``: a gapped box."""
    axes = draw(gapped_axes())
    return IndexSet(len(axes), tuple(itertools.product(*axes)))


@st.composite
def run_domains(draw, p):
    """2-d index sets whose dimension-``p`` fibers are contiguous runs >= 2."""
    n_fibers = draw(st.integers(1, 4))
    frozen_coords = draw(
        st.lists(st.integers(-5, 5), min_size=n_fibers, max_size=n_fibers, unique=True)
    )
    pts = []
    for fc in frozen_coords:
        start = draw(st.integers(-5, 5))
        length = draw(st.integers(2, 5))
        for v in range(start, start + length):
            pts.append((v, fc) if p == 1 else (fc, v))
    return IndexSet(2, tuple(pts))


@st.composite
def gapped_run_sets(draw, dim):
    """``dim``-d sets whose dimension-1 fibers are 1 to 3 runs of 1 to 3
    points, separated by gaps of 1 or 2."""
    pts = []
    for frozen in draw(st.lists(points(dim - 1, -1, 1), min_size=1, max_size=3, unique=True)):
        start = draw(st.integers(-3, 1))
        for _ in range(draw(st.integers(1, 3))):
            length = draw(st.integers(1, 3))
            pts += [(v, *frozen) for v in range(start, start + length)]
            start += length + draw(st.integers(1, 2))
    return IndexSet(dim, tuple(pts))


@st.composite
def seeded_rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
