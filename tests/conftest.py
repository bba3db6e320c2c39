"""Shared test configuration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import gdesprit.esprit
import gdesprit.signal

settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def vandermonde_calls(monkeypatch):
    """(points, terms) of every node-power matrix that model evaluation or
    the estimator forms."""
    calls = []
    form = gdesprit.signal.vandermonde

    def counted(domain, zetas):
        calls.append((len(domain), len(zetas)))
        return form(domain, zetas)

    for module in (gdesprit.signal, gdesprit.esprit):
        monkeypatch.setattr(module, "vandermonde", counted)
    return calls
