"""The package namespace: every exported name resolves, once."""

from __future__ import annotations

import gdesprit


def test_star_import_and_unique_names():
    namespace: dict = {}
    exec("from gdesprit import *", namespace)
    assert len(gdesprit.__all__) == len(set(gdesprit.__all__))
    assert set(gdesprit.__all__) <= namespace.keys()
