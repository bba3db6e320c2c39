"""The exception classes and the two groups that decide the CLI exit code."""

from __future__ import annotations

import inspect

import pytest

from gdesprit import errors

CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


def test_every_class_is_found():
    assert len(CLASSES) >= 10


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_each_class_falls_under_exactly_one_group_entry(cls):
    entries = [e for e in errors.INPUT_ERRORS + errors.RUNTIME_ERRORS if issubclass(cls, e)]
    assert len(entries) == 1, entries


def test_rank_deficiency_is_a_value_error_but_a_runtime_failure():
    # callers may catch ValueError; the CLI still exits 1 on it
    assert issubclass(errors.RankDeficiencyError, ValueError)
    assert errors.RankDeficiencyError in errors.RUNTIME_ERRORS
