"""The package namespace: every exported name resolves, once, and the CLI
imports without scipy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import gdesprit


def test_star_import_and_unique_names():
    namespace: dict = {}
    exec("from gdesprit import *", namespace)
    assert len(gdesprit.__all__) == len(set(gdesprit.__all__))
    assert set(gdesprit.__all__) <= namespace.keys()


def test_cli_import_leaves_scipy_unloaded():
    # only experiment matching uses scipy, so estimate and synth never load it
    src = str(Path(gdesprit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    check = "import gdesprit.cli, sys; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True)
