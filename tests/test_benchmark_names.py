"""Every function the benchmark's traced run wraps exists in its module.

The tracer in ``perfbench/tracing.py`` looks each function up by name, so a
refactor that drops or moves one fails here, in the test suite, rather than
in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import LAYER_FUNCTIONS  # noqa: E402

TRACED = [(module, name) for module, names in LAYER_FUNCTIONS.values() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_exists_in_its_module(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
