"""The benchmark tracer rebinds names in omband's modules; they must exist.

``perfbench/tracer.py`` wraps each name in ``_REBIND`` by rebinding it in
the module that makes the calls.  Some of those names are imported there
for the tracer alone (``# noqa: F401``); if one goes, ``--trace 1`` fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


REBIND = sorted(
    (module, name) for module, names in load_tracer()._REBIND.items() for name in names
)


@pytest.mark.parametrize("module, name", REBIND, ids=[f"{m}.{n}" for m, n in REBIND])
def test_rebound_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
