"""The benchmark tracer wraps named functions and methods of the package by
looking each one up in its owner's ``__dict__``.  A rename or a move to a
base class would break every traced benchmark run; this catches it in the
unit suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("efimov_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer, module, attr", [t[:3] for t in tracer.TARGETS],
                         ids=[t[2] for t in tracer.TARGETS])
def test_tracer_target_resolves(layer, module, attr):
    importlib.import_module(module)
    owner, key = tracer._resolve((module, attr))
    assert key in owner.__dict__, f"{layer}: {module}.{attr} is not defined on its owner"
    assert callable(owner.__dict__[key])
