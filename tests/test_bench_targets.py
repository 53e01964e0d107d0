"""The benchmark's tracer wraps package callables by name.

``bench/tracing.py`` looks each target up when a traced run starts, so a
renamed or deleted name only shows there. This loads the tracer module
and checks that every ``(owner, attribute)`` it wraps still resolves.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _, _ in TARGETS],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _, _ in TARGETS],
)
def test_traced_target_resolves(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__} has no {attr}"
