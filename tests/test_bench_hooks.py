"""Every per-layer benchmark metric still has a hook that resolves.

``perfbench/tracing.py`` wraps package functions by name. A renamed or
deleted function leaves its hook unresolved, and the metrics that read
only that hook's spans come out as ``null``. This test reads the hook
table without installing any wrapper.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("tracing")


def _resolves(module_name, attr_path):
    try:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return callable(owner)


def test_every_layer_metric_has_a_resolving_hook(tracing):
    resolved = {
        span for span, module, attr, _ in tracing.HOOKS if _resolves(module, attr)
    }
    spans = {span for span, _, _ in tracing.LAYER_METRICS.values()}
    assert sorted(spans - resolved) == []
