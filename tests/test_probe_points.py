"""Every trace point of perfbench/probe.py resolves in the package.

The probe patches revcrochet's functions from outside and raises on a point
that no longer resolves, but only when a traced benchmark runs.  This test
reads the probe's tables without patching anything, so a renamed or moved
function fails here on every Python version.
"""

import importlib
import types
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def load_probe():
    """perfbench/probe.py as a module, compiled from its text: no bytecode is written."""
    module = types.ModuleType("perfbench_probe")
    module.__file__ = str(PROBE)
    exec(compile(PROBE.read_text(), str(PROBE), "exec"), module.__dict__)  # noqa: S102
    return module


probe = load_probe()


@pytest.mark.parametrize("point", probe.TRACE_POINTS + probe.EvalCounter.POINTS,
                         ids=lambda point: ".".join(filter(None, point[:3])))
def test_trace_point_resolves(point):
    module, owner, attr, _ = point
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr))


def test_every_span_metric_names_a_trace_point():
    names = {name for *_, name in probe.TRACE_POINTS}
    assert set(probe.SPAN_METRICS) <= names
    assert set(probe.CALL_COUNTS) <= names
