"""The benchmark's end-to-end hooks must keep resolving.

``perfbench/tracer.py`` wraps ``E2E_HOOKS`` to find where set-up ends and the
slot loop begins.  A hook whose target is gone is reported as absent and the
run goes on, so set-up time would fold into ``us_per_slot`` unnoticed; this
test makes such a rename fail instead.
"""

import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("hook", tracer.E2E_HOOKS, ids=lambda hook: hook.name)
def test_end_to_end_hook_resolves(hook):
    spans = tracer.Tracer()
    try:
        assert spans.install([hook]) == []
    finally:
        spans.uninstall()
