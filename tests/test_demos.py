"""Every demo must import against the current library, so a deleted or
renamed name fails here instead of in a demo nobody runs."""

import glob
import importlib.util
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: os.path.basename(p))
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(
        "demo_" + os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    assert callable(module.main)
