"""Every demo, and the README's quick start, must import against the current
library, so a deleted or renamed name fails here instead of in a demo nobody
runs."""

import ast
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


def test_readme_quick_start_imports():
    """The README's "Library quick start" imports what it documents."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
