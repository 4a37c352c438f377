"""Every demo imports cleanly.

A demo runs only by hand, so a library name it imports that was moved
or renamed would otherwise go unnoticed. Each demo runs its work from
main() behind a __name__ check, so importing one runs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
