"""Every demo imports cleanly, and only through the public library.

A demo runs only by hand, so a library name it imports that was moved
or renamed would otherwise go unnoticed. Each demo runs its work from
main() behind a __name__ check, so importing one runs nothing. A demo
that imports an underscore name from the library leans on a private
detail that may change without notice; what a demo needs is public.
"""

import ast
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


def _private_library_imports(source):
    """Dotted names of every underscore module or name imported from recurweight."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            module = ""
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "recurweight" and any(p.startswith("_") for p in parts):
                found.append(name)
    return found


def test_private_import_check_sees_each_import_form():
    source = (
        "from recurweight.iptw import _converged_fit, build_treatment_weights\n"
        "from recurweight import _version\n"
        "import recurweight._internal\n"
        "from recurweight.statcore import fit_logistic\n"
        "from numpy import _core\n"
    )
    assert _private_library_imports(source) == [
        "recurweight.iptw._converged_fit",
        "recurweight._version",
        "recurweight._internal",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_no_private_library_name(path):
    assert _private_library_imports(path.read_text()) == []
