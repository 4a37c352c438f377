"""Every private helper in the library is used by the library.

A top-level underscore function or class is not part of the public
API, so demos and tests may not lean on it; if no library code names
it outside its own definition, nothing a run does reaches it, and it is
dead code that only tests keep alive.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "recurweight"


def _unreferenced_private_helpers(sources):
    """`module.name` of each top-level underscore function or class in
    `sources` (module name -> source) that no code names outside its own
    definition, as a plain name, an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            own = {id(n) for n in ast.walk(node)}
            referenced = any(
                name == node.name
                for other in trees.values()
                for n in ast.walk(other)
                if id(n) not in own
                for name in (getattr(n, "id", None), getattr(n, "attr", None),
                             n.name if isinstance(n, ast.alias) else None)
            )
            if not referenced:
                unused.append(f"{module}.{node.name}")
    return unused


def test_check_sees_each_kind_of_reference():
    sources = {
        "a": (
            "def _called(): pass\n"
            "def _by_attribute(): pass\n"
            "def _imported(): pass\n"
            "def _only_itself(): return _only_itself()\n"
            "class _Unused: pass\n"
            "def __dunder__(): pass\n"
            "def public(): return _called()\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _imported\n"
            "value = a._by_attribute\n"
        ),
    }
    assert _unreferenced_private_helpers(sources) == ["a._only_itself", "a._Unused"]


def test_every_private_helper_is_used_by_the_library():
    sources = {path.stem: path.read_text() for path in sorted(LIBRARY.glob("*.py"))}
    assert _unreferenced_private_helpers(sources) == []
