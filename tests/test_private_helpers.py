"""Every top-level function and class in the library is used by the library.

If no library code names a top-level function or class outside its own
definition, nothing a run does reaches it, and it is dead code that only
tests, demos or perfbench keep alive; those callers do not count, and
no name is exempt. A reference the tests need lives in `tests/`. Nor
does library code read or write an underscore attribute through a dot
(`obj._name`): what is private to an object or module stays behind its
own name. And every name a module imports is used in that module, apart
from the few that the benchmark's timing spans wrap, listed by name.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "recurweight"

# imported and unused, kept on purpose: perfbench/spans.py wraps each one as
# a span target, so the benchmark's smoke test needs it to resolve
KEPT_IMPORTS = {"calibrate.fit_weighted_cox", "calibrate.gen_potential_outcomes",
                "cli.gen_dataset"}


def _unreferenced_names(sources):
    """`module.name` of each top-level function or class in `sources`
    (module name -> source) that no code names outside its own
    definition, as a plain name, an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
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


def _private_attribute_accesses(sources):
    """`module: expression` of each `obj._name` that `sources` read or
    write, dunders excepted."""
    return [
        f"{module}: {ast.unparse(n)}"
        for module, source in sources.items()
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr.startswith("_")
        and not (n.attr.startswith("__") and n.attr.endswith("__"))
    ]


def _unused_imports(sources):
    """`module.name` of each name a module imports and never names again."""
    unused = []
    for module, source in sources.items():
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused.extend(
            f"{module}.{name}"
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            # `import a.b` binds a
            for name in [(alias.asname or alias.name).partition(".")[0]]
            if name not in used
        )
    return unused


def _library_sources():
    return {path.stem: path.read_text() for path in sorted(LIBRARY.glob("*.py"))}


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
            "def unused_public(): pass\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _imported\n"
            "value = a._by_attribute\n"
            "a.public()\n"
            "a.public()._state = type(a).__name__\n"
        ),
    }
    assert _unreferenced_names(sources) == ["a._only_itself", "a._Unused", "a.unused_public"]
    assert _private_attribute_accesses(sources) == ["b: a._by_attribute", "b: a.public()._state"]


def test_import_check_sees_each_kind_of_use():
    sources = {
        "a": (
            "import os\n"
            "import numpy as np\n"
            "import xml.dom\n"
            "from . import b\n"
            "from .b import c as d, e, f\n"
            "np.zeros(1)\n"
            "print(d)\n"
            "def g(x: e): pass\n"
        ),
    }
    assert _unused_imports(sources) == ["a.os", "a.xml", "a.b", "a.f"]


def test_every_import_is_used_in_its_module():
    assert sorted(_unused_imports(_library_sources())) == sorted(KEPT_IMPORTS)


def test_every_top_level_name_is_used_by_the_library():
    assert _unreferenced_names(_library_sources()) == []


def test_no_library_code_reaches_a_private_attribute():
    assert _private_attribute_accesses(_library_sources()) == []
