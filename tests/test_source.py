"""Source hygiene: every imported name is used by the module that imports it.

Each module under ``src/`` and ``tests/`` is parsed with ``ast``; an import
is used when its bound name appears as a name anywhere in the module,
including inside quoted annotations. ``__init__.py`` files import to
re-export, and ``__future__`` imports switch on compiler features, so
neither is scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = _used_names(tree)
    return [name for name in imported if name not in used]


def test_the_scan_sees_plain_and_quoted_uses():
    source = (
        "import os\nimport os.path as osp\nfrom typing import Optional, List\n"
        "from x import (a, b as c)\n"
        "def f(v: 'Optional[int]') -> None:\n    return a\n"
    )
    assert unused_imports(source) == ["os", "osp", "List", "c"]


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    found = {
        str(p.relative_to(ROOT)): names
        for p in paths
        if p.name != "__init__.py"
        if (names := unused_imports(p.read_text()))
    }
    assert found == {}
