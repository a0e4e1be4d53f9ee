"""Every private module-level name in the package is still read.

A module-level name that starts with ``_`` is the package's own: no user
reads it.  When no module of ``src/weaktrace`` refers to it outside its own
definition, it is left over from a deletion and goes too.
"""

import ast
from pathlib import Path

import weaktrace


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unread_private_names(package: Path) -> list[str]:
    """``module: name`` for each private module-level name of ``package``
    that no top-level statement of its modules reads, apart from the one
    that defines it."""
    statements = [
        (path.name, s) for path in sorted(package.glob("*.py")) for s in ast.parse(path.read_text()).body
    ]
    reads = [_referenced_names(s) for _, s in statements]
    unread = []
    for i, (module, statement) in enumerate(statements):
        for name in _defined_names(statement):
            private = name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            if private and not any(name in r for j, r in enumerate(reads) if j != i):
                unread.append(f"{module}: {name}")
    return unread


def test_every_private_module_name_is_read():
    assert unread_private_names(Path(weaktrace.__file__).parent) == []


def test_a_private_name_read_only_by_itself_is_unread(tmp_path):
    (tmp_path / "a.py").write_text(
        "_used = 1\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _used\n"
        "from .b import _imported\n"
        "__all__ = []\n"
    )
    (tmp_path / "b.py").write_text(
        "import a\n"
        "def _imported():\n    pass\n"
        "_other, _pair = 1, a._read_as_attribute\n"
        "_read_as_attribute: int = _pair\n"
    )
    assert unread_private_names(tmp_path) == ["a.py: _recursive", "b.py: _other"]
