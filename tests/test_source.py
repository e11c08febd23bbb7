"""Static checks over the package's modules: nothing is imported or defined and then left unread.

No linter runs over the source, so these stand in for its unused-import
and unused-name rules.  __init__.py, which imports to re-export, is read
for references but not checked itself.  Each document format tag is also
checked to be the tag of one reader and one writer, so a reader for a
version nothing writes does not stay behind.  And formats.py alone checks
a scalar with `0 < x < inf` or `-inf < x < inf` (or `0 <= x < inf` or
`-inf < x <= 0`): elsewhere that is done by its rules, which refuse a
bool where the comparison would take it.
"""

import ast
import math
from pathlib import Path

import pytest

import chordweave

_SRC = Path(chordweave.__file__).resolve().parent
_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in _SRC.glob("*.py")}
_CHECKED = sorted(name for name in _TREES if name != "__init__.py")


def _dotted(node) -> str | None:
    """`a.b.c` for a chain of attributes on a bare name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _reads(node) -> set[str]:
    """Every name, attribute and dotted chain that `node` reads."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
            chain = _dotted(sub)
            if chain is not None:
                found.add(chain)
    return found


def _defined(stmt) -> list[str]:
    """The names a module-level statement defines, imports aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [
        sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)
    ]


@pytest.mark.parametrize("module", _CHECKED)
def test_every_module_level_import_is_read(module):
    tree = _TREES[module]
    read = _reads(tree)
    unread = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import) or (
            isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
        ):
            bound = (alias.asname or alias.name for alias in stmt.names)
            unread += [name for name in bound if name not in read]
    assert not unread, f"{module} imports but never reads {unread}"


@pytest.mark.parametrize("module", _CHECKED)
def test_every_module_level_private_name_is_referenced(module):
    # A reference inside the definition itself, such as a recursive call, does not count.
    elsewhere = set().union(*(_reads(tree) for name, tree in _TREES.items() if name != module))
    unreferenced = []
    for stmt in _TREES[module].body:
        for name in _defined(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            here = (_reads(other) for other in _TREES[module].body if other is not stmt)
            if name not in elsewhere.union(*here):
                unreferenced.append(name)
    assert not unreferenced, f"{module} defines but never references {unreferenced}"


def _format_tags() -> list[str]:
    """Every module-level `*_FORMAT` name bound to a string: a document's format tag."""
    return sorted(
        name
        for tree in _TREES.values()
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
        for name in _defined(stmt)
        if name.endswith("_FORMAT")
    )


def _nodes(kind) -> list:
    return [node for tree in _TREES.values() for node in ast.walk(tree) if isinstance(node, kind)]


@pytest.mark.parametrize("tag", _format_tags())
def test_every_format_tag_is_read_once_and_written_once(tag):
    # A tag that no writer emits is a reader kept for documents nothing writes.
    readers = [
        call for call in _nodes(ast.Call)
        if isinstance(call.func, ast.Name) and call.func.id == "decode"
        and len(call.args) > 1 and tag in _reads(call.args[1])
    ]
    writers = [
        func.name for func in _nodes(ast.FunctionDef)
        if func.name.endswith("_to_dict") and tag in _reads(func)
    ]
    assert len(readers) == 1, f"{tag} is the expected tag of {len(readers)} decode calls"
    assert len(writers) == 1, f"{tag} is written by {len(writers)} *_to_dict functions: {writers}"


def _bound(node):
    """0, inf or -inf for a literal `0`, `<...>.inf` or `-<...>.inf`, else None."""
    if isinstance(node, ast.Constant) and node.value == 0:
        return 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        bound = _bound(node.operand)
        return None if bound is None else -bound
    if isinstance(node, ast.Attribute) and node.attr == "inf":
        return math.inf
    return None


# The bounds of the comparisons checked: `0 < x < inf` and `0 <= x < inf`,
# `-inf < x < inf`, and `-inf < x <= 0`.
_SCALAR_RANGES = ({0, math.inf}, {-math.inf, math.inf}, {-math.inf, 0})


def _open_range_checks(tree) -> list:
    """Each `lo < x < hi` comparison, `<=` on either side, whose bounds are a scalar range."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and len(node.ops) == 2
        and all(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)
        and {_bound(node.left), _bound(node.comparators[1])} in _SCALAR_RANGES
    ]


def test_scalar_range_checks_are_formats_rules():
    # The rules themselves are such comparisons, so the search finds them.
    assert len(_open_range_checks(_TREES["formats.py"])) == 2
    found = [
        f"{module}:{node.lineno}"
        for module, tree in sorted(_TREES.items()) if module != "formats.py"
        for node in _open_range_checks(tree)
    ]
    assert not found, f"hand-written scalar range checks (use formats' rules): {found}"
