"""The package's public names: each module's ``__all__``, re-exported by ``posetff``.

``posetff/__init__.py`` star-imports its modules, so a name listed by two
modules would be shadowed silently by the later import.  Every public
function, class and method has a caller outside the tests.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import posetff


def star_imported_modules():
    """The modules that ``posetff/__init__.py`` star-imports, in import order."""
    tree = ast.parse(Path(posetff.__file__).read_text())
    return [
        importlib.import_module(f"posetff.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and [alias.name for alias in node.names] == ["*"]
    ]


MODULES = star_imported_modules()


def exported(module):
    """What a star import takes: ``__all__``, or else every name without a leading underscore."""
    default = [name for name in vars(module) if not name.startswith("_")]
    return getattr(module, "__all__", default)


def test_the_eight_modules_are_star_imported():
    assert [m.__name__ for m in MODULES] == [
        f"posetff.{name}" for name in ("adversary", "errors", "extension", "firstfit",
                                        "generators", "homomorphism", "jsonio", "order")
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    assert [name for name in exported(module) if not hasattr(module, name)] == []


def test_no_name_is_listed_twice():
    counts = Counter(name for module in MODULES for name in exported(module))
    assert [name for name, count in counts.items() if count > 1] == []


def test_every_listed_name_is_the_package_attribute():
    assert [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in exported(module)
        if getattr(posetff, name, None) is not getattr(module, name)
    ] == []


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posetff"
CALLERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def public_definitions(tree):
    """Each public module-level function or class, and each public method or
    property of a module-level class, as (qualified name, node, is_method)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def references(node):
    """How often each name is read under ``node``: keyed (is_attribute, name)."""
    return Counter(
        (True, n.attr) if isinstance(n, ast.Attribute) else (False, n.id)
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_function_is_referenced_outside_the_tests():
    # a public name the package, scripts, benchmark and CI never use is test-only
    # API; it belongs in tests/helpers.py.  A method is reached only as an
    # attribute, so a local variable of the same name does not count for it.
    # cli.main dispatches cmd_* by name.
    trees = {path: ast.parse(path.read_text()) for folder in CALLERS
             for path in sorted(folder.glob("*.py"))}
    total = sum(map(references, trees.values()), Counter())
    workflow = WORKFLOW.read_text()
    unreferenced = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node, is_method in public_definitions(tree):
            name = node.name
            outside = total - references(node)
            if is_method:
                used = outside[True, name] > 0 or re.search(rf"\.{name}\b", workflow)
            else:
                used = (outside[True, name] + outside[False, name] > 0
                        or re.search(rf"\b{name}\b", workflow) or name.startswith("cmd_"))
            if not used:
                unreferenced.append(qualname)
    assert not unreferenced, f"referenced only by the tests: {', '.join(unreferenced)}"
