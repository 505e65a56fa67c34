"""The package's public names: each module's ``__all__``, re-exported by ``posetff``.

``posetff/__init__.py`` star-imports its modules, so a name listed by two
modules would be shadowed silently by the later import.
"""

import ast
import importlib
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
