"""The only runtime dependency is numpy: every module of the package
imports from the standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "routeseg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "routeseg"}


def imported_roots(source: str):
    """Top-level names of the absolute imports in ``source``, nested ones too."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imported_roots_sees_nested_and_skips_relative_imports():
    source = "import os.path\nfrom . import tensor\ndef f():\n    from scipy import linalg\n"
    assert list(imported_roots(source)) == ["os", "scipy"]


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = [f"{m.name}: {root}" for m in modules
               for root in imported_roots(m.read_text(encoding="utf-8"))
               if root not in ALLOWED]
    assert not outside, outside
