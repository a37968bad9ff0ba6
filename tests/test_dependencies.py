"""The only runtime dependency is numpy: every module of the package
imports from the standard library, numpy or the package itself. The
package also holds exactly as many settable values, and as many lines,
as when they were last counted."""

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


# Parameter defaults plus @dataclass fields over src/routeseg/*.py. The count
# must equal the bound: a change that adds or removes options sets the bound
# to the new count and says why in CHANGES.md.
SETTABLE_BOUND = 195


def settable_values(source: str) -> int:
    """Parameter defaults, keyword-only ones included, plus the annotated
    fields of every @dataclass class in ``source``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(b, ast.AnnAssign) for b in node.body)
    return count


def test_settable_values_counts_defaults_and_dataclass_fields():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 1\n"
              "class B:\n    z: int = 2\n"
              "def f(a, b=1, *, c, d=2):\n    g = lambda e=3: e\n")
    assert settable_values(source) == 5


def test_package_adds_no_settable_values():
    count = sum(settable_values(m.read_text(encoding="utf-8"))
                for m in PACKAGE.glob("*.py"))
    assert count == SETTABLE_BOUND, \
        (f"{count} settable values, bound {SETTABLE_BOUND}: set SETTABLE_BOUND to "
         f"{count} and say why in a CHANGES.md line")


# Lines of src/routeseg/*.py as ``wc -l`` counts them. The count must equal
# the bound: a change that adds or removes lines sets the bound to the new
# count and says why in CHANGES.md.
SRC_LINE_BOUND = 4296


def test_package_adds_no_lines():
    # wc -l counts newline characters
    count = sum(m.read_bytes().count(b"\n") for m in PACKAGE.glob("*.py"))
    assert count == SRC_LINE_BOUND, \
        (f"{count} lines in src/routeseg, bound {SRC_LINE_BOUND}: set SRC_LINE_BOUND "
         f"to {count} and say why in a CHANGES.md line")
