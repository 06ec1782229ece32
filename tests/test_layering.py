"""The package's imports run one way, and none is deferred into a function.

Each module may import only modules listed before it in ``ORDER``, so the
module graph has no cycle and no import has to wait for call time.
"""
import ast
from pathlib import Path

import pytest

ORDER = [
    "report",
    "freegroup",
    "garside",
    "braid",
    "wiring",
    "liealg",
    "monomial",
    "arrangements",
    "cli",
]
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "braidforge"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_order_lists_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_no_import_inside_a_function(module):
    for fn in ast.walk(_tree(module)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines = [node.lineno for node in ast.walk(fn)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not lines, f"{module}.{fn.name} imports at lines {lines}"


@pytest.mark.parametrize("module", ORDER)
def test_relative_imports_name_earlier_modules(module):
    earlier = set(ORDER[: ORDER.index(module)])
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                assert name.split(".")[0] in earlier, (
                    f"{module} imports {name}, which is not listed before it"
                )
