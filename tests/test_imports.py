"""The runtime is stdlib-only: numpy or sympy may be installed next to it,
so an accidental import of either would pass every other test."""

import ast
import sys
from pathlib import Path

SOURCE_DIR = Path(__file__).parent.parent / "src" / "sixfold"


def test_sources_import_only_the_standard_library():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert len(sources) >= 6
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports pass
                modules = [node.module]
            else:
                continue
            outside += [
                (path.name, m) for m in modules if m.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
