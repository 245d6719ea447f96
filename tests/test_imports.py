"""The runtime is stdlib-only: numpy or sympy may be installed next to it,
so an accidental import of either would pass every other test.  Likewise
the sources must parse at the oldest Python that pyproject.toml declares,
since the tests may run on a newer one."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCE_DIR = ROOT / "src" / "sixfold"


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


def test_sources_parse_at_the_declared_python_floor():
    # a regex, as tomllib is 3.11+
    declared = re.search(
        r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M
    )
    floor = (int(declared[1]), int(declared[2]))
    for path in sorted(SOURCE_DIR.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_a_fresh_import_loads_no_introspection_module():
    """dataclasses pulls in inspect, ast, dis and tokenize, a cold start of
    several ms in every fresh process.  Checked in a subprocess, as pytest
    itself has loaded them all."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sixfold, sixfold.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')"
        " if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == []


def test_benchmark_tracer_wraps_and_restores_every_target():
    """perfbench/spans.py wraps public names of every layer from outside the
    package; a renamed or deleted target breaks only the benchmark, so it is
    installed and removed here, with no traced run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
