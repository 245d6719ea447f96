"""Mutation census of the side-B predicate `is_valid_B`: which single
changes to it does `sixfold verify --suite all` miss?

The census is read from the predicate's syntax tree, in source order:

* every integer constant, moved by -1 and by +1;
* every cap dropped, a cap being an `if` whose test reads the
  multiplicities through `g`;
* every order comparison with its strictness flipped (< and <=, > and >=).

Constants that index the list (inside a subscript, or added to len(parts))
are left out: moved by one, they read past the end of the list, so the
predicate raises IndexError instead of stating another side B.

Each mutant runs `sixfold verify --suite all` in a fresh process on a
temporary copy of the package, so what the package derives from the
predicate at import (the window classes) sees the mutant.  A mutant
survives when its stdout (every `ms` zeroed), stderr and exit code are
those of the unmutated package.

    python3 tools/mutants.py [PACKAGE_DIR]      # default: src/sixfold

prints one line per survivor, one per mutant that ended in an internal
error (exit 3) or ran out of time, and a summary line.

12 of the 71 mutants survive.  Eleven of them state the same side B, so
no check can catch them.  Here top = parts[0], the largest part, and a
value above it has multiplicity 0:

* `parts[0] // 6` 6 -> 5, and `parts[0] // 6 + 2` 2 -> 3, only check
  more windows.  Every value in the extra windows lies above top, so
  every cap there sums to 0.
* `parts[0] // 6 + 2` 2 -> 1 skips only the window J = top // 6 + 1.
  There every value of a cap except 6J - 1 lies above top, so the widest
  cap sums to f(6J - 1) <= 1, and the others to 0.
* The eight `g(v, 0)` -> `g(v, -1)` in the three summed caps change a
  cap's sum only where its value v is absent, and lower it there by 1.
  On a list that passes the repeat rule and the two-apart rule, both
  checked first, a cap with an absent value already sums within its
  bound, so the lowered sum passes exactly where the unmutated one does.

The tier-1 test
tests/test_tools.py::test_the_equivalent_survivors_count_side_B_alike
runs these 11 in-process: the value DP over each one's `is_valid_B`
gives count_table("B", 120).

The twelfth is a known gap, not an equivalent predicate:
`parts[0] // 7 + 2` in the window loop checks the caps only up to window
index parts[0] // 7 + 1, which for the list [69] is 10, so the cap
f(6*11 + 3) = 0 goes unchecked and the predicate admits the part 69.
`verify --suite all` cannot see it: the window plan reads the predicate
at windows 0..2 only (parts up to 18), and the default bounds never
reach the part 69.  The tier-1 test
tests/test_partitions.py::test_count_table_b_equals_the_value_dp_over_is_valid_B
catches it, at q = 120, and
tests/test_tools.py::test_the_census_gap_shows_in_the_value_dp_over_is_valid_B
pins that it does.
"""

from __future__ import annotations

import ast
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

PREDICATE = "is_valid_B"
VERIFY = ("verify", "--suite", "all")
TIMEOUT_S = 600
_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _indexes_the_list(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether `node` lies in a subscript or in arithmetic on len(...)."""
    while node in parents:
        parent = parents[node]
        if isinstance(parent, ast.Subscript) and node is parent.slice:
            return True
        if isinstance(parent, ast.BinOp) and any(
            isinstance(side, ast.Call) and getattr(side.func, "id", None) == "len"
            for side in (parent.left, parent.right)
        ):
            return True
        node = parent
    return False


def _is_cap(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and any(
        isinstance(c, ast.Call) and getattr(c.func, "id", None) == "g" for c in ast.walk(node.test)
    )


def _edits(fn: ast.FunctionDef):
    """(node, label, change) for every mutation of `fn`, in source order;
    change(node) returns the node that replaces it."""
    parents = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
    located = [node for node in ast.walk(fn) if hasattr(node, "lineno")]
    for node in sorted(located, key=lambda n: (n.lineno, n.col_offset)):
        where = f"line {node.lineno}:{node.col_offset}"
        if isinstance(node, ast.Constant) and type(node.value) is int:
            if not _indexes_the_list(node, parents):
                for new in (node.value - 1, node.value + 1):
                    what = f"'{ast.unparse(parents[node])}' {node.value} -> {new}"
                    yield node, f"{where} {what}", lambda n, new=new: ast.Constant(new)
        elif _is_cap(node):
            yield node, f"{where} drop 'if {ast.unparse(node.test)}'", lambda n: ast.Pass()
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _FLIP:

                    def flip(n: ast.Compare, i: int = i) -> ast.Compare:
                        n.ops[i] = _FLIP[type(n.ops[i])]()
                        return n

                    yield node, f"{where} flip '{ast.unparse(node)}'", flip


class _Replace(ast.NodeTransformer):
    """Replaces the one node `target` by change(target)."""

    def __init__(self, target: ast.AST, change) -> None:
        self.target, self.change = target, change

    def visit(self, node: ast.AST):
        return self.change(node) if node is self.target else super().visit(node)


def mutants(source: str) -> list[tuple[str, str]]:
    """(label, mutated module source) for every mutation of the predicate
    in the module source `source`, in source order."""
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == PREDICATE)
    lines = source.splitlines(keepends=True)
    out = []
    for node, label, change in _edits(fn):
        mutated = copy.deepcopy(fn)
        twin = dict(zip(ast.walk(fn), ast.walk(mutated)))[node]
        body = ast.unparse(_Replace(twin, change).visit(mutated)) + "\n"
        before, after = "".join(lines[: fn.lineno - 1]), "".join(lines[fn.end_lineno :])
        out.append((label, before + body + after))
    return out


def run(
    package: Path, partitions_source: str | None = None, argv: tuple[str, ...] = VERIFY
) -> tuple[str, str, int | None]:
    """(stdout with every `ms` zeroed, stderr, exit code) of `sixfold <argv>`,
    by default `sixfold verify --suite all`, run in a fresh process on a copy
    of `package`, its partitions module replaced by `partitions_source` when
    given.  The exit code is None when the run took more than TIMEOUT_S
    seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        copy_dir = Path(tmp) / package.name
        shutil.copytree(package, copy_dir, ignore=shutil.ignore_patterns("__pycache__"))
        if partitions_source is not None:
            (copy_dir / "partitions.py").write_text(partitions_source)
        cmd = [
            sys.executable,
            "-c",
            "import sys; from sixfold.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        ]
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "", "", None
    return re.sub(r'"ms": \d+', '"ms": 0', proc.stdout), proc.stderr, proc.returncode


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/sixfold")
    reference = run(package)
    outcomes: Counter[str] = Counter()
    census = mutants((package / "partitions.py").read_text())
    for label, source in census:
        result = run(package, source)
        code = result[2]
        if result == reference:
            outcomes["survive"] += 1
            print(f"SURVIVES  {label}")
        elif code is None:
            outcomes["timeout"] += 1
            print(f"TIMEOUT   {label}")
        else:
            outcomes[f"exit {code}"] += 1
            if code == 3:
                print(f"EXIT 3    {label}: {result[1].strip()}")
    summary = ", ".join(f"{n} {what}" for what, n in sorted(outcomes.items()))
    print(f"{len(census)} mutants of {PREDICATE}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
