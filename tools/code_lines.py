"""Count the code lines of Python sources: every line that is not blank, a
comment or a docstring, read with `tokenize`.

A docstring is any statement made of string literals alone, so a bare
string between statements is left out too.  A statement spanning several
lines, a multi-line string argument included, counts each line it covers.

    python3 tools/code_lines.py [PATH ...]      # default: src/sixfold

prints one line per module and, for a directory, the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines of the Python source `source`."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        else:
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    for root in map(Path, argv or ["src/sixfold"]):
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for path in paths:
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path}")
        if root.is_dir():
            print(f"{total:6d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
