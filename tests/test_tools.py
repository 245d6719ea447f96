"""The checked-in tools under tools/, run on small known inputs."""

import sys
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
try:
    from code_lines import code_lines, main
finally:
    sys.path.remove(str(TOOLS))

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # code with a comment


def f(x):
    """One-line docstring."""
    "a bare string statement"
    y = (x +
         1)
    return f"""{y}
"""


class C:
    """Docstring."""

    z = 1
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # import, def, the two lines of y, the two of the return, class and z
    assert code_lines(SOURCE) == 8
    assert code_lines("") == 0 and code_lines('"""only a docstring"""\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("(total)")
