"""The checked-in tools under tools/, run on small known inputs."""

import sys
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"
PACKAGE = Path(__file__).parent.parent / "src" / "sixfold"
sys.path.insert(0, str(TOOLS))
try:
    from code_lines import code_lines, main
    from digests import digest, entries
    from mutants import mutants, run
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


def test_mutants_census_reads_is_valid_B():
    source = (PACKAGE / "partitions.py").read_text()
    census = mutants(source)
    labels = [label for label, _ in census]
    assert len(census) == 71 == len(set(labels))
    assert sum("drop 'if" in label for label in labels) == 4
    assert sum(" flip '" in label for label in labels) == 5
    # every mutant differs from the module, and only inside is_valid_B
    start = source.index("def is_valid_B(")
    end = source.index("def profile_B(")
    for label, text in census:
        assert text != source, label
        assert text[:start] == source[:start], label
        assert text.endswith(source[end:]), label


def test_a_dropped_cap_fails_verify():
    # without f(6j+2) + f(6j+4) <= 1 one window admits (4, 2), a 17th class
    source = (PACKAGE / "partitions.py").read_text()
    (mutant,) = [t for label, t in mutants(source) if "drop 'if g(base + 2, 0)" in label]
    _, err, code = run(PACKAGE, mutant)
    fails = [line for line in err.splitlines() if line.startswith("FAIL ")]
    assert code == 1
    assert fails[0] == "FAIL Rec16 n=1: 1 residual terms"
    assert "FAIL Lemma3 n=0: 19 residual terms" in fails and len(fails) > 1


def test_a_cap_that_skips_window_0_is_a_config_error():
    # f(6j+5) + f(6j+7) <= 1 from j = 1 on: windows 0 and 1 are judged differently
    source = (PACKAGE / "partitions.py").read_text()
    cap = "        if g(base + 5, 0) + g(base + 7, 0) > 1:\n"
    assert source.count(cap) == 1
    mutant = source.replace(cap, "        if j and g(base + 5, 0) + g(base + 7, 0) > 1:\n")
    assert run(PACKAGE, mutant) == ("", "error: is_valid_B judges windows 0 and 1 differently\n", 2)


def test_digests_name_each_output_once_and_repeat_on_cheap_ones():
    # 7 CLI runs, Link on 17 memos, J to Lemma4 on 16, 6 count-table groups,
    # 21 oracle levels and 14 general series, two for each default case
    outputs = dict(entries(PACKAGE.parent))
    assert len(entries(PACKAGE.parent)) == len(outputs) == 81
    for name in ("link_residual n=0..6 rules seed 0", "s_oracle n=4"):
        assert len(digest(outputs[name])) == 64
        assert digest(outputs[name]) == digest(outputs[name]), name
