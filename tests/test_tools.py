"""The checked-in tools under tools/, run on small known inputs."""

import sys
from pathlib import Path

from sixfold.partitions import count_table, is_valid_B

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


def test_the_census_gap_shows_in_the_value_dp_over_is_valid_B():
    # the one survivor of verify --suite all that is not equivalent: the
    # window loop stops at parts[0] // 7 + 1, so the part 69 = 6*11 + 3 is
    # admitted; the window plan reads windows 0..2 and the default bounds
    # never reach 69, so only the value DP over is_valid_B at q = 120 sees it
    source = (PACKAGE / "partitions.py").read_text()
    (mutant,) = [t for label, t in mutants(source) if label.endswith("'parts[0] // 6' 6 -> 7")]
    module = {"__name__": "sixfold.mutant", "__package__": "sixfold"}
    exec(compile(mutant, "partitions.py", "exec"), module)
    valid = module["is_valid_B"]
    assert valid([69]) and not is_valid_B([69])
    dp = module["_value_dp"](120, 9, valid, lambda v: module["profile_B"]([v]))
    assert dp != count_table("B", 120)


# the 11 survivors of verify --suite all that tools/mutants.py names as
# equivalent, by their labels less the source position
EQUIVALENT = (
    "'parts[0] // 6' 6 -> 5",
    "'parts[0] // 6 + 2' 2 -> 1",
    "'parts[0] // 6 + 2' 2 -> 3",
    *(
        f"'g({v}, 0)' 0 -> -1"
        # the values of the two two-value caps, then of the widest cap
        for v in ("base + 2", "base + 4", "base + 5", "base + 7")
        + ("base - 1", "base", "base + 6", "base + 7")
    ),
)


def test_the_equivalent_survivors_count_side_B_alike():
    source = (PACKAGE / "partitions.py").read_text()
    census = [(label.split(" ", 2)[2], text) for label, text in mutants(source)]
    equivalent = [(label, text) for label, text in census if label in EQUIVALENT]
    assert sorted(label for label, _ in equivalent) == sorted(EQUIVALENT)
    table = count_table("B", 120)
    for label, text in equivalent:
        module = {"__name__": "sixfold.mutant", "__package__": "sixfold"}
        exec(compile(text, "partitions.py", "exec"), module)
        dp = module["_value_dp"](120, 9, module["is_valid_B"], lambda v: module["profile_B"]([v]))
        assert dp == table, label


def test_digests_name_each_output_once_and_repeat_on_cheap_ones():
    # 23 CLI runs, Link on 17 memos, J to Lemma4 on 16, 6 count-table groups,
    # 21 oracle levels, 14 general series, two for each default case, and
    # the two families over the small triples
    outputs = dict(entries(PACKAGE.parent))
    assert len(entries(PACKAGE.parent)) == len(outputs) == 99
    for name in ("link_residual n=0..6 rules seed 0", "s_oracle n=4"):
        assert len(digest(outputs[name])) == 64
        assert digest(outputs[name]) == digest(outputs[name]), name
