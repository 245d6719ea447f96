import contextlib
import hashlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DISPLAY_S0_15
from sixfold import recurrence
from sixfold.cli import main
from sixfold.verify import SUITES, SuiteConfig

S0_15_TEXT = (
    "1*a^0*b^0*q^0 + 1*a^1*b^0*q^1 + 1*a^1*b^0*q^2 + 1*a^2*b^0*q^3 + "
    "1*a^0*b^1*q^4 + 1*a^0*b^1*q^5 + 1*a^1*b^1*q^5 + 2*a^1*b^1*q^6 + "
    "1*a^1*b^1*q^7 + 1*a^2*b^1*q^7 + 1*a^2*b^1*q^8 + 1*a^0*b^2*q^9 + "
    "1*a^1*b^2*q^10 + 1*a^1*b^2*q^11 + 1*a^2*b^2*q^12"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_text_matches_reference_display(capsys):
    code, out, _ = run_cli(capsys, "series", "--n", "0", "--j", "15", "--source", "oracle", "--format", "text")
    assert code == 0
    assert out.strip() == S0_15_TEXT
    assert out.strip() == DISPLAY_S0_15.to_text()


def test_series_both_sources_agree(capsys):
    _, oracle_out, _ = run_cli(capsys, "series", "--n", "1", "--j", "9", "--source", "oracle")
    _, rec_out, _ = run_cli(capsys, "series", "--n", "1", "--j", "9", "--source", "recurrence")
    assert oracle_out == rec_out


def test_series_json_format(capsys):
    code, out, _ = run_cli(capsys, "series", "--n", "0", "--j", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [["1", 0, 0, 0], ["1", 1, 0, 1]]


def test_series_base_level(capsys):
    code, out, _ = run_cli(capsys, "series", "--n", "-1", "--j", "7")
    assert code == 0 and out.strip() == "1*a^0*b^0*q^0"


def test_series_rejects_bad_level(capsys):
    code, _, err = run_cli(capsys, "series", "--n", "-2", "--j", "7")
    assert code == 2 and "error:" in err


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    def broken_fill(self, n, j):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(recurrence.SeriesMemo, "s", broken_fill)
    code, out, err = run_cli(capsys, "series", "--n", "1", "--j", "15", "--source", "recurrence")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_counts_csv_contains_reference_row(capsys):
    code, out, _ = run_cli(capsys, "counts", "--side", "B", "--n-max", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,nu,N,count"
    assert "1,1,6,2" in lines


def test_counts_csv_and_json(capsys):
    _, out, _ = run_cli(capsys, "counts", "--side", "B", "--n-max", "6", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "mu,nu,N,count"
    assert "1,1,6,2" in lines
    ns = [int(line.split(",")[2]) for line in lines[1:]]
    assert ns == sorted(ns)
    _, out, _ = run_cli(capsys, "counts", "--side", "B", "--n-max", "6", "--format", "json")
    assert [1, 1, 6, "2"] in json.loads(out)


@pytest.mark.parametrize(
    "side, n_max, fmt, digest",
    [
        ("B", 40, "csv", "e9d4b98c761e8c413cd8de9f8cb025f7f84ec9e8543979ce671231dde7215dae"),
        ("A", 40, "json", "34fc02881bfe37c247e3cb6912542972402fb15d19412f81e599db6fa4d0bc2a"),
        ("A", 0, "csv", "89c19a687bb3f4bc67378ef169a4bba5c82344c8012d664e813da2533fd857e8"),
        ("B", 0, "json", "da47fa0478fcb2907bbda82b8f30321c24a85033184867197500b69cedece165"),
    ],
    ids=["B-40-csv", "A-40-json", "A-0-csv", "B-0-json"],
)
def test_counts_output_bytes_are_pinned(capsys, side, n_max, fmt, digest):
    code, out, _ = run_cli(capsys, "counts", "--side", side, "--n-max", str(n_max), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_counts_json(capsys):
    code, out, _ = run_cli(capsys, "counts", "--side", "A", "--n-max", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [1, 1, 6, "2"] in rows


def test_verify_lemma1_emits_14_passing_lines(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma1", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    parsed = [json.loads(line) for line in lines]
    assert all(obj["pass"] for obj in parsed)
    assert {obj["identity"] for obj in parsed} == {"J", "K"}
    assert err == ""


def test_verify_oracle_level_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--n-max", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 16


def test_verify_theorem3(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem3", "--q-max", "12")
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["identity"] == "Theorem3" and obj["n"] == 12


def test_verify_lemma3_reports_the_level0_finding(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma3", "--n-max", "2")
    assert code == 1
    parsed = [json.loads(line) for line in out.strip().splitlines()]
    assert [obj["pass"] for obj in parsed] == [False, True, True]
    assert "FAIL Lemma3 n=0" in err
    assert "1*a^1*b^1*q^0" in err


def _verdict_rows(out):
    rows = [json.loads(line) for line in out.strip().splitlines()]
    return [(r["identity"], r["n"], r["pass"], r["residual_terms"]) for r in rows]


def test_suite_choices_and_defaults_come_from_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    choices = ",".join(["all", *SUITES, "theorem3"])
    assert f"--suite {{{choices}}}" in capsys.readouterr().out

    _, out, _ = run_cli(capsys, "verify", "--suite", "all")
    full = _verdict_rows(out)
    top = {identity: n for identity, n, _, _ in full}  # rows ascend in n
    assert [top[i] for i in ("J", "K", "Link", "Lemma2", "Lemma3", "Lemma4", "Rec31")] == [
        6, 6, 5, 4, 4, 4, 4
    ]
    # a single suite without --n-max checks exactly what --suite all checks
    for name, entry in SUITES.items():
        identities = {identity for identity, _ in entry.checks}
        _, out, _ = run_cli(capsys, "verify", "--suite", name)
        rows = _verdict_rows(out)
        assert sorted(rows) == sorted(row for row in full if row[0] in identities), name
    _, out, _ = run_cli(capsys, "verify", "--suite", "theorem3")
    assert json.loads(out)["n"] == SuiteConfig().q_max_theorem
    _, default, _ = run_cli(capsys, "product")
    _, explicit, _ = run_cli(capsys, "product", "--q-max", str(SuiteConfig().q_max_theorem))
    assert default == explicit


@pytest.mark.parametrize("suite", ["all", *SUITES, "theorem3"])
def test_verify_rejects_a_negative_q_max_for_every_suite(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", "0", "--q-max", "-7")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_determinism_modulo_timing(capsys):
    def stripped():
        _, out, _ = run_cli(capsys, "verify", "--suite", "lemma2", "--n-max", "2")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        for row in rows:
            row.pop("ms")
        return rows

    assert stripped() == stripped()


def test_general_theorem1_case(capsys):
    code, out, _ = run_cli(capsys, "general", "--lambda", "2", "--k", "3", "--a", "2", "--n-max", "12")
    assert code == 0
    assert json.loads(out.strip())["identity"] == "Theorem1"


def test_general_extra_cases(capsys):
    code, out, _ = run_cli(
        capsys, "general", "--lambda", "4", "--k", "3", "--a", "3", "--extra", "b0-433", "--n-max", "12"
    )
    assert code == 0
    assert json.loads(out.strip())["identity"] == "Conj433"
    code, out, _ = run_cli(
        capsys, "general", "--lambda", "5", "--k", "3", "--a", "3", "--extra", "b0-533", "--n-max", "12"
    )
    assert code == 0
    assert json.loads(out.strip())["identity"] == "Thm2Consistency"


def test_general_mismatched_extra_is_a_config_error(capsys):
    code, _, err = run_cli(
        capsys, "general", "--lambda", "4", "--k", "3", "--a", "3", "--extra", "b0-533"
    )
    assert code == 2 and "error:" in err


def test_general_bad_theorem1_params(capsys):
    code, _, err = run_cli(capsys, "general", "--lambda", "3", "--k", "2", "--a", "2")
    assert code == 2 and "error:" in err


def test_general_theorem1_boundary_is_a_config_error():
    # a = lam/2 is outside Theorem1 (the families differ from n = 1 on)
    argv = ["general", "--lambda", "2", "--k", "2", "--a", "1", "--n-max", "30"]
    code, out, err = _run_captured(argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize(
    "args, line",
    [
        (
            "--lambda 2 --k 3 --a 2 --n-max -1",
            "general case GeneralParams(lam=2, k=3, a=2): n_max must be >= 0",
        ),
        (
            "--lambda 4 --k 3 --a 3 --extra b0-433 --n-max -1",
            "general case GeneralParams(lam=4, k=3, a=3): n_max must be >= 0",
        ),
        (
            "--lambda 4 --k 3 --a 3 --extra b0-533",
            "extra 'b0-533' requires lam=5 k=3 a=3, got GeneralParams(lam=4, k=3, a=3)",
        ),
        (
            "--lambda 3 --k 2 --a 2",
            "params GeneralParams(lam=3, k=2, a=2) violate lam/2 < a <= k and k >= lam",
        ),
        (
            "--lambda 2 --k 2 --a 1",
            "params GeneralParams(lam=2, k=2, a=1) violate lam/2 < a <= k and k >= lam",
        ),
        (
            "--lambda 0 --k 2 --a 1",
            "lam, k and a must be positive, got GeneralParams(lam=0, k=2, a=1)",
        ),
        (
            "--lambda -1 --k 1 --a 1",
            "lam, k and a must be positive, got GeneralParams(lam=-1, k=1, a=1)",
        ),
        (
            "--lambda 3 --k 1 --a 1",
            "params GeneralParams(lam=3, k=1, a=1) violate lam/2 < a <= k and k >= lam",
        ),
        (
            "--lambda 4 --k 4 --a 3 --extra b0-433",
            "extra 'b0-433' requires lam=4 k=3 a=3, got GeneralParams(lam=4, k=4, a=3)",
        ),
        (
            "--lambda 5 --k 9 --a 9 --extra b0-533",
            "extra 'b0-533' requires lam=5 k=3 a=3, got GeneralParams(lam=5, k=9, a=9)",
        ),
    ],
)
def test_general_error_lines_are_pinned(args, line):
    code, out, err = _run_captured(["general", *args.split()])
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv, digest",
    [
        # the digest perfbench pins for its series-deep workload (SERIES_SHA256[9])
        (
            "series --n 9 --j 15 --source recurrence --format json",
            "29488957560117e39248bbbf53684d996b6449ca5c81c11d440ce74736103429",
        ),
        (
            "series --n 4 --j 15 --source oracle --format text",
            "65bd896af1ecdbf7e07490ae3acf3fca74b4e4c6f618d5cef433cc7aab54903a",
        ),
        ("product --q-max 50", "2746a537abdd1285d3fff75a9bcd6addd0799f97aada04e82968522be4a68e4c"),
        # taken from the printer that read biased digits through a per-term
        # callback, so they pin the bytes independently of the printer
        (
            "series --n 6 --j 15 --source recurrence --format text",
            "d56f4b9d3a628694f1e046f56977da12d7c5412ce0e08657af25aaba0725d77a",
        ),
        (
            "series --n 6 --j 15 --source recurrence --format json",
            "d8c628dea83f6c108c4e69fddcab681bb9421d7b987bf365d9942658ffea36f9",
        ),
        ("product --q-max 60", "6acba8851b67a2670b8342fb965b156763b09acb799d999f33bc2933b0f3f5e7"),
    ],
    ids=[
        "series-9-recurrence-json",
        "series-4-oracle-text",
        "product-50",
        "series-6-recurrence-text",
        "series-6-recurrence-json",
        "product-60",
    ],
)
def test_polynomial_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_output_bytes_are_pinned(capsys):
    """`verify --suite all` at the default bounds: stdout bit-identical apart
    from `ms`, the one `Lemma3 n=0` FAIL block on stderr, exit 1."""
    code, out, err = run_cli(capsys, "verify", "--suite", "all")
    out = re.sub(r'"ms": \d+', '"ms": 0', out)
    assert (code, len(out.splitlines()), len(err.splitlines())) == (1, 124, 20)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5629ccc5b647bdaad980dc18bd5ba1df1e108f2d5c3634c1be687914bac8c5e1"
    )
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "9040584bf1925359fee3af97908e053f59f9c28cb4b1af8067e3f5f1fd3b3cdb"
    )


def test_product_golden(capsys):
    code, out, _ = run_cli(capsys, "product", "--q-max", "3")
    assert code == 0
    assert out.strip() == "1*a^0*b^0*q^0 + 1*a^1*b^0*q^1 + 1*a^1*b^0*q^2 + 1*a^2*b^0*q^3"


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--side", "A", "--bogus"])
    assert exc.value.code == 2


def test_exit_1_when_any_check_fails(capsys):
    # counts/series/product are pure serializations and exit 0; a failing
    # check must surface as exit 1 (the level-0 finding is a handy one)
    code, _, _ = run_cli(capsys, "verify", "--suite", "lemma3")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "--suite", "lemma2")
    assert code == 0


# ------------------------------------------------------ argument edges


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv):
    """Exit 0, 1 (a check failed) or 2 (one `error:` line), never a traceback."""
    code, _, err = _run_captured(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    if code == 1:
        assert err.startswith("FAIL ") and "error:" not in err, (argv, err)


_small = st.integers(min_value=-3, max_value=30)


@pytest.mark.parametrize("n_max", ["3", "20"])
def test_general_at_a_huge_lambda_exits_within_seconds(n_max):
    # each family-B call once summed every first-window cap over 1..lam+1,
    # and each value DP state held lam + 1 entries
    start = time.perf_counter()
    argv = ["general", "--lambda", "99999", "--k", "99999", "--a", "99999", "--n-max", n_max]
    code, out, err = _run_captured(argv)
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert json.loads(out)["pass"] is True


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A", "B"]), _small, st.sampled_from(["csv", "json"]))
def test_counts_arguments_at_their_edges(side, n_max, fmt):
    _assert_clean_exit(["counts", "--side", side, "--n-max", str(n_max), "--format", fmt])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=-4, max_value=3),
    st.integers(min_value=-3, max_value=18),
    st.sampled_from(["oracle", "recurrence"]),
)
def test_series_arguments_at_their_edges(n, j, source):
    _assert_clean_exit(["series", "--n", str(n), "--j", str(j), "--source", source])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=-2, max_value=6),
    st.integers(min_value=-2, max_value=6),
    st.integers(min_value=-2, max_value=6),
    st.sampled_from(["none", "b0-433", "b0-533"]),
    _small,
)
def test_general_arguments_at_their_edges(lam, k, a, extra, n_max):
    argv = ["general", "--lambda", str(lam), "--k", str(k), "--a", str(a), "--extra", extra]
    _assert_clean_exit([*argv, "--n-max", str(n_max)])
