"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


# ------------------------------------------------------------------ smoke


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_every_workload_runs_at_tiny_bounds_traced_and_untraced(name):
    spec = workloads.with_seed(workloads.TINY[name], seed=3)
    deadline = time.perf_counter() + 120
    plain = run.run_sample(ROOT, spec, False, deadline)
    traced = run.run_sample(ROOT, spec, True, deadline)
    assert plain["checks"] >= 1
    assert plain["wrong_verdicts"] == traced["wrong_verdicts"] == 0
    assert traced["digest"] == plain["digest"]
    assert set(traced["layers"]) | {"trace.overhead_s"} == _declared("per_layer")
    assert 0 < plain["setup_s"] and 0 < plain["run_s"] and plain["peak_rss_mib"] > 1


def test_run_prints_every_declared_metric_and_fails_on_a_tripped_gate(
    monkeypatch, capsys
):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "WORKLOADS", workloads.TINY)
    assert run.main(["--workload", "series-deep", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == _declared("end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_SAMPLES

    broken = dict(workloads.TINY["series-deep"], sha256="0" * 64)
    monkeypatch.setattr(workloads, "WORKLOADS", {"series-deep": broken})
    assert run.main(["--workload", "series-deep", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] == run.MIN_SAMPLES


def test_run_refuses_a_directory_without_the_program():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "not a sixfold checkout" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_times_scale_to_the_reference_host_speed():
    slow_host = {"setup_s": 0.2, "run_s": 4.0, "cpu_s": 3.0, "calib_s": 2 * run.REF_CALIB_S,
                 "peak_rss_mib": 40.0, "checks": 7}
    assert run.scaled(slow_host) == dict(slow_host, setup_s=0.1, run_s=2.0, cpu_s=1.5)


# ------------------------------------------------------------------- gate


def test_gate_pins_the_known_lemma3_finding():
    bounds = workloads.DESK_BOUNDS
    expected = workloads.expected_verdicts(bounds)
    assert len(expected) == 124
    assert [v for v in expected if not v[2]] == [("Lemma3", 0, False, 19)]


def test_gate_counts_each_kind_of_mismatch_once():
    spec = workloads.TINY["recurrence-deep"]
    good = workloads.expected_verdicts(spec["bounds"])
    assert workloads.judge(spec, verdicts=good)[1] == 0
    assert workloads.judge(spec, verdicts=list(reversed(good)))[1] == 0

    def wrong(verdicts):
        return workloads.judge(spec, verdicts=verdicts)[1]

    flipped = [(i, n, not p, t) if (i, n) == ("J", 1) else (i, n, p, t) for i, n, p, t in good]
    assert wrong(flipped) == 1
    residual = [(i, n, p, 18) if (i, n) == ("Lemma3", 0) else (i, n, p, t) for i, n, p, t in good]
    assert wrong(residual) == 1
    assert wrong([v for v in good if v[:2] != ("K", 2)]) == 1
    assert wrong(good + [("K", 2, True, 0)]) == 1
    assert wrong(good + [("J", 99, True, 0)]) == 1


def test_gate_checks_the_cli_exit_code_and_the_series_digest():
    desk = workloads.TINY["desk"]
    good = workloads.expected_verdicts(desk["bounds"])
    assert workloads.judge(desk, verdicts=good, exit_code=1)[1] == 0
    assert workloads.judge(desk, verdicts=good, exit_code=0)[1] == 1

    series = workloads.TINY["series-deep"]
    assert workloads.judge(series, stdout="0\n", exit_code=0)[:2] == (1, 1)
    assert workloads.judge(series, stdout="0\n", exit_code=1)[:2] == (1, 1)


def test_report_lines_parse_without_ms():
    line = '{"identity": "J", "n": 3, "pass": true, "residual_terms": 0, "ms": 41}'
    assert workloads.parse_report_lines(line + "\n") == [("J", 3, True, 0)]


# ------------------------------------------------------------------ spans


def test_self_time_arithmetic_on_a_hand_built_tree():
    tree = [
        ("verify", 0.0, 10.0, -1),  # 0
        ("recurrence.residual.J", 1.0, 6.0, 0),  # 1
        ("recurrence.fill", 1.5, 3.5, 1),  # 2
        ("poly.mul_mono", 2.0, 2.5, 2),  # 3
        ("poly.mul", 4.0, 5.0, 1),  # 4
        ("partitions.oracle", 7.0, 9.0, 0),  # 5
        ("poly.add", 9.2, 9.8, 0),  # 6
        ("recurrence.fill", 9.3, 9.5, 6),  # 7
    ]
    own = spans.self_times(tree)
    assert own["verify"] == pytest.approx(10 - 5 - 2 - 0.6)
    assert own["recurrence.residual.J"] == pytest.approx(5 - 2 - 1)
    assert own["recurrence.fill"] == pytest.approx((2 - 0.5) + 0.2)
    assert own["poly.add"] == pytest.approx(0.6 - 0.2)
    assert own["poly.mul"] == pytest.approx(1.0)

    with_poly = spans.self_times(tree, absorbed=spans.POLY_SPANS)
    assert with_poly["recurrence.residual.J"] == pytest.approx(5 - 2)
    assert with_poly["recurrence.fill"] == pytest.approx(2 + 0.2)
    # the fill under the absorbed poly.add is charged to verify
    assert with_poly["verify"] == pytest.approx(10 - 5 - 2 - 0.2)


def test_missing_wrap_target_is_named_and_nothing_stays_wrapped(monkeypatch):
    from sixfold import poly, recurrence

    add = poly.TriPoly.__add__
    monkeypatch.delattr(recurrence, "product_truncated")
    tracer = spans.Tracer()
    with pytest.raises(spans.TargetMissing, match="sixfold.recurrence.product_truncated"):
        tracer.install()
    assert poly.TriPoly.__add__ is add


def test_tracer_counts_and_restores(monkeypatch):
    from sixfold import partitions, poly, recurrence

    add = poly.TriPoly.__add__
    tracer = spans.Tracer()
    tracer.install()
    try:
        memo = recurrence.SeriesMemo()
        assert recurrence.lemma3_residual(1, memo).is_zero()
        assert partitions.s_oracle(0, 15) == memo.s(0, 15)
        partitions.count_table("B", 12)
    finally:
        tracer.uninstall()
    assert poly.TriPoly.__add__ is add
    m = tracer.metrics()
    assert m["poly.shift.calls"] == 2  # p1 and p2 at level 0; S(-2, 15) = 0 skips p3
    assert m["recurrence.fill.entries"] == 32  # S(0, 0..15) and S(1, 0..15)
    assert m["partitions.oracle.partitions"] == sum(
        t[0] for t in partitions.s_oracle(0, 15).terms()
    )
    assert 0 < m["partitions.is_valid_B.accept_ratio"] < 1
    assert m["partitions.count_table.B_s"] > 0 == m["partitions.count_table.A_s"]
    assert m["recurrence.residual.lemma3_s"] > 0
    assert m["cli.self_s"] == 0
