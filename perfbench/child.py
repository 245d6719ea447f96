"""One benchmark sample, run in a fresh Python process by run.py.

Usage: python3 perfbench/child.py SPEC_JSON SPAWNED_AT TRACE

SPEC_JSON is a workload spec (see workloads.py), SPAWNED_AT the parent's
`time.perf_counter()` just before it started this process (CLOCK_MONOTONIC
on Linux, so the two clocks agree), and TRACE is 0 or 1.  The process must
be started from the root of a sixfold checkout.  It prints one JSON object
on stdout: the sample's timings, the host's speed around the entry call
(`calib_s`), its checks and wrong verdicts, the digest of its outputs and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


CALIBRATION_LOOPS = 500_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop of dict and integer work takes now.

    It does not touch sixfold, so it times the host alone; run.py scales the
    sample's times by it to take out the host's drift in speed.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = i * 7919 % 5003
        counts[key] = counts.get(key, 0) + i * i
    return time.perf_counter() - t0


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    spec, spawned_at, traced = json.loads(argv[0]), float(argv[1]), argv[2] == "1"
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.dirname(os.path.abspath(__file__))]

    import sixfold.cli
    import sixfold.verify
    from sixfold import GeneralParams

    import workloads

    if spec["call"] == "run_all":
        bounds = dict(spec["bounds"])
        bounds["general_cases"] = tuple(
            (GeneralParams(lam, k, a), extra, n_max)
            for lam, k, a, extra, n_max in bounds["general_cases"]
        )
        config = sixfold.verify.SuiteConfig(**bounds)

        def entry():
            return sixfold.verify.run_all(config)

    else:
        cli_argv = list(spec["argv"])

        def entry():
            return sixfold.cli.main(cli_argv)

    setup_s = time.perf_counter() - spawned_at
    calib_before = calibrate()

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        result = entry()
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    calib_s = (calib_before + calibrate()) / 2

    if spec["call"] == "run_all":
        verdicts = [(r.identity, r.n, r.passed, r.residual_terms) for r in result]
        checks, wrong, digest = workloads.judge(spec, verdicts=verdicts)
    elif "sha256" in spec:
        checks, wrong, digest = workloads.judge(spec, stdout=stdout.getvalue(), exit_code=result)
    else:
        verdicts = workloads.parse_report_lines(stdout.getvalue())
        checks, wrong, digest = workloads.judge(spec, verdicts=verdicts, exit_code=result)

    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "calib_s": calib_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        "wrong_verdicts": wrong,
        "digest": digest,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
