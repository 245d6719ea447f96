"""Fresh-process benchmark of sixfold.

Usage, from the root of a sixfold checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Each sample runs in a fresh single-threaded Python process (perfbench/
child.py), one at a time, so no cache of the previous sample survives.  One
warm-up sample per run, at tiny bounds, is discarded; then samples run
until `--seconds` have passed (at least MIN_SAMPLES).  With `--trace 0` the
run reports the medians of the end-to-end metrics, each sample's times
scaled to the reference host speed (see `scaled`); with `--trace 1` it
alternates untraced and traced samples and reports the medians of the
per-layer metrics, plus the tracing overhead.  Every sample's verdicts go through the gate in
workloads.py; any wrong verdict makes the run fail.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; metric names and units come from
BENCHMARK.json.  Exit status: 0 when every sample was correct, 1 when the
gate tripped or a sample crashed, 2 when the directory is not a sixfold
checkout.  `--workload all` runs every workload in turn and prefixes each
metric with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_SAMPLES = 3
RUN_BUDGET_S = 170.0  # a single-workload run must end well within 180 s
# Median seconds of child.calibrate() on the reference machine (2-vCPU VM,
# Python 3.11.7).  Its speed drifts by up to ±30% over minutes; scaling
# each sample by REF_CALIB_S / calib_s takes most of that drift out.
REF_CALIB_S = 0.15
TIMES = ("setup_s", "run_s", "cpu_s")


class SampleError(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def environment(root: Path) -> dict:
    """Facts recorded with each result: nproc, Python, commit, load."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "loadavg": os.getloadavg(),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git; None outside a repo or for a packed ref."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def run_sample(root: Path, spec: dict, traced: bool, deadline: float) -> dict:
    """Run one sample in a fresh process and return its parsed result."""
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(CHILD), json.dumps(spec), repr(spawned_at), "1" if traced else "0"]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=max(1.0, deadline - spawned_at)
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample exceeded the run budget of {RUN_BUDGET_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def scaled(sample: dict) -> dict:
    """The sample with its times in seconds at the reference host speed."""
    factor = REF_CALIB_S / sample["calib_s"]
    return {**sample, **{key: sample[key] * factor for key in TIMES}}


def _select(declared: dict[str, str], values: dict) -> dict:
    """`{name: {"value", "unit"}}` for exactly the declared metrics."""
    if set(declared) != set(values):
        raise KeyError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def measure(root: Path, name: str, seed: int, seconds: float, traced: bool, declared: dict) -> dict:
    """One run of one workload: warm-up, samples, gate, metrics, report."""
    spec = workloads.with_seed(workloads.WORKLOADS[name], seed)
    deadline = time.perf_counter() + RUN_BUDGET_S
    # Warm-up: the same workload at tiny bounds imports and runs the same
    # code, so bytecode and the file cache are warm, in a fraction of the time.
    run_sample(root, workloads.with_seed(workloads.TINY[name], seed), False, deadline)
    plain: list[dict] = []
    tagged: list[dict] = []
    stop = time.perf_counter() + seconds
    while len(plain) < MIN_SAMPLES or time.perf_counter() < stop:
        plain.append(run_sample(root, spec, False, deadline))
        if traced:
            tagged.append(run_sample(root, spec, True, deadline))

    samples = plain + tagged
    attempted = sum(s["checks"] for s in samples)
    failed = sum(s["wrong_verdicts"] for s in samples)
    # The wrappers must not change behaviour: every traced output digest
    # equals the untraced one.
    failed += sum(s["digest"] != plain[0]["digest"] for s in samples)

    print(f"{name}: seed {seed}, {len(plain)} untraced + {len(tagged)} traced samples, "
          f"1 warm-up discarded; medians (min .. max)")
    if traced:
        layers = {
            key: statistics.median(s["layers"][key] for s in tagged) for key in tagged[0]["layers"]
        }
        layers["trace.overhead_s"] = _median(tagged, "run_s") - _median(plain, "run_s")
        values = layers
    else:
        at_ref = [scaled(s) for s in plain]
        values = {key: _median(at_ref, key) for key in (*TIMES, "peak_rss_mib", "checks")}
    metrics = _select(declared, values)
    for key, metric in metrics.items():
        spread = ""
        if not traced:
            low, high = min(s[key] for s in at_ref), max(s[key] for s in at_ref)
            spread = f"  ({low:.6g} .. {high:.6g})"
        print(f"  {key:38s} {metric['value']:>14.6g} {metric['unit']}{spread}")
    if not traced:
        wall = "  ".join(f"{key} {_median(plain, key):.6g}" for key in TIMES)
        print(f"  unscaled medians: {wall} s; calib_s {_median(plain, 'calib_s'):.6g} s "
              f"against {REF_CALIB_S} s on the reference machine")
    print(f"  {'wrong_verdicts':38s} {failed:>14d} count  (of {attempted} checks)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sixfold" / "__init__.py").is_file():
        print(f"error: {root} is not a sixfold checkout (no src/sixfold)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    print("env " + json.dumps(environment(root)))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(root, name, args.seed, seconds, bool(args.trace), declared)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
