"""Workload definitions, their pinned expectations and the verdict gate.

A workload spec is a plain JSON-able dict, so the parent can hand it to a
fresh child process on the command line:

* ``{"call": "run_all", "bounds": {...}}`` runs
  ``verify.run_all(SuiteConfig(**bounds))``;
* ``{"call": "cli", "argv": [...], "exit_code": c, ...}`` runs
  ``sixfold.cli.main(argv)`` with stdout captured.  A spec with ``bounds``
  parses the captured report lines as verdicts; a spec with ``sha256``
  compares the digest of the captured stdout instead.

The expectations are pinned here, independently of the code under test:
every check passes except ``Lemma3`` at n = 0, which fails with exactly 19
residual terms (README, known finding 2).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

# The seven default general-family cases: (lam, k, a, extra, n_max).
GENERAL_CASES = (
    (2, 2, 2, None, 40),
    (2, 3, 2, None, 40),
    (2, 3, 3, None, 40),
    (3, 3, 2, None, 40),
    (3, 3, 3, None, 40),
    (4, 3, 3, "b0-433", 40),
    (5, 3, 3, "b0-533", 40),
)

DESK_BOUNDS = {
    "n_max_lemmas": 6,
    "n_max_fourth_order": 4,
    "n_max_oracle": 4,
    "q_max_theorem": 50,
    "general_cases": GENERAL_CASES,
}

# SHA-256 of `sixfold series --n N --j 15 --source recurrence --format json`
# stdout, keyed by N, taken from the commit that introduced this benchmark.
SERIES_SHA256 = {
    1: "5e12109499bbbae14e6cc90dd91467c629e9565095e067fc87e717b294f70fcc",
    9: "29488957560117e39248bbbf53684d996b6449ca5c81c11d440ce74736103429",
}

KNOWN_FAILURES = {("Lemma3", 0): (False, 19)}


def _general(n_max: int):
    return tuple((lam, k, a, extra, n_max) for lam, k, a, extra, _ in GENERAL_CASES)


def _verify_cli(n_max: int | None, q_max: int | None) -> dict:
    """`sixfold verify --suite all`, with the bounds the CLI then applies."""
    argv = ["verify", "--suite", "all"]
    bounds = dict(DESK_BOUNDS)
    if n_max is not None:
        argv += ["--n-max", str(n_max)]
        bounds.update(n_max_lemmas=n_max, n_max_fourth_order=n_max, n_max_oracle=n_max)
    if q_max is not None:
        argv += ["--q-max", str(q_max)]
        bounds["q_max_theorem"] = q_max
    return {"call": "cli", "argv": argv, "exit_code": 1, "bounds": bounds}


def _series_cli(n: int) -> dict:
    argv = ["series", "--n", str(n), "--j", "15", "--source", "recurrence", "--format", "json"]
    return {"call": "cli", "argv": argv, "exit_code": 0, "sha256": SERIES_SHA256[n]}


def _recurrence(n_lemmas: int, n_fourth: int) -> dict:
    bounds = {
        "n_max_lemmas": n_lemmas,
        "n_max_fourth_order": n_fourth,
        "n_max_oracle": 0,
        "q_max_theorem": 0,
        "general_cases": (),
    }
    return {"call": "run_all", "bounds": bounds}


def _enumeration(n_oracle: int, q_max: int, n_general: int) -> dict:
    bounds = {
        "n_max_lemmas": 0,
        "n_max_fourth_order": 0,
        "n_max_oracle": n_oracle,
        "q_max_theorem": q_max,
        "general_cases": _general(n_general),
    }
    return {"call": "run_all", "bounds": bounds}


# Full-size specs, as measured by run.py; TINY holds the same workloads at
# bounds small enough for the warm-up sample and the fast tests.
WORKLOADS = {
    "desk": _verify_cli(None, None),
    "recurrence-deep": _recurrence(7, 7),
    "series-deep": _series_cli(9),
    "enumeration-deep": _enumeration(4, 80, 45),
}

TINY = {
    "desk": _verify_cli(1, 10),
    "recurrence-deep": _recurrence(2, 2),
    "series-deep": _series_cli(1),
    "enumeration-deep": _enumeration(1, 20, 12),
}


def with_seed(spec: dict, seed: int) -> dict:
    """The spec with its seed-dependent inputs drawn: the order of the
    general-family cases handed to run_all.  Verdicts do not depend on it."""
    spec = json.loads(json.dumps(spec))
    bounds = spec.get("bounds")
    if spec["call"] == "run_all" and bounds["general_cases"]:
        random.Random(seed).shuffle(bounds["general_cases"])
    return spec


# ------------------------------------------------------------------ gate


def expected_verdicts(bounds: dict) -> list[tuple[str, int, bool, int]]:
    """(identity, n, pass, residual_terms) of every check a run with these
    bounds must report."""
    keys = [
        (f"Rec{16 + j}", n) for n in range(bounds["n_max_oracle"] + 1) for j in range(16)
    ]
    for n in range(bounds["n_max_lemmas"] + 1):
        keys += [("J", n), ("K", n)]
    keys += [("Link", n) for n in range(bounds["n_max_lemmas"])]
    for identity in ("Lemma2", "Lemma3", "Lemma4"):
        keys += [(identity, n) for n in range(bounds["n_max_fourth_order"] + 1)]
    keys += [("Product", bounds["q_max_theorem"]), ("Theorem3", bounds["q_max_theorem"])]
    for lam, k, a, extra, n_max in bounds["general_cases"]:
        if extra is None:
            keys.append(("Theorem1", 100 * lam + 10 * k + a))
        elif extra == "b0-433":
            keys.append(("Conj433", n_max))
        else:
            keys.append(("Thm2Consistency", n_max))
    return [(ident, n, *KNOWN_FAILURES.get((ident, n), (True, 0))) for ident, n in keys]


def wrong_verdicts(expected, actual) -> int:
    """Mismatches between two verdict lists, one per (identity, n) slot: a
    changed `pass` or `residual_terms`, a missing check or an extra check
    each count once.  Order is not compared."""
    missing = Counter(expected) - Counter(actual)
    extra = Counter(actual) - Counter(expected)
    per_slot_missing: Counter = Counter()
    per_slot_extra: Counter = Counter()
    for (ident, n, *_), count in missing.items():
        per_slot_missing[ident, n] += count
    for (ident, n, *_), count in extra.items():
        per_slot_extra[ident, n] += count
    slots = per_slot_missing.keys() | per_slot_extra.keys()
    return sum(max(per_slot_missing[s], per_slot_extra[s]) for s in slots)


def verdicts_digest(verdicts) -> str:
    return hashlib.sha256(json.dumps([list(v) for v in verdicts]).encode()).hexdigest()


def judge(spec: dict, verdicts=None, stdout: str = "", exit_code: int | None = None):
    """(checks, wrong_verdicts, digest) of one sample's outputs.

    A wrong exit code from the CLI counts as one more wrong verdict.
    """
    if "sha256" in spec:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return 1, int(digest != spec["sha256"] or exit_code != spec["exit_code"]), digest
    expected = expected_verdicts(spec["bounds"])
    wrong = wrong_verdicts(expected, verdicts)
    if spec["call"] == "cli" and exit_code != spec["exit_code"]:
        wrong += 1
    return len(expected), wrong, verdicts_digest(verdicts)


def parse_report_lines(stdout: str) -> list[tuple[str, int, bool, int]]:
    """Verdicts from `sixfold verify` stdout; `ms` is deliberately ignored."""
    rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return [(r["identity"], r["n"], r["pass"], r["residual_terms"]) for r in rows]
