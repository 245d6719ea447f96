"""SHA-256 digests of sixfold's outputs, to compare two versions of the
package: run the tool on each and diff what it prints.

    python3 tools/digests.py [SRC_DIR]      # default: src

imports sixfold from SRC_DIR, the directory that holds the package, and
prints one `name sha256` line per output, in this order:

* `sixfold verify --suite all`, `sixfold verify --suite S --n-max 12`
  for S = lemma1, link, lemma2, lemma3 and lemma4, and
  `sixfold verify --suite oracle --n-max 10`; `sixfold verify --suite S`
  with no bound flag for every other choice S (oracle, lemma1, link,
  lemma2, lemma3, lemma4 and theorem3), `--suite theorem3 --q-max 120`
  and `--suite all --n-max 3 --q-max 30`; the refusals
  `--suite theorem3 --n-max 5`, `--suite lemma1 --q-max 5` and
  `--suite link --n-max -1`; then the printed polynomials of
  `sixfold series --n 9 --j 15 --source recurrence` as text and as JSON, of
  the same at `--n 12` as JSON (the level whose entries take 64-bit slots,
  filled while the levels below are released) and of
  `sixfold product --q-max 300`, each run in a fresh process: stdout
  with every `ms` zeroed, stderr and the exit code (see mutants.run);
* link_residual at levels 0..6 on the pristine memo; then for seeds 0..7,
  on the memos of mutate_rec_rules and of mutate_p_tables, link_residual at
  levels 0..6 and J, K, Lemma2, Lemma3 and Lemma4 at levels 0..8, which
  on a pristine memo are zero but here are polynomials built from general
  products;
* count_table("A") and count_table("B") at q = 0..80, 300 and 1000;
* s_oracle(n, j) for every j at levels 0..18 in turn, then at 3 and 0, so
  the held layer steps on and then starts again from window 0;
* general_A_series and general_B_series at n = 1000 for each of the seven
  default general cases (verify.DEFAULT_GENERAL_CASES): the five Theorem1
  triples, whose first-window caps reach the small parts, then b0-433 and
  b0-533 with their extra caps;
* general_A_series at n = 200 for each of the 416 triples with lam, k and
  a in 1..8 whose family-A modulus (2k - lam + 1)(lam + 1) is positive,
  and general_B_series at n = 60 for each of the 154 Theorem1 triples
  (lam/2 < a <= k, lam <= k) with k at most 8, one output each.

Each output is digested piece by piece, a polynomial at a time as its
canonical JSON, so no more than one of them is held as text.  No bytecode
is written, so the package is left without a __pycache__.  The package's
path goes to stderr.  A run prints 99 lines, takes about 50-80 s and
peaks at about 530 MiB (s_oracle at level 18) on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path
from typing import Callable, Iterator

from mutants import run

ORACLE_LEVELS = (*range(19), 3, 0)
SERIES_IDENTITIES = ("J_poly", "K_poly", "lemma2_residual", "lemma3_residual", "lemma4_residual")


def _once(f: Callable[..., object], *args) -> Callable[[], Iterator[str]]:
    """An output of one piece, the JSON of f(*args)."""
    return lambda: iter([json.dumps(f(*args))])


def entries(src: Path) -> list[tuple[str, Callable[[], Iterator[str]]]]:
    """(name, output) per output, in print order.  output() yields the
    output in pieces, each polynomial as its canonical JSON, computed with
    the sixfold that is imported; the CLI runs the one under src."""
    from sixfold import partitions, recurrence
    from sixfold.partitions import GeneralParams, count_table, s_oracle
    from sixfold.verify import DEFAULT_GENERAL_CASES

    package = src / "sixfold"

    def residuals(names, levels, **memo_args):
        """Each named residual at each level in turn, on a memo built when
        the output is read and dropped when it is done."""

        def output():
            memo = recurrence.SeriesMemo(**memo_args)
            return (getattr(recurrence, name)(n, memo).to_json() for name in names for n in levels)

        return output

    link = ("link_residual",)
    out = [
        (" ".join(argv), _once(run, package, None, argv))
        for argv in (
            ("verify", "--suite", "all"),
            *(
                ("verify", "--suite", suite, "--n-max", "12")
                for suite in ("lemma1", "link", "lemma2", "lemma3", "lemma4")
            ),
            ("verify", "--suite", "oracle", "--n-max", "10"),
            *(
                ("verify", "--suite", suite)
                for suite in ("oracle", "lemma1", "link", "lemma2", "lemma3", "lemma4", "theorem3")
            ),
            ("verify", "--suite", "theorem3", "--q-max", "120"),
            ("verify", "--suite", "all", "--n-max", "3", "--q-max", "30"),
            ("verify", "--suite", "theorem3", "--n-max", "5"),
            ("verify", "--suite", "lemma1", "--q-max", "5"),
            ("verify", "--suite", "link", "--n-max", "-1"),
            *(
                ("series", "--n", "9", "--j", "15", "--source", "recurrence", "--format", form)
                for form in ("text", "json")
            ),
            ("series", "--n", "12", "--j", "15", "--source", "recurrence", "--format", "json"),
            ("product", "--q-max", "300"),
        )
    ]
    out.append(("link_residual n=0..6 pristine", residuals(link, range(7))))
    for seed in range(8):
        rules, _ = recurrence.mutate_rec_rules(recurrence.REC_RULES, random.Random(seed))
        p_tables, _ = recurrence.mutate_p_tables(recurrence.DEFAULT_P_TABLES, random.Random(seed))
        for kind, memo_args in (("rules", {"rules": rules}), ("p-tables", {"p_tables": p_tables})):
            name = f"link_residual n=0..6 {kind} seed {seed}"
            out.append((name, residuals(link, range(7), **memo_args)))
            name = f"J K Lemma2-4 n=0..8 {kind} seed {seed}"
            out.append((name, residuals(SERIES_IDENTITIES, range(9), **memo_args)))
    for side in "AB":
        for name, qs in (("0..80", range(81)), ("300", [300]), ("1000", [1000])):
            tables = lambda side=side, qs=qs: (count_table(side, q).to_json() for q in qs)
            out.append((f"count_table {side} q={name}", tables))
    for i, n in enumerate(ORACLE_LEVELS):
        name = f"s_oracle n={n}" + (" again" if n in ORACLE_LEVELS[:i] else "")
        out.append((name, lambda n=n: (s_oracle(n, j).to_json() for j in range(16))))
    for gp, extra, _ in DEFAULT_GENERAL_CASES:
        case = extra or "lam={} k={} a={}".format(*gp)
        out.append((f"general_A_series {case} n=1000", _once(partitions.general_A_series, gp, 1000)))
        out.append((f"general_B_series {case} n=1000", _once(partitions.general_B_series, gp, 1000, extra)))
    triples = [GeneralParams(*t) for t in product(range(1, 9), repeat=3)]
    family_a = [gp for gp in triples if 2 * gp.k - gp.lam + 1 > 0]
    theorem1 = [gp for gp in triples if gp.lam <= gp.k and gp.lam < 2 * gp.a and gp.a <= gp.k]
    for name, f, n, gps in (
        ("general_A_series lam,k,a in 1..8 n=200", partitions.general_A_series, 200, family_a),
        ("general_B_series Theorem1 k<=8 n=60", partitions.general_B_series, 60, theorem1),
    ):
        out.append((name, lambda f=f, n=n, gps=gps: (json.dumps(f(gp, n)) for gp in gps)))
    return out


def digest(output: Callable[[], Iterator[str]]) -> str:
    """SHA-256 of the pieces output() yields, joined."""
    h = hashlib.sha256()
    for piece in output():
        h.update(piece.encode())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else "src").resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import sixfold

    print(f"sixfold from {Path(sixfold.__file__).parent}", file=sys.stderr)
    for name, output in entries(src):
        print(f"{name} {digest(output)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
