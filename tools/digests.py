"""SHA-256 digests of sixfold's outputs, to compare two versions of the
package: run the tool on each and diff what it prints.

    python3 tools/digests.py [SRC_DIR]      # default: src

imports sixfold from SRC_DIR, the directory that holds the package, and
prints one `name sha256` line per output, in this order:

* `sixfold verify --suite all`, and `sixfold verify --suite S --n-max 12`
  for S = link, lemma2 and lemma3, then the printed polynomials of
  `sixfold series --n 9 --j 15 --source recurrence` as text and as JSON and
  of `sixfold product --q-max 300`, each run in a fresh process: stdout
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
  b0-533 with their extra caps.

Each output is digested piece by piece, a polynomial at a time as its
canonical JSON, so no more than one of them is held as text.  No bytecode
is written, so the package is left without a __pycache__.  The package's
path goes to stderr.  A run takes about 60-75 s and peaks at about
530 MiB (s_oracle at level 18) on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
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
    from sixfold.partitions import count_table, s_oracle
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
            *(("verify", "--suite", suite, "--n-max", "12") for suite in ("link", "lemma2", "lemma3")),
            *(
                ("series", "--n", "9", "--j", "15", "--source", "recurrence", "--format", form)
                for form in ("text", "json")
            ),
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
