"""Span tracing of sixfold's layers, installed from outside the package.

A `Tracer` wraps public functions of the layers `poly`, `recurrence`,
`partitions`, `verify` and `cli` in place, records one span per call (name,
start, end, parent) in memory, and turns the spans into per-layer metrics
once the traced call has returned.  Nothing under `src/` knows about it.

Rules that keep the numbers meaningful:

* A `TriPoly` operation called from inside another one (`__sub__` calls
  `__add__`, `to_text` calls `terms`) is not a span of its own; its time
  belongs to the outer operation.
* `is_valid_B` is called hundreds of thousands of times per oracle level, so
  it gets a call/accept counter and no span.
* A wrap target that no longer exists is an error naming the target, never
  a silently missing layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

POLY_SPANS = frozenset(
    {"poly.add", "poly.mul", "poly.mul_mono", "poly.shift", "poly.serialize"}
)

# Residual spans, keyed by the suffix of their metric name.
RESIDUALS = {
    "J": "J_poly",
    "K": "K_poly",
    "link": "link_residual",
    "lemma2": "lemma2_residual",
    "lemma3": "lemma3_residual",
    "lemma4": "lemma4_residual",
}


class TargetMissing(LookupError):
    """A function the tracer must wrap does not exist under its name."""


def self_times(spans, absorbed=frozenset()) -> dict[str, float]:
    """Summed self time per span name.

    `spans` is a sequence of (name, start, end, parent index) with every
    parent listed before its children (parent -1 for a root).  A span's self
    time is its duration minus the durations of the spans it directly
    contains.  A span whose name is in `absorbed` is never subtracted: its
    time stays with the nearest enclosing span whose name is not absorbed,
    and descendants of an absorbed span are charged to that same span.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if name in absorbed:
            continue
        while parent >= 0 and spans[parent][0] in absorbed:
            parent = spans[parent][3]
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - covered[i]
    return out


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for `module.path`, or TargetMissing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetMissing(f"trace target not found: {module_name}") from exc
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError as exc:
        raise TargetMissing(f"trace target not found: {module_name}.{path}") from exc


class Tracer:
    """Wraps the layers on `install()`, restores them on `uninstall()`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._in_poly = False
        self._patches: list[tuple[object, str, object]] = []
        self._fills: dict[tuple[int, int, int], object] = {}
        self._oracle_levels: set[int] = set()
        self._valid_b = [0, 0]  # calls, accepted

    # ------------------------------------------------------------ recording

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack
        index = len(self.spans)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        self.spans.append(rec)
        stack.append(index)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _function(self, fn, name, after=None):
        """Span per call; `name` is a string or a function of the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = self._timed(label, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _poly(self, fn, measure):
        """Span per outermost TriPoly operation; `measure(*args)` gives
        (span name, counter name or None, counter increment)."""

        @functools.wraps(fn)
        def traced(*args):
            if self._in_poly:
                return fn(*args)
            name, counter, amount = measure(*args)
            if counter is not None:
                self.counts[counter] += amount
            self._in_poly = True
            try:
                return self._timed(name, fn, args, {})
            finally:
                self._in_poly = False

        return traced

    def _counted(self, fn):
        tally = self._valid_b

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ok = fn(*args, **kwargs)
            tally[0] += 1
            if ok:
                tally[1] += 1
            return ok

        return counted

    # ------------------------------------------------------------- patching

    def _patch_method(self, module_name, path, make):
        owner, attr, original = _resolve(module_name, path)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch_function(self, module_name, name, make):
        """Rebind `name` in every sixfold module that holds the same object,
        so `from .x import name` call sites are traced too."""
        _, _, original = _resolve(module_name, name)
        wrapped = make(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "sixfold" or module is None:
                continue
            if module.__dict__.get(name) is original:
                self._patches.append((module, name, original))
                setattr(module, name, wrapped)

    def install(self) -> None:
        """Wrap every target, or none: a missing target undoes the rest."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        poly_mod = importlib.import_module("sixfold.poly")
        tripoly = poly_mod.TriPoly

        def size(x) -> int:
            if isinstance(x, tripoly):
                return len(x)
            return 1 if x else 0

        def measure_add(a, b):
            return "poly.add", "poly.add.terms_in", size(a) + size(b)

        def measure_mul(a, b):
            la, lb = size(a), size(b)
            if min(la, lb) <= 1:
                return "poly.mul_mono", None, 0
            return "poly.mul", "poly.mul.term_pairs", la * lb

        def fixed(name):
            return lambda *args: (name, None, 0)

        def poly(measure):
            return lambda f: self._poly(f, measure)

        def span(name, after=None):
            return lambda f: self._function(f, name, after)

        def note_fill(result, memo, n, j):
            if n >= 0:
                self._fills.setdefault((id(memo), n, j), result)

        def note_oracle(result, n, j):
            if n >= 0:
                self._oracle_levels.add(n)

        def table_side(side, *args, **kwargs):
            return f"partitions.count_table.{side}"

        method, function = self._patch_method, self._patch_function
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            method("sixfold.poly", f"TriPoly.{attr}", poly(measure_add))
        for attr in ("__mul__", "__rmul__"):
            method("sixfold.poly", f"TriPoly.{attr}", poly(measure_mul))
        method("sixfold.poly", "TriPoly.shift", poly(fixed("poly.shift")))
        for attr in ("terms", "to_text", "to_json_terms"):
            method("sixfold.poly", f"TriPoly.{attr}", poly(fixed("poly.serialize")))

        method("sixfold.recurrence", "SeriesMemo.s", span("recurrence.fill", note_fill))
        for suffix, name in RESIDUALS.items():
            function("sixfold.recurrence", name, span(f"recurrence.residual.{suffix}"))
        function("sixfold.recurrence", "product_truncated", span("recurrence.product"))

        function("sixfold.partitions", "s_oracle", span("partitions.oracle", note_oracle))
        function("sixfold.partitions", "is_valid_B", self._counted)
        function("sixfold.partitions", "count_table", span(table_side))
        for side in ("A", "B"):
            function(
                "sixfold.partitions", f"general_{side}_series", span(f"partitions.general.{side}")
            )

        function("sixfold.verify", "run_all", span("verify"))
        function("sixfold.cli", "main", span("cli"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; call after `uninstall()`, since it reads
        coefficients and oracle values through the unwrapped functions."""
        if self._patches:
            raise RuntimeError("metrics() reads sixfold unwrapped; uninstall() first")
        own = self_times(self.spans)
        with_poly = self_times(self.spans, absorbed=POLY_SPANS)
        calls = Counter(rec[0] for rec in self.spans)
        partitions = importlib.import_module("sixfold.partitions")

        fills = list(self._fills.values())
        coeff_bits = max((abs(t[0]).bit_length() for p in fills for t in p.terms()), default=0)
        oracle_partitions = sum(
            t[0] for n in self._oracle_levels for t in partitions.s_oracle(n, 15).terms()
        )
        valid_calls, valid_accepted = self._valid_b

        out = {
            "poly.mul.calls": calls["poly.mul"],
            "poly.mul.self_s": own["poly.mul"],
            "poly.mul.term_pairs": self.counts["poly.mul.term_pairs"],
            "poly.mul_mono.calls": calls["poly.mul_mono"],
            "poly.mul_mono.self_s": own["poly.mul_mono"],
            "poly.add.calls": calls["poly.add"],
            "poly.add.self_s": own["poly.add"],
            "poly.add.terms_in": self.counts["poly.add.terms_in"],
            "poly.shift.calls": calls["poly.shift"],
            "poly.shift.self_s": own["poly.shift"],
            "poly.serialize.self_s": own["poly.serialize"],
            "recurrence.fill.self_s": own["recurrence.fill"],
            "recurrence.fill.entries": len(fills),
            "recurrence.fill.terms": sum(len(p) for p in fills),
            "recurrence.fill.max_coeff_bits": coeff_bits,
            "recurrence.product_s": with_poly["recurrence.product"],
            "partitions.oracle_s": own["partitions.oracle"],
            "partitions.oracle.partitions": oracle_partitions,
            "partitions.is_valid_B.calls": valid_calls,
            "partitions.is_valid_B.accept_ratio": valid_accepted / max(valid_calls, 1),
            "verify.self_s": own["verify"],
            "cli.self_s": own["cli"],
        }
        for suffix in RESIDUALS:
            out[f"recurrence.residual.{suffix}_s"] = with_poly[f"recurrence.residual.{suffix}"]
        for side in ("A", "B"):
            out[f"partitions.count_table.{side}_s"] = own[f"partitions.count_table.{side}"]
            out[f"partitions.general.{side}_s"] = own[f"partitions.general.{side}"]
        return out
