"""The in-process traced run that gives the per-layer metrics.

The traced run imports `hensel` from the checkout, wraps the public
functions that mark each layer's boundary, and runs the CLI checks of every
workload through `hensel.cli.main` in this process.  Each wrapped call is a
span with a start, an end, the span that caused it and the check it belongs
to; a layer's self time is its span's duration minus the time of the spans
it caused.  Calls made hundreds of thousands of times per round
(`is_stable`, `frobenius_quadratic`) are only counted and summed, not kept
as spans.

`padics` is measured apart, by timing `from_rational` and `*` on the
scalars of the fl-small-p inputs at the precision the saturation count
uses: a span around each of millions of scalar operations would cost more
than the operation.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, kept as spans, count taken from the result)
TARGETS = (
    ("lattices", "enumerate_window", True, None),
    ("lattices", "is_stable", False, None),
    ("orbital", "verify_fundamental_lemma", True, None),
    ("orbital", "count_stable", True, None),
    ("qseries", "delta", True, lambda result: len(result.coefficients) - 1),
    ("qseries", "eigencheck", True, None),
    ("traceformula", "FiniteGroupTable.from_generators", True, None),
    ("traceformula", "FiniteGroupTable.all_subgroups", True, None),
    ("traceformula", "verify_trace_formula", True, None),
    ("arith", "reciprocity_check", True, None),
    ("arith", "frobenius_quadratic", False, None),
    ("arith", "dirichlet_sum_partial", True, None),
    ("arith", "euler_product_partial", True, None),
    ("cli", "main", True, None),
)
MODULES = ("padics", "lattices", "orbital", "qseries", "arith", "traceformula", "cli")


class Tracer:
    """Spans and per-(workload, function) totals: calls, inclusive seconds,
    self seconds and a work count."""

    def __init__(self):
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.workload = None
        self.check = None  # index of the running check: spans of one check share it
        self.checks_run = 0
        self._stack = []  # [span id, seconds of child spans]
        self._patches = []

    def wrap(self, name, fn, keep_span, count):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans) if keep_span else None, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                took = end - start
                if self._stack:
                    self._stack[-1][1] += took
                agg = self.totals[(self.workload, name)]
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[1]
                if count is not None and result is not None:
                    agg[3] += count(result)
                if keep_span:
                    self.spans.append((frame[0], parent, name, start, end, self.check))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of each target, in every module of the
        package, by its traced wrapper.  Targets that do not exist are
        skipped, and their metrics read 0."""
        mods = [importlib.import_module(f"hensel.{m}") for m in MODULES]
        for mod_name, attr, keep_span, count in TARGETS:
            owner = importlib.import_module(f"hensel.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                continue
            name = f"{mod_name}.{attr}"
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                self._patch(owner, leaf, classmethod(self.wrap(name, raw.__func__, keep_span, count)))
                continue
            traced = self.wrap(name, raw, keep_span, count)
            self._patch(owner, leaf, traced)
            if not path:
                for mod in mods:
                    if mod is not owner and vars(mod).get(leaf) is raw:
                        self._patch(mod, leaf, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def total(self, workload, name, field):
        """field: 0 calls, 1 inclusive s, 2 self s, 3 work count."""
        keys = [(workload, name)] if workload else [k for k in self.totals if k[1] == name]
        return sum(self.totals[k][field] for k in keys if k in self.totals)


def run_in_process(cli, argv) -> tuple:
    """(exit status, stdout) of one check run through hensel.cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# -- padics microbenchmarks ----------------------------------------------------


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the microseconds per call of fn(), which runs
    `calls` operations."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def padics_costs(padics, fl_checks) -> tuple:
    """(from_rational us, mul us) on the scalars a, b, delta of the unit
    regime fl-small-p inputs, at precision 4 (val(b) + 2) + 12: the precision
    at which the current code builds gamma for its default window val(b) + 1
    and the saturation recount at val(b) + 2."""
    specs = []
    for check in fl_checks:
        if check.expect["val_a"] != 0:
            continue
        argv = dict(zip(check.argv[1::2], check.argv[2::2]))
        p, prec = check.expect["p"], 4 * (check.expect["val_b"] + 2) + 12
        for key in ("--a", "--b", "--delta"):
            x = Fraction(argv[key])
            specs.append((x.numerator, x.denominator, p, prec))
    from_rational = padics.from_rational
    scalars = [from_rational(*s) for s in specs]
    pairs = [
        (x, y)
        for i, x in enumerate(scalars)
        for y in scalars[i - i % 3 : i - i % 3 + 3]  # a, b, delta of one input
    ]
    reps = 200

    def make():
        for _ in range(reps):
            for s in specs:
                from_rational(*s)

    def mul():
        for _ in range(reps):
            for x, y in pairs:
                x * y

    return (_per_call_us(make, reps * len(specs)), _per_call_us(mul, reps * len(pairs)))


def import_package(src):
    """Import hensel from the checkout's src directory."""
    sys.path.insert(0, str(src))
    return {m: importlib.import_module(f"hensel.{m}") for m in MODULES}
