"""Outside-in layer trace: wraps the library's public functions from the
benchmark's side and records per-layer calls, self time and inclusive time.

Spans nest through a stack, so a layer's self time is its duration minus
the time of the wrapped calls it made.  Hot scalar and group operations are
counted without a span: their cost stays in the layer that called them.
Nothing inside the library is changed; ``uninstall`` restores every
attribute that ``install`` replaced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, layer name); every listed attribute gets a span.
SPANS = (
    ("monodromy.cyclo", "CycMatrix.__mul__", "cyclo.matrix.mul"),
    ("monodromy.cyclo", "CycMatrix.__rmul__", "cyclo.matrix.mul"),
    ("monodromy.cyclo", "CycMatrix.apply", "cyclo.matrix.apply"),
    ("monodromy.cyclo", "CycMatrix.inverse", "cyclo.matrix.inverse"),
    ("monodromy.cyclo", "CycMatrix.rank", "cyclo.matrix.rank"),
    ("monodromy.cyclo", "CycMatrix.__pow__", "cyclo.matrix.pow"),
    ("monodromy.cyclo", "minpoly_matrix", "cyclo.minpoly"),
    ("monodromy.reflgrp", "enumerate_group", "reflgrp.enumerate_group"),
    ("monodromy.reflgrp", "hyperplanes", "reflgrp.hyperplanes"),
    ("monodromy.extension", "datum_from_json", "extension.datum_from_json"),
    ("monodromy.extension", "validate", "extension.validate"),
    ("monodromy.extension", "character_from_spec", "extension.character_from_spec"),
    ("monodromy.invariants", "compute_chi_invariants", "invariants.compute_chi_invariants"),
    ("monodromy.invariants", "check_generation", "invariants.check_generation"),
    ("monodromy.carousel", "build_carousel", "carousel.build_carousel"),
    ("monodromy.carousel", "carousel_minpolys", "carousel.carousel_minpolys"),
    ("monodromy.carousel", "twist_from_extension", "carousel.twist_from_extension"),
    ("monodromy.hecke", "build_coxeter", "hecke.build_coxeter"),
    ("monodromy.hecke", "build_cyclic", "hecke.build_cyclic"),
    ("monodromy.hecke", "HeckeAlgebra.to_json", "hecke.to_json"),
    ("monodromy.induce", "build_ledger", "induce.build_ledger"),
    ("monodromy.induce", "build_i_action", "induce.build_i_action"),
    ("monodromy.induce", "build_full_r1", "induce.build_full_r1"),
    ("monodromy.induce", "build_full_r2", "induce.build_full_r2"),
    ("monodromy.cli", "run_analyze", "cli.run_analyze"),
    ("monodromy.cli", "render_report", "cli.render_report"),
    ("monodromy.cli", "main", "cli.main"),
    ("workloads", "run_item", "bench.item"),
    ("workloads", "check_analyze", "bench.check"),
    ("workloads", "check_control", "bench.check"),
    ("workloads", "check_carousel", "bench.check"),
)

# (module, attribute path, counter name); calls are counted, not timed.
COUNTS = (
    ("monodromy.cyclo", "CycNumber.__mul__", "cyclo.scalar.mul_calls"),
    ("monodromy.cyclo", "CycNumber.__rmul__", "cyclo.scalar.mul_calls"),
    ("monodromy.cyclo", "CycNumber.__add__", "cyclo.scalar.add_calls"),
    ("monodromy.cyclo", "CycNumber.__radd__", "cyclo.scalar.add_calls"),
    ("monodromy.cyclo", "CycNumber.inverse", "cyclo.scalar.inverse_calls"),
    ("monodromy.reflgrp", "ReflectionGroup.mul", "reflgrp.group_mul_calls"),
    ("monodromy.extension", "ExtensionDatum.wtilde_alpha", "extension.wtilde_alpha_calls"),
)

BOOKKEEPING = "trace.bookkeeping"


class Span:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Per-layer spans and counters, collected while installed."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self.max_order = 1
        self.mul_useful = 0  # nonzero a*b pairs over matrix-matrix products
        self.mul_dense = 0  # m*k*n over the same products
        self.minpoly_repeats = 0
        self.report_bytes = 0
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._seen: set = set()  # matrices given to minpoly_matrix this item
        self._patched: list[tuple[object, str, object]] = []

    # -- lifetime -------------------------------------------------------------

    def install(self):
        wrappers = {}
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, path, name in table:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                if original not in wrappers:
                    wrappers[original] = make(original, name)
                self._patch(owner, attr, original, wrappers[original])
                # library modules that imported the function hold their own reference
                if isinstance(owner, type(sys)):
                    for other_name, module in list(sys.modules.items()):
                        if (
                            other_name.startswith("monodromy")
                            and module is not owner
                            and module.__dict__.get(attr) is original
                        ):
                            self._patch(module, attr, original, wrappers[original])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- items ----------------------------------------------------------------

    def begin_item(self):
        self._stack[:] = [0.0]
        self._seen.clear()

    def end_item(self) -> float:
        """Seconds that spans attributed during the item."""
        return self._stack[0]

    # -- wrappers -------------------------------------------------------------

    def _record(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _bookkeep(self, seconds: float):
        """Attribute the tracer's own work to a layer of its own."""
        self._stack[-1] += seconds
        span = self._record(BOOKKEEPING)
        span.calls += 1
        span.self_s += seconds
        span.incl_s += seconds

    def _span(self, fn, name):
        span = self._record(name)
        stack = self._stack
        clock = time.perf_counter
        before = {
            "cyclo.matrix.mul": self._before_matrix_mul,
            "cyclo.minpoly": self._before_minpoly,
        }.get(name)
        after = self._after_render if name == "cli.render_report" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            span.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                span.calls += 1
                span.self_s += elapsed - child
                span.depth -= 1
                if span.depth == 0:
                    span.incl_s += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, fn, name):
        self.counts.setdefault(name, 0)
        counts = self.counts
        scalar = name.startswith("cyclo.scalar.")

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            if result is not NotImplemented:
                counts[name] += 1
                if scalar and result.order > self.max_order:
                    self.max_order = result.order
            return result

        return wrapper

    def _before_matrix_mul(self, a, b=None):
        start = time.perf_counter()
        if type(b) is type(a):
            col_nonzero = [0] * a.cols
            for row in a.entries:
                for k, x in enumerate(row):
                    if not x.is_zero():
                        col_nonzero[k] += 1
            self.mul_useful += sum(
                c * sum(1 for y in row if not y.is_zero())
                for c, row in zip(col_nonzero, b.entries)
            )
            self.mul_dense += a.rows * a.cols * b.cols
        self._bookkeep(time.perf_counter() - start)

    def _before_minpoly(self, m):
        start = time.perf_counter()
        if m in self._seen:
            self.minpoly_repeats += 1
        else:
            self._seen.add(m)
        self._bookkeep(time.perf_counter() - start)

    def _after_render(self, text):
        self.report_bytes += len(text)
