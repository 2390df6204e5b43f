"""Benchmark of the monodromy analyze pipeline and the carousel.

    python3 bench/run.py --workload corpus --seed 1 --seconds 34 --trace 0

Runs one workload (see bench/README.md) in this process, with no extra
threads, for about ``--seconds`` seconds of whole passes over its items, and
checks every output against bench/reference.json and independent
identities.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics from the
outside-in trace with ``--trace 1``.  ``--setup-only`` performs the set-up
and one cold item, then exits; the benchmark times it in fresh processes
to give ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import Span, Tracer

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
SETUP_RUNS = 3  # fresh processes timed per run; setup_s is their median
SETUP_TIMEOUT_S = 120
# share of traced item time that spans may leave unattributed
UNATTRIBUTED_TOLERANCE = 0.02

clock = time.perf_counter


def import_library():
    """Import monodromy from this checkout's sources, never from elsewhere."""
    src = workloads.ROOT / "src"
    if not (src / "monodromy" / "__init__.py").is_file():
        sys.exit(f"error: no monodromy sources under {src}")
    if not (workloads.FIXTURES / "manifest.json").is_file():
        sys.exit(f"error: no fixture manifest under {workloads.FIXTURES}")
    sys.path.insert(0, str(src))
    import monodromy

    if Path(monodromy.__file__).resolve().parent != (src / "monodromy").resolve():
        sys.exit(f"error: imported monodromy from {monodromy.__file__}")


def set_up(workload: str, seed: int, workdir: Path):
    """Build the workload's inputs and run the cold item, untimed."""
    items, cold = workloads.build_items(workload, seed, workdir)
    reference = workloads.load_reference()
    workloads.run_item(cold, reference)
    return items, reference


def time_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh ``--setup-only`` process to the end of
    its set-up, interpreter start included.

    The child reports when its set-up ended on the system-wide monotonic
    clock, so neither its exit nor the parent's polling for it is timed."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run(
            command, check=True, capture_output=True, text=True,
            cwd=workloads.ROOT, timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(child.stdout.split()[-1]) - start)
    return times


class Runner:
    """Whole passes over the items in a seeded order, with failures counted
    against attempts."""

    def __init__(self, items, reference, seed: int):
        self.items = items
        self.reference = reference
        self.order_rng = random.Random(f"order-{seed}")
        self.attempted = 0
        self.failed = 0
        self.item_times: dict[str, list[float]] = {item.key: [] for item in items}
        self.traced_item_s = 0.0
        self.attributed_s = 0.0

    def run_pass(self, tracer: Tracer | None = None) -> float:
        order = list(self.items)
        self.order_rng.shuffle(order)
        start = clock()
        for item in order:
            if tracer is not None:
                tracer.begin_item()
            t0 = clock()
            self._run(item)
            elapsed = clock() - t0
            if tracer is None:
                self.item_times[item.key].append(elapsed)
            else:
                self.traced_item_s += elapsed
                self.attributed_s += tracer.end_item()
        return clock() - start

    def _run(self, item):
        self.attempted += 1
        try:
            workloads.run_item(item, self.reference)
        except Exception as exc:  # an item failure is counted, not fatal
            self.failed += 1
            print(f"FAIL {item.key}: {exc!r}", file=sys.stderr)
            if not isinstance(exc, workloads.ItemFailure):
                traceback.print_exc(file=sys.stderr)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"single sample {values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    setup = time_setup(workload, seed)
    passes = []
    start = clock()
    while not passes or clock() - start < seconds:
        passes.append(runner.run_pass())
    # each distinct item weighs once, however many passes ran
    per_item = [statistics.median(times) for times in runner.item_times.values()]
    print(f"wall_s per pass: {quartiles(passes)}")
    print(f"item_s, median per item over {len(passes)} passes: {quartiles(per_item)}")
    print(f"setup_s: {quartiles(setup)}")
    return {
        "wall_s": (statistics.median(passes), "s"),
        "item_p50_s": (statistics.median(per_item), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def count_snapshot(tracer: Tracer) -> dict:
    """Every count the trace takes, to compare passes."""
    snap = {f"{name}.calls": span.calls for name, span in tracer.spans.items()}
    snap.update(tracer.counts)
    snap.update(
        max_order=tracer.max_order, mul_useful=tracer.mul_useful,
        mul_dense=tracer.mul_dense, minpoly_repeats=tracer.minpoly_repeats,
        report_bytes=tracer.report_bytes,
    )
    return snap


def per_pass_counts(snapshots: list[dict]) -> list[dict]:
    previous: dict = {}
    out = []
    for snap in snapshots:
        out.append({k: v - previous.get(k, 0) for k, v in snap.items() if k != "max_order"})
        previous = snap
    return out


def layer_metrics(runner: Runner, seconds: float) -> tuple[dict, bool]:
    """Alternate untraced and traced passes; returns per-layer metrics per
    traced pass, and whether the trace's integrity checks held."""
    tracer = Tracer()
    untraced, traced, snapshots = [], [], []
    start = clock()
    while not traced or clock() - start < seconds:
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        snapshots.append(count_snapshot(tracer))

    n = len(traced)
    unattributed = 1 - runner.attributed_s / runner.traced_item_s
    deltas = per_pass_counts(snapshots)
    repeats = all(c == deltas[0] for c in deltas)
    print(f"traced passes {n}: counts repeat across passes: {repeats}")
    print(f"unattributed share of traced item time: {unattributed:.6f} "
          f"(tolerance {UNATTRIBUTED_TOLERANCE})")
    for name, span in sorted(tracer.spans.items(), key=lambda kv: -kv[1].self_s):
        if span.calls:
            print(f"  {name:40s} calls {span.calls / n:>10.0f}  self {span.self_s / n:9.4f} s"
                  f"  incl {span.incl_s / n:9.4f} s")

    def span(name) -> Span:
        return tracer.spans.get(name) or Span()

    def calls(name):
        return (span(name).calls / n, "count")

    def self_s(name):
        return (span(name).self_s / n, "s")

    def incl_s(name):
        return (span(name).incl_s / n, "s")

    def count(name):
        return (tracer.counts[name] / n, "count")

    metrics = {
        "cyclo.scalar.mul_calls": count("cyclo.scalar.mul_calls"),
        "cyclo.scalar.add_calls": count("cyclo.scalar.add_calls"),
        "cyclo.scalar.inverse_calls": count("cyclo.scalar.inverse_calls"),
        "cyclo.scalar.max_order": (tracer.max_order, "order"),
        "cyclo.matrix.mul_calls": calls("cyclo.matrix.mul"),
        "cyclo.matrix.mul_self_s": self_s("cyclo.matrix.mul"),
        "cyclo.matrix.mul_useful_ratio": (tracer.mul_useful / max(tracer.mul_dense, 1), "ratio"),
        "cyclo.matrix.apply_calls": calls("cyclo.matrix.apply"),
        "cyclo.matrix.apply_self_s": self_s("cyclo.matrix.apply"),
        "cyclo.matrix.inverse_self_s": self_s("cyclo.matrix.inverse"),
        "cyclo.matrix.rank_self_s": self_s("cyclo.matrix.rank"),
        "cyclo.matrix.pow_self_s": self_s("cyclo.matrix.pow"),
        "cyclo.minpoly.calls": calls("cyclo.minpoly"),
        "cyclo.minpoly.self_s": self_s("cyclo.minpoly"),
        "cyclo.minpoly.incl_s": incl_s("cyclo.minpoly"),
        "cyclo.minpoly.repeat_calls": (tracer.minpoly_repeats / n, "count"),
        "reflgrp.enumerate_group.calls": calls("reflgrp.enumerate_group"),
        "reflgrp.enumerate_group.self_s": self_s("reflgrp.enumerate_group"),
        "reflgrp.hyperplanes.calls": calls("reflgrp.hyperplanes"),
        "reflgrp.hyperplanes.self_s": self_s("reflgrp.hyperplanes"),
        "reflgrp.group_mul_calls": count("reflgrp.group_mul_calls"),
        "extension.datum_from_json.self_s": self_s("extension.datum_from_json"),
        "extension.validate.self_s": self_s("extension.validate"),
        "extension.character_from_spec.self_s": self_s("extension.character_from_spec"),
        "extension.wtilde_alpha_calls": count("extension.wtilde_alpha_calls"),
        "invariants.compute_chi_invariants.calls": calls("invariants.compute_chi_invariants"),
        "invariants.compute_chi_invariants.self_s": self_s("invariants.compute_chi_invariants"),
        "invariants.check_generation.self_s": self_s("invariants.check_generation"),
        "carousel.build_carousel.self_s": self_s("carousel.build_carousel"),
        "carousel.carousel_minpolys.self_s": self_s("carousel.carousel_minpolys"),
        "carousel.twist_from_extension.self_s": self_s("carousel.twist_from_extension"),
        "hecke.build_coxeter.incl_s": incl_s("hecke.build_coxeter"),
        "hecke.build_coxeter.self_s": self_s("hecke.build_coxeter"),
        "hecke.build_cyclic.incl_s": incl_s("hecke.build_cyclic"),
        "hecke.to_json.incl_s": incl_s("hecke.to_json"),
        "induce.build_ledger.incl_s": incl_s("induce.build_ledger"),
        "induce.build_full_r1.incl_s": incl_s("induce.build_full_r1"),
        "induce.build_full_r2.incl_s": incl_s("induce.build_full_r2"),
        "induce.build_i_action.incl_s": incl_s("induce.build_i_action"),
        "cli.run_analyze.self_s": self_s("cli.run_analyze"),
        "cli.render_report.self_s": self_s("cli.render_report"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.report_bytes": (tracer.report_bytes / n, "B"),
        "bench.item.self_s": self_s("bench.item"),
        "bench.check.self_s": self_s("bench.check"),
        "trace.bookkeeping_s": self_s("trace.bookkeeping"),
        "trace.item_s": (runner.traced_item_s / n, "s"),
        "trace.unattributed_frac": (unattributed, "ratio"),
        "trace.overhead_ratio": (sum(traced) / sum(untraced), "ratio"),
        "trace.passes": (n, "count"),
    }
    return metrics, repeats and abs(unattributed) <= UNATTRIBUTED_TOLERANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the cold item, and exit")
    args = parser.parse_args(argv)

    import_library()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        items, reference = set_up(args.workload, args.seed, Path(workdir))
        if args.setup_only:
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            return 0
        runner = Runner(items, reference, args.seed)
        if args.trace:
            metrics, trace_ok = layer_metrics(runner, args.seconds)
        else:
            metrics, trace_ok = end_to_end(runner, args.workload, args.seed, args.seconds), True
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} items, "
          f"{runner.failed} failed (failed_frac {runner.failed / runner.attempted:.4f})")
    result = {
        "correct": runner.failed == 0 and trace_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
