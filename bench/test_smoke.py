"""Smoke test of the benchmark itself; about a minute.

    python3 -m pytest bench/test_smoke.py -q

Runs one short pass of every workload and checks the result line against
BENCHMARK.json, the repeatability of the trace's counts, the independence
of outputs from item order, and the refusal to run without the library.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import workloads

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_pass_is_correct(workload):
    result = result_line(bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_counts_repeat():
    args = ("--workload", "corpus", "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result_line(bench(*args)), result_line(bench(*args))
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def counts(result):
        return {
            name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s"
            and name not in ("trace.overhead_ratio", "trace.unattributed_frac", "trace.passes")
        }

    assert counts(first) == counts(second)
    assert first["metrics"]["cyclo.scalar.mul_calls"]["value"] > 0


def test_outputs_do_not_depend_on_item_order():
    run.import_library()
    items = workloads.corpus_items()
    orders = []
    for seed in (1, 2):
        order = list(items)
        random.Random(f"order-{seed}").shuffle(order)
        orders.append(order)
    assert [i.key for i in orders[0]] != [i.key for i in orders[1]]
    digests = [{item.key: workloads.run_item(item, None) for item in order} for order in orders]
    assert digests[0] == digests[1]
    assert digests[0] == {key: workloads.load_reference()[key] for key in digests[0]}


def test_refuses_to_run_without_the_library():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", Path(bare) / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
