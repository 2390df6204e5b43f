"""The statements of ``src/monodromy`` that no pinned run reaches.

Under a line tracer this runs every run whose output is pinned by a digest:

- every item of the ``corpus`` workload of ``bench/workloads.py``, both
  characters of every ``coxeter-ladder`` and ``ledger-scale`` cover, and a
  seeded ``carousel-sweep`` draw (``bench/reference.json``);
- the ``catalog``, ``carousel``, ``--rbar`` and ``--convention`` command
  runs of ``STDOUT_DIGESTS``, the four B2 swap-cover runs and the six
  sign and twist variants of ``b2_split_z2`` (``tests/test_cli.py``);
- every character of the covers in ``corpus.FAMILIES``
  (``tests/family_digests.json``) and the unsupported-Hecke run;
- the R1 runs under the inverse convention and the rotation-generator
  refusals of ``corpus.r1_pinned_runs`` (``tests/r1_digests.json``);
- the minimal polynomial of each matrix of ``corpus.eliminated_matrices``
  (``tests/minpoly_values.json``).

It then prints, module by module and function by function, each statement
inside a function that neither these runs nor the building of their data
reached, the per-module counts, and the functions that none of them
called.  A compound statement counts as reached when its header line or
any statement inside it ran.

Run from anywhere, with the interpreter that runs the test suite:

    python tests/reach.py

It uses only the standard library, imports ``bench/workloads.py`` without
changing it, and writes only to a temporary directory.  pytest does not
collect this file: its name is not ``test_*.py``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import random
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "monodromy"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import workloads  # noqa: E402
from corpus import (  # noqa: E402
    FAMILIES,
    FIXTURES,
    SIGN_TWIST_CHARACTERS,
    SIGN_TWIST_VARIANTS,
    eliminated_matrices,
    r1_pinned_runs,
    swap_cover,
    unsupported_hecke_run,
)
from monodromy import cli  # noqa: E402
from monodromy.cyclo import CycNumber, CycPoly, minpoly_matrix  # noqa: E402
from monodromy.extension import datum_to_json  # noqa: E402

CAROUSEL_SEED = 0

# --------------------------------------------------------------------------
# tracing

hits: dict[str, set[int]] = defaultdict(set)
PREFIX = str(SRC)


def _trace_lines(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        return _trace_lines
    return None


def pinned_runs(workdir: Path):
    """Build the data of each pinned run, and yield the run as a thunk
    labelled by its group."""
    items = workloads.corpus_items()
    items += workloads.cover_items(workloads.LADDER, workdir, None)
    items += workloads.cover_items(workloads.LEDGER, workdir, None)
    items += workloads.carousel_draw(random.Random(CAROUSEL_SEED))
    for item in items:
        yield "bench", lambda item=item: workloads.run_item(item, None)

    rat = CycNumber.rational
    rbar = CycPoly([rat(-3), rat(-2), rat(1)])
    override = workdir / "b2_rbar.json"
    override.write_text(json.dumps({str(a): rbar.to_json() for a in range(4)}))
    b2 = ["analyze", str(FIXTURES / "b2_split_z2.json"), "--chi", "trivial"]
    for argv in (
        ["catalog", "g", "2", "1", "3"],
        ["carousel", "--n", "6", "--e", "2", "--sgn", "-1", "--twist", "1/4"],
        b2 + ["--rbar", str(override)],
        b2 + ["--convention", "flip-inertia"],
    ):
        yield "stdout", lambda argv=argv: cli.main(argv)

    datum, (x, y) = swap_cover("b2_swap_cover", (2, 1, 2))
    path = workdir / "b2_swap_cover.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    for a, b in itertools.product((0, 1), repeat=2):
        spec = {str(x): a, str(y): b, "modulus": 2}
        yield "b2-swap", lambda path=path, spec=spec: cli.run_analyze(str(path), spec)

    base = json.loads((FIXTURES / "b2_split_z2.json").read_text())
    for variant, keys in SIGN_TWIST_VARIANTS.items():
        path = workdir / f"b2_{variant}.json"
        path.write_text(json.dumps({**base, **keys}))
        for spec in SIGN_TWIST_CHARACTERS.values():
            yield "sign-twist", lambda path=path, spec=spec: cli.run_analyze(str(path), spec)

    recorded = json.loads((ROOT / "tests" / "family_digests.json").read_text())
    for name, build, mpr, modulus in FAMILIES:
        datum, gens = build(name, mpr)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        for key in recorded[name]:
            spec = {**{str(g): int(e) for g, e in zip(gens, key)}, "modulus": modulus}
            yield "families", lambda path=path, spec=spec: cli.run_analyze(str(path), spec)

    path, override = unsupported_hecke_run(workdir)
    yield "unsupported-hecke", lambda: cli.run_analyze(
        str(path), "trivial", rbar_path=str(override)
    )

    for _, _, path, spec, convention in r1_pinned_runs(workdir):
        yield "r1-pins", lambda path=path, spec=spec, convention=convention: cli.run_analyze(
            str(path), spec, convention=convention
        )

    for m in eliminated_matrices().values():
        yield "minpoly", lambda m=m: minpoly_matrix(m)


def trace_pinned_runs() -> dict[str, int]:
    """Run and count the pinned runs, tracing the building of their data
    too: what the builders return flows into the digests."""
    counts: dict[str, int] = defaultdict(int)
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(_trace_calls)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for label, run in pinned_runs(Path(tmp)):
                    run()
                    counts[label] += 1
        finally:
            sys.settrace(None)
    return counts


# --------------------------------------------------------------------------
# statements


def _child_blocks(node: ast.stmt):
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, [])
    for handler in getattr(node, "handlers", []):
        yield handler.body
    for case in getattr(node, "cases", []):
        yield case.body


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


class Statement:
    def __init__(self, node: ast.stmt, children: list[Statement]):
        self.line = node.lineno
        own = set(range(node.lineno, node.end_lineno + 1))
        for decorator in getattr(node, "decorator_list", []):
            own |= set(range(decorator.lineno, decorator.end_lineno + 1))
        for block in _child_blocks(node):
            for child in block:
                own -= set(range(child.lineno, child.end_lineno + 1))
        self.own = own
        self.children = children

    def reached(self, lines: set[int]) -> bool:
        return bool(self.own & lines) or any(c.reached(lines) for c in self.children)


def _statements(block, functions, qualname) -> list[Statement]:
    """The statements of a function body; a nested function or class is
    one statement here, and its body is its own entry in ``functions``."""
    out = []
    for i, node in enumerate(block):
        if isinstance(node, (ast.Global, ast.Nonlocal, ast.Pass)):
            continue
        if i == 0 and _is_docstring(node):
            continue
        children = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _collect(node, functions, qualname)
        else:
            for sub in _child_blocks(node):
                children += _statements(sub, functions, qualname)
        out.append(Statement(node, children))
    return out


def _collect(node, functions, prefix):
    """Record each function under ``node`` with its flattened statements."""
    qualname = f"{prefix}.{node.name}" if prefix else node.name
    if isinstance(node, ast.ClassDef):
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                _collect(child, functions, qualname)
        return
    tree = _statements(node.body, functions, qualname)
    flat = []
    stack = list(reversed(tree))
    while stack:
        s = stack.pop()
        flat.append(s)
        stack.extend(reversed(s.children))
    functions.append((qualname, node.lineno, flat))


def module_functions(path: Path):
    functions: list = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _collect(node, functions, "")
    return sorted(functions, key=lambda f: f[1])


# --------------------------------------------------------------------------
# report


def main() -> int:
    start = time.perf_counter()
    counts = trace_pinned_runs()
    print("runs: " + ", ".join(f"{label} {n}" for label, n in counts.items()))
    total = total_unreached = 0
    summary, never_called = [], []
    for path in sorted(SRC.glob("*.py")):
        lines = hits.get(str(path), set())
        source = path.read_text().splitlines()
        module = path.stem
        module_total = module_unreached = 0
        for qualname, _, statements in module_functions(path):
            missed = [s for s in statements if not s.reached(lines)]
            module_total += len(statements)
            module_unreached += len(missed)
            if not missed:
                continue
            if len(missed) == len(statements):
                never_called.append(f"{module}.{qualname}")
            print(f"{module}.{qualname}: {len(missed)} of {len(statements)} unreached")
            for s in missed:
                print(f"  {s.line:4d}  {source[s.line - 1].strip()}")
        summary.append((module, module_unreached, module_total))
        total += module_total
        total_unreached += module_unreached
    print()
    for module, unreached, statements in summary:
        print(f"{module:12s} {unreached:4d} of {statements:4d} statements unreached")
    print(f"{'total':12s} {total_unreached:4d} of {total:4d} statements unreached")
    print()
    print(f"never called ({len(never_called)}): " + ", ".join(never_called))
    print(f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
