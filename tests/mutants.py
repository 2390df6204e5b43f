"""Mutation checks for the certificates of the group layer, the Hecke build
and the local-subgroup check of datum validation.

Each entry is one exact text edit of a file under ``src/monodromy`` and the
pytest node ids that must fail once the edit is made.  The script copies the
repository to a temporary directory, checks that every named test passes
there unmutated, then applies one edit at a time and runs its tests; the
working tree is never written.  An entry with a ``survives`` reason is an
expected survivor: its tests must still pass, and the reason says why no
test can catch it.

Run from anywhere, with the interpreter that runs the test suite; every
entry is run each time:

    python tests/mutants.py

The exit status is 0 when every mutant is killed and every survivor
survives.  pytest does not collect this file: its name is not ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFLGRP = "src/monodromy/reflgrp.py"
HECKE = "src/monodromy/hecke.py"
EXTENSION = "src/monodromy/extension.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str = ""


def nodes(module: str, *names: str) -> tuple[str, ...]:
    return tuple(f"tests/{module}.py::{name}" for name in names)


MUTANTS = (
    Mutant(
        "hyperplanes: shared eigenvalue accepted",
        REFLGRP,
        "            if lam in eigen:\n",
        "            if False:\n",
        nodes("test_reflgrp", "test_hyperplanes_refuse_a_stabilizer_that_is_not_cyclic"),
    ),
    Mutant(
        "hyperplanes: missing primitive eigenvalue accepted",
        REFLGRP,
        "        if primitive not in eigen:\n",
        "        if False:\n",
        nodes(
            "test_reflgrp", "test_hyperplanes_refuse_a_stabilizer_without_a_primitive_eigenvalue"
        ),
    ),
    Mutant(
        "associativity_witness: never fails",
        REFLGRP,
        "                    if row_a[row_g[b]] != row_ag[b]:\n",
        "                    if False:\n",
        nodes("test_reflgrp", "test_associativity_witness_on_relabelled_loop"),
    ),
    Mutant(
        "word_lengths: starts at element 0",
        REFLGRP,
        "    lengths = {group.identity: 0}\n    frontier = [group.identity]\n",
        "    lengths = {0: 0}\n    frontier = [0]\n",
        nodes("test_reflgrp", "test_word_lengths_match_words_grown_on_the_left"),
    ),
    Mutant(
        "inverses: b * a = e unchecked",
        REFLGRP,
        "                        if table[b][a] == e:\n",
        "                        if True:\n",
        nodes("test_extension", "test_inverses_are_found_per_element"),
    ),
    Mutant(
        "ReflectionGroup.table: transposed",
        REFLGRP,
        "            table.append(row)\n        return table\n",
        "            table.append(row)\n        return [list(c) for c in zip(*table)]\n",
        nodes("test_reflgrp", "test_mul_table_matches_matrix_products"),
    ),
    Mutant(
        "Arrangement.act: conjugates by w^-1",
        REFLGRP,
        "self._by_generator[self.group.conjugate(w, s)]",
        "self._by_generator[self.group.conjugate(self.group.inv(w), s)]",
        nodes("test_reflgrp", "test_conjugation_permutes_hyperplanes"),
    ),
    Mutant(
        "_certify_generators: relation unchecked",
        HECKE,
        "        if got != h.params[key]:\n",
        "        if False:\n",
        nodes("test_hecke", "test_generator_certificate_refuses_a_relation_that_is_not_minimal"),
    ),
    Mutant(
        "_certify_generators: invertibility unchecked",
        HECKE,
        "        if got.constant_term.is_zero():\n",
        "        if False:\n",
        nodes("test_hecke", "test_generator_certificate_refuses_a_singular_generator"),
    ),
    Mutant(
        "build_coxeter: generation test dropped",
        HECKE,
        "            if len(lengths) != len(group):\n                continue\n",
        "",
        nodes("test_hecke", "test_star_transpositions_are_not_a_simple_system_at_q_two"),
    ),
    Mutant(
        "_braid_relation_holds: always false",
        HECKE,
        "    return lhs == rhs\n",
        "    return False\n",
        nodes("test_hecke", "test_star_transpositions_are_not_a_simple_system_at_q_two"),
    ),
    Mutant(
        "_braid_relation_holds: always true",
        HECKE,
        "    return lhs == rhs\n",
        "    return True\n",
        nodes("test_hecke", "test_star_transpositions_are_not_a_simple_system_at_q_two"),
        survives=(
            "a passing closure certificate gives T_s T_t ... = T_(st...) by "
            "ascents on both sides of each braid relation, so it implies the "
            "braid relations; on the star the closure certificate refuses "
            "what the braid certificate would have"
        ),
    ),
    Mutant(
        "_closure_certificate: descent unchecked",
        HECKE,
        "                if mats[slot] * t_of[w] != t_of[sw] * (-c0) + t_of[w] * (-c1):\n",
        "                if False:\n",
        nodes("test_hecke", "test_closure_certificate_compares_descents_with_the_relation"),
    ),
    Mutant(
        "_closure_certificate: unit column unchecked",
        HECKE,
        "                if first_column != [(sw, ONE)]:\n",
        "                if False:\n",
        nodes("test_hecke", "test_closure_certificate_needs_the_unit_column"),
    ),
    Mutant(
        "left_cosets: identity unchecked",
        REFLGRP,
        "    if group.identity not in hset:\n",
        "    if False:\n",
        nodes("test_reflgrp", "test_cosets_reject_a_subgroup_without_the_identity"),
    ),
    Mutant(
        "left_cosets: closure unchecked",
        REFLGRP,
        "            if group.mul(a, b) not in hset:\n",
        "            if False:\n",
        nodes("test_reflgrp", "test_cosets_reject_non_subgroup"),
    ),
    Mutant(
        "validate: local subgroup identity unchecked",
        EXTENSION,
        "        if wt.identity not in sub:\n",
        "        if False:\n",
        nodes("test_extension", "test_local_subgroup_witness_names_the_first_failure[identity]"),
    ),
    Mutant(
        "validate: local subgroup closure unchecked",
        EXTENSION,
        "        elif any(wt.mul(x, y) not in sub for x in sub for y in sub):\n",
        "        elif False:\n",
        nodes("test_extension", "test_local_subgroup_witness_names_the_first_failure[closure]"),
    ),
    Mutant(
        "validate: local subgroup image unchecked",
        EXTENSION,
        "        elif {e.q[x] for x in sub} != set(e.arrangement[a].stabilizer_elements):\n",
        "        elif False:\n",
        nodes("test_extension", "test_local_subgroup_witness_names_the_first_failure[image]"),
    ),
)


def pytest_run(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    return proc.returncode


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work"
            ),
        )
        tests = sorted({node for m in MUTANTS for node in m.tests})
        if pytest_run(copy, tests) != 0:
            print("the named tests do not all pass unmutated", file=sys.stderr)
            return 1
        bad = 0
        for m in MUTANTS:
            path = copy / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name}: the old text does not occur exactly once", file=sys.stderr)
                return 1
            path.write_text(original.replace(m.old, m.new))
            try:
                code = pytest_run(copy, m.tests)
            finally:
                path.write_text(original)
            # exit code 1 is "tests failed"; anything else is a broken run
            if code not in (0, 1):
                verdict, ok = f"pytest exit {code}", False
            elif m.survives:
                verdict, ok = ("survived (expected)", True) if code == 0 else ("killed", False)
            else:
                verdict, ok = ("killed", True) if code == 1 else ("SURVIVED", False)
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {m.name}: {verdict}")
    killed = sum(1 for m in MUTANTS if not m.survives)
    print(
        f"{len(MUTANTS)} mutants ({killed} to kill, {len(MUTANTS) - killed} expected "
        f"survivors), {bad} unexpected, {time.perf_counter() - start:.0f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
