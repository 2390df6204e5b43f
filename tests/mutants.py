"""Mutation checks for the certificates of the group layer, the Hecke build
and stage, the projection, splitting, local-subgroup and character checks
of datum validation, the action of W on kernel characters, the character
invariants, the carousel and the induced module, and for the report
writer's refusals and its handling of a closed stdout.

Each entry is one exact text edit of a file under ``src/monodromy`` and the
pytest node ids that must fail once the edit is made.  The script first
checks that every entry's old text occurs exactly once, and lists every
entry whose text does not before it runs any test.  It then copies the
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
INVARIANTS = "src/monodromy/invariants.py"
INDUCE = "src/monodromy/induce.py"
CAROUSEL = "src/monodromy/carousel.py"
CLI = "src/monodromy/cli.py"


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


# an expected survivor names tests that reach its site over the whole corpus
GOLDEN = ("tests/test_cli.py::test_reports_match_reference_digests",)
INVARIANTS_SURVIVOR_TESTS = GOLDEN + nodes(
    "test_invariants",
    "test_orbits_match_the_image_loop_on_every_corpus_run",
    "test_stabilizer_order_divides_group_order",
)
HECKE_STAGE_SURVIVOR_TESTS = GOLDEN + nodes(
    "test_cli",
    "test_b2_swap_cover_reports_match_recorded_digests",
    "test_family_reports_match_recorded_digests",
    "test_proper_reflection_subgroup_gets_its_own_coxeter_algebra",
    "test_b2_with_quadratic_override",
)
CHARACTER_SURVIVOR_TESTS = GOLDEN + nodes(
    "test_extension", "test_characters_are_multiplicative", "test_character_from_spec"
)
MODULE_SURVIVOR_TESTS = GOLDEN + nodes(
    "test_induce",
    "test_r1_generators_match_the_fiber_route_on_every_corpus_run",
    "test_r1_inertia_matrices_match_the_fiber_route",
    "test_inverse_r1_module_is_the_left_module_relabeled",
    "test_r2_s3_group_algebra",
    "test_r2_b2_split",
)

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
        "restrict: distinguished generator not powered",
        REFLGRP,
        "        s = group.power(h.distinguished_generator, h.order // len(meet))\n",
        "        s = h.distinguished_generator\n",
        nodes("test_reflgrp", "test_restrict_matches_the_re_enumerated_subgroup")
        + nodes("test_cli", "test_family_reports_match_recorded_digests"),
    ),
    Mutant(
        "restrict: hyperplanes in W's order",
        REFLGRP,
        "    met.sort()",
        "    pass",
        nodes("test_reflgrp", "test_restrict_matches_the_re_enumerated_subgroup"),
    ),
    Mutant(
        "restrict: orbit ids in W's hyperplane order",
        REFLGRP,
        "        oid = orbit_ids.setdefault(orbit_of[alpha], len(orbit_ids))\n",
        "        oid = orbit_of[alpha]\n",
        nodes("test_reflgrp", "test_restrict_matches_the_re_enumerated_subgroup"),
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
        "build_coxeter: generation test dropped",
        HECKE,
        "            if len(lengths) != len(group):\n                continue\n",
        "",
        nodes(
            "test_hecke",
            "test_star_transpositions_are_not_a_simple_system_at_q_two",
            "test_relations_other_than_unit_take_a_coxeter_system",
        ),
    ),
    Mutant(
        "build_coxeter: Coxeter filter always true",
        HECKE,
        "            if not unit and not _is_coxeter_system(group, elems):\n                continue\n",
        "",
        nodes(
            "test_hecke",
            "test_star_transpositions_are_not_a_simple_system_at_q_two",
            "test_relations_other_than_unit_take_a_coxeter_system",
        ),
    ),
    Mutant(
        "build_coxeter: Coxeter filter always false",
        HECKE,
        "            if not unit and not _is_coxeter_system(group, elems):\n",
        "            if not unit:\n",
        nodes("test_hecke", "test_b2_with_numeric_parameter", "test_b4_with_a_generic_relation"),
    ),
    Mutant(
        "build_coxeter: Coxeter filter under x^2 - 1",
        HECKE,
        "    unit = all(",
        "    unit = False and all(",
        nodes("test_hecke", "test_star_transpositions_are_not_a_simple_system_at_q_two"),
    ),
    Mutant(
        "_is_coxeter_system: Tits entry for m_ij + 1",
        HECKE,
        "        m[i, j] = m[j, i] = group.element_order(group.mul(simple[i], simple[j]))\n",
        "        m[i, j] = m[j, i] = group.element_order(group.mul(simple[i], simple[j])) + 1\n",
        nodes(
            "test_hecke",
            "test_every_generating_pair_of_dihedral_reflections_is_a_coxeter_system",
            "test_transposition_triples_are_a_coxeter_system_exactly_when_a_path",
        ),
    ),
    Mutant(
        "_is_coxeter_system: Tits entry for m_ij - 1",
        HECKE,
        "        m[i, j] = m[j, i] = group.element_order(group.mul(simple[i], simple[j]))\n",
        "        m[i, j] = m[j, i] = group.element_order(group.mul(simple[i], simple[j])) - 1\n",
        nodes(
            "test_hecke",
            "test_every_generating_pair_of_dihedral_reflections_is_a_coxeter_system",
            "test_transposition_triples_are_a_coxeter_system_exactly_when_a_path",
        ),
    ),
    Mutant(
        "_is_coxeter_system: dihedral factor joined to a third reflection",
        HECKE,
        "            if any(m[i, x] > 2 or m[j, x] > 2 for x in range(k) if x not in (i, j)):\n",
        "            if False:\n",
        nodes("test_hecke", "test_no_generating_set_of_a_non_real_group_is_a_coxeter_system"),
    ),
    Mutant(
        "_relations_hold: quadratic relation unchecked",
        HECKE,
        "        if t * t != t * (-poly.coeffs[1]) + CycMatrix.scalar(n, -poly.coeffs[0]):\n",
        "        if False:\n",
        nodes("test_hecke", "test_relations_check_refuses_a_wrong_quadratic_relation"),
    ),
    Mutant(
        "_relations_hold: braid relation unchecked",
        HECKE,
        "        if lhs != rhs:\n",
        "        if False:\n",
        nodes("test_hecke", "test_relations_check_refuses_a_broken_braid_relation"),
    ),
    Mutant(
        "_check_relation: degree unchecked",
        HECKE,
        "    if poly.degree < 1:\n",
        "    if False:\n",
        nodes("test_hecke", "test_cyclic_rejects_a_constant_relation"),
    ),
    Mutant(
        "t_of_element: group basis unchecked",
        HECKE,
        "        if self.group is None:\n",
        "        if False:\n",
        nodes("test_hecke", "test_element_operators_need_a_group_basis"),
    ),
    Mutant(
        "build_coxeter: trivial group accepted",
        HECKE,
        "    if len(arr) == 0:\n",
        "    if False:\n",
        nodes("test_hecke", "test_coxeter_rejects_the_trivial_group"),
    ),
    Mutant(
        "_orbit_constant: first value taken",
        CLI,
        "    values = {mapping.get(a, default) for a in orbit}\n",
        "    return mapping.get(orbit[0], default)\n",
        nodes("test_cli", "test_sign_datum_must_be_constant_on_a_stabilizer_orbit"),
    ),
    Mutant(
        "_hecke_stage: relation agreement unchecked",
        CLI,
        "        if params.setdefault(oid, poly) != poly:\n",
        "        if False:\n",
        nodes("test_cli", "test_relation_polynomials_must_agree_on_a_whole_group_orbit"),
    ),
    Mutant(
        "run_analyze: hecke.dimension never fails",
        CLI,
        "                    \"pass\" if hecke_algebra.dimension == len(inv.w_chi_zero) else \"fail\",\n"
        "                    f\"dimension {hecke_algebra.dimension} vs subgroup order \"\n"
        "                    f\"{len(inv.w_chi_zero)}\",\n"
        "                )\n"
        "            )\n"
        "            if hecke_algebra.dimension != len(inv.w_chi_zero):\n",
        "                    \"pass\",\n"
        "                    f\"dimension {hecke_algebra.dimension} vs subgroup order \"\n"
        "                    f\"{len(inv.w_chi_zero)}\",\n"
        "                )\n"
        "            )\n"
        "            if False:\n",
        HECKE_STAGE_SURVIVOR_TESTS,
        survives=(
            "the trivial subgroup gets the algebra of z - 1, of dimension 1; a "
            "cyclic one is a meet of order n/e and gets the companion algebra "
            "of a relation of degree n/e (carousel_minpolys folds r of degree "
            "n by the e-th power, and an override must have degree n/e); a "
            "Coxeter algebra has one basis element per element of W or of the "
            "subgroup of W restricted to the closure of the meets' generators, "
            "which is W_chi^0"
        ),
    ),
    Mutant(
        "_text: report key type unchecked",
        CLI,
        "            if type(key) is not str:\n",
        "            if False:\n",
        nodes("test_cli", "test_render_edge_cases"),
    ),
    Mutant(
        "_text: any leaf written by json.dumps",
        CLI,
        "        raise TypeError(\n"
        "            f\"report leaves must be str, int, bool or None, not {type(obj).__name__}\"\n"
        "        )\n",
        "        return json.dumps(obj)\n",
        nodes("test_cli", "test_render_edge_cases"),
    ),
    Mutant(
        "_write_report: closed stdout left in place",
        CLI,
        "            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n",
        "            pass\n",
        nodes("test_cli", "test_closed_stdout_pipe_is_usage_error"),
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
    Mutant(
        "validate: q.homomorphism forced to pass",
        EXTENSION,
        '    checks.append(CheckResult.of("q.homomorphism", hom_witness is None, hom_witness))\n',
        '    checks.append(CheckResult.of("q.homomorphism", True, hom_witness))\n',
        nodes("test_extension", "test_bad_q_fails_homomorphism")
        + nodes("test_cli", "test_sign_checks_refuse_a_kernel_that_is_not_closed"),
    ),
    Mutant(
        "validate: splitting.maps_to_inverse_generator forced to pass",
        EXTENSION,
        '        CheckResult.of("splitting.maps_to_inverse_generator", witness is None, witness)\n',
        '        CheckResult.of("splitting.maps_to_inverse_generator", True, witness)\n',
        nodes("test_extension", "test_bad_splitting_fails_with_witness"),
    ),
    Mutant(
        "act_on_character: conjugates by w·x·w^-1",
        EXTENSION,
        "                x: chi(self.wtilde.mul(self.wtilde.mul(wt_inv, x), wt))\n",
        "                x: chi(self.wtilde.mul(self.wtilde.mul(wt, x), wt_inv))\n",
        nodes("test_induce", "test_r1_inertia_matrices_match_the_fiber_route")
        + nodes(
            "test_cli",
            "test_r1_reports_match_recorded_digests",
            "test_reports_match_reference_digests",
        ),
    ),
    Mutant(
        "character_from_values: root of unity unchecked",
        EXTENSION,
        "            if known[x].root_of_unity_order() is None:\n",
        "            if False:\n",
        CHARACTER_SURVIVOR_TESTS,
        survives=(
            "on a finite kernel the closure loop reaches x^k = e for each x "
            "and compares the value there with 1, so every value is already "
            "a root of unity; the check stays because it guards outside input"
        ),
    ),
    Mutant(
        "compute_chi_invariants: W_chi^0 closed over the first power only",
        INVARIANTS,
        "    zero_lengths = word_lengths(group, zero_generators.values())\n",
        "    zero_lengths = word_lengths(group, list(zero_generators.values())[:1])\n",
        nodes("test_invariants", "test_the_meets_generate_w_chi_zero_on_every_corpus_run")
        + nodes("test_cli", "test_family_reports_match_recorded_digests"),
    ),
    Mutant(
        "compute_chi_invariants: containment assumed",
        INVARIANTS,
        "    containment = set(w_chi_zero) <= w_chi_set\n",
        "    containment = True\n",
        INVARIANTS_SURVIVOR_TESTS,
        survives="the local meets lie in the stabilizer, so the subgroup they generate does",
    ),
    Mutant(
        "compute_chi_invariants: local meet identity unchecked",
        INVARIANTS,
        "        if got != per[a].stabilizer_meet:\n",
        "        if False:\n",
        INVARIANTS_SURVIVOR_TESTS,
        survives=(
            "the reflection subgroup contains each meet and lies in the "
            "stabilizer, so it meets each local stabilizer in exactly the meet"
        ),
    ),
    Mutant(
        "compute_chi_invariants: generators are reflections unchecked",
        INVARIANTS,
        "        if diff.rank() != 1:\n",
        "        if False:\n",
        INVARIANTS_SURVIVOR_TESTS,
        survives=(
            "every non-identity meet element is a non-identity element of a "
            "pointwise stabilizer of a hyperplane, which fixes exactly that "
            "hyperplane"
        ),
    ),
    Mutant(
        "compute_chi_invariants: jump constancy unchecked",
        INVARIANTS,
        "        if len(jumps) > 1:\n",
        "        if False:\n",
        INVARIANTS_SURVIVOR_TESTS,
        survives=(
            "an element of the stabilizer conjugates one local stabilizer and "
            "its meet onto the other's, so the jumps of an orbit agree"
        ),
    ),
    Mutant(
        "with_relation_character: degree unchecked",
        INVARIANTS,
        "        if poly.degree != 1:\n",
        "        if False:\n",
        nodes("test_invariants", "test_rho_rejects_high_degree_on_full_jump"),
    ),
    Mutant(
        "with_relation_character: root of unity unchecked",
        INVARIANTS,
        "        if root.root_of_unity_order() is None:\n",
        "        if False:\n",
        nodes("test_invariants", "test_rho_rejects_a_root_that_is_not_a_root_of_unity"),
    ),
    Mutant(
        "check_generation: meets unchecked",
        INVARIANTS,
        "        if tuple(sorted(h.stabilizer_meet)) != subgroup_generated(group, [power]):\n",
        "        if False:\n",
        nodes("test_invariants", "test_check_generation_detects_a_corrupted_meet"),
    ),
    Mutant(
        "carousel_minpolys: degree unchecked",
        CAROUSEL,
        "    if r.degree != m.n:\n",
        "    if False:\n",
        nodes("test_carousel", "test_minpolys_refuse_a_shift_with_two_cycles"),
    ),
    Mutant(
        "carousel_minpolys: power-support fold unchecked",
        CAROUSEL,
        "    if folded != rbar:\n",
        "    if False:\n",
        nodes("test_carousel", "test_minpolys_refuse_powers_that_break_the_fold"),
    ),
    Mutant(
        "carousel_minpolys: constant terms unchecked",
        CAROUSEL,
        "    if r.constant_term.is_zero() or rbar.constant_term.is_zero() or "
        "rbar_mu.constant_term.is_zero():\n",
        "    if False:\n",
        nodes("test_carousel", "test_minpolys_refuse_a_singular_family_monodromy"),
    ),
    Mutant(
        "carousel_minpolys: theta twist unchecked",
        CAROUSEL,
        "    if rbar_mu != expected_mu:\n",
        "    if False:\n",
        nodes("test_carousel", "test_minpolys_refuse_a_family_monodromy_off_the_theta_twist"),
    ),
    Mutant(
        "twist_from_extension: closing up unchecked",
        CAROUSEL,
        "    if datum.q[full_turn] != datum.group.identity:\n",
        "    if False:\n",
        nodes("test_carousel", "test_twist_refuses_a_splitting_element_that_does_not_close_up"),
    ),
    Mutant(
        "build_ledger: divisibility unchecked",
        INDUCE,
        "    if n % n_zero:\n",
        "    if False:\n",
        nodes("test_induce", "test_ledger_refuses_a_reflection_subgroup_order_that_does_not_divide"),
    ),
    Mutant(
        "build_ledger: block character constancy unchecked",
        INDUCE,
        "            if datum.act_on_character(w_member, chi) != char:\n",
        "            if False:\n",
        nodes("test_induce", "test_ledger_refuses_a_coset_with_two_block_characters"),
    ),
    Mutant(
        "build_full_r1: monomial assumed",
        INDUCE,
        "            _is_monomial_of_roots(m),\n",
        "            True,\n",
        MODULE_SURVIVOR_TESTS,
        survives="every R1 generator is built as a permutation matrix",
    ),
    Mutant(
        "_common_verifications: inertia restriction assumed",
        INDUCE,
        "            module.i_matrices[x] == expected,\n",
        "            True,\n",
        nodes("test_induce", "test_inertia_certificate_catches_a_wrong_kernel_action"),
    ),
    Mutant(
        "_common_verifications: conjugation assumed",
        INDUCE,
        "                rep_sigma * module.i_matrices[x]\n"
        "                == module.represent(conj, ()) * rep_sigma,\n",
        "                True,\n",
        nodes("test_induce", "test_conjugation_certificate_catches_a_wrong_generator"),
    ),
    Mutant(
        "_common_verifications: kernel product assumed",
        INDUCE,
        "                module.represent(x, ((alpha, 1),))\n"
        "                == module.i_matrices[x] * rep_sigma,\n",
        "                True,\n",
        MODULE_SURVIVOR_TESTS,
        survives="represent(x, sigma_alpha) is i(x) rho(sigma_alpha) by definition",
    ),
    Mutant(
        "_common_verifications: conjugate taken as r^-1 x r",
        INDUCE,
        "            conj = wtilde.conjugate(r_alpha, x)\n",
        "            conj = wtilde.conjugate(wtilde.inv(r_alpha), x)\n",
        nodes("test_induce", "test_r1_inertia_matrices_match_the_fiber_route"),
    ),
    Mutant(
        "_common_verifications: braid relation base images assumed",
        INDUCE,
        "            p1 == p2,\n",
        "            True,\n",
        nodes("test_induce", "test_braid_relation_base_certificate_refuses_distinct_base_images"),
    ),
    Mutant(
        "_common_verifications: braid relation assumed",
        INDUCE,
        "            module.represent(wtilde.identity, w1)\n"
        "            == module.represent(wtilde.identity, w2),\n",
        "            True,\n",
        nodes("test_induce", "test_braid_relation_certificate_catches_a_wrong_generator"),
    ),
    Mutant(
        "build_full_r1: rotation generator accepted",
        INDUCE,
        "        if g != group.identity and g not in powers:\n",
        "        if False:\n",
        nodes("test_induce", "test_r1_refuses_a_generator_that_is_no_reflection_power"),
    ),
    Mutant(
        "build_full_r2: jumps unchecked",
        INDUCE,
        "    if any(h.jump != 1 for h in inv.per_hyperplane):\n",
        "    if False:\n",
        nodes("test_induce", "test_r2_refuses_an_input_off_its_regime[jump]"),
    ),
    Mutant(
        "build_full_r2: reflection subgroup unchecked",
        INDUCE,
        "    if len(inv.w_chi_zero) != len(group):\n",
        "    if False:\n",
        nodes("test_induce", "test_r2_refuses_an_input_off_its_regime[subgroup]"),
    ),
    Mutant(
        "build_full_r2: algebra dimension unchecked",
        INDUCE,
        "    if hecke.dimension != len(group):\n",
        "    if False:\n",
        nodes("test_induce", "test_r2_refuses_an_input_off_its_regime[dimension]"),
    ),
    Mutant(
        "build_full_r2: cyclic algebra on several hyperplanes",
        INDUCE,
        "        if len(arr) != 1:\n",
        "        if False:\n",
        nodes("test_induce", "test_r2_refuses_an_input_off_its_regime[cyclic]"),
    ),
    Mutant(
        "build_full_r2: algebra over another group",
        INDUCE,
        "        if hecke.group is not group:\n",
        "        if False:\n",
        nodes("test_induce", "test_r2_refuses_an_input_off_its_regime[group]"),
    ),
    Mutant(
        "build_full_r2: unknown algebra regime accepted",
        INDUCE,
        "    else:\n        raise RegimeError(\n            f\"no hyperplane mapping",
        "    elif False:\n        raise RegimeError(\n            f\"no hyperplane mapping",
        nodes("test_induce", "test_r2_refuses_an_input_off_its_regime[product]"),
    ),
    Mutant(
        "build_full_r2: missing conjugator unchecked",
        INDUCE,
        "            if conjugator is None:\n",
        "            if False:\n",
        MODULE_SURVIVOR_TESTS,
        survives=(
            "every reflection of a finite Coxeter group is conjugate to a "
            "simple one, and build_coxeter certified the simple system"
        ),
    ),
    Mutant(
        "build_full_r2: generator relation assumed",
        INDUCE,
        "            got == rbar,\n",
        "            True,\n",
        nodes("test_induce", "test_generator_relation_certificate_refuses_a_changed_relation"),
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
    stale = [m for m in MUTANTS if (ROOT / m.file).read_text().count(m.old) != 1]
    for m in stale:
        print(f"{m.name}: the old text does not occur exactly once in {m.file}", file=sys.stderr)
    if stale:
        return 1
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
