"""Stabilizer invariants of a character: the stabilizer subgroup, the local
jump exponents per hyperplane, the reflection subgroup W_chi^0 generated by
the local stabilizers, the hyperplane orbits of both subgroups (from
``reflgrp.orbit_partition``), and the degree-one relation character on the
full-jump hyperplanes, set once from the per-hyperplane relation polynomials.
W_chi^0 is closed by one ``word_lengths`` search over one generator per
nontrivial meet; the Hecke stage and ``reflgrp.restrict`` read that search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cyclo import ONE, CycMatrix, CycNumber, CycPoly
from .errors import IntegrityError, ParameterError
from .extension import Character, CheckResult, ExtensionDatum
from .reflgrp import orbit_partition, subgroup_generated, word_lengths


@dataclass
class HyperplaneInvariant:
    stabilizer_meet: tuple[int, ...]  # W_alpha intersected with the chi-stabilizer
    jump: int  # e_alpha = |W_alpha| / |meet|
    a_class: str  # "A0" when jump < order, "A1" when jump == order


@dataclass
class ChiInvariants:
    w_chi: tuple[int, ...]
    per_hyperplane: list[HyperplaneInvariant]
    w_chi_zero: tuple[int, ...]
    chi_orbits: list[list[int]]  # orbits of hyperplanes under the stabilizer
    zero_orbits: list[list[int]]  # orbits under the reflection subgroup
    zero_generators: dict[int, int]  # alpha -> s_alpha^e_alpha, nontrivial meets
    zero_lengths: dict[int, int]  # word_lengths over zero_generators
    zero_orbit_of: list[int]  # the zero_orbits position of every hyperplane
    # keyed by least hyperplane of A1 orbits; set by with_relation_character
    rho_values: dict[int, CycNumber] = field(default_factory=dict)
    rho_trivial: bool = True
    checks: list[CheckResult] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "w_chi": list(self.w_chi),
            "w_chi_order": len(self.w_chi),
            "per_hyperplane": [
                {
                    "index": a,
                    "stabilizer_meet": list(h.stabilizer_meet),
                    "jump": h.jump,
                    "class": h.a_class,
                }
                for a, h in enumerate(self.per_hyperplane)
            ],
            "w_chi_zero": list(self.w_chi_zero),
            "w_chi_zero_order": len(self.w_chi_zero),
            "chi_orbits": self.chi_orbits,
            "rho_values": {str(a): v.to_json() for a, v in sorted(self.rho_values.items())},
            "rho_trivial": self.rho_trivial,
            "checks": [c.to_json() for c in self.checks],
        }


def compute_chi_invariants(datum: ExtensionDatum, chi: Character) -> ChiInvariants:
    """All stabilizer invariants of a character, with the trivial relation
    character; ``with_relation_character`` sets it from the relations."""
    group = datum.group
    arr = datum.arrangement
    checks: list[CheckResult] = []

    w_chi = datum.stabilizer_of_character(chi)
    w_chi_set = set(w_chi)

    per: list[HyperplaneInvariant] = []
    zero_generators: dict[int, int] = {}
    for a in range(len(arr)):
        h = arr[a]
        meet = tuple(i for i in h.stabilizer_elements if i in w_chi_set)
        jump = h.order // len(meet)
        per.append(HyperplaneInvariant(meet, jump, "A1" if jump == h.order else "A0"))
        if len(meet) > 1:
            # the meet is the subgroup of order n/e of the cyclic group
            # W_alpha = <s_alpha> of order n, so it is <s_alpha^e>;
            # check_generation certifies this as chi.local_generation
            zero_generators[a] = group.power(h.distinguished_generator, jump)

    zero_lengths = word_lengths(group, zero_generators.values())
    w_chi_zero = tuple(sorted(zero_lengths))

    # containment in the stabilizer
    containment = set(w_chi_zero) <= w_chi_set
    checks.append(
        CheckResult.of(
            "chi.reflection_subgroup_in_stabilizer",
            containment,
            f"escaping elements {sorted(set(w_chi_zero) - w_chi_set)}",
        )
    )
    if not containment:
        raise IntegrityError("reflection subgroup escapes the stabilizer")

    # the reflection subgroup meets every local stabilizer exactly in the
    # stored meet; the source asserts this without proof, so verify it
    witness = None
    zero_set = set(w_chi_zero)
    for a in range(len(arr)):
        got = tuple(
            i for i in arr[a].stabilizer_elements if i in zero_set
        )
        if got != per[a].stabilizer_meet:
            witness = f"hyperplane {a}: {got} vs {per[a].stabilizer_meet}"
            break
    checks.append(CheckResult.of("chi.local_meet_identity", witness is None, witness))
    if witness is not None:
        raise IntegrityError(f"local meet identity failed: {witness}")

    # every non-identity meet element fixes a hyperplane
    witness = None
    identity = CycMatrix.identity(group.rank)
    for g in sorted({i for h in per for i in h.stabilizer_meet}):
        if g == group.identity:
            continue
        diff = group.elements[g] - identity
        if diff.rank() != 1:
            witness = f"generator {g} does not fix a hyperplane"
            break
    checks.append(CheckResult.of("chi.generators_are_reflections", witness is None, witness))

    # jump constancy along stabilizer orbits
    partition = orbit_partition(len(arr), arr.act, w_chi)
    chi_orbits = [list(o) for o in partition[0]]
    witness = None
    for orbit in chi_orbits:
        jumps = {per[a].jump for a in orbit}
        if len(jumps) > 1:
            witness = f"orbit {orbit} has jumps {sorted(jumps)}"
            break
    checks.append(CheckResult.of("chi.jump_orbit_constancy", witness is None, witness))
    if witness is not None:
        raise IntegrityError(f"jump invariance failed: {witness}")

    if len(w_chi_zero) < len(w_chi):
        # W_chi^0 lies in W_chi (certified above): equal orders, one group
        partition = orbit_partition(len(arr), arr.act, w_chi_zero)
    zero_members, zero_orbit_of = partition

    return ChiInvariants(
        w_chi=w_chi,
        per_hyperplane=per,
        w_chi_zero=w_chi_zero,
        chi_orbits=chi_orbits,
        zero_orbits=[list(o) for o in zero_members],
        zero_generators=zero_generators,
        zero_lengths=zero_lengths,
        zero_orbit_of=zero_orbit_of,
        checks=checks,
    )


def with_relation_character(
    inv: ChiInvariants,
    rbar_by_alpha: dict[int, CycPoly],
) -> ChiInvariants:
    """The invariants with the degree-one relation character set on the
    full-jump hyperplanes: each such reflection-subgroup orbit takes the
    root of the relation polynomial that rbar_by_alpha gives its least
    hyperplane, or the trivial value when it gives none."""
    rho_values: dict[int, CycNumber] = {}
    for orbit in inv.zero_orbits:
        rep = orbit[0]
        if inv.per_hyperplane[rep].a_class != "A1":
            continue
        poly = rbar_by_alpha.get(rep)
        if poly is None:
            rho_values[rep] = ONE
            continue
        if poly.degree != 1:
            raise ParameterError(
                f"full-jump hyperplane {rep} requires a degree-one relation "
                f"polynomial, got degree {poly.degree}"
            )
        root = -poly.constant_term
        if root.root_of_unity_order() is None:
            raise ParameterError(
                f"relation root {root!r} at hyperplane {rep} is not a root of unity"
            )
        rho_values[rep] = root
    rho_trivial = all(v.is_one() for v in rho_values.values())
    return replace(inv, rho_values=rho_values, rho_trivial=rho_trivial)


def check_generation(datum: ExtensionDatum, inv: ChiInvariants):
    """Confirm that each meet is the cyclic group on the jump-th power of its
    hyperplane's distinguished generator, the power ``w_chi_zero`` is closed
    over (the identity where the meet is trivial); returns (ok, witness).
    That these powers generate ``w_chi_zero`` holds by construction."""
    group = datum.group
    for a, h in enumerate(inv.per_hyperplane):
        power = inv.zero_generators.get(a, group.identity)
        if tuple(sorted(h.stabilizer_meet)) != subgroup_generated(group, [power]):
            return False, f"hyperplane {a}: meet is not generated by the jump power"
    return True, None
