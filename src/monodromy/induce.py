"""The induced braid-cover module: dimension and block ledger, the inertia
action on blocks, and full matrix models in two regimes.

Regime R1 (trivial reflection subgroup): the braid generators permute the
coset lifts, and the scalars of the extended kernel characters enter through
the kernel only.  Regime R2 (invariant character with unit jumps): the
deformed group algebra carries the whole action and kernel elements act by
scalars.  Outside these regimes only the ledger and the inertia action are
produced; the general word-level induction is deliberately not approximated.

The ledger's blocks are the cosets of the character stabilizer, so their
sizes and their sum need no check of their own, and an R2 generator's
minimal polynomial is read from the algebra that certified it.

An element x·r(word) of the pulled-back braid cover is written in splitting
coordinates (x, word).  The kernel acts on the summand at w through the
twisted character w·chi, which the ledger already holds, so R1 builds no
braid lift; the one kernel part read off the cover's Cayley table is
r_alpha x r_alpha^-1, for the conjugation check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import ONE, CycMatrix, CycNumber, CycPoly, weighted_permutation
from .errors import IntegrityError, RegimeError
from .extension import Character, CheckResult, ExtensionDatum
from .hecke import HeckeAlgebra
from .invariants import ChiInvariants
from .reflgrp import left_cosets, orbit_partition


@dataclass
class Block:
    representative: int
    elements: tuple[int, ...]
    dimension: int
    character: Character

    def to_json(self) -> dict:
        return {
            "representative": self.representative,
            "elements": list(self.elements),
            "dimension": self.dimension,
            "character": self.character.to_json(),
        }


@dataclass
class InducedLedger:
    dim_m0: int
    index: int
    dim_mchi: int
    blocks: list[Block]
    convention: str
    block_of: list[int] = field(default_factory=list)  # element -> block position

    def to_json(self) -> dict:
        return {
            "dim_m0": self.dim_m0,
            "index": self.index,
            "dim_mchi": self.dim_mchi,
            "convention": self.convention,
            "blocks": [b.to_json() for b in self.blocks],
        }


def build_ledger(
    datum: ExtensionDatum,
    chi: Character,
    inv: ChiInvariants,
) -> InducedLedger:
    """Exact dimension bookkeeping; failure is an integrity error rather
    than a warning.  The blocks are the cosets wH of the stabilizer H, or
    Hw under the datum's inverse convention."""
    convention = datum.convention
    group = datum.group
    n = len(group)
    n_zero = len(inv.w_chi_zero)
    n_chi = len(inv.w_chi)
    if n % n_zero:
        raise IntegrityError(
            f"reflection subgroup order {n_zero} does not divide {n}"
        )
    index = n // n_zero  # exact after the divisibility check
    # left_cosets certifies that H holds the identity and is closed, so the
    # blocks wH or Hw partition W and each holds |H| distinct elements
    members, coset_of = left_cosets(group, inv.w_chi)
    if convention != "left":
        # the cosets Hw are the orbits of H acting by left multiplication
        members, coset_of = orbit_partition(n, group.mul, inv.w_chi)
    blocks = []
    for coset in members:
        rep = coset[0]
        w_for_char = rep if convention == "left" else group.inv(rep)
        char = datum.act_on_character(w_for_char, chi)
        for member in coset:
            w_member = member if convention == "left" else group.inv(member)
            if datum.act_on_character(w_member, chi) != char:
                raise IntegrityError(
                    f"block character not constant on the coset of {rep}"
                )
        blocks.append(Block(rep, coset, n_chi, char))
    return InducedLedger(
        dim_m0=n_zero,
        index=index,
        dim_mchi=n,
        blocks=blocks,
        convention=convention,
        block_of=list(coset_of),
    )


@dataclass
class InertiaAction:
    ledger: InducedLedger
    scalars: dict[int, list[CycNumber]]  # kernel element -> scalar per block

    def matrix(self, x: int) -> CycMatrix:
        """Diagonal matrix on the element basis (index order)."""
        per_block = self.scalars[x]
        return CycMatrix.diagonal(per_block[b] for b in self.ledger.block_of)

    def to_json(self) -> dict:
        return {
            str(x): [v.to_json() for v in per_block]
            for x, per_block in sorted(self.scalars.items())
        }


def build_i_action(
    datum: ExtensionDatum,
    chi: Character,
    inv: ChiInvariants,
) -> InertiaAction:
    """Kernel elements act block-diagonally: on each block, by the block's
    character value times the sign character."""
    ledger = build_ledger(datum, chi, inv)
    scalars = {}
    for x in datum.kernel:
        tau_x = CycNumber.rational(datum.tau[x])
        scalars[x] = [b.character(x) * tau_x for b in ledger.blocks]
    return InertiaAction(ledger, scalars)


# ---------------------------------------------------------------------------
# full modules


@dataclass
class InducedModule:
    regime: str
    ledger: InducedLedger
    i_action: InertiaAction
    gen_matrices: dict[int, CycMatrix]  # hyperplane -> action of its lift
    i_matrices: dict[int, CycMatrix]  # kernel element -> action
    checks: list[CheckResult]
    datum: ExtensionDatum

    def represent(self, x: int, word) -> CycMatrix:
        """The module action on the cover element x·r(word), given in
        splitting coordinates: i(x) times rho(sigma)^+-1 along the word."""
        out = self.i_matrices[x]
        for alpha, exp in word:
            m = self.gen_matrices[alpha]
            out = out * (m if exp > 0 else m.inverse())
        return out

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "ledger": self.ledger.to_json(),
            "generator_matrices": {
                str(a): m for a, m in sorted(self.gen_matrices.items())
            },
            "inertia_matrices": {
                str(x): m for x, m in sorted(self.i_matrices.items())
            },
            "checks": [c.to_json() for c in self.checks],
        }


def _check(checks, name, ok, witness=None):
    checks.append(CheckResult.of(name, ok, witness))
    if not ok:
        raise IntegrityError(f"{name}: {witness}")


def _common_verifications(module: InducedModule):
    """Conjugation consistency, inertia-block match, and any supplied
    braid-relation word pairs; failures are integrity errors.  The module's
    datum passed ``validate``, as ``run_analyze`` builds no module
    otherwise: q is a homomorphism and q(r_alpha) = s_alpha^-1 = p(sigma_alpha),
    so q(r(word)) = p(word) for every word and the kernel is normal."""
    datum = module.datum
    checks = module.checks
    wtilde = datum.wtilde

    for x in datum.kernel:
        expected = module.i_action.matrix(x)
        _check(
            checks,
            f"inertia_restriction[x={x}]",
            module.i_matrices[x] == expected,
            "kernel action differs from the block scalars",
        )

    for alpha in sorted(module.gen_matrices):
        r_alpha = datum.splitting[alpha]
        rep_sigma = module.gen_matrices[alpha]
        for x in datum.kernel:
            # sigma x sigma^-1 freely reduces to the empty word, so it is its
            # own kernel part r_alpha x r_alpha^-1 (the kernel is normal)
            conj = wtilde.conjugate(r_alpha, x)
            # rho(s) rho(x) = rho(s x s^-1) rho(s) says the same as
            # rho(s) rho(x) rho(s)^-1 = rho(s x s^-1) because rho(s) is
            # already known to be invertible: in R1 by the monomial check,
            # for R2's simple and cyclic generators by the algebra's
            # relation certificate, and for R2's conjugates t^-1 T t
            # because they were built from a computed t^-1
            _check(
                checks,
                f"conjugation[alpha={alpha},x={x}]",
                rep_sigma * module.i_matrices[x]
                == module.represent(conj, ()) * rep_sigma,
                "module action is not equivariant for the kernel",
            )
            _check(
                checks,
                f"kernel_product[alpha={alpha},x={x}]",
                module.represent(x, ((alpha, 1),))
                == module.i_matrices[x] * rep_sigma,
                "kernel-by-generator product mismatch",
            )

    for idx, (w1, w2) in enumerate(datum.braid_relations):
        p1, p2 = datum.p_of_word(w1), datum.p_of_word(w2)
        _check(
            checks,
            f"braid_relation_base[{idx}]",
            p1 == p2,
            f"asserted relation has distinct base images {p1} != {p2}",
        )
        _check(
            checks,
            f"braid_relation[{idx}]",
            module.represent(wtilde.identity, w1)
            == module.represent(wtilde.identity, w2),
            "module action separates an asserted braid relation",
        )


def build_full_r1(
    datum: ExtensionDatum,
    chi: Character,
    inv: ChiInvariants,
) -> InducedModule:
    """Model on coset lifts, defined when the reflection subgroup is trivial,
    the degree-one relation character is trivial and every generator of W
    is a power of a distinguished generator: the braid generators permute
    the lifts, and the scalars enter through the kernel only.  The datum
    must have passed ``validate`` (see ``_common_verifications``)."""
    group = datum.group
    if inv.w_chi_zero != (group.identity,):
        raise RegimeError(
            "regime R1 needs a trivial reflection subgroup, got order "
            f"{len(inv.w_chi_zero)}"
        )
    if not inv.rho_trivial:
        raise RegimeError(
            "regime R1 needs the degree-one relation character to be trivial"
        )
    i_action = build_i_action(datum, chi, inv)
    ledger = i_action.ledger
    n = len(group)
    # the lift of w is r(word) along w's stored word, each letter g taken
    # as sigma_alpha^-j for g = s_alpha^j; it exists when every generator
    # lies in some stabilizer <s_alpha>, which hyperplanes() certifies
    # cyclic on s_alpha
    powers = set().union(*(h.stabilizer_elements for h in datum.arrangement.hyperplanes))
    for slot, g in enumerate(group.generators):
        if g != group.identity and g not in powers:
            raise RegimeError(
                f"generator in slot {slot} is not a power of a distinguished "
                "generator; coset lifts are unavailable"
            )

    checks: list[CheckResult] = []
    # h = lift(target)^-1 sigma_alpha lift(w) is a product of splitting
    # images and their inverses, so its kernel part is the identity and its
    # entry chi(e) tau(e) is 1.  Each lift lies over its base element, as
    # q(r(word)) = p(word) (see _common_verifications)
    gen_matrices = {}
    for alpha in range(len(datum.arrangement)):
        s = datum.arrangement[alpha].distinguished_generator
        triples = []
        for w in range(n):
            if datum.convention == "left":
                target = group.mul(group.inv(s), w)
            else:
                target = group.mul(w, s)
            triples.append((target, w, ONE))
        gen_matrices[alpha] = CycMatrix.from_triples(n, n, triples)

    # The entry of x at w is chi(c) tau(c), c = r^-1 x r, r the lift of v = w
    # (v = w^-1 under the inverse convention).  q is a homomorphism
    # (validate), so r = section(v) k with k in the kernel, and chi is
    # multiplicative on the kernel (character_from_values), so
    # chi(k^-1 y k) = chi(y); tau.conjugation_invariant gives tau(c) = tau(x).
    # The entry is act_on_character(v, chi)(x) tau(x), and build_ledger
    # certifies that character to be the block character of w's coset: the
    # entry is the inertia action's
    i_matrices = {x: i_action.matrix(x) for x in datum.kernel}

    module = InducedModule("R1", ledger, i_action, gen_matrices, i_matrices, checks, datum)
    for alpha, m in gen_matrices.items():
        _check(
            checks,
            f"monomial[alpha={alpha}]",
            _is_monomial_of_roots(m),
            "generator matrix is not monomial with root-of-unity entries",
        )
    _common_verifications(module)
    return module


def _is_monomial_of_roots(m: CycMatrix) -> bool:
    """One nonzero entry per row and per column, each a root of unity."""
    perm = weighted_permutation(m)
    return perm is not None and all(a.root_of_unity_order() is not None for a in perm[1])


def build_full_r2(
    datum: ExtensionDatum,
    chi: Character,
    inv: ChiInvariants,
    hecke: HeckeAlgebra,
    rbar_by_alpha: dict[int, CycPoly],
) -> InducedModule:
    """Deformed-group-algebra model, defined when the character is invariant
    and every jump is one; braid generators act by the algebra generators
    or their conjugates t^-1 T t.  Each generator's minimal polynomial,
    read from the algebra that certified it, is compared with its relation
    in ``rbar_by_alpha``; a conjugate shares the polynomial of T.  The
    datum must have passed ``validate`` (see ``_common_verifications``)."""
    group = datum.group
    if len(inv.w_chi) != len(group):
        raise RegimeError("regime R2 needs an invariant character")
    if any(h.jump != 1 for h in inv.per_hyperplane):
        raise RegimeError("regime R2 needs all jumps equal to one")
    if len(inv.w_chi_zero) != len(group):
        raise RegimeError(
            "regime R2 needs the reflections to generate the whole group"
        )
    if hecke.dimension != len(group):
        raise RegimeError(
            f"algebra dimension {hecke.dimension} does not match the group "
            f"order {len(group)}"
        )

    arr = datum.arrangement
    gen_matrices: dict[int, CycMatrix] = {}
    source: dict[int, str] = {}  # hyperplane -> the algebra generator used
    if hecke.regime == "cyclic":
        if len(arr) != 1:
            raise RegimeError(
                "cyclic algebra mapping needs a single hyperplane"
            )
        source[0] = "t"
        gen_matrices[0] = hecke.generators["t"]
    elif hecke.regime == "coxeter":
        if hecke.group is not group:
            raise RegimeError(
                "quadratic algebra must be built over the datum's group"
            )
        for alpha in range(len(arr)):
            if alpha in hecke.simple_hyperplanes:
                source[alpha] = f"s{alpha}"
                gen_matrices[alpha] = hecke.generators[f"s{alpha}"]
                continue
            conjugator = None
            for w in range(len(group)):
                for beta in hecke.simple_hyperplanes:
                    if arr.act(w, beta) == alpha:
                        conjugator = (w, beta)
                        break
                if conjugator:
                    break
            if conjugator is None:
                raise IntegrityError(
                    f"hyperplane {alpha} is not in the orbit of any simple one"
                )
            # the inverse-letter braid lift of w maps to T_{w^-1}^-1, since
            # reversing a reduced word of w gives one of w^-1
            w, beta = conjugator
            t = hecke.t_of_element(group.inv(w))
            source[alpha] = f"s{beta}"
            gen_matrices[alpha] = t.inverse() * hecke.generators[f"s{beta}"] * t
    else:
        raise RegimeError(
            f"no hyperplane mapping for algebra regime {hecke.regime!r}"
        )

    i_action = build_i_action(datum, chi, inv)
    ledger = i_action.ledger
    n = hecke.dimension
    i_matrices = {
        x: CycMatrix.scalar(
            n, chi(x) * CycNumber.rational(datum.tau[x])
        )
        for x in datum.kernel
    }
    checks: list[CheckResult] = []
    module = InducedModule("R2", ledger, i_action, gen_matrices, i_matrices, checks, datum)
    for alpha, rbar in sorted(rbar_by_alpha.items()):
        # the algebra certified each generator's relation as its minimal
        # polynomial, and a conjugate t^-1 T t by the exact inverse of t is
        # similar to T, so it has the same minimal polynomial
        got = hecke.params[source[alpha]]
        _check(
            checks,
            f"generator_relation[alpha={alpha}]",
            got == rbar,
            f"minimal polynomial {got!r} differs from the relation {rbar!r}",
        )
    _common_verifications(module)
    return module
