import json

import pytest

from monodromy.cyclo import CycMatrix, CycNumber, zeta
from monodromy.errors import DomainError, IntegrityError, ParseError, ValidationError
from monodromy.extension import (
    CayleyGroup,
    Character,
    ExtensionDatum,
    character_from_spec,
    datum_from_json,
    datum_to_json,
    validate,
)
from monodromy.fixtures import direct_product_datum
from monodromy.reflgrp import enumerate_group, hyperplanes
from corpus import (
    FIXTURES,
    FiberElement,
    FiberRoute,
    characters,
    free_reduce,
    load_datum,
    manifest,
    s3_rank2_generators,
)


def rat(x):
    return CycNumber.rational(x)


# ---------------------------------------------------------------------------
# covering group table


def test_cayley_group_identity_and_inverses():
    g = load_datum("s3_over_s2").wtilde  # the symmetric group on three letters
    assert g.identity == 0
    for a in range(len(g)):
        assert g.mul(a, g.inv(a)) == g.identity
    assert g.associativity_witness() is None


def test_cayley_group_rejects_bad_table():
    with pytest.raises(ParseError):
        CayleyGroup([[0, 1], [1]])
    with pytest.raises(ParseError):
        CayleyGroup([[0, 5], [1, 0]])


def test_associativity_witness_on_broken_table():
    # a latin square that is not a group table (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    g = CayleyGroup(table)
    assert g.associativity_witness() is not None


def test_inverses_are_found_per_element():
    # 0 and 1 have inverses; 2 has no b with 2 * b = 0, and 3 * 2 = 0 but
    # 2 * 3 = 1, so neither 2 nor 3 has one
    g = CayleyGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 1], [3, 2, 0, 1]])
    assert g.identity == 0
    assert (g.inv(0), g.inv(1)) == (0, 1)
    for a in (2, 3):
        with pytest.raises(ValidationError, match=f"element {a} has no inverse"):
            g.inv(a)
    # validation names the first element without an inverse
    trivial = enumerate_group([CycMatrix([[rat(1)]])])
    d = ExtensionDatum(trivial, hyperplanes(trivial), g, [0, 0, 0, 0], {})
    report = validate(d)
    check = next(c for c in report.checks if c.name == "wtilde.inverses")
    assert (check.status, check.witness) == ("fail", "element 2")


# ---------------------------------------------------------------------------
# validation


def test_direct_product_datum_validates():
    d = direct_product_datum("dp", s3_rank2_generators(), 3)
    report = validate(d)
    assert report.ok
    assert any(c.status == "assumed" for c in report.checks)


def test_s3_over_s2_validates():
    report = validate(load_datum("s3_over_s2"))
    assert report.ok


def test_bad_splitting_fails_with_witness():
    d = load_datum("s3_over_s2")
    three_cycle = next(x for x in d.kernel if d.wtilde.element_order(x) == 3)
    d.splitting = {0: three_cycle}  # a 3-cycle covers the identity
    report = validate(d)
    assert not report.ok
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert "splitting.maps_to_inverse_generator" in failed
    witness = next(
        c.witness for c in report.checks
        if c.status == "fail" and c.name == "splitting.maps_to_inverse_generator"
    )
    assert "0" in witness


def test_bad_q_fails_homomorphism():
    d = load_datum("s3_over_s2")
    q = list(d.q)
    q[3] = 1 - q[3]
    d.q = tuple(q)
    report = validate(d)
    assert not report.ok
    assert "q.homomorphism" in {c.name for c in report.checks if c.status == "fail"}


def test_local_subgroup_override_accepted_and_flagged():
    d = load_datum("quaternion_over_v4")
    report = validate(d)
    assert any(c.name == "local_subgroups.default_preimage" for c in report.checks)
    # the explicit full preimage validates the same way, and the flag names
    # only the hyperplanes still on the default
    alpha = next(iter(d.splitting))
    d.wtilde_alpha_override = {alpha: d.wtilde_alpha(alpha)}
    report = validate(d)
    assert report.ok
    flag = next(c for c in report.checks if c.name == "local_subgroups.default_preimage")
    still_defaulted = [a for a in range(len(d.arrangement)) if a != alpha]
    assert flag.witness.startswith(f"hyperplanes {still_defaulted}")


def test_local_subgroup_override_rejected_when_not_closed():
    d = load_datum("quaternion_over_v4")
    alpha = next(iter(d.splitting))
    full = sorted(d.wtilde_alpha(alpha))
    d.wtilde_alpha_override = {alpha: frozenset(full[:3])}  # not a subgroup
    report = validate(d)
    assert not report.ok
    assert any(
        c.name in ("local_subgroups.subgroup", "splitting.in_local_subgroup")
        for c in report.checks
        if c.status == "fail"
    )


# s3_over_s2: the kernel is {0, 3, 4}, the transpositions {1, 2, 5} map to
# the reflection, and the one hyperplane's stabilizer is the whole base group
@pytest.mark.parametrize(
    "members, witness",
    [
        ([1], "missing identity"),
        ([], "missing identity"),
        ([0, 1, 2], "not closed"),  # 1 * 2 = 4
        ([0, 3, 4], "base image is not the local stabilizer"),
    ],
    ids=["identity", "empty", "closure", "image"],
)
def test_local_subgroup_witness_names_the_first_failure(members, witness):
    raw = json.loads((FIXTURES / "s3_over_s2.json").read_text())
    raw["wtilde_alpha"] = {"0": members}
    report = validate(datum_from_json(raw))
    check = next(c for c in report.checks if c.name == "local_subgroups.subgroup")
    assert check.witness == f"hyperplane 0: {witness}"


# ---------------------------------------------------------------------------
# characters


def test_kernel_of_s3_over_s2():
    d = load_datum("s3_over_s2")
    assert len(d.kernel) == 3  # the alternating subgroup


def test_character_enumeration_counts():
    assert len(characters(load_datum("s3_over_s2"))) == 3
    assert len(characters(load_datum("cyclic_z8_over_z4"))) == 2
    assert len(characters(load_datum("s3xs3_over_v4"))) == 9
    assert len(characters(load_datum("dicyclic12_over_s2"))) == 6


def check_character(d, chi):
    """The character certificate that the closure loop of
    character_from_values stands in for."""
    assert set(chi.values) == set(d.kernel)
    for x in d.kernel:
        assert chi(x).root_of_unity_order() is not None
    for a in d.kernel:
        for b in d.kernel:
            assert chi(d.wtilde.mul(a, b)) == chi(a) * chi(b), (a, b)


def test_characters_are_multiplicative():
    # every character of every corpus datum, as extended from its values on
    # kernel generators and on the whole kernel, and the character of every
    # manifest spec
    count = 0
    for entry in manifest():
        if entry["expected_exit"] != 0:
            continue
        d = load_datum(entry["file"].removesuffix(".json"))
        for chi in characters(d):
            check_character(d, chi)
            check_character(d, d.character_from_values(chi.values))
            count += 1
        for spec in entry["chi_specs"]:
            check_character(d, character_from_spec(d, spec))
    assert count == 48


def test_character_from_spec():
    d = load_datum("s3_over_s2")
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    chi = character_from_spec(d, {"modulus": 3, "values": {str(x): 1}})
    assert chi(x) == zeta(3)
    trivial = character_from_spec(d, "trivial")
    assert all(v.is_one() for v in trivial.values.values())
    with pytest.raises(ValidationError):
        # a cube root of unity on an element of order three times... the
        # wrong modulus cannot extend multiplicatively
        character_from_spec(d, {"modulus": 2, "values": {str(x): 1}})


def test_trivial_character_fixed_by_action():
    d = load_datum("s3_over_s2")
    chi = Character.trivial(d.kernel)
    for w in range(len(d.group)):
        assert d.act_on_character(w, chi) == chi


def test_s3_action_inverts_faithful_character():
    d = load_datum("s3_over_s2")
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    chi = d.character_from_values({x: zeta(3)})
    flipped = d.act_on_character(1, chi)  # 1 is the reflection
    assert flipped == Character({y: v.inverse() for y, v in chi.values.items()})
    assert flipped != chi


def test_abelian_cover_acts_trivially():
    d = load_datum("cyclic_z8_over_z4")
    for chi in characters(d):
        for w in range(len(d.group)):
            assert d.act_on_character(w, chi) == chi


def test_action_is_a_left_action():
    for name in ("s3_over_s2", "s4_over_s3", "quaternion_over_v4"):
        d = load_datum(name)
        chis = characters(d)
        for chi in chis:
            for w1 in range(len(d.group)):
                for w2 in range(len(d.group)):
                    lhs = d.act_on_character(d.group.mul(w1, w2), chi)
                    rhs = d.act_on_character(w1, d.act_on_character(w2, chi))
                    assert lhs == rhs


def test_tau_is_action_invariant():
    d = load_datum("quaternion_over_v4")
    tau = Character({x: rat(d.tau[x]) for x in d.kernel})
    for w in range(len(d.group)):
        assert d.act_on_character(w, tau) == tau


# ---------------------------------------------------------------------------
# fiber elements, through the fiber route of tests/corpus.py


def test_free_reduction():
    assert free_reduce([(0, 1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))


def test_fiber_identity_product():
    d = FiberRoute(load_datum("s3_over_s2"))
    e = FiberElement(d.wtilde.identity, ())
    assert d.fiber_mul(e, e) == e


def test_fiber_splitting_inverse_cancels():
    d = FiberRoute(load_datum("s3_over_s2"))
    g = d.r_tilde(((0, 1),))
    assert d.fiber_mul(g, d.fiber_inv(g)) == FiberElement(d.wtilde.identity, ())


def test_fiber_componentwise_inertia_product():
    d = FiberRoute(load_datum("s3_over_s2"))
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    g = d.fiber_mul(d.embed_inertia(x), d.r_tilde(((0, 1),)))
    assert g.wt == d.wtilde.mul(x, d.splitting[0])
    assert g.word == ((0, 1),)


def test_fiber_check_rejects_mismatch():
    d = FiberRoute(load_datum("s3_over_s2"))
    with pytest.raises(IntegrityError):
        d.fiber_check(FiberElement(d.splitting[0], ()))


def test_inertia_part_refuses_an_element_off_the_splitting():
    # the splitting element lies over the reflection, so with the empty word
    # it is no kernel element times the splitting of its word
    d = FiberRoute(load_datum("s3_over_s2"))
    g = FiberElement(d.splitting[0], ())
    with pytest.raises(IntegrityError) as err:
        d.inertia_part(g)
    assert str(err.value) == f"element {g} does not decompose over the splitting"


# ---------------------------------------------------------------------------
# extended characters on the braid cover


def test_chi_hat_is_one_on_splitting_image():
    d = FiberRoute(load_datum("cyclic_z8_over_z4"))
    chi = characters(d)[1]
    g = d.r_tilde(((0, 1),))
    assert d.eval_chi_hat(chi, g).is_one()


def test_chi_hat_restricts_to_chi():
    d = FiberRoute(load_datum("s3_over_s2"))
    for chi in characters(d):
        for x in d.kernel:
            assert d.eval_chi_hat(chi, d.embed_inertia(x)) == chi(x)


def test_chi_hat_mixed_product_formula():
    # brute force over the six-element cover: chi_hat(x * r(sigma) * y)
    # equals chi(x) * chi(r y r^{-1})
    d = FiberRoute(load_datum("s3_over_s2"))
    chi = d.character_from_values(
        {next(i for i in d.kernel if i != d.wtilde.identity): zeta(3)}
    )
    # the faithful character is not stabilized by the reflection, so use
    # words with trivial base image: sigma * sigma has image s^2 = 1
    for x in d.kernel:
        for y in d.kernel:
            g = d.fiber_mul(
                d.fiber_mul(d.embed_inertia(x), d.r_tilde(((0, 1),))),
                d.fiber_mul(d.embed_inertia(y), d.r_tilde(((0, -1),))),
            )
            r = d.splitting[0]
            expected = chi(x) * chi(d.wtilde.conjugate(r, y))
            assert d.eval_chi_hat(chi, g) == expected


def test_chi_hat_undefined_outside_stabilizer():
    d = FiberRoute(load_datum("s3_over_s2"))
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    chi = d.character_from_values({x: zeta(3)})
    with pytest.raises(DomainError):
        d.eval_chi_hat(chi, d.r_tilde(((0, 1),)))


def test_chi_hat_multiplicative_within_stabilizer_cover():
    d = FiberRoute(load_datum("cyclic_z8_over_z4"))
    chi = characters(d)[1]  # faithful on the order-2 kernel
    words = [(), ((0, 1),), ((0, -1),), ((0, 1), (0, 1))]
    elems = [
        d.fiber_mul(d.embed_inertia(x), d.r_tilde(w))
        for x in d.kernel
        for w in words
    ]
    for a in elems:
        for b in elems:
            prod = d.fiber_mul(a, b)
            assert d.eval_chi_hat(chi, prod) == d.eval_chi_hat(chi, a) * d.eval_chi_hat(chi, b)


def test_tau_hat_values():
    d = FiberRoute(load_datum("quaternion_over_v4"))
    alpha = next(iter(d.splitting))
    assert d.eval_tau_hat(d.r_tilde(((alpha, 1),))) == 1
    minus_one = next(x for x in d.kernel if x != d.wtilde.identity)
    assert d.eval_tau_hat(d.embed_inertia(minus_one)) == -1
    mixed = d.fiber_mul(d.embed_inertia(minus_one), d.r_tilde(((alpha, 1),)))
    assert d.eval_tau_hat(mixed) == -1


def test_direct_product_chi_hat_depends_only_on_kernel_component():
    d = FiberRoute(direct_product_datum("dp", [CycMatrix([[zeta(3)]])], 3))
    chi = characters(d)[1]
    words = [(), ((0, 1),), ((0, 1), (0, 1)), ((0, -1),)]
    for w in words:
        base = d.r_tilde(w)
        for x in d.kernel:
            g = d.fiber_mul(d.embed_inertia(x), base)
            assert d.eval_chi_hat(chi, g) == chi(x)


# ---------------------------------------------------------------------------
# serialization


def test_datum_json_round_trip():
    d = load_datum("quaternion_over_v4")
    obj = datum_to_json(d)
    back = datum_from_json(obj)
    assert validate(back).ok
    assert back.q == d.q
    assert back.splitting == d.splitting
    assert back.tau == d.tau
    assert back.kernel == d.kernel


def test_datum_from_json_rejects_garbage():
    with pytest.raises(ParseError):
        datum_from_json({"group": {}})


def test_datum_from_json_refuses_keys_that_int_would_fold():
    raw = json.loads((FIXTURES / "s3_over_s2.json").read_text())
    raw["splitting"] = {"0": 2, "00": 1}  # int() reads both as 0
    with pytest.raises(ParseError, match="expected an integer key, got '00'"):
        datum_from_json(raw)
