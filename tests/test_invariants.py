import json

import pytest

from monodromy.cli import run_analyze
from monodromy.cyclo import CycNumber, CycPoly, zeta
from monodromy.errors import ParameterError
from monodromy.extension import Character, character_from_spec
from monodromy.fixtures import direct_product_datum
from monodromy.invariants import (
    check_generation,
    compute_chi_invariants,
    with_relation_character,
)
from corpus import FIXTURES, chi_specs, load_datum, manifest, s3_rank2_generators


def rat(x):
    return CycNumber.rational(x)


def classed(inv, a_class):
    """The hyperplanes of the given class, "A0" or "A1", in index order."""
    return [a for a, h in enumerate(inv.per_hyperplane) if h.a_class == a_class]


def faithful_chi(datum):
    gen = max(datum.kernel, key=lambda x: (datum.wtilde.element_order(x), -x))
    k = datum.wtilde.element_order(gen)
    return datum.character_from_values({gen: zeta(k)})


def test_trivial_character_stabilizes_everything():
    d = direct_product_datum("dp", s3_rank2_generators(), 2)
    inv = compute_chi_invariants(d, Character.trivial(d.kernel))
    assert len(inv.w_chi) == 6
    assert all(h.jump == 1 for h in inv.per_hyperplane)
    assert classed(inv, "A0") == [0, 1, 2]
    assert len(inv.w_chi_zero) == 6  # the reflections generate the group
    assert inv.rho_trivial


def test_s3_over_s2_faithful_character():
    d = load_datum("s3_over_s2")
    inv = compute_chi_invariants(d, faithful_chi(d))
    assert inv.w_chi == (0,)
    assert inv.per_hyperplane[0].jump == 2 == d.arrangement[0].order
    assert classed(inv, "A1") == [0]
    assert inv.w_chi_zero == (0,)


def test_z8_over_z4_faithful_character():
    d = load_datum("cyclic_z8_over_z4")
    inv = compute_chi_invariants(d, faithful_chi(d))
    # conjugation in an abelian cover is trivial, so everything stabilizes
    assert len(inv.w_chi) == 4
    assert inv.per_hyperplane[0].jump == 1
    assert len(inv.w_chi_zero) == 4


def test_s4_over_s3_partition_character():
    d = load_datum("s4_over_s3")
    xs = [x for x in d.kernel if x != d.wtilde.identity]
    chi = d.character_from_values({xs[0]: rat(1), xs[1]: rat(-1), xs[2]: rat(-1)})
    inv = compute_chi_invariants(d, chi)
    assert len(inv.w_chi) == 2
    jumps = sorted(h.jump for h in inv.per_hyperplane)
    assert jumps == [1, 2, 2]
    assert len(inv.w_chi_zero) == 2
    assert sorted(len(o) for o in inv.chi_orbits) == [1, 2]
    assert len(classed(inv, "A1")) == 2


def test_s3xs3_free_character_gives_trivial_stabilizer():
    d = load_datum("s3xs3_over_v4")
    chi = character_from_spec(d, chi_specs("s3xs3_over_v4")[1])
    inv = compute_chi_invariants(d, chi)
    assert inv.w_chi == (0,)
    assert inv.w_chi_zero == (0,)
    assert classed(inv, "A1") == [0, 1]


def test_dic12_character_ladder():
    d = load_datum("dicyclic12_over_s2")
    gen = max(d.kernel, key=lambda x: d.wtilde.element_order(x))
    # order-2 character: inverted by conjugation iff it has order > 2
    chi2 = d.character_from_values({gen: rat(-1)})
    inv2 = compute_chi_invariants(d, chi2)
    assert len(inv2.w_chi) == 2 and inv2.per_hyperplane[0].jump == 1

    chi3 = d.character_from_values({gen: zeta(3)})
    inv3 = compute_chi_invariants(d, chi3)
    assert inv3.w_chi == (0,) and inv3.per_hyperplane[0].jump == 2

    chi6 = d.character_from_values({gen: zeta(6)})
    inv6 = compute_chi_invariants(d, chi6)
    assert inv6.w_chi == (0,)


def test_stabilizer_order_divides_group_order():
    for name in ("s3_over_s2", "s4_over_s3", "dicyclic12_over_s2"):
        d = load_datum(name)
        for chi in d.characters():
            inv = compute_chi_invariants(d, chi)
            assert len(d.group) % len(inv.w_chi) == 0
            assert set(inv.w_chi_zero) <= set(inv.w_chi)


def test_check_generation_on_corpus():
    for name in ("s3_over_s2", "s4_over_s3", "cyclic_z8_over_z4"):
        d = load_datum(name)
        for chi in d.characters():
            inv = compute_chi_invariants(d, chi)
            ok, witness = check_generation(d, inv)
            assert ok, witness


def test_check_generation_detects_corruption():
    d = load_datum("s3_over_s2")
    inv = compute_chi_invariants(d, Character.trivial(d.kernel))
    inv.w_chi_zero = (0,)  # fault injection
    ok, witness = check_generation(d, inv)
    assert not ok and "mismatch" in witness


def test_check_generation_detects_a_corrupted_meet():
    # the other two reflections of S3 still generate the reflection
    # subgroup, so only the meet comparison can refuse this
    d = load_datum("s3_split_z2")
    inv = compute_chi_invariants(d, Character.trivial(d.kernel))
    assert len(inv.w_chi_zero) == 6
    inv.per_hyperplane[0].stabilizer_meet = (d.group.identity,)  # fault injection
    ok, witness = check_generation(d, inv)
    assert not ok
    assert witness == "hyperplane 0: meet is not generated by the jump power"


def test_rho_from_degree_one_relations():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    rbar = CycPoly([rat(1), rat(1)])  # z + 1, root -1
    inv = with_relation_character(compute_chi_invariants(d, chi), {0: rbar})
    assert inv.rho_values[0] == rat(-1)
    assert not inv.rho_trivial


def test_rho_rejects_high_degree_on_full_jump():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    rbar = CycPoly([rat(-1), rat(0), rat(1)])  # z^2 - 1
    with pytest.raises(ParameterError):
        with_relation_character(compute_chi_invariants(d, chi), {0: rbar})


def test_rho_rejects_a_root_that_is_not_a_root_of_unity():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    rbar = CycPoly([rat(-2), rat(1)])  # z - 2, root 2
    with pytest.raises(ParameterError, match="is not a root of unity"):
        with_relation_character(compute_chi_invariants(d, chi), {0: rbar})


def test_rbar_orbit_consistency_enforced(tmp_path):
    d = load_datum("s4_over_s3")
    xs = [x for x in d.kernel if x != d.wtilde.identity]
    chi = d.character_from_values({xs[0]: rat(1), xs[1]: rat(-1), xs[2]: rat(-1)})
    inv = compute_chi_invariants(d, chi)
    big_orbit = next(o for o in inv.chi_orbits if len(o) == 2)
    overrides = {
        str(big_orbit[0]): CycPoly([rat(1), rat(1)]).to_json(),
        str(big_orbit[1]): CycPoly([rat(-1), rat(1)]).to_json(),
    }
    path = tmp_path / "rbar.json"
    path.write_text(json.dumps(overrides))
    spec = {"modulus": 2, "values": {str(xs[0]): 0, str(xs[1]): 1, str(xs[2]): 1}}
    report, code, _ = run_analyze(
        str(FIXTURES / "s4_over_s3.json"), json.dumps(spec), rbar_path=str(path)
    )
    assert code == 3
    assert report["error"] == (
        "parameter error: override relations differ across the stabilizer "
        f"orbit {big_orbit}"
    )


def orbits_under(arr, subgroup):
    """The hyperplane orbits of a subgroup, each sorted, in order of their
    least hyperplane, from the images under every subgroup element."""
    seen = [False] * len(arr)
    orbits = []
    for a in range(len(arr)):
        if seen[a]:
            continue
        orbit = sorted({arr.act(w, a) for w in subgroup})
        for b in orbit:
            seen[b] = True
        orbits.append(orbit)
    return orbits


def test_orbits_match_the_image_loop_on_every_corpus_run():
    runs = 0
    for entry in manifest():
        if entry["expected_exit"] != 0:
            continue
        for spec in entry["chi_specs"]:
            d = load_datum(entry["file"].removesuffix(".json"))
            inv = compute_chi_invariants(d, character_from_spec(d, spec))
            assert inv.chi_orbits == orbits_under(d.arrangement, inv.w_chi)
            assert inv.zero_orbits == orbits_under(d.arrangement, inv.w_chi_zero)
            runs += 1
    assert runs == 33


def test_hyperplane_order_is_constant_on_every_corpus_stabilizer_orbit():
    # the constancy that the carousel stage takes as proved: the orbit's
    # distinguished generators are conjugate, so they have one order
    orbits = 0
    for entry in manifest():
        if entry["expected_exit"] != 0:
            continue
        d = load_datum(entry["file"].removesuffix(".json"))
        for chi in d.characters():
            for orbit in compute_chi_invariants(d, chi).chi_orbits:
                assert len({d.arrangement[a].order for a in orbit}) == 1, (entry["file"], orbit)
                orbits += len(orbit) > 1
    assert orbits == 22  # orbits of more than one hyperplane


def test_full_jump_orbit_without_a_relation_takes_the_trivial_value():
    # on s3_over_s2 the character of order 3 has a trivial stabilizer, so
    # the one hyperplane is a full-jump orbit of the reflection subgroup
    d = load_datum("s3_over_s2")
    chi = character_from_spec(d, {"modulus": 3, "values": {"3": 1}})
    inv = compute_chi_invariants(d, chi)
    assert [o for o in inv.zero_orbits if inv.per_hyperplane[o[0]].a_class == "A1"] == [[0]]
    inv = with_relation_character(inv, {})
    assert inv.rho_values == {0: rat(1)}
    assert inv.rho_trivial
