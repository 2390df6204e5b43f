import json

import pytest

from monodromy.carousel import build_carousel, carousel_minpolys, twist_from_extension
from monodromy.cyclo import CycMatrix, CycNumber, CycPoly, minpoly_matrix, zeta
from monodromy.errors import IntegrityError, RegimeError
from monodromy.cli import run_analyze
from monodromy.extension import (
    Character,
    character_from_spec,
    datum_from_json,
    datum_to_json,
)
from monodromy.fixtures import direct_product_datum
from monodromy.hecke import build_coxeter, build_cyclic, build_product
from monodromy import induce
from monodromy.induce import (
    build_full_r1,
    build_full_r2,
    build_i_action,
    build_ledger,
)
from monodromy.invariants import compute_chi_invariants, with_relation_character
from monodromy.reflgrp import catalog, left_cosets
from corpus import (
    FAMILIES,
    FIXTURES,
    FiberRoute,
    characters,
    chi_specs,
    load_datum,
    manifest,
    nontrivial_character,
    rotation_cover,
    s3_rank2_generators,
    z7_by_z3_datum,
)


def rat(x):
    return CycNumber.rational(x)


def faithful_chi(datum):
    gen = max(datum.kernel, key=lambda x: (datum.wtilde.element_order(x), -x))
    k = datum.wtilde.element_order(gen)
    return datum.character_from_values({gen: zeta(k)})


def default_rbar(datum, chi, inv, alpha):
    """The carousel-model relation for a hyperplane."""
    n = datum.arrangement[alpha].order
    e = inv.per_hyperplane[alpha].jump
    tw = twist_from_extension(datum, alpha, chi)
    return carousel_minpolys(build_carousel(n, e, 1, tw)).rbar


# ---------------------------------------------------------------------------
# ledger


def test_ledger_trivial_character_one_block():
    d = direct_product_datum("dp", [CycMatrix([[rat(-1)]])], 1)
    chi = Character.trivial(d.kernel)
    inv = compute_chi_invariants(d, chi)
    ledger = build_ledger(d, chi, inv)
    assert (ledger.dim_m0, ledger.index, ledger.dim_mchi) == (2, 1, 2)
    assert len(ledger.blocks) == 1 and ledger.blocks[0].dimension == 2


def test_ledger_s3_faithful():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    ledger = build_ledger(d, chi, inv)
    assert (ledger.dim_m0, ledger.index, ledger.dim_mchi) == (1, 2, 2)
    assert [b.dimension for b in ledger.blocks] == [1, 1]


def test_ledger_z8_faithful():
    d = load_datum("cyclic_z8_over_z4")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    ledger = build_ledger(d, chi, inv)
    assert (ledger.dim_m0, ledger.index, ledger.dim_mchi) == (4, 1, 4)
    assert [b.dimension for b in ledger.blocks] == [4]


def test_ledger_s4_partition_blocks():
    d = load_datum("s4_over_s3")
    chi = character_from_spec(d, chi_specs("s4_over_s3")[1])
    inv = compute_chi_invariants(d, chi)
    for convention in ("left", "inverse"):
        d.convention = convention
        ledger = build_ledger(d, chi, inv)
        assert (ledger.dim_m0, ledger.index, ledger.dim_mchi) == (2, 3, 6)
        assert [b.dimension for b in ledger.blocks] == [2, 2, 2]


def test_ledger_identities_across_fixture_characters():
    # the block-size and dimension-sum checks that the coset certificate of
    # left_cosets stands in for, on every corpus ledger under both conventions
    ledgers = 0
    for d, chi in corpus_pairs():
        inv = compute_chi_invariants(d, chi)
        for convention in ("left", "inverse"):
            d.convention = convention
            ledger = build_ledger(d, chi, inv)
            assert ledger.dim_mchi == len(d.group)
            assert ledger.dim_m0 * ledger.index == ledger.dim_mchi
            for b in ledger.blocks:
                assert len(b.elements) == b.dimension == len(inv.w_chi)
            assert sum(b.dimension for b in ledger.blocks) == ledger.dim_mchi
            elements = sorted(x for b in ledger.blocks for x in b.elements)
            assert elements == list(range(len(d.group)))
            ledgers += 1
    assert ledgers == 96


def test_ledger_refuses_a_reflection_subgroup_order_that_does_not_divide():
    d = load_datum("s3_split_z2")
    chi = Character.trivial(d.kernel)
    inv = compute_chi_invariants(d, chi)
    inv.w_chi_zero = (0, 1, 2, 3)  # fault injection: 4 elements in a group of 6
    with pytest.raises(IntegrityError, match="reflection subgroup order 4 does not divide 6"):
        build_ledger(d, chi, inv)


def test_ledger_refuses_a_coset_with_two_block_characters():
    # the whole base group as the stabilizer of a character it moves
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    assert inv.w_chi == (0,)
    inv.w_chi = (0, 1)  # fault injection
    with pytest.raises(IntegrityError, match="block character not constant on the coset of 0"):
        build_ledger(d, chi, inv)


# ---------------------------------------------------------------------------
# inertia conventions


def corpus_pairs():
    """Every positive corpus datum with each of its characters."""
    for entry in manifest():
        if entry["expected_exit"] == 0:
            d = load_datum(entry["file"].removesuffix(".json"))
            for chi in characters(d):
                yield d, chi


def test_inverse_ledger_is_the_left_ledger_inverted():
    pairs = 0
    for d, chi in corpus_pairs():
        inv = compute_chi_invariants(d, chi)
        d.convention = "left"
        left = build_ledger(d, chi, inv)
        d.convention = "inverse"
        inverse = build_ledger(d, chi, inv)
        assert inverse.convention == "inverse"
        assert (inverse.dim_m0, inverse.index, inverse.dim_mchi) == (
            left.dim_m0, left.index, left.dim_mchi
        )
        # each block Hw is the inverted block w^-1 H, with its character
        inverted = {
            tuple(sorted(map(d.group.inv, b.elements))): b.character
            for b in left.blocks
        }
        assert {b.elements: b.character for b in inverse.blocks} == inverted
        assert [b.representative for b in inverse.blocks] == sorted(
            b.elements[0] for b in inverse.blocks
        )
        for pos, block in enumerate(inverse.blocks):
            assert all(inverse.block_of[x] == pos for x in block.elements)
        pairs += 1
    assert pairs == 48


def inverted_left_cosets(group, subgroup):
    """The cosets Hw as (members, coset_of), read from the left cosets:
    Hw = (w^-1 H)^-1, each sorted, disjoint cosets sorted by least element."""
    members, coset_of = left_cosets(group, subgroup)
    members = sorted(tuple(sorted(map(group.inv, c))) for c in members)
    for pos, coset in enumerate(members):
        for x in coset:
            coset_of[x] = pos
    return members, coset_of


def test_inverse_ledger_matches_the_inverted_left_cosets_on_every_corpus_run():
    runs = 0
    for entry in manifest():
        if entry["expected_exit"] != 0:
            continue
        for spec in entry["chi_specs"]:
            d = load_datum(entry["file"].removesuffix(".json"))
            d.convention = "inverse"
            chi = character_from_spec(d, spec)
            inv = compute_chi_invariants(d, chi)
            ledger = build_ledger(d, chi, inv)
            members, coset_of = inverted_left_cosets(d.group, inv.w_chi)
            assert [b.elements for b in ledger.blocks] == members
            assert ledger.block_of == coset_of
            runs += 1
    assert runs == 33


def test_inverse_r1_module_is_the_left_module_relabeled():
    modules = moved = 0
    z7 = z7_by_z3_datum()
    for d, chi in [*corpus_pairs(), *((z7, chi) for chi in characters(z7))]:
        inv = compute_chi_invariants(d, chi)
        if inv.w_chi_zero != (d.group.identity,):
            continue
        d.convention = "left"
        left = build_full_r1(d, chi, inv)
        d.convention = "inverse"
        inverse = build_full_r1(d, chi, inv)
        # basis vector w of the inverse module is basis vector w^-1 of the left one
        relabel = [d.group.inv(w) for w in range(len(d.group))]
        for kind in ("gen_matrices", "i_matrices"):
            got, want = getattr(inverse, kind), getattr(left, kind)
            assert got.keys() == want.keys()
            for key, m in want.items():
                rows = m.entries
                assert got[key].entries == tuple(
                    tuple(rows[i][j] for j in relabel) for i in relabel
                )
                moved += got[key] != m
        modules += 1
    assert modules == 12 + 6
    assert moved


def test_builders_read_the_datum_convention(tmp_path):
    raw = json.loads((FIXTURES / "s4_over_s3.json").read_text())
    raw["convention"] = "inverse"
    path = tmp_path / "s4_over_s3_inverse.json"
    path.write_text(json.dumps(raw))
    spec = chi_specs("s4_over_s3")[1]
    report, code, _ = run_analyze(str(path), spec)
    assert code == 0
    assert report["convention"] == "inverse"
    d = datum_from_json(raw)
    chi = character_from_spec(d, spec)
    ledger = build_ledger(d, chi, compute_chi_invariants(d, chi))
    assert ledger.to_json() == report["m_chi"]["ledger"]
    # over this nonabelian base the two conventions give different cosets
    d.convention = "left"
    assert build_ledger(d, chi, compute_chi_invariants(d, chi)).to_json() != ledger.to_json()


# ---------------------------------------------------------------------------
# inertia action


def test_i_action_identity_element():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    act = build_i_action(d, chi, inv)
    assert act.matrix(d.wtilde.identity) == CycMatrix.identity(2)


def test_i_action_trivial_chi_nontrivial_tau_is_scalar():
    d = direct_product_datum("dp", s3_rank2_generators(), 2, tau_exponent=1)
    chi = Character.trivial(d.kernel)
    inv = compute_chi_invariants(d, chi)
    act = build_i_action(d, chi, inv)
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    assert act.matrix(x) == CycMatrix.scalar(6, rat(-1))


def test_i_action_s3_faithful_eigenvalues():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    act = build_i_action(d, chi, inv)
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    scalars = act.scalars[x]
    assert sorted((s.order, s.coeffs) for s in scalars) == sorted(
        (s.order, s.coeffs) for s in (chi(x), chi(x) * chi(x))
    )


# ---------------------------------------------------------------------------
# braid-word letters


def power_scan_letters(datum):
    """Per group generator, the first hyperplane alpha and the least j in
    1 .. order - 1 with s_alpha^j equal to it, found by scanning powers."""
    group, arr = datum.group, datum.arrangement
    out = []
    for g in group.generators:
        if g == group.identity:
            out.append((None, 0))
            continue
        found = None
        for alpha in range(len(arr)):
            s = arr[alpha].distinguished_generator
            power = s
            for j in range(1, arr[alpha].order):
                if power == g:
                    found = (alpha, j)
                    break
                power = group.mul(power, s)
            if found:
                break
        out.append(found)
    return out


def test_letter_decomposition_matches_the_power_scan():
    data = [
        load_datum(entry["file"].removesuffix(".json"))
        for entry in manifest()
        if entry["expected_exit"] == 0
    ]
    s1, s2 = s3_rank2_generators()
    data += [
        # the counter-clockwise generator is zeta_3, so zeta_3^2 is its square
        direct_product_datum("z3", [CycMatrix([[zeta(3, 2)]])], 1),
        # a rotation is no reflection power
        direct_product_datum("s3", [s1 * s2, s1], 1),
    ]
    letters = [FiberRoute(d).letters for d in data]
    assert letters == [power_scan_letters(d) for d in data]
    assert letters[-2:] == [[(0, 2)], [None, (0, 1)]]


def test_r1_refuses_a_generator_that_is_no_reflection_power():
    d, _ = rotation_cover()  # slot 0 is a rotation
    chi = nontrivial_character(d)
    inv = compute_chi_invariants(d, chi)
    assert inv.w_chi_zero == (d.group.identity,) and inv.rho_trivial
    for convention in ("left", "inverse"):
        d.convention = convention
        with pytest.raises(RegimeError) as err:
            build_full_r1(d, chi, inv)
        assert str(err.value) == (
            "generator in slot 0 is not a power of a distinguished generator; "
            "coset lifts are unavailable"
        )


# ---------------------------------------------------------------------------
# regime R1


def test_r1_s3_matrices_frozen():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    module = build_full_r1(d, chi, inv)
    swap = CycMatrix([[rat(0), rat(1)], [rat(1), rat(0)]])
    assert module.gen_matrices[0] == swap
    x = next(i for i in d.kernel if chi(i) == zeta(3))
    assert module.i_matrices[x] == CycMatrix(
        [[zeta(3), rat(0)], [rat(0), zeta(3, 2)]]
    )
    assert all(c.status == "pass" for c in module.checks)


def test_r1_trivial_group_degenerate_case():
    d = load_datum("trivial_w_z2")
    chi = characters(d)[1]
    inv = compute_chi_invariants(d, chi)
    module = build_full_r1(d, chi, inv)
    assert module.ledger.dim_mchi == 1
    assert module.gen_matrices == {}
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    assert module.i_matrices[x] == CycMatrix([[chi(x) * rat(d.tau[x])]])


def test_r1_s3xs3_rank_two():
    d = load_datum("s3xs3_over_v4")
    chi = character_from_spec(d, chi_specs("s3xs3_over_v4")[1])
    inv = compute_chi_invariants(d, chi)
    module = build_full_r1(d, chi, inv)
    assert module.ledger.dim_mchi == 4
    assert len(module.gen_matrices) == 2
    assert all(c.status == "pass" for c in module.checks)
    # the two braid generators commute here, as the datum asserts
    a, b = (module.gen_matrices[k] for k in sorted(module.gen_matrices))
    assert a * b == b * a


def test_r1_dic12_order_three_character():
    d = load_datum("dicyclic12_over_s2")
    gen = max(d.kernel, key=lambda x: d.wtilde.element_order(x))
    chi = d.character_from_values({gen: zeta(3)})
    pre = compute_chi_invariants(d, chi)
    inv = with_relation_character(pre, {0: default_rbar(d, chi, pre, 0)})
    assert inv.rho_trivial
    module = build_full_r1(d, chi, inv)
    assert module.ledger.dim_mchi == 2


def test_r1_refused_when_rho_nontrivial():
    d = load_datum("dicyclic12_over_s2")
    gen = max(d.kernel, key=lambda x: d.wtilde.element_order(x))
    chi = d.character_from_values({gen: zeta(6)})
    pre = compute_chi_invariants(d, chi)
    rbar = default_rbar(d, chi, pre, 0)
    assert rbar == CycPoly([rat(1), rat(1)])  # z + 1: nontrivial relation root
    inv = with_relation_character(pre, {0: rbar})
    assert not inv.rho_trivial
    with pytest.raises(RegimeError):
        build_full_r1(d, chi, inv)


def test_r1_refused_outside_regime():
    d = load_datum("cyclic_z8_over_z4")
    chi = faithful_chi(d)  # invariant character: reflection subgroup is full
    inv = compute_chi_invariants(d, chi)
    with pytest.raises(RegimeError):
        build_full_r1(d, chi, inv)


def test_r1_flip_convention_consistency():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    d.convention = "inverse"
    module = build_full_r1(d, chi, inv)
    assert all(c.status == "pass" for c in module.checks)


def fiber_lifts(datum):
    """The fiber route and the coset lifts through it: at w, the lift of w,
    or of w^-1 under the inverse convention."""
    group = datum.group
    route = FiberRoute(datum)
    labels = range(len(group)) if datum.convention == "left" else map(group.inv, range(len(group)))
    return route, [route.lift(label) for label in labels]


def fiber_route_generators(datum, chi):
    """The R1 generator matrices through the fiber product: the entry at
    (target, w) is chi-hat times tau-hat of lift(target)^-1 sigma lift(w)."""
    group = datum.group
    n = len(group)
    route, lifts = fiber_lifts(datum)
    lift_inverses = [route.fiber_inv(g) for g in lifts]
    gen_matrices = {}
    for alpha in range(len(datum.arrangement)):
        sigma = route.r_tilde(((alpha, 1),))
        s = datum.arrangement[alpha].distinguished_generator
        triples = []
        for w in range(n):
            if datum.convention == "left":
                target = group.mul(group.inv(s), w)
            else:
                target = group.mul(w, s)
            h = route.fiber_mul(route.fiber_mul(lift_inverses[target], sigma), lifts[w])
            scalar = route.eval_chi_hat(chi, h) * CycNumber.rational(route.eval_tau_hat(h))
            triples.append((target, w, scalar))
        gen_matrices[alpha] = CycMatrix.from_triples(n, n, triples)
    return gen_matrices


def test_r1_generators_match_the_fiber_route_on_every_corpus_run():
    runs = []
    for entry in manifest():
        if entry["expected_exit"] != 0:
            continue
        name = entry["file"].removesuffix(".json")
        for spec in entry["chi_specs"]:
            report, code, _ = run_analyze(str(FIXTURES / entry["file"]), spec)
            if report["m_chi"]["regime"] != "R1":
                continue
            d = load_datum(name)
            chi = character_from_spec(d, spec)
            inv = compute_chi_invariants(d, chi)
            for convention in ("left", "inverse"):
                d.convention = convention
                got = build_full_r1(d, chi, inv).gen_matrices
                assert got == fiber_route_generators(d, chi), (name, spec, convention)
            if got:
                runs.append(name)
    assert runs == ["dicyclic12_over_s2", "s3_over_s2", "s3xs3_over_v4"]


def r1_runs():
    """Every R1 run: the corpus modules, the sign-cover characters with a
    trivial reflection subgroup, and the nontrivial characters of Z/7 x| Z/3,
    the one base here whose inversion moves elements, as (name, datum, chi,
    invariants)."""
    z7 = z7_by_z3_datum()
    pairs = [(d.name, d, chi) for d, chi in corpus_pairs()]
    for name, build, mpr, _ in FAMILIES:
        if name.startswith("sign_"):
            datum, _ = build(name, mpr)
            pairs += [(name, datum, chi) for chi in characters(datum)]
    pairs += [("z7_by_z3", z7, chi) for chi in characters(z7)]
    for name, d, chi in pairs:
        inv = compute_chi_invariants(d, chi)
        if inv.w_chi_zero == (d.group.identity,):
            yield name, d, chi, inv


def test_r1_inertia_matrices_match_the_fiber_route():
    """The inertia entry at w, which R1 reads off the ledger, is chi-hat
    times tau-hat of lift(w)^-1 x lift(w) through the fiber product, its
    fiber checks on, and r_alpha x r_alpha^-1 is the kernel part of
    sigma_alpha x sigma_alpha^-1 there."""
    runs = []
    for name, d, chi, inv in r1_runs():
        for convention in ("left", "inverse"):
            d.convention = convention
            module = build_full_r1(d, chi, inv)
            route, lifts = fiber_lifts(d)
            for x in d.kernel:
                entries = []
                for lift in lifts:
                    h = route.fiber_mul(
                        route.fiber_mul(route.fiber_inv(lift), route.embed_inertia(x)), lift
                    )
                    entries.append(
                        route.eval_chi_hat(chi, h) * CycNumber.rational(route.eval_tau_hat(h))
                    )
                assert module.i_matrices[x] == CycMatrix.diagonal(entries), (name, convention)
        for alpha in range(len(d.arrangement)):
            sigma = route.r_tilde(((alpha, 1),))
            for x in d.kernel:
                conj = route.fiber_mul(
                    route.fiber_mul(sigma, route.embed_inertia(x)), route.fiber_inv(sigma)
                )
                assert conj.word == ()
                assert route.inertia_part(conj) == d.wtilde.conjugate(d.splitting[alpha], x)
        runs.append(name)
    assert len(runs) == 12 + 12 + 6
    assert runs.count("z7_by_z3") == 6


def test_conjugation_certificate_catches_a_wrong_generator(monkeypatch):
    # generator 0 acts by the identity when the verifications run: it is
    # still monomial, but it no longer conjugates the kernel action
    original = induce._common_verifications
    regimes = []

    def with_identity_generator(module):
        regimes.append(module.regime)
        module.gen_matrices[0] = CycMatrix.identity(module.ledger.dim_mchi)
        original(module)

    monkeypatch.setattr(induce, "_common_verifications", with_identity_generator)
    report, code, _ = run_analyze(
        str(FIXTURES / "s3_over_s2.json"), {"3": 1, "modulus": 3}
    )
    assert code == 4
    assert report["error"].startswith("integrity error: conjugation[alpha=0,x=3]")
    assert regimes == ["R1"]


def test_inertia_certificate_catches_a_wrong_kernel_action(monkeypatch):
    original = induce._common_verifications

    def with_identity_kernel_action(module):
        module.i_matrices[3] = CycMatrix.identity(module.ledger.dim_mchi)
        original(module)

    monkeypatch.setattr(induce, "_common_verifications", with_identity_kernel_action)
    report, code, _ = run_analyze(
        str(FIXTURES / "s3_over_s2.json"), {"3": 1, "modulus": 3}
    )
    assert code == 4
    assert report["error"] == (
        "integrity error: inertia_restriction[x=3]: kernel action differs from "
        "the block scalars"
    )


def test_braid_relation_base_certificate_refuses_distinct_base_images(tmp_path):
    # validation assumes the asserted relations; sigma_0 = 1 has base images s, e
    raw = json.loads((FIXTURES / "s3_over_s2.json").read_text())
    raw["braid_relations"] = [[[[0, 1]], []]]
    path = tmp_path / "s3_over_s2_bad_relation.json"
    path.write_text(json.dumps(raw))
    report, code, _ = run_analyze(str(path), {"3": 1, "modulus": 3})
    assert code == 4
    assert report["error"].startswith(
        "integrity error: braid_relation_base[0]: asserted relation has distinct base images"
    )


# ---------------------------------------------------------------------------
# regime R2


def test_r2_sign_group_algebra():
    d = direct_product_datum("dp", [CycMatrix([[rat(-1)]])], 1)
    chi = Character.trivial(d.kernel)
    inv = compute_chi_invariants(d, chi)
    rbar = CycPoly([rat(-1), rat(0), rat(1)])
    module = build_full_r2(d, chi, inv, build_cyclic(rbar), {0: rbar})
    assert module.ledger.dim_mchi == 2
    assert all(c.status == "pass" for c in module.checks)


def test_r2_z8_faithful_pipeline():
    d = load_datum("cyclic_z8_over_z4")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    rbar = default_rbar(d, chi, inv, 0)
    assert rbar == CycPoly([rat(1), rat(0), rat(0), rat(0), rat(1)])  # z^4 + 1
    module = build_full_r2(d, chi, inv, build_cyclic(rbar), {0: rbar})
    assert module.ledger.dim_mchi == 4
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    assert module.i_matrices[x] == CycMatrix.scalar(4, rat(-1))
    assert minpoly_matrix(module.gen_matrices[0]) == rbar


def generator_relation_verdicts(module):
    return {
        c.name: c.status
        for c in module.checks
        if c.name.startswith("generator_relation[")
    }


def test_r2_s3_group_algebra():
    d = direct_product_datum("s3dp", s3_rank2_generators(), 2)
    chi = Character.trivial(d.kernel)
    inv = compute_chi_invariants(d, chi)
    rbar = CycPoly([rat(-1), rat(0), rat(1)])
    params = {oid: rbar for oid in {d.arrangement[a].orbit_id for a in range(3)}}
    hecke = build_coxeter(d.arrangement, params)
    # one hyperplane is off the simple system, so one generator is a conjugate
    assert len(hecke.simple_hyperplanes) == 2
    module = build_full_r2(d, chi, inv, hecke, {a: rbar for a in range(3)})
    assert module.ledger.dim_mchi == 6
    for alpha, m in module.gen_matrices.items():
        assert minpoly_matrix(m) == rbar
    assert generator_relation_verdicts(module) == {
        f"generator_relation[alpha={a}]": "pass" for a in range(3)
    }
    assert all(c.status == "pass" for c in module.checks)


def test_r2_q8_nontrivial_relation():
    d = load_datum("quaternion_over_v4")
    chi = nontrivial_character(d)
    inv = compute_chi_invariants(d, chi)
    rbars = {a: default_rbar(d, chi, inv, a) for a in range(2)}
    z2_plus_1 = CycPoly([rat(1), rat(0), rat(1)])
    assert rbars == {0: z2_plus_1, 1: z2_plus_1}
    params = {d.arrangement[a].orbit_id: rbars[a] for a in range(2)}
    hecke = build_coxeter(d.arrangement, params)
    module = build_full_r2(d, chi, inv, hecke, rbars)
    assert module.ledger.dim_mchi == 4
    # kernel scalar: character times sign gives plus one here
    x = next(i for i in d.kernel if i != d.wtilde.identity)
    assert module.i_matrices[x] == CycMatrix.identity(4)
    assert all(c.status == "pass" for c in module.checks)


def test_r2_b2_split():
    d = direct_product_datum("b2dp", catalog(2, 1, 2), 2)
    chi = Character.trivial(d.kernel)
    inv = compute_chi_invariants(d, chi)
    rbar = CycPoly([rat(-1), rat(0), rat(1)])
    params = {d.arrangement[a].orbit_id: rbar for a in range(len(d.arrangement))}
    hecke = build_coxeter(d.arrangement, params)
    module = build_full_r2(
        d, chi, inv, hecke, {a: rbar for a in range(len(d.arrangement))}
    )
    assert module.ledger.dim_mchi == 8
    assert generator_relation_verdicts(module) == {
        f"generator_relation[alpha={a}]": "pass" for a in range(len(d.arrangement))
    }
    assert all(c.status == "pass" for c in module.checks)


def test_r2_generators_have_their_relation_as_minimal_polynomial(tmp_path):
    # the minimal polynomial that build_full_r2 reads from the algebra,
    # recomputed for every R2 generator of the corpus and the ladder covers
    runs = [
        (FIXTURES / entry["file"], spec)
        for entry in manifest()
        if entry["expected_exit"] == 0
        for spec in entry["chi_specs"]
    ]
    for name, mpr in (("z2_g114", (1, 1, 4)), ("z2_g213", (2, 1, 3))):
        datum = direct_product_datum(name, catalog(*mpr), 2, tau_exponent=1)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        generator = next(x for x in datum.kernel if x != datum.wtilde.identity)
        runs += [(path, "trivial"), (path, {str(generator): 1, "modulus": 2})]
    generators = set()
    for path, spec in runs:
        report, code, _ = run_analyze(str(path), spec)
        assert code == 0
        if report["m_chi"]["regime"] != "R2":
            continue
        rbar = {
            a: CycPoly.from_json(section["applied_rbar"])
            for section in report["carousel"]
            for a in section["orbit"]
        }
        for key, m in report["m_chi"]["generator_matrices"].items():
            assert minpoly_matrix(m) == rbar[int(key)], (path.name, spec, key)
            generators.add(path.name)
    assert {"z2_g114.json", "z2_g213.json"} <= generators


def test_braid_relation_certificate_catches_a_wrong_generator(monkeypatch):
    # any two reflection generators of S3 satisfy the asserted braid
    # relation, and the kernel acts by scalars in R2, so with the identity in
    # place of generator 0 only the braid-relation certificate can refuse
    original = induce._common_verifications
    regimes = []

    def with_identity_generator(module):
        regimes.append(module.regime)
        module.gen_matrices[0] = CycMatrix.identity(module.ledger.dim_mchi)
        original(module)

    monkeypatch.setattr(induce, "_common_verifications", with_identity_generator)
    report, code, _ = run_analyze(str(FIXTURES / "s3_split_z2.json"), "trivial")
    assert code == 4
    assert report["error"] == (
        "integrity error: braid_relation[0]: module action separates an "
        "asserted braid relation"
    )
    assert regimes == ["R2"]


def s3_r2_inputs():
    """Z/2 x S3 with the trivial character, in regime R2: the datum, the
    character, its invariants, the Coxeter algebra of z^2 - 1 on the one
    hyperplane orbit, and that relation on each hyperplane."""
    d = direct_product_datum("s3dp", s3_rank2_generators(), 2)
    chi = Character.trivial(d.kernel)
    rbar = CycPoly([rat(-1), rat(0), rat(1)])
    hecke = build_coxeter(d.arrangement, {d.arrangement[0].orbit_id: rbar})
    return d, chi, compute_chi_invariants(d, chi), hecke, {a: rbar for a in range(3)}


def test_generator_relation_certificate_refuses_a_changed_relation():
    d, chi, inv, hecke, rbars = s3_r2_inputs()
    changed = {**rbars, 0: CycPoly([rat(-2), rat(-1), rat(1)])}
    with pytest.raises(IntegrityError, match=r"generator_relation\[alpha=0\]"):
        build_full_r2(d, chi, inv, hecke, changed)


def z_power_minus_one(n):
    return CycPoly([rat(-1)] + [rat(0)] * (n - 1) + [rat(1)])


R2_REFUSALS = {
    "jump": "regime R2 needs all jumps equal to one",
    "subgroup": "regime R2 needs the reflections to generate the whole group",
    "dimension": "algebra dimension 2 does not match the group order 6",
    "cyclic": "cyclic algebra mapping needs a single hyperplane",
    "group": "quadratic algebra must be built over the datum's group",
    "product": "no hyperplane mapping for algebra regime 'product'",
}


@pytest.mark.parametrize("case", R2_REFUSALS)
def test_r2_refuses_an_input_off_its_regime(case):
    d, chi, inv, hecke, rbars = s3_r2_inputs()
    if case == "jump":
        inv.per_hyperplane[0].jump = 2  # fault injection
    elif case == "subgroup":
        # a rotation group has no reflections, so W_chi^0 = 1 though W_chi = W
        s1, s2 = s3_rank2_generators()
        d = direct_product_datum("c3", [s1 * s2], 2)
        chi = Character.trivial(d.kernel)
        inv = compute_chi_invariants(d, chi)
        hecke = build_cyclic(z_power_minus_one(3))
    elif case == "dimension":
        hecke = build_cyclic(z_power_minus_one(2))
    elif case == "cyclic":
        hecke = build_cyclic(z_power_minus_one(6))
    elif case == "group":
        # the same group enumerated again: an equal table, another object
        copy = direct_product_datum("copy", s3_rank2_generators(), 2)
        hecke = build_coxeter(copy.arrangement, {copy.arrangement[0].orbit_id: rbars[0]})
    else:
        hecke = build_product([build_cyclic(z_power_minus_one(n)) for n in (2, 3)])
    with pytest.raises(RegimeError) as err:
        build_full_r2(d, chi, inv, hecke, rbars)
    assert str(err.value) == R2_REFUSALS[case]


def test_r2_refused_outside_regime():
    d = load_datum("s3_over_s2")
    chi = faithful_chi(d)
    inv = compute_chi_invariants(d, chi)
    rbar = CycPoly([rat(-1), rat(0), rat(1)])
    with pytest.raises(RegimeError):
        build_full_r2(d, chi, inv, build_cyclic(rbar), {0: rbar})
