import itertools
import json
import math
import random

import pytest

from monodromy import cli
from monodromy.cyclo import CycMatrix, CycNumber, CycPoly, minpoly_matrix, zeta
from monodromy.errors import (
    ClosureCapError,
    DomainError,
    IntegrityError,
    ParameterError,
    RegimeError,
)
from monodromy.extension import datum_to_json
from monodromy.fixtures import direct_product_datum
from monodromy.hecke import (
    HeckeAlgebra,
    _descent_matrices,
    _is_coxeter_system,
    _relations_hold,
    build_coxeter,
    build_cyclic,
)
from monodromy.reflgrp import catalog, enumerate_group, hyperplanes, word_lengths
from corpus import FIXTURES, manifest, s3_rank2_generators


def rat(x):
    return CycNumber.rational(x)


def poly(*coeffs):
    return CycPoly([rat(c) if isinstance(c, int) else c for c in coeffs])


def quadratic(q):
    """(z - q)(z + 1) = z^2 + (1-q) z - q, an always-invertible relation."""
    if isinstance(q, int):
        q = rat(q)
    return CycPoly([-q, rat(1) - q, rat(1)])


def certify_generators(h):
    """The generator certificate that the builders leave to their
    construction or to the Hecke presentation: each generator's minimal
    polynomial is its declared relation, and its constant term is nonzero,
    which makes the generator invertible."""
    for key, m in h.generators.items():
        got = minpoly_matrix(m)
        if got != h.params[key]:
            raise IntegrityError(
                f"generator {key}: minimal polynomial {got!r} differs from "
                f"the declared relation {h.params[key]!r}"
            )
        if got.constant_term.is_zero():
            raise IntegrityError(f"generator {key} is not invertible")


def braid_relation_holds(group, mats, simple, i, j):
    """The braid relation of slots i and j, by the 2m matrix products of
    its two sides, m the order of s_i s_j in the group."""
    m = group.element_order(group.mul(simple[i], simple[j]))
    lhs = CycMatrix.identity(len(group))
    rhs = CycMatrix.identity(len(group))
    for k in range(m):
        lhs = lhs * (mats[i] if k % 2 == 0 else mats[j])
        rhs = rhs * (mats[j] if k % 2 == 0 else mats[i])
    return lhs == rhs


def braid_relations_hold(arr, h):
    """Every braid relation of the simple system build_coxeter chose."""
    simple = [arr[a].distinguished_generator for a in h.simple_hyperplanes]
    mats = [h.generators[f"s{a}"] for a in h.simple_hyperplanes]
    return all(
        braid_relation_holds(arr.group, mats, simple, i, j)
        for i, j in itertools.combinations(range(len(simple)), 2)
    )


def _closure_certificate(group, mats, simple, polys, lengths):
    """The closure-certificate oracle: the basis operators T_w, built inside
    the certificate that their span is closed under multiplication, or None
    when it fails.

    Elements are visited by length.  For each simple s, T_s T_w must equal
    the descent rule when s descends on w.  When s ascends, the first such
    product sets T_{sw} once it sends the unit basis vector to sw; a later
    ascent onto a set T_{sw} forms no product, since T_s T_w = T_{sw}
    follows from two descent comparisons.  At (s, s) the rule gives
    T_s^2 + c1 T_s + c0 = 0 with c0 != 0, so T_s + c1 = -c0 T_s^-1 is
    invertible; at (sw, s) it gives (T_s + c1) T_{sw} = -c0 T_w, hence
    (T_s + c1)(T_s T_w - T_{sw}) = 0.  So T_w does not depend on the
    reduced word that first reaches it."""
    n = len(group)
    t_of = [None] * n
    t_of[0] = CycMatrix.identity(n)
    for w in sorted(range(n), key=lengths.__getitem__):
        for slot, s in enumerate(simple):
            sw = group.mul(s, w)
            if lengths[sw] <= lengths[w]:
                c0, c1 = polys[slot].coeffs[0], polys[slot].coeffs[1]
                if mats[slot] * t_of[w] != t_of[sw] * (-c0) + t_of[w] * (-c1):
                    return None
            elif t_of[sw] is None:
                prod = mats[slot] * t_of[w]
                first_column = [
                    (i, row[0][1])
                    for i, row in enumerate(prod.sparse_rows)
                    if row and row[0][0] == 0
                ]
                if first_column != [(sw, rat(1))]:
                    return None
                t_of[sw] = prod
    return t_of


def _braid_relation_holds(group, mats, simple, lengths, i, j) -> bool:
    """The braid check that completes the closure-certificate oracle.  The
    certificate gives T_w e_1 = e_w, so a -> a e_1 is injective on the span
    of the T_w, and T_s T_w = T_sw when l(sw) > l(w).  So if d = sts... =
    tst... (m letters, m the order of st) has l(d) = m, as on every Coxeter
    system (Humphreys, Reflection Groups and Coxeter Groups, 5.5), both
    sides send e_1 to e_d by ascents.  Only a set that is no Coxeter system
    can have l(d) < m; only then are 2m products formed."""
    m = group.element_order(group.mul(simple[i], simple[j]))
    word = [i, j] * m  # sts... is word[:m], tst... is word[1 : m + 1]
    d = group.identity
    for slot in word[:m]:
        d = group.mul(d, simple[slot])
    if lengths[d] == m:
        return True
    lhs = rhs = CycMatrix.identity(len(group))
    for k in range(m):
        lhs, rhs = lhs * mats[word[k]], rhs * mats[word[k + 1]]
    return lhs == rhs


# ---------------------------------------------------------------------------
# cyclic regime


def test_cyclic_dim_one():
    h = build_cyclic(poly(-1, 1))  # z - 1
    assert h.dimension == 1
    assert h.generators["t"] == CycMatrix.identity(1)


def test_cyclic_sign_algebra():
    h = build_cyclic(poly(-1, 0, 1))  # z^2 - 1
    t = h.generators["t"]
    assert h.dimension == 2
    assert t * t == CycMatrix.identity(2)


def test_cyclic_generic_quadratic():
    rbar = poly(2, 3, 1)  # z^2 + 3z + 2
    h = build_cyclic(rbar)
    assert h.dimension == 2
    assert minpoly_matrix(h.generators["t"]) == rbar
    certify_generators(h)


def test_cyclic_rejects_zero_constant():
    with pytest.raises(ParameterError):
        build_cyclic(poly(0, 1, 1))


def test_cyclic_rejects_a_constant_relation():
    with pytest.raises(ParameterError) as err:
        build_cyclic(poly(1))
    assert str(err.value) == "cyclic relation: relation must have positive degree"


def test_element_operators_need_a_group_basis():
    with pytest.raises(DomainError) as err:
        build_cyclic(poly(-1, 0, 1)).t_of_element(0)
    assert str(err.value) == "element operators exist only over a group basis"


def test_generator_certificate_refuses_a_singular_generator():
    # a nilpotent generator whose minimal polynomial z^2 is its declared
    # relation: the relation matches, but the generator is not invertible
    nilpotent = CycMatrix.from_triples(2, 2, [(1, 0, rat(1))])
    h = HeckeAlgebra("cyclic", 2, {"t": nilpotent}, {"t": poly(0, 0, 1)})
    with pytest.raises(IntegrityError, match="not invertible"):
        certify_generators(h)


def test_generator_certificate_refuses_a_relation_that_is_not_minimal():
    # the identity satisfies z^2 - 1, but its minimal polynomial is z - 1
    h = HeckeAlgebra("cyclic", 2, {"t": CycMatrix.identity(2)}, {"t": poly(-1, 0, 1)})
    with pytest.raises(IntegrityError, match="differs from the declared relation"):
        certify_generators(h)


def test_cyclic_orders_up_to_twelve():
    for d in range(1, 13):
        coeffs = [rat(-1)] + [rat(0)] * (d - 1) + [rat(1)]
        h = build_cyclic(CycPoly(coeffs))  # z^d - 1
        assert h.dimension == d
        t = h.generators["t"]
        assert t**d == CycMatrix.identity(d)
        certify_generators(h)


# ---------------------------------------------------------------------------
# quadratic regime


def test_a1_group_algebra():
    g = enumerate_group(catalog(1, 1, 2))
    h = build_coxeter(hyperplanes(g), {0: poly(-1, 0, 1)})
    assert h.dimension == 2


def test_s3_group_algebra_specialization():
    g = enumerate_group(s3_rank2_generators())
    h = build_coxeter(hyperplanes(g), {0: poly(-1, 0, 1)})
    assert h.dimension == 6
    # at z^2 - 1 the generators act as the left-regular permutations
    for key, m in h.generators.items():
        trace = sum((m.entries[i][i] for i in range(6)), rat(0))
        assert trace.is_zero()


@pytest.mark.parametrize("gens", [catalog(2, 1, 2), catalog(1, 1, 3), catalog(6, 6, 2)])
def test_group_algebra_specialization_characters(gens):
    # with relation z^2 - 1 on every orbit, the basis operators carry the
    # left-regular character: trace |W| at the unit, zero elsewhere
    g = enumerate_group(gens)
    assert len(g) <= 48
    arr = hyperplanes(g)
    params = {arr[a].orbit_id: poly(-1, 0, 1) for a in range(len(arr))}
    h = build_coxeter(arr, params)
    for w in range(len(g)):
        t = h.t_of_element(w)
        trace = sum((t.entries[i][i] for i in range(len(g))), rat(0))
        expected = rat(len(g)) if w == 0 else rat(0)
        assert trace == expected


def test_cyclic_group_algebra_specialization():
    for d in (2, 3, 6, 12):
        coeffs = [rat(-1)] + [rat(0)] * (d - 1) + [rat(1)]
        h = build_cyclic(CycPoly(coeffs))
        t = h.generators["t"]
        power = CycMatrix.identity(d)
        for k in range(d):
            trace = sum((power.entries[i][i] for i in range(d)), rat(0))
            assert trace == (rat(d) if k == 0 else rat(0))
            power = power * t


def test_b2_with_numeric_parameter():
    g = enumerate_group(catalog(2, 1, 2))
    params = {0: quadratic(3), 1: quadratic(3)}
    h = build_coxeter(hyperplanes(g), params)
    assert h.dimension == 8
    for key, m in h.generators.items():
        assert minpoly_matrix(m) == h.params[key]


def test_b2_with_distinct_orbit_parameters():
    g = enumerate_group(catalog(2, 1, 2))
    params = {0: quadratic(3), 1: quadratic(zeta(3))}
    h = build_coxeter(hyperplanes(g), params)
    assert h.dimension == 8


def test_a3_and_dihedral_dimensions():
    for gens, expected in [
        (catalog(1, 1, 4), 24),
        (catalog(5, 5, 2), 10),
        (catalog(8, 8, 2), 16),
    ]:
        g = enumerate_group(gens)
        orbit_ids = set()
        arr = hyperplanes(g)
        params = {arr[a].orbit_id: quadratic(2) for a in range(len(arr))}
        h = build_coxeter(arr, params)
        assert h.dimension == expected == len(g)


def star_s4():
    """The symmetric group on four letters generated by the transpositions
    (0 1), (0 2), (0 3), as permutation matrices."""

    def transposition(i, j):
        swap = {i: j, j: i}
        return CycMatrix([[rat(int(swap.get(r, r) == c)) for c in range(4)] for r in range(4)])

    return enumerate_group([transposition(0, 1), transposition(0, 2), transposition(0, 3)])


def test_star_transpositions_are_not_a_simple_system_at_q_two():
    # the star transpositions generate S4 and come first in the search, but
    # with pairwise braid order 3 they present an infinite Coxeter group, so
    # at q = 2 the search must reject them and go on to a simple system
    g = star_s4()
    arr = hyperplanes(g)
    assert len(arr) == 6 and arr.orbits() == [[0, 1, 2, 3, 4, 5]]
    assert [arr[a].distinguished_generator for a in (0, 1, 2)] == g.generators
    h = build_coxeter(arr, {0: quadratic(2)})
    assert h.simple_hyperplanes == [0, 1, 4]
    assert sorted(h.generators) == ["s0", "s1", "s4"]
    assert h.dimension == 24
    # at q = 1 the algebra is the group algebra, but the certificate runs
    # under every relation, so the star is refused there too
    h = build_coxeter(arr, {0: quadratic(1)})
    assert h.simple_hyperplanes == [0, 1, 4]


def test_coxeter_rejects_the_trivial_group():
    g = enumerate_group([CycMatrix.identity(1)])
    with pytest.raises(RegimeError) as err:
        build_coxeter(hyperplanes(g), {})
    assert str(err.value) == "the trivial group has no quadratic regime; use cyclic"


def test_coxeter_rejects_higher_order_reflections():
    g = enumerate_group(catalog(3, 1, 2))
    with pytest.raises(RegimeError):
        build_coxeter(hyperplanes(g), {0: quadratic(2), 1: quadratic(2)})


def test_coxeter_rejects_wrong_degree():
    g = enumerate_group(catalog(1, 1, 2))
    with pytest.raises(ParameterError):
        build_coxeter(hyperplanes(g), {0: poly(-1, 0, 0, 1)})


def test_coxeter_rejects_missing_orbit():
    g = enumerate_group(catalog(2, 1, 2))
    with pytest.raises(ParameterError):
        build_coxeter(hyperplanes(g), {0: quadratic(2)})


def test_element_operators_multiply():
    g = enumerate_group(s3_rank2_generators())
    h = build_coxeter(hyperplanes(g), {0: quadratic(2)})
    # T_s T_w = T_{sw} whenever the product is length-increasing, checked
    # through the unit column of the operators
    for w in range(len(g)):
        t = h.t_of_element(w)
        col = tuple(t.entries[i][0] for i in range(len(g)))
        assert col == tuple(rat(1) if i == w else rat(0) for i in range(len(g)))


def _reduced_words(group, simple):
    """A reduced word in the simple slots for every element, each word the
    first descent of the element followed by the word of the shorter one."""
    words = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for w in frontier:
            for slot, s in enumerate(simple):
                u = group.mul(s, w)
                if u not in words:
                    words[u] = (slot,) + words[w]
                    nxt.append(u)
        frontier = nxt
    return words


@pytest.mark.parametrize(
    "mpr", [(1, 1, 3), (2, 1, 2), (1, 1, 4), (5, 5, 2), (8, 8, 2)],
    ids=["A2", "B2", "A3", "I2(5)", "I2(8)"],
)
def test_basis_operators_are_products_along_reduced_words(mpr):
    g = enumerate_group(catalog(*mpr))
    arr = hyperplanes(g)
    orbit_ids = sorted({h.orbit_id for h in arr.hyperplanes})
    params = dict(zip(orbit_ids, (quadratic(3), quadratic(5))))
    h = build_coxeter(arr, params)
    simple = [arr[a].distinguished_generator for a in h.simple_hyperplanes]
    gens = [h.generators[f"s{a}"] for a in h.simple_hyperplanes]
    for w, word in _reduced_words(g, simple).items():
        product = CycMatrix.identity(len(g))
        for slot in word:
            product = product * gens[slot]
        assert h.t_of_element(w) == product, (w, word)


def test_closure_certificate_needs_the_unit_column():
    # conjugating the descent operators by a diagonal matrix keeps every
    # product relation, but T_w then sends the unit vector to a multiple of
    # its label, so the basis certificate must refuse it
    g = enumerate_group(s3_rank2_generators())
    arr = hyperplanes(g)
    simple = [arr[0].distinguished_generator, arr[1].distinguished_generator]
    polys = [quadratic(2), quadratic(2)]
    lengths = word_lengths(g, simple)
    mats = _descent_matrices(g, simple, polys, lengths)
    assert _closure_certificate(g, mats, simple, polys, lengths) is not None
    d = CycMatrix.from_triples(6, 6, [(i, i, rat(1 if i == 0 else 2)) for i in range(6)])
    scaled = [d * m * d.inverse() for m in mats]
    assert _closure_certificate(g, scaled, simple, polys, lengths) is None


def test_closure_certificate_compares_descents_with_the_relation():
    # operators of the relation at q = 2 checked against the relation at
    # q = 3: every ascent agrees, so only the descent comparison can refuse
    g = enumerate_group(s3_rank2_generators())
    arr = hyperplanes(g)
    simple = [arr[0].distinguished_generator, arr[1].distinguished_generator]
    lengths = word_lengths(g, simple)
    mats = _descent_matrices(g, simple, [quadratic(2)] * 2, lengths)
    assert _closure_certificate(g, mats, simple, [quadratic(2)] * 2, lengths) is not None
    assert _closure_certificate(g, mats, simple, [quadratic(3)] * 2, lengths) is None


def test_closure_certificate_alone_refuses_the_star():
    # two ascent paths to one element give different products at q = 2
    g = star_s4()
    lengths = word_lengths(g, g.generators)
    for q, passes in ((2, False), (1, True)):
        polys = [quadratic(q)] * 3
        mats = _descent_matrices(g, g.generators, polys, lengths)
        t_of = _closure_certificate(g, mats, g.generators, polys, lengths)
        assert (t_of is not None) == passes


def every_product_closure(group, mats, simple, polys, lengths):
    """The closure certificate that forms T_s T_w for every simple s and
    element w and compares each second ascent with the T_sw already set."""
    n = len(group)
    t_of = [None] * n
    t_of[0] = CycMatrix.identity(n)
    for w in sorted(range(n), key=lengths.__getitem__):
        for slot, s in enumerate(simple):
            sw = group.mul(s, w)
            prod = mats[slot] * t_of[w]
            if lengths[sw] <= lengths[w]:
                c0, c1 = polys[slot].coeffs[0], polys[slot].coeffs[1]
                if prod != t_of[sw] * (-c0) + t_of[w] * (-c1):
                    return None
            elif t_of[sw] is None:
                first_column = [
                    (i, row[0][1])
                    for i, row in enumerate(prod.sparse_rows)
                    if row and row[0][0] == 0
                ]
                if first_column != [(sw, rat(1))]:
                    return None
                t_of[sw] = prod
            elif prod != t_of[sw]:
                return None
    return t_of


@pytest.mark.parametrize("mpr", [(1, 1, 4), (2, 1, 3)], ids=["A3", "B3"])
def test_closure_certificate_matches_the_every_product_version(mpr):
    # relations (x - 2)(x + 1) make every T_w beyond length one dense
    g = enumerate_group(catalog(*mpr))
    arr = hyperplanes(g)
    h = build_coxeter(arr, {arr[a].orbit_id: quadratic(2) for a in range(len(arr))})
    simple = [arr[a].distinguished_generator for a in h.simple_hyperplanes]
    polys = [quadratic(2)] * len(simple)
    lengths = word_lengths(g, simple)
    mats = _descent_matrices(g, simple, polys, lengths)
    t_of = _closure_certificate(g, mats, simple, polys, lengths)
    assert t_of == every_product_closure(g, mats, simple, polys, lengths)
    assert t_of == [h.t_of_element(w) for w in range(len(g))]


def test_closure_certificate_versions_agree_on_the_star():
    # both refuse the star transpositions at q = 2 and accept them at q = 1
    g = star_s4()
    lengths = word_lengths(g, g.generators)
    for q in (2, 1):
        polys = [quadratic(q)] * 3
        mats = _descent_matrices(g, g.generators, polys, lengths)
        assert _closure_certificate(
            g, mats, g.generators, polys, lengths
        ) == every_product_closure(g, mats, g.generators, polys, lengths)


@pytest.fixture(scope="module")
def pipeline_algebras(tmp_path_factory):
    """Every algebra that the analyze pipeline builds over the positive
    corpus runs and both covers of the benchmark ladder, recorded from
    build_coxeter as (arrangement, algebra) and from build_cyclic."""
    built = {"coxeter": [], "cyclic": []}

    def recording_build_coxeter(arr, params):
        built["coxeter"].append((arr, build_coxeter(arr, params)))
        return built["coxeter"][-1][1]

    def recording_build_cyclic(rbar):
        built["cyclic"].append(build_cyclic(rbar))
        return built["cyclic"][-1]

    tmp_path = tmp_path_factory.mktemp("ladder")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_coxeter", recording_build_coxeter)
        mp.setattr(cli, "build_cyclic", recording_build_cyclic)
        for entry in manifest():
            if entry["expected_exit"] == 0:
                for spec in entry["chi_specs"]:
                    assert cli.run_analyze(str(FIXTURES / entry["file"]), spec)[1] == 0
        built["corpus_coxeter"] = len(built["coxeter"])
        built["corpus_cyclic"] = len(built["cyclic"])
        # the covers of the benchmark ladder, with the sign character on Z/2
        for name, mpr in (("z2_g114", (1, 1, 4)), ("z2_g213", (2, 1, 3))):
            datum = direct_product_datum(name, catalog(*mpr), 2, tau_exponent=1)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(datum_to_json(datum)))
            generator = next(x for x in datum.kernel if x != datum.wtilde.identity)
            for spec in ("trivial", {str(generator): 1, "modulus": 2}):
                assert cli.run_analyze(str(path), spec)[1] == 0
    return built


def test_pipeline_coxeter_generators_have_their_relation_as_minimal_polynomial(
    pipeline_algebras,
):
    built = pipeline_algebras["coxeter"]
    assert (pipeline_algebras["corpus_coxeter"], len(built)) == (14, 18)
    for _, h in built:
        assert h.regime == "coxeter"
        certify_generators(h)


def test_pipeline_coxeter_algebras_satisfy_the_braid_relations(pipeline_algebras):
    # the corpus algebras and both ladder rungs, Z/2 x G(1,1,4) and Z/2 x G(2,1,3)
    for arr, h in pipeline_algebras["coxeter"]:
        assert braid_relations_hold(arr, h), h.simple_hyperplanes


def test_pipeline_cyclic_generators_have_their_relation_as_minimal_polynomial(
    pipeline_algebras,
):
    built = pipeline_algebras["cyclic"]
    assert (pipeline_algebras["corpus_cyclic"], len(built)) == (17, 17)
    for h in built:
        assert h.regime == "cyclic"
        certify_generators(h)


@pytest.mark.parametrize(
    "group, relation",
    [
        (lambda: enumerate_group(catalog(1, 1, 4)), quadratic(2)),
        (lambda: enumerate_group(catalog(2, 1, 3)), quadratic(2)),
        (star_s4, poly(-1, 0, 1)),
    ],
    ids=["A3", "B3", "star"],
)
def test_coxeter_generators_have_their_relation_as_minimal_polynomial(group, relation):
    arr = hyperplanes(group())
    h = build_coxeter(arr, {arr[a].orbit_id: relation for a in range(len(arr))})
    certify_generators(h)


@pytest.mark.parametrize(
    "group, relations",
    [
        (lambda: enumerate_group(catalog(1, 1, 3)), (quadratic(3), quadratic(5))),
        (lambda: enumerate_group(catalog(2, 1, 2)), (quadratic(3), quadratic(5))),
        (lambda: enumerate_group(catalog(1, 1, 4)), (quadratic(3), quadratic(5))),
        (lambda: enumerate_group(catalog(5, 5, 2)), (quadratic(3), quadratic(5))),
        (lambda: enumerate_group(catalog(8, 8, 2)), (quadratic(3), quadratic(5))),
        (star_s4, (quadratic(2),)),
        (star_s4, (quadratic(1),)),
    ],
    ids=["A2", "B2", "A3", "I2(5)", "I2(8)", "star-q2", "star-q1"],
)
def test_accepted_simple_systems_satisfy_the_braid_relations(group, relations):
    arr = hyperplanes(group())
    orbit_ids = sorted({h.orbit_id for h in arr.hyperplanes})
    h = build_coxeter(arr, dict(zip(orbit_ids, relations)))
    assert braid_relations_hold(arr, h)


def _alternating_words_are_reduced(group, lengths, s, t):
    """Whether both words sts... and tst... of m letters have length m,
    m the order of st: the case in which the closure certificate implies
    the braid relation and _braid_relation_holds forms no product."""
    m = group.element_order(group.mul(s, t))
    d = group.identity
    for k in range(m):
        d = group.mul(s if k % 2 == 0 else t, d)
    return lengths[d] == m


@pytest.mark.parametrize(
    "group",
    [lambda: enumerate_group(catalog(1, 1, 3)), lambda: enumerate_group(catalog(2, 1, 2)), star_s4],
    ids=["A2", "B2", "star"],
)
def test_closure_certificate_implies_the_braid_relations(group):
    # every generating set of reflections, every assignment of the relations
    # to the orbits: whenever the closure certificate passes, the braid
    # relations hold, also for sets whose alternating words are not reduced
    relations = (quadratic(2), poly(-1, 0, 1), poly(1, 0, 1))
    g = group()
    arr = hyperplanes(g)
    reflections = sorted((h.distinguished_generator, a) for a, h in enumerate(arr.hyperplanes))
    orbit_ids = sorted({h.orbit_id for h in arr.hyperplanes})
    passed = unreduced = 0
    for assignment in itertools.product(relations, repeat=len(orbit_ids)):
        params = dict(zip(orbit_ids, assignment))
        for size in range(2, 5):
            for combo in itertools.combinations(reflections, size):
                simple = [c[0] for c in combo]
                lengths = word_lengths(g, simple)
                if len(lengths) != len(g):
                    continue
                polys = [params[arr[a].orbit_id] for _, a in combo]
                mats = _descent_matrices(g, simple, polys, lengths)
                if _closure_certificate(g, mats, simple, polys, lengths) is None:
                    continue
                passed += 1
                for i, j in itertools.combinations(range(size), 2):
                    assert braid_relation_holds(g, mats, simple, i, j), (assignment, combo)
                    unreduced += not _alternating_words_are_reduced(
                        g, lengths, simple[i], simple[j]
                    )
    assert passed and unreduced


def b2_without_reflection_3(relations):
    """B2 = G(2,1,2) with the reflections of hyperplanes 0, 1 and 2, which
    generate it but are no Coxeter system: the pairs (0, 1) and (0, 2) have
    m = 4 and a braid word of length 2.  Returns the group, the simple
    reflections, their word lengths and their descent operators for the
    relations of orbits 0 and 1."""
    g = enumerate_group(catalog(2, 1, 2))
    arr = hyperplanes(g)
    simple = [arr[a].distinguished_generator for a in (0, 1, 2)]
    polys = [relations[arr[a].orbit_id] for a in (0, 1, 2)]
    lengths = word_lengths(g, simple)
    return g, simple, lengths, _descent_matrices(g, simple, polys, lengths), polys


def test_braid_certificate_multiplies_on_words_that_are_not_reduced():
    g, simple, lengths, mats, polys = b2_without_reflection_3(
        {0: poly(-1, 0, 1), 1: quadratic(3)}
    )
    assert _closure_certificate(g, mats, simple, polys, lengths) is not None
    pairs = list(itertools.combinations(range(3), 2))
    assert [_alternating_words_are_reduced(g, lengths, simple[i], simple[j]) for i, j in pairs] == [
        False, False, True
    ]
    assert all(_braid_relation_holds(g, mats, simple, lengths, i, j) for i, j in pairs)
    # the relations of the two orbits swapped break both unreduced pairs
    _, _, _, swapped, _ = b2_without_reflection_3({0: quadratic(3), 1: poly(-1, 0, 1)})
    assert [_braid_relation_holds(g, swapped, simple, lengths, i, j) for i, j in pairs] == [
        False, False, True
    ]


def test_braid_certificate_forms_no_product_on_a_coxeter_system():
    # distinct relations on the conjugate simple reflections of A2 break its
    # braid relation, but its words are reduced, so the certificate trusts
    # the closure certificate (which refuses these operators) and multiplies
    # nothing
    g = enumerate_group(catalog(1, 1, 3))
    lengths = word_lengths(g, g.generators)
    polys = [poly(-1, 0, 1), quadratic(3)]
    mats = _descent_matrices(g, g.generators, polys, lengths)
    assert _closure_certificate(g, mats, g.generators, polys, lengths) is None
    assert not braid_relation_holds(g, mats, g.generators, 0, 1)
    assert _braid_relation_holds(g, mats, g.generators, lengths, 0, 1)


def test_associativity_on_random_triples():
    g = enumerate_group(catalog(2, 1, 2))
    h = build_coxeter(hyperplanes(g), {0: quadratic(3), 1: quadratic(5)})
    rng = random.Random(5)
    ops = [h.t_of_element(w) for w in range(h.dimension)]
    for _ in range(200):
        a, b, c = (ops[rng.randrange(len(ops))] for _ in range(3))
        assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# the Coxeter-system certificate and the presentation


def generating_sets(group, largest=None):
    """Every set of order-2 reflections, of at most ``largest`` elements,
    that generates the group, each as the sorted list of its elements,
    smallest sets first."""
    reflections = sorted(
        h.distinguished_generator for h in hyperplanes(group).hyperplanes if h.order == 2
    )
    return [
        list(combo)
        for size in range(1, (largest or len(reflections)) + 1)
        for combo in itertools.combinations(reflections, size)
        if len(word_lengths(group, combo)) == len(group)
    ]


def tits_closes_on_the_group(group, simple):
    """The Coxeter-system test with no dihedral factor split off: the Tits
    representation of the whole Coxeter matrix, closed under the cap
    |W| + 1 (its entries need zeta_2m, so every m_ij must be at most 60)."""
    k = len(simple)
    rows = [[(j, j, rat(-1 if j == i else 1)) for j in range(k)] for i in range(k)]
    for i, j in itertools.permutations(range(k), 2):
        m = group.element_order(group.mul(simple[i], simple[j]))
        rows[i].append((i, j, zeta(2 * m) + zeta(2 * m, -1)))
    tits = [CycMatrix.from_triples(k, k, row) for row in rows]
    try:
        return len(enumerate_group(tits, cap=len(group) + 1)) == len(group)
    except ClosureCapError:
        return False


def is_coxeter(group, simple):
    return _is_coxeter_system(group, simple, word_lengths(group, simple))


def block_diagonal(a, b):
    n = a.rows
    return CycMatrix.from_triples(
        n + b.rows,
        n + b.rows,
        [(i, j, x) for i, row in enumerate(a.sparse_rows) for j, x in row]
        + [(n + i, n + j, x) for i, row in enumerate(b.sparse_rows) for j, x in row],
    )


def i2_6_times_a1():
    """I2(6) x A1 in rank 3: a Coxeter group whose graph has an isolated
    edge of label 6."""
    gens = [block_diagonal(g, CycMatrix.identity(1)) for g in catalog(6, 6, 2)]
    return enumerate_group(gens + [block_diagonal(CycMatrix.identity(2), CycMatrix([[rat(-1)]]))])


@pytest.mark.parametrize("m", range(2, 9))
def test_every_generating_pair_of_dihedral_reflections_is_a_coxeter_system(m):
    g = enumerate_group(catalog(m, m, 2))
    pairs = generating_sets(g, largest=2)
    # reflections r_a and r_b generate I2(m) exactly when gcd(a - b, m) = 1
    assert len(pairs) == m * sum(math.gcd(k, m) == 1 for k in range(1, m + 1)) // 2
    assert all(is_coxeter(g, pair) for pair in pairs)


def test_a_dihedral_pair_needs_no_field_past_the_cyclotomic_bound():
    # the Tits representation of I2(61) needs 2cos(pi/61), which lies in
    # Q(zeta_122), past the order bound 120; the folding condition reads
    # only word lengths, so the pair is certified with no field at all
    g = enumerate_group(catalog(61, 61, 2))
    pair = generating_sets(g, largest=2)[0]
    assert is_coxeter(g, pair)
    arr = hyperplanes(g)
    h = build_coxeter(arr, {arr[a].orbit_id: quadratic(2) for a in range(len(arr))})
    assert h.dimension == 122


def test_transposition_triples_are_a_coxeter_system_exactly_when_a_path():
    g = star_s4()

    def moved(x):
        return frozenset(i for i, row in enumerate(g.elements[x].sparse_rows) if row[0][0] != i)

    kinds = []
    for simple in generating_sets(g):
        if len(simple) == 3:
            edges = [moved(x) for x in simple]
            star = any(all(point in edge for edge in edges) for point in range(4))
            assert is_coxeter(g, simple) == (not star), edges
            kinds.append(star)
    # the 16 spanning trees of the complete graph on four points
    assert (kinds.count(False), kinds.count(True)) == (12, 4)


def test_three_reflections_of_b2_are_no_coxeter_system():
    g = enumerate_group(catalog(2, 1, 2))
    triples = [s for s in generating_sets(g) if len(s) == 3]
    assert len(triples) == 4
    assert not any(is_coxeter(g, s) for s in triples)


@pytest.mark.parametrize("mpr, count", [((4, 2, 2), 27), ((6, 3, 2), 162)])
def test_no_generating_set_of_a_non_real_group_is_a_coxeter_system(mpr, count):
    # G(4,2,2) has 27 generating sets, none of them a pair; G(6,3,2)
    # has pairs of order 6 joined to a third reflection, which no finite
    # Coxeter graph has
    g = enumerate_group(catalog(*mpr))
    sets = generating_sets(g)
    assert len(sets) == count
    assert not any(is_coxeter(g, s) for s in sets)


@pytest.mark.parametrize(
    "group, largest, coxeter_sets",
    [
        (lambda: enumerate_group(catalog(1, 1, 3)), None, 3),
        (lambda: enumerate_group(catalog(2, 1, 2)), None, 4),
        (lambda: enumerate_group(catalog(1, 1, 4)), None, 12),
        (lambda: enumerate_group(catalog(2, 1, 3)), None, 24),
        (lambda: enumerate_group(catalog(5, 5, 2)), None, 10),
        (lambda: enumerate_group(catalog(8, 8, 2)), None, 16),
        (star_s4, None, 12),
        (lambda: enumerate_group(catalog(4, 2, 2)), None, 0),
        (lambda: enumerate_group(catalog(6, 3, 2)), None, 0),
        # the oracle takes about 30 s over all 3834 generating sets of
        # G(4,4,3), so it is run on the 128 of the rank's size only
        (lambda: enumerate_group(catalog(4, 4, 3)), 3, 0),
        (lambda: enumerate_group(catalog(3, 3, 3)), None, 0),
        (i2_6_times_a1, None, 6),
    ],
    ids=[
        "A2", "B2", "A3", "B3", "I2(5)", "I2(8)", "star", "G(4,2,2)", "G(6,3,2)",
        "G(4,4,3)", "G(3,3,3)", "I2(6)xA1",
    ],
)
def test_coxeter_certificate_matches_the_tits_closure_of_the_whole_matrix(
    group, largest, coxeter_sets
):
    # the folding condition against the Tits representation of the whole
    # Coxeter matrix; every set that passes has the size of the rank of the
    # span of the normals, the only size build_coxeter tries
    g = group()
    sets = generating_sets(g, largest)
    verdicts = [is_coxeter(g, s) for s in sets]
    assert verdicts == [tits_closes_on_the_group(g, s) for s in sets]
    assert sum(verdicts) == coxeter_sets
    rank = CycMatrix([h.normal for h in hyperplanes(g).hyperplanes]).rank()
    assert {len(s) for s, coxeter in zip(sets, verdicts) if coxeter} <= {rank}


@pytest.mark.parametrize(
    "group",
    [
        lambda: enumerate_group(catalog(1, 1, 3)),
        lambda: enumerate_group(catalog(2, 1, 2)),
        lambda: enumerate_group(catalog(1, 1, 4)),
        star_s4,
        lambda: enumerate_group(catalog(4, 2, 2)),
    ],
    ids=["A2", "B2", "A3", "star", "G(4,2,2)"],
)
def test_closure_certificate_passes_on_every_coxeter_system(group):
    # every generating set and every assignment of x^2 - 1, x^2 + 1 and
    # (x - 2)(x + 1) to the orbits: on a Coxeter system the relations hold
    # and the deleted closure and braid certificates pass, as the Hecke
    # presentation predicts; with (x - 2)(x + 1) on every orbit they pass
    # on nothing else, so the build takes the candidate it took before
    relations = (poly(-1, 0, 1), poly(1, 0, 1), quadratic(2))
    g = group()
    arr = hyperplanes(g)
    orbit_of = {h.distinguished_generator: h.orbit_id for h in arr.hyperplanes}
    orbit_ids = sorted(set(orbit_of.values()))
    sets = [(s, is_coxeter(g, s)) for s in generating_sets(g)]
    for assignment in itertools.product(relations, repeat=len(orbit_ids)):
        params = dict(zip(orbit_ids, assignment))
        for simple, coxeter in sets:
            polys = [params[orbit_of[x]] for x in simple]
            lengths = word_lengths(g, simple)
            mats = _descent_matrices(g, simple, polys, lengths)
            passed = _closure_certificate(g, mats, simple, polys, lengths) is not None and all(
                _braid_relation_holds(g, mats, simple, lengths, i, j)
                for i, j in itertools.combinations(range(len(simple)), 2)
            )
            if coxeter:
                assert passed and _relations_hold(g, simple, mats, polys), simple
            if set(assignment) == {quadratic(2)}:
                assert passed == coxeter, simple


def test_relations_check_refuses_a_wrong_quadratic_relation():
    # operators of the relation at q = 2 checked against q = 3: the braid
    # relations hold, the quadratic ones do not
    g = enumerate_group(catalog(1, 1, 3))
    lengths = word_lengths(g, g.generators)
    mats = _descent_matrices(g, g.generators, [quadratic(2)] * 2, lengths)
    assert _relations_hold(g, g.generators, mats, [quadratic(2)] * 2)
    assert braid_relation_holds(g, mats, g.generators, 0, 1)
    assert not _relations_hold(g, g.generators, mats, [quadratic(3)] * 2)


def test_relations_check_refuses_a_broken_braid_relation():
    # distinct relations on the conjugate simple reflections of A2: each
    # quadratic relation holds by the descent rule, the braid relation not
    g = enumerate_group(catalog(1, 1, 3))
    lengths = word_lengths(g, g.generators)
    polys = [poly(-1, 0, 1), quadratic(3)]
    mats = _descent_matrices(g, g.generators, polys, lengths)
    assert all(minpoly_matrix(m) == p for m, p in zip(mats, polys))
    assert not _relations_hold(g, g.generators, mats, polys)


def test_pipeline_basis_operators_match_the_closure_certificate(pipeline_algebras):
    # the lazy T_w of every algebra the pipeline built against the T_w that
    # the deleted closure certificate builds over the same simple system
    for arr, h in pipeline_algebras["coxeter"]:
        g = arr.group
        simple = [arr[a].distinguished_generator for a in h.simple_hyperplanes]
        polys = [h.params[f"s{a}"] for a in h.simple_hyperplanes]
        mats = [h.generators[f"s{a}"] for a in h.simple_hyperplanes]
        t_of = _closure_certificate(g, mats, simple, polys, word_lengths(g, simple))
        assert t_of == [h.t_of_element(w) for w in range(len(g))]


def test_b4_with_a_generic_relation():
    # G(2,1,4) with (x - 2)(x + 1): every T_w beyond length one is dense,
    # and the deleted closure certificate formed hundreds of such products
    g = enumerate_group(catalog(2, 1, 4))
    arr = hyperplanes(g)
    h = build_coxeter(arr, {arr[a].orbit_id: quadratic(2) for a in range(len(arr))})
    assert h.dimension == len(g) == 384
    simple = [arr[a].distinguished_generator for a in h.simple_hyperplanes]
    gens = [h.generators[f"s{a}"] for a in h.simple_hyperplanes]
    one = CycMatrix.identity(384)
    for t in gens:
        assert t * t == t + CycMatrix.scalar(384, rat(2))
    for i, j in itertools.combinations(range(4), 2):
        assert braid_relation_holds(g, gens, simple, i, j)
    words = _reduced_words(g, simple)
    by_length = {}
    for w, word in words.items():
        by_length.setdefault(len(word), w)
    assert max(by_length) == 16  # the longest element of B4
    for length in (1, 2, 7, 16):
        w = by_length[length]
        product = one
        for slot in words[w]:
            product = product * gens[slot]
        assert h.t_of_element(w) == product, words[w]


def test_relations_other_than_unit_take_a_coxeter_system():
    # the star transpositions pass the deleted closure certificate at x^2 + 1,
    # where the descent operators are signed permutations, but no Coxeter
    # certificate; so do all 27 generating sets of G(4,2,2), which is
    # refused, and none of them has the size of the rank, 2
    g = star_s4()
    arr = hyperplanes(g)
    assert build_coxeter(arr, {0: poly(1, 0, 1)}).simple_hyperplanes == [0, 1, 4]
    g = enumerate_group(catalog(4, 2, 2))
    arr = hyperplanes(g)
    with pytest.raises(RegimeError, match=r"\(0 generating candidates tried\)"):
        build_coxeter(arr, {arr[a].orbit_id: poly(1, 0, 1) for a in range(len(arr))})


@pytest.mark.parametrize("mpr, tried", [((4, 2, 3), 0), ((4, 4, 3), 128)])
def test_a_group_with_no_coxeter_system_is_refused_among_rank_size_sets(mpr, tried):
    # G(4,2,3) needs four reflections to be generated, so no set of the
    # rank's size generates it; 128 triples generate G(4,4,3), of its 3834
    # generating sets, and the certificate refuses each
    g = enumerate_group(catalog(*mpr))
    arr = hyperplanes(g)
    with pytest.raises(RegimeError, match=rf"\({tried} generating candidates tried\)"):
        build_coxeter(arr, {arr[a].orbit_id: quadratic(2) for a in range(len(arr))})

