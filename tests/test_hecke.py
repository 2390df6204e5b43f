import json
import random

import pytest

from monodromy import cli
from monodromy.cyclo import CycMatrix, CycNumber, CycPoly, minpoly_matrix, zeta
from monodromy.errors import IntegrityError, ParameterError, RegimeError
from monodromy.extension import datum_to_json
from monodromy.fixtures import direct_product_datum
from monodromy.hecke import (
    HeckeAlgebra,
    _certify_generators,
    _closure_certificate,
    _descent_matrices,
    build_coxeter,
    build_cyclic,
    build_product,
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


def test_cyclic_rejects_zero_constant():
    with pytest.raises(ParameterError):
        build_cyclic(poly(0, 1, 1))


def test_generator_certificate_refuses_a_singular_generator():
    # a nilpotent generator whose minimal polynomial z^2 is its declared
    # relation: the relation matches, but the generator is not invertible
    nilpotent = CycMatrix.from_triples(2, 2, [(1, 0, rat(1))])
    h = HeckeAlgebra("cyclic", 2, {"t": nilpotent}, {"t": poly(0, 0, 1)})
    with pytest.raises(IntegrityError, match="not invertible"):
        _certify_generators(h)


def test_generator_certificate_refuses_a_relation_that_is_not_minimal():
    # the identity satisfies z^2 - 1, but its minimal polynomial is z - 1
    h = HeckeAlgebra("cyclic", 2, {"t": CycMatrix.identity(2)}, {"t": poly(-1, 0, 1)})
    with pytest.raises(IntegrityError, match="differs from the declared relation"):
        _certify_generators(h)


def test_cyclic_orders_up_to_twelve():
    for d in range(1, 13):
        coeffs = [rat(-1)] + [rat(0)] * (d - 1) + [rat(1)]
        h = build_cyclic(CycPoly(coeffs))  # z^d - 1
        assert h.dimension == d
        t = h.generators["t"]
        assert t**d == CycMatrix.identity(d)


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
    # at q = 1 the algebra is the group algebra, where the star passes
    h = build_coxeter(arr, {0: quadratic(1)})
    assert h.simple_hyperplanes == [0, 1, 2]


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


def assert_generators_certified(h):
    """The generator certificate that build_coxeter leaves to the closure
    certificate: each minimal polynomial is the declared relation, and its
    constant term is nonzero."""
    for key, m in h.generators.items():
        got = minpoly_matrix(m)
        assert got == h.params[key], key
        assert not got.constant_term.is_zero(), key


def test_pipeline_coxeter_generators_have_their_relation_as_minimal_polynomial(
    monkeypatch, tmp_path
):
    built = []

    def recording_build_coxeter(arr, params):
        built.append(build_coxeter(arr, params))
        return built[-1]

    monkeypatch.setattr(cli, "build_coxeter", recording_build_coxeter)
    for entry in manifest():
        if entry["expected_exit"] == 0:
            for spec in entry["chi_specs"]:
                assert cli.run_analyze(str(FIXTURES / entry["file"]), spec)[1] == 0
    corpus_algebras = len(built)
    # the covers of the benchmark ladder, with the sign character on Z/2
    for name, mpr in (("z2_g114", (1, 1, 4)), ("z2_g213", (2, 1, 3))):
        datum = direct_product_datum(name, catalog(*mpr), 2, tau_exponent=1)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        generator = next(x for x in datum.kernel if x != datum.wtilde.identity)
        for spec in ("trivial", {str(generator): 1, "modulus": 2}):
            assert cli.run_analyze(str(path), spec)[1] == 0
    assert (corpus_algebras, len(built)) == (14, 18)
    for h in built:
        assert h.regime == "coxeter"
        assert_generators_certified(h)


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
    assert_generators_certified(h)


def test_associativity_on_random_triples():
    g = enumerate_group(catalog(2, 1, 2))
    h = build_coxeter(hyperplanes(g), {0: quadratic(3), 1: quadratic(5)})
    rng = random.Random(5)
    ops = [h.t_of_element(w) for w in range(h.dimension)]
    for _ in range(200):
        a, b, c = (ops[rng.randrange(len(ops))] for _ in range(3))
        assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# products


def test_product_of_two_sign_algebras():
    part = build_cyclic(poly(-1, 0, 1))
    h = build_product([part, part])
    assert h.dimension == 4
    gens = list(h.generators.values())
    assert gens[0] * gens[1] == gens[1] * gens[0]


def test_product_single_factor_is_identity():
    part = build_cyclic(poly(-1, 0, 1))
    assert build_product([part]) is part


def test_mixed_product_dimensions_and_commutation():
    cyc3 = build_cyclic(poly(-1, 0, 0, 1))  # z^3 - 1
    g = enumerate_group(catalog(1, 1, 2))
    cox = build_coxeter(hyperplanes(g), {0: quadratic(2)})
    h = build_product([cyc3, cox])
    assert h.dimension == 6
    a = h.generators["leg0.t"]
    b = next(m for key, m in h.generators.items() if key.startswith("leg1."))
    assert a * b == b * a
    for key, m in h.generators.items():
        assert minpoly_matrix(m) == h.params[key]
