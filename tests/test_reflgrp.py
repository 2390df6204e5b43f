import itertools
import random

import pytest

from monodromy.cyclo import CycMatrix, CycNumber, zeta
from monodromy.errors import CapacityError, DomainError, IntegrityError
from monodromy.reflgrp import (
    CayleyGroup,
    ReflectionGroup,
    catalog,
    catalog_order,
    enumerate_group,
    hyperplanes,
    left_cosets,
    orbit_partition,
    restrict,
    subgroup_generated,
    word_lengths,
)


def rat(x):
    return CycNumber.rational(x)


def mat(rows):
    return CycMatrix([[rat(x) if isinstance(x, int) else x for x in row] for row in rows])


def s3_rank2():
    """The 2-dimensional reflection representation of the symmetric group
    on three letters."""
    s1 = mat([[-1, 1], [0, 1]])
    s2 = mat([[1, 0], [1, -1]])
    return enumerate_group([s1, s2])


# ---------------------------------------------------------------------------
# enumeration


def test_sign_group():
    g = enumerate_group([mat([[-1]])])
    assert len(g) == 2


def test_cyclic_group_of_cube_root():
    g = enumerate_group([CycMatrix([[zeta(3)]])])
    assert len(g) == 3


def test_catalog_b2_order():
    g = enumerate_group(catalog(2, 1, 2))
    assert len(g) == 8 == catalog_order(2, 1, 2)


def test_catalog_examples():
    assert len(enumerate_group(catalog(1, 1, 2))) == 2
    assert catalog(3, 1, 1)[0] == CycMatrix([[zeta(3)]])
    assert len(enumerate_group(catalog(3, 1, 1))) == 3
    assert len(enumerate_group(catalog(4, 2, 2))) == 16 == catalog_order(4, 2, 2)


def test_catalog_rejects_bad_divisor():
    with pytest.raises(DomainError):
        catalog(4, 3, 2)


def test_cap_exceeded():
    with pytest.raises(CapacityError):
        enumerate_group(catalog(2, 1, 2), cap=5)


def test_words_realize_elements():
    g = s3_rank2()
    gens = [g.elements[i] for i in g.generators]
    for i, w in enumerate(g.words):
        acc = CycMatrix.identity(g.rank)
        for slot in w:
            acc = acc * gens[slot]
        assert acc == g.elements[i]


def test_mul_table_matches_matrix_products():
    # every pair in the trivial group, mu_3 in rank one, G(3,1,2), G(2,1,3)
    for gens in [[mat([[1]])], catalog(3, 1, 1), catalog(3, 1, 2), catalog(2, 1, 3)]:
        g = enumerate_group(gens)
        for i in range(len(g)):
            for j in range(len(g)):
                assert g.elements[g.mul(i, j)] == g.elements[i] * g.elements[j]


def test_enumerated_groups_pass_light_and_invert_as_matrices():
    for gens in [[mat([[1]])], catalog(3, 1, 1), catalog(3, 1, 2), catalog(2, 1, 3)]:
        g = enumerate_group(gens)
        assert g.associativity_witness(g.generators_and_unreached()) is None
        assert [g.elements[b] for b in g.inverses] == [m.inverse() for m in g.elements]


def test_inverses_and_orders():
    g = enumerate_group(catalog(4, 2, 2))
    for i in range(len(g)):
        assert g.elements[g.inv(i)] == g.elements[i].inverse()
        assert g.mul(i, g.inv(i)) == 0
        assert g.mul(g.inv(i), i) == 0
        k = g.element_order(i)
        assert len(g) % k == 0


# ---------------------------------------------------------------------------
# arrangement


def test_rank_one_cyclic_arrangement():
    for m in (2, 3, 5):
        g = enumerate_group([CycMatrix([[zeta(m)]])])
        arr = hyperplanes(g)
        assert len(arr) == 1
        h = arr[0]
        assert h.order == m
        assert g.elements[h.distinguished_generator] == CycMatrix([[zeta(m)]])


def test_s3_arrangement():
    arr = hyperplanes(s3_rank2())
    assert len(arr) == 3
    assert all(h.order == 2 for h in arr.hyperplanes)
    assert len(arr.orbits()) == 1


def test_b2_arrangement():
    arr = hyperplanes(enumerate_group(catalog(2, 1, 2)))
    assert len(arr) == 4
    assert all(h.order == 2 for h in arr.hyperplanes)
    assert sorted(len(o) for o in arr.orbits()) == [2, 2]


def test_g312_arrangement():
    # two coordinate hyperplanes of stabilizer order 3, three of order 2
    arr = hyperplanes(enumerate_group(catalog(3, 1, 2)))
    orders = sorted(h.order for h in arr.hyperplanes)
    assert orders == [2, 2, 2, 3, 3]
    assert sorted(len(o) for o in arr.orbits()) == [2, 3]


def test_reflection_count_identity():
    for m, p, r in [(1, 1, 3), (2, 1, 2), (3, 1, 2), (3, 3, 2), (4, 2, 2)]:
        g = enumerate_group(catalog(m, p, r))
        arr = hyperplanes(g)
        reflections = [
            i
            for i in range(1, len(g))
            if (g.elements[i] - CycMatrix.identity(g.rank)).rank() == 1
        ]
        assert sum(h.order - 1 for h in arr.hyperplanes) == len(reflections)


def test_distinguished_generator_powers():
    arr = hyperplanes(enumerate_group(catalog(4, 1, 2)))
    g = arr.group
    for h in arr.hyperplanes:
        s = h.distinguished_generator
        cur = s
        for k in range(1, h.order):
            assert cur != 0
            cur = g.mul(cur, s)
        assert cur == 0


def _fixes_pointwise(m, normal):
    """Whether m fixes every vector of a basis of the hyperplane that the
    covector normal cuts out."""
    pivot = next(i for i, c in enumerate(normal) if not c.is_zero())
    inv = normal[pivot].inverse()
    for i in range(len(normal)):
        if i == pivot:
            continue
        v = [rat(0)] * len(normal)
        v[i] = rat(1)
        v[pivot] = -(normal[i] * inv)
        if m.apply(tuple(v)) != tuple(v):
            return False
    return True


# the monomial groups of acceptance criterion 7 whose arrangement it checks,
# rank one among them (there the hyperplane is the origin, fixed by every
# element)
CRITERION_7_GROUPS = [
    (m, p, r)
    for m in range(1, 7)
    for p in range(1, m + 1)
    if m % p == 0
    for r in range(1, 4)
    if catalog_order(m, p, r) <= 200
]


@pytest.mark.parametrize("mpr", CRITERION_7_GROUPS, ids="g{}".format)
def test_stabilizers_fix_their_hyperplane_pointwise(mpr):
    g = enumerate_group(catalog(*mpr))
    arr = hyperplanes(g)
    for h in arr.hyperplanes:
        expected = tuple(
            i for i, m in enumerate(g.elements) if _fixes_pointwise(m, h.normal)
        )
        assert h.stabilizer_elements == expected


def _canonical(normal):
    """The covector scaled so that its first nonzero entry is 1."""
    lead = next(c for c in normal if not c.is_zero()).inverse()
    return tuple(c * lead for c in normal)


def elements_only(*matrices):
    """A ReflectionGroup over the identity and the given matrices, with no
    check that they form a group: enough for ``hyperplanes`` to refuse it."""
    elements = [CycMatrix.identity(matrices[0].rows), *matrices]
    words = [()] + [(i,) for i in range(len(matrices))]
    return ReflectionGroup(matrices[0].rows, elements, words, [], list(range(1, len(elements))))


def test_hyperplanes_refuse_a_stabilizer_that_is_not_cyclic():
    # two reflections of the hyperplane x = 0, both -1 on its normal line;
    # a cyclic stabilizer has one element per eigenvalue
    fake = elements_only(mat([[-1, 0], [0, 1]]), mat([[-1, 0], [1, 1]]))
    with pytest.raises(IntegrityError, match="share the normal-line eigenvalue"):
        hyperplanes(fake)


def test_hyperplanes_refuse_a_stabilizer_without_a_primitive_eigenvalue():
    # a stabilizer of order two whose reflection is zeta_3, not -1, on the normal line
    fake = elements_only(CycMatrix([[zeta(3), rat(0)], [rat(0), rat(1)]]))
    with pytest.raises(IntegrityError, match="no distinguished generator"):
        hyperplanes(fake)


def covector_times(normal, m):
    """The row vector normal * m: the rows of m weighted by the entries of
    normal."""
    out = [rat(0)] * m.cols
    for c, row in zip(normal, m.sparse_rows):
        for j, x in row:
            out[j] = out[j] + c * x
    return tuple(out)


def index_by_normal(arr):
    return {h.normal: a for a, h in enumerate(arr.hyperplanes)}


def test_conjugation_permutes_hyperplanes():
    # the matrix action is the reference: w sends the hyperplane with
    # normal covector n to the one with normal n * M_w^-1
    for mpr in [(2, 1, 2), (3, 3, 2), (1, 1, 3), (3, 1, 2), (2, 1, 3)]:
        g = enumerate_group(catalog(*mpr))
        arr = hyperplanes(g)
        by_normal = index_by_normal(arr)
        for w in range(len(g)):
            m_inv = g.elements[w].inverse()
            for a, h in enumerate(arr.hyperplanes):
                expected = by_normal[_canonical(covector_times(h.normal, m_inv))]
                assert arr.act(w, a) == expected


def assert_restrict_matches_re_enumeration(arr, gens):
    """``restrict`` against the matrix closure of the generators and its
    arrangement, mapped back to ``arr`` by normal; returns the (n', n)
    order pair of every compared hyperplane.  ``restrict`` is given the
    search of the generators and the subgroup's orbits on ``arr``, as the
    character invariants hand them over."""
    group = arr.group
    sub = enumerate_group([group.elements[g] for g in sorted(set(gens))])
    sub_arr = hyperplanes(sub)
    by_normal = index_by_normal(arr)
    lengths = word_lengths(group, gens)
    _, orbit_of = orbit_partition(len(arr), arr.act, list(lengths))
    got, alphas = restrict(arr, lengths, orbit_of)
    assert [list(row) for row in got.group.table] == sub.table
    assert got.hyperplanes == sub_arr.hyperplanes
    assert alphas == [by_normal[h.normal] for h in sub_arr.hyperplanes]
    return [(h.order, arr[a].order) for h, a in zip(got.hyperplanes, alphas)]


RESTRICT_GROUPS = [
    (1, 1, 4), (2, 1, 3), (3, 1, 2), (4, 2, 2), (3, 3, 3), (6, 2, 2), (2, 2, 3), (4, 1, 2)
]


def test_restrict_matches_the_re_enumerated_subgroup():
    rng = random.Random(24)
    orders = []
    for mpr in RESTRICT_GROUPS:
        arr = hyperplanes(enumerate_group(catalog(*mpr)))
        reflections = sorted({w for h in arr.hyperplanes for w in h.stabilizer_elements[1:]})
        for _ in range(25):
            gens = rng.sample(reflections, rng.randint(1, min(3, len(reflections))))
            orders += assert_restrict_matches_re_enumeration(arr, gens)
    # subgroups of G(4,1,2) that meet the order-4 coordinate hyperplanes in
    # order 2: <diag(-1, 1), (1 2)>, <diag(-1, 1), diag(1, -1)>, <diag(-1, 1)>
    g = enumerate_group(catalog(4, 1, 2))
    arr = hyperplanes(g)
    index = {m: w for w, m in enumerate(g.elements)}
    flip, flop, swap = (index[mat(rows)] for rows in (
        [[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]
    ))
    for gens in ([flip, swap], [flip, flop], [flip]):
        orders += assert_restrict_matches_re_enumeration(arr, gens)
    assert any(1 < sub_order < order for sub_order, order in orders)


def generator_search_orbit_ids(arr):
    """The orbit id of every hyperplane by a depth-first search under the
    group's generators, ids in order of each orbit's least hyperplane."""
    ids = [-1] * len(arr)
    orbit = 0
    for a in range(len(arr)):
        if ids[a] >= 0:
            continue
        stack = [a]
        ids[a] = orbit
        while stack:
            b = stack.pop()
            for g in arr.group.generators:
                c = arr.act(g, b)
                if ids[c] < 0:
                    ids[c] = orbit
                    stack.append(c)
        orbit += 1
    return ids


def b2_inside_g213():
    """The reflections of G(2,1,3) that fix the third coordinate vector,
    which generate a proper subgroup of type B2 in rank three."""
    g = enumerate_group(catalog(2, 1, 3))
    fixed = [
        g.elements[h.distinguished_generator]
        for h in hyperplanes(g).hyperplanes
        if g.elements[h.distinguished_generator].sparse_rows[2] == ((2, rat(1)),)
    ]
    return enumerate_group(fixed)


@pytest.mark.parametrize(
    "group", [(1, 1, 4), (2, 1, 3), (4, 4, 2), "b2_in_g213"], ids=str
)
def test_orbit_ids_match_the_generator_search(group):
    g = b2_inside_g213() if group == "b2_in_g213" else enumerate_group(catalog(*group))
    arr = hyperplanes(g)
    ids = [h.orbit_id for h in arr.hyperplanes]
    assert ids == generator_search_orbit_ids(arr)
    assert arr.orbits() == [
        [a for a in range(len(arr)) if ids[a] == k] for k in range(max(ids) + 1)
    ]
    if group == "b2_in_g213":
        assert (len(g), len(arr), len(arr.orbits())) == (8, 4, 2)


def test_orbit_partition_orders_orbits_by_least_point():
    # the rotations of a hexagon's vertices by multiples of two steps
    members, orbit_of = orbit_partition(6, lambda k, p: (p + k) % 6, [0, 2, 4])
    assert members == [(0, 2, 4), (1, 3, 5)]
    assert orbit_of == [0, 1, 0, 1, 0, 1]


# ---------------------------------------------------------------------------
# subgroups and cosets


def test_subgroup_of_nothing_is_identity():
    g = s3_rank2()
    assert subgroup_generated(g, []) == (0,)


def test_reflections_generate_s3():
    g = s3_rank2()
    arr = hyperplanes(g)
    gens = [h.distinguished_generator for h in arr.hyperplanes]
    assert len(subgroup_generated(g, gens)) == 6


def test_single_reflection_subgroup_in_b2():
    g = enumerate_group(catalog(2, 1, 2))
    arr = hyperplanes(g)
    s = arr[0].distinguished_generator
    assert len(subgroup_generated(g, [s])) == 2


def test_cosets_whole_group():
    g = s3_rank2()
    members, coset_of = left_cosets(g, range(len(g)))
    assert members == [tuple(range(len(g)))]
    assert coset_of == [0] * len(g)


def test_cosets_of_trivial_subgroup():
    g = s3_rank2()
    members, coset_of = left_cosets(g, [0])
    assert len(members) == len(g)
    assert coset_of == list(range(len(g)))


def test_cosets_of_order_two_subgroup_in_s3():
    g = s3_rank2()
    arr = hyperplanes(g)
    h = subgroup_generated(g, [arr[0].distinguished_generator])
    members, coset_of = left_cosets(g, h)
    assert len(members) == 3
    assert all(len(m) == 2 for m in members)
    # sorted members, cosets ordered by their least element, and each
    # element in the coset it names
    assert all(list(m) == sorted(m) for m in members)
    assert [m[0] for m in members] == sorted(m[0] for m in members)
    for c, m in enumerate(members):
        assert m == tuple(sorted(g.mul(m[0], b) for b in h))
        assert all(coset_of[x] == c for x in m)


def test_cosets_reject_non_subgroup():
    g = s3_rank2()
    with pytest.raises(DomainError, match="subgroup is not closed"):
        left_cosets(g, [0, g.generators[0], g.mul(g.generators[0], g.generators[1])])


def test_cosets_reject_a_subgroup_without_the_identity():
    # the empty set is the one closed set without the identity
    with pytest.raises(DomainError, match="must contain the identity"):
        left_cosets(s3_rank2(), [])


# ---------------------------------------------------------------------------
# Cayley tables whose identity is not element 0


def relabelled(table, generators, perm):
    """The same group with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return CayleyGroup(out, [perm[x] for x in generators])


def s3_table():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]
    return table, [index[(1, 0, 2)], index[(0, 2, 1)]]


def brute_closure(g, elems):
    e = next(x for x in range(len(g)) if all(g.table[x][y] == y for y in range(len(g))))
    seen = {e, *elems}
    while True:
        grown = seen | {g.table[a][b] for a in seen for b in seen}
        if grown == seen:
            return e, tuple(sorted(seen))
        seen = grown


def test_cayley_group_with_identity_elsewhere_matches_brute_force():
    table, gens = s3_table()
    g = relabelled(table, gens, [3, 5, 0, 4, 1, 2])
    n = len(g)
    e, _ = brute_closure(g, [])
    assert g.identity == e == 3
    for a in range(n):
        inverse = next(b for b in range(n) if g.table[a][b] == e == g.table[b][a])
        assert g.inv(a) == inverse
        naive = [e]
        while len(naive) < 7:
            naive.append(g.table[naive[-1]][a])
        for k in range(7):
            assert g.power(a, k) == naive[k]
            assert g.power(a, -k) == next(
                b for b in range(n) if g.table[naive[k]][b] == e
            )
        assert g.element_order(a) == next(k for k in range(1, 7) if naive[k] == e)
        assert subgroup_generated(g, [a]) == brute_closure(g, [a])[1]
    assert subgroup_generated(g, []) == (e,)
    assert subgroup_generated(g, g.generators) == brute_closure(g, g.generators)[1]
    assert len(subgroup_generated(g, g.generators)) == n
    assert g.associativity_witness(g.generators_and_unreached()) is None
    assert all(
        g.table[g.table[a][b]][c] == g.table[a][g.table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def test_associativity_witness_on_relabelled_loop():
    # a latin square that is not a group table, with its identity moved to 2
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    g = relabelled(loop, [1], [2, 0, 1, 3, 4])
    assert g.identity == 2
    a, x, b = g.associativity_witness(g.generators_and_unreached())
    assert g.table[g.table[a][x]][b] != g.table[a][g.table[x][b]]


# ---------------------------------------------------------------------------
# word lengths


def left_bfs_lengths(group, gens):
    """Word lengths by growing words on the left, -1 where unreached."""
    lengths = [-1] * len(group)
    lengths[group.identity] = 0
    frontier = [group.identity]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for s in gens:
                u = group.mul(s, w)
                if lengths[u] < 0:
                    lengths[u] = depth
                    nxt.append(u)
        frontier = nxt
    return lengths


def naive_order(group, a):
    cur, k = a, 1
    while cur != group.identity:
        cur, k = group.mul(cur, a), k + 1
    return k


def word_length_cases():
    for mpr in [(1, 1, 4), (2, 1, 3), (4, 4, 2)]:
        g = enumerate_group(catalog(*mpr))
        reflections = [h.distinguished_generator for h in hyperplanes(g).hyperplanes]
        yield g, [g.generators, g.generators[:1], g.generators[1:], reflections[::2]]
    table, gens = s3_table()
    g = relabelled(table, gens, [3, 5, 0, 4, 1, 2])
    yield g, [g.generators, g.generators[:1], [], list(range(len(g))), [5, 5, 1]]


def test_word_lengths_match_words_grown_on_the_left():
    for g, gen_sets in word_length_cases():
        for gens in gen_sets:
            lengths = word_lengths(g, gens)
            assert [lengths.get(x, -1) for x in range(len(g))] == left_bfs_lengths(g, gens)
            assert tuple(sorted(lengths)) == subgroup_generated(g, gens)
        assert len(word_lengths(g, g.generators)) == len(g)


def test_element_order_matches_the_power_loop():
    for g, _ in word_length_cases():
        assert [g.element_order(a) for a in range(len(g))] == [
            naive_order(g, a) for a in range(len(g))
        ]
