import pytest

from monodromy.cyclo import CycMatrix, CycNumber, zeta
from monodromy.errors import CapacityError, DomainError
from monodromy.reflgrp import (
    catalog,
    catalog_order,
    enumerate_group,
    hyperplanes,
    left_cosets,
    subgroup_generated,
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
    gens = [g.elements[i] for i in g.generator_indices]
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


def test_conjugation_permutes_hyperplanes():
    # the matrix action is the reference: w sends the hyperplane with
    # normal covector n to the one with normal n * M_w^-1
    for mpr in [(2, 1, 2), (3, 3, 2), (1, 1, 3), (3, 1, 2), (2, 1, 3)]:
        g = enumerate_group(catalog(*mpr))
        arr = hyperplanes(g)
        for w in range(len(g)):
            m_inv_t = g.elements[w].inverse().transpose()
            for a, h in enumerate(arr.hyperplanes):
                expected = arr.index_of_normal(_canonical(m_inv_t.apply(h.normal)))
                assert arr.act(w, a) == expected


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
    with pytest.raises(DomainError):
        left_cosets(g, [0, g.generator_indices[0], g.mul(g.generator_indices[0], g.generator_indices[1])])
