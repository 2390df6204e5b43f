import copy
import gc
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodromy import cyclo
from monodromy.cyclo import (
    ONE,
    ZERO,
    CycMatrix,
    CycNumber,
    CycPoly,
    detect_power_factor,
    minpoly_matrix,
    theta,
    zeta,
)
from monodromy.errors import CapacityError, DomainError
from corpus import eliminated_matrices, takes_the_closed_form


def rat(x):
    return CycNumber.rational(x)


# ---------------------------------------------------------------------------
# oracles


def char_poly_2x2(m: CycMatrix) -> CycPoly:
    """Independent characteristic polynomial for 2x2 matrices."""
    (a, b), (c, d) = m.entries
    return CycPoly([a * d - b * c, -(a + d), rat(1)])


def evaluate(p: CycPoly, x):
    """Horner evaluation of p at a CycNumber or a square CycMatrix."""
    if isinstance(x, CycMatrix):
        acc = CycMatrix.scalar(x.rows, p.coeffs[-1])
        for c in reversed(p.coeffs[:-1]):
            acc = acc * x
            if not c.is_zero():
                acc = acc + CycMatrix.scalar(x.rows, c)
        return acc
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_divides(a: CycPoly, b: CycPoly) -> bool:
    """Whether monic a divides monic b, by long division."""
    if a.degree > b.degree:
        return False
    rem = list(b.coeffs)
    for i in range(b.degree - a.degree, -1, -1):
        f = rem[i + a.degree]
        if f.is_zero():
            continue
        for j, d in enumerate(a.coeffs):
            rem[i + j] = rem[i + j] - f * d
    return all(c.is_zero() for c in rem)


def monic_linear_divisors(p: CycPoly):
    """Linear divisors z - r of p, with r searched over roots of unity of
    order <= 12 and small rationals.  Covers every test case used here."""
    candidates = [rat(q) for q in (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))]
    for n in range(1, 13):
        for k in range(n):
            candidates.append(zeta(n, k))
    seen = set()
    out = []
    for r in candidates:
        if r in seen:
            continue
        seen.add(r)
        if evaluate(p, r).is_zero():
            out.append(CycPoly([-r, rat(1)]))
    return out


def krylov_rank(m: CycMatrix) -> int:
    """Independent minimality witness: rank of the stacked powers of m."""
    n = m.rows
    rows = []
    power = CycMatrix.identity(n)
    for _ in range(n + 1):
        rows.append(tuple(x for row in power.entries for x in row))
        power = power * m
    return CycMatrix(rows).rank()


# ---------------------------------------------------------------------------
# scalars


def test_root_of_unity_squares():
    assert zeta(4) * zeta(4) == rat(-1)


def test_vanishing_sum_of_cube_roots():
    assert (rat(1) + zeta(3) + zeta(3, 2)).is_zero()


def test_rational_inverse():
    assert rat(2).inverse() == rat(Fraction(1, 2))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rat(0).inverse()


def test_order_capacity_bound():
    with pytest.raises(CapacityError):
        zeta(127)


def test_canonical_form_is_unique_across_constructions():
    a = zeta(12, 4)  # a primitive cube root
    b = zeta(3)
    assert a == b and hash(a) == hash(b) and a.order == 3
    assert zeta(6) == rat(1) + zeta(3)  # zeta_6 = 1 + zeta_3
    assert zeta(2) == rat(-1) and zeta(2).order == 1


def test_full_turn_is_identity():
    for n in (1, 2, 3, 4, 5, 8, 9, 12, 15):
        assert (zeta(n) ** n).is_one()
        assert not any((zeta(n) ** k).is_one() for k in range(1, n))


def test_conjugate_inverts_roots_of_unity():
    for n in (3, 4, 5, 8, 12):
        z = zeta(n)
        assert z.conjugate() == z.inverse()
        assert (z * z.conjugate()).is_one()


def test_root_of_unity_order_detection():
    assert zeta(8, 3).root_of_unity_order() == 8
    assert (-zeta(3)).root_of_unity_order() == 6
    assert rat(1).root_of_unity_order() == 1
    assert rat(2).root_of_unity_order() is None
    assert (zeta(3) + 1).root_of_unity_order() == 6  # zeta_6 again
    assert rat(0).root_of_unity_order() is None


def test_json_round_trip_canonicalizes():
    x = zeta(12, 7) + rat(Fraction(3, 4))
    back = CycNumber.from_json(x.to_json())
    assert back == x
    # a non-minimal encoding canonicalizes on load
    y = CycNumber.from_json({"order": 12, "terms": [[1, 1, 4]]})
    assert y == zeta(3) and y.order == 3


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def cyc_numbers():
    return st.builds(
        lambda q, n, k: rat(q) + zeta(n, k),
        small_rationals,
        st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
        st.integers(min_value=0, max_value=11),
    )


def prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def galois_image(x: CycNumber, k: int):
    """The power-basis vector of x under zeta -> zeta^k, at x's own order."""
    return cyclo._reduce_exponents(x.order, ((i * k, q) for i, q in enumerate(x.coeffs)))


def lifted_elements():
    """(n, d, terms): a canonical order n <= MAX_ORDER, a divisor d of n, and
    a few (exponent, coefficient) terms at order d."""
    canonical = [n for n in range(1, cyclo.MAX_ORDER + 1) if n % 4 != 2]
    return st.sampled_from(canonical).flatmap(
        lambda n: st.sampled_from([d for d in range(1, n + 1) if n % d == 0]).flatmap(
            lambda d: st.tuples(
                st.just(n),
                st.just(d),
                st.lists(st.tuples(st.integers(0, d - 1), small_rationals), min_size=1, max_size=4),
            )
        )
    )


@settings(max_examples=300, deadline=None)
@given(lifted_elements())
def test_descent_reaches_the_minimal_field(case):
    n, d, terms = case
    x = CycNumber.from_terms(d, terms)
    lifted_terms = [(e * (n // d), q) for e, q in terms]
    assert CycNumber.from_terms(n, lifted_terms) is x
    c = x.order
    assert d % c == 0
    # the value survives the descent
    assert cyclo._reduce_exponents(n, x.lift_terms(n)) == cyclo._reduce_exponents(n, lifted_terms)
    # minimal: for each prime p | c, x is moved by some element of
    # Gal(Q(zeta_c)/Q(zeta_{c/p})), the units k = 1 mod c/p
    for p in prime_factors(c):
        units = [k for k in range(1, c, c // p) if math.gcd(k, c) == 1]
        assert any(galois_image(x, k) != x.coeffs for k in units), (c, p)


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms_on_sampled_triples(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


# ---------------------------------------------------------------------------
# interning and memoized operations


def mixed_numbers():
    """Rationals, roots of unity, and sums of a scaled root with another
    root of a different order, so results land in various fields."""
    orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
    return st.one_of(
        small_rationals.map(rat),
        st.builds(zeta, orders, st.integers(0, 11)),
        st.builds(
            lambda q, n, k, m, j: rat(q) * zeta(n, k) + zeta(m, j),
            small_rationals, orders, st.integers(0, 11), orders, st.integers(0, 11),
        ),
    )


@settings(max_examples=100, deadline=None)
@given(mixed_numbers(), mixed_numbers())
def test_memoized_operations_match_uncached_bodies(a, b):
    assert a * b is cyclo._mul.__wrapped__(a, b)
    assert b * a is cyclo._mul.__wrapped__(b, a)
    assert a + b is cyclo._add.__wrapped__(a, b)
    assert -a is cyclo._neg.__wrapped__(a)
    assert a - b is cyclo._add.__wrapped__(a, cyclo._neg.__wrapped__(b))
    if not a.is_zero():
        assert a.inverse() is cyclo._inverse.__wrapped__(a)
        assert b / a is cyclo._mul.__wrapped__(b, cyclo._inverse.__wrapped__(a))


def test_equal_values_are_one_object():
    x = zeta(12, 7) + rat(Fraction(3, 4))
    assert CycNumber.from_json(x.to_json()) is x
    assert CycNumber.from_json({"order": 12, "terms": [[1, 1, 4]]}) is zeta(3)
    assert CycNumber.from_terms(12, [(4, 1)]) is zeta(3)
    assert CycNumber.from_terms(4, [(2, 1)]) is rat(-1)
    assert rat(Fraction(2, 4)) is rat(Fraction(1, 2))
    assert zeta(6) is rat(1) + zeta(3)
    assert zeta(2) is rat(-1) is -ONE
    assert x - x is ZERO and rat(0) is ZERO and zeta(7, 7) is ONE
    assert zeta(5, 2) * zeta(5, 2).inverse() is ONE
    assert zeta(8) ** 8 is ONE and (x * 2) / 2 is x
    assert x == x.conjugate().conjugate() and x != x.conjugate()
    assert ZERO == 0 and ONE == 1 and rat(Fraction(1, 2)) == Fraction(1, 2)


def test_copies_return_the_interned_instance():
    x = zeta(8, 3) + rat(Fraction(1, 3))
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert pickle.loads(pickle.dumps([x, ZERO, ONE])) == [x, ZERO, ONE]
    assert pickle.loads(pickle.dumps(ZERO)) is ZERO


def test_intern_table_holds_values_weakly():
    x = CycNumber.from_terms(7, [(1, Fraction(1234567, 3))])
    key = (x.order, x.coeffs)
    assert cyclo._INTERNED[key] is x
    data = pickle.dumps(x)
    del x
    gc.collect()
    assert key not in cyclo._INTERNED
    # a value rebuilt after its last instance died is interned again
    y = pickle.loads(data)
    assert cyclo._INTERNED[key] is y
    assert CycNumber.from_terms(7, [(1, Fraction(1234567, 3))]) is y


@settings(max_examples=60, deadline=None)
@given(mixed_numbers())
def test_hash_is_structural(x):
    assert hash(x) == hash((x.order, x.coeffs))


# ---------------------------------------------------------------------------
# involution


def test_theta_linear_example():
    r = CycPoly([rat(-2), rat(1)])  # z - 2
    assert theta(r) == CycPoly([rat(Fraction(-1, 2)), rat(1)])


def test_theta_quadratic_example():
    r = CycPoly([rat(2), rat(3), rat(1)])  # z^2 + 3z + 2
    assert theta(r) == CycPoly([rat(Fraction(1, 2)), rat(Fraction(3, 2)), rat(1)])


def test_theta_is_involutive_on_cyclotomic_example():
    r = CycPoly([rat(5), zeta(3), rat(0), rat(1)])  # z^3 + zeta_3 z + 5
    assert theta(theta(r)) == r


def test_theta_rejects_zero_constant_term():
    with pytest.raises(DomainError):
        theta(CycPoly([rat(0), rat(1)]))


def test_theta_involution_and_degree_on_random_polys():
    rng = random.Random(7)
    roots_of_unity = [zeta(n, k) for n in (1, 2, 3, 4, 6, 12) for k in range(n)]
    for _ in range(200):
        deg = rng.randint(1, 6)
        coeffs = []
        for i in range(deg):
            c = rat(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
            c = c + rng.choice(roots_of_unity) * rng.randint(0, 2)
            coeffs.append(c)
        if coeffs[0].is_zero():
            coeffs[0] = rat(1)
        p = CycPoly(coeffs + [rat(1)])
        q = theta(p)
        assert q.degree == p.degree
        assert not q.constant_term.is_zero()
        assert theta(q) == p


def test_theta_of_theta_matches_inverse_minpoly():
    # theta sends the minimal polynomial of an operator to that of its inverse
    m = CycMatrix([[zeta(4), rat(1)], [rat(0), zeta(3)]])
    r = minpoly_matrix(m)
    assert theta(r) == minpoly_matrix(m.inverse())


# ---------------------------------------------------------------------------
# exponent-support factor


def test_power_factor_even_support():
    r = CycPoly([rat(-1), rat(0), rat(0), rat(0), rat(1)])  # z^4 - 1
    assert detect_power_factor(r, 2) == CycPoly([rat(-1), rat(0), rat(1)])


def test_power_factor_absent_for_odd_support():
    r = CycPoly([rat(1), rat(1), rat(1)])  # z^2 + z + 1
    assert detect_power_factor(r, 2) is None


def test_power_factor_identity_exponent():
    r = CycPoly([zeta(3), rat(2), rat(1)])
    assert detect_power_factor(r, 1) == r


def test_power_factor_rejects_bad_exponent():
    with pytest.raises(DomainError):
        detect_power_factor(CycPoly([rat(1), rat(1)]), 0)


def test_power_factor_degree_division():
    r = CycPoly([rat(2), rat(0), rat(0), rat(1)])  # z^3 + 2, e=3
    rb = detect_power_factor(r, 3)
    assert rb == CycPoly([rat(2), rat(1)]) and rb.degree == r.degree // 3


# ---------------------------------------------------------------------------
# minimal polynomials


def test_minpoly_identity():
    assert minpoly_matrix(CycMatrix.identity(2)) == CycPoly([rat(-1), rat(1)])


def test_minpoly_companion():
    # companion matrix of z^2 - z - 1
    m = CycMatrix([[rat(0), rat(1)], [rat(1), rat(1)]])
    assert minpoly_matrix(m) == CycPoly([rat(-1), rat(-1), rat(1)])


def test_minpoly_swap_with_divisor_oracle():
    swap = CycMatrix([[rat(0), rat(1)], [rat(1), rat(0)]])
    p = char_poly_2x2(swap)
    # brute-force: no monic divisor of the characteristic polynomial of
    # degree < 2 annihilates the matrix
    annihilating = [
        d for d in monic_linear_divisors(p) if evaluate(d, swap).is_zero()
    ]
    assert annihilating == []
    expected = CycPoly([rat(-1), rat(0), rat(1)])  # frozen: z^2 - 1
    assert p == expected
    assert minpoly_matrix(swap) == expected


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 1], [1, 0]],
        [[0, 1], [1, 1]],
        [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    ],
)
def test_minpoly_annihilates_and_is_minimal(entries):
    m = CycMatrix([[rat(x) for x in row] for row in entries])
    p = minpoly_matrix(m)
    assert evaluate(p, m).is_zero()
    assert p.degree == krylov_rank(m)


def test_minpoly_with_cyclotomic_entries():
    m = CycMatrix([[zeta(3), rat(0)], [rat(0), zeta(4)]])
    p = minpoly_matrix(m)
    assert p.degree == 2
    assert evaluate(p, m).is_zero()
    assert evaluate(p, zeta(3)).is_zero() and evaluate(p, zeta(4)).is_zero()


def test_minpoly_of_blocks_with_different_local_polynomials():
    # a Jordan block, a swap and a scalar: the standard basis vectors have
    # local minimal polynomials z - 1, (z - 1)^2, z^2 - 1 and z - zeta_3,
    # and the minimal polynomial is their lcm (z - 1)^2 (z + 1) (z - zeta_3)
    o, i, w = rat(0), rat(1), zeta(3)
    m = CycMatrix(
        [
            [i, i, o, o, o],
            [o, i, o, o, o],
            [o, o, o, i, o],
            [o, o, i, o, o],
            [o, o, o, o, w],
        ]
    )
    p = minpoly_matrix(m)
    assert p.degree == 4 == krylov_rank(m)
    assert evaluate(p, m).is_zero()
    for factor in ([i, rat(-2), i], [i, i], [-w, i]):
        assert poly_divides(CycPoly(factor), p)


def test_minpoly_divisor_search_small_dims():
    rng = random.Random(3)
    for dim in (2, 3, 4):
        base = [[rat(0)] * dim for _ in range(dim)]
        # random monomial matrix with root-of-unity entries: minpoly has
        # root-of-unity roots, so the linear-divisor oracle is exhaustive
        perm = list(range(dim))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            base[j][i] = zeta(rng.choice([1, 2, 3, 4, 6]), rng.randint(0, 3))
        m = CycMatrix(base)
        p = minpoly_matrix(m)
        assert evaluate(p, m).is_zero()
        for d in monic_linear_divisors(p):
            if d.degree < p.degree:
                assert not evaluate(d, m).is_zero() or poly_divides(p, d)


# the to_json of minpoly_matrix on each of eliminated_matrices(), recorded
# before the elimination path was pinned
MINPOLY_VALUES = Path(__file__).resolve().parent / "minpoly_values.json"


def test_eliminated_minimal_polynomials_match_recorded_values():
    recorded = json.loads(MINPOLY_VALUES.read_text())
    mats = eliminated_matrices()
    assert sorted(mats) == sorted(recorded)
    for name, m in mats.items():
        assert not takes_the_closed_form(m), name
        assert minpoly_matrix(m).to_json() == recorded[name], name


# ---------------------------------------------------------------------------
# matrices


def test_matrix_inverse_round_trip():
    m = CycMatrix([[zeta(4), rat(1)], [rat(0), zeta(3, 2)]])
    assert m * m.inverse() == CycMatrix.identity(2)
    assert m.inverse() * m == CycMatrix.identity(2)


def test_singular_matrix_rejected():
    with pytest.raises(DomainError):
        CycMatrix([[rat(1), rat(1)], [rat(1), rat(1)]]).inverse()


def test_matrix_rank():
    assert CycMatrix([[rat(1), rat(1)], [rat(1), rat(1)]]).rank() == 1
    assert CycMatrix.identity(3).rank() == 3
    assert CycMatrix([[rat(0)]]).rank() == 0


def test_matrix_hash_consistency():
    a = CycMatrix([[zeta(12, 4)]])
    b = CycMatrix([[zeta(3)]])
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# sparse matrices against the dense reference loops
#
# The loops below are the dense implementations the sparse type replaced.
# They act on dense row tuples; exact arithmetic makes the results equal.


def dense_mul(a, b):
    out = []
    for ra in a:
        row = []
        for j in range(len(b[0])):
            acc = None
            for k in range(len(ra)):
                x = ra[k]
                if x.is_zero():
                    continue
                y = b[k][j]
                if y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(rat(0) if acc is None else acc)
        out.append(tuple(row))
    return tuple(out)


def dense_apply(a, vec):
    out = []
    for row in a:
        acc = None
        for x, v in zip(row, vec):
            if x.is_zero() or v.is_zero():
                continue
            term = x * v
            acc = term if acc is None else acc + term
        out.append(rat(0) if acc is None else acc)
    return tuple(out)


def dense_rank(a):
    rows = [list(r) for r in a]
    rank = 0
    for col in range(len(rows[0])):
        sel = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def dense_inverse(a):
    """The inverse as dense rows, or None when a is singular."""
    n = len(a)
    rows = [list(r) + [rat(1) if i == j else rat(0) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        sel = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if sel is None:
            return None
        rows[col], rows[sel] = rows[sel], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def dense_kron(a, b):
    return tuple(
        tuple(x * y for x in ra for y in rb) for ra in a for rb in b
    )


def sparse_entries():
    """Mostly zeros; the rest rational, roots of unity, or their sums."""
    nonzero = st.one_of(
        small_rationals.filter(bool).map(rat),
        st.builds(zeta, st.sampled_from([2, 3, 4, 6, 8, 12]), st.integers(0, 11)),
        cyc_numbers().filter(lambda x: not x.is_zero()),
    )
    return st.one_of(st.just(rat(0)), st.just(rat(0)), nonzero)


def dense_matrices(rows, cols):
    return st.lists(
        st.lists(sparse_entries(), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda rs: tuple(map(tuple, rs)))


# the nonzero of a single-entry row: one, minus one, a root of unity other
# than those two, or a rational
single_entries = st.one_of(
    st.just(ONE),
    st.just(rat(-1)),
    st.sampled_from([3, 4, 5, 8, 12]).map(zeta),
    small_rationals.filter(bool).map(rat),
)


def single_entry_rows(cols):
    return st.tuples(st.integers(0, cols - 1), single_entries).map(
        lambda p: tuple(p[1] if j == p[0] else ZERO for j in range(cols))
    )


def left_factors(rows, cols):
    """Dense matrices, monomial and diagonal ones (when square), and
    matrices whose single-entry rows mix with denser rows."""
    dense_row = st.lists(sparse_entries(), min_size=cols, max_size=cols).map(tuple)
    kinds = [
        dense_matrices(rows, cols),
        st.lists(
            st.one_of(single_entry_rows(cols), dense_row), min_size=rows, max_size=rows
        ).map(tuple),
    ]
    if rows == cols:
        # row i of a monomial matrix holds its entry in column perm[i]
        perms = st.one_of(st.just(list(range(rows))), st.permutations(range(rows)))
        kinds.append(
            st.tuples(perms, st.lists(single_entries, min_size=rows, max_size=rows)).map(
                lambda p: tuple(
                    tuple(x if j == p[0][i] else ZERO for j in range(cols))
                    for i, x in enumerate(p[1])
                )
            )
        )
    return st.one_of(kinds)


dims = st.integers(min_value=1, max_value=4)


def assert_canonical(m: CycMatrix):
    """Columns strictly increasing and no stored zero in any row."""
    assert len(m.sparse_rows) == m.rows
    for row in m.sparse_rows:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns)) and all(0 <= j < m.cols for j in columns)
        assert all(not x.is_zero() for _, x in row)


@settings(max_examples=120, deadline=None)
@given(st.tuples(dims, dims, dims).flatmap(
    lambda s: st.tuples(left_factors(s[0], s[1]), dense_matrices(s[1], s[2]))
))
def test_sparse_product_matches_dense(pair):
    a, b = pair
    got = CycMatrix(a) * CycMatrix(b)
    assert_canonical(got)
    assert got.entries == dense_mul(a, b)
    assert got == CycMatrix(dense_mul(a, b))
    assert hash(got) == hash(CycMatrix(dense_mul(a, b)))
    # [a | a] times [b ; -b] cancels to zero in every entry
    left = CycMatrix([ra + ra for ra in a])
    right = CycMatrix(b + tuple(tuple(-y for y in rb) for rb in b))
    assert (left * right).sparse_rows == ((),) * len(a)


@settings(max_examples=60, deadline=None)
@given(st.tuples(dims, dims).flatmap(
    lambda s: st.tuples(dense_matrices(s[0], s[1]), dense_matrices(1, s[1]))
))
def test_sparse_apply_matches_dense(pair):
    a, (vec,) = pair
    assert CycMatrix(a).apply(vec) == dense_apply(a, vec)


@settings(max_examples=60, deadline=None)
@given(st.tuples(dims, dims).flatmap(lambda s: dense_matrices(*s)))
def test_sparse_rank_matches_dense(a):
    assert CycMatrix(a).rank() == dense_rank(a)


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda n: dense_matrices(n, n)))
def test_sparse_inverse_matches_dense(a):
    expected = dense_inverse(a)
    if expected is None:
        with pytest.raises(DomainError):
            CycMatrix(a).inverse()
    else:
        inverse = CycMatrix(a).inverse()
        assert_canonical(inverse)
        assert inverse.entries == expected


@settings(max_examples=100, deadline=None)
@given(dims.flatmap(lambda n: dense_matrices(n, n)))
def test_minpoly_annihilates_and_matches_krylov_rank(a):
    m = CycMatrix(a)
    p = minpoly_matrix(m)
    assert evaluate(p, m).is_zero()
    assert p.degree == krylov_rank(m)
    assert p == dense_minpoly(a)


def dense_minpoly(a):
    """The first dependence among the flattened powers I, a, a^2, ...,
    found by dense row echelon form with one tag column per power."""
    n = len(a)
    width = n * n
    basis = []  # (pivot column, row scaled to one there)
    power = tuple(tuple(rat(int(i == j)) for j in range(n)) for i in range(n))
    for k in range(n + 1):
        row = [x for r in power for x in r] + [rat(int(t == k)) for t in range(n + 1)]
        for pivot, prow in basis:
            f = row[pivot]
            if not f.is_zero():
                row = [x - f * y for x, y in zip(row, prow)]
        pivot = next((c for c in range(width) if not row[c].is_zero()), None)
        if pivot is None:
            return CycPoly.monic(row[width:width + k + 1])
        inv = row[pivot].inverse()
        basis.append((pivot, [x * inv for x in row]))
        power = dense_mul(power, a)
    raise AssertionError("n + 1 powers are dependent")


permutation_weights = st.one_of(
    st.builds(zeta, st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]), st.integers(0, 11)),
    small_rationals.filter(bool).map(rat),
)


@st.composite
def weighted_permutations(draw):
    """Dense rows of a matrix with m e_j = a_j e_t(j): cycles of t of one
    length and one weight product, of mixed lengths, or of one length with
    independent weights (so mostly mixed products)."""
    kind = draw(st.sampled_from(["equal", "mixed_lengths", "mixed_products"]))
    if kind == "mixed_lengths":
        lengths = draw(
            st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(
                lambda ls: len(set(ls)) > 1
            )
        )
    else:
        lengths = [draw(st.integers(1, 4))] * draw(st.integers(1 if kind == "equal" else 2, 2))
    n = sum(lengths)
    weights = draw(st.lists(permutation_weights, min_size=n, max_size=n))
    if kind == "equal":
        # the last weight of each later cycle matches the first cycle's product
        ell = lengths[0]
        product = math.prod(weights[:ell], start=ONE)
        for start in range(ell, n, ell):
            weights[start + ell - 1] = product / math.prod(
                weights[start:start + ell - 1], start=ONE
            )
    labels = draw(st.permutations(range(n)))
    dense = [[ZERO] * n for _ in range(n)]
    start = 0
    for ell in lengths:
        for k in range(ell):
            j, t = labels[start + k], labels[start + (k + 1) % ell]
            dense[t][j] = weights[start + k]
        start += ell
    return tuple(map(tuple, dense))


@settings(max_examples=150, deadline=None)
@given(weighted_permutations())
def test_weighted_permutation_minpoly_and_inverse_match_dense(a):
    m = CycMatrix(a)
    assert minpoly_matrix(m) == dense_minpoly(a)
    inverse = m.inverse()
    assert_canonical(inverse)
    assert inverse.entries == dense_inverse(a)
    identity = CycMatrix.identity(m.rows)
    assert m * inverse == identity == inverse * m


@settings(max_examples=30, deadline=None)
@given(st.tuples(dims, dims, dims, dims).flatmap(
    lambda s: st.tuples(dense_matrices(s[0], s[1]), dense_matrices(s[2], s[3]))
))
def test_sparse_kron_matches_dense(pair):
    a, b = pair
    got = CycMatrix(a).kron(CycMatrix(b))
    assert_canonical(got)
    assert got.entries == dense_kron(a, b)


@settings(max_examples=60, deadline=None)
@given(st.tuples(dims, dims).flatmap(
    lambda s: st.tuples(dense_matrices(*s), dense_matrices(*s))
))
def test_sparse_equality_hash_and_encodings(pair):
    a, b = pair
    m, other = CycMatrix(a), CycMatrix(b)
    # sums that cancel leave no stored zeros behind
    zero = CycMatrix([[rat(0)] * m.cols for _ in range(m.rows)])
    assert m - m == zero and hash(m - m) == hash(zero) and (m - m).is_zero()
    back = (m + other) - other
    assert back == m and hash(back) == hash(m)
    assert_canonical(m + other)
    assert_canonical(m * zeta(3))
    assert (m * 0).sparse_rows == ((),) * m.rows
    # the dense view and the JSON encoding round-trip
    assert m.entries == a
    assert CycMatrix(m.entries) == m
    assert m.to_json() == [[x.to_json() for x in row] for row in a]
    assert CycMatrix.from_json(m.to_json()) == m
    triples = [(i, j, x) for i, row in enumerate(a) for j, x in enumerate(row)]
    assert CycMatrix.from_triples(m.rows, m.cols, triples) == m


def test_sparse_constructors():
    assert CycMatrix.identity(3).sparse_rows == (((0, rat(1)),), ((1, rat(1)),), ((2, rat(1)),))
    assert CycMatrix.scalar(2, rat(0)).sparse_rows == ((), ())
    assert CycMatrix.diagonal([zeta(3), rat(0)]) == CycMatrix([[zeta(3), rat(0)], [rat(0), rat(0)]])
    with pytest.raises(DomainError):
        CycMatrix.from_triples(2, 2, [(0, 0, rat(1)), (0, 0, rat(2))])
    with pytest.raises(DomainError):
        CycMatrix.from_triples(2, 2, [(2, 0, rat(1))])
