import math

import pytest

from monodromy.carousel import (
    CarouselModel,
    build_carousel,
    carousel_minpolys,
    twist_from_extension,
)
from monodromy.cyclo import (
    CycMatrix,
    CycNumber,
    CycPoly,
    detect_power_factor,
    minpoly_matrix,
    theta,
    zeta,
)
from monodromy.errors import DomainError, IntegrityError
from monodromy.extension import Character
from monodromy.fixtures import direct_product_datum
from corpus import characters, load_datum, nontrivial_character, s3_rank2_generators


def rat(x):
    return CycNumber.rational(x)


def test_swap_model():
    m = build_carousel(2, 1, 1, rat(1))
    swap = CycMatrix([[rat(0), rat(1)], [rat(1), rat(0)]])
    assert m.lambda_inv == swap
    assert m.mu_e == swap


def test_identity_model():
    m = build_carousel(1, 1, 1, rat(1))
    assert m.lambda_inv == CycMatrix.identity(1)
    assert m.mu_e == CycMatrix.identity(1)
    polys = carousel_minpolys(m)
    assert polys.r == CycPoly([rat(-1), rat(1)])  # z - 1


def test_twisted_four_cycle_model():
    m = build_carousel(4, 2, -1, zeta(4))
    # column images: u_j -> -u_{j+1}, wrapping to -zeta_4 u_0
    assert m.lambda_inv.apply((rat(1), rat(0), rat(0), rat(0))) == (
        rat(0), rat(-1), rat(0), rat(0),
    )
    assert m.lambda_inv.apply((rat(0), rat(0), rat(0), rat(1))) == (
        -zeta(4), rat(0), rat(0), rat(0),
    )
    assert m.k == 1
    assert m.mu_e == m.lambda_inv**2


def test_swap_minpolys():
    polys = carousel_minpolys(build_carousel(2, 1, 1, rat(1)))
    z2_minus_1 = CycPoly([rat(-1), rat(0), rat(1)])
    assert polys.r == z2_minus_1
    assert polys.rbar == z2_minus_1
    assert polys.rbar_mu == z2_minus_1


def test_minpoly_closed_form():
    # the inverse-shift minimal polynomial is z^n - sgn^n * twist
    for n, e, sgn, twist in [(3, 1, 1, zeta(3)), (4, 2, -1, zeta(4)), (6, 3, -1, rat(-1))]:
        m = build_carousel(n, e, sgn, twist)
        p = minpoly_matrix(m.lambda_inv)
        coeffs = [-(rat(sgn) ** n) * twist] + [rat(0)] * (n - 1) + [rat(1)]
        assert p == CycPoly(coeffs)
        # and the forward polynomial is its involution image
        assert carousel_minpolys(m).r == theta(p)


def test_degree_six_power_factor():
    m = build_carousel(6, 2, 1, rat(1))
    polys = carousel_minpolys(m)
    assert polys.r.degree == 6
    assert polys.rbar.degree == 3
    assert detect_power_factor(polys.r, 2) == polys.rbar


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        build_carousel(4, 3, 1, rat(1))  # 3 does not divide 4
    with pytest.raises(DomainError):
        build_carousel(4, 2, 2, rat(1))  # sign out of range
    with pytest.raises(DomainError):
        build_carousel(4, 2, 1, rat(0))  # zero twist
    with pytest.raises(DomainError):
        build_carousel(4, 2, 1, rat(2))  # not a root of unity


def sparse_columns(m):
    """Per column of m, its (row, entry) pairs in row order."""
    columns = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.sparse_rows):
        for j, x in row:
            columns[j].append((i, x))
    return [tuple(column) for column in columns]


def certify_model(m):
    """The model certificate that construction stands in for: the
    shift structure of lambda_inv, mu_e as the signed power, and the image
    of the first basis vector under mu_e."""
    n = m.n
    sign = rat(m.sgn)
    columns = sparse_columns(m.lambda_inv)
    for j in range(n):
        assert columns[j] == (((j + 1, sign),) if j < n - 1 else ((0, sign * m.twist),)), j
    assert m.mu_e == (m.lambda_inv**m.e) * rat(m.k)
    expected = [rat(0)] * n
    if m.e < n:
        expected[m.e] = rat(1)
    else:
        expected[0] = m.twist
    assert m.mu_e.apply(tuple(rat(int(i == 0)) for i in range(n))) == tuple(expected)


def test_every_grid_model_is_the_shift_and_its_signed_power():
    # the 3220 tuples of acceptance criterion 3
    count = 0
    for n in range(1, 13):
        for e in (e for e in range(1, n + 1) if n % e == 0):
            for sgn in (1, -1):
                for k in range(1, 13):
                    for j in range(k):
                        if math.gcd(j, k) == 1 or (j == 0 and k == 1):
                            certify_model(build_carousel(n, e, sgn, zeta(k, j)))
                            count += 1
    assert count == 3220


def faulty_model(n, e, lambda_inv, mu_e):
    """A model with sign and twist one that build_carousel would never
    make, for carousel_minpolys to refuse."""
    return CarouselModel(n, e, 1, rat(1), lambda_inv, mu_e)


def permutation(n, images):
    """The permutation matrix sending basis vector j to images[j]."""
    return CycMatrix.from_triples(n, n, [(images[j], j, rat(1)) for j in range(n)])


def test_minpolys_refuse_a_shift_with_two_cycles():
    two_cycles = permutation(4, [1, 0, 3, 2])
    m = faulty_model(4, 1, two_cycles, two_cycles)
    with pytest.raises(IntegrityError, match="minimal degree 2, expected 4"):
        carousel_minpolys(m)


def test_minpolys_refuse_powers_that_break_the_fold():
    # the companion matrix of z^2 - z - 1: its square has minimal polynomial
    # z^2 - 3z + 1, and z^2 - z - 1 is not supported on even exponents
    companion = CycMatrix([[rat(0), rat(1)], [rat(1), rat(1)]])
    m = faulty_model(2, 2, companion, companion**2)
    with pytest.raises(IntegrityError, match="power-support factorization failed"):
        carousel_minpolys(m)


def test_minpolys_refuse_a_singular_family_monodromy():
    swap = permutation(2, [1, 0])
    m = faulty_model(2, 1, swap, CycMatrix.diagonal([rat(1), rat(0)]))
    with pytest.raises(IntegrityError, match="zero constant term"):
        carousel_minpolys(m)


def test_minpolys_refuse_a_family_monodromy_off_the_theta_twist():
    swap = permutation(2, [1, 0])
    m = faulty_model(2, 1, swap, CycMatrix.identity(2))
    with pytest.raises(IntegrityError, match="sign-twisted involution"):
        carousel_minpolys(m)


def sweep_tuples(n_max=8, twist_orders=(1, 2, 3, 4)):
    for n in range(1, n_max + 1):
        for e in range(1, n + 1):
            if n % e:
                continue
            for sgn in (1, -1):
                for k in twist_orders:
                    yield n, e, sgn, zeta(k)


def test_model_identities_sweep():
    for n, e, sgn, twist in sweep_tuples():
        m = build_carousel(n, e, sgn, twist)
        polys = carousel_minpolys(m)
        assert polys.r.degree == n
        assert polys.rbar.degree == n // e
        assert polys.rbar_mu.degree == n // e
        # the two monodromies commute and the forward matrix inverts the model
        forward = m.lambda_inv.inverse()
        assert m.mu_e * m.lambda_inv == m.lambda_inv * m.mu_e
        assert forward * m.lambda_inv == CycMatrix.identity(n)
        # the family monodromy is the signed inverse power
        assert m.mu_e == (forward ** e).inverse() * rat(sgn ** e)


def test_twist_from_direct_product_is_one():
    d = direct_product_datum("dp", s3_rank2_generators(), 2)
    chi = characters(d)[1]
    for alpha in range(len(d.arrangement)):
        assert twist_from_extension(d, alpha, chi).is_one()


def test_twist_refuses_a_splitting_element_that_does_not_close_up():
    # an unvalidated datum: hyperplane 0 of s4_over_s3 split over an element
    # above a 3-cycle, whose square is not in the kernel
    d = load_datum("s4_over_s3")
    assert d.arrangement[0].order == 2
    d.splitting[0] = next(
        r for r in range(len(d.wtilde)) if d.group.element_order(d.q[r]) == 3
    )
    with pytest.raises(IntegrityError, match="hyperplane 0 does not close up"):
        twist_from_extension(d, 0, Character.trivial(d.kernel))


def test_twist_from_z8_cover_is_minus_one():
    d = load_datum("cyclic_z8_over_z4")
    chi = nontrivial_character(d)
    assert twist_from_extension(d, 0, chi) == rat(-1)


def test_twist_trivial_character():
    d = load_datum("cyclic_z8_over_z4")
    assert twist_from_extension(d, 0, Character.trivial(d.kernel)).is_one()


def test_twist_from_quaternion_cover():
    d = load_datum("quaternion_over_v4")
    chi = nontrivial_character(d)
    for alpha in d.splitting:
        assert twist_from_extension(d, alpha, chi) == rat(-1)


def test_twist_from_dicyclic_cover():
    d = load_datum("dicyclic12_over_s2")
    gen = max(d.kernel, key=lambda x: d.wtilde.element_order(x))
    chi6 = d.character_from_values({gen: zeta(6)})
    assert twist_from_extension(d, 0, chi6) == rat(-1)
    chi3 = d.character_from_values({gen: zeta(3)})
    assert twist_from_extension(d, 0, chi3).is_one()
