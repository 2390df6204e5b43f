"""The rank-one monodromy model: a cyclically shifted basis with a sign and
a wrap-around scalar.

The model matrix for the inverse braid monodromy sends basis vector j to
sign times vector j+1, wrapping to sign * twist * vector 0 at the top; the
family monodromy on the same space is the sign-power multiple of its e-th
power; both are right by construction.  The minimal polynomials of the
forward monodromy, of its e-th power, and of the family monodromy satisfy
exact support and involution identities, which are recomputed and
certified on every build.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import (
    CycMatrix,
    CycNumber,
    CycPoly,
    detect_power_factor,
    minpoly_matrix,
    theta,
)
from .errors import DomainError, IntegrityError
from .extension import Character, ExtensionDatum


@dataclass
class CarouselModel:
    n: int
    e: int
    sgn: int
    twist: CycNumber
    lambda_inv: CycMatrix  # the inverse braid monodromy on the basis
    mu_e: CycMatrix  # the family monodromy of the e-th power loop

    @property
    def k(self) -> int:
        """The comparison sign between the family monodromy and the inverse
        braid monodromy power."""
        return self.sgn**self.e

    def to_json(self) -> dict:
        """The model as a report section; the matrices stay ``CycMatrix``."""
        return {
            "n": self.n,
            "e": self.e,
            "sgn": self.sgn,
            "twist": self.twist.to_json(),
            "lambda_inv": self.lambda_inv,
            "mu_e": self.mu_e,
        }


@dataclass
class CarouselPolys:
    r: CycPoly  # minimal polynomial of the forward monodromy
    rbar: CycPoly  # minimal polynomial of its e-th power
    rbar_mu: CycPoly  # minimal polynomial of the family monodromy

    def to_json(self) -> dict:
        return {
            "R": self.r.to_json(),
            "Rbar": self.rbar.to_json(),
            "Rbar_mu": self.rbar_mu.to_json(),
        }


def build_carousel(n: int, e: int, sgn: int, twist: CycNumber) -> CarouselModel:
    if n < 1:
        raise DomainError(f"basis size must be positive, got {n}")
    if e < 1 or n % e:
        raise DomainError(f"power {e} must divide the basis size {n}")
    if sgn not in (1, -1):
        raise DomainError(f"sign must be +-1, got {sgn}")
    if not isinstance(twist, CycNumber):
        twist = CycNumber.rational(twist)
    if twist.root_of_unity_order() is None:
        raise DomainError(f"wrap-around scalar {twist!r} must be a root of unity")
    sign = CycNumber.rational(sgn)
    shift = [(j + 1, j, sign) for j in range(n - 1)]
    lambda_inv = CycMatrix.from_triples(n, n, shift + [(0, n - 1, sign * twist)])
    mu_e = (lambda_inv**e) * CycNumber.rational(sgn**e)
    # lambda_inv holds exactly the shift triples and mu_e is the signed
    # power k * lambda_inv**e, k = sgn**e; so mu_e sends e_0 to
    # sgn**(2e) * e_e = e_e, or to twist * e_0 when e = n
    return CarouselModel(n, e, sgn, twist, lambda_inv, mu_e)


def _theta_twisted(rbar: CycPoly, k: int) -> CycPoly:
    """k^deg * (theta rbar)(k z) for k in {+1, -1}; monic by construction."""
    if k not in (1, -1):
        raise DomainError(f"comparison sign must be +-1, got {k}")
    flipped = theta(rbar)
    d = flipped.degree
    sign = CycNumber.rational(k)
    coeffs = [flipped.coeffs[i] * (sign ** ((d + i) % 2)) for i in range(d + 1)]
    return CycPoly(coeffs)


def carousel_minpolys(m: CarouselModel) -> CarouselPolys:
    """The three minimal polynomials with their identities certified."""
    forward = m.lambda_inv.inverse()
    r = minpoly_matrix(forward)
    # the first power is forward itself, whose polynomial is r
    rbar = r if m.e == 1 else minpoly_matrix(forward**m.e)
    rbar_mu = minpoly_matrix(m.mu_e)
    if r.degree != m.n:
        raise IntegrityError(
            f"forward monodromy has minimal degree {r.degree}, expected {m.n}"
        )
    folded = detect_power_factor(r, m.e)
    if folded != rbar:
        raise IntegrityError(
            "power-support factorization failed: the e-th power minimal "
            "polynomial does not reconstruct the forward one"
        )
    if r.constant_term.is_zero() or rbar.constant_term.is_zero() or rbar_mu.constant_term.is_zero():
        raise IntegrityError("minimal polynomial with zero constant term")
    expected_mu = _theta_twisted(rbar, m.k)
    if rbar_mu != expected_mu:
        raise IntegrityError(
            "family minimal polynomial does not match the sign-twisted "
            "involution of the braid one"
        )
    return CarouselPolys(r, rbar, rbar_mu)


def twist_from_extension(
    datum: ExtensionDatum, alpha: int, chi: Character
) -> CycNumber:
    """The principled wrap-around scalar: the character value of the inverse
    of the full-turn power of the splitting element."""
    n = datum.arrangement[alpha].order
    r = datum.splitting[alpha]
    full_turn = datum.wtilde.power(r, n)
    if datum.q[full_turn] != datum.group.identity:
        raise IntegrityError(
            f"splitting element at hyperplane {alpha} does not close up: "
            f"its {n}-th power is not in the kernel"
        )
    return chi(datum.wtilde.inv(full_turn))
