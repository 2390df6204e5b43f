"""Deformed group algebras presented by monic relations on braid-type
generators, in three certified regimes.

Supported regimes: cyclic (one generator, companion matrix of its
relation), real groups with quadratic relations (basis indexed by group
elements, descent-rule multiplication against a certified simple system),
and tensor products of these.  Every build's claims hold on the regular
representation, by construction or by certificate: basis independence,
closed multiplication, generator relations, and (in the quadratic regime)
the braid relations of the chosen simple system.  One ``word_lengths``
search per candidate simple system tests generation and gives the
lengths of the descent rule.  The basis operators T_w are built inside
the closure certificate, one product T_s T_w at a time; a second ascent
onto a built T_w is implied by the descent comparisons and forms no
product.  For a Coxeter generator the closure certificate is also the
relation and invertibility certificate, and it implies each braid
relation whose words are reduced.  Unsupported inputs fail with a regime
error naming the obstruction.
"""

from __future__ import annotations

import itertools
import math

from .cyclo import ONE, CycMatrix, CycPoly
from .errors import DomainError, ParameterError, RegimeError
from .reflgrp import Arrangement, CayleyGroup, word_lengths


class HeckeAlgebra:
    """A finite-dimensional algebra given by its regular representation."""

    def __init__(self, regime, dimension, generators, params):
        self.regime = regime
        self.dimension = dimension
        self.generators: dict[str, CycMatrix] = dict(generators)
        # generator key -> relation, certified to be its minimal polynomial
        self.params: dict[str, CycPoly] = dict(params)
        # filled by the quadratic-regime builder
        self.group: CayleyGroup | None = None
        self.simple_hyperplanes: list[int] = []
        self._element_matrices: dict[int, CycMatrix] = {}

    def t_of_element(self, w: int) -> CycMatrix:
        """Basis operator for a group element (quadratic regime only)."""
        if self.group is None:
            raise DomainError("element operators exist only over a group basis")
        return self._element_matrices[w]

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "dimension": self.dimension,
            "generators": {
                key: {
                    "relation": self.params[key].to_json(),
                    "minimal_polynomial": self.params[key].to_json(),
                }
                for key in sorted(self.generators)
            },
        }


def _check_relation(poly: CycPoly, what: str):
    if poly.degree < 1:
        raise ParameterError(f"{what}: relation must have positive degree")
    if poly.constant_term.is_zero():
        raise ParameterError(f"{what}: relation has zero constant term")


# ---------------------------------------------------------------------------
# cyclic regime


def build_cyclic(rbar: CycPoly) -> HeckeAlgebra:
    """The algebra of one invertible generator with the given relation:
    companion-matrix regular representation on the power basis.  t sends
    e_j to e_{j+1} for j < d - 1, so no relation of degree below d holds:
    the relation is the minimal polynomial of t, and t is invertible since
    ``_check_relation`` refuses a zero constant term."""
    _check_relation(rbar, "cyclic relation")
    d = rbar.degree
    shift = [(j + 1, j, ONE) for j in range(d - 1)]
    last = [(i, d - 1, -c) for i, c in enumerate(rbar.coeffs[:-1])]
    t = CycMatrix.from_triples(d, d, shift + last)
    return HeckeAlgebra("cyclic", d, {"t": t}, {"t": rbar})


# ---------------------------------------------------------------------------
# quadratic (real) regime


def _descent_matrices(group, simple, polys, lengths):
    """One operator per simple reflection, acting on the element basis by
    the length-descent rule for its quadratic relation; ``lengths`` is
    ``word_lengths(group, simple)``, which reaches every element."""
    n = len(group)
    mats = []
    for s, poly in zip(simple, polys):
        c0, c1 = poly.coeffs[0], poly.coeffs[1]
        triples = []
        for w in range(n):
            sw = group.mul(s, w)
            if lengths[sw] > lengths[w]:
                triples.append((sw, w, ONE))
            else:
                triples.append((w, w, -c1))
                triples.append((sw, w, -c0))
        mats.append(CycMatrix.from_triples(n, n, triples))
    return mats


def _braid_relation_holds(group, mats, simple, lengths, i, j) -> bool:
    """The braid relation of simple slots i and j, once the closure
    certificate passed.  It gives T_w e_1 = e_w, so a -> a e_1 is injective
    on the span of the T_w, and T_s T_w = T_sw when l(sw) > l(w).  So if
    d = sts... = tst... (m letters, m the order of st) has l(d) = m, as on
    every Coxeter system (Humphreys, Reflection Groups and Coxeter Groups,
    5.5), both sides send e_1 to e_d by ascents.  Only a set that is no
    Coxeter system can have l(d) < m; only then are 2m products formed."""
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


def build_coxeter(arr: Arrangement, params: dict[int, CycPoly]) -> HeckeAlgebra:
    """Quadratic-relation algebra over the real reflection group of arr.

    params maps arrangement orbit ids to monic quadratic relations with
    nonzero constant term.  The simple system is found by certified
    search: the lexicographically first set of reflections that generates
    the group and passes the closure certificate, which is also its basis
    and relation certificate, and the braid certificate.
    """
    group = arr.group
    if len(arr) == 0:
        raise RegimeError("the trivial group has no quadratic regime; use cyclic")
    for h in arr.hyperplanes:
        if h.order != 2:
            raise RegimeError(
                f"unsupported regime 'coxeter': hyperplane with local order {h.order}"
            )
    orbits = arr.orbits()
    for orbit in orbits:
        oid = arr[orbit[0]].orbit_id
        if oid not in params:
            raise ParameterError(f"missing relation for arrangement orbit {oid}")
        poly = params[oid]
        _check_relation(poly, f"orbit {oid}")
        if poly.degree != 2:
            raise ParameterError(
                f"orbit {oid}: quadratic regime needs degree-2 relations, "
                f"got degree {poly.degree}"
            )
    reflections = sorted(
        (h.distinguished_generator, a) for a, h in enumerate(arr.hyperplanes)
    )
    # reflections that generate the group fix only what every reflection
    # fixes, and k of them fix a subspace of codimension at most k, so no
    # set smaller than the rank of the span of the normals can generate it
    smallest = CycMatrix([h.normal for h in arr.hyperplanes]).rank()
    candidates_tried = 0
    for size in range(smallest, len(reflections) + 1):
        for combo in itertools.combinations(reflections, size):
            elems = [c[0] for c in combo]
            lengths = word_lengths(group, elems)
            if len(lengths) != len(group):
                continue
            candidates_tried += 1
            alphas = [c[1] for c in combo]
            polys = [params[arr[a].orbit_id] for a in alphas]
            mats = _descent_matrices(group, elems, polys, lengths)
            t_of = _closure_certificate(group, mats, elems, polys, lengths)
            if t_of is None or not all(
                _braid_relation_holds(group, mats, elems, lengths, i, j)
                for i, j in itertools.combinations(range(size), 2)
            ):
                continue
            h = HeckeAlgebra(
                "coxeter",
                len(group),
                {f"s{a}": m for a, m in zip(alphas, mats)},
                {f"s{a}": p for a, p in zip(alphas, polys)},
            )
            h.group = group
            h.simple_hyperplanes = alphas
            h._element_matrices = dict(enumerate(t_of))
            # the closure certificate set T_s e_1 = e_s, so T_s is no scalar,
            # and compared T_s T_s with -c0 - c1 T_s: the relation is the
            # minimal polynomial of T_s, and c0 != 0 makes T_s invertible
            return h
    raise RegimeError(
        "unsupported regime 'coxeter': no certified simple system found "
        f"({candidates_tried} generating candidates tried)"
    )


def _closure_certificate(group, mats, simple, polys, lengths):
    """The basis operators T_w, built inside the certificate that their span
    is closed under multiplication, or None when it fails.

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
    t_of: list[CycMatrix | None] = [None] * n
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
                if first_column != [(sw, ONE)]:
                    return None
                t_of[sw] = prod
    return t_of


# ---------------------------------------------------------------------------
# products


def build_product(parts: list[HeckeAlgebra]) -> HeckeAlgebra:
    """Tensor product; generators act on their own leg.

    Each part must come from ``build_cyclic``, ``build_coxeter`` or
    ``build_product``, whose builder certified its generators: the product
    certifies nothing, since p(I x t x I) = I x p(t) x I gives each full
    generator exactly the relations of its leg."""
    if not parts:
        raise DomainError("product of no algebras")
    if len(parts) == 1:
        return parts[0]
    generators = {}
    params = {}
    for i, part in enumerate(parts):
        for key, m in part.generators.items():
            full = None
            for j, other in enumerate(parts):
                leg = m if j == i else CycMatrix.identity(other.dimension)
                full = leg if full is None else full.kron(leg)
            generators[f"leg{i}.{key}"] = full
            params[f"leg{i}.{key}"] = part.params[key]
    dimension = math.prod(p.dimension for p in parts)
    return HeckeAlgebra("product", dimension, generators, params)
