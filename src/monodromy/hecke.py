"""Deformed group algebras presented by monic relations on braid-type
generators, in three certified regimes.

Supported regimes: cyclic (companion matrix of one relation), real groups
with quadratic relations (element basis, descent-rule multiplication
against a certified Coxeter system), and tensor products of these.  Every
build's claims hold on the regular representation, by construction or by
certificate.  Reflections are a Coxeter system when the Coxeter group of
their matrix, read off the Cayley table, has order |W|; their quadratic
and braid relations are then checked once, by sparse products, and the
T_w, built on first use, are a basis.  Under x^2 - 1 everywhere the
algebra is C[W] over any generating set.  Unsupported inputs fail with a
regime error naming the obstruction.
"""

from __future__ import annotations

import itertools
import math

from .cyclo import ONE, ZERO, CycMatrix, CycPoly, zeta
from .errors import ClosureCapError, DomainError, IntegrityError, ParameterError, RegimeError
from .reflgrp import Arrangement, CayleyGroup, enumerate_group, word_lengths


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
        self._descents, self._lengths = [], {}  # (s, T_s) per simple slot; l(w)
        self._element_matrices: dict[int, CycMatrix] = {}

    def t_of_element(self, w: int) -> CycMatrix:
        """Basis operator T_w (quadratic regime only), built on first use as
        T_s T_sw along the first simple s with l(sw) < l(w), and kept."""
        if self.group is None:
            raise DomainError("element operators exist only over a group basis")
        t = self._element_matrices.get(w)
        if t is None:
            group, lengths = self.group, self._lengths
            s, t_s = next((s, t) for s, t in self._descents if lengths[group.mul(s, w)] < lengths[w])
            t = self._element_matrices[w] = t_s * self.t_of_element(group.mul(s, w))
        return t

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


def _is_coxeter_system(group, simple) -> bool:
    """Whether the involutions ``simple``, which generate ``group``, are a
    Coxeter system.  They satisfy the relations of the Coxeter group W(M)
    of their matrix m_ij, the order of s_i s_j, so the group is a quotient
    of W(M): the system is Coxeter exactly when |W(M)| = |W|.  A connected
    Coxeter graph of a finite group with a label m_ij > 5 is that pair
    alone, a factor I2(m_ij) of order 2 m_ij (J. E. Humphreys, Reflection
    Groups and Coxeter Groups, CUP 1990, 2.7 and 6.4).  The rest acts
    faithfully by its Tits representation, s_i negating a_i and adding
    2cos(pi/m_ij) a_i = (zeta_2m + zeta_2m^-1) a_i to each other a_j
    (5.3-5.4); its closure, capped, decides its order."""
    k, m = len(simple), {}
    for i, j in itertools.combinations(range(k), 2):
        m[i, j] = m[j, i] = group.element_order(group.mul(simple[i], simple[j]))
    order, rest = 1, list(range(k))
    for (i, j), m_ij in m.items():
        if i < j and m_ij > 5:
            if any(m[i, x] > 2 or m[j, x] > 2 for x in range(k) if x not in (i, j)):
                return False
            order, rest = order * 2 * m_ij, [x for x in rest if x not in (i, j)]
    n, two_cos = len(rest), {c: zeta(2 * c) + zeta(2 * c, -1) for c in range(2, 6)}
    rows = [[(b, b, -ONE if a == b else ONE) for b in range(n)] for a in range(n)]
    for (a, i), (b, j) in itertools.permutations(enumerate(rest), 2):
        rows[a].append((a, b, two_cos[m[i, j]]))  # every label left is at most 5
    tits = [CycMatrix.from_triples(n, n, row) for row in rows]
    try:
        size = len(enumerate_group(tits, cap=len(group) // order + 1)) if rest else 1
    except ClosureCapError:
        return False
    return order * size == len(group)


def _relations_hold(group, simple, mats, polys) -> bool:
    """Whether each T_s satisfies its quadratic relation and each pair its
    braid relation.  Row v of T_s holds columns v and sv at most, so a row
    of a braid word stays in the coset <s_i, s_j>v: the products are sparse."""
    n = len(group)
    for t, poly in zip(mats, polys):
        if t * t != t * (-poly.coeffs[1]) + CycMatrix.scalar(n, -poly.coeffs[0]):
            return False
    for i, j in itertools.combinations(range(len(simple)), 2):
        lhs = rhs = CycMatrix.identity(n)
        for k in range(group.element_order(group.mul(simple[i], simple[j]))):
            lhs, rhs = lhs * mats[(i, j)[k % 2]], rhs * mats[(j, i)[k % 2]]
        if lhs != rhs:
            return False
    return True


def build_coxeter(arr: Arrangement, params: dict[int, CycPoly]) -> HeckeAlgebra:
    """Quadratic-relation algebra over the real reflection group of arr.

    params maps arrangement orbit ids to monic quadratic relations with
    nonzero constant term.  The generators are the descent-rule operators
    of the lexicographically first generating set of reflections that is a
    Coxeter system, or, with x^2 - 1 on every orbit, that generates.  A
    reflection's orbit is its conjugacy class, so (W, S) has the Hecke
    algebra H(W, S) of these relations.  Operators T_s that satisfy them
    span a quotient of H(W, S), spanned by the products T_w along reduced
    words, each independent of the word (Matsumoto; Humphreys 7.1-7.3; M.
    Geck and G. Pfeiffer, Characters of Finite Coxeter Groups and
    Iwahori-Hecke Algebras, OUP 2000, 4.4).  Along a reduced word each T_s
    meets an ascent, so T_w e_1 = e_w: the |W| operators T_w are
    independent, and the algebra is H(W, S), of dimension |W|.  T_s e_1 =
    e_s, so T_s is no scalar, its relation is its minimal polynomial, and
    the nonzero constant term makes it invertible.
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
    # under x^2 - 1 the descent rule sends e_w to e_sw on an ascent and a
    # descent alike, so T_s and T_w are the left-multiplication permutations:
    # any generating set spans C[W] in its faithful left regular representation
    unit = all(params[arr[o[0]].orbit_id] == CycPoly([-ONE, ZERO, ONE]) for o in orbits)
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
            if not unit and not _is_coxeter_system(group, elems):
                continue
            alphas = [c[1] for c in combo]
            polys = [params[arr[a].orbit_id] for a in alphas]
            mats = _descent_matrices(group, elems, polys, lengths)
            if not unit and not _relations_hold(group, elems, mats, polys):
                raise IntegrityError("descent operators break a Hecke relation")
            keys = [f"s{a}" for a in alphas]
            h = HeckeAlgebra("coxeter", len(group), dict(zip(keys, mats)), dict(zip(keys, polys)))
            h.group, h.simple_hyperplanes = group, alphas
            h._descents, h._lengths = list(zip(elems, mats)), lengths
            h._element_matrices = {group.identity: CycMatrix.identity(len(group))}
            return h
    raise RegimeError(
        "unsupported regime 'coxeter': no certified simple system found "
        f"({candidates_tried} generating candidates tried)"
    )


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
