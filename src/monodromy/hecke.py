"""Deformed group algebras presented by monic relations on braid-type
generators, in two certified regimes.

Supported regimes: cyclic (companion matrix of one relation) and real
groups with quadratic relations (element basis, descent-rule
multiplication against a certified Coxeter system).  Every build's claims
hold on the regular representation, by construction or by certificate.
Reflections are a Coxeter system when their word lengths, read off the
Cayley table, satisfy Tits' folding condition; their quadratic and braid
relations are then checked once, by sparse products, and the T_w, built
on first use, are a basis.  Only sets of the rank's size are tried.
Unsupported inputs fail with a regime error naming the obstruction.
"""

from __future__ import annotations

import itertools

from .cyclo import ONE, CycMatrix, CycPoly
from .errors import DomainError, IntegrityError, ParameterError, RegimeError
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


def _is_coxeter_system(group, simple, lengths) -> bool:
    """Whether the involutions ``simple``, which generate ``group``, are a
    Coxeter system; ``lengths`` is ``word_lengths(group, simple)``.  By
    Tits' folding condition they are exactly when, for every w and s, t in
    ``simple`` with l(sw) = l(w) + 1 = l(wt), either l(swt) = l(w) + 2 or
    swt = w (P. Abramenko and K. S. Brown, Buildings, Springer 2008, 2.3;
    M. Ronan, Lectures on Buildings, ch. 2): |W|·|S|^2 table lookups."""
    table = group.table
    for w, lw in lengths.items():
        row_w = table[w]
        ascents = [row_w[t] for t in simple if lengths[row_w[t]] == lw + 1]
        for s in simple:
            row_s = table[s]
            if lengths[row_s[w]] != lw + 1:
                continue
            for wt in ascents:
                swt = row_s[wt]
                if lengths[swt] != lw + 2 and swt != w:
                    return False
    return True


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
    Coxeter system by Tits' folding condition on its word lengths.  A
    reflection's orbit is its conjugacy class, so (W, S) has the Hecke
    algebra H(W, S) of these relations.  Operators T_s that satisfy them
    span a quotient of H(W, S), spanned by the products T_w along reduced
    words, each independent of the word (Matsumoto; J. E. Humphreys,
    Reflection Groups and Coxeter Groups, CUP 1990, 7.1-7.3; M.
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
    reflections = sorted(
        (h.distinguished_generator, a) for a, h in enumerate(arr.hyperplanes)
    )
    # Only sets of the rank of the span of the normals are tried.  Fewer
    # cannot generate: reflections that generate the group fix only what
    # every reflection fixes, and k of them fix a subspace of codimension at
    # most k.  More are no Coxeter system: let S be one, with roots a_s, so
    # s(a_t) = a_t - c_st a_s and c_ss = 2.  Let s act on E = span(e_s) by
    # the same formula; e_s -> a_s is equivariant, so its kernel K is
    # stable, and for v = sum l_t e_t in K, s(v) - v = -(sum_t c_st l_t) e_s
    # lies in K, so the coefficient is 0 since a_s != 0: K lies in ker C.
    # For s != t the roots are not proportional (st would be unipotent), st
    # is trivial on V modulo their plane P, so its finite order m_st is its
    # order on P, where its trace is c_st c_ts - 2: c_st c_ts =
    # 4cos^2(pi k / m_st) with k prime to m_st, and m_st = 2 makes st = -1
    # on P, so c_st = c_ts = 0.  The Coxeter graph of a finite W is a forest
    # whose edges are labelled 3, 4 or 6 but at most one per component
    # (Humphreys 2.4, 2.7), and det C is a sum over matchings M of
    # +-2^(n - 2|M|) prod c_st c_ts.  4cos^2 is 1, 2 or 3 on labels 3, 4, 6
    # whatever k is, and a Galois conjugate of 4cos^2(pi / m) on the other
    # edge, so each block of det C is a conjugate of the determinant of the
    # Tits form, which is positive (Humphreys 6.4).  So the roots of S are
    # independent, W acts trivially on V modulo their span, which therefore
    # holds every root, and |S| is the rank of the span of all normals (the
    # same argument on V* covers normals taken as linear forms).
    smallest = CycMatrix([h.normal for h in arr.hyperplanes]).rank()
    candidates_tried = 0
    for combo in itertools.combinations(reflections, smallest):
        elems = [c[0] for c in combo]
        lengths = word_lengths(group, elems)
        if len(lengths) != len(group):
            continue
        candidates_tried += 1
        if not _is_coxeter_system(group, elems, lengths):
            continue
        alphas = [c[1] for c in combo]
        polys = [params[arr[a].orbit_id] for a in alphas]
        mats = _descent_matrices(group, elems, polys, lengths)
        if not _relations_hold(group, elems, mats, polys):
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
