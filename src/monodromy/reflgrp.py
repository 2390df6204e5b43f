"""Finite groups by Cayley table, and complex reflection groups from matrix
generators.

``CayleyGroup`` is the one group law of the package: the covering group
read from a datum's table and every enumerated reflection group are both
instances.  Its identity and inverses are read from the rows once; products,
powers, conjugates and Light's associativity test are read from the table,
and subgroups, element orders and Coxeter lengths from one breadth-first
search for the shortest word of each element, ``word_lengths``.

Reflection groups are enumerated by breadth-first closure with
canonical-matrix deduplication; every element keeps its discovery word in
the input generators.  Their Cayley table is built on first use from the
discovery words with |W|^2 lookups and no matrix work.  The arrangement
records, per reflection hyperplane, the cyclic pointwise stabilizer (found
in the same pass over the elements as the normals), its order, the
distinguished generator acting by the primitive counter-clockwise root of
unity on the normal line, and the orbit id under the group action.  An
element w sends a hyperplane to the one whose distinguished generator is
the conjugate of its own by w, so the action is read from the table too.
``orbit_partition``, fed every element of a subgroup, gives both the
hyperplane orbits of any subgroup and the cosets of a subgroup, and
``restrict`` reads a reflection subgroup and its arrangement off the
group's, given the subgroup's ``word_lengths`` search and orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .cyclo import ONE, ZERO, CycMatrix, CycNumber, zeta
from .errors import ClosureCapError, DomainError, IntegrityError, ParseError, ValidationError

DEFAULT_CAP = 20_000
WTILDE_CAP = 2_000


class CayleyGroup:
    """A finite group presented by its multiplication table: row a, column b
    is the index of a * b."""

    def __init__(self, table, generators=None):
        if len(table) > WTILDE_CAP:
            raise ParseError(f"covering group order {len(table)} exceeds cap {WTILDE_CAP}")
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ParseError("multiplication table must be square and nonempty")
        for row in table:
            for x in row:
                if type(x) is not int or not 0 <= x < n:
                    raise ParseError(f"table entry {x!r} out of range")
        self.table = tuple(tuple(row) for row in table)
        self.generators = list(generators) if generators else list(range(n))
        for g in self.generators:
            if type(g) is not int or not 0 <= g < n:
                raise ParseError(f"covering group generator {g!r} out of range")
        self._identity = self._inverses = None

    def __len__(self) -> int:
        return len(self.table)

    # identity and inverses are cached in attributes set in __init__, not by
    # cached_property: writing an instance's __dict__ makes CPython drop its
    # compact attribute layout and slows every later read of self.table
    @property
    def identity(self) -> int:
        if self._identity is None:
            table = self.table
            for e, row in enumerate(table):
                if all(row[x] == x and table[x][e] == x for x in range(len(table))):
                    self._identity = e
                    break
            else:
                raise ValidationError("multiplication table has no identity")
        return self._identity

    @property
    def inverses(self) -> list[int | None]:
        """Per element a, the first b with a * b = b * a = identity, or None
        where the table has no such b; ``inv`` raises on None."""
        if self._inverses is None:
            e, table = self.identity, self.table
            out = []
            for a, row in enumerate(table):
                b = -1
                try:
                    while True:  # each b with a * b = e in turn, found by row.index
                        b = row.index(e, b + 1)
                        if table[b][a] == e:
                            break
                except ValueError:
                    b = None
                out.append(b)
            self._inverses = out
        return self._inverses

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        b = (self._inverses or self.inverses)[a]  # the property builds the list once
        if b is None:
            raise ValidationError(f"element {a} has no inverse")
        return b

    def conjugate(self, a: int, x: int) -> int:
        """a x a^{-1}."""
        return self.mul(self.mul(a, x), self.inv(a))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        out = self.identity
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def element_order(self, a: int) -> int:
        return len(word_lengths(self, [a]))

    def associativity_witness(self):
        """A failing triple for Light's associativity test, or None.

        The generators are augmented by every element they do not reach, so
        the test stays sound for arbitrary input tables.
        """
        gens = list(dict.fromkeys(self.generators))
        spanned = word_lengths(self, gens)
        gens += [x for x in range(len(self)) if x not in spanned]
        table = self.table
        for g in gens:
            row_g = table[g]
            for a, row_a in enumerate(table):
                row_ag = table[row_a[g]]
                for b in range(len(table)):
                    if row_a[row_g[b]] != row_ag[b]:
                        return (a, g, b)
        return None


class ReflectionGroup(CayleyGroup):
    """An enumerated finite matrix group with word and index structure; the
    identity matrix is element 0."""

    identity = 0

    def __init__(self, rank, elements, words, rmul_gen, generators):
        self.rank = rank
        self.elements: list[CycMatrix] = elements
        self.words: list[tuple[int, ...]] = words
        self._rmul_gen = rmul_gen  # element index x generator slot -> element index
        self.generators: list[int] = generators
        self._inverses = None

    # the same law as CayleyGroup.mul, in a code object of its own: CPython
    # specialises each attribute read for one class, and validation
    # interleaves products of W and W~ (about 30 % slower when shared); it
    # also lets base-group products be counted apart from the cover's
    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def table(self) -> list[list[int]]:
        """The Cayley table: row i, column j is the index of i * j.

        The word of j is the word of its parent followed by one generator,
        and the parent comes first in discovery order, so each row fills
        left to right as i * j = (i * parent(j)) * generator."""
        by_word = {w: j for j, w in enumerate(self.words)}
        steps = [(by_word[w[:-1]], w[-1]) for w in self.words[1:]]
        rmul = self._rmul_gen
        table = []
        for i in range(len(self.elements)):
            row = [i]
            for p, slot in steps:
                row.append(rmul[row[p]][slot])
            table.append(row)
        return table

    def to_json(self, name: str = "group") -> dict:
        orders = [
            x.order
            for g in self.generators
            for row in self.elements[g].sparse_rows
            for _, x in row
        ]
        return {
            "name": name,
            "rank": self.rank,
            "cyclotomic_order": math.lcm(*orders) if orders else 1,
            "generators": [self.elements[g].to_json() for g in self.generators],
        }


def enumerate_group(generators, cap: int = DEFAULT_CAP) -> ReflectionGroup:
    """Breadth-first closure of a list of invertible square matrices."""
    if not generators:
        raise DomainError("at least one generator is required")
    rank = generators[0].rows
    for g in generators:
        if not g.is_square() or g.rows != rank:
            raise DomainError("generators must be square matrices of equal rank")
        g.inverse()  # raises DomainError if singular
    identity = CycMatrix.identity(rank)
    elements = [identity]
    index = {identity: 0}
    words: list[tuple[int, ...]] = [()]
    rmul: list[list[int]] = []
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            row = []
            for slot, g in enumerate(generators):
                prod = elements[i] * g
                j = index.get(prod)
                if j is None:
                    j = len(elements)
                    if j >= cap:
                        raise ClosureCapError(
                            f"group closure exceeded cap {cap} (found {j} so far)"
                        )
                    elements.append(prod)
                    index[prod] = j
                    words.append(words[i] + (slot,))
                    nxt.append(j)
                row.append(j)
            rmul.append(row)
        frontier = nxt
    return ReflectionGroup(rank, elements, words, rmul, [index[g] for g in generators])


# ---------------------------------------------------------------------------
# arrangement


@dataclass
class Hyperplane:
    normal: tuple[CycNumber, ...]
    stabilizer_elements: tuple[int, ...]
    order: int  # the stabilizer size
    distinguished_generator: int  # element index
    orbit_id: int = -1  # set by hyperplanes() or restrict()


class Arrangement:
    """The reflection hyperplanes of a group; ``hyperplanes`` and
    ``restrict`` set their orbit ids."""

    def __init__(self, group: CayleyGroup, hyperplanes: list[Hyperplane]):
        self.group = group
        self.hyperplanes = hyperplanes
        self._by_generator = {
            h.distinguished_generator: a for a, h in enumerate(hyperplanes)
        }

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def __getitem__(self, alpha: int) -> Hyperplane:
        return self.hyperplanes[alpha]

    def act(self, w: int, alpha: int) -> int:
        """The hyperplane index of w applied to hyperplane alpha: the one
        whose distinguished generator is w s_alpha w^-1, since conjugation
        by w carries the stabilizer of a hyperplane to that of its image
        and keeps the eigenvalue on the normal line."""
        s = self.hyperplanes[alpha].distinguished_generator
        return self._by_generator[self.group.conjugate(w, s)]

    def orbits(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for a, h in enumerate(self.hyperplanes):
            out.setdefault(h.orbit_id, []).append(a)
        return [out[k] for k in sorted(out)]

    def to_json(self) -> list:
        return [
            {
                "index": a,
                "normal": [c.to_json() for c in h.normal],
                "order": h.order,
                "distinguished_generator": h.distinguished_generator,
                "stabilizer": list(h.stabilizer_elements),
                "orbit": h.orbit_id,
            }
            for a, h in enumerate(self.hyperplanes)
        ]


def _canonical_normal(row):
    """Scale so the first nonzero entry equals 1."""
    lead = next((c for c in row if not c.is_zero()), None)
    if lead is None:
        raise DomainError("zero normal vector")
    inv = lead.inverse()
    return tuple(c * inv for c in row)


def _normal_line_eigenvalue(m: CycMatrix, normal) -> CycNumber:
    """Action of m on the quotient line: n(m v) / n(v) for any v off the
    hyperplane; well defined because n vanishes on the hyperplane."""
    pivot = next(i for i, c in enumerate(normal) if not c.is_zero())
    v = tuple(ONE if i == pivot else ZERO for i in range(len(normal)))
    mv = m.apply(v)
    num = sum((a * b for a, b in zip(normal, mv)), ZERO)
    return num * normal[pivot].inverse()


def hyperplanes(group: ReflectionGroup) -> Arrangement:
    """Compute the reflection arrangement of an enumerated group.

    A non-identity element fixes a hyperplane pointwise exactly when m - I
    has rank one and its rows are multiples of the hyperplane's normal, so
    one pass over the elements finds the normals, in order of first
    appearance, and their stabilizers, the identity first.  Orbit ids number
    the group's orbits by least hyperplane."""
    identity = CycMatrix.identity(group.rank)
    stabilizers: dict[tuple, list[int]] = {}
    for i, m in enumerate(group.elements):
        if i == 0:
            continue
        diff = m - identity
        if diff.rank() != 1:
            continue
        row = [ZERO] * group.rank
        for j, c in next(r for r in diff.sparse_rows if r):
            row[j] = c
        stabilizers.setdefault(_canonical_normal(row), [0]).append(i)
    hps: list[Hyperplane] = []
    for normal, stab in stabilizers.items():
        n_alpha = len(stab)
        eigen = {}
        for i in stab:
            lam = _normal_line_eigenvalue(group.elements[i], normal)
            if lam in eigen:
                raise IntegrityError(
                    "pointwise stabilizer is not cyclic: elements "
                    f"{eigen[lam]} and {i} share the normal-line eigenvalue {lam!r}"
                )
            eigen[lam] = i
        primitive = zeta(n_alpha)
        if primitive not in eigen:
            raise IntegrityError(
                f"no distinguished generator with eigenvalue {primitive!r} on the "
                f"normal line of {normal!r}; stabilizer is not cyclic of order {n_alpha}"
            )
        hps.append(Hyperplane(normal, tuple(stab), n_alpha, eigen[primitive]))
    arr = Arrangement(group, hps)
    _, orbit_of = orbit_partition(len(hps), arr.act, range(len(group)))
    for h, orbit in zip(hps, orbit_of):
        h.orbit_id = orbit
    return arr


def restrict(arr: Arrangement, lengths, orbit_of) -> tuple[Arrangement, list[int]]:
    """A reflection subgroup with its arrangement, read off ``arr`` and its
    group's table, and the index in ``arr`` of each of its hyperplanes.

    ``lengths`` is the subgroup's ``word_lengths`` search, and ``orbit_of``
    its orbit (``orbit_partition``) of every hyperplane of ``arr``.  Labels
    follow the search, ``enumerate_group``'s discovery order over the same
    generators (both search breadth-first by right products with the
    sorted generators).  A subgroup reflection is one of the group, and the
    subgroup meets the cyclic stabilizer <s> of order n of a hyperplane in a
    cyclic group of some order n' | n, made by s^(n/n'), which acts by
    zeta_n' on the normal line (G. I. Lehrer and D. E. Taylor, Unitary
    Reflection Groups, CUP 2009).  Conjugation keeps n', so the hyperplanes
    met are whole orbits, renumbered by least subgroup hyperplane as
    ``hyperplanes`` numbers them."""
    group = arr.group
    labels = list(lengths)
    label = {w: i for i, w in enumerate(labels)}
    table = group.table
    sub = CayleyGroup([[label[table[a][b]] for b in labels] for a in labels])
    met = []  # (meet, alpha); each meet starts at the identity, label 0
    for alpha, h in enumerate(arr.hyperplanes):
        meet = sorted(label[w] for w in h.stabilizer_elements if w in label)
        if len(meet) > 1:
            met.append((meet, alpha))
    met.sort()  # by least non-identity label, the order hyperplanes() finds them in
    hps = []
    orbit_ids: dict[int, int] = {}
    for meet, alpha in met:
        h = arr[alpha]
        s = group.power(h.distinguished_generator, h.order // len(meet))
        oid = orbit_ids.setdefault(orbit_of[alpha], len(orbit_ids))
        hps.append(Hyperplane(h.normal, tuple(meet), len(meet), label[s], oid))
    return Arrangement(sub, hps), [alpha for _, alpha in met]


# ---------------------------------------------------------------------------
# catalog of monomial groups


def catalog(m: int, p: int, r: int) -> list[CycMatrix]:
    """Generators for the standard monomial group with parameters (m, p, r):
    monomial r x r matrices with m-th root of unity entries whose entry
    product is an (m/p)-th root of unity.  Closure order is m^r * r! / p.
    """
    if m < 1 or r < 1 or p < 1:
        raise DomainError("parameters must be positive")
    if m % p:
        raise DomainError(f"p={p} must divide m={m}")
    if r == 1:
        return [CycMatrix([[zeta(m, p)]])]
    gens: list[CycMatrix] = []
    if p < m:
        diag = [
            [zeta(m, p) if i == j == 0 else (ONE if i == j else ZERO) for j in range(r)]
            for i in range(r)
        ]
        gens.append(CycMatrix(diag))
    if p > 1:
        twisted = [[ZERO] * r for _ in range(r)]
        twisted[1][0] = zeta(m)
        twisted[0][1] = zeta(m).inverse()
        for i in range(2, r):
            twisted[i][i] = ONE
        gens.append(CycMatrix(twisted))
    for i in range(r - 1):
        swap = [
            [ONE if (a == b and a not in (i, i + 1)) else ZERO for b in range(r)]
            for a in range(r)
        ]
        swap[i][i + 1] = ONE
        swap[i + 1][i] = ONE
        gens.append(CycMatrix(swap))
    return gens


def catalog_order(m: int, p: int, r: int) -> int:
    return m**r * math.factorial(r) // p


# ---------------------------------------------------------------------------
# subgroups and cosets


def word_lengths(group: CayleyGroup, gens) -> dict[int, int]:
    """The length of a shortest word in ``gens`` for every element they
    generate: breadth-first from the identity, each step one product on the
    right by a distinct generator, taken in increasing order."""
    table = group.table
    gens = sorted(set(gens))
    lengths = {group.identity: 0}
    frontier = [group.identity]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in lengths:
                    lengths[y] = depth
                    nxt.append(y)
        frontier = nxt
    return lengths


def subgroup_generated(group: CayleyGroup, elems) -> tuple[int, ...]:
    """Smallest index set closed under multiplication containing the given
    elements and the identity."""
    return tuple(sorted(word_lengths(group, elems)))


def orbit_partition(points: int, image, elements):
    """Orbits of a group acting on range(points) as (members, orbit_of):
    each orbit's sorted points, ordered by their least point, and the orbit
    position of every point.  ``elements`` is every element of the group,
    not a generating set, and ``image(w, p)`` is the point w sends p to."""
    orbit_of = [-1] * points
    members: list[tuple[int, ...]] = []
    for p in range(points):
        if orbit_of[p] >= 0:
            continue
        orbit = tuple(sorted({image(w, p) for w in elements}))
        for x in orbit:
            orbit_of[x] = len(members)
        members.append(orbit)
    return members, orbit_of


def left_cosets(group: CayleyGroup, subgroup):
    """Left cosets wH as (members, coset_of): each coset's sorted element
    indices, ordered by their least element, and the coset position of
    every element."""
    h = sorted(set(subgroup))
    hset = set(h)
    if group.identity not in hset:
        raise DomainError("subgroup must contain the identity")
    for a in h:
        for b in h:
            if group.mul(a, b) not in hset:
                raise DomainError(f"subgroup is not closed: {a} * {b} escapes")
    return orbit_partition(len(group), lambda b, i: group.mul(i, b), h)
