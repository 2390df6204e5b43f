"""The committed datum corpus as the tests read it.

Every call parses its file again, so a test may mutate what it gets.
"""

import functools
import itertools
import json
from pathlib import Path

from monodromy.cyclo import ONE, CycMatrix, CycNumber, CycPoly, zeta
from monodromy.errors import ValidationError
from monodromy.extension import ExtensionDatum, datum_from_json, datum_to_json
from monodromy.fixtures import direct_product_datum, table_from_elements
from monodromy.reflgrp import catalog, enumerate_group, hyperplanes, word_lengths

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def manifest() -> list[dict]:
    return json.loads((FIXTURES / "manifest.json").read_text())


def load_datum(name: str):
    """A fresh datum parsed from ``fixtures/<name>.json``."""
    return datum_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))


def chi_specs(name: str) -> list:
    """The character specs the manifest lists for ``fixtures/<name>.json``."""
    return next(e for e in manifest() if e["file"] == f"{name}.json")["chi_specs"]


def characters(datum):
    """Every character of the datum's abelian kernel, read through
    ``character_from_values`` as an analyze reads its spec.  Generators are
    taken greedily in kernel order; each of order k gets every k-th root of
    unity, and an assignment that extends to no character is dropped."""
    gens = []
    for x in datum.kernel:
        if x not in word_lengths(datum.wtilde, gens):
            gens.append(x)
    orders = [datum.wtilde.element_order(g) for g in gens]
    out = []
    for exponents in itertools.product(*map(range, orders)):
        values = {g: zeta(k, j) for g, k, j in zip(gens, orders, exponents)}
        try:
            out.append(datum.character_from_values(values))
        except ValidationError:
            pass
    out.sort(key=lambda c: tuple((c(x).order, c(x).coeffs) for x in datum.kernel))
    return out


def nontrivial_character(datum):
    """The first character of the datum's kernel with a value other than 1."""
    return next(
        c for c in characters(datum) if not all(v.is_one() for v in c.values.values())
    )


def s3_rank2_generators():
    """Two reflections generating the symmetric group on three letters in
    rank two (the group of ``s3_split_z2`` and ``s4_over_s3``)."""
    rat = CycNumber.rational
    return [
        CycMatrix([[rat(-1), rat(1)], [rat(0), rat(1)]]),
        CycMatrix([[rat(1), rat(0)], [rat(1), rat(-1)]]),
    ]


def _semidirect_datum(name, group, kernel, act, add, kernel_gens):
    """The cover kernel x| W, (v, w)(v', w') = (v + w.v', ww'), split at each
    hyperplane by (0, s^-1), s its distinguished generator.  Returns the
    datum and the indices of ``kernel_gens``."""
    arr = hyperplanes(group)
    zero = kernel[0]

    def mul(x, y):
        return add(x[0], act(x[1], y[0])), group.mul(x[1], y[1])

    elements = [(v, w) for v in kernel for w in range(len(group))]
    gens = [(kernel_gens[0], 0)] + [(zero, g) for g in group.generators]
    wtilde, index = table_from_elements(elements, mul, gens)
    splitting = {
        a: index[(zero, group.inv(arr[a].distinguished_generator))]
        for a in range(len(arr))
    }
    datum = ExtensionDatum(
        group, arr, wtilde, [w for (_, w) in elements], splitting, name=name
    )
    return datum, [index[(v, 0)] for v in kernel_gens]


def swap_cover(name, mpr):
    """(Z/2)^r x| W for a real monomial W = G(m, p, r): w acts on (Z/2)^r by
    its permutation part, (w.v)_i = v_j where row i of w is nonzero in
    column j.  Returns the datum and the unit vectors of the kernel."""
    group = enumerate_group(catalog(*mpr))
    r = group.rank
    columns = [
        [group.elements[w].sparse_rows[i][0][0] for i in range(r)]
        for w in range(len(group))
    ]

    def act(w, v):
        return tuple(v[j] for j in columns[w])

    def add(u, v):
        return tuple((a + b) % 2 for a, b in zip(u, v))

    units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    kernel = list(itertools.product((0, 1), repeat=r))
    return _semidirect_datum(name, group, kernel, act, add, units)


def det_cover(name, mpr):
    """Z/3 x| W for a monomial W = G(m, p, r) whose determinants are fourth
    roots of unity: w acts by x -> det(w)^2 x.  Returns the datum and the
    kernel generator 1."""
    group = enumerate_group(catalog(*mpr))
    signs = []
    for m in group.elements:
        # the permutation's sign squares to 1, so det^2 is the square of
        # the product of the entries
        product = ONE
        for row in m.sparse_rows:
            product = product * row[0][1]
        square = product * product
        if square not in (ONE, -ONE):
            raise ValueError(f"det^2 = {square!r} is not a sign")
        signs.append(1 if square == ONE else -1)

    def act(w, x):
        return x * signs[w] % 3

    def add(x, y):
        return (x + y) % 3

    return _semidirect_datum(name, group, [0, 1, 2], act, add, [1])


def sign_cover(name, mpr, k):
    """Z/k x| W for a real monomial W = G(m, p, r): w acts by x -> det(w) x,
    det(w) the sign of its column permutation times the product of its
    entries.  Returns the datum and the kernel generator 1."""
    group = enumerate_group(catalog(*mpr))
    signs = []
    for m in group.elements:
        columns = [row[0][0] for row in m.sparse_rows]
        det = ONE
        for i, row in enumerate(m.sparse_rows):
            det = det * row[0][1]
            # one transposition per inversion of the column permutation
            if sum(c < columns[i] for c in columns[i + 1:]) % 2:
                det = -det
        if det not in (ONE, -ONE):
            raise ValueError(f"det = {det!r} is not a sign")
        signs.append(1 if det == ONE else -1)

    def act(w, x):
        return x * signs[w] % k

    def add(x, y):
        return (x + y) % k

    return _semidirect_datum(name, group, list(range(k)), act, add, [1])


# the covers whose every character has its report digest recorded in
# tests/family_digests.json: (name, builder of (datum, kernel generators),
# G(m, p, r), modulus of the character specs)
FAMILIES = (
    ("swap_g114", swap_cover, (1, 1, 4), 2),
    ("swap_g213", swap_cover, (2, 1, 3), 2),
    ("swap_g223", swap_cover, (2, 2, 3), 2),
    ("det_g412", det_cover, (4, 1, 2), 3),
    ("det_g413", det_cover, (4, 1, 3), 3),
    ("sign_g114", functools.partial(sign_cover, k=3), (1, 1, 4), 3),
    ("sign_g213", functools.partial(sign_cover, k=3), (2, 1, 3), 3),
    ("sign_g552", functools.partial(sign_cover, k=3), (5, 5, 2), 3),
    ("sign_g223", functools.partial(sign_cover, k=4), (2, 2, 3), 4),
    ("sign_g113", functools.partial(sign_cover, k=5), (1, 1, 3), 5),
)


def unsupported_hecke_run(workdir):
    """Z/2 x G(4,2,2) with the sign tau, and (x - 3)(x + 1) on every
    hyperplane as its relation override, both written to ``workdir``.  No
    two reflections generate G(4,2,2), so the Coxeter build refuses every
    candidate.  Returns the datum path and the override path."""
    datum = direct_product_datum("z2_g422", catalog(4, 2, 2), 2, tau_exponent=1)
    path = Path(workdir) / "z2_g422.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    rat = CycNumber.rational
    rbar = CycPoly([rat(-3), rat(-2), rat(1)]).to_json()
    override = Path(workdir) / "z2_g422_rbar.json"
    override.write_text(json.dumps({str(a): rbar for a in range(len(datum.arrangement))}))
    return path, override
