"""The committed datum corpus as the tests read it, the covers and datum
variants whose reports are pinned by digest, the matrices whose
eliminated minimal polynomials are pinned by value, and the fiber route: the
braid cover's general fiber product with the inverse-letter coset lifts, the
oracle for the splitting coordinates and the R1 inertia entries of
``induce``.

Every call parses its file again, so a test may mutate what it gets.
"""

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from monodromy.cli import run_analyze
from monodromy.cyclo import ONE, CycMatrix, CycNumber, CycPoly, weighted_permutation, zeta
from monodromy.errors import DomainError, IntegrityError, ValidationError
from monodromy.extension import Character, ExtensionDatum, datum_from_json, datum_to_json
from monodromy.fixtures import direct_product_datum, table_from_elements
from monodromy.hecke import build_coxeter
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


def unsupported_hecke_run(workdir, mpr):
    """Z/2 x G(m, p, r) with the sign tau, and (x - 3)(x + 1) on every
    hyperplane as its relation override, both written to ``workdir``.  The
    Coxeter build tries only generating sets of the rank's size: G(4,2,2)
    has none, and G(4,4,3) and G(3,3,3) have some, each refused by the
    Coxeter certificate.  Returns the datum path and the override path."""
    name = "z2_g" + "".join(map(str, mpr))
    datum = direct_product_datum(name, catalog(*mpr), 2, tau_exponent=1)
    path = Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    rat = CycNumber.rational
    rbar = CycPoly([rat(-3), rat(-2), rat(1)]).to_json()
    override = Path(workdir) / f"{name}_rbar.json"
    override.write_text(json.dumps({str(a): rbar for a in range(len(datum.arrangement))}))
    return path, override


def z7_by_z3_datum():
    """Z/7 x| Z/3 over the rank-one group of cube roots of unity, the
    generator acting on the kernel by doubling.  Every nontrivial
    character has a trivial stabilizer, so it is in regime R1 over a base
    whose inversion moves elements (every R1 base in the corpus is an
    elementary abelian 2-group, where w^-1 = w)."""
    group = enumerate_group([CycMatrix([[zeta(3)]])])
    arr = hyperplanes(group)
    s = group.generators[0]
    exponent = {group.identity: 0, s: 1, group.mul(s, s): 2}
    elements = [(a, w) for w in range(3) for a in range(7)]

    def mul(x, y):
        return ((x[0] + 2 ** exponent[x[1]] * y[0]) % 7, group.mul(x[1], y[1]))

    wtilde, index = table_from_elements(elements, mul, [(1, 0), (0, s)])
    splitting = {0: index[(0, group.inv(arr[0].distinguished_generator))]}
    return ExtensionDatum(group, arr, wtilde, [w for _, w in elements], splitting)


def rotation_cover(name="rotation_s3"):
    """Z/3 x| S3 with S3 generated by a rotation and a reflection,
    [s1·s2, s1], acting on Z/3 by det.  Generator slot 0 is no power of a
    distinguished generator, so R1 refuses it.  Returns the datum and the
    kernel generator 1."""
    s1, s2 = s3_rank2_generators()
    group = enumerate_group([s1 * s2, s1])
    # det is 1 on the rotation and -1 on the reflection of slot 1
    signs = [(-1) ** group.words[w].count(1) for w in range(len(group))]

    def act(w, x):
        return x * signs[w] % 3

    def add(x, y):
        return (x + y) % 3

    return _semidirect_datum(name, group, [0, 1, 2], act, add, [1])


def r1_pinned_runs(workdir):
    """The runs of ``tests/r1_digests.json``, each as (cover, key, datum
    path, chi spec, convention), the key as ``_run_key`` writes it; covers
    that are not corpus files are written to ``workdir``.  They are

    - under ``flip-inertia``, every corpus run and every sign-family run
      whose report is in regime R1;
    - under both conventions, the nontrivial characters of Z/7 x| Z/3 and
      every character of two covers with a rotation generator,
      ``rotation_cover`` and Z/2 x the rotation group of order 3, each of
      whose runs with W_chi^0 = 1 refuses R1."""
    runs = []
    for entry in manifest():
        if entry["expected_exit"] == 0:
            runs += [
                (entry["file"].removesuffix(".json"), FIXTURES / entry["file"], spec)
                for spec in entry["chi_specs"]
            ]
    for name, build, mpr, modulus in FAMILIES:
        if name.startswith("sign_"):
            datum, (g,) = build(name, mpr)
            path = Path(workdir) / f"{name}.json"
            path.write_text(json.dumps(datum_to_json(datum)))
            runs += [(name, path, {str(g): e, "modulus": modulus}) for e in range(modulus)]
    for name, path, spec in runs:
        if run_analyze(str(path), spec)[0]["m_chi"]["regime"] == "R1":
            yield name, _run_key("flip-inertia", spec), path, spec, "flip-inertia"

    s1, s2 = s3_rank2_generators()
    z7 = z7_by_z3_datum()
    rotation, (r,) = rotation_cover()
    c3 = direct_product_datum("c3", [s1 * s2], 2)
    for name, datum, g, modulus, exponents in (
        ("z7_by_z3", z7, _kernel_generator(z7), 7, range(1, 7)),
        ("rotation_s3", rotation, r, 3, range(3)),
        ("c3", c3, _kernel_generator(c3), 2, range(2)),
    ):
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        for convention in ("left", "inverse"):
            for e in exponents:
                spec = {str(g): e, "modulus": modulus}
                yield name, _run_key(convention, spec), path, spec, convention


def _run_key(convention, spec) -> str:
    """The convention and the spec, e.g. ``left 1=2,modulus=7``."""
    if isinstance(spec, dict):
        spec = ",".join(f"{k}={v}" for k, v in sorted(spec.items()))
    return f"{convention} {spec}"


def _kernel_generator(datum):
    """The first element other than the identity of a kernel of prime order."""
    return next(x for x in datum.kernel if x != datum.wtilde.identity)


# b2_split_z2 has the stabilizer orbits [0, 3] and [1, 2] under both of its
# characters; a sign of -1 and the wrap-around scalars -1 and zeta_4,
# written as the datum's "sgn" and "twist" keys
MINUS_ONE = {"order": 1, "terms": [[-1, 1, 0]]}
ZETA_4 = {"order": 4, "terms": [[1, 1, 1]]}
SIGN_TWIST_VARIANTS = {
    "sgn": {"sgn": {"0": -1, "3": -1}},
    "twist": {"twist": {"1": MINUS_ONE, "2": MINUS_ONE}},
    "twist+sgn": {"twist": {"0": ZETA_4, "3": ZETA_4}, "sgn": {"1": -1, "2": -1}},
}
# the character specs each variant runs under, by name
SIGN_TWIST_CHARACTERS = {"trivial": "trivial", "8": {"modulus": 2, "8": 1}}


def takes_the_closed_form(m: CycMatrix) -> bool:
    """Whether m is a weighted permutation whose cycles share one length and
    one weight product, the matrices ``minpoly_matrix`` does not eliminate."""
    perm = weighted_permutation(m)
    if perm is None:
        return False
    targets, weights = perm
    shapes, seen = set(), set()
    for start in range(m.rows):
        if start in seen:
            continue
        length, c, j = 1, weights[start], targets[start]
        seen.add(start)
        while j != start:
            seen.add(j)
            length, c, j = length + 1, c * weights[j], targets[j]
        shapes.add((length, c))
    return len(shapes) == 1


def eliminated_matrices() -> dict[str, CycMatrix]:
    """Matrices whose minimal polynomial ``minpoly_matrix`` finds by
    elimination: the descent-rule T_s of A2 and B2 at (x - 2)(x + 1) and of
    A1 at (x - 3)(x + 1) (keyed ``criterion 4 leg1.s0`` in
    ``tests/minpoly_values.json``), two block-diagonal matrices with mixed
    local polynomials, and a seeded draw of sparse matrices over Q(zeta_12)."""
    rat = CycNumber.rational
    one = rat(1)
    mats = {}
    q = CycPoly([rat(-2), rat(-1), one])
    for name, mpr in (("A2", (1, 1, 3)), ("B2", (2, 1, 2))):
        arr = hyperplanes(enumerate_group(catalog(*mpr)))
        h = build_coxeter(arr, {arr[a].orbit_id: q for a in range(len(arr))})
        for key, m in sorted(h.generators.items()):
            mats[f"{name} {key}"] = m
    cox = build_coxeter(
        hyperplanes(enumerate_group(catalog(1, 1, 2))), {0: CycPoly([rat(-3), rat(-2), one])}
    )
    mats["criterion 4 leg1.s0"] = cox.generators["s0"]
    o, w = rat(0), zeta(3)
    # a Jordan block, a swap and a scalar; then a swap and a scalar alone,
    # a weighted permutation with two cycle shapes
    mats["jordan+swap+scalar"] = CycMatrix(
        [[one, one, o, o, o], [o, one, o, o, o], [o, o, o, one, o], [o, o, one, o, o],
         [o, o, o, o, w]]
    )
    mats["swap+scalar"] = CycMatrix([[o, one, o], [one, o, o], [o, o, w]])
    rng = random.Random(12)
    scales = [rat(1), rat(-1), rat(2), rat(Fraction(1, 2)), rat(3)]
    while len(mats) < 20:
        d = rng.randint(2, 5)
        m = CycMatrix(
            [
                [
                    zeta(12, rng.randrange(12)) * rng.choice(scales)
                    if rng.random() < 0.35 else o
                    for _ in range(d)
                ]
                for _ in range(d)
            ]
        )
        if not takes_the_closed_form(m):
            mats[f"random {len(mats)}"] = m
    return mats


# ---------------------------------------------------------------------------
# the fiber route


@dataclass(frozen=True)
class FiberElement:
    """An element of the pulled-back braid cover: a covering element paired
    with a braid word whose images agree in the base group."""

    wt: int
    word: tuple[tuple[int, int], ...]


def free_reduce(word) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(tuple(letter))
    return tuple(out)


class FiberRoute:
    """A datum's braid cover as pairs (covering element, braid word): every
    product checks that both factors lie over their words, and the extended
    characters split an element over the splitting, refusing one whose base
    image does not stabilize the character.  Every other attribute is the
    datum's."""

    def __init__(self, datum):
        self.datum = datum

    def __getattr__(self, name):
        return getattr(self.datum, name)

    @functools.cached_property
    def letters(self) -> list:
        """For each group generator, its expression as a power of a
        distinguished generator: (hyperplane, exponent), (None, 0) for the
        identity, or None."""
        group = self.group
        # the word length of s^j in s alone is the least such exponent j
        exponents = [
            word_lengths(group, [h.distinguished_generator])
            for h in self.arrangement.hyperplanes
        ]
        return [
            (None, 0) if g == group.identity
            else next(((alpha, ex[g]) for alpha, ex in enumerate(exponents) if g in ex), None)
            for g in group.generators
        ]

    def lift(self, w: int) -> FiberElement:
        """The inverse-letter lift of a group element along its stored word:
        each generator s_alpha^j of the word contributes sigma_alpha^-j, so
        the lift lies over the element."""
        word: list[tuple[int, int]] = []
        for slot in self.group.words[w]:
            alpha, j = self.letters[slot]
            word.extend([(alpha, -1)] * j)
        return self.r_tilde(tuple(word))

    def r_of_word(self, word) -> int:
        """The covering element r(word): the splitting images along the word."""
        out = self.wtilde.identity
        for alpha, exp in word:
            r = self.splitting[alpha]
            out = self.wtilde.mul(out, r if exp > 0 else self.wtilde.inv(r))
        return out

    def r_tilde(self, word) -> FiberElement:
        """The splitting applied to a braid word."""
        word = free_reduce(word)
        return FiberElement(self.r_of_word(word), word)

    def embed_inertia(self, x: int) -> FiberElement:
        if x not in self._kernel_set:
            raise DomainError(f"{x} is not in the kernel")
        return FiberElement(x, ())

    def fiber_check(self, g: FiberElement):
        if self.q[g.wt] != self.p_of_word(g.word):
            raise IntegrityError(
                f"fiber element invariant violated: q({g.wt}) != p({g.word})"
            )

    def fiber_mul(self, a: FiberElement, b: FiberElement) -> FiberElement:
        self.fiber_check(a)
        self.fiber_check(b)
        return FiberElement(
            self.wtilde.mul(a.wt, b.wt), free_reduce(a.word + b.word)
        )

    def fiber_inv(self, a: FiberElement) -> FiberElement:
        word = tuple((alpha, -exp) for alpha, exp in reversed(a.word))
        return FiberElement(self.wtilde.inv(a.wt), word)

    def inertia_part(self, g: FiberElement) -> int:
        """The kernel element g.wt * r(g.word)^{-1}."""
        x = self.wtilde.mul(g.wt, self.wtilde.inv(self.r_of_word(g.word)))
        if x not in self._kernel_set:
            raise IntegrityError(
                f"element {g} does not decompose over the splitting"
            )
        return x

    def eval_chi_hat(self, chi: Character, g: FiberElement) -> CycNumber:
        """The canonical extension of the character over the stabilizer cover."""
        w = self.q[g.wt]
        if self.act_on_character(w, chi) != chi:
            raise DomainError(
                f"base image {w} does not stabilize the character; "
                "the extension is undefined here"
            )
        return chi(self.inertia_part(g))

    def eval_tau_hat(self, g: FiberElement) -> int:
        """The sign character extended to the whole braid cover."""
        return self.tau[self.inertia_part(g)]
