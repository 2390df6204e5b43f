"""Exact arithmetic in cyclotomic fields, monic polynomials, sparse matrices.

Scalars are elements of Q(zeta_N) stored as rational coefficient vectors of
length phi(N), reduced modulo the N-th cyclotomic polynomial and then pushed
down to the smallest cyclotomic field containing them.  Canonical orders are
never congruent to 2 mod 4, so the pair (order, coeffs) determines the value.
Everything is immutable.

The push-down needs no linear algebra.  For each prime p | n, m = n/p, the
vector is rewritten along a basis of Q(zeta_n) over Q(zeta_m) that contains
1, by exponent bookkeeping alone: when p | m the power basis already is
zeta_m^j * zeta_n^r (r < p), and when p does not divide m each zeta_n^e
splits as zeta_m^a * zeta_p^b by the Chinese remainder theorem.  The value
lies in Q(zeta_m) exactly when its parts off 1 vanish, and the part on 1
gives its coordinates there (moved to m/2 when m = 2 mod 4).  This repeats
while some prime descends.

Scalars are interned (hash-consed): each canonical value has a single live
instance, found through a weak table keyed on (order, coeffs), so equality
is identity and ``ZERO``/``ONE`` are tested with ``is``.  The hash is the
structural ``hash((order, coeffs))``, computed once at creation, so every
hash-dependent iteration order is the same as for uninterned values.
Copying and unpickling go back through the table.

Products, sums, negations and inverses are memoized on their interned
operands, because the pipeline repeats a small set of them many times: the
whole 3220-tuple carousel grid makes about 980 000 products over 346
distinct operand pairs, 68 distinct sums and 68 distinct inverses, and
the R2 analyzes of Z/2 x G(1,1,4) and Z/2 x G(2,1,3) make tens of thousands
of products over 11 pairs.  Each memo table is bounded at ``_MEMO_SIZE``
entries, about six times the largest of those working sets, so a pass
evicts nothing it reuses, while a workload with many large-order values
cannot grow the tables without limit.  The memoized bodies call no
operator, so how often the operators are called does not depend on what
the tables hold.

Matrices are sparse rows.  A product forms each row from the rows of the
right factor picked by the left row's entries.  When the left row has a
single entry, the product row is the picked row times one nonzero scalar:
its columns are already sorted, and a field has no zero divisors, so no
entry vanishes.  Such a row is therefore canonical as it stands and skips
the accumulator, its sort and its zero filter.

Tuples are built from lists, not from generators.  CPython sizes
``tuple(generator)`` at ten slots and then resizes it, so the block comes
from the free list of 10-tuples and goes back, when the tuple dies, to the
free list of its final size.  Those per-size lists keep up to 2000 idle
tuples each: about 2 MB that a long carousel run never gives back.

One sparse Gauss-Jordan elimination serves rank, inverse and the minimal
polynomial.  For the last, the powers I, m, m^2, ... are flattened into
rows, each tagged by a column of its own, and reduced in turn; the first
power that reduces to its tags alone gives the coefficients of the
minimal polynomial.  A weighted permutation (one nonzero per row, no two
in a column, such as every carousel model and the Hecke generators with
unit relations) is read in closed form instead: its inverse reverses the
permutation and inverts the weights, and when all its cycles share one
length l and one weight product c its minimal polynomial is x^l - c.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError, DomainError

MAX_ORDER = 120

# entries per memo table of scalar operations (see the module docstring)
_MEMO_SIZE = 2048

_ZERO = Fraction(0)
_ONE = Fraction(1)


def json_int(value) -> int:
    """value itself if it is a JSON integer; a bool, float or string is
    refused rather than converted."""
    if type(value) is not int:
        raise DomainError(f"expected an integer, got {value!r}")
    return value


def json_key(key) -> int:
    """The integer a JSON object key spells, only when str(int) would spell
    it so: "00", " 0 " and "0_0" are refused rather than read as 0."""
    if not isinstance(key, str) or not key.lstrip("-").isdigit() or str(int(key)) != key:
        raise DomainError(f"expected an integer key, got {key!r}")
    return int(key)


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out = out // p * (p - 1)
    return out


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_exact(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [_ZERO] * max(0, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coeff = num[i + len(den) - 1] * inv_lead
        if coeff != 0:
            q[i] = coeff
            for j, d in enumerate(den):
                num[i + j] -= coeff * d
    return q, _poly_trim(num)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    num = [Fraction(-1)] + [_ZERO] * (n - 1) + [_ONE]
    for d in _divisors(n):
        if d == n:
            continue
        num, rem = _poly_divmod_exact(num, list(_cyclotomic(d)))
        assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_n^k reduced mod the cyclotomic polynomial, for k in 0..n-1."""
    deg = _phi(n)
    phi_n = _cyclotomic(n)
    rows = []
    cur = [_ONE] + [_ZERO] * (deg - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        cur = [_ZERO] + cur  # multiply by zeta
        if len(cur) > deg:
            lead = cur.pop()
            if lead != 0:
                for j in range(deg):
                    cur[j] -= lead * phi_n[j]
    return tuple(rows)


def _reduce_exponents(n: int, terms) -> tuple[Fraction, ...]:
    """Sum of coeff * zeta_n^exp, reduced to the phi(n)-vector."""
    deg = _phi(n)
    table = _power_table(n)
    acc = [_ZERO] * deg
    for exp, coeff in terms:
        if coeff == 0:
            continue
        row = table[exp % n]
        for j in range(deg):
            if row[j]:
                acc[j] += coeff * row[j]
    return tuple(acc)


def _reduce_canonical(m: int, terms):
    """(order, vector) of sum coeff * zeta_m^exp at the canonical order of Q(zeta_m)."""
    if m % 4 != 2:
        return m, _reduce_exponents(m, terms)
    # zeta_2k = -zeta_k^((k+1)/2) for odd k
    k = m // 2
    step = (k + 1) // 2
    return k, _reduce_exponents(k, ((e * step, -c if e % 2 else c) for e, c in terms))


def _descend(n: int, p: int, vec):
    """(order, vector) of vec in Q(zeta_{n/p}) if it lies there, else None.

    With m = n/p, vec is split along a basis of Q(zeta_n) over Q(zeta_m)
    that contains 1; it descends exactly when its other parts vanish.
    """
    m = n // p
    if m % p == 0:
        # basis 1, zeta_n, ..., zeta_n^(p-1), since zeta_n^p = zeta_m: the
        # power-basis index p*j + r is zeta_m^j * zeta_n^r
        if any(c for i, c in enumerate(vec) if i % p):
            return None
        return _reduce_canonical(m, enumerate(vec[::p]))
    # linearly disjoint: basis 1, zeta_p, ..., zeta_p^(p-2), where
    # zeta_n^e = zeta_m^a * zeta_p^b for a = e/p mod m, b = e/m mod p, and
    # zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2))
    inv_p, inv_m = pow(p, -1, m), pow(m, -1, p)
    parts = [[] for _ in range(p - 1)]
    for e, c in enumerate(vec):
        if c:
            a, b = e * inv_p % m, e * inv_m % p
            if b == p - 1:
                for part in parts:
                    part.append((a, -c))
            else:
                parts[b].append((a, c))
    if any(any(_reduce_exponents(m, part)) for part in parts[1:]):
        return None
    return _reduce_canonical(m, parts[0])


def _minimalize(n: int, vec):
    """Push a reduced vector down to its minimal cyclotomic order."""
    while n > 1:
        if all(c == 0 for c in vec[1:]):
            return 1, (vec[0],)
        for p in _prime_factors(n):
            down = _descend(n, p, vec)
            if down is not None:
                n, vec = down
                break
        else:
            break
    return n, tuple(vec)


# canonical (order, coeffs) -> the live CycNumber holding that value
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class CycNumber:
    """An element of Q(zeta_N) in canonical minimal-order form, interned."""

    __slots__ = ("order", "coeffs", "_hash", "__weakref__")

    def __new__(cls, order: int, coeffs: tuple[Fraction, ...]):
        # internal: callers must pass canonical data (use the constructors)
        key = (order, coeffs)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            self.order = order
            self.coeffs = coeffs
            self._hash = hash(key)
            _INTERNED[key] = self
        return self

    def __reduce__(self):
        return (CycNumber, (self.order, self.coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "CycNumber":
        return CycNumber(1, (Fraction(q),))

    @staticmethod
    def from_terms(order: int, terms) -> "CycNumber":
        """Sum of coeff * zeta_order^exp over (exp, coeff) pairs."""
        if order < 1:
            raise DomainError(f"order must be positive, got {order}")
        if order > MAX_ORDER:
            raise CapacityError(f"cyclotomic order {order} exceeds bound {MAX_ORDER}")
        vec = _reduce_exponents(order, ((e, Fraction(c)) for e, c in terms))
        n, vec = _minimalize(order, vec)
        return CycNumber(n, vec)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNumber.rational(x)
        return NotImplemented

    def lift_terms(self, order: int):
        """(exp, coeff) pairs expressing self at the given order."""
        if order % self.order:
            raise DomainError("lift target must be a multiple of the order")
        step = order // self.order
        return [(i * step, c) for i, c in enumerate(self.coeffs) if c != 0]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self is ZERO

    def is_one(self) -> bool:
        return self is ONE

    def root_of_unity_order(self):
        """Multiplicative order if self is a root of unity, else None."""
        if self.is_zero():
            return None
        bound = self.order if self.order % 2 == 0 else 2 * self.order
        if not (self ** bound).is_one():
            return None
        for d in _divisors(bound):
            if (self ** d).is_one():
                return d
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return _neg(self)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order != 1:
            # rational factors go second; the swap is a second operator
            # call, so a count of operator calls is the same whatever the
            # memo tables hold
            return other * self
        return _mul(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        if self is ZERO:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        return _inverse(self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "CycNumber":
        """Complex conjugation (zeta -> zeta^{-1})."""
        n = self.order
        vec = _reduce_exponents(n, ((-i % n, c) for i, c in enumerate(self.coeffs)))
        return CycNumber(n, vec)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNumber.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self is other

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.order == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        terms = [[c.numerator, c.denominator, i] for i, c in enumerate(self.coeffs) if c != 0]
        return {"order": self.order, "terms": terms}

    @staticmethod
    def from_json(obj) -> "CycNumber":
        if not isinstance(obj, dict) or "order" not in obj or "terms" not in obj:
            raise DomainError(f"bad cyclotomic number encoding: {obj!r}")
        try:
            terms = [
                (json_int(e), Fraction(json_int(num), json_int(den)))
                for num, den, e in obj["terms"]
            ]
        except ZeroDivisionError as exc:
            raise DomainError(f"zero denominator in cyclotomic number {obj!r}") from exc
        return CycNumber.from_terms(json_int(obj["order"]), terms)


# ---------------------------------------------------------------------------
# memoized field operations on interned operands; the operators above coerce
# their arguments and call these, and these call no operator


@lru_cache(maxsize=_MEMO_SIZE)
def _neg(a: CycNumber) -> CycNumber:
    return CycNumber(a.order, tuple([-c for c in a.coeffs]))


@lru_cache(maxsize=_MEMO_SIZE)
def _add(a: CycNumber, b: CycNumber) -> CycNumber:
    if b is ZERO:
        return a
    if a is ZERO:
        return b
    n = math.lcm(a.order, b.order)
    if n > MAX_ORDER:
        raise CapacityError(f"cyclotomic order {n} exceeds bound {MAX_ORDER}")
    if a.order == b.order:
        vec = tuple([x + y for x, y in zip(a.coeffs, b.coeffs)])
    else:
        vec = _reduce_exponents(n, a.lift_terms(n) + b.lift_terms(n))
    m, vec = _minimalize(n, vec)
    return CycNumber(m, vec)


@lru_cache(maxsize=_MEMO_SIZE)
def _mul(a: CycNumber, b: CycNumber) -> CycNumber:
    if b.order == 1:
        q = b.coeffs[0]
        if q == 0:
            return ZERO
        if q == 1:
            return a
        return CycNumber(a.order, tuple([c * q for c in a.coeffs]))
    n = math.lcm(a.order, b.order)
    if n > MAX_ORDER:
        raise CapacityError(f"cyclotomic order {n} exceeds bound {MAX_ORDER}")
    prods = {}
    for ea, ca in a.lift_terms(n):
        for eb, cb in b.lift_terms(n):
            e = (ea + eb) % n
            prods[e] = prods.get(e, _ZERO) + ca * cb
    vec = _reduce_exponents(n, prods.items())
    m, vec = _minimalize(n, vec)
    return CycNumber(m, vec)


@lru_cache(maxsize=_MEMO_SIZE)
def _inverse(a: CycNumber) -> CycNumber:
    """Inverse of a nonzero number, in the same field."""
    if a.order == 1:
        return CycNumber.rational(1 / a.coeffs[0])
    # extended Euclid against the cyclotomic polynomial
    n = a.order
    f = list(a.coeffs)
    g = list(_cyclotomic(n))
    s0, s1 = [_ONE], [_ZERO]
    r0, r1 = _poly_trim(f), _poly_trim(g)
    while len(r1) > 1 or (len(r1) == 1 and r1[0] != 0):
        if len(r0) < len(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        q, rem = _poly_divmod_exact(r0, r1)
        # s_new = s0 - q * s1
        s_new = list(s0) + [_ZERO] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(q):
            if qc == 0:
                continue
            for j, sc in enumerate(s1):
                s_new[i + j] -= qc * sc
        r0, r1, s0, s1 = r1, rem if rem else [_ZERO], s1, _poly_trim(s_new) or [_ZERO]
    # r0 is a nonzero constant: inverse = s0 / r0
    c = r0[0]
    vec = _reduce_exponents(n, ((i, sc / c) for i, sc in enumerate(s0)))
    return CycNumber(n, vec)


def zeta(n: int, k: int = 1) -> CycNumber:
    """The root of unity exp(2*pi*i*k/n)."""
    return CycNumber.from_terms(n, [(k, _ONE)])


ZERO = CycNumber.rational(0)
ONE = CycNumber.rational(1)


# ---------------------------------------------------------------------------
# monic polynomials


class CycPoly:
    """A monic polynomial with CycNumber coefficients (ascending order)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple([CycNumber._coerce(c) for c in coeffs])
        if not coeffs:
            raise DomainError("a monic polynomial needs at least one coefficient")
        if not coeffs[-1].is_one():
            raise DomainError("polynomial is not monic")
        self.coeffs = coeffs

    @staticmethod
    def monic(coeffs) -> "CycPoly":
        """Normalize a nonzero coefficient list by its leading coefficient."""
        coeffs = [CycNumber._coerce(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            raise DomainError("cannot normalize the zero polynomial")
        lead = coeffs[-1]
        if not lead.is_one():
            inv = lead.inverse()
            coeffs = [c * inv for c in coeffs]
        return CycPoly(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> CycNumber:
        return self.coeffs[0]

    def __eq__(self, other):
        return isinstance(other, CycPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            mono = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i == self.degree:
                parts.append(mono or repr(c))
            elif c.is_one() and mono:
                parts.append(mono)
            else:
                body = repr(c)
                if " + " in body or body.startswith("-"):
                    body = f"({body})"
                parts.append(f"{body}*{mono}" if mono else body)
        return " + ".join(parts)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def from_json(obj) -> "CycPoly":
        return CycPoly([CycNumber.from_json(c) for c in obj])


def theta(r: CycPoly) -> CycPoly:
    """The involution sending the minimal polynomial of an invertible
    operator to the minimal polynomial of its inverse."""
    c0 = r.constant_term
    if c0.is_zero():
        raise DomainError("involution requires a nonzero constant term")
    inv = c0.inverse()
    return CycPoly(tuple([c * inv for c in reversed(r.coeffs)]))


def detect_power_factor(r: CycPoly, e: int):
    """The unique monic rbar with r(z) = rbar(z^e), or None.

    Present exactly when r is supported on exponents divisible by e.
    """
    if e <= 0:
        raise DomainError(f"power factor exponent must be positive, got {e}")
    if e == 1:
        return r
    if r.degree % e:
        return None
    for i, c in enumerate(r.coeffs):
        if i % e and not c.is_zero():
            return None
    return CycPoly(r.coeffs[::e])


# ---------------------------------------------------------------------------
# matrices


class CycMatrix:
    """A rectangular matrix over the cyclotomic scalars, stored as sparse rows.

    Row i of ``sparse_rows`` is a tuple of (column, value) pairs sorted by
    column and holding no zero value, so equality and hashing are
    structural.  Every operation visits nonzero entries only and drops sums
    that cancel to zero.  ``entries`` is a dense read-only view.

    A product row whose left row holds a single entry (k, a) is row k of
    the right factor scaled by a: the same tuple when a is one.  It needs
    no accumulator, sort or zero filter, since its columns are already
    sorted and a product of nonzero field elements is nonzero.  Monomial
    and diagonal factors, such as the Hecke operators with unit relations,
    have only such rows.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_hash")

    def __init__(self, entries):
        entries = tuple([tuple([CycNumber._coerce(x) for x in row]) for row in entries])
        if not entries or not entries[0]:
            raise DomainError("matrices must be nonempty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise DomainError("ragged matrix rows")
        self.rows = len(entries)
        self.cols = cols
        self.sparse_rows = tuple([
            tuple([(j, x) for j, x in enumerate(row) if not x.is_zero()]) for row in entries
        ])
        self._hash = None

    @classmethod
    def _from_sparse(cls, rows: int, cols: int, sparse_rows) -> "CycMatrix":
        # internal: sparse_rows must already be canonical
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.sparse_rows = sparse_rows
        m._hash = None
        return m

    @staticmethod
    def from_triples(rows: int, cols: int, triples) -> "CycMatrix":
        """The matrix with the given (row, column, value) entries and zeros
        elsewhere; zero values are dropped."""
        if rows < 1 or cols < 1:
            raise DomainError("matrices must be nonempty")
        buckets: list[dict] = [{} for _ in range(rows)]
        for i, j, x in triples:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DomainError(f"entry ({i}, {j}) outside a {rows} x {cols} matrix")
            if j in buckets[i]:
                raise DomainError(f"entry ({i}, {j}) given twice")
            buckets[i][j] = CycNumber._coerce(x)
        return CycMatrix._from_sparse(
            rows,
            cols,
            tuple([
                tuple([(j, row[j]) for j in sorted(row) if not row[j].is_zero()])
                for row in buckets
            ]),
        )

    @staticmethod
    def diagonal(values) -> "CycMatrix":
        """The square matrix with the given diagonal and zeros elsewhere."""
        values = [CycNumber._coerce(c) for c in values]
        if not values:
            raise DomainError("matrices must be nonempty")
        return CycMatrix._from_sparse(
            len(values),
            len(values),
            tuple([() if c.is_zero() else ((i, c),) for i, c in enumerate(values)]),
        )

    @staticmethod
    def identity(n: int) -> "CycMatrix":
        return CycMatrix.diagonal([ONE] * n)

    @staticmethod
    def scalar(n: int, c) -> "CycMatrix":
        return CycMatrix.diagonal([c] * n)

    @property
    def entries(self) -> tuple:
        """Dense view: a tuple of rows, each a tuple of CycNumber."""
        out = []
        for row in self.sparse_rows:
            dense = [ZERO] * self.cols
            for j, x in row:
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (
            isinstance(other, CycMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.cols, self.sparse_rows))
        return self._hash

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DomainError("matrix shape mismatch in addition")
        out = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            if not ra or not rb:
                out.append(ra or rb)
                continue
            acc = dict(ra)
            for j, y in rb:
                x = acc.get(j)
                acc[j] = y if x is None else x + y
            out.append(tuple([(j, acc[j]) for j in sorted(acc) if not acc[j].is_zero()]))
        return CycMatrix._from_sparse(self.rows, self.cols, tuple(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CycMatrix._from_sparse(
            self.rows,
            self.cols,
            tuple([tuple([(j, -x) for j, x in row]) for row in self.sparse_rows]),
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            c = CycNumber._coerce(other)
            if c.is_one():
                return self
            if c.is_zero():
                rows = ((),) * self.rows
            else:
                rows = tuple([tuple([(j, x * c) for j, x in row]) for row in self.sparse_rows])
            return CycMatrix._from_sparse(self.rows, self.cols, rows)
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DomainError("matrix shape mismatch in product")
        # row by row: row i of the product combines the rows of other
        # selected by the nonzero entries of row i of self
        b = other.sparse_rows
        out = []
        for ra in self.sparse_rows:
            if len(ra) == 1:
                # canonical as it stands (see the class docstring)
                (k, a), = ra
                out.append(b[k] if a is ONE else tuple([(j, a * y) for j, y in b[k]]))
                continue
            acc: dict = {}
            for k, a in ra:
                for j, y in b[k]:
                    term = a * y
                    x = acc.get(j)
                    acc[j] = term if x is None else x + term
            out.append(tuple([(j, acc[j]) for j in sorted(acc) if not acc[j].is_zero()]))
        return CycMatrix._from_sparse(self.rows, other.cols, tuple(out))

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector (tuple of CycNumber)."""
        out = []
        for row in self.sparse_rows:
            acc = None
            for k, a in row:
                v = vec[k]
                if v.is_zero():
                    continue
                term = a * v
                acc = term if acc is None else acc + term
            out.append(ZERO if acc is None else acc)
        return tuple(out)

    def kron(self, other: "CycMatrix") -> "CycMatrix":
        """Kronecker product: block (i, j) is self[i][j] * other."""
        width = other.cols
        return CycMatrix._from_sparse(
            self.rows * other.rows,
            self.cols * width,
            tuple([
                tuple([(j * width + l, a * b) for j, a in ra for l, b in rb])
                for ra in self.sparse_rows
                for rb in other.sparse_rows
            ]),
        )

    def __pow__(self, k: int):
        if not self.is_square():
            raise DomainError("powers need a square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        acc = CycMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            if k > 1:
                base = base * base
            k >>= 1
        return acc

    def rank(self) -> int:
        rows = [dict(r) for r in self.sparse_rows if r]
        rank = 0
        for col in range(self.cols):
            if rank == len(rows):
                break
            sel = next((r for r in range(rank, len(rows)) if col in rows[r]), None)
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            _make_pivot(rows, rank, col)
            rank += 1
        return rank

    def inverse(self) -> "CycMatrix":
        """Gauss-Jordan elimination on the rows augmented by the identity.

        A weighted permutation (m e_j = a e_i) needs none: its inverse sends
        e_i to a^-1 e_j."""
        if not self.is_square():
            raise DomainError("only square matrices are invertible")
        n = self.rows
        perm = weighted_permutation(self)
        if perm is not None:
            targets, weights = perm
            return CycMatrix._from_sparse(
                n, n, tuple([((i, a.inverse()),) for i, a in zip(targets, weights)])
            )
        a = [dict(r) for r in self.sparse_rows]
        for i, row in enumerate(a):
            row[n + i] = ONE
        for col in range(n):
            sel = next((r for r in range(col, n) if col in a[r]), None)
            if sel is None:
                raise DomainError("matrix is singular")
            a[col], a[sel] = a[sel], a[col]
            _make_pivot(a, col, col)
        return CycMatrix._from_sparse(
            n, n, tuple([tuple([(j - n, row[j]) for j in sorted(row) if j >= n]) for row in a])
        )

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in row) for row in self.entries)
        return f"CycMatrix[{body}]"

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self.entries]

    @staticmethod
    def from_json(obj) -> "CycMatrix":
        return CycMatrix([[CycNumber.from_json(x) for x in row] for row in obj])


def weighted_permutation(m: CycMatrix):
    """(targets, weights) with m e_j = weights[j] e_{targets[j]} for every
    column j, when the square m holds one nonzero per row and no two in a
    column; otherwise None."""
    n = m.rows
    targets: list = [None] * n
    weights: list = [None] * n
    for i, row in enumerate(m.sparse_rows):
        if len(row) != 1:
            return None
        (j, a), = row
        if targets[j] is not None:
            return None
        targets[j] = i
        weights[j] = a
    return targets, weights


def _make_pivot(rows: list[dict], p: int, col: int):
    """Scale rows[p] so its entry in col is one, then clear col from every
    other row; entries that cancel are removed."""
    pivot = rows[p]
    inv = pivot[col].inverse()
    pivot[col] = ONE
    if not inv.is_one():
        for j in pivot:
            if j != col:
                pivot[j] = pivot[j] * inv
    for r, row in enumerate(rows):
        f = row.get(col)
        if r == p or f is None:
            continue
        del row[col]
        for j, y in pivot.items():
            if j == col:
                continue
            x = row.get(j)
            if x is None:
                row[j] = -(f * y)
                continue
            x = x - f * y
            if x.is_zero():
                del row[j]
            else:
                row[j] = x


def minpoly_matrix(m: CycMatrix) -> CycPoly:
    """Exact minimal polynomial of a square matrix.

    The first linear dependence among I, m, m^2, ...: power k is flattened
    to a row (entry (i, j) at column i*n + j) with a tag one in column
    n*n + k, and Gauss-Jordan reduced against the earlier powers.  The
    first power that reduces to tags alone carries the coefficients of the
    dependence in its tags.

    A weighted permutation (m e_j = a_j e_{t(j)}) whose cycles of t all have
    the same length l and the same weight product c needs no elimination:
    its minimal polynomial is x^l - c.  Indeed m^l e_j is the product of
    the weights around the cycle of j times e_j, so m^l = c I; and
    e_j, m e_j, ..., m^(l-1) e_j are nonzero multiples of the l distinct
    basis vectors on that cycle, hence independent, so no nonzero
    polynomial of degree below l annihilates m.  Any other matrix, mixed
    cycle shapes included, is eliminated.
    """
    if not m.is_square():
        raise DomainError("minimal polynomials need a square matrix")
    n = m.rows
    perm = weighted_permutation(m)
    if perm is not None:
        targets, weights = perm
        shapes = set()
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            length, c, j = 1, weights[start], targets[start]
            while j != start:
                seen[j] = True
                length, c, j = length + 1, c * weights[j], targets[j]
            shapes.add((length, c))
            if len(shapes) > 1:
                break
        if len(shapes) == 1:
            (length, c), = shapes
            return CycPoly((-c,) + (ZERO,) * (length - 1) + (ONE,))
    width = n * n
    rows: list[dict] = []
    pivot_row: dict[int, int] = {}  # pivot column -> index into rows
    power = CycMatrix.identity(n)
    for k in range(n + 1):
        row = {i * n + j: x for i, r in enumerate(power.sparse_rows) for j, x in r}
        row[width + k] = ONE
        rows.append(row)
        # earlier rows are fully reduced, so each clearing leaves the
        # other pivot columns of the new row as they are
        for col in [c for c in row if c in pivot_row]:
            _make_pivot(rows, pivot_row[col], col)
        col = next((c for c in row if c < width), None)
        if col is None:
            return CycPoly.monic([row.get(width + i, ZERO) for i in range(k + 1)])
        pivot_row[col] = k
        _make_pivot(rows, k, col)
        power = m if k == 0 else power * m
    raise AssertionError("n + 1 powers of an n x n matrix are dependent")
