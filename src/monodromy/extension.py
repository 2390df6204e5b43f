"""Finite extensions of a reflection group with a distinguished splitting.

The covering group is a ``reflgrp.CayleyGroup`` read from the datum's
table, the group law it shares with the base group.  The projection is an
index map, and the splitting is one covering element per hyperplane.
Characters of the kernel are stored by their values (roots of unity).
Braid words are sequences of (hyperplane, +-1) letters, read only through
their base images ``p_of_word``.  ``induce`` writes an element of the
pulled-back braid cover as x·r(word), x in the kernel, with no type here:
each kernel part it needs is read off the cover's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclo import CycMatrix, CycNumber, json_int, json_key, zeta
from .errors import (
    ClosureCapError,
    DomainError,
    ParseError,
    ValidationError,
)
from .reflgrp import Arrangement, CayleyGroup, ReflectionGroup, enumerate_group, hyperplanes


class Character:
    """A one-dimensional character of the kernel, stored by its values."""

    def __init__(self, values: dict[int, CycNumber]):
        self.values = dict(values)

    @staticmethod
    def trivial(kernel) -> "Character":
        one = CycNumber.rational(1)
        return Character({x: one for x in kernel})

    def __call__(self, x: int) -> CycNumber:
        return self.values[x]

    def __eq__(self, other):
        return isinstance(other, Character) and self.values == other.values

    def to_json(self) -> dict:
        return {str(x): v.to_json() for x, v in sorted(self.values.items())}

    def __repr__(self):
        # a debugging aid: pytest prints it in assertion failures
        vals = ", ".join(f"{x}:{v!r}" for x, v in sorted(self.values.items()))
        return f"Character({vals})"


@dataclass
class CheckResult:
    name: str
    status: str  # "pass", "fail", or "assumed"
    witness: str | None = None

    @classmethod
    def of(cls, name: str, ok: bool, witness: str | None = None) -> "CheckResult":
        """A pass, or a fail that carries its witness."""
        return cls(name, "pass" if ok else "fail", None if ok else witness)

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


class ValidationReport:
    def __init__(self, checks: list[CheckResult]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


class ExtensionDatum:
    """A reflection group W, a finite cover of it with kernel I, a per-
    hyperplane splitting of the cover, and the sign character of I."""

    def __init__(
        self,
        group: ReflectionGroup,
        arrangement: Arrangement,
        wtilde: CayleyGroup,
        q: list[int],
        splitting: dict[int, int],
        tau: dict[int, int] | None = None,
        wtilde_alpha: dict[int, frozenset] | None = None,
        name: str = "datum",
        sgn: dict[int, int] | None = None,
        twist: dict[int, CycNumber] | None = None,
        braid_relations: list | None = None,
        convention: str = "left",
    ):
        if len(q) != len(wtilde):
            raise ParseError("projection map must cover the whole covering group")
        if any(not 0 <= w < len(group) for w in q):
            raise ParseError("projection map image out of range")
        if any(not 0 <= r < len(wtilde) for r in splitting.values()):
            raise ParseError("splitting value outside the covering group")
        for what, keyed in (("wtilde_alpha", wtilde_alpha), ("sgn", sgn), ("twist", twist)):
            extra = sorted(a for a in keyed or () if not 0 <= a < len(arrangement))
            if extra:
                raise ParseError(f"{what} keys {extra} name no hyperplane")
        for a, members in (wtilde_alpha or {}).items():
            off = sorted(x for x in members if not 0 <= x < len(wtilde))
            if off:
                raise ParseError(
                    f"wtilde_alpha[{a}] members {off} name no covering element"
                )
        for relation in braid_relations or ():
            for alpha, exp in (letter for word in relation for letter in word):
                if not 0 <= alpha < len(arrangement) or exp not in (1, -1):
                    raise ParseError(
                        f"braid letter {[alpha, exp]} needs a hyperplane index "
                        "and an exponent of 1 or -1"
                    )
        self.group = group
        self.arrangement = arrangement
        self.wtilde = wtilde
        self.q = tuple(q)
        self.splitting = dict(splitting)
        self.kernel = tuple(
            sorted(i for i, w in enumerate(q) if w == group.identity)
        )
        self.tau = dict(tau) if tau else {x: 1 for x in self.kernel}
        self.wtilde_alpha_override = dict(wtilde_alpha) if wtilde_alpha else {}
        self.name = name
        self.sgn = dict(sgn) if sgn else {}
        self.twist = dict(twist) if twist else {}
        self.braid_relations = list(braid_relations) if braid_relations else []
        if convention not in ("left", "inverse"):
            raise ParseError(f"unknown inertia convention {convention!r}")
        self.convention = convention
        self._kernel_set = set(self.kernel)

    # -- basic structure ---------------------------------------------------

    @cached_property
    def _sections(self) -> dict[int, int]:
        """The least covering element over each base element in the image."""
        out: dict[int, int] = {}
        for wt, w in enumerate(self.q):
            out.setdefault(w, wt)
        return out

    def section(self, w: int) -> int:
        """The least covering element over a base element."""
        if w not in self._sections:
            raise ValidationError(f"projection map misses base element {w}")
        return self._sections[w]

    def wtilde_alpha(self, alpha: int) -> frozenset:
        if alpha in self.wtilde_alpha_override:
            return self.wtilde_alpha_override[alpha]
        members = self.arrangement[alpha].stabilizer_elements
        target = set(members)
        return frozenset(wt for wt, w in enumerate(self.q) if w in target)

    # -- braid words --------------------------------------------------------

    def p_of_letter(self, letter) -> int:
        alpha, exp = letter
        s = self.arrangement[alpha].distinguished_generator
        return self.group.inv(s) if exp > 0 else s

    def p_of_word(self, word) -> int:
        out = self.group.identity
        for letter in word:
            out = self.group.mul(out, self.p_of_letter(letter))
        return out

    # -- characters ----------------------------------------------------------

    def act_on_character(self, w: int, chi: Character) -> Character:
        wt = self.section(w)
        wt_inv = self.wtilde.inv(wt)
        return Character(
            {
                x: chi(self.wtilde.mul(self.wtilde.mul(wt_inv, x), wt))
                for x in self.kernel
            }
        )

    def stabilizer_of_character(self, chi: Character) -> tuple[int, ...]:
        return tuple(
            w for w in range(len(self.group)) if self.act_on_character(w, chi) == chi
        )

    def character_from_values(self, values: dict[int, CycNumber]) -> Character:
        """Extend values on kernel elements multiplicatively to a character
        with root-of-unity values.  The closure loop's last pass adds
        nothing and compares every product of the final set, so the result
        is multiplicative."""
        e = self.wtilde.identity
        known = {e: CycNumber.rational(1)}
        for x, v in values.items():
            if x not in self._kernel_set:
                raise DomainError(f"{x} is not in the kernel")
            if x in known and known[x] != v:
                raise ValidationError(f"inconsistent value at {x}")
            known[x] = v
        changed = True
        while changed:
            changed = False
            for a, va in list(known.items()):
                for b, vb in list(known.items()):
                    c = self.wtilde.mul(a, b)
                    vc = va * vb
                    if c not in known:
                        known[c] = vc
                        changed = True
                    elif known[c] != vc:
                        raise ValidationError(
                            f"values do not extend to a character: conflict at {c}"
                        )
        if set(known) != self._kernel_set:
            missing = sorted(self._kernel_set - set(known))
            raise ValidationError(
                f"values do not determine the character on elements {missing}"
            )
        for x in self.kernel:
            if known[x].root_of_unity_order() is None:
                raise ValidationError(f"character value at {x} is not a root of unity")
        return Character(known)


def validate(e: ExtensionDatum) -> ValidationReport:
    """Run every datum invariant; failures carry witnesses."""
    checks: list[CheckResult] = []
    wt = e.wtilde
    try:
        wt.identity
        identity_ok = True
        identity_witness = None
    except ValidationError as exc:
        identity_ok, identity_witness = False, str(exc)
    checks.append(CheckResult.of("wtilde.identity", identity_ok, identity_witness))
    if not identity_ok:
        return ValidationReport(checks)

    gens = wt.generators_and_unreached()
    bad = wt.associativity_witness(gens)
    checks.append(CheckResult.of("wtilde.associative", bad is None, f"triple {bad}"))

    lacking = next((a for a, b in enumerate(wt.inverses) if b is None), None)
    checks.append(CheckResult.of("wtilde.inverses", lacking is None, f"element {lacking}"))
    if lacking is not None or bad is not None:
        return ValidationReport(checks)

    # q(ab) = q(a)q(b) for every a and b once it holds for every b in gens.
    # Each b outside gens is a product g_1...g_k, k >= 1, of W~'s generators
    # (the identity too, as the power g^ord(g) of one), and by induction on k,
    # q(a g_1...g_k) = q(a g_1...g_{k-1}) q(g_k) = q(a) q(g_1...g_{k-1}) q(g_k)
    # = q(a) q(b): W~ is associative by Light's test above, W is a matrix
    # group.  Only a failure needs the row-major scan, for its first pair.
    q, wt_table, w_table, n = e.q, wt.table, e.group.table, len(wt)

    def breaks(a, b):
        return q[wt_table[a][b]] != w_table[q[a]][q[b]]

    hom_witness = None
    if any(breaks(a, g) for a in range(n) for g in gens):
        hom_witness = next(f"pair ({a},{b})" for a in range(n) for b in range(n) if breaks(a, b))
    checks.append(CheckResult.of("q.homomorphism", hom_witness is None, hom_witness))

    image = set(e.q)
    checks.append(
        CheckResult.of(
            "q.surjective",
            len(image) == len(e.group),
            f"missing base elements {sorted(set(range(len(e.group))) - image)}",
        )
    )

    missing = [a for a in range(len(e.arrangement)) if a not in e.splitting]
    extra = [a for a in e.splitting if not 0 <= a < len(e.arrangement)]
    checks.append(
        CheckResult.of(
            "splitting.covers_hyperplanes",
            not missing and not extra,
            f"missing {missing}, extraneous {extra}",
        )
    )
    if missing or extra:
        return ValidationReport(checks)
    local = [e.wtilde_alpha(a) for a in range(len(e.arrangement))]

    witness = None
    for a in range(len(e.arrangement)):
        s = e.arrangement[a].distinguished_generator
        if e.q[e.splitting[a]] != e.group.inv(s):
            witness = f"hyperplane {a}"
            break
    checks.append(
        CheckResult.of("splitting.maps_to_inverse_generator", witness is None, witness)
    )

    witness = None
    for a, sub in enumerate(local):
        if e.splitting[a] not in sub:
            witness = f"hyperplane {a}"
            break
    checks.append(CheckResult.of("splitting.in_local_subgroup", witness is None, witness))

    witness = None
    for a, sub in enumerate(local):
        if wt.identity not in sub:
            witness = f"hyperplane {a}: missing identity"
        elif any(wt.mul(x, y) not in sub for x in sub for y in sub):
            witness = f"hyperplane {a}: not closed"
        elif {e.q[x] for x in sub} != set(e.arrangement[a].stabilizer_elements):
            witness = f"hyperplane {a}: base image is not the local stabilizer"
        if witness:
            break
    checks.append(CheckResult.of("local_subgroups.subgroup", witness is None, witness))

    witness = None
    for a, sub in enumerate(local):
        for x in e.kernel:
            if frozenset(wt.conjugate(x, y) for y in sub) != sub:
                witness = f"hyperplane {a}, kernel element {x}"
                break
        if witness:
            break
    checks.append(CheckResult.of("local_subgroups.inertia_invariant", witness is None, witness))

    keys_ok = set(e.tau) == set(e.kernel)
    signs_ok = all(v in (1, -1) for v in e.tau.values())
    checks.append(
        CheckResult.of("tau.keys", keys_ok, f"keys {sorted(e.tau)} vs kernel {list(e.kernel)}")
    )
    checks.append(
        CheckResult.of("tau.signs", signs_ok, f"values {sorted(set(e.tau.values()) - {1, -1})}")
    )
    if keys_ok and signs_ok:
        # when q is no homomorphism the kernel need not be closed, and a
        # product or conjugate outside it has no sign: that pair fails
        witness = None
        for a in e.kernel:
            for b in e.kernel:
                if e.tau.get(wt.mul(a, b)) != e.tau[a] * e.tau[b]:
                    witness = f"pair ({a},{b})"
                    break
            if witness:
                break
        checks.append(CheckResult.of("tau.multiplicative", witness is None, witness))

        witness = None
        for g in range(len(wt)):
            for x in e.kernel:
                if e.tau.get(wt.conjugate(g, x)) != e.tau[x]:
                    witness = f"conjugation of {x} by {g}"
                    break
            if witness:
                break
        checks.append(CheckResult.of("tau.conjugation_invariant", witness is None, witness))

    checks.append(
        CheckResult(
            "splitting.extends_over_braid_relations",
            "assumed",
            "splitting values are evaluated letter-wise; coherence over braid "
            "relations is assumed, not certified",
        )
    )
    defaulted = [
        a for a in range(len(e.arrangement)) if a not in e.wtilde_alpha_override
    ]
    if defaulted:
        checks.append(
            CheckResult(
                "local_subgroups.default_preimage",
                "assumed",
                f"hyperplanes {defaulted} use the full projection preimage "
                "as their local subgroup",
            )
        )
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# serialization


def datum_to_json(e: ExtensionDatum) -> dict:
    out = {
        "name": e.name,
        "group": e.group.to_json(e.name + ".group"),
        "wtilde": {
            "order": len(e.wtilde),
            "table": [list(row) for row in e.wtilde.table],
            "generators": list(e.wtilde.generators),
        },
        "q": list(e.q),
        "splitting": {str(a): r for a, r in sorted(e.splitting.items())},
        "tau": {str(x): v for x, v in sorted(e.tau.items())},
    }
    if e.wtilde_alpha_override:
        out["wtilde_alpha"] = {
            str(a): sorted(s) for a, s in sorted(e.wtilde_alpha_override.items())
        }
    if e.sgn:
        out["sgn"] = {str(a): v for a, v in sorted(e.sgn.items())}
    if e.twist:
        out["twist"] = {str(a): v.to_json() for a, v in sorted(e.twist.items())}
    if e.braid_relations:
        out["braid_relations"] = [
            [[list(l) for l in w1], [list(l) for l in w2]]
            for w1, w2 in e.braid_relations
        ]
    if e.convention != "left":
        out["convention"] = e.convention
    return out


def _object_items(value, what: str):
    """The items of a JSON object; any other JSON value is a parse error."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value.items()


def datum_from_json(obj) -> ExtensionDatum:
    try:
        wspec = obj["wtilde"]
        wtilde = CayleyGroup(wspec["table"], wspec.get("generators"))
        if wspec.get("order") is not None and wspec["order"] != len(wtilde):
            raise ParseError("declared covering group order disagrees with table")
        gens = [CycMatrix.from_json(g) for g in obj["group"]["generators"]]
        # q maps the covering group onto the base group, so |W| <= |W~|
        try:
            group = enumerate_group(gens, cap=len(wtilde))
        except ClosureCapError as exc:
            raise ValidationError(
                "the base group is larger than the covering group of order "
                f"{len(wtilde)}"
            ) from exc
        arrangement = hyperplanes(group)
        splitting = {
            json_key(a): json_int(r) for a, r in _object_items(obj["splitting"], "splitting")
        }
        tau = (
            {json_key(x): json_int(v) for x, v in _object_items(obj["tau"], "tau")}
            if obj.get("tau")
            else None
        )
        wtilde_alpha = (
            {
                json_key(a): frozenset(map(json_int, v))
                for a, v in _object_items(obj["wtilde_alpha"], "wtilde_alpha")
            }
            if obj.get("wtilde_alpha")
            else None
        )
        sgn = {
            json_key(a): json_int(v) for a, v in _object_items(obj.get("sgn", {}), "sgn")
        } or None
        twist = {
            json_key(a): CycNumber.from_json(v)
            for a, v in _object_items(obj.get("twist", {}), "twist")
        } or None
        relations = [
            (
                tuple((json_int(a), json_int(x)) for a, x in w1),
                tuple((json_int(a), json_int(x)) for a, x in w2),
            )
            for w1, w2 in obj.get("braid_relations", [])
        ] or None
        convention = obj.get("convention", "left")
        if convention == "flip-inertia":
            convention = "inverse"
        name = obj.get("name", "datum")
        if not isinstance(name, str):
            raise ParseError(f"datum name must be a string, got {type(name).__name__}")
        return ExtensionDatum(
            group,
            arrangement,
            wtilde,
            [json_int(w) for w in obj["q"]],
            splitting,
            tau=tau,
            wtilde_alpha=wtilde_alpha,
            name=name,
            sgn=sgn,
            twist=twist,
            braid_relations=relations,
            convention=convention,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed extension datum: {exc}") from exc


def character_from_spec(e: ExtensionDatum, spec) -> Character:
    """Parse a character specification: "trivial", or a JSON object giving
    a modulus and exponents on kernel generators, either flat
    ({"<element>": exponent, "modulus": k}) or nested under "values"."""
    if spec == "trivial":
        return Character.trivial(e.kernel)
    if not isinstance(spec, dict):
        raise ParseError(f"bad character spec {spec!r}")
    try:
        modulus = json_int(spec["modulus"])
        raw = spec.get("values")
        if raw is None:
            raw = {k: v for k, v in spec.items() if k != "modulus"}
        elif set(spec) != {"modulus", "values"}:
            extra = sorted(set(spec) - {"modulus", "values"})
            raise ParseError(f"character spec has keys {extra} beside modulus and values")
        values = {
            json_key(x): zeta(modulus, json_int(exp))
            for x, exp in _object_items(raw, "values")
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad character spec: {exc}") from exc
    if not values:
        raise ParseError("character spec names no kernel elements")
    return e.character_from_values(values)
