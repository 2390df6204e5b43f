"""Datum ingestion, pipeline orchestration, and report emission.

Exit codes: 0 on success (including unsupported-regime downgrades, which
only warn), 2 for parse and usage errors (an unwritable ``--out`` among
them), 3 for datum validation and parameter errors, 4 for integrity
failures.  Reports are deterministic: identical inputs produce
byte-identical JSON.

Each fact is certified once: a stage does not re-check what an earlier
certificate or its own construction proves, and says why at that site.

A report is a dict of JSON values in which matrices may stay ``CycMatrix``
objects (the carousel models' ``lambda_inv`` and ``mu_e`` and the R1/R2
``m_chi.generator_matrices`` and ``inertia_matrices`` do).
``render_report`` is the one serializer: it writes the text of
``json.dumps(report, indent=2, sort_keys=True)`` for the report with each
matrix as its dense ``to_json`` lists.  The text around the matrices is
built with a NUL mark where each matrix goes, and each matrix is written
row by row from its sparse rows at its mark; the CLI streams the same
chunks to ``--out`` or stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .carousel import build_carousel, carousel_minpolys, twist_from_extension
from .cyclo import ZERO, CycMatrix, CycNumber, CycPoly, json_key, zeta
from .errors import (
    CapacityError,
    DomainError,
    IntegrityError,
    ParameterError,
    ParseError,
    RegimeError,
    ValidationError,
)
from .extension import (
    CheckResult,
    character_from_spec,
    datum_from_json,
    validate,
)
from .hecke import build_coxeter, build_cyclic
from .induce import build_full_r1, build_full_r2, build_i_action
from .invariants import check_generation, compute_chi_invariants, with_relation_character
from .reflgrp import catalog, catalog_order, enumerate_group, restrict

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTEGRITY = 4


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fingerprint(obj) -> str:
    return hashlib.sha256(_canonical_json(obj).encode()).hexdigest()


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _refuse_number(text: str):
    raise ParseError(f"character spec has a non-integer number {text}")


def _parse_chi_spec(spec):
    """The JSON value of a character spec given as text or as a JSON value,
    read back from its JSON text; a float, NaN or infinity in it is a parse
    error, since every number there is an integer."""
    if spec == "trivial":
        return "trivial"
    try:
        text = spec if isinstance(spec, str) else json.dumps(spec)
        return json.loads(text, parse_float=_refuse_number, parse_constant=_refuse_number)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"character spec is not valid JSON: {exc}") from exc


def _parse_twist(raw: str) -> CycNumber:
    try:
        j, _, k = raw.partition("/")
        return zeta(int(k or "1"), int(j))
    except (ValueError, DomainError) as exc:
        raise ParseError(f"bad twist {raw!r}; expected j/k for a root of unity") from exc


# ---------------------------------------------------------------------------
# analyze pipeline


def _orbit_constant(orbit, mapping, default, what):
    """The single value a per-hyperplane map takes on a stabilizer orbit."""
    values = {mapping.get(a, default) for a in orbit}
    if len(values) != 1:
        raise IntegrityError(
            f"{what} is not constant on the stabilizer orbit {orbit}"
        )
    return values.pop()


def _carousel_stage(datum, chi, inv, rbar_overrides):
    """Per stabilizer orbit: build the rank-one model from the datum's sign
    and wrap-around scalars, certify its polynomial identities, and settle
    the relation polynomial handed to the later stages."""
    sections = []
    rbar_by_alpha: dict[int, CycPoly] = {}
    # (n, e, sgn, twist) -> (model, polys): orbits with equal parameters
    # share one certified model
    certified = {}
    for orbit in inv.chi_orbits:
        rep = orbit[0]
        # the orbit's distinguished generators are conjugate (Arrangement.act),
        # and hyperplanes() certified each to have its hyperplane's order
        n = datum.arrangement[rep].order
        e = inv.per_hyperplane[rep].jump
        sgn = _orbit_constant(orbit, datum.sgn, 1, "sign datum")
        twists = {a: datum.twist.get(a) or twist_from_extension(datum, a, chi) for a in orbit}
        twist = _orbit_constant(orbit, twists, None, "wrap-around scalar")
        key = (n, e, sgn, twist)
        if key not in certified:
            model = build_carousel(n, e, sgn, twist)
            certified[key] = model, carousel_minpolys(model)
        model, polys = certified[key]
        applied = polys.rbar
        if rbar_overrides and rep in rbar_overrides:
            applied = rbar_overrides[rep]
            if applied.degree != n // e:
                raise ParameterError(
                    f"override relation at orbit {orbit} has degree "
                    f"{applied.degree}, expected {n // e}"
                )
            if applied.constant_term.is_zero():
                raise ParameterError(
                    f"override relation at orbit {orbit} has zero constant term"
                )
        for a in orbit:
            rbar_by_alpha[a] = applied
        sections.append(
            {
                "orbit": orbit,
                "n": n,
                "jump": e,
                "sgn": sgn,
                "twist": twist.to_json(),
                "model": model.to_json(),
                "polynomials": polys.to_json(),
                "applied_rbar": applied.to_json(),
            }
        )
    return sections, rbar_by_alpha


def _rbar_overrides_from_file(datum, inv, path):
    obj = _load_json_file(path)
    if not isinstance(obj, dict):
        raise ParseError("relation override file must be a JSON object")
    by_alpha = {}
    try:
        for key, poly in obj.items():
            by_alpha[json_key(key)] = CycPoly.from_json(poly)
    except (ValueError, TypeError, DomainError) as exc:
        raise ParseError(f"bad relation override: {exc}") from exc
    extra = sorted(a for a in by_alpha if not 0 <= a < len(datum.arrangement))
    if extra:
        raise ParameterError(f"override relations at {extra} name no hyperplane")
    # normalize to orbit representatives, enforcing orbit constancy
    out = {}
    for orbit in inv.chi_orbits:
        keyed = [a for a in orbit if a in by_alpha]
        if not keyed:
            continue
        polys = {by_alpha[a] for a in keyed}
        if len(polys) != 1:
            raise ParameterError(
                f"override relations differ across the stabilizer orbit {orbit}"
            )
        out[orbit[0]] = polys.pop()
    return out


def _hecke_stage(datum, inv, rbar_by_alpha):
    """Build the deformed algebra of the reflection subgroup when it falls
    in a supported regime; otherwise report the predicted dimension."""
    gens = inv.zero_generators
    if not gens:
        algebra = build_cyclic(CycPoly([CycNumber.rational(-1), CycNumber.rational(1)]))
        return algebra, {"regime": "cyclic", "dimension": 1,
                         "generators": {}, "note": "trivial reflection subgroup"}
    # cyclic: one nontrivial meet generates the subgroup alone; conversely a
    # non-identity element of W_alpha fixes exactly H_alpha, so a meet equal
    # to the subgroup is the only nontrivial meet
    if len(gens) == 1:
        algebra = build_cyclic(rbar_by_alpha[next(iter(gens))])
        return algebra, algebra.to_json()
    # quadratic: all nontrivial meets have order two; the whole group keeps
    # the datum's arrangement, since the R2 module needs its group object
    for a in gens:
        meet = inv.per_hyperplane[a].stabilizer_meet
        if len(meet) > 2:
            return None, _unsupported_hecke(inv, f"local order {len(meet)} at hyperplane {a}")
    arr, alphas = datum.arrangement, range(len(datum.arrangement))
    if len(inv.w_chi_zero) != len(datum.group):
        arr, alphas = restrict(datum.arrangement, inv.zero_lengths, inv.zero_orbit_of)
    params = {}
    for h, alpha in zip(arr.hyperplanes, alphas):
        oid, poly = h.orbit_id, rbar_by_alpha[alpha]
        if params.setdefault(oid, poly) != poly:
            raise IntegrityError(
                f"relation polynomials disagree on subgroup orbit {oid}"
            )
    try:
        algebra = build_coxeter(arr, params)
    except RegimeError as exc:
        return None, _unsupported_hecke(inv, str(exc))
    return algebra, algebra.to_json()


def _unsupported_hecke(inv, reason):
    return {
        "regime": "unsupported",
        "predicted_dimension": len(inv.w_chi_zero),
        "note": f"dimension asserted, not certified here ({reason})",
    }


def _mchi_stage(datum, chi, inv, hecke_algebra, rbar_by_alpha):
    """Full module when a regime applies, ledger plus inertia action
    otherwise.  Returns (section, warnings)."""
    warnings = []
    group = datum.group
    try:
        if inv.w_chi_zero == (group.identity,):
            return build_full_r1(datum, chi, inv).to_json(), warnings
        # the containment certificate of compute_chi_invariants puts W_chi^0
        # in W_chi, so W_chi^0 = W makes W_chi = W, every meet W_alpha and
        # every jump 1; and the hecke.dimension verdict has already raised
        # unless the algebra's dimension is |W_chi^0|
        if len(inv.w_chi_zero) == len(group) and hecke_algebra is not None:
            module = build_full_r2(datum, chi, inv, hecke_algebra, rbar_by_alpha)
            return module.to_json(), warnings
        warnings.append(
            "full module unavailable: nontrivial proper reflection subgroup "
            "or unsupported algebra regime; emitting ledger and inertia action"
        )
    except RegimeError as exc:
        warnings.append(f"full module downgraded to ledger-only: {exc}")
    action = build_i_action(datum, chi, inv)
    section = {
        "regime": "ledger-only",
        "ledger": action.ledger.to_json(),
        "inertia_action": action.to_json(),
    }
    return section, warnings


def run_analyze(datum_path, chi_spec, rbar_path=None, convention=None):
    """Full pipeline; returns (report, exit_code, warnings).

    An explicit inertia convention replaces the datum's ``"convention"``
    key; the fingerprint is still that of the file."""
    warnings: list[str] = []
    raw = _load_json_file(datum_path)
    if convention is not None and isinstance(raw, dict):
        datum = datum_from_json({**raw, "convention": convention})
    else:
        datum = datum_from_json(raw)
    chi_obj = _parse_chi_spec(chi_spec)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "monodromy", "version": __version__},
        "fingerprint": _fingerprint(raw),
        "chi_spec": chi_obj,
        "convention": datum.convention,
        "group": {
            "name": datum.name,
            "order": len(datum.group),
            "rank": datum.group.rank,
            "hyperplanes": len(datum.arrangement),
            "orbits": datum.arrangement.orbits(),
        },
        "arrangement": datum.arrangement.to_json(),
    }
    verdicts: list[CheckResult] = []

    def finish(code):
        report["verdicts"] = [c.to_json() for c in verdicts]
        return report, code, warnings

    validation = validate(datum)
    report["validation"] = validation.to_json()
    verdicts.extend(validation.checks)
    if not validation.ok:
        return finish(EXIT_VALIDATION)

    try:
        chi = character_from_spec(datum, chi_obj)
    except (ValidationError, DomainError) as exc:
        report["error"] = f"character spec rejected: {exc}"
        return finish(EXIT_VALIDATION)

    try:
        inv = compute_chi_invariants(datum, chi)
        overrides = (
            _rbar_overrides_from_file(datum, inv, rbar_path) if rbar_path else None
        )
        carousel_sections, rbar_by_alpha = _carousel_stage(datum, chi, inv, overrides)
        inv = with_relation_character(inv, rbar_by_alpha)
        verdicts.extend(inv.checks)
        gen_ok, gen_witness = check_generation(datum, inv)
        verdicts.append(CheckResult.of("chi.local_generation", gen_ok, gen_witness))
        if not gen_ok:
            raise IntegrityError(f"generation check failed: {gen_witness}")
        report["chi_invariants"] = inv.to_json()
        report["carousel"] = carousel_sections

        hecke_algebra, hecke_section = _hecke_stage(datum, inv, rbar_by_alpha)
        report["hecke"] = hecke_section
        if hecke_algebra is not None:
            verdicts.append(
                CheckResult(
                    "hecke.dimension",
                    "pass" if hecke_algebra.dimension == len(inv.w_chi_zero) else "fail",
                    f"dimension {hecke_algebra.dimension} vs subgroup order "
                    f"{len(inv.w_chi_zero)}",
                )
            )
            if hecke_algebra.dimension != len(inv.w_chi_zero):
                raise IntegrityError("algebra dimension mismatch")
        else:
            warnings.append("deformed algebra regime unsupported; dimension asserted only")

        mchi_section, mchi_warnings = _mchi_stage(
            datum, chi, inv, hecke_algebra, rbar_by_alpha
        )
        warnings.extend(mchi_warnings)
        report["m_chi"] = mchi_section
        for check in mchi_section.get("checks", []):
            verdicts.append(CheckResult(check["name"], check["status"], check["witness"]))
        ledger = mchi_section["ledger"]
        verdicts.append(
            CheckResult.of(
                "m_chi.dimension_identities",
                ledger["dim_mchi"] == len(datum.group)
                and ledger["dim_m0"] * ledger["index"] == ledger["dim_mchi"],
            )
        )
    except ParameterError as exc:
        report["error"] = f"parameter error: {exc}"
        return finish(EXIT_VALIDATION)
    except IntegrityError as exc:
        report["error"] = f"integrity error: {exc}"
        return finish(EXIT_INTEGRITY)

    report["warnings"] = warnings
    if any(c.status == "fail" for c in verdicts):
        return finish(EXIT_INTEGRITY)
    return finish(EXIT_OK)


# ---------------------------------------------------------------------------
# report writer


def _text(obj, ind, texts, matrices):
    """What ``json.dumps(obj, indent=2, sort_keys=True)`` writes for ``obj``
    after ``ind``, the newline and indent of the line it starts on.

    Dict keys must be exactly ``str``.  A ``CycMatrix`` is written as the
    mark ``"\\0"`` and appended as (matrix, ind) to ``matrices``, for
    ``_report_chunks`` to write row by row; json.dumps escapes every control
    character, so a raw NUL in the text is always a mark.  ``texts`` is the
    render call's cache of str texts by value and of scalar texts by
    (scalar, indent).  str, int and None values are written in the loop,
    not by a call per leaf."""
    if isinstance(obj, dict):
        for key in obj:
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        keys = sorted(obj)
        values = [obj[key] for key in keys]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        keys, values, brackets = None, obj, "[]"
    elif isinstance(obj, CycMatrix):
        matrices.append((obj, ind))
        return "\0"
    elif isinstance(obj, (str, int, type(None))):  # bool is an int
        return json.dumps(obj)
    else:
        raise TypeError(
            f"report leaves must be str, int, bool or None, not {type(obj).__name__}"
        )
    if not values:
        return brackets
    inner = ind + "  "
    parts = []
    for value in values:
        cls = type(value)
        if cls is str:
            parts.append(texts.get(value) or texts.setdefault(value, json.dumps(value)))
        elif cls is int:
            parts.append(int.__repr__(value))
        elif value is None:
            parts.append("null")
        else:
            parts.append(_text(value, inner, texts, matrices))
    if keys is not None:
        parts = [
            (texts.get(key) or texts.setdefault(key, json.dumps(key))) + ": " + part
            for key, part in zip(keys, parts)
        ]
    return brackets[0] + inner + ("," + inner).join(parts) + ind + brackets[1]


def _matrix_rows(m, ind, texts):
    """The rows of ``m`` written from its sparse rows: every cell starts as
    the zero scalar's text and the nonzero entries overwrite theirs."""
    inner = ind + "  "
    cell_ind = inner + "  "

    def text(x):
        key = (x, cell_ind)
        return texts.get(key) or texts.setdefault(key, _text(x.to_json(), cell_ind, texts, []))

    zero = text(ZERO)
    sep = "[" + inner
    for row in m.sparse_rows:
        cells = [zero] * m.cols
        for j, x in row:
            cells[j] = text(x)
        yield sep + "[" + cell_ind + ("," + cell_ind).join(cells) + inner + "]"
        sep = "," + inner
    yield ind + "]"


def _report_chunks(report):
    """The report's text in chunks: the text between two matrices is one
    chunk and each matrix row is one more."""
    texts, matrices = {}, []
    pieces = (_text(report, "\n", texts, matrices) + "\n").split("\0")
    for piece, (m, ind) in zip(pieces, matrices):
        yield piece
        yield from _matrix_rows(m, ind, texts)
    yield pieces[-1]


def render_report(report) -> str:
    """The report as JSON text, byte for byte what ``json.dumps(report,
    indent=2, sort_keys=True) + "\\n"`` gives once every ``CycMatrix`` is
    replaced by its ``to_json`` lists."""
    return "".join(_report_chunks(report))


# ---------------------------------------------------------------------------
# other subcommands


def run_catalog(family, m, p, r):
    if family != "g":
        raise ParseError(f"unknown catalog family {family!r}")
    gens = catalog(m, p, r)
    group = enumerate_group(gens)
    expected = catalog_order(m, p, r)
    if len(group) != expected:
        raise IntegrityError(
            f"closure order {len(group)} differs from the formula {expected}"
        )
    obj = group.to_json(f"g({m},{p},{r})")
    obj["order"] = len(group)
    obj["schema_version"] = SCHEMA_VERSION
    return obj


def run_carousel(n, e, sgn, twist):
    model = build_carousel(n, e, sgn, twist)
    polys = carousel_minpolys(model)
    return {
        "schema_version": SCHEMA_VERSION,
        "model": model.to_json(),
        "polynomials": polys.to_json(),
    }


def _write_report(report, out: str | None):
    """Stream the rendered report to the --out file when one is given, else
    to stdout; a destination that cannot be written, a closed stdout pipe
    among them, is a usage error."""
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(_report_chunks(report))
        else:
            sys.stdout.writelines(_report_chunks(report))
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            # the flush at exit must not fail again: send what is left to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ParseError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="monodromy",
        description="exact invariants of reflection-group extension data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline on a datum")
    p_analyze.add_argument("datum", help="datum JSON file")
    p_analyze.add_argument("--chi", required=True, help="'trivial' or a JSON character spec")
    p_analyze.add_argument("--rbar", help="JSON file of relation overrides per hyperplane")
    p_analyze.add_argument("--out", help="write the report here instead of stdout")
    p_analyze.add_argument(
        "--convention",
        choices=["left", "flip-inertia"],
        default=None,
        help="inertia block labeling convention (default: the datum's)",
    )

    p_catalog = sub.add_parser("catalog", help="emit generators for a standard family")
    p_catalog.add_argument("family", help="family tag (only 'g' is supported)")
    p_catalog.add_argument("m", type=int)
    p_catalog.add_argument("p", type=int)
    p_catalog.add_argument("r", type=int)
    p_catalog.add_argument("--out")

    p_car = sub.add_parser("carousel", help="build one rank-one model")
    p_car.add_argument("--n", type=int, required=True)
    p_car.add_argument("--e", type=int, required=True)
    p_car.add_argument("--sgn", type=int, default=1)
    p_car.add_argument("--twist", default="0/1", help="j/k for a k-th root of unity")
    p_car.add_argument("--out")

    args = parser.parse_args(argv)

    try:
        if args.command == "analyze":
            report, code, warnings = run_analyze(
                args.datum, args.chi, args.rbar, args.convention
            )
            _write_report(report, args.out)
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            return code
        if args.command == "catalog":
            report = run_catalog(args.family, args.m, args.p, args.r)
            _write_report(report, args.out)
            return EXIT_OK
        if args.command == "carousel":
            twist = _parse_twist(args.twist)
            report = run_carousel(args.n, args.e, args.sgn, twist)
            _write_report(report, args.out)
            return EXIT_OK
    except (ParseError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
