"""The benchmark's four workloads: how their items are built from a seed,
how one item runs through the library's public entry points, and the
checks applied to every output.

An item is one analyze plus render (``analyze``), one negative control run
through ``main`` (``control``), or one carousel tuple built and certified
(``carousel``).  Every item has a stable key into ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("corpus", "coxeter-ladder", "carousel-sweep", "ledger-scale")

# Direct-product covers Z/2 x G(m,p,r) with the sign tau on the kernel.
# G(1,1,5) is left out of the ladder: one analyze takes about six minutes.
LADDER = (("z2_g114", (1, 1, 4)), ("z2_g213", (2, 1, 3)))
# Hyperplanes of order 3 and 4 put these covers in the ledger-only regime.
LEDGER = (("z2_g313", (3, 1, 3)), ("z2_g413", (4, 1, 3)))

MAX_CAROUSEL = 12  # criterion 3: n <= 12 and twists of order k <= 12


@dataclass(frozen=True)
class Item:
    key: str  # stable identifier, the key into reference.json
    kind: str  # "analyze", "control" or "carousel"
    args: tuple


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    """Output digest by item key."""
    return json.loads(REFERENCE.read_text())["digests"]


# ---------------------------------------------------------------------------
# inputs


def _chi_string(spec) -> str:
    return spec if isinstance(spec, str) else canonical(spec)


def _analyze_item(path: Path, spec) -> Item:
    key = f"{path.name}|{canonical(spec)}"
    return Item(key, "analyze", (str(path), _chi_string(spec)))


def corpus_items() -> list[Item]:
    """Every (datum, chi) of the committed manifest, negative controls too."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    items = []
    for entry in manifest:
        path = FIXTURES / entry["file"]
        for spec in entry["chi_specs"]:
            if entry["expected_exit"] == 0:
                items.append(_analyze_item(path, spec))
            else:
                key = f"{path.name}|{canonical(spec)}"
                args = (str(path), _chi_string(spec), entry["expected_exit"])
                items.append(Item(key, "control", args))
    return items


def write_cover(name: str, mpr: tuple, workdir: Path) -> tuple[Path, dict]:
    """Write Z/2 x G(m,p,r) as datum JSON; returns the path and the spec of
    the sign character on the kernel generator."""
    from monodromy import fixtures
    from monodromy.extension import datum_to_json
    from monodromy.reflgrp import catalog

    datum = fixtures.direct_product_datum(name, catalog(*mpr), 2, tau_exponent=1)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(datum_to_json(datum), indent=2, sort_keys=True) + "\n")
    generator = next(x for x in datum.kernel if x != datum.wtilde.identity)
    return path, {str(generator): 1, "modulus": 2}


def cover_items(covers, workdir: Path, rng: random.Random | None) -> list[Item]:
    """Both characters of every cover, or one drawn by ``rng`` per cover."""
    items = []
    for name, mpr in covers:
        path, sign = write_cover(name, mpr, workdir)
        specs = ["trivial", sign]
        if rng is not None:
            specs = [rng.choice(specs)]
        items.extend(_analyze_item(path, spec) for spec in specs)
    return items


def carousel_twists(k: int) -> list[int]:
    """Exponents j of the primitive k-th roots of unity zeta_k^j."""
    return [j for j in range(k) if math.gcd(j, k) == 1 or (j == 0 and k == 1)]


def carousel_item(n: int, e: int, sgn: int, k: int, j: int) -> Item:
    return Item(f"{n},{e},{sgn},{k},{j}", "carousel", (n, e, sgn, k, j))


def carousel_grid() -> list[Item]:
    """The 3220-tuple grid of acceptance criterion 3."""
    return [
        carousel_item(n, e, sgn, k, j)
        for n in range(1, MAX_CAROUSEL + 1)
        for e in range(1, n + 1)
        if n % e == 0
        for sgn in (1, -1)
        for k in range(1, MAX_CAROUSEL + 1)
        for j in carousel_twists(k)
    ]


def carousel_draw(rng: random.Random) -> list[Item]:
    """One tuple per (n, e, k) stratum, its sign and root drawn by ``rng``.

    Stratifying on the twist order k keeps the cost of a pass nearly the
    same for every seed: the field degree of the twist sets the scalar cost.
    """
    return [
        carousel_item(n, e, rng.choice((1, -1)), k, rng.choice(carousel_twists(k)))
        for n in range(1, MAX_CAROUSEL + 1)
        for e in range(1, n + 1)
        if n % e == 0
        for k in range(1, MAX_CAROUSEL + 1)
    ]


def build_items(workload: str, seed: int, workdir: Path) -> tuple[list[Item], Item]:
    """The workload's items for this seed, and the fixed item run cold and
    untimed before any measurement."""
    rng = random.Random(seed)
    if workload == "corpus":
        items = corpus_items()
    elif workload == "coxeter-ladder":
        items = cover_items(LADDER, workdir, rng)
    elif workload == "ledger-scale":
        items = cover_items(LEDGER, workdir, None)
    elif workload == "carousel-sweep":
        items = carousel_draw(rng)
        return items, carousel_item(MAX_CAROUSEL, 1, 1, MAX_CAROUSEL, 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the first canonical item: the smallest rung, the trivial character
    cold = items[0] if workload == "corpus" else _analyze_item(
        Path(items[0].args[0]), "trivial"
    )
    return items, cold


# ---------------------------------------------------------------------------
# running and checking one item


class ItemFailure(Exception):
    """An output that breaks a check."""


def run_item(item: Item, reference: dict | None) -> str:
    """Run one item, check its outputs, and return their digest.

    Raises on any failed check, and on a digest that differs from
    ``reference`` unless that is None (when regenerating it)."""
    run = {"analyze": _run_analyze, "control": _run_control, "carousel": _run_carousel}
    digest = run[item.kind](item)
    if reference is not None and digest != reference.get(item.key):
        raise ItemFailure("output differs from the reference digest")
    return digest


def _run_analyze(item: Item) -> str:
    from monodromy import cli

    path, chi = item.args
    report, code, _ = cli.run_analyze(path, chi)
    text = cli.render_report(report)
    check_analyze(report, code)
    return sha256(text)


def check_analyze(report: dict, code: int):
    """Exit 0, no failed verdict, and the dimension identities recomputed
    from the report."""
    if code != 0:
        raise ItemFailure(f"exit {code}, expected 0")
    failed = [v["name"] for v in report["verdicts"] if v["status"] == "fail"]
    if failed:
        raise ItemFailure(f"failed verdicts {failed}")
    ledger = report["m_chi"]["ledger"]
    if ledger["dim_mchi"] != report["group"]["order"]:
        raise ItemFailure("dim_mchi differs from |W|")
    if ledger["dim_m0"] * ledger["index"] != ledger["dim_mchi"]:
        raise ItemFailure("dim_m0 * index differs from dim_mchi")
    hecke = report["hecke"]
    dimension = hecke["predicted_dimension" if hecke["regime"] == "unsupported" else "dimension"]
    if dimension != report["chi_invariants"]["w_chi_zero_order"]:
        raise ItemFailure("Hecke dimension differs from |W_chi^0|")


def _run_control(item: Item) -> str:
    from monodromy import cli

    path, chi, expected_exit = item.args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", path, "--chi", chi])
    check_control(code, expected_exit)
    return sha256(out.getvalue())


def check_control(code: int, expected_exit: int):
    if code != expected_exit:
        raise ItemFailure(f"exit {code}, expected {expected_exit}")


def _run_carousel(item: Item) -> str:
    from monodromy import carousel, cyclo

    n, e, sgn, k, j = item.args
    model = carousel.build_carousel(n, e, sgn, cyclo.zeta(k, j))
    polys = carousel.carousel_minpolys(model)
    check_carousel(model, polys)
    return sha256(canonical(polys.to_json()))


def check_carousel(model, polys):
    """The criterion-3 identities, recomputed here rather than trusted."""
    from monodromy.cyclo import CycNumber, CycPoly, detect_power_factor, theta

    if polys.r.degree != model.n:
        raise ItemFailure(f"R has degree {polys.r.degree}, expected {model.n}")
    if detect_power_factor(polys.r, model.e) != polys.rbar:
        raise ItemFailure("R does not fold to Rbar")
    flipped = theta(polys.rbar)
    d = flipped.degree
    sign = CycNumber.rational(model.sgn**model.e)
    twisted = CycPoly([flipped.coeffs[i] * sign ** ((d + i) % 2) for i in range(d + 1)])
    if polys.rbar_mu != twisted:
        raise ItemFailure("Rbar_mu is not the theta-twisted Rbar")
