"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every identity here is exact (integer or cyclotomic equality, zero
tolerance); the runtime bounds are asserted as part of the criteria.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from monodromy.carousel import build_carousel, carousel_minpolys
from monodromy.cli import main, render_report, run_analyze
from monodromy.cyclo import (
    CycMatrix,
    CycNumber,
    CycPoly,
    detect_power_factor,
    minpoly_matrix,
    theta,
    zeta,
)
from monodromy.extension import character_from_spec
from monodromy.hecke import build_coxeter, build_cyclic, build_product
from monodromy.induce import build_full_r1, build_full_r2, build_i_action
from monodromy.invariants import compute_chi_invariants
from monodromy.reflgrp import catalog, catalog_order, enumerate_group, hyperplanes
from corpus import FIXTURES, FiberRoute, chi_specs, load_datum, manifest

rat = CycNumber.rational

REFERENCE_DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def _positive_runs():
    for entry in manifest():
        if entry["expected_exit"] != 0:
            continue
        path = str(FIXTURES / entry["file"])
        for spec in entry["chi_specs"]:
            spec_str = spec if isinstance(spec, str) else json.dumps(spec)
            yield entry["file"], path, spec_str


def _stamp(name, start, budget):
    elapsed = time.time() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_dimension_identities():
    start = time.time()
    runs = list(_positive_runs())
    data_files = {f for f, _, _ in runs}
    assert len(data_files) >= 12, "corpus must hold at least 12 data"
    per_file = {}
    for f, _, _ in runs:
        per_file[f] = per_file.get(f, 0) + 1
    assert all(n >= 2 for n in per_file.values()), "each datum needs >= 2 characters"
    for fname, path, spec in runs:
        report, code, _ = run_analyze(path, spec)
        assert code == 0, fname
        ledger = report["m_chi"]["ledger"]
        order = report["group"]["order"]
        assert ledger["dim_mchi"] == order
        assert ledger["dim_m0"] == report["chi_invariants"]["w_chi_zero_order"]
        assert ledger["dim_m0"] * ledger["index"] == order
    _stamp("1 dimension-identities", start, 30)


def test_criterion_2_block_decomposition():
    start = time.time()
    checked = 0
    for fname, path, spec in _positive_runs():
        from monodromy.extension import datum_from_json

        datum = datum_from_json(json.loads(Path(path).read_text()))
        chi = character_from_spec(datum, json.loads(spec) if spec != "trivial" else "trivial")
        inv = compute_chi_invariants(datum, chi)
        action = build_i_action(datum, chi, inv)
        ledger = action.ledger
        n = len(datum.group)
        n_chi = len(inv.w_chi)
        # eigenstructure: the tuple of diagonal entries across the kernel,
        # per basis position, is constant on blocks and groups positions
        # into unions of blocks
        position_tuples = []
        matrices = {x: action.matrix(x) for x in datum.kernel}
        for i in range(n):
            position_tuples.append(
                tuple(matrices[x].entries[i][i] for x in datum.kernel)
            )
        for block in ledger.blocks:
            assert block.dimension == n_chi
            tuples = {position_tuples[i] for i in block.elements}
            assert len(tuples) == 1, "block positions disagree on eigenvalues"
        assert len(ledger.blocks) == n // n_chi
        assert sum(b.dimension for b in ledger.blocks) == n
        checked += 1
    assert checked >= 24
    _stamp("2 block-decomposition", start, 10)


def test_criterion_3_carousel_sweep():
    start = time.time()
    # polynomial digests recorded from the seed code; read, never written
    digests = json.loads(REFERENCE_DIGESTS.read_text())["digests"]
    # (order, exponent) of each primitive root of unity used as a twist
    twists = [
        (m, j)
        for m in range(1, 13)
        for j in range(m)
        if math.gcd(j, m) == 1 or (j == 0 and m == 1)
    ]
    count = 0
    for n in range(1, 13):
        for e in (e for e in range(1, n + 1) if n % e == 0):
            for sgn in (1, -1):
                for m, j in twists:
                    model = build_carousel(n, e, sgn, zeta(m, j))
                    polys = carousel_minpolys(model)
                    # the three polynomials, byte for byte
                    encoded = json.dumps(polys.to_json(), sort_keys=True, separators=(",", ":"))
                    got = hashlib.sha256(encoded.encode()).hexdigest()
                    assert got == digests[f"{n},{e},{sgn},{m},{j}"], (n, e, sgn, m, j)
                    # degree identity
                    assert polys.r.degree == n
                    # exponent-support factorization
                    assert detect_power_factor(polys.r, e) == polys.rbar
                    # family monodromy is the signed inverse power
                    k = sgn**e
                    assert model.mu_e == (model.lambda_inv**e) * rat(k)
                    # involution identity, recomputed here
                    flipped = theta(polys.rbar)
                    d = flipped.degree
                    expected = CycPoly(
                        [flipped.coeffs[i] * rat(k) ** ((d + i) % 2) for i in range(d + 1)]
                    )
                    assert polys.rbar_mu == expected
                    count += 1
    assert count >= 500, f"only {count} parameter tuples"
    _stamp(f"3 carousel-sweep[{count} tuples]", start, 60)


def test_criterion_4_hecke_dimensions():
    start = time.time()
    one = rat(1)
    cyclic_consts = [one, -one, zeta(3)]
    for d in range(1, 13):
        for const in cyclic_consts:
            coeffs = [-const] + [rat(0)] * (d - 1) + [one]
            h = build_cyclic(CycPoly(coeffs))
            assert h.dimension == d
            assert minpoly_matrix(h.generators["t"]) == h.params["t"]
    quadratics = [
        CycPoly([rat(-1), rat(0), one]),                 # z^2 - 1
        CycPoly([rat(-3), rat(-2), one]),                # (z-3)(z+1)
        CycPoly([-zeta(4), one - zeta(4), one]),         # (z-zeta_4)(z+1)
    ]
    families = [
        ("A1", catalog(1, 1, 2)),
        ("A2", catalog(1, 1, 3)),
        ("B2", catalog(2, 1, 2)),
        ("A3", catalog(1, 1, 4)),
        ("I2(5)", catalog(5, 5, 2)),
        ("I2(6)", catalog(6, 6, 2)),
        ("I2(7)", catalog(7, 7, 2)),
        ("I2(8)", catalog(8, 8, 2)),
    ]
    for name, gens in families:
        group = enumerate_group(gens)
        arr = hyperplanes(group)
        for rbar in quadratics:
            params = {arr[a].orbit_id: rbar for a in range(len(arr))}
            h = build_coxeter(arr, params)
            assert h.dimension == len(group), name
            for key, m in h.generators.items():
                assert minpoly_matrix(m) == h.params[key], name
    prod = build_product(
        [build_cyclic(CycPoly([-zeta(3), rat(0), rat(0), one])),
         build_cyclic(CycPoly([rat(-1), rat(0), one]))]
    )
    assert prod.dimension == 6
    for key, m in prod.generators.items():
        assert minpoly_matrix(m) == prod.params[key]
    g = enumerate_group(catalog(1, 1, 2))
    cox = build_coxeter(hyperplanes(g), {0: quadratics[1]})
    mixed = build_product([build_cyclic(CycPoly([-zeta(4), one]))] + [cox])
    assert mixed.dimension == 2
    _stamp("4 hecke-dimensions", start, 60)


def test_criterion_5_involution():
    start = time.time()
    rng = random.Random(12)
    coeff_pool = [zeta(12, k) for k in range(12)]
    for _ in range(200):
        deg = rng.randint(1, 7)
        coeffs = []
        for _ in range(deg):
            c = rat(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
            c = c + rng.choice(coeff_pool) * rng.randint(0, 2)
            coeffs.append(c)
        if coeffs[0].is_zero():
            coeffs[0] = zeta(12, rng.randrange(12))
        p = CycPoly(coeffs + [rat(1)])
        q = theta(p)
        assert q.degree == p.degree
        assert theta(q) == p
    _stamp("5 involution", start, 5)


def test_criterion_6_representation_consistency():
    start = time.time()
    from monodromy.extension import datum_from_json

    full_modules = 0
    for fname, path, spec in _positive_runs():
        datum = datum_from_json(json.loads(Path(path).read_text()))
        assert len(datum.kernel) <= 12
        report, code, _ = run_analyze(path, spec)
        assert code == 0
        regime = report["m_chi"]["regime"]
        if regime not in ("R1", "R2"):
            continue
        full_modules += 1
        # the module's own exhaustive checks are part of the report
        names = {v["name"]: v["status"] for v in report["verdicts"]}
        conj = [k for k in names if k.startswith("conjugation[")]
        inertia = [k for k in names if k.startswith("inertia_restriction[")]
        if report["group"]["hyperplanes"]:
            assert conj, fname
        assert all(names[k] == "pass" for k in conj), fname
        assert inertia and all(names[k] == "pass" for k in inertia), fname
        for k in (k for k in names if k.startswith("braid_relation")):
            assert names[k] == "pass", fname
    assert full_modules >= 10
    # independent spot check with direct matrix arithmetic
    datum = load_datum("s3xs3_over_v4")
    spec = chi_specs("s3xs3_over_v4")[1]
    chi = character_from_spec(datum, spec)
    inv = compute_chi_invariants(datum, chi)
    module = build_full_r1(datum, chi, inv)
    route = FiberRoute(datum)
    for alpha in module.gen_matrices:
        sigma = route.r_tilde(((alpha, 1),))
        rep_s = module.gen_matrices[alpha]
        for x in datum.kernel:
            conj_elem = route.fiber_mul(
                route.fiber_mul(sigma, route.embed_inertia(x)), route.fiber_inv(sigma)
            )
            lhs = rep_s * module.i_matrices[x] * rep_s.inverse()
            assert lhs == module.represent(route.inertia_part(conj_elem), conj_elem.word)
    _stamp("6 representation-consistency", start, 30)


def test_criterion_7_group_engine_oracles():
    start = time.time()
    for m in range(1, 7):
        for p in (p for p in range(1, m + 1) if m % p == 0):
            for r in range(1, 4):
                group = enumerate_group(catalog(m, p, r))
                assert len(group) == catalog_order(m, p, r), (m, p, r)
                if len(group) > 200:
                    continue
                arr = hyperplanes(group)
                reflections = sum(
                    1
                    for i in range(1, len(group))
                    if (group.elements[i] - CycMatrix.identity(group.rank)).rank() == 1
                )
                assert sum(h.order - 1 for h in arr.hyperplanes) == reflections, (m, p, r)
                for w in range(len(group)):
                    w_inv = group.inv(w)
                    for a in range(len(arr)):
                        b = arr.act(w, a)
                        s = arr[a].distinguished_generator
                        assert (
                            group.mul(group.mul(w, s), w_inv)
                            == arr[b].distinguished_generator
                        ), (m, p, r, w, a)
    _stamp("7 group-engine-oracles", start, 60)


def test_criterion_8_golden_reports():
    start = time.time()
    for fname, path, spec in _positive_runs():
        first = render_report(run_analyze(path, spec)[0])
        second = render_report(run_analyze(path, spec)[0])
        assert first == second, f"{fname}: report not byte-identical"
    negative = [e for e in manifest() if e["expected_exit"] != 0]
    assert len(negative) >= 3
    assert {e["expected_exit"] for e in negative} == {2, 3, 4}
    for entry in negative:
        spec = entry["chi_specs"][0]
        spec_str = spec if isinstance(spec, str) else json.dumps(spec)
        code = main(["analyze", str(FIXTURES / entry["file"]), "--chi", spec_str])
        assert code == entry["expected_exit"], entry["file"]
    _stamp("8 golden-reports", start, 30)
