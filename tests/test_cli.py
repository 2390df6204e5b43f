import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodromy.cli import _hecke_stage, main, run_analyze, run_carousel, run_catalog, render_report
from monodromy.cyclo import CycMatrix, CycNumber, CycPoly, zeta
from monodromy.errors import IntegrityError, ParseError
from monodromy.extension import Character, datum_to_json
from monodromy.fixtures import direct_product_datum
from monodromy.reflgrp import catalog
from monodromy.invariants import compute_chi_invariants
from corpus import (
    FAMILIES,
    FIXTURES,
    SIGN_TWIST_CHARACTERS,
    SIGN_TWIST_VARIANTS,
    chi_specs,
    load_datum,
    manifest,
    r1_pinned_runs,
    swap_cover,
    unsupported_hecke_run,
)
from test_cyclo import cyc_numbers, dense_matrices

REPO_ROOT = Path(__file__).resolve().parent.parent
# report digests recorded from the seed code; read here, never written
REFERENCE_DIGESTS = REPO_ROOT / "bench" / "reference.json"
# a child process imports the package from the source tree, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    ),
}


def spec_string(spec):
    return spec if isinstance(spec, str) else json.dumps(spec)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes_across_manifest():
    for entry in manifest():
        path = str(FIXTURES / entry["file"])
        spec = spec_string(entry["chi_specs"][0])
        code = main(["analyze", path, "--chi", spec])
        assert code == entry["expected_exit"], entry["file"]


def test_negative_controls_cover_all_nonzero_exits():
    codes = {e["expected_exit"] for e in manifest() if e["expected_exit"]}
    assert codes == {2, 3, 4}


def _set_splitting_list(datum):
    datum["splitting"] = list(datum["splitting"].values())


def _set_zero_denominator(datum):
    datum["group"]["generators"][0][0][0]["terms"][0][1] = 0


def _set_splitting_out_of_range(datum):
    datum["splitting"][next(iter(datum["splitting"]))] = 10**6


def _set_wtilde_generator_out_of_range(datum):
    datum["wtilde"]["generators"][0] = 10**6


def _set_wtilde_generator_object(datum):
    datum["wtilde"]["generators"][0] = {}


# entry (0, 1) of the first generator is 1, written [[1, 1, 0]]; the
# spellings below would truncate to that same value


def _set_float_numerator(datum):
    datum["group"]["generators"][0][0][1]["terms"][0][0] = 1.0


def _set_bool_numerator_string_denominator(datum):
    datum["group"]["generators"][0][0][1]["terms"][0][:2] = [True, "1"]


def _set_float_projection(datum):
    datum["q"][0] = 0.0


def _set_string_splitting_value(datum):
    key = next(iter(datum["splitting"]))
    datum["splitting"][key] = str(datum["splitting"][key])


def _set_bool_tau_value(datum):
    datum["tau"][next(iter(datum["tau"]))] = True


def _set_float_sign(datum):
    datum["sgn"] = {"0": 1.0}


# s3_split_z2 has the three hyperplanes 0, 1 and 2


def _set_sign_key_off_arrangement(datum):
    datum["sgn"] = {"3": -1}


def _set_twist_key_off_arrangement(datum):
    datum["twist"] = {"99": {"order": 1, "terms": [[1, 1, 0]]}}


def _set_local_subgroup_key_off_arrangement(datum):
    datum["wtilde_alpha"] = {"-1": [0]}


def _set_float_name(datum):
    datum["name"] = 1.5  # the report repeats the name


def _set_braid_letter(letter):
    """Replace the first letter of the datum's braid relation."""

    def mutate(datum):
        datum["braid_relations"][0][0][0] = letter

    return mutate


def _set_local_subgroup_members(members):
    def mutate(datum):
        datum["wtilde_alpha"] = {"0": members}

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set_splitting_list,
        _set_zero_denominator,
        _set_splitting_out_of_range,
        _set_wtilde_generator_out_of_range,
        _set_wtilde_generator_object,
        _set_float_numerator,
        _set_bool_numerator_string_denominator,
        _set_float_projection,
        _set_string_splitting_value,
        _set_bool_tau_value,
        _set_float_sign,
        _set_sign_key_off_arrangement,
        _set_twist_key_off_arrangement,
        _set_local_subgroup_key_off_arrangement,
        _set_float_name,
        _set_braid_letter([3, 1]),  # s3_split_z2 has three hyperplanes
        _set_braid_letter([-1, 1]),
        _set_braid_letter([0, 5]),
        _set_braid_letter([0, 0]),
        _set_braid_letter([0, -2]),
        _set_local_subgroup_members([0, 10**6]),  # the cover has 12 elements
        _set_local_subgroup_members([-1]),
    ],
    ids=[
        "splitting_as_list",
        "zero_denominator",
        "splitting_out_of_range",
        "wtilde_generator_out_of_range",
        "wtilde_generator_object",
        "float_numerator",
        "bool_numerator_string_denominator",
        "float_projection",
        "string_splitting_value",
        "bool_tau_value",
        "float_sign",
        "sign_key_off_arrangement",
        "twist_key_off_arrangement",
        "local_subgroup_key_off_arrangement",
        "float_name",
        "braid_letter_off_arrangement",
        "braid_letter_negative_hyperplane",
        "braid_letter_exponent",
        "braid_letter_exponent_zero",
        "braid_letter_exponent_minus_two",
        "local_subgroup_member_off_cover",
        "local_subgroup_member_negative",
    ],
)
def test_malformed_datum_is_parse_error(mutate, tmp_path, capsys):
    datum = json.loads((FIXTURES / "s3_split_z2.json").read_text())
    mutate(datum)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(datum))
    assert main(["analyze", str(path), "--chi", "trivial"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# the two smallest positive data of the corpus
FUZZ_FIXTURES = ["trivial_w_z2.json", "s3_over_s2.json"]
WRONG_TYPES = [None, True, 1.5, "x", [], {}]
# a negative index, the orders of W and of the covering group in these data
# (one past their last index), and a huge index
OUT_OF_RANGE = [-1, 1, 2, 6, 10**6]


def _json_paths(node, prefix=()):
    """Paths of every node below the root of a JSON value."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _node(datum, path):
    for key in path:
        datum = datum[key]
    return datum


def _mutate(data, datum):
    """One random damage: a wrong JSON type, an out-of-range integer, a
    deleted key or element, a truncated list, or a zero denominator."""
    paths = list(_json_paths(datum))
    terms = [
        p for p in paths
        if len(p) > 1 and p[-2] == "terms" and isinstance(_node(datum, p), list) and len(_node(datum, p)) == 3
    ]
    kind = data.draw(st.sampled_from(["wrong_type", "out_of_range", "delete", "truncate", "zero_denominator"]))
    if kind == "zero_denominator" and terms:
        _node(datum, data.draw(st.sampled_from(terms)))[1] = 0
        return
    path = data.draw(st.sampled_from(paths))
    parent, key = _node(datum, path[:-1]), path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "truncate" and isinstance(parent[key], list):
        del parent[key][data.draw(st.integers(0, len(parent[key]))):]
    elif kind == "out_of_range":
        parent[key] = data.draw(st.sampled_from(OUT_OF_RANGE))
    else:
        parent[key] = data.draw(st.sampled_from(WRONG_TYPES))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_datum_ends_in_documented_exit(tmp_path_factory, data):
    name = data.draw(st.sampled_from(FUZZ_FIXTURES))
    datum = json.loads((FIXTURES / name).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, datum)
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "datum.json"
    path.write_text(json.dumps(datum))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", str(path), "--chi", "trivial", "--out", str(directory / "report.json")])
    assert code in (0, 2, 3, 4)


def test_sign_checks_refuse_a_kernel_that_is_not_closed(tmp_path):
    # with q[3] changed, q is no homomorphism and the kernel {0, 4} is not
    # closed: 4 * 4 = 3 has no sign, so tau.multiplicative fails instead
    # of raising a KeyError
    datum = json.loads((FIXTURES / "s3_over_s2.json").read_text())
    datum["q"][3] = 1
    del datum["tau"]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    report, code, _ = run_analyze(str(path), "trivial")
    assert code == 3
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert verdicts["q.homomorphism"]["status"] == "fail"
    assert verdicts["tau.multiplicative"]["status"] == "fail"


# int() reads each of these as 0; a key must be spelled as str() spells it
NON_CANONICAL_ZERO = ["00", " 0 ", "0_0", "+0", "-0"]
ZERO_KEYED = {
    "splitting": None,  # the datum's own entry at "0", renamed
    "tau": None,
    "wtilde_alpha": [0, 6],
    "sgn": -1,
    "twist": {"order": 1, "terms": [[1, 1, 0]]},
}


@pytest.mark.parametrize("key", NON_CANONICAL_ZERO)
@pytest.mark.parametrize("section", sorted(ZERO_KEYED))
def test_non_canonical_datum_key_is_parse_error(section, key, tmp_path, capsys):
    datum = json.loads((FIXTURES / "s3_split_z2.json").read_text())
    entries = datum.setdefault(section, {})
    entries[key] = entries.pop("0") if ZERO_KEYED[section] is None else ZERO_KEYED[section]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    assert main(["analyze", str(path), "--chi", "trivial"]) == 2
    assert f"expected an integer key, got {key!r}" in capsys.readouterr().err


def test_non_canonical_spec_and_override_keys_are_parse_errors(tmp_path, capsys):
    path = str(FIXTURES / "s3_over_s2.json")
    # "03" once sat beside "3" and silently replaced its exponent
    assert main(["analyze", path, "--chi", '{"3": 1, "03": 2, "modulus": 3}']) == 2
    assert main(["analyze", path, "--chi", '{"modulus": 3, "values": {" 3": 1}}']) == 2
    override = tmp_path / "rbar.json"
    override.write_text(json.dumps({"00": CycPoly([CycNumber.rational(1)] * 2).to_json()}))
    assert main(["analyze", path, "--chi", "trivial", "--rbar", str(override)]) == 2
    err = capsys.readouterr().err
    for key in ("03", " 3", "00"):
        assert f"expected an integer key, got {key!r}" in err


def test_missing_file_is_parse_error(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.json"), "--chi", "trivial"]) == 2


def test_bad_chi_spec_is_parse_error():
    path = str(FIXTURES / "s3_over_s2.json")
    assert main(["analyze", path, "--chi", "{not json"]) == 2
    # a float modulus is refused, not truncated
    assert main(["analyze", path, "--chi", '{"modulus": 3.0, "values": {"3": 1}}']) == 2
    # a float or NaN anywhere in the spec, even where the spec is only
    # echoed into the report, and a key beside the nested values
    assert main(["analyze", path, "--chi", '{"modulus": 3, "values": {"3": 0}, "note": 1.5}']) == 2
    assert main(["analyze", path, "--chi", '{"modulus": 3, "values": {"3": NaN}}']) == 2
    assert main(["analyze", path, "--chi", '{"modulus": 3, "values": {"3": 0}, "note": "x"}']) == 2
    assert main(["analyze", str(FIXTURES / "neg_bad_q.json"), "--chi", "[1.5]"]) == 2


def test_chi_spec_value_is_parsed_like_its_text():
    # a float is refused before validation fails, not left for the writer
    with pytest.raises(ParseError):
        run_analyze(
            str(FIXTURES / "neg_bad_q.json"),
            {"modulus": 3, "values": {"3": 0}, "x": 1.5},
        )
    with pytest.raises(ParseError):
        run_analyze(str(FIXTURES / "s3_over_s2.json"), {"modulus": 3, "values": {1, 2}})
    # an int key reads as the string key of its JSON text
    path = str(FIXTURES / "s3_over_s2.json")
    report, code, _ = run_analyze(path, {3: 1, "modulus": 3})
    text, text_code, _ = run_analyze(path, '{"3": 1, "modulus": 3}')
    assert code == text_code == 0
    assert report["chi_spec"] == {"3": 1, "modulus": 3}
    assert render_report(report) == render_report(text)


def test_base_group_larger_than_cover_is_refused_at_once(tmp_path, capsys):
    # the generator [[2]] has infinite order; the closure stops at the
    # order of the covering group, which q maps onto the base group
    datum = json.loads((FIXTURES / "trivial_w_z2.json").read_text())
    datum["group"]["generators"][0][0][0]["terms"][0][0] = 2
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["analyze", str(path), "--chi", "trivial", "--out", str(out)])
    assert time.perf_counter() - start < 1
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "larger than the covering group" in err
    assert not out.exists()


def test_infinite_dihedral_base_group_is_refused_at_once(tmp_path, capsys):
    # two involutions whose product [[-1, 0], [2, -1]] has infinite order
    # generate an infinite dihedral group; each generator alone is finite
    datum = json.loads((FIXTURES / "b2_split_z2.json").read_text())
    datum["group"]["generators"] = [
        CycMatrix([[CycNumber.rational(x) for x in row] for row in m]).to_json()
        for m in ([[-1, 0], [0, 1]], [[1, 0], [2, -1]])
    ]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["analyze", str(path), "--chi", "trivial", "--out", str(out)])
    assert time.perf_counter() - start < 1
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "larger than the covering group" in err
    assert not out.exists()


def test_field_overflow_inside_closure_stays_capacity_error(tmp_path, capsys):
    # zeta_13 * zeta_11 needs order 143, past the cyclotomic bound; the
    # closure meets it before its own cap, and it is not a group-size error
    datum = json.loads((FIXTURES / "trivial_w_z2.json").read_text())
    datum["group"]["generators"] = [
        [[{"order": n, "terms": [[1, 1, 1]]}]] for n in (13, 11)
    ]
    datum["wtilde"] = {"order": 4, "table": [[(a + b) % 4 for b in range(4)] for a in range(4)]}
    datum["q"] = [0, 0, 0, 0]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    assert main(["analyze", str(path), "--chi", "trivial"]) == 2
    assert "cyclotomic order 143" in capsys.readouterr().err


def test_inconsistent_chi_spec_is_validation_error():
    path = str(FIXTURES / "s3_over_s2.json")
    spec = json.dumps({"modulus": 2, "values": {"3": 1}})
    assert main(["analyze", path, "--chi", spec]) == 3


def test_rbar_override_wrong_degree_is_validation_error(tmp_path):
    from monodromy.cyclo import CycNumber, CycPoly

    bad = CycPoly([CycNumber.rational(-1), CycNumber.rational(0), CycNumber.rational(1)])
    override = tmp_path / "rbar.json"
    override.write_text(json.dumps({"0": bad.to_json()}))
    path = str(FIXTURES / "s3_over_s2.json")
    spec = json.dumps({"modulus": 3, "values": {"3": 1}})  # full-jump regime
    assert main(["analyze", path, "--chi", spec, "--rbar", str(override)]) == 3


def test_rbar_override_off_arrangement_is_validation_error(tmp_path):
    from monodromy.cyclo import CycNumber, CycPoly

    # a relation of the right degree, keyed by a hyperplane the datum lacks
    rbar = CycPoly([CycNumber.rational(-1), CycNumber.rational(0), CycNumber.rational(1)])
    override = tmp_path / "rbar.json"
    override.write_text(json.dumps({"99": rbar.to_json()}))
    path = str(FIXTURES / "s3_over_s2.json")
    report, code, _ = run_analyze(path, "trivial", rbar_path=str(override))
    assert code == 3
    assert report["error"].startswith("parameter error: ")
    assert "99" in report["error"]


def test_b2_with_quadratic_override(tmp_path):
    # generic quadratic relation at a numeric parameter: (z - 3)(z + 1)
    from monodromy.cyclo import CycNumber, CycPoly

    rbar = CycPoly(
        [CycNumber.rational(-3), CycNumber.rational(-2), CycNumber.rational(1)]
    )
    override = tmp_path / "rbar.json"
    override.write_text(json.dumps({str(a): rbar.to_json() for a in range(4)}))
    path = str(FIXTURES / "b2_split_z2.json")
    report, code, _ = run_analyze(path, "trivial", rbar_path=str(override))
    assert code == 0
    assert report["m_chi"]["regime"] == "R2"
    assert report["m_chi"]["ledger"]["dim_mchi"] == 8
    assert report["hecke"]["dimension"] == 8
    for gen in report["hecke"]["generators"].values():
        assert gen["relation"] == rbar.to_json()
        assert gen["minimal_polynomial"] == rbar.to_json()


def test_proper_reflection_subgroup_gets_its_own_coxeter_algebra(tmp_path):
    """chi = (-1, 1) is fixed by the sign changes and moved by the swaps, so
    W_chi^0 = <s_x, s_y> is a proper, non-cyclic reflection subgroup: its
    algebra is built over the restricted subgroup, and the module stays
    ledger-only."""
    datum, (x, y) = swap_cover("b2_swap_cover", (2, 1, 2))
    path = tmp_path / "b2_swap_cover.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    spec = {str(x): 1, str(y): 0, "modulus": 2}
    report, code, warnings = run_analyze(str(path), spec)
    assert code == 0, report.get("error")
    assert report["chi_invariants"]["w_chi_order"] == 4
    assert report["chi_invariants"]["w_chi_zero_order"] == 4
    assert report["hecke"]["regime"] == "coxeter"
    assert report["hecke"]["dimension"] == 4
    assert len(report["hecke"]["generators"]) == 2
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert verdicts["hecke.dimension"]["status"] == "pass"
    assert all(v["status"] != "fail" for v in report["verdicts"])
    assert report["m_chi"]["regime"] == "ledger-only"
    assert any("full module unavailable" in w for w in warnings)


# sha256 of the rendered report of each character {x: a, y: b} of the cover
B2_SWAP_DIGESTS = {
    (0, 0): "c0b0937b055c000a4ddd2404a699bf94132e13c485316bd6a722e04636b8892f",
    (0, 1): "47d95822523499d688bcef1d80415bd1ac79d0fc144274ae28a9c35e675aea13",
    (1, 0): "29e7afb40ced3b8a7463b5ba7d54c2b2b46e45245f1f9fe182b505b8725fb65d",
    (1, 1): "777a91e9deb85b322bc11374f4e1905a200756d4c4c444a44264481398293117",
}


def test_b2_swap_cover_reports_match_recorded_digests(tmp_path):
    """Two of the four characters build the Hecke algebra of a proper
    reflection subgroup, a path that no reference digest covers, so the
    report bytes of all four are pinned here."""
    datum, (x, y) = swap_cover("b2_swap_cover", (2, 1, 2))
    path = tmp_path / "b2_swap_cover.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    for (a, b), digest in B2_SWAP_DIGESTS.items():
        report, code, _ = run_analyze(str(path), {str(x): a, str(y): b, "modulus": 2})
        assert code == 0, report.get("error")
        assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest, (a, b)


# sha256 of the rendered report of each datum variant of b2_split_z2
# (corpus.SIGN_TWIST_VARIANTS) under each character
SIGN_TWIST_DIGESTS = {
    ("sgn", "trivial"): "3a2748db8080e66f8c82b302ceb4889d89571e949237d812e8ad2063e36ebf61",
    ("sgn", "8"): "be5f796f987d0aaa96bf6a6fd189795152bad9fa83e55086fb888979a31c985e",
    ("twist", "trivial"): "e22e1b2c0e228342e977a92e1b74fde3d82036757c43ee012b42eb1b2ecb5835",
    ("twist", "8"): "51b2983b0782b5d307f5457a962cc01cdaa210a9b88af69ca51dacc0d6a80989",
    ("twist+sgn", "trivial"): "ffb756b0f0e167ea6aae9421d686eb6071a35eedcc813416043bb74c6b7df86f",
    ("twist+sgn", "8"): "427f271ce599c1220ed11b40a6caf0ac28f388f4111fdbe8eac1d8fc93248957",
}


def test_sign_and_twist_datum_reports_match_recorded_digests(tmp_path):
    """No fixture sets the datum's sign or wrap-around scalars, so the
    carousel inputs they give are pinned here, each run in regime R2."""
    base = json.loads((FIXTURES / "b2_split_z2.json").read_text())
    for (variant, chi), digest in SIGN_TWIST_DIGESTS.items():
        path = tmp_path / "b2_variant.json"
        path.write_text(json.dumps({**base, **SIGN_TWIST_VARIANTS[variant]}))
        report, code, _ = run_analyze(str(path), SIGN_TWIST_CHARACTERS[chi])
        assert code == 0, (variant, chi, report.get("error"))
        assert report["m_chi"]["regime"] == "R2"
        assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest, (
            variant, chi,
        )


def test_sign_datum_must_be_constant_on_a_stabilizer_orbit(tmp_path):
    base = json.loads((FIXTURES / "b2_split_z2.json").read_text())
    path = tmp_path / "b2_one_sign.json"
    path.write_text(json.dumps({**base, "sgn": {"0": -1}}))
    report, code, _ = run_analyze(str(path), "trivial")
    assert code == 4
    assert report["error"] == (
        "integrity error: sign datum is not constant on the stabilizer orbit [0, 3]"
    )


# sha256 of the rendered report of every character of each cover, keyed by
# the exponents of its kernel generators.  The swap and det covers were
# recorded before the Hecke stage restricted W's table and arrangement to a
# proper reflection subgroup, the sign covers before the kernel characters
# left the package
FAMILY_DIGESTS = Path(__file__).resolve().parent / "family_digests.json"


def test_family_reports_match_recorded_digests(tmp_path):
    """Every character of the swap, det and sign covers: 30 of the 56 runs
    have a proper reflection subgroup W_chi^0, and 26 build its Coxeter
    algebra.  The other 4 meet order-4 hyperplanes in order 2: their
    W_chi^0 is the non-real G(4,2,2) or G(4,2,3), which has no Coxeter
    system, so their Hecke regime is unsupported.  12 sign-cover runs are
    R1 with W_chi^0 = 1 inside a larger W_chi.  Each run also passes the
    benchmark's identities."""
    recorded = json.loads(FAMILY_DIGESTS.read_text())
    proper = partial = r1_inside = 0
    for name, build, mpr, modulus in FAMILIES:
        datum, gens = build(name, mpr)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        assert len(recorded[name]) == modulus ** len(gens), name
        for key, digest in recorded[name].items():
            spec = {str(g): int(e) for g, e in zip(gens, key)}
            report, code, _ = run_analyze(str(path), {**spec, "modulus": modulus})
            assert code == 0, (name, key, report.get("error"))
            assert all(v["status"] != "fail" for v in report["verdicts"]), (name, key)
            ledger, hecke = report["m_chi"]["ledger"], report["hecke"]
            inv = report["chi_invariants"]
            assert ledger["dim_mchi"] == report["group"]["order"]
            assert ledger["dim_m0"] * ledger["index"] == ledger["dim_mchi"]
            dimension = hecke.get("dimension", hecke.get("predicted_dimension"))
            assert dimension == inv["w_chi_zero_order"], (name, key)
            assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest, (
                name, key,
            )
            if 1 < inv["w_chi_zero_order"] < len(datum.group):
                orders = [h["order"] for h in report["arrangement"]]
                met_partly = any(
                    1 < len(h["stabilizer_meet"]) < orders[h["index"]]
                    for h in inv["per_hyperplane"]
                )
                proper += hecke["regime"] == "coxeter"
                partial += met_partly
                assert hecke["regime"] == ("unsupported" if met_partly else "coxeter"), (name, key)
            r1_inside += report["m_chi"]["regime"] == "R1" and inv["w_chi_order"] > 1
    assert (proper, partial, r1_inside) == (26, 4, 12)


# sha256 of the report of Z/2 x G(4,2,2) with the sign tau, the trivial
# character and (x - 3)(x + 1) on every hyperplane, recorded again when the
# Coxeter build came to try only sets of the rank's size (27 candidates
# before, none now)
UNSUPPORTED_HECKE_DIGEST = "b019811770974725fd2af5bb705b91f0c7e3dbd144eb39907110ba4f2fad2140"


def test_unsupported_hecke_report_matches_recorded_digest(tmp_path):
    """G(4,2,2) is generated by no two of its reflections, so the Coxeter
    build finds no candidate of the rank's size, the Hecke section only
    predicts its dimension, and the module stays ledger-only."""
    path, override = unsupported_hecke_run(tmp_path, (4, 2, 2))
    report, code, warnings = run_analyze(str(path), "trivial", rbar_path=str(override))
    assert code == 0, report.get("error")
    assert report["hecke"] == {
        "regime": "unsupported",
        "predicted_dimension": 16,
        "note": "dimension asserted, not certified here (unsupported regime 'coxeter': "
        "no certified simple system found (0 generating candidates tried))",
    }
    assert report["m_chi"]["regime"] == "ledger-only"
    assert len(warnings) == 2
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == UNSUPPORTED_HECKE_DIGEST


# sha256 of the reports of Z/2 x G(4,4,3) and Z/2 x G(3,3,3) with the sign
# tau, the trivial character and (x - 3)(x + 1) on every hyperplane: some
# sets of the rank's size generate each group, and the Coxeter certificate
# refuses every one of them
CERTIFICATE_REFUSAL_DIGESTS = {
    (4, 4, 3): (128, 96, "d77387458b724548d4820d22d470f5e8c68510ae6c60cbba6d0e21c7346dc723"),
    (3, 3, 3): (72, 54, "feb680ad7ac4495c126a7b355ea3474a23fff9f04e27b66fc373c65969c3d656"),
}


@pytest.mark.parametrize("mpr", CERTIFICATE_REFUSAL_DIGESTS)
def test_coxeter_certificate_refusal_reports_match_recorded_digests(tmp_path, mpr):
    tried, dimension, digest = CERTIFICATE_REFUSAL_DIGESTS[mpr]
    path, override = unsupported_hecke_run(tmp_path, mpr)
    report, code, warnings = run_analyze(str(path), "trivial", rbar_path=str(override))
    assert code == 0, report.get("error")
    assert report["hecke"] == {
        "regime": "unsupported",
        "predicted_dimension": dimension,
        "note": "dimension asserted, not certified here (unsupported regime 'coxeter': "
        f"no certified simple system found ({tried} generating candidates tried))",
    }
    assert report["m_chi"]["regime"] == "ledger-only"
    assert len(warnings) == 2
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest


# sha256 of the rendered report of each run of corpus.r1_pinned_runs, keyed
# by cover and then by convention and spec: the R1 runs under the inverse
# convention and the refusals of a rotation generator, recorded while the
# R1 inertia entries were still built from braid lifts of the coset labels
R1_DIGESTS = Path(__file__).resolve().parent / "r1_digests.json"


def test_r1_reports_match_recorded_digests(tmp_path):
    """17 corpus and sign-family R1 runs under the inverse convention, and
    11 covers' characters under both: Z/7 x| Z/3 in R1, and two rotation
    covers whose 8 runs off the trivial stabilizer refuse R1 with a
    warning."""
    recorded = json.loads(R1_DIGESTS.read_text())
    runs = refused = 0
    for cover, key, path, spec, convention in r1_pinned_runs(tmp_path):
        report, code, warnings = run_analyze(str(path), spec, convention=convention)
        assert code == 0, (cover, key, report.get("error"))
        digest = hashlib.sha256(render_report(report).encode()).hexdigest()
        assert digest == recorded.get(cover, {}).get(key), (cover, key)
        refused += warnings == [
            "full module downgraded to ledger-only: generator in slot 0 is not a "
            "power of a distinguished generator; coset lifts are unavailable"
        ]
        runs += 1
    assert runs == sum(map(len, recorded.values())) == 39
    assert refused == 8


# sha256 of the stdout of each command, recorded before the report writer
# was rewritten: payloads and override paths no reference digest covers
STDOUT_DIGESTS = {
    "catalog": "863f280c1a0e73f41a37b8814c12fd64ebe66ef4f9243a6a9ae314d01ef02e87",
    "carousel": "49851137bf6cf25c97c61f4d87ed0eac9cac64fd70c6937f4daff959a8df0c02",
    "rbar": "1625e2312f12a9099524b6e3256eea283e73ec6915a7349f9802b57547171beb",
    "flip-inertia": "1a4a35bb0ebf181b35d63bf7d73b75e5f4398e139c631293a9d580e61ad54097",
}


def test_stdout_matches_recorded_digests(tmp_path):
    rat = CycNumber.rational
    rbar = CycPoly([rat(-3), rat(-2), rat(1)])  # as in test_b2_with_quadratic_override
    override = tmp_path / "rbar.json"
    override.write_text(json.dumps({str(a): rbar.to_json() for a in range(4)}))
    b2 = ["analyze", str(FIXTURES / "b2_split_z2.json"), "--chi", "trivial"]
    runs = {
        "catalog": ["catalog", "g", "2", "1", "3"],
        "carousel": ["carousel", "--n", "6", "--e", "2", "--sgn", "-1", "--twist", "1/4"],
        "rbar": b2 + ["--rbar", str(override)],
        "flip-inertia": b2 + ["--convention", "flip-inertia"],
    }
    for name, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, name
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_DIGESTS[name], name


# ---------------------------------------------------------------------------
# golden determinism


def test_reports_byte_identical_across_runs():
    for entry in manifest():
        if entry["expected_exit"] != 0:
            continue
        path = str(FIXTURES / entry["file"])
        for spec in entry["chi_specs"]:
            a = render_report(run_analyze(path, spec_string(spec))[0])
            b = render_report(run_analyze(path, spec_string(spec))[0])
            assert a == b


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Z/2 x G(m,p,r) covers with the sign tau, as in the benchmark's ladder
LADDER = (("z2_g114", (1, 1, 4)), ("z2_g213", (2, 1, 3)))


def test_reports_match_reference_digests(tmp_path):
    """Every positive manifest run, and both characters of each ladder
    cover, render the exact bytes recorded in the benchmark reference, so
    no refactor changes a report unnoticed."""
    digests = json.loads(REFERENCE_DIGESTS.read_text())["digests"]
    runs = [
        (FIXTURES / entry["file"], spec)
        for entry in manifest()
        if entry["expected_exit"] == 0
        for spec in entry["chi_specs"]
    ]
    assert len(runs) == 33
    for name, mpr in LADDER:
        datum = direct_product_datum(name, catalog(*mpr), 2, tau_exponent=1)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        generator = next(x for x in datum.kernel if x != datum.wtilde.identity)
        runs += [(path, "trivial"), (path, {str(generator): 1, "modulus": 2})]
    for path, spec in runs:
        report, code, _ = run_analyze(str(path), spec_string(spec))
        assert code == 0, path.name
        got = hashlib.sha256(render_report(report).encode()).hexdigest()
        assert got == digests[f"{path.name}|{canonical_json(spec)}"], (path.name, spec)


# ---------------------------------------------------------------------------
# report writer


def _as_lists(obj):
    """The report as it was before matrices stayed CycMatrix objects."""
    if isinstance(obj, CycMatrix):
        return obj.to_json()
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(value) for value in obj]
    return obj


def oracle_render(obj) -> str:
    return json.dumps(_as_lists(obj), indent=2, sort_keys=True) + "\n"


def test_render_matches_json_dumps_on_every_payload(tmp_path):
    """Every manifest run that reaches a report (negative controls too),
    both characters of each ladder cover, a catalog and a carousel payload
    render to the bytes json.dumps gives for their list form."""
    runs = [
        (FIXTURES / entry["file"], spec)
        for entry in manifest()
        for spec in entry["chi_specs"]
    ]
    for name, mpr in LADDER:
        datum = direct_product_datum(name, catalog(*mpr), 2, tau_exponent=1)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        generator = next(x for x in datum.kernel if x != datum.wtilde.identity)
        runs += [(path, "trivial"), (path, {str(generator): 1, "modulus": 2})]
    payloads = []
    for path, spec in runs:
        try:
            payloads.append(run_analyze(str(path), spec_string(spec))[0])
        except ParseError:
            assert path.name == "neg_parse_error.json"
    assert len(payloads) == len(runs) - 1
    # the R1/R2 module sections hold matrices, not their JSON lists
    matrices = [
        m
        for payload in payloads
        for section in ("generator_matrices", "inertia_matrices")
        for m in payload.get("m_chi", {}).get(section, {}).values()
    ]
    # so do the carousel models, of analyze reports and carousel payloads
    carousels = [run_carousel(6, 2, -1, zeta(4)), run_carousel(1, 1, 1, zeta(1))]
    models = [
        section["model"] for payload in payloads for section in payload.get("carousel", [])
    ] + [payload["model"] for payload in carousels]
    assert len(models) > len(carousels)
    matrices += [model[key] for model in models for key in ("lambda_inv", "mu_e")]
    assert matrices and all(isinstance(m, CycMatrix) for m in matrices)
    payloads += [run_catalog("g", 2, 1, 3)] + carousels
    for payload in payloads:
        assert render_report(payload) == oracle_render(payload)


json_keys = st.one_of(
    st.text(max_size=6),
    st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7fé€😀a'), max_size=6),
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: dense_matrices(*shape)
    ).map(CycMatrix),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(json_keys, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=100, deadline=None)
@given(json_trees)
def test_render_matches_json_dumps_on_random_trees(tree):
    assert render_report(tree) == oracle_render(tree)


def test_render_edge_cases():
    x = zeta(12, 5) + 1
    matrices = [
        CycMatrix([[x]]),  # 1 x 1
        CycMatrix([[0, 0, 0], [x, 0, 0], [0, 0, x]]),  # zero row, trailing zeros
        CycMatrix([[0]]),
    ]
    tree = {
        "a": {}, "b": [[], {"c": [], "d": {}}], "m": matrices, "": [[[matrices[1]]]],
        "equal leaves of other types": [1, True, 0, False, None, "1", "true"],
    }
    assert render_report(tree) == oracle_render(tree)
    # json.dumps escapes a NUL in a key or a string, so only a matrix marks the text
    nul = {"\x00": "\x00", "m": matrices[1], "l": ["\x00", matrices[0], {"\x00": matrices[2]}]}
    assert render_report(nul) == oracle_render(nul)
    assert render_report([]) == "[]\n" and render_report({}) == "{}\n"
    # json.dumps would write a non-str key as a string; floats never enter
    for bad in ({1: "x"}, {True: 0}, {"a": [{None: 0}]}, {"a": {("b",): 0}}, {"a": [0.5]},
                [zeta(3)]):
        with pytest.raises(TypeError):
            render_report(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", str(FIXTURES / "trivial_w_z2.json"), "--chi", "trivial"],
        ["catalog", "g", "2", "1", "2"],
        ["carousel", "--n", "4", "--e", "2"],
    ],
    ids=["analyze", "catalog", "carousel"],
)
def test_unwritable_out_is_usage_error(argv, tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "monodromy.cli", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {out}")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", str(FIXTURES / "trivial_w_z2.json"), "--chi", "trivial"],
        ["catalog", "g", "1", "1", "2"],
        ["carousel", "--n", "1", "--e", "1"],
    ],
    ids=["analyze", "catalog", "carousel"],
)
def test_closed_stdout_pipe_is_usage_error(argv):
    """A stdout pipe with no reader is a usage error, also when stdout is
    block-buffered and the report fits in the buffer, so that the first
    write to the pipe would be the flush at interpreter exit."""
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monodromy.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_out_file_holds_the_rendered_report(tmp_path):
    path = str(FIXTURES / "b2_split_z2.json")
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--chi", "trivial", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == render_report(run_analyze(path, "trivial")[0])


def test_report_has_required_sections():
    path = str(FIXTURES / "quaternion_over_v4.json")
    report, code, _ = run_analyze(path, "trivial")
    assert code == 0
    for section in (
        "schema_version", "fingerprint", "group", "arrangement", "validation",
        "chi_invariants", "carousel", "hecke", "m_chi", "verdicts",
    ):
        assert section in report
    names = [v["name"] for v in report["verdicts"]]
    assert len(names) == len(set(names))  # each check appears exactly once


# ---------------------------------------------------------------------------
# convention flag


def test_flip_inertia_convention():
    path = str(FIXTURES / "s4_over_s3.json")
    spec = chi_specs("s4_over_s3")[1]
    left, code_l, _ = run_analyze(path, spec_string(spec), convention="left")
    flip, code_f, _ = run_analyze(path, spec_string(spec), convention="inverse")
    assert code_l == code_f == 0
    # same block dimensions; over a nonabelian base the coset structure differs
    l_blocks = left["m_chi"]["ledger"]["blocks"]
    f_blocks = flip["m_chi"]["ledger"]["blocks"]
    assert [b["dimension"] for b in l_blocks] == [b["dimension"] for b in f_blocks]
    assert [b["elements"] for b in l_blocks] != [b["elements"] for b in f_blocks]


def test_convention_override_is_the_datum_key(tmp_path):
    path = str(FIXTURES / "s4_over_s3.json")
    spec = chi_specs("s4_over_s3")[1]
    inverse, _, _ = run_analyze(path, spec, convention="inverse")
    alias, code, _ = run_analyze(path, spec, convention="flip-inertia")
    assert code == 0
    assert render_report(alias) == render_report(inverse)
    assert alias["convention"] == "inverse"
    with pytest.raises(ParseError):
        run_analyze(path, spec, convention="right")
    # a datum file that is not a JSON object stays a parse error
    listed = tmp_path / "listed.json"
    listed.write_text("[1]")
    with pytest.raises(ParseError):
        run_analyze(str(listed), "trivial", convention="inverse")


def test_relation_polynomials_must_agree_on_a_whole_group_orbit():
    d = load_datum("s3_split_z2")
    inv = compute_chi_invariants(d, Character.trivial(d.kernel))
    assert len(inv.w_chi_zero) == len(d.group)
    assert d.arrangement.orbits() == [[0, 1, 2]]
    rat = CycNumber.rational
    z2_minus = {a: CycPoly([rat(-1), rat(0), rat(1)]) for a in range(3)}
    algebra, _ = _hecke_stage(d, inv, z2_minus)
    assert algebra.dimension == 6
    with pytest.raises(IntegrityError, match="disagree on subgroup orbit"):
        _hecke_stage(d, inv, {**z2_minus, 2: CycPoly([rat(-2), rat(1), rat(1)])})


# ---------------------------------------------------------------------------
# other subcommands


def test_catalog_subcommand_output():
    obj = run_catalog("g", 3, 1, 2)
    assert obj["order"] == 18
    assert obj["rank"] == 2
    assert len(obj["generators"]) == 2


def test_carousel_subcommand_output():
    from monodromy.cyclo import zeta

    obj = run_carousel(4, 2, -1, zeta(4))
    assert obj["model"]["n"] == 4
    assert len(obj["polynomials"]["R"]) == 5


def test_cli_process_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "monodromy.cli",
            "analyze", str(FIXTURES / "s3_over_s2.json"),
            "--chi", "trivial",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["m_chi"]["regime"] == "R2"
