import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodromy.cli import main, run_analyze, run_carousel, run_catalog, render_report
from monodromy.extension import datum_to_json
from monodromy.fixtures import corpus, direct_product_datum, negative_fixtures, write_corpus
from monodromy.reflgrp import catalog

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_FIXTURES = REPO_ROOT / "fixtures"
# report digests recorded from the seed code; read here, never written
REFERENCE_DIGESTS = REPO_ROOT / "bench" / "reference.json"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    write_corpus(directory)
    return directory


def manifest(fixture_dir):
    return json.loads((fixture_dir / "manifest.json").read_text())


def spec_string(spec):
    return spec if isinstance(spec, str) else json.dumps(spec)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes_across_manifest(fixture_dir):
    for entry in manifest(fixture_dir):
        path = str(fixture_dir / entry["file"])
        spec = spec_string(entry["chi_specs"][0])
        code = main(["analyze", path, "--chi", spec])
        assert code == entry["expected_exit"], entry["file"]


def test_negative_controls_cover_all_nonzero_exits(fixture_dir):
    codes = {e["expected_exit"] for e in manifest(fixture_dir) if e["expected_exit"]}
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
    ],
)
def test_malformed_datum_is_parse_error(mutate, tmp_path, capsys):
    datum = json.loads((REPO_FIXTURES / "s3_split_z2.json").read_text())
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
    deleted key or element, a truncated list, or a zero denominator.

    Matrix coefficients under group.generators only get damage that cannot
    parse (wrong non-numeric types, deletions, truncations, zero
    denominators): changing them to other numbers usually makes the group
    infinite, and reaching the closure cap then takes tens of seconds."""
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
    coefficient = path[:2] == ("group", "generators")
    if kind == "delete":
        del parent[key]
    elif kind == "truncate" and isinstance(parent[key], list):
        del parent[key][data.draw(st.integers(0, len(parent[key]))):]
    elif kind == "out_of_range" and not coefficient:
        parent[key] = data.draw(st.sampled_from(OUT_OF_RANGE))
    else:
        wrong = [v for v in WRONG_TYPES if not coefficient or not isinstance(v, (int, float))]
        parent[key] = data.draw(st.sampled_from(wrong))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_datum_ends_in_documented_exit(tmp_path_factory, data):
    name = data.draw(st.sampled_from(FUZZ_FIXTURES))
    datum = json.loads((REPO_FIXTURES / name).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, datum)
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "datum.json"
    path.write_text(json.dumps(datum))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", str(path), "--chi", "trivial", "--out", str(directory / "report.json")])
    assert code in (0, 2, 3, 4)


def test_missing_file_is_parse_error(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.json"), "--chi", "trivial"]) == 2


def test_bad_chi_spec_is_parse_error(fixture_dir):
    path = str(fixture_dir / "s3_over_s2.json")
    assert main(["analyze", path, "--chi", "{not json"]) == 2
    # a float modulus is refused, not truncated
    assert main(["analyze", path, "--chi", '{"modulus": 3.0, "values": {"3": 1}}']) == 2


def test_inconsistent_chi_spec_is_validation_error(fixture_dir):
    path = str(fixture_dir / "s3_over_s2.json")
    spec = json.dumps({"modulus": 2, "values": {"3": 1}})
    assert main(["analyze", path, "--chi", spec]) == 3


def test_rbar_override_wrong_degree_is_validation_error(fixture_dir, tmp_path):
    from monodromy.cyclo import CycNumber, CycPoly

    bad = CycPoly([CycNumber.rational(-1), CycNumber.rational(0), CycNumber.rational(1)])
    override = tmp_path / "rbar.json"
    override.write_text(json.dumps({"0": bad.to_json()}))
    path = str(fixture_dir / "s3_over_s2.json")
    spec = json.dumps({"modulus": 3, "values": {"3": 1}})  # full-jump regime
    assert main(["analyze", path, "--chi", spec, "--rbar", str(override)]) == 3


def test_b2_with_quadratic_override(fixture_dir, tmp_path):
    # generic quadratic relation at a numeric parameter: (z - 3)(z + 1)
    from monodromy.cyclo import CycNumber, CycPoly

    rbar = CycPoly(
        [CycNumber.rational(-3), CycNumber.rational(-2), CycNumber.rational(1)]
    )
    override = tmp_path / "rbar.json"
    override.write_text(json.dumps({str(a): rbar.to_json() for a in range(4)}))
    path = str(fixture_dir / "b2_split_z2.json")
    report, code, _ = run_analyze(path, "trivial", rbar_path=str(override))
    assert code == 0
    assert report["m_chi"]["regime"] == "R2"
    assert report["m_chi"]["ledger"]["dim_mchi"] == 8
    assert report["hecke"]["dimension"] == 8
    for gen in report["hecke"]["generators"].values():
        assert gen["relation"] == rbar.to_json()
        assert gen["minimal_polynomial"] == rbar.to_json()


# ---------------------------------------------------------------------------
# golden determinism


def test_reports_byte_identical_across_runs(fixture_dir):
    for entry in manifest(fixture_dir):
        if entry["expected_exit"] != 0:
            continue
        path = str(fixture_dir / entry["file"])
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
        (REPO_FIXTURES / entry["file"], spec)
        for entry in json.loads((REPO_FIXTURES / "manifest.json").read_text())
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


def test_committed_corpus_matches_builders(fixture_dir):
    """The JSON files shipped in the repository are exactly what the
    builders produce (drift check)."""
    if not REPO_FIXTURES.is_dir():
        pytest.skip("fixtures directory not present")
    for name in sorted(p.name for p in fixture_dir.iterdir()):
        committed = REPO_FIXTURES / name
        assert committed.is_file(), f"missing committed fixture {name}"
        assert committed.read_bytes() == (fixture_dir / name).read_bytes(), name


def test_report_has_required_sections(fixture_dir):
    path = str(fixture_dir / "quaternion_over_v4.json")
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


def test_flip_inertia_convention(fixture_dir):
    path = str(fixture_dir / "s4_over_s3.json")
    spec = next(
        e for e in manifest(fixture_dir) if e["file"] == "s4_over_s3.json"
    )["chi_specs"][1]
    left, code_l, _ = run_analyze(path, spec_string(spec), convention="left")
    flip, code_f, _ = run_analyze(path, spec_string(spec), convention="inverse")
    assert code_l == code_f == 0
    # same block dimensions; over a nonabelian base the coset structure differs
    l_blocks = left["m_chi"]["ledger"]["blocks"]
    f_blocks = flip["m_chi"]["ledger"]["blocks"]
    assert [b["dimension"] for b in l_blocks] == [b["dimension"] for b in f_blocks]
    assert [b["elements"] for b in l_blocks] != [b["elements"] for b in f_blocks]


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


def test_cli_process_entry_point(fixture_dir):
    proc = subprocess.run(
        [
            sys.executable, "-m", "monodromy.cli",
            "analyze", str(fixture_dir / "s3_over_s2.json"),
            "--chi", "trivial",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["m_chi"]["regime"] == "R2"
