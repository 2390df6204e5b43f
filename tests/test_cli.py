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
from monodromy.cyclo import CycMatrix, zeta
from monodromy.errors import ParseError
from monodromy.extension import datum_to_json
from monodromy.fixtures import corpus, direct_product_datum, negative_fixtures, write_corpus
from monodromy.reflgrp import catalog
from test_cyclo import cyc_numbers, dense_matrices

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
        (REPO_FIXTURES / entry["file"], spec)
        for entry in json.loads((REPO_FIXTURES / "manifest.json").read_text())
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
    assert matrices and all(isinstance(m, CycMatrix) for m in matrices)
    payloads += [run_catalog("g", 2, 1, 3), run_carousel(6, 2, -1, zeta(4))]
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
    assert render_report([]) == "[]\n" and render_report({}) == "{}\n"
    # json.dumps would write a non-str key as a string; floats never enter
    for bad in ({1: "x"}, {"a": [{None: 0}]}, {"a": {("b",): 0}}, {"a": [0.5]}, [zeta(3)]):
        with pytest.raises(TypeError):
            render_report(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", str(REPO_FIXTURES / "trivial_w_z2.json"), "--chi", "trivial"],
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
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {out}")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_out_file_holds_the_rendered_report(tmp_path):
    path = str(REPO_FIXTURES / "b2_split_z2.json")
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--chi", "trivial", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == render_report(run_analyze(path, "trivial")[0])


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
