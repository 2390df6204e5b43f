"""The committed datum corpus as the tests read it.

Every call parses its file again, so a test may mutate what it gets.
"""

import json
from pathlib import Path

from monodromy.cyclo import CycMatrix, CycNumber
from monodromy.extension import datum_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def manifest() -> list[dict]:
    return json.loads((FIXTURES / "manifest.json").read_text())


def load_datum(name: str):
    """A fresh datum parsed from ``fixtures/<name>.json``."""
    return datum_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))


def chi_specs(name: str) -> list:
    """The character specs the manifest lists for ``fixtures/<name>.json``."""
    return next(e for e in manifest() if e["file"] == f"{name}.json")["chi_specs"]


def nontrivial_character(datum):
    """The first character of the datum's kernel with a value other than 1."""
    return next(
        c for c in datum.characters() if not all(v.is_one() for v in c.values.values())
    )


def s3_rank2_generators():
    """Two reflections generating the symmetric group on three letters in
    rank two (the group of ``s3_split_z2`` and ``s4_over_s3``)."""
    rat = CycNumber.rational
    return [
        CycMatrix([[rat(-1), rat(1)], [rat(0), rat(1)]]),
        CycMatrix([[rat(1), rat(0)], [rat(1), rat(-1)]]),
    ]
