"""The benchmark's layer tracer (``bench/tracer.py``) wraps library
attributes it names by module and dotted path; a renamed attribute makes a
traced run fail, so every name it lists is resolved here."""

import importlib.util
from pathlib import Path

from monodromy.cyclo import CycMatrix

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_in_the_package():
    tracer = load_tracer()
    names = [
        (module_name, path)
        for module_name, path, _ in tracer.SPANS + tracer.COUNTS
        if module_name.startswith("monodromy")
    ]
    assert names
    for module_name, path in names:
        owner, attr = tracer._resolve(module_name, path)
        assert attr in owner.__dict__, f"{module_name}.{path}"
    # the matrix-product hook reads the dense view of both factors
    assert "entries" in CycMatrix.__dict__
