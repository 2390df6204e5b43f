"""Regenerate bench/reference.json from the library in this checkout.

    python3 bench/make_reference.py

Records the sha256 of every rendered report of the corpus, coxeter-ladder
and ledger-scale items (both characters of every cover), and of the three
carousel polynomials' canonical JSON for every tuple of the criterion-3
grid.  The benchmark counts an item whose output differs from its digest
as failed, so regenerate only when a change to report bytes is intended,
and say so in CHANGES.md.  Takes about 75 seconds.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads
from run import WORK, import_library


def main():
    import_library()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        items = (
            workloads.corpus_items()
            + workloads.cover_items(workloads.LADDER, Path(workdir), None)
            + workloads.cover_items(workloads.LEDGER, Path(workdir), None)
            + workloads.carousel_grid()
        )
        digests = {item.key: workloads.run_item(item, None) for item in items}
    payload = {"regenerate": "python3 bench/make_reference.py", "digests": digests}
    workloads.REFERENCE.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
