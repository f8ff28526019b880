"""Recorded digests of the record-kernel parity grids.

``tests/data/kernel_goldens.json`` holds, for every cell of the parity
grids, the sha256 of the output (or run) bytes, every counter total,
the formation run lengths and the sha256 of the JSONL trace.  The file
was recorded from the element-at-a-time record kernel, which has since
been deleted; the batched kernel must reproduce it bit for bit.

Each test module that owns a grid exposes ``golden_cells()``, yielding
``(section, cell, compute)`` triples.  Rewrite the file with::

    PYTHONPATH=src python -m tests.goldens --write

Only do that on purpose: a rewritten file is a new oracle.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from functools import lru_cache
from io import StringIO
from pathlib import Path

PATH = Path(__file__).parent / "data" / "kernel_goldens.json"

#: Test modules that contribute cells, in file order.
MODULES = (
    "tests.test_accounting_parity",
    "tests.test_subtree_internals",
    "tests.test_columnar",
    "tests.test_internal_sort",
)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def records_sha256(records) -> str:
    """Digest of a record sequence, length-framed so splits count."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(len(record).to_bytes(4, "big"))
        digest.update(record)
    return digest.hexdigest()


def trace_sha256(trace) -> str:
    from repro.obs.sinks import write_jsonl

    out = StringIO()
    write_jsonl(trace, out)
    return sha256(out.getvalue())


@lru_cache(maxsize=1)
def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def assert_golden(section: str, cell: str, observed: dict) -> None:
    """``observed`` must equal the recorded digest of the cell."""
    expected = load()[section][cell]
    # A JSON round trip turns tuples into lists.
    assert json.loads(json.dumps(observed)) == expected, (section, cell)


def collect() -> dict:
    goldens: dict = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for section, cell, compute in module.golden_cells():
            goldens.setdefault(section, {})[cell] = compute()
    return goldens


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: python -m tests.goldens --write", file=sys.stderr)
        return 2
    PATH.write_text(
        json.dumps(collect(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
