"""Recorded per-job digests of two fixed service workloads.

``tests/data/service_digests.json`` holds, for every job of one plain
workload and one ``wire=1`` workload, the sha256 of the sorted output
text and of the job's counter totals.  The file was recorded before the
document boundary moved from token objects to records; the record path
must reproduce it bit for bit.  Rewrite it with::

    PYTHONPATH=src python -m tests.service_goldens --write

Only do that on purpose: a rewritten file is a new oracle.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PATH = Path(__file__).parent / "data" / "service_digests.json"

#: name -> (workload DSL, pool blocks, disks, block size, planner on)
WORKLOADS = {
    "plain": ("jobs=4;seed=11;shape=5x5x5;memory=24", 64, 4, 512, False),
    "wire": (
        "jobs=6;rate=64.0;seed=12;shape=4x4x8;memory=32;wire=1;pad=96",
        48, 4, 4096, True,
    ),
}


def run(name: str) -> list[dict]:
    from repro.io.lease import ResourcePool
    from repro.service import AdmissionController, Scheduler, parse_workload

    workload, blocks, disks, block_size, planned = WORKLOADS[name]
    pool = ResourcePool(blocks, block_size=block_size, disks=disks)
    admission = AdmissionController(pool, plan=planned)
    report = Scheduler(pool, admission=admission).run(
        parse_workload(workload)
    )
    return [
        {
            "tenant": result.spec.tenant,
            "digest": result.digest,
            "counters": hashlib.sha256(
                json.dumps(result.counters, sort_keys=True).encode()
            ).hexdigest(),
        }
        for result in report.results
    ]


def collect() -> dict:
    return {name: run(name) for name in WORKLOADS}


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(
            "usage: python -m tests.service_goldens --write", file=sys.stderr
        )
        return 2
    PATH.write_text(
        json.dumps(collect(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
