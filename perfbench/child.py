"""Benchmark operations in a fresh process.

Usage: ``python3 perfbench/child.py '<job json>'`` (run by ``run.py``).

The job names the mode: ``probe`` stops at the first input read (a
set-up-only sample), ``plain`` runs the operation with only the root and
report capture installed, ``traced`` adds the per-layer spans.  The
operation is ``repro.cli.main`` with the workload's argument list.

A ``plain`` or ``traced`` job repeats the operation in this one process
for ``seconds`` (at least ``least`` times), so that each timed operation
is short and many of them fit in a run; the first operation of a fresh
process also gives the set-up time and the process's peak resident
memory.  Each operation's result goes into the JSON list written to the
job's ``result`` path.  Every distinct output is kept under the job's
``outdir``, named by its SHA-256, for the checker.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python task: build, index and sort
    15,000 short strings.  Timed between operations, it tracks the speed
    the shared host gives this process while the operations run."""
    rng = random.Random(7)
    gc.collect()
    started = time.perf_counter()
    keys = [f"k{rng.random():.12f}" for _ in range(15000)]
    index = {key: i for i, key in enumerate(keys)}
    keys.sort()
    sum(index[key] for key in keys)
    return time.perf_counter() - started


def operation(job: dict, rec, spans) -> dict:
    """Run the operation once and describe it (outside its timed part)."""
    traced = job["mode"] == "traced"
    status = spans.run_cli(rec, job["argv"])
    if status != 0:
        raise SystemExit(f"repro {job['argv'][0]} exited with {status}")
    if job["kind"] == "sort":
        result = spans.sort_end_to_end(rec)
        output = job["output"]
        with open(output, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        kept = os.path.join(job["outdir"], f"{digest}.xml")
        if os.path.exists(kept):
            os.unlink(output)
        else:
            os.replace(output, kept)
        result["digest"] = digest
    else:
        report = rec.scheduler_report
        result = spans.service_end_to_end(rec)
        result["isolation_errors"] = report.isolation_errors()
        result["jobs"] = [
            {
                "tenant": r.spec.tenant,
                "action": r.decision.action,
                "digest": r.digest,
            }
            for r in report.results
        ]
    result["stamp"] = rec.root["stamp"]
    result["wall_s"] = spans.duration(rec.root)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if traced:
        result["layers"] = spans.layer_metrics(rec, job["kind"])
        result["tiling"] = spans.tiling(rec)
    rec.write(job["spans"])
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import spans

    rec = spans.Recorder(job["run_id"], stop_at_root=job["mode"] == "probe")
    traced = job["mode"] == "traced"
    if job["kind"] == "sort":
        spans.instrument_sort(rec, traced)
    else:
        spans.instrument_service(rec, traced, job["outdir"])
    if job["mode"] == "probe":
        try:
            spans.run_cli(rec, job["argv"])
        except spans.SetupDone:
            results = {"stamp": rec.root["stamp"]}
        else:
            raise SystemExit("probe finished without reading its input")
    else:
        results = []
        durations = []
        started = time.monotonic()
        reference = reference_seconds()
        while True:
            rec.reset(f"{job['run_id']}/{len(results)}")
            begun = time.monotonic()
            gc.collect()
            result = operation(job, rec, spans)
            # The reference task's time around the operation.
            after = reference_seconds()
            result["reference_s"] = (reference + after) / 2
            reference = after
            results.append(result)
            durations.append(time.monotonic() - begun)
            elapsed = time.monotonic() - started
            if (
                len(results) >= job["least"]
                and elapsed + statistics.median(durations) > job["seconds"]
            ):
                break
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(results, handle)


if __name__ == "__main__":
    main()
