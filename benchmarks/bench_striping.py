"""Experiment PD - parallel-disk striping and forecast-driven prefetch.

The paper's experiments run on one disk; :mod:`repro.io.parallel` extends
the cost model to Vitter's parallel-disk setting.  This experiment shows
the two headline effects on the Figure-5 workload:

* **Striping**: the same sort issues the same I/Os on ``D`` disks, but the
  *disk time* (the busiest disk's clock, which bounds wall time once I/O
  overlaps with compute) falls as ``D`` grows.  A 1-disk stripe reproduces
  the serial goldens bit for bit - counters, model seconds, and breakdown.
* **Forecasting**: during a loser-tree merge, prefetching the next block
  of the run whose head key is smallest (the run that drains first) cuts
  consumer stall below running with prefetch off, with counters identical
  in both configurations - prefetch only reorders reads.

Results land in ``BENCH_striping.json`` next to this file; CI's striping
smoke job re-checks the D=1 golden match, the D=4 improvement and the
forecast stall win.
"""

import json
from pathlib import Path

from repro.bench import ascii_chart, bench_scale, record_table
from repro.bench.harness import run_merge_sort, run_nexsort
from repro.generators import level_fanout_events
from repro.merge.engine import MergeOptions

#: Memory for the NEXSORT striping sweep (the Figure-5 mid-range point).
MEMORY_BLOCKS = 24

#: Disk counts swept; D=1 must reproduce the serial device exactly.
DISK_SWEEP = [1, 2, 4, 8]

#: Memory for the prefetch comparison: small enough that the final merge
#: is wide and the merge phase dominates, so stall differences are large.
PREFETCH_MEMORY = 16

#: Disks and window depth for the prefetch comparison.
PREFETCH_DISKS = 4
PREFETCH_DEPTH = 8

_JSON_PATH = Path(__file__).parent / "BENCH_striping.json"


def _events():
    deep = 5 if bench_scale() < 2 else 10
    return level_fanout_events([11, 11, 11, deep], seed=5, pad_bytes=24)


def _run_all():
    golden = run_nexsort(_events, memory_blocks=MEMORY_BLOCKS)
    sweep = [
        (
            disks,
            run_nexsort(_events, memory_blocks=MEMORY_BLOCKS, disks=disks),
        )
        for disks in DISK_SWEEP
    ]

    options = MergeOptions(merge_kernel="loser-tree", embedded_keys=True)
    policies = {}
    for name, depth in (("off", 0), ("forecast", PREFETCH_DEPTH)):
        policies[name] = run_merge_sort(
            _events,
            memory_blocks=PREFETCH_MEMORY,
            merge_options=options,
            disks=PREFETCH_DISKS,
            prefetch_depth=depth,
        )
    return golden, sweep, policies


def _row_record(metrics) -> dict:
    return {
        "disks": metrics.detail["disks"],
        "prefetch_depth": metrics.detail["prefetch_depth"],
        "total_ios": metrics.total_ios,
        "simulated_seconds": metrics.simulated_seconds,
        "disk_seconds": round(metrics.detail["disk_seconds"], 6),
        "overlap_seconds": round(metrics.detail["overlap_seconds"], 6),
        "stall_seconds": round(metrics.detail["stall_seconds"], 6),
        "disk_utilization": metrics.detail["disk_utilization"],
        "breakdown": metrics.detail["breakdown"],
        "phases": metrics.detail["phases"],
    }


def test_striping_and_prefetch(benchmark):
    golden, sweep, policies = benchmark.pedantic(
        _run_all, rounds=1, iterations=1
    )

    # --- striping sweep table ------------------------------------------
    table = []
    for disks, metrics in sweep:
        utilization = metrics.detail["disk_utilization"]
        mean_util = (
            sum(float(u) for u in utilization.values()) / len(utilization)
            if utilization
            else 1.0
        )
        table.append(
            [
                disks,
                metrics.total_ios,
                f"{metrics.detail['disk_seconds']:.3f}",
                f"{metrics.detail['overlap_seconds']:.3f}",
                f"{mean_util * 100:.0f}%",
                metrics.simulated_seconds,
            ]
        )

    disk_seconds = [m.detail["disk_seconds"] for _d, m in sweep]
    record_table(
        f"Parallel-disk striping sweep (M = {MEMORY_BLOCKS} blocks, "
        "Figure-5 workload)",
        [
            "disks",
            "total I/Os",
            "disk time (s)",
            "overlap (s)",
            "mean util",
            "model (s)",
        ],
        table,
        chart=ascii_chart(
            DISK_SWEEP,
            {"NEXSORT": disk_seconds},
            y_label="disk time (s) vs disks",
        ),
        notes=[
            "disk time = busiest disk's busy clock; model (s) keeps the "
            "serial single-disk formula for golden comparability",
            "D=1 reproduces the serial device bit for bit",
        ],
    )

    # --- prefetch table ------------------------------------------------
    record_table(
        f"Forecast prefetch in the final merge (D = {PREFETCH_DISKS}, "
        f"depth = {PREFETCH_DEPTH}, M = {PREFETCH_MEMORY} blocks, "
        "loser-tree mergesort)",
        ["prefetch", "total I/Os", "merge stall (s)", "disk time (s)"],
        [
            [
                name,
                metrics.total_ios,
                f"{metrics.detail['stall_seconds']:.3f}",
                f"{metrics.detail['disk_seconds']:.3f}",
            ]
            for name, metrics in policies.items()
        ],
        notes=[
            "identical I/O counters in both rows: prefetch only "
            "reorders the reads the merge was about to issue",
            "forecast = smallest merge head key first (Knuth 5.4.9)",
        ],
    )

    _JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "striping_and_prefetch",
                "workload": "level_fanout [11,11,11,deep] seed=5 pad=24",
                "memory_blocks": MEMORY_BLOCKS,
                "golden": {
                    "total_ios": golden.total_ios,
                    "simulated_seconds": golden.simulated_seconds,
                    "breakdown": golden.detail["breakdown"],
                },
                "disk_sweep": [_row_record(m) for _d, m in sweep],
                "prefetch": {
                    "memory_blocks": PREFETCH_MEMORY,
                    "disks": PREFETCH_DISKS,
                    "depth": PREFETCH_DEPTH,
                    "rows": {
                        name: _row_record(m) for name, m in policies.items()
                    },
                },
            },
            indent=2,
        )
        + "\n"
    )

    # D=1 stripe is bit-identical to the serial golden.
    one_disk = sweep[0][1]
    assert sweep[0][0] == 1
    assert one_disk.total_ios == golden.total_ios
    assert one_disk.simulated_seconds == golden.simulated_seconds
    assert one_disk.detail["breakdown"] == golden.detail["breakdown"]

    # Every stripe width issues the same I/Os; disk time strictly falls.
    assert all(m.total_ios == golden.total_ios for _d, m in sweep)
    assert all(
        later < earlier
        for earlier, later in zip(disk_seconds, disk_seconds[1:])
    )

    # Prefetch keeps counters identical and forecasting cuts stall.
    off, fc = policies["off"], policies["forecast"]
    assert off.total_ios == fc.total_ios
    assert off.detail["breakdown"] == fc.detail["breakdown"]
    assert fc.detail["stall_seconds"] < off.detail["stall_seconds"]
