"""Experiment PL - the self-tuning planner vs. the empirical optimum.

Two sweeps hold ``--plan auto`` to its contract (pick within 5% of the
best measured configuration):

1. **Live sweep** - a small Figure-5-shaped document is profiled the
   way the CLI would, the planner ranks a candidate grid over the
   algorithm/formation/merge-kernel/embedded-keys/cache axes, and every
   candidate is then actually run through the engine
   (:func:`repro.bench.run_config`).  The planner's first pick must
   measure within tolerance of the sweep's fastest row.
2. **Recorded sweeps** - the four recorded benchmark grids
   (bufferpool, runformation, striping, paper-scale fast tier)
   are replayed from their ``BENCH_*.json`` files: the planner ranks
   exactly the configs each sweep measured and its pick is compared
   against the recorded optimum.  This is the regression surface CI's
   ``planner-smoke`` job watches.

Results land in ``BENCH_planner.json``.
"""

import json
from pathlib import Path

from repro.analysis import DocumentProfile, PlanConfig, Planner, profile_document
from repro.bench import record_table, run_config
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.xml import Document

_JSON_PATH = Path(__file__).parent / "BENCH_planner.json"
_BENCH_DIR = Path(__file__).parent

#: Acceptance tolerance: measured(pick) <= TOLERANCE * min(measured).
TOLERANCE = 1.05

#: Measured encoded element size of the seed=5/pad=24 generators at
#: 512-byte blocks (shared with tests/test_planner.py).
SMALL_BLOCK_ELEMENT_BYTES = 62.05

LIVE_SHAPE = [11, 11, 11, 5]
LIVE_MEMORY = 24
LIVE_BLOCK = 512


def _live_events():
    return level_fanout_events(LIVE_SHAPE, seed=5, pad_bytes=24)


def _live_profile():
    store = RunStore(BlockDevice(block_size=LIVE_BLOCK))
    document = Document.from_events(store, _live_events())
    return profile_document(document)


def _live_candidates():
    configs = []
    for algorithm in ("nexsort", "merge_sort"):
        for formation in ("load-sort", "replacement-selection"):
            for merge_kernel in ("heap", "loser-tree"):
                for embedded in (False, True):
                    configs.append(PlanConfig(
                        algorithm=algorithm,
                        memory_blocks=LIVE_MEMORY,
                        run_formation=formation,
                        merge_kernel=merge_kernel,
                        embedded_keys=embedded,
                    ))
    for cache in (2, 6):
        configs.append(PlanConfig(
            algorithm="nexsort",
            memory_blocks=LIVE_MEMORY,
            cache_blocks=cache,
        ))
    return configs


def _live_sweep():
    profile = _live_profile()
    planner = Planner(
        profile, memory_blocks=LIVE_MEMORY, block_size=LIVE_BLOCK
    )
    ranked = planner.rank(_live_candidates())
    rows = []
    for config, cost in ranked:
        metrics = run_config(_live_events, config, block_size=LIVE_BLOCK)
        rows.append((config, cost, metrics.simulated_seconds))
    return rows


def _config_label(config):
    parts = [config.algorithm]
    if config.cache_blocks:
        parts.append(f"cache={config.cache_blocks}")
    if config.run_formation != "load-sort":
        parts.append("rs")
    if config.merge_kernel != "heap":
        parts.append(config.merge_kernel)
    if config.embedded_keys:
        parts.append("embed")
    if config.disks > 1:
        parts.append(f"disks={config.disks}")
    return "/".join(parts)


def _recorded(name):
    path = _BENCH_DIR / f"BENCH_{name}.json"
    return json.loads(path.read_text()) if path.exists() else None


def _recorded_sweeps():
    """(sweep name, planner, {key: config}, {key: measured objective})."""
    sweeps = []

    data = _recorded("bufferpool")
    if data:
        profile = DocumentProfile.from_fanouts(
            [11, 11, 11, 5], block_size=512,
            element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
        )
        planner = Planner(profile, memory_blocks=48, block_size=512)
        configs = {
            (r["memory_blocks"], r["cache_blocks"]): PlanConfig(
                algorithm="nexsort",
                memory_blocks=r["memory_blocks"],
                cache_blocks=r["cache_blocks"],
            )
            for r in data["rows"]
        }
        measured = {
            (r["memory_blocks"], r["cache_blocks"]): r["simulated_seconds"]
            for r in data["rows"]
        }
        sweeps.append(("bufferpool", planner, configs, measured))

    data = _recorded("runformation")
    if data:
        for workload, shape in (
            ("fig5", [11, 11, 11, 5]), ("fig6", [12, 85, 24]),
        ):
            profile = DocumentProfile.from_fanouts(
                shape, block_size=512,
                element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
            )
            planner = Planner(profile, memory_blocks=24, block_size=512)
            rows = [
                r for r in data["rows"] if r["workload"] == workload
            ]
            configs = {
                (r["run_formation"], r["merge_kernel"],
                 r["embedded_keys"]): PlanConfig(
                    algorithm="merge_sort",
                    memory_blocks=24,
                    run_formation=r["run_formation"],
                    merge_kernel=r["merge_kernel"],
                    embedded_keys=r["embedded_keys"],
                )
                for r in rows
            }
            measured = {
                (r["run_formation"], r["merge_kernel"],
                 r["embedded_keys"]): r["simulated_seconds"]
                for r in rows
            }
            sweeps.append(
                (f"runformation/{workload}", planner, configs, measured)
            )

    data = _recorded("striping")
    if data:
        profile = DocumentProfile.from_fanouts(
            [11, 11, 11, 5], block_size=512,
            element_bytes=SMALL_BLOCK_ELEMENT_BYTES,
        )
        planner = Planner(
            profile, memory_blocks=24, block_size=512, disks=8
        )
        # Striping trades total I/Os for parallel elapsed time, so the
        # measured objective is busiest-disk seconds - the planner's own.
        configs = {
            r["disks"]: PlanConfig(
                algorithm="nexsort",
                memory_blocks=24,
                disks=r["disks"],
                prefetch_depth=r["prefetch_depth"],
            )
            for r in data["disk_sweep"]
        }
        measured = {
            r["disks"]: r["disk_seconds"] for r in data["disk_sweep"]
        }
        sweeps.append(("striping", planner, configs, measured))

    data = _recorded("paper_scale")
    if data:
        rows = [
            r for r in data["rows"] if r["figure"] == "fig5-fast"
        ]
        if rows:
            element_bytes = (
                65536 * rows[0]["input_blocks"] / rows[0]["element_count"]
            )
            profile = DocumentProfile.from_fanouts(
                rows[0]["shape"], block_size=65536,
                element_bytes=element_bytes,
            )
            planner = Planner(
                profile, memory_blocks=48, block_size=65536
            )
            configs, measured = {}, {}
            for r in rows:
                key = r["algorithm"]
                if key in measured:
                    measured[key] = min(
                        measured[key], r["simulated_seconds"]
                    )
                    continue
                configs[key] = PlanConfig(
                    algorithm=r["algorithm"], memory_blocks=48
                )
                measured[key] = r["simulated_seconds"]
            sweeps.append(
                ("paper-scale-fast", planner, configs, measured)
            )

    return sweeps


def test_planner_tracks_empirical_optimum(benchmark):
    live_rows = benchmark.pedantic(_live_sweep, rounds=1, iterations=1)

    best_live = min(seconds for _c, _p, seconds in live_rows)
    pick_config, pick_cost, pick_seconds = live_rows[0]
    live_ratio = pick_seconds / best_live

    table = []
    live_records = []
    for config, cost, seconds in live_rows:
        table.append([
            _config_label(config),
            f"{cost.total_seconds:.4f}",
            f"{seconds:.4f}",
            f"{seconds / best_live:.3f}x",
        ])
        live_records.append({
            "config": _config_label(config),
            "predicted_seconds": round(cost.total_seconds, 6),
            "measured_seconds": round(seconds, 6),
            "ratio_to_best": round(seconds / best_live, 4),
        })

    recorded_records = []
    for name, planner, configs, measured in _recorded_sweeps():
        ranked = planner.rank(list(configs.values()))
        inverse = {cfg: key for key, cfg in configs.items()}
        pick = inverse[ranked[0][0]]
        best = min(measured.values())
        ratio = measured[pick] / best
        recorded_records.append({
            "sweep": name,
            "pick": _config_label(ranked[0][0]),
            "predicted_seconds": round(ranked[0][1].total_seconds, 6),
            "measured_seconds": round(measured[pick], 6),
            "best_measured_seconds": round(best, 6),
            "ratio_to_best": round(ratio, 4),
            "candidates": len(configs),
        })

    _JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "planner_self_tuning",
                "tolerance": TOLERANCE,
                "live": {
                    "workload": (
                        f"level_fanout {LIVE_SHAPE} seed=5 pad=24"
                    ),
                    "memory_blocks": LIVE_MEMORY,
                    "block_size": LIVE_BLOCK,
                    "pick": _config_label(pick_config),
                    "ratio_to_best": round(live_ratio, 4),
                    "rows": live_records,
                },
                "recorded": recorded_records,
            },
            indent=2,
        )
        + "\n"
    )

    record_table(
        "Planner vs. empirical optimum "
        f"(live sweep, M = {LIVE_MEMORY} blocks)",
        ["config (planner order)", "predicted (s)", "measured (s)",
         "vs best"],
        table,
        notes=[
            f"planner pick: {_config_label(pick_config)} at "
            f"{live_ratio:.3f}x the empirical best",
            *(
                f"recorded {r['sweep']}: pick {r['pick']} at "
                f"{r['ratio_to_best']:.3f}x best "
                f"({r['candidates']} candidates)"
                for r in recorded_records
            ),
            f"full sweep written to {_JSON_PATH.name}",
        ],
    )

    assert live_ratio <= TOLERANCE, (
        f"live sweep: planner picked {_config_label(pick_config)} at "
        f"{live_ratio:.3f}x the best measured config"
    )
    assert recorded_records, "no recorded BENCH grids found"
    for row in recorded_records:
        assert row["ratio_to_best"] <= TOLERANCE, (
            f"{row['sweep']}: planner pick {row['pick']} regressed to "
            f"{row['ratio_to_best']:.3f}x the recorded optimum"
        )
