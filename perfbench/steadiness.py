"""Run the benchmark on several seeds and report how steady it is.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 10 --seconds 30 \\
        --out perfbench/steadiness.json [--workload NAME ...]

For every workload and end-to-end metric this prints the median and
quartiles of the per-run values (``statistics.quantiles(n=4)``) and the
spread, the quartile distance as a share of the median.  A spread above
a third of the metric's bound in ``BENCHMARK.json`` is marked; the
benchmark is meant to stay below it on every metric but ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        durations = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ],
                capture_output=True, text=True, cwd=str(ROOT),
            )
            durations.append(time.monotonic() - started)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"{workload}: {args.seeds} seeds, run time "
              f"{min(durations):.0f}-{max(durations):.0f}s")
        for name, samples in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            limit = bounds[name] / 3
            ok = name == "setup_s" or spread <= limit
            steady &= ok
            rows[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": samples,
            }
            print(f"  {name:<20} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} "
                  f"(bound/3 {limit:.4f}){'' if ok else '  UNSTEADY'}")
        report[workload] = {
            "seeds": list(
                range(args.first_seed, args.first_seed + args.seeds)
            ),
            "seconds": args.seconds,
            "run_wall_s": durations,
            "metrics": rows,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
