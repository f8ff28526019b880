"""The repository's benchmark: ``repro sort`` and ``repro serve``, timed
on the host clock and the simulated clock.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide-external --seed 1 \\
        --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Operations run in child processes (``child.py``).  A run generates its
inputs from ``--seed`` before any timing starts, then spends
``--seconds`` in rounds: set-up-only processes and one single-operation
process give set-up time and peak memory, and a process that repeats
the operation gives the host wall times, each scaled by a reference
task timed beside it.  It reports the median scaled wall time, the
median set-up time and peak memory, and the simulated counters, which
every operation of a run must repeat exactly.  With ``--trace 1`` the rounds alternate untraced and traced
repeating processes, and the run reports the per-layer metrics of the
fastest traced operation.
Outputs are checked by ``checker.py`` outside the timed interval.

The metrics and their units are those listed in ``BENCHMARK.json``.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it print every
metric with its unit and sample count.  The exit status is 1 when any
output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Rounds of a run.  An untraced round starts ``SETUP_PROBES`` set-up-only
#: processes and one single-operation process (set-up time and peak
#: memory), then a repeating process for its share of the run; a traced
#: round starts an untraced and a traced repeating process.
ROUNDS = 4
SETUP_PROBES = 3
#: Host seconds of ``child.reference_seconds`` on the nominal host that
#: operation times are scaled to: about its time on a quiet 2.1 GHz Xeon
#: vCPU.
REFERENCE_S = 0.013
#: Least number of operations of a repeating process, however short
#: ``--seconds`` is; the first one warms the process and is not timed.
MIN_REPEATS = 3
#: A process that runs this much longer than asked is a failure.
CHILD_TIMEOUT_S = 100

#: End-to-end metrics that are a pure function of the seed: every
#: operation of a run must report them identically.
SIMULATED = ("sim_ios", "sim_s", "jobs_per_sim_s", "sim_latency_p50_s")


class BenchError(Exception):
    """The benchmark could not run (not: an output was wrong)."""


def load_metric_units() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def check_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


class Run:
    """One workload at one seed: inputs, operations, checks."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.count = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        #: Checker problems of each distinct output already checked.
        self.verdicts: dict = {}
        self.input = str(workdir / "input.xml")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    # -- inputs ----------------------------------------------------------

    def prepare(self) -> None:
        from checker import scan
        from workloads import write_sort_input

        if self.workload.kind == "sort":
            write_sort_input(self.workload, self.seed, self.input)
            self.input_hash = scan(self.input, None).canonical_hash
        else:
            self.input_hashes = self._service_input_hashes()

    def _service_input_hashes(self) -> dict[str, str]:
        import io

        from checker import scan
        from repro.service import parse_workload
        from workloads import service_workload, write_tokens

        hashes = {}
        for spec in parse_workload(service_workload(self.seed)):
            text = io.StringIO()
            write_tokens(spec.events(), text)
            source = io.BytesIO(text.getvalue().encode())
            hashes[spec.tenant] = scan(source, None).canonical_hash
        return hashes

    # -- one process -----------------------------------------------------

    def process(self, mode: str, seconds: float = 0.0,
                least: int = 1) -> list[dict]:
        """One child process: a set-up probe, or ``mode`` operations
        repeated for ``seconds`` (at least ``least``), each checked."""
        self.count += 1
        tag = f"{mode}-{self.count}"
        outdir = self.workdir / tag
        outdir.mkdir()
        job = {
            "mode": mode,
            "kind": self.workload.kind,
            "src": str(SRC),
            "run_id": f"{self.workload.name}/{self.seed}/{tag}",
            "argv": self.workload.argv(
                self.seed, self.input, str(outdir / "output.xml")
            ),
            "output": str(outdir / "output.xml"),
            "outdir": str(outdir),
            "seconds": seconds,
            "least": least,
            "result": str(outdir / "result.json"),
            "spans": str(outdir / "spans.jsonl"),
        }
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, env=self.env, cwd=str(ROOT),
                timeout=seconds + CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(
                f"{mode} process exceeded {seconds + CHILD_TIMEOUT_S:.0f}s"
            ) from error
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} process failed with status {proc.returncode}:\n"
                + proc.stderr[-4000:]
            )
        with open(job["result"], encoding="utf-8") as handle:
            results = json.load(handle)
        if mode == "probe":
            return [{"setup_s": results["stamp"] - spawned}]
        # Only the process's first operation paid for its set-up.
        results[0]["setup_s"] = results[0]["stamp"] - spawned
        self._check(results, outdir)
        shutil.rmtree(outdir)
        return results

    # -- correctness -----------------------------------------------------

    def _check_file(self, key, input_hash: str, path: Path,
                    digest: str) -> list[str]:
        """Problems of the output ``path``; each distinct output once."""
        from checker import check_sorted

        if key not in self.verdicts:
            problems = []
            if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                problems.append("output differs from its digest")
            problems += check_sorted(
                input_hash, str(path), self.workload.order
            )
            self.verdicts[key] = problems
            self.problems += problems
        return self.verdicts[key]

    def _check(self, results: list[dict], outdir: Path) -> None:
        for result in results:
            if self.workload.kind == "sort":
                self.attempted += 1
                digest = result["digest"]
                if self._check_file(
                    digest, self.input_hash, outdir / f"{digest}.xml", digest
                ):
                    self.failed += 1
                continue
            if result["isolation_errors"]:
                self.problems += result["isolation_errors"]
            for job in result["jobs"]:
                self.attempted += 1
                tenant = job["tenant"]
                if job["action"] == "reject":
                    self.failed += 1
                    self.problems.append(f"{tenant}: rejected")
                    continue
                digest = job["digest"]
                problems = self._check_file(
                    (tenant, digest), self.input_hashes[tenant],
                    outdir / f"{digest}.xml", digest,
                )
                if problems:
                    self.failed += 1
                    self.problems += [f"{tenant}: {p}" for p in problems]

    def consistent(self, results: list[dict], label: str) -> None:
        """Simulated counters must repeat exactly across operations."""
        first = results[0]
        for other in results[1:]:
            for name in SIMULATED:
                if other[name] != first[name]:
                    self.problems.append(
                        f"{label}: {name} differs between operations of "
                        f"one seed ({first[name]!r} vs {other[name]!r})"
                    )


def scaled_wall(results: list[dict]) -> float:
    """Host seconds of one operation scaled to the nominal host: the
    median over operations of its wall time divided by the reference
    task's time around it, times ``REFERENCE_S``."""
    return REFERENCE_S * statistics.median(
        r["wall_s"] / r["reference_s"] for r in results
    )


def measure(run: Run, trace: bool) -> tuple[dict, dict]:
    """Values of the run's metrics, and how each was sampled.

    Host wall time is scaled by the reference task timed around each
    operation: on a shared host, neighbour load changes the speed this
    process gets by up to half from minute to minute, and the ratio of
    an operation to the reference beside it cancels that change
    (``README.md``, "Steadiness").  The first operation of each
    repeating process warms it and is not timed.
    """
    deadline = time.monotonic() + run.seconds
    if not trace:
        setups, fresh, repeated, timed = [], [], [], []
        # Rounds spread the set-up samples over the whole run, so that
        # their median reflects the host over the run, not its start.
        for left in range(ROUNDS, 0, -1):
            setups += [
                run.process("probe")[0]["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            fresh += run.process("plain")
            setups.append(fresh[-1]["setup_s"])
            share = (deadline - time.monotonic()) / left
            results = run.process("plain", share, MIN_REPEATS)
            repeated += results
            timed += results[1:]
        run.consistent(fresh + repeated, "untraced")
        values = {
            "wall_s": scaled_wall(timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in fresh),
            **{name: fresh[0][name] for name in SIMULATED},
        }
        notes = {
            "wall_s": f"scaled median of {len(timed)}",
            "setup_s": f"median of {len(setups)}",
            "peak_rss_mb": f"median of {len(fresh)}",
        }
        for name in SIMULATED:
            notes[name] = f"exact, same in all {len(fresh + repeated)}"
        return values, notes

    plain, traced, everything = [], [], []
    for left in range(2 * ROUNDS, 0, -1):
        mode, timed = ("plain", plain) if left % 2 else ("traced", traced)
        share = (deadline - time.monotonic()) / left
        results = run.process(mode, share, MIN_REPEATS)
        everything += results
        timed += results[1:]
    run.consistent(everything, "traced vs untraced")
    for result in traced:
        tiling = result["tiling"]
        if not tiling["ok"]:
            run.problems.append(f"layer self times do not tile: {tiling}")
    # The layers of the fastest traced operation: one coherent breakdown
    # whose self times tile its own wall time.
    fastest = min(traced, key=lambda r: r["wall_s"])
    values = dict(fastest["layers"])
    notes = {name: f"fastest of {len(traced)} traced" for name in values}
    values["obs.trace_overhead_frac"] = (
        scaled_wall(traced) / scaled_wall(plain) - 1
    )
    notes["obs.trace_overhead_frac"] = (
        f"scaled medians of {len(traced)} traced and {len(plain)} untraced"
    )
    values["obs.wall_unscaled_s"] = statistics.median(
        r["wall_s"] for r in plain
    )
    values["obs.reference_s"] = statistics.median(
        r["reference_s"] for r in plain
    )
    for name in ("obs.wall_unscaled_s", "obs.reference_s"):
        notes[name] = f"median of {len(plain)} untraced"
    return values, notes


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 units: dict) -> dict:
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    try:
        run = Run(workload, seed, seconds, workdir)
        run.prepare()
        values, notes = measure(run, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} are reported but "
            "not listed in BENCHMARK.json, or listed but not reported"
        )
    print(f"{workload.name} (seed {seed}, trace {int(trace)}):")
    for name, value in values.items():
        print(f"  {name:<28} {value:<20.10g} {units[name]:<8} {notes[name]}")
    rate = run.failed / run.attempted
    print(f"  {'error_rate':<28} {rate:<20.10g} {'frac':<8} "
          f"{run.failed} failed of {run.attempted} attempted")
    for problem in run.problems[:20]:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": not run.problems and not run.failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so that the child process it is
    # waiting for is killed and reaped and its directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_source_tree()
        end_to_end, per_layer = load_metric_units()
        units = per_layer if args.trace else end_to_end
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload
        ]
        results = {
            name: run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                units,
            )
            for name in names
        }
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
