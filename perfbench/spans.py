"""Spans recorded around the public calls into each layer of ``repro``.

The benchmark's traced run installs these wrappers from its own files;
nothing under ``src/`` is touched.  A span carries a name, a start, an
end, its parent span and the run id.  Spans are kept in memory and
written when the run ends.  A layer's self time is the duration of its
spans minus the time their child spans cover.

The untraced run installs only the two boundaries every run needs: the
run's root (the first input read for ``repro sort``, ``Scheduler.run``
for ``repro serve``) and the capture of the reports the sorter returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import time

#: How far the root-level layer self times may miss the traced wall time,
#: as a share of it.  The gap is ``repro.cli`` code between the layer
#: calls (argument handling, building the sort spec).
TILING_TOLERANCE = 0.05

#: ``io_breakdown()`` categories reported as ``io.<category>``.
IO_CATEGORIES = (
    "input_scan", "data_stack", "run_read", "run_write",
    "merge_read", "merge_write", "output",
)


class SetupDone(BaseException):
    """Raised at the first input read of a set-up-only probe run.

    A ``BaseException`` so that no handler in ``repro`` swallows it.
    """


class Recorder:
    """In-memory span list with the wrappers that fill it."""

    def __init__(self, run_id: str, stop_at_root: bool = False):
        self.run_id = run_id
        self.stop_at_root = stop_at_root
        self.spans: list[dict] = []
        #: (span, report) of every sorter call, in call order.
        self.reports: list[tuple[dict, object]] = []
        self.scheduler_report = None
        self.disk_wait = 0.0
        self._stack: list[dict] = []

    def reset(self, run_id: str) -> None:
        """Forget the last operation's spans and reports; the installed
        wrappers keep recording into this recorder."""
        self.run_id = run_id
        self.spans.clear()
        self.reports.clear()
        self.scheduler_report = None
        self.disk_wait = 0.0
        self._stack.clear()

    @property
    def root(self) -> dict:
        return self.spans[0]

    def begin(self, name: str, **attrs) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        if parent is None and self.spans:
            raise RuntimeError(f"second root span {name!r}")
        span = {
            "id": len(self.spans), "name": name, "parent": parent,
            "run": self.run_id, "start": None, "end": None, **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        if parent is None:
            # The root marks the first input read: the end of set-up.
            span["stamp"] = time.monotonic()
            if self.stop_at_root:
                raise SetupDone
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(args)`` returns extra span attributes; ``after(span,
        result)`` sees the result.  A call made while a span of the same
        name is open (a layer entering itself) is not recorded again.
        """
        raw = vars(owner).get(attr, getattr(owner, attr))
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1]["name"] == name:
                return func(*args, **kwargs)
            span = self.begin(name, **(before(args) if before else {}))
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, result)
            return result

        setattr(
            owner, attr, classmethod(wrapper) if is_classmethod else wrapper
        )

    def timed_stream(self, name: str, iterator):
        """Wrap a lazily consumed iterator in a span of its busy time.

        The work of a streamed merge happens while its consumer pulls
        records, interleaved with the consumer's own work, so the span's
        duration is the time spent inside ``next()``, not its extent.
        """
        span = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id, "start": time.perf_counter(), "end": None,
            "busy": 0.0,
        }
        self.spans.append(span)
        clock = time.perf_counter

        def stream():
            busy = 0.0
            try:
                pull = iter(iterator).__next__
                while True:
                    started = clock()
                    try:
                        item = pull()
                    except StopIteration:
                        busy += clock() - started
                        return
                    busy += clock() - started
                    yield item
            finally:
                span["busy"] = busy
                span["end"] = clock()

        return stream()

    def tenant_of(self, span: dict) -> str | None:
        while span is not None:
            if "tenant" in span:
                return span["tenant"]
            parent = span["parent"]
            span = self.spans[parent] if parent is not None else None
        return None

    def write(self, path: str) -> None:
        """Append the spans to ``path``, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                public = {k: v for k, v in span.items() if k[0] != "_"}
                handle.write(json.dumps(public) + "\n")


# -- instrumentation -------------------------------------------------------


def run_cli(rec: Recorder, argv: list[str]) -> int:
    """``repro.cli.main(argv)``, closing a root span it left open (the
    root of ``repro sort`` opens at the first input read)."""
    from repro.cli import main

    status = main(argv)
    if rec.spans and rec.root["end"] is None:
        rec.end(rec.root)
    return status


def _keep_report(rec: Recorder):
    def after(span, result):
        rec.reports.append((span, result[1]))

    return after


def _instrument_core(rec: Recorder) -> None:
    """Subtree sorts, the output walk and merges inside ``nexsort``."""
    # ``repro.core.nexsort`` the attribute is the function; the module
    # has to come from the import system.
    nexsort_mod = importlib.import_module("repro.core.nexsort")
    import repro.core.subtree as subtree_mod

    def classify(span, result):
        span["name"] = (
            "core.subtree_internal" if result.internal
            else "core.subtree_external"
        )

    for method in ("sort_records", "sort_tokens"):
        rec.wrap(
            subtree_mod.SubtreeSorter, method, "core.subtree",
            after=classify,
        )
    rec.wrap(nexsort_mod, "output_phase", "core.output_walk")

    original = subtree_mod.merge_to_stream

    @functools.wraps(original)
    def merge_to_stream(*args, **kwargs):
        span = rec.begin("merge.pass")
        try:
            stream, passes, width = original(*args, **kwargs)
        finally:
            rec.end(span)
        span["passes"] = passes + (1 if width > 1 else 0)
        if width > 1:
            stream = rec.timed_stream("merge.final", stream)
        return stream, passes, width

    subtree_mod.merge_to_stream = merge_to_stream


def instrument_sort(rec: Recorder, traced: bool) -> None:
    """``repro sort``: root at the first input read, report capture."""
    import repro.cli as cli
    from repro.xml.document import Document

    if traced:
        rec.wrap(Document, "from_file", "xml.ingest")
        rec.wrap(cli, "_emit", "xml.emit")
        _instrument_core(rec)
    ingest = vars(Document)["from_file"].__func__

    @functools.wraps(ingest)
    def from_file(cls, *args, **kwargs):
        if not rec.spans:
            rec.begin("run")
        return ingest(cls, *args, **kwargs)

    Document.from_file = classmethod(from_file)
    rec.wrap(cli, "nexsort", "core.sort", after=_keep_report(rec))


def instrument_service(rec: Recorder, traced: bool, outdir: str) -> None:
    """``repro serve``: root at ``Scheduler.run``, outputs kept for the
    checker.

    ``output_digest`` is replaced by an equivalent that also writes the
    text it hashes to ``outdir/<digest>.xml``; the scheduler keeps only
    digests of its outputs.
    """
    import repro.service.scheduler as scheduler_mod

    def keep_output(document) -> str:
        text = document.to_string()
        digest = hashlib.sha256(text.encode()).hexdigest()
        path = os.path.join(outdir, f"{digest}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return digest

    scheduler_mod.output_digest = keep_output

    def keep_scheduler(span, report):
        rec.scheduler_report = report

    rec.wrap(
        scheduler_mod.Scheduler, "run", "service.run",
        before=lambda args: {"_scheduler": args[0]}, after=keep_scheduler,
    )
    if not traced:
        return
    from repro.analysis.planner import Planner
    from repro.service.admission import AdmissionController

    rec.wrap(
        scheduler_mod.Scheduler, "_execute", "service.job",
        before=lambda args: {"tenant": args[1].spec.tenant},
    )

    def verdict(span, decision):
        span["action"] = decision.action

    rec.wrap(
        AdmissionController, "decide", "service.admission",
        before=lambda args: {"tenant": args[1].tenant}, after=verdict,
    )

    def planned(span, plan):
        span["considered"] = plan.considered
        span["predicted_s"] = plan.cost.total_seconds

    rec.wrap(Planner, "choose", "analysis.plan", after=planned)
    rec.wrap(scheduler_mod, "decode_document_wire", "io.wire_decode")

    # Simulated seconds jobs wait for a busy disk during the replay.
    timeline_cls = scheduler_mod.DiskTimeline
    schedule_access = timeline_cls.issue

    @functools.wraps(schedule_access)
    def timed_access(timeline, now, service_seconds):
        end = schedule_access(timeline, now, service_seconds)
        wait = end - service_seconds - now
        if wait > 1e-9:  # float residue of end - service is not a wait
            rec.disk_wait += wait
        return end

    timeline_cls.issue = timed_access
    for name in ("nexsort", "external_merge_sort"):
        rec.wrap(scheduler_mod, name, "core.sort", after=_keep_report(rec))
    _instrument_core(rec)


# -- metrics ---------------------------------------------------------------


def duration(span: dict) -> float:
    if "busy" in span:
        return span["busy"]
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [duration(span) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration(span)
    return own


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def sort_end_to_end(rec: Recorder) -> dict:
    ((_, report),) = rec.reports
    sim_s = report.simulated_seconds
    return {
        "sim_ios": report.total_ios,
        "sim_s": sim_s,
        # A sort is one job arriving at time zero.
        "jobs_per_sim_s": 1.0 / sim_s,
        "sim_latency_p50_s": sim_s,
    }


def service_end_to_end(rec: Recorder) -> dict:
    report = rec.scheduler_report
    scheduler = rec.root["_scheduler"]
    return {
        "sim_ios": scheduler.pool.stats.snapshot().total_ios,
        "sim_s": report.makespan_seconds,
        "jobs_per_sim_s": report.throughput_jobs_per_second,
        "sim_latency_p50_s": report.latency_percentiles()["p50"],
    }


def tiling(rec: Recorder) -> dict:
    """Root-level layer self times against the traced wall time."""
    own = self_times(rec.spans)
    wall = duration(rec.root)
    layers = sum(
        seconds for span, seconds in zip(rec.spans, own)
        if span["name"] != "run"
    )
    negative = [
        span["name"] for span, seconds in zip(rec.spans, own)
        if seconds < -1e-6
    ]
    gap = abs(wall - layers) / wall
    return {
        "wall_s": wall, "layer_self_s": layers, "gap_frac": gap,
        "tolerance": TILING_TOLERANCE, "negative_self": negative[:5],
        "ok": gap <= TILING_TOLERANCE and not negative,
    }


def layer_metrics(rec: Recorder, kind: str) -> dict:
    """Every per-layer metric of one traced run (0 where a layer is idle)."""
    spans = rec.spans
    own = self_times(spans)

    def named(name):
        return [span for span in spans if span["name"] == name]

    def total(name):
        return sum(duration(span) for span in named(name))

    reports = [report for _, report in rec.reports]
    if kind == "sort":
        snapshot = reports[0].stats
    else:
        snapshot = rec.root["_scheduler"].pool.stats.snapshot()
    breakdown = snapshot.io_breakdown()
    raw = snapshot.compress_raw_bytes + snapshot.decompress_raw_bytes
    stored = snapshot.compress_stored_bytes + snapshot.decompress_stored_bytes
    accesses = snapshot.cache_hits + snapshot.cache_misses
    run_lengths = [r.avg_run_length for r in reports if r.avg_run_length]

    m = {
        "xml.ingest_s": total("xml.ingest"),
        "xml.emit_s": total("xml.emit"),
        "core.sort_s": total("core.sort"),
        "core.scan_self_s": sum(
            own[span["id"]] for span in named("core.sort")
        ),
        "core.subtree_internal_s": total("core.subtree_internal"),
        "core.subtree_internal_n": len(named("core.subtree_internal")),
        "core.subtree_external_s": total("core.subtree_external"),
        "core.subtree_external_n": len(named("core.subtree_external")),
        "core.output_walk_s": total("core.output_walk"),
        "merge.pass_s": total("merge.pass") + total("merge.final"),
        "merge.passes": sum(span["passes"] for span in named("merge.pass")),
        "merge.comparisons": snapshot.merge_comparisons,
        "merge.avg_run_length": _p50(run_lengths),
        **{f"io.{c}": breakdown.get(c, 0) for c in IO_CATEGORIES},
        "io.random_frac": snapshot.random_ios / snapshot.total_ios,
        "io.cache_hit_ratio": snapshot.cache_hits / accesses if accesses else 0.0,
        "io.compress_ratio": raw / stored if stored else 0.0,
        "io.codec_cpu_sim_s": snapshot.cost_model.compress_seconds(
            snapshot.compress_raw_bytes, snapshot.decompress_raw_bytes
        ),
        "io.wire_decode_s": total("io.wire_decode"),
        "io.stall_sim_s": snapshot.stall_seconds + rec.disk_wait,
        "analysis.plan_s": total("analysis.plan"),
        "analysis.plan_candidates": sum(
            span["considered"] for span in named("analysis.plan")
        ),
        "analysis.plan_residual": 0.0,
        "service.admission_p50_s": 0.0,
        "service.admission_max_s": 0.0,
        "service.job_sort_p50_s": 0.0,
        "service.job_sort_max_s": 0.0,
        "service.replay_self_s": 0.0,
        "service.admitted": 0,
        "service.degraded": 0,
        "service.queued": 0,
        "service.rejected": 0,
        "service.queue_sim_p50_s": 0.0,
    }
    if kind == "serve":
        m.update(_service_layers(rec, own))
    return m


def _service_layers(rec: Recorder, own: list[float]) -> dict:
    report = rec.scheduler_report
    spans = rec.spans
    admission: dict[str, float] = {}
    queued = set()
    predicted = {}
    for span in spans:
        if span["name"] == "service.admission":
            admission[span["tenant"]] = (
                admission.get(span["tenant"], 0.0) + duration(span)
            )
            if span["action"] == "queue":
                queued.add(span["tenant"])
        elif span["name"] == "analysis.plan":
            predicted[rec.tenant_of(span)] = span["predicted_s"]
    job_sort = [
        duration(span) for span in spans if span["name"] == "core.sort"
    ]
    # Residual of each planned job: the simulated seconds its sort took,
    # divided by the planner's prediction for it.
    residuals = [
        sort_report.simulated_seconds / predicted[rec.tenant_of(span)]
        for span, sort_report in rec.reports
        if rec.tenant_of(span) in predicted
    ]
    actions = [r.decision.action for r in report.results]
    return {
        "analysis.plan_residual": _p50(residuals),
        "service.admission_p50_s": _p50(list(admission.values())),
        "service.admission_max_s": max(admission.values(), default=0.0),
        "service.job_sort_p50_s": _p50(job_sort),
        "service.job_sort_max_s": max(job_sort, default=0.0),
        "service.replay_self_s": own[rec.root["id"]],
        "service.admitted": actions.count("admit"),
        "service.degraded": actions.count("degrade"),
        "service.queued": len(queued),
        "service.rejected": actions.count("reject"),
        "service.queue_sim_p50_s": _p50(
            [r.queue_seconds for r in report.completed]
        ),
    }
