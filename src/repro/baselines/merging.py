"""Generic multi-pass, multi-way merging of sorted runs.

Used by the external merge sort baseline (merging key-path runs) and by
NEXSORT's graceful-degeneration mode (merging the incomplete sorted runs of
one element, paper Section 3.2).  Records are opaque bytes; ordering comes
from a caller-supplied key function over decoded records.

The fan-in of one pass is limited by the number of memory blocks available:
each input run needs one buffer block and the output needs one, so a budget
of ``m`` blocks supports an ``(m - 1)``-way merge - the classic bound that
produces the ``log_{M/B}`` factors in all of the paper's cost expressions.

Two merge kernels are available (:class:`~repro.merge.engine.MergeOptions`):

* ``heap`` (default, paper-faithful): ``heapq`` over ``(key, index)``
  entries; CPU accounting charges the analytic ``ceil(log2 w)`` comparisons
  per record moved, exactly as the seed did.
* ``loser-tree``: a tournament tree that performs - and *counts* - at most
  ``ceil(log2 w)`` real comparisons per record, reading each input run as
  its own sequential stream for honest seek accounting.

With ``options.embedded_keys`` the records carry a byte-comparable
normalized key prefix; ``key_of`` then never decodes a record during a
merge pass, it just slices bytes.

Either kernel pulls records a buffered block at a time and computes
their keys in one batch (or serves them from the run's key sidecar);
block loads still fire at the record a one-at-a-time reader would issue
them, so every I/O counter is unchanged by the batching.
"""

from __future__ import annotations

import heapq
from itertools import islice
from math import ceil, log2
from typing import Callable, Iterable, Iterator

from ..core.columnar import (
    batch_keys_for,
    fast_path_key,
    have_numpy,
    keyed_puller,
    merge_sidecars,
    record_puller,
    replay_merge,
    replay_merge_to_writer,
    run_sidecar,
)
from ..errors import DeviceFault, RunError
from ..io.parallel import MergePrefetcher
from ..io.runs import RunHandle, RunStore
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import (
    DEFAULT_MERGE_OPTIONS,
    LoserTree,
    MergeOptions,
    embedded_key_of,
    sort_with_accounting,
)

#: Records per grouped writer call.
_WRITE_CHUNK = 1024


def merge_pass(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str = "merge_read",
    options: MergeOptions | None = None,
    keyed: bool = False,
) -> Iterator[bytes]:
    """Stream the records of ``runs`` merged into one sorted sequence.

    The caller guarantees the fan-in fits its memory budget.  Consumed runs
    are freed as they drain.  With ``keyed`` the stream yields
    ``(normalized key, record)`` pairs so the consumer can capture the
    output run's key sidecar without re-evaluating keys.
    """
    options = options or DEFAULT_MERGE_OPTIONS
    if options.loser_tree:
        return _merge_pass_loser_tree(
            store, runs, key_of, read_category, keyed
        )
    return _merge_pass_heap(
        store, runs, key_of, read_category, options, keyed
    )


def _merge_pass_heap(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str,
    options: MergeOptions,
    keyed: bool = False,
) -> Iterator[bytes]:
    if not runs:
        return
    device = store.device
    comparisons_per_record = max(1, ceil(log2(len(runs)))) if len(
        runs
    ) > 1 else 0
    if len(runs) > 1 and have_numpy():
        # Vectorized replay: when every input run carries a key sidecar,
        # the merged order is one stable argsort of the concatenated
        # sidecars (a heap merge with (key, run-index) tie-break IS the
        # stable sort of the run-order concatenation), and the pass just
        # replays record pulls in that order.  Pull interleaving, free
        # timing, and charge totals match the heap loop below exactly.
        sidecars = merge_sidecars(store, runs, key_of)
        if sidecars is not None:
            readers = [
                store.open_reader(run, category=read_category)
                for run in runs
            ]
            yield from replay_merge(
                store, runs, readers, sidecars, comparisons_per_record,
                keyed=keyed, prefix_width=options.keys.prefix_width,
            )
            return
    readers = [
        store.open_reader(run, category=read_category) for run in runs
    ]
    heap: list[tuple[object, int, bytes]] = []
    batch_keys = batch_keys_for(key_of)
    pulls = [
        keyed_puller(reader, batch_keys, run_sidecar(store, run, key_of))
        for run, reader in zip(runs, readers)
    ]
    for index, pull in enumerate(pulls):
        entry = pull()
        if entry is not None:
            heap.append((entry[0], index, entry[1]))
    heapq.heapify(heap)
    stats = device.stats
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        key, index, record = heappop(heap)
        if comparisons_per_record:
            stats.record_merge_comparisons(comparisons_per_record)
        yield (key, record) if keyed else record
        entry = pulls[index]()
        if entry is not None:
            heappush(heap, (entry[0], index, entry[1]))
        else:
            store.free(runs[index])
    stats.record_tokens(sum(run.record_count for run in runs))


def _merge_pass_loser_tree(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str,
    keyed: bool = False,
) -> Iterator[bytes]:
    if not runs:
        return
    device = store.device
    # Each input run is its own sequential stream: interleaved per-run
    # reads must not be judged against each other, and in a real multi-file
    # setup (one file per run, OS readahead per descriptor) they would not
    # be.  The heap kernel keeps the seed's single-stream judgment.
    streams = [f"{read_category}:run{run.run_id}" for run in runs]
    readers = [
        store.open_reader(run, category=read_category, stream=stream)
        for run, stream in zip(runs, streams)
    ]

    # Forecast-driven prefetch (repro.io.parallel): when the I/O target
    # exposes a prefetch window, keep each live run at most one block
    # ahead of its reader, prioritized by the loser tree's head keys.
    # Prefetch only reorders the reads this merge was about to issue, so
    # counters stay identical with it on or off.
    prefetcher = None
    if len(runs) > 1 and store.io_target.prefetch_depth > 0:
        prefetcher = MergePrefetcher(
            store.io_target, runs, readers,
            category=read_category, streams=streams,
        )

    batch_keys = batch_keys_for(key_of)

    def make_pull(index: int):
        # Sift pulls come from batch-parsed blocks with batch-computed
        # (or sidecar-served) keys; the tournament (and its counted
        # comparisons) is untouched.
        pairs = keyed_puller(
            readers[index], batch_keys,
            run_sidecar(store, runs[index], key_of),
        )

        def pull():
            entry = pairs()
            if entry is None:
                if prefetcher is not None:
                    prefetcher.exhausted(index)
                return None
            if prefetcher is not None:
                prefetcher.note_head(index, entry[0])
                prefetcher.pump()
            return entry

        return pull

    def on_exhausted(index: int):
        store.free(runs[index])

    tree = LoserTree(
        [make_pull(index) for index in range(len(runs))],
        stats=device.stats,
        on_exhausted=on_exhausted,
    )
    if keyed:
        for key, record in tree:
            yield key, record
    else:
        for _key, record in tree:
            yield record
    device.stats.record_tokens(sum(run.record_count for run in runs))


def _merged_group(
    store: RunStore,
    group: list[RunHandle],
    key_of: Callable[[bytes], object],
    read_category: str,
    write_category: str,
    options: MergeOptions | None,
    recovery,
    phase: str,
    unit: int,
) -> RunHandle:
    """Merge one group of runs into a new run, optionally restartably.

    With a :class:`~repro.faults.RecoveryContext`, the group merge runs
    under a device recovery hold: a transient fault that escapes the
    retry layer abandons the partial output, restores the input runs the
    failed attempt already drained and freed, and re-merges the group.
    The completed run is recorded as a checkpoint.
    """
    options = options or DEFAULT_MERGE_OPTIONS
    # Capture the output run's key sidecar while writing: the merged
    # stream already knows every record's normalized key, so the next
    # pass over this run can skip key evaluation (or replay outright).
    # Only the two normalized-bytes key functions qualify - custom keys
    # would poison later sidecar consumers.
    collect = key_of is fast_path_key or key_of is embedded_key_of
    # Grouped writer calls reorder output writes relative to the merge's
    # input reads.  Without a shared buffer pool (eviction order observes
    # the global access sequence) or a recovery context (fault points
    # interact with the partial writer state) that reordering is
    # invisible to every counter: each stream's own access sequence -
    # and every per-category fault trigger index - is unchanged.
    grouped = recovery is None and store.pool is None
    if (
        grouped
        and collect
        and not options.loser_tree
        and len(group) > 1
        and have_numpy()
    ):
        # Heap kernel only: the loser tree *counts* its tournament
        # comparisons and reads each run as its own stream, neither
        # of which a replay reproduces.
        sidecars = merge_sidecars(store, group, key_of)
        if sidecars is not None:
            # Fully-replayed materialized pass: merged order from the
            # sidecar argsort, grouped reads and writes, and the
            # output sidecar comes straight from the sorted keys.
            writer = store.create_writer(write_category)
            readers = [
                store.open_reader(run, category=read_category)
                for run in group
            ]
            keys = replay_merge_to_writer(
                store, group, readers, sidecars,
                max(1, ceil(log2(len(group)))), writer,
                _WRITE_CHUNK, options.keys.prefix_width,
            )
            handle = writer.finish()
            store.key_sidecars[handle.run_id] = keys
            return handle

    def attempt_once() -> RunHandle:
        writer = store.create_writer(write_category)
        keys: list = []
        try:
            stream = merge_pass(
                store, group, key_of, read_category, options,
                keyed=collect,
            )
            if grouped:
                while True:
                    batch = list(islice(stream, _WRITE_CHUNK))
                    if not batch:
                        break
                    if collect:
                        keys.extend(entry[0] for entry in batch)
                        batch = [entry[1] for entry in batch]
                    writer.write_records(batch)
            else:
                for entry in stream:
                    if collect:
                        keys.append(entry[0])
                        entry = entry[1]
                    writer.write_record(entry)
        except DeviceFault:
            writer.abandon()
            raise
        handle = writer.finish()
        if collect:
            store.key_sidecars[handle.run_id] = keys
        return handle

    if recovery is None:
        return attempt_once()
    handle = recovery.attempt(phase, unit, attempt_once, device=store.device)
    recovery.checkpoint(phase, unit, run_id=handle.run_id)
    return handle


def merge_to_single_run(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    fan_in: int,
    read_category: str = "merge_read",
    write_category: str = "merge_write",
    options: MergeOptions | None = None,
    tracer: Tracer | None = None,
    recovery=None,
) -> tuple[RunHandle, int]:
    """Repeatedly merge until one run remains; returns (run, passes)."""
    if fan_in < 2:
        raise RunError(f"fan-in must be at least 2, got {fan_in}")
    if not runs:
        raise RunError("nothing to merge")
    passes = 0
    current = list(runs)
    while len(current) > 1:
        passes += 1
        with maybe_span(
            tracer, "merge-pass",
            index=passes, fanin=fan_in, runs=len(current),
        ):
            merged: list[RunHandle] = []
            for group_start in range(0, len(current), fan_in):
                group = current[group_start : group_start + fan_in]
                if len(group) == 1:
                    merged.append(group[0])
                    continue
                merged.append(
                    _merged_group(
                        store, group, key_of, read_category,
                        write_category, options, recovery,
                        f"merge-pass-{passes}", len(merged),
                    )
                )
            current = merged
    return current[0], passes


def merge_to_stream(
    store: RunStore,
    runs: list[RunHandle],
    key_of: Callable[[bytes], object],
    fan_in: int,
    read_category: str = "merge_read",
    write_category: str = "merge_write",
    options: MergeOptions | None = None,
    tracer: Tracer | None = None,
    recovery=None,
) -> tuple[Iterator[bytes], int, int]:
    """Merge passes until <= fan_in runs remain, then stream the final merge.

    Saves the materialization of the last pass: external merge sort pipes
    its final merge straight into the output decoder, which is how the
    textbook pass count ``1 + ceil(log_{fan_in}(initial_runs))`` arises.
    Under the loser-tree kernel the intermediate passes are partial as
    well: only enough runs are merged to bring the count down to
    ``fan_in``, and the rest flow unmaterialized into the final merge.
    Returns (record iterator, materialized passes, final merge width).
    """
    if fan_in < 2:
        raise RunError(f"fan-in must be at least 2, got {fan_in}")
    passes = 0
    current = list(runs)
    partial = options is not None and options.loser_tree
    if partial and len(current) > fan_in:
        # Partial-pass scheduling (new merge engine only, so the default
        # pass structure stays bit-identical): one pass merges just
        # enough head groups to bring the run count down to exactly
        # ``fan_in``; the tail runs skip materialization and go straight
        # into the streamed final merge.  Groups stay contiguous and in
        # run order, so ties still resolve by original run index and the
        # output matches the full-pass kernels record for record.
        passes += 1
        with maybe_span(
            tracer, "merge-pass",
            index=passes, fanin=fan_in, runs=len(current), partial=True,
        ):
            excess = len(current) - fan_in
            group_count = ceil(excess / (fan_in - 1))
            sizes = [excess - (group_count - 1) * (fan_in - 1) + 1]
            sizes += [fan_in] * (group_count - 1)
            merged = []
            start = 0
            for size in sizes:
                group = current[start : start + size]
                start += size
                merged.append(
                    _merged_group(
                        store, group, key_of, read_category,
                        write_category, options, recovery,
                        f"merge-pass-{passes}", len(merged),
                    )
                )
            merged.extend(current[start:])
            current = merged
    while len(current) > fan_in:
        passes += 1
        with maybe_span(
            tracer, "merge-pass",
            index=passes, fanin=fan_in, runs=len(current),
        ):
            merged: list[RunHandle] = []
            for group_start in range(0, len(current), fan_in):
                group = current[group_start : group_start + fan_in]
                if len(group) == 1:
                    merged.append(group[0])
                    continue
                merged.append(
                    _merged_group(
                        store, group, key_of, read_category,
                        write_category, options, recovery,
                        f"merge-pass-{passes}", len(merged),
                    )
                )
            current = merged
    width = len(current)
    if tracer is not None:
        # The final merge streams lazily; its I/O lands in whichever span
        # consumes the iterator.  Mark where it begins.
        tracer.event("final-merge-stream", width=width, passes=passes)
    if width == 1:
        reader = store.open_reader(current[0], category=read_category)
        return _drained(reader), passes, width
    return merge_pass(store, current, key_of, read_category, options), passes, width


def _drained(reader) -> Iterator[bytes]:
    """Iterate a single run with block-drain batched record parsing."""
    pull = record_puller(reader)
    while True:
        record = pull()
        if record is None:
            return
        yield record


def write_sorted_run(
    store: RunStore,
    records: Iterable[bytes],
    key_of: Callable[[bytes], object],
    write_category: str = "merge_write",
    options: MergeOptions | None = None,
) -> RunHandle:
    """Sort a batch of records in memory and write it as one run.

    Charges ``n * ceil(log2 n)`` comparisons - the standard in-memory sort
    bound - unless ``options`` selects counted accounting, in which case
    the comparisons the sort actually performed are recorded instead.
    """
    if options is None:
        options = DEFAULT_MERGE_OPTIONS
    batch = list(records)
    sort_with_accounting(
        batch, key_of, store.device.stats, options.counted_comparisons
    )
    store.device.stats.record_tokens(len(batch))
    writer = store.create_writer(write_category)
    # Post-sort the whole batch is in memory; one grouped call issues the
    # per-stream write sequence of one call per record.
    writer.write_records(batch)
    return writer.finish()
