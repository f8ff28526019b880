"""NEXSORT - Nested Data and XML Sorting (paper Sections 3 and 3.2).

The sorting phase follows Figure 4 line by line: scan the input depth-first
with an event parser, push every unit of data onto the external-memory
*data stack*, track element start locations on the *path stack*, and
whenever an end tag closes a subtree whose size has reached the sort
threshold ``t`` (or the root closes), pop the subtree, sort it
(:mod:`repro.core.subtree`), write it as a sorted run, and push the root
back as a single :class:`~repro.xml.tokens.RunPointer`.  The output phase
(:mod:`repro.core.output`) then walks the resulting tree of sorted runs.

Extensions from Section 3.2, all selectable via :class:`NexsortOptions`:

* **depth-limited sorting** (``depth_limit=d``): subtrees rooted below
  level ``d`` are treated as atomic; the sorting condition gains the
  ``d_s <= d + 1`` check and subtree sorts are truncated to the top
  ``d + 1 - d_s`` levels.
* **graceful degeneration** (``flat_optimization=True``): when an
  incomplete subtree fills internal memory, its complete children are
  sorted in memory into an *incomplete sorted run*; the runs of one element
  are merged when it closes.  Flat inputs then cost the same passes as
  external merge sort.
* **compaction** is inherited from how the document is stored (name
  dictionaries, end-tag elimination); with end tags eliminated, end events
  still trigger sorting decisions but are never pushed onto the data stack.
* **complex ordering criteria**: subtree-evaluated keys (ByText,
  ByChildPath) ride on end tags, evaluated in the single scanning pass by
  :class:`~repro.keys.KeyEvaluator`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CodecError, DeviceFault, SortSpecError
from ..io.budget import MemoryBudget, MINIMUM_NEXSORT_BLOCKS
from ..io.bufferpool import BufferPool
from ..io.compress import CompressionConfig
from ..io.stacks import ExternalStack
from ..keys import KeyEvaluator, SortSpec
from ..merge.engine import DEFAULT_MERGE_OPTIONS, MergeOptions
from ..obs.tracer import Tracer, maybe_span
from ..xml.codec import (
    TYPE_END,
    TYPE_POINTER,
    TYPE_START,
    TYPE_TEXT,
    read_varint,
    write_varint,
)
from ..xml.document import Document
from ..xml.tokens import (
    EndTag,
    MISSING_KEY,
    RunPointer,
    StartTag,
    Text,
)
from . import flat as flat_mod
from .columnar import (
    _VARINT1,
    ScanSpliceCache,
    _encode_tag_attrs,
    _skip_frame,
    _skip_tag_attrs,
    varint_bytes,
)
from .output import output_phase
from .report import NexsortReport, SubtreeSortInfo
from .subtree import SubtreeSorter


@dataclass(frozen=True)
class NexsortOptions:
    """Tunable knobs of NEXSORT.

    Attributes:
        threshold_bytes: the sort threshold ``t`` in encoded bytes; None
            means twice the block size, the paper's recommended setting
            ("we set the threshold to be roughly twice the block size,
            which works well for most inputs").
        depth_limit: sort only down to this level (root = 1); None sorts
            head to toe.
        flat_optimization: enable graceful degeneration into external
            merge sort for flat inputs.
        cache_blocks: blocks of the memory budget spent on a
            :class:`~repro.io.bufferpool.BufferPool` in front of the
            device.  0 (the default) runs with no pool at all, keeping
            every I/O count bit-identical to the unpooled algorithm; a
            positive value is reserved from ``M`` like any other component
            and makes the output phase's run re-reads and stack paging
            cache hits instead of device I/Os.
        merge: run-formation / merge-kernel / key-embedding knobs shared
            with the baselines (:class:`~repro.merge.engine.MergeOptions`);
            the defaults are the paper-faithful load-sort + heap + analytic
            accounting.
    """

    threshold_bytes: int | None = None
    depth_limit: int | None = None
    flat_optimization: bool = False
    cache_blocks: int = 0
    merge: MergeOptions = DEFAULT_MERGE_OPTIONS


class _OpenFrame:
    """In-memory mirror of one path-stack entry.

    The external path stack carries the start locations (and is what gets
    paged, per Lemma 4.11); the mirror holds the constant-size per-element
    state the paper's augmented path stack also carries (Section 3.2):
    where the element's content begins, and - in graceful-degeneration
    mode - the incomplete runs flushed for it so far.
    """

    __slots__ = (
        "loc",
        "content_loc",
        "partial_runs",
        "flat_units",
        "flat_real",
        "end_record",
    )

    def __init__(self, loc: int, content_loc: int):
        self.loc = loc
        self.content_loc = content_loc
        self.partial_runs: list = []
        self.flat_units = 0
        self.flat_real = 0
        # Fused columnar scan only: the pre-spliced end-tag record this
        # element pushes when it closes (plain storage).
        self.end_record: bytes | None = None


class NexSorter:
    """Configured NEXSORT instance.

    Args:
        spec: the ordering criterion.
        memory_blocks: the model parameter ``M``.
        options: threshold / depth limit / graceful degeneration.
    """

    def __init__(
        self,
        spec: SortSpec,
        memory_blocks: int,
        options: NexsortOptions | None = None,
    ):
        self.options = options or NexsortOptions()
        cache_blocks = self.options.cache_blocks
        if cache_blocks < 0:
            raise SortSpecError(
                f"cache_blocks cannot be negative: {cache_blocks}"
            )
        if memory_blocks < MINIMUM_NEXSORT_BLOCKS + cache_blocks:
            raise SortSpecError(
                f"NEXSORT needs at least {MINIMUM_NEXSORT_BLOCKS} memory "
                f"blocks (2 path stack, 1 data stack, 1 output-location "
                f"stack, 2 transfer buffers) plus the {cache_blocks} "
                f"buffer-pool blocks; got {memory_blocks}"
            )
        self.spec = spec
        self.memory_blocks = memory_blocks

    def sort(
        self,
        document: Document,
        tracer: Tracer | None = None,
        recovery=None,
        lease=None,
    ) -> tuple[Document, NexsortReport]:
        """Sort ``document``; returns (sorted document, full report).

        With a :class:`~repro.obs.tracer.Tracer`, the sort opens a
        ``document-scan`` span over the scanning phase (with nested
        ``subtree-sort`` / ``flat-element-merge`` spans) and an
        ``output-walk`` span over the output phase; ``tracer=None`` (the
        default) takes zero-cost fast paths, so untraced runs remain
        bit-identical to the paper-faithful counts.

        With a :class:`~repro.faults.RecoveryContext`, subtree sorts and
        merge passes checkpoint after every completed run and restart on
        transient device faults; faults that cannot be recovered surface
        as :class:`~repro.errors.SortRecoveryError` naming the last
        completed checkpoint.
        """
        if recovery is None:
            return self._sort(document, tracer, None, lease)
        try:
            return self._sort(document, tracer, recovery, lease)
        except DeviceFault as fault:
            # A fault escaped every retry and restartable unit (e.g. in
            # scan-phase stack paging, which has no restartable unit).
            raise recovery.to_error(fault) from fault

    def _sort(
        self,
        document: Document,
        tracer: Tracer | None,
        recovery,
        lease=None,
    ) -> tuple[Document, NexsortReport]:
        compact = (
            document.compaction is not None
            and document.compaction.eliminate_end_tags
        )
        if compact and not self.spec.start_computable:
            raise SortSpecError(
                "end-tag elimination requires start-computable keys: with "
                "end tags gone there is nowhere to carry a "
                "subtree-evaluated key (store the document without "
                "compaction, or use an attribute/tag criterion)"
            )
        store = document.store
        device = store.device
        codec = document.codec
        block = device.block_size

        options = self.options
        threshold = (
            options.threshold_bytes
            if options.threshold_bytes is not None
            else 2 * block
        )
        depth_limit = options.depth_limit

        if lease is not None:
            # Per-job lease (repro.io.lease): memory comes from the slice
            # carved out of the shared pool instead of a private budget.
            # Reservation arithmetic below is unchanged, so a lease of M
            # blocks reproduces the ambient MemoryBudget(M) run exactly.
            if lease.budget.total_blocks != self.memory_blocks:
                raise SortSpecError(
                    f"lease grants {lease.budget.total_blocks} blocks but "
                    f"the sorter was configured for {self.memory_blocks}"
                )
            budget = lease.budget
        else:
            budget = MemoryBudget(self.memory_blocks)
        path_reservation = budget.reserve(2, "path-stack")
        output_reservation = budget.reserve(1, "output-location-stack")
        buffer_reservation = budget.reserve(2, "transfer-buffers")
        if options.cache_blocks:
            # The pool reserves its capacity from the same budget: cached
            # blocks are memory the model granted, not a free lunch.
            store.attach_pool(
                BufferPool(
                    device,
                    options.cache_blocks,
                    budget=budget,
                    owner="buffer-pool",
                    tracer=tracer,
                )
            )
        data_reservation = budget.reserve_rest("data-stack-and-sorter")
        data_blocks = max(1, data_reservation.blocks)
        capacity_bytes = data_blocks * block
        fan_in = max(2, data_blocks - 1)
        paging_target = store.io_target
        prior_compression = store.compression
        if options.merge.compress is not None:
            store.compression = CompressionConfig(
                codec=options.merge.compress,
                embedded_keys=options.merge.embedded_keys,
                capacity=options.merge.compress_capacity,
            )

        try:
            report = NexsortReport(
                element_count=document.element_count,
                max_fanout=document.max_fanout,
                input_blocks=document.block_count,
                memory_blocks=self.memory_blocks,
                block_size=block,
                threshold_bytes=threshold,
                depth_limit=depth_limit,
                flat_optimization=options.flat_optimization,
            )
            before_all = device.stats.snapshot()

            sorter = SubtreeSorter(
                store, codec, compact, capacity_bytes, fan_in, options.merge,
                tracer=tracer, recovery=recovery,
            )
            self._tracer = tracer
            # Graceful-degeneration replacement selection keeps at most one
            # partial-run writer open across flushes (it owns one transfer
            # buffer); (frame, writer) of the open run, or None.
            self._open_partial: tuple[_OpenFrame, object] | None = None
            self._run_lengths: list[int] = []
            data_stack = ExternalStack(paging_target, data_blocks, "data_stack")
            path_stack = ExternalStack(paging_target, 2, "path_stack")
            frames: list[_OpenFrame] = []
            start_keyed = self.spec.start_computable

            evaluator = KeyEvaluator(self.spec)
            root_pointer: RunPointer | None = None

            # Fused scan: annotate stored records by byte splicing
            # instead of decode -> KeyEvaluator -> encode.  Start-
            # computable keys only (the splice evaluates keys from raw
            # tag+attrs slices); graceful degeneration keeps the token
            # loop (its flush heuristics inspect decoded tokens).
            fused = start_keyed and not options.flat_optimization
            with maybe_span(
                tracer,
                "document-scan",
                threshold=threshold,
                memory_blocks=self.memory_blocks,
                depth_limit=depth_limit,
                flat=options.flat_optimization,
            ):
                if fused:
                    self._scan_columnar(
                        document,
                        frames,
                        data_stack,
                        path_stack,
                        codec,
                        store,
                        device,
                        sorter,
                        report,
                        compact,
                        threshold,
                        depth_limit,
                        fan_in,
                    )
                else:
                    self._scan_scalar(
                        document,
                        evaluator,
                        frames,
                        data_stack,
                        path_stack,
                        codec,
                        store,
                        device,
                        sorter,
                        report,
                        compact,
                        threshold,
                        depth_limit,
                        fan_in,
                        start_keyed,
                        capacity_bytes,
                    )

                # The data stack now holds exactly the root pointer.
                assert self._open_partial is None, "unclosed partial run"
                root_record = data_stack.pop()
                root_pointer = codec.decode(root_record)
                assert isinstance(root_pointer, RunPointer)
            report.data_stack_page_ins = data_stack.page_ins
            report.data_stack_page_outs = data_stack.page_outs
            report.path_stack_page_ins = path_stack.page_ins
            report.path_stack_page_outs = path_stack.page_outs
            report.sorting_stats = device.stats.since(before_all)

            # Output phase: depth-first traversal of the tree of sorted runs.
            # The span also covers the pool detach so deferred write-backs
            # are attributed to the phase that deferred them.
            before_output = device.stats.snapshot()
            with maybe_span(tracer, "output-walk"):
                handle, output_page_ins, output_page_outs = output_phase(
                    store, root_pointer, tracer=tracer
                )
                # Detach (and flush) the pool before the final snapshots so
                # the write-back of any still-dirty output blocks is
                # accounted.
                store.detach_pool()
            report.output_stack_page_ins = output_page_ins
            report.output_stack_page_outs = output_page_outs
            report.output_stats = device.stats.since(before_output)
            report.stats = device.stats.since(before_all)
            run_lengths = self._run_lengths + sorter.run_lengths
            if run_lengths:
                report.avg_run_length = sum(run_lengths) / len(run_lengths)
                report.max_run_length = max(run_lengths)

            for reservation in (
                path_reservation,
                output_reservation,
                buffer_reservation,
                data_reservation,
            ):
                reservation.release()

            output = Document(
                store, handle, document.stats, document.compaction
            )
            return output, report
        finally:
            # Always restore the store to direct-device I/O (flushing any
            # dirty cached blocks), even if the sort failed mid-stream.
            store.compression = prior_compression
            store.detach_pool()

    # -- sorting-phase internals ---------------------------------------------

    def _scan_scalar(
        self,
        document: Document,
        evaluator: KeyEvaluator,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        path_stack: ExternalStack,
        codec,
        store,
        device,
        sorter: SubtreeSorter,
        report: NexsortReport,
        compact: bool,
        threshold: int,
        depth_limit: int | None,
        fan_in: int,
        start_keyed: bool,
        capacity_bytes: int,
    ) -> None:
        """The reference scanning loop: decode, annotate, re-encode."""
        for event in evaluator.annotate(
            document.iter_events("input_scan")
        ):
            if isinstance(event, StartTag):
                token = StartTag(
                    event.tag,
                    event.attrs,
                    key=event.key if start_keyed else None,
                    pos=event.pos,
                    level=event.level if compact else None,
                )
                encoded = codec.encode(token)
                loc = data_stack.push(encoded)
                path_stack.push(_encode_path_entry(loc))
                frames.append(_OpenFrame(loc, loc + len(encoded)))
                device.stats.record_tokens(1)
            elif isinstance(event, Text):
                token = Text(
                    event.text, level=len(frames) if compact else None
                )
                data_stack.push(codec.encode(token))
                device.stats.record_tokens(1)
                self._maybe_flush_partial(
                    frames, data_stack, codec, store, device, report,
                    compact, capacity_bytes, depth_limit,
                )
            elif isinstance(event, EndTag):
                self._handle_end(
                    event,
                    frames,
                    data_stack,
                    path_stack,
                    codec,
                    store,
                    device,
                    sorter,
                    report,
                    compact,
                    threshold,
                    depth_limit,
                    fan_in,
                    start_keyed,
                )
                if frames:
                    self._maybe_flush_partial(
                        frames, data_stack, codec, store, device,
                        report, compact, capacity_bytes, depth_limit,
                    )
            else:  # pragma: no cover - evaluator only yields these
                raise SortSpecError(f"unexpected event {event!r}")

    def _scan_columnar(
        self,
        document: Document,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        path_stack: ExternalStack,
        codec,
        store,
        device,
        sorter: SubtreeSorter,
        report: NexsortReport,
        compact: bool,
        threshold: int,
        depth_limit: int | None,
        fan_in: int,
    ) -> None:
        """Fused scanning loop: annotate stored records by byte splicing.

        Replaces ``iter_events -> KeyEvaluator.annotate -> codec.encode``
        with one pass over the raw stored records: the annotated start
        pushed onto the data stack is assembled as ``type, flags,
        tag+attrs (verbatim slice), key atom (memoized per distinct
        tag+attrs), pos varint[, level varint]``, texts are pushed
        verbatim (their stored bytes already equal the scalar re-encode),
        and plain end tags are pre-spliced at the matching start.  Every
        push - and therefore every data-stack byte, token charge, paging
        decision, and subtree-sort trigger - is bit-identical to
        :meth:`_scan_scalar`; input block reads fire at the same record
        pull index (draining an already-buffered block is free in the
        device model either way).
        """
        names = (
            document.compaction.names if document.compaction else None
        )
        cache = ScanSpliceCache(self.spec, names)
        pieces_for = cache.pieces_for
        reader = store.open_reader(document.handle, category="input_scan")
        read_available = reader.read_available_records
        read_one = reader.read_record
        push = data_stack.push
        push_path = path_stack.push
        record_tokens = device.stats.record_tokens
        join = b"".join
        next_pos = 0
        if compact:
            # No stored end tags: element closes are synthesized from
            # level transitions with ``restore_end_tags``' exact rules.
            open_levels: list[int] = []

            def close_top() -> None:
                path_stack.pop()
                frame = frames.pop()
                open_levels.pop()
                self._close_subtree(
                    frame, frames, data_stack, codec, store, device,
                    sorter, report, compact, threshold, depth_limit,
                    fan_in,
                )

        while True:
            chunk = read_available()
            if not chunk:
                record = read_one()
                if record is None:
                    break
                chunk = (record,)
            for record in chunk:
                token_type = record[0]
                if token_type == TYPE_START:
                    flags = record[1]
                    if compact:
                        if flags == 4:  # level-annotated, the stored form
                            end = _skip_tag_attrs(
                                record, 2, names is not None
                            )
                            tag_attrs = record[2:end]
                            stored_level, _ = read_varint(record, end)
                        else:
                            token = codec.decode(record)
                            if token.level is None:
                                raise CodecError(
                                    "compacted stream contains a start "
                                    "without a level"
                                )
                            tag_attrs = _encode_tag_attrs(
                                token.tag, token.attrs, names
                            )
                            stored_level = token.level
                        while open_levels and open_levels[-1] >= stored_level:
                            close_top()
                    elif flags:
                        # Annotated start in plain storage (rare): decode,
                        # then re-encode the bare tag+attrs slice.
                        token = codec.decode(record)
                        tag_attrs = _encode_tag_attrs(
                            token.tag, token.attrs, names
                        )
                    else:
                        tag_attrs = record[2:]
                    pos = next_pos
                    next_pos += 1
                    enc_atom, name_field = pieces_for(tag_attrs)
                    if pos < 0x80:
                        pos_varint = _VARINT1[pos]
                    else:
                        pos_varint = varint_bytes(pos)
                    if compact:
                        # The evaluator annotates depth, not the stored
                        # level (equal on any well-formed stream).
                        depth = len(frames) + 1
                        encoded = join(
                            (
                                b"\x01\x07",
                                tag_attrs,
                                enc_atom,
                                pos_varint,
                                _VARINT1[depth]
                                if depth < 0x80
                                else varint_bytes(depth),
                            )
                        )
                    else:
                        encoded = join(
                            (b"\x01\x03", tag_attrs, enc_atom, pos_varint)
                        )
                    loc = push(encoded)
                    push_path(
                        _VARINT1[loc] if loc < 0x80 else varint_bytes(loc)
                    )
                    frame = _OpenFrame(loc, loc + len(encoded))
                    if compact:
                        open_levels.append(stored_level)
                    else:
                        frame.end_record = join(
                            (b"\x03\x02", name_field, pos_varint)
                        )
                    frames.append(frame)
                    record_tokens(1)
                elif token_type == TYPE_TEXT:
                    if compact:
                        if record[1] & 4:
                            stored_level, _ = read_varint(
                                record, _skip_frame(record, 2)
                            )
                            while (
                                open_levels
                                and open_levels[-1] > stored_level
                            ):
                                close_top()
                            depth = len(frames)
                            if stored_level == depth:
                                push(record)
                            else:  # pragma: no cover - malformed levels
                                token = codec.decode(record)
                                push(codec.encode(Text(token.text, level=depth)))
                        else:
                            token = codec.decode(record)
                            push(
                                codec.encode(
                                    Text(token.text, level=len(frames))
                                )
                            )
                    elif record[1]:
                        token = codec.decode(record)
                        push(codec.encode(Text(token.text)))
                    else:
                        push(record)
                    record_tokens(1)
                elif token_type == TYPE_END:
                    if compact:
                        raise CodecError(
                            "compacted stream already contains end tags"
                        )
                    path_stack.pop()
                    frame = frames.pop()
                    push(frame.end_record)
                    record_tokens(1)
                    self._close_subtree(
                        frame, frames, data_stack, codec, store, device,
                        sorter, report, compact, threshold, depth_limit,
                        fan_in,
                    )
                elif token_type == TYPE_POINTER:
                    raise SortSpecError(
                        "unexpected run pointer in a document scan"
                    )
                else:
                    raise CodecError(
                        f"unknown token type byte {token_type}"
                    )
        if compact:
            while open_levels:
                close_top()
        if frames:
            raise CodecError(
                "unbalanced event stream during columnar scan"
            )

    def _handle_end(
        self,
        event: EndTag,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        path_stack: ExternalStack,
        codec,
        store,
        device,
        sorter: SubtreeSorter,
        report: NexsortReport,
        compact: bool,
        threshold: int,
        depth_limit: int | None,
        fan_in: int,
        start_keyed: bool,
    ) -> None:
        path_stack.pop()
        frame = frames.pop()
        d_s = len(frames) + 1

        if not compact:
            end_token = EndTag(
                event.tag,
                key=event.key if not start_keyed else None,
                pos=event.pos,
            )
            data_stack.push(codec.encode(end_token))
            device.stats.record_tokens(1)

        if frame.partial_runs or self._owns_open_partial(frame):
            self._finish_flat_element(
                frame, event, frames, data_stack, codec, store, device,
                report, compact, d_s, depth_limit, fan_in,
            )
            return

        self._close_subtree(
            frame, frames, data_stack, codec, store, device, sorter,
            report, compact, threshold, depth_limit, fan_in,
        )

    def _close_subtree(
        self,
        frame: _OpenFrame,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        codec,
        store,
        device,
        sorter: SubtreeSorter,
        report: NexsortReport,
        compact: bool,
        threshold: int,
        depth_limit: int | None,
        fan_in: int,
    ) -> None:
        """Apply the sorting condition to a just-closed element and, when
        it fires, pop + sort the subtree and push back its run pointer.
        ``frame`` is already popped; both scan loops share this path."""
        d_s = len(frames) + 1
        size = data_stack.total_bytes - frame.loc
        is_root = not frames
        should_sort = size >= threshold
        if depth_limit is not None and d_s > depth_limit + 1:
            should_sort = False
        if is_root:
            should_sort = True
        if not should_sort:
            return

        sort_levels = None
        if depth_limit is not None:
            sort_levels = max(0, depth_limit + 1 - d_s)
        token_records = data_stack.pop_through(frame.loc)
        with maybe_span(
            self._tracer,
            "subtree-sort",
            id=len(report.subtree_sorts),
            size=size,
            level=d_s,
        ) as span:
            result = sorter.sort_records(
                token_records, size, d_s, sort_levels
            )
            if span is not None:
                span.set(
                    internal=result.internal,
                    units=result.units,
                    run_blocks=result.run.block_count,
                )
        report.subtree_sorts.append(
            SubtreeSortInfo(
                units=result.units,
                real_elements=result.real_elements,
                payload_bytes=result.payload_bytes,
                level=d_s,
                internal=result.internal,
                run_blocks=result.run.block_count,
            )
        )
        pointer = RunPointer(
            run_id=result.run.run_id,
            key=result.root_key,
            pos=result.root_pos,
            level=d_s if compact else None,
            element_count=result.real_elements,
            payload_bytes=result.payload_bytes,
        )
        data_stack.push(codec.encode(pointer))
        device.stats.record_tokens(1)

    def _maybe_flush_partial(
        self,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        codec,
        store,
        device,
        report: NexsortReport,
        compact: bool,
        capacity_bytes: int,
        depth_limit: int | None,
    ) -> None:
        """Graceful degeneration: flush the deepest open element's complete
        children into an incomplete sorted run when memory has filled."""
        if not self.options.flat_optimization or not frames:
            return
        frame = frames[-1]
        region_bytes = data_stack.total_bytes - frame.content_loc
        # Flush when the incomplete subtree is about to overflow the data
        # stack's memory (one block of headroom, so the flush happens
        # before paging starts).  Deep shapes where the fill is spread
        # across ancestors fall back to ordinary stack paging.
        flush_at = max(device.block_size, capacity_bytes - device.block_size)
        if region_bytes < flush_at:
            return
        child_level = len(frames) + 1
        sort_levels = None
        if depth_limit is not None:
            sort_levels = max(0, depth_limit + 1 - child_level)
        records = data_stack.pop_through(frame.content_loc)
        tokens = [codec.decode(record) for record in records]
        texts, groups = flat_mod.groups_from_region(
            tokens, compact, child_level, sort_levels, codec, device.stats,
            self.options.merge.counted_comparisons,
        )
        if not groups:
            # Nothing complete to flush (one giant open child): re-push.
            for record in records:
                data_stack.push(record)
            return
        self._write_partial_groups(frame, groups, store, device, report)
        frame.flat_units += sum(group.units for group in groups)
        frame.flat_real += sum(group.real for group in groups)
        # The element's own text stays on the stack for its final close.
        for text in texts:
            token = Text(text, level=len(frames) if compact else None)
            data_stack.push(codec.encode(token))

    # -- partial-run management (graceful degeneration) ----------------------

    def _owns_open_partial(self, frame: _OpenFrame) -> bool:
        return (
            self._open_partial is not None
            and self._open_partial[0] is frame
        )

    def _close_open_partial(self, report: NexsortReport) -> None:
        """Finish the open partial run and register it with its frame."""
        if self._open_partial is None:
            return
        owner, writer = self._open_partial
        self._open_partial = None
        handle = writer.finish()
        owner.partial_runs.append(handle)
        self._run_lengths.append(handle.record_count)
        report.flat_partial_runs += 1
        if self._tracer is not None:
            self._tracer.event(
                "partial-run-flush",
                records=handle.record_count,
                blocks=handle.block_count,
            )

    def _write_partial_groups(
        self,
        frame: _OpenFrame,
        groups: list,
        store,
        device,
        report: NexsortReport,
    ) -> None:
        """Write one key-ordered batch of child groups as partial-run data.

        Default mode: one batch = one partial run, exactly the paper's
        incomplete-run construction.  With replacement selection, a batch
        whose first key is at or above the open run's last key *extends*
        that run (one comparison, charged), producing fewer, longer
        partial runs - the data stack plays the role of the selection
        heap, so no extra workspace is needed.
        """
        if not self.options.merge.replacement_selection:
            handle = flat_mod.write_partial_run(store, groups)
            frame.partial_runs.append(handle)
            self._run_lengths.append(handle.record_count)
            report.flat_partial_runs += 1
            if self._tracer is not None:
                self._tracer.event(
                    "partial-run-flush",
                    records=handle.record_count,
                    blocks=handle.block_count,
                )
            return
        if self._owns_open_partial(frame):
            writer = self._open_partial[1]
            device.stats.record_comparisons(1)
            if not writer.can_extend(groups):
                self._close_open_partial(report)
        else:
            # A different frame's run is open: close it (one open
            # partial-run writer at a time bounds buffer memory).
            self._close_open_partial(report)
        if self._open_partial is None:
            self._open_partial = (
                frame,
                flat_mod.PartialRunWriter(store),
            )
        self._open_partial[1].write_groups(groups)

    def _finish_flat_element(
        self,
        frame: _OpenFrame,
        event: EndTag,
        frames: list[_OpenFrame],
        data_stack: ExternalStack,
        codec,
        store,
        device,
        report: NexsortReport,
        compact: bool,
        d_s: int,
        depth_limit: int | None,
        fan_in: int,
    ) -> None:
        """Close an element that has incomplete sorted runs: sort the
        remaining children into a final partial run, merge all of its
        partial runs, and collapse the element to a pointer."""
        child_level = d_s + 1
        sort_levels = None
        if depth_limit is not None:
            sort_levels = max(0, depth_limit + 1 - child_level)
        records = data_stack.pop_through(frame.loc)
        tokens = [codec.decode(record) for record in records]
        start_token = tokens[0]
        assert isinstance(start_token, StartTag)
        end_key = event.key if event.key is not None else start_token.key
        if end_key is None:
            end_key = MISSING_KEY
        pos = event.pos if event.pos is not None else 0
        region = tokens[1:]
        if region and isinstance(region[-1], EndTag):
            region = region[:-1]
        texts, groups = flat_mod.groups_from_region(
            region, compact, child_level, sort_levels, codec, device.stats,
            self.options.merge.counted_comparisons,
        )
        if groups:
            self._write_partial_groups(frame, groups, store, device, report)
            frame.flat_units += sum(group.units for group in groups)
            frame.flat_real += sum(group.real for group in groups)
        if self._owns_open_partial(frame):
            self._close_open_partial(report)

        # While merging this element's partial runs, the data-stack region
        # is empty (it was just popped), so its buffer blocks serve as
        # merge input buffers on top of the two transfer buffers.  Blocks
        # held by the buffer pool stay with the pool.
        flat_fan_in = max(
            fan_in, self.memory_blocks - 4 - self.options.cache_blocks
        )

        with maybe_span(
            self._tracer,
            "flat-element-merge",
            partial_runs=len(frame.partial_runs),
            level=d_s,
            fanin=flat_fan_in,
        ):
            writer = store.create_writer("run_write")
            clean_start = StartTag(
                start_token.tag,
                start_token.attrs,
                level=d_s if compact else None,
            )
            writer.write_record(codec.encode(clean_start))
            if texts:
                writer.write_record(
                    codec.encode(
                        Text("".join(texts), level=d_s if compact else None)
                    )
                )
            for group in flat_mod.iter_merged_groups(
                store, frame.partial_runs, flat_fan_in,
                options=self.options.merge,
                tracer=self._tracer,
            ):
                for token_bytes in group.token_bytes:
                    writer.write_record(token_bytes)
            if not compact:
                writer.write_record(codec.encode(EndTag(start_token.tag)))
            handle = writer.finish()
            report.flat_final_merges += 1

        units = 1 + frame.flat_units
        real = 1 + frame.flat_real
        report.subtree_sorts.append(
            SubtreeSortInfo(
                units=units,
                real_elements=real,
                payload_bytes=handle.payload_bytes,
                level=d_s,
                internal=False,
                run_blocks=handle.block_count,
            )
        )
        pointer = RunPointer(
            run_id=handle.run_id,
            key=end_key,
            pos=pos,
            level=d_s if compact else None,
            element_count=real,
            payload_bytes=handle.payload_bytes,
        )
        data_stack.push(codec.encode(pointer))
        device.stats.record_tokens(1)


def _encode_path_entry(location: int) -> bytes:
    out = bytearray()
    write_varint(out, location)
    return bytes(out)


def _decode_path_entry(data: bytes) -> int:
    value, _ = read_varint(data, 0)
    return value


def nexsort(
    document: Document,
    spec: SortSpec,
    memory_blocks: int,
    threshold_bytes: int | None = None,
    depth_limit: int | None = None,
    flat_optimization: bool = False,
    cache_blocks: int = 0,
    merge_options: MergeOptions | None = None,
    tracer: Tracer | None = None,
    recovery=None,
    lease=None,
) -> tuple[Document, NexsortReport]:
    """Convenience wrapper: sort ``document`` with NEXSORT."""
    options = NexsortOptions(
        threshold_bytes=threshold_bytes,
        depth_limit=depth_limit,
        flat_optimization=flat_optimization,
        cache_blocks=cache_blocks,
        merge=merge_options or DEFAULT_MERGE_OPTIONS,
    )
    return NexSorter(spec, memory_blocks, options).sort(
        document, tracer, recovery=recovery, lease=lease
    )
