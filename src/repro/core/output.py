"""NEXSORT's output phase (Figure 4, Lines 13-21).

After the sorting phase, the document is a tree of sorted runs connected by
run pointers (Figure 3).  The output phase performs a depth-first traversal
of that tree, implemented - as in the paper - with an explicit *output
location stack* rather than recursion, "because we wish to control I/Os
explicitly in the rare case that the call stack grows bigger than the
internal memory".

When a pointer is encountered, the current position within the current run
is pushed and reading jumps to the nested run; when a run ends, the saved
position is popped and reading resumes there - re-reading the block that
holds the resume offset, which is exactly the ``1 + p(b)`` accesses per run
block that Lemma 4.12 counts.

When the store has a :class:`~repro.io.bufferpool.BufferPool` attached, the
block holding each saved resume offset is *pinned* for the duration of the
nested descent, so the resume re-read is a guaranteed cache hit: the
``p(b)`` re-reads of Lemma 4.12 stop costing device I/O.  With no pool the
phase behaves exactly as before.

Non-pointer records are copied byte-for-byte into the output document (the
tokens inside runs already carry no sorting annotations).
"""

from __future__ import annotations

from ..errors import RunError
from ..io.runs import _LEN, RunHandle, RunStore
from ..io.stacks import ExternalStack
from ..xml.codec import (
    TokenCodec,
    is_pointer_record,
    read_varint,
    write_varint,
)
from ..xml.tokens import RunPointer


def output_phase(
    store: RunStore, root_pointer: RunPointer, tracer=None
) -> tuple[RunHandle, int, int]:
    """Expand the tree of sorted runs into the final output document.

    Returns (output run handle, output-location-stack page-ins, page-outs).
    The output-location stack uses one block of memory; nested run
    descents deeper than that spill, which is the Lemma 4.13 cost.
    A tracer records a summary event when the walk completes (the caller
    owns the enclosing ``output-walk`` span).

    Block-drained record batches are copied with one grouped writer call
    instead of one ``write_record`` per token - device-sequence-identical
    (same framed output stream, so blocks fill and flush at the same
    offsets; reads fire at the same pull indices), just less interpreter
    work per record.
    """
    device = store.device
    pool = store.pool
    codec = TokenCodec()  # only used to decode pointer records
    location_stack = ExternalStack(store.io_target, 1, "output_stack")
    writer = store.create_writer("output")

    # Readahead is explicitly off: the traversal jumps between runs, so
    # prefetched blocks would be evicted before they are consumed.  The
    # pool still serves the resume re-reads (pinned below) from cache.
    current = store.get(root_pointer.run_id)
    reader = store.open_reader(current, category="run_read", readahead=0)
    finished_runs = []
    # Parallel to the location stack: the pinned resume block per open
    # descent (None where pinning was not possible / no pool).
    pinned: list[int | None] = []

    def resume_parent() -> bool:
        """Pop back to the saved parent position; False at walk end."""
        nonlocal current, reader
        finished_runs.append(current)
        if location_stack.is_empty:
            return False
        run_id, offset = _decode_location(location_stack.pop())
        if pinned:
            pinned_block = pinned.pop()
            if pinned_block is not None:
                pool.unpin(pinned_block)
        current = store.get(run_id)
        # Resuming mid-run re-reads the block holding the offset.
        reader = store.open_reader(
            current, offset=offset, category="run_read", readahead=0
        )
        return True

    def descend(pointer_record: bytes, offset: int) -> None:
        """Jump into a nested run, saving the post-pointer offset."""
        nonlocal current, reader
        pointer = codec.decode(pointer_record)
        if not isinstance(pointer, RunPointer):  # pragma: no cover
            raise RunError("corrupt run: bad pointer record")
        location_stack.push(_encode_location(current.run_id, offset))
        if pool is not None:
            pinned.append(_pin_resume_block(pool, current, offset))
        current = store.get(pointer.run_id)
        reader = store.open_reader(
            current, category="run_read", readahead=0
        )

    header = _LEN.size
    while True:
        chunk = reader.read_available_records()
        if not chunk:
            record = reader.read_record()
            if record is None:
                if not resume_parent():
                    break
                continue
            chunk = [record]
        # Copy records up to the first pointer with one grouped call; on
        # a pointer, descend.  Drained records past the pointer are
        # abandoned with the reader - the resume re-reads their block,
        # exactly the ``1 + p(b)`` accounting of Lemma 4.12.
        jump = -1
        for index, record in enumerate(chunk):
            if is_pointer_record(record):
                jump = index
                break
        if jump < 0:
            writer.write_records(chunk)
            device.stats.record_tokens(len(chunk))
            continue
        if jump:
            writer.write_records(chunk[:jump])
            device.stats.record_tokens(jump)
        # Framed-stream offset just past the pointer record: the drain
        # already advanced the reader past the whole chunk, so subtract
        # the abandoned tail.
        offset = reader.tell() - sum(
            header + len(record) for record in chunk[jump + 1 :]
        )
        descend(chunk[jump], offset)

    handle = writer.finish()
    for run in finished_runs:
        store.free(run)
    if tracer is not None:
        tracer.event(
            "output-walk-done",
            runs=len(finished_runs),
            output_blocks=handle.block_count,
            stack_page_ins=location_stack.page_ins,
            stack_page_outs=location_stack.page_outs,
        )
    return handle, location_stack.page_ins, location_stack.page_outs


def _pin_resume_block(pool, run: RunHandle, offset: int) -> int | None:
    """Pin the block a nested descent will resume from; None if not cached."""
    if not run.block_ids:
        return None
    index = run.physical_index_for(offset, pool.block_size)
    block_id = run.block_ids[index]
    if pool.pin(block_id):
        return block_id
    return None


def _encode_location(run_id: int, offset: int) -> bytes:
    out = bytearray()
    write_varint(out, run_id)
    write_varint(out, offset)
    return bytes(out)


def _decode_location(data: bytes) -> tuple[int, int]:
    run_id, pos = read_varint(data, 0)
    offset, _ = read_varint(data, pos)
    return run_id, offset
