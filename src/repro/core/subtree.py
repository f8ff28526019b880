"""Sorting one complete subtree (Figure 4, Line 11).

When NEXSORT pops a complete subtree off the data stack it must sort it and
write the result to a sorted run.  "Depending on the actual size of the
subtree, sorting on Line 11 may use either an internal-memory algorithm or
an external-memory algorithm, e.g., internal-memory recursive sort or
key-path external merge sort" (Section 3.1).  Both paths live here:

* **internal** - parse the subtree's records, sort every child list by
  ``(key, position)`` in one batch, and splice the run records back out of
  the input's own bytes.
* **external** - the subtree exceeds the sorter's memory: splice its
  key-path records (paths relative to the subtree root), form runs of
  memory size, merge, and splice the merged records into the run.  This is
  the path taken when a subtree approaches the ``k * t`` size bound of
  Section 3.

Tokens inside a finished run carry no keys or positions (they are never
sorted again; only the RunPointer pushed back on the data stack keeps the
root's key), which is itself a small compaction.

Depth-limited sorting (Section 3.2): only the top ``sort_levels`` relative
levels have their child lists reordered; deeper levels keep document order.
The external path implements this by masking the keys of too-deep elements
to MISSING so their position tie-break preserves the original order.

The node-tree helpers (:func:`build_subtree`, :func:`sort_node_tree`,
:func:`serialize_node_tree`) serve graceful degeneration
(:mod:`repro.core.flat`), which sorts child groups from tokens.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import ceil, log2
from typing import Iterable, Iterator

from ..baselines.merging import merge_to_stream
from ..errors import CodecError, DeviceFault
from ..io.runs import RunHandle, RunStore
from ..obs.tracer import Tracer, maybe_span
from ..merge.engine import (
    DEFAULT_MERGE_OPTIONS,
    MergeOptions,
    RunFormer,
    argsort_counted,
    dense_ranks,
    embedded_key_of,
)
from ..xml.codec import TokenCodec, decode_key_atom
from .columnar import (
    argsort_groups,
    emit_output_columnar,
    fast_path_key,
    normalized_atom_bytes,
    parse_subtree,
    sort_subtree_records,
    subtree_keypath_records,
    subtree_root_summary,
)
from ..xml.tokens import (
    EndTag,
    MISSING_KEY,
    RunPointer,
    StartTag,
    Text,
    Token,
)


class _Node:
    """One element (or collapsed pointer) in a subtree being sorted."""

    __slots__ = ("start", "pointer", "texts", "children", "key", "pos")

    def __init__(
        self,
        start: StartTag | None = None,
        pointer: RunPointer | None = None,
    ):
        self.start = start
        self.pointer = pointer
        self.texts: list[str] = []
        self.children: list[_Node] = []
        token = start if start is not None else pointer
        self.key = token.key if token.key is not None else MISSING_KEY
        self.pos = token.pos if token.pos is not None else 0

    @property
    def is_pointer(self) -> bool:
        return self.pointer is not None


@dataclass(frozen=True)
class SubtreeResult:
    """Outcome of one subtree sort."""

    run: RunHandle
    units: int
    real_elements: int
    payload_bytes: int
    root_key: tuple
    root_pos: int
    internal: bool


def build_subtree(tokens: list[Token], compact: bool) -> _Node:
    """Assemble the node tree of a popped subtree.

    In plain mode the tokens are matched Start/End pairs; keys may travel
    on either (end tags for subtree-evaluated criteria).  In compacted mode
    there are no end tags and nesting is recovered from levels.
    """
    root: _Node | None = None
    stack: list[_Node] = []
    if compact:
        levels: list[int] = []
        for token in tokens:
            if isinstance(token, Text):
                if token.level is not None:
                    while levels and levels[-1] > token.level:
                        levels.pop()
                        stack.pop()
                if stack:
                    stack[-1].texts.append(token.text)
                continue
            if isinstance(token, (StartTag, RunPointer)):
                level = token.level
                if level is None:
                    raise CodecError("compacted token without level")
                while levels and levels[-1] >= level:
                    levels.pop()
                    stack.pop()
                node = (
                    _Node(start=token)
                    if isinstance(token, StartTag)
                    else _Node(pointer=token)
                )
                if stack:
                    stack[-1].children.append(node)
                elif root is None:
                    root = node
                else:
                    raise CodecError("subtree tokens have two roots")
                if isinstance(token, StartTag):
                    stack.append(node)
                    levels.append(level)
            else:
                raise CodecError(f"unexpected token in compact subtree: "
                                 f"{token!r}")
    else:
        for token in tokens:
            if isinstance(token, StartTag):
                node = _Node(start=token)
                if stack:
                    stack[-1].children.append(node)
                elif root is None:
                    root = node
                else:
                    raise CodecError("subtree tokens have two roots")
                stack.append(node)
            elif isinstance(token, Text):
                if stack:
                    stack[-1].texts.append(token.text)
            elif isinstance(token, EndTag):
                node = stack.pop()
                if token.key is not None:
                    node.key = token.key
                if token.pos is not None:
                    node.pos = token.pos
            elif isinstance(token, RunPointer):
                node = _Node(pointer=token)
                if stack:
                    stack[-1].children.append(node)
                elif root is None:
                    root = node
                else:
                    raise CodecError("subtree tokens have two roots")
            else:  # pragma: no cover - defensive
                raise CodecError(f"unexpected token {token!r}")
        if stack:
            raise CodecError("subtree tokens are unbalanced")
    if root is None:
        raise CodecError("subtree tokens contain no element")
    return root


_POS = struct.Struct(">Q")


def sort_node_tree(
    root: _Node,
    sort_levels: int | None,
    device_stats,
    counted: bool = False,
) -> None:
    """Sort every child list of the tree (iteratively, stack-safe).

    ``sort_levels`` limits sorting to the top levels of the subtree
    (None = all levels).  Every sibling group is gathered and all of
    them are ordered with one batched stable argsort over engine-
    normalized ``key + position`` bytes
    (:func:`repro.core.columnar.argsort_groups`).  Comparisons are
    charged to the CPU model analytically (``n * ceil(log2 n)`` per
    group, the seed behaviour) by default.  With ``counted`` each
    group's keys collapse to dense ranks via the batched order, and a
    counted timsort replay over the rank ints charges exactly the
    comparisons a per-group ``(key, pos)`` sort performs (the ranks are
    order- and equality-isomorphic to the tuples).
    """
    groups: list[list[_Node]] = []
    group_keys: list[list[bytes]] = []
    memo: dict[tuple, bytes] = {}
    pack_pos = _POS.pack
    work: list[tuple[_Node, int]] = [(root, 1)]
    while work:
        node, level = work.pop()
        children = node.children
        if (
            (sort_levels is None or level <= sort_levels)
            and len(children) > 1
        ):
            keys = []
            append = keys.append
            for child in children:
                norm = memo.get(child.key)
                if norm is None:
                    norm = normalized_atom_bytes(child.key)
                    memo[child.key] = norm
                append(norm + pack_pos(child.pos))
            groups.append(children)
            group_keys.append(keys)
        for child in children:
            if not child.is_pointer:
                work.append((child, level + 1))
    if not groups:
        return
    if counted:
        for children, keys, order in zip(
            groups, group_keys, argsort_groups(group_keys)
        ):
            ranks = dense_ranks(keys, order)
            replay = argsort_counted(ranks, device_stats)
            children[:] = [children[i] for i in replay]
        return
    comparisons = 0
    for children, order in zip(groups, argsort_groups(group_keys)):
        children[:] = [children[i] for i in order]
        n = len(children)
        comparisons += n * max(1, ceil(log2(n)))
    device_stats.record_comparisons(comparisons)


def serialize_node_tree(
    root: _Node, base_level: int, compact: bool
) -> Iterator[Token]:
    """Emit the sorted subtree as clean run tokens (annotations stripped)."""
    work: list[tuple[str, _Node, int]] = [("node", root, base_level)]
    while work:
        kind, node, level = work.pop()
        if kind == "end":
            yield EndTag(node.start.tag)
            continue
        if node.is_pointer:
            pointer = node.pointer
            yield RunPointer(
                run_id=pointer.run_id,
                level=level if compact else None,
                element_count=pointer.element_count,
                payload_bytes=pointer.payload_bytes,
            )
            continue
        yield StartTag(
            node.start.tag,
            node.start.attrs,
            level=level if compact else None,
        )
        if node.texts:
            yield Text("".join(node.texts), level=level if compact else None)
        if not compact:
            work.append(("end", node, level))
        for child in reversed(node.children):
            work.append(("node", child, level + 1))


def count_units(tokens: Iterable[Token]) -> tuple[int, int]:
    """(units, real elements) of a token sequence.

    A unit is one element as seen by *this* sort: a start tag or a pointer
    (the paper's ``s_i`` counts collapsed subtrees as single elements).
    Real elements expand pointers to what their runs contain.
    """
    units = 0
    real = 0
    for token in tokens:
        if isinstance(token, StartTag):
            units += 1
            real += 1
        elif isinstance(token, RunPointer):
            units += 1
            real += token.element_count
    return units, real


class SubtreeSorter:
    """Sorts popped subtrees into runs, choosing internal vs. external."""

    def __init__(
        self,
        store: RunStore,
        codec: TokenCodec,
        compact: bool,
        capacity_bytes: int,
        fan_in: int,
        options: MergeOptions | None = None,
        tracer: Tracer | None = None,
        recovery=None,
    ):
        self.store = store
        self.codec = codec
        self.compact = compact
        self.capacity_bytes = capacity_bytes
        self.fan_in = fan_in
        self.options = options or DEFAULT_MERGE_OPTIONS
        self.tracer = tracer
        self.recovery = recovery
        #: Record counts of every formation run written by external
        #: subtree sorts (run-length reporting rides on this).
        self.run_lengths: list[int] = []
        self._sorted_subtrees = 0

    def sort_tokens(
        self,
        tokens: list[Token],
        payload_bytes: int,
        base_level: int,
        sort_levels: int | None,
    ) -> SubtreeResult:
        """:meth:`sort_records` over a subtree given as tokens."""
        return self.sort_records(
            [self.codec.encode(token) for token in tokens],
            payload_bytes, base_level, sort_levels,
        )

    def _run_recoverably(self, attempt) -> tuple[RunHandle, int]:
        """Run one subtree-sort attempt under the recovery protocol."""
        unit = self._sorted_subtrees
        self._sorted_subtrees += 1
        if self.recovery is None:
            return attempt()

        runs_before = self.store.live_run_ids()
        lengths_before = len(self.run_lengths)

        def attempt_once() -> tuple[RunHandle, int]:
            try:
                return attempt()
            except DeviceFault:
                for run_id in self.store.live_run_ids() - runs_before:
                    self.store.free(run_id)
                del self.run_lengths[lengths_before:]
                raise

        run, written = self.recovery.attempt(
            "subtree-sort", unit, attempt_once
        )
        self.recovery.checkpoint("subtree-sort", unit, run_id=run.run_id)
        return run, written

    def sort_records(
        self,
        records: list[bytes],
        payload_bytes: int,
        base_level: int,
        sort_levels: int | None,
    ) -> SubtreeResult:
        """Sort one complete subtree and write it as a run.

        Works straight from the encoded data-stack records: when the
        subtree fits in memory the records are parsed by field offsets,
        sibling groups are ordered with one batched argsort, and run
        records are spliced from the input's own encoded slices
        (:func:`repro.core.columnar.sort_subtree_records`) - no token is
        ever materialized.  Counted-comparison mode replays a per-group
        comparison sort over dense ranks (see
        :func:`repro.core.columnar.sort_raw_tree`).  External-sized
        subtrees stay in bytes too (:meth:`_sort_external_records`).

        Args:
            records: the subtree's encoded token records, in document
                order.
            payload_bytes: their total encoded size (known from the stack).
            base_level: absolute level of the subtree root (``d_s``).
            sort_levels: how many top relative levels to sort (None = all;
                0 = none, the subtree is written through unsorted).
        """
        internal = payload_bytes <= self.capacity_bytes
        names_coded = self.codec.names is not None
        atom, root_pos = subtree_root_summary(
            records, self.compact, names_coded
        )
        root_key = (
            decode_key_atom(atom, 0)[0] if atom is not None else MISSING_KEY
        )
        if not internal:
            root, units, real = parse_subtree(
                records, self.compact, names_coded
            )
            run, written = self._run_recoverably(
                lambda: self._sort_external_records(
                    root, base_level, sort_levels
                )
            )
            return SubtreeResult(
                run=run,
                units=units,
                real_elements=real,
                payload_bytes=written,
                root_key=root_key,
                root_pos=root_pos,
                internal=False,
            )
        stats = self.store.device.stats
        counts: list[tuple[int, int]] = []
        prefix_width = self.options.keys.prefix_width

        def attempt() -> tuple[RunHandle, int]:
            out, units, real = sort_subtree_records(
                records,
                self.compact,
                names_coded,
                base_level,
                sort_levels,
                stats,
                prefix_width,
                counted=self.options.counted_comparisons,
            )
            counts.append((units, real))
            writer = self.store.create_writer("run_write")
            count = 0
            try:
                for record in out:
                    writer.write_record(record)
                    count += 1
            except DeviceFault:
                writer.abandon()
                raise
            stats.record_tokens(count)
            handle = writer.finish()
            return handle, handle.payload_bytes

        run, written = self._run_recoverably(attempt)
        units, real = counts[-1]
        return SubtreeResult(
            run=run,
            units=units,
            real_elements=real,
            payload_bytes=written,
            root_key=root_key,
            root_pos=root_pos,
            internal=True,
        )

    # -- external-memory (key-path) path -------------------------------------

    def _sort_external_records(
        self,
        root,
        base_level: int,
        sort_levels: int | None,
    ) -> tuple[RunHandle, int]:
        """Key-path external sort of a parsed subtree, entirely in bytes.

        Key-path records are spliced from the stored token records of the
        raw subtree ``root``
        (:func:`repro.core.columnar.subtree_keypath_records`), formed into
        runs, merged, and the sorted run's tokens are spliced back out of
        the merged records (:func:`repro.core.columnar.emit_output_columnar`).
        """
        device = self.store.device
        options = self.options
        embedded = options.embedded_keys
        names_coded = self.codec.names is not None
        former = RunFormer(
            self.store, self.capacity_bytes, options, tracer=self.tracer,
            recovery=self.recovery,
        )
        add = former.bulk_adder()
        charge = device.stats.record_tokens
        with maybe_span(
            self.tracer, "run-formation", mode=options.run_formation
        ) as span:
            for key, record in subtree_keypath_records(
                root, sort_levels, embedded
            ):
                charge(1)
                add(key, record)
            runs = former.finish()
            if span is not None:
                span.set(runs=len(runs))
        self.run_lengths.extend(former.run_lengths)

        stream, _passes, _width = merge_to_stream(
            self.store, runs, embedded_key_of if embedded else fast_path_key,
            self.fan_in, options=options, tracer=self.tracer,
            recovery=self.recovery,
        )
        writer = self.store.create_writer("run_write")
        try:
            count = emit_output_columnar(
                stream, writer, None,
                strip_embedded=embedded,
                names_coded=names_coded,
                emit_ends=not self.compact,
                base_level=base_level,
                levels=self.compact,
            )
        except DeviceFault:
            writer.abandon()
            raise
        charge(count)
        handle = writer.finish()
        return handle, handle.payload_bytes
