"""Disk-resident XML documents.

A :class:`Document` is a token stream stored on the simulated block device
(one record per token), plus the structural metadata the analysis needs
(element count ``N``, maximum fan-out ``k``, height).  Scanning a document
costs real, counted block reads - this is the ``O(N/B)`` "reading the input"
term of Theorem 4.5.

Documents can be stored plain or compacted
(:class:`~repro.xml.compact.CompactionConfig`); either way,
:meth:`Document.iter_events` always yields a *full* Start/Text/End event
stream, synthesizing end tags from level transitions when they were
eliminated on disk, so consumers are storage-agnostic.

Storing (:meth:`Document.from_records`, which :meth:`Document.from_events`
goes through) and serializing (:meth:`Document.write`,
:meth:`Document.to_string`) work on the encoded records themselves and
build no token objects; the token views serve the operators that work
on events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from ..errors import CodecError, XMLSyntaxError
from ..io.device import BlockDevice
from ..io.runs import RECORD_HEADER, RunHandle, RunStore
from .codec import (
    TYPE_END,
    TYPE_POINTER,
    TYPE_START,
    TYPE_TEXT,
    TokenCodec,
    with_level,
)
from .compact import CompactionConfig, restore_end_tags
from .model import Element
from .parser import parse_events
from .tokens import Token
from .writer import records_to_string, write_records

#: Most records :meth:`Document.from_records` hands the writer at once.
_STORE_BATCH = 4096


@dataclass
class DocumentStats:
    """Structural measurements taken while a document is stored."""

    element_count: int = 0
    max_fanout: int = 0
    height: int = 0
    text_count: int = 0
    root_tag: str = ""


class Document:
    """A token stream on the device, with structural metadata."""

    def __init__(
        self,
        store: RunStore,
        handle: RunHandle,
        stats: DocumentStats,
        compaction: CompactionConfig | None = None,
    ):
        self.store = store
        self.handle = handle
        self.stats = stats
        self.compaction = compaction
        self.codec = TokenCodec(compaction.names if compaction else None)

    # -- properties mirroring the paper's parameters ------------------------

    @property
    def device(self) -> BlockDevice:
        return self.store.device

    @property
    def element_count(self) -> int:
        """The paper's ``N``."""
        return self.stats.element_count

    @property
    def max_fanout(self) -> int:
        """The paper's ``k``."""
        return self.stats.max_fanout

    @property
    def height(self) -> int:
        return self.stats.height

    @property
    def block_count(self) -> int:
        """The paper's ``n = N/B`` (blocks occupied by this document)."""
        return self.handle.block_count

    @property
    def payload_bytes(self) -> int:
        return self.handle.payload_bytes

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(
        cls,
        store: RunStore,
        events: Iterable[Token],
        compaction: CompactionConfig | None = None,
        category: str = "load",
    ) -> "Document":
        """Store an event stream as a document, measuring it on the way."""
        codec = TokenCodec(compaction.names if compaction else None)
        return cls.from_records(
            store, map(codec.encode, events), compaction, category
        )

    @classmethod
    def from_records(
        cls,
        store: RunStore,
        records: Iterable[bytes],
        compaction: CompactionConfig | None = None,
        category: str = "load",
    ) -> "Document":
        """Store encoded tokens as a document, measuring it on the way.

        ``records`` encode a full Start/Text/End stream (end tags
        present) in ``compaction``'s name dialect; with end-tag
        elimination the end records are dropped and levels spliced onto
        starts and texts here.  The statistics are measured from the
        record type bytes.  Records reach the run writer in batches that
        end where the writer's next device write falls, so the device
        sees its writes interleaved with the producer's reads exactly as
        record-at-a-time writes would interleave them.  A rejected
        stream leaves no run behind.
        """
        eliminate = compaction is not None and compaction.eliminate_end_tags
        codec = TokenCodec(compaction.names if compaction else None)
        coded = codec.names is not None
        writer = store.create_writer(category)
        header = RECORD_HEADER
        batch: list[bytes] = []
        put = batch.append
        room = writer.room
        # The root, fan-out and height rules.
        depth = element_count = max_fanout = height = text_count = 0
        open_children: list[int] = []
        root_tag = ""
        try:
            for record in records:
                kind = record[0]
                if kind == TYPE_START:
                    if depth:
                        fanout = open_children[-1] + 1
                        open_children[-1] = fanout
                        if fanout > max_fanout:
                            max_fanout = fanout
                    elif element_count:
                        raise XMLSyntaxError("multiple root elements")
                    else:
                        root_tag = codec.read_name(record, 2)[0]
                    open_children.append(0)
                    depth += 1
                    element_count += 1
                    if depth > height:
                        height = depth
                    if eliminate:
                        record = with_level(record, depth, coded)
                elif kind == TYPE_END:
                    if not depth:
                        raise XMLSyntaxError(
                            "unbalanced event stream while storing"
                        )
                    open_children.pop()
                    depth -= 1
                    if eliminate:
                        continue
                elif kind == TYPE_TEXT:
                    if not depth:
                        raise XMLSyntaxError("text outside the root element")
                    text_count += 1
                    if eliminate:
                        record = with_level(record, depth, coded)
                elif kind != TYPE_POINTER:
                    raise CodecError(f"unknown token type byte {kind}")
                put(record)
                room -= header + len(record)
                if room <= 0 or len(batch) >= _STORE_BATCH:
                    writer.write_records(batch)
                    batch.clear()
                    room = writer.room
            if depth != 0:
                raise XMLSyntaxError("unbalanced event stream while storing")
            if element_count == 0:
                raise XMLSyntaxError("cannot store an empty document")
            writer.write_records(batch)
        except BaseException:
            # Whatever stops the store - a rejected stream, a bad record,
            # a device fault - frees the blocks already written.
            writer.abandon()
            raise
        stats = DocumentStats(
            element_count=element_count,
            max_fanout=max_fanout,
            height=height,
            text_count=text_count,
            root_tag=root_tag,
        )
        return cls(store, writer.finish(), stats, compaction)

    @classmethod
    def from_string(
        cls,
        store: RunStore,
        text: str,
        compaction: CompactionConfig | None = None,
        category: str = "load",
    ) -> "Document":
        """Parse XML text and store it as a document."""
        return cls.from_events(
            store, parse_events(text), compaction, category
        )

    @classmethod
    def from_file(
        cls,
        store: RunStore,
        path: str,
        compaction: CompactionConfig | None = None,
        category: str = "load",
        chunk_chars: int | None = None,
    ) -> "Document":
        """Stream an XML file onto the device without loading it whole.

        Uses the incremental tokenizer, so memory stays bounded by the
        chunk size regardless of file size.
        """
        from .streaming import DEFAULT_CHUNK_CHARS, parse_events_incremental

        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_events(
                store,
                parse_events_incremental(
                    handle,
                    chunk_chars=chunk_chars or DEFAULT_CHUNK_CHARS,
                ),
                compaction,
                category,
            )

    @classmethod
    def from_element(
        cls,
        store: RunStore,
        element: Element,
        compaction: CompactionConfig | None = None,
        category: str = "load",
    ) -> "Document":
        """Store an element tree as a document."""
        return cls.from_events(
            store, element.to_events(), compaction, category
        )

    # -- reading -----------------------------------------------------------

    def iter_records(self, category: str = "input_scan") -> Iterator[bytes]:
        """Yield the stored records, a loaded block at a time.

        Each block is drained in one batch; the record that needs the
        next block is read on its own, so blocks load exactly when a
        record-at-a-time reader would load them.
        """
        reader = self.store.open_reader(self.handle, category=category)
        drain = reader.read_available_records
        read = reader.read_record
        while True:
            batch = drain()
            if batch:
                yield from batch
                continue
            record = read()
            if record is None:
                return
            yield record

    def iter_tokens(self, category: str = "input_scan") -> Iterator[Token]:
        """Yield the raw stored tokens (no end tags in compacted mode)."""
        return map(self.codec.decode, self.iter_records(category))

    def iter_events(self, category: str = "input_scan") -> Iterator[Token]:
        """Yield a full Start/Text/End event stream regardless of storage."""
        tokens = self.iter_tokens(category)
        if self._ends_eliminated:
            return restore_end_tags(tokens)
        return tokens

    @property
    def _ends_eliminated(self) -> bool:
        return (
            self.compaction is not None and self.compaction.eliminate_end_tags
        )

    def to_element(self, category: str = "export") -> Element:
        """Materialize the document as an in-memory tree."""
        return Element.from_events(self.iter_events(category))

    def to_string(
        self, indent: str | None = None, category: str = "export"
    ) -> str:
        """Serialize the document back to XML text."""
        return records_to_string(
            self.iter_records(category),
            indent,
            self.codec.names,
            self._ends_eliminated,
        )

    def write(
        self, out: TextIO, indent: str | None = None, category: str = "export"
    ) -> None:
        """Stream the document as XML text to the handle ``out``.

        Writes exactly :meth:`to_string`'s text, without building it,
        straight from the stored records (no token objects).
        """
        write_records(
            self.iter_records(category),
            out,
            indent,
            self.codec.names,
            self._ends_eliminated,
        )

    def free(self) -> None:
        """Release the document's blocks (bookkeeping only)."""
        self.store.free(self.handle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Document(N={self.element_count}, k={self.max_fanout}, "
            f"height={self.height}, blocks={self.block_count})"
        )
