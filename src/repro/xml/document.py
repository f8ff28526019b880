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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from ..errors import XMLSyntaxError
from ..io.device import BlockDevice
from ..io.runs import RunHandle, RunStore
from .codec import TokenCodec
from .compact import CompactionConfig, eliminate_end_tags, restore_end_tags
from .model import Element
from .parser import parse_events
from .tokens import EndTag, StartTag, Text, Token
from .writer import events_to_string, write_events


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
        writer = store.create_writer(category)
        stats = DocumentStats()
        open_children: list[int] = []

        measured = cls._measure(events, stats, open_children)
        if compaction is not None and compaction.eliminate_end_tags:
            stored: Iterable[Token] = eliminate_end_tags(measured)
        else:
            stored = measured
        for token in stored:
            writer.write_record(codec.encode(token))
        handle = writer.finish()
        if stats.element_count == 0:
            raise XMLSyntaxError("cannot store an empty document")
        return cls(store, handle, stats, compaction)

    @staticmethod
    def _measure(
        events: Iterable[Token],
        stats: DocumentStats,
        open_children: list[int],
    ) -> Iterator[Token]:
        depth = 0
        for event in events:
            if isinstance(event, StartTag):
                if depth == 0:
                    if stats.element_count:
                        raise XMLSyntaxError("multiple root elements")
                    stats.root_tag = event.tag
                else:
                    open_children[-1] += 1
                    if open_children[-1] > stats.max_fanout:
                        stats.max_fanout = open_children[-1]
                open_children.append(0)
                depth += 1
                stats.element_count += 1
                if depth > stats.height:
                    stats.height = depth
            elif isinstance(event, EndTag):
                open_children.pop()
                depth -= 1
            elif isinstance(event, Text):
                stats.text_count += 1
            yield event
        if depth != 0:
            raise XMLSyntaxError("unbalanced event stream while storing")

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

    def iter_tokens(self, category: str = "input_scan") -> Iterator[Token]:
        """Yield the raw stored tokens (no end tags in compacted mode)."""
        reader = self.store.open_reader(self.handle, category=category)
        for record in reader:
            yield self.codec.decode(record)

    def iter_events(self, category: str = "input_scan") -> Iterator[Token]:
        """Yield a full Start/Text/End event stream regardless of storage."""
        tokens = self.iter_tokens(category)
        if self.compaction is not None and self.compaction.eliminate_end_tags:
            return restore_end_tags(tokens)
        return tokens

    def to_element(self, category: str = "export") -> Element:
        """Materialize the document as an in-memory tree."""
        return Element.from_events(self.iter_events(category))

    def to_string(
        self, indent: str | None = None, category: str = "export"
    ) -> str:
        """Serialize the document back to XML text."""
        return events_to_string(self.iter_events(category), indent=indent)

    def write(
        self, out: TextIO, indent: str | None = None, category: str = "export"
    ) -> None:
        """Stream the document as XML text to the handle ``out``.

        Writes exactly :meth:`to_string`'s text, without building it.
        """
        write_events(self.iter_events(category), out, indent=indent)

    def free(self) -> None:
        """Release the document's blocks (bookkeeping only)."""
        self.store.free(self.handle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Document(N={self.element_count}, k={self.max_fanout}, "
            f"height={self.height}, blocks={self.block_count})"
        )
