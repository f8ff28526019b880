"""Serializing event streams, stored records and element trees to XML text.

One state machine (:func:`_serialize`) owns every output rule: escaping,
self-closing empty elements, indentation and batched writes.  It consumes
``(kind, value)`` steps whose kinds are the codec's record type bytes:

* ``TYPE_START`` - ``value`` is the start tag's text up to, not
  including, its closing ``>`` (``<tag a="v"``, attribute values already
  escaped);
* ``TYPE_TEXT`` - ``value`` is raw character data;
* ``TYPE_END`` - ``value`` is the end tag's text (``</tag>``).

Two front ends feed it.  :func:`write_events` maps Start/Text/End token
streams (the parser, :class:`~repro.xml.model.Element`).
:func:`write_records` maps stored token records straight from their
bytes: start-tag text is built from the tag and attribute fields that
:func:`~repro.xml.codec.start_fields` walks, and end tags of
end-tag-eliminated streams are recovered from level transitions by
:func:`~repro.xml.compact.restore_end_tags`' rules.  No token object is
built on the record path.
"""

from __future__ import annotations

from io import StringIO
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO

from ..errors import CodecError, XMLSyntaxError
from .codec import (
    TYPE_END,
    TYPE_POINTER,
    TYPE_START,
    TYPE_TEXT,
    TokenCodec,
    end_fields,
    start_fields,
    text_fields,
)
from .model import Element
from .tokens import EndTag, StartTag, Text, Token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compact import NameDictionary


def escape_text(value: str) -> str:
    """Escape character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(
        ">", "&gt;"
    )


def escape_attr(value: str) -> str:
    """Escape an attribute value for double-quoted output."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
    )


def start_tag_text(tag: str, attrs) -> str:
    """A start tag's text without its closing ``>``."""
    if not attrs:
        return "<" + tag
    return "<" + tag + "".join(
        f' {name}="{escape_attr(value)}"' for name, value in attrs
    )


#: Pieces buffered between writes to the output handle.
_BATCH = 4096


def _serialize(
    steps: Iterable[tuple[int, str]], out: TextIO, indent: str | None
) -> None:
    """Write serializer steps (see the module docstring) to ``out``.

    Raises :class:`XMLSyntaxError` on an unbalanced stream and on
    character data outside the root element - it is never dropped.
    """
    parts: list[str] = []
    put = parts.append
    pretty = indent is not None
    newline = "\n" if pretty else ""
    open_close = ">" + newline
    self_close = "/>" + newline
    depth = 0
    # The last start tag's text while it may still self-close.
    pending: str | None = None
    pending_text: list[str] = []
    start_kind, text_kind = TYPE_START, TYPE_TEXT

    for kind, value in steps:
        if kind == start_kind:
            if pending is not None:
                if pretty:
                    put(indent * (depth - 1))
                put(pending)
                put(open_close)
            if pending_text:
                put(escape_text("".join(pending_text)))
                pending_text.clear()
            depth += 1
            pending = value
            if len(parts) >= _BATCH:
                out.write("".join(parts))
                parts.clear()
        elif kind == text_kind:
            if not depth:
                raise XMLSyntaxError("text outside the root element")
            if pending is not None:
                if pretty:
                    put(indent * (depth - 1))
                put(pending)
                put(">")
                pending = None
            pending_text.append(value)
        else:
            if not depth:
                raise XMLSyntaxError("unbalanced event stream")
            if pending is not None:
                # Empty element: self-close.
                if pretty:
                    put(indent * (depth - 1))
                put(pending)
                put(self_close)
                pending = None
            else:
                text = "".join(pending_text) if pending_text else ""
                pending_text.clear()
                if text:
                    put(escape_text(text))
                elif pretty:
                    put(indent * (depth - 1))
                put(value)
                put(newline)
            depth -= 1
    if depth != 0 or pending is not None:
        raise XMLSyntaxError("unbalanced event stream")
    out.write("".join(parts))


def _to_string(write: Callable[[TextIO], None], indent: str | None) -> str:
    """The text ``write(out)`` produces; it ends with a newline exactly
    when ``indent`` is given."""
    out = StringIO()
    write(out)
    return out.getvalue().rstrip("\n") + ("\n" if indent is not None else "")


# -- token events ------------------------------------------------------------


def _event_steps(events: Iterable[Token]) -> Iterator[tuple[int, str]]:
    for event in events:
        if isinstance(event, StartTag):
            yield TYPE_START, start_tag_text(event.tag, event.attrs)
        elif isinstance(event, Text):
            yield TYPE_TEXT, event.text
        elif isinstance(event, EndTag):
            yield TYPE_END, f"</{event.tag}>"
        else:
            raise XMLSyntaxError(f"cannot serialize token {event!r}")


def write_events(
    events: Iterable[Token], out: TextIO, indent: str | None = None
) -> None:
    """Serialize a Start/Text/End event stream to the text handle ``out``.

    Pieces are handed to ``out`` in batches as the stream is consumed, so
    a document larger than memory serializes to a file without ever
    being held whole.

    Args:
        events: the stream; must be balanced, with no text outside the
            root element.
        out: any object with a ``write(str)`` method.
        indent: if given (e.g. ``"  "``), pretty-print with one element per
            line; text-bearing elements stay on one line.
    """
    _serialize(_event_steps(events), out, indent)


def events_to_string(
    events: Iterable[Token], indent: str | None = None
) -> str:
    """Serialize a Start/Text/End event stream to XML text.

    Same arguments as :func:`write_events`; the text ends with a newline
    exactly when ``indent`` is given.
    """
    return _to_string(lambda out: write_events(events, out, indent), indent)


def element_to_string(element: Element, indent: str | None = None) -> str:
    """Serialize an element tree to XML text."""
    return events_to_string(element.to_events(), indent=indent)


# -- stored records ----------------------------------------------------------


def _escape_attr_bytes(value: bytes) -> bytes:
    # UTF-8 never puts an ASCII byte inside a multi-byte sequence, so
    # escaping the encoded value equals escaping the decoded one.
    return (
        value.replace(b"&", b"&amp;")
        .replace(b"<", b"&lt;")
        .replace(b'"', b"&quot;")
    )


#: Most distinct start and end records one serialization keeps texts for.
_CACHE_LIMIT = 1 << 14


class _RecordTexts:
    """Start- and end-tag texts of stored records, built from their
    field bytes and cached per record.

    Documents repeat start records wherever elements share a tag,
    attribute values and level (on the service benchmark about half of
    them are repeats), and end records wherever they share a tag; a hit
    skips the walk, the escaping and the decode.
    """

    __slots__ = ("names", "coded", "texts")

    def __init__(self, names: "NameDictionary | None"):
        self.names = names
        self.coded = names is not None
        #: start record -> (start tag text, end tag text, level or None);
        #: end record -> end tag text.
        self.texts: dict[bytes, tuple[str, str, int | None] | str] = {}

    def _utf8(self, name: bytes | int) -> bytes:
        if self.coded:
            return self.names.lookup(name).encode("utf-8")
        return name

    def _keep(self, record: bytes, text) -> None:
        if len(self.texts) >= _CACHE_LIMIT:
            self.texts.clear()
        self.texts[record] = text

    def start(self, record: bytes) -> tuple[str, str, int | None]:
        """(start tag text without its ``>``, end tag text, level)."""
        entry = self.texts.get(record)
        if entry is not None:
            return entry
        tag, attrs, _, _, level = start_fields(record, self.coded)
        utf8 = self._utf8
        tag = utf8(tag)
        parts = [b"<", tag]
        for name, start, end in attrs:
            parts += (
                b" ", utf8(name), b'="',
                _escape_attr_bytes(record[start:end]), b'"',
            )
        entry = (
            b"".join(parts).decode("utf-8"),
            "</" + tag.decode("utf-8") + ">",
            level,
        )
        self._keep(record, entry)
        return entry

    def end(self, record: bytes) -> str:
        text = self.texts.get(record)
        if text is None:
            tag = self._utf8(end_fields(record, self.coded)[0])
            text = "</" + tag.decode("utf-8") + ">"
            self._keep(record, text)
        return text


def _record_steps(
    records: Iterable[bytes],
    names: "NameDictionary | None",
    restore_ends: bool,
) -> Iterator[tuple[int, str]]:
    texts = _RecordTexts(names)
    start_of = texts.start
    end_of = texts.end
    start_kind, text_kind, end_kind = TYPE_START, TYPE_TEXT, TYPE_END
    # Open elements of an end-tag-eliminated stream: (end text, level).
    open_tags: list[tuple[str, int]] = []
    try:
        for record in records:
            kind = record[0]
            if kind == start_kind:
                head, end, level = start_of(record)
                if restore_ends:
                    if level is None:
                        raise CodecError(
                            "compacted stream contains a start without a level"
                        )
                    while open_tags and open_tags[-1][1] >= level:
                        yield end_kind, open_tags.pop()[0]
                    open_tags.append((end, level))
                yield start_kind, head
            elif kind == text_kind:
                start, end, level = text_fields(record)
                text = record[start:end].decode("utf-8")
                if restore_ends and level is not None:
                    # Close elements deeper than the text's owner.
                    while open_tags and open_tags[-1][1] > level:
                        yield end_kind, open_tags.pop()[0]
                yield text_kind, text
            elif kind == end_kind:
                if restore_ends:
                    raise CodecError(
                        "compacted stream already contains end tags"
                    )
                yield end_kind, end_of(record)
            elif kind == TYPE_POINTER:
                token = TokenCodec(names).decode(record)
                raise XMLSyntaxError(f"cannot serialize token {token!r}")
            else:
                raise CodecError(f"unknown token type byte {kind}")
    except IndexError as exc:  # an empty record
        raise CodecError("empty token record") from exc
    while open_tags:
        yield end_kind, open_tags.pop()[0]


def write_records(
    records: Iterable[bytes],
    out: TextIO,
    indent: str | None = None,
    names: "NameDictionary | None" = None,
    restore_ends: bool = False,
) -> None:
    """Serialize stored token records to the text handle ``out``.

    Writes exactly the text :func:`write_events` writes for the decoded
    event stream.

    Args:
        records: encoded tokens, as a document stores them.
        out: any object with a ``write(str)`` method.
        indent: as for :func:`write_events`.
        names: the name dictionary of dictionary-coded records, or None
            for plain names.
        restore_ends: the records are end-tag eliminated (levels on
            starts and texts); end tags are recovered from the levels.
    """
    _serialize(_record_steps(records, names, restore_ends), out, indent)


def records_to_string(
    records: Iterable[bytes],
    indent: str | None = None,
    names: "NameDictionary | None" = None,
    restore_ends: bool = False,
) -> str:
    """:func:`write_records` into a string, trimmed as
    :func:`events_to_string` trims."""
    return _to_string(
        lambda out: write_records(records, out, indent, names, restore_ends),
        indent,
    )
