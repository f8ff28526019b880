"""Serializing event streams and element trees back to XML text."""

from __future__ import annotations

from io import StringIO
from typing import Iterable, TextIO

from ..errors import XMLSyntaxError
from .model import Element
from .tokens import EndTag, StartTag, Text, Token


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


def write_events(
    events: Iterable[Token], out: TextIO, indent: str | None = None
) -> None:
    """Serialize a Start/Text/End event stream to the text handle ``out``.

    Pieces are handed to ``out`` in batches as the stream is consumed, so
    a document larger than memory serializes to a file without ever
    being held whole.

    Args:
        events: the stream; must be balanced.
        out: any object with a ``write(str)`` method.
        indent: if given (e.g. ``"  "``), pretty-print with one element per
            line; text-bearing elements stay on one line.
    """
    parts: list[str] = []
    put = parts.append
    newline = "\n" if indent is not None else ""
    depth = 0
    pending: StartTag | None = None
    pending_text: list[str] = []

    def start(tag: StartTag, close: str) -> None:
        if indent is not None:
            put(indent * (depth - 1))
        put(f"<{tag.tag}")
        for name, value in tag.attrs:
            put(f' {name}="{escape_attr(value)}"')
        put(close)

    for event in events:
        if isinstance(event, StartTag):
            if pending is not None:
                start(pending, ">" + newline)
            if pending_text:
                put(escape_text("".join(pending_text)))
                pending_text.clear()
            depth += 1
            pending = event
            if len(parts) >= _BATCH:
                out.write("".join(parts))
                parts.clear()
        elif isinstance(event, Text):
            if pending is not None:
                start(pending, ">")
                pending = None
            pending_text.append(event.text)
        elif isinstance(event, EndTag):
            if pending is not None:
                # Empty element: self-close.
                start(pending, "/>" + newline)
                pending = None
            else:
                text = "".join(pending_text)
                pending_text.clear()
                if text:
                    put(escape_text(text))
                elif indent is not None:
                    put(indent * (depth - 1))
                put(f"</{event.tag}>{newline}")
            depth -= 1
        else:
            raise XMLSyntaxError(f"cannot serialize token {event!r}")
    if depth != 0 or pending is not None:
        raise XMLSyntaxError("unbalanced event stream")
    out.write("".join(parts))


#: Pieces buffered between writes to the output handle.
_BATCH = 4096


def events_to_string(
    events: Iterable[Token], indent: str | None = None
) -> str:
    """Serialize a Start/Text/End event stream to XML text.

    Same arguments as :func:`write_events`; the text ends with a newline
    exactly when ``indent`` is given.
    """
    out = StringIO()
    write_events(events, out, indent)
    return out.getvalue().rstrip("\n") + ("\n" if indent is not None else "")


def element_to_string(element: Element, indent: str | None = None) -> str:
    """Serialize an element tree to XML text."""
    return events_to_string(element.to_events(), indent=indent)
