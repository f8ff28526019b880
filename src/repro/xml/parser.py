"""An event-based (SAX-style) XML tokenizer driven by compiled regexes.

The paper's scanning loop "can be implemented using a simple event-based XML
parser (e.g., SAX)" (Section 3.1).  This module is that parser: it walks the
input once and yields :class:`~repro.xml.tokens.StartTag`,
:class:`~repro.xml.tokens.Text`, and :class:`~repro.xml.tokens.EndTag`
events in document order, with strict well-formedness checking (tag
balance, a single root, name characters, quoted non-duplicate attributes,
entity and character references, no character data outside the root).

One core serves both entry points.  It works over a text buffer that is
refilled chunk by chunk and keeps only the unconsumed tail, so
:func:`parse_events` (one string) and
:func:`~repro.xml.streaming.parse_events_incremental` (a text stream) share
a single grammar.  Each construct - start tag with its attributes, end
tag, character data - is recognized by one compiled-regex match; the
buffer is refilled only when a construct runs past its end.

Supported XML subset: elements, attributes (single- or double-quoted),
character data with the five predefined entities plus numeric character
references, and CDATA sections.  Comments, processing instructions and a
DOCTYPE prologue are skipped (internal DTD entity declarations are not
honoured, so references to them are rejected as unknown entities).
Namespace prefixes are treated as part of the name, as the paper does.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from ..errors import XMLSyntaxError
from .tokens import EndTag, StartTag, Text, Token

_WS = "[ \t\r\n]"
# ``\w`` is exactly ``str.isalnum()`` plus ``_``; the first character of a
# name must also be a letter, ``_`` or ``:`` (checked once per new name).
_NAME = r"[\w:][\w:.-]*"
_ATTR = rf"{_NAME}{_WS}*={_WS}*(?:\"[^\"]*\"|'[^']*')"
_START = re.compile(
    rf"<({_NAME})((?:{_WS}+{_ATTR}(?:{_WS}*{_ATTR})*)?){_WS}*(/?)>"
)
_END = re.compile(rf"</({_NAME}){_WS}*>")
_ATTRS = re.compile(rf"({_NAME}){_WS}*={_WS}*(?:\"([^\"]*)\"|'([^']*)')")
#: A tag's lexical extent: up to the first ``>`` outside quotes.
_TAG_EXTENT = re.compile(r"<(?:[^>\"']|\"[^\"]*\"|'[^']*')*>")
_DOCTYPE = re.compile(r"<!(?:DOCTYPE|doctype)[^\[>]*(?:\[[^\]]*\][^\[>]*)*>")
_REF = re.compile(r"&([^&;]*)(;?)")
_CHAR_REF = re.compile(r"#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")
_NAME_AT = re.compile(_NAME)

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

#: (opener, closer, error) of the delimited constructs besides tags.
_SECTIONS = (
    ("<!--", "-->", "unterminated comment"),
    ("<![CDATA[", "]]>", "unterminated CDATA section"),
    ("<?", "?>", "unterminated processing instruction"),
)


class _Source:
    """The text buffer: consumed text is dropped at each refill."""

    __slots__ = ("read", "text", "pos", "base", "lines", "eof")

    def __init__(self, read: Callable[[], str]):
        self.read = read
        self.text = ""
        self.pos = 0
        self.base = 0  # input offset of text[0]
        self.lines = 0  # newlines before text[0]
        self.eof = False

    def more(self) -> bool:
        """Drop ``text[:pos]`` and append one chunk; False at end of input."""
        if self.eof:
            return False
        chunk = self.read()
        if not chunk:
            self.eof = True
            return False
        text, pos = self.text, self.pos
        self.lines += text.count("\n", 0, pos)
        self.base += pos
        self.text = text[pos:] + chunk
        self.pos = 0
        return True

    def find(self, needle: str) -> int:
        """Index of ``needle`` at or after ``pos``, reading on as needed;
        -1 only at the end of input."""
        start = self.pos
        while True:
            index = self.text.find(needle, start)
            if index >= 0:
                return index
            start = max(0, len(self.text) - self.pos - len(needle) + 1)
            if not self.more():
                return -1

    def match(self, pattern: re.Pattern, tag: bool = False):
        """Match ``pattern`` at ``pos``, reading on while the construct is
        cut off by the buffer's end; None if it is complete and malformed
        (for ``tag``, complete means a ``>`` outside quotes was seen)."""
        while True:
            found = pattern.match(self.text, self.pos)
            if found is not None:
                return found
            if tag and _TAG_EXTENT.match(self.text, self.pos) is not None:
                return None
            if not self.more():
                return None

    def error(self, message: str, at: int | None = None) -> XMLSyntaxError:
        at = self.pos if at is None else at
        line = self.lines + self.text.count("\n", 0, at) + 1
        return XMLSyntaxError(message, position=self.base + at, line=line)


def _decode_refs(raw: str, src: _Source, at: int) -> str:
    """Replace entity and character references; errors point at ``at``."""
    parts = []
    last = 0
    for ref in _REF.finditer(raw):
        name, semi = ref.groups()
        where = at + ref.start()
        if not semi:
            raise src.error("unterminated entity reference", where)
        if name.startswith("#"):
            number = _CHAR_REF.fullmatch(name)
            code = -1
            if number is not None:
                code = int(number[1], 16) if number[1] else int(number[2])
            if not (
                code in (0x9, 0xA, 0xD)
                or 0x20 <= code <= 0xD7FF
                or 0xE000 <= code <= 0xFFFD
                or 0x10000 <= code <= 0x10FFFF
            ):
                raise src.error(f"invalid character reference &{name};", where)
            value = chr(code)
        elif name in _ENTITIES:
            value = _ENTITIES[name]
        else:
            raise src.error(f"unknown entity &{name};", where)
        parts.append(raw[last : ref.start()])
        parts.append(value)
        last = ref.end()
    parts.append(raw[last:])
    return "".join(parts)


def _check_name(name: str, src: _Source, at: int) -> None:
    if not (name[0].isalpha() or name[0] in "_:"):
        raise src.error(f"invalid name {name!r}", at)


def _malformed_tag(src: _Source) -> XMLSyntaxError:
    extent = _TAG_EXTENT.match(src.text, src.pos)
    if extent is None:
        return src.error("unterminated tag")
    construct = extent.group()
    if _NAME_AT.match(construct, 2 if construct[1] == "/" else 1) is None:
        return src.error("expected a name")
    if re.search(f"={_WS}*[^\"' \t\r\n]", construct):
        return src.error("attribute value must be quoted")
    return src.error(f"malformed tag {construct[:60]!r}")


def _skip_markup(src: _Source, in_root: bool) -> str | None:
    """Consume a comment, CDATA section, PI or DOCTYPE at ``pos``.

    Returns a CDATA section's text, None for the skipped constructs.
    """
    start = src.pos
    for opener, closer, what in _SECTIONS:
        if src.text.startswith(opener, start):
            cdata = opener == "<![CDATA["
            if cdata and not in_root:
                raise src.error("CDATA outside the root element")
            src.pos = start + len(opener)
            end = src.find(closer)
            if end < 0:
                raise src.error(what)
            content = src.text[src.pos : end]
            src.pos = end + len(closer)
            return content if cdata else None
    if src.text.startswith(("<!DOCTYPE", "<!doctype"), start):
        doctype = src.match(_DOCTYPE)
        if doctype is None:
            raise src.error("unterminated DOCTYPE")
        src.pos = doctype.end()
        return None
    raise src.error("expected a name")


def tokenize(
    read: Callable[[], str], strip_whitespace: bool = True
) -> Iterator[Token]:
    """The tokenizer core over a chunk reader (``read()`` returns more
    text, or ``""`` at the end of input)."""
    src = _Source(read)
    src.more()
    text, pos = src.text, 0
    open_tags: list[str] = []
    seen_root = False
    known: set[str] = set()  # names whose first character was checked

    while True:
        if not text.startswith("<", pos):
            # Character data runs to the next '<' (or the end of input).
            src.pos = pos
            end = src.find("<")
            text, pos = src.text, src.pos
            if end < 0:
                end = len(text)
                if end == pos:
                    break
            raw = text[pos:end]
            content = _decode_refs(raw, src, pos) if "&" in raw else raw
            if open_tags:
                if not strip_whitespace or content.strip():
                    yield Text(content)
            elif content.strip():
                raise src.error("text outside the root element", pos)
            pos = end
            continue

        if len(text) - pos < 9 and not src.eof:
            src.pos = pos
            while len(src.text) - src.pos < 9 and src.more():
                pass
            text, pos = src.text, src.pos
        second = text[pos + 1 : pos + 2]
        if second == "/":
            found = _END.match(text, pos)
            if found is None:
                src.pos = pos
                found = src.match(_END, tag=True)
                if found is None:
                    raise _malformed_tag(src)
                text, pos = src.text, src.pos
            tag = found[1]
            if not open_tags:
                raise src.error(f"unmatched end tag </{tag}>", pos)
            expected = open_tags.pop()
            if tag != expected:
                raise src.error(
                    f"mismatched end tag </{tag}>, expected </{expected}>",
                    pos,
                )
            pos = found.end()
            yield EndTag(tag)
        elif second == "!" or second == "?":
            src.pos = pos
            content = _skip_markup(src, bool(open_tags))
            text, pos = src.text, src.pos
            if content is not None:
                yield Text(content)
        else:
            if seen_root and not open_tags:
                raise src.error("multiple root elements", pos)
            found = _START.match(text, pos)
            if found is None:
                src.pos = pos
                found = src.match(_START, tag=True)
                if found is None:
                    raise _malformed_tag(src)
                text, pos = src.text, src.pos
            tag, attr_text, closed = found.groups()
            if tag not in known:
                _check_name(tag, src, pos)
                known.add(tag)
            attrs: tuple[tuple[str, str], ...] = ()
            if attr_text:
                pairs = []
                for name, double, single in _ATTRS.findall(attr_text):
                    if name not in known:
                        _check_name(name, src, pos)
                        known.add(name)
                    value = double or single
                    if "&" in value:
                        value = _decode_refs(value, src, pos)
                    pairs.append((name, value))
                if len(pairs) > 1 and len({n for n, _ in pairs}) < len(pairs):
                    seen: set[str] = set()
                    for name, _ in pairs:
                        if name in seen:
                            raise src.error(
                                f"duplicate attribute {name!r}", pos
                            )
                        seen.add(name)
                attrs = tuple(pairs)
            seen_root = True
            pos = found.end()
            yield StartTag(tag, attrs)
            if closed:
                yield EndTag(tag)
            else:
                open_tags.append(tag)

    if open_tags:
        raise src.error(f"unexpected end of input, unclosed <{open_tags[-1]}>")
    if not seen_root:
        raise src.error("no root element")


def parse_events(
    text: str, strip_whitespace: bool = True
) -> Iterator[Token]:
    """Yield Start/Text/End events for a well-formed XML document.

    Args:
        text: the document text.
        strip_whitespace: drop text nodes that are entirely whitespace
            (indentation); other text is yielded verbatim.

    Raises:
        XMLSyntaxError: on any well-formedness violation.
    """
    chunks = iter((text,))
    return tokenize(lambda: next(chunks, ""), strip_whitespace)
