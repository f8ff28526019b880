"""Binary encoding of tokens and key atoms.

Everything that crosses the simulated-device boundary (data-stack spill
blocks, sorted runs, stored documents) is encoded with this codec, so that
byte counts - and therefore block counts, the paper's primary metric - are
honest.

Two dialects exist:

* **plain** - tag and attribute names stored as UTF-8 strings.
* **dictionary-coded** - names replaced by varint ids into a shared
  :class:`~repro.xml.compact.NameDictionary` (paper Section 3.2: "each
  unique string can be converted to an integer before sorting and back
  during output").

End-tag elimination (the other compaction of Section 3.2) happens at the
stream level, not here: a compacted stream simply contains no
:class:`~repro.xml.tokens.EndTag` records and start tags carry levels.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable

from ..errors import CodecError
from .tokens import (
    EndTag,
    KEY_MISSING,
    KEY_NUMBER,
    KEY_STRING,
    RunPointer,
    StartTag,
    Text,
    Token,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compact import NameDictionary

_DOUBLE = struct.Struct("<d")

_TYPE_START = 1
_TYPE_TEXT = 2
_TYPE_END = 3
_TYPE_POINTER = 4

#: Public aliases of the record type bytes, for batch decoders
#: (:mod:`repro.core.columnar`) that dispatch on the raw leading byte
#: without materializing token objects.
TYPE_START = _TYPE_START
TYPE_TEXT = _TYPE_TEXT
TYPE_END = _TYPE_END
TYPE_POINTER = _TYPE_POINTER

# Flag bits shared by start/end/pointer encodings.
_FLAG_KEY = 1
_FLAG_POS = 2
_FLAG_LEVEL = 4


def is_pointer_record(data: bytes) -> bool:
    """True if an encoded token record is a RunPointer (cheap peek)."""
    return bool(data) and data[0] == _TYPE_POINTER


def pointer_run_id(data: bytes) -> int:
    """The run id of an encoded RunPointer record, read in place."""
    if not is_pointer_record(data):
        raise CodecError("not a run pointer record")
    return read_varint(data, 2)[0]


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_varint(value: int) -> bytes:
    """The LEB128 frame of ``value`` as standalone bytes.

    The one varint implementation in the package: callers that used to
    carry private copies (:mod:`repro.xml.compact`'s frame cache, the
    run-compression layer) all frame through here.
    """
    if 0 <= value < 0x80:
        return _SMALL_VARINTS[value]
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


#: Single-byte varint frames, indexed by value.
_SMALL_VARINTS = [bytes((value,)) for value in range(0x80)]

#: Record heads (type byte, flags byte), indexed ``[type][flags]``.
_HEADS = [
    [bytes((record_type, flags)) for flags in range(8)]
    for record_type in range(_TYPE_POINTER + 1)
]


def string_frame(value: str) -> bytes:
    """The length-framed UTF-8 encoding of ``value`` (a codec string)."""
    encoded = value.encode("utf-8")
    size = len(encoded)
    if size < 0x80:
        return _SMALL_VARINTS[size] + encoded
    return encode_varint(size) + encoded


def _read_string(data: bytes, pos: int) -> tuple[str, int]:
    length, pos = read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string")
    return data[pos:end].decode("utf-8"), end


def encode_key_atom(out: bytearray, atom: tuple) -> None:
    """Append one key atom (kind byte + payload)."""
    kind, value = atom
    out.append(kind)
    if kind == KEY_MISSING:
        return
    if kind == KEY_NUMBER:
        out += _DOUBLE.pack(value)
        return
    if kind == KEY_STRING:
        out += string_frame(value)
        return
    raise CodecError(f"unknown key atom kind {kind}")


def decode_key_atom(data: bytes, pos: int) -> tuple[tuple, int]:
    """Read one key atom; returns (atom, new_pos)."""
    if pos >= len(data):
        raise CodecError("truncated key atom")
    kind = data[pos]
    pos += 1
    if kind == KEY_MISSING:
        return (KEY_MISSING, 0.0), pos
    if kind == KEY_NUMBER:
        end = pos + _DOUBLE.size
        if end > len(data):
            raise CodecError("truncated number atom")
        return (KEY_NUMBER, _DOUBLE.unpack(data[pos:end])[0]), end
    if kind == KEY_STRING:
        value, pos = _read_string(data, pos)
        return (KEY_STRING, value), pos
    raise CodecError(f"unknown key atom kind {kind}")


# -- reading records in place ----------------------------------------------
#
# After the [type, flags] head, a record holds:
#
# * start:   tag name, varint attribute count, (name, string) per
#            attribute, annotations;
# * text:    string, then the level when flagged;
# * end:     tag name, annotations;
# * pointer: varint run id, element count and payload bytes, annotations.
#
# A string is ``varint(len) + UTF-8``; a name is a string in the plain
# dialect and a varint id when dictionary-coded; the annotations are the
# key atom, position and level that the flags name, in that order, so the
# level is always a record's last field.  These walkers are the one place
# outside :class:`TokenCodec` that knows the layout; each raises
# CodecError for a record whose fields do not end exactly at its end.


def frame_span(data: bytes, pos: int) -> tuple[int, int]:
    """(start, end) of the payload of the string field at ``pos``; the
    next field begins at ``end``."""
    length = data[pos]
    pos += 1
    if length >= 0x80:
        length, pos = read_varint(data, pos - 1)
    return pos, pos + length


def _name_field(data: bytes, pos: int, coded: bool) -> tuple[bytes | int, int]:
    """(name, end) of the name field at ``pos``: the UTF-8 bytes of a
    plain name, or the id of a dictionary-coded one."""
    if coded:
        name_id = data[pos]
        if name_id < 0x80:
            return name_id, pos + 1
        return read_varint(data, pos)
    length = data[pos]
    pos += 1
    if length >= 0x80:
        length, pos = read_varint(data, pos - 1)
    end = pos + length
    return data[pos:end], end


def _annotations(data: bytes, pos: int) -> tuple[int, int | None]:
    """(offset of the level field, level or None) of the annotations
    starting at ``pos``, checking that they end the record."""
    flags = data[1]
    if flags & _FLAG_KEY:
        pos = decode_key_atom(data, pos)[1]
    if flags & _FLAG_POS:
        pos = read_varint(data, pos)[1]
    level_at = pos
    level = None
    if flags & _FLAG_LEVEL:
        level, pos = read_varint(data, pos)
    if pos != len(data):
        raise CodecError("malformed token record")
    return level_at, level


def start_fields(record: bytes, coded: bool) -> tuple:
    """Walk a start record's fields without decoding its strings.

    ``coded`` says the names are dictionary ids.  Returns ``(tag, attrs,
    annotations, level_at, level)``: names (the tag and each
    attribute's) are UTF-8 bytes in the plain dialect and ids when
    coded; ``attrs`` holds ``(name, start, end)`` per attribute, the
    value being the UTF-8 payload ``record[start:end]``; ``annotations``
    is the offset where the attributes end and ``level_at`` that of the
    level field (the record's length when it has none).
    """
    try:
        tag, pos = _name_field(record, 2, coded)
        count = record[pos]
        pos += 1
        if count >= 0x80:
            count, pos = read_varint(record, pos - 1)
        attrs = []
        append = attrs.append
        for _ in range(count):
            name, pos = _name_field(record, pos, coded)
            length = record[pos]
            pos += 1
            if length >= 0x80:
                length, pos = read_varint(record, pos - 1)
            end = pos + length
            append((name, pos, end))
            pos = end
        if record[1]:
            level_at, level = _annotations(record, pos)
        elif pos != len(record):
            raise CodecError("malformed token record")
        else:
            level_at, level = pos, None
    except IndexError:
        raise CodecError("truncated token record") from None
    return tag, attrs, pos, level_at, level


def end_fields(record: bytes, coded: bool) -> tuple[bytes | int, int]:
    """(tag, offset of the first annotation) of an end record; the tag
    as in :func:`start_fields`."""
    try:
        tag, pos = _name_field(record, 2, coded)
        _annotations(record, pos)
    except IndexError:
        raise CodecError("truncated token record") from None
    return tag, pos


def text_fields(record: bytes) -> tuple[int, int, int | None]:
    """(start, end, level or None) of a text record; its character data
    is the UTF-8 payload ``record[start:end]``."""
    try:
        start, end = frame_span(record, 2)
        pos = end
        level = None
        if record[1] & _FLAG_LEVEL:
            level, pos = read_varint(record, pos)
    except IndexError:
        raise CodecError("truncated token record") from None
    if pos != len(record):
        raise CodecError("malformed token record")
    return start, end, level


def with_level(record: bytes, level: int, coded: bool) -> bytes:
    """A start or text record annotated with ``level`` in place of any
    level it carries (the level is the last field)."""
    flags = record[1]
    if not flags & _FLAG_LEVEL:
        return (
            _HEADS[record[0]][flags | _FLAG_LEVEL]
            + record[2:]
            + encode_varint(level)
        )
    if record[0] == _TYPE_TEXT:
        level_at = text_fields(record)[1]
    else:
        level_at = start_fields(record, coded)[3]
    return record[:level_at] + encode_varint(level)


#: Most distinct names a codec keeps encoded frames for.
_NAME_FRAME_LIMIT = 1 << 12


class TokenCodec:
    """Encodes and decodes tokens, optionally via a name dictionary."""

    def __init__(self, names: "NameDictionary | None" = None):
        self.names = names
        #: name -> encoded name field (string frame or dictionary id).
        self._name_frames: dict[str, bytes] = {}

    # -- encoding ----------------------------------------------------------

    def _name_frame(self, name: str) -> bytes:
        frame = self._name_frames.get(name)
        if frame is None:
            if self.names is None:
                frame = string_frame(name)
            else:
                frame = self.names.intern_frame(name)
            if len(self._name_frames) >= _NAME_FRAME_LIMIT:
                self._name_frames.clear()
            self._name_frames[name] = frame
        return frame

    def encode(self, token: Token) -> bytes:
        # A record is its [type, flags] head, its fields and, when flags
        # is non-zero, the annotations (key atom, position, level - in
        # that order).  Unannotated tokens - what parsers, generators and
        # the wire client produce - cost one join of cached frames.
        kind = type(token)
        if kind is StartTag:
            name_frame = self._name_frame
            attrs = token.attrs
            count = len(attrs)
            parts = [
                _HEADS[_TYPE_START][0],
                name_frame(token.tag),
                _SMALL_VARINTS[count] if count < 0x80
                else encode_varint(count),
            ]
            append = parts.append
            for name, value in attrs:
                append(name_frame(name))
                append(string_frame(value))
            record_type = _TYPE_START
            key, position, level = token.key, token.pos, token.level
        elif kind is Text:
            parts = [_HEADS[_TYPE_TEXT][0], string_frame(token.text)]
            record_type = _TYPE_TEXT
            key = position = None
            level = token.level
        elif kind is EndTag:
            parts = [_HEADS[_TYPE_END][0], self._name_frame(token.tag)]
            record_type = _TYPE_END
            key, position, level = token.key, token.pos, None
        elif kind is RunPointer:
            parts = [
                _HEADS[_TYPE_POINTER][0],
                encode_varint(token.run_id),
                encode_varint(token.element_count),
                encode_varint(token.payload_bytes),
            ]
            record_type = _TYPE_POINTER
            key, position, level = token.key, token.pos, token.level
        else:
            raise CodecError(f"cannot encode {token!r}")
        if key is None and position is None and level is None:
            return b"".join(parts)
        flags = 0
        if key is not None:
            flags |= _FLAG_KEY
            annotations = bytearray()
            encode_key_atom(annotations, key)
            parts.append(annotations)
        if position is not None:
            flags |= _FLAG_POS
            parts.append(encode_varint(position))
        if level is not None:
            flags |= _FLAG_LEVEL
            parts.append(encode_varint(level))
        parts[0] = _HEADS[record_type][flags]
        return b"".join(parts)

    def encoded_size(self, token: Token) -> int:
        """Size of ``encode(token)`` (used for threshold arithmetic)."""
        return len(self.encode(token))

    def encode_batch(self, tokens: Iterable[Token]) -> list[bytes]:
        """Encode many tokens; one bound-method lookup for the batch."""
        encode = self.encode
        return [encode(token) for token in tokens]

    def read_name(self, data: bytes, pos: int) -> tuple[str, int]:
        if self.names is None:
            return _read_string(data, pos)
        name_id, pos = read_varint(data, pos)
        return self.names.lookup(name_id), pos

    # -- decoding ----------------------------------------------------------

    def decode(self, data: bytes) -> Token:
        if not data:
            raise CodecError("empty token record")
        token_type = data[0]
        if token_type in (
            _TYPE_START,
            _TYPE_TEXT,
            _TYPE_END,
            _TYPE_POINTER,
        ) and len(data) < 2:
            raise CodecError("truncated token record")
        if token_type == _TYPE_TEXT:
            flags = data[1]
            text, pos = _read_string(data, 2)
            level = None
            if flags & _FLAG_LEVEL:
                level, pos = read_varint(data, pos)
            return Text(text, level=level)
        if token_type == _TYPE_START:
            return self._decode_start(data)
        if token_type == _TYPE_END:
            return self._decode_end(data)
        if token_type == _TYPE_POINTER:
            return self._decode_pointer(data)
        raise CodecError(f"unknown token type byte {token_type}")

    def _decode_annotations(
        self, data: bytes, pos: int, flags: int
    ) -> tuple[tuple | None, int | None, int | None, int]:
        key = position = level = None
        if flags & _FLAG_KEY:
            key, pos = decode_key_atom(data, pos)
        if flags & _FLAG_POS:
            position, pos = read_varint(data, pos)
        if flags & _FLAG_LEVEL:
            level, pos = read_varint(data, pos)
        return key, position, level, pos

    def _decode_start(self, data: bytes) -> StartTag:
        flags = data[1]
        tag, pos = self.read_name(data, 2)
        attr_count, pos = read_varint(data, pos)
        attrs = []
        for _ in range(attr_count):
            name, pos = self.read_name(data, pos)
            value, pos = _read_string(data, pos)
            attrs.append((name, value))
        key, position, level, pos = self._decode_annotations(data, pos, flags)
        return StartTag(
            tag=tag, attrs=tuple(attrs), key=key, pos=position, level=level
        )

    def _decode_end(self, data: bytes) -> EndTag:
        flags = data[1]
        tag, pos = self.read_name(data, 2)
        key, position, _, pos = self._decode_annotations(data, pos, flags)
        return EndTag(tag=tag, key=key, pos=position)

    def _decode_pointer(self, data: bytes) -> RunPointer:
        flags = data[1]
        run_id, pos = read_varint(data, 2)
        element_count, pos = read_varint(data, pos)
        payload_bytes, pos = read_varint(data, pos)
        key, position, level, pos = self._decode_annotations(data, pos, flags)
        return RunPointer(
            run_id=run_id,
            key=key,
            pos=position,
            level=level,
            element_count=element_count,
            payload_bytes=payload_bytes,
        )
