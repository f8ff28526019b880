"""Run compression: container-split codecs for sorted runs (ISSUE 10).

Every intermediate byte the sorters move is a framed token record, and
*Optimizing XML Compression* (Leighton & Barbosa) shows XML compresses
far better when its structure, text, and annotations are split into
separate containers, each with a codec suited to its statistics, than
when one byte-level codec sees the interleaved stream.  This module
implements that split at *run granularity*:

* **key container** - the embedded normalized key of every record
  (``varint(len) + key``), stored **raw**: merge kernels compare and
  replay orders straight from stored bytes, so keys must never need a
  decode.
* **layout container** - one varint per record: payload length and a
  structure/text discriminator bit.  This is the glue that reassembles
  records in order.
* **structure container** - records whose payload is a start/end/pointer
  token (name-dictionary ids and varint framing from
  :mod:`repro.xml.codec`).  The ``container`` codec front-codes them
  (key-frame + shared prefix/suffix delta against the previous record)
  and then entropy-packs the delta stream.
* **text container** - text-token payloads, coded with a per-segment
  dictionary of unique blobs plus per-record indices (text in XML repeats
  heavily: whitespace runs, enumerated values).

Each container also tries :func:`zlib.compress` over its coded bytes and
keeps the smallest of raw, coded and coded-then-zlib, so a compressed
segment is never larger than necessary plus framing.

Segments are *self-contained*: a group of whole records is encoded into
one blob (checksummed, typed, counted) and stored in
``ceil(len(blob)/block_size)`` device blocks.  Records never span
segments, which keeps mid-run resume cheap (binary-search the segment
table, decode one segment) and bounds the decode working set.

The same record packing doubles as the service wire format
(:func:`encode_document_wire` / :func:`decode_document_wire`): a job's
token stream is dictionary-coded, container-split, and checksummed into
one compact submission blob that decodes to plain-dialect records of the
*exact* original tokens.

Simulated-cost accounting lives with the callers: writers charge
:meth:`~repro.io.stats.IOStats.record_compression` per raw byte in,
readers charge :meth:`~repro.io.stats.IOStats.record_decompression` per
raw byte out, and the :class:`~repro.io.stats.CostModel` converts both
to CPU seconds.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import RunCodecError
from ..xml.codec import (
    TYPE_END,
    TYPE_START,
    TYPE_TEXT,
    TokenCodec,
    encode_varint,
    end_fields,
    read_varint,
    start_fields,
    text_fields,
    write_varint,
)

_LEN = struct.Struct("<I")

#: Codec names accepted by :class:`CompressionConfig` and the CLI.
CODEC_NAMES = ("container",)

#: The codec id byte of every segment.  Id 2 is not reused: it named an
#: earlier whole-container zlib codec, so such segments are rejected
#: rather than misread.
_CONTAINER_CODEC_ID = 1

_SEGMENT_MAGIC = 0xC5
_WIRE_MAGIC = b"RXW1"

_FLAG_EMBEDDED_KEYS = 1

# Per-container storage modes (the fallback machinery): every container
# records how it was coded so decode never guesses.
_MODE_RAW = 0
_MODE_DELTA = 1        # structure: front-coded (prefix/suffix delta)
_MODE_DELTA_ZLIB = 2   # structure: front-coded, then zlib
_MODE_DICT = 4         # text: unique-blob dictionary + indices
_MODE_DICT_ZLIB = 5    # text: dictionary blob through zlib

#: Default write categories that produce compressed runs.  Everything
#: that is an *intermediate* sorted run compresses; ``output`` and
#: document staging never do (the output document is the bit-identity
#: contract surface).
DEFAULT_COMPRESS_CATEGORIES = frozenset(
    {"run_write", "merge_write", "partial_run", "partial_merge_write"}
)


@dataclass(frozen=True)
class CompressionConfig:
    """How a :class:`~repro.io.runs.RunStore` compresses new runs.

    Attributes:
        codec: "container" (split + front-coding/dictionary), the only
            codec.
        segment_blocks: raw blocks gathered per compressed segment.  The
            writer buffers this much framed data before coding, so it is
            also the codec's working-set knob.
        categories: writer categories whose runs compress; anything else
            (notably ``output``) stays uncompressed.
        embedded_keys: whether records carry embedded normalized keys
            (``varint(len) + key`` prefix) to peel into the key container.
        capacity: opt-in run-formation capacity mode - the former
            compresses *pending* formation batches so longer initial
            runs fit the same memory (fewer runs, possibly fewer merge
            passes).  Changes comparison/run counters honestly; plain
            compression never does.
    """

    codec: str = "container"
    segment_blocks: int = 4
    categories: frozenset = field(default=DEFAULT_COMPRESS_CATEGORIES)
    embedded_keys: bool = False
    capacity: bool = False

    def __post_init__(self):
        if self.codec not in CODEC_NAMES:
            raise RunCodecError(
                f"unknown run codec {self.codec!r}; pick one of "
                f"{', '.join(CODEC_NAMES)}"
            )
        if self.segment_blocks < 1:
            raise RunCodecError(
                f"segment_blocks must be positive: {self.segment_blocks}"
            )


@dataclass(frozen=True)
class RunSegment:
    """One compressed segment of a run: whole records, self-contained.

    Attributes:
        logical_start: framed-stream offset of the segment's first record.
        logical_bytes: framed bytes the segment covers.
        block_start: index of its first block in the handle's block list.
        block_count: physical blocks storing the compressed blob.
        stored_bytes: exact compressed blob length (the final block is
            zero-padded up to the block size).
        record_count: records in the segment.
    """

    logical_start: int
    logical_bytes: int
    block_start: int
    block_count: int
    stored_bytes: int
    record_count: int

    @property
    def logical_end(self) -> int:
        return self.logical_start + self.logical_bytes


def framed_bytes(records: Iterable[bytes]) -> int:
    """Bytes the records would occupy as an uncompressed framed stream."""
    return sum(_LEN.size + len(record) for record in records)


# -- container coding ---------------------------------------------------------


def _split_record(payload: bytes, embedded_keys: bool):
    """(key_part, rest, is_text) for one record payload."""
    if embedded_keys:
        try:
            klen, pos = read_varint(payload, 0)
        except Exception as exc:
            raise RunCodecError(
                f"record has no embedded-key frame: {exc}"
            ) from exc
        end = pos + klen
        if end > len(payload):
            raise RunCodecError("embedded key frame overruns its record")
        key_part, rest = payload[:end], payload[end:]
    else:
        key_part, rest = b"", payload
    is_text = bool(rest) and rest[0] == TYPE_TEXT
    return key_part, rest, is_text


def _front_code(entries: list[bytes]) -> bytes:
    """Prefix/suffix delta against the previous entry, key-framed.

    Each entry stores ``varint(shared_prefix) varint(shared_suffix)``
    plus the differing middle; entry lengths come from the layout
    container, so no length is repeated here.
    """
    out = bytearray()
    prev = b""
    for entry in entries:
        limit = min(len(entry), len(prev))
        prefix = 0
        while prefix < limit and entry[prefix] == prev[prefix]:
            prefix += 1
        suffix = 0
        while (
            suffix < limit - prefix
            and entry[len(entry) - 1 - suffix] == prev[len(prev) - 1 - suffix]
        ):
            suffix += 1
        write_varint(out, prefix)
        write_varint(out, suffix)
        out += entry[prefix : len(entry) - suffix]
        prev = entry
    return bytes(out)


def _front_decode(data: bytes, lengths: list[int]) -> list[bytes]:
    entries: list[bytes] = []
    prev = b""
    pos = 0
    for length in lengths:
        prefix, pos = read_varint(data, pos)
        suffix, pos = read_varint(data, pos)
        middle = length - prefix - suffix
        if middle < 0 or prefix > len(prev) or suffix > len(prev):
            raise RunCodecError("front-coded entry overruns its frame")
        end = pos + middle
        if end > len(data):
            raise RunCodecError("truncated front-coded container")
        entry = (
            prev[:prefix]
            + data[pos:end]
            + (prev[len(prev) - suffix :] if suffix else b"")
        )
        pos = end
        entries.append(entry)
        prev = entry
    if pos != len(data):
        raise RunCodecError("trailing bytes after front-coded container")
    return entries


def _dict_code(entries: list[bytes]) -> bytes | None:
    """Unique-blob dictionary + per-entry indices; None when pointless."""
    index_of: dict[bytes, int] = {}
    order: list[bytes] = []
    for entry in entries:
        if entry not in index_of:
            index_of[entry] = len(order)
            order.append(entry)
    if len(order) >= len(entries):
        return None
    out = bytearray()
    write_varint(out, len(order))
    for blob in order:
        write_varint(out, len(blob))
        out += blob
    for entry in entries:
        write_varint(out, index_of[entry])
    return bytes(out)


def _dict_decode(data: bytes, count: int) -> list[bytes]:
    nuniq, pos = read_varint(data, 0)
    order: list[bytes] = []
    for _ in range(nuniq):
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise RunCodecError("truncated dictionary blob")
        order.append(data[pos:end])
        pos = end
    entries: list[bytes] = []
    for _ in range(count):
        index, pos = read_varint(data, pos)
        if index >= nuniq:
            raise RunCodecError(f"dictionary index {index} out of range")
        entries.append(order[index])
    if pos != len(data):
        raise RunCodecError("trailing bytes after dictionary container")
    return entries


def _split_concat(data: bytes, lengths: list[int]) -> list[bytes]:
    entries: list[bytes] = []
    pos = 0
    for length in lengths:
        end = pos + length
        if end > len(data):
            raise RunCodecError("truncated raw container")
        entries.append(data[pos:end])
        pos = end
    if pos != len(data):
        raise RunCodecError("trailing bytes after raw container")
    return entries


def _pack_structure(entries: list[bytes]) -> bytes:
    raw = b"".join(entries)
    delta = _front_code(entries)
    candidates = [
        (_MODE_RAW, raw),
        (_MODE_DELTA, delta),
        (_MODE_DELTA_ZLIB, zlib.compress(delta, 6)),
    ]
    mode, data = min(candidates, key=lambda pair: len(pair[1]))
    return bytes([mode]) + data


def _pack_text(entries: list[bytes]) -> bytes:
    raw = b"".join(entries)
    candidates = [(_MODE_RAW, raw)]
    coded = _dict_code(entries)
    if coded is not None:
        candidates.append((_MODE_DICT, coded))
        candidates.append((_MODE_DICT_ZLIB, zlib.compress(coded, 6)))
    mode, data = min(candidates, key=lambda pair: len(pair[1]))
    return bytes([mode]) + data


def _unpack_container(
    blob: bytes, lengths: list[int], kind: str
) -> list[bytes]:
    if not blob:
        if lengths:
            raise RunCodecError(f"empty {kind} container for {len(lengths)} records")
        return []
    mode, data = blob[0], blob[1:]
    try:
        if mode == _MODE_RAW:
            return _split_concat(data, lengths)
        if mode == _MODE_DELTA:
            return _front_decode(data, lengths)
        if mode == _MODE_DELTA_ZLIB:
            return _front_decode(zlib.decompress(data), lengths)
        if mode == _MODE_DICT:
            return _dict_decode(data, len(lengths))
        if mode == _MODE_DICT_ZLIB:
            return _dict_decode(zlib.decompress(data), len(lengths))
    except zlib.error as exc:
        raise RunCodecError(f"corrupt {kind} container: {exc}") from exc
    raise RunCodecError(f"unknown {kind} container mode {mode}")


# -- segment blobs ------------------------------------------------------------


def encode_records(records: list[bytes], embedded_keys: bool) -> bytes:
    """Container-split a group of whole records into one segment blob."""
    key_container = bytearray()
    layout = bytearray()
    structure: list[bytes] = []
    text: list[bytes] = []
    crc = 0
    for payload in records:
        crc = zlib.crc32(_LEN.pack(len(payload)), crc)
        crc = zlib.crc32(payload, crc)
        key_part, rest, is_text = _split_record(payload, embedded_keys)
        key_container += key_part
        write_varint(layout, (len(rest) << 1) | int(is_text))
        (text if is_text else structure).append(rest)

    out = bytearray()
    out.append(_SEGMENT_MAGIC)
    out.append(_CONTAINER_CODEC_ID)
    out.append(_FLAG_EMBEDDED_KEYS if embedded_keys else 0)
    write_varint(out, len(records))
    write_varint(out, framed_bytes(records))
    write_varint(out, crc)
    for container in (
        bytes(key_container),
        bytes(layout),
        _pack_structure(structure),
        _pack_text(text),
    ):
        write_varint(out, len(container))
        out += container
    return bytes(out)


def decode_records(blob: bytes) -> list[bytes]:
    """Inverse of :func:`encode_records`; raises :class:`RunCodecError`.

    Corruption anywhere - magic, codec id, container framing, checksum -
    surfaces as a typed error rather than silently wrong records.
    """
    try:
        return _decode_records(blob)
    except RunCodecError:
        raise
    except Exception as exc:  # truncated varints, slicing overruns...
        raise RunCodecError(f"corrupt compressed segment: {exc}") from exc


def _decode_records(blob: bytes) -> list[bytes]:
    if not blob or blob[0] != _SEGMENT_MAGIC:
        raise RunCodecError("bad segment magic")
    if len(blob) < 3:
        raise RunCodecError("truncated segment header")
    if blob[1] != _CONTAINER_CODEC_ID:
        raise RunCodecError(f"unknown codec id {blob[1]}")
    embedded_keys = bool(blob[2] & _FLAG_EMBEDDED_KEYS)
    pos = 3
    record_count, pos = read_varint(blob, pos)
    raw_bytes, pos = read_varint(blob, pos)
    crc_expected, pos = read_varint(blob, pos)

    containers: list[bytes] = []
    for _ in range(4):
        length, pos = read_varint(blob, pos)
        end = pos + length
        if end > len(blob):
            raise RunCodecError("truncated segment container")
        containers.append(blob[pos:end])
        pos = end
    if pos != len(blob):
        raise RunCodecError("trailing bytes after segment")
    key_container, layout, structure_blob, text_blob = containers

    kinds: list[int] = []
    struct_lengths: list[int] = []
    text_lengths: list[int] = []
    lpos = 0
    for _ in range(record_count):
        packed, lpos = read_varint(layout, lpos)
        is_text = packed & 1
        length = packed >> 1
        kinds.append(is_text)
        (text_lengths if is_text else struct_lengths).append(length)
    if lpos != len(layout):
        raise RunCodecError("trailing bytes after layout container")

    structure = _unpack_container(structure_blob, struct_lengths, "structure")
    text = _unpack_container(text_blob, text_lengths, "text")

    records: list[bytes] = []
    kpos = 0
    siter = iter(structure)
    titer = iter(text)
    for is_text in kinds:
        if embedded_keys:
            klen, after = read_varint(key_container, kpos)
            kend = after + klen
            if kend > len(key_container):
                raise RunCodecError("truncated key container")
            key_part = key_container[kpos:kend]
            kpos = kend
        else:
            key_part = b""
        rest = next(titer) if is_text else next(siter)
        records.append(key_part + rest)
    if kpos != len(key_container):
        raise RunCodecError("trailing bytes after key container")

    crc = 0
    total = 0
    for payload in records:
        crc = zlib.crc32(_LEN.pack(len(payload)), crc)
        crc = zlib.crc32(payload, crc)
        total += _LEN.size + len(payload)
    if total != raw_bytes:
        raise RunCodecError(
            f"segment length mismatch: framed {total}, header {raw_bytes}"
        )
    if crc != crc_expected:
        raise RunCodecError("segment checksum mismatch")
    return records


# -- the service wire format --------------------------------------------------


def encode_document_wire(events) -> bytes:
    """Encode a token stream into one compact submission blob.

    Tokens are dictionary-coded (the name table ships in the blob) and
    container-split with the run codec; :func:`decode_document_wire`
    returns records that decode to tokens *equal* to the originals - the
    wire format is exact, not merely digest-identical.
    """
    from ..xml.compact import NameDictionary

    names = NameDictionary()
    token_codec = TokenCodec(names)
    records = [token_codec.encode(token) for token in events]
    body = encode_records(records, embedded_keys=False)

    out = bytearray()
    out += _WIRE_MAGIC
    table = bytearray()
    write_varint(table, len(names))
    for name_id in range(len(names)):
        encoded = names.lookup(name_id).encode("utf-8")
        write_varint(table, len(encoded))
        table += encoded
    write_varint(out, len(table))
    out += table
    write_varint(out, len(body))
    out += body
    return bytes(out)


def decode_document_wire(blob: bytes) -> list[bytes]:
    """Decode a wire blob to store-ready plain-dialect token records.

    The records are byte for byte what :class:`TokenCodec` without a
    name dictionary encodes for the submitted tokens, so
    :meth:`~repro.xml.document.Document.from_records` stores them as
    :meth:`~repro.xml.document.Document.from_events` stores the tokens.
    Each dictionary id is replaced by its name's frame, which the wire's
    name table already holds as ``varint(len) + UTF-8``; no token object
    is built.
    """
    if blob[: len(_WIRE_MAGIC)] != _WIRE_MAGIC:
        raise RunCodecError("bad wire magic")
    try:
        pos = len(_WIRE_MAGIC)
        table_len, pos = read_varint(blob, pos)
        table_end = pos + table_len
        if table_end > len(blob):
            raise RunCodecError("truncated wire name table")
        table = blob[pos:table_end]
        pos = table_end
        count, tpos = read_varint(table, 0)
        frames = []
        for _ in range(count):
            length, start = read_varint(table, tpos)
            end = start + length
            if end > len(table):
                raise RunCodecError("truncated wire name table")
            table[start:end].decode("utf-8")  # names must be valid text
            frames.append(table[tpos:end])
            tpos = end
        body_len, pos = read_varint(blob, pos)
        if pos + body_len != len(blob):
            raise RunCodecError("wire body length mismatch")
        return _plain_records(decode_records(blob[pos:]), frames)
    except RunCodecError:
        raise
    except Exception as exc:
        raise RunCodecError(f"corrupt wire blob: {exc}") from exc


#: Most distinct start and end records one wire decode keeps
#: rewritten.
_PLAIN_CACHE_LIMIT = 1 << 14


def _plain_records(records: list[bytes], frames: list[bytes]) -> list[bytes]:
    """Dictionary-coded token records rewritten with plain name frames.

    Every record is walked and its strings checked as UTF-8, so a blob
    whose records do not decode fails here, at ingest, as the token
    decode it replaces would have failed.  Start and end records are
    rewritten once per distinct record: a job repeats them wherever
    elements share a tag and attribute values.
    """
    plain: dict[bytes, bytes] = {}
    out = []
    put = out.append
    for record in records:
        kind = record[0]
        if kind == TYPE_TEXT:
            start, end, _ = text_fields(record)
            record[start:end].decode("utf-8")
            put(record)
            continue
        rewritten = plain.get(record)
        if rewritten is None:
            if kind == TYPE_START:
                tag, attrs, annotations, _, _ = start_fields(record, True)
                parts = [record[:2], frames[tag], encode_varint(len(attrs))]
                for name, start, end in attrs:
                    value = record[start:end]
                    value.decode("utf-8")
                    parts += (frames[name], encode_varint(end - start), value)
                parts.append(record[annotations:])
                rewritten = b"".join(parts)
            elif kind == TYPE_END:
                tag, annotations = end_fields(record, True)
                rewritten = record[:2] + frames[tag] + record[annotations:]
            else:
                raise RunCodecError(f"unexpected wire record type {kind}")
            if len(plain) >= _PLAIN_CACHE_LIMIT:
                plain.clear()
            plain[record] = rewritten
        put(rewritten)
    return out


__all__ = [
    "CODEC_NAMES",
    "CompressionConfig",
    "DEFAULT_COMPRESS_CATEGORIES",
    "RunSegment",
    "decode_document_wire",
    "decode_records",
    "encode_document_wire",
    "encode_records",
    "framed_bytes",
]
