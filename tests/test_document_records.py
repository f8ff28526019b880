"""The record-level document boundary: storing, staging and serializing
documents without token objects.

* The record serializer (``Document.to_string``/``write``) is checked
  against the token serializer on the decoded event stream, over every
  compaction mode, with and without indentation.
* Wire staging (``decode_document_wire`` -> ``Document.from_records``)
  is checked against ``Document.from_events`` on the decoded tokens:
  same run bytes, statistics and counters.
* Rejected streams (text outside the root, no element) and failed
  stores raise and leave no run or block behind; malformed wire records
  fail at ingest.
* ``tests/data/service_digests.json`` pins the per-job output and
  counter digests of two service workloads.
"""

import json
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nexsort import nexsort
from repro.errors import CodecError, RunCodecError, XMLSyntaxError
from repro.generators.level_fanout import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.io.compress import (
    _WIRE_MAGIC,
    decode_document_wire,
    encode_document_wire,
    encode_records,
)
from repro.keys import ByAttribute, SortSpec
from repro.xml import CompactionConfig, Document
from repro.xml.codec import TokenCodec, encode_varint
from repro.xml.compact import NameDictionary, eliminate_end_tags
from repro.xml.tokens import EndTag, StartTag, Text
from repro.xml.writer import events_to_string, records_to_string

from . import service_goldens

COMPACTIONS = {
    "none": lambda: None,
    "names": lambda: CompactionConfig(
        names=NameDictionary(), eliminate_end_tags=False
    ),
    "levels": lambda: CompactionConfig(names=None, eliminate_end_tags=True),
    "full": lambda: CompactionConfig(),
}

# Text with markup characters, quotes, unicode and, from the long piece,
# multi-byte length frames.
_TEXT = st.lists(
    st.sampled_from(list("ab &<>\"'\n") + ["é", "中", "𝄞", "x" * 130]),
    max_size=6,
).map("".join)
_NAME = st.sampled_from(["a", "b", "item", "ünï", "n-1", "x_y"])
_ATTRS = st.lists(
    st.tuples(_NAME, _TEXT), max_size=3, unique_by=lambda attr: attr[0]
)


@st.composite
def documents(draw, max_depth=6):
    """A well-formed event list: mixed content, empty elements and, now
    and then, a deep chain."""
    events = []

    def element(depth):
        events.append(StartTag(draw(_NAME), tuple(draw(_ATTRS))))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.booleans()):
                    events.append(Text(draw(_TEXT)))
                else:
                    element(depth + 1)
        events.append(EndTag("?"))

    # Build with placeholder end tags, then name them from a stack.
    chain = draw(st.integers(0, 40))
    for _ in range(chain):
        events.append(StartTag("deep"))
    element(0)
    for _ in range(chain):
        events.append(EndTag("?"))
    named, stack = [], []
    for event in events:
        if isinstance(event, StartTag):
            stack.append(event.tag)
        elif isinstance(event, EndTag):
            event = EndTag(stack.pop())
        named.append(event)
    return named


class TestRecordSerializer:
    @settings(max_examples=80, deadline=None)
    @given(
        events=documents(),
        mode=st.sampled_from(sorted(COMPACTIONS)),
        indent=st.sampled_from([None, "  ", "\t"]),
    )
    def test_matches_token_serializer(self, events, mode, indent):
        store = RunStore(BlockDevice(block_size=128))
        compaction = COMPACTIONS[mode]()
        document = Document.from_events(store, events, compaction)
        # Stored bytes: those of the token-level compaction.
        stored = events
        if compaction is not None and compaction.eliminate_end_tags:
            stored = eliminate_end_tags(events)
        assert list(document.iter_records()) == [
            document.codec.encode(token) for token in stored
        ]
        expected = events_to_string(document.iter_events(), indent=indent)
        assert document.to_string(indent=indent) == expected
        out = StringIO()
        document.write(out, indent=indent)
        assert out.getvalue().rstrip("\n") == expected.rstrip("\n")

    @pytest.mark.parametrize("mode", ["levels", "full"])
    def test_stale_levels_are_replaced(self, mode):
        # Events read back from a compacted document carry levels; storing
        # them compacted again re-levels them, as eliminate_end_tags does.
        events = [
            StartTag("r", (("k", "v"),), key=(2, "v"), pos=3, level=9),
            Text("t", level=7),
            StartTag("c", level=1),
            EndTag("c"),
            EndTag("r"),
        ]
        store = RunStore(BlockDevice(block_size=128))
        document = Document.from_events(store, events, COMPACTIONS[mode]())
        assert list(document.iter_records()) == [
            document.codec.encode(token)
            for token in eliminate_end_tags(events)
        ]

    @pytest.mark.parametrize("mode", sorted(COMPACTIONS))
    def test_sorted_output_matches_token_serializer(self, mode):
        # Sort outputs carry levels on their starts, compacted or not.
        store = RunStore(BlockDevice(block_size=512))
        document = Document.from_events(
            store,
            level_fanout_events([4, 3, 5], seed=3, pad_bytes=4),
            COMPACTIONS[mode](),
        )
        output, _ = nexsort(
            document, SortSpec(default=ByAttribute("name")), memory_blocks=8
        )
        for indent in (None, "  "):
            assert output.to_string(indent=indent) == events_to_string(
                output.iter_events(), indent=indent
            )

    def test_serializing_reads_what_the_token_path_reads(self):
        events = list(level_fanout_events([6, 6], seed=1, pad_bytes=30))

        def reads(serialize):
            device = BlockDevice(block_size=128)
            document = Document.from_events(RunStore(device), events)
            before = device.stats.snapshot()
            text = serialize(document)
            return text, device.stats.since(before).counter_totals()

        assert reads(lambda doc: doc.to_string()) == reads(
            lambda doc: events_to_string(doc.iter_events("export"))
        )

    def test_truncated_record_is_a_codec_error(self):
        record = TokenCodec().encode(StartTag("a", (("k", "value"),)))
        with pytest.raises(CodecError):
            records_to_string([record[:-3]])


class TestTextOutsideRoot:
    @pytest.mark.parametrize(
        "events",
        [
            [Text("lead"), StartTag("a"), EndTag("a")],
            [StartTag("a"), EndTag("a"), Text("tail")],
        ],
        ids=["leading", "trailing"],
    )
    def test_document_rejects_it(self, store, events):
        with pytest.raises(XMLSyntaxError, match="text outside the root"):
            Document.from_events(store, events)

    @pytest.mark.parametrize(
        "events",
        [
            [Text("lead"), StartTag("a"), EndTag("a")],
            [StartTag("a"), EndTag("a"), Text("tail")],
        ],
        ids=["leading", "trailing"],
    )
    def test_serializer_rejects_it(self, events):
        with pytest.raises(XMLSyntaxError, match="text outside the root"):
            events_to_string(events)

    def test_rejected_stream_leaves_no_run(self, store):
        before = store.live_run_ids()
        with pytest.raises(XMLSyntaxError):
            Document.from_events(
                store, [StartTag("a"), Text("x" * 900), EndTag("a"),
                        Text("tail")]
            )
        assert store.live_run_ids() == before
        assert store.device.occupied_blocks == 0


class TestEmptyDocument:
    @pytest.mark.parametrize("events", [[], [Text("only")]])
    def test_rejection_leaves_live_runs_unchanged(self, store, events):
        kept = Document.from_events(store, [StartTag("a"), EndTag("a")])
        before = store.live_run_ids()
        with pytest.raises(XMLSyntaxError):
            Document.from_events(store, events)
        assert store.live_run_ids() == before == {kept.handle.run_id}


class TestFailedStore:
    @staticmethod
    def _records(tail):
        codec = TokenCodec()
        yield codec.encode(StartTag("a"))
        for _ in range(40):  # enough to flush several blocks
            yield codec.encode(Text("x" * 200))
        yield from tail()

    @staticmethod
    def _producer_fails():
        raise RunCodecError("producer failed")
        yield  # pragma: no cover - makes this a generator

    @staticmethod
    def _empty_record():
        yield b""

    @pytest.mark.parametrize(
        "tail", ["_producer_fails", "_empty_record"]
    )
    def test_failure_frees_written_blocks(self, store, tail):
        with pytest.raises(Exception):
            Document.from_records(
                store, self._records(getattr(self, tail))
            )
        assert store.live_run_ids() == set()
        assert store.device.occupied_blocks == 0


class TestWireStaging:
    @pytest.mark.parametrize("block_size", [128, 4096])
    def test_staging_matches_from_events(self, block_size):
        events = list(level_fanout_events([4, 4, 8], seed=5, pad_bytes=96))
        records = decode_document_wire(encode_document_wire(events))
        tokens = [TokenCodec().decode(record) for record in records]
        assert tokens == events

        staged = self._store(records, block_size, from_records=True)
        plain = self._store(tokens, block_size, from_records=False)
        assert staged == plain

    @staticmethod
    def _store(items, block_size, from_records):
        """(stats, counter totals, run geometry, stored records)."""
        device = BlockDevice(block_size=block_size)
        store = RunStore(device)
        if from_records:
            doc = Document.from_records(store, items)
        else:
            doc = Document.from_events(store, items)
        totals = device.stats.snapshot().counter_totals()
        handle = doc.handle
        geometry = (
            handle.block_ids, handle.stream_bytes, handle.payload_bytes,
            handle.record_count,
        )
        return doc.stats, totals, geometry, list(doc.iter_records())

    def test_records_are_the_plain_encoding(self):
        events = list(level_fanout_events([3, 3], seed=2, pad_bytes=200))
        codec = TokenCodec()
        records = decode_document_wire(encode_document_wire(events))
        assert records == [codec.encode(event) for event in events]


def _wire_blob(names: list[bytes], records: list[bytes]) -> bytes:
    """A wire blob of dictionary-coded ``records`` with a valid checksum."""
    table = encode_varint(len(names)) + b"".join(
        encode_varint(len(name)) + name for name in names
    )
    body = encode_records(records, embedded_keys=False, codec="container")
    return (
        _WIRE_MAGIC + encode_varint(len(table)) + table
        + encode_varint(len(body)) + body
    )


# Dictionary-coded <a>, x and </a> (name id 0 is "a").
_START_A = b"\x01\x00\x00\x00"
_TEXT_X = b"\x02\x00\x01x"
_END_A = b"\x03\x00\x00"


class TestWireValidation:
    def test_well_formed_blob_decodes(self):
        events = [StartTag("a"), Text("x"), EndTag("a")]
        blob = _wire_blob([b"a"], [_START_A, _TEXT_X, _END_A])
        assert blob == encode_document_wire(events)
        codec = TokenCodec()
        assert decode_document_wire(blob) == [codec.encode(e) for e in events]

    @pytest.mark.parametrize(
        "record",
        [
            b"\x02\x00\x01xzz",  # bytes after the text
            b"\x02\x00\x05ab",  # text runs past the record
            b"\x02\x00\x01\xff",  # text is not UTF-8
            b"\x01\x00\x00\x01\x00\x01\xff",  # attribute value not UTF-8
            b"\x01\x00\x00\x02\x00",  # attributes run past the record
            b"\x01\x00\x07\x00",  # unknown name id
            b"\x03\x00\x00z",  # bytes after the end tag
            b"\x04\x00\x01\x00\x00",  # a run pointer
            b"\x09\x00",  # unknown type byte
            b"",  # empty record
        ],
        ids=[
            "text-tail", "text-truncated", "text-utf8", "attr-utf8",
            "attrs-truncated", "name-id", "end-tail", "pointer",
            "type-byte", "empty",
        ],
    )
    def test_malformed_record_fails_at_ingest(self, record):
        blob = _wire_blob([b"a"], [_START_A, record, _END_A])
        with pytest.raises(RunCodecError):
            decode_document_wire(blob)


class TestServiceDigests:
    @pytest.mark.parametrize("name", sorted(service_goldens.WORKLOADS))
    def test_jobs_match_recorded_digests(self, name):
        recorded = json.loads(
            service_goldens.PATH.read_text(encoding="utf-8")
        )[name]
        assert service_goldens.run(name) == recorded
