"""Compressed runs (ISSUE 10): codec, store integration, identity.

Bottom-up like the module itself: the container-split codec round-trips
byte-exactly and fails typed on corruption; the run store writes and
reads compressed runs interchangeably with plain ones (same logical
offsets, same resume points); sorts produce bit-identical output with
compression on, with only the byte/CPU counters moving; the fault and
service layers compose with compression unchanged.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.merge_sort import external_merge_sort
from repro.core.nexsort import nexsort
from repro.errors import RunCodecError, SortSpecError
from repro.io import BlockDevice, CompressionConfig, RunStore
from repro.io.compress import (
    decode_document_wire,
    decode_records,
    encode_document_wire,
    encode_records,
)
from repro.keys import ByAttribute, SortSpec
from repro.merge.engine import MergeOptions
from repro.service.scheduler import Scheduler, run_solo
from repro.service.workload import WorkloadSpec
from repro.io.lease import ResourcePool
from repro.xml.codec import TokenCodec, encode_varint, read_varint
from repro.generators.level_fanout import level_fanout_events

from .conftest import flat_tree, store_tree

SPEC = SortSpec(default=ByAttribute("name"))


def _records(count, seed=3):
    """Mixed structure/text-ish payloads of varying lengths."""
    out = []
    for index in range(count):
        if index % 3 == 0:
            out.append(b"text value %d padding" % (index * seed))
        else:
            out.append(bytes([index % 7]) + b"\x01\x02" * (index % 11 + 1))
    return out


class TestCodec:
    def test_round_trip(self):
        records = _records(40)
        blob = encode_records(records, False)
        assert decode_records(blob) == records

    def test_embedded_keys_round_trip(self):
        records = [
            encode_varint(len(key)) + key + payload
            for key, payload in zip(
                [b"k%03d" % i for i in range(20)], _records(20)
            )
        ]
        blob = encode_records(records, True)
        assert decode_records(blob) == records

    def test_empty_group(self):
        assert decode_records(encode_records([], False)) == []

    def test_unknown_codec_rejected(self):
        with pytest.raises(RunCodecError):
            CompressionConfig(codec="zlib")
        # Codec id 2 named a removed whole-container zlib codec; a
        # segment carrying it is rejected like any other unknown id.
        blob = encode_records(_records(12), False)
        assert blob[1] == 1
        with pytest.raises(RunCodecError, match="unknown codec id 2"):
            decode_records(blob[:1] + bytes([2]) + blob[2:])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b"",  # empty
            lambda b: b[1:],  # lost magic
            lambda b: b[:10],  # truncated containers
            lambda b: b + b"\x00",  # trailing garbage
            lambda b: b[:1] + bytes([99]) + b[2:],  # unknown codec id
            lambda b: b[:-3] + bytes(
                (b[-3] ^ 0xFF,)
            ) + b[-2:],  # flipped payload byte -> crc mismatch
        ],
    )
    def test_corruption_is_typed(self, mutate):
        blob = encode_records(_records(12), False)
        with pytest.raises(RunCodecError):
            decode_records(mutate(blob))

    @given(values=st.lists(st.integers(min_value=0, max_value=2**40)))
    @settings(max_examples=50, deadline=None)
    def test_varint_round_trip_property(self, values):
        # Satellite 1: the one shared varint implementation round-trips
        # any concatenated sequence at any boundary.
        blob = b"".join(encode_varint(v) for v in values)
        pos = 0
        decoded = []
        while pos < len(blob):
            value, pos = read_varint(blob, pos)
            decoded.append(value)
        assert decoded == values


def make_store(block_size=256, compression=None):
    store = RunStore(BlockDevice(block_size=block_size))
    if compression is not None:
        store.compression = compression
    return store


class TestCompressedRuns:
    def test_round_trip_and_logical_offsets(self):
        plain = make_store()
        packed = make_store(compression=CompressionConfig())
        records = _records(120)

        handles = []
        for store in (plain, packed):
            writer = store.create_writer("run_write")
            writer.write_records(records)
            handles.append(writer.finish())
        plain_handle, packed_handle = handles

        # Logical geometry is interchangeable: same framed stream.
        assert packed_handle.stream_bytes == plain_handle.stream_bytes
        assert packed_handle.record_count == plain_handle.record_count
        assert packed_handle.codec == "container"
        assert len(packed_handle.block_ids) < len(plain_handle.block_ids)

        reader = packed.open_reader(packed_handle)
        assert list(reader) == records

    def test_resume_mid_run_matches_plain(self):
        records = _records(90)
        plain = make_store()
        packed = make_store(compression=CompressionConfig())
        writers = (
            plain.create_writer("run_write"),
            packed.create_writer("run_write"),
        )
        for writer in writers:
            writer.write_records(records)
        plain_handle, packed_handle = (w.finish() for w in writers)

        # Walk the plain reader halfway, capture its resume offset, and
        # reopen *the compressed run* at that offset: same tail.
        reader = plain.open_reader(plain_handle)
        for _ in range(45):
            reader.read_record()
        offset = reader.tell()
        resumed = packed.open_reader(packed_handle, offset=offset)
        assert list(resumed) == records[45:]

    def test_write_record_matches_write_records(self):
        # Satellite 2: both entry points share one framing path, so a
        # record-at-a-time run is byte-identical to a batched one -
        # compressed and plain alike.
        records = _records(64)
        for compression in (None, CompressionConfig()):
            stores = (
                make_store(compression=compression),
                make_store(compression=compression),
            )
            one = stores[0].create_writer("run_write")
            for record in records:
                one.write_record(record)
            batched = stores[1].create_writer("run_write")
            batched.write_records(records)
            a, b = one.finish(), batched.finish()
            assert a.stream_bytes == b.stream_bytes
            blocks_a = [
                stores[0].device.read_block(block) for block in a.block_ids
            ]
            blocks_b = [
                stores[1].device.read_block(block) for block in b.block_ids
            ]
            assert blocks_a == blocks_b

    def test_corrupt_block_raises_typed_error_naming_the_block(self):
        # Satellite 3: flip a byte inside a stored compressed segment.
        store = make_store(compression=CompressionConfig())
        writer = store.create_writer("run_write")
        writer.write_records(_records(80))
        handle = writer.finish()
        victim = handle.block_ids[0]
        raw = bytearray(store.device.read_block(victim))
        raw[5] ^= 0xFF
        store.device._blocks[victim] = bytes(raw)

        with pytest.raises(RunCodecError) as info:
            list(store.open_reader(handle))
        assert info.value.run_id == handle.run_id
        assert info.value.block == victim
        assert str(victim) in str(info.value)

    def test_uncompressed_categories_stay_plain(self):
        store = make_store(compression=CompressionConfig())
        writer = store.create_writer("output")
        writer.write_records(_records(10))
        handle = writer.finish()
        assert handle.codec is None
        assert not handle.segments

    def test_capacity_requires_codec(self):
        with pytest.raises(SortSpecError):
            MergeOptions(compress_capacity=True)
        with pytest.raises(SortSpecError):
            MergeOptions(compress="snappy")


def _digest(document):
    return hashlib.sha256(document.to_string().encode()).hexdigest()


def _sort(algorithm, compress=None, capacity=False, memory=10):
    store = make_store(block_size=256)
    document = store_tree(store, flat_tree(260, seed=4))
    options = (
        MergeOptions()
        if compress is None
        else MergeOptions(compress=compress, compress_capacity=capacity)
    )
    if algorithm == "nexsort":
        output, report = nexsort(
            document, SPEC, memory_blocks=memory, merge_options=options
        )
    else:
        output, report = external_merge_sort(
            document, SPEC, memory_blocks=memory, merge_options=options
        )
    return _digest(output), report


class TestSortIdentity:
    @pytest.mark.parametrize("algorithm", ["nexsort", "merge_sort"])
    def test_digest_comparisons_tokens_identical(self, algorithm):
        base_digest, base = _sort(algorithm)
        digest, report = _sort(algorithm, compress="container")
        assert digest == base_digest
        assert report.stats.comparisons == base.stats.comparisons
        assert report.stats.tokens == base.stats.tokens
        # The honest part: bytes really moved.
        assert report.stats.compress_stored_bytes > 0
        assert (
            report.stats.compress_stored_bytes
            < report.stats.compress_raw_bytes
        )

    @pytest.mark.parametrize("algorithm", ["nexsort", "merge_sort"])
    def test_off_is_bit_identical(self, algorithm):
        # Compression off emits no compression counters at all, so
        # pre-existing traces and goldens compare byte-for-byte.
        _digest_, report = _sort(algorithm)
        totals = report.stats.counter_totals()
        assert "compress_raw_bytes" not in totals
        assert report.stats.compress_raw_bytes == 0

    def test_capacity_mode_same_output_fewer_runs(self):
        base_digest, base = _sort("merge_sort", memory=6)
        digest, report = _sort(
            "merge_sort", compress="container", capacity=True, memory=6
        )
        assert digest == base_digest
        assert report.initial_runs < base.initial_runs


class TestFaultInteraction:
    def test_torn_segment_write_recovers_through_retry(self):
        # Satellite 3: compressed segments go to disk as one vectored
        # multi-block write - exactly the shape torn faults target.
        # Incompressible records keep the blob above one block so the
        # tear actually lands, and the retrying device must absorb it
        # and leave a readable, byte-exact run behind.
        import random

        from repro.faults import FaultInjector, FaultPlan, RetryingDevice

        rng = random.Random(11)
        records = [rng.randbytes(200) for _ in range(60)]

        device = BlockDevice(block_size=256)
        retrier = RetryingDevice(
            FaultInjector(device, FaultPlan.parse("torn@1"))
        )
        store = RunStore(retrier)
        store.compression = CompressionConfig()
        writer = store.create_writer("run_write")
        writer.write_records(records)
        handle = writer.finish()

        assert retrier.retry_stats.retries >= 1
        assert device.stats.penalty_seconds > 0
        assert list(store.open_reader(handle)) == records

    def test_faulty_sort_with_compression_is_bit_identical(self):
        # The checkpoint/retry path end to end: a chaos run with
        # compressed runs still matches the fault-free compressed
        # golden - digest and every counter except the penalty clock.
        spec = WorkloadSpec.parse(
            "jobs=1;shape=6x6x6;memory=16"
        ).jobs()[0]
        options = MergeOptions(compress="container")
        clean = run_solo(spec, merge_options=options, block_size=512)
        faulty = run_solo(
            spec,
            merge_options=options,
            block_size=512,
            fault_plan="read@3;write@5",
            retries=2,
        )
        assert faulty.digest == clean.digest
        assert faulty.counters["penalty_seconds"] > 0
        moved = {"penalty_seconds", "seconds"}
        for key, value in clean.counters.items():
            if key not in moved:
                assert faulty.counters[key] == value, key


class TestWireFormat:
    def test_wire_round_trip_is_exact(self):
        events = list(level_fanout_events([5, 5, 5], seed=2, pad_bytes=8))
        blob = encode_document_wire(events)
        records = decode_document_wire(blob)
        assert [TokenCodec().decode(r) for r in records] == events
        assert len(blob) < sum(
            len(getattr(t, "text", "") or "") + 8 for t in events
        )

    def test_wire_blob_corruption_is_typed(self):
        blob = encode_document_wire(level_fanout_events([4, 4], seed=1))
        with pytest.raises(RunCodecError):
            decode_document_wire(blob[:-4])
        with pytest.raises(RunCodecError):
            decode_document_wire(b"XXXX" + blob[4:])

    def test_wire_jobs_match_plain_jobs(self):
        plain = WorkloadSpec.parse("jobs=2;seed=3;shape=5x5x5").jobs()
        wired = WorkloadSpec.parse(
            "jobs=2;seed=3;shape=5x5x5;wire=1"
        ).jobs()
        rp = Scheduler(ResourcePool(48, block_size=512)).run(plain)
        rw = Scheduler(ResourcePool(48, block_size=512)).run(wired)
        moved = ("cpu_seconds", "seconds", "decompress")
        for a, b in zip(rp.results, rw.results):
            assert a.digest == b.digest
            assert b.wire_bytes is not None
            assert b.wire_bytes < b.wire_raw_bytes
            assert a.wire_bytes is None
            for key, value in a.counters.items():
                if not key.startswith(moved):
                    assert b.counters[key] == value, key

    def test_wire_solo_matches_scheduled(self):
        wired = WorkloadSpec.parse("jobs=1;shape=5x5x5;wire=1").jobs()
        scheduled = Scheduler(
            ResourcePool(48, block_size=512)
        ).run(wired).results[0]
        solo = run_solo(wired[0], block_size=512)
        assert solo.digest == scheduled.digest
        assert solo.counters == scheduled.counters
        assert solo.wire_bytes == scheduled.wire_bytes
