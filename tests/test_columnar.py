"""Unit tests for the batch-columnar kernels (ISSUE 6).

The accounting-parity suite pins the end-to-end counter contract; these
tests pin the individual kernels: the path-only key parse, the prefix
argsort (numpy and pure-Python backends), key sidecars, and the replay
merge against its record-at-a-time fallback.
"""

import random

import pytest

from repro.baselines.keypath import (
    decode_record,
    encode_record,
    records_from_annotated_events,
)
from repro.core import columnar
from repro.core.columnar import (
    ColumnarBatch,
    argsort_normalized,
    batch_embedded_keys,
    batch_path_keys,
    fast_path_key,
    form_runs_columnar,
    keyed_puller,
    merge_sidecars,
    run_sidecar,
)
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, KeyEvaluator, SortSpec
from repro.merge.engine import (
    MergeOptions,
    RunFormer,
    embed_key,
    normalized_path_key,
)
from repro.xml import parse_events

from .goldens import assert_golden, records_sha256

SPEC = SortSpec(default=ByAttribute("name"))

XML = (
    '<site name="root">'
    '<region name="Durham"><city name="west">rain</city>'
    '<city name="east"/></region>'
    '<region name="7"><city name="west">sun</city></region>'
    '<region name="Durham"><city name=""/></region>'
    "</site>"
)


def sample_records():
    annotated = KeyEvaluator(SPEC).annotate(parse_events(XML))
    return [
        encode_record(record)
        for record in records_from_annotated_events(annotated)
    ]


def random_keys(count, seed=11):
    rng = random.Random(seed)
    keys = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            keys.append(b"")
        elif kind < 0.4:
            # Heavy prefix collisions: differ only past the window.
            keys.append(
                b"\x02shared-prefix-shared-prefix-shared\x00"
                + bytes([rng.randrange(4)])
            )
        else:
            keys.append(
                bytes(
                    rng.randrange(256)
                    for _ in range(rng.randrange(0, 48))
                )
            )
    return keys


class TestFastPathKey:
    def test_matches_decoded_sort_key(self):
        for encoded in sample_records():
            expected = normalized_path_key(
                decode_record(encoded).sort_key()
            )
            assert fast_path_key(encoded) == expected

    def test_batch_path_keys_matches_scalar(self):
        records = sample_records()
        assert batch_path_keys(records) == [
            fast_path_key(record) for record in records
        ]

    def test_batch_embedded_keys_strips_frames(self):
        records = sample_records()
        embedded = [
            embed_key(fast_path_key(record), record)
            for record in records
        ]
        assert batch_embedded_keys(embedded) == [
            fast_path_key(record) for record in records
        ]


class TestArgsortNormalized:
    def assert_stable_order(self, keys, width=24):
        expected = sorted(range(len(keys)), key=keys.__getitem__)
        assert argsort_normalized(keys, width) == expected

    def test_small_batch_python_path(self):
        self.assert_stable_order(random_keys(500))

    def test_large_batch_vectorized_path(self):
        # Above the _SMALL_ARGSORT cutoff: exercises the numpy backend
        # (prefix argsort + tie-group full-key re-sort) when available.
        self.assert_stable_order(
            random_keys(columnar._SMALL_ARGSORT + 1000)
        )

    def test_forced_prefix_path_with_ties(self):
        keys = random_keys(3000, seed=5)
        width = 24
        strip = columnar._common_prefix_length(keys)
        prefix = columnar._prefix_buffer(keys, strip, width)
        expected = sorted(range(len(keys)), key=keys.__getitem__)
        got = argsort_normalized(
            keys, width, strip=strip, prefix=prefix
        )
        assert got == expected

    def test_pure_python_fallback(self, monkeypatch):
        monkeypatch.setattr(columnar, "_np", None)
        self.assert_stable_order(random_keys(2000))

    def test_empty_and_single(self):
        assert argsort_normalized([], 24) == []
        assert argsort_normalized([b"only"], 24) == [0]

    def test_stability_on_equal_keys(self):
        keys = [b"dup", b"a", b"dup", b"dup", b"a"] * 400
        order = argsort_normalized(keys, 24)
        positions = [i for i in order if keys[i] == b"dup"]
        assert positions == sorted(positions)


class TestColumnarBatch:
    def test_sorted_records_match_scalar_sort(self):
        records = sample_records()
        keys = [fast_path_key(record) for record in records]
        batch = ColumnarBatch(keys, records)
        expected = [
            record
            for _key, record in sorted(
                zip(keys, records), key=lambda pair: pair[0]
            )
        ]
        assert batch.sorted_records() == expected

    def test_record_roundtrip(self):
        records = sample_records()
        keys = [fast_path_key(record) for record in records]
        batch = ColumnarBatch(keys, records)
        assert [
            batch.record(i) for i in range(len(batch))
        ] == records


def form_runs(options, capacity_bytes=220):
    device = BlockDevice(block_size=128)
    store = RunStore(device)
    former = RunFormer(store, capacity_bytes, options)
    records = sample_records()
    for record in records:
        key = fast_path_key(record)
        payload = (
            embed_key(key, record) if options.embedded_keys else record
        )
        former.add(key, payload)
    return store, former.finish()


class TestSidecars:
    def test_run_formation_attaches_sidecars(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        assert len(runs) > 1
        for run in runs:
            sidecar = run_sidecar(store, run, fast_path_key)
            assert sidecar is not None
            reader = store.open_reader(run)
            assert sidecar == [
                fast_path_key(record) for record in reader
            ]

    def test_sidecars_match_embedded_keys(self):
        options = MergeOptions(embedded_keys=True)
        store, runs = form_runs(options)
        from repro.merge.engine import embedded_key_of

        for run in runs:
            sidecar = run_sidecar(store, run, embedded_key_of)
            assert sidecar is not None
            reader = store.open_reader(run)
            assert sidecar == [
                embedded_key_of(record) for record in reader
            ]

    def test_custom_key_function_gets_no_sidecar(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        assert run_sidecar(store, runs[0], len) is None
        assert merge_sidecars(store, runs, len) is None

    def test_freed_run_drops_sidecar(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        assert runs[0].run_id in store.key_sidecars
        store.free(runs[0])
        assert runs[0].run_id not in store.key_sidecars


class TestKeyedPuller:
    def test_sidecar_and_batch_keys_agree(self):
        options = MergeOptions()
        store, runs = form_runs(options)
        run = runs[0]
        sidecar = run_sidecar(store, run, fast_path_key)

        def drain(pull):
            out = []
            while True:
                entry = pull()
                if entry is None:
                    return out
                out.append(entry)

        computed = drain(
            keyed_puller(store.open_reader(run), batch_path_keys)
        )
        replayed = drain(
            keyed_puller(
                store.open_reader(run), batch_path_keys, sidecar
            )
        )
        assert computed == replayed
        assert [key for key, _record in computed] == sidecar


class TestReplayMerge:
    @pytest.mark.parametrize("embedded", [False, True])
    def test_replay_equals_fallback_heap_merge(self, embedded):
        from repro.baselines.merging import merge_pass
        from repro.merge.engine import embedded_key_of

        options = MergeOptions(embedded_keys=embedded)
        key_of = embedded_key_of if embedded else fast_path_key

        store, runs = form_runs(options)
        assert len(runs) > 1
        replayed = list(
            merge_pass(store, runs, key_of, options=options)
        )

        # Same runs, sidecars dropped: forces the keyed-puller fallback.
        store2, runs2 = form_runs(options)
        store2.key_sidecars.clear()
        fallback = list(
            merge_pass(store2, runs2, key_of, options=options)
        )
        assert replayed == fallback


def compacted_scan_cell(mode, fused=True):
    """Runs formed from a compacted document by the fused scan, or
    (``fused=False``) by the tokenize -> key-evaluate -> encode pipeline
    the recorded digests were taken from."""
    from repro.xml import CompactionConfig, Document

    def compute():
        if mode == "names":
            compaction = CompactionConfig(eliminate_end_tags=False)
        elif mode == "levels":
            compaction = CompactionConfig(names=None)
        else:
            compaction = CompactionConfig()
        device = BlockDevice(block_size=128)
        store = RunStore(device)
        document = Document.from_events(
            store, parse_events(XML), compaction=compaction
        )
        former = RunFormer(store, 600, MergeOptions())
        if fused:
            assert form_runs_columnar(document, SPEC, former, device)
        else:
            names = document.compaction.names
            annotated = KeyEvaluator(SPEC).annotate(
                document.iter_events("input_scan")
            )
            for record in records_from_annotated_events(annotated):
                device.stats.record_tokens(1)
                former.add(record.sort_key(), encode_record(record, names))
        runs = former.finish()
        return {
            "runs_sha256": [
                records_sha256(store.open_reader(run)) for run in runs
            ],
            "counters": device.stats.snapshot().counter_totals(),
        }

    return mode, compute


def golden_cells():
    for mode in ("names", "levels", "full"):
        yield ("columnar/compacted-scan", *compacted_scan_cell(mode, False))


class TestFusedScan:
    @pytest.mark.parametrize("mode", ["names", "levels", "full"])
    def test_compacted_document_fast_path_matches_scalar(self, mode):
        """Compacted documents take the fused scan too.

        It handles dictionary-coded and level-annotated (end-tag-
        eliminated) storage directly, forming the runs - same records,
        same order, same counters - that the recorded tokenize ->
        key-evaluate -> encode pipeline formed.
        """
        cell, compute = compacted_scan_cell(mode)
        assert_golden("columnar/compacted-scan", cell, compute())

    def test_non_start_computable_spec_falls_back(self):
        from repro.keys import ByText
        from repro.xml import Document

        device = BlockDevice(block_size=128)
        store = RunStore(device)
        document = Document.from_events(store, parse_events(XML))
        former = RunFormer(
            store, 600, MergeOptions()
        )
        spec = SortSpec(default=ByText())
        assert not form_runs_columnar(document, spec, former, device)
