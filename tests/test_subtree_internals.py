"""Direct unit tests for the subtree-sorter internals."""

import random

import pytest

from repro.core.subtree import (
    SubtreeSorter,
    annotate_starts_from_ends,
    build_subtree,
    count_units,
    mask_keys_below,
    serialize_node_tree,
    sort_node_tree,
)
from repro.errors import CodecError
from repro.io import BlockDevice, RunStore
from repro.merge.engine import MergeOptions
from repro.xml import TokenCodec
from repro.xml.compact import NameDictionary
from repro.xml.tokens import (
    EndTag,
    MISSING_KEY,
    RunPointer,
    StartTag,
    Text,
    number_key,
    string_key,
)


def plain_tokens():
    """<r key=5><a key=2>t</a><ptr key=9/><b key=1/></r> annotated."""
    return [
        StartTag("r", key=number_key(5), pos=0),
        StartTag("a", key=number_key(2), pos=1),
        Text("t"),
        EndTag("a", pos=1),
        RunPointer(
            run_id=7, key=number_key(9), pos=2, element_count=4,
            payload_bytes=100,
        ),
        StartTag("b", key=number_key(1), pos=3),
        EndTag("b", pos=3),
        EndTag("r", pos=0),
    ]


class TestBuildSubtree:
    def test_plain_structure(self):
        root = build_subtree(plain_tokens(), compact=False)
        assert root.start.tag == "r"
        assert [c.key for c in root.children] == [
            number_key(2),
            number_key(9),
            number_key(1),
        ]
        assert root.children[1].is_pointer
        assert root.children[0].texts == ["t"]

    def test_compact_structure(self):
        tokens = [
            StartTag("r", key=number_key(5), pos=0, level=3),
            StartTag("a", key=number_key(2), pos=1, level=4),
            Text("t", level=4),
            RunPointer(
                run_id=7, key=number_key(9), pos=2, level=4,
                element_count=4, payload_bytes=100,
            ),
            StartTag("b", key=number_key(1), pos=3, level=4),
        ]
        root = build_subtree(tokens, compact=True)
        assert len(root.children) == 3
        assert root.children[1].is_pointer

    def test_end_tag_keys_override(self):
        tokens = [
            StartTag("r", pos=0),
            EndTag("r", key=string_key("late"), pos=0),
        ]
        root = build_subtree(tokens, compact=False)
        assert root.key == string_key("late")

    def test_unbalanced_rejected(self):
        with pytest.raises(CodecError):
            build_subtree([StartTag("r")], compact=False)

    def test_two_roots_rejected(self):
        tokens = [
            StartTag("a"), EndTag("a"), StartTag("b"), EndTag("b")
        ]
        with pytest.raises(CodecError):
            build_subtree(tokens, compact=False)

    def test_compact_without_levels_rejected(self):
        with pytest.raises(CodecError):
            build_subtree([StartTag("r")], compact=True)


class TestSortAndSerialize:
    def test_sorting_orders_children(self):
        device = BlockDevice(block_size=256)
        root = build_subtree(plain_tokens(), compact=False)
        sort_node_tree(root, None, device.stats)
        assert [c.key for c in root.children] == [
            number_key(1),
            number_key(2),
            number_key(9),
        ]
        assert device.stats.comparisons > 0

    def test_sort_levels_zero_keeps_order(self):
        device = BlockDevice(block_size=256)
        root = build_subtree(plain_tokens(), compact=False)
        sort_node_tree(root, 0, device.stats)
        assert [c.key for c in root.children] == [
            number_key(2),
            number_key(9),
            number_key(1),
        ]

    def test_serialize_strips_annotations(self):
        root = build_subtree(plain_tokens(), compact=False)
        tokens = list(serialize_node_tree(root, 1, compact=False))
        for token in tokens:
            if isinstance(token, (StartTag, EndTag)):
                assert token.key is None
                assert token.pos is None

    def test_serialize_compact_has_levels_no_ends(self):
        root = build_subtree(plain_tokens(), compact=False)
        tokens = list(serialize_node_tree(root, 5, compact=True))
        assert not any(isinstance(t, EndTag) for t in tokens)
        starts = [t for t in tokens if isinstance(t, StartTag)]
        assert starts[0].level == 5
        assert all(s.level == 6 for s in starts[1:])

    def test_serialize_preserves_pointer_counts(self):
        root = build_subtree(plain_tokens(), compact=False)
        tokens = list(serialize_node_tree(root, 1, compact=False))
        pointer = [t for t in tokens if isinstance(t, RunPointer)][0]
        assert pointer.element_count == 4
        assert pointer.run_id == 7


class TestHelpers:
    def test_count_units(self):
        units, real = count_units(plain_tokens())
        assert units == 4  # r, a, pointer, b
        assert real == 3 + 4  # three real starts + pointer's 4 elements

    def test_annotate_starts_from_ends(self):
        tokens = [
            StartTag("r", pos=0),
            StartTag("a", pos=1),
            EndTag("a", key=string_key("k1"), pos=1),
            EndTag("r", key=string_key("k0"), pos=0),
        ]
        fixed = annotate_starts_from_ends(tokens)
        assert fixed[0].key == string_key("k0")
        assert fixed[1].key == string_key("k1")

    def test_mask_keys_below(self):
        masked = mask_keys_below(plain_tokens(), sort_levels=1)
        # Root (level 1) keeps its key; children (level 2) are masked.
        assert masked[0].key == number_key(5)
        child_starts = [
            t
            for t in masked[1:]
            if isinstance(t, (StartTag, RunPointer))
        ]
        assert all(t.key == MISSING_KEY for t in child_starts)


class TestSorterDispatch:
    def make_sorter(self, capacity_bytes):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        return SubtreeSorter(
            store, TokenCodec(), compact=False,
            capacity_bytes=capacity_bytes, fan_in=2,
        )

    def test_small_subtree_sorts_internally(self):
        sorter = self.make_sorter(capacity_bytes=10**6)
        result = sorter.sort_tokens(plain_tokens(), 100, 1, None)
        assert result.internal
        assert result.units == 4
        assert result.root_key == number_key(5)

    def test_large_subtree_sorts_externally(self):
        sorter = self.make_sorter(capacity_bytes=16)
        result = sorter.sort_tokens(plain_tokens(), 1000, 1, None)
        assert not result.internal


def sibling_case(name):
    """Plain-mode annotated subtree tokens for one parity shape."""
    pos = iter(range(1, 10**6))

    def element(tag, key, children=(), text=None):
        p = next(pos)
        out = [StartTag(tag, key=key, pos=p)]
        if text is not None:
            out.append(Text(text))
        for child in children:
            out.extend(child)
        out.append(EndTag(tag, pos=p))
        return out

    if name == "duplicate-keys":
        # Equal keys must keep document order (position tie-break).
        children = [
            element("c", number_key(value), text=f"t{i}")
            for i, value in enumerate([2, 1, 2, 1, 2, 1, 2])
        ]
    elif name == "single-child-chain":
        # Every sibling list has one child: nothing to sort, all levels
        # visited (n == 1 groups are skipped by both kernels).
        inner = element("leaf", string_key("z"), text="deep")
        for depth in range(30):
            inner = element(f"n{depth}", number_key(depth), [inner])
        children = [inner]
    elif name == "wide-siblings":
        # A sibling list far wider than any merge fan-in, with key
        # collisions and nested grandchildren.
        rng = random.Random(42)
        children = []
        for i in range(60):
            grandchildren = [
                element("g", number_key(rng.randrange(5)))
                for _ in range(rng.randrange(3))
            ]
            key = (
                string_key(f"k{rng.randrange(8)}")
                if i % 2
                else number_key(rng.randrange(8))
            )
            children.append(element("w", key, grandchildren))
    elif name == "pointer-children":
        children = [
            element("a", number_key(4)),
            [
                RunPointer(
                    run_id=9,
                    key=number_key(1),
                    pos=next(pos),
                    element_count=5,
                    payload_bytes=64,
                )
            ],
            element("a", MISSING_KEY),
            element("a", number_key(1)),
        ]
    else:  # pragma: no cover - test bug
        raise AssertionError(name)
    root = [StartTag("r", key=number_key(0), pos=0)]
    for child in children:
        root.extend(child)
    root.append(EndTag("r", pos=0))
    return root


SIBLING_CASES = [
    "duplicate-keys",
    "single-child-chain",
    "wide-siblings",
    "pointer-children",
]


def compact_subtree_tokens(plain):
    """End-tag-eliminated form of a plain annotated subtree (levels on
    starts/texts/pointers, no end tags), as NEXSORT's data stack holds
    it in compacted mode."""
    out = []
    level = 0
    for token in plain:
        if isinstance(token, StartTag):
            level += 1
            out.append(
                StartTag(
                    token.tag,
                    token.attrs,
                    key=token.key,
                    pos=token.pos,
                    level=level,
                )
            )
        elif isinstance(token, EndTag):
            level -= 1
        elif isinstance(token, Text):
            out.append(Text(token.text, level=level))
        else:
            out.append(
                RunPointer(
                    run_id=token.run_id,
                    key=token.key,
                    pos=token.pos,
                    level=level + 1,
                    element_count=token.element_count,
                    payload_bytes=token.payload_bytes,
                )
            )
    return out


class TestColumnarSiblingGroups:
    """sort_node_tree / sort_records columnar parity (ISSUE 7)."""

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("sort_levels", [None, 1, 0])
    def test_sort_node_tree_kernel_parity(self, name, sort_levels):
        tokens = sibling_case(name)
        scalar_dev = BlockDevice(block_size=256)
        columnar_dev = BlockDevice(block_size=256)
        scalar_root = build_subtree(tokens, compact=False)
        columnar_root = build_subtree(tokens, compact=False)
        sort_node_tree(scalar_root, sort_levels, scalar_dev.stats)
        sort_node_tree(
            columnar_root,
            sort_levels,
            columnar_dev.stats,
            kernel="columnar",
        )
        assert list(
            serialize_node_tree(columnar_root, 1, compact=False)
        ) == list(serialize_node_tree(scalar_root, 1, compact=False))
        assert (
            columnar_dev.stats.comparisons == scalar_dev.stats.comparisons
        )

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("names_coded", [False, True])
    def test_sort_records_matches_sort_tokens(
        self, name, compact, names_coded
    ):
        """The fused raw-record path equals decode -> sort_tokens, bit
        for bit: run contents, counters, and the RunPointer summary."""
        plain = sibling_case(name)
        tokens = compact_subtree_tokens(plain) if compact else plain
        names = NameDictionary() if names_coded else None
        codec = TokenCodec(names)
        records = [codec.encode(token) for token in tokens]

        def run(kernel):
            device = BlockDevice(block_size=256)
            store = RunStore(device)
            sorter = SubtreeSorter(
                store,
                codec,
                compact,
                capacity_bytes=10**6,
                fan_in=2,
                options=MergeOptions(kernel=kernel),
            )
            if kernel == "columnar":
                result = sorter.sort_records(records, 500, 1, None)
            else:
                result = sorter.sort_tokens(
                    [codec.decode(record) for record in records],
                    500,
                    1,
                    None,
                )
            contents = list(store.open_reader(result.run))
            return contents, result, device.stats.snapshot()

        columnar_contents, columnar_result, columnar_stats = run("columnar")
        scalar_contents, scalar_result, scalar_stats = run("scalar")
        assert columnar_contents == scalar_contents
        assert columnar_stats.counter_totals() == (
            scalar_stats.counter_totals()
        )
        for field in (
            "units",
            "real_elements",
            "payload_bytes",
            "root_key",
            "root_pos",
            "internal",
        ):
            assert getattr(columnar_result, field) == getattr(
                scalar_result, field
            ), field

    def test_sort_records_root_key_from_end_tag(self):
        """Plain-mode subtree-evaluated keys ride on the end tag; the
        fused root summary must fall back to it like sort_tokens."""
        codec = TokenCodec()
        tokens = [
            StartTag("r", pos=0),
            StartTag("a", key=number_key(2), pos=1),
            EndTag("a", pos=1),
            EndTag("r", key=string_key("late"), pos=0),
        ]
        records = [codec.encode(token) for token in tokens]
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        sorter = SubtreeSorter(
            store,
            codec,
            compact=False,
            capacity_bytes=10**6,
            fan_in=2,
            options=MergeOptions(kernel="columnar"),
        )
        result = sorter.sort_records(records, 100, 1, None)
        assert result.root_key == string_key("late")
        assert result.root_pos == 0

    def test_sort_records_counted_mode_falls_back(self):
        """Counted-comparison mode must keep the scalar counting sort."""
        codec = TokenCodec()
        records = [
            codec.encode(token)
            for token in sibling_case("duplicate-keys")
        ]

        def run(options):
            device = BlockDevice(block_size=256)
            store = RunStore(device)
            sorter = SubtreeSorter(
                store,
                codec,
                compact=False,
                capacity_bytes=10**6,
                fan_in=2,
                options=options,
            )
            result = sorter.sort_records(records, 500, 1, None)
            return list(store.open_reader(result.run)), device.stats

        counted = MergeOptions(
            kernel="columnar", merge_kernel="loser-tree"
        )
        analytic = MergeOptions(kernel="columnar")
        counted_contents, counted_stats = run(counted)
        analytic_contents, analytic_stats = run(analytic)
        assert counted_contents == analytic_contents
        # Counted mode records what the comparison sequence actually
        # did, which differs from the analytic n*ceil(log2 n) charge.
        assert counted_stats.comparisons != analytic_stats.comparisons


def test_internal_and_external_subtree_sorts_agree():
    """The two subtree-sort paths must produce identical runs."""
    codec = TokenCodec()

    def run_tokens(capacity):
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        sorter = SubtreeSorter(
            store, codec, compact=False, capacity_bytes=capacity, fan_in=2
        )
        result = sorter.sort_tokens(plain_tokens(), 500, 1, None)
        return [
            codec.decode(record)
            for record in store.open_reader(result.run)
        ], result

    internal_tokens, internal_result = run_tokens(10**6)
    external_tokens, external_result = run_tokens(16)
    assert internal_result.internal
    assert not external_result.internal
    assert internal_tokens == external_tokens


def external_subtree_tokens(subtree_evaluated, seed=5):
    """Plain annotated tokens of a subtree far larger than the sorters'
    memory below: wide, three levels deep, with texts (some split around
    a child), duplicate and missing keys, and RunPointer children at two
    levels.  ``subtree_evaluated`` puts keys on end tags, as NEXSORT's
    scan does for such specs."""
    rng = random.Random(seed)
    pos = iter(range(1, 10**6))

    def atom():
        roll = rng.randrange(5)
        if roll == 0:
            return MISSING_KEY
        if roll < 3:
            return number_key(rng.randrange(12))
        return string_key(f"k{rng.randrange(12)}")

    def pointer():
        return [
            RunPointer(
                run_id=rng.randrange(100, 200), key=atom(), pos=next(pos),
                element_count=rng.randrange(1, 9),
                payload_bytes=rng.randrange(20, 400),
            )
        ]

    def element(tag, key, children=(), texts=()):
        p = next(pos)
        attrs = (("n", f"v{rng.randrange(50)}"),)
        if subtree_evaluated:
            out = [StartTag(tag, attrs, pos=p)]
            end = EndTag(tag, key=key, pos=p)
        else:
            out = [StartTag(tag, attrs, key=key, pos=p)]
            end = EndTag(tag, pos=p)
        if texts:
            out.append(Text(texts[0]))
        for index, child in enumerate(children):
            out.extend(child)
            if index == 0 and len(texts) > 1:
                out.append(Text(texts[1]))
        out.append(end)
        return out

    children = []
    for i in range(90):
        if rng.random() < 0.1:
            children.append(pointer())
            continue
        grandchildren = [
            pointer() if rng.random() < 0.2
            else element("g", atom(), texts=(f"g{i}",))
            for _ in range(rng.randrange(3))
        ]
        texts = [f"text {i}", "after"][: rng.randrange(3)]
        children.append(element(f"c{i % 4}", atom(), grandchildren, texts))
    root = element("r", string_key("root"), children, ("root text",))
    if not subtree_evaluated:
        # The root's key never matters inside its own sort.
        root[0] = StartTag(root[0].tag, root[0].attrs, key=number_key(0),
                           pos=root[0].pos)
    return root


EXTERNAL_GRID = [
    (compact, names, embedded, sort_levels, subtree_evaluated, formation,
     compress)
    for compact in (False, True)
    for names in (False, True)
    for embedded in (False, True)
    for sort_levels in (None, 1, 2)
    for subtree_evaluated in (False, True)
    for formation in ("load-sort", "replacement-selection")
    for compress in (None, "container")
    # End-tag elimination needs start-computable keys.
    if not (compact and subtree_evaluated)
    # A compressed store configured for embedded keys peels a key frame
    # off every run record, and a dictionary-coded end-tag record is too
    # short to carry one: both paths reject this cell alike.
    and not (names and not compact and embedded and compress)
]


class TestExternalSubtreeByteParity:
    """The columnar external subtree sort (byte splicing) against the
    token path (``sort_tokens`` -> ``_sort_external``), bit for bit: run
    contents, the result summary, every counter, formation run lengths
    and the trace."""

    @staticmethod
    def run(tokens, compact, names, options, sort_levels, fused):
        from io import StringIO

        from repro.io.compress import CompressionConfig
        from repro.obs import Tracer
        from repro.obs.sinks import write_jsonl

        codec = TokenCodec(NameDictionary() if names else None)
        records = [codec.encode(token) for token in tokens]
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        if options.compress is not None:
            store.compression = CompressionConfig(
                codec=options.compress, embedded_keys=options.embedded_keys,
            )
        tracer = Tracer(device.stats)
        sorter = SubtreeSorter(
            store, codec, compact, capacity_bytes=600, fan_in=3,
            options=options, tracer=tracer,
        )
        size = sum(len(record) for record in records)
        with tracer.span("subtree-sort"):
            if fused:
                result = sorter.sort_records(records, size, 2, sort_levels)
            else:
                result = sorter.sort_tokens(
                    [codec.decode(record) for record in records], size, 2,
                    sort_levels,
                )
        trace = StringIO()
        write_jsonl(tracer.finish(), trace)
        return (
            list(store.open_reader(result.run)),
            result,
            device.stats.snapshot().counter_totals(),
            sorter.run_lengths,
            trace.getvalue(),
        )

    @pytest.mark.parametrize(
        "compact,names,embedded,sort_levels,subtree_evaluated,formation,"
        "compress",
        EXTERNAL_GRID,
    )
    def test_byte_path_matches_token_path(
        self, compact, names, embedded, sort_levels, subtree_evaluated,
        formation, compress,
    ):
        plain = external_subtree_tokens(subtree_evaluated)
        tokens = compact_subtree_tokens(plain) if compact else plain
        options = MergeOptions(
            kernel="columnar", embedded_keys=embedded,
            run_formation=formation, compress=compress,
        )
        fused = self.run(tokens, compact, names, options, sort_levels, True)
        token = self.run(tokens, compact, names, options, sort_levels, False)
        scalar = self.run(
            tokens, compact, names,
            MergeOptions(
                kernel="scalar", embedded_keys=embedded,
                run_formation=formation, compress=compress,
            ),
            sort_levels, False,
        )
        assert not fused[1].internal
        if formation == "load-sort":
            assert len(fused[3]) > 3  # several formation runs: real merges
        assert any(record[0] == 4 for record in fused[0])  # pointers
        for reference in (token, scalar):
            assert fused[0] == reference[0]  # run bytes
            assert fused[1] == reference[1]  # run handle and summary
            assert fused[2] == reference[2]  # every counter
            assert fused[3] == reference[3]  # formation run lengths
            assert fused[4] == reference[4]  # trace
