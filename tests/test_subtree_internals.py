"""Direct unit tests for the subtree-sorter internals."""

import random

import pytest

from repro.core.subtree import (
    SubtreeSorter,
    build_subtree,
    count_units,
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

from .goldens import assert_golden, records_sha256, sha256, trace_sha256


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
        # visited (n == 1 groups are skipped).
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


def sort_subtree(sorter, records, size, base_level, sort_levels, tokens):
    """Sort one subtree from its records, or (``tokens``) from decoded
    tokens - the path the recorded digests were taken from."""
    if tokens:
        decoded = [sorter.codec.decode(record) for record in records]
        return sorter.sort_tokens(decoded, size, base_level, sort_levels)
    return sorter.sort_records(records, size, base_level, sort_levels)


def sibling_group_cell(name, sort_levels):
    def compute():
        device = BlockDevice(block_size=256)
        root = build_subtree(sibling_case(name), compact=False)
        sort_node_tree(root, sort_levels, device.stats)
        codec = TokenCodec()
        return {
            "tokens_sha256": records_sha256(
                codec.encode(token)
                for token in serialize_node_tree(root, 1, compact=False)
            ),
            "comparisons": device.stats.comparisons,
        }

    return f"{name}/{sort_levels}", compute


def sort_records_cell(name, compact, names_coded, tokens=False):
    plain = sibling_case(name)
    subtree = compact_subtree_tokens(plain) if compact else plain
    codec = TokenCodec(NameDictionary() if names_coded else None)
    records = [codec.encode(token) for token in subtree]

    def compute():
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        sorter = SubtreeSorter(
            store, codec, compact, capacity_bytes=10**6, fan_in=2,
            options=MergeOptions(),
        )
        result = sort_subtree(sorter, records, 500, 1, None, tokens)
        return {
            "run_sha256": records_sha256(store.open_reader(result.run)),
            "counters": device.stats.snapshot().counter_totals(),
            "result": [
                result.units, result.real_elements, result.payload_bytes,
                result.root_key, result.root_pos, result.internal,
            ],
        }

    return f"{name}/{compact}/{names_coded}", compute


class TestColumnarSiblingGroups:
    """sort_node_tree / sort_records against the recorded digests."""

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("sort_levels", [None, 1, 0])
    def test_sort_node_tree_kernel_parity(self, name, sort_levels):
        cell, compute = sibling_group_cell(name, sort_levels)
        assert_golden("subtree/sibling-groups", cell, compute())

    @pytest.mark.parametrize("name", SIBLING_CASES)
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("names_coded", [False, True])
    def test_sort_records_matches_sort_tokens(
        self, name, compact, names_coded
    ):
        """The fused raw-record path reproduces the token path's run
        contents, counters and RunPointer summary, bit for bit."""
        cell, compute = sort_records_cell(name, compact, names_coded)
        assert_golden("subtree/sort-records", cell, compute())

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
            options=MergeOptions(),
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

        counted = MergeOptions(merge_kernel="loser-tree")
        analytic = MergeOptions()
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


def external_cell(
    compact, names, embedded, sort_levels, subtree_evaluated, formation,
    compress, tokens=False,
):
    from repro.io.compress import CompressionConfig
    from repro.obs import Tracer

    plain = external_subtree_tokens(subtree_evaluated)
    subtree = compact_subtree_tokens(plain) if compact else plain
    options = MergeOptions(
        embedded_keys=embedded, run_formation=formation, compress=compress,
    )

    def compute():
        codec = TokenCodec(NameDictionary() if names else None)
        records = [codec.encode(token) for token in subtree]
        device = BlockDevice(block_size=256)
        store = RunStore(device)
        if compress is not None:
            store.compression = CompressionConfig(
                codec=compress, embedded_keys=embedded,
            )
        tracer = Tracer(device.stats)
        sorter = SubtreeSorter(
            store, codec, compact, capacity_bytes=600, fan_in=3,
            options=options, tracer=tracer,
        )
        size = sum(len(record) for record in records)
        with tracer.span("subtree-sort"):
            result = sort_subtree(
                sorter, records, size, 2, sort_levels, tokens
            )
        run = list(store.open_reader(result.run))
        return {
            "run_sha256": records_sha256(run),
            "result_sha256": sha256(repr(result)),
            "counters": device.stats.snapshot().counter_totals(),
            "run_lengths": sorter.run_lengths,
            "trace_sha256": trace_sha256(tracer.finish()),
            "external": not result.internal,
            "pointers": any(record[0] == 4 for record in run),
        }

    cell = "/".join(
        str(axis) for axis in (
            compact, names, embedded, sort_levels, subtree_evaluated,
            formation, compress,
        )
    )
    return cell, compute


class TestExternalSubtreeByteParity:
    """The external subtree sort (byte splicing) against the digests
    the token path recorded, bit for bit: run contents, the result
    summary, every counter, formation run lengths and the trace."""

    @pytest.mark.parametrize(
        "compact,names,embedded,sort_levels,subtree_evaluated,formation,"
        "compress",
        EXTERNAL_GRID,
    )
    def test_byte_path_matches_token_path(
        self, compact, names, embedded, sort_levels, subtree_evaluated,
        formation, compress,
    ):
        cell, compute = external_cell(
            compact, names, embedded, sort_levels, subtree_evaluated,
            formation, compress,
        )
        digest = compute()
        assert digest["external"]
        assert digest["pointers"]
        if formation == "load-sort":
            # Several formation runs: real merges.
            assert len(digest["run_lengths"]) > 3
        assert_golden("subtree/external", cell, digest)


def golden_cells():
    for name in SIBLING_CASES:
        for sort_levels in (None, 1, 0):
            yield ("subtree/sibling-groups",
                   *sibling_group_cell(name, sort_levels))
        for compact in (False, True):
            for names_coded in (False, True):
                yield ("subtree/sort-records", *sort_records_cell(
                    name, compact, names_coded, tokens=True,
                ))
    for axes in EXTERNAL_GRID:
        yield ("subtree/external", *external_cell(*axes, tokens=True))
