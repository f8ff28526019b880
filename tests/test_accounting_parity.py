"""Pooled vs unpooled accounting parity across the MergeOptions grid.

A buffer pool must be *transparent*: giving a sort ``C`` extra memory
blocks and spending exactly those ``C`` on a pool leaves the sort's
effective memory - and therefore its run tree, its comparison counts,
and its output - unchanged.  The pool may only elide device I/O, never
change what the sort computes:

* the output document is bit-identical;
* every CPU-side counter (tokens, comparisons, merge comparisons) is
  identical - caching is invisible to the algorithm;
* device writes never increase (write-back elides rewrites and
  freed-dirty writes);
* every elided read is accounted as a cache hit:
  ``reads_pooled + cache_hits >= reads_unpooled`` (readahead may
  overshoot, so reads alone may exceed the unpooled count).

The exhaustive test pins the full run-formation x merge-kernel x
embedded-keys grid for both sorters; the hypothesis test fuzzes the
memory budget, pool size, and document shape on top.

The record kernel has a stricter contract than the pool: it must
reproduce *every* counter - reads, writes, sequential/random
classification, tokens, comparisons, merge comparisons, cache traffic -
the output bytes and the JSONL trace of the element-at-a-time kernel it
replaced.  :class:`TestKernelParity` checks the same grid, pooled,
unpooled and compacted, against the digests that kernel recorded
(``tests/data/kernel_goldens.json``, see :mod:`tests.goldens`); the fuzz
suite compares random documents with a stdlib ElementTree sort
(:mod:`tests.reference_sort`).
"""

import itertools
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import external_merge_sort
from repro.core import nexsort
from repro.generators import level_fanout_events
from repro.io import BlockDevice, RunStore
from repro.keys import ByAttribute, SortSpec
from repro.merge.engine import MergeOptions
from repro.obs import Tracer
from repro.xml.compact import CompactionConfig
from repro.xml.document import Document

from .goldens import assert_golden, sha256, trace_sha256
from .reference_sort import canonical_text, reference_sort

SPEC = SortSpec(default=ByAttribute("name"))

GRID = list(
    itertools.product(
        ["load-sort", "replacement-selection"],
        ["heap", "loser-tree"],
        [False, True],
    )
)

ALGORITHMS = ["nexsort", "merge_sort"]

#: Compaction axis of the kernel-parity grid (Section 3.2): name
#: dictionary only, end-tag elimination only, and both.
COMPACTION_MODES = ["names", "levels", "full"]


def make_compaction(mode):
    if mode is None:
        return None
    if mode == "names":
        return CompactionConfig(eliminate_end_tags=False)
    if mode == "levels":
        return CompactionConfig(names=None)
    return CompactionConfig()


#: Characters of generated tag names, values and texts: ASCII, Latin-1,
#: Greek, CJK, and the characters XML must escape.
NAME_CHARS = "abcxyzABéßλ中ü"
VALUE_CHARS = "ab zé<>&\"'λ中\u00a0"

#: A depth past every shape's last branching level: makes a leaf.
LEAF_DEPTH = 1000


def random_document(shape: str, seed: int) -> str:
    """A random document: ``deep`` chains, ``wide`` sibling lists, or
    ``bushy`` trees; unicode tags, keys, texts and extra attributes.
    Leaves may carry text, inner elements never do (no mixed content).
    Keys repeat often (ties), are sometimes missing, and mix numbers
    with strings."""
    rng = random.Random(seed)

    def word(chars, low, high):
        return "".join(
            rng.choice(chars) for _ in range(rng.randint(low, high))
        )

    def element(depth: int) -> ET.Element:
        node = ET.Element("t" + word(NAME_CHARS, 0, 3))
        roll = rng.random()
        if roll < 0.7:
            node.set(
                "name",
                str(rng.randint(-9, 9)) if roll < 0.25
                else "k" + word(NAME_CHARS, 0, 2),
            )
        for index in range(rng.choice([0, 0, 1, 3, 6])):
            node.set(f"a{index}{word(NAME_CHARS, 0, 1)}",
                     word(VALUE_CHARS, 0, 8))
        leaves = 0
        if shape == "deep":
            # A 40-deep chain with a few leaf siblings at every level.
            fanout = 1 if depth < 40 else 0
            leaves = rng.randint(0, 2) if fanout else 0
        elif shape == "wide":
            fanout = {1: rng.randint(40, 120), 2: rng.randint(0, 2)}.get(
                depth, 0
            )
        else:
            fanout = rng.randint(0, 6) if depth < 4 else 0
        children = [element(depth + 1) for _ in range(fanout)]
        children += [element(LEAF_DEPTH) for _ in range(leaves)]
        rng.shuffle(children)
        node.extend(children)
        if not children and rng.random() < 0.5:
            node.text = word(VALUE_CHARS, 1, 10)
        return node

    return ET.tostring(element(1), encoding="unicode")


def sort_once(
    algorithm, memory, cache, options, fanouts=(6, 6, 6), seed=3,
    compaction=None,
):
    device = BlockDevice(block_size=512)
    store = RunStore(device)
    document = Document.from_events(
        store,
        level_fanout_events(list(fanouts), seed=seed, pad_bytes=24),
        compaction=make_compaction(compaction),
    )
    sorter = nexsort if algorithm == "nexsort" else external_merge_sort
    output, _report = sorter(
        document,
        SPEC,
        memory_blocks=memory,
        cache_blocks=cache,
        merge_options=options,
    )
    return output.to_string(), device.stats.snapshot().counter_totals()


def sort_traced(
    algorithm, memory, cache, options, fanouts=(6, 6, 6), seed=3,
    compaction=None,
):
    """Digest of one traced sort: output bytes, every counter total,
    formation run lengths and the JSONL trace."""
    device = BlockDevice(block_size=512)
    store = RunStore(device)
    document = Document.from_events(
        store,
        level_fanout_events(list(fanouts), seed=seed, pad_bytes=24),
        compaction=make_compaction(compaction),
    )
    tracer = Tracer(device.stats)
    sorter = nexsort if algorithm == "nexsort" else external_merge_sort
    output, report = sorter(
        document,
        SPEC,
        memory_blocks=memory,
        cache_blocks=cache,
        merge_options=options,
        tracer=tracer,
    )
    return {
        "output_sha256": sha256(output.to_string()),
        "counters": device.stats.snapshot().counter_totals(),
        "run_lengths": [report.avg_run_length, report.max_run_length],
        "trace_sha256": trace_sha256(tracer.finish()),
    }


def unpooled_cell(algorithm, run_formation, merge_kernel, embedded_keys):
    options = MergeOptions(
        run_formation=run_formation,
        merge_kernel=merge_kernel,
        embedded_keys=embedded_keys,
    )
    return (
        f"{algorithm}/{run_formation}/{merge_kernel}/{embedded_keys}",
        lambda: sort_traced(algorithm, 12, 0, options),
    )


def compacted_cell(algorithm, compaction, embedded_keys):
    options = MergeOptions(embedded_keys=embedded_keys)
    return (
        f"{algorithm}/{compaction}/{embedded_keys}",
        lambda: sort_traced(
            algorithm, 12, 0, options, compaction=compaction
        ),
    )


def pooled_cell(algorithm, embedded_keys):
    options = MergeOptions(embedded_keys=embedded_keys)
    return (
        f"{algorithm}/{embedded_keys}",
        lambda: sort_traced(algorithm, 16, 4, options),
    )


def golden_cells():
    for algorithm in ALGORITHMS:
        for combo in GRID:
            yield ("parity/unpooled", *unpooled_cell(algorithm, *combo))
        for compaction in COMPACTION_MODES:
            for embedded_keys in (False, True):
                yield (
                    "parity/compacted",
                    *compacted_cell(algorithm, compaction, embedded_keys),
                )
        for embedded_keys in (False, True):
            yield ("parity/pooled", *pooled_cell(algorithm, embedded_keys))


def assert_parity(unpooled, pooled):
    text_u, totals_u = unpooled
    text_p, totals_p = pooled
    assert text_p == text_u
    for key in ("tokens", "comparisons", "merge_comparisons"):
        assert totals_p[key] == totals_u[key], key
    assert totals_p["writes"] <= totals_u["writes"]
    assert (
        totals_p["reads"] + totals_p["cache_hits"] >= totals_u["reads"]
    )
    # The unpooled run must be genuinely unpooled.
    assert totals_u["cache_hits"] == 0
    assert totals_u["cache_misses"] == 0


class TestMergeOptionsGrid:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "run_formation,merge_kernel,embedded_keys", GRID
    )
    def test_pool_is_transparent(
        self, algorithm, run_formation, merge_kernel, embedded_keys
    ):
        options = MergeOptions(
            run_formation=run_formation,
            merge_kernel=merge_kernel,
            embedded_keys=embedded_keys,
        )
        cache = 4
        unpooled = sort_once(algorithm, 12, 0, options)
        pooled = sort_once(algorithm, 12 + cache, cache, options)
        assert_parity(unpooled, pooled)
        # The pool actually did something on this workload.
        assert pooled[1]["cache_misses"] > 0


class TestKernelParity:
    """The record kernel reproduces the recorded digests, bit for bit.

    Unlike the pool contract (which may trade reads for hits), this
    allows no drift at all: same output bytes, same counter totals
    including the sequential/random I/O split, same run lengths, same
    trace.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "run_formation,merge_kernel,embedded_keys", GRID
    )
    def test_columnar_matches_scalar_unpooled(
        self, algorithm, run_formation, merge_kernel, embedded_keys
    ):
        cell, compute = unpooled_cell(
            algorithm, run_formation, merge_kernel, embedded_keys
        )
        assert_golden("parity/unpooled", cell, compute())

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("compaction", COMPACTION_MODES)
    @pytest.mark.parametrize("embedded_keys", [False, True])
    def test_columnar_matches_scalar_compacted(
        self, algorithm, compaction, embedded_keys
    ):
        """The contract holds under Section 3.2 compaction too."""
        cell, compute = compacted_cell(algorithm, compaction, embedded_keys)
        assert_golden("parity/compacted", cell, compute())

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_columnar_matches_scalar_pooled(self, algorithm):
        for embedded_keys in (False, True):
            cell, compute = pooled_cell(algorithm, embedded_keys)
            assert_golden("parity/pooled", cell, compute())


class TestFuzzedParity:
    @settings(max_examples=12, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        run_formation=st.sampled_from(
            ["load-sort", "replacement-selection"]
        ),
        merge_kernel=st.sampled_from(["heap", "loser-tree"]),
        embedded_keys=st.booleans(),
        memory=st.integers(min_value=10, max_value=16),
        cache=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=1, max_value=4),
        fanouts=st.sampled_from([(6, 6, 6), (4, 5, 6), (3, 4, 4, 3)]),
    )
    def test_pool_is_transparent_fuzzed(
        self,
        algorithm,
        run_formation,
        merge_kernel,
        embedded_keys,
        memory,
        cache,
        seed,
        fanouts,
    ):
        options = MergeOptions(
            run_formation=run_formation,
            merge_kernel=merge_kernel,
            embedded_keys=embedded_keys,
        )
        unpooled = sort_once(
            algorithm, memory, 0, options, fanouts=fanouts, seed=seed
        )
        pooled = sort_once(
            algorithm,
            memory + cache,
            cache,
            options,
            fanouts=fanouts,
            seed=seed,
        )
        assert_parity(unpooled, pooled)

    @settings(max_examples=60, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        run_formation=st.sampled_from(
            ["load-sort", "replacement-selection"]
        ),
        merge_kernel=st.sampled_from(["heap", "loser-tree"]),
        embedded_keys=st.booleans(),
        compaction=st.sampled_from([None, *COMPACTION_MODES]),
        compress=st.sampled_from([None, "container"]),
        memory=st.integers(min_value=8, max_value=14),
        text=st.builds(
            random_document,
            shape=st.sampled_from(["deep", "wide", "bushy"]),
            seed=st.integers(min_value=0, max_value=10**6),
        ),
    )
    def test_matches_stdlib_reference_fuzzed(
        self,
        algorithm,
        run_formation,
        merge_kernel,
        embedded_keys,
        compaction,
        compress,
        memory,
        text,
    ):
        """Random deep, wide, unicode and attribute-heavy documents sort
        to what a stdlib ElementTree sort produces."""
        # ROADMAP item 4: names-only compaction with compression and
        # embedded keys crashes NEXSORT with RunCodecError.
        assume(
            not (
                algorithm == "nexsort"
                and compaction == "names"
                and compress is not None
                and embedded_keys
            )
        )
        store = RunStore(BlockDevice(block_size=256))
        document = Document.from_string(
            store, text, compaction=make_compaction(compaction)
        )
        sorter = nexsort if algorithm == "nexsort" else external_merge_sort
        output, _report = sorter(
            document,
            SPEC,
            memory_blocks=memory,
            merge_options=MergeOptions(
                run_formation=run_formation,
                merge_kernel=merge_kernel,
                embedded_keys=embedded_keys,
                compress=compress,
            ),
        )
        assert canonical_text(output.to_string()) == reference_sort(text)
